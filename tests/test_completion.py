"""Nuclear-norm completion and the end-to-end recovery pipeline."""

import _thread
import os
import pickle
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from oracles import (
    converged_completion,
    dense_schedule,
    factored,
    looped_observations,
    selfish,
    svd_shrink,
    textbook_completion,
)
from specshare import completion, harness
from specshare.completion import (
    CompletionParams,
    _mu_schedule,
    complete,
    radar_pipeline,
    relative_error,
    shrink,
)
from specshare.config import ScenarioConfig, Scheme
from specshare.harness import ExperimentSpec, format_csv, run_compare
from specshare.interference import MetricError
from specshare.linalg import crandn, gram_spectrum, psd_sqrt
from specshare.scenario import (
    draw_trials,
    generate_target_response,
    make_scenario,
    noiseless_radar_return,
    resolve_sigma_R2,
    synthesize_radar_rx,
)
from specshare.streams import stream


def rank_one(rng, n=10):
    u = crandn(rng, n)
    v = crandn(rng, n)
    return np.outer(u, v)


def covered_mask(rng, rows, cols, p):
    while True:
        omega = (rng.random((rows, cols)) < p).astype(float)
        if omega.sum(axis=0).min() >= 1 and omega.sum(axis=1).min() >= 1:
            return omega


class TestShrink:
    def test_singular_values_soft_thresholded(self):
        rng = stream(0, "shrink")
        X = crandn(rng, 5, 7)
        t = 0.8
        s_before = np.linalg.svd(X, compute_uv=False)
        Z, s = shrink(X, t)
        s_after = np.linalg.svd(Z, compute_uv=False)
        expect = np.maximum(s_before - t, 0.0)
        assert np.linalg.norm(s_after - expect) <= 1e-10
        assert np.linalg.norm(s - expect) <= 1e-10

    def test_large_threshold_zeroes_matrix(self):
        rng = stream(1, "shrink")
        X = crandn(rng, 4, 4)
        t = float(np.linalg.svd(X, compute_uv=False)[0]) + 1.0
        Z, s = shrink(X, t)
        assert np.linalg.norm(Z) == 0.0
        assert np.all(s == 0.0)


EPS = np.finfo(float).eps
ORACLE_THRESHOLDS = (0.5, 1e-1, 1e-2, 1e-4, 1e-7)  # times sigma1


def graded(rng, rows, cols):
    """Random singular vectors with singular values from 1 down to 1e-6."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(crandn(rng, rows, k))
    v, _ = np.linalg.qr(crandn(rng, cols, k))
    return (u * np.logspace(0.0, -6.0, k)) @ v.conj().T


def assert_matches_svd_oracle(X, threshold):
    """shrink agrees with the SVD route within the Gram route's error,
    about n*eps*sigma1^2/sigma_i on each kept value and n*eps*sigma1^2/t on
    the rest and on the matrix (n the narrow side)."""
    Z, s = shrink(X, threshold)
    Z_ref, s_ref = svd_shrink(X, threshold)
    sigma1 = float(np.linalg.svd(X, compute_uv=False)[0])
    n = min(X.shape)
    assert Z.shape == X.shape and s.shape == (n,)
    assert np.all(np.diff(s) <= 0.0)
    scale = 8.0 * n * EPS * sigma1**2
    kept = s_ref > 0.0
    assert np.all(np.abs(s - s_ref)[kept] <= scale / (s_ref[kept] + threshold))
    assert np.all(s[~kept] <= scale / threshold)
    assert np.linalg.norm(Z - Z_ref) <= scale / threshold


class TestShrinkOracle:
    """shrink against the thin-SVD soft threshold it replaced."""

    @pytest.mark.parametrize("shape", [(32, 32), (32, 16), (16, 32), (7, 5), (5, 7), (1, 6), (6, 1)])
    def test_full_rank(self, shape):
        for seed in range(5):
            X = crandn(stream(seed, "shrink-oracle", *shape), *shape)
            sigma1 = float(np.linalg.svd(X, compute_uv=False)[0])
            for rel in ORACLE_THRESHOLDS:
                assert_matches_svd_oracle(X, rel * sigma1)

    @pytest.mark.parametrize("shape", [(32, 32), (32, 16), (16, 32), (7, 5), (5, 7)])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_rank_deficient(self, shape, rank):
        rows, cols = shape
        for seed in range(5):
            rng = stream(seed, "shrink-oracle-rank", rank, *shape)
            X = crandn(rng, rows, rank) @ crandn(rng, rank, cols)
            sigma1 = float(np.linalg.svd(X, compute_uv=False)[0])
            for rel in ORACLE_THRESHOLDS:
                assert_matches_svd_oracle(X, rel * sigma1)
            # The Gram route reads a zero singular value as up to about
            # sqrt(n*eps)*sigma1; every threshold the completer uses is far
            # above that, so the null space is dropped exactly.
            _, s = shrink(X, 1e-4 * sigma1)
            assert np.all(s[rank:] == 0.0)

    @pytest.mark.parametrize("shape", [(32, 32), (32, 16), (16, 32)])
    def test_graded_spectrum(self, shape):
        # The Gram route's error grows as sigma_i shrinks, and the smallest
        # thresholds keep such values.
        for seed in range(5):
            X = graded(stream(seed, "shrink-oracle-graded", *shape), *shape)
            for rel in ORACLE_THRESHOLDS:
                assert_matches_svd_oracle(X, rel)

    def test_complete_matches_svd_route(self, monkeypatch):
        # One mc-recovery-shaped completion (32 x 32 radar data, p = 0.5,
        # default parameters) with each kernel.
        observed, omega = mc_recovery_input()
        assert observed.shape == (32, 32)
        est, iters, conv = complete(observed, omega)
        monkeypatch.setattr("specshare.completion.shrink", svd_shrink)
        est_ref, iters_ref, conv_ref = complete(observed, omega)
        assert iters == iters_ref and conv == conv_ref
        assert np.linalg.norm(est - est_ref) <= 1e-8 * np.linalg.norm(est_ref)


def mc_recovery_input():
    """The first completion input of a 32 x 32 Scheme I radar pipeline at
    p = 0.5 under the selfish design: (observed, omega)."""
    cfg = pipeline_cfg(L=32, p=0.5, seed=1)
    scn = make_scenario(cfg)
    sol = selfish(scn.B, cfg.C, cfg.P_t, scn.G2)
    roots = psd_sqrt(dense_schedule(sol.X, sol.d))
    (v,), (alpha2,), (noise,) = draw_trials(cfg, 1, stream(1, "mc"))
    X = (roots @ v[:, :, None])[:, :, 0].T
    observed = synthesize_radar_rx(cfg, scn.S, scn.G2, X, alpha2, scn.omega, noise)
    return observed, scn.omega


class TestConvergenceOracle:
    """complete() at a fixed mu and the default tolerance against the
    minimizer that converged_completion certifies, at mu = 0.025 sigma1,
    about the noise-calibrated penalty of the mc-recovery inputs."""

    # Measured relative distances: 1.4e-5, 1.22e-4 and 3.7e-6 on the
    # rank-one fixtures, 3.7e-5 on the 32 x 32 input.
    BOUND = 2e-4

    def assert_near_oracle(self, observed, omega):
        mu = 0.025 * float(np.linalg.svd(omega * observed, compute_uv=False)[0])
        want = converged_completion(observed, omega, mu)
        est, _, conv = complete(observed, omega, CompletionParams(mu=mu))
        assert conv
        assert np.linalg.norm(est - want) <= self.BOUND * np.linalg.norm(want)

    @pytest.mark.parametrize("seed,name,p", [
        (0, "complete-half", 0.5), (1, "complete", 0.5), (2, "complete", 0.6),
    ])
    def test_rank_one(self, seed, name, p):
        rng = stream(seed, name)
        M = rank_one(rng)
        mask = covered_mask(rng, 10, 10, p)
        self.assert_near_oracle(mask * M, mask)

    def test_mc_recovery_input(self):
        self.assert_near_oracle(*mc_recovery_input())


class TestMuSchedule:
    def test_strictly_decreasing_without_duplicate_last_stage(self):
        for sigma1 in np.linspace(0.5, 50.0, 1000):
            for continuation in (0.1, 0.3, 0.5):
                mu_final = 1e-4 * sigma1
                mus = _mu_schedule(sigma1, mu_final, continuation)
                assert mus[0] <= continuation * sigma1
                assert mus[-1] == mu_final
                assert np.all(np.diff(mus) < 0.0)
                assert all(mu > mu_final * (1.0 + 1e-9) for mu in mus[:-1])

    def test_rounding_above_target_adds_no_stage(self):
        # 0.1**4 rounds to 1.0000000000000003e-4 > 1e-4.
        assert 0.1 * 0.1 * 0.1 * 0.1 > 1e-4
        assert _mu_schedule(1.0, 1e-4, 0.1) == pytest.approx([0.1, 0.01, 1e-3, 1e-4], rel=1e-15)


class TestComplete:
    def test_full_mask_noiseless(self):
        rng = stream(0, "complete")
        M = rank_one(rng)
        mask = np.ones((10, 10))
        est, _, conv = complete(M, mask, CompletionParams(mu_rel=1e-7, tolerance=1e-9))
        assert conv
        assert relative_error(M, est) <= 1e-6

    def test_half_sampled_rank_one(self):
        rng = stream(0, "complete-half")
        M = rank_one(rng)
        mask = covered_mask(rng, 10, 10, 0.5)
        est, _, _ = complete(mask * M, mask)
        assert relative_error(M, est) <= 1e-3

    def test_all_zero_observation(self):
        mask = np.ones((5, 5))
        est, iters, conv = complete(np.zeros((5, 5), dtype=complex), mask)
        assert np.all(est == 0)
        assert iters == 0 and conv

    def test_empty_row_rejected(self):
        omega = np.ones((4, 4))
        omega[2, :] = 0.0
        with pytest.raises(ValueError):
            complete(np.ones((4, 4), dtype=complex), omega)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            complete(np.ones((4, 4), dtype=complex), np.ones((4, 5)))

    def test_non_binary_mask_rejected(self):
        omega = np.ones((4, 4))
        omega[1, 2] = 0.5
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            complete(np.ones((4, 4), dtype=complex), omega)

    def test_matches_textbook_formulas(self):
        # The 32 x 32 mc-recovery input at the default penalty and at one
        # 100 times larger, and a wide 8 x 12 rank-one input: the same
        # iteration counts, and the estimate to rounding (measured within
        # 2.7e-12 relative over seeds 13-14 of the mc-recovery benchmark).
        rng = stream(3, "complete-wide")
        u, v = crandn(rng, 8, 1), crandn(rng, 1, 12)
        wide = covered_mask(rng, 8, 12, 0.6)
        cases = [(*mc_recovery_input(), CompletionParams()),
                 (*mc_recovery_input(), CompletionParams(mu_rel=1e-2)),
                 (wide * (u @ v), wide, CompletionParams(mu_rel=1e-3))]
        for observed, omega, params in cases:
            est, iters, conv = complete(observed, omega, params)
            want, want_iters, want_conv = textbook_completion(observed, omega, params)
            assert (iters, conv) == (want_iters, want_conv)
            assert np.linalg.norm(est - want) <= 1e-10 * np.linalg.norm(want)

    def test_one_spectrum_per_iteration(self, monkeypatch):
        # One spectrum for sigma1 and one per iteration, by its shrink: a
        # continuation stage starts from the objective its accepted iterate
        # carries, with no decomposition of its own. The default penalty
        # runs four stages, so a stage-start spectrum would show.
        params = CompletionParams()
        assert len(_mu_schedule(1.0, params.mu_rel, completion._CONTINUATION)) == 4
        observed, omega = mc_recovery_input()
        calls = []

        def counted(X):
            calls.append(X.shape)
            return gram_spectrum(X)

        monkeypatch.setattr(completion, "gram_spectrum", counted)
        _, iters, _ = complete(observed, omega, params)
        assert len(calls) == iters + 1

    def test_objective_nonincreasing_single_stage(self, monkeypatch):
        rng = stream(1, "complete")
        M = rank_one(rng)
        mask = covered_mask(rng, 10, 10, 0.5)
        obs = mask * M
        # mu above the continuation start collapses the schedule to one stage.
        sigma1 = float(np.linalg.svd(obs, compute_uv=False)[0])
        params = CompletionParams(mu=0.3 * sigma1)
        _, n, conv = complete(obs, mask, params)
        assert n >= 2 and conv
        # Capped at k iterations, the stage returns its k-th accepted iterate.
        trace = []
        for k in range(1, n + 1):
            monkeypatch.setattr(completion, "_MAX_ITERATIONS", k)
            X, iters, conv = complete(obs, mask, params)
            assert (iters, conv) == (k, k == n)
            nuc = np.linalg.svd(X, compute_uv=False).sum()
            trace.append(params.mu * nuc + 0.5 * np.linalg.norm(mask * (X - obs)) ** 2)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-10 * max(trace[0], 1.0))

    def test_observed_entry_consistency(self):
        rng = stream(2, "complete")
        M = rank_one(rng)
        mask = covered_mask(rng, 10, 10, 0.6)
        obs = mask * M
        est, _, _ = complete(obs, mask, CompletionParams(mu_rel=1e-6, tolerance=1e-8))
        resid = np.linalg.norm(mask * est - obs) / np.linalg.norm(obs)
        assert resid <= 1e-4

    def test_invalid_params_rejected(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="mu must be positive and finite"):
                CompletionParams(mu=bad)
        for bad in (0.0, -1e-4, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="mu_rel must"):
                CompletionParams(mu_rel=bad)
            with pytest.raises(ValueError, match="tolerance must"):
                CompletionParams(tolerance=bad)


class TestRelativeError:
    def test_exact(self):
        A = np.ones((3, 3))
        assert relative_error(A, A) == 0.0

    def test_zero_estimate(self):
        A = np.ones((3, 3))
        assert abs(relative_error(A, np.zeros((3, 3))) - 1.0) < 1e-15

    def test_double_estimate(self):
        A = np.ones((3, 3))
        assert abs(relative_error(A, 2 * A) - 1.0) < 1e-15

    def test_scale_detection(self):
        rng = stream(0, "relerr")
        A = crandn(rng, 4, 4)
        for c in (0.0, 0.5, 1.0, 1.7):
            assert abs(relative_error(A, c * A) - abs(1.0 - c)) < 1e-12

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,)])
    def test_shape_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="^shape mismatch$"):
            relative_error(np.ones((2, 2)), np.ones(shape))


def pipeline_cfg(**kw):
    kw.setdefault("M_tR", 16)
    kw.setdefault("M_rR", 32)
    kw.setdefault("M_tC", 4)
    kw.setdefault("M_rC", 4)
    return ScenarioConfig(**kw)


# The inputs of test_observations_equal_a_loop_over_trials: (scheme, method,
# config fields). The selfish design, whose directions are orthogonal, at
# shapes where a matrix product may be a vector one; and weighted designs,
# whose directions are not, at the mc-recovery shape, where each symbol
# powers 3 of its 4 directions.
_LOOP_CASES = [
    *(pytest.param(scheme, "selfish", dict(M_rR=M_rR, M_tC=M_tC, L=L, p=1.0, C=1.0),
                   id=f"{M_rR}-{M_tC}-{L}-{scheme}")
      for M_rR, M_tC, L in [(1, 1, 4), (1, 3, 32), (3, 2, 32), (8, 8, 32), (32, 4, 128), (5, 1, 32)]
      for scheme in Scheme),
    *(pytest.param(scheme, method, dict(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=32, p=0.5),
                   id=f"{method}-32-4-32-{scheme}")
      for scheme, method in [(Scheme.SCHEME_I, "noncoop"), (Scheme.SCHEME_II, "noncoop"),
                             (Scheme.SCHEME_I, "coop"), (Scheme.SCHEME_II, "full")]),
]


class TestRadarPipeline:
    @pytest.mark.parametrize("scheme,method,fields", _LOOP_CASES)
    def test_observations_equal_a_loop_over_trials(self, monkeypatch, scheme, method, fields):
        # The stacked draw and synthesis give the data a loop over trials
        # gives, bit for bit, and the root the pipeline forms from the
        # factors is that of their dense stack. With M_rR = 1 or M_tC = 1 a
        # matrix product is a vector one, which BLAS may round differently
        # (oracles.eip_samples).
        cfg = ScenarioConfig(**fields, scheme=scheme, seed=1)
        scn = make_scenario(cfg)
        sol, omega = harness._solve_method(method, cfg, scn)
        seen = []

        def record(observations, *args):
            seen.append(np.array(observations))
            return [completion.RecoveryReport(0.0, 0, True)] * len(observations)

        monkeypatch.setattr(completion, "_complete_trials", record)
        radar_pipeline(cfg, scn.S, scn.G2, sol.X, sol.d, omega, 3, stream(1, "mc"))
        want = looped_observations(cfg, scn.S, scn.G2, dense_schedule(sol.X, sol.d),
                                   omega, 3, stream(1, "mc"))
        assert seen[0].shape == want.shape and seen[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_3000_dB_observations_are_noise_free(self, monkeypatch, scheme):
        """At snr_dB = 3000 the radar noise is below half an ulp of the
        return: the clean-recovery tests below complete the noise-free
        observations, bit for bit."""
        cfg = pipeline_cfg(p=1.0, snr_dB=3000.0, seed=0, scheme=scheme)
        scn = make_scenario(cfg)
        assert resolve_sigma_R2(cfg, scn.S) > 0.0
        seen = []

        def record(observations, *args):
            seen.append(np.array(observations))
            return [completion.RecoveryReport(0.0, 0, True)] * len(observations)

        monkeypatch.setattr(completion, "_complete_trials", record)
        zeros = np.zeros((cfg.L, cfg.M_tC, cfg.M_tC))
        radar_pipeline(cfg, scn.S, scn.G2, *factored(zeros), scn.omega, 2, stream(0, "mc"))
        noise_free = synthesize_radar_rx(
            cfg, scn.S, scn.G2, np.zeros((2, cfg.M_tC, cfg.L), dtype=complex),
            np.zeros((2, cfg.L)), scn.omega, np.zeros((2, cfg.M_rR, cfg.L), dtype=complex),
        )
        assert seen[0].tobytes() == noise_free.tobytes()

    def test_clean_full_sampling_recovers_exactly(self):
        cfg = pipeline_cfg(p=1.0, snr_dB=3000.0, seed=0)
        scn = make_scenario(cfg)
        zeros = np.zeros((cfg.L, cfg.M_tC, cfg.M_tC))
        stats = radar_pipeline(
            cfg, scn.S, scn.G2, *factored(zeros),
            scn.omega, 2, stream(0, "mc"),
            CompletionParams(mu_rel=1e-8, tolerance=1e-10),
        )
        assert stats.mean_error <= 1e-6

    def test_scheme2_truth_is_target_response(self):
        cfg = pipeline_cfg(p=1.0, snr_dB=3000.0, seed=0, scheme=Scheme.SCHEME_II)
        scn = make_scenario(cfg)
        zeros = np.zeros((cfg.L, cfg.M_tC, cfg.M_tC))
        stats = radar_pipeline(
            cfg, scn.S, scn.G2, *factored(zeros),
            scn.omega, 2, stream(0, "mc"),
            CompletionParams(mu_rel=1e-8, tolerance=1e-10),
        )
        assert stats.mean_error <= 1e-6

    def test_no_trials_rejected(self):
        cfg = pipeline_cfg(p=0.5, seed=0)
        scn = make_scenario(cfg)
        zeros = np.zeros((cfg.L, cfg.M_tC, cfg.M_tC))
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                radar_pipeline(cfg, scn.S, scn.G2, *factored(zeros), scn.omega, trials,
                               stream(0, "mc"))

    def test_more_targets_never_easier(self):
        base = [(30.0, 0.2 + 0.1j)]
        spread = [(-40.0, (0.2 + 0.1j) / np.sqrt(3)),
                  (0.0, (0.2 + 0.1j) / np.sqrt(3)),
                  (40.0, (0.2 + 0.1j) / np.sqrt(3))]
        params = CompletionParams(mu_rel=0.1)
        errs = []
        for targets in (base, spread):
            acc = 0.0
            for seed in range(2):
                cfg = pipeline_cfg(p=0.5, seed=seed, targets=targets)
                scn = make_scenario(cfg)
                sol = selfish(scn.B, cfg.C, cfg.P_t, scn.G2)
                stats = radar_pipeline(
                    cfg, scn.S, scn.G2,
                    sol.X, sol.d, scn.omega, 6, stream(seed, "mc", len(targets)),
                    params,
                )
                acc += stats.mean_error
            errs.append(acc / 2)
        assert errs[0] <= errs[1]

    def test_reports_match_trials(self):
        cfg = pipeline_cfg(p=0.5, seed=1)
        scn = make_scenario(cfg)
        zeros = np.zeros((cfg.L, cfg.M_tC, cfg.M_tC))
        stats = radar_pipeline(
            cfg, scn.S, scn.G2, *factored(zeros),
            scn.omega, 3, stream(1, "mc"),
        )
        assert len(stats.reports) == 3
        assert stats.mean_error == pytest.approx(
            np.mean([r.relative_error for r in stats.reports])
        )

    def test_truth_helper(self):
        cfg = pipeline_cfg(seed=0)
        scn = make_scenario(cfg)
        truth = noiseless_radar_return(cfg, scn.S)
        assert truth.shape == (cfg.M_rR, cfg.L)
        expect = cfg.gamma * cfg.rho * (generate_target_response(cfg) @ scn.S)
        assert np.linalg.norm(truth - expect) == 0.0


def usable_cpus(monkeypatch, n):
    """Make the process's CPU affinity mask read as n CPUs, and its threads
    as its Python threads: a BLAS library's own pool, which an unpinned
    OpenBLAS runs beside the main thread, goes unseen."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(completion, "_thread_count", threading.active_count)


def selfish_pipeline(cfg, trials):
    scn = make_scenario(cfg)
    sol = selfish(scn.B, cfg.C, cfg.P_t, scn.G2)
    return radar_pipeline(cfg, scn.S, scn.G2, sol.X, sol.d, scn.omega, trials,
                          stream(cfg.seed, "mc"))


def outcome(stats):
    return (stats.mean_error, stats.std_error,
            [(r.relative_error, r.iterations, r.converged) for r in stats.reports])


def no_fork():
    raise AssertionError("a trial worker was forked")


def no_child_left() -> bool:
    """Whether this process has no child process, running or exited and
    not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def in_the_workers(failure):
    """A stand-in for completion.complete that calls failure() in a fork
    worker and completes nothing in the calling process."""
    me = os.getpid()

    def complete(observed, omega, params=None):
        if os.getpid() != me:
            failure()
        return np.zeros_like(observed), 0, True

    return complete


def cpu_count_runs(cfg):
    """For 1 and then 2 usable CPUs: the outcome of 5 selfish-design trials,
    then whether no child process is left, and the threads left running."""
    runs = []
    with pytest.MonkeyPatch.context() as m:
        for n in (1, 2):
            usable_cpus(m, n)
            runs.append((outcome(selfish_pipeline(cfg, 5)),
                         no_child_left(), threading.active_count()))
    return runs


def recorded_shares(m):
    """Record in the returned list the CPU share each radar_pipeline call
    takes, with m (a MonkeyPatch) wrapping completion._cpu_share."""
    shares, real_share = [], completion._cpu_share

    def cpu_share(trials):
        shares.append(real_share(trials))
        return shares[-1]

    m.setattr(completion, "_cpu_share", cpu_share)
    return shares


def recovery_outcomes(spec):
    """The CSV of run_compare(spec), the outcome of each radar_pipeline call
    it makes, the CPUs that completed each call's trials, and whether
    multiprocessing was imported by the end of the run."""
    outcomes = []

    def recorded(*args):
        stats = radar_pipeline(*args)
        outcomes.append(outcome(stats))
        return stats

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "radar_pipeline", recorded)
        shares = recorded_shares(m)
        return format_csv(run_compare(spec)), outcomes, shares, "multiprocessing" in sys.modules


def back_to_back_shares(cfg):
    """The CPU share of each of 100 back-to-back 2-trial radar_pipeline
    calls on cfg's selfish design, and the process's thread count after
    each call."""
    scn = make_scenario(cfg)
    sol = selfish(scn.B, cfg.C, cfg.P_t, scn.G2)
    rng = stream(cfg.seed, "mc")
    threads = []
    with pytest.MonkeyPatch.context() as m:
        shares = recorded_shares(m)
        for _ in range(100):
            radar_pipeline(cfg, scn.S, scn.G2, sol.X, sol.d, scn.omega, 2, rng)
            threads.append(completion._thread_count())
    return shares, threads


def usable_cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return 1


def pinned_run(call, arg, one_cpu=False):
    """call(arg), call a function of this module, in a child interpreter
    whose OpenBLAS runs one thread, with a RuntimeWarning an error as under
    pytest. With one_cpu, the child first restricts itself to one of the
    CPUs it may use, as taskset -c does."""
    script = ("import os, pickle, sys, warnings; warnings.simplefilter('error', RuntimeWarning); "
              + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if one_cpu else "")
              + f"from test_completion import {call.__name__} as call; "
              "pickle.dump(call(pickle.load(sys.stdin.buffer)), sys.stdout.buffer)")
    paths = [os.path.dirname(os.path.abspath(__file__)),
             os.path.dirname(os.path.dirname(completion.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(arg),
                           capture_output=True, env=env)
    assert child.returncode == 0, child.stderr.decode()
    return pickle.loads(child.stdout)


class TestParallelTrials:
    """radar_pipeline completes its trials on the CPUs the process may use;
    the result is the in-process loop's bit for bit."""

    @pytest.mark.parametrize("cfg", [
        pipeline_cfg(L=32, p=0.5, seed=13),  # the mc-recovery benchmark config
        pipeline_cfg(L=32, p=0.5, seed=14),
        ScenarioConfig(seed=0),
    ], ids=["mc-recovery-13", "mc-recovery-14", "default"])
    def test_bit_identical_for_any_cpu_count(self, cfg):
        # usable_cpus hides an unpinned BLAS library's threads, which the
        # fork workers would then compete with for the CPUs: the runs take
        # place where BLAS has one thread.
        runs = pinned_run(cpu_count_runs, cfg)
        (one, *_), (two, *_) = runs
        assert one == two
        # No child process is left, and no thread beside the main one.
        assert [run[1:] for run in runs] == [(True, 1), (True, 1)]

    @pytest.mark.skipif(usable_cpu_count() < 2, reason="one usable CPU: no fork worker to compare")
    @pytest.mark.parametrize("spec", [
        ExperimentSpec(cfg=ScenarioConfig(), methods=["selfish", "noncoop"], seeds=[0, 1],
                       mc_trials=4),
        # The joint design permutes this 32 x 32 radar's mask, so a job's
        # methods complete against two masks; 3 trials split unevenly.
        ExperimentSpec(cfg=pipeline_cfg(L=32, p=0.5), methods=["selfish", "noncoop", "joint"],
                       seeds=[0, 1], mc_trials=3),
    ], ids=["default", "joint-32x32"])
    def test_one_real_cpu_matches_all(self, spec):
        """The recovery rows, and every trial's report, of a process pinned to
        one CPU equal those of one that may use them all."""
        one, every = (pinned_run(recovery_outcomes, spec, one_cpu) for one_cpu in (True, False))
        assert one[:2] == every[:2]
        assert one[2] == [1] * len(one[1])
        assert every[2] == [min(usable_cpu_count(), spec.mc_trials)] * len(every[1])

    @pytest.mark.skipif(usable_cpu_count() < 2, reason="one usable CPU: no fork worker to start")
    def test_workers_need_no_multiprocessing(self):
        """The fork workers are bare os.fork children: a run with recovery
        trials that forks them imports no multiprocessing module."""
        spec = ExperimentSpec(cfg=ScenarioConfig(), methods=["selfish"], seeds=[0], mc_trials=2)
        _, outcomes, shares, imported = pinned_run(recovery_outcomes, spec)
        assert shares == [2] * len(outcomes)
        assert not imported

    @pytest.mark.skipif(usable_cpu_count() < 2, reason="one usable CPU: no fork worker to start")
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no per-process thread list")
    def test_each_call_leaves_no_thread_for_the_next(self):
        """radar_pipeline leaves no thread behind when it returns, so the
        next call, right after it, starts its fork workers again."""
        shares, threads = pinned_run(back_to_back_shares, ScenarioConfig(seed=1))
        assert shares == [min(usable_cpu_count(), 2)] * 100
        assert threads == [1] * 100

    def test_caller_takes_a_fixed_share_from_the_back(self, monkeypatch):
        def pid_as_iterations(observed, omega, params=None):
            return np.zeros_like(observed), os.getpid(), True

        monkeypatch.setattr(completion, "complete", pid_as_iterations)
        cfg = ScenarioConfig(seed=1)
        me = os.getpid()
        for n, trials, own in ((2, 5, 2), (2, 4, 2), (3, 7, 2), (4, 2, 1)):
            usable_cpus(monkeypatch, n)
            pids = [r.iterations for r in selfish_pipeline(cfg, trials).reports]
            assert pids[trials - own:] == [me] * own
            assert me not in pids[:trials - own]
        usable_cpus(monkeypatch, 1)
        assert [r.iterations for r in selfish_pipeline(cfg, 4).reports] == [me] * 4

    @pytest.mark.parametrize("kind,message", [
        ("empty column", "mask has an empty row or column; completion impossible"),
        ("zero truth", "relative error undefined for zero truth"),
    ])
    def test_trial_error_propagates(self, monkeypatch, kind, message):
        targets = [(30.0, 0j)] if kind == "zero truth" else [(30.0, 0.2 + 0.1j)]
        cfg = pipeline_cfg(p=0.5, seed=1, targets=targets)
        scn = make_scenario(cfg)
        omega = scn.omega.copy()
        if kind == "empty column":
            omega[:, 0] = 0.0
        zeros = np.zeros((cfg.L, cfg.M_tC, cfg.M_tC))
        errors = []
        for n in (1, 2):
            usable_cpus(monkeypatch, n)
            with pytest.raises(MetricError, match=message) as exc:
                radar_pipeline(cfg, scn.S, scn.G2, *factored(zeros), omega, 3,
                               stream(1, "mc"))
            errors.append((type(exc.value), str(exc.value)))
            assert no_child_left()
        assert errors[0] == errors[1]

    def test_interrupt_in_the_caller_propagates(self, monkeypatch):
        me = os.getpid()

        def interrupted_here(observed, omega, params=None):
            if os.getpid() == me:
                raise KeyboardInterrupt
            return np.zeros_like(observed), 0, True

        monkeypatch.setattr(completion, "complete", interrupted_here)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            selfish_pipeline(ScenarioConfig(seed=1), 6)
        assert no_child_left()

    def test_worker_error_comes_back(self, monkeypatch):
        """An error a trial raises in a fork worker is raised by the caller
        with its type and message, so a LinAlgError stays a row error."""
        def no_convergence():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(completion, "complete", in_the_workers(no_convergence))
        usable_cpus(monkeypatch, 2)
        with pytest.raises(np.linalg.LinAlgError) as exc:
            selfish_pipeline(ScenarioConfig(seed=1), 3)
        assert (type(exc.value), str(exc.value)) == (np.linalg.LinAlgError,
                                                     "Eigenvalues did not converge")
        assert no_child_left()
        spec = ExperimentSpec(cfg=ScenarioConfig(), methods=["selfish", "noncoop"], mc_trials=2)
        assert [row.error for row in run_compare(spec)] == ["Eigenvalues did not converge"] * 2
        assert no_child_left()

    def test_worker_exit_without_reports_raises(self, monkeypatch):
        monkeypatch.setattr(completion, "complete", in_the_workers(lambda: os._exit(3)))
        usable_cpus(monkeypatch, 2)
        with pytest.raises(EOFError, match=r"^trial worker \d+ exited with code 3 before "
                                           r"sending its reports$"):
            selfish_pipeline(ScenarioConfig(seed=1), 3)
        assert no_child_left()

    def test_killed_worker_raises(self, monkeypatch):
        def killed():
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(completion, "complete", in_the_workers(killed))
        usable_cpus(monkeypatch, 2)
        with pytest.raises(EOFError, match=r"^trial worker \d+ exited with code -9 before "
                                           r"sending its reports$"):
            selfish_pipeline(ScenarioConfig(seed=1), 3)
        assert no_child_left()

    def test_failed_fork_raises_its_own_error(self, monkeypatch):
        """A fork that fails after another worker started raises its error,
        and the started worker is reaped."""
        real_fork, forks = os.fork, []

        def fork_once():
            if forks:
                raise BlockingIOError("fork: resource temporarily unavailable")
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        usable_cpus(monkeypatch, 3)
        with pytest.raises(BlockingIOError, match="^fork: resource temporarily unavailable$"):
            selfish_pipeline(ScenarioConfig(seed=1), 3)
        assert forks == [os.getpid()]
        assert no_child_left()

    def test_thread_count_without_a_task_list(self, monkeypatch):
        def no_task_list(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "listdir", no_task_list)
        assert completion._thread_count() == threading.active_count()

    def test_share_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(completion, "_thread_count", lambda: 1)
        for cpus, trials, share in ((3, 5, 3), (3, 2, 2), (None, 5, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert completion._cpu_share(trials) == share

    def test_no_fork_without_a_second_cpu_or_trial(self, monkeypatch):
        # TestPinnedDraws.test_first_pipeline_observation relies on a single
        # trial completing in-process.
        monkeypatch.setattr(os, "fork", no_fork)
        cfg = ScenarioConfig(seed=1)
        usable_cpus(monkeypatch, 2)
        selfish_pipeline(cfg, 1)
        usable_cpus(monkeypatch, 1)
        selfish_pipeline(cfg, 2)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no per-process thread list")
    def test_no_fork_beside_a_native_thread(self, monkeypatch):
        # A thread of the _thread module, as a native library's would be,
        # is not among threading's threads, but it is among the OS threads.
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        before = completion._thread_count()
        started, stop = _thread.allocate_lock(), _thread.allocate_lock()
        started.acquire()
        stop.acquire()

        def wait():
            started.release()
            stop.acquire()

        _thread.start_new_thread(wait, ())
        started.acquire()
        try:
            assert completion._thread_count() == before + 1
            assert completion._cpu_share(2) == 1
            selfish_pipeline(ScenarioConfig(seed=1), 2)
        finally:
            stop.release()

    def test_no_fork_beside_other_threads(self, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        usable_cpus(monkeypatch, 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            selfish_pipeline(ScenarioConfig(seed=1), 2)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
