"""Nuclear-norm completion and the end-to-end recovery pipeline."""

import numpy as np
import pytest

from specshare.completion import (
    CompletionParams,
    complete,
    radar_pipeline,
    relative_error,
    shrink,
)
from specshare.config import ScenarioConfig, Scheme
from specshare.covdesign import solve_selfish
from specshare.interference import CovarianceSchedule, noise_covariances
from specshare.linalg import crandn
from specshare.scenario import SamplingMask, make_scenario, noiseless_radar_return
from specshare.streams import stream


def rank_one(rng, n=10):
    u = crandn(rng, n)
    v = crandn(rng, n)
    return np.outer(u, v)


def covered_mask(rng, rows, cols, p):
    while True:
        omega = (rng.random((rows, cols)) < p).astype(float)
        if omega.sum(axis=0).min() >= 1 and omega.sum(axis=1).min() >= 1:
            return SamplingMask(omega)


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


class TestComplete:
    def test_full_mask_noiseless(self):
        rng = stream(0, "complete")
        M = rank_one(rng)
        mask = SamplingMask(np.ones((10, 10)))
        est, _, conv = complete(M, mask, CompletionParams(mu_rel=1e-7, tolerance=1e-9))
        assert conv
        assert relative_error(M, est) <= 1e-6

    def test_half_sampled_rank_one(self):
        rng = stream(0, "complete-half")
        M = rank_one(rng)
        mask = covered_mask(rng, 10, 10, 0.5)
        est, _, _ = complete(mask.omega * M, mask)
        assert relative_error(M, est) <= 1e-3

    def test_all_zero_observation(self):
        mask = SamplingMask(np.ones((5, 5)))
        est, iters, conv = complete(np.zeros((5, 5), dtype=complex), mask)
        assert np.all(est == 0)
        assert iters == 0 and conv

    def test_empty_row_rejected(self):
        omega = np.ones((4, 4))
        omega[2, :] = 0.0
        with pytest.raises(ValueError):
            complete(np.ones((4, 4), dtype=complex), SamplingMask(omega))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            complete(np.ones((4, 4), dtype=complex), SamplingMask(np.ones((4, 5))))

    def test_objective_nonincreasing_single_stage(self):
        rng = stream(1, "complete")
        M = rank_one(rng)
        mask = covered_mask(rng, 10, 10, 0.5)
        obs = mask.omega * M
        # mu above the continuation start collapses the schedule to one stage.
        sigma1 = float(np.linalg.svd(obs, compute_uv=False)[0])
        trace = []
        complete(obs, mask, CompletionParams(mu=0.3 * sigma1), objective_trace=trace)
        assert len(trace) >= 2
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-10 * max(trace[0], 1.0))

    def test_observed_entry_consistency(self):
        rng = stream(2, "complete")
        M = rank_one(rng)
        mask = covered_mask(rng, 10, 10, 0.6)
        obs = mask.omega * M
        est, _, _ = complete(obs, mask, CompletionParams(mu_rel=1e-6, tolerance=1e-8))
        resid = np.linalg.norm(mask.omega * est - obs) / np.linalg.norm(obs)
        assert resid <= 1e-4

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CompletionParams(step=0.0)
        with pytest.raises(ValueError):
            CompletionParams(mu=-1.0)
        with pytest.raises(ValueError):
            CompletionParams(max_iterations=0)
        with pytest.raises(ValueError):
            CompletionParams(continuation=1.5)


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


def pipeline_cfg(**kw):
    kw.setdefault("M_tR", 16)
    kw.setdefault("M_rR", 32)
    kw.setdefault("M_tC", 4)
    kw.setdefault("M_rC", 4)
    return ScenarioConfig(**kw)


class TestRadarPipeline:
    def test_clean_full_sampling_recovers_exactly(self):
        cfg = pipeline_cfg(p=1.0, sigma_R2=0.0, seed=0)
        scn = make_scenario(cfg)
        zeros = CovarianceSchedule([np.zeros((cfg.M_tC, cfg.M_tC))] * cfg.L)
        stats = radar_pipeline(
            cfg, scn.target.D, scn.waveforms.S, scn.channels.G2, zeros,
            scn.mask, 2, stream(0, "mc"),
            CompletionParams(mu_rel=1e-8, tolerance=1e-10),
        )
        assert stats.mean_error <= 1e-6

    def test_scheme2_truth_is_target_response(self):
        cfg = pipeline_cfg(p=1.0, sigma_R2=0.0, seed=0, scheme=Scheme.SCHEME_II)
        scn = make_scenario(cfg)
        zeros = CovarianceSchedule([np.zeros((cfg.M_tC, cfg.M_tC))] * cfg.L)
        stats = radar_pipeline(
            cfg, scn.target.D, scn.waveforms.S, scn.channels.G2, zeros,
            scn.mask, 2, stream(0, "mc"),
            CompletionParams(mu_rel=1e-8, tolerance=1e-10),
        )
        assert stats.mean_error <= 1e-6

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
                noise = noise_covariances(cfg, scn.channels.G1, scn.waveforms.S)
                sol = solve_selfish(scn.channels.H, noise, cfg.C)
                stats = radar_pipeline(
                    cfg, scn.target.D, scn.waveforms.S, scn.channels.G2,
                    sol.schedule, scn.mask, 6, stream(seed, "mc", len(targets)),
                    params,
                )
                acc += stats.mean_error
            errs.append(acc / 2)
        assert errs[0] <= errs[1]

    def test_reports_match_trials(self):
        cfg = pipeline_cfg(p=0.5, seed=1)
        scn = make_scenario(cfg)
        zeros = CovarianceSchedule([np.zeros((cfg.M_tC, cfg.M_tC))] * cfg.L)
        stats = radar_pipeline(
            cfg, scn.target.D, scn.waveforms.S, scn.channels.G2, zeros,
            scn.mask, 3, stream(1, "mc"),
        )
        assert len(stats.reports) == 3
        assert stats.mean_error == pytest.approx(
            np.mean([r.relative_error for r in stats.reports])
        )

    def test_truth_helper(self):
        cfg = pipeline_cfg(seed=0)
        scn = make_scenario(cfg)
        truth = noiseless_radar_return(cfg, scn.target.D, scn.waveforms.S)
        assert truth.shape == (cfg.M_rR, cfg.L)
        expect = cfg.gamma * cfg.rho * (scn.target.D @ scn.waveforms.S)
        assert np.linalg.norm(truth - expect) == 0.0
