"""Sampling-mask permutation search and the alternating joint design."""

import itertools

import numpy as np
import pytest

from specshare.config import ScenarioConfig, Scheme
from specshare.covdesign import solve_weighted_eip
from specshare.interference import (
    METHOD_EIP_I,
    interference_diag_matrix,
    noise_covariances,
    scheme_weights,
    weight_schedule,
    weighted_eip,
)
from specshare.samplingopt import (
    best_column_permutation,
    best_row_permutation,
    joint_design,
    mask_objective,
    optimize_mask,
    spectral_gap,
)
from specshare.scenario import SamplingMask, make_scenario
from specshare.streams import stream


def random_mask(rng, rows, cols, p=0.5):
    while True:
        omega = (rng.random((rows, cols)) < p).astype(float)
        if omega.sum() >= 1:
            return SamplingMask(omega)


def exhaustive_minimum(omega, Qtilde):
    """Minimum of Tr(Omega^T Q~) over every row and column permutation."""
    rows, cols = omega.shape
    best = None
    for rp in itertools.permutations(range(rows)):
        for cp in itertools.permutations(range(cols)):
            perm = omega[np.ix_(rp, cp)]
            val = float(np.sum(perm * Qtilde))
            if best is None or val < best:
                best = val
    return best


class TestColumnPermutation:
    def test_swap_reaches_zero(self):
        mask = SamplingMask(np.eye(2))
        Qtilde = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = best_column_permutation(mask, Qtilde)
        assert mask_objective(out, Qtilde) == 0.0

    def test_constant_cost_invariant(self):
        rng = stream(0, "col")
        mask = random_mask(rng, 3, 4)
        Qtilde = np.full((3, 4), 2.5)
        out = best_column_permutation(mask, Qtilde)
        assert mask_objective(out, Qtilde) == mask_objective(mask, Qtilde)

    def test_never_increases(self):
        rng = stream(1, "col")
        for _ in range(20):
            mask = random_mask(rng, 4, 5)
            Qtilde = rng.uniform(size=(4, 5))
            out = best_column_permutation(mask, Qtilde)
            assert mask_objective(out, Qtilde) <= mask_objective(mask, Qtilde) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            best_column_permutation(SamplingMask(np.eye(2)), np.zeros((3, 3)))


class TestRowPermutation:
    def test_swap_reaches_zero(self):
        mask = SamplingMask(np.eye(2))
        Qtilde = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = best_row_permutation(mask, Qtilde)
        assert mask_objective(out, Qtilde) == 0.0

    def test_single_row_identity(self):
        mask = SamplingMask(np.array([[1.0, 0.0, 1.0]]))
        Qtilde = np.array([[0.3, 0.2, 0.5]])
        out = best_row_permutation(mask, Qtilde)
        assert np.array_equal(out.omega, mask.omega)

    def test_never_increases(self):
        rng = stream(2, "row")
        for _ in range(20):
            mask = random_mask(rng, 5, 4)
            Qtilde = rng.uniform(size=(5, 4))
            out = best_row_permutation(mask, Qtilde)
            assert mask_objective(out, Qtilde) <= mask_objective(mask, Qtilde) + 1e-12


class TestOptimizeMask:
    def test_zero_cost_returns_input(self):
        rng = stream(0, "opt")
        mask = random_mask(rng, 3, 4)
        out = optimize_mask(mask, np.zeros((3, 4)))
        assert np.array_equal(out.omega, mask.omega)

    def test_matches_exhaustive_on_small_instances(self):
        rng = stream(1, "opt")
        hits = 0
        for _ in range(30):
            mask = random_mask(rng, 2, 2)
            Qtilde = rng.uniform(size=(2, 2))
            out = optimize_mask(mask, Qtilde)
            if abs(mask_objective(out, Qtilde) - exhaustive_minimum(mask.omega, Qtilde)) < 1e-12:
                hits += 1
        # Alternating row/column assignment solves almost every tiny case;
        # require the overwhelming majority rather than all to allow for
        # alternation fixed points that are not global optima.
        assert hits >= 27

    def test_objective_nonincreasing_and_orbit_preserved(self):
        rng = stream(2, "opt")
        for _ in range(10):
            mask = random_mask(rng, 5, 6)
            Qtilde = rng.uniform(size=(5, 6))
            out = optimize_mask(mask, Qtilde)
            assert mask_objective(out, Qtilde) <= mask_objective(mask, Qtilde) + 1e-12
            assert out.ones_count == mask.ones_count
            s_in = np.linalg.svd(mask.omega, compute_uv=False)
            s_out = np.linalg.svd(out.omega, compute_uv=False)
            assert np.linalg.norm(s_in - s_out) <= 1e-10
            rows_in = sorted(mask.omega.sum(axis=1))
            rows_out = sorted(out.omega.sum(axis=1))
            assert rows_in == rows_out


class TestSpectralGap:
    def test_all_ones(self):
        s1, s2, gap = spectral_gap(SamplingMask(np.ones((4, 6))))
        assert abs(s1 - np.sqrt(24.0)) < 1e-12
        assert abs(s2) < 1e-12
        assert abs(gap - s1) < 1e-12

    def test_identity(self):
        s1, s2, gap = spectral_gap(SamplingMask(np.eye(4)))
        assert abs(s1 - 1.0) < 1e-12
        assert abs(s2 - 1.0) < 1e-12
        assert abs(gap) < 1e-12

    def test_permutation_invariance(self):
        rng = stream(0, "gap")
        mask = random_mask(rng, 4, 5)
        perm = mask.omega[np.ix_(rng.permutation(4), rng.permutation(5))]
        a = spectral_gap(mask)
        b = spectral_gap(SamplingMask(perm))
        assert abs(a[0] - b[0]) < 1e-10 and abs(a[1] - b[1]) < 1e-10

    def test_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(SamplingMask(np.zeros((3, 3))))


def scenario_instance(seed, scheme=Scheme.SCHEME_I, p=0.5, **kw):
    cfg = ScenarioConfig(scheme=scheme, p=p, seed=seed, **kw)
    scn = make_scenario(cfg)
    noise = noise_covariances(cfg, scn.channels.G1, scn.waveforms.S)
    return cfg, scn, noise


class TestJointDesign:
    def test_zero_interference_channel_converges_immediately(self):
        cfg, scn, noise = scenario_instance(0)
        G2 = np.zeros_like(scn.channels.G2)
        result = joint_design(cfg, scn.channels.H, G2, noise, scn.waveforms.S, scn.mask)
        assert result.outer_iterations == 1
        assert result.eip_trace == [0.0]
        assert np.array_equal(result.mask.omega, scn.mask.omega)

    def test_never_worse_than_cooperative(self):
        for seed in range(3):
            cfg, scn, noise = scenario_instance(seed)
            w = weight_schedule(METHOD_EIP_I, cfg.M_rR, cfg.L, mask=scn.mask)
            coop = solve_weighted_eip(w, scn.channels.H, scn.channels.G2, noise,
                                      cfg.P_t, cfg.C)
            result = joint_design(cfg, scn.channels.H, scn.channels.G2, noise,
                                  scn.waveforms.S, scn.mask)
            joint_eip = weighted_eip(
                weight_schedule(METHOD_EIP_I, cfg.M_rR, cfg.L, mask=result.mask),
                interference_diag_matrix(scn.channels.G2, result.solution.schedule))
            assert joint_eip <= coop.objective_eip + 1e-6

    def test_trace_nonincreasing_and_orbit_preserved(self):
        for scheme in (Scheme.SCHEME_I, Scheme.SCHEME_II):
            cfg, scn, noise = scenario_instance(1, scheme=scheme)
            result = joint_design(cfg, scn.channels.H, scn.channels.G2, noise,
                                  scn.waveforms.S, scn.mask)
            trace = result.eip_trace
            assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
            s_in = np.linalg.svd(scn.mask.omega, compute_uv=False)
            s_out = np.linalg.svd(result.mask.omega, compute_uv=False)
            assert np.linalg.norm(s_in - s_out) <= 1e-10

    def test_final_eip_matches_schedule_and_mask(self):
        cfg, scn, noise = scenario_instance(2, scheme=Scheme.SCHEME_II)
        result = joint_design(cfg, scn.channels.H, scn.channels.G2, noise,
                              scn.waveforms.S, scn.mask)
        val = weighted_eip(scheme_weights(cfg, result.mask, scn.waveforms.S),
                           interference_diag_matrix(scn.channels.G2, result.solution.schedule))
        # The recorded trace ends with the EIP of the final schedule under the
        # mask it was solved for.
        assert abs(val - result.eip_trace[-1]) <= 1e-6 * max(val, 1e-12)

    def test_restarts_keep_best(self):
        cfg, scn, noise = scenario_instance(3)
        single = joint_design(cfg, scn.channels.H, scn.channels.G2, noise,
                              scn.waveforms.S, scn.mask)
        multi = joint_design(cfg, scn.channels.H, scn.channels.G2, noise,
                             scn.waveforms.S, scn.mask, restarts=3,
                             rng=stream(3, "restarts"))
        assert multi.eip_trace[-1] <= single.eip_trace[-1] + 1e-12

    def test_restarts_without_rng_rejected(self):
        cfg, scn, noise = scenario_instance(4)
        with pytest.raises(ValueError):
            joint_design(cfg, scn.channels.H, scn.channels.G2, noise,
                         scn.waveforms.S, scn.mask, restarts=2)
