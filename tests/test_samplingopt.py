"""Sampling-mask permutation search and the alternating joint design."""

import itertools

import numpy as np
import pytest

from specshare import samplingopt
from specshare.config import ScenarioConfig, Scheme
from specshare.covdesign import solve_weighted_eip
from specshare.interference import (
    interference_diag_matrix,
    noise_covariances,
    scheme_weights,
    weighted_eip,
)
from specshare.samplingopt import (
    best_column_permutation,
    joint_design,
    mask_objective,
    optimize_mask,
    spectral_gap,
)
from specshare.scenario import make_scenario
from specshare.streams import stream


def random_mask(rng, rows, cols, p=0.5):
    while True:
        omega = (rng.random((rows, cols)) < p).astype(float)
        if omega.sum() >= 1:
            return omega


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
        mask = np.eye(2)
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
            best_column_permutation(np.eye(2), np.zeros((3, 3)))


def transposed_column_step(omega, Qtilde):
    """optimize_mask's row step: the column step on the transposes."""
    return best_column_permutation(omega.T, Qtilde.T).T


class TestRowPermutation:
    def test_swap_reaches_zero(self):
        mask = np.eye(2)
        Qtilde = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = transposed_column_step(mask, Qtilde)
        assert mask_objective(out, Qtilde) == 0.0

    def test_single_row_identity(self):
        mask = np.array([[1.0, 0.0, 1.0]])
        Qtilde = np.array([[0.3, 0.2, 0.5]])
        out = transposed_column_step(mask, Qtilde)
        assert np.array_equal(out, mask)

    def test_never_increases(self):
        rng = stream(2, "row")
        for _ in range(20):
            mask = random_mask(rng, 5, 4)
            Qtilde = rng.uniform(size=(5, 4))
            out = transposed_column_step(mask, Qtilde)
            assert mask_objective(out, Qtilde) <= mask_objective(mask, Qtilde) + 1e-12


class TestOptimizeMask:
    def test_zero_cost_returns_input(self):
        rng = stream(0, "opt")
        mask = random_mask(rng, 3, 4)
        out = optimize_mask(mask, np.zeros((3, 4)))
        assert np.array_equal(out, mask)

    def test_matches_exhaustive_on_small_instances(self):
        rng = stream(1, "opt")
        hits = 0
        for _ in range(30):
            mask = random_mask(rng, 2, 2)
            Qtilde = rng.uniform(size=(2, 2))
            out = optimize_mask(mask, Qtilde)
            if abs(mask_objective(out, Qtilde) - exhaustive_minimum(mask, Qtilde)) < 1e-12:
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
            assert out.sum() == mask.sum()
            s_in = np.linalg.svd(mask, compute_uv=False)
            s_out = np.linalg.svd(out, compute_uv=False)
            assert np.linalg.norm(s_in - s_out) <= 1e-10
            rows_in = sorted(mask.sum(axis=1))
            rows_out = sorted(out.sum(axis=1))
            assert rows_in == rows_out


def cost_of_kind(rng, kind, rows, cols):
    """A mask cost Q~: continuous, small integers, or binary; the last two
    are full of ties."""
    if kind == "continuous":
        return rng.uniform(size=(rows, cols))
    if kind == "integer":
        return rng.integers(0, 3, size=(rows, cols)).astype(float)
    return (rng.random((rows, cols)) < 0.5).astype(float)


class TestFixedPoint:
    """optimize_mask stops at a mask that neither step kind can lower."""

    @pytest.mark.parametrize("kind", ["continuous", "integer", "binary"])
    def test_no_further_step_lowers_the_result(self, kind):
        rng = stream(3, "opt", kind)
        for _ in range(100):
            rows, cols = (int(n) for n in rng.integers(2, 9, size=2))
            mask = random_mask(rng, rows, cols)
            Qtilde = cost_of_kind(rng, kind, rows, cols)
            out = optimize_mask(mask, Qtilde)
            obj = mask_objective(out, Qtilde)
            assert obj <= mask_objective(mask, Qtilde)
            assert mask_objective(best_column_permutation(out, Qtilde), Qtilde) >= obj
            assert mask_objective(transposed_column_step(out, Qtilde), Qtilde) >= obj

    def test_ends_well_inside_the_cap_on_ties(self, monkeypatch):
        """Integer and binary costs: a stop on "the step left the mask
        unchanged" cycles between tied masks on some of these and runs to
        the cap of 2 * _MAX_SWEEPS steps; the strict-decrease stop ends
        within 8."""
        steps = [0]
        column_step = samplingopt.best_column_permutation

        def counting(*args):
            steps[0] += 1
            return column_step(*args)

        monkeypatch.setattr(samplingopt, "best_column_permutation", counting)
        rng = stream(0, "opt-ties")
        most = 0
        for k in range(600):
            rows, cols = (int(n) for n in rng.integers(2, 9, size=2))
            mask = random_mask(rng, rows, cols)
            Qtilde = cost_of_kind(rng, ("integer", "binary")[k % 2], rows, cols)
            steps[0] = 0
            optimize_mask(mask, Qtilde)
            most = max(most, steps[0])
        assert most <= 8 < 2 * samplingopt._MAX_SWEEPS


class TestSpectralGap:
    def test_all_ones(self):
        s1, s2, gap = spectral_gap(np.ones((4, 6)))
        assert abs(s1 - np.sqrt(24.0)) < 1e-12
        assert abs(s2) < 1e-12
        assert abs(gap - s1) < 1e-12

    def test_identity(self):
        s1, s2, gap = spectral_gap(np.eye(4))
        assert abs(s1 - 1.0) < 1e-12
        assert abs(s2 - 1.0) < 1e-12
        assert abs(gap) < 1e-12

    def test_permutation_invariance(self):
        rng = stream(0, "gap")
        mask = random_mask(rng, 4, 5)
        perm = mask[np.ix_(rng.permutation(4), rng.permutation(5))]
        a = spectral_gap(mask)
        b = spectral_gap(perm)
        assert abs(a[0] - b[0]) < 1e-10 and abs(a[1] - b[1]) < 1e-10

    def test_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(np.zeros((3, 3)))


def scenario_instance(seed, scheme=Scheme.SCHEME_I, p=0.5, **kw):
    cfg = ScenarioConfig(scheme=scheme, p=p, seed=seed, **kw)
    scn = make_scenario(cfg)
    noise = noise_covariances(cfg, scn.G1, scn.S)
    return cfg, scn, noise


class TestJointDesign:
    def test_zero_interference_channel_converges_immediately(self):
        cfg, scn, noise = scenario_instance(0)
        G2 = np.zeros_like(scn.G2)
        result = joint_design(cfg, scn.H, G2, noise, scn.S, scn.omega)
        assert result.outer_iterations == 1
        assert result.eip_trace == [0.0]
        assert np.array_equal(result.mask, scn.omega)

    def test_never_worse_than_cooperative(self):
        for seed in range(3):
            cfg, scn, noise = scenario_instance(seed)
            w = scheme_weights(cfg, scn.omega, scn.S)
            coop = solve_weighted_eip(w, scn.H, scn.G2, noise,
                                      cfg.P_t, cfg.C)
            result = joint_design(cfg, scn.H, scn.G2, noise, scn.S, scn.omega)
            joint_eip = weighted_eip(
                scheme_weights(cfg, result.mask, scn.S),
                interference_diag_matrix(scn.G2, result.solution.schedule))
            coop_eip = weighted_eip(w, interference_diag_matrix(scn.G2, coop.schedule))
            assert joint_eip <= coop_eip + 1e-6

    def test_trace_nonincreasing_and_orbit_preserved(self):
        for scheme in (Scheme.SCHEME_I, Scheme.SCHEME_II):
            cfg, scn, noise = scenario_instance(1, scheme=scheme)
            result = joint_design(cfg, scn.H, scn.G2, noise, scn.S, scn.omega)
            trace = result.eip_trace
            assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
            s_in = np.linalg.svd(scn.omega, compute_uv=False)
            s_out = np.linalg.svd(result.mask, compute_uv=False)
            assert np.linalg.norm(s_in - s_out) <= 1e-10

    def test_final_eip_matches_schedule_and_mask(self):
        cfg, scn, noise = scenario_instance(2, scheme=Scheme.SCHEME_II)
        result = joint_design(cfg, scn.H, scn.G2, noise, scn.S, scn.omega)
        val = weighted_eip(scheme_weights(cfg, result.mask, scn.S),
                           interference_diag_matrix(scn.G2, result.solution.schedule))
        # The recorded trace ends with the EIP of the final schedule under the
        # mask it was solved for.
        assert abs(val - result.eip_trace[-1]) <= 1e-6 * max(val, 1e-12)
