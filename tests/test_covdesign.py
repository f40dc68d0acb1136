"""Covariance design: water level, closed-form subproblem, dual search."""


import collections
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from specshare import covdesign, harness
from specshare.config import ScenarioConfig, Scheme
from specshare.covdesign import (
    DesignSolution,
    InfeasibleError,
    SolverError,
    min_capacity_multiplier,
    solve_weighted_eip,
)
from specshare.harness import ExperimentSpec, run_compare
from specshare.interference import scheme_weights, tip_weights, weighted_eip
from specshare.linalg import crandn, hermitize
from specshare.scenario import make_scenario, mask_shape
from specshare.streams import stream

from oracles import (
    capacity_bound,
    comm_link,
    comm_noise_factors,
    dense_capacity,
    dense_noise,
    dense_schedule,
    dense_whiten,
    mp_capacity,
    psd_inv_sqrt,
    selfish,
    svd_dual_step,
    verify_solution,
    water_fill,
    whiten,
)


def covariances(kernel, it):
    """The (L, n, n) covariance stack of a dual iterate."""
    return dense_schedule(*kernel.factors(it))


def achieved_log_sum(lam2, sing_vals):
    g = np.asarray(sing_vals, dtype=float) ** 2
    terms = np.log2(np.maximum(lam2 * g, 1e-300))
    return float(np.sum(np.maximum(terms, 0.0)))


class TestWaterFill:
    def test_budget_consumed(self):
        p = water_fill(np.array([2.0, 1.0, 0.5]), 3.0)
        assert abs(p.sum() - 3.0) < 1e-12
        assert np.all(p >= 0)

    def test_single_channel(self):
        p = water_fill(np.array([4.0]), 2.0)
        assert abs(p[0] - 2.0) < 1e-12

    def test_weak_channel_dropped(self):
        p = water_fill(np.array([100.0, 1e-6]), 0.01)
        assert p[1] == 0.0


class TestMinCapacityMultiplier:
    def test_scalar_closed_form(self):
        for C in (0.5, 1.0, 3.0):
            lam2 = min_capacity_multiplier(np.array([1.0]), C, 1)
            assert abs(lam2 - 2.0**C) <= 1e-9 * 2.0**C

    def test_zero_target(self):
        assert min_capacity_multiplier(np.array([1.0]), 0.0, 1) == 0.0

    def test_two_term_active_set(self):
        # sigma^2 = {4, 1}: log2(4*1) = 2 already meets C=2 at lambda2 = 1.
        lam2 = min_capacity_multiplier(np.array([2.0, 1.0]), 2.0, 1)
        assert abs(lam2 - 1.0) <= 1e-9

    def test_all_zero_rejected(self):
        with pytest.raises(InfeasibleError):
            min_capacity_multiplier(np.array([0.0, 0.0]), 1.0, 1)

    def test_capacity_window_random(self):
        rng = stream(0, "wl")
        for _ in range(200):
            L = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            sing = rng.uniform(0.7, 1.5, size=L * n)
            C = float(rng.uniform(0.1, 4.0))
            lam2 = min_capacity_multiplier(sing, C, L)
            ach = achieved_log_sum(lam2, sing)
            assert L * C <= ach <= L * C + 1e-8
            assert achieved_log_sum(lam2 - 1e-6, sing) < L * C

    def test_water_level_past_float_range_is_infeasible(self):
        # One direction with unit gain needs the level 2**1100.
        with pytest.raises(InfeasibleError, match="unreachable"):
            min_capacity_multiplier(np.array([1.0]), 1100.0, 1)


def subproblem_solution(lambda1, lambda2, w_diag, G2, H, R_wl):
    """Closed-form minimizer of Tr(Phi R) - lambda2 log2|I + R_w^{-1} H R H^H|
    with Phi = G2^H diag(w) G2 + lambda1 I, from the solver's dual kernel on
    a one-symbol block, whitened by an eigendecomposition of R_wl."""
    whitened = dense_whiten(H, np.stack([R_wl]))
    kernel = covdesign._DualKernel.weighted(np.asarray(w_diag)[None, :], G2, whitened)
    # The kernel water-fills the subproblem scaled by 1/lambda1, at level lambda2/lambda1.
    it = kernel.allocate(lambda1, lambda2 / lambda1, *kernel.spectrum(lambda1))
    return covariances(kernel, it)[0]


class TestSubproblemSolution:
    def test_scalar_substitution(self):
        # Phi = 1 + lambda1 on a unit channel: R = (lambda2 / Phi - 1)^+.
        for lam1 in (0.5, 2.0):
            for lam2 in (0.5, 1.0, 2.0, 8.0):
                R = subproblem_solution(
                    lam1, lam2, np.array([1.0]), np.eye(1), np.eye(1), np.eye(1)
                )
                assert abs(R[0, 0].real - max(lam2 / (1.0 + lam1) - 1.0, 0.0)) < 1e-10

    def test_water_below_floor_gives_zero(self):
        rng = stream(0, "sub")
        G2 = crandn(rng, 3, 2)
        H = crandn(rng, 2, 2)
        R_w = hermitize(crandn(rng, 2, 2) @ crandn(rng, 2, 2).conj().T) + np.eye(2)
        w = rng.uniform(0.5, 1.0, size=3)
        # lambda2 below 1/sigma_max^2 shuts every direction off.
        R = subproblem_solution(1.0, 1e-12, w, G2, H, R_w)
        assert np.linalg.norm(R) < 1e-10

    def test_kkt_stationarity_random(self):
        # Gradient of the subproblem Lagrangian must be PSD and orthogonal
        # to the returned covariance.
        rng = stream(1, "sub")
        for _ in range(20):
            G2 = crandn(rng, 3, 2)
            H = crandn(rng, 2, 2)
            A = crandn(rng, 2, 2)
            R_w = hermitize(A @ A.conj().T) + 0.1 * np.eye(2)
            w = rng.uniform(0.2, 1.0, size=3)
            lam1 = float(rng.uniform(0.1, 1.0))
            lam2 = float(rng.uniform(1.0, 50.0))
            R = subproblem_solution(lam1, lam2, w, G2, H, R_w)
            phi = hermitize(G2.conj().T @ (w[:, None] * G2)) + lam1 * np.eye(2)
            inner = np.linalg.inv(R_w + H @ R @ H.conj().T)
            # lambda2 is the water level (1 + sigma^2 beta = lambda2 sigma^2),
            # so it multiplies the natural-log capacity gradient directly.
            Z = phi - lam2 * H.conj().T @ inner @ H
            scale = max(np.linalg.norm(phi), 1.0)
            assert np.linalg.eigvalsh(hermitize(Z))[0] >= -1e-6 * scale
            assert abs(np.trace(Z @ R).real) <= 1e-6 * scale * max(np.trace(R).real, 1.0)


def white(sigma_C2, L, H):
    """The whitened channels of H under white noise R_wl = sigma_C2 I."""
    return whiten(H, np.zeros((L, H.shape[0]), dtype=complex), 0.0, sigma_C2)


def small_instance(seed, L=4):
    """(B, G2, H, R_w): the whitened channels of a 2 x 2 channel H under L
    noise covariances R_wl = 0.1 I + g_l g_l^H, a 3 x 2 radar channel, H
    and the dense R_wl."""
    rng = stream(seed, "inst")
    H = crandn(rng, 2, 2)
    G2 = crandn(rng, 3, 2)
    g = crandn(rng, L, 2)
    return whiten(H, g, 1.0, 0.1), G2, H, dense_noise(g, 1.0, 0.1)


class TestSolveWeightedEip:
    def test_zero_interference_channel(self):
        B = small_instance(0)[0]
        G2 = np.zeros((3, 2))
        w = tip_weights(3, 4)
        sol = solve_weighted_eip(w, B, G2, P_t=8.0, C=2.0, designs={})
        assert weighted_eip(w, sol.Q) == 0.0
        assert sol.achieved_capacity >= 2.0 - 1e-6

    def test_scalar_closed_form(self):
        sigma_C2 = 0.5
        C = 3.0
        w = tip_weights(1, 1)
        sol = solve_weighted_eip(w, white(sigma_C2, 1, np.eye(1)), np.eye(1), P_t=10.0, C=C,
                                 designs={})
        expect = sigma_C2 * (2.0**C - 1.0)
        assert abs(sol.consumed_power - expect) <= 1e-6 * expect
        eip = weighted_eip(w, sol.Q)
        assert abs(eip - expect) <= 1e-6 * expect

    def test_scenario1_capacity_active(self):
        cfg = ScenarioConfig(p=0.5, seed=0)
        scn = make_scenario(cfg)
        w = scheme_weights(cfg, scn.omega, scn.S)
        sol = solve_weighted_eip(w, scn.B, scn.G2, cfg.P_t, cfg.C, {})
        assert abs(sol.achieved_capacity - 12.0) <= 1e-3
        assert sol.consumed_power <= cfg.P_t + 1e-6
        assert verify_solution(sol, *comm_link(cfg), scn.G2, cfg.P_t, cfg.C)["psd_ok"]

    def test_infeasible_target_rejected(self):
        w = tip_weights(1, 1)
        with pytest.raises(InfeasibleError):
            solve_weighted_eip(w, white(1.0, 1, np.eye(1)), np.eye(1), P_t=1.0, C=10.0, designs={})

    def test_weights_antenna_count_mismatch_rejected(self):
        B, G2, *_ = small_instance(0)
        w = tip_weights(G2.shape[0] + 1, len(B))
        with pytest.raises(SolverError):
            solve_weighted_eip(w, B, G2, P_t=8.0, C=2.0, designs={})

    @pytest.mark.parametrize("weight_symbols", [3, 5])
    def test_weights_noise_length_mismatch_rejected(self, weight_symbols):
        B, G2, *_ = small_instance(0)
        w = tip_weights(G2.shape[0], weight_symbols)
        with pytest.raises(SolverError,
                           match="^weights and whitened channels have different lengths$"):
            solve_weighted_eip(w, B, G2, P_t=8.0, C=2.0, designs={})

    def test_subproblem_consistency(self):
        # Re-deriving the schedule from the returned dual point reproduces it.
        B, G2, H, R_w = small_instance(3)
        w = tip_weights(3, 4)
        sol = solve_weighted_eip(w, B, G2, P_t=6.0, C=2.0, designs={})
        for l in range(4):
            R = subproblem_solution(sol.lambda1, sol.lambda2, w[l], G2, H, R_w[l])
            R_l = dense_schedule(sol.X, sol.d)[l]
            assert np.linalg.norm(R - R_l) <= 1e-8 * max(np.linalg.norm(R_l), 1.0)

    def test_power_nonincreasing_in_lambda1(self):
        B, G2, *_ = small_instance(4)
        w = tip_weights(3, 4)
        kernel = covdesign._DualKernel.weighted(w, G2, B)
        powers = [kernel.step(lam1, 2.0).power for lam1 in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(a >= b - 1e-9 for a, b in zip(powers, powers[1:]))

    def test_cooperative_ordering(self):
        # EIP_I of the cooperative design never exceeds that of the TIP design.
        for seed in range(5):
            B, G2, *_ = small_instance(10 + seed)
            while True:
                omega = (stream(seed, "m").random((3, 4)) < 0.5).astype(float)
                if omega.sum() > 0:
                    break
            w_eip = omega.T.copy()
            w_tip = tip_weights(3, 4)
            coop = solve_weighted_eip(w_eip, B, G2, P_t=10.0, C=1.0, designs={})
            noncoop = solve_weighted_eip(w_tip, B, G2, P_t=10.0, C=1.0, designs={})
            assert weighted_eip(w_eip, coop.Q) <= weighted_eip(w_eip, noncoop.Q) + 1e-6


def random_design(rng, dense=False):
    """((weights, B, G2), C): 0/1 weights over L symbols, the whitened
    channels of an m x n channel under noise covariances 0.1 I + a g_l g_l^H,
    an M x n radar channel and a capacity target. dense whitens through the
    dense noise stack (oracles.dense_whiten), not the scenario's closed form."""
    L, m, n, M = (int(x) for x in rng.integers(1, [9, 5, 5, 5]))
    H = crandn(rng, m, n)
    G2 = crandn(rng, M, n)
    g, a = crandn(rng, L, m), float(rng.uniform(0.0, 2.0))
    w = (rng.uniform(size=(L, M)) < 0.6).astype(float)
    B = dense_whiten(H, dense_noise(g, a, 0.1)) if dense else whiten(H, g, a, 0.1)
    return (w, B, G2), float(rng.uniform(0.5, 6.0))


class TestFeasibility:
    """InfeasibleError comes from the minimum-power design. The search asks
    its kernel for it (min_power) just before its bracket would grow past
    lambda1 = 1, and only there, computing that design then."""

    def test_agrees_with_water_filling_bound(self):
        # Water-filling duality: C is unreachable within P_t exactly when the
        # capacity bound at P_t is below C. Every other budget is solved,
        # all-zero weights included.
        rng = stream(0, "feasible")
        outcomes, flat = set(), 0
        for _ in range(300):
            design, C = random_design(rng)
            w, B, G2 = design
            p_min = selfish(B, C, np.inf, G2).consumed_power
            flat += not w.any()
            for P_t in p_min * np.array([1.0 - 1e-6, 1.0 + 1e-6, 0.5, 2.0]):
                try:
                    outcome = type(solve_weighted_eip(*design, P_t, C, {}))
                except InfeasibleError as exc:
                    outcome = type(exc)
                assert outcome in (InfeasibleError, DesignSolution)
                infeasible = outcome is InfeasibleError
                assert infeasible == (capacity_bound(B, P_t) < C)
                outcomes.add(infeasible)
        assert outcomes == {True, False} and flat > 0

    def test_budget_just_below_selfish_power_fails_at_the_bracket_top(self, dual_steps):
        """Below the minimum power, InfeasibleError comes after the points
        2^-30 and 1 and one minimum-power step (at lambda1 = 1), at each
        solve; just above it, the design is solved within P_t, its power
        not an ulp above it, with B whitened in closed form or densely."""
        for seed, dense in itertools.product(range(4), (False, True)):
            design, C = random_design(stream(seed, "feasible-edge"), dense)
            _, B, G2 = design
            p_min = selfish(B, C, np.inf, G2).consumed_power
            for P_t in (p_min * (1.0 - 1e-9), 0.5 * p_min):
                dual_steps.clear()
                with pytest.raises(InfeasibleError, match="unreachable within power budget"):
                    solve_weighted_eip(*design, P_t, C, {})
                assert dual_steps == [2.0 ** -30, 1.0, 1.0]
            P_t = p_min * (1.0 + 1e-9)
            assert solve_weighted_eip(*design, P_t, C, {}).consumed_power <= P_t


class TestSelfishDesign:
    """The selfish design: solve_weighted_eip with W_l = 0."""

    def test_zero_capacity_target(self):
        B, G2, *_ = small_instance(0)
        sol = selfish(B, 0.0, np.inf, G2)
        assert sol.consumed_power == 0.0

    def test_scalar_power(self):
        sol = selfish(white(1.0, 1, np.eye(1)), 4.0, np.inf, np.eye(1))
        assert abs(sol.consumed_power - (2.0**4 - 1.0)) <= 1e-6

    def test_capacity_active(self):
        B, G2, *_ = small_instance(7)
        sol = selfish(B, 3.0, np.inf, G2)
        assert abs(sol.achieved_capacity - 3.0) <= 1e-6

    def test_min_power_is_the_zero_weight_power(self):
        """A kernel's lambda1 -> inf limit, min_power, is the power of the
        zero-weight design of its channels, whatever its weights, to 1e-13
        relative: the kernel's eigenbasis U_l only rotates the channels.
        The p-sweep's kernels are checked in test_sweep_p_designs_match_bisection."""
        for (_, B, G2), kernel, C, _ in search_instances():
            p_min = selfish(B, C, np.inf, G2).consumed_power
            assert abs(kernel.min_power(C) - p_min) <= 1e-13 * p_min

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_zero_weights_give_the_minimum_power_step(self, scheme):
        """The zero-weight design is the minimum-power step at lambda1 = 1
        bit for bit, in one evaluation at the lowest grid point: on the
        zero-weight kernel, W_l = 0 makes A_l = 0 and U_l = I exactly, so
        c_l = 1 at every lambda1 and the search's first evaluation has the
        same factors and a slack budget. A budget below that step's power
        fails the selfish row with the message every design of the scenario
        fails with."""
        for seed in range(3):
            cfg = ScenarioConfig(scheme=scheme, p=0.6, seed=seed)
            scn = make_scenario(cfg)
            zero = covdesign._DualKernel.weighted(np.zeros((cfg.L, cfg.M_rR)), scn.G2, scn.B)
            assert np.all(zero.a == 0.0) and np.all(zero.U == np.eye(cfg.M_tC))
            step = zero.step(1.0, cfg.C)
            assert step.power == zero.min_power(cfg.C)
            sol = selfish(scn.B, cfg.C, cfg.P_t, scn.G2)
            assert dense_schedule(sol.X, sol.d).tobytes() == covariances(zero, step).tobytes()
            assert sol.iterations == 1 and sol.converged
            assert (sol.lambda1, sol.lambda2) == (2.0 ** -30, step.lambda2 * 2.0 ** -30)
            searched, evaluations, _ = covdesign._dual_search(
                zero, cfg.C, cfg.P_t, covdesign.DUAL_TOL, covdesign.MAX_DUAL_EVALUATIONS)
            assert evaluations == 1
            assert (searched.lambda1, searched.lambda2) == (sol.lambda1, sol.lambda2)
            assert covariances(zero, searched).tobytes() == dense_schedule(sol.X, sol.d).tobytes()
            tight = cfg.replace(P_t=0.5 * step.power)
            spec = ExperimentSpec(cfg=tight, methods=["selfish", "noncoop"], seeds=[seed])
            rows = run_compare(spec)
            message = f"capacity target {cfg.C} unreachable within power budget {tight.P_t}"
            assert [r.error for r in rows] == [message, message]


class TestVerifySolution:
    def test_selfish_vs_cooperative_ordering(self):
        cfg = ScenarioConfig(p=0.5, seed=1)
        scn = make_scenario(cfg)
        w = scheme_weights(cfg, scn.omega, scn.S)
        coop = solve_weighted_eip(w, scn.B, scn.G2, cfg.P_t, cfg.C, {})
        report = verify_solution(coop, *comm_link(cfg), scn.G2, cfg.P_t, cfg.C, weights=w,
                                 other=selfish(scn.B, cfg.C, cfg.P_t, scn.G2))
        assert report["psd_ok"]
        assert report["power_feasible"]
        assert report["capacity_active"]
        assert report["ordering_ok"]

    def test_slackness_residual(self):
        B, G2, H, R_w = small_instance(2)
        w = tip_weights(3, 4)
        sol = solve_weighted_eip(w, B, G2, P_t=6.0, C=2.0, designs={})
        report = verify_solution(sol, H, R_w, G2, 6.0, 2.0)
        # Either the budget binds (active power constraint) or lambda1 is 0
        # at the resolution of the bisection bracket.
        assert report["slackness_residual"] <= sol.lambda1 * 6.0 + 1e-6

    def test_power_violation_flagged(self):
        B, G2, H, R_w = small_instance(2)
        w = tip_weights(3, 4)
        sol = solve_weighted_eip(w, B, G2, P_t=6.0, C=2.0, designs={})
        doubled = dataclasses.replace(sol, d=sol.d * (12.0 / sol.consumed_power))
        report = verify_solution(doubled, H, R_w, G2, 6.0, 2.0)
        assert not report["power_feasible"]


class TestObjectiveConsistency:
    def test_objective_matches_metric(self):
        B, G2, H, R_w = small_instance(6)
        w = tip_weights(3, 4)
        sol = solve_weighted_eip(w, B, G2, P_t=6.0, C=2.0, designs={})
        dense = dense_capacity(dense_schedule(sol.X, sol.d), H, R_w)
        assert abs(sol.achieved_capacity - dense) < 1e-12


def loop_multiplier(sing_vals, C, L):
    """The sequential k-scan min_capacity_multiplier replaced; reference only."""
    target = L * C
    if target <= 0:
        return 0.0
    g = np.sort(np.asarray(sing_vals, dtype=float) ** 2)[::-1]
    g = g[g > 0]
    log_g = np.log2(g)
    cum = np.cumsum(log_g)
    lam2 = None
    with np.errstate(over="ignore"):
        for k in range(1, g.size + 1):
            lam2 = 2.0 ** ((target - cum[k - 1]) / k)
            kth_active = lam2 * g[k - 1] >= 1.0 - 1e-12
            next_inactive = k == g.size or lam2 * g[k] <= 1.0 + 1e-12
            if kth_active and next_inactive:
                break
    return lam2 * (1.0 + 4e-12)


def scan_draws(rng, count):
    """count random (singular values, C, L) tuples: L up to 128 symbols of
    up to 4 directions, targets up to 20 bits/symbol."""
    for _ in range(count):
        L = int(rng.integers(1, 129))
        n = int(rng.integers(1, 5))
        sing = rng.uniform(0.05, 3.0, size=L * n) ** float(rng.uniform(0.5, 4.0))
        C = float(rng.uniform(0.1, 20.0))
        yield sing, C, L


class TestMultiplierScan:
    def test_bit_identical_to_loop(self):
        for sing, C, L in scan_draws(stream(2, "scan"), 300):
            assert min_capacity_multiplier(sing, C, L) == loop_multiplier(sing, C, L)

    def test_level_near_float_max_does_not_overflow(self):
        # The 967th draw (L = 110, n = 2, C = 18.64): a level just under
        # 2**1023 times a gain above 1 overflowed in the active-set test.
        *_, (sing, C, L) = scan_draws(stream(0, "ovf"), 967)
        assert (L, sing.size, round(C, 2)) == (110, 220, 18.64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam2 = min_capacity_multiplier(sing, C, L)
        assert lam2 == loop_multiplier(sing, C, L)

    def test_long_block_does_not_overflow(self):
        # L = 128 with a 12 bit/symbol target: small k need levels past 2**1024.
        sing = stream(3, "scan").uniform(0.05, 3.0, size=128 * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam2 = min_capacity_multiplier(sing, 12.0, 128)
        assert np.isfinite(lam2)
        assert lam2 == loop_multiplier(sing, 12.0, 128)


def reference_step(w_diags, G2, H, R_ws, lambda1, C):
    """One dual evaluation computed symbol by symbol, as the solver did
    before the batched kernel: (lambda2, power, stacked covariances)."""
    n = G2.shape[1]
    eye = np.eye(n)
    per_symbol = []
    for R_w in R_ws:
        phi = hermitize(G2.conj().T @ (w_diags[len(per_symbol)][:, None] * G2)) + lambda1 * eye
        phi_isqrt = psd_inv_sqrt(phi)
        _, s, vh = np.linalg.svd(psd_inv_sqrt(R_w) @ H @ phi_isqrt, full_matrices=False)
        per_symbol.append((phi_isqrt, s, vh.conj().T))
    lam2 = min_capacity_multiplier(np.concatenate([s for _, s, _ in per_symbol]), C,
                                   len(per_symbol))
    mats = []
    for phi_isqrt, s, V in per_symbol:
        beta = np.where(s > 0, np.maximum(lam2 - 1.0 / np.maximum(s, 1e-300) ** 2, 0.0), 0.0)
        mats.append(hermitize(phi_isqrt @ ((V * beta) @ V.conj().T) @ phi_isqrt))
    return lam2, float(sum(np.trace(R).real for R in mats)), np.array(mats)


def coop_instance(seed, L, partial_rows=True):
    """(w, G2, B, H, R_w) with cooperative-style weights: every third symbol
    has no sampled entry (A_l = 0), and with partial_rows every third has a
    rank-1 A_l; B whitens H under the noise R_wl = 0.1 I + g_l g_l^H."""
    rng = stream(seed, "kernel")
    M, n, m = 6, 3, 2
    G2 = crandn(rng, M, n)
    H = crandn(rng, m, n)
    g = crandn(rng, L, m)
    w = rng.uniform(0.2, 1.0, size=(L, M))
    kind = np.arange(L) % 3
    w[kind == 0] = 0.0
    if partial_rows:
        w[kind == 2, 1:] = 0.0
    return w, G2, whiten(H, g, 1.0, 0.1), H, dense_noise(g, 1.0, 0.1)


class TestDualKernel:
    def assert_matches_reference(self, w, G2, B, H, R_w, lambda1, C=2.0):
        kernel = covdesign._DualKernel.weighted(w, G2, B)
        it = kernel.step(lambda1, C)
        lam2, power, mats = reference_step(w, G2, H, R_w, lambda1, C)
        assert abs(it.lambda2 - lam2) <= 1e-10 * lam2
        assert abs(it.power - power) <= 1e-10 * power
        R = covariances(kernel, it)
        assert np.linalg.norm(R - mats) <= 1e-10 * np.linalg.norm(mats)
        return kernel

    @pytest.mark.parametrize("L", [1, 4, 128])
    def test_matches_per_symbol_path(self, L):
        instance = coop_instance(L, L)
        for lam1 in (0.05, 0.5, 3.0):
            self.assert_matches_reference(*instance, lam1)

    @pytest.mark.parametrize("L", [1, 4, 128])
    def test_near_singular_zero_weight_symbols_match(self, L):
        # Zero-weight symbols have Phi_l = lambda1 I, nearly singular at a
        # tiny lambda1; both paths floor its eigenvalues with eig_floor.
        self.assert_matches_reference(*coop_instance(10 + L, L, partial_rows=False), 1e-12)

    def test_zero_singular_value(self):
        """A comm antenna that hears nothing (a zero row of H) leaves every
        whitened channel a zero singular value. It gets no power, with no
        divide-by-zero warning, and both designs meet their post-conditions."""
        H = crandn(np.random.default_rng(0), 3, 4)
        H[2] = 0.0
        R_w = np.broadcast_to(0.01 * np.eye(3), (4, 3, 3))  # what sigma_alpha2 = 0 gives
        G2 = crandn(np.random.default_rng(1), 5, 4)
        w = tip_weights(5, 4)
        whitened = white(0.01, 4, H)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            designs = [selfish(whitened, 2.0, 10.0, G2),
                       solve_weighted_eip(w, whitened, G2, 10.0, 2.0, {})]
            kernels = [covdesign._DualKernel.weighted(np.zeros((4, 5)), G2, whitened),
                       covdesign._DualKernel.weighted(w, G2, whitened)]
            steps = [(kernel.spectrum(1.0)[0], kernel.step(1.0, 2.0)) for kernel in kernels]
        for sol in designs:
            report = verify_solution(sol, H, R_w, G2, 10.0, 2.0)
            assert report["psd_ok"] and report["power_feasible"] and report["capacity_active"]
        for s, it in steps:
            assert np.all(s[:, -1] == 0.0) and np.all(s[:, :-1] > 0.0)
            assert np.all(it.beta[:, -1] == 0.0) and np.all(it.beta[:, :-1] > 0.0)

    def test_beta_unchanged_for_positive_singular_values(self):
        """The water-filling powers are those of lambda2 - 1/s^2 wherever it
        is finite, bit for bit, down to the underflow of s^2, and 0 at s = 0."""
        s = np.array([[0.0, 5e-324, 1e-300, 1e-160, 7.5e-155, 1e-150, 1e-3, 0.5, 1.0, 40.0]])
        kernel = covdesign._DualKernel(np.zeros((1, s.size)), np.eye(s.size)[None],
                                       np.zeros((1, 1, s.size)))
        for lam2 in (0.0, 3.0, 1e6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                it = kernel.allocate(1.0, lam2, s, np.eye(s.size)[None])
            with np.errstate(divide="ignore", over="ignore"):
                expect = np.where(s > 0, np.maximum(lam2 - 1.0 / s**2, 0.0), 0.0)
            assert it.beta.tobytes() == expect.tobytes()

    def test_default_scenario_dual_evaluations(self):
        cfg = ScenarioConfig(p=0.6, seed=0)
        scn = make_scenario(cfg)
        for w in (tip_weights(cfg.M_rR, cfg.L),
                  scheme_weights(cfg, scn.omega, scn.S)):
            sol = solve_weighted_eip(w, scn.B, scn.G2, cfg.P_t, cfg.C, {})
            # The power budget is slack: the bisection halves hi = 1 thirty
            # times; the search evaluates the lowest grid point only.
            assert sol.lambda1 == 2.0 ** -30
            assert sol.iterations == 1
            assert sol.converged

    def test_long_block_slack_design_dual_evaluations(self):
        # The joint-long benchmark's block: L = 128, 16/32/4/4 antennas.
        cfg = ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=128, p=0.5, seed=1)
        scn = make_scenario(cfg)
        for w in (tip_weights(cfg.M_rR, cfg.L),
                  scheme_weights(cfg, scn.omega, scn.S)):
            sol = solve_weighted_eip(w, scn.B, scn.G2, cfg.P_t, cfg.C, {})
            assert sol.lambda1 == 2.0 ** -30
            assert sol.iterations == 1
            assert sol.converged


def assert_matches_svd_oracle(kernel, lambda1, C):
    """The kernel's dual step at lambda1 > 0 against the thin-SVD oracle.

    A Gram eigenvalue is exact to about eps*s_1^2 absolute, so every gain
    s_i^2 agrees to 64 eps times the largest of its symbol; lambda2, the
    power, the covariances and beta (the last relative to lambda2) agree to
    64 eps kappa^2 relative, where kappa^2 is the largest gain over the
    smallest one with power. The kernel's gains and beta belong to the
    subproblem scaled by 1/lambda1. Returns kappa^2.
    """
    gain, lambda2, power, beta, R = svd_dual_step(kernel, lambda1, C)
    it = kernel.step(lambda1, C)
    eps = np.finfo(float).eps
    assert np.all(np.abs(it.s**2 / lambda1 - gain) <= 64 * eps * gain[:, :1])
    kappa2 = gain.max() / gain[beta > 0].min()
    tol = 64 * eps * kappa2
    assert abs(it.lambda2 - lambda2) <= tol * lambda2
    assert abs(it.power - power) <= tol * power
    assert np.all(np.abs(it.beta * lambda1 - beta) <= tol * lambda2)
    assert np.linalg.norm(covariances(kernel, it) - R) <= tol * np.linalg.norm(R)
    return kappa2


class TestGramKernel:
    """The dual step's stacked eigh of the narrow-side Gram matrices against
    the thin SVD it replaced (oracles.svd_dual_step)."""

    def test_default_scenario(self):
        cfg = ScenarioConfig(p=0.6, seed=3)
        scn = make_scenario(cfg)
        for w in (tip_weights(cfg.M_rR, cfg.L), scheme_weights(cfg, scn.omega, scn.S)):
            kernel = covdesign._DualKernel.weighted(w, scn.G2, scn.B)
            for lambda1 in (2.0 ** -30, 1e-3, 1.0, 2.0 ** 10):
                assert_matches_svd_oracle(kernel, lambda1, cfg.C)

    def test_graded_channels(self):
        # Channel singular values 1, 1e-2, 1e-4 and 1e-6 (condition 1e6),
        # and a target that puts power on all of them: kappa^2 is 1.7e12 to
        # 4.8e12, and the bound 64 eps kappa^2 is 0.02 to 0.07.
        rng = stream(0, "graded")
        Q1 = np.linalg.qr(crandn(rng, 4, 4))[0]
        Q2 = np.linalg.qr(crandn(rng, 8, 4))[0]
        H = (Q1 * np.logspace(0, -6, 4)) @ Q2.conj().T
        kernel = covdesign._DualKernel.weighted(tip_weights(5, 3), crandn(rng, 5, 8),
                                                white(1.0, 3, H))
        for lambda1 in (0.3, 1.0, 3.0):
            assert 1e12 < assert_matches_svd_oracle(kernel, lambda1, 100.0) < 1e13

    def test_singular_cooperative_weights(self):
        # At p = 0.2 most A_l are singular, and at lambda1 = 2^-30 the
        # scaled inverse c_l spans nine orders of magnitude.
        cfg = ScenarioConfig(p=0.2, seed=2)
        scn = make_scenario(cfg)
        kernel = covdesign._DualKernel.weighted(
            scheme_weights(cfg, scn.omega, scn.S), scn.G2, scn.B)
        assert np.count_nonzero(kernel.a[:, 0] <= 1e-12 * kernel.a[:, -1]) > cfg.L // 2
        assert_matches_svd_oracle(kernel, 2.0 ** -30, cfg.C)

    def test_deaf_comm_antenna(self):
        """A zero row of H: both routes give every symbol a gain of exactly
        0, with no power and no warning."""
        H = crandn(np.random.default_rng(0), 3, 4)
        H[2] = 0.0
        whitened = white(0.01, 4, H)
        G2 = crandn(np.random.default_rng(1), 5, 4)
        for kernel in (covdesign._DualKernel.weighted(np.zeros((4, 5)), G2, whitened),
                       covdesign._DualKernel.weighted(tip_weights(5, 4), G2, whitened)):
            for lambda1 in (1e-3, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert_matches_svd_oracle(kernel, lambda1, 2.0)
                    it = kernel.step(lambda1, 2.0)
                    gain = svd_dual_step(kernel, lambda1, 2.0)[0]
                assert np.all(it.s[:, -1] == 0.0) and np.all(gain[:, -1] == 0.0)
                assert np.all(it.beta[:, -1] == 0.0)

    def test_more_receive_than_transmit_antennas(self):
        # M_rC > M_tC: the Gram matrices are the n x n ones, B'^H B'.
        rng, seen = stream(0, "narrow"), 0
        while seen < 4:
            (w, B, G2), C = random_design(rng)
            if B.shape[1] > B.shape[2]:
                kernel = covdesign._DualKernel.weighted(w, G2, B)
                for lambda1 in (1e-3, 1.0, 8.0):
                    assert_matches_svd_oracle(kernel, lambda1, C)
                seen += 1

    def test_zero_weight_power_does_not_depend_on_lambda1(self):
        """Where every w_l is 0, c_l = lambda1/lambda1 = 1 exactly: the scaled
        subproblem, and so its power, is the same bit for bit at every lambda1,
        and at the kernel's lambda1 -> inf limit (min_power)."""
        for seed in range(3):
            whitened, G2, *_ = small_instance(seed, L=5)
            flat = covdesign._DualKernel.weighted(np.zeros((5, 3)), G2, whitened)
            powers = {flat.step(lambda1, 2.0).power
                      for lambda1 in (2.0 ** -30, 1e-3, 0.3, 1.0, 3.0, 2.0 ** 10)}
            assert powers == {flat.min_power(2.0)}


class TestPostConditions:
    def test_capacity_shortfall_raises(self, monkeypatch):
        real = covdesign.min_capacity_multiplier
        monkeypatch.setattr(covdesign, "min_capacity_multiplier",
                            lambda s, C, L: 0.5 * real(s, C, L))
        B, G2, *_ = small_instance(3)
        w = tip_weights(3, 4)
        with pytest.raises(SolverError, match="capacity"):
            solve_weighted_eip(w, B, G2, P_t=6.0, C=2.0, designs={})
        with pytest.raises(SolverError, match="capacity"):
            selfish(B, 2.0, 6.0, G2)

    def test_power_excess_raises(self, monkeypatch):
        monkeypatch.setattr(covdesign._DualKernel, "factors",
                            doubled(covdesign._DualKernel.factors))
        # Scalar channel: the design uses 0.5 * (2**3 - 1) = 3.5 of P_t = 4.
        w = tip_weights(1, 1)
        with pytest.raises(SolverError, match="power"):
            solve_weighted_eip(w, white(0.5, 1, np.eye(1)), np.eye(1), P_t=4.0, C=3.0, designs={})

    def test_selfish_power_excess_raises(self, monkeypatch):
        monkeypatch.setattr(covdesign._DualKernel, "factors",
                            doubled(covdesign._DualKernel.factors))
        # The same scalar channel: the selfish design uses 3.5 of P_t = 4
        # too, which passes the budget test; doubled it uses 7.
        with pytest.raises(SolverError, match="power"):
            selfish(white(0.5, 1, np.eye(1)), 3.0, 4.0, np.eye(1))

    def test_invalid_schedule_raises(self, monkeypatch):
        real = covdesign._DualKernel.factors

        def nan_direction(self, it):
            X, d = real(self, it)
            X = X.copy()
            X[0, 0, 0] = np.nan
            return X, d

        monkeypatch.setattr(covdesign._DualKernel, "factors", nan_direction)
        B, G2, *_ = small_instance(3)
        w = tip_weights(3, 4)
        with pytest.raises(SolverError, match="^invalid covariance schedule: covariance matrix "
                                              "is not finite$"):
            solve_weighted_eip(w, B, G2, P_t=6.0, C=2.0, designs={})


def doubled(factors):
    """A _DualKernel.factors with every power doubled."""
    def doubled_factors(self, it):
        X, d = factors(self, it)
        return X, 2.0 * d

    return doubled_factors


class TestIllConditionedNoise:
    """Strong radar interference at the comm receiver: the noise covariances
    R_wl have condition numbers from 6e8 to 1.2e10. Every design meets C in
    exact arithmetic, and the capacity the post-condition reads agrees with a
    40-digit evaluation of the same float64 inputs."""

    CFG = ScenarioConfig(scheme=Scheme.SCHEME_II, M_tR=1, M_rR=1, M_tC=6, M_rC=4, L=8,
                         sigma_C2=3e-6, rho2=5.38e5, sigma_alpha2=8.4e-3, sigma1_2=2.36,
                         C=18.96, P_t=8.74, seed=0)
    METHODS = ["noncoop", "partial", "full"]

    def test_every_row_meets_the_target(self):
        cfg = self.CFG
        rows = run_compare(ExperimentSpec(cfg=cfg, methods=self.METHODS))
        assert [r.error for r in rows] == [""] * 3
        assert all(r.capacity >= cfg.C for r in rows)
        scn = make_scenario(cfg)
        H, g, a = comm_noise_factors(cfg)
        w = np.linalg.eigvalsh(dense_noise(g, a, cfg.sigma_C2))
        assert (w[:, -1] / w[:, 0]).min() > 1e8
        for method in self.METHODS:
            sol = harness._solve_method(method, cfg, scn)[0]
            exact = mp_capacity(H, g, a, cfg.sigma_C2, sol.X, sol.d)
            assert exact >= cfg.C
            assert abs(sol.achieved_capacity - exact) <= 1e-14 * exact


class TestChandrupatlaStep:
    """covdesign._chandrupatla_step: the fraction of the way from x_a, the
    last point, toward x_b, the other end of the bracket, of the next point,
    with x_c the point x_a replaced."""

    # A step whose test holds: xi = 0.5, phi = 0.6.
    POINT = dict(x_a=0.5, g_a=0.2, x_b=0.0, g_b=-1.0, x_c=1.0, g_c=1.0)

    @staticmethod
    def quadratic_zero(x, g):
        """The fraction from x[0] toward x[1] at which the inverse quadratic
        through the points (g_i, x_i) takes g = 0, in Lagrange form."""
        zero = sum(x[i] * math.prod(g[j] / (g[j] - g[i]) for j in range(3) if j != i)
                   for i in range(3))
        return (zero - x[0]) / (x[1] - x[0])

    def test_inverse_quadratic_where_the_test_holds(self):
        """Random brackets laid out as the search keeps them, x_a between
        x_b and x_c and g_a of g_c's sign: where phi^2 < xi and
        (1 - phi)^2 < 1 - xi the zero of the inverse quadratic, inside the
        bracket, and 1/2 elsewhere."""
        rng = stream(0, "chandrupatla")
        held = 0
        for _ in range(2000):
            x_b, x_c = (float(x) for x in rng.normal(scale=10.0, size=2))
            x_a = x_b + float(rng.uniform()) * (x_c - x_b)
            g_b, g_a, g_c = (float(g) for g in rng.exponential(size=3) * [-1.0, 1.0, 1.0])
            t = covdesign._chandrupatla_step(x_a, g_a, x_b, g_b, x_c, g_c)
            xi, phi = (x_a - x_b) / (x_c - x_b), (g_a - g_b) / (g_c - g_b)
            if phi**2 < xi and (1.0 - phi) ** 2 < 1.0 - xi:
                held += 1
                zero = self.quadratic_zero((x_a, x_b, x_c), (g_a, g_b, g_c))
                assert t == pytest.approx(zero, rel=1e-9, abs=1e-12)
                assert 0.0 < t < 1.0
            else:
                assert t == 0.5
        assert 0 < held < 2000

    @pytest.mark.parametrize("name", ["g_a", "g_b", "g_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_half_where_a_g_is_not_finite(self, name, value):
        assert covdesign._chandrupatla_step(**self.POINT) != 0.5
        assert covdesign._chandrupatla_step(**{**self.POINT, name: value}) == 0.5

    @pytest.mark.parametrize("x_a", [0.25, 0.75])
    def test_half_on_the_boundary_of_the_test(self, x_a):
        """phi = 1/2 exactly, with phi^2 = xi = 1/4 or (1 - phi)^2 = 1 - xi = 1/4."""
        point = dict(x_a=x_a, g_a=1.0, x_b=0.0, g_b=-1.0, x_c=1.0, g_c=3.0)
        assert covdesign._chandrupatla_step(**point) == 0.5

    @pytest.mark.parametrize("coincident", [dict(x_c=0.0), dict(g_c=-1.0), dict(x_a=0.0)])
    def test_half_for_coincident_points(self, coincident):
        """x_c or g_c equal to b's, where xi or phi has no value, and x_a on x_b."""
        assert covdesign._chandrupatla_step(**{**self.POINT, **coincident}) == 0.5


def bisection_oracle(kernel, C, P_t, dual_tol, max_iterations):
    """The plain bisection on lambda1 that covdesign._dual_search replaced,
    with its feasibility test (kernel.min_power) where the bracket first
    grows past 1; reference only: (iterate, evaluations, converged)."""
    iterations = 0
    hi = 1.0
    it = kernel.step(hi, C)
    iterations += 1
    while it.power > P_t:
        if hi == 1.0 and not kernel.min_power(C) <= P_t:
            raise InfeasibleError(f"capacity target {C} unreachable within power budget {P_t}")
        hi *= 2.0
        it = kernel.step(hi, C)
        iterations += 1
        if iterations > max_iterations:
            raise SolverError("failed to bracket the power multiplier")
    lo = 0.0
    best = it
    while hi - lo > dual_tol and iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        it = kernel.step(mid, C)
        iterations += 1
        if it.power < P_t:
            hi = mid
            best = it
        else:
            lo = mid
    return best, iterations, hi - lo <= dual_tol


def search_instances():
    """Small random designs: TIP-like 0/1 weights on a 3 x 2 G2, or
    cooperative weights whose zero rows make A_l singular. Seeds 2, 5 and 8
    draw all-zero weights: power does not depend on lambda1, bit for
    bit.
    Yields the design, its dual kernel, C and its powers: the selfish
    (minimum) power as the feasibility test computes it (min_power), and
    the power at lambda1 = 1, 2^-30 and 2^10."""
    for seed in range(12):
        rng = stream(seed, "search")
        L = int(rng.integers(1, 6))
        if seed % 2:
            whitened, G2, *_ = small_instance(seed, L)
            w = (rng.uniform(size=(L, 3)) < 0.6).astype(float)
        else:
            w, G2, whitened, *_ = coop_instance(seed, L)
        C = float(rng.uniform(0.5, 3.0))
        kernel = covdesign._DualKernel.weighted(w, G2, whitened)
        p_min = kernel.min_power(C)
        powers = [kernel.step(lam1, C).power for lam1 in (1.0, 2.0 ** -30, 2.0 ** 10)]
        yield (w, whitened, G2), kernel, C, (p_min, *powers)


@pytest.fixture
def min_power_calls(monkeypatch):
    """The C of every _DualKernel.min_power call in the test, in order."""
    calls = []
    real = covdesign._DualKernel.min_power
    monkeypatch.setattr(covdesign._DualKernel, "min_power",
                        lambda self, C: calls.append(C) or real(self, C))
    return calls


def budgets(p_min, p_one, p_zero, p_far):
    """Power budgets below the selfish power (infeasible), between it and the
    power at lambda1 = 1 (the bracket grows), inside the range the search
    covers (active), above it (slack), and first met at lambda1 = 2^10
    (the bracket grows for 11 evaluations). The last is a tie: power equals
    P_t at the bracket top, and the computed power just below it need not
    stay at or above P_t in the last bits."""
    return (0.5 * p_min, p_min + 0.2 * (p_one - p_min),
            p_min + 0.05 * (p_zero - p_min), p_min + 0.5 * (p_zero - p_min), 2.0 * p_zero,
            p_far)


def feasible_budgets(p_min, *powers):
    """The budgets the feasibility test passes on to the search."""
    return [P_t for P_t in budgets(p_min, *powers) if P_t >= p_min]


def category(lambda1):
    """Where the search's answer lies: its lowest grid point at the default
    tolerance (slack), above 1 (grown) or between (active)."""
    if lambda1 == 2.0 ** -30:
        return "slack"
    return "grown" if lambda1 > 1.0 else "active"


def bracket_top(kernel, C, P_t):
    """The first power of two from 1 up with power <= P_t."""
    hi = 1.0
    while kernel.step(hi, C).power > P_t:
        hi *= 2.0
    return hi


def assert_certified(kernel, C, P_t, dual_tol, lambda1):
    """The two-point certificate of a converged answer: lambda1 is a point of
    the grid k * hi * 2^-n (hi the bracket top, n the halvings from it that
    reach dual_tol), its power is below P_t or it is hi, and its lower
    neighbour is 0 or has power at or above P_t."""
    hi = grid = bracket_top(kernel, C, P_t)
    while grid > dual_tol:
        grid *= 0.5
    assert 0.0 < lambda1 <= hi and lambda1 % grid == 0.0
    assert kernel.step(lambda1, C).power < P_t or lambda1 == hi
    assert lambda1 == grid or kernel.step(lambda1 - grid, C).power >= P_t


class TestDualSearch:
    """Every converged answer carries its certificate, with at most as many
    dual evaluations as the bisection, and where power crosses P_t once it
    is the bisection's answer bit for bit."""

    @staticmethod
    def solve_both(monkeypatch, *args):
        """solve_weighted_eip's solution or error, with the search and then
        with the bisection oracle in its place, each with no stored designs."""
        out = []
        for search in (covdesign._dual_search, bisection_oracle):
            with monkeypatch.context() as m:
                m.setattr(covdesign, "_dual_search", search)
                try:
                    out.append(solve_weighted_eip(*args, {}))
                except (InfeasibleError, SolverError) as exc:
                    out.append(exc)
        return out

    def assert_same(self, monkeypatch, *args, kernel=None, exact=True):
        """The solutions of solve_both agree: the same error, or converged
        designs with no more evaluations than the bisection, bit-equal to
        its design if exact, and certified on the kernel if one is given."""
        sol, ref = self.solve_both(monkeypatch, *args)
        if isinstance(ref, Exception):
            assert type(sol) is type(ref) and str(sol) == str(ref)
            return type(ref).__name__, 0, 0
        assert sol.converged and ref.converged
        assert sol.iterations <= ref.iterations
        if exact:
            assert sol.lambda1 == ref.lambda1
            assert sol.lambda2 == ref.lambda2
            assert (dense_schedule(sol.X, sol.d).tobytes()
                    == dense_schedule(ref.X, ref.d).tobytes())
        if kernel is not None:
            P_t, C = args[-2:]
            assert_certified(kernel, C, P_t, covdesign.DUAL_TOL, sol.lambda1)
        return category(ref.lambda1), sol.iterations, ref.iterations

    @staticmethod
    def assert_same_search(kernel, C, P_t, min_power_calls, dual_tol=covdesign.DUAL_TOL,
                           exact=True):
        """The same assertions on _dual_search and the bisection oracle run
        directly, at the given tolerance; the search asks min_power once
        where its bracket grew past lambda1 = 1, and nowhere else."""
        args = (kernel, C, P_t, dual_tol, covdesign.MAX_DUAL_EVALUATIONS)
        min_power_calls.clear()
        best, evaluations, converged = covdesign._dual_search(*args)
        assert len(min_power_calls) == (best.lambda1 > 1.0)
        ref, ref_evaluations, ref_converged = bisection_oracle(*args)
        assert converged and ref_converged
        assert evaluations <= ref_evaluations
        assert_certified(kernel, C, P_t, dual_tol, best.lambda1)
        if exact:
            assert best.lambda1 == ref.lambda1
            assert best.lambda2 == ref.lambda2
            assert covariances(kernel, best).tobytes() == covariances(kernel, ref).tobytes()
        return evaluations, ref_evaluations

    def test_random_instances_match_bisection(self, monkeypatch, min_power_calls):
        """Bit-equal to the bisection except where power is flat in lambda1
        (all-zero weights) or P_t ties the power at the bracket top; every
        answer of the search certified. A design with all-zero weights has
        flat power: a slack budget takes one evaluation, the minimum-power
        step, and a budget equal to the minimum power the tie's three."""
        seen, counts = set(), np.zeros(2, dtype=int)
        for design, kernel, C, powers in search_instances():
            flat = not design[0].any()
            for P_t in budgets(*powers):
                exact = not flat and P_t != powers[-1]
                name, *n = self.assert_same(monkeypatch, *design, P_t, C,
                                            kernel=None if flat else kernel, exact=exact)
                assert not flat or n[0] == {"InfeasibleError": 0, "slack": 1, "active": 3}[name]
                seen.add(name)
                counts += n
            for P_t in feasible_budgets(*powers):
                exact = not flat and P_t != powers[-1]
                counts += self.assert_same_search(kernel, C, P_t, min_power_calls, dual_tol=1e-6,
                                                  exact=exact)
        assert seen == {"InfeasibleError", "slack", "grown", "active"}
        # Chandrupatla steps need fewer than half the bisection's evaluations.
        assert 2 * counts[0] < counts[1]

    @pytest.mark.parametrize("max_iterations", range(1, 11))
    def test_small_iteration_limits_match_bisection(self, max_iterations):
        """A cap of max_iterations evaluations. The lowest grid point comes
        first, so the search brackets what the bisection brackets under one
        evaluation fewer (and a cap of 0 brackets nothing), and a slack
        budget within any cap: the bisection's error where it cannot
        bracket, and otherwise an evaluated answer below P_t (or the bracket
        top), certified where the search converged."""
        seen = set()
        for design, kernel, C, powers in search_instances():
            for P_t in feasible_budgets(*powers):
                args = (kernel, C, P_t, covdesign.DUAL_TOL, max_iterations)
                slack = kernel.step(2.0 ** -30, C).power < P_t
                cap = max_iterations if slack else max_iterations - 1
                try:
                    if cap < 1:
                        raise SolverError("failed to bracket the power multiplier")
                    ref = bisection_oracle(kernel, C, P_t, covdesign.DUAL_TOL, cap)[0]
                except SolverError as exc:
                    with pytest.raises(SolverError, match=str(exc)):
                        covdesign._dual_search(*args)
                    seen.add("SolverError")
                    continue
                best, evaluations, converged = covdesign._dual_search(*args)
                assert evaluations <= max_iterations
                assert best.power < P_t or best.lambda1 == bracket_top(kernel, C, P_t)
                if converged:
                    assert_certified(kernel, C, P_t, covdesign.DUAL_TOL, best.lambda1)
                seen.add(category(ref.lambda1))
        # Too few evaluations to bracket a grown multiplier raise (a budget
        # first met at 2^10 needs 12); two evaluations cannot bracket any.
        assert "SolverError" in seen and ("grown" in seen) == (max_iterations > 2)

    def test_power_equal_to_budget_is_not_below_it(self, monkeypatch):
        design, kernel, C, _ = next(search_instances())
        # The bracket stops growing at hi = 2 with power(2) == P_t: every
        # grid point below it has power above P_t and the answer is the top.
        P_t = kernel.step(2.0, C).power
        assert kernel.step(1.0, C).power > P_t
        sol = solve_weighted_eip(*design, P_t, C, {})
        assert sol.lambda1 == 2.0
        self.assert_same(monkeypatch, *design, P_t, C)
        # The grid point 0.5 has power == P_t: it is the lower end.
        P_t = kernel.step(0.5, C).power
        sol = solve_weighted_eip(*design, P_t, C, {})
        assert sol.lambda1 == 0.5 + 2.0 ** -30
        self.assert_same(monkeypatch, *design, P_t, C)

    def test_budget_tied_to_the_bracket_top(self, min_power_calls):
        """P_t = power(hi): the lower neighbour of hi certifies it, one
        evaluation after the lowest grid point and the bracket growth, also
        where power is flat; min_power is asked only where the bracket grew."""
        cases = set()
        for design, kernel, C, _ in search_instances():
            for m in (0, 3):
                P_t = kernel.step(2.0 ** m, C).power
                if bracket_top(kernel, C, P_t) != 2.0 ** m:
                    continue  # flat power: the bracket stops at 1
                min_power_calls.clear()
                best, evaluations, converged = covdesign._dual_search(
                    kernel, C, P_t, covdesign.DUAL_TOL, covdesign.MAX_DUAL_EVALUATIONS)
                assert best.lambda1 == 2.0 ** m and converged
                assert len(min_power_calls) == (m > 0)
                assert evaluations == m + 3
                assert_certified(kernel, C, P_t, covdesign.DUAL_TOL, best.lambda1)
                cases.add((m, not design[0].any()))
        assert cases == {(0, True), (0, False), (3, False)}

    def test_sweep_p_designs_match_bisection(self, min_power_calls):
        """The weighted designs of the p-sweep (both schemes, seeds 0-3), at
        the default P_t and at a tight one that grows the bracket: each is
        the bisection's answer bit for bit, certified, in no more
        evaluations, and a slack budget evaluates the lowest grid point
        only. Each kernel's min_power is the selfish power to 1e-13
        relative."""
        seen = collections.Counter()
        for scheme in (Scheme.SCHEME_I, Scheme.SCHEME_II):
            for p in (0.2, 0.4, 0.6, 0.8, 1.0):
                for seed in range(4):
                    cfg = ScenarioConfig(scheme=scheme, p=p, seed=seed)
                    scn = make_scenario(cfg, require_coverage=False)  # as the sweep draws it
                    p_min = selfish(scn.B, cfg.C, np.inf, scn.G2).consumed_power
                    # noncoop, coop or full, and partial under Scheme II.
                    weights = [tip_weights(cfg.M_rR, cfg.L), scheme_weights(cfg, scn.omega, scn.S)]
                    if scheme is Scheme.SCHEME_II:
                        weights.append(scheme_weights(cfg, np.ones(mask_shape(cfg)), scn.S))
                    for w in weights:
                        kernel = covdesign._DualKernel.weighted(w, scn.G2, scn.B)
                        assert abs(kernel.min_power(cfg.C) - p_min) <= 1e-13 * p_min
                        for P_t in (cfg.P_t, 1.05 * p_min):
                            evaluations, _ = self.assert_same_search(kernel, cfg.C, P_t,
                                                                     min_power_calls)
                            if kernel.step(2.0 ** -30, cfg.C).power < P_t:
                                assert evaluations == 1
                                seen["slack"] += 1
                            else:
                                top = bracket_top(kernel, cfg.C, P_t)
                                seen["grown" if top > 1.0 else "active"] += 1
        assert set(seen) == {"slack", "active", "grown"}, seen

    def test_default_scenario_matches_bisection(self, monkeypatch):
        for p in (0.2, 0.6, 1.0):
            cfg = ScenarioConfig(p=p, seed=3)
            scn = make_scenario(cfg)
            for w in (tip_weights(cfg.M_rR, cfg.L),
                      scheme_weights(cfg, scn.omega, scn.S)):
                for P_t in (cfg.P_t, 0.1 * cfg.P_t):
                    self.assert_same(monkeypatch, w, scn.B, scn.G2, P_t, cfg.C)

    def test_probes_are_capped_on_a_step_curve(self):
        # power drops from 1e300 to half of P_t = 1 at lambda1 = 0.3, a jump
        # of 691 in log(power / P_t) that no interpolation fits: whatever the
        # steps, the cap on them bounds the evaluations.
        class StepCurve:
            def step(self, lambda1, C):
                power = 1e300 if lambda1 < 0.3 else 0.5
                return covdesign._DualIterate(lambda1, 1.0, power, None, None, None)

            def min_power(self, C):
                raise AssertionError("the bracket grew past lambda1 = 1")

        args = (1.0, 1.0, covdesign.DUAL_TOL, covdesign.MAX_DUAL_EVALUATIONS)
        best, evaluations, converged = covdesign._dual_search(StepCurve(), *args)
        ref, ref_evaluations, ref_converged = bisection_oracle(StepCurve(), *args)
        assert best.lambda1 == ref.lambda1 and converged and ref_converged
        # One bracket evaluation, then at most 1 + 2n with n = 30 halvings:
        # the lowest grid point, n interpolation steps and n midpoints.
        assert ref_evaluations == 31 and evaluations <= 1 + 1 + 2 * 30
