"""Covariance design: water level, closed-form subproblem, bisection solver."""


import numpy as np
import pytest

from specshare.config import ScenarioConfig
import warnings

from specshare import covdesign
from specshare.covdesign import (
    PHI_RIDGE,
    InfeasibleError,
    SolverError,
    min_capacity_multiplier,
    solve_selfish,
    solve_weighted_eip,
    subproblem_solution,
    verify_solution,
    water_fill,
)
from specshare.interference import (
    METHOD_EIP_I,
    METHOD_TIP,
    NoiseCovSchedule,
    WeightSchedule,
    average_capacity,
    interference_diag_matrix,
    noise_covariances,
    weight_schedule,
    weighted_eip,
)
from specshare.linalg import crandn, hermitize, min_eig, psd_inv_sqrt
from specshare.scenario import make_scenario
from specshare.streams import stream


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


class TestSubproblemSolution:
    def test_scalar_substitution(self):
        for lam2 in (0.5, 1.0, 2.0, 8.0):
            R = subproblem_solution(
                0.0, lam2, np.array([1.0]), np.eye(1), np.eye(1), np.eye(1)
            )
            assert abs(R[0, 0].real - max(lam2 - 1.0, 0.0)) < 1e-10

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


def small_instance(seed, L=4):
    rng = stream(seed, "inst")
    H = crandn(rng, 2, 2)
    G2 = crandn(rng, 3, 2)
    mats = []
    for _ in range(L):
        A = crandn(rng, 2, 2)
        mats.append(hermitize(A @ A.conj().T) + 0.1 * np.eye(2))
    return H, G2, NoiseCovSchedule(mats)


class TestSolveWeightedEip:
    def test_zero_interference_channel(self):
        H, _, noise = small_instance(0)
        G2 = np.zeros((3, 2))
        w = weight_schedule(METHOD_TIP, 3, 4)
        sol = solve_weighted_eip(w, H, G2, noise, P_t=8.0, C=2.0)
        assert sol.objective_eip == 0.0
        assert sol.achieved_capacity >= 2.0 - 1e-6

    def test_scalar_closed_form(self):
        sigma_C2 = 0.5
        C = 3.0
        noise = NoiseCovSchedule([sigma_C2 * np.eye(1)])
        w = weight_schedule(METHOD_TIP, 1, 1)
        sol = solve_weighted_eip(w, np.eye(1), np.eye(1), noise, P_t=10.0, C=C)
        expect = sigma_C2 * (2.0**C - 1.0)
        assert abs(sol.consumed_power - expect) <= 1e-6 * expect
        assert abs(sol.objective_eip - expect) <= 1e-6 * expect

    def test_scenario1_capacity_active(self):
        cfg = ScenarioConfig(p=0.5, seed=0)
        scn = make_scenario(cfg)
        noise = noise_covariances(cfg, scn.channels.G1, scn.waveforms.S)
        w = weight_schedule(METHOD_EIP_I, cfg.M_rR, cfg.L, mask=scn.mask)
        sol = solve_weighted_eip(w, scn.channels.H, scn.channels.G2, noise,
                                 cfg.P_t, cfg.C)
        assert abs(sol.achieved_capacity - 12.0) <= 1e-3
        assert sol.consumed_power <= cfg.P_t + 1e-6
        sol.schedule.validate()

    def test_infeasible_target_rejected(self):
        noise = NoiseCovSchedule([np.eye(1)])
        w = weight_schedule(METHOD_TIP, 1, 1)
        with pytest.raises(InfeasibleError):
            solve_weighted_eip(w, np.eye(1), np.eye(1), noise, P_t=1.0, C=10.0)

    def test_subproblem_consistency(self):
        # Re-deriving the schedule from the returned dual point reproduces it.
        H, G2, noise = small_instance(3)
        w = weight_schedule(METHOD_TIP, 3, 4)
        sol = solve_weighted_eip(w, H, G2, noise, P_t=6.0, C=2.0)
        for l in range(4):
            R = subproblem_solution(
                sol.dual.lambda1, sol.dual.lambda2, w.diagonals[l], G2, H, noise[l]
            )
            assert np.linalg.norm(R - sol.schedule[l]) <= 1e-8 * max(
                np.linalg.norm(sol.schedule[l]), 1.0
            )

    def test_power_nonincreasing_in_lambda1(self):
        H, G2, noise = small_instance(4)
        w = weight_schedule(METHOD_TIP, 3, 4)
        kernel = covdesign._DualKernel.weighted(
            w.diagonals, G2, covdesign._whiten(H, noise))
        powers = [kernel.step(lam1, 2.0).power for lam1 in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(a >= b - 1e-9 for a, b in zip(powers, powers[1:]))

    def test_cooperative_ordering(self):
        # EIP_I of the cooperative design never exceeds that of the TIP design.
        from specshare.scenario import SamplingMask

        for seed in range(5):
            H, G2, noise = small_instance(10 + seed)
            while True:
                omega = (stream(seed, "m").random((3, 4)) < 0.5).astype(float)
                if omega.sum() > 0:
                    break
            mask = SamplingMask(omega)
            w_eip = weight_schedule(METHOD_EIP_I, 3, 4, mask=mask)
            w_tip = weight_schedule(METHOD_TIP, 3, 4)
            coop = solve_weighted_eip(w_eip, H, G2, noise, P_t=10.0, C=1.0)
            noncoop = solve_weighted_eip(w_tip, H, G2, noise, P_t=10.0, C=1.0)
            assert (
                weighted_eip(w_eip, interference_diag_matrix(G2, coop.schedule))
                <= weighted_eip(w_eip, interference_diag_matrix(G2, noncoop.schedule)) + 1e-6
            )


class TestSolveSelfish:
    def test_zero_capacity_target(self):
        H, _, noise = small_instance(0)
        sol = solve_selfish(H, noise, 0.0)
        assert sol.consumed_power == 0.0

    def test_scalar_power(self):
        noise = NoiseCovSchedule([np.eye(1)])
        sol = solve_selfish(np.eye(1), noise, 4.0)
        assert abs(sol.consumed_power - (2.0**4 - 1.0)) <= 1e-6

    def test_capacity_active(self):
        H, _, noise = small_instance(7)
        sol = solve_selfish(H, noise, 3.0)
        assert abs(sol.achieved_capacity - 3.0) <= 1e-6


class TestVerifySolution:
    def test_selfish_vs_cooperative_ordering(self):
        cfg = ScenarioConfig(p=0.5, seed=1)
        scn = make_scenario(cfg)
        noise = noise_covariances(cfg, scn.channels.G1, scn.waveforms.S)
        w = weight_schedule(METHOD_EIP_I, cfg.M_rR, cfg.L, mask=scn.mask)
        coop = solve_weighted_eip(w, scn.channels.H, scn.channels.G2, noise,
                                  cfg.P_t, cfg.C)
        selfish = solve_selfish(scn.channels.H, noise, cfg.C)
        report = verify_solution(coop, scn.channels.H, scn.channels.G2, noise,
                                 cfg.P_t, cfg.C, weights=w, other=selfish)
        assert report["psd_ok"]
        assert report["power_feasible"]
        assert report["capacity_active"]
        assert report["ordering_ok"]

    def test_slackness_residual(self):
        H, G2, noise = small_instance(2)
        w = weight_schedule(METHOD_TIP, 3, 4)
        sol = solve_weighted_eip(w, H, G2, noise, P_t=6.0, C=2.0)
        report = verify_solution(sol, H, G2, noise, 6.0, 2.0)
        # Either the budget binds (active power constraint) or lambda1 is 0
        # at the resolution of the bisection bracket.
        assert report["slackness_residual"] <= sol.dual.lambda1 * 6.0 + 1e-6

    def test_power_violation_flagged(self):
        H, G2, noise = small_instance(2)
        w = weight_schedule(METHOD_TIP, 3, 4)
        sol = solve_weighted_eip(w, H, G2, noise, P_t=6.0, C=2.0)
        from specshare.interference import CovarianceSchedule

        bumped = CovarianceSchedule([R + 10.0 * np.eye(2) for R in sol.schedule])
        sol.schedule = bumped
        report = verify_solution(sol, H, G2, noise, 6.0, 2.0)
        assert not report["power_feasible"]


class TestObjectiveConsistency:
    def test_objective_matches_metric(self):
        H, G2, noise = small_instance(6)
        w = weight_schedule(METHOD_TIP, 3, 4)
        sol = solve_weighted_eip(w, H, G2, noise, P_t=6.0, C=2.0)
        Q = interference_diag_matrix(G2, sol.schedule)
        assert abs(sol.objective_eip - weighted_eip(w, Q)) < 1e-12
        assert abs(sol.achieved_capacity - average_capacity(sol.schedule, H, noise)) < 1e-12


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


class TestMultiplierScan:
    def test_bit_identical_to_loop(self):
        rng = stream(2, "scan")
        for _ in range(300):
            L = int(rng.integers(1, 129))
            n = int(rng.integers(1, 5))
            sing = rng.uniform(0.05, 3.0, size=L * n) ** float(rng.uniform(0.5, 4.0))
            C = float(rng.uniform(0.1, 20.0))
            assert min_capacity_multiplier(sing, C, L) == loop_multiplier(sing, C, L)

    def test_long_block_does_not_overflow(self):
        # L = 128 with a 12 bit/symbol target: small k need levels past 2**1024.
        sing = stream(3, "scan").uniform(0.05, 3.0, size=128 * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam2 = min_capacity_multiplier(sing, 12.0, 128)
        assert np.isfinite(lam2)
        assert lam2 == loop_multiplier(sing, 12.0, 128)


def reference_step(w_diags, G2, H, noise, lambda1, C):
    """One dual evaluation computed symbol by symbol, as the solver did
    before the batched kernel: (lambda2, power, stacked covariances)."""
    n = G2.shape[1]
    eye = np.eye(n)
    per_symbol = []
    for l in range(len(noise)):
        phi = hermitize(G2.conj().T @ (w_diags[l][:, None] * G2)) + lambda1 * eye
        if min_eig(phi) <= 0.0:
            phi = phi + PHI_RIDGE * max(float(np.linalg.norm(G2)) ** 2, 1.0) * eye
        phi_isqrt = psd_inv_sqrt(phi)
        _, s, vh = np.linalg.svd(psd_inv_sqrt(noise[l]) @ H @ phi_isqrt, full_matrices=False)
        per_symbol.append((phi_isqrt, s, vh.conj().T))
    lam2 = min_capacity_multiplier(np.concatenate([s for _, s, _ in per_symbol]), C, len(noise))
    mats = []
    for phi_isqrt, s, V in per_symbol:
        beta = np.where(s > 0, np.maximum(lam2 - 1.0 / np.maximum(s, 1e-300) ** 2, 0.0), 0.0)
        mats.append(hermitize(phi_isqrt @ ((V * beta) @ V.conj().T) @ phi_isqrt))
    return lam2, float(sum(np.trace(R).real for R in mats)), np.array(mats)


def coop_instance(seed, L, partial_rows=True):
    """Cooperative-style weights: every third symbol has no sampled entry
    (A_l = 0), and with partial_rows every third has a rank-1 A_l."""
    rng = stream(seed, "kernel")
    M, n, m = 6, 3, 2
    G2 = crandn(rng, M, n)
    H = crandn(rng, m, n)
    mats = []
    for _ in range(L):
        A = crandn(rng, m, m)
        mats.append(hermitize(A @ A.conj().T) + 0.1 * np.eye(m))
    w = rng.uniform(0.2, 1.0, size=(L, M))
    kind = np.arange(L) % 3
    w[kind == 0] = 0.0
    if partial_rows:
        w[kind == 2, 1:] = 0.0
    return w, G2, H, NoiseCovSchedule(mats)


class TestDualKernel:
    def assert_matches_reference(self, w, G2, H, noise, lambda1, C=2.0):
        kernel = covdesign._DualKernel.weighted(w, G2, covdesign._whiten(H, noise))
        it = kernel.step(lambda1, C)
        lam2, power, mats = reference_step(w, G2, H, noise, lambda1, C)
        assert abs(it.lambda2 - lam2) <= 1e-10 * lam2
        assert abs(it.power - power) <= 1e-10 * power
        R = kernel.covariances(it)
        assert np.linalg.norm(R - mats) <= 1e-10 * np.linalg.norm(mats)
        return kernel

    @pytest.mark.parametrize("L", [1, 4, 128])
    def test_matches_per_symbol_path(self, L):
        w, G2, H, noise = coop_instance(L, L)
        for lam1 in (0.05, 0.5, 3.0):
            self.assert_matches_reference(w, G2, H, noise, lam1)

    @pytest.mark.parametrize("L", [1, 4, 128])
    def test_ridge_branch_matches(self, L):
        # Zero-weight symbols have Phi_l = lambda1 I: singular at lambda1 = 0,
        # where both paths add the PHI_RIDGE ridge.
        w, G2, H, noise = coop_instance(10 + L, L, partial_rows=False)
        for lam1 in (0.0, 1e-12):
            kernel = self.assert_matches_reference(w, G2, H, noise, lam1)
            assert np.array_equal(kernel.singular(lam1), (np.arange(L) % 3 == 0) & (lam1 == 0.0))

    def test_default_scenario_dual_evaluations(self):
        cfg = ScenarioConfig(p=0.6, seed=0)
        scn = make_scenario(cfg)
        noise = noise_covariances(cfg, scn.channels.G1, scn.waveforms.S)
        for w in (weight_schedule(METHOD_TIP, cfg.M_rR, cfg.L),
                  weight_schedule(METHOD_EIP_I, cfg.M_rR, cfg.L, mask=scn.mask)):
            sol = solve_weighted_eip(w, scn.channels.H, scn.channels.G2, noise, cfg.P_t, cfg.C)
            assert sol.iterations == 31
            assert sol.converged


class TestPostConditions:
    def test_capacity_shortfall_raises(self, monkeypatch):
        real = covdesign.min_capacity_multiplier
        monkeypatch.setattr(covdesign, "min_capacity_multiplier",
                            lambda s, C, L: 0.5 * real(s, C, L))
        H, G2, noise = small_instance(3)
        w = weight_schedule(METHOD_TIP, 3, 4)
        with pytest.raises(SolverError, match="capacity"):
            solve_weighted_eip(w, H, G2, noise, P_t=6.0, C=2.0)
        with pytest.raises(SolverError, match="capacity"):
            solve_selfish(H, noise, 2.0)

    def test_power_excess_raises(self, monkeypatch):
        real = covdesign._DualKernel.covariances
        monkeypatch.setattr(covdesign._DualKernel, "covariances",
                            lambda self, it: 2.0 * real(self, it))
        # Scalar channel: the design uses 0.5 * (2**3 - 1) = 3.5 of P_t = 4.
        noise = NoiseCovSchedule([0.5 * np.eye(1)])
        w = weight_schedule(METHOD_TIP, 1, 1)
        with pytest.raises(SolverError, match="power"):
            solve_weighted_eip(w, np.eye(1), np.eye(1), noise, P_t=4.0, C=3.0)

    def test_invalid_schedule_raises(self, monkeypatch):
        real = covdesign._DualKernel.covariances
        skew = 1e-3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        monkeypatch.setattr(covdesign._DualKernel, "covariances",
                            lambda self, it: real(self, it) + skew)
        H, G2, noise = small_instance(3)
        w = weight_schedule(METHOD_TIP, 3, 4)
        with pytest.raises(SolverError, match="Hermitian"):
            solve_weighted_eip(w, H, G2, noise, P_t=6.0, C=2.0)
