"""End-to-end acceptance suite.

Thirteen criteria covering the method orderings, the closed-form solver
pieces, the mask optimization, the Monte-Carlo oracles, the recovery
pipeline and end-to-end determinism. Each test prints a single
``criterion N ...: PASS`` line on success (visible with ``pytest -s``).

Every design comes from what ships: the p-sweeps of criteria 1-3 and 5
are run_compare rows, and every other design is harness._solve_method's.
"""

import itertools
import time

import numpy as np
import pytest

from specshare import harness
from specshare.completion import CompletionParams, radar_pipeline
from specshare.config import ScenarioConfig, Scheme
from specshare.covdesign import min_capacity_multiplier
from specshare.harness import ExperimentSpec, format_csv, run_compare
from specshare.interference import (
    interference_diag_matrix,
    mismatched_weight_diagonals,
    scheme_weights,
    weighted_eip,
)
from specshare.linalg import crandn
from specshare.samplingopt import hungarian, joint_design
from specshare.scenario import generate_sampling_mask, make_scenario
from specshare.streams import stream

from oracles import dense_schedule, eip_scheme2_trace_form, empirical_eip

P_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
N_SEEDS = 20

# Noise-calibrated completion penalty for the noisy recovery experiments;
# the tiny default penalty targets the noiseless exact-recovery regime.
PIPELINE_PARAMS = CompletionParams(mu_rel=0.1)


def scheme_eip(cfg, mask, S, G2, X, d):
    """The radar scheme's EIP of a design R_l = X_l diag(d_l) X_l^H, through
    the one weighted form."""
    return weighted_eip(scheme_weights(cfg, mask, S), interference_diag_matrix(G2, X, d))


def gram_factors(rng, n, L):
    """(A, 1) for L random n x n matrices A_l: the factors of the
    covariances R_l = A_l A_l^H, and the stack of those R_l."""
    A = np.stack([crandn(rng, n, n) for _ in range(L)])
    ones = np.ones((L, n))
    return A, ones, dense_schedule(A, ones)


def best_joint_design(cfg, scn, restarts, rng):
    """The joint design from scn.omega and from restarts - 1 covering masks
    drawn in turn from rng, keeping the lowest final EIP (the first on ties)."""
    best = None
    for r in range(restarts):
        mask = scn.omega if r == 0 else generate_sampling_mask(cfg, rng)
        result = joint_design(cfg, scn.B, scn.G2, scn.S, mask, {})
        if best is None or result.eip_trace[-1] < best.eip_trace[-1]:
            best = result
    return best


def scenario2_cfg(**kw):
    kw.setdefault("M_tR", 16)
    kw.setdefault("M_rR", 32)
    kw.setdefault("M_tC", 4)
    kw.setdefault("M_rC", 4)
    return ScenarioConfig(**kw)


def p_sweep(scheme, methods):
    """run_compare's rows of the p-sweep over P_GRID and seeds 0 to
    N_SEEDS - 1, as {(p, seed): {method: row}}. A row error fails the
    fixture."""
    spec = ExperimentSpec(cfg=ScenarioConfig(scheme=scheme), methods=methods,
                          sweep_var="p", sweep_values=list(P_GRID), seeds=list(range(N_SEEDS)))
    grid = {}
    for row in run_compare(spec):
        assert not row.error, f"{row.method} at p = {row.sweep_value}, seed {row.seed}: {row.error}"
        grid.setdefault((row.sweep_value, row.seed), {})[row.method] = row
    return grid


@pytest.fixture(scope="module")
def scheme1_grid():
    """Scenario-1 sweep: noncooperative and cooperative rows per (p, seed),
    and the seconds the sweep took."""
    t0 = time.perf_counter()
    grid = p_sweep(Scheme.SCHEME_I, ["noncoop", "coop"])
    return grid, time.perf_counter() - t0


@pytest.fixture(scope="module")
def scheme2_grid():
    """Scenario-1 sweep under Scheme II: noncoop / partial / full rows."""
    return p_sweep(Scheme.SCHEME_II, ["noncoop", "partial", "full"])


@pytest.fixture(scope="module")
def joint_grid():
    """Scenario-2 joint design versus the selfish baseline."""
    out = {}
    for p in (0.4, 0.5, 0.6):
        for seed in range(5):
            cfg = scenario2_cfg(p=p, seed=seed)
            scn = make_scenario(cfg)
            baseline, omega = harness._solve_method("selfish", cfg, scn)
            result = best_joint_design(cfg, scn, 3, stream(seed, "acc-joint", p))
            out[(p, seed)] = {
                "eip_selfish": scheme_eip(cfg, omega, scn.S, scn.G2, baseline.X, baseline.d),
                "eip_joint": scheme_eip(cfg, result.mask, scn.S, scn.G2,
                                        result.solution.X, result.solution.d),
                "capacities": (baseline.achieved_capacity,
                               result.solution.achieved_capacity),
            }
    return out


def test_criterion_01_cooperative_ordering(scheme1_grid):
    grid, elapsed = scheme1_grid
    ok = all(rows["coop"].eip <= rows["noncoop"].eip + 1e-6 for rows in grid.values())
    fast = elapsed < 300.0
    verdict = "PASS" if ok and fast else "FAIL"
    print(f"criterion 1 (scheme-I cooperative <= noncooperative EIP, "
          f"{elapsed:.1f}s): {verdict}")
    assert ok and fast


def test_criterion_02_full_information_ordering(scheme2_grid):
    ok = all(
        rows["full"].eip <= min(rows["noncoop"].eip, rows["partial"].eip) + 1e-6
        for rows in scheme2_grid.values()
    )
    print(f"criterion 2 (scheme-II full <= noncoop/partial EIP): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_03_null_space_collapse(scheme1_grid):
    grid, _ = scheme1_grid
    hits = sum(
        grid[(0.2, seed)]["coop"].eip <= 0.01 * grid[(0.2, seed)]["noncoop"].eip
        for seed in range(N_SEEDS)
    )
    ok = hits >= 18
    print(f"criterion 3 (low-rate EIP collapse, {hits}/{N_SEEDS} seeds): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_04_joint_design_gain(joint_grid):
    ok = all(
        rec["eip_joint"] <= 0.8 * rec["eip_selfish"] for rec in joint_grid.values()
    )
    print(f"criterion 4 (joint design cuts selfish EIP by >= 20%): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_05_capacity_activeness(scheme1_grid, scheme2_grid, joint_grid):
    caps = [row.capacity for grid in (scheme1_grid[0], scheme2_grid)
            for rows in grid.values() for row in rows.values()]
    for rec in joint_grid.values():
        caps.extend(rec["capacities"])
    worst = max(abs(c - 12.0) for c in caps)
    ok = worst <= 1e-3
    print(f"criterion 5 (capacity within 1e-3 of target, worst {worst:.2e}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_06_trace_identity():
    rng = stream(0, "acc-identity")
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n_rx = int(rng.integers(1, 9))
        n_tx = int(rng.integers(1, 9))
        L = int(rng.integers(m, m + 8))
        q, _ = np.linalg.qr(crandn(rng, L, m))
        S = q.conj().T
        G2 = crandn(rng, n_rx, n_tx)
        X, d, schedule = gram_factors(rng, n_tx, L)
        mask = (rng.random((n_rx, m)) < 0.5).astype(float)
        w = scheme_weights(ScenarioConfig(scheme=Scheme.SCHEME_II), mask, S)
        a = weighted_eip(w, interference_diag_matrix(G2, X, d))
        b = eip_scheme2_trace_form(mask, S, G2, schedule)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    ok = worst <= 1e-12
    print(f"criterion 6 (matched-filter EIP trace identity, worst rel "
          f"{worst:.1e}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_07_monte_carlo_oracle():
    rng = stream(1, "acc-mc")
    ok = True
    for scheme in (Scheme.SCHEME_I, Scheme.SCHEME_II):
        for i in range(10):
            cfg = ScenarioConfig(M_tR=2, M_rR=3, M_tC=2, M_rC=2, L=4, p=0.5,
                                 scheme=scheme, seed=i)
            q, _ = np.linalg.qr(crandn(rng, 4, 2))
            S = q.conj().T
            G2 = crandn(rng, 3, 2)
            X, d, schedule = gram_factors(rng, 2, 4)
            cols = 4 if scheme is Scheme.SCHEME_I else 2
            mask = (rng.random((3, cols)) < 0.5).astype(float)
            analytic = scheme_eip(cfg, mask, S, G2, X, d)
            mean, se = empirical_eip(cfg, mask, G2, S, schedule, 10_000,
                                     stream(i, "acc-mc", scheme.value))
            if se > 0 and abs(analytic - mean) > 3 * se:
                ok = False

    # Scheme-I per-realization identity: unit-modulus phases drop out of the
    # elementwise modulus, so the masked power is deterministic given X.
    ident = True
    for i in range(10):
        G2 = crandn(rng, 3, 2)
        X = crandn(rng, 2, 4)
        mask = (rng.random((3, 4)) < 0.5).astype(float)
        alpha = np.sqrt(1e-3) * rng.standard_normal(4)
        masked = mask * ((G2 @ X) * np.exp(1j * alpha))
        direct = np.sum(np.abs(masked) ** 2)
        analytic = float(np.sum(mask * np.abs(G2 @ X) ** 2))
        if abs(direct - analytic) > 1e-10 * max(analytic, 1e-300):
            ident = False
    verdict = "PASS" if ok and ident else "FAIL"
    print(f"criterion 7 (Monte-Carlo oracle within 3 sigma + per-realization "
          f"identity): {verdict}")
    assert ok and ident


def test_criterion_08_hungarian_exact():
    rng = stream(2, "acc-hungarian")
    ok = True
    for n in range(2, 8):
        for _ in range(100):
            cost = rng.uniform(-10.0, 10.0, size=(n, n))
            best = min(
                sum(cost[i, perm[i]] for i in range(n))
                for perm in itertools.permutations(range(n))
            )
            perm = hungarian(cost)
            if abs(sum(cost[i, perm[i]] for i in range(n)) - best) > 1e-9:
                ok = False
    print(f"criterion 8 (assignment cost equals exhaustive optimum): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_09_alternating_monotonicity():
    ok = True
    for scheme in (Scheme.SCHEME_I, Scheme.SCHEME_II):
        for seed in range(20):
            cfg = ScenarioConfig(p=0.5, seed=seed, scheme=scheme)
            scn = make_scenario(cfg)
            result = joint_design(cfg, scn.B, scn.G2, scn.S, scn.omega, {})
            trace = result.eip_trace
            if not all(a >= b - 1e-9 for a, b in zip(trace, trace[1:])):
                ok = False
            s_in = np.linalg.svd(scn.omega, compute_uv=False)
            s_out = np.linalg.svd(result.mask, compute_uv=False)
            if np.linalg.norm(s_in - s_out) > 1e-10:
                ok = False
    print(f"criterion 9 (alternating EIP trace monotone, mask orbit "
          f"preserved): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_10_water_level_closed_form():
    rng = stream(3, "acc-water")
    ok = True
    for _ in range(1000):
        L = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        sing = rng.uniform(0.7, 1.5, size=L * n)
        C = float(rng.uniform(0.1, 4.0))
        lam2 = min_capacity_multiplier(sing, C, L)

        def achieved(lam):
            terms = np.log2(np.maximum(lam * sing**2, 1e-300))
            return float(np.sum(np.maximum(terms, 0.0)))

        if not (L * C <= achieved(lam2) <= L * C + 1e-8):
            ok = False
        if achieved(lam2 - 1e-6) >= L * C:
            ok = False
    print(f"criterion 10 (exact water level, 1000 random tuples): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_11_recovery_trend():
    def mean_error(p, method, seed):
        cfg = scenario2_cfg(p=p, seed=seed)
        scn = make_scenario(cfg)
        sol, mask = harness._solve_method(method, cfg, scn)
        stats = radar_pipeline(cfg, scn.S, scn.G2, sol.X, sol.d, mask, 10,
                               stream(seed, "acc-mc", method, p),
                               PIPELINE_PARAMS)
        return stats.mean_error

    ok = True
    for method in ("selfish", "noncoop", "joint"):
        lo = np.mean([mean_error(0.3, method, s) for s in range(5)])
        hi = np.mean([mean_error(0.6, method, s) for s in range(5)])
        if not hi < lo:
            ok = False
    e_selfish = np.mean([mean_error(0.5, "selfish", s) for s in range(5)])
    e_joint = np.mean([mean_error(0.5, "joint", s) for s in range(5)])
    if not e_joint <= e_selfish:
        ok = False
    print(f"criterion 11 (recovery error improves with sampling rate and "
          f"joint design): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_12_mismatched_rates():
    rng = stream(4, "acc-rates")
    G2 = crandn(rng, 3, 2)
    omega = (rng.random((3, 4)) < 0.6).astype(float)
    omega[omega.sum(axis=1) == 0, 0] = 1.0
    mask = omega
    S4 = np.linalg.qr(crandn(rng, 4, 2))[0].conj().T

    def q_diag(R):
        return np.einsum("ij,jk,ik->i", G2, R, G2.conj()).real

    cfg = ScenarioConfig(M_tR=2, M_rR=3, M_tC=2, M_rC=2, L=4, p=0.5)
    w = scheme_weights(cfg, mask, S4)

    def eip_mismatched(radar_rate, comm_rate, X, d):
        diags = mismatched_weight_diagonals(w, radar_rate, comm_rate, len(X))
        return weighted_eip(diags, interference_diag_matrix(G2, X, d))

    # Equal rates reproduce the matched-rate metric exactly.
    *factors4, sched4 = gram_factors(rng, 2, 4)
    hand = sum(float(np.sum(omega[:, l] * q_diag(sched4[l]))) for l in range(4))
    ok = abs(eip_mismatched(1.0, 1.0, *factors4) - hand) <= 1e-12

    # Radar twice as fast: comm symbol l sees the two radar symbols 2l, 2l+1.
    *factors2, sched2 = gram_factors(rng, 2, 2)
    hand = sum(
        float(np.sum((omega[:, 2 * l] + omega[:, 2 * l + 1]) * q_diag(sched2[l])))
        for l in range(2)
    )
    val = eip_mismatched(2.0, 1.0, *factors2)
    ok = ok and abs(val - hand) <= 1e-12 * max(hand, 1e-300)

    # Radar at half rate: only every other comm symbol is sampled.
    *factors8, sched8 = gram_factors(rng, 2, 8)
    hand = sum(
        float(np.sum(omega[:, l] * q_diag(sched8[2 * l]))) for l in range(4)
    )
    val = eip_mismatched(1.0, 2.0, *factors8)
    ok = ok and abs(val - hand) <= 1e-12 * max(hand, 1e-300)

    print(f"criterion 12 (mismatched symbol rates match hand-built index "
          f"sets): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_13_determinism():
    spec = ExperimentSpec(
        cfg=ScenarioConfig(),
        methods=["selfish", "noncoop", "coop"],
        sweep_var="p",
        sweep_values=[0.5, 1.0],
        seeds=[0, 1],
        mc_trials=2,
    )
    a = format_csv(run_compare(spec))
    b = format_csv(run_compare(spec))
    ok = a.encode() == b.encode()
    print(f"criterion 13 (repeated sweep yields byte-identical CSV): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok
