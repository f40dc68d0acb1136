"""The design memo of specshare.covdesign: one problem (H, noise, C) at a
time, its designs keyed by the exact inputs, and no answer that differs
from a cold solve."""

import collections
import dataclasses

import numpy as np
import pytest

from specshare import covdesign, harness
from specshare.config import ScenarioConfig, Scheme
from specshare.covdesign import InfeasibleError, SolverError, solve_weighted_eip
from specshare.harness import ExperimentSpec, format_csv, run_compare
from specshare.interference import noise_covariances, scheme_weights, tip_weights
from specshare.samplingopt import joint_design
from specshare.scenario import make_scenario

from oracles import selfish

SCHEME_METHODS = {
    Scheme.SCHEME_I: ("selfish", "noncoop", "coop", "joint"),
    Scheme.SCHEME_II: ("selfish", "noncoop", "partial", "full", "joint"),
}


def forget(monkeypatch):
    monkeypatch.setattr(covdesign, "_memo", None)


def count_calls(monkeypatch, *names):
    """Counter of the calls to the named covdesign functions from now on."""
    counts = collections.Counter()
    for name in names:
        real = getattr(covdesign, name)

        def counting(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(covdesign, name, counting)
    return counts


def fingerprint(sol):
    """Every field of a design, as bytes where it is a number."""
    numbers = [sol.lambda1, sol.lambda2, sol.achieved_capacity,
               sol.consumed_power]
    return (sol.schedule.tobytes(), np.array(numbers).tobytes(),
            sol.iterations, sol.converged)


def solve(method, cfg):
    """The harness's design for method on a freshly generated scenario, so
    that every call passes new arrays with the same bytes."""
    scn = make_scenario(cfg)
    noise = noise_covariances(cfg, scn.G1, scn.S)
    return harness._solve_method(method, cfg, scn, noise)[0]


def scheme_cases():
    return [(scheme, method) for scheme, methods in SCHEME_METHODS.items() for method in methods]


@pytest.mark.parametrize("scheme,method", scheme_cases())
def test_hit_is_bit_equal_to_cold_solve(monkeypatch, scheme, method):
    cfg = ScenarioConfig(scheme=scheme, p=0.5, seed=3)
    cold = fingerprint(solve(method, cfg))
    # The other methods first: this one is then solved on a warm problem,
    # and again as a memo hit.
    forget(monkeypatch)
    for other in SCHEME_METHODS[scheme]:
        if other != method:
            solve(other, cfg)
    first = solve(method, cfg)
    counts = count_calls(monkeypatch, "_whiten", "_dual_search")
    again = solve(method, cfg)
    assert again is first and not counts
    assert fingerprint(first) == cold


def perturbed_designs():
    """(name, change) pairs; each change maps the design's arguments to
    arguments that differ in one ulp, or only in memory layout."""
    def ulp(x):
        return np.nextafter(x, np.inf)

    def bump(a):
        a = np.array(a)
        flat = a.reshape(-1)
        if np.iscomplexobj(a):
            flat.real[0] = ulp(flat.real[0])
        else:
            flat[0] = ulp(flat[0])
        return a

    return [
        ("H", lambda w, H, G2, noise, P_t, C: (w, bump(H), G2, noise, P_t, C)),
        ("noise", lambda w, H, G2, noise, P_t, C:
            (w, H, G2, bump(noise), P_t, C)),
        ("G2", lambda w, H, G2, noise, P_t, C: (w, H, bump(G2), noise, P_t, C)),
        ("W", lambda w, H, G2, noise, P_t, C:
            (bump(w), H, G2, noise, P_t, C)),
        ("P_t", lambda w, H, G2, noise, P_t, C: (w, H, G2, noise, ulp(P_t), C)),
        ("C", lambda w, H, G2, noise, P_t, C: (w, H, G2, noise, P_t, ulp(C))),
        ("W layout", lambda w, H, G2, noise, P_t, C:
            (np.asfortranarray(w), H, G2, noise, P_t, C)),
    ]


@pytest.mark.parametrize("name,change", perturbed_designs(),
                         ids=[name for name, _ in perturbed_designs()])
def test_any_changed_input_misses(monkeypatch, name, change):
    cfg = ScenarioConfig(p=0.5, seed=5)
    scn = make_scenario(cfg)
    noise = noise_covariances(cfg, scn.G1, scn.S)
    w = scheme_weights(cfg, scn.omega, scn.S)
    design = (w, scn.H, scn.G2, noise, cfg.P_t, cfg.C)
    base = solve_weighted_eip(*design)
    counts = count_calls(monkeypatch, "_whiten", "_dual_search")
    assert solve_weighted_eip(*design) is base and not counts
    changed = solve_weighted_eip(*change(*design))
    assert changed is not base and counts["_dual_search"] == 1
    new_problem = name in ("H", "noise", "C")
    assert counts["_whiten"] == int(new_problem)
    # A changed weighted input leaves the problem and its designs in place;
    # a changed problem replaces them.
    again = solve_weighted_eip(*design)
    assert (again is base) == (not new_problem)
    assert fingerprint(again) == fingerprint(base)


def test_returned_designs_are_read_only():
    cfg = ScenarioConfig(p=0.5, seed=5)
    for method in ("selfish", "noncoop"):
        sol = solve(method, cfg)
        assert not sol.schedule.flags.writeable
        with pytest.raises(ValueError):
            sol.schedule[0, 0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.converged = False


def small_design():
    cfg = ScenarioConfig(p=0.5, seed=7)
    scn = make_scenario(cfg)
    noise = noise_covariances(cfg, scn.G1, scn.S)
    w = tip_weights(cfg.M_rR, cfg.L)
    return (w, scn.H, scn.G2, noise, cfg.P_t, cfg.C)


class TestErrorsAreNotMemoized:
    def test_infeasible_selfish_step(self, monkeypatch):
        w, H, G2, noise, P_t, C = small_design()

        def unreachable(*args):
            raise InfeasibleError("unreachable")

        with monkeypatch.context() as m:
            m.setattr(covdesign, "min_capacity_multiplier", unreachable)
            with pytest.raises(InfeasibleError):
                selfish(H, noise, C, P_t, G2)
            with pytest.raises(InfeasibleError):
                solve_weighted_eip(w, H, G2, noise, P_t, C)
        assert selfish(H, noise, C, P_t, G2).converged
        assert solve_weighted_eip(w, H, G2, noise, P_t, C).converged

    def test_infeasible_budget(self):
        w, H, G2, noise, P_t, C = small_design()
        p_min = selfish(H, noise, C, P_t, G2).consumed_power
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                solve_weighted_eip(w, H, G2, noise, 0.5 * p_min, C)
            assert solve_weighted_eip(w, H, G2, noise, P_t, C).converged

    def test_solver_errors(self, monkeypatch):
        design = small_design()

        def fails(*args):
            raise SolverError("no search")

        real = covdesign._DualKernel.covariances
        for name, target, replacement in (
            ("_dual_search", covdesign, fails),
            ("covariances", covdesign._DualKernel, lambda self, it: 2.0 * real(self, it)),
        ):
            with monkeypatch.context() as m:
                m.setattr(target, name, replacement)
                with pytest.raises(SolverError):
                    solve_weighted_eip(*design)
            assert solve_weighted_eip(*design).converged
            forget(monkeypatch)


def sweep_p_jobs(seed):
    """The paper's p-sweep as the benchmark runs it: both schemes, one
    run_compare per grid point."""
    cfg = ScenarioConfig(seed=seed)
    for cfg, methods in ((cfg, ["selfish", "noncoop", "coop"]),
                         (cfg.replace(scheme=Scheme.SCHEME_II), ["noncoop", "partial", "full"])):
        for p in (0.2, 0.4, 0.6, 0.8, 1.0):
            yield ExperimentSpec(cfg=cfg, methods=methods, sweep_var="p", sweep_values=[p],
                                 seeds=[seed]), p


def test_sweep_p_seed_shares_one_problem(monkeypatch):
    forget(monkeypatch)
    counts = count_calls(monkeypatch, "_whiten", "_dual_search")
    for spec, p in sweep_p_jobs(13):
        rows = run_compare(spec, p)
        assert not any(r.error for r in rows)
    # 30 designs, of which 11 differ, one search each: the selfish, noncoop
    # and partial weights do not depend on p, Scheme II noncoop repeats
    # Scheme I's, the Scheme I coop weights at p = 1 are the noncoop ones,
    # and the Scheme II full weights at p = 1 are the partial ones, bit for
    # bit and in the same C-ordered layout.
    assert counts["_whiten"] == 1
    assert counts["_dual_search"] == 11


def test_step_count_does_not_depend_on_method_order(monkeypatch, dual_steps):
    """Every design runs the same search, and a slack one proves its own
    feasibility: no minimum-power step is taken for either order."""
    totals = []
    for methods in (["selfish", "noncoop"], ["noncoop", "selfish"]):
        forget(monkeypatch)
        dual_steps.clear()
        rows = run_compare(ExperimentSpec(cfg=ScenarioConfig(), methods=methods, seeds=[2]))
        assert not any(r.error for r in rows)
        totals.append(len(dual_steps))
    assert totals[0] == totals[1]


def test_joint_design_whitens_once(monkeypatch):
    # A joint-long-sized scenario: at the default config the initial mask is
    # already a fixed point of the mask search, and the joint design stops
    # after one solve.
    cfg = ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=128, p=0.5, seed=2)
    scn = make_scenario(cfg)
    noise = noise_covariances(cfg, scn.G1, scn.S)
    forget(monkeypatch)
    counts = count_calls(monkeypatch, "_whiten", "_dual_search")
    result = joint_design(cfg, scn.H, scn.G2, noise, scn.S, scn.omega)
    assert result.outer_iterations >= 2
    assert counts["_whiten"] == 1
    assert counts["_dual_search"] <= result.outer_iterations


@pytest.mark.parametrize("scheme,methods", [
    (Scheme.SCHEME_I, ["selfish", "noncoop", "coop"]),
    (Scheme.SCHEME_II, ["noncoop", "partial", "full"]),
])
def test_warm_sweep_csv_equals_cold(monkeypatch, scheme, methods):
    spec = ExperimentSpec(cfg=ScenarioConfig(scheme=scheme), methods=methods,
                          sweep_var="p", sweep_values=[0.6, 1.0], seeds=[0, 1])
    with monkeypatch.context() as m:
        counts = count_calls(m, "_whiten")
        warm = format_csv(run_compare(spec))
    # Seeds run one after the other, each through the whole grid.
    assert counts["_whiten"] == 2
    real = harness._solve_method

    def cold_solve(*args):
        forget(monkeypatch)
        return real(*args)

    monkeypatch.setattr(harness, "_solve_method", cold_solve)
    assert format_csv(run_compare(spec)) == warm
