"""Design reuse has one owner: the draws of make_scenario carry the mapping
of the designs solved on them (Scenario.designs), which
covdesign.solve_weighted_eip reads and fills under the exact inputs, and a
stored design never differs from a cold solve. The whitened channels B come
from make_scenario, which whitens once per set of draws; no solve whitens."""

import collections
import dataclasses

import numpy as np
import pytest

from specshare import covdesign, harness, scenario
from specshare.config import ScenarioConfig, Scheme
from specshare.covdesign import InfeasibleError, SolverError, solve_weighted_eip
from specshare.harness import ExperimentSpec, format_csv, run_compare
from specshare.interference import scheme_weights, tip_weights
from specshare.samplingopt import joint_design
from specshare.scenario import make_scenario

SCHEME_METHODS = {
    Scheme.SCHEME_I: ("selfish", "noncoop", "coop", "joint"),
    Scheme.SCHEME_II: ("selfish", "noncoop", "partial", "full", "joint"),
}


def count_calls(monkeypatch, *names):
    """Counter of the calls to the named functions from now on: _whiten of
    specshare.scenario, weighted of covdesign._DualKernel (one per kernel
    built, i.e. per cold solve), the others of specshare.covdesign."""
    counts = collections.Counter()
    for name in names:
        owner = {"_whiten": scenario, "weighted": covdesign._DualKernel}.get(name, covdesign)
        real = getattr(owner, name)

        def counting(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, staticmethod(counting) if name == "weighted" else counting)
    return counts


def fingerprint(sol):
    """Every field of a design, as bytes where it is a number."""
    numbers = [sol.lambda1, sol.lambda2, sol.achieved_capacity,
               sol.consumed_power]
    return (sol.X.tobytes(), sol.d.tobytes(), sol.Q.tobytes(), np.array(numbers).tobytes(),
            sol.iterations, sol.converged)


def solve(method, cfg):
    """The harness's design for method on cfg's scenario, through its
    designs mapping."""
    return harness._solve_method(method, cfg, make_scenario(cfg))[0]


def cold(method, cfg):
    """The same design solved with no stored designs."""
    return harness._solve_method(method, cfg, dataclasses.replace(make_scenario(cfg),
                                                                  designs={}))[0]


def scheme_cases():
    return [(scheme, method) for scheme, methods in SCHEME_METHODS.items() for method in methods]


@pytest.mark.parametrize("scheme,method", scheme_cases())
def test_hit_is_bit_equal_to_cold_solve(monkeypatch, scheme, method):
    cfg = ScenarioConfig(scheme=scheme, p=0.5, seed=3)
    reference = fingerprint(cold(method, cfg))
    # The other methods first: this one is then solved after their designs,
    # and again as a hit.
    for other in SCHEME_METHODS[scheme]:
        if other != method:
            solve(other, cfg)
    first = solve(method, cfg)
    counts = count_calls(monkeypatch, "_whiten", "weighted", "_dual_search")
    again = solve(method, cfg)
    assert again is first and not counts
    assert fingerprint(first) == reference


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
        ("B", lambda w, B, G2, P_t, C: (w, bump(B), G2, P_t, C)),
        ("G2", lambda w, B, G2, P_t, C: (w, B, bump(G2), P_t, C)),
        ("W", lambda w, B, G2, P_t, C: (bump(w), B, G2, P_t, C)),
        ("P_t", lambda w, B, G2, P_t, C: (w, B, G2, ulp(P_t), C)),
        ("C", lambda w, B, G2, P_t, C: (w, B, G2, P_t, ulp(C))),
        ("W layout", lambda w, B, G2, P_t, C: (np.asfortranarray(w), B, G2, P_t, C)),
    ]


@pytest.mark.parametrize("name,change", perturbed_designs(),
                         ids=[name for name, _ in perturbed_designs()])
def test_any_changed_input_misses(monkeypatch, name, change):
    """A mapping never returns a design of other inputs, channels included:
    a changed input gets a cold solve, bit-equal to one with no stored
    designs, and the stored design stays a hit."""
    cfg = ScenarioConfig(p=0.5, seed=5)
    scn = make_scenario(cfg)
    w = scheme_weights(cfg, scn.omega, scn.S)
    design = (w, scn.B, scn.G2, cfg.P_t, cfg.C)
    reference = fingerprint(solve_weighted_eip(*change(*design), {}))
    designs = {}
    base = solve_weighted_eip(*design, designs)
    counts = count_calls(monkeypatch, "_whiten", "_dual_search")
    assert solve_weighted_eip(*design, designs) is base and not counts
    changed = solve_weighted_eip(*change(*design), designs)
    assert changed is not base and counts == {"_dual_search": 1}
    assert fingerprint(changed) == reference
    assert solve_weighted_eip(*design, designs) is base
    assert solve_weighted_eip(*change(*design), designs) is changed
    assert counts == {"_dual_search": 1} and len(designs) == 2


def test_return_to_earlier_channels_solves_again(monkeypatch):
    """Seed 1's draws replace seed 0's in the scenario memo, and the designs
    go with them: returning to seed 0 draws and solves again, to the same
    bytes."""
    cfg = ScenarioConfig(p=0.5)
    first = solve("noncoop", cfg)
    solve("noncoop", cfg.replace(seed=1))
    counts = count_calls(monkeypatch, "_whiten", "_dual_search")
    again = solve("noncoop", cfg)
    assert counts == {"_whiten": 1, "_dual_search": 1}
    assert again is not first and fingerprint(again) == fingerprint(first)


def test_returned_designs_are_read_only():
    cfg = ScenarioConfig(p=0.5, seed=5)
    for method in ("selfish", "noncoop"):
        sol = solve(method, cfg)
        for factor in (sol.X, sol.d, sol.Q):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.converged = False


def small_design():
    cfg = ScenarioConfig(p=0.5, seed=7)
    scn = make_scenario(cfg)
    return (tip_weights(cfg.M_rR, cfg.L), scn.B, scn.G2, cfg.P_t, cfg.C)


class TestErrorsAreNotMemoized:
    def test_infeasible_selfish_step(self, monkeypatch):
        w, B, G2, P_t, C = small_design()
        designs = {}

        def unreachable(*args):
            raise InfeasibleError("unreachable")

        with monkeypatch.context() as m:
            m.setattr(covdesign, "min_capacity_multiplier", unreachable)
            for weights in (np.zeros_like(w), w):
                with pytest.raises(InfeasibleError):
                    solve_weighted_eip(weights, B, G2, P_t, C, designs)
        assert not designs
        for weights in (np.zeros_like(w), w):
            assert solve_weighted_eip(weights, B, G2, P_t, C, designs).converged
        assert len(designs) == 2

    def test_infeasible_budget(self):
        w, B, G2, P_t, C = small_design()
        designs = {}
        p_min = solve_weighted_eip(np.zeros_like(w), B, G2, P_t, C, {}).consumed_power
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                solve_weighted_eip(w, B, G2, 0.5 * p_min, C, designs)
            assert solve_weighted_eip(w, B, G2, P_t, C, designs).converged
        assert len(designs) == 1

    def test_solver_errors(self, monkeypatch):
        design = small_design()
        designs = {}

        def fails(*args):
            raise SolverError("no search")

        def doubled(self, it):  # twice the power: over the budget
            X, d = real(self, it)
            return X, 2.0 * d

        real = covdesign._DualKernel.factors
        for name, target, replacement in (
            ("_dual_search", covdesign, fails),
            ("factors", covdesign._DualKernel, doubled),
        ):
            with monkeypatch.context() as m:
                m.setattr(target, name, replacement)
                with pytest.raises(SolverError):
                    solve_weighted_eip(*design, designs)
            assert not designs
            assert solve_weighted_eip(*design, designs).converged
            designs.clear()


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
    counts = count_calls(monkeypatch, "_whiten", "weighted", "_dual_search")
    for spec, p in sweep_p_jobs(13):
        rows = run_compare(spec, p)
        assert not any(r.error for r in rows)
    # 30 designs, of which 11 differ, one kernel and one search each: the
    # selfish, noncoop and partial weights do not depend on p, Scheme II
    # noncoop repeats Scheme I's, the Scheme I coop weights at p = 1 are the
    # noncoop ones, and the Scheme II full weights at p = 1 are the partial
    # ones, bit for bit and in the same C-ordered layout. Both schemes share
    # the seed's draws, so make_scenario whitens once.
    assert counts == {"_whiten": 1, "weighted": 11, "_dual_search": 11}


# CI's ill-conditioned comm noise (the installed console script's ill.txt).
ILL_CONDITIONED = ScenarioConfig(scheme=Scheme.SCHEME_II, M_tR=1, M_rR=1, M_tC=6, M_rC=4, L=8,
                                 sigma_C2=3e-6, rho2=5.38e5, sigma_alpha2=8.4e-3,
                                 sigma1_2=2.36, C=18.96, P_t=8.74)


@pytest.mark.parametrize("cfg", [ScenarioConfig(scheme=Scheme.SCHEME_II, M_tR=m)
                                 for m in (4, 8, 12, 16)] + [ILL_CONDITIONED],
                         ids=["M_tR=4", "M_tR=8", "M_tR=12", "M_tR=16", "ill-conditioned"])
def test_full_at_p1_is_partial(monkeypatch, cfg):
    """IP_FMFB is EIP_II with every matched filter kept: at p = 1 the full
    weights are the partial ones to the bit, whatever the antenna count, so
    full is a hit on partial's design (one dual search per seed) and both
    rows print the same metrics."""
    columns = ("eip", "tip", "capacity", "power")
    counts = count_calls(monkeypatch, "_dual_search")
    for seed in range(3):
        counts.clear()
        partial, full = run_compare(ExperimentSpec(cfg=cfg, methods=["partial", "full"],
                                                   seeds=[seed]))
        assert counts == {"_dual_search": 1}
        assert not partial.error and not full.error
        assert ([harness._fmt(getattr(full, c)) for c in columns]
                == [harness._fmt(getattr(partial, c)) for c in columns])


@pytest.mark.parametrize("sweep_var,values", [
    ("C", [6.0, 8.0, 10.0, 12.0, 14.0]), ("targets", [1, 2, 3]),
])
def test_sweep_reuses_one_set_of_draws(monkeypatch, sweep_var, values):
    """A C or targets sweep of one seed whitens once and solves each
    distinct design once: at p = 0.5 the selfish, noncoop and coop weights
    differ, and none depends on C or the targets (no draw reads them: the
    target response is the config's, and no design reads it). With recovery
    trials, each targets value's rows are those of a cold run of that value
    alone, though its grid points share their draws."""
    spec = ExperimentSpec(cfg=ScenarioConfig(p=0.5), methods=["selfish", "noncoop", "coop"],
                          sweep_var=sweep_var, sweep_values=values, seeds=[0])
    counts = count_calls(monkeypatch, "_whiten", "weighted")
    rows = run_compare(spec)
    assert len(rows) == 3 * len(values) and not any(r.error for r in rows)
    distinct = 3 * len(values) if sweep_var == "C" else 3
    assert counts == {"_whiten": 1, "weighted": distinct}
    assert len(make_scenario(spec.cfg).designs) == distinct
    if sweep_var == "targets":
        spec = dataclasses.replace(spec, mc_trials=2)
        warm = run_compare(spec)
        assert not any(r.error for r in warm)
        for value in values:
            monkeypatch.setattr(scenario, "_memo", None)
            cold = run_compare(spec, value)
            assert format_csv([r for r in warm if r.sweep_value == value]) == format_csv(cold)


def test_step_count_does_not_depend_on_method_order(monkeypatch, dual_steps):
    """Every design runs the same search, and a slack one proves its own
    feasibility: no minimum-power step is taken for either order."""
    totals = []
    for methods in (["selfish", "noncoop"], ["noncoop", "selfish"]):
        monkeypatch.setattr(scenario, "_memo", None)
        dual_steps.clear()
        rows = run_compare(ExperimentSpec(cfg=ScenarioConfig(), methods=methods, seeds=[2]))
        assert not any(r.error for r in rows)
        totals.append(len(dual_steps))
    assert totals[0] == totals[1]


def test_joint_design_whitens_nothing(monkeypatch):
    # A joint-long-sized scenario: at the default config the initial mask is
    # already a fixed point of the mask search, and the joint design stops
    # after one solve. Every solve is of the scenario's B and C, and is
    # stored in its designs.
    cfg = ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=128, p=0.5, seed=2)
    scn = make_scenario(cfg)
    counts = count_calls(monkeypatch, "_whiten", "_dual_search")
    result = joint_design(cfg, scn.B, scn.G2, scn.S, scn.omega, scn.designs)
    assert result.outer_iterations >= 2
    assert counts["_whiten"] == 0
    assert counts["_dual_search"] <= result.outer_iterations
    assert len(scn.designs) == counts["_dual_search"]
    assert {key[1:] for key in scn.designs} == {covdesign._exact(scn.B, scn.G2, cfg.P_t, cfg.C)}
    assert any(sol is result.solution for sol in scn.designs.values())


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

    def cold_solve(method, cfg, scn):
        return real(method, cfg, dataclasses.replace(scn, designs={}))

    monkeypatch.setattr(harness, "_solve_method", cold_solve)
    assert format_csv(run_compare(spec)) == warm
