"""Experiment harness: validation, sweeps, CSV determinism and the CLI."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from specshare import cli, covdesign, harness, scenario
from specshare.cli import main as cli_main
from specshare.config import ConfigError, ScenarioConfig, Scheme, SpecshareError, format_config
from specshare.covdesign import InfeasibleError, SolverError
from specshare.harness import (
    CSV_HEADER,
    ExperimentSpec,
    ResultRow,
    SpecError,
    apply_sweep,
    format_csv,
    run_compare,
    write_csv,
)
from specshare.completion import radar_pipeline
from specshare.interference import MetricError
from specshare.samplingopt import spectral_gap
from specshare.scenario import ScenarioError, make_scenario
from specshare.streams import stream

from oracles import selfish


def scenario1(**kw):
    return ScenarioConfig(**kw)


class TestExperimentSpec:
    def test_defaults_validate(self):
        ExperimentSpec(cfg=scenario1())

    def test_empty_methods_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=scenario1(), methods=[])

    def test_unknown_method_rejected(self):
        with pytest.raises(SpecError, match="^unknown method 'greedy'$"):
            ExperimentSpec(cfg=scenario1(), methods=["greedy"])

    def test_repeated_method_rejected(self):
        # It would run twice and print its rows twice.
        with pytest.raises(SpecError, match="method 'noncoop' is repeated"):
            ExperimentSpec(cfg=scenario1(), methods=["noncoop", "selfish", "noncoop"])
        with pytest.raises(SpecError, match="method 'selfish' is repeated"):
            dataclasses.replace(ExperimentSpec(cfg=scenario1()), methods=["selfish", "selfish"])

    def test_coop_requires_scheme1(self):
        cfg = scenario1(scheme=Scheme.SCHEME_II)
        with pytest.raises(SpecError, match="^method 'coop' requires Scheme I$"):
            ExperimentSpec(cfg=cfg, methods=["coop"])

    def test_full_requires_scheme2(self):
        for method in ("partial", "full"):
            with pytest.raises(SpecError, match=f"^method '{method}' requires Scheme II$"):
                ExperimentSpec(cfg=scenario1(), methods=["selfish", method])

    def test_unknown_sweep_var_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=scenario1(), sweep_var="q")

    def test_negative_mc_trials_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=scenario1(), mc_trials=-1)

    def test_non_integer_mc_trials_rejected(self):
        # radar_pipeline would fail on 1.5 trials with a TypeError.
        with pytest.raises(SpecError, match=r"^mc_trials 1\.5 is not an integer$"):
            ExperimentSpec(cfg=scenario1(), mc_trials=1.5)
        with pytest.raises(SpecError, match=r"^mc_trials True is not an integer$"):
            ExperimentSpec(cfg=scenario1(), mc_trials=True)
        assert ExperimentSpec(cfg=scenario1(), mc_trials=np.int64(2)).mc_trials == 2

    def test_target_count_must_be_an_integer(self):
        # int(1.5) would run one target under the label 1.5.
        for value in (1.5, 2.5, 0, 0.0, -1):
            with pytest.raises(SpecError, match="target count must be an integer >= 1"):
                ExperimentSpec(cfg=scenario1(), sweep_var="targets", sweep_values=[1, value])
            with pytest.raises(SpecError, match="target count must be an integer >= 1"):
                apply_sweep(scenario1(), "targets", value)
        spec = ExperimentSpec(cfg=scenario1(), sweep_var="targets", sweep_values=[1.0, 2, 3.0])
        assert [len(apply_sweep(spec.cfg, "targets", v).targets) for v in spec.sweep_values] == [
            1, 2, 3]

    @pytest.mark.parametrize("sweep_var,values,message", [
        ("p", [0.5, 1.5], r"p must be in \(0, 1\]"),
        ("C", [4.0, -1.0], "C must be nonnegative"),
        ("rho2", [0.0], "rho2 must be positive"),
        ("sigma1_2", [-0.1], "sigma1_2 must be nonnegative"),
    ])
    def test_grid_value_the_config_rejects(self, sweep_var, values, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentSpec(cfg=scenario1(), sweep_var=sweep_var, sweep_values=values)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(ExperimentSpec(cfg=scenario1()), sweep_var=sweep_var,
                                sweep_values=values)

    @pytest.mark.parametrize("changes,message", [
        ({"seeds": [3, 4, 3]}, "seed 3 is repeated"),
        ({"sweep_var": "p", "sweep_values": [0.5, 1.0, 0.5]}, "sweep value 0.5 is repeated"),
        ({"sweep_var": "targets", "sweep_values": [2, 2.0]}, "sweep value 2 is repeated"),
        ({"sweep_values": [0.1, 0.2]}, r"sweep 'none' takes one value, None, got \[0.1, 0.2\]"),
        # Distinct values whose rows format_csv would print under one label.
        ({"sweep_var": "p", "sweep_values": [0.3, 0.1 + 0.2]},
         "sweep values 0.3 and 0.30000000000000004 both print as 0.3"),
        ({"sweep_var": "C", "sweep_values": [12.0, 12.0000000005, 12.000000001]},
         "sweep values 12.0 and 12.0000000005 both print as 12"),
    ])
    def test_repeats_rejected(self, changes, message):
        # Each would run or print the same design twice.
        with pytest.raises(SpecError, match=message):
            ExperimentSpec(cfg=scenario1(), **changes)
        with pytest.raises(SpecError, match=message):
            dataclasses.replace(ExperimentSpec(cfg=scenario1()), **changes)

    @pytest.mark.parametrize("seeds,message", [
        # 0.5 would run as seed 0, and print seed 0 twice; True as seed 1.
        ([0.5, 0], r"^seed must be an integer, got 0\.5$"),
        ([True, 1], "^seed must be an integer, got True$"),
        ([0, -1], "^seed must be >= 0$"),
    ], ids=["half", "bool", "negative"])
    def test_seed_the_config_refuses(self, seeds, message):
        # The config's own seed rule, before any design runs.
        with pytest.raises(ConfigError, match=message):
            ExperimentSpec(cfg=scenario1(), seeds=seeds)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(ExperimentSpec(cfg=scenario1()), seeds=seeds)
        assert ExperimentSpec(cfg=scenario1(), seeds=[np.int64(2), 0]).seeds == [2, 0]

    @pytest.mark.parametrize("changes,message", [
        ({"sweep_values": []}, "sweep grid is empty"),
        ({"seeds": []}, "seed list is empty"),
    ])
    def test_empty_lists_rejected(self, changes, message):
        with pytest.raises(SpecError, match=f"^{message}$"):
            ExperimentSpec(cfg=scenario1(), **changes)

    @pytest.mark.parametrize("changes,message", [
        # It would run the config's p and print the row as p = 0.
        ({"sweep_var": "p", "sweep_values": [0.5, None]}, "sweep 'p' takes numbers, got None"),
        # It would print its rows as none = 5.
        ({"sweep_values": [5.0]}, r"sweep 'none' takes one value, None, got \[5.0\]"),
    ])
    def test_none_is_the_none_sweep_only(self, changes, message):
        with pytest.raises(SpecError, match=f"^{message}$"):
            ExperimentSpec(cfg=scenario1(), **changes)
        with pytest.raises(SpecError, match=f"^{message}$"):
            dataclasses.replace(ExperimentSpec(cfg=scenario1()), **changes)


class TestApplySweep:
    def test_p(self):
        cfg = apply_sweep(scenario1(), "p", 0.3)
        assert cfg.p == 0.3

    def test_capacity(self):
        cfg = apply_sweep(scenario1(), "C", 9.0)
        assert cfg.C == 9.0

    def test_targets_count(self):
        cfg = apply_sweep(scenario1(), "targets", 3)
        assert len(cfg.targets) == 3
        # Total return power is preserved by the 1/sqrt(k) coefficient scale.
        total = sum(abs(c) ** 2 for _, c in cfg.targets)
        assert total == pytest.approx(abs(0.2 + 0.1j) ** 2)

    def test_none_is_identity(self):
        cfg = scenario1()
        assert apply_sweep(cfg, "none", None) is cfg

    def test_unknown_variable_rejected(self):
        with pytest.raises(SpecError, match="^unknown sweep variable 'bogus'$"):
            apply_sweep(scenario1(), "bogus", 1.0)


class TestRunCompare:
    def test_noncoop_never_worse_than_selfish(self):
        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["selfish", "noncoop"],
                              seeds=[0, 1])
        rows = run_compare(spec)
        by_seed = {}
        for r in rows:
            assert r.error == ""
            by_seed.setdefault(r.seed, {})[r.method] = r.eip
        for d in by_seed.values():
            assert d["noncoop"] <= d["selfish"] + 1e-6

    def test_determinism(self):
        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["noncoop"], seeds=[3])
        a = run_compare(spec)[0]
        b = run_compare(spec)[0]
        assert (a.eip, a.tip, a.capacity, a.power) == (b.eip, b.tip, b.capacity, b.power)

    def test_capacity_active_on_all_rows(self):
        spec = ExperimentSpec(cfg=scenario1(p=0.5),
                              methods=["selfish", "noncoop", "coop"], seeds=[0])
        for r in run_compare(spec):
            assert abs(r.capacity - 12.0) <= 1e-3

    def test_unconverged_solution_reported(self, monkeypatch):
        from specshare import covdesign

        # P_t = 16 binds (at P_t = 32 the budget is slack and 2 evaluations
        # converge); the search needs 10 evaluations, so 5 leave it open.
        spec = ExperimentSpec(cfg=scenario1(p=0.5, P_t=16.0), methods=["noncoop"], seeds=[0])
        search = covdesign._dual_search
        monkeypatch.setattr(covdesign, "_dual_search",
                            lambda kernel, C, P_t, dual_tol, _:
                            search(kernel, C, P_t, dual_tol, 5))
        row = run_compare(spec)[0]
        prefix = "dual search not converged after "
        assert row.error.startswith(prefix) and row.error.endswith(" evaluations")
        assert 1 <= int(row.error[len(prefix):].split()[0]) <= 5
        assert np.isfinite(row.eip) and np.isfinite(row.power)

    def test_water_level_past_float_range_reported_unreachable(self):
        # C = 5000 bits/symbol needs a water level beyond 2**1024.
        spec = ExperimentSpec(cfg=scenario1(C=5000.0), methods=["selfish", "noncoop"],
                              seeds=[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_compare(spec)
        assert [r.method for r in rows] == ["selfish", "noncoop"]
        for r in rows:
            assert r.error == "capacity target 5000.0 unreachable: water level past the float range"
            assert np.isnan(r.power)

    def test_selfish_row_obeys_power_budget(self):
        # C = 30 needs about 79 of P_t = 32 even in the minimum-power design,
        # so the selfish row is infeasible like the weighted ones, while
        # the zero-weight solve without a budget still returns that design.
        cfg = scenario1(C=30.0)
        spec = ExperimentSpec(cfg=cfg, methods=["selfish", "noncoop", "coop"], seeds=[0])
        for r in run_compare(spec):
            assert r.error == "capacity target 30.0 unreachable within power budget 32.0"
            assert np.isnan(r.eip) and np.isnan(r.power)
        scn = make_scenario(cfg)
        with pytest.raises(InfeasibleError, match="unreachable within power budget 32.0"):
            selfish(scn.B, cfg.C, cfg.P_t, scn.G2)
        assert selfish(scn.B, cfg.C, np.inf, scn.G2).consumed_power > cfg.P_t

    def test_programming_error_propagates(self, monkeypatch):
        def broken(cfg, require_coverage=True):
            raise TypeError("broken scenario")

        monkeypatch.setattr(harness, "make_scenario", broken)
        with pytest.raises(TypeError, match="broken scenario"):
            run_compare(ExperimentSpec(cfg=scenario1()))

    @pytest.mark.parametrize("expected", [ValueError, NotImplementedError])
    def test_method_programming_error_propagates(self, monkeypatch, expected):
        def broken(G2, X, d):
            if expected is ValueError:
                return np.ones(3) + np.ones(4)  # NumPy's broadcast error
            raise NotImplementedError

        # A design's interference profile is scored once, as it is checked.
        monkeypatch.setattr(covdesign, "interference_diag_matrix", broken)
        with pytest.raises(expected):
            run_compare(ExperimentSpec(cfg=scenario1(), methods=["selfish"]))

    def test_error_family(self):
        for cls in (ConfigError, SpecError, ScenarioError, MetricError, InfeasibleError,
                    SolverError):
            assert issubclass(cls, SpecshareError)
        assert not issubclass(SpecshareError, RuntimeError)

    def test_zero_truth_mc_row_reported(self):
        # A zero target coefficient makes the radar truth zero, so its
        # recovery error is undefined; the designs themselves are fine.
        spec = ExperimentSpec(cfg=scenario1(targets=[(30.0, 0j)]),
                              methods=["selfish", "noncoop"], mc_trials=1)
        for r in run_compare(spec):
            assert r.error == "relative error undefined for zero truth"
            assert np.isfinite(r.eip) and np.isnan(r.mc_mean_err)

    def test_singular_noise_reported(self):
        # Without channel noise the noise covariance is singular on the
        # M_rC = 4 receive antennas; without the phase-offset term too it is
        # zero. The scenario's whitening refuses both, for every method's row.
        for kw, message in (({"sigma_C2": 0.0}, "noise covariance is not positive definite"),
                            ({"sigma_C2": 0.0, "sigma_alpha2": 0.0},
                             "noise covariance is not positive definite")):
            spec = ExperimentSpec(cfg=scenario1(**kw), methods=["selfish", "noncoop", "coop"])
            for r in run_compare(spec):
                assert r.error == message
                assert np.isnan(r.eip) and np.isnan(r.power)
        # On one receive antenna it is the positive scalar a |g_l|^2: a result.
        spec = ExperimentSpec(cfg=scenario1(sigma_C2=0.0, M_rC=1, C=4.0),
                              methods=["selfish", "noncoop", "coop"], seeds=[0, 1])
        for r in run_compare(spec):
            assert r.error == "" and r.eip > 0.0 and r.capacity >= 4.0 * (1.0 - 1e-9)

    def test_scenario_error_fills_one_row_per_method(self):
        # Singular comm noise on M_rC = 4 receive antennas.
        spec = ExperimentSpec(cfg=scenario1(sigma_C2=0.0, M_rC=4),
                              methods=["selfish", "noncoop"], seeds=[0, 1])
        rows = run_compare(spec)
        assert [(r.method, r.seed) for r in rows] == [
            ("selfish", 0), ("noncoop", 0), ("selfish", 1), ("noncoop", 1)]
        for r in rows:
            assert r.error == "noise covariance is not positive definite"
            assert np.isnan(r.eip) and np.isnan(r.power)

    @pytest.mark.parametrize("cfg,methods", [
        (scenario1(p=0.01), ["selfish", "noncoop", "coop", "joint"]),  # 2 ones, 32 columns
        (scenario1(p=0.2, scheme=Scheme.SCHEME_II), ["noncoop", "partial", "full", "joint"]),
    ], ids=["scheme1-p0.01", "scheme2-p0.2"])
    def test_uncoverable_mask_fails_only_the_recovery_columns(self, cfg, methods):
        # Too few samples to cover every row and column: completion refuses
        # the mask, and each row keeps the design it has without trials.
        designs = run_compare(ExperimentSpec(cfg=cfg, methods=methods, seeds=[0, 1]))
        rows = run_compare(ExperimentSpec(cfg=cfg, methods=methods, seeds=[0, 1], mc_trials=2))
        assert len(rows) == len(designs) == 2 * len(methods)
        for row, design in zip(rows, designs):
            assert design.error == "" and np.isfinite(design.eip)
            assert (row.method, row.seed) == (design.method, design.seed)
            assert [getattr(row, c) for c in ("eip", "tip", "capacity", "power")] == [
                getattr(design, c) for c in ("eip", "tip", "capacity", "power")]
            assert np.isnan(row.mc_mean_err) and np.isnan(row.mc_std_err)
            assert row.error == "mask has an empty row or column; completion impossible"

    def test_mc_columns_match_method_pipelines(self):
        # Each row's mc_* columns are those of a radar_pipeline call on its
        # method's design, drawing from the method's own stream.
        cfg = scenario1(p=0.5, seed=3)
        methods = ["selfish", "noncoop", "coop", "joint"]
        rows = run_compare(ExperimentSpec(cfg=cfg, methods=methods, seeds=[3], mc_trials=3))
        scn = make_scenario(cfg, require_coverage=True)
        for row in rows:
            sol, omega = harness._solve_method(row.method, cfg, scn)
            stats = radar_pipeline(cfg, scn.S, scn.G2, sol.X, sol.d, omega, 3,
                                   stream(cfg.seed, "mc", row.method, "none", 0.0))
            assert (row.mc_mean_err, row.mc_std_err) == (stats.mean_error, stats.std_error)
            assert not row.error

    @pytest.mark.parametrize("cfg,methods,seeds,trials", [
        (scenario1(p=0.5), ["selfish"], [0], 2),
        # At p = 0.15 a uniform draw covers the 8 x 32 mask with probability
        # 6.4e-8, so each seed's mask comes from the covering fallback.
        (scenario1(p=0.15), ["selfish"], [0, 1], 1),
        (scenario1(scheme=Scheme.SCHEME_II), ["noncoop", "full"], [0], 1),
    ], ids=["p0.5", "near-coverage-limit", "scheme2"])
    def test_mc_columns_filled(self, cfg, methods, seeds, trials):
        rows = run_compare(ExperimentSpec(cfg=cfg, methods=methods, seeds=seeds,
                                          mc_trials=trials))
        assert len(rows) == len(methods) * len(seeds)
        for row in rows:
            assert not row.error
            assert np.isfinite(row.mc_mean_err)
            assert np.isfinite(row.mc_std_err)


# A changed value for every ScenarioConfig field; a field missing here fails
# test_every_config_field_has_an_effect.
PERTURBED = {
    "M_tR": 2, "M_rR": 6, "M_tC": 6, "M_rC": 3, "L": 24, "P_t": 40.0, "C": 10.0,
    "sigma_C2": 0.02, "snr_dB": 20.0, "sigma1_2": 0.2, "sigma2_2": 0.2,
    "gamma2_dB": -20.0, "rho2": 4000.0, "sigma_alpha2": 1e-2, "p": 0.7,
    "scheme": Scheme.SCHEME_II, "targets": [(-20.0, 0.2 + 0.1j)], "seed": 4,
}


def _trials_csv(cfg):
    """The CSV of a run of the config with two recovery trials per row,
    seeded by it as the CLI seeds a run."""
    spec = ExperimentSpec(cfg=cfg, methods=["selfish", "noncoop"], seeds=[cfg.seed],
                          mc_trials=2)
    return format_csv(run_compare(spec))


@pytest.fixture(scope="module")
def base_trials_csv():
    return _trials_csv(scenario1(seed=3, p=0.5))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScenarioConfig)])
def test_every_config_field_has_an_effect(name, base_trials_csv):
    cfg = scenario1(seed=3, p=0.5).replace(**{name: PERTURBED[name]})
    assert getattr(cfg, name) != getattr(scenario1(seed=3, p=0.5), name)
    assert _trials_csv(cfg) != base_trials_csv


class TestSweep:
    def test_single_point_equals_run_compare(self):
        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["noncoop"], seeds=[0],
                              sweep_var="p", sweep_values=[0.5])
        a = run_compare(spec)[0]
        b = run_compare(
            ExperimentSpec(cfg=scenario1(p=0.5), methods=["noncoop"], seeds=[0]),
        )[0]
        assert a.eip == b.eip and a.capacity == b.capacity

    def test_coop_eip_nonincreasing_as_p_decreases(self):
        spec = ExperimentSpec(cfg=scenario1(), methods=["coop"], seeds=[0],
                              sweep_var="p", sweep_values=[0.2, 0.6, 1.0])
        rows = sorted(run_compare(spec), key=lambda r: r.sweep_value)
        eips = [r.eip for r in rows]
        assert eips[0] <= eips[1] + 1e-9 <= eips[2] + 2e-9

    def test_rejected_grid_value_fails_before_any_design(self, monkeypatch):
        """The spec builds every grid point's config, so it refuses a grid
        with a value the config rejects before anything runs."""
        solved = []
        real = harness._solve_method
        monkeypatch.setattr(harness, "_solve_method",
                            lambda method, *args: solved.append(method) or real(method, *args))
        with pytest.raises(ConfigError, match=r"p must be in \(0, 1\]"):
            run_compare(ExperimentSpec(cfg=scenario1(), methods=["selfish"], seeds=[0, 1],
                                       sweep_var="p", sweep_values=[0.5, 1.0, 1.5]))
        assert solved == []

    def test_whole_grid_equals_its_points(self):
        """run_compare(spec) runs each seed through the whole grid, as
        run_compare(spec, value) one seed and one value at a time would, and
        its CSV is the recorded one (by SHA-256), byte for byte."""
        spec = ExperimentSpec(cfg=scenario1(), methods=["selfish", "noncoop", "coop"],
                              sweep_var="p", sweep_values=[0.2, 0.6, 1.0], seeds=[0, 1])
        whole = run_compare(spec)
        points = [row for seed in spec.seeds for value in spec.sweep_values
                  for row in run_compare(dataclasses.replace(spec, seeds=[seed]), value)]
        key = [(r.seed, r.sweep_value, r.method) for r in whole]
        assert key == [(r.seed, r.sweep_value, r.method) for r in points]
        assert key[:3] == [(0, 0.2, "selfish"), (0, 0.2, "noncoop"), (0, 0.2, "coop")]
        assert format_csv(whole) == format_csv(points)
        assert hashlib.sha256(format_csv(whole).encode()).hexdigest() == (
            "ed353ee53abc1eda9471400d86f9b5d0a5c5db7c965647ca1e332168e33ec672")

    @pytest.mark.parametrize("grid,values,message", [
        ([0.5], (0.7,), r"sweep value 0.7 is not on the 'p' grid \[0.5\]"),
        ([0.5], (0.5, 0.7), r"sweep value 0.7 is not on the 'p' grid \[0.5\]"),
        ([0.5], (None,), r"sweep value None is not on the 'p' grid \[0.5\]"),
        # It would run p = 0.30000000000000004 under the label 0.3.
        ([0.3], (0.1 + 0.2,), r"sweep value 0.30000000000000004 is not on the 'p' grid \[0.3\]"),
        # Its rows would print twice.
        ([0.3, 0.5], (0.5, 0.5), "sweep value 0.5 is repeated"),
    ], ids=["off-grid", "after-a-grid-value", "none", "unequal-sum", "repeated"])
    def test_value_off_the_grid_refused_before_any_design(self, monkeypatch, grid, values,
                                                          message):
        solved = []
        real = harness._solve_method
        monkeypatch.setattr(harness, "_solve_method",
                            lambda method, *args: solved.append(method) or real(method, *args))
        spec = ExperimentSpec(cfg=scenario1(), methods=["selfish"], seeds=[0, 1],
                              sweep_var="p", sweep_values=grid)
        with pytest.raises(SpecError, match=f"^{message}$"):
            run_compare(spec, *values)
        assert solved == []

    def test_selfish_eip_nondecreasing_in_capacity(self):
        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["selfish"], seeds=[0],
                              sweep_var="C", sweep_values=[6.0, 10.0, 14.0])
        rows = sorted(run_compare(spec), key=lambda r: r.sweep_value)
        eips = [r.eip for r in rows]
        assert eips[0] <= eips[1] <= eips[2]


class TestCsv:
    def test_header_only_for_empty_table(self):
        assert format_csv([]) == CSV_HEADER + "\n"

    def test_one_row_round_trip(self):
        row = ResultRow("selfish", "p", 0.5, 3, eip=1.25, tip=2.5, capacity=12.0,
                        power=32.0)
        text = format_csv([row])
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "selfish"
        assert float(fields[4]) == 1.25
        assert fields[8] == "nan"

    def test_rows_sorted(self):
        rows = [
            ResultRow("b", "p", 0.5, 1),
            ResultRow("a", "p", 0.5, 0),
            ResultRow("a", "p", 0.2, 0),
        ]
        lines = format_csv(rows).strip().split("\n")[1:]
        keys = [tuple(l.split(",")[:4]) for l in lines]
        assert keys == [("a", "p", "0.2", "0"), ("a", "p", "0.5", "0"),
                        ("b", "p", "0.5", "1")]

    def test_wall_time_zeroed_by_default(self):
        row = ResultRow("selfish", "none", 0.0, 0, wall_ms=123.4)
        assert format_csv([row]).strip().split("\n")[1].endswith(",0")
        assert format_csv([row], timing=True).strip().split("\n")[1].endswith("123.4")

    def test_write_csv_byte_identical(self, tmp_path):
        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["selfish", "noncoop"],
                              seeds=[0, 1])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_compare(spec), p1)
        write_csv(run_compare(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_failure_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            write_csv([], tmp_path / "no" / "such" / "dir.csv")


class TestCli:
    def test_compare_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = cli_main(["compare", "--methods", "selfish", "--seeds", "1",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_compare_stdout(self, capsys):
        code = cli_main(["compare", "--methods", "selfish"])
        assert code == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_out_file_bytes_equal_stdout(self, tmp_path, capsysbinary):
        argv = ["compare", "--methods", "selfish,noncoop", "--sweep", "p=0.5:1.0:0.5",
                "--seeds", "2"]
        out = tmp_path / "out.csv"
        assert cli_main(argv + ["--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert cli_main(argv) == 0
        assert out.read_bytes() == capsysbinary.readouterr().out

    def test_sweep_grid(self, tmp_path):
        out = tmp_path / "out.csv"
        for grid, labels in [
            ("C=6:10:2", ["6", "8", "10"]),
            # A fixed end slack of 1e-12 ran rho2 one step past its stop, and
            # rounding to 12 decimals made the sigma1_2 points 0 and 1e-12.
            ("rho2=1e-12:5e-12:1e-12", ["1e-12", "2e-12", "3e-12", "4e-12", "5e-12"]),
            ("sigma1_2=1e-13:3e-13:1e-13", ["1e-13", "2e-13", "3e-13"]),
        ]:
            code = cli_main(["compare", "--methods", "selfish", "--sweep", grid,
                             "--out", str(out)])
            assert code == 0
            lines = out.read_text().strip().split("\n")
            assert [line.split(",")[2] for line in lines[1:]] == labels

    def test_bad_sweep_spec(self, capsys):
        assert cli_main(["compare", "--methods", "selfish", "--sweep", "C=6:10"]) == 1

    @pytest.mark.parametrize("grid", ["p=0.5:inf:0.5", "p=-inf:1:0.5", "p=nan:1:0.5",
                                      "p=0.2:nan:0.5", "p=0.2:1:inf", "p=0.2:1:nan"])
    def test_non_finite_sweep_bounds_rejected(self, capsys, grid):
        # An infinite stop or start would grow the grid without bound.
        assert cli_main(["compare", "--methods", "selfish", "--sweep", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad sweep spec {grid!r}; bounds must be finite numbers\n"

    @pytest.mark.parametrize("grid,at", [("C=1e17:2e17:1", "1e+17"),
                                         ("p=0.5:1:1e-17", "0.5"),
                                         ("p=9007199254740990:9007199254740999:1",
                                          "9007199254740992.0")])
    def test_sweep_step_that_does_not_advance_rejected(self, capsys, grid, at):
        """Where v + step == v, the grid would repeat v until memory ran out;
        the last grid starts to advance and stalls at 2^53."""
        step = grid.rsplit(":", 1)[1]
        with pytest.raises(SpecError) as exc:
            cli._parse_sweep(grid)
        message = (f"bad sweep spec {grid!r}; step {float(step)!r} does not advance "
                   f"the grid at {at}")
        assert str(exc.value) == message
        assert cli_main(["compare", "--methods", "selfish", "--sweep", grid]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("grid", ["p=0.2:1:0", "p=0.2:1:-0.2", "p=0.2:1:-0"])
    def test_non_positive_sweep_step_rejected(self, capsys, grid):
        assert cli_main(["compare", "--methods", "selfish", "--sweep", grid]) == 1
        assert capsys.readouterr().err == "error: sweep step must be positive\n"

    @pytest.mark.parametrize("command", [["compare"], ["compare", "--mc-trials", "1"]])
    def test_repeated_method_exit_code(self, monkeypatch, capsys, command):
        ran = []
        monkeypatch.setattr(cli, "run_compare", lambda spec: ran.append(spec) or [])
        assert cli_main(command + ["--methods", "selfish,noncoop,selfish"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not ran
        assert captured.err == "error: method 'selfish' is repeated\n"

    @pytest.mark.parametrize("config,grid,seeds,orders", [
        # Where cycle cancelling from the identity stops settles this sweep's
        # tied and near-tied assignments; nothing else pins that choice.
        ("scheme = SchemeII", "p=0.2:1.0:0.2", 20, ["noncoop,full,joint"] * 2),
        # No benchmark workload reaches the 256 x 256 assignments of L = 256.
        ("L = 256\nM_tR = 16\nM_rR = 32\nM_tC = 4\nM_rC = 4", "p=0.3:0.7:0.2", 2,
         ["noncoop,coop,joint"] * 2),
        # The budget binds, and seed 0's noncoop and coop designs grow the
        # power multiplier's bracket above 1 (the default budget is slack in
        # nearly every design); the methods in another order, selfish last.
        ("P_t = 2.2", "p=0.2:1.0:0.2", 2,
         ["selfish,noncoop,coop", "selfish,noncoop,coop", "noncoop,coop,selfish"]),
    ], ids=["scheme2-joint", "joint-L256", "tight-budget"])
    def test_every_run_prints_the_same_bytes(self, tmp_path, monkeypatch, capsysbinary,
                                             config, grid, seeds, orders):
        """Each run starts from an empty scenario memo, with no draws or
        designs kept, as a second process would, and prints what the first
        run printed."""
        path = tmp_path / "cfg.txt"
        path.write_text(config + "\n")
        printed = []
        for methods in orders:
            monkeypatch.setattr(scenario, "_memo", None)
            assert cli_main(["compare", "--methods", methods, "--sweep", grid,
                             "--seeds", str(seeds), "--config", str(path)]) == 0
            printed.append(capsysbinary.readouterr().out)
        assert printed == [printed[0]] * len(orders)

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(format_config(scenario1(L=8, M_tC=2, M_rC=2, C=4.0)))
        code = cli_main(["compare", "--methods", "selfish", "--config", str(path)])
        assert code == 0

    def test_config_seed_is_the_base_seed(self, tmp_path, capsys):
        """Without --seed, the config file's seed is the base seed, for the
        design commands and mask-gap alike; an explicit --seed overrides it."""
        seeded, plain = tmp_path / "seeded.txt", tmp_path / "plain.txt"
        seeded.write_text("p = 0.5\nseed = 5\n")
        plain.write_text("p = 0.5\n")

        def run(*argv):
            assert cli_main(list(argv)) == 0
            return capsys.readouterr().out

        for command in (["compare", "--methods", "noncoop", "--seeds", "2"], ["mask-gap"]):
            from_config = run(*command, "--config", str(seeded))
            assert from_config == run(*command, "--config", str(plain), "--seed", "5")
            assert from_config != run(*command, "--config", str(plain))
            overridden = run(*command, "--config", str(seeded), "--seed", "0")
            assert overridden == run(*command, "--config", str(plain))
        rows = run("compare", "--methods", "noncoop", "--seeds", "2",
                   "--config", str(seeded)).splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["5", "6"]

    def test_mask_gap(self, tmp_path, capsys):
        assert cli_main(["mask-gap", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sigma1=" in out and "gap=" in out
        # The gap of make_scenario's mask, so the (config, seed) -> mask rule
        # lives in one place.
        path = tmp_path / "cfg.txt"
        # At p = 0.15 the mask comes from the covering fallback.
        for cfg in (scenario1(), scenario1(p=0.5), scenario1(p=0.15)):
            path.write_text(format_config(cfg))
            assert cli_main(["mask-gap", "--seed", "3", "--config", str(path)]) == 0
            s1, s2, gap = spectral_gap(make_scenario(cfg.replace(seed=3)).omega)
            assert capsys.readouterr().out == f"sigma1={s1:.9g} sigma2={s2:.9g} gap={gap:.9g}\n"
        # A mask too sparse to cover still has a gap: two ones in distinct
        # rows and columns.
        path.write_text("p = 0.01\n")
        assert cli_main(["mask-gap", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "sigma1=1 sigma2=1 gap=0\n"
        # Singular comm noise: the scenario, not only its mask, must be
        # valid. A mask with no ones has no gap.
        for text, message in (("sigma_C2 = 0.0", "noise covariance is not positive definite"),
                              ("p = 0.001", "spectral gap of the all-zero mask is undefined")):
            path.write_text(text + "\n")
            assert cli_main(["mask-gap", "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,config", [
        (["compare"], b"C = abc"),
        (["compare"], b"scheme = Foo"),
        (["compare"], b"targets = 30"),
        (["mask-gap"], b"L = 3.5"),
        (["compare", "--mc-trials", "10"], b"p = 0.5\xff"),  # not UTF-8
        (["compare", "--sweep", "p=a:b:c"], None),
        (["compare", "--config", "missing.txt"], None),
        (["compare", "--out", "no/such/dir/out.csv"], None),
    ])
    def test_malformed_input_reported(self, tmp_path, monkeypatch, capsys, argv, config):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "bad.txt").write_bytes(config + b"\n")
            argv = argv + ["--config", "bad.txt"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if config is not None:
            assert err.startswith(f"error: line 1: {config.split()[0].decode()}: ")

    @pytest.mark.parametrize("argv,config,message", [
        (["compare"], "P_t = nan", "P_t must be finite, got nan"),
        (["compare"], "sigma_C2 = nan", "sigma_C2 must be finite, got nan"),
        (["compare"], "snr_dB = nan", "snr_dB must be finite, got nan"),
        (["compare", "--mc-trials", "1"], "targets = 30:nan", "targets must be finite"),
        (["compare", "--sweep", "targets=1:3:0.5"], "", "target count must be an integer >= 1"),
        (["compare", "--sweep", "C=12:12.000000001:0.0000000005"], "",
         "sweep values 12.0 and 12.0000000005 both print as 12"),
        (["compare", "--seed", "-1"], "", "seed must be >= 0"),
        (["compare", "--mc-trials", "2"], "gamma2_dB = 7000", "gamma2_dB out of range: "),
        # Configs no seed can run: refused at load, before any row.
        (["compare"], "L = 2", "L must be >= M_tR for orthonormal waveform rows"),
        (["compare"], "targets = 95.0:(0.2+0.1j)", "target angles must be real numbers in "),
    ])
    def test_invalid_value_reported(self, tmp_path, capsys, argv, config, message):
        path = tmp_path / "cfg.txt"
        path.write_text(config + "\n")
        assert cli_main(argv + ["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["compare", "--seed", "abc"],
        ["compare", "--bogus"],
        ["compare", "--sweep"],  # no sweep spec
        [],
    ])
    def test_usage_error_exit_code(self, capsys, argv):
        # Exit 1 like any invalid option; 2 means every result row failed.
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli_main(argv[:1] + ["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["sweep", "--methods", "selfish", "--sweep", "p=0.5:1.0:0.5"],
        ["mc-eval"],
        ["mc-eval", "--methods", "selfish", "--mc-trials", "2"],
    ])
    def test_removed_commands_are_usage_errors(self, capsys, argv):
        """compare is the one run command: it takes --sweep and --mc-trials,
        which sweep and mc-eval added to it."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument command: invalid choice: {argv[0]!r}" in captured.err

    def test_failed_rows_reported(self, tmp_path, capsys):
        # Every row fails with the same error: it is printed once, and the
        # CSV is what the harness formats for those rows.
        path = tmp_path / "cfg.txt"
        path.write_text(format_config(scenario1(targets=[(30.0, 0j)])))
        argv = ["compare", "--mc-trials", "1", "--methods", "selfish,noncoop",
                "--config", str(path)]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "error: relative error undefined for zero truth\n"
        spec = ExperimentSpec(cfg=scenario1(targets=[(30.0, 0j)]),
                              methods=["selfish", "noncoop"], mc_trials=1)
        assert out == format_csv(run_compare(spec))
        # Some rows fail: each reason is printed all the same; the exit code is 0.
        assert cli_main(["compare", "--methods", "selfish", "--sweep", "C=6:96:90"]) == 0
        out, err = capsys.readouterr()
        assert err == "error: capacity target 96.0 unreachable within power budget 32.0\n"
        assert out.splitlines()[2].startswith("selfish,C,96,0,nan,")

    @pytest.mark.parametrize("config,code,message", [
        ("gamma2_dB = 6000", 2, "error: radar signal power is not finite\n"),
        ("snr_dB = -3230", 2, "error: radar noise variance is not finite\n"),
        # sigma_R2 is finite, the observation's squared norm is not.
        ("snr_dB = -3080", 2, "error: observation's squared norm is not finite\n"),
        ("snr_dB = -3000", 0, ""),  # finite: a recovery error near 1e150
    ], ids=["gamma2_dB-6000", "snr_dB-3230", "snr_dB-3080", "snr_dB-3000-finite"])
    def test_radar_overflow_reported(self, tmp_path, capsys, config, code, message):
        """Radar data that overflows fails the row with a ScenarioError or a
        MetricError, not a RuntimeWarning (an error in this suite); the
        design columns print."""
        path = tmp_path / "cfg.txt"
        path.write_text(config + "\n")
        assert cli_main(["compare", "--mc-trials", "2", "--methods", "selfish",
                         "--config", str(path)]) == code
        out, err = capsys.readouterr()
        assert err == message
        row = out.splitlines()[1].split(",")
        assert row[4] != "nan" and (row[8] == "nan") == (code == 2)

    def test_unknown_method_exit_code(self, capsys):
        assert cli_main(["compare", "--methods", "bogus"]) == 1

    def test_symbol_rate_keys_exit_code(self, tmp_path, capsys):
        # Config files saved while ScenarioConfig had the rate fields.
        path = tmp_path / "cfg.txt"
        path.write_text(format_config(scenario1()) + "radar_rate = 1.0\ncomm_rate = 1.0\n")
        assert cli_main(["compare", "--methods", "selfish", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 19: unknown key 'radar_rate'\n"

    def test_sigma_R2_key_exit_code(self, tmp_path, capsys):
        # Config files saved while ScenarioConfig had a sigma_R2 field, which
        # overrode snr_dB: snr_dB alone sets the radar noise now.
        path = tmp_path / "cfg.txt"
        path.write_text("sigma_R2 = 0.1\n")
        assert cli_main(["compare", "--methods", "selfish", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: unknown key 'sigma_R2'\n"

    def test_none_sweep_exit_code(self, capsys):
        assert cli_main(["compare", "--methods", "selfish", "--sweep", "none=0:0:1"]) == 1
        assert capsys.readouterr().err == "error: sweep 'none' takes one value, None, got [0.0]\n"

    def test_mc_trials_counts(self, monkeypatch, capsys):
        """compare runs no recovery trials by default, any count >= 0 given,
        and rejects a negative count."""
        assert cli_main(["compare", "--methods", "selfish", "--mc-trials", "-2"]) == 1
        assert capsys.readouterr().err == "error: mc_trials must be nonnegative\n"
        seen = []
        monkeypatch.setattr(cli, "run_compare", lambda spec: seen.append(spec.mc_trials) or [])
        assert cli_main(["compare", "--methods", "selfish", "--mc-trials", "3"]) == 0
        assert cli_main(["compare", "--methods", "selfish", "--mc-trials", "0"]) == 0
        assert cli_main(["compare", "--methods", "selfish"]) == 0
        assert seen == [3, 0, 0]
