"""Experiment harness: validation, sweeps, CSV determinism and the CLI."""

import numpy as np
import pytest

from specshare.cli import main as cli_main
from specshare.config import ScenarioConfig, Scheme, save_config
from specshare.harness import (
    CSV_HEADER,
    ExperimentSpec,
    ResultRow,
    SpecError,
    apply_sweep,
    format_csv,
    run_compare,
    sweep,
    write_csv,
)


def scenario1(**kw):
    return ScenarioConfig(**kw)


class TestExperimentSpec:
    def test_defaults_validate(self):
        ExperimentSpec(cfg=scenario1()).validate()

    def test_empty_methods_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=scenario1(), methods=[]).validate()

    def test_unknown_method_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=scenario1(), methods=["greedy"]).validate()

    def test_coop_requires_scheme1(self):
        cfg = scenario1(scheme=Scheme.SCHEME_II)
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=cfg, methods=["coop"]).validate()

    def test_full_requires_scheme2(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=scenario1(), methods=["full"]).validate()

    def test_unknown_sweep_var_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=scenario1(), sweep_var="q").validate()

    def test_negative_mc_trials_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cfg=scenario1(), mc_trials=-1).validate()

    @pytest.mark.parametrize("radar_rate,comm_rate", [(2.0, 1.0), (1.0, 2.0)])
    def test_unequal_symbol_rates_rejected(self, radar_rate, comm_rate):
        cfg = scenario1(radar_rate=radar_rate, comm_rate=comm_rate)
        with pytest.raises(SpecError, match="radar_rate"):
            ExperimentSpec(cfg=cfg).validate()
        with pytest.raises(SpecError):
            run_compare(ExperimentSpec(cfg=cfg))


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
        import specshare.harness as harness
        from specshare.covdesign import solve_weighted_eip

        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["noncoop"], seeds=[0])
        monkeypatch.setattr(harness, "solve_weighted_eip",
                            lambda *a: solve_weighted_eip(*a, max_iterations=5))
        row = run_compare(spec)[0]
        assert "not converged after 5 evaluations" in row.error
        assert np.isfinite(row.eip) and np.isfinite(row.power)

    def test_mc_columns_filled(self):
        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["selfish"], seeds=[0],
                              mc_trials=2)
        row = run_compare(spec)[0]
        assert np.isfinite(row.mc_mean_err)
        assert np.isfinite(row.mc_std_err)


class TestSweep:
    def test_single_point_equals_run_compare(self):
        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["noncoop"], seeds=[0],
                              sweep_var="p", sweep_values=[0.5])
        a = sweep(spec)[0]
        b = run_compare(
            ExperimentSpec(cfg=scenario1(p=0.5), methods=["noncoop"], seeds=[0]),
        )[0]
        assert a.eip == b.eip and a.capacity == b.capacity

    def test_coop_eip_nonincreasing_as_p_decreases(self):
        spec = ExperimentSpec(cfg=scenario1(), methods=["coop"], seeds=[0],
                              sweep_var="p", sweep_values=[0.2, 0.6, 1.0])
        rows = sorted(sweep(spec), key=lambda r: r.sweep_value)
        eips = [r.eip for r in rows]
        assert eips[0] <= eips[1] + 1e-9 <= eips[2] + 2e-9

    def test_selfish_eip_nondecreasing_in_capacity(self):
        spec = ExperimentSpec(cfg=scenario1(p=0.5), methods=["selfish"], seeds=[0],
                              sweep_var="C", sweep_values=[6.0, 10.0, 14.0])
        rows = sorted(sweep(spec), key=lambda r: r.sweep_value)
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

    def test_sweep_grid(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli_main(["sweep", "--methods", "selfish", "--sweep",
                         "C=6:10:2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + C in {6, 8, 10}

    def test_bad_sweep_spec(self, capsys):
        assert cli_main(["sweep", "--methods", "selfish", "--sweep", "C=6:10"]) == 1

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        save_config(scenario1(L=8, M_tC=2, M_rC=2, C=4.0), path)
        code = cli_main(["compare", "--methods", "selfish", "--config", str(path)])
        assert code == 0

    def test_mask_gap(self, capsys):
        assert cli_main(["mask-gap", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sigma1=" in out and "gap=" in out

    def test_unknown_method_exit_code(self, capsys):
        assert cli_main(["compare", "--methods", "bogus"]) == 1

    def test_unequal_rates_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        save_config(scenario1(radar_rate=2.0), path)
        assert cli_main(["compare", "--methods", "selfish", "--config", str(path)]) == 1
        assert "radar_rate" in capsys.readouterr().err

    def test_mc_eval_defaults_trials(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = cli_main(["mc-eval", "--methods", "selfish", "--out", str(out)])
        assert code == 0
        line = out.read_text().strip().split("\n")[1]
        assert line.split(",")[8] != "nan"
