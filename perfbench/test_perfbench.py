"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import envinfo  # noqa: E402

envinfo.import_package()

import gate  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from specshare import harness  # noqa: E402

COUNT_UNITS = ("count", "ops", "flop")


def _traced_warmup(name):
    wl = workloads.build(name)
    label, spec, value = wl.warmup_job()
    tr = tracing.Tracer()
    tr.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = harness.run_compare(spec, value)
    finally:
        tr.uninstall()
    return label, rows, tr


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_exactly(name):
    _, _, first = _traced_warmup(name)
    _, _, second = _traced_warmup(name)
    a, b = tracing.layer_metrics(first), tracing.layer_metrics(second)
    counts = [n for n, unit, _ in tracing.PER_LAYER if unit in COUNT_UNITS and n in a]
    assert counts
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert not tracing.find_wrappers()
    busy = {
        "sweep-p": "covdesign.solve_weighted_eip.dual_evals",
        "joint-long": "samplingopt.hungarian.ops_computed",
        "mc-recovery": "completion.complete.svd_flops_computed",
    }[name]
    assert a[busy] > 0
    if name != "joint-long":
        assert a["samplingopt.hungarian.calls"] == 0


def test_tracer_wraps_every_namespace_and_restores():
    from specshare import covdesign, samplingopt

    original = covdesign.solve_weighted_eip
    tr = tracing.Tracer()
    tr.install()
    try:
        for mod in (covdesign, harness, samplingopt):
            assert mod.solve_weighted_eip is not original
        assert "specshare.samplingopt.solve_weighted_eip" in tracing.find_wrappers()
    finally:
        tr.uninstall()
    assert covdesign.solve_weighted_eip is original
    assert samplingopt.solve_weighted_eip is original
    assert not tracing.find_wrappers()


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.spans[:] = [[0, None, 1, "a", 0.0, 10.0, None], [1, 0, 1, "b", 1.0, 4.0, None],
                   [2, 1, 1, "c", 2.0, 3.0, None], [3, 0, 1, "b", 5.0, 6.0, None]]
    assert tr.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_speed_probe_samples_inside_work_and_disarms():
    probe = speedprobe.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * speedprobe.INTERVAL_S:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    inside = [(a, b) for a, b in probe.samples if a >= t0 and b <= t1]
    assert len(inside) >= 2
    assert probe.busy(t0, t1) == pytest.approx(sum(b - a for a, b in inside))
    assert probe.busy(t1, t1 + 1.0) == 0.0

    first = len(probe.samples)
    factor = probe.factor(first, at_least=3)
    durations = [b - a for a, b in probe.samples[first:]]
    assert len(durations) == 3
    assert factor == pytest.approx(speedprobe.REF_SAMPLE_S * 3 / sum(durations))


def test_gate_accepts_seed_rows_and_fires_on_perturbed_reference():
    label, rows, _ = _traced_warmup("sweep-p")
    reference = gate.load_reference(os.path.join(HERE, "reference", "sweep-p.csv"))
    compared, problems = gate.check_reference(label, rows, reference, require=True)
    assert compared == len(rows) and not problems

    coop = next(r for r in rows if r.method == "coop")
    assert abs(coop.eip) < 1e-15  # the p = 0.2 collapse the absolute floor is for
    key = gate.row_key(label, coop)
    for field, scale, fires in (("tip", 1 + 1e-5, True), ("capacity", 1 + 1e-7, False)):
        perturbed = {k: dict(v) for k, v in reference.items()}
        perturbed[key][field] *= scale
        _, problems = gate.check_reference(label, rows, perturbed)
        assert bool(problems) is fires, (field, problems)
    for shift, fires in ((1e-15, False), (1e-9, True)):
        perturbed = {k: dict(v) for k, v in reference.items()}
        perturbed[key]["eip"] += shift
        _, problems = gate.check_reference(label, rows, perturbed)
        assert bool(problems) is fires, (shift, problems)


def test_postconditions_fire():
    label, rows, _ = _traced_warmup("sweep-p")
    cfg = workloads.build("sweep-p").templates[0][1].cfg
    assert gate.check_postconditions(label, rows, cfg) == []
    bad = [dataclasses.replace(rows[0], power=cfg.P_t * 1.001),
           dataclasses.replace(rows[1], capacity=cfg.C * 0.999)]
    assert len(gate.check_postconditions(label, bad, cfg)) == 2


def _copy_tree(tmp_path, with_src=True):
    root = os.path.dirname(HERE)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    if with_src:
        shutil.copytree(os.path.join(root, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(root, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_run_exits_nonzero_on_perturbed_reference(tmp_path):
    root = _copy_tree(tmp_path)
    path = root / "perfbench" / "reference" / "sweep-p.csv"
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    # Row 1 is scheme1/coop/p=0.2/seed 0, part of the warm-up job.
    assert lines[1][:4] == ["scheme1", "coop", "0.2", "0"]
    lines[1][5] = repr(float(lines[1][5]) * (1 + 1e-4))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)
    out = _run(root, "--workload", "sweep-p", "--seed", "200", "--seconds", "1", "--trace", "0")
    assert out.returncode == 1, out.stderr
    assert "check failed" in out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"] is False


def test_run_fails_without_the_package(tmp_path):
    root = _copy_tree(tmp_path, with_src=False)
    out = _run(root, "--workload", "sweep-p", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
