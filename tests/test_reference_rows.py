"""The benchmark's stored reference rows, and the work their passes take,
checked by the test suite.

Every stored seed of the sweep-p and joint-long workloads, and two seeds of
mc-recovery, run through harness.run_compare job by job as perfbench/run.py
runs them, and must pass perfbench/gate.py's own reference and
post-condition checks. One seed per workload runs twice and must render
byte-identical CSV through harness.format_csv.

COUNTS is the one table of call counts in the suite: the dual steps, dual
searches, assignments and joint-design iterations that passes of the
workloads take, exactly.
"""

import collections
import dataclasses
import functools
import importlib.util
import os
import sys

import pytest

from specshare import completion, covdesign, harness, samplingopt

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    """The benchmark module perfbench/<name>.py, imported by its path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")

# Seeds checked per workload: all 64 stored ones where a pass is cheap, two
# where its completion trials make it cost seconds. The first runs twice.
SEEDS = {"sweep-p": range(64), "joint-long": range(64), "mc-recovery": range(2)}


def run_pass(wl, seed) -> dict:
    """Rows by template label of one pass of the workload over one seed."""
    rows = {label: [] for label, _ in wl.templates}
    for label, spec, value in wl.jobs(seed):
        rows[label].extend(harness.run_compare(spec, value))
    return rows


def csv_text(rows) -> str:
    return "".join(f"# {label}\n{harness.format_csv(rs)}" for label, rs in rows.items())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_stored_reference_rows(name):
    wl = workloads.build(name)
    reference = gate.load_reference(os.path.join(PERFBENCH, "reference", f"{name}.csv"))
    cfgs = {label: spec.cfg for label, spec in wl.templates}
    compared, problems, texts = 0, [], []
    for seed in SEEDS[name]:
        rows = run_pass(wl, seed)
        texts.append(csv_text(rows))
        for label, rs in rows.items():
            count, found = gate.check_reference(label, rs, reference, require=True)
            compared += count
            problems += found + gate.check_postconditions(label, rs, cfgs[label])
    assert not problems
    assert compared == sum(key[3] in SEEDS[name] for key in reference) > 0
    assert csv_text(run_pass(wl, SEEDS[name][0])) == texts[0]


# Calls per run: one pass of the workload for each of seeds 13-18, each on
# draws of its own seed, or, in the last row, `specshare compare --sweep` of
# the sweep-p templates over seeds 0-1, whose Scheme II template solves
# each seed's noncoop design again: seed 1's draws came in between.
# Each entry is exact: a change that moves a count edits its row here.
COUNT_SEEDS = range(13, 19)
DEFAULT_SWEEP = "default-p-sweep"
COUNTS = {
    "sweep-p": {"step": [22, 17, 18, 26, 30, 52], "_dual_search": [11] * 6},
    "joint-long": {"step": [2] * 6, "_dual_search": [2] * 6,
                   "hungarian": [6, 5, 6, 6, 4, 8], "outer_iterations": [2] * 6},
    "mc-recovery": {"step": [2] * 6, "_dual_search": [2] * 6},
    DEFAULT_SWEEP: {"step": [95], "_dual_search": [24]},
}


def counted_runs(name):
    """The runs of the table row, one callable each."""
    if name == DEFAULT_SWEEP:
        specs = [dataclasses.replace(spec, seeds=[0, 1])
                 for _, spec in workloads.build("sweep-p").templates]
        return [lambda: [harness.run_compare(spec) for spec in specs]]
    wl = workloads.build(name)
    return [functools.partial(run_pass, wl, seed) for seed in COUNT_SEEDS]


def counting(counts, name, real, count=lambda result: 1):
    """real, adding count(result) to counts[name] at each call."""
    def wrapper(*args):
        result = real(*args)
        counts[name] += count(result)
        return result

    return wrapper


@pytest.mark.parametrize("name", COUNTS)
def test_call_counts(name, monkeypatch, dual_steps):
    # The counted layers run before the recovery trials, which are skipped.
    monkeypatch.setattr(completion, "_complete_trials",
                        lambda observations, *args: [completion.RecoveryReport(0.0, 0, True)]
                        * len(observations))
    counts = collections.Counter()
    for module, layer in ((covdesign, "_dual_search"), (samplingopt, "hungarian")):
        monkeypatch.setattr(module, layer, counting(counts, layer, getattr(module, layer)))
    monkeypatch.setattr(harness, "joint_design", counting(
        counts, "outer_iterations", harness.joint_design, lambda result: result.outer_iterations))
    runs = []
    for run in counted_runs(name):
        counts.clear()
        dual_steps.clear()
        run()
        runs.append(dict(counts, step=len(dual_steps)))
    assert {key: [run.get(key, 0) for run in runs] for key in COUNTS[name]} == COUNTS[name]
