"""The benchmark's stored reference rows, checked by the test suite.

Every stored seed of the sweep-p and joint-long workloads, and two seeds of
mc-recovery, run through harness.run_compare job by job as perfbench/run.py
runs them, and must pass perfbench/gate.py's own reference and
post-condition checks. One seed per workload runs twice and must render
byte-identical CSV through harness.format_csv.
"""

import importlib.util
import os
import sys

import pytest

from specshare import completion, harness

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
def test_stored_reference_rows(name, monkeypatch):
    # The recovery trials complete in this process. Their reports are the
    # same on any number of CPUs, and fork workers beside a multi-threaded
    # BLAS made a pass take 7 to 53 s instead of 3 s on two CPUs.
    monkeypatch.setattr(completion, "_cpu_share", lambda trials: 1)
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
