"""Correctness gate: stored reference rows and post-conditions checked from outside.

A reference file holds one line per result row, keyed by template label,
method, sweep value and seed. Values are compared to 6 significant digits,
with an absolute floor for values that are numerically zero (the Scheme I
``coop`` EIP collapses to ~1e-18 at p = 0.2).
"""

from __future__ import annotations

import csv
import math

VALUE_FIELDS = ("eip", "tip", "capacity", "power", "mc_mean_err", "mc_std_err")
REFERENCE_HEADER = ("label", "method", "sweep_value", "seed") + VALUE_FIELDS + ("error",)

RTOL = 1e-6
ATOL = 1e-12

# Post-condition slack: relative to C and P_t. The water-level solve nudges
# lambda2 up by 4e-12 relative, and the dual bisection stops 1e-9 wide.
CAPACITY_SLACK = 1e-9
POWER_SLACK = 1e-9


def row_key(label: str, row) -> tuple:
    return (label, row.method, f"{float(row.sweep_value):.9g}", int(row.seed))


def reference_line(label: str, row) -> list:
    return [label, row.method, f"{float(row.sweep_value):.9g}", str(int(row.seed))] + [
        f"{getattr(row, f):.9g}" for f in VALUE_FIELDS
    ] + [row.error]


def load_reference(path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != REFERENCE_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        out = {}
        for line in reader:
            label, method, value, seed = line[:4]
            key = (label, method, value, int(seed))
            if key in out:
                raise ValueError(f"{path}: duplicate reference row {key}")
            values = dict(zip(VALUE_FIELDS, (float(x) for x in line[4:10])))
            values["error"] = line[10]
            out[key] = values
    return out


def _close(got: float, want: float) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= RTOL * abs(want) + ATOL


def check_reference(label: str, rows, reference: dict, require: bool = False) -> tuple:
    """(rows compared, problems). Rows whose key is not stored are skipped
    unless require is set."""
    problems = []
    compared = 0
    for row in rows:
        key = row_key(label, row)
        want = reference.get(key)
        if want is None:
            if require:
                problems.append(f"{key}: no reference row")
            continue
        compared += 1
        if bool(row.error) != bool(want["error"]):
            problems.append(f"{key}: error {row.error!r} != reference {want['error']!r}")
        for f in VALUE_FIELDS:
            got = float(getattr(row, f))
            if not _close(got, want[f]):
                problems.append(f"{key}: {f} = {got!r}, reference {want[f]!r}")
    return compared, problems


def check_postconditions(label: str, rows, cfg) -> list:
    """Capacity >= C and power <= P_t on every row without an error."""
    problems = []
    for row in rows:
        if row.error:
            continue
        key = row_key(label, row)
        if not row.capacity >= cfg.C * (1.0 - CAPACITY_SLACK):
            problems.append(f"{key}: capacity {row.capacity!r} below C = {cfg.C}")
        if not row.power <= cfg.P_t * (1.0 + POWER_SLACK):
            problems.append(f"{key}: power {row.power!r} above P_t = {cfg.P_t}")
    return problems
