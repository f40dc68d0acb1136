"""Span tracer installed from outside the package under test.

``Tracer.install`` wraps every public function of the layer modules in every
``specshare`` module namespace that holds it (``harness`` and ``samplingopt``
both import ``solve_weighted_eip``; the package ``__init__`` re-exports most
names), so calls are seen whichever name they go through. ``uninstall`` puts
the originals back. Spans live in memory: id, parent id, job id, name, start,
end, and the counts a probe reads from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "specshare"
LAYERS = ("harness", "scenario", "interference", "covdesign", "samplingopt", "completion")
_MARK = "_perfbench_original"


def _svd_flops(m: int, n: int) -> int:
    """Golub-Reinsch thin SVD (Sigma, U1, V) of an m x n matrix: 14 l k^2 + 8 k^3."""
    k, l = min(m, n), max(m, n)
    return 14 * l * k * k + 8 * k ** 3


def _probe_solve(args, kwargs, sol):
    return {"dual_evals": sol.iterations, "unconverged": int(not sol.converged)}


def _probe_joint(args, kwargs, result):
    return {"outer_iterations": result.outer_iterations}


def _probe_hungarian(args, kwargs, result):
    cost = args[0] if args else kwargs["cost"]
    n = max(np.shape(cost))
    moved = bool(np.any(result.permutation != np.arange(result.permutation.size)))
    return {"n": n, "ops_computed": n ** 3, "moved": int(moved)}


def _probe_complete(args, kwargs, result):
    observed = args[0] if args else kwargs["observed"]
    _, iterations, converged = result
    return {"iterations": iterations, "converged": int(converged),
            "svd_flops_computed": iterations * _svd_flops(*np.shape(observed))}


PROBES = {
    "covdesign.solve_weighted_eip": _probe_solve,
    "samplingopt.joint_design": _probe_joint,
    "samplingopt.hungarian": _probe_hungarian,
    "completion.complete": _probe_complete,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_wrappers() -> list:
    """Names in the package's namespaces that currently hold a tracer wrapper."""
    return [f"{m.__name__}.{attr}" for m in _package_modules()
            for attr, obj in vars(m).items() if hasattr(obj, _MARK)]


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, job, name, start, end, counts]
        self.job = None
        self._stack = []
        self._patches = []

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, fn, name):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.job, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span[6] = probe(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[5] - s[4] - child[s[0]] for s in self.spans]

    def records(self) -> list:
        keys = ("id", "parent", "job", "name", "start", "end", "counts")
        return [dict(zip(keys, s)) for s in self.spans]


_S, _N = "s", "count"
# (name, unit, better): the per-layer metrics a --trace 1 run reports. Counts
# and times are totals over the run's traced passes (trace.passes of them).
PER_LAYER = tuple(
    [(f"{layer}.self_s", _S, "lower") for layer in LAYERS]
    + [
        ("covdesign.solve_weighted_eip.calls", _N, "lower"),
        ("covdesign.solve_weighted_eip.self_s", _S, "lower"),
        ("covdesign.solve_weighted_eip.dual_evals", _N, "lower"),
        ("covdesign.solve_weighted_eip.unconverged", _N, "lower"),
        ("covdesign.solve_weighted_eip.s_per_dual_eval", _S, "lower"),
        ("covdesign.min_capacity_multiplier.self_s", _S, "lower"),
        ("covdesign.max_average_capacity.self_s", _S, "lower"),
        ("covdesign.solve_selfish.calls", _N, "lower"),
        ("covdesign.solve_selfish.self_s", _S, "lower"),
        ("samplingopt.joint_design.calls", _N, "lower"),
        ("samplingopt.joint_design.self_s", _S, "lower"),
        ("samplingopt.joint_design.outer_iterations", _N, "lower"),
        ("samplingopt.optimize_mask.calls", _N, "lower"),
        ("samplingopt.optimize_mask.self_s", _S, "lower"),
        ("samplingopt.hungarian.calls", _N, "lower"),
        ("samplingopt.hungarian.self_s", _S, "lower"),
        ("samplingopt.hungarian.n128.self_s", _S, "lower"),
        ("samplingopt.hungarian.n32.self_s", _S, "lower"),
        ("samplingopt.hungarian.ops_computed", "ops", "lower"),
        ("samplingopt.hungarian.moved_ratio", "ratio", "higher"),
        ("completion.radar_pipeline.calls", _N, "lower"),
        ("completion.radar_pipeline.self_s", _S, "lower"),
        ("completion.complete.calls", _N, "lower"),
        ("completion.complete.self_s", _S, "lower"),
        ("completion.complete.iterations", _N, "lower"),
        ("completion.complete.converged_ratio", "ratio", "higher"),
        ("completion.complete.svd_flops_computed", "flop", "lower"),
        ("completion.recovery_err", "ratio", "lower"),
        ("scenario.make_scenario.calls", _N, "lower"),
        ("scenario.make_scenario.self_s", _S, "lower"),
        ("interference.noise_covariances.self_s", _S, "lower"),
        ("interference.weight_schedule.self_s", _S, "lower"),
        ("interference.metrics.self_s", _S, "lower"),
        ("interference.average_capacity.self_s", _S, "lower"),
        ("harness.run_compare.self_s", _S, "lower"),
        ("harness.format_csv.self_s", _S, "lower"),
        ("warnings.runtime", _N, "lower"),
        ("trace.passes", _N, "higher"),
        ("trace.wall_s", _S, "lower"),
        ("trace.overhead_s", _S, "lower"),
    ]
)

# Reported by the run itself, not derived from spans.
RUN_LEVEL = ("completion.recovery_err", "warnings.runtime", "trace.passes", "trace.wall_s",
             "trace.overhead_s")
# Interference functions other than these are the EIP/TIP metric evaluations.
_INTERFERENCE_OWN = ("noise_covariances", "weight_schedule", "average_capacity")


def layer_metrics(tracer: Tracer) -> dict:
    """Every PER_LAYER metric outside RUN_LEVEL, summed over the recorded spans.

    A metric ``<function>.<key>`` is the function's call count (``calls``),
    summed self time (``self_s``), a per-call share of a probe flag
    (``<flag>_ratio``) or a summed probe count; ``<layer>.self_s`` sums a
    whole module, and a probe's ``n`` splits self time by input size.
    """
    calls, totals = {}, {}
    for span, t in zip(tracer.spans, tracer.self_times()):
        name, counts = span[3], span[6] or {}
        calls[name] = calls.get(name, 0) + 1
        items = [((name, "self_s"), t)] + [((name, k), v) for k, v in counts.items()]
        if "n" in counts:
            items.append(((f"{name}.n{counts['n']}", "self_s"), t))
        for key, v in items:
            totals[key] = totals.get(key, 0) + v

    def total(head, key):
        return totals.get((head, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in RUN_LEVEL:
            continue
        if metric.endswith(".self_s"):
            head, key = metric.removesuffix(".self_s"), "self_s"
        else:
            head, _, key = metric.rpartition(".")
        if head in LAYERS:
            out[metric] = sum(v for (n, k), v in totals.items()
                              if k == "self_s" and n.split(".")[0] == head and n.count(".") == 1)
        elif head == "interference.metrics":
            out[metric] = sum(v for (n, k), v in totals.items() if k == "self_s"
                              and n.startswith("interference.")
                              and n.split(".")[1] not in _INTERFERENCE_OWN)
        elif key == "calls":
            out[metric] = calls.get(head, 0)
        elif key == "s_per_dual_eval":
            out[metric] = ratio(total(head, "self_s"), total(head, "dual_evals"))
        elif key.endswith("_ratio"):
            out[metric] = ratio(total(head, key.removesuffix("_ratio")), calls.get(head, 0))
        else:
            out[metric] = total(head, key)
    return out
