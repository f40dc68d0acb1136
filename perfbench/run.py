"""Closed-loop batch benchmark of specshare.

One caller drives the public harness API (``run_compare`` per job, then
``format_csv`` per template, as the CLI's ``sweep``/``compare``/``mc-eval``
do); the next job starts only when the previous one has returned.

    python3 perfbench/run.py --workload sweep-p --seed 3 --seconds 22 --trace 0

A run sets up (import, specs, one warm-up job on the reference seed) in this
process, runs a fixed number of timed passes over the seeds --seed,
--seed + 1, ..., and finally repeats the first pass; two child processes
repeat the set-up between passes. Every row is checked against the stored reference
where one exists, and against the capacity and power constraints; the
repeated pass and the children's warm-up output must be byte-identical.

--trace 0 reports the end-to-end metrics. Their times are scaled to the
reference speed of the host by the speed probe (speedprobe.py), which samples
a fixed kernel inside the timed work; the raw wall-clock times are printed
beside them. --trace 1 installs the span tracer for the timed passes (the
repeat pass stays untraced, which gives the tracing overhead), reports the
per-layer metrics in raw seconds, and writes the spans to .perfbench_out/ in
the checkout. The last line of stdout is one JSON object.
A failed check prints the problems to stderr and exits 1; a checkout without
the package exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import envinfo  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("eip_share", "ratio"),
)


def setup(workload: str):
    """Import the package, build the workload and run its warm-up job.

    Returns (seconds, raw seconds, speed probe, workload, warm-up label,
    warm-up rows, warm-up CSV). The probe samples during the warm-up job;
    its own time, and that of building it, is not set-up time."""
    t0 = time.perf_counter()
    envinfo.import_package()
    import workloads
    from specshare import harness

    wl = workloads.build(workload)
    label, spec, value = wl.warmup_job()
    tp = time.perf_counter()
    import speedprobe

    probe = speedprobe.SpeedProbe()
    tw = time.perf_counter()
    with warnings.catch_warnings(), probe:
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = harness.run_compare(spec, value)
        text = harness.format_csv(rows)
    t1 = time.perf_counter()
    raw = t1 - t0 - (tw - tp) - probe.busy(tw, t1)
    return raw * probe.factor(), raw, probe, wl, label, rows, text


def child_setup(workload: str):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
        cwd=envinfo.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed ({out.returncode}): {out.stderr.strip()}")
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["raw_s"], probe["csv"]


def run_pass(wl, seed, tracer, job_ids, probe):
    """Run every job of one pass over one seed.

    With a probe, the probe samples inside the pass; its own time is taken
    out of every interval and the rest is scaled to the reference speed.
    Returns (pass seconds, raw pass seconds, job seconds, rows by label,
    CSV, warnings)."""
    from specshare import harness

    rows_by_label = {label: [] for label, _ in wl.templates}
    spans = []
    first = len(probe.samples) if probe else 0
    with warnings.catch_warnings(record=True) as caught, (probe or contextlib.nullcontext()):
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        for label, spec, value in wl.jobs(seed):
            if tracer is not None:
                tracer.job = next(job_ids)
            tj = time.perf_counter()
            rows_by_label[label].extend(harness.run_compare(spec, value))
            spans.append((tj, time.perf_counter()))
        if tracer is not None:
            tracer.job = None
        text = "".join(f"# {label}\n{harness.format_csv(rows)}" for label, rows in rows_by_label.items())
        t1 = time.perf_counter()
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)

    def work(a, b):
        return b - a - (probe.busy(a, b) if probe else 0.0)

    scale = probe.factor(first) if probe else 1.0
    raw = work(t0, t1)
    return raw * scale, raw, [work(a, b) * scale for a, b in spans], rows_by_label, text, n_warn


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    envinfo.pin_blas_threads()
    try:
        setup_s, setup_raw, probe, wl, wlabel, wrows, wtext = setup(args.workload)
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    except KeyError:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw, "csv": wtext}))
        return 0

    # Imported only now: tracer imports NumPy, whose import set-up times.
    import gate
    import tracer as tracing

    problems = []
    setups, setups_raw = [setup_s], [setup_raw]

    reference = gate.load_reference(os.path.join(HERE, "reference", f"{wl.name}.csv"))
    cfgs = {label: spec.cfg for label, spec in wl.templates}
    _, found = gate.check_reference(wlabel, wrows, reference, require=True)
    problems += found + gate.check_postconditions(wlabel, wrows, cfgs[wlabel])

    n_pass = wl.pass_count(args.seconds)
    plan = [args.seed + i for i in range(n_pass)]
    plan.append(plan[0])  # repeat pass: must reproduce pass 0 byte for byte
    # The child set-ups run between passes, spread over the run, so their
    # median is not taken from one burst of load on a shared machine.
    child_after = set() if args.trace else {
        round((j + 1) * n_pass / (SETUP_REPEATS - 1)) for j in range(SETUP_REPEATS - 1)}

    tr = tracing.Tracer() if args.trace else None
    job_ids = itertools.count()
    walls, walls_raw, job_times, rows, texts = [], [], [], [], []
    warn_count = compared = 0
    repeat_rows = []
    for i, seed in enumerate(plan):
        traced = tr is not None and i < n_pass
        if traced:
            tr.install()
        elif tracing.find_wrappers():
            problems.append(f"untraced pass runs wrappers: {tracing.find_wrappers()}")
        try:
            wall, raw, jt, by_label, text, n_warn = run_pass(
                wl, seed, tr if traced else None, job_ids, None if args.trace else probe)
        finally:
            if traced:
                tr.uninstall()
        walls.append(wall)
        walls_raw.append(raw)
        texts.append(text)
        if i in child_after:
            s, s_raw, child_text = child_setup(args.workload)
            setups.append(s)
            setups_raw.append(s_raw)
            if child_text != wtext:
                problems.append("warm-up CSV differs between processes")
        if i == n_pass:
            if text != texts[0]:
                problems.append("repeat pass CSV differs from pass 0")
            repeat_rows = [r for rs in by_label.values() for r in rs]
            continue
        job_times += jt
        warn_count += n_warn if traced else 0
        for label, rs in by_label.items():
            rows += rs
            c, found = gate.check_reference(label, rs, reference)
            compared += c
            problems += found + gate.check_postconditions(label, rs, cfgs[label])
    if tracing.find_wrappers():
        problems.append("tracer wrappers left installed")

    ok = [r for r in rows if not r.error]
    if not ok:
        problems.append("every row failed")
    mc = [r.mc_mean_err for r in ok if r.mc_mean_err == r.mc_mean_err]
    attempted = len(rows) + len(repeat_rows)
    failed = sum(1 for r in rows + repeat_rows if r.error)

    env = envinfo.record()
    print(json.dumps({"env": env}))
    print(f"# workload {wl.name}: seeds {plan[0]}..{plan[-2]}, {n_pass} passes + 1 repeat, "
          f"{len(job_times)} jobs, {attempted} rows ({compared} checked against reference)")
    if mc:
        print(f"# recovery_err {statistics.fmean(mc):.6g} (mean mc_mean_err over {len(mc)} rows)")

    if args.trace:
        metrics = tracing.layer_metrics(tr)
        metrics.update({
            "warnings.runtime": warn_count,
            "trace.passes": n_pass,
            "trace.wall_s": sum(walls[:n_pass]),
            "trace.overhead_s": walls[0] - walls[n_pass],
            "completion.recovery_err": statistics.fmean(mc) if mc else 0.0,
        })
        out_dir = os.path.join(envinfo.ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{wl.name}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"env": env, "plan": plan, "walls": walls, "spans": tr.records()}, fh)
        result = {name: _metric(metrics[name], unit) for name, unit, _ in tracing.PER_LAYER}
    else:
        shares = [r.eip / r.tip for r in ok if r.tip > 0]
        timed = walls[:n_pass]
        values = {
            "setup_s": statistics.median(setups),
            # A mean, not a median: seeds differ in work (joint-long takes 2
            # to 16 assignment calls), and a median of a few such passes
            # jumps between them.
            "pass_s": statistics.fmean(timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": len(ok) / len(rows),
            "eip_share": statistics.fmean(shares) if shares else float("nan"),
        }
        result = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        print(f"# pass_s over {n_pass} passes (median {statistics.median(timed):.6g} s, "
              f"max {max(timed):.6g} s), setup_s over {len(setups)} set-ups")
        print(f"# job_s_p50 {statistics.median(job_times):.6g} s over {len(job_times)} jobs")
        # The highest percentile with at least ten job times beyond it.
        q = 100 * (len(job_times) - 10) // len(job_times)
        if q >= 50:
            tail = statistics.quantiles(job_times, n=100)[q - 1]
            print(f"# job_s_p{q} {tail:.6g} s")
        speeds = [w / r for w, r in zip(walls, walls_raw)]
        print(f"# raw wall clock: pass mean {statistics.fmean(walls_raw[:n_pass]):.6g} s, "
              f"setup median {statistics.median(setups_raw):.6g} s; host speed "
              f"{min(speeds):.3g}x-{max(speeds):.3g}x the reference")
    for name, m in result.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
