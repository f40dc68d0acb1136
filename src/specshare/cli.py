"""Command-line front end.

Subcommands:
  compare   run the selected methods at one configuration, or over a
            parameter sweep with --sweep var=start:stop:step (p, C,
            targets, rho2, sigma1_2); --mc-trials N adds N recovery
            trials per row through the completion pipeline
  mask-gap  spectral gap of the sampling mask compare --mc-trials uses;
            without trials compare uses the first uniform draw

Exit codes: 0 success; 1 invalid input (config file, options, sweep spec)
or a file that cannot be read or written, reported as 'error: ...' on
stderr; 2 every result row failed. Each distinct reason of a failed row (an
unreachable capacity target, a scenario with singular comm noise, ...) is
reported the same way, whether some rows failed or all of them.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import ScenarioConfig, SpecshareError, load_config
from .harness import ExperimentSpec, SpecError, format_csv, run_compare, write_csv
from .samplingopt import spectral_gap
from .scenario import make_scenario


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is invalid input: exit 1, not argparse's 2, which
        this tool returns when every result row failed."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_sweep(text):
    """var=start:stop:step -> (var, [values]).

    The values run from start in steps of step up to stop; a slack of a
    billionth of a step, and rounding each value to 12 significant digits,
    absorb the error of summing the steps at any scale."""
    var, _, grid = text.partition("=")
    parts = grid.split(":")
    if len(parts) != 3:
        raise SpecError(f"bad sweep spec {text!r}; expected var=start:stop:step")
    try:
        start, stop, step = (float(s) for s in parts)
    except ValueError:
        raise SpecError(f"bad sweep spec {text!r}; bounds must be numbers") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise SpecError(f"bad sweep spec {text!r}; bounds must be finite numbers")
    if step <= 0:
        raise SpecError("sweep step must be positive")
    values = []
    v = start
    while v <= stop + 1e-9 * step:
        values.append(float(f"{v:.12g}"))
        if v + step == v:  # the grid would repeat v until memory runs out
            raise SpecError(f"bad sweep spec {text!r}; step {step!r} does not advance "
                            f"the grid at {v!r}")
        v += step
    return var, values


def _load(args) -> ScenarioConfig:
    """The --config file's configuration (the defaults without one), with
    --seed in place of its seed when given."""
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    return cfg if args.seed is None else cfg.replace(seed=args.seed)


def _build_spec(args, sweep_var="none", sweep_values=(None,)):
    cfg = _load(args)
    return ExperimentSpec(
        cfg=cfg,
        methods=[m.strip() for m in args.methods.split(",") if m.strip()],
        sweep_var=sweep_var,
        sweep_values=list(sweep_values),
        seeds=list(range(cfg.seed, cfg.seed + args.seeds)),
        mc_trials=args.mc_trials,
    )


def _emit(rows, args):
    if args.out:
        write_csv(rows, args.out, timing=args.timing)
    else:
        sys.stdout.write(format_csv(rows, timing=args.timing))
    for error in dict.fromkeys(r.error for r in rows if r.error):
        print(f"error: {error}", file=sys.stderr)
    return 2 if rows and all(r.error for r in rows) else 0


def main(argv=None) -> int:
    parser = _Parser(prog="specshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cmp = sub.add_parser("compare", help="run methods at a configuration or over a sweep")
    p_cmp.add_argument("--config", help="scenario config file (flat key = value)")
    p_cmp.add_argument("--seed", type=int, help="base seed (default: the config's seed)")
    p_cmp.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p_cmp.add_argument("--methods", default="selfish,noncoop", help="comma-separated methods")
    p_cmp.add_argument("--out", help="output CSV path (default: stdout)")
    p_cmp.add_argument("--mc-trials", type=int, default=0, dest="mc_trials",
                       help="recovery trials per row (default: 0)")
    p_cmp.add_argument("--timing", action="store_true", help="emit real wall times")
    p_cmp.add_argument("--sweep", help="var=start:stop:step (default: no sweep)")

    p_gap = sub.add_parser("mask-gap", help="spectral gap of the sampling mask of compare "
                           "--mc-trials (without trials, compare uses the first uniform draw)")
    p_gap.add_argument("--config", help="scenario config file")
    p_gap.add_argument("--seed", type=int, help="seed (default: the config's seed)")

    args = parser.parse_args(argv)
    try:
        if args.command == "mask-gap":
            s1, s2, gap = spectral_gap(make_scenario(_load(args)).omega)
            print(f"sigma1={s1:.9g} sigma2={s2:.9g} gap={gap:.9g}")
            return 0
        grid = () if args.sweep is None else _parse_sweep(args.sweep)
        return _emit(run_compare(_build_spec(args, *grid)), args)
    except (SpecshareError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
