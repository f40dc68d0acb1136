"""Command-line front end.

Subcommands:
  compare   run the selected methods at a fixed configuration
  sweep     run a parameter sweep (p, C, targets, rho2, sigma1_2)
  mc-eval   recovery-error evaluation via the completion pipeline
  mask-gap  spectral gap of the generated sampling mask

Exit codes: 0 success; 1 invalid input (config file, options, sweep spec)
or a file that cannot be read or written, reported as 'error: ...' on
stderr; 2 every result row failed, with each distinct reason from the rows'
errors (an unreachable capacity target, a scenario with L < M_tR, ...)
reported the same way.
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


def _add_common(p):
    p.add_argument("--config", help="scenario config file (flat key = value)")
    p.add_argument("--seed", type=int, help="base seed (default: the config's seed)")
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p.add_argument("--methods", default="selfish,noncoop", help="comma-separated methods")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--mc-trials", type=int, default=0, dest="mc_trials")
    p.add_argument("--timing", action="store_true", help="emit real wall times")


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
    if rows and all(r.error for r in rows):
        for error in dict.fromkeys(r.error for r in rows):
            print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="specshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cmp = sub.add_parser("compare", help="run methods at a fixed configuration")
    _add_common(p_cmp)

    p_swp = sub.add_parser("sweep", help="run a parameter sweep")
    _add_common(p_swp)
    p_swp.add_argument("--sweep", required=True, help="var=start:stop:step")

    p_mc = sub.add_parser("mc-eval", help="matrix-completion recovery evaluation")
    _add_common(p_mc)
    p_mc.set_defaults(mc_trials=10)

    p_gap = sub.add_parser("mask-gap", help="spectral gap of the sampling mask")
    p_gap.add_argument("--config", help="scenario config file")
    p_gap.add_argument("--seed", type=int, help="seed (default: the config's seed)")

    args = parser.parse_args(argv)
    try:
        if args.command == "mask-gap":
            s1, s2, gap = spectral_gap(make_scenario(_load(args)).omega)
            print(f"sigma1={s1:.9g} sigma2={s2:.9g} gap={gap:.9g}")
            return 0
        if args.command == "mc-eval" and args.mc_trials < 1:
            raise SpecError("mc-eval needs --mc-trials >= 1")
        grid = _parse_sweep(args.sweep) if args.command == "sweep" else ()
        return _emit(run_compare(_build_spec(args, *grid)), args)
    except (SpecshareError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
