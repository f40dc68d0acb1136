"""The benchmark's workloads: which experiment specs a pass runs.

A workload is a list of labelled ``ExperimentSpec`` templates. A *job* is one
``harness.run_compare`` call for one seed at one sweep point of one template
(all of its methods); a *pass* runs every job of every template for one seed
and renders one ``format_csv`` table per template, exactly as the
``specshare sweep`` / ``compare`` / ``mc-eval`` commands would.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from specshare import harness
from specshare.config import ScenarioConfig, Scheme

# Seed of the untimed warm-up job; its rows are always checked against the
# stored reference, whatever seed the run was given.
REFERENCE_SEED = 0

SWEEP_P_GRID = [0.2, 0.4, 0.6, 0.8, 1.0]

# Antenna counts and sampling rate shared by joint-long and mc-recovery: a
# 32 x L radar data matrix, large enough that the mask permutation and
# completion layers do real work.
_WIDE = dict(M_tR=16, M_rR=32, M_tC=4, M_rC=4, p=0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    templates: tuple  # ((label, ExperimentSpec whose seeds each job replaces), ...)
    # Mean pass_s of one pass, i.e. seconds at the speed probe's reference
    # speed. Only sizes the fixed pass count for a given --seconds, so the
    # inputs of a run depend on its arguments and never on machine speed.
    nominal_pass_s: float

    def pass_count(self, seconds: float) -> int:
        """Timed passes, one seed each; one repeat pass follows them."""
        return max(2, round(seconds / self.nominal_pass_s))

    def jobs(self, seed: int):
        """(label, spec for the seed, sweep value) in the order a pass runs them."""
        for label, spec in self.templates:
            for value in spec.sweep_values:
                yield label, dataclasses.replace(spec, seeds=[int(seed)]), value

    def warmup_job(self):
        return next(self.jobs(REFERENCE_SEED))


def _sweep_p():
    cfg = ScenarioConfig()
    return (
        ("scheme1", harness.ExperimentSpec(
            cfg=cfg, methods=["selfish", "noncoop", "coop"],
            sweep_var="p", sweep_values=list(SWEEP_P_GRID))),
        ("scheme2", harness.ExperimentSpec(
            cfg=cfg.replace(scheme=Scheme.SCHEME_II), methods=["noncoop", "partial", "full"],
            sweep_var="p", sweep_values=list(SWEEP_P_GRID))),
    )


def _joint_long():
    cfg = ScenarioConfig(L=128, **_WIDE)
    return (("joint", harness.ExperimentSpec(cfg=cfg, methods=["joint"])),)


def _mc_recovery():
    cfg = ScenarioConfig(L=32, **_WIDE)
    return (("mc", harness.ExperimentSpec(cfg=cfg, methods=["selfish", "noncoop"], mc_trials=10)),)


def build(name: str) -> Workload:
    if name == "sweep-p":
        return Workload(name, _sweep_p(), nominal_pass_s=3.7)
    if name == "joint-long":
        return Workload(name, _joint_long(), nominal_pass_s=3.7)
    if name == "mc-recovery":
        return Workload(name, _mc_recovery(), nominal_pass_s=4.1)
    raise KeyError(name)


NAMES = ("sweep-p", "joint-long", "mc-recovery")
