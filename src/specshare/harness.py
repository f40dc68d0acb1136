"""Experiment runner: assembles scenarios, runs the sharing methods over
parameter sweeps and emits deterministic CSV tables.

Every row scores its design through one interference profile Q: the eip
column is the radar scheme's EIP (scheme_weights) and the tip column the
total interference power, both weighted sums of Q. Radar and comm systems
share the L-symbol block, so unequal symbol rates are rejected; the
mismatched-rate metric is a library call (mismatched_weight_diagonals, then
weighted_eip).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .completion import radar_pipeline
from .config import ScenarioConfig, Scheme, SpecshareError
from .covdesign import solve_weighted_eip
from .interference import (
    fmfb_weights,
    interference_diag_matrix,
    noise_covariances,
    scheme_weights,
    tip_weights,
    weighted_eip,
)
from .samplingopt import joint_design
from .scenario import make_scenario
from .streams import stream

CSV_HEADER = "method,sweep_var,sweep_value,seed,eip,tip,capacity,power,mc_mean_err,mc_std_err,wall_ms"

METHODS = ("selfish", "noncoop", "coop", "partial", "full", "joint")
SWEEP_VARS = ("p", "C", "targets", "rho2", "sigma1_2", "none")

# A failure of the problem instance, which its result row records: the
# library's own family, or a numerical one (linalg.eig_floor, NumPy solvers).
_ROW_ERRORS = (SpecshareError, np.linalg.LinAlgError)

_SCHEME_I_ONLY = {"coop"}
_SCHEME_II_ONLY = {"partial", "full"}


class SpecError(SpecshareError):
    pass


@dataclass
class ExperimentSpec:
    """What an experiment runs. Construction (dataclasses.replace included)
    fails unless the methods, sweep and seeds fit the config: a SpecError,
    or the ConfigError of the first grid value the config rejects, since
    every grid point's config is built here. A repeated method, seed or
    sweep value, and a 'none' sweep of more than one value, would run or
    print the same rows twice, and are refused too."""

    cfg: ScenarioConfig
    methods: list = field(default_factory=lambda: ["selfish", "noncoop"])
    sweep_var: str = "none"
    sweep_values: list = field(default_factory=lambda: [None])
    seeds: list = field(default_factory=lambda: [0])
    mc_trials: int = 0

    def __post_init__(self):
        if not self.methods:
            raise SpecError("method list is empty")
        for m in self.methods:
            if self.methods.count(m) > 1:
                raise SpecError(f"method {m!r} is repeated")
            if m not in METHODS:
                raise SpecError(f"unknown method {m!r}")
            if m in _SCHEME_I_ONLY and self.cfg.scheme is not Scheme.SCHEME_I:
                raise SpecError(f"method {m!r} requires Scheme I")
            if m in _SCHEME_II_ONLY and self.cfg.scheme is not Scheme.SCHEME_II:
                raise SpecError(f"method {m!r} requires Scheme II")
        if self.sweep_var not in SWEEP_VARS:
            raise SpecError(f"unknown sweep variable {self.sweep_var!r}")
        if not self.sweep_values:
            raise SpecError("sweep grid is empty")
        if self.sweep_var == "none" and len(self.sweep_values) > 1:
            raise SpecError(f"sweep 'none' takes one value, got {len(self.sweep_values)}")
        for value in self.sweep_values:
            if self.sweep_values.count(value) > 1:
                raise SpecError(f"sweep value {value!r} is repeated")
            apply_sweep(self.cfg, self.sweep_var, value)
        if not self.seeds:
            raise SpecError("seed list is empty")
        for seed in self.seeds:
            if self.seeds.count(seed) > 1:
                raise SpecError(f"seed {seed!r} is repeated")
        if self.mc_trials < 0:
            raise SpecError("mc_trials must be nonnegative")
        if self.cfg.radar_rate != self.cfg.comm_rate:
            raise SpecError(
                f"radar_rate {self.cfg.radar_rate} != comm_rate {self.cfg.comm_rate}: "
                "the harness runs both systems on one L-symbol block"
            )


@dataclass
class ResultRow:
    method: str
    sweep_var: str
    sweep_value: float
    seed: int
    eip: float = math.nan
    tip: float = math.nan
    capacity: float = math.nan
    power: float = math.nan
    mc_mean_err: float = math.nan
    mc_std_err: float = math.nan
    wall_ms: float = 0.0
    error: str = ""


def _target_count(value) -> int:
    """The number of targets a targets sweep value names."""
    if not float(value).is_integer() or value < 1:
        raise SpecError(f"target count must be an integer >= 1, got {value!r}")
    return int(value)


def apply_sweep(cfg: ScenarioConfig, var: str, value) -> ScenarioConfig:
    if var == "none" or value is None:
        return cfg
    if var in ("p", "C", "rho2", "sigma1_2"):
        return cfg.replace(**{var: float(value)})
    if var == "targets":
        k = _target_count(value)
        base_coef = cfg.targets[0][1] if cfg.targets else 0.2 + 0.1j
        if k == 1:
            return cfg.replace(targets=[(30.0, base_coef)])
        # Spread angles, scale coefficients so the return power stays fixed.
        angles = np.linspace(-60.0, 60.0, k)
        coef = base_coef / math.sqrt(k)
        return cfg.replace(targets=[(float(a), coef) for a in angles])
    raise SpecError(f"unknown sweep variable {var!r}")


def _solve_method(method, cfg, scn, noise):
    """Returns (DesignSolution, mask omega used for the EIP metric). The
    method's name picks the interference weights W_l of its design problem."""
    H, G2, S = scn.H, scn.G2, scn.S
    if method == "selfish":  # ignores the radar
        w = np.zeros((cfg.L, cfg.M_rR))
    elif method == "noncoop":
        w = tip_weights(cfg.M_rR, cfg.L)
    elif method in ("coop", "full"):  # the radar scheme's EIP, per the spec check
        w = scheme_weights(cfg, scn.omega, S)
    elif method == "partial":
        w = fmfb_weights(S, cfg.M_rR)
    elif method == "joint":
        result = joint_design(cfg, H, G2, noise, S, scn.omega)
        return result.solution, result.mask
    else:
        raise SpecError(f"unknown method {method!r}")
    return solve_weighted_eip(w, H, G2, noise, cfg.P_t, cfg.C), scn.omega


def run_compare(spec: ExperimentSpec, sweep_value=None) -> list:
    """One row per (seed, method) at a single sweep point. A row whose
    scenario or method fails with a SpecshareError or LinAlgError keeps nan
    metrics and the message in ResultRow.error; other exceptions propagate."""
    rows = []
    for seed in spec.seeds:
        cfg = apply_sweep(spec.cfg, spec.sweep_var, sweep_value).replace(seed=int(seed))
        value = 0.0 if sweep_value is None else float(sweep_value)
        try:
            scn = make_scenario(cfg, require_coverage=spec.mc_trials > 0)
            noise = noise_covariances(cfg, scn.G1, scn.S)
        except _ROW_ERRORS as exc:  # a scenario failure fills every method's row
            for method in spec.methods:
                rows.append(
                    ResultRow(method, spec.sweep_var, value, int(seed), error=str(exc))
                )
            continue
        for method in spec.methods:
            row = ResultRow(method, spec.sweep_var, value, int(seed))
            t0 = time.perf_counter()
            try:
                sol, omega = _solve_method(method, cfg, scn, noise)
                if not sol.converged:
                    row.error = f"dual search not converged after {sol.iterations} evaluations"
                schedule = sol.schedule
                Q = interference_diag_matrix(scn.G2, schedule)
                row.eip = weighted_eip(scheme_weights(cfg, omega, scn.S), Q)
                row.tip = weighted_eip(tip_weights(cfg.M_rR, cfg.L), Q)
                row.capacity = sol.achieved_capacity
                row.power = sol.consumed_power
                if spec.mc_trials > 0:
                    stats = radar_pipeline(
                        cfg, scn.D, scn.S, scn.G2, schedule, omega, spec.mc_trials,
                        stream(cfg.seed, "mc", method, spec.sweep_var, value),
                    )
                    row.mc_mean_err = stats.mean_error
                    row.mc_std_err = stats.std_error
            except _ROW_ERRORS as exc:
                row.error = str(exc)
            row.wall_ms = (time.perf_counter() - t0) * 1e3
            rows.append(row)
    return rows


def sweep(spec: ExperimentSpec) -> list:
    """run_compare at every grid value; rows tagged with the sweep value.

    Seeds run one at a time through the whole grid, so the designs a seed's
    grid points share come from covdesign's memo of its last problem;
    format_csv sorts the rows. The spec has built every grid point's config
    already, so a value the config rejects never gets here."""
    rows = []
    for seed in spec.seeds:
        one_seed = replace(spec, seeds=[seed])
        for value in spec.sweep_values:
            rows.extend(run_compare(one_seed, sweep_value=value))
    return rows


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.9g}"


def format_csv(rows, timing: bool = False) -> str:
    """Render the result table; 9 significant digits, LF endings.

    Timing is zeroed by default so identical (spec, seeds) runs produce
    byte-identical files; pass timing=True for diagnostics.
    """
    ordered = sorted(rows, key=lambda r: (r.sweep_value, r.method, r.seed))
    lines = [CSV_HEADER]
    for r in ordered:
        wall = r.wall_ms if timing else 0.0
        lines.append(
            ",".join(
                [
                    r.method,
                    r.sweep_var,
                    _fmt(r.sweep_value),
                    str(r.seed),
                    _fmt(r.eip),
                    _fmt(r.tip),
                    _fmt(r.capacity),
                    _fmt(r.power),
                    _fmt(r.mc_mean_err),
                    _fmt(r.mc_std_err),
                    _fmt(wall),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(rows, path, timing: bool = False):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(rows, timing=timing))
