"""Experiment runner: assembles scenarios, runs the sharing methods over
parameter sweeps and emits deterministic CSV tables.

An ExperimentSpec builds the config of every point of its sweep grid once,
and run_compare, the one runner, runs the whole grid or the grid points it
is given; a value off the grid is refused before anything runs. A seed's
grid points share its draws and the designs solved on them (Scenario.designs).

Every row scores its design through its interference profile
DesignSolution.Q: the eip column is the radar scheme's EIP (scheme_weights)
and the tip column the total interference power, both weighted sums of Q.
Radar and comm systems share one L-symbol block, as in the paper; the
mismatched-rate metric is a library call (mismatched_weight_diagonals, then
weighted_eip).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .completion import radar_pipeline
from .config import ScenarioConfig, Scheme, SpecshareError
from .covdesign import solve_weighted_eip
from .interference import scheme_weights, tip_weights, weighted_eip
from .samplingopt import joint_design
from .scenario import make_scenario, mask_shape
from .streams import stream

CSV_COLUMNS = ("method", "sweep_var", "sweep_value", "seed", "eip", "tip", "capacity", "power",
               "mc_mean_err", "mc_std_err", "wall_ms")
CSV_HEADER = ",".join(CSV_COLUMNS)

# Each method but joint, which also permutes the mask (samplingopt.joint_design):
# the Scheme it requires (or None) and its weights W_l from (cfg, scn), all that
# the one dual solver reads of it. partial (IP_FMFB) is full (EIP_II) at Omega = 1.
METHOD_WEIGHTS = {
    "selfish": (None, lambda cfg, scn: np.zeros((cfg.L, cfg.M_rR))),  # ignores the radar
    "noncoop": (None, lambda cfg, scn: tip_weights(cfg.M_rR, cfg.L)),
    "coop": (Scheme.SCHEME_I, lambda cfg, scn: scheme_weights(cfg, scn.omega, scn.S)),
    "partial": (Scheme.SCHEME_II,
                lambda cfg, scn: scheme_weights(cfg, np.ones(mask_shape(cfg)), scn.S)),
    "full": (Scheme.SCHEME_II, lambda cfg, scn: scheme_weights(cfg, scn.omega, scn.S)),
}
METHODS = (*METHOD_WEIGHTS, "joint")
SWEEP_VARS = ("p", "C", "targets", "rho2", "sigma1_2", "none")

# A failure of the problem instance, which its result row records: the
# library's own family, or a numerical one (linalg.eig_floor, NumPy solvers).
_ROW_ERRORS = (SpecshareError, np.linalg.LinAlgError)


class SpecError(SpecshareError):
    pass


@dataclass
class ExperimentSpec:
    """What an experiment runs. Construction (dataclasses.replace included)
    fails unless the methods, sweep and seeds fit the config: a SpecError,
    or the ConfigError of the first grid value the config rejects, since
    every grid point's config is built here and kept in grid, a map from
    sweep value to config. A repeated method or seed, and two sweep values
    that print the same label, would run or print the same rows twice, and
    are refused too; so is a trial count that is not a nonnegative integer
    (a bool included). A seed the config refuses (0.5, True, -1) is its
    ConfigError. None is the one value of the 'none' sweep (no sweep) and
    of no other. Each check is linear in its list, as every benchmark job
    builds a spec."""

    cfg: ScenarioConfig
    methods: list = field(default_factory=lambda: ["selfish", "noncoop"])
    sweep_var: str = "none"
    sweep_values: list = field(default_factory=lambda: [None])
    seeds: list = field(default_factory=lambda: [0])
    mc_trials: int = 0
    grid: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.methods:
            raise SpecError("method list is empty")
        seen = set()
        for m in self.methods:
            if m in seen:
                raise SpecError(f"method {m!r} is repeated")
            seen.add(m)
            if m not in METHODS:
                raise SpecError(f"unknown method {m!r}")
            need = METHOD_WEIGHTS.get(m, (None,))[0]
            if need not in (None, self.cfg.scheme):
                raise SpecError(f"method {m!r} requires Scheme {need.value.removeprefix('Scheme')}")
        if self.sweep_var not in SWEEP_VARS:
            raise SpecError(f"unknown sweep variable {self.sweep_var!r}")
        if not self.sweep_values:
            raise SpecError("sweep grid is empty")
        if self.sweep_var == "none" and list(self.sweep_values) != [None]:
            raise SpecError(f"sweep 'none' takes one value, None, got {self.sweep_values!r}")
        self.grid = {}
        labels = {}  # the label format_csv prints -> the first value printing it
        for value in self.sweep_values:
            if value is None and self.sweep_var != "none":
                raise SpecError(f"sweep {self.sweep_var!r} takes numbers, got None")
            self.grid[value] = apply_sweep(self.cfg, self.sweep_var, value)
            label = _fmt(_sweep_number(value))
            if label in labels:
                first = labels[label]
                raise SpecError(f"sweep value {label} is repeated" if first == value else
                                f"sweep values {first!r} and {value!r} both print as {label}")
            labels[label] = value
        if not self.seeds:
            raise SpecError("seed list is empty")
        seen = set()
        for seed in self.seeds:
            self.cfg.replace(seed=seed)
            if seed in seen:
                raise SpecError(f"seed {seed!r} is repeated")
            seen.add(seed)
        if isinstance(self.mc_trials, bool) or not isinstance(self.mc_trials, numbers.Integral):
            raise SpecError(f"mc_trials {self.mc_trials!r} is not an integer")
        if self.mc_trials < 0:
            raise SpecError("mc_trials must be nonnegative")


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


def _sweep_number(value) -> float:
    """The sweep value a result row holds, and format_csv prints."""
    return 0.0 if value is None else float(value)


def apply_sweep(cfg: ScenarioConfig, var: str, value) -> ScenarioConfig:
    if var == "none":
        return cfg
    if var in ("p", "C", "rho2", "sigma1_2"):
        return cfg.replace(**{var: float(value)})
    if var == "targets":
        k = _target_count(value)
        base_coef = cfg.targets[0][1]
        if k == 1:
            return cfg.replace(targets=[(30.0, base_coef)])
        # Spread angles, scale coefficients so the return power stays fixed.
        angles = np.linspace(-60.0, 60.0, k)
        coef = base_coef / math.sqrt(k)
        return cfg.replace(targets=[(float(a), coef) for a in angles])
    raise SpecError(f"unknown sweep variable {var!r}")


def _solve_method(method, cfg, scn):
    """Returns (DesignSolution, mask omega used for the EIP metric) of a
    method one ExperimentSpec accepts: its weights' design (METHOD_WEIGHTS),
    or the joint design and the mask it permuted."""
    if method == "joint":
        result = joint_design(cfg, scn.B, scn.G2, scn.S, scn.omega, scn.designs)
        return result.solution, result.mask
    w = METHOD_WEIGHTS[method][1](cfg, scn)
    return solve_weighted_eip(w, scn.B, scn.G2, cfg.P_t, cfg.C, scn.designs), scn.omega


def run_compare(spec: ExperimentSpec, *sweep_values) -> list:
    """One row per (seed, grid point, method): at every point of the spec's
    grid, or at the given values, each of which must be on the grid, else a
    SpecError is raised before anything runs. Seeds are the outer loop, so a
    seed's grid points reuse its scenario's designs; format_csv sorts the rows.
    A row whose scenario or method fails with a SpecshareError or LinAlgError
    keeps nan metrics and the message in ResultRow.error; others propagate."""
    for i, value in enumerate(sweep_values):
        if value not in spec.grid:
            raise SpecError(f"sweep value {value!r} is not on the {spec.sweep_var!r} grid "
                            f"{spec.sweep_values!r}")
        if value in sweep_values[:i]:  # its rows would print twice
            raise SpecError(f"sweep value {value!r} is repeated")
    rows = []
    for seed in spec.seeds:
        for sweep_value in sweep_values or spec.sweep_values:
            cfg = spec.grid[sweep_value].replace(seed=int(seed))
            value = _sweep_number(sweep_value)
            try:
                scn = make_scenario(cfg, require_coverage=spec.mc_trials > 0)
            except _ROW_ERRORS as exc:  # a scenario failure fills every method's row
                rows.extend(ResultRow(method, spec.sweep_var, value, cfg.seed, error=str(exc))
                            for method in spec.methods)
                continue
            for method in spec.methods:
                row = ResultRow(method, spec.sweep_var, value, cfg.seed)
                t0 = time.perf_counter()
                try:
                    sol, omega = _solve_method(method, cfg, scn)
                    if not sol.converged:
                        row.error = f"dual search not converged after {sol.iterations} evaluations"
                    row.eip = weighted_eip(scheme_weights(cfg, omega, scn.S), sol.Q)
                    row.tip = weighted_eip(tip_weights(cfg.M_rR, cfg.L), sol.Q)
                    row.capacity = sol.achieved_capacity
                    row.power = sol.consumed_power
                    if spec.mc_trials > 0:
                        stats = radar_pipeline(
                            cfg, scn.S, scn.G2, sol.X, sol.d, omega, spec.mc_trials,
                            stream(cfg.seed, "mc", method, spec.sweep_var, value),
                        )
                        row.mc_mean_err = stats.mean_error
                        row.mc_std_err = stats.std_error
                except _ROW_ERRORS as exc:
                    row.error = str(exc)
                row.wall_ms = (time.perf_counter() - t0) * 1e3
                rows.append(row)
    return rows


def _fmt(x) -> str:
    if not isinstance(x, float):
        return str(x)
    if math.isnan(x):
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
        r = r if timing else replace(r, wall_ms=0.0)
        lines.append(",".join(_fmt(getattr(r, column)) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows, path, timing: bool = False):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(rows, timing=timing))
