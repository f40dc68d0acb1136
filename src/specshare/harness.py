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
from dataclasses import dataclass, field

import numpy as np

from .completion import radar_pipeline
from .config import ScenarioConfig, Scheme
from .covdesign import InfeasibleError, solve_selfish, solve_weighted_eip
from .interference import (
    METHOD_EIP_I,
    METHOD_EIP_II,
    METHOD_IP_FMFB,
    METHOD_TIP,
    interference_diag_matrix,
    noise_covariances,
    scheme_weights,
    weight_schedule,
    weighted_eip,
)
from .samplingopt import joint_design
from .scenario import make_scenario
from .streams import stream

CSV_HEADER = "method,sweep_var,sweep_value,seed,eip,tip,capacity,power,mc_mean_err,mc_std_err,wall_ms"

METHODS = ("selfish", "noncoop", "coop", "partial", "full", "joint")
SWEEP_VARS = ("p", "C", "targets", "rho2", "sigma1_2", "none")

_SCHEME_I_ONLY = {"coop"}
_SCHEME_II_ONLY = {"partial", "full"}


class SpecError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    cfg: ScenarioConfig
    methods: list = field(default_factory=lambda: ["selfish", "noncoop"])
    sweep_var: str = "none"
    sweep_values: list = field(default_factory=lambda: [None])
    seeds: list = field(default_factory=lambda: [0])
    mc_trials: int = 0

    def validate(self):
        if not self.methods:
            raise SpecError("method list is empty")
        for m in self.methods:
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
        if not self.seeds:
            raise SpecError("seed list is empty")
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


def apply_sweep(cfg: ScenarioConfig, var: str, value) -> ScenarioConfig:
    if var == "none" or value is None:
        return cfg
    if var == "p":
        return cfg.replace(p=float(value))
    if var == "C":
        return cfg.replace(C=float(value))
    if var == "rho2":
        return cfg.replace(rho2=float(value))
    if var == "sigma1_2":
        return cfg.replace(sigma1_2=float(value))
    if var == "targets":
        k = int(value)
        if k < 1:
            raise SpecError("target count must be >= 1")
        base_coef = cfg.targets[0][1] if cfg.targets else 0.2 + 0.1j
        if k == 1:
            return cfg.replace(targets=[(30.0, base_coef)])
        # Spread angles, scale coefficients so the return power stays fixed.
        angles = np.linspace(-60.0, 60.0, k)
        coef = base_coef / math.sqrt(k)
        return cfg.replace(targets=[(float(a), coef) for a in angles])
    raise SpecError(f"unknown sweep variable {var!r}")


def _solve_method(method, cfg, scn, noise):
    """Returns (DesignSolution, mask used for the EIP metric)."""
    H, G2 = scn.channels.H, scn.channels.G2
    S = scn.waveforms.S
    L = cfg.L
    n_rx = cfg.M_rR
    if method == "selfish":
        return solve_selfish(H, noise, cfg.C), scn.mask
    if method == "noncoop":
        w = weight_schedule(METHOD_TIP, n_rx, L)
    elif method == "coop":
        w = weight_schedule(METHOD_EIP_I, n_rx, L, mask=scn.mask)
    elif method == "partial":
        w = weight_schedule(METHOD_IP_FMFB, n_rx, L, S=S)
    elif method == "full":
        w = weight_schedule(METHOD_EIP_II, n_rx, L, mask=scn.mask, S=S)
    elif method == "joint":
        result = joint_design(cfg, H, G2, noise, S, scn.mask)
        return result.solution, result.mask
    else:
        raise SpecError(f"unknown method {method!r}")
    return solve_weighted_eip(w, H, G2, noise, cfg.P_t, cfg.C), scn.mask


def run_compare(spec: ExperimentSpec, sweep_value=None) -> list:
    """One row per (seed, method) at a single sweep point."""
    spec.validate()
    rows = []
    for seed in spec.seeds:
        cfg = apply_sweep(spec.cfg, spec.sweep_var, sweep_value).replace(seed=int(seed))
        value = 0.0 if sweep_value is None else float(sweep_value)
        try:
            scn = make_scenario(cfg, require_coverage=spec.mc_trials > 0)
            noise = noise_covariances(cfg, scn.channels.G1, scn.waveforms.S)
        except Exception as exc:  # scenario-level failure poisons all methods
            for method in spec.methods:
                rows.append(
                    ResultRow(method, spec.sweep_var, value, int(seed), error=str(exc))
                )
            continue
        for method in spec.methods:
            row = ResultRow(method, spec.sweep_var, value, int(seed))
            t0 = time.perf_counter()
            try:
                sol, mask = _solve_method(method, cfg, scn, noise)
                if not sol.converged:
                    row.error = f"dual bisection not converged after {sol.iterations} evaluations"
                schedule = sol.schedule
                Q = interference_diag_matrix(scn.channels.G2, schedule)
                row.eip = weighted_eip(scheme_weights(cfg, mask, scn.waveforms.S), Q)
                row.tip = weighted_eip(weight_schedule(METHOD_TIP, cfg.M_rR, cfg.L), Q)
                row.capacity = sol.achieved_capacity
                row.power = sol.consumed_power
                if spec.mc_trials > 0:
                    stats = radar_pipeline(
                        cfg,
                        scn.target.D,
                        scn.waveforms.S,
                        scn.channels.G2,
                        schedule,
                        mask,
                        spec.mc_trials,
                        stream(cfg.seed, "mc", method, spec.sweep_var, value),
                    )
                    row.mc_mean_err = stats.mean_error
                    row.mc_std_err = stats.std_error
            except (InfeasibleError, ValueError, RuntimeError) as exc:
                row.error = str(exc)
            row.wall_ms = (time.perf_counter() - t0) * 1e3
            rows.append(row)
    return rows


def sweep(spec: ExperimentSpec) -> list:
    """run_compare at every grid value; rows tagged with the sweep value."""
    spec.validate()
    rows = []
    for value in spec.sweep_values:
        rows.extend(run_compare(spec, sweep_value=value))
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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_csv(rows, timing=timing))
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
