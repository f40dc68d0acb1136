"""Low-rank matrix completion and recovery-error evaluation.

The completer minimizes mu*||X||_* + 0.5*||P_Omega(X - observed)||_F^2 by
accelerated proximal gradient descent with singular-value soft thresholding,
using continuation on the penalty (mu is lowered geometrically toward its
target, warm-starting each stage); the radar pipeline wraps it into the
end-to-end recovery experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, Scheme
from .interference import CovarianceSchedule
from .linalg import crandn
from .scenario import (
    SamplingMask,
    generate_phase_offsets,
    noiseless_radar_return,
    synthesize_radar_rx,
)


@dataclass
class CompletionParams:
    step: float = 1.0
    mu: float | None = None          # None: 1e-4 * sigma1(observed)
    mu_rel: float = 1e-4
    max_iterations: int = 500        # per continuation stage
    tolerance: float = 1e-5
    continuation: float = 0.1        # geometric factor for the mu schedule

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.mu is not None and self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.continuation < 1.0:
            raise ValueError("continuation factor must lie in (0, 1)")


@dataclass
class RecoveryReport:
    relative_error: float
    iterations: int
    converged: bool


def shrink(X: np.ndarray, threshold: float):
    """Singular-value soft thresholding: sigma_i -> (sigma_i - t)^+.

    Returns the thresholded matrix and its singular values (the latter sum
    to its nuclear norm).
    """
    u, s, vh = np.linalg.svd(X, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    return (u * s) @ vh, s


def complete(
    observed: np.ndarray,
    mask: SamplingMask,
    params: CompletionParams | None = None,
    objective_trace: list | None = None,
):
    """Nuclear-norm completion of the entries marked by the mask.

    Returns (estimate, iterations, converged). Requires at least one
    observed entry in every row and column. Accepted iterates never
    increase the objective within a continuation stage (monotone
    accelerated proximal gradient); pass a list as objective_trace to
    record the accepted objective value at every iteration.
    """
    if params is None:
        params = CompletionParams()
    omega = mask.omega
    if omega.shape != observed.shape:
        raise ValueError("mask and observation shapes differ")
    if omega.sum(axis=1).min() < 1 or omega.sum(axis=0).min() < 1:
        raise ValueError("mask has an empty row or column; completion impossible")
    masked = omega * observed
    if np.linalg.norm(masked) == 0.0:
        return np.zeros_like(observed), 0, True
    sigma1 = float(np.linalg.svd(masked, compute_uv=False)[0])
    mu_final = params.mu if params.mu is not None else params.mu_rel * sigma1
    tau = params.step
    # Penalty schedule: start near sigma1 and decay geometrically to the target.
    mus = []
    mu = params.continuation * sigma1
    while mu > mu_final:
        mus.append(mu)
        mu *= params.continuation
    mus.append(mu_final)
    def objective(mat, mu, nuc=None):
        if nuc is None:
            nuc = float(np.linalg.svd(mat, compute_uv=False).sum())
        return mu * nuc + 0.5 * float(np.linalg.norm(omega * (mat - observed)) ** 2)

    X = np.zeros_like(observed)
    total = 0
    converged = False
    for mu in mus:
        # Monotone accelerated proximal gradient, warm-started from the
        # previous stage: the shrinkage step Z is accepted only when it
        # lowers the objective, while momentum always follows Z.
        Y = X.copy()
        t = 1.0
        obj = objective(X, mu)
        converged = False
        for _ in range(params.max_iterations):
            Z, s = shrink(Y - tau * (omega * (Y - observed)), tau * mu)
            obj_Z = objective(Z, mu, nuc=float(s.sum()))
            X_prev = X
            if obj_Z <= obj:
                X, obj = Z, obj_Z
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            Y = X + (t / t_new) * (Z - X) + ((t - 1.0) / t_new) * (X - X_prev)
            t = t_new
            total += 1
            if objective_trace is not None:
                objective_trace.append(obj)
            change = np.linalg.norm(Z - X_prev) / max(np.linalg.norm(Z), 1e-300)
            if change < params.tolerance:
                converged = True
                break
    return X, total, converged


def relative_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    """||truth - estimate||_F / ||truth||_F."""
    if truth.shape != estimate.shape:
        raise ValueError("shape mismatch")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise ValueError("relative error undefined for zero truth")
    return float(np.linalg.norm(truth - estimate) / denom)


@dataclass
class PipelineStats:
    mean_error: float
    std_error: float
    reports: list


def radar_pipeline(
    cfg: ScenarioConfig,
    D: np.ndarray,
    S: np.ndarray,
    G2: np.ndarray,
    schedule: CovarianceSchedule,
    mask: SamplingMask,
    trials: int,
    rng: np.random.Generator,
    params: CompletionParams | None = None,
) -> PipelineStats:
    """End-to-end recovery experiment for a fixed design.

    Per trial: draw codewords x(l) = R_xl^{1/2} * randn, synthesize the
    masked radar data matrix with fresh phases and noise, complete it and
    score against the noiseless ground truth (gamma*rho*D*S for Scheme I,
    gamma*rho*D for Scheme II).
    """
    roots = schedule.sqrts()
    L = len(schedule)
    truth = noiseless_radar_return(cfg, D, S)
    if cfg.scheme is Scheme.SCHEME_II:
        truth = cfg.gamma * cfg.rho * D
    reports = []
    for _ in range(trials):
        X = np.stack([roots[l] @ crandn(rng, cfg.M_tC) for l in range(L)], axis=1)
        phases = generate_phase_offsets(cfg, rng)
        observed = synthesize_radar_rx(cfg, D, S, G2, X, phases, mask, rng)
        estimate, iters, conv = complete(observed, mask, params)
        reports.append(
            RecoveryReport(
                relative_error=relative_error(truth, estimate),
                iterations=iters,
                converged=conv,
            )
        )
    errs = np.array([r.relative_error for r in reports])
    return PipelineStats(
        mean_error=float(errs.mean()),
        std_error=float(errs.std(ddof=1)) if trials > 1 else 0.0,
        reports=reports,
    )
