"""Sampling-mask optimization by row/column permutation.

The mask objective Tr(Omega^T Q~) is minimized over the permutation orbit
of the initial mask: each sweep solves one column and one row linear
assignment problem (Hungarian algorithm) and never increases the
objective. Permutations preserve the mask's singular values, hence its
spectral gap and completability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interference import NoiseCovSchedule, interference_diag_matrix, scheme_weights
from .config import ScenarioConfig, Scheme
from .covdesign import DesignSolution, solve_weighted_eip
from .scenario import SamplingMask, generate_sampling_mask


@dataclass
class Assignment:
    permutation: np.ndarray  # row i assigned to column permutation[i]
    cost: float


@dataclass
class JointDesignResult:
    solution: DesignSolution
    mask: SamplingMask
    eip_trace: list
    outer_iterations: int


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-cost linear assignment (shortest augmenting path, O(n^3)).

    Rectangular inputs are padded with a constant exceeding any real entry;
    padded cells never contribute to the returned cost. Ties are broken by
    lowest index, so the result is deterministic.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a matrix")
    if np.isnan(cost).any():
        raise ValueError("cost matrix contains NaN")
    if np.isinf(cost).any():
        raise ValueError("cost matrix contains infinite entries")
    nr, nc = cost.shape
    n = max(nr, nc)
    pad = float(np.abs(cost).max() if cost.size else 0.0) + 1.0
    C = np.full((n, n), pad)
    C[:nr, :nc] = cost

    INF = float("inf")
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)  # p[j]: row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = C[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = np.zeros(n, dtype=int)
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
    total = float(sum(cost[i, perm[i]] for i in range(nr) if perm[i] < nc))
    return Assignment(permutation=perm, cost=total)


def mask_objective(mask: SamplingMask, Qtilde: np.ndarray) -> float:
    """Tr(Omega^T Q~), the quantity the permutation search minimizes."""
    return float(np.sum(mask.omega * Qtilde))


def best_column_permutation(mask: SamplingMask, Qtilde: np.ndarray) -> SamplingMask:
    """Reorder mask columns to minimize Tr(Omega^T Q~).

    Cost of placing current column m at position l is Omega_col_m . Q~_col_l.
    """
    omega = mask.omega
    if omega.shape != Qtilde.shape:
        raise ValueError("mask and cost matrix shapes differ")
    C = omega.T @ Qtilde
    out = np.empty_like(omega)
    out[:, hungarian(C).permutation] = omega
    return mask.with_omega(out)


def best_row_permutation(mask: SamplingMask, Qtilde: np.ndarray) -> SamplingMask:
    """Row counterpart of best_column_permutation."""
    omega = mask.omega
    if omega.shape != Qtilde.shape:
        raise ValueError("mask and cost matrix shapes differ")
    C = omega @ Qtilde.T
    out = np.empty_like(omega)
    out[hungarian(C).permutation, :] = omega
    return mask.with_omega(out)


def optimize_mask(mask: SamplingMask, Qtilde: np.ndarray, delta1: float | None = None,
                  max_sweeps: int = 100) -> SamplingMask:
    """Alternate column/row permutations until the objective change < delta1."""
    obj = mask_objective(mask, Qtilde)
    if delta1 is None:
        delta1 = 1e-9 * max(obj, 1.0)
    for _ in range(max_sweeps):
        cand = best_row_permutation(best_column_permutation(mask, Qtilde), Qtilde)
        new_obj = mask_objective(cand, Qtilde)
        if new_obj > obj + 1e-12:
            break  # assignment optimality should prevent this; stop defensively
        mask = cand
        if abs(obj - new_obj) < delta1:
            obj = new_obj
            break
        obj = new_obj
    return mask


def spectral_gap(mask: SamplingMask):
    """(sigma1, sigma2, sigma1 - sigma2) of the binary mask."""
    if mask.omega.sum() == 0:
        raise ValueError("spectral gap of the all-zero mask is undefined")
    s = np.linalg.svd(mask.omega, compute_uv=False)
    s2 = float(s[1]) if s.size > 1 else 0.0
    return float(s[0]), s2, float(s[0]) - s2


def joint_design(
    cfg: ScenarioConfig,
    H: np.ndarray,
    G2: np.ndarray,
    noise: NoiseCovSchedule,
    S: np.ndarray,
    mask0: SamplingMask,
    delta1: float | None = None,
    delta2: float | None = None,
    max_outer: int = 50,
    restarts: int = 1,
    rng: np.random.Generator | None = None,
    require_coverage: bool = True,
) -> JointDesignResult:
    """Alternating covariance / sampling-mask optimization.

    Each outer iteration solves the weighted covariance problem for the
    current mask, then permutes the mask against the resulting interference
    profile (Q~ = Q for Scheme I, Q~ = Q (S o conj(S))^T for Scheme II).
    Extra restarts draw fresh initial masks from rng and keep the best
    final EIP.
    """
    best = None
    for r in range(restarts):
        if r == 0:
            mask = mask0
        else:
            if rng is None:
                raise ValueError("restarts > 1 requires an rng to draw new masks")
            mask = generate_sampling_mask(cfg, rng, require_coverage=require_coverage)
        result = _joint_design_once(
            cfg, H, G2, noise, S, mask, delta1, delta2, max_outer
        )
        if best is None or result.eip_trace[-1] < best.eip_trace[-1]:
            best = result
    return best


def _joint_design_once(cfg, H, G2, noise, S, mask, delta1, delta2, max_outer):
    trace = []
    solution = None
    d2 = delta2
    for n in range(max_outer):
        weights = scheme_weights(cfg, mask, S)
        solution = solve_weighted_eip(weights, H, G2, noise, cfg.P_t, cfg.C)
        eip = solution.objective_eip
        trace.append(eip)
        if eip == 0.0:
            break  # no interference reaches the radar; the mask is irrelevant
        if d2 is None:
            d2 = 1e-6 * max(eip, 1e-30)
        if n > 0 and abs(trace[-2] - eip) < d2:
            break
        Q = interference_diag_matrix(G2, solution.schedule)  # M_rR x L
        if cfg.scheme is Scheme.SCHEME_I:
            Qtilde = Q
        else:
            Qtilde = Q @ (np.abs(S) ** 2).T  # M_rR x M_tR
        mask = optimize_mask(mask, Qtilde, delta1)
    return JointDesignResult(
        solution=solution, mask=mask, eip_trace=trace, outer_iterations=len(trace)
    )
