"""Capacity- and power-constrained transmit covariance design.

One generic solver handles the noncooperative (TIP), cooperative (EIP_I),
partially cooperative (IP_FMFB) and fully cooperative (EIP_II) problems:
they differ only in the diagonal interference weights. The solver is dual
decomposition with an outer bisection on the power multiplier lambda1;
for each lambda1 the capacity multiplier lambda2 is found in closed form
by an exact sort-based water-level solve, and the L per-symbol covariances
follow from the closed-form subproblem solution.

All L subproblems run as one batched kernel over stacked arrays. The parts
that do not depend on lambda1 (the eigendecomposition of G2^H W_l G2 and
the whitened channels R_wl^{-1/2} H in its eigenbasis) are factored once per
solve; each dual step is then one stacked SVD, and the power follows in
closed form from its factors. Covariance matrices are built only for the
returned iterate. The selfish design (W_l = 0, lambda1 = 1) and the
single-symbol subproblem run through the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interference import (
    CovarianceSchedule,
    MetricError,
    NoiseCovSchedule,
    WeightSchedule,
    average_capacity,
    interference_diag_matrix,
    weighted_eip,
)
from .linalg import eig_floor, hermitize, psd_inv_sqrt

# Bisection width on lambda1; the dual bracket shrinks to this before the
# power-feasible endpoint is returned.
DEFAULT_DUAL_TOL = 1e-9

# Tiny ridge applied to Phi_l when the bracket collapses toward lambda1=0
# while G2^H W G2 is singular; lambda1 > 0 strictly at such optima, the
# ridge only keeps the matrix square roots finite.
PHI_RIDGE = 1e-12


class InfeasibleError(RuntimeError):
    """The capacity target is unreachable within the power budget."""


class SolverError(RuntimeError):
    pass


@dataclass
class DualPoint:
    lambda1: float
    lambda2: float


@dataclass
class DesignSolution:
    schedule: CovarianceSchedule
    dual: DualPoint
    achieved_capacity: float
    consumed_power: float
    objective_eip: float
    iterations: int
    converged: bool


def water_fill(gains: np.ndarray, budget: float) -> np.ndarray:
    """Classic water-filling: maximize sum log2(1 + g_i p_i) s.t. sum p_i = budget.

    Returns the optimal powers. Exact active-set solve over sorted gains.
    """
    g = np.asarray(gains, dtype=float)
    order = np.argsort(g)[::-1]
    gs = g[order]
    if gs.size == 0 or gs[0] <= 0 or budget <= 0:
        return np.zeros_like(g)
    pos = gs > 0
    gs = gs[pos]
    # With k channels active the water level is (budget + sum 1/g)/k.
    inv = 1.0 / gs
    cum = np.cumsum(inv)
    k = gs.size
    for i in range(gs.size):
        level = (budget + cum[i]) / (i + 1)
        if i + 1 == gs.size or level <= inv[i + 1]:
            k = i + 1
            break
    level = (budget + cum[k - 1]) / k
    powers = np.zeros_like(g)
    powers[order[:k]] = level - inv[:k]
    return powers


def min_capacity_multiplier(sing_vals: np.ndarray, C: float, L: int) -> float:
    """Smallest lambda2 >= 0 with sum_i (log2(lambda2 sigma_i^2))^+ >= L*C.

    sing_vals are the positive singular values of all L effective channels
    pooled together. Exact closed form: sort the squared values and take the
    smallest active set k whose water-level equation is consistent.
    """
    target = L * C
    if target <= 0:
        return 0.0
    g = np.sort(np.asarray(sing_vals, dtype=float) ** 2)[::-1]
    g = g[g > 0]
    if g.size == 0:
        raise InfeasibleError("no usable channel directions (all singular values zero)")
    exponent = (target - np.cumsum(np.log2(g))) / np.arange(1, g.size + 1)
    # A level past 2**1023 leaves the next direction active unless its gain
    # is below 2**-1023, so such k are skipped instead of overflowing; the
    # last k is the fallback and never needs its successor.
    in_range = exponent < 1023.0
    levels = np.full(g.size, np.inf)
    levels[in_range] = 2.0 ** exponent[in_range]
    kth_active = levels * g >= 1.0 - 1e-12
    next_inactive = np.append(levels[:-1] * g[1:] <= 1.0 + 1e-12, True)
    consistent = np.flatnonzero(kth_active & next_inactive)
    k = consistent[0] if consistent.size else g.size - 1
    if exponent[k] >= 1024.0:
        return math.inf
    # Scalar power at the chosen k (vectorized pow can differ in the last
    # bit); nudge up so the achieved sum never rounds below the target.
    return 2.0 ** exponent[k] * (1.0 + 4e-12)


@dataclass
class _DualIterate:
    """One dual evaluation: the multipliers, the power it consumes and the
    factors its covariances are built from."""

    lambda1: float
    lambda2: float
    power: float
    d_isqrt: np.ndarray  # (L, n) eigenvalues of Phi_l^{-1/2} in the U_l basis
    beta: np.ndarray  # (L, k) water-filling powers of the whitened channels
    vh: np.ndarray  # (L, k, n) their right singular vectors in the U_l basis


@dataclass
class _DualKernel:
    """The L per-symbol subproblems with their lambda1-independent parts
    factored once: A_l = G2^H diag(w_l) G2 = U_l diag(a_l) U_l^H and the
    whitened channels B_l = R_wl^{-1/2} H U_l.

    Phi_l = A_l + lambda1 I shares the eigenvectors U_l, so the whitened
    channel R_wl^{-1/2} H Phi_l^{-1/2} = B_l diag(d_l^{-1/2}) U_l^H with
    d_l = a_l + lambda1, and one stacked SVD of B_l diag(d_l^{-1/2}) gives
    every symbol's singular values; V_l = U_l V'_l.
    """

    a: np.ndarray  # (L, n) ascending
    U: np.ndarray  # (L, n, n)
    B: np.ndarray  # (L, m, n)
    ridge: float

    @classmethod
    def weighted(cls, w_diags: np.ndarray, G2: np.ndarray, whitened: np.ndarray) -> "_DualKernel":
        A = G2.conj().T @ (w_diags[:, :, None] * G2)
        a, U = np.linalg.eigh(hermitize(A))
        ridge = PHI_RIDGE * max(float(np.linalg.norm(G2)) ** 2, 1.0)
        return cls(a=a, U=U, B=whitened @ U, ridge=ridge)

    @classmethod
    def unweighted(cls, whitened: np.ndarray) -> "_DualKernel":
        """A_l = 0: Phi_l = lambda1 I, as in the selfish power minimization."""
        L, _, n = whitened.shape
        return cls(a=np.zeros((L, n)), U=np.broadcast_to(np.eye(n), (L, n, n)),
                   B=whitened, ridge=PHI_RIDGE)

    def singular(self, lambda1: float) -> np.ndarray:
        """Per-symbol mask of a singular Phi_l, where the ridge applies."""
        return self.a[:, 0] + lambda1 <= 0.0

    def whitened_svd(self, lambda1: float):
        """(d^{-1/2}, singular values, V'^H) of every whitened channel at lambda1."""
        d = self.a + lambda1
        d = np.where(self.singular(lambda1)[:, None], d + self.ridge, d)
        d_isqrt = 1.0 / np.sqrt(eig_floor(d))
        _, s, vh = np.linalg.svd(self.B * d_isqrt[:, None, :], full_matrices=False)
        return d_isqrt, s, vh

    def allocate(self, lambda1: float, lambda2: float, d_isqrt, s, vh) -> _DualIterate:
        """Water-fill at level lambda2; power sum_i beta_i ||d^{-1/2} o v'_i||^2."""
        beta = np.where(s > 0, np.maximum(lambda2 - 1.0 / np.maximum(s, 1e-300) ** 2, 0.0), 0.0)
        power = float(np.einsum("lk,lkn,ln->", beta, np.abs(vh) ** 2, d_isqrt**2))
        return _DualIterate(lambda1, lambda2, power, d_isqrt, beta, vh)

    def step(self, lambda1: float, C: float) -> _DualIterate:
        """Dual evaluation at lambda1 with the smallest capacity-feasible lambda2."""
        d_isqrt, s, vh = self.whitened_svd(lambda1)
        lambda2 = min_capacity_multiplier(s.ravel(), C, s.shape[0])
        return self.allocate(lambda1, lambda2, d_isqrt, s, vh)

    def covariances(self, it: _DualIterate) -> np.ndarray:
        """(L, n, n) stack R_l = Phi_l^{-1/2} V_l diag(beta_l) V_l^H Phi_l^{-1/2}."""
        X = self.U @ (it.d_isqrt[:, :, None] * np.swapaxes(it.vh, -1, -2).conj())
        return hermitize((X * it.beta[:, None, :]) @ np.swapaxes(X, -1, -2).conj())


def _whiten(H: np.ndarray, noise: NoiseCovSchedule) -> np.ndarray:
    """(L, M_rC, M_tC) stack of whitened channels R_wl^{-1/2} H."""
    return psd_inv_sqrt(noise.matrices) @ H


def subproblem_solution(
    lambda1: float,
    lambda2: float,
    w_diag: np.ndarray,
    G2: np.ndarray,
    H: np.ndarray,
    R_wl: np.ndarray,
    allow_ridge: bool = True,
) -> np.ndarray:
    """Closed-form minimizer of Tr(Phi R) - lambda2 log2|I + R_w^{-1} H R H^H|.

    Phi = G2^H diag(w) G2 + lambda1 I. The optimum is a water-filling
    allocation in the whitened channel R_w^{-1/2} H Phi^{-1/2}.
    """
    whitened = _whiten(H, NoiseCovSchedule([R_wl]))
    kernel = _DualKernel.weighted(np.asarray(w_diag)[None, :], G2, whitened)
    if kernel.singular(lambda1)[0] and not (allow_ridge and lambda1 >= 0.0):
        raise SolverError("Phi is singular at lambda1 = 0")
    it = kernel.allocate(lambda1, lambda2, *kernel.whitened_svd(lambda1))
    return kernel.covariances(it)[0]


def max_average_capacity(H, noise: NoiseCovSchedule, P_t: float) -> float:
    """Water-filling capacity bound of the block under total power P_t."""
    gains = np.linalg.svd(_whiten(H, noise), compute_uv=False).ravel() ** 2
    powers = water_fill(gains, P_t)
    return float(np.sum(np.log2(1.0 + gains * powers)) / len(noise))


def _objective_eip(weights: WeightSchedule, G2: np.ndarray, schedule: CovarianceSchedule) -> float:
    """The design objective: the weighted interference power, clamped at 0
    so that roundoff never reports a negative power."""
    return max(weighted_eip(weights, interference_diag_matrix(G2, schedule)), 0.0)


def _checked(sol: DesignSolution, C: float, P_t: float = math.inf) -> DesignSolution:
    """Post-conditions of a returned design: Hermitian PSD covariances, power
    within P_t and capacity at least C, both to a 1e-9 relative slack."""
    try:
        sol.schedule.validate()
    except MetricError as exc:
        raise SolverError(f"invalid covariance schedule: {exc}") from exc
    if not sol.consumed_power <= P_t * (1.0 + 1e-9):
        raise SolverError(f"power {sol.consumed_power!r} exceeds the budget {P_t!r}")
    if not sol.achieved_capacity >= C * (1.0 - 1e-9):
        raise SolverError(f"capacity {sol.achieved_capacity!r} is below the target {C!r}")
    return sol


def solve_weighted_eip(
    weights: WeightSchedule,
    H: np.ndarray,
    G2: np.ndarray,
    noise: NoiseCovSchedule,
    P_t: float,
    C: float,
    dual_tol: float = DEFAULT_DUAL_TOL,
    max_iterations: int = 200,
) -> DesignSolution:
    """Minimize the weighted interference power subject to average capacity
    >= C and total power <= P_t, by bisection on the power multiplier.

    Power consumption is nonincreasing in lambda1, so the bracket [lo, hi]
    keeps power(hi) <= P_t < power(lo); the returned iterate comes from the
    power-feasible side.
    """
    L = len(weights)
    if len(noise) != L:
        raise SolverError("weights and noise schedules have different lengths")
    if max_average_capacity(H, noise, P_t) < C:
        raise InfeasibleError(
            f"capacity target {C} unreachable within power budget {P_t}"
        )
    kernel = _DualKernel.weighted(weights.diagonals, G2, _whiten(H, noise))

    iterations = 0
    # Grow the upper bracket endpoint until the power budget is respected.
    hi = 1.0
    it = kernel.step(hi, C)
    iterations += 1
    while it.power > P_t:
        hi *= 2.0
        it = kernel.step(hi, C)
        iterations += 1
        if iterations > max_iterations:
            raise SolverError("failed to bracket the power multiplier")
    lo = 0.0
    best = it
    while hi - lo > dual_tol and iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        it = kernel.step(mid, C)
        iterations += 1
        if it.power < P_t:
            hi = mid
            best = it
        else:
            lo = mid
    schedule = CovarianceSchedule(kernel.covariances(best))
    return _checked(DesignSolution(
        schedule=schedule,
        dual=DualPoint(lambda1=best.lambda1, lambda2=best.lambda2),
        achieved_capacity=average_capacity(schedule, H, noise),
        consumed_power=schedule.total_power,
        objective_eip=_objective_eip(weights, G2, schedule),
        iterations=iterations,
        converged=hi - lo <= dual_tol,
    ), C, P_t)


def solve_selfish(H: np.ndarray, noise: NoiseCovSchedule, C: float) -> DesignSolution:
    """Minimum-power design achieving average capacity C, ignoring the radar.

    Dual of the power objective: the per-symbol subproblem has Phi = I, so
    a single closed-form water-level solve suffices (no bisection).
    """
    kernel = _DualKernel.unweighted(_whiten(H, noise))
    it = kernel.step(1.0, C)
    schedule = CovarianceSchedule(kernel.covariances(it))
    return _checked(DesignSolution(
        schedule=schedule,
        dual=DualPoint(lambda1=0.0, lambda2=it.lambda2),
        achieved_capacity=average_capacity(schedule, H, noise),
        consumed_power=schedule.total_power,
        objective_eip=float("nan"),  # filled by the caller's metric
        iterations=1,
        converged=True,
    ), C)


def verify_solution(
    sol: DesignSolution,
    H: np.ndarray,
    G2: np.ndarray,
    noise: NoiseCovSchedule,
    P_t: float,
    C: float,
    weights: WeightSchedule | None = None,
    other: DesignSolution | None = None,
) -> dict:
    """Feasibility / optimality report for a returned design.

    When weights and a second solution are given, the ordering verdict
    checks that sol's weighted EIP does not exceed the other solution's
    (the structure of the cooperative-vs-noncooperative comparisons).
    """
    report = {}
    try:
        sol.schedule.validate()
        report["psd_ok"] = True
    except Exception:
        report["psd_ok"] = False
    power = sol.schedule.total_power
    report["consumed_power"] = power
    report["power_feasible"] = power <= P_t + 1e-6
    cap = average_capacity(sol.schedule, H, noise)
    report["capacity_gap"] = cap - C
    report["capacity_active"] = abs(cap - C) <= 1e-3
    report["slackness_residual"] = abs(sol.dual.lambda1 * (P_t - power))
    if weights is not None:
        report["objective_eip"] = _objective_eip(weights, G2, sol.schedule)
        if other is not None:
            other_eip = _objective_eip(weights, G2, other.schedule)
            report["other_eip"] = other_eip
            report["ordering_ok"] = report["objective_eip"] <= other_eip + 1e-8
    return report
