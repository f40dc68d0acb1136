"""Capacity- and power-constrained transmit covariance design.

One generic solver handles every method of harness.METHOD_WEIGHTS: they
differ only in the diagonal interference weights. The solver is dual
decomposition with an outer search on the power multiplier lambda1;
for each lambda1 the capacity multiplier lambda2 is found in closed form
by an exact sort-based water-level solve, and the L per-symbol covariances
follow from the closed-form subproblem solution. The search returns the
smallest point of a bisection grid whose power is below P_t, found by
Brent-Dekker steps on the log of power / P_t over log lambda1, with its
lower neighbour (or 0) evaluated at or above P_t as a certificate; a slack
budget takes one evaluation (see _dual_search).

All L subproblems run as one batched kernel over stacked arrays. The parts
that do not depend on lambda1 (the eigendecomposition of G2^H W_l G2 and
the whitened channels B_l = R_wl^{-1/2} H, which the scenario carries, in
its eigenbasis) are factored once per solve; each dual step is then one
stacked Hermitian eigendecomposition of the narrow-side Gram matrices of
the whitened channels, and the power follows in closed form from its
factors. A design is returned as its factors (DesignSolution).
The selfish design is the one with W_l = 0 and takes the same search: A_l = 0
and c_l = 1 at every lambda1, so its power is flat, and a slack budget is
met by the first evaluation. C is reachable within P_t exactly when the
minimum-power (W_l = 0) design fits in it. Every kernel holds that design
as its lambda1 -> inf limit (_DualKernel.min_power); the search asks it
only where it would grow its bracket past lambda1 = 1, since any lambda1
with power within P_t proves feasibility.

The methods differ only in W_l, and only the cooperative weights depend on
the sampling mask, so one design is solved many times over with bit-equal
inputs, and always on one scenario's channels B and G2. The caller passes
the mapping that keeps the designs, the scenario's (Scenario.designs), which
lives as long as the draws; a design is stored there under the exact bytes
(with dtype, shape and layout) of its weights, B, G2, P_t and C, and errors
are never stored. A design passes its post-conditions (_checked) once, when
it is computed; a stored one comes back as the same frozen solution with
read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SpecshareError
from .interference import (MetricError, average_capacity, check_covariances,
                           interference_diag_matrix, total_power)
from .linalg import eig_floor, gram_spectrum, hermitize

# The search on lambda1 shrinks its bracket to DUAL_TOL, within
# MAX_DUAL_EVALUATIONS dual evaluations counting the bracket growth.
DUAL_TOL = 1e-9
MAX_DUAL_EVALUATIONS = 200


class InfeasibleError(SpecshareError):
    """The capacity target is unreachable within the power budget."""


class SolverError(SpecshareError):
    pass


@dataclass(frozen=True)
class DesignSolution:
    """A design R_l = X_l diag(d_l) X_l^H, its profile Q and its search's record."""

    X: np.ndarray  # (L, M_tC, k) transmit directions
    d: np.ndarray  # (L, k) their powers, >= 0
    Q: np.ndarray  # (M_rR, L) interference profile
    lambda1: float  # power multiplier: the lowest grid point, 2^-30, when P_t is slack
    lambda2: float  # capacity multiplier
    achieved_capacity: float
    consumed_power: float  # the power the search certified within P_t
    iterations: int
    converged: bool


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
    # A level near 2**1023 times a gain above 1 overflows to inf, which compares correctly.
    with np.errstate(over="ignore"):
        kth_active = levels * g >= 1.0 - 1e-12
        next_inactive = np.append(levels[:-1] * g[1:] <= 1.0 + 1e-12, True)
    consistent = np.flatnonzero(kth_active & next_inactive)
    k = consistent[0] if consistent.size else g.size - 1
    if exponent[k] >= 1024.0:
        raise InfeasibleError(f"capacity target {C} unreachable: water level past the float range")
    # Scalar power at the chosen k (vectorized pow can differ in the last
    # bit); nudge up so the achieved sum never rounds below the target.
    return 2.0 ** exponent[k] * (1.0 + 4e-12)


@dataclass
class _DualIterate:
    """One dual evaluation: the multipliers, the power and the factors of
    its design, of the subproblem scaled by 1/lambda1 (_DualKernel)."""

    lambda1: float
    lambda2: float
    power: float
    s: np.ndarray  # (L, k) singular values of the scaled whitened channels, descending
    beta: np.ndarray  # (L, k) their water-filling powers
    T: np.ndarray  # (L, n, k) columns diag(c_l) B_l^H u_i in the U_l basis


@dataclass
class _DualKernel:
    """The L per-symbol subproblems with their lambda1-independent parts
    factored once: A_l = G2^H diag(w_l) G2 = U_l diag(a_l) U_l^H and the
    whitened channels B_l = R_wl^{-1/2} H U_l.

    Phi_l = A_l + lambda1 I shares the eigenvectors U_l, with eigenvalues
    d_l = a_l + lambda1. The kernel solves each subproblem scaled by
    1/lambda1: Phi_l / lambda1 has the inverse diag(c_l) in the U_l basis,
    c_l = lambda1/d_l in (0, 1], and its whitened channel is B'_l = B_l
    diag(c_l)^{1/2}. One stacked eigh of the narrow-side Gram matrix of B'_l
    gives the singular values s_i and the columns T_i = diag(c_l)^{1/2}
    B'_l^H u_i = diag(c_l)^{1/2} v'_i s_i; a power beta_i along v'_i costs
    beta_i ||T_i||^2 / s_i^2. Where w_l = 0, c_l = 1 exactly, so those
    symbols' factors do not depend on lambda1 bit for bit.
    A gain s_i^2 is exact to about eps*s_1^2 absolute (linalg.gram_spectrum).
    """

    a: np.ndarray  # (L, n) ascending
    U: np.ndarray  # (L, n, n)
    B: np.ndarray  # (L, m, n)

    @classmethod
    def weighted(cls, w_diags: np.ndarray, G2: np.ndarray, whitened: np.ndarray) -> "_DualKernel":
        A = G2.conj().T @ (w_diags[:, :, None] * G2)
        a, U = np.linalg.eigh(hermitize(A))
        return cls(a=a, U=U, B=whitened @ U)

    def spectrum(self, lambda1: float):
        """(s, T) of every scaled whitened channel at lambda1 > 0; eig_floor
        keeps c_l positive where Phi_l is singular."""
        c = lambda1 / eig_floor(self.a + lambda1)
        root = np.sqrt(c)[:, :, None]
        X = self.B * np.swapaxes(root, -1, -2)
        s, A, V = gram_spectrum(X)
        # V holds the u_i when A = X^H, and the v'_i when A = X.
        return s, root * (V * s[:, None, :] if A is X else A @ V)

    def allocate(self, lambda1: float, level: float, s, T) -> _DualIterate:
        """Water-fill the scaled channels at level = lambda2 / lambda1; power
        sum_i beta_i ||T_i||^2 / s_i^2. A gain s^2 whose inverse is not finite
        (a zero singular value, as of a comm antenna that hears nothing) gets no power."""
        gain = s**2
        inv_gain = np.divide(1.0, gain, out=np.full_like(gain, np.inf),
                             where=gain > 1.0 / np.finfo(float).max)
        beta = np.maximum(level - inv_gain, 0.0)
        power = float(np.einsum("lk,lnk->", _per_gain(beta, gain), np.abs(T) ** 2))
        return _DualIterate(lambda1, level * lambda1, power, s, beta, T)

    def step(self, lambda1: float, C: float) -> _DualIterate:
        """Dual evaluation at lambda1 with the smallest capacity-feasible lambda2."""
        s, T = self.spectrum(lambda1)
        return self.allocate(lambda1, min_capacity_multiplier(s.ravel(), C, s.shape[0]), s, T)

    def min_power(self, C: float) -> float:
        """The power of the minimum-power (W_l = 0) design: the lambda1 -> inf
        limit, where c_l = 1, taken by one step on the same U_l and B_l."""
        return _DualKernel(np.zeros_like(self.a), self.U, self.B).step(1.0, C).power

    def factors(self, it: _DualIterate) -> tuple[np.ndarray, np.ndarray]:
        """(X, d) of the design: X_l = U_l T_l and d_l = beta_l / s_l^2."""
        return self.U @ it.T, _per_gain(it.beta, it.s**2)


def _per_gain(beta: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """beta / gain, 0 where beta is 0 (a positive beta has a positive gain)."""
    return np.divide(beta, gain, out=np.zeros_like(beta), where=beta > 0)


def _checked(X: np.ndarray, d: np.ndarray, B: np.ndarray, G2: np.ndarray, C: float,
             P_t: float, **fields) -> DesignSolution:
    """The DesignSolution of the factors once its post-conditions hold:
    check_covariances, the factors' power within P_t and capacity at least
    C, both to a 1e-9 relative slack."""
    try:
        check_covariances(X, d)
    except MetricError as exc:
        raise SolverError(f"invalid covariance schedule: {exc}") from exc
    power = total_power(X, d)
    if not power <= P_t * (1.0 + 1e-9):
        raise SolverError(f"power {power!r} exceeds the budget {P_t!r}")
    capacity = average_capacity(B, X, d)
    if not capacity >= C * (1.0 - 1e-9):
        raise SolverError(f"capacity {capacity!r} is below the target {C!r}")
    return DesignSolution(X=X, d=d, Q=interference_diag_matrix(G2, X, d),
                          achieved_capacity=capacity, **fields)


def _log_ratio(power: float, P_t: float) -> float:
    """log(power / P_t), NaN where it is not finite."""
    ratio = power / P_t
    return math.log(ratio) if 0.0 < ratio < math.inf else math.nan


def _brent_step(x_a, g_a, x_b, g_b, x_c, g_c, d, e) -> tuple[float, float]:
    """Brent-Dekker's next step from x_b toward a root of g bracketed by x_b
    and x_c, with x_a the estimate before x_b and d, e the last two steps:
    (step, the step before it). Inverse quadratic interpolation through the
    three points, or the secant where x_a is x_c, is taken when it stays
    within three quarters of the bracket and is shorter than half of e;
    otherwise, or where a g is not finite or g_b is 0, the midpoint."""
    half = 0.5 * (x_c - x_b)
    if g_b != 0.0 and abs(g_a) > abs(g_b) and all(map(math.isfinite, (g_a, g_b, g_c))):
        s = g_b / g_a
        if x_a == x_c:
            p, q = 2.0 * half * s, 1.0 - s
        else:
            q, r = g_a / g_c, g_b / g_c
            p = s * (2.0 * half * q * (q - r) - (x_b - x_a) * (r - 1.0))
            q = (q - 1.0) * (r - 1.0) * (s - 1.0)
        if p > 0.0:
            q = -q
        p = abs(p)
        if 2.0 * p < min(3.0 * half * q, abs(e * q)):
            return p / q, d
    return half, half


def _dual_search(kernel: _DualKernel, C: float, P_t: float, dual_tol: float,
                 max_iterations: int) -> tuple[_DualIterate, int, bool]:
    """The search on lambda1, 0 < dual_tol < 1: (iterate, dual evaluations,
    converged). InfeasibleError unless the kernel's minimum-power design
    fits in P_t (kernel.min_power), asked before the bracket top grows past
    1, and never for a budget met at lambda1 <= 1.

    Power is nonincreasing in lambda1. The bracket top hi = 2^m is the first
    power of two from 1 up with power(hi) <= P_t; the answer is the smallest
    point of the grid k * hi * 2^-n (n the halvings from hi that reach
    dual_tol) whose power is below P_t, or hi if there is none. The lowest
    grid point, the largest power of two <= dual_tol whatever m is, comes
    first: below P_t, it is the answer (the budget is slack), certified by
    lambda1 = 0; otherwise it is the lower end, or hi / 2 is if the bracket
    grew. When power(hi) equals P_t, its lower neighbour comes next: it
    certifies hi, or is below P_t and replaces it. Then Brent-Dekker steps
    (_brent_step) on g = log(power(lambda1) / P_t) over log(lambda1), as
    the bracket spans about 30 octaves, each rounded to a grid point
    strictly inside the bracket, with a midpoint wherever g is not finite;
    after n of them, midpoints. The search stops when the ends are neighbouring
    grid points, or after max_iterations evaluations, and returns the top
    end. converged says whether the bracket is then at most dual_tol wide;
    its lower end, evaluated at or above P_t, certifies the answer.
    """
    grid = math.ldexp(1.0, math.frexp(dual_tol)[1] - 1)
    hi, best, evaluations = grid, kernel.step(grid, C), 1
    if best.power < P_t:
        return best, evaluations, True
    # Grow the bracket top from 1 until the power budget is respected;
    # written so that a NaN power or budget is infeasible.
    while hi < 1.0 or not best.power <= P_t:
        if hi == 1.0 and not kernel.min_power(C) <= P_t:
            raise InfeasibleError(f"capacity target {C} unreachable within power budget {P_t}")
        if evaluations >= max_iterations:
            raise SolverError("failed to bracket the power multiplier")
        below, hi = best, max(2.0 * hi, 1.0)
        best = kernel.step(hi, C)
        evaluations += 1
    # The ends as grid indices: powers of two over a power of two, exact.
    top, g_top = int(hi / grid), _log_ratio(best.power, P_t)
    low, g_low = int(below.lambda1 / grid), _log_ratio(below.power, P_t)
    n = top.bit_length() - 1  # the halvings from hi to the grid
    # Brent-Dekker state, points as grid indices k with x = log(k): b the
    # last point, a the estimate before it, c the other end; d the last
    # step in x and e the one before it.
    a, g_a, b, g_b = low, g_low, top, g_top
    steps = 0
    while top - low > 1 and evaluations < max_iterations:
        c, g_c = (low, g_low) if b == top else (top, g_top)
        if c == a:  # the first step, or b crossed the root: a and b are the ends
            d = e = math.log(b / a)
        if abs(g_c) < abs(g_b):  # b becomes the end nearer the root
            a, g_a, b, g_b, c, g_c = b, g_b, c, g_c, b, g_b
        if best.power == P_t:
            # Only the bracket top can tie P_t: its lower neighbour, at or
            # above P_t, certifies it, and below P_t replaces it.
            k = top - 1
        elif steps < n:
            d, e = _brent_step(math.log(a), g_a, math.log(b), g_b, math.log(c), g_c, d, e)
            k = min(max(round(b * math.exp(d)), low + 1), top - 1)
            d = math.log(k / b)
            steps += 1
        else:
            k = (low + top) // 2
        it = kernel.step(k * grid, C)
        evaluations += 1
        g = _log_ratio(it.power, P_t)
        if it.power < P_t:
            best, top, g_top = it, k, g
        else:
            low, g_low = k, g
        a, g_a, b, g_b = b, g_b, k, g
    return best, evaluations, (top - low) * grid <= dual_tol


def _exact(*values) -> tuple:
    """dtype, shape, strides and bytes of each value: two keys are equal
    exactly when the values are the same arrays bit for bit, laid out alike
    (a transposed layout can send a product down another BLAS path)."""
    return tuple((a.dtype.str, a.shape, a.strides, a.tobytes()) for a in map(np.asarray, values))


def solve_weighted_eip(
    weights: np.ndarray,
    B: np.ndarray,
    G2: np.ndarray,
    P_t: float,
    C: float,
    designs: dict,
) -> DesignSolution:
    """Minimize the weighted interference power subject to average capacity
    >= C and total power <= P_t, by a search on the power multiplier
    (_dual_search). weights is the (L, M_rR) array of the diagonals of the
    W_l, B the (L, M_rC, M_tC) whitened channels R_wl^{-1/2} H (Scenario.B);
    zero weights give the selfish (minimum-power) design.

    InfeasibleError: C needs more power than P_t even in the minimum-power
    design; the search tests it before its bracket grows past lambda1 = 1.
    converged says whether the search's bracket reached DUAL_TOL within
    MAX_DUAL_EVALUATIONS. iterations counts the dual evaluations made: 1
    when the power budget is slack and 6 to 13 when it binds (the
    benchmark's p-sweep, seeds 0-63), where a bisection makes 31.
    designs maps _exact(weights, B, G2, P_t, C) to the solution of those
    inputs: a stored one is returned, a cold solve stored. Pass the
    scenario's mapping (Scenario.designs), or {} for no reuse.
    MetricError: B is not finite.
    """
    if len(B) != len(weights):
        raise SolverError("weights and whitened channels have different lengths")
    if weights.shape[1] != G2.shape[0]:
        raise SolverError(f"weights cover {weights.shape[1]} radar antennas, G2 has {G2.shape[0]}")
    key = _exact(weights, B, G2, P_t, C)
    if key in designs:
        return designs[key]
    if not np.all(np.isfinite(B)):
        raise MetricError("whitened channel is not finite")

    kernel = _DualKernel.weighted(weights, G2, B)
    best, iterations, converged = _dual_search(kernel, C, P_t, DUAL_TOL, MAX_DUAL_EVALUATIONS)
    sol = _checked(*kernel.factors(best), B, G2, C, P_t, lambda1=best.lambda1,
                   lambda2=best.lambda2, consumed_power=best.power, iterations=iterations,
                   converged=converged)
    for a in (sol.X, sol.d, sol.Q):
        a.flags.writeable = False
    designs[key] = sol
    return sol
