"""Capacity- and power-constrained transmit covariance design.

One generic solver handles the noncooperative (TIP), cooperative (EIP_I),
partially cooperative (IP_FMFB) and fully cooperative (EIP_II) problems:
they differ only in the diagonal interference weights. The solver is dual
decomposition with an outer bisection on the power multiplier lambda1;
for each lambda1 the capacity multiplier lambda2 is found in closed form
by an exact sort-based water-level solve, and the L per-symbol covariances
follow from the closed-form subproblem solution. The search returns the
bisection's own iterate but evaluates only the midpoints that earlier
evaluations do not settle (see _dual_search).

All L subproblems run as one batched kernel over stacked arrays. The parts
that do not depend on lambda1 (the eigendecomposition of G2^H W_l G2 and
the whitened channels R_wl^{-1/2} H in its eigenbasis) are factored once per
solve; each dual step is then one stacked SVD, and the power follows in
closed form from its factors. Covariance matrices are built only for the
returned iterate. The selfish design (W_l = 0, lambda1 = 1) runs through
the same kernel and is the feasibility test: C is reachable within P_t
exactly when the minimum-power design fits in it. linalg.eig_floor is the
only guard against a singular Phi_l; the search evaluates lambda1 > 0 only.

The methods differ only in W_l, and only the cooperative weights depend on
the sampling mask, so one design problem is solved many times over with
bit-equal inputs. Solves are memoized for one problem at a time: its key is
the exact bytes (with dtype, shape and layout) of H, the noise stack and
C; it holds the whitened channels, the selfish step and the last few
designs, keyed by the exact bytes of the weights and G2 and by P_t. A
problem that differs in any bit replaces the one held; errors are never
memoized. A design passes its post-conditions (_checked) once, when
it is computed; a memoized one comes back as the same frozen solution with
a read-only covariance stack.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .config import SpecshareError
from .interference import MetricError, average_capacity, check_covariances, total_power
from .linalg import eig_floor, hermitize, psd_inv_sqrt

# The bisection on lambda1 shrinks its bracket to DUAL_TOL, within
# MAX_DUAL_EVALUATIONS dual evaluations counting the bracket growth.
DUAL_TOL = 1e-9
MAX_DUAL_EVALUATIONS = 200

# Fewest bisection halvings for which the dual search probes ahead of the
# bisection's own midpoints. A probe that misses costs one evaluation more
# than the bisection and only the halvings it settles pay it back: on random
# instances probing saved at least 4 of 20 halvings and 12 of 30, and cost
# up to 3 evaluations more than the bisection below 10.
_MIN_PROBE_HALVINGS = 20

# Relative gap to P_t beyond which an evaluated power settles the bisection
# decisions on its side of lambda1 (see _dual_search). The computed power
# rose by up to 3.2e-14 relative where lambda1 grew, on the benchmark's
# instances, so the gap leaves a factor of about 300 for its rounding.
_POWER_RTOL = 1e-11

# Designs memoized per problem (see _Problem); an L = 128 design with its
# key takes about 100 KB.
_MEMO_SIZE = 8


class InfeasibleError(SpecshareError):
    """The capacity target is unreachable within the power budget."""


class SolverError(SpecshareError):
    pass


@dataclass(frozen=True)
class DesignSolution:
    schedule: np.ndarray  # (L, M_tC, M_tC) transmit covariances
    lambda1: float  # power multiplier (0 for the selfish design)
    lambda2: float  # capacity multiplier
    achieved_capacity: float
    consumed_power: float
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

    @classmethod
    def weighted(cls, w_diags: np.ndarray, G2: np.ndarray, whitened: np.ndarray) -> "_DualKernel":
        A = G2.conj().T @ (w_diags[:, :, None] * G2)
        a, U = np.linalg.eigh(hermitize(A))
        return cls(a=a, U=U, B=whitened @ U)

    @classmethod
    def unweighted(cls, whitened: np.ndarray) -> "_DualKernel":
        """A_l = 0: Phi_l = lambda1 I, as in the selfish power minimization."""
        L, _, n = whitened.shape
        return cls(a=np.zeros((L, n)), U=np.broadcast_to(np.eye(n), (L, n, n)), B=whitened)

    def whitened_svd(self, lambda1: float):
        """(d^{-1/2}, singular values, V'^H) of every whitened channel at
        lambda1 > 0; eig_floor keeps d^{-1/2} finite where A_l is singular."""
        d_isqrt = 1.0 / np.sqrt(eig_floor(self.a + lambda1))
        _, s, vh = np.linalg.svd(self.B * d_isqrt[:, None, :], full_matrices=False)
        return d_isqrt, s, vh

    def allocate(self, lambda1: float, lambda2: float, d_isqrt, s, vh) -> _DualIterate:
        """Water-fill at level lambda2; power sum_i beta_i ||d^{-1/2} o v'_i||^2.
        A gain s^2 whose inverse is not finite (a zero singular value, as of
        a comm antenna that hears nothing) gets no power."""
        gain = s**2
        inv_gain = np.divide(1.0, gain, out=np.full_like(gain, np.inf),
                             where=gain > 1.0 / np.finfo(float).max)
        beta = np.maximum(lambda2 - inv_gain, 0.0)
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


def _whiten(H: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """(L, M_rC, M_tC) stack of whitened channels R_wl^{-1/2} H."""
    return psd_inv_sqrt(noise) @ H


def _checked(schedule: np.ndarray, H: np.ndarray, noise: np.ndarray, C: float,
             P_t: float, **fields) -> DesignSolution:
    """The design of the covariance stack, with its capacity and power and
    the other DesignSolution fields, once its post-conditions hold: Hermitian
    PSD covariances, power within P_t and capacity at least C, both to a
    1e-9 relative slack."""
    try:
        check_covariances(schedule)
    except MetricError as exc:
        raise SolverError(f"invalid covariance schedule: {exc}") from exc
    power = total_power(schedule)
    if not power <= P_t * (1.0 + 1e-9):
        raise SolverError(f"power {power!r} exceeds the budget {P_t!r}")
    capacity = average_capacity(schedule, H, noise)
    if not capacity >= C * (1.0 - 1e-9):
        raise SolverError(f"capacity {capacity!r} is below the target {C!r}")
    return DesignSolution(schedule=schedule, achieved_capacity=capacity,
                          consumed_power=power, **fields)


def _dual_search(kernel: _DualKernel, C: float, P_t: float, dual_tol: float,
                 max_iterations: int) -> tuple[_DualIterate, int, bool]:
    """The bisection on lambda1: (iterate, dual evaluations, converged).

    The iterate is bit for bit the one the plain bisection returns: grow
    hi = 2^m until power(hi) <= P_t; from lo = 0, while hi - lo > dual_tol
    and fewer than max_iterations evaluations were made, move hi to the
    midpoint if its power is below P_t and lo otherwise; return the iterate
    at the final hi. Only evaluations that cannot change that answer are
    left out. Power is nonincreasing in lambda1, so a midpoint at or above a
    point with power clearly below P_t moves hi, and one at or below a point
    with power clearly at or above P_t moves lo, without being evaluated.
    Every midpoint is a point of the grid of the n halvings the loop makes,
    and probes on that grid (see _probe) narrow the part still open before
    the n decisions are replayed.
    """
    cache: dict[float, _DualIterate] = {}

    def evaluate(lambda1: float) -> _DualIterate:
        if lambda1 not in cache:
            cache[lambda1] = kernel.step(lambda1, C)
        return cache[lambda1]

    # Grow the upper bracket endpoint until the power budget is respected.
    hi = 1.0
    while evaluate(hi).power > P_t:
        if len(cache) >= max_iterations:
            raise SolverError("failed to bracket the power multiplier")
        hi *= 2.0
    bracketed = len(cache)
    # The midpoints are exact grid points for up to 52 halvings, which the
    # probes need; the count stops at 53, which stands for any more.
    halvings, width = 0, hi
    while width > dual_tol and bracketed + halvings < max_iterations and halvings <= 52:
        width *= 0.5
        halvings += 1
    # "Clearly" means by more than the rounding of the computed power, which
    # is not monotone at about 1e-14 relative; a point closer to P_t decides
    # only its own midpoint.
    margin = _POWER_RTOL * abs(P_t)
    if _MIN_PROBE_HALVINGS <= halvings <= 52 and cache[hi].power < P_t - margin:
        last_grown = 0.5 * hi if hi > 1.0 else 0.0  # power > P_t there
        _probe(evaluate, P_t, math.ldexp(hi, -halvings), last_grown, hi, budget=halvings)
    below = max((lam for lam, it in cache.items() if it.power >= P_t + margin), default=0.0)
    above = min((lam for lam, it in cache.items() if it.power < P_t - margin), default=math.inf)

    lo, steps = 0.0, bracketed
    while hi - lo > dual_tol and steps < max_iterations:
        mid = 0.5 * (lo + hi)
        steps += 1
        if mid in cache or below < mid < above:
            power = evaluate(mid).power
            if power < P_t:
                hi = mid
                if power < P_t - margin:
                    above = min(above, mid)
            else:
                lo = mid
                if power >= P_t + margin:
                    below = max(below, mid)
        elif mid >= above:
            hi = mid
        else:
            lo = mid
    best = evaluate(hi)  # evaluated already unless a probe was off the grid
    return best, len(cache), hi - lo <= dual_tol


def _probe(evaluate, P_t: float, grid: float, below: float, above: float, budget: int) -> None:
    """Evaluate at most budget grid points between below and above (power
    >= P_t at below, < P_t at above) that home in on where power crosses P_t.

    The lowest grid point comes first: if its power is below P_t, the budget
    is slack and it settles every midpoint. Then Illinois steps on
    power(lambda1) - P_t, taken in log(lambda1) because the bracket spans
    about 30 octaves, each rounded to a grid point strictly inside the
    bracket, until the bracket ends are neighbouring grid points.
    """
    lo, hi = round(below / grid), round(above / grid)
    if lo == 0:
        budget -= 1
        if evaluate(grid).power < P_t:
            return
        lo = 1
    f_lo, f_hi = (evaluate(k * grid).power - P_t for k in (lo, hi))
    moved = 0  # the end the last probe replaced: -1 lo, +1 hi
    for _ in range(budget):
        if hi - lo <= 1:
            return
        # The secant root in log(lambda1); a non-finite or degenerate weight
        # falls back to the geometric midpoint.
        t = f_hi / (f_hi - f_lo)
        if not 0.0 < t < 1.0:
            t = 0.5
        k = round(math.exp(math.log(hi) - t * math.log(hi / lo)))
        k = min(max(k, lo + 1), hi - 1)
        power = evaluate(k * grid).power
        # Illinois: an end kept twice in a row has its value halved.
        if power < P_t:
            if moved > 0:
                f_lo *= 0.5
            hi, f_hi, moved = k, power - P_t, 1
        else:
            if moved < 0:
                f_hi *= 0.5
            lo, f_lo, moved = k, power - P_t, -1


def _exact(*values) -> tuple:
    """dtype, shape, strides and bytes of each value: two keys are equal
    exactly when the values are the same arrays bit for bit, laid out alike
    (a transposed layout can send a product down another BLAS path)."""
    return tuple((a.dtype.str, a.shape, a.strides, a.tobytes()) for a in map(np.asarray, values))


@dataclass
class _Problem:
    """One design problem (H, noise, C) and what its designs share: the
    whitened channels and the selfish step, which is also the feasibility
    test. designs holds up to _MEMO_SIZE checked solutions, the least
    recently used dropped first; the selfish design is under None and the
    weighted ones under _exact(weights, G2, P_t)."""

    key: tuple
    whitened: np.ndarray
    selfish: _DualIterate
    designs: OrderedDict = field(default_factory=OrderedDict)

    def design(self, key, solve) -> DesignSolution:
        if key in self.designs:
            self.designs.move_to_end(key)
            return self.designs[key]
        sol = solve()  # an error propagates and nothing is kept
        sol.schedule.flags.writeable = False
        self.designs[key] = sol
        if len(self.designs) > _MEMO_SIZE:
            self.designs.popitem(last=False)
        return sol


# The problem of the last solve; one that differs in any bit replaces it.
# It takes no lock: the harness and joint_design solve on one thread.
_memo: _Problem | None = None


def _problem(H: np.ndarray, noise: np.ndarray, C: float, P_t: float) -> _Problem:
    """The problem (H, noise, C), memoized; InfeasibleError unless its
    minimum-power design fits in P_t."""
    global _memo
    key = _exact(H, noise, C)
    if _memo is None or _memo.key != key:
        whitened = _whiten(H, noise)
        _memo = _Problem(key, whitened, _DualKernel.unweighted(whitened).step(1.0, C))
    # Written so that a NaN power is infeasible too.
    if not _memo.selfish.power <= P_t:
        raise InfeasibleError(f"capacity target {C} unreachable within power budget {P_t}")
    return _memo


def solve_weighted_eip(
    weights: np.ndarray,
    H: np.ndarray,
    G2: np.ndarray,
    noise: np.ndarray,
    P_t: float,
    C: float,
) -> DesignSolution:
    """Minimize the weighted interference power subject to average capacity
    >= C and total power <= P_t, by bisection on the power multiplier.
    weights is the (L, M_rR) array of the diagonals of the W_l.

    InfeasibleError: C needs more power than P_t even in the minimum-power
    (selfish) design. Power consumption is nonincreasing in lambda1, so the
    bracket [lo, hi] keeps power(hi) <= P_t <= power(lo); the returned
    iterate comes from the power-feasible side. converged says whether the
    bracket reached DUAL_TOL within MAX_DUAL_EVALUATIONS; the iterate is the
    bisection's bit for bit. iterations counts the dual evaluations made:
    2 when the power budget is slack and about 8 to 18 when it binds, where
    the bisection makes 31. A repeated call with bit-equal inputs returns
    the memoized solution.
    """
    if len(noise) != len(weights):
        raise SolverError("weights and noise schedules have different lengths")
    if weights.shape[1] != G2.shape[0]:
        raise SolverError(f"weights cover {weights.shape[1]} radar antennas, G2 has {G2.shape[0]}")
    problem = _problem(H, noise, C, P_t)

    def solve():
        kernel = _DualKernel.weighted(weights, G2, problem.whitened)
        best, iterations, converged = _dual_search(kernel, C, P_t, DUAL_TOL, MAX_DUAL_EVALUATIONS)
        return _checked(kernel.covariances(best), H, noise, C, P_t,
                        lambda1=best.lambda1, lambda2=best.lambda2,
                        iterations=iterations, converged=converged)

    return problem.design(_exact(weights, G2, P_t), solve)


def solve_selfish(H: np.ndarray, noise: np.ndarray, C: float, P_t: float) -> DesignSolution:
    """Minimum-power design achieving average capacity C, ignoring the radar.

    Dual of the power objective: the per-symbol subproblem has Phi = I, so
    a single closed-form water-level solve suffices (no bisection). It is
    the step the weighted solves of the same (H, noise, C) test feasibility
    with, and is memoized with them. InfeasibleError: the design needs more
    power than P_t, the same test as solve_weighted_eip's.
    """
    problem = _problem(H, noise, C, P_t)

    def solve():
        it = problem.selfish
        return _checked(_DualKernel.unweighted(problem.whitened).covariances(it), H, noise, C, P_t,
                        lambda1=0.0, lambda2=it.lambda2, iterations=1, converged=True)

    return problem.design(None, solve)
