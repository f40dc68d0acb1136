"""Sampling-mask optimization by row/column permutation.

The mask objective Tr(Omega^T Q~) is minimized over the permutation orbit
of the initial mask by column and row steps, each a minimum-cost linear
assignment (hungarian, Klein's cycle cancelling from the identity, optimal to
within n^3 * eps * max|C|), up to their fixed point. Permutations preserve the
mask's singular values, hence its spectral gap and completability. The joint
design alternates this search with the weighted covariance design, from the
one initial mask it is given, until the mask search lowers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interference import MetricError, scheme_mask_cost, scheme_weights, weighted_eip
from .config import ScenarioConfig
from .covdesign import DesignSolution, solve_weighted_eip

# optimize_mask takes at most _MAX_SWEEPS column steps and as many row steps;
# joint_design at most _MAX_OUTER covariance solves.
_MAX_SWEEPS = 100
_MAX_OUTER = 50


class Permutation(np.ndarray):
    """A permutation array perm (row i takes column perm[i]), as hungarian
    returns it; perm.permutation, which perfbench/tracer.py reads, is perm."""
    permutation = property(lambda self: self)


@dataclass
class JointDesignResult:
    solution: DesignSolution
    mask: np.ndarray  # the final binary mask omega
    eip_trace: list
    outer_iterations: int


def hungarian(cost: np.ndarray) -> Permutation:
    """A minimum-cost linear assignment of a square cost C as a permutation
    array perm: row i takes column perm[i]. A non-square cost raises
    ValueError.

    Klein's cycle-cancelling algorithm, from the candidate pi = identity.
    A permutation's cost minus that of pi is the summed weight of its cycles
    in the exchange digraph of pi (arc weights C[i, pi(j)] - C[i, pi(i)],
    see _arc_weights), so pi is optimal exactly when no cycle there is
    negative. Each round runs one cycle search (_cycle_rows, a Bellman-Ford
    that counts a relaxation only when it gains more than the tolerance
    margin / n, with margin = n^3 * eps * max|C|) and ends in one of two
    ways:

    1. Certified: a relaxation round changes nothing, so every cycle of k
       arcs weighs at least -k * margin / n. The cycles of another
       permutation are disjoint and have at most n arcs in all, so no
       permutation costs less than pi by more than the margin, and pi is
       the answer.
    2. Cancelled: the search returns disjoint cycles, each weighing less
       than -margin / n. Each is rotated into pi (every row on it takes the
       next row's column), which lowers the cost of pi by that much, and
       the next round searches again. No pi repeats, so the rounds end.

    So when one assignment beats every other by more than the margin, the
    answer is that unique optimum. Ties and near-ties within the margin
    (as in constant, integer or binary costs) are settled by where
    cancellation from the identity stops: the answer is deterministic and
    optimal to within the margin, but need not be the lowest-index
    optimum. Cycle cancelling has no polynomial bound on its rounds. On the
    costs the joint design builds, whose optimum lies a few cycles from the
    identity, it takes a few rounds; a dense random cost far from the
    identity takes many (on a 2-core x86-64 host, 5 ms at n = 128 and 0.3 s
    at n = 512).

    The cost is copied to C order first, so every kernel sees one layout
    whatever the caller passes (the arc weights gather columns of the cost,
    about 1.8 times slower from a Fortran-ordered one at n = 128).
    """
    cost = np.ascontiguousarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be a square matrix, got shape {cost.shape}")
    if np.isnan(cost).any():
        raise ValueError("cost matrix contains NaN")
    if np.isinf(cost).any():
        raise ValueError("cost matrix contains infinite entries")
    perm = np.arange(cost.shape[0])
    if cost.size:
        margin = _certificate_margin(cost)
        while cycles := _cycle_rows(_arc_weights(cost, perm), margin):
            for cycle in cycles:
                perm[cycle] = perm[np.roll(cycle, -1)]
    return perm.view(Permutation)


def _certificate_margin(cost: np.ndarray) -> float:
    """n^3 * eps * max|C|: assignments within it of the optimum count as ties."""
    return cost.shape[0] ** 3 * np.finfo(float).eps * float(np.abs(cost).max())


def _arc_weights(cost: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """D_ij = C[i, perm[j]] - C[i, perm[i]], what row i adds to the cost by
    taking row j's column, with +inf on the diagonal: a permutation's cost
    minus that of perm is the summed weight of its cycles in this digraph.
    A new C-ordered array (cost[:, perm] would come out Fortran-ordered)."""
    D = cost.take(perm, axis=1)
    D -= D.diagonal().copy()[:, None]
    np.fill_diagonal(D, np.inf)
    return D


def _cycle_rows(D: np.ndarray, margin: float) -> list:
    """hungarian's cycle search over the arc weights D of a candidate (see
    _arc_weights). Returns an empty list when the candidate is optimal to
    within the margin, which certifies it, and otherwise disjoint cycles,
    each weighing less than -margin / n, for the candidate to cancel. A
    cycle is an array of rows in which each row takes the next row's
    column.

    Bellman-Ford relaxes from a virtual source, joined to every row by a
    zero arc, and relaxes an arc only when that lowers a distance by more
    than the tolerance margin / n. A round that relaxes nothing leaves
    dist[i] <= dist[j] + D_ij + tolerance for every i != j, and summed
    around a cycle of k arcs this says that it weighs at least
    -k * tolerance. After a round that relaxes an arc, the parent graph is
    searched for cycles, and the first round that has any returns them.

    Termination: every row keeps dist[i] >= dist[parent] + D on its parent
    arc, and a round relaxes only from the distances it started with, so
    summed around a cycle closed in that round these give less than
    -tolerance (at least one of its arcs was relaxed in the round, by more
    than the tolerance). While the parent graph has no cycle, dist[i] is at
    least the weight of the parent path to i, which is bounded below, and
    each relaxation lowers a distance by more than the tolerance, so the
    search certifies or finds a cycle after finitely many rounds.

    The search runs on the reversed digraph, whose cycles are those of D
    reversed, with the same weights. There row i of D holds the arcs into
    i, so each round is one (n, n) add and an argmin along contiguous rows,
    and a row's parent is the row whose column it would take.
    """
    n = D.shape[0]
    tolerance = margin / n
    dist = np.zeros(n)
    parent = np.full(n + 1, n)  # n is the virtual source, its own parent
    heads = np.arange(n)
    reach = np.empty_like(D)
    while True:
        np.add(D, dist, out=reach)  # reach[i, j]: dist[j] plus the arc j -> i
        tail = reach.argmin(axis=1)
        best = reach[heads, tail]
        better = best < dist - tolerance
        if not better.any():
            return []
        dist[better] = best[better]
        parent[:n][better] = tail[better]
        cycles = _parent_cycles(parent)
        if cycles:
            return cycles


def _parent_cycles(parent: np.ndarray) -> list:
    """The cycles of the parent graph (every row has one parent, the
    virtual source n is its own), each an array of its rows."""
    ancestor = parent
    for _ in range(parent.size.bit_length()):
        ancestor = ancestor[ancestor]  # parent^(2^k): on a cycle once 2^k >= n + 1
    on_cycle = np.zeros(parent.size, dtype=bool)
    on_cycle[ancestor] = True
    on_cycle[-1] = False
    cycles = []
    for start in np.flatnonzero(on_cycle):
        if not on_cycle[start]:
            continue  # on a cycle already walked
        cycle = [start]
        while parent[cycle[-1]] != start:
            cycle.append(parent[cycle[-1]])
        on_cycle[cycle] = False
        cycles.append(np.array(cycle, dtype=np.intp))
    return cycles


def mask_objective(omega: np.ndarray, Qtilde: np.ndarray) -> float:
    """Tr(Omega^T Q~), the quantity the permutation search minimizes."""
    return float(np.sum(omega * Qtilde))


def best_column_permutation(omega: np.ndarray, Qtilde: np.ndarray) -> np.ndarray:
    """Reorder the columns of the mask omega to minimize Tr(Omega^T Q~).

    Cost of placing current column m at position l is Omega_col_m . Q~_col_l.
    """
    if omega.shape != Qtilde.shape:
        raise ValueError("mask and cost matrix shapes differ")
    C = omega.T @ Qtilde
    out = np.empty_like(omega)
    out[:, hungarian(C)] = omega
    return out


def optimize_mask(omega: np.ndarray, Qtilde: np.ndarray) -> np.ndarray:
    """Alternate column and row steps on the mask omega, each kept only if it
    strictly lowers Tr(Omega^T Q~), up to the first step after the first that
    does not: the mask is then optimal for both step kinds. The row step is
    the column step on the transposes. If no step is kept, omega is returned."""
    obj = mask_objective(omega, Qtilde)
    for step in range(2 * _MAX_SWEEPS):
        cand = (best_column_permutation(omega.T, Qtilde.T).T if step % 2
                else best_column_permutation(omega, Qtilde))
        cand_obj = mask_objective(cand, Qtilde)
        if cand_obj < obj:
            omega, obj = cand, cand_obj
        elif step:
            break
    return omega


def spectral_gap(omega: np.ndarray):
    """(sigma1, sigma2, sigma1 - sigma2) of the binary mask omega."""
    if omega.sum() == 0:
        raise MetricError("spectral gap of the all-zero mask is undefined")
    s = np.linalg.svd(omega, compute_uv=False)
    s2 = float(s[1]) if s.size > 1 else 0.0
    return float(s[0]), s2, float(s[0]) - s2


def joint_design(
    cfg: ScenarioConfig,
    B: np.ndarray,
    G2: np.ndarray,
    S: np.ndarray,
    omega: np.ndarray,
    designs: dict,
) -> JointDesignResult:
    """Alternating covariance / sampling-mask optimization.

    Each outer iteration solves the weighted covariance problem for the
    current mask omega, then permutes the mask against the cost Q~
    (scheme_mask_cost) of the design's profile Q, until the EIP is exactly 0
    or the mask search lowers nothing, so that the next solve would repeat
    this one; the mask returned is then the one the solution was solved for.
    Every solve goes through designs, solve_weighted_eip's mapping.
    """
    trace = []
    solution = None
    for _ in range(_MAX_OUTER):
        weights = scheme_weights(cfg, omega, S)
        solution = solve_weighted_eip(weights, B, G2, cfg.P_t, cfg.C, designs)
        eip = weighted_eip(weights, solution.Q)
        trace.append(eip)
        if eip == 0.0:
            break  # no interference reaches the radar; the mask is irrelevant
        permuted = optimize_mask(omega, scheme_mask_cost(cfg, solution.Q, S))
        if np.array_equal(permuted, omega):
            break  # unchanged: no step lowered the objective
        omega = permuted
    return JointDesignResult(
        solution=solution, mask=omega, eip_trace=trace, outer_iterations=len(trace)
    )
