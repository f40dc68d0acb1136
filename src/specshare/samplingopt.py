"""Sampling-mask optimization by row/column permutation.

The mask objective Tr(Omega^T Q~) is minimized over the permutation orbit
of the initial mask by column and row steps, each an optimal linear
assignment (hungarian), up to their fixed point. Permutations preserve the
mask's singular values, hence its spectral gap and completability. The joint
design alternates this search with the weighted covariance design, from the
one initial mask it is given, until the mask search lowers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interference import (interference_diag_matrix, scheme_mask_cost, scheme_weights,
                           weighted_eip)
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
    """The minimum-cost linear assignment of a square cost (shortest
    augmenting path, O(n^3)) as a permutation array perm: row i takes
    column perm[i]. A non-square cost raises ValueError.

    A non-empty cost C is first answered by a warm start from the candidate
    permutation pi = identity. Each round runs one cycle search
    (_cycle_rows, a Bellman-Ford over the arc weights C[i, pi(j)] -
    C[i, pi(i)]) and ends in one of three ways:

    1. Certified: every cycle weighs more than n^3 * eps * max|C|, so pi is
       the unique optimum by more than that margin, the full search below
       would return pi too, and pi is the answer.
    2. Cancelled: the search returns disjoint cycles, each weighing less
       than -margin. Each is rotated into pi (every row on it takes the
       next row's column), which lowers the cost of pi by more than the
       margin per cycle, and the next round searches again.
    3. Undecided: a cycle within the margin (ties and zero-weight cycles,
       as in constant or integer costs, are left to the search's
       lowest-index tie-break), or no cycle found in n rounds.

    The full search answers when a round is undecided, when pi has moved
    more than _WARM_START_SHARE of the rows, or after n rounds. Every answer
    is thus either certified unique, or the full search's own result, so it
    is the search's permutation either way.

    The search inserts rows one at a time; each step of the Dijkstra-like
    search for an augmenting path scans all n + 1 columns with a few
    whole-array NumPy operations: the reduced costs of the row just added to
    the tree, the masked update of the per-column slack minv and predecessor
    way, the argmin over the free columns and the dual update of the tree.
    The arithmetic is the same as that of the scalar column loop, element by
    element, so the result is bit-identical to it.

    Ties are broken by lowest index (np.argmin returns the first minimum),
    so the result is deterministic. The cost is copied to C order first, so
    every kernel sees one layout whatever the caller passes (the arc
    weights gather columns of the cost, about 1.8 times slower from a
    Fortran-ordered one at n = 128).
    """
    cost = np.ascontiguousarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be a square matrix, got shape {cost.shape}")
    if np.isnan(cost).any():
        raise ValueError("cost matrix contains NaN")
    if np.isinf(cost).any():
        raise ValueError("cost matrix contains infinite entries")
    perm = _warm_started_search(cost) if cost.size else np.empty(0, dtype=int)
    return perm.view(Permutation)


# The warm start hands the cost to the full search once pi has moved more than
# this share of the rows: a cost that far from the identity can take many
# cancelling rounds, each as dear as a good part of the full search.
_WARM_START_SHARE = 0.5


def _warm_started_search(cost: np.ndarray) -> np.ndarray:
    """The optimal permutation of the square cost, by the warm start of
    hungarian: cancel the negative cycles of pi until it is certified, else
    hand the cost to the full search."""
    n = cost.shape[0]
    margin = _certificate_margin(cost)
    identity = np.arange(n)
    perm = identity.copy()
    for _ in range(n):
        cycles = _cycle_rows(_arc_weights(cost, perm), margin)
        if cycles is None:
            break
        if not cycles:
            return perm
        for cycle in cycles:
            perm[cycle] = perm[np.roll(cycle, -1)]
        if np.count_nonzero(perm != identity) > _WARM_START_SHARE * n:
            break
    return _augmenting_path_search(cost)


def _certificate_margin(cost: np.ndarray) -> float:
    """n^3 * eps * max|C|: cycle weights within it of zero count as ties."""
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


def _cycle_rows(D: np.ndarray, margin: float) -> list | None:
    """The warm start's cycle search over the arc weights D of a candidate
    (see _arc_weights). Returns an empty list when every cycle weighs more
    than the margin, which certifies the candidate; the disjoint cycles of
    the first round that finds any, when each weighs less than -margin,
    for the candidate to cancel; and None otherwise, which leaves the
    answer to the full search. A cycle is an array of rows in which each
    row takes the next row's column.

    Bellman-Ford relaxes from a virtual source, joined to every row by a
    zero arc, over the arc weights lowered by delta = 3/4 * margin. A cycle
    of k >= 2 arcs and weight w then weighs w - k * delta, which is
    negative whenever w <= margin. So a round that relaxes nothing proves
    that every cycle weighs at least 2 * delta > margin; an all-zero cost
    (margin 0, every cycle a tie) is never certified. After a round that
    relaxes an arc, the parent graph is searched for cycles, each of which
    is negative after lowering. The first round that has any returns: its
    cycles when all of them weigh less than -margin, and None when one is
    a tie or one the lowering cannot tell from one. Running out of rounds
    (n in all) with no cycle found returns None too.

    The search runs on the reversed digraph, whose cycles are those of D
    reversed, with the same weights. There row i of D holds the arcs into
    i, so each round is one (n, n) add and an argmin along contiguous rows,
    and a row's parent is the row whose column it would take.
    """
    n = D.shape[0]
    if margin == 0.0:
        return None
    delta = 0.75 * margin
    dist = np.zeros(n)
    parent = np.full(n + 1, n)  # n is the virtual source, its own parent
    heads = np.arange(n)
    reach = np.empty_like(D)
    for _ in range(n):
        np.add(D, dist, out=reach)  # reach[i, j]: dist[j] plus the arc j -> i
        tail = reach.argmin(axis=1)
        best = reach[heads, tail] - delta
        better = best < dist
        if not better.any():
            return []
        dist[better] = best[better]
        parent[:n][better] = tail[better]
        cycles = _parent_cycles(parent)
        if cycles:
            if max(D[cycle, parent[cycle]].sum() for cycle in cycles) >= -margin:
                return None
            return cycles
    return None


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


def _augmenting_path_search(cost: np.ndarray) -> np.ndarray:
    """The shortest-augmenting-path search of hungarian on a square cost:
    permutation[i] is the column assigned to row i."""
    n = cost.shape[0]
    # 1-based: row and column 0 are the virtual root of the search tree. Row
    # 0 is never read, and column 0 joins the tree first, so the scan adds
    # +inf to its entries and they never count.
    C = np.zeros((n + 1, n + 1))
    C[1:, 1:] = cost
    C_rows = list(C)

    INF = np.inf
    u = np.zeros(n + 1)  # row potentials
    p = np.zeros(n + 1, dtype=np.intp)  # p[j]: row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=np.intp)  # predecessor column on the shortest path
    # During one search, duals[0] holds u[p[j]], the potential of the row
    # matched to column j, and duals[1] the negated column potential -v[j],
    # so one add of delta * in_tree shifts both duals of the tree and adds
    # an exact zero elsewhere. Rounding is symmetric in sign: -v + delta is
    # exactly -(v - delta), and (c - u) + (-v) is exactly (c - u) - v.
    duals = np.zeros((2, n + 1))
    u_col, neg_v = duals
    in_tree = np.empty(n + 1)  # 1.0 on the tree columns, 0.0 elsewhere
    shift = np.empty(n + 1)
    # -v on the free columns and +inf on the tree columns, so that a tree
    # column's reduced cost is +inf and it never wins the scan.
    neg_v_free = np.empty(n + 1)
    minv = np.empty(n + 1)  # +inf on the tree columns
    better = np.empty(n + 1, dtype=bool)
    cur = np.empty(n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        np.take(u, p, out=u_col)
        np.copyto(neg_v_free, neg_v)
        minv.fill(INF)
        in_tree.fill(0.0)
        while True:
            in_tree[j0] = 1.0
            neg_v_free[j0] = INF
            minv[j0] = INF
            np.subtract(C_rows[p[j0]], u_col[j0], out=cur)
            cur += neg_v_free
            np.less(cur, minv, out=better)
            np.minimum(minv, cur, out=minv)
            np.putmask(way, better, j0)
            j0 = int(minv.argmin())
            delta = minv[j0]
            np.multiply(in_tree, delta, out=shift)
            duals += shift
            minv -= delta
            if p[j0] == 0:
                break
        tree = np.flatnonzero(in_tree)
        u[p[tree]] = u_col[tree]
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = np.empty(n, dtype=int)
    perm[p[1:] - 1] = np.arange(n)
    return perm


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
        raise ValueError("spectral gap of the all-zero mask is undefined")
    s = np.linalg.svd(omega, compute_uv=False)
    s2 = float(s[1]) if s.size > 1 else 0.0
    return float(s[0]), s2, float(s[0]) - s2


def joint_design(
    cfg: ScenarioConfig,
    H: np.ndarray,
    G2: np.ndarray,
    noise: np.ndarray,
    S: np.ndarray,
    omega: np.ndarray,
) -> JointDesignResult:
    """Alternating covariance / sampling-mask optimization.

    Each outer iteration solves the weighted covariance problem for the
    current mask omega, then permutes the mask against the resulting
    interference profile Q~ (scheme_mask_cost), until the EIP is exactly 0
    or the mask search lowers nothing, so that the next solve would repeat
    this one; the mask returned is then the one the solution was solved for.
    """
    trace = []
    solution = None
    for _ in range(_MAX_OUTER):
        weights = scheme_weights(cfg, omega, S)
        solution = solve_weighted_eip(weights, H, G2, noise, cfg.P_t, cfg.C)
        Q = interference_diag_matrix(G2, solution.schedule)  # M_rR x L
        # Clamped at 0 so that roundoff never reports a negative power.
        eip = max(weighted_eip(weights, Q), 0.0)
        trace.append(eip)
        if eip == 0.0:
            break  # no interference reaches the radar; the mask is irrelevant
        permuted = optimize_mask(omega, scheme_mask_cost(cfg, Q, S))
        if np.array_equal(permuted, omega):
            break  # unchanged: no step lowered the objective
        omega = permuted
    return JointDesignResult(
        solution=solution, mask=omega, eip_trace=trace, outer_iterations=len(trace)
    )
