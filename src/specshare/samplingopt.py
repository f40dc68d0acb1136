"""Sampling-mask optimization by row/column permutation.

The mask objective Tr(Omega^T Q~) is minimized over the permutation orbit
of the initial mask: each sweep solves one column and one row linear
assignment problem (Hungarian algorithm) and never increases the
objective. Permutations preserve the mask's singular values, hence its
spectral gap and completability. The joint design alternates this search
with the weighted covariance design, from the one initial mask it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interference import (interference_diag_matrix, scheme_mask_cost, scheme_weights,
                           weighted_eip)
from .config import ScenarioConfig
from .covdesign import DesignSolution, solve_weighted_eip

# optimize_mask stops once a sweep lowers the objective by less than
# _MASK_RTOL times the initial objective (at least 1), or after _MAX_SWEEPS.
_MASK_RTOL = 1e-9
_MAX_SWEEPS = 100
# joint_design stops once an outer iteration moves the EIP by less than
# _EIP_RTOL times the first iteration's EIP, or after _MAX_OUTER iterations.
_EIP_RTOL = 1e-6
_MAX_OUTER = 50


@dataclass
class Assignment:
    permutation: np.ndarray  # row i assigned to column permutation[i]
    cost: float


@dataclass
class JointDesignResult:
    solution: DesignSolution
    mask: np.ndarray  # the final binary mask omega
    eip_trace: list
    outer_iterations: int


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-cost linear assignment of a square cost (shortest augmenting
    path, O(n^3)); a non-square cost raises ValueError.

    A non-empty cost C is first answered by a warm start from the candidate
    permutation pi = identity and an empty row set S. Each round runs one
    cycle search (_cycle_rows, a Bellman-Ford over the arc weights
    C[i, pi(j)] - C[i, pi(i)]) that ends in one of three ways:

    1. Certified: every cycle weighs more than n^3 * eps * max|C|, so pi is
       the unique optimum by more than that margin, the search would return
       pi too, and pi is the answer.
    2. Rows on cycles below -margin are found: they join S, and pi
       becomes the identity off S and, on S, the search below applied to
       the S x S sub-cost.
    3. Undecided: a cycle within the margin (ties and zero-weight cycles,
       as in constant or integer costs, are left to the search's
       lowest-index tie-break), or no cycle found in n rounds.

    S grows every round, so the loop ends. The full search decides when the
    cycle search is undecided, finds only rows already in S, or when S would
    hold more than _WARM_START_SHARE of the rows. Every answer is thus
    either certified unique, or the full search's own result; the cost is
    summed by the same expression, so both are bit-equal to the search.

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
    n = cost.shape[0]
    perm = _warm_started_search(cost) if n else np.empty(0, dtype=int)
    total = float(sum(cost[np.arange(n), perm].tolist()))
    return Assignment(permutation=perm, cost=total)


# The warm start hands over to the full search once its row set S would hold
# more than this share of the rows: re-solving S x S costs about as much as
# the full search by then.
_WARM_START_SHARE = 0.5


def _warm_started_search(cost: np.ndarray) -> np.ndarray:
    """The optimal permutation of the square cost, by the warm start of
    hungarian: certify pi, else re-solve the rows on negative cycles."""
    n = cost.shape[0]
    margin = _certificate_margin(cost)
    perm = np.arange(n)
    in_s = np.zeros(n, dtype=bool)
    while True:
        rows = _cycle_rows(_arc_weights(cost, perm), margin, _WARM_START_SHARE * n)
        if rows is not None and not rows.size:
            return perm
        if rows is None or in_s[rows].all():
            return _augmenting_path_search(cost)
        in_s[rows] = True
        if in_s.sum() > _WARM_START_SHARE * n:
            return _augmenting_path_search(cost)
        s = np.flatnonzero(in_s)
        perm = np.arange(n)
        perm[s] = s[_augmenting_path_search(cost[np.ix_(s, s)])]


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


def _cycle_rows(D: np.ndarray, margin: float, most: float) -> np.ndarray | None:
    """The warm start's cycle search over the arc weights D of a candidate
    (see _arc_weights; overwritten here). Returns an empty array when every
    cycle weighs more than the margin, which certifies the candidate; the
    rows on disjoint cycles of weight below -margin, when some are found;
    and None otherwise, which leaves the answer to the full search.

    Bellman-Ford relaxes from a virtual source, joined to every row by a
    zero arc, over the arc weights lowered by delta = 3/4 * margin. A cycle
    of k >= 2 arcs and weight w then weighs w - k * delta, which is
    negative whenever w <= margin. So a round that relaxes nothing proves
    that every cycle weighs at least 2 * delta > margin; an all-zero cost
    (margin 0, every cycle a tie) is never certified. After a round that
    relaxes an arc, the parent graph is searched for cycles, each of which
    is negative after lowering. The rows of cycles below -margin are taken
    out of the graph and the search starts again on the rest. Any other
    cycle, a tie or one the lowering cannot tell from one, returns None at
    once; so does running out of rounds (n in all) before any row is found.
    The search also stops once more than `most` rows are found.

    The search runs on the reversed digraph, whose cycles are those of D
    reversed, with the same weights. There row i of D holds the arcs into
    i, so each round is one (n, n) add and an argmin along contiguous rows.
    """
    n = D.shape[0]
    if margin == 0.0:
        return None
    delta = 0.75 * margin
    dist = np.zeros(n)
    parent = np.full(n + 1, n)  # n is the virtual source, its own parent
    heads = np.arange(n)
    found = np.zeros(n, dtype=bool)
    reach = np.empty_like(D)
    for _ in range(n):
        np.add(D, dist, out=reach)  # reach[i, j]: dist[j] plus the arc j -> i
        tail = reach.argmin(axis=1)
        best = reach[heads, tail] - delta
        better = best < dist
        if not better.any():
            return np.flatnonzero(found)
        dist[better] = best[better]
        parent[:n][better] = tail[better]
        cycles = _parent_cycles(parent)
        if cycles:
            if max(D[cycle, parent[cycle]].sum() for cycle in cycles) >= -margin:
                return None
            rows = np.concatenate(cycles)
            found[rows] = True
            if found.sum() > most:
                break
            D[rows, :] = np.inf
            D[:, rows] = np.inf
            dist.fill(0.0)
            parent.fill(n)
    return np.flatnonzero(found) if found.any() else None


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
    out[:, hungarian(C).permutation] = omega
    return out


def optimize_mask(omega: np.ndarray, Qtilde: np.ndarray) -> np.ndarray:
    """Alternate column/row permutations of the mask omega until a sweep
    stops lowering the objective (see _MASK_RTOL). The row step is the
    column step on the transposes."""
    obj = mask_objective(omega, Qtilde)
    tol = _MASK_RTOL * max(obj, 1.0)
    for _ in range(_MAX_SWEEPS):
        cand = best_column_permutation(omega, Qtilde)
        cand = best_column_permutation(cand.T, Qtilde.T).T
        new_obj = mask_objective(cand, Qtilde)
        if new_obj > obj + 1e-12:
            break  # assignment optimality should prevent this; stop defensively
        omega = cand
        if abs(obj - new_obj) < tol:
            obj = new_obj
            break
        obj = new_obj
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
    interference profile Q~ (scheme_mask_cost), until the EIP stops falling
    (see _EIP_RTOL).
    """
    trace = []
    solution = None
    for n in range(_MAX_OUTER):
        weights = scheme_weights(cfg, omega, S)
        solution = solve_weighted_eip(weights, H, G2, noise, cfg.P_t, cfg.C)
        Q = interference_diag_matrix(G2, solution.schedule)  # M_rR x L
        # Clamped at 0 so that roundoff never reports a negative power.
        eip = max(weighted_eip(weights, Q), 0.0)
        trace.append(eip)
        if eip == 0.0:
            break  # no interference reaches the radar; the mask is irrelevant
        if n > 0 and abs(trace[-2] - eip) < _EIP_RTOL * max(trace[0], 1e-30):
            break
        omega = optimize_mask(omega, scheme_mask_cost(cfg, Q, S))
    return JointDesignResult(
        solution=solution, mask=omega, eip_trace=trace, outer_iterations=len(trace)
    )
