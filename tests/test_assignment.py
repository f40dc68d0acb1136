"""Linear assignment solver (cycle cancelling) against an exhaustive oracle,
the scalar column loop of the augmenting-path search it replaced, and
scipy's solver; its certificate, which accepts a candidate optimal to within
the margin n^3 * eps * max|C| and no other, also against a Floyd-Warshall
oracle; its cancelling rounds, each of which lowers the candidate's cost by
more than the tolerance margin / n; and its independence of the cost's
memory layout."""

import itertools
import warnings

import numpy as np
import pytest

from specshare import samplingopt
from specshare.config import ScenarioConfig
from specshare.covdesign import solve_weighted_eip
from specshare.interference import scheme_weights
from specshare.samplingopt import hungarian, joint_design
from specshare.scenario import make_scenario
from specshare.streams import stream

from oracles import floyd_warshall_certified


def scalar_loop_hungarian(cost):
    """Reference: the shortest-augmenting-path solver with its column scan
    as a scalar Python loop (strict < comparisons, so the lowest index wins
    ties). Returns the permutation. It runs on Python lists and floats,
    whose arithmetic is the same IEEE double arithmetic as NumPy's float64
    scalars, several times faster."""
    cost = np.asarray(cost, dtype=float)
    nr, nc = cost.shape
    n = max(nr, nc)
    pad = float(np.abs(cost).max() if cost.size else 0.0) + 1.0
    C = np.full((n, n), pad)
    C[:nr, :nc] = cost
    C = C.tolist()

    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = C[i0 - 1][j - 1] - u[i0] - v[j]
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
    return perm


def random_shapes(rng, count, max_side=40):
    """Square shapes with sides 1..max_side."""
    for _ in range(count):
        n = int(rng.integers(1, max_side + 1))
        yield n, n


@pytest.fixture(scope="module")
def joint_costs():
    """The column (128 x 128) and row (32 x 32) assignment costs of the first
    mask sweep of a joint design on a joint-long-sized Scheme I scenario."""
    cfg = ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=128, p=0.5, seed=1)
    scn = make_scenario(cfg)
    sol = solve_weighted_eip(scheme_weights(cfg, scn.omega, scn.S),
                             scn.B, scn.G2, cfg.P_t, cfg.C, {})
    Q = sol.Q
    omega = scn.omega
    return omega.T @ Q, omega @ Q.T


def assignment_cost(cost, perm):
    """The summed cost of assigning row i to column perm[i]."""
    return sum(cost[i, perm[i]] for i in range(cost.shape[0]))


def brute_force_cost(cost):
    n = cost.shape[0]
    return min(assignment_cost(cost, perm) for perm in itertools.permutations(range(n)))


class TestHungarian:
    def test_two_by_two(self):
        perm = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert isinstance(perm, np.ndarray)
        assert list(perm) == [0, 1]

    def test_single_cell(self):
        assert list(hungarian(np.array([[3.5]]))) == [0]

    def test_constant_matrix(self):
        assert sorted(hungarian(np.full((3, 3), 2.0))) == [0, 1, 2]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_matches_brute_force_square(self):
        rng = stream(0, "hungarian")
        for n in range(2, 8):
            for _ in range(20):
                cost = rng.uniform(-5.0, 5.0, size=(n, n))
                perm = hungarian(cost)
                assert sorted(perm) == list(range(n))
                assert abs(assignment_cost(cost, perm) - brute_force_cost(cost)) < 1e-9

    def test_non_square_rejected(self):
        for shape in ((2, 4), (4, 2), (1, 0), (0, 3), (5,)):
            with pytest.raises(ValueError, match="square"):
                hungarian(np.zeros(shape))

    def test_negative_entries(self):
        cost = np.array([[-3.0, 0.0], [0.0, -3.0]])
        assert assignment_cost(cost, hungarian(cost)) == -6.0

    def test_deterministic(self):
        rng = stream(2, "hungarian")
        cost = rng.uniform(size=(6, 6))
        assert np.array_equal(hungarian(cost), hungarian(cost))


def assert_matches_scalar_loop(cost):
    """The scalar loop's permutation: for costs whose optimum is unique by
    more than the margin."""
    assert np.array_equal(hungarian(cost), scalar_loop_hungarian(cost))


def assert_scalar_loop_cost(cost):
    """A permutation costing the scalar loop's optimum to within the margin:
    for costs with ties, which the two settle differently."""
    perm = hungarian(cost)
    assert sorted(perm) == list(range(cost.shape[0]))
    gap = assignment_cost(cost, perm) - assignment_cost(cost, scalar_loop_hungarian(cost))
    assert abs(gap) <= samplingopt._certificate_margin(cost)


class TestAgainstScalarLoop:
    """The scalar column loop's permutation where the optimum is unique, and
    its optimal cost where ties leave several optima."""

    def test_random_real_costs(self):
        rng = stream(3, "hungarian")
        for nr, nc in random_shapes(rng, 100):
            assert_matches_scalar_loop(rng.uniform(-5.0, 5.0, size=(nr, nc)))

    def test_integer_costs_with_ties(self):
        rng = stream(4, "hungarian")
        for k, (nr, nc) in enumerate(random_shapes(rng, 200)):
            high = (2, 4, 10)[k % 3]
            assert_scalar_loop_cost(rng.integers(-high, high, size=(nr, nc)).astype(float))

    def test_binary_costs(self):
        rng = stream(5, "hungarian")
        for nr, nc in random_shapes(rng, 60):
            assert_scalar_loop_cost((rng.random((nr, nc)) < 0.5).astype(float))

    def test_degenerate_shapes(self):
        for shape in ((1, 1), (0, 0)):
            assert_matches_scalar_loop(np.arange(np.prod(shape), dtype=float).reshape(shape) - 2.0)

    def test_joint_long_costs(self, joint_costs):
        for cost in joint_costs:
            assert_matches_scalar_loop(cost)


class TestScipyOracle:
    """Optimal cost against scipy.optimize.linear_sum_assignment, a test-only
    dependency."""

    @staticmethod
    def assert_optimal(cost):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rows, cols = linear_sum_assignment(cost)
        best = float(cost[rows, cols].sum())
        assert abs(assignment_cost(cost, hungarian(cost)) - best) <= 1e-9 * max(1.0, abs(best))

    def test_random_costs(self):
        rng = stream(6, "hungarian")
        for k, (nr, nc) in enumerate(random_shapes(rng, 100)):
            if k % 2:
                cost = rng.integers(-5, 5, size=(nr, nc)).astype(float)
            else:
                cost = rng.uniform(-5.0, 5.0, size=(nr, nc))
            self.assert_optimal(cost)

    def test_joint_long_costs(self, joint_costs):
        for cost in joint_costs:
            self.assert_optimal(cost)

    def test_long_block_joint_costs(self):
        """Every assignment of the L = 256 joint design of seeds 0-1, whose
        256 x 256 column steps no benchmark workload reaches."""
        pytest.importorskip("scipy.optimize")
        for cost in joint_design_costs((0, 1), L=256):
            self.assert_optimal(cost)


def joint_design_costs(seeds, L=128):
    """Every assignment cost the joint design solves on joint-long-sized
    Scheme I scenarios (L = 128 unless given, p = 0.5) of the given seeds,
    in call order."""
    costs = []

    def recording_hungarian(cost):
        costs.append(np.array(cost, dtype=float))
        return hungarian(cost)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplingopt, "hungarian", recording_hungarian)
        for seed in seeds:
            cfg = ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=L, p=0.5, seed=seed)
            scn = make_scenario(cfg)
            joint_design(cfg, scn.B, scn.G2, scn.S, scn.omega, {})
    return costs


def search_certified(cost, perm=None):
    """Whether hungarian's cycle search certifies the candidate perm
    (default: the identity) for the cost, as each round asks it."""
    n = cost.shape[0]
    D = samplingopt._arc_weights(cost, np.arange(n) if perm is None else perm)
    return not samplingopt._cycle_rows(D, samplingopt._certificate_margin(cost))


def identity_optimal(rng, n, lowered):
    """A random n x n cost whose unique optimal assignment is the identity:
    a random cost's columns are reordered so that its optimal assignment
    lies on the diagonal, and the diagonal is then lowered by `lowered`,
    so every other assignment costs at least 2 * lowered more."""
    cost = rng.uniform(-5.0, 5.0, size=(n, n))
    cost = cost[:, hungarian(cost)]
    cost[np.diag_indices(n)] -= lowered
    return cost


class TestIdentityCertificate:
    """The cycle search certifies a candidate exactly when it is optimal to
    within the margin: at once when the identity is the unique optimum, and
    on ties, which the identity then keeps."""

    def test_identity_optimal_costs_certified(self):
        rng = stream(7, "hungarian")
        for k, (n, _) in enumerate(random_shapes(rng, 60)):
            lowered = (1e-3, 1e-2, 0.1, 1.0, 10.0)[k % 5]
            cost = identity_optimal(rng, n, lowered)
            assert search_certified(cost)
            assert_matches_scalar_loop(cost)
            assert np.array_equal(hungarian(cost), np.arange(n))

    def test_certified_call_skips_the_search(self, cycle_searches):
        """A certified cost takes one cycle search and no cancelling round."""
        cost = identity_optimal(stream(8, "hungarian"), 16, 0.1)
        cycle_searches[0] = 0
        assert np.array_equal(hungarian(cost), np.arange(16))
        assert cycle_searches[0] == 1

    def test_ties_certified(self):
        """Every assignment of a constant cost ties; the identity is
        certified and kept."""
        for cost in (np.full((3, 3), 2.0), np.full((8, 8), -1.5), np.zeros((5, 5))):
            assert search_certified(cost)
            assert np.array_equal(hungarian(cost), np.arange(cost.shape[0]))

    def test_zero_weight_cycles_certified(self):
        """Integer costs on which the identity is optimal but ties with a
        2-cycle or a 3-cycle of weight 0: the identity is certified and
        kept, at the scalar loop's optimal cost."""
        rng = stream(9, "hungarian")
        for n in range(3, 13):
            for _ in range(5):
                cost = rng.integers(1, 6, size=(n, n)).astype(float)
                np.fill_diagonal(cost, 0.0)
                i, j, m = rng.choice(n, size=3, replace=False)
                if n % 2:
                    cost[i, j] = cost[j, i] = 0.0
                else:
                    cost[i, j] = cost[j, m] = cost[m, i] = 0.0
                assert search_certified(cost)
                assert np.array_equal(hungarian(cost), np.arange(n))
                assert_scalar_loop_cost(cost)

    def test_margin_boundary(self):
        """A 2-cycle whose arcs each weigh -tolerance (margin / n) lies
        within the margin, so the identity is certified though the swap
        costs less; arcs of twice that weight are cancelled."""
        n = 6
        tolerance = n**2 * np.finfo(float).eps  # n^3 * eps * max|C| / n, max|C| = 1
        for arc, certified in ((-tolerance, True), (-2 * tolerance, False)):
            cost = np.ones((n, n))
            np.fill_diagonal(cost, 0.0)
            cost[1, 4] = cost[4, 1] = arc
            expected = np.arange(n)
            if not certified:
                expected[[1, 4]] = [4, 1]
            assert search_certified(cost) == certified
            assert np.array_equal(hungarian(cost), expected)

    def test_joint_design_calls(self):
        """Every assignment the joint design solves on joint-long-sized
        Scheme I scenarios, certified or not."""
        costs = joint_design_costs((1, 2))
        certified = [search_certified(cost) for cost in costs]
        assert any(certified) and not all(certified)
        for cost in costs:
            assert_matches_scalar_loop(cost)

    def test_large_negative_cycles_no_warning(self):
        """Negative cycles compound through the relaxation rounds; at this
        size and scale they would overflow if the search did not stop at
        the first round that closes one. Scaled down as far, the margin and
        the tolerance stay normal numbers."""
        cost = stream(10, "hungarian").uniform(-1.0, 1.0, size=(512, 512))
        for scale in (1e250, 1e-250):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not search_certified(cost * scale)
                perm = hungarian(cost * scale)
            assert sorted(perm) == list(range(512))

    def test_all_zero_cost_certified(self):
        """Margin and tolerance 0: no arc relaxes, at any size."""
        for n in (1, 2, 7):
            cost = np.zeros((n, n))
            assert search_certified(cost)
            assert np.array_equal(hungarian(cost), np.arange(n))

    def test_single_row_certified(self):
        for value in (3.5, -1e-300, 1e300):
            cost = np.array([[value]])
            assert search_certified(cost)
            assert_matches_scalar_loop(cost)

    def test_two_by_two_outcomes(self):
        """The identity wins and is certified; the swap wins, its 2-cycle is
        found and cancelled; a tie is certified."""
        for cost, certified, expected in (([[0.0, 1.0], [1.0, 0.0]], True, [0, 1]),
                                          ([[1.0, 0.0], [0.0, 1.0]], False, [1, 0]),
                                          ([[1.0, 2.0], [2.0, 3.0]], True, [0, 1])):
            cost = np.array(cost)
            assert search_certified(cost) == certified
            assert list(hungarian(cost)) == expected
            assert_scalar_loop_cost(cost)

    def test_three_cycle_within_the_margin(self):
        """3-cycles weighing -1.5 and -4.5 tolerances (margin / n). The
        first is negative, but Floyd-Warshall finds no cycle below -margin,
        and the cycle search certifies the identity. Each arc of the second
        lies below -tolerance, so the search cancels it."""
        n = 6
        margin = n**3 * np.finfo(float).eps  # max|C| = 1
        for weight, certified in ((-1.5 * margin / n, True), (-4.5 * margin / n, False)):
            cost = np.ones((n, n))
            np.fill_diagonal(cost, 0.0)
            cost[1, 3] = cost[3, 5] = cost[5, 1] = weight / 3
            expected = np.arange(n)
            if not certified:
                expected[[1, 3, 5]] = [3, 5, 1]
            assert not floyd_warshall_certified(cost, below=0.0)
            assert search_certified(cost) == certified
            assert np.array_equal(hungarian(cost), expected)
            if certified:
                assert floyd_warshall_certified(cost, below=-margin)


def visited_candidates(costs):
    """Every (cost, candidate) pair whose arc weights hungarian builds while
    it solves the given costs, in order."""
    inputs = []
    arc_weights = samplingopt._arc_weights

    def recording(cost, perm):
        inputs.append((cost.copy(), perm.copy()))
        return arc_weights(cost, perm)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplingopt, "_arc_weights", recording)
        for cost in costs:
            hungarian(cost)
    return inputs


class TestFloydWarshallOracle:
    """The cycle search certifies what a Floyd-Warshall oracle certifies as
    the unique optimum by more than the margin, and never certifies a
    candidate that has a cycle below -margin."""

    def test_joint_design_inputs_agree(self):
        """Every candidate hungarian checks on the joint-long-sized costs of
        seeds 1-2 and 13-18, whose optima are unique by more than the
        margin: the two verdicts agree."""
        costs = joint_design_costs((1, 2, *range(13, 19)))
        inputs = visited_candidates(costs)
        assert len(inputs) > len(costs)
        verdicts = [floyd_warshall_certified(cost, perm) for cost, perm in inputs]
        assert any(verdicts) and not all(verdicts)
        for (cost, perm), verdict in zip(inputs, verdicts):
            assert search_certified(cost, perm) == verdict

    def test_never_certifies_what_the_oracle_refuses(self):
        """Every candidate hungarian checks on near-ties, planted cycles and
        integer costs with ties: none it certifies has a cycle below
        -margin."""
        rng = stream(16, "hungarian")
        costs = []
        for k, (n, _) in enumerate(random_shapes(rng, 60)):
            margin = n**3 * np.finfo(float).eps * 5.0
            costs.append(identity_optimal(rng, n, (0.0, margin / 4, margin, 1e-3)[k % 4]))
        for n in (8, 16, 32):
            for weight in (1e-12, 1e-3, 1.0):
                cost, planted = planted_cycles(rng, n, (2, 3), weight)
                costs.append(cost)
                costs.append(cost[:, planted])
        for n in range(2, 13):
            for high in (2, 4):
                costs.append(rng.integers(-high, high, size=(n, n)).astype(float))
                cost = rng.integers(1, 6, size=(n, n)).astype(float)
                np.fill_diagonal(cost, 0.0)
                cost[0, 1] = cost[1, 0] = 0.0
                costs.append(cost)
        outcomes = set()
        for cost, perm in visited_candidates(costs):
            verdict = search_certified(cost, perm)
            outcomes.add(verdict)
            margin = samplingopt._certificate_margin(cost)
            assert not verdict or floyd_warshall_certified(cost, perm, below=-margin)
        assert outcomes == {True, False}


def planted_cycles(rng, n, lengths, weight):
    """An n x n cost on which the identity wins every cycle, with disjoint
    cycles of the given lengths planted on random rows. Off the diagonal,
    identity_optimal(rng, n, 10.0) keeps its entries in [-5, 5] and puts the
    diagonal below -5, so every arc weight C_ij - C_ii is positive; each
    arc of a planted cycle then gets weight -weight. The unique optimum
    moves each planted row to the next row's column and leaves the other
    rows in place. Returns (cost, optimal permutation)."""
    cost = identity_optimal(rng, n, 10.0)
    rows = rng.permutation(n)
    perm = np.arange(n)
    start = 0
    for length in lengths:
        cycle = rows[start:start + length]
        start += length
        succ = np.roll(cycle, -1)
        cost[cycle, succ] = cost[cycle, cycle] - weight
        perm[cycle] = succ
    return cost, perm


@pytest.fixture
def cycle_searches(monkeypatch):
    """The number of cycle searches hungarian has run."""
    calls = [0]
    search = samplingopt._cycle_rows

    def counting_search(D, margin):
        calls[0] += 1
        return search(D, margin)

    monkeypatch.setattr(samplingopt, "_cycle_rows", counting_search)
    return calls


class TestWarmStart:
    """Cancelling from the identity: a cost the certificate rejects has the
    negative cycles the cycle search finds rotated into its candidate until
    the candidate is certified. Where the optimum is unique the answer is
    the scalar loop's."""

    def test_planted_cycles_cancelled(self, cycle_searches):
        """All planted cycles close in the first round: one cancelling round,
        then one certifying search."""
        rng = stream(11, "hungarian")
        for n in (32, 48, 64):
            for weight in (1e-3, 1.0, 4.0):
                cost, expected = planted_cycles(rng, n, (2, 3, 7), weight)
                cycle_searches[0] = 0
                assert np.array_equal(hungarian(cost), expected)
                assert cycle_searches[0] == 2
                assert_matches_scalar_loop(cost)

    def test_cycles_over_half_the_rows_cancelled(self, cycle_searches):
        """Planted cycles on 18 of 32 rows: the candidate moves more than
        half the rows, in one cancelling round."""
        rng = stream(17, "hungarian")
        for weight in (1e-3, 1.0, 4.0):
            cost, expected = planted_cycles(rng, 32, (5, 6, 7), weight)
            cycle_searches[0] = 0
            perm = hungarian(cost)
            assert cycle_searches[0] == 2
            assert np.array_equal(perm, expected)
            assert np.array_equal(perm, scalar_loop_hungarian(cost))

    def test_rounds_are_bounded(self, monkeypatch):
        """On tie-heavy, near-tie, rounded and rank-1 costs, every cycle the
        search returns weighs less than -tolerance (margin / n), recomputed
        from the arc weights, and each cancelling round lowers the
        candidate's cost, so no candidate repeats and the rounds end. The
        answer costs the scalar loop's optimum to within the margin."""
        weights, candidates = [], []
        search, arc_weights = samplingopt._cycle_rows, samplingopt._arc_weights

        def checked_search(D, margin):
            cycles = search(D, margin)
            weights.extend(D[cycle, np.roll(cycle, -1)].sum() / (margin / D.shape[0])
                           for cycle in cycles)
            return cycles

        def checked_candidate(cost, perm):
            candidates.append((cost, assignment_cost(cost, perm)))
            if len(candidates) > 1 and candidates[-2][0] is cost:
                assert candidates[-1][1] < candidates[-2][1]  # else the rounds could cycle
            return arc_weights(cost, perm)

        monkeypatch.setattr(samplingopt, "_cycle_rows", checked_search)
        monkeypatch.setattr(samplingopt, "_arc_weights", checked_candidate)
        rng = stream(18, "hungarian")
        for n in (4, 8, 16, 32):
            for _ in range(3):
                for cost in (rng.integers(0, 3, size=(n, n)).astype(float),
                             1.0 + 1e-13 * rng.standard_normal((n, n)),
                             np.round(rng.uniform(size=(n, n)), 2),
                             np.outer(rng.uniform(size=n), rng.uniform(size=n))):
                    assert_scalar_loop_cost(cost)
        assert len(weights) > 100
        assert max(weights) < -1.0

    def test_zero_weight_cycle_left_in_place(self):
        """A planted negative 3-cycle plus a zero-weight 2-cycle on two other
        rows: the candidate that rotates the 3-cycle ties with the one that
        also swaps the pair, and cancellation leaves the pair in place."""
        rng = stream(12, "hungarian")
        for n in (8, 16, 32):
            cost, planted = planted_cycles(rng, n, (3,), 1.0)
            a, b = np.flatnonzero(planted == np.arange(n))[:2]
            cost[a, b] = cost[a, a]
            cost[b, a] = cost[b, b]
            assert np.array_equal(hungarian(cost), planted)
            assert_scalar_loop_cost(cost)

    def test_joint_design_calls(self, cycle_searches):
        """The joint-long costs of seeds 13-18 (their number is a row of the
        count table in test_reference_rows): every call the certificate
        rejects is answered by cancelling, at least one after two or more
        cancelling rounds, and every call matches the scalar loop."""
        costs = joint_design_costs(range(13, 19))
        uncertified = [cost for cost in costs if not search_certified(cost)]
        assert len(uncertified) == 15
        rounds = []
        for cost in uncertified:
            cycle_searches[0] = 0
            hungarian(cost)
            rounds.append(cycle_searches[0] - 1)  # the last search certifies
        assert min(rounds) >= 1 and max(rounds) >= 2
        for cost in costs:
            assert_matches_scalar_loop(cost)


class TestMemoryLayout:
    """hungarian's answer and speed do not depend on how the cost is laid out."""

    def test_layouts_bit_equal(self, joint_costs):
        rng = stream(14, "hungarian")
        cost_sets = list(joint_costs) + [rng.uniform(-5.0, 5.0, size=(9, 9)),
                                         rng.uniform(-5.0, 5.0, size=(11, 11))]
        for cost in cost_sets:
            expected = hungarian(cost)
            for layout in (np.asfortranarray(cost), np.ascontiguousarray(cost),
                           cost.T.copy().T):
                assert np.array_equal(hungarian(layout), expected)

    def test_kernels_see_c_order(self, joint_costs, monkeypatch):
        """The arc weights gather columns of the cost, about 1.8 times slower
        from a Fortran-ordered array at n = 128, so hungarian hands them a
        C-ordered one; the cycle search's argmin runs along the rows of the
        arc weights, which are C-ordered too."""
        seen = []
        for name in ("_arc_weights", "_cycle_rows"):
            kernel = getattr(samplingopt, name)

            def recording(array, *args, kernel=kernel):
                seen.append(array.flags.c_contiguous)
                return kernel(array, *args)

            monkeypatch.setattr(samplingopt, name, recording)
        rng = stream(15, "hungarian")
        for cost in list(joint_costs) + [rng.uniform(size=(16, 16))]:
            hungarian(np.asfortranarray(cost))
        assert len(seen) > 6 and all(seen)
