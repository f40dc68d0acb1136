"""Linear assignment solver against an exhaustive oracle, the scalar
column loop it replaced, and scipy's solver; its identity certificate on
costs it must certify and on costs where it must leave the answer to the
search, and against the Floyd-Warshall certificate it replaced; its warm
start, which re-solves only the rows on negative cycles; and its
independence of the cost's memory layout."""

import itertools
import warnings

import numpy as np
import pytest

from specshare import samplingopt
from specshare.config import ScenarioConfig
from specshare.covdesign import solve_weighted_eip
from specshare.interference import interference_diag_matrix, noise_covariances, scheme_weights
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
    noise = noise_covariances(cfg, scn.G1, scn.S)
    sol = solve_weighted_eip(scheme_weights(cfg, scn.omega, scn.S),
                             scn.H, scn.G2, noise, cfg.P_t, cfg.C)
    Q = interference_diag_matrix(scn.G2, sol.schedule)
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
    assert np.array_equal(hungarian(cost), scalar_loop_hungarian(cost))


class TestAgainstScalarLoop:
    """The scalar column loop's permutation, tie-breaks included."""

    def test_random_real_costs(self):
        rng = stream(3, "hungarian")
        for nr, nc in random_shapes(rng, 100):
            assert_matches_scalar_loop(rng.uniform(-5.0, 5.0, size=(nr, nc)))

    def test_integer_costs_with_ties(self):
        rng = stream(4, "hungarian")
        for k, (nr, nc) in enumerate(random_shapes(rng, 200)):
            high = (2, 4, 10)[k % 3]
            assert_matches_scalar_loop(rng.integers(-high, high, size=(nr, nc)).astype(float))

    def test_binary_costs(self):
        rng = stream(5, "hungarian")
        for nr, nc in random_shapes(rng, 60):
            assert_matches_scalar_loop((rng.random((nr, nc)) < 0.5).astype(float))

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


def joint_design_costs(seeds):
    """Every assignment cost the joint design solves on joint-long-sized
    Scheme I scenarios (L = 128, p = 0.5) of the given seeds, in call order."""
    costs = []

    def recording_hungarian(cost):
        costs.append(np.array(cost, dtype=float))
        return hungarian(cost)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplingopt, "hungarian", recording_hungarian)
        for seed in seeds:
            cfg = ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=128, p=0.5, seed=seed)
            scn = make_scenario(cfg)
            noise = noise_covariances(cfg, scn.G1, scn.S)
            joint_design(cfg, scn.H, scn.G2, noise, scn.S, scn.omega)
    return costs


def search_certified(cost, perm=None):
    """Whether hungarian's cycle search certifies the candidate perm
    (default: the identity) for the cost, as the warm start asks it."""
    n = cost.shape[0]
    D = samplingopt._arc_weights(cost, np.arange(n) if perm is None else perm)
    rows = samplingopt._cycle_rows(D, samplingopt._certificate_margin(cost), n)
    return rows is not None and not rows.size


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
    """The certificate answers only when the identity is the unique optimum
    by more than its margin, and hungarian's answer is the scalar loop's
    either way."""

    def test_identity_optimal_costs_certified(self):
        rng = stream(7, "hungarian")
        for k, (n, _) in enumerate(random_shapes(rng, 60)):
            lowered = (1e-3, 1e-2, 0.1, 1.0, 10.0)[k % 5]
            cost = identity_optimal(rng, n, lowered)
            assert search_certified(cost)
            assert_matches_scalar_loop(cost)
            assert np.array_equal(hungarian(cost), np.arange(n))

    def test_certified_call_skips_the_search(self, monkeypatch):
        cost = identity_optimal(stream(8, "hungarian"), 16, 0.1)
        expected = hungarian(cost)

        def no_search(_cost):
            raise AssertionError("search ran on a certified cost")

        monkeypatch.setattr(samplingopt, "_augmenting_path_search", no_search)
        assert np.array_equal(hungarian(cost), expected)

    def test_ties_fall_back(self):
        for cost in (np.full((3, 3), 2.0), np.full((8, 8), -1.5), np.zeros((5, 5))):
            assert not search_certified(cost)
            assert_matches_scalar_loop(cost)

    def test_zero_weight_cycles_fall_back(self):
        """Integer costs on which the identity is optimal but ties with a
        2-cycle or a 3-cycle of weight 0; the lowest-index tie-break of the
        search decides."""
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
                assert not search_certified(cost)
                assert_matches_scalar_loop(cost)

    def test_margin_boundary(self):
        """A 2-cycle whose weight equals the margin falls back; one of twice
        the margin is certified."""
        n = 6
        margin = n**3 * np.finfo(float).eps  # n^3 * eps * max|C|, max|C| = 1
        for weight, certified in ((margin, False), (2 * margin, True)):
            cost = np.ones((n, n))
            np.fill_diagonal(cost, 0.0)
            cost[1, 4] = cost[4, 1] = weight / 2
            assert search_certified(cost) == certified
            assert_matches_scalar_loop(cost)

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
        the first one. Scaled down as far, the margin and its lowering of
        the arcs stay normal numbers."""
        cost = stream(10, "hungarian").uniform(-1.0, 1.0, size=(512, 512))
        for scale in (1e250, 1e-250):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not search_certified(cost * scale)
                perm = hungarian(cost * scale)
            assert sorted(perm) == list(range(512))

    def test_all_zero_cost_refused(self):
        """Margin 0: every cycle is a tie, at any size."""
        for n in (1, 2, 7):
            cost = np.zeros((n, n))
            assert not search_certified(cost)
            assert_matches_scalar_loop(cost)

    def test_single_row_certified(self):
        for value in (3.5, -1e-300, 1e300):
            cost = np.array([[value]])
            assert search_certified(cost)
            assert_matches_scalar_loop(cost)

    def test_two_by_two_outcomes(self):
        """The identity wins and is certified; the swap wins, its 2-cycle is
        found and the search answers; a tie is refused."""
        for cost, certified in (([[0.0, 1.0], [1.0, 0.0]], True),
                                ([[1.0, 0.0], [0.0, 1.0]], False),
                                ([[1.0, 2.0], [2.0, 3.0]], False)):
            cost = np.array(cost)
            assert search_certified(cost) == certified
            assert_matches_scalar_loop(cost)

    def test_three_cycle_within_the_lowering(self):
        """A 3-cycle weighing 1.5 margins, above the margin but below the
        three arcs' lowering of 2.25 margins: Floyd-Warshall certifies the
        identity, the cycle search refuses it, and the full search answers
        as the scalar loop does."""
        n = 6
        margin = n**3 * np.finfo(float).eps  # max|C| = 1
        cost = np.ones((n, n))
        np.fill_diagonal(cost, 0.0)
        cost[1, 3] = cost[3, 5] = cost[5, 1] = 1.5 * margin / 3
        assert floyd_warshall_certified(cost)
        assert not search_certified(cost)
        assert_matches_scalar_loop(cost)


class TestFloydWarshallOracle:
    """The cycle search certifies what the Floyd-Warshall certificate it
    replaced certifies on the inputs hungarian builds, and never certifies
    a cost that certificate refuses."""

    def test_joint_design_inputs_agree(self, monkeypatch):
        """Every candidate the warm start checks on the joint-long-sized
        costs of seeds 1-2 and 13-18."""
        costs = joint_design_costs((1, 2, *range(13, 19)))
        inputs = []
        arc_weights = samplingopt._arc_weights

        def recording(cost, perm):
            inputs.append((cost.copy(), perm.copy()))
            return arc_weights(cost, perm)

        monkeypatch.setattr(samplingopt, "_arc_weights", recording)
        for cost in costs:
            hungarian(cost)
        monkeypatch.undo()
        assert len(inputs) > len(costs)
        verdicts = [floyd_warshall_certified(cost, perm) for cost, perm in inputs]
        assert any(verdicts) and not all(verdicts)
        for (cost, perm), verdict in zip(inputs, verdicts):
            assert search_certified(cost, perm) == verdict

    def test_never_certifies_what_the_oracle_refuses(self):
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
        for cost in costs:
            verdict = search_certified(cost)
            outcomes.add(verdict)
            assert not verdict or floyd_warshall_certified(cost)
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
def search_sizes(monkeypatch):
    """The sizes of the costs that hungarian hands to the search, in order."""
    sizes = []
    search = samplingopt._augmenting_path_search

    def recording_search(cost):
        sizes.append(cost.shape[0])
        return search(cost)

    monkeypatch.setattr(samplingopt, "_augmenting_path_search", recording_search)
    return sizes


class TestWarmStart:
    """A cost the identity certificate rejects is re-solved on the rows of
    its negative cycles and certified; ties and far-from-identity costs go
    to the full search. Either way the answer is the scalar loop's."""

    def test_planted_cycles_skip_the_full_search(self, search_sizes):
        rng = stream(11, "hungarian")
        for n in (32, 48, 64):
            for weight in (1e-3, 1.0, 4.0):
                cost, expected = planted_cycles(rng, n, (2, 3, 7), weight)
                search_sizes.clear()
                assert np.array_equal(hungarian(cost), expected)
                assert search_sizes and max(search_sizes) < n
                assert_matches_scalar_loop(cost)

    def test_zero_weight_cycle_falls_back(self, search_sizes):
        """A planted negative 3-cycle plus a zero-weight 2-cycle on two other
        rows: the candidate that rotates the 3-cycle ties with the one that
        also swaps the pair, so the full search breaks the tie."""
        rng = stream(12, "hungarian")
        for n in (8, 16, 32):
            cost, planted = planted_cycles(rng, n, (3,), 1.0)
            a, b = np.flatnonzero(planted == np.arange(n))[:2]
            cost[a, b] = cost[a, a]
            cost[b, a] = cost[b, b]
            search_sizes.clear()
            perm = hungarian(cost)
            assert search_sizes[-1] == n
            assert np.array_equal(perm, scalar_loop_hungarian(cost))

    def test_joint_design_calls(self, search_sizes):
        """The joint-long costs of seeds 13-18: every call the certificate
        rejects is answered without a full-size search, and every call
        matches the scalar loop."""
        costs = joint_design_costs(range(13, 19))
        assert len(costs) == 35
        uncertified = [cost for cost in costs if not search_certified(cost)]
        assert len(uncertified) == 15
        answered = 0
        for cost in uncertified:
            search_sizes.clear()
            hungarian(cost)
            answered += max(search_sizes) < cost.shape[0]
        assert answered == 15
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
        from a Fortran-ordered array at n = 128, so hungarian hands every
        kernel a C-ordered one: on costs the warm start answers, and on a
        far-from-identity cost that goes to the full search."""
        seen = []
        for name in ("_arc_weights", "_augmenting_path_search"):
            kernel = getattr(samplingopt, name)

            def recording(cost, *args, kernel=kernel):
                seen.append(cost.flags.c_contiguous)
                return kernel(cost, *args)

            monkeypatch.setattr(samplingopt, name, recording)
        rng = stream(15, "hungarian")
        for cost in list(joint_costs) + [rng.uniform(size=(16, 16))]:
            hungarian(np.asfortranarray(cost))
        assert seen and all(seen)
