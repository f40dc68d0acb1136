"""Capacity and interference-power metrics, with Monte-Carlo oracles."""

import math

import numpy as np
import pytest

from specshare.config import ScenarioConfig, Scheme
from specshare.interference import (
    METHOD_EIP_I,
    METHOD_EIP_II,
    METHOD_IP_FMFB,
    METHOD_TIP,
    CovarianceSchedule,
    MetricError,
    NoiseCovSchedule,
    WeightSchedule,
    average_capacity,
    eip_scheme2_trace_form,
    empirical_eip,
    interference_diag_matrix,
    matched_filter_weights,
    mismatched_weight_diagonals,
    noise_covariances,
    scheme_weights,
    weight_schedule,
    weighted_eip,
)
from specshare.linalg import crandn, hermitize, psd_sqrt
from specshare.scenario import SamplingMask
from specshare.streams import stream


def random_psd(rng, n, scale=1.0):
    A = crandn(rng, n, n)
    return hermitize(scale * (A @ A.conj().T) / n)


def random_schedule(rng, n, L, scale=1.0):
    return CovarianceSchedule([random_psd(rng, n, scale) for _ in range(L)])


def random_mask(rng, rows, cols, p=0.5):
    while True:
        omega = (rng.random((rows, cols)) < p).astype(float)
        if omega.sum(axis=0).min() >= 1 and omega.sum(axis=1).min() >= 1:
            return SamplingMask(omega)


def random_orthonormal_rows(rng, m, L):
    q, _ = np.linalg.qr(crandn(rng, L, m))
    return q.conj().T


def metric(method, G2, schedule, mask=None, S=None):
    """The named interference metric through the one weighted form."""
    w = weight_schedule(method, G2.shape[0], len(schedule), mask=mask, S=S)
    return weighted_eip(w, interference_diag_matrix(G2, schedule))


def loop_weighted_trace(w_diags, G2, schedule):
    """sum_l Tr(diag(w_l) G2 R_l G2^H), one symbol at a time."""
    return sum(
        float(np.trace(np.diag(w) @ G2 @ R @ G2.conj().T).real)
        for w, R in zip(w_diags, schedule)
    )


def loop_tip(G2, schedule):
    return loop_weighted_trace(np.ones((len(schedule), G2.shape[0])), G2, schedule)


def loop_fmfb(S, G2, schedule):
    """sum_l a_l Tr(G2 R_l G2^H) with a_l the waveform column energies."""
    a = np.sum(np.abs(S) ** 2, axis=0)
    return loop_weighted_trace(np.outer(a, np.ones(G2.shape[0])), G2, schedule)


class TestNoiseCovariances:
    def test_zero_jitter_is_white(self):
        cfg = ScenarioConfig(sigma_alpha2=0.0)
        G1 = crandn(stream(0, "g1"), cfg.M_rC, cfg.M_tR)
        S = random_orthonormal_rows(stream(0, "s"), cfg.M_tR, cfg.L)
        noise = noise_covariances(cfg, G1, S)
        for R in noise:
            assert np.linalg.norm(R - cfg.sigma_C2 * np.eye(cfg.M_rC)) <= 1e-12

    def test_interference_part_rank_one(self):
        cfg = ScenarioConfig()
        G1 = crandn(stream(1, "g1"), cfg.M_rC, cfg.M_tR)
        S = random_orthonormal_rows(stream(1, "s"), cfg.M_tR, cfg.L)
        for R in noise_covariances(cfg, G1, S):
            s = np.linalg.svd(R - cfg.sigma_C2 * np.eye(cfg.M_rC), compute_uv=False)
            assert np.sum(s > 1e-10 * max(s[0], 1e-300)) <= 1

    def test_scalar_case(self):
        cfg = ScenarioConfig(M_tR=1, M_rR=1, M_tC=1, M_rC=1, L=1, rho2=4.0,
                             sigma_alpha2=0.01, sigma_C2=0.3)
        noise = noise_covariances(cfg, np.ones((1, 1)), np.ones((1, 1)))
        assert abs(noise[0][0, 0] - (4.0 * 0.01 + 0.3)) < 1e-14


class TestAverageCapacity:
    def test_zero_schedule(self):
        cfg = ScenarioConfig()
        G1 = crandn(stream(0, "g1"), cfg.M_rC, cfg.M_tR)
        S = random_orthonormal_rows(stream(0, "s"), cfg.M_tR, cfg.L)
        H = crandn(stream(0, "h"), cfg.M_rC, cfg.M_tC)
        noise = noise_covariances(cfg, G1, S)
        zeros = CovarianceSchedule([np.zeros((cfg.M_tC, cfg.M_tC))] * cfg.L)
        assert average_capacity(zeros, H, noise) == 0.0

    def test_scalar_one_bit(self):
        from specshare.interference import NoiseCovSchedule

        schedule = CovarianceSchedule([np.eye(1)])
        noise = NoiseCovSchedule([np.eye(1)])
        cap = average_capacity(schedule, np.eye(1), noise)
        assert abs(cap - 1.0) < 1e-12

    def test_matches_determinant_oracle(self):
        from specshare.interference import NoiseCovSchedule

        rng = stream(0, "cap-oracle")
        for _ in range(20):
            L = int(rng.integers(1, 5))
            H = crandn(rng, 2, 2)
            schedule = random_schedule(rng, 2, L)
            noise = NoiseCovSchedule(
                [random_psd(rng, 2) + 0.1 * np.eye(2) for _ in range(L)]
            )
            slow = 0.0
            for l in range(L):
                M = np.eye(2) + np.linalg.inv(noise[l]) @ H @ schedule[l] @ H.conj().T
                slow += math.log2(abs(np.linalg.det(M)))
            slow /= L
            fast = average_capacity(schedule, H, noise)
            assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))

    def test_monotone_in_psd_order(self):
        from specshare.interference import NoiseCovSchedule

        rng = stream(1, "cap-mono")
        H = crandn(rng, 3, 3)
        noise = NoiseCovSchedule([random_psd(rng, 3) + 0.1 * np.eye(3) for _ in range(2)])
        schedule = random_schedule(rng, 3, 2)
        base = average_capacity(schedule, H, noise)
        v = crandn(rng, 3)
        bumped = CovarianceSchedule(
            [R + 0.1 * np.outer(v, v.conj()) for R in schedule]
        )
        assert average_capacity(bumped, H, noise) >= base - 1e-12

    def test_non_pd_noise_rejected(self):
        from specshare.interference import NoiseCovSchedule

        schedule = CovarianceSchedule([np.eye(1)])
        noise = NoiseCovSchedule([np.zeros((1, 1))])
        with pytest.raises(MetricError):
            average_capacity(schedule, np.eye(1), noise)


class TestTip:
    def test_identity_case(self):
        L, n = 5, 3
        schedule = CovarianceSchedule([np.eye(n)] * L)
        assert abs(metric(METHOD_TIP, np.eye(n), schedule) - L * n) < 1e-12

    def test_zero_channel(self):
        schedule = random_schedule(stream(0, "tip"), 2, 3)
        assert metric(METHOD_TIP, np.zeros((4, 2)), schedule) == 0.0

    def test_monte_carlo_oracle(self):
        rng = stream(2, "tip-mc")
        G2 = crandn(rng, 3, 2)
        schedule = random_schedule(rng, 2, 2)
        roots = schedule.sqrts()
        trials = 20000
        samples = np.empty(trials)
        for t in range(trials):
            total = 0.0
            for root in roots:
                x = root @ crandn(rng, 2)
                total += np.sum(np.abs(G2 @ x) ** 2)
            samples[t] = total
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(trials)
        assert abs(metric(METHOD_TIP, G2, schedule) - mean) <= 3 * stderr


class TestEipScheme1:
    def test_full_mask_equals_tip(self):
        rng = stream(0, "eip1")
        G2 = crandn(rng, 4, 3)
        schedule = random_schedule(rng, 3, 6)
        mask = SamplingMask(np.ones((4, 6)))
        assert abs(metric(METHOD_EIP_I, G2, schedule, mask=mask) - loop_tip(G2, schedule)) < 1e-12

    def test_zero_mask(self):
        rng = stream(1, "eip1")
        G2 = crandn(rng, 4, 3)
        schedule = random_schedule(rng, 3, 6)
        assert metric(METHOD_EIP_I, G2, schedule, mask=SamplingMask(np.zeros((4, 6)))) == 0.0

    def test_hand_case(self):
        mask = SamplingMask(np.array([[1.0], [0.0]]))
        schedule = CovarianceSchedule([np.eye(2)])
        assert abs(metric(METHOD_EIP_I, np.eye(2), schedule, mask=mask) - 1.0) < 1e-14

    def test_shape_mismatch(self):
        schedule = CovarianceSchedule([np.eye(2)])
        with pytest.raises(MetricError):
            metric(METHOD_EIP_I, np.eye(2), schedule, mask=SamplingMask(np.ones((3, 2))))

    def test_bounded_by_tip_and_monotone_in_mask(self):
        rng = stream(2, "eip1")
        G2 = crandn(rng, 4, 3)
        schedule = random_schedule(rng, 3, 5)
        mask = random_mask(rng, 4, 5)
        base = metric(METHOD_EIP_I, G2, schedule, mask=mask)
        assert 0.0 <= base <= loop_tip(G2, schedule) + 1e-12
        zeros = np.argwhere(mask.omega == 0)
        if len(zeros):
            i, j = zeros[0]
            grown = mask.omega.copy()
            grown[i, j] = 1.0
            assert metric(METHOD_EIP_I, G2, schedule, mask=SamplingMask(grown)) >= base - 1e-12


class TestMatchedFilterWeights:
    def test_full_mask_gives_scaled_identity(self):
        rng = stream(0, "mfw")
        S = random_orthonormal_rows(rng, 3, 8)
        mask = SamplingMask(np.ones((5, 3)))
        delta, a = matched_filter_weights(S, mask)
        for l in range(8):
            assert np.allclose(delta[l], a[l])

    def test_subset_bounds(self):
        rng = stream(1, "mfw")
        S = random_orthonormal_rows(rng, 3, 8)
        mask = random_mask(rng, 5, 3)
        delta, a = matched_filter_weights(S, mask)
        assert np.all(delta >= -1e-15)
        assert np.all(delta <= a[:, None] + 1e-12)

    def test_column_energy_sum(self):
        rng = stream(2, "mfw")
        S = random_orthonormal_rows(rng, 4, 9)
        _, a = matched_filter_weights(S, SamplingMask(np.ones((2, 4))))
        assert abs(a.sum() - 4.0) < 1e-10


class TestEipScheme2:
    def test_full_mask_equals_ip_fmfb(self):
        rng = stream(0, "eip2")
        S = random_orthonormal_rows(rng, 3, 6)
        G2 = crandn(rng, 5, 2)
        schedule = random_schedule(rng, 2, 6)
        mask = SamplingMask(np.ones((5, 3)))
        assert abs(metric(METHOD_EIP_II, G2, schedule, mask=mask, S=S)
                   - loop_fmfb(S, G2, schedule)) < 1e-10

    def test_zero_mask(self):
        rng = stream(1, "eip2")
        S = random_orthonormal_rows(rng, 3, 6)
        G2 = crandn(rng, 5, 2)
        schedule = random_schedule(rng, 2, 6)
        assert metric(METHOD_EIP_II, G2, schedule, mask=SamplingMask(np.zeros((5, 3))), S=S) == 0.0

    def test_trace_form_identity(self):
        rng = stream(2, "eip2")
        for _ in range(30):
            m, n_rx, n_tx, L = 3, 5, 2, 6
            S = random_orthonormal_rows(rng, m, L)
            G2 = crandn(rng, n_rx, n_tx)
            schedule = random_schedule(rng, n_tx, L)
            mask = random_mask(rng, n_rx, m)
            a = metric(METHOD_EIP_II, G2, schedule, mask=mask, S=S)
            b = eip_scheme2_trace_form(mask, S, G2, schedule)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)

    def test_trace_form_scalar(self):
        mask = SamplingMask(np.ones((1, 1)))
        S = np.ones((1, 1), dtype=complex)
        G2 = np.array([[2.0 - 1.0j]])
        schedule = CovarianceSchedule([np.array([[0.7]])])
        val = eip_scheme2_trace_form(mask, S, G2, schedule)
        assert abs(val - 5.0 * 0.7) < 1e-12

    def test_bounded_by_ip_fmfb(self):
        rng = stream(3, "eip2")
        S = random_orthonormal_rows(rng, 3, 6)
        G2 = crandn(rng, 5, 2)
        schedule = random_schedule(rng, 2, 6)
        mask = random_mask(rng, 5, 3)
        assert (metric(METHOD_EIP_II, G2, schedule, mask=mask, S=S)
                <= loop_fmfb(S, G2, schedule) + 1e-12)

    def test_monotone_in_mask(self):
        rng = stream(4, "eip2")
        S = random_orthonormal_rows(rng, 3, 6)
        G2 = crandn(rng, 5, 2)
        schedule = random_schedule(rng, 2, 6)
        mask = random_mask(rng, 5, 3)
        base = metric(METHOD_EIP_II, G2, schedule, mask=mask, S=S)
        zeros = np.argwhere(mask.omega == 0)
        if len(zeros):
            i, j = zeros[0]
            grown = mask.omega.copy()
            grown[i, j] = 1.0
            grown_eip = metric(METHOD_EIP_II, G2, schedule, mask=SamplingMask(grown), S=S)
            assert grown_eip >= base - 1e-12


class TestIpFmfb:
    def test_uniform_column_energies(self):
        # DFT-based waveforms: orthonormal rows with constant column energy.
        m, L = 4, 8
        F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(L)) / L) / np.sqrt(L)
        assert np.linalg.norm(F @ F.conj().T - np.eye(m)) < 1e-10
        rng = stream(0, "fmfb")
        G2 = crandn(rng, 5, 3)
        schedule = random_schedule(rng, 3, L)
        expect = (m / L) * loop_tip(G2, schedule)
        assert abs(metric(METHOD_IP_FMFB, G2, schedule, S=F) - expect) < 1e-10

    def test_zero_channel(self):
        rng = stream(1, "fmfb")
        S = random_orthonormal_rows(rng, 3, 6)
        schedule = random_schedule(rng, 2, 6)
        assert metric(METHOD_IP_FMFB, np.zeros((5, 2)), schedule, S=S) == 0.0


class TestWeightSchedule:
    def test_tip_weights(self):
        w = weight_schedule(METHOD_TIP, 4, 6)
        assert np.all(w.diagonals == 1.0)
        assert w.method == METHOD_TIP

    def test_eip1_full_mask_matches_tip(self):
        mask = SamplingMask(np.ones((4, 6)))
        a = weight_schedule(METHOD_EIP_I, 4, 6, mask=mask)
        b = weight_schedule(METHOD_TIP, 4, 6)
        assert np.array_equal(a.diagonals, b.diagonals)

    def test_generic_sum_reproduces_metrics(self):
        rng = stream(0, "ws")
        m, n_rx, n_tx, L = 3, 5, 2, 6
        S = random_orthonormal_rows(rng, m, L)
        G2 = crandn(rng, n_rx, n_tx)
        schedule = random_schedule(rng, n_tx, L)
        mask1 = random_mask(rng, n_rx, L)
        mask2 = random_mask(rng, n_rx, m)
        weights = [
            weight_schedule(METHOD_TIP, n_rx, L),
            weight_schedule(METHOD_EIP_I, n_rx, L, mask=mask1),
            weight_schedule(METHOD_IP_FMFB, n_rx, L, S=S),
            weight_schedule(METHOD_EIP_II, n_rx, L, mask=mask2, S=S),
        ]
        Q = interference_diag_matrix(G2, schedule)
        for w in weights:
            direct = loop_weighted_trace(w.diagonals, G2, schedule)
            generic = weighted_eip(w, Q)
            assert abs(generic - direct) <= 1e-12 * max(abs(direct), 1e-300)

    def test_weighted_eip_rejects_shape_mismatch(self):
        Q = np.ones((4, 6))
        with pytest.raises(MetricError):
            weighted_eip(weight_schedule(METHOD_TIP, 6, 4), Q)

    def test_weighted_eip_is_signed(self):
        w = WeightSchedule(diagonals=np.ones((1, 2)), method=METHOD_TIP)
        assert weighted_eip(w, np.array([[-1e-18], [0.0]])) == -1e-18

    def test_scheme_weights(self):
        rng = stream(1, "ws")
        S = random_orthonormal_rows(rng, 3, 6)
        mask1 = random_mask(rng, 5, 6)
        mask2 = random_mask(rng, 5, 3)
        cfg1 = ScenarioConfig(scheme=Scheme.SCHEME_I)
        cfg2 = ScenarioConfig(scheme=Scheme.SCHEME_II)
        w1 = scheme_weights(cfg1, mask1, S)
        w2 = scheme_weights(cfg2, mask2, S)
        assert w1.method == METHOD_EIP_I
        assert np.array_equal(w1.diagonals, mask1.omega.T)
        assert w2.method == METHOD_EIP_II
        assert np.array_equal(w2.diagonals, matched_filter_weights(S, mask2)[0])
        with pytest.raises(MetricError):
            scheme_weights(cfg1, mask2, S)

    def test_missing_mask_rejected(self):
        with pytest.raises(MetricError):
            weight_schedule(METHOD_EIP_I, 4, 6)


class TestMismatchedRates:
    def test_equal_rates_identity(self):
        rng = stream(0, "mm")
        mask = random_mask(rng, 3, 4)
        w = weight_schedule(METHOD_EIP_I, 3, 4, mask=mask)
        out = mismatched_weight_diagonals(w, 1.0, 1.0, 4)
        assert np.array_equal(out, w.diagonals)

    def test_radar_faster_sums_consecutive_weights(self):
        d = np.arange(12.0).reshape(4, 3)
        w = WeightSchedule(diagonals=d, method=METHOD_EIP_I)
        out = mismatched_weight_diagonals(w, 2.0, 1.0, 2)
        assert np.array_equal(out, d[0::2] + d[1::2])

    def test_radar_slower_zeroes_unsampled_symbols(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = WeightSchedule(diagonals=d, method=METHOD_EIP_I)
        out = mismatched_weight_diagonals(w, 1.0, 2.0, 4)
        assert np.array_equal(out[0], d[0])
        assert np.array_equal(out[2], d[1])
        assert np.all(out[1] == 0) and np.all(out[3] == 0)

    def test_non_integer_ratio_rejected(self):
        w = WeightSchedule(diagonals=np.ones((3, 2)), method=METHOD_EIP_I)
        with pytest.raises(MetricError):
            mismatched_weight_diagonals(w, 2.0, 3.0, 3)

    def test_equal_rates_match_scheme_metric(self):
        rng = stream(1, "mm")
        cfg = ScenarioConfig(M_tR=2, M_rR=3, M_tC=2, M_rC=2, L=4, p=0.5, seed=0)
        S = random_orthonormal_rows(rng, 2, 4)
        G2 = crandn(rng, 3, 2)
        schedule = random_schedule(rng, 2, 4)
        mask = random_mask(rng, 3, 4)
        w = scheme_weights(cfg, mask, S)
        diags = mismatched_weight_diagonals(w, cfg.radar_rate, cfg.comm_rate, len(schedule))
        val = weighted_eip(WeightSchedule(diags, w.method),
                           interference_diag_matrix(G2, schedule))
        assert abs(val - loop_weighted_trace(mask.omega.T, G2, schedule)) < 1e-12


class TestEmpiricalEip:
    def test_scheme1_per_realization_identity(self):
        # Unit-modulus phases cancel inside the elementwise modulus, so the
        # masked interference power is a deterministic function of X.
        rng = stream(0, "emp1")
        cfg = ScenarioConfig(M_tR=2, M_rR=3, M_tC=2, M_rC=2, L=4, p=0.5)
        G2 = crandn(rng, 3, 2)
        mask = random_mask(rng, 3, 4)
        X = crandn(rng, 2, 4)
        for trial in range(5):
            alpha = np.sqrt(cfg.sigma_alpha2) * rng.standard_normal(4)
            masked = mask.omega * ((G2 @ X) * np.exp(1j * alpha))
            direct = np.sum(np.abs(masked) ** 2)
            analytic = sum(
                np.sum(mask.omega[:, l] * np.abs(G2 @ X[:, l]) ** 2) for l in range(4)
            )
            assert abs(direct - analytic) <= 1e-10 * max(analytic, 1e-300)

    def test_zero_schedule(self):
        cfg = ScenarioConfig(M_tR=2, M_rR=3, M_tC=2, M_rC=2, L=4, p=0.5)
        schedule = CovarianceSchedule([np.zeros((2, 2))] * 4)
        mask = SamplingMask(np.ones((3, 4)))
        S = random_orthonormal_rows(stream(0, "s"), 2, 4)
        G2 = crandn(stream(0, "g2"), 3, 2)
        mean, se = empirical_eip(cfg, mask, G2, S, schedule, 10, stream(0, "emp"))
        assert mean == 0.0 and se == 0.0

    def test_scheme2_statistical_agreement(self):
        rng = stream(1, "emp2")
        cfg = ScenarioConfig(M_tR=2, M_rR=3, M_tC=2, M_rC=2, L=4, p=0.5,
                             scheme=Scheme.SCHEME_II)
        S = random_orthonormal_rows(rng, 2, 4)
        G2 = crandn(rng, 3, 2)
        schedule = random_schedule(rng, 2, 4)
        mask = random_mask(rng, 3, 2)
        analytic = weighted_eip(scheme_weights(cfg, mask, S),
                                interference_diag_matrix(G2, schedule))
        mean, se = empirical_eip(cfg, mask, G2, S, schedule, 10000, stream(1, "emp"))
        assert abs(analytic - mean) <= 3 * se


class TestCovarianceSchedule:
    def test_total_power(self):
        schedule = CovarianceSchedule([np.eye(2), 2 * np.eye(2)])
        assert abs(schedule.total_power - 6.0) < 1e-12

    def test_validate_rejects_non_hermitian(self):
        schedule = CovarianceSchedule([np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(MetricError):
            schedule.validate()

    def test_validate_rejects_indefinite(self):
        schedule = CovarianceSchedule([np.diag([1.0, -1.0])])
        with pytest.raises(MetricError):
            schedule.validate()

    def test_interference_diag_matrix_shape(self):
        rng = stream(0, "q")
        G2 = crandn(rng, 5, 3)
        schedule = random_schedule(rng, 3, 4)
        Q = interference_diag_matrix(G2, schedule)
        assert Q.shape == (5, 4)
        assert np.all(Q >= -1e-12)


def loop_validate_ok(schedule, tol=1e-9):
    """Per-symbol Hermitian and PSD verdict of a covariance schedule."""
    for R in schedule:
        if np.linalg.norm(R - R.conj().T) > 1e-10 * max(1.0, np.linalg.norm(R)):
            return False
        if np.linalg.eigvalsh(hermitize(R))[0] < -tol * max(1.0, float(np.trace(R).real)):
            return False
    return True


class TestStackedAgainstPerSymbol:
    """The stacked (L, n, n) schedule operations against per-symbol loops."""

    @pytest.mark.parametrize("n_rx,n_tx,L", [
        (8, 8, 32), (8, 8, 128), (32, 4, 32), (5, 3, 4), (3, 1, 7), (1, 6, 9),
    ])
    def test_interference_diag_matrix(self, n_rx, n_tx, L):
        rng = stream(0, "q-loop", n_rx, n_tx, L)
        G2 = crandn(rng, n_rx, n_tx)
        schedule = random_schedule(rng, n_tx, L)
        loop = np.stack(
            [np.einsum("ij,jk,ik->i", G2, R, G2.conj()).real for R in schedule], axis=1
        )
        assert np.array_equal(interference_diag_matrix(G2, schedule), loop)

    def test_interference_diag_matrix_tiny_operands(self):
        # einsum may order the reduction differently for 2 x 2 operands, so
        # these agree to roundoff rather than bit for bit.
        rng = stream(1, "q-loop")
        G2 = crandn(rng, 2, 2)
        schedule = random_schedule(rng, 2, 64)
        loop = np.stack(
            [np.einsum("ij,jk,ik->i", G2, R, G2.conj()).real for R in schedule], axis=1
        )
        Q = interference_diag_matrix(G2, schedule)
        assert np.allclose(Q, loop, rtol=1e-14, atol=0.0)

    def test_sqrts(self):
        rng = stream(0, "sqrt-loop")
        schedule = random_schedule(rng, 8, 32)
        rank_deficient = CovarianceSchedule([np.diag([2.0, 0.0, 1.0])] * 3)
        for sched in (schedule, rank_deficient):
            loop = []
            for R in sched:
                w, v = np.linalg.eigh(hermitize(R))
                loop.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
            assert np.array_equal(sched.sqrts(), np.stack(loop))
            assert np.array_equal(sched.sqrts()[0], psd_sqrt(sched[0]))

    def test_validate_verdict(self):
        rng = stream(0, "validate-loop")
        good = [random_psd(rng, 3) for _ in range(4)]
        skew = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        indefinite = np.diag([1.0, -1e-3, 1.0])
        barely = np.diag([1.0, -1e-10, 1.0])  # within PSD_TOL
        cases = [good, good + [skew], [indefinite] + good, good + [indefinite],
                 good[:2] + [barely], [skew, indefinite]]
        for mats in cases:
            schedule = CovarianceSchedule(mats)
            try:
                schedule.validate()
                ok = True
            except MetricError:
                ok = False
            assert np.array_equal(ok, loop_validate_ok(schedule))

    def test_total_power(self):
        schedule = random_schedule(stream(0, "power-loop"), 8, 128, scale=3.0)
        loop = sum(float(np.trace(R).real) for R in schedule)
        assert abs(schedule.total_power - loop) <= 1e-12 * loop

    def test_average_capacity(self):
        rng = stream(0, "cap-loop")
        cfg = ScenarioConfig()
        G1 = crandn(rng, cfg.M_rC, cfg.M_tR)
        S = random_orthonormal_rows(rng, cfg.M_tR, cfg.L)
        H = crandn(rng, cfg.M_rC, cfg.M_tC)
        noise = noise_covariances(cfg, G1, S)
        schedule = random_schedule(rng, cfg.M_tC, cfg.L, scale=4.0)
        loop = 0.0
        for R_x, R_w in zip(schedule, noise):
            _, logdet_n = np.linalg.slogdet(R_w)
            _, logdet_f = np.linalg.slogdet(R_w + H @ R_x @ H.conj().T)
            loop += (logdet_f - logdet_n) / math.log(2.0)
        loop /= cfg.L
        assert abs(average_capacity(schedule, H, noise) - loop) <= 1e-12 * loop

    def test_list_input_is_stacked(self):
        mats = [np.eye(2), 2 * np.eye(2), 3 * np.eye(2)]
        schedule = CovarianceSchedule(mats)
        noise = NoiseCovSchedule(mats)
        for stack in (schedule, noise):
            assert stack.matrices.shape == (3, 2, 2)
            assert len(stack) == 3
            assert np.array_equal(stack[1], mats[1])
            assert all(np.array_equal(a, b) for a, b in zip(stack, mats))
