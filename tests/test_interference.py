"""Capacity and interference-power metrics, with Monte-Carlo oracles."""

import math
import warnings

import numpy as np
import pytest

from specshare.config import ScenarioConfig, Scheme
from specshare.covdesign import solve_weighted_eip
from specshare.interference import (
    PSD_TOL,
    MetricError,
    average_capacity,
    check_covariances,
    fmfb_weights,
    interference_diag_matrix,
    mismatched_weight_diagonals,
    noise_covariances,
    scheme_mask_cost,
    scheme_weights,
    tip_weights,
    total_power,
    weighted_eip,
)
from specshare.linalg import crandn, hermitize, psd_sqrt
from specshare.scenario import generate_channels, generate_waveforms, make_scenario
from specshare.streams import stream

from oracles import eip_samples, eip_scheme2_trace_form, empirical_eip


def random_psd(rng, n, scale=1.0):
    A = crandn(rng, n, n)
    return hermitize(scale * (A @ A.conj().T) / n)


def random_schedule(rng, n, L, scale=1.0):
    return np.stack([random_psd(rng, n, scale) for _ in range(L)])


def random_mask(rng, rows, cols, p=0.5):
    while True:
        omega = (rng.random((rows, cols)) < p).astype(float)
        if omega.sum(axis=0).min() >= 1 and omega.sum(axis=1).min() >= 1:
            return omega


def random_orthonormal_rows(rng, m, L):
    q, _ = np.linalg.qr(crandn(rng, L, m))
    return q.conj().T


SCHEME_I = ScenarioConfig(scheme=Scheme.SCHEME_I)
SCHEME_II = ScenarioConfig(scheme=Scheme.SCHEME_II)


def named_weights(method, n_rx, L, mask=None, S=None):
    """The named metric's weights, from the builder of its family."""
    if method == "TIP":
        return tip_weights(n_rx, L)
    if method == "IP_FMFB":
        return fmfb_weights(S, n_rx)
    if method == "EIP_I":
        # Scheme I weights read only the symbol count of the waveforms.
        return scheme_weights(SCHEME_I, mask, np.empty((0, L)) if S is None else S)
    return scheme_weights(SCHEME_II, mask, S)


def matched_filter_weights(S, mask):
    """(delta, a): delta[l, m] = sum_{i in xi_m} |s_i(l)|^2, the Scheme II
    weights, and a_l the waveform column energies."""
    s_abs2 = np.abs(S) ** 2
    return (mask @ s_abs2).T, s_abs2.sum(axis=0)


def metric(method, G2, schedule, mask=None, S=None):
    """The named interference metric through the one weighted form."""
    w = named_weights(method, G2.shape[0], len(schedule), mask=mask, S=S)
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
        zeros = np.stack([np.zeros((cfg.M_tC, cfg.M_tC))] * cfg.L)
        assert average_capacity(zeros, H, noise) == 0.0

    def test_scalar_one_bit(self):
        schedule = np.stack([np.eye(1)])
        noise = np.stack([np.eye(1)])
        cap = average_capacity(schedule, np.eye(1), noise)
        assert abs(cap - 1.0) < 1e-12

    def test_matches_determinant_oracle(self):
        rng = stream(0, "cap-oracle")
        for _ in range(20):
            L = int(rng.integers(1, 5))
            H = crandn(rng, 2, 2)
            schedule = random_schedule(rng, 2, L)
            noise = np.stack(
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
        rng = stream(1, "cap-mono")
        H = crandn(rng, 3, 3)
        noise = np.stack([random_psd(rng, 3) + 0.1 * np.eye(3) for _ in range(2)])
        schedule = random_schedule(rng, 3, 2)
        base = average_capacity(schedule, H, noise)
        v = crandn(rng, 3)
        bumped = np.stack(
            [R + 0.1 * np.outer(v, v.conj()) for R in schedule]
        )
        assert average_capacity(bumped, H, noise) >= base - 1e-12

    def test_non_pd_noise_rejected(self):
        schedule = np.stack([np.eye(1)])
        noise = np.stack([np.zeros((1, 1))])
        with pytest.raises(MetricError):
            average_capacity(schedule, np.eye(1), noise)


class TestTip:
    def test_identity_case(self):
        L, n = 5, 3
        schedule = np.stack([np.eye(n)] * L)
        assert abs(metric("TIP", np.eye(n), schedule) - L * n) < 1e-12

    def test_zero_channel(self):
        schedule = random_schedule(stream(0, "tip"), 2, 3)
        assert metric("TIP", np.zeros((4, 2)), schedule) == 0.0

    def test_monte_carlo_oracle(self):
        rng = stream(2, "tip-mc")
        G2 = crandn(rng, 3, 2)
        schedule = random_schedule(rng, 2, 2)
        roots = psd_sqrt(schedule)
        trials = 20000
        # x(l) = R_l^{1/2} v for every trial and symbol at once, drawn in the
        # order of trial-by-trial, symbol-by-symbol crandn(rng, 2) calls (real
        # then imaginary parts); each sample is bit-equal to that loop's.
        draws = rng.standard_normal((trials, len(roots), 2, 2))
        v = (draws[:, :, 0] + 1j * draws[:, :, 1]) / np.sqrt(2.0)
        x = roots @ v[..., None]
        samples = np.sum(np.abs(G2 @ x) ** 2, axis=(-2, -1)).sum(axis=1)
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(trials)
        assert abs(metric("TIP", G2, schedule) - mean) <= 3 * stderr


class TestEipScheme1:
    def test_full_mask_equals_tip(self):
        rng = stream(0, "eip1")
        G2 = crandn(rng, 4, 3)
        schedule = random_schedule(rng, 3, 6)
        mask = np.ones((4, 6))
        assert abs(metric("EIP_I", G2, schedule, mask=mask) - loop_tip(G2, schedule)) < 1e-12

    def test_zero_mask(self):
        rng = stream(1, "eip1")
        G2 = crandn(rng, 4, 3)
        schedule = random_schedule(rng, 3, 6)
        assert metric("EIP_I", G2, schedule, mask=np.zeros((4, 6))) == 0.0

    def test_hand_case(self):
        mask = np.array([[1.0], [0.0]])
        schedule = np.stack([np.eye(2)])
        assert abs(metric("EIP_I", np.eye(2), schedule, mask=mask) - 1.0) < 1e-14

    def test_shape_mismatch(self):
        schedule = np.stack([np.eye(2)])
        with pytest.raises(MetricError):
            metric("EIP_I", np.eye(2), schedule, mask=np.ones((3, 2)))

    def test_bounded_by_tip_and_monotone_in_mask(self):
        rng = stream(2, "eip1")
        G2 = crandn(rng, 4, 3)
        schedule = random_schedule(rng, 3, 5)
        mask = random_mask(rng, 4, 5)
        base = metric("EIP_I", G2, schedule, mask=mask)
        assert 0.0 <= base <= loop_tip(G2, schedule) + 1e-12
        zeros = np.argwhere(mask == 0)
        if len(zeros):
            i, j = zeros[0]
            grown = mask.copy()
            grown[i, j] = 1.0
            assert metric("EIP_I", G2, schedule, mask=grown) >= base - 1e-12


class TestMatchedFilterWeights:
    def test_full_mask_gives_scaled_identity(self):
        rng = stream(0, "mfw")
        S = random_orthonormal_rows(rng, 3, 8)
        mask = np.ones((5, 3))
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
        _, a = matched_filter_weights(S, np.ones((2, 4)))
        assert abs(a.sum() - 4.0) < 1e-10


class TestEipScheme2:
    def test_full_mask_equals_ip_fmfb(self):
        rng = stream(0, "eip2")
        S = random_orthonormal_rows(rng, 3, 6)
        G2 = crandn(rng, 5, 2)
        schedule = random_schedule(rng, 2, 6)
        mask = np.ones((5, 3))
        assert abs(metric("EIP_II", G2, schedule, mask=mask, S=S)
                   - loop_fmfb(S, G2, schedule)) < 1e-10

    def test_zero_mask(self):
        rng = stream(1, "eip2")
        S = random_orthonormal_rows(rng, 3, 6)
        G2 = crandn(rng, 5, 2)
        schedule = random_schedule(rng, 2, 6)
        assert metric("EIP_II", G2, schedule, mask=np.zeros((5, 3)), S=S) == 0.0

    def test_trace_form_identity(self):
        rng = stream(2, "eip2")
        for _ in range(30):
            m, n_rx, n_tx, L = 3, 5, 2, 6
            S = random_orthonormal_rows(rng, m, L)
            G2 = crandn(rng, n_rx, n_tx)
            schedule = random_schedule(rng, n_tx, L)
            mask = random_mask(rng, n_rx, m)
            a = metric("EIP_II", G2, schedule, mask=mask, S=S)
            b = eip_scheme2_trace_form(mask, S, G2, schedule)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)

    def test_trace_form_scalar(self):
        mask = np.ones((1, 1))
        S = np.ones((1, 1), dtype=complex)
        G2 = np.array([[2.0 - 1.0j]])
        schedule = np.stack([np.array([[0.7]])])
        val = eip_scheme2_trace_form(mask, S, G2, schedule)
        assert abs(val - 5.0 * 0.7) < 1e-12

    def test_bounded_by_ip_fmfb(self):
        rng = stream(3, "eip2")
        S = random_orthonormal_rows(rng, 3, 6)
        G2 = crandn(rng, 5, 2)
        schedule = random_schedule(rng, 2, 6)
        mask = random_mask(rng, 5, 3)
        assert (metric("EIP_II", G2, schedule, mask=mask, S=S)
                <= loop_fmfb(S, G2, schedule) + 1e-12)

    def test_monotone_in_mask(self):
        rng = stream(4, "eip2")
        S = random_orthonormal_rows(rng, 3, 6)
        G2 = crandn(rng, 5, 2)
        schedule = random_schedule(rng, 2, 6)
        mask = random_mask(rng, 5, 3)
        base = metric("EIP_II", G2, schedule, mask=mask, S=S)
        zeros = np.argwhere(mask == 0)
        if len(zeros):
            i, j = zeros[0]
            grown = mask.copy()
            grown[i, j] = 1.0
            grown_eip = metric("EIP_II", G2, schedule, mask=grown, S=S)
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
        assert abs(metric("IP_FMFB", G2, schedule, S=F) - expect) < 1e-10

    def test_zero_channel(self):
        rng = stream(1, "fmfb")
        S = random_orthonormal_rows(rng, 3, 6)
        schedule = random_schedule(rng, 2, 6)
        assert metric("IP_FMFB", np.zeros((5, 2)), schedule, S=S) == 0.0


class TestWeightSchedule:
    def test_tip_weights(self):
        w = named_weights("TIP", 4, 6)
        assert np.all(w == 1.0)

    def test_eip1_full_mask_matches_tip(self):
        mask = np.ones((4, 6))
        a = named_weights("EIP_I", 4, 6, mask=mask)
        b = named_weights("TIP", 4, 6)
        assert np.array_equal(a, b)

    def test_generic_sum_reproduces_metrics(self):
        rng = stream(0, "ws")
        m, n_rx, n_tx, L = 3, 5, 2, 6
        S = random_orthonormal_rows(rng, m, L)
        G2 = crandn(rng, n_rx, n_tx)
        schedule = random_schedule(rng, n_tx, L)
        mask1 = random_mask(rng, n_rx, L)
        mask2 = random_mask(rng, n_rx, m)
        weights = [
            named_weights("TIP", n_rx, L),
            named_weights("EIP_I", n_rx, L, mask=mask1),
            named_weights("IP_FMFB", n_rx, L, S=S),
            named_weights("EIP_II", n_rx, L, mask=mask2, S=S),
        ]
        Q = interference_diag_matrix(G2, schedule)
        for w in weights:
            direct = loop_weighted_trace(w, G2, schedule)
            generic = weighted_eip(w, Q)
            assert abs(generic - direct) <= 1e-12 * max(abs(direct), 1e-300)

    def test_weighted_eip_rejects_shape_mismatch(self):
        Q = np.ones((4, 6))
        with pytest.raises(MetricError):
            weighted_eip(named_weights("TIP", 6, 4), Q)

    def test_weighted_eip_is_signed(self):
        w = np.ones((1, 2))
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
        assert np.array_equal(w1, mask1.T)
        assert np.array_equal(w2, matched_filter_weights(S, mask2)[0])
        with pytest.raises(MetricError):
            scheme_weights(cfg1, mask2, S)

    def test_scheme_mask_cost_is_adjoint(self):
        # The cost the mask search minimizes is the scheme's EIP:
        # sum(W o Q^T) over scheme_weights equals sum(omega o Q~).
        rng = stream(6, "ws")
        for cfg, cols in ((SCHEME_I, 6), (SCHEME_II, 3)):
            for _ in range(5):
                S = crandn(rng, 3, 6)
                omega = random_mask(rng, 4, cols)
                Q = rng.uniform(size=(4, 6))
                eip = weighted_eip(scheme_weights(cfg, omega, S), Q)
                cost = scheme_mask_cost(cfg, Q, S)
                assert cost.shape == omega.shape
                assert abs(float(np.sum(omega * cost)) - eip) <= 1e-12 * abs(eip)

    def test_eip2_receive_count_mismatch_rejected(self):
        # The receive count comes from the mask: an 8-row mask meets the
        # 4-antenna interference profile where the weights are applied.
        rng = stream(3, "ws")
        S = random_orthonormal_rows(rng, 3, 6)
        w = scheme_weights(SCHEME_II, random_mask(rng, 8, 3), S)
        with pytest.raises(MetricError):
            weighted_eip(w, np.ones((4, 6)))

    def test_eip2_waveform_count_mismatch_rejected(self):
        rng = stream(4, "ws")
        S = random_orthonormal_rows(rng, 3, 6)
        with pytest.raises(MetricError):
            scheme_weights(SCHEME_II, random_mask(rng, 4, 5), S)

    def test_weights_are_c_ordered(self):
        # The layout of the weights takes part in the design memo's key and
        # in the summation order of weighted_eip.
        rng = stream(5, "ws")
        S = random_orthonormal_rows(rng, 3, 6)
        for w in (tip_weights(4, 6), fmfb_weights(S, 4),
                  scheme_weights(SCHEME_I, random_mask(rng, 4, 6), S),
                  scheme_weights(SCHEME_II, random_mask(rng, 4, 3), S)):
            assert w.shape == (6, 4) and w.flags.c_contiguous


class TestMismatchedRates:
    def test_equal_rates_identity(self):
        rng = stream(0, "mm")
        mask = random_mask(rng, 3, 4)
        w = named_weights("EIP_I", 3, 4, mask=mask)
        out = mismatched_weight_diagonals(w, 1.0, 1.0, 4)
        assert np.array_equal(out, w)

    def test_radar_faster_sums_consecutive_weights(self):
        d = np.arange(12.0).reshape(4, 3)
        w = d
        out = mismatched_weight_diagonals(w, 2.0, 1.0, 2)
        assert np.array_equal(out, d[0::2] + d[1::2])

    def test_radar_slower_zeroes_unsampled_symbols(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = d
        out = mismatched_weight_diagonals(w, 1.0, 2.0, 4)
        assert np.array_equal(out[0], d[0])
        assert np.array_equal(out[2], d[1])
        assert np.all(out[1] == 0) and np.all(out[3] == 0)

    def test_non_integer_ratio_rejected(self):
        w = np.ones((3, 2))
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
        diags = mismatched_weight_diagonals(w, 1.0, 1.0, len(schedule))
        val = weighted_eip(diags,
                           interference_diag_matrix(G2, schedule))
        assert abs(val - loop_weighted_trace(mask.T, G2, schedule)) < 1e-12


@pytest.mark.parametrize("call,message", [
    (lambda: average_capacity(np.stack([np.eye(1)] * 2), np.eye(1), np.stack([np.eye(1)] * 3)),
     "schedule and noise lengths differ"),
    # A negative covariance drives |I + H R H^H| below zero.
    (lambda: average_capacity(np.stack([-2.0 * np.eye(1)]), np.eye(1), np.stack([np.eye(1)])),
     "capacity determinant is not positive"),
    (lambda: mismatched_weight_diagonals(np.ones((3, 2)), 1.0, 1.0, 4),
     "equal rates require equal symbol counts"),
    (lambda: mismatched_weight_diagonals(np.ones((3, 2)), 1.0, 2.0, 4),
     "schedule too short for the radar symbol count"),
    (lambda: mismatched_weight_diagonals(np.ones((3, 2)), 3.0, 2.0, 2),
     "radar rate must be an integer multiple of comm rate"),
    (lambda: mismatched_weight_diagonals(np.ones((3, 2)), 2.0, 1.0, 2),
     "radar symbol count must equal k * comm symbol count"),
], ids=["capacity-lengths", "capacity-determinant", "equal-rates", "radar-slower-short",
        "radar-faster-ratio", "radar-faster-count"])
def test_inconsistent_inputs_rejected(call, message):
    with pytest.raises(MetricError) as info:
        call()
    assert str(info.value) == message


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
            masked = mask * ((G2 @ X) * np.exp(1j * alpha))
            direct = np.sum(np.abs(masked) ** 2)
            analytic = sum(
                np.sum(mask[:, l] * np.abs(G2 @ X[:, l]) ** 2) for l in range(4)
            )
            assert abs(direct - analytic) <= 1e-10 * max(analytic, 1e-300)

    def test_zero_schedule(self):
        cfg = ScenarioConfig(M_tR=2, M_rR=3, M_tC=2, M_rC=2, L=4, p=0.5)
        schedule = np.stack([np.zeros((2, 2))] * 4)
        mask = np.ones((3, 4))
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

    @pytest.mark.parametrize("scheme", [Scheme.SCHEME_I, Scheme.SCHEME_II])
    @pytest.mark.parametrize("n_rx,n_tx,m,L", [(3, 2, 2, 4), (1, 5, 2, 10), (8, 8, 4, 32)])
    def test_samples_equal_per_symbol_loop(self, scheme, n_rx, n_tx, m, L):
        # The batched draw must reproduce every sample of the trial-by-trial,
        # symbol-by-symbol loop bit for bit, so the statistical tests keep
        # their realizations.
        def loop_samples(cfg, mask, G2, S, schedule, trials, rng):
            roots = psd_sqrt(schedule)
            samples = np.empty(trials)
            for t in range(trials):
                X = np.stack([roots[l] @ crandn(rng, n_tx) for l in range(L)], axis=1)
                lam2 = np.exp(1j * np.sqrt(cfg.sigma_alpha2) * rng.standard_normal(L))
                interf = (G2 @ X) * lam2
                if cfg.scheme is Scheme.SCHEME_I:
                    masked = mask * interf
                else:
                    masked = mask * (interf @ S.conj().T)
                samples[t] = np.sum(np.abs(masked) ** 2)
            return samples

        rng = stream(3, "emp-batch")
        cfg = ScenarioConfig(M_tR=m, M_rR=n_rx, M_tC=n_tx, M_rC=2, L=L, scheme=scheme)
        S = random_orthonormal_rows(rng, m, L)
        G2 = crandn(rng, n_rx, n_tx)
        schedule = random_schedule(rng, n_tx, L)
        mask = random_mask(rng, n_rx, L if scheme is Scheme.SCHEME_I else m)
        want = loop_samples(cfg, mask, G2, S, schedule, 200, stream(4, "emp-batch"))
        got = eip_samples(cfg, mask, G2, S, schedule, 200, stream(4, "emp-batch"))
        assert np.array_equal(got, want)


class TestCovarianceSchedule:
    def test_total_power(self):
        schedule = np.stack([np.eye(2), 2 * np.eye(2)])
        assert abs(total_power(schedule) - 6.0) < 1e-12

    def test_validate_rejects_non_hermitian(self):
        schedule = np.stack([np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(MetricError):
            check_covariances(schedule)

    def test_validate_rejects_indefinite(self):
        schedule = np.stack([np.diag([1.0, -1.0])])
        with pytest.raises(MetricError):
            check_covariances(schedule)

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

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(),
        ScenarioConfig(scheme=Scheme.SCHEME_II),
        ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=128),
    ])
    def test_noise_covariances(self, cfg):
        scale = cfg.rho2 * cfg.sigma_alpha2
        eye = cfg.sigma_C2 * np.eye(cfg.M_rC)
        for seed in range(30):
            _, G1, _ = generate_channels(cfg, stream(seed, "channels"))
            S = generate_waveforms(cfg, stream(seed, "waveforms"))
            loop = []
            for l in range(cfg.L):
                v = G1 @ S[:, l]
                loop.append(hermitize(scale * np.outer(v, v.conj()) + eye))
            assert np.array_equal(noise_covariances(cfg, G1, S), np.stack(loop))

    def test_sqrts(self):
        rng = stream(0, "sqrt-loop")
        schedule = random_schedule(rng, 8, 32)
        rank_deficient = np.stack([np.diag([2.0, 0.0, 1.0])] * 3)
        for sched in (schedule, rank_deficient):
            loop = []
            for R in sched:
                w, v = np.linalg.eigh(hermitize(R))
                loop.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
            assert np.array_equal(psd_sqrt(sched), np.stack(loop))
            assert np.array_equal(psd_sqrt(sched)[0], psd_sqrt(sched[0]))

    def test_validate_verdict(self):
        rng = stream(0, "validate-loop")
        good = [random_psd(rng, 3) for _ in range(4)]
        skew = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        indefinite = np.diag([1.0, -1e-3, 1.0])
        barely = np.diag([1.0, -1e-10, 1.0])  # within PSD_TOL
        cases = [good, good + [skew], [indefinite] + good, good + [indefinite],
                 good[:2] + [barely], [skew, indefinite]]
        for mats in cases:
            schedule = np.stack(mats)
            try:
                check_covariances(schedule)
                ok = True
            except MetricError:
                ok = False
            assert np.array_equal(ok, loop_validate_ok(schedule))

    @staticmethod
    def validate_ok(schedule):
        try:
            check_covariances(schedule)
        except MetricError:
            return False
        return True

    @staticmethod
    def shifted(R, c):
        """R with its smallest eigenvalue moved to -c * tau, tau = PSD_TOL *
        max(1, trace) of the result, along that eigenvalue's eigenvector."""
        w, V = np.linalg.eigh(R)
        trace = float(np.sum(w[1:]))
        x = -c * PSD_TOL * max(1.0, trace) / (1.0 + c * PSD_TOL * (trace > 1.0))
        return hermitize(R + (x - w[0]) * np.outer(V[:, 0], V[:, 0].conj()))

    def test_validate_verdict_relative_to_the_trace(self):
        """Traces above 1, so tau = PSD_TOL * trace is not PSD_TOL: a smallest
        eigenvalue of -0.5 tau passes and one of -2 tau fails, alone or as
        the one bad matrix of a stack, on random matrices and on the
        solver's own rank-deficient covariances."""
        rng = stream(1, "validate-loop")
        random_mats = [random_psd(rng, 4, scale=10.0) for _ in range(6)]
        # A capacity target high enough for traces above 1.
        cfg = ScenarioConfig(p=0.6, seed=2, C=24.0, P_t=128.0)
        scn = make_scenario(cfg)
        sol = solve_weighted_eip(scheme_weights(cfg, scn.omega, scn.S), scn.H, scn.G2,
                                 noise_covariances(cfg, scn.G1, scn.S), cfg.P_t, cfg.C)
        designs = list(sol.schedule)
        # The design's covariances have rank M_rC = 4 of M_tC = 8.
        assert max(np.linalg.matrix_rank(R) for R in designs) == 4
        assert min(float(np.trace(R).real) for R in designs) > 1.0
        for mats in (random_mats, designs):
            assert self.validate_ok(np.stack(mats)) and loop_validate_ok(np.stack(mats))
            big = int(np.argmax([np.trace(R).real for R in mats]))
            for c, ok in ((0.5, True), (2.0, False)):
                bad = self.shifted(mats[big], c)
                for stack in ([bad], mats[:big] + [bad] + mats[big + 1:]):
                    schedule = np.stack(stack)
                    assert self.validate_ok(schedule) == ok
                    assert loop_validate_ok(schedule) == ok

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_without_warning(self, bad):
        schedule = random_schedule(stream(0, "finite"), 3, 4)
        schedule[2, 1, 0] = bad
        noise = np.stack([np.eye(2)] * 4)
        noise[1, 0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricError, match="covariance matrix is not finite"):
                check_covariances(schedule)
            with pytest.raises(MetricError, match="noise covariance is not finite"):
                average_capacity(schedule[:, :2, :2].real, np.eye(2), noise)

    def test_non_finite_covariance_rejected_by_capacity(self):
        """A NaN covariance used to reach slogdet, which warned and returned nan."""
        schedule = random_schedule(stream(0, "finite"), 2, 4)
        schedule[2, 1, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricError, match="covariance matrix is not finite"):
                average_capacity(schedule, np.eye(2), np.stack([np.eye(2)] * 4))

    def test_non_finite_channel_rejected_by_capacity(self):
        """An inf in H used to reach matmul, which warned and returned nan."""
        schedule = random_schedule(stream(0, "finite"), 2, 4)
        H = np.eye(2)
        H[0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricError, match="channel matrix is not finite"):
                average_capacity(schedule, H, np.stack([np.eye(2)] * 4))

    def test_singular_noise_verdict(self):
        """The Cholesky test of the noise against the smallest eigenvalue:
        sigma_C2 = 0 leaves rank-one noise, which both reject, also as the
        one singular matrix of a stack, and the default noise passes."""
        for cfg in (ScenarioConfig(), ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=128)):
            scn = make_scenario(cfg)
            noise = noise_covariances(cfg, scn.G1, scn.S)
            singular = noise_covariances(cfg.replace(sigma_C2=0.0), scn.G1, scn.S)
            one_singular = noise.copy()
            one_singular[3] = singular[3]
            schedule = np.zeros((cfg.L, cfg.M_tC, cfg.M_tC))
            for stack, ok in ((noise, True), (singular, False), (one_singular, False)):
                assert (np.linalg.eigvalsh(hermitize(stack))[:, 0].min() > 0.0) == ok
                if ok:
                    assert average_capacity(schedule, scn.H, stack) == 0.0
                else:
                    with pytest.raises(MetricError, match="noise covariance is not positive definite"):
                        average_capacity(schedule, scn.H, stack)

    def test_total_power(self):
        schedule = random_schedule(stream(0, "power-loop"), 8, 128, scale=3.0)
        loop = sum(float(np.trace(R).real) for R in schedule)
        assert abs(total_power(schedule) - loop) <= 1e-12 * loop

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
