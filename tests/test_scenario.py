"""Scenario generation: channels, waveforms, targets, masks, phases, signals."""

import numpy as np
import pytest

from specshare.config import ConfigError, ScenarioConfig, Scheme, format_config, parse_config
from specshare.scenario import (
    SamplingMask,
    ScenarioError,
    _covering_mask,
    generate_channels,
    generate_phase_offsets,
    generate_sampling_mask,
    generate_target_response,
    generate_waveforms,
    make_scenario,
    mask_shape,
    noiseless_radar_return,
    steering_vector,
    synthesize_comm_rx,
    synthesize_radar_rx,
)
from specshare.streams import stream


def numerical_rank(A, rel_tol=1e-8):
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > rel_tol * s[0]))


class TestChannels:
    def test_shapes_scenario1(self):
        cfg = ScenarioConfig(M_tR=4, M_rR=8, M_tC=8, M_rC=4)
        ch = generate_channels(cfg, stream(0, "channels"))
        assert ch.H.shape == (4, 8)
        assert ch.G1.shape == (4, 4)
        assert ch.G2.shape == (8, 8)

    def test_zero_variance_gives_zero_channel(self):
        cfg = ScenarioConfig(sigma2_2=0.0)
        ch = generate_channels(cfg, stream(0, "channels"))
        assert np.all(ch.G2 == 0)

    def test_determinism(self):
        cfg = ScenarioConfig(seed=7)
        a = generate_channels(cfg, stream(7, "channels"))
        b = generate_channels(cfg, stream(7, "channels"))
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.G1, b.G1)
        assert np.array_equal(a.G2, b.G2)

    def test_entry_variances_at_1e5_samples(self):
        # >= 1e5 entries per channel matrix; empirical variance within 5%.
        cfg = ScenarioConfig(M_tR=400, M_rR=250, M_tC=400, M_rC=250, L=400)
        ch = generate_channels(cfg, stream(3, "channels"))
        for mat, var in ((ch.H, 1.0), (ch.G1, cfg.sigma1_2), (ch.G2, cfg.sigma2_2)):
            assert mat.size >= 1e5
            emp = np.mean(np.abs(mat) ** 2)
            assert abs(emp - var) < 0.05 * var


class TestWaveforms:
    def test_orthonormal_rows(self):
        cfg = ScenarioConfig(M_tR=4, L=32)
        wf = generate_waveforms(cfg, stream(0, "waveforms"))
        gram = wf.S @ wf.S.conj().T
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-10

    def test_column_energies_sum_to_M_tR(self):
        cfg = ScenarioConfig(M_tR=4, L=32)
        wf = generate_waveforms(cfg, stream(1, "waveforms"))
        assert abs(wf.column_energies.sum() - 4.0) <= 1e-10

    def test_L_smaller_than_M_tR_rejected(self):
        cfg = ScenarioConfig(M_tR=4, L=3, M_rR=4)
        with pytest.raises(ScenarioError):
            generate_waveforms(cfg, stream(0, "waveforms"))


class TestTargetResponse:
    def test_single_target_rank_one(self):
        cfg = ScenarioConfig(targets=[(30.0, 0.2 + 0.1j)])
        tr = generate_target_response(cfg)
        assert numerical_rank(tr.D) == 1

    def test_broadside_target_is_constant_outer_product(self):
        beta = 0.5 - 0.25j
        cfg = ScenarioConfig(targets=[(0.0, beta)])
        tr = generate_target_response(cfg)
        expect = beta * np.ones((cfg.M_rR, cfg.M_tR))
        assert np.linalg.norm(tr.D - expect) <= 1e-12

    def test_two_targets_rank_two(self):
        cfg = ScenarioConfig(targets=[(-20.0, 0.3 + 0.0j), (35.0, 0.1 - 0.2j)])
        tr = generate_target_response(cfg)
        assert numerical_rank(tr.D) == 2

    def test_empty_target_list_rejected(self):
        cfg = ScenarioConfig(targets=[])
        with pytest.raises(ScenarioError):
            generate_target_response(cfg)

    def test_angle_outside_open_interval_rejected(self):
        cfg = ScenarioConfig(targets=[(90.0, 1.0)])
        with pytest.raises(ScenarioError):
            generate_target_response(cfg)

    def test_steering_vector_first_entry_unity(self):
        a = steering_vector(6, 42.0)
        assert a[0] == 1.0
        assert np.allclose(np.abs(a), 1.0)


class TestSamplingMask:
    def test_full_sampling_all_ones(self):
        cfg = ScenarioConfig(p=1.0)
        mask = generate_sampling_mask(cfg, stream(0, "mask"))
        assert np.all(mask.omega == 1)

    def test_ones_count_floor(self):
        cfg = ScenarioConfig(M_rR=8, L=32, p=0.5)
        mask = generate_sampling_mask(cfg, stream(0, "mask"))
        assert mask.ones_count == 128

    def test_row_and_column_coverage(self):
        cfg = ScenarioConfig(M_rR=8, L=32, p=0.3, seed=5)
        mask = generate_sampling_mask(cfg, stream(5, "mask"))
        assert mask.omega.sum(axis=1).min() >= 1
        assert mask.omega.sum(axis=0).min() >= 1

    def test_binary_entries(self):
        cfg = ScenarioConfig(p=0.4)
        mask = generate_sampling_mask(cfg, stream(2, "mask"))
        assert set(np.unique(mask.omega)) <= {0.0, 1.0}

    def test_coverage_unsatisfiable_rejected(self):
        # 8x32 mask at p=0.05 has 12 ones < 32 columns.
        cfg = ScenarioConfig(M_rR=8, L=32, p=0.05)
        with pytest.raises(ScenarioError):
            generate_sampling_mask(cfg, stream(0, "mask"))

    def test_covering_fallback_near_coverage_limit(self):
        # Rejection sampling gives up here although 33 ones can cover the
        # 32 columns and 8 rows; the constructive fallback takes over.
        cfg = ScenarioConfig(M_rR=8, L=32, p=0.13)
        a = generate_sampling_mask(cfg, stream(0, "mask"))
        b = generate_sampling_mask(cfg, stream(0, "mask"))
        assert a.ones_count == int(np.floor(0.13 * 256)) == 33
        assert a.omega.sum(axis=1).min() >= 1
        assert a.omega.sum(axis=0).min() >= 1
        assert set(np.unique(a.omega)) <= {0.0, 1.0}
        assert np.array_equal(a.omega, b.omega)

    @pytest.mark.parametrize("scheme,p,require_coverage", [
        (Scheme.SCHEME_I, 0.13, True),   # every draw fails: the fallback
        (Scheme.SCHEME_I, 0.15, True),
        (Scheme.SCHEME_I, 0.25, True),   # some draws fail, then one covers
        (Scheme.SCHEME_I, 0.5, True),
        (Scheme.SCHEME_I, 0.05, False),
        (Scheme.SCHEME_II, 0.3, True),
        (Scheme.SCHEME_II, 0.9, True),
    ])
    def test_same_masks_and_draws_as_mask_loop(self, scheme, p, require_coverage):
        # The coverage test runs on the drawn cells; the sampler must still
        # make the same rng calls and return the same mask as the loop that
        # built every candidate mask and summed its rows and columns.
        def loop_mask(cfg, rng, max_attempts):
            rows, cols = mask_shape(cfg)
            n_ones = int(np.floor(cfg.p * rows * cols))
            for _ in range(max_attempts):
                flat = np.zeros(rows * cols)
                flat[rng.choice(rows * cols, size=n_ones, replace=False)] = 1.0
                omega = flat.reshape(rows, cols)
                if not require_coverage:
                    return omega
                if omega.sum(axis=1).min() >= 1 and omega.sum(axis=0).min() >= 1:
                    return omega
            return _covering_mask(rows, cols, n_ones, rng)

        for seed in range(4):
            cfg = ScenarioConfig(M_rR=8, L=32, p=p, scheme=scheme, seed=seed)
            want_rng, got_rng = stream(seed, "mask"), stream(seed, "mask")
            want = loop_mask(cfg, want_rng, max_attempts=2000)
            got = generate_sampling_mask(cfg, got_rng, require_coverage=require_coverage,
                                         max_attempts=2000)
            assert np.array_equal(got.omega, want)
            assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("rows,cols", [(8, 32), (32, 8), (5, 5), (1, 7)])
    def test_covering_fallback_every_count(self, rows, cols):
        rng = stream(0, "cover")
        for n_ones in range(max(rows, cols), rows * cols + 1):
            omega = _covering_mask(rows, cols, n_ones, rng)
            assert omega.shape == (rows, cols)
            assert omega.sum() == n_ones
            assert omega.sum(axis=1).min() >= 1
            assert omega.sum(axis=0).min() >= 1
            assert set(np.unique(omega)) <= {0.0, 1.0}

    def test_coverage_opt_out(self):
        cfg = ScenarioConfig(M_rR=8, L=32, p=0.05)
        mask = generate_sampling_mask(cfg, stream(0, "mask"), require_coverage=False)
        assert mask.ones_count == 12

    def test_scheme2_shape(self):
        cfg = ScenarioConfig(scheme=Scheme.SCHEME_II, p=0.8)
        mask = generate_sampling_mask(cfg, stream(0, "mask"))
        assert mask.omega.shape == (cfg.M_rR, cfg.M_tR)

    def test_determinism(self):
        cfg = ScenarioConfig(p=0.5, seed=11)
        a = generate_sampling_mask(cfg, stream(11, "mask"))
        b = generate_sampling_mask(cfg, stream(11, "mask"))
        assert np.array_equal(a.omega, b.omega)


class TestPhaseOffsets:
    def test_zero_jitter_gives_identity(self):
        cfg = ScenarioConfig(sigma_alpha2=0.0)
        ph = generate_phase_offsets(cfg, stream(0, "phases"))
        assert np.all(ph.lambda1 == 1.0)
        assert np.all(ph.lambda2 == 1.0)

    def test_unit_modulus(self):
        cfg = ScenarioConfig()
        ph = generate_phase_offsets(cfg, stream(4, "phases"))
        assert np.allclose(np.abs(ph.lambda1), 1.0)
        assert np.allclose(np.abs(ph.lambda2), 1.0)

    def test_sample_variance_at_1e5_draws(self):
        cfg = ScenarioConfig(M_tR=1, M_rR=1, M_tC=1, M_rC=1, L=100_000)
        ph = generate_phase_offsets(cfg, stream(9, "phases"))
        var = np.var(np.concatenate([ph.alpha1, ph.alpha2]))
        assert abs(var - 1e-3) < 0.05e-3

    def test_determinism(self):
        cfg = ScenarioConfig(seed=1)
        a = generate_phase_offsets(cfg, stream(1, "phases"))
        b = generate_phase_offsets(cfg, stream(1, "phases"))
        assert np.array_equal(a.alpha1, b.alpha1)
        assert np.array_equal(a.alpha2, b.alpha2)


def _noiseless_cfg(**kw):
    kw.setdefault("sigma_R2", 0.0)
    kw.setdefault("sigma_alpha2", 0.0)
    kw.setdefault("sigma_C2", 0.0)
    return ScenarioConfig(**kw)


class TestSynthesis:
    def test_radar_rx_noiseless_identity(self):
        cfg = _noiseless_cfg(p=1.0)
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        out = synthesize_radar_rx(
            cfg, scn.target.D, scn.waveforms.S, scn.channels.G2, X,
            scn.phases, scn.mask, stream(0, "noise"),
        )
        expect = noiseless_radar_return(cfg, scn.target.D, scn.waveforms.S)
        assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_radar_rx_zero_mask(self):
        cfg = ScenarioConfig()
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        zero_mask = SamplingMask(np.zeros((cfg.M_rR, cfg.L)))
        out = synthesize_radar_rx(
            cfg, scn.target.D, scn.waveforms.S, scn.channels.G2, X,
            scn.phases, zero_mask, stream(0, "noise"),
        )
        assert np.all(out == 0)

    def test_radar_rx_scheme2_rank_one(self):
        cfg = _noiseless_cfg(scheme=Scheme.SCHEME_II, p=1.0)
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        out = synthesize_radar_rx(
            cfg, scn.target.D, scn.waveforms.S, scn.channels.G2, X,
            scn.phases, scn.mask, stream(0, "noise"),
        )
        expect = cfg.gamma * cfg.rho * scn.target.D
        assert numerical_rank(out) == 1
        assert np.linalg.norm(out - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_radar_rx_shape_mismatch(self):
        cfg = ScenarioConfig()
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC + 1, cfg.L), dtype=complex)
        with pytest.raises(ScenarioError):
            synthesize_radar_rx(
                cfg, scn.target.D, scn.waveforms.S, scn.channels.G2, X,
                scn.phases, scn.mask, stream(0, "noise"),
            )

    def test_comm_rx_perfect_cancellation(self):
        cfg = _noiseless_cfg()
        scn = make_scenario(cfg)
        X = stream(0, "x").standard_normal((cfg.M_tC, cfg.L)) + 0j
        out = synthesize_comm_rx(
            cfg, scn.channels.H, scn.channels.G1, scn.waveforms.S, X,
            scn.phases, stream(0, "noise"),
        )
        expect = scn.channels.H @ X
        assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_comm_rx_radar_only_residual(self):
        cfg = ScenarioConfig(sigma_C2=0.0)
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        out = synthesize_comm_rx(
            cfg, scn.channels.H, scn.channels.G1, scn.waveforms.S, X,
            scn.phases, stream(0, "noise"),
        )
        expect = cfg.rho * (scn.channels.G1 @ scn.waveforms.S) * (1j * scn.phases.alpha1)
        assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_comm_rx_residual_power_matches_second_moment(self):
        cfg = ScenarioConfig(sigma_C2=0.0)
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        rng = stream(0, "jitter-mc")
        draws = 4000
        acc = 0.0
        for _ in range(draws):
            ph = generate_phase_offsets(cfg, rng)
            out = synthesize_comm_rx(
                cfg, scn.channels.H, scn.channels.G1, scn.waveforms.S, X, ph, rng
            )
            acc += np.sum(np.abs(out) ** 2) / cfg.L
        emp = acc / draws
        G1S = scn.channels.G1 @ scn.waveforms.S
        analytic = cfg.rho2 * cfg.sigma_alpha2 * np.sum(np.abs(G1S) ** 2) / cfg.L
        assert abs(emp - analytic) < 0.1 * analytic


class TestMakeScenario:
    def test_determinism(self):
        cfg = ScenarioConfig(p=0.5, seed=13)
        a = make_scenario(cfg)
        b = make_scenario(cfg)
        assert np.array_equal(a.channels.H, b.channels.H)
        assert np.array_equal(a.waveforms.S, b.waveforms.S)
        assert np.array_equal(a.mask.omega, b.mask.omega)
        assert np.array_equal(a.phases.alpha1, b.phases.alpha1)

    def test_streams_are_independent(self):
        # Mask draw count must not perturb channel draws.
        a = make_scenario(ScenarioConfig(p=1.0, seed=3))
        b = make_scenario(ScenarioConfig(p=0.5, seed=3))
        assert np.array_equal(a.channels.H, b.channels.H)
        assert np.array_equal(a.waveforms.S, b.waveforms.S)


class TestConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.L == 32
        assert cfg.P_t == 32.0
        assert cfg.rho2 == 1000.0 * 32 / 4
        assert cfg.sigma_C2 == 0.01
        assert cfg.gamma2_dB == -30.0

    def test_gamma_is_amplitude(self):
        cfg = ScenarioConfig(gamma2_dB=-30.0)
        assert abs(cfg.gamma - 10.0 ** (-30.0 / 20.0)) < 1e-15

    def test_invalid_p_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(p=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(p=1.5)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(M_tR=0)

    def test_round_trip(self):
        cfg = ScenarioConfig(
            M_tR=16, M_rR=32, M_tC=4, M_rC=4, p=0.4, C=10.5, seed=42,
            scheme=Scheme.SCHEME_II,
            targets=[(30.0, 0.2 + 0.1j), (-15.0, 0.05 - 0.02j)],
        )
        back = parse_config(format_config(cfg))
        assert back == cfg

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("no_such_field = 3\n")
