"""Scenario generation: channels, waveforms, targets, masks, phases, signals."""

import hashlib
import math

import numpy as np
import pytest

from specshare import completion
from specshare.config import ConfigError, ScenarioConfig, Scheme, format_config, parse_config
from specshare.scenario import (
    ScenarioError,
    _coverage_probability,
    _covering_mask,
    generate_channels,
    generate_phase_offsets,
    generate_sampling_mask,
    generate_target_response,
    generate_waveforms,
    make_scenario,
    mask_shape,
    noiseless_radar_return,
    radar_truth,
    steering_vector,
    synthesize_radar_rx,
)
from specshare.streams import stream


def numerical_rank(A, rel_tol=1e-8):
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > rel_tol * s[0]))


class TestChannels:
    def test_shapes_scenario1(self):
        cfg = ScenarioConfig(M_tR=4, M_rR=8, M_tC=8, M_rC=4)
        H, G1, G2 = generate_channels(cfg, stream(0, "channels"))
        assert H.shape == (4, 8)
        assert G1.shape == (4, 4)
        assert G2.shape == (8, 8)

    def test_zero_variance_gives_zero_channel(self):
        cfg = ScenarioConfig(sigma2_2=0.0)
        _, _, G2 = generate_channels(cfg, stream(0, "channels"))
        assert np.all(G2 == 0)

    def test_determinism(self):
        cfg = ScenarioConfig(seed=7)
        a = generate_channels(cfg, stream(7, "channels"))
        b = generate_channels(cfg, stream(7, "channels"))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_entry_variances_at_1e5_samples(self):
        # >= 1e5 entries per channel matrix; empirical variance within 5%.
        cfg = ScenarioConfig(M_tR=400, M_rR=250, M_tC=400, M_rC=250, L=400)
        channels = generate_channels(cfg, stream(3, "channels"))
        for mat, var in zip(channels, (1.0, cfg.sigma1_2, cfg.sigma2_2)):
            assert mat.size >= 1e5
            emp = np.mean(np.abs(mat) ** 2)
            assert abs(emp - var) < 0.05 * var


class TestWaveforms:
    def test_orthonormal_rows(self):
        cfg = ScenarioConfig(M_tR=4, L=32)
        S = generate_waveforms(cfg, stream(0, "waveforms"))
        gram = S @ S.conj().T
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-10

    def test_column_energies_sum_to_M_tR(self):
        cfg = ScenarioConfig(M_tR=4, L=32)
        S = generate_waveforms(cfg, stream(1, "waveforms"))
        assert abs(np.sum(np.abs(S) ** 2, axis=0).sum() - 4.0) <= 1e-10

    def test_L_smaller_than_M_tR_rejected(self):
        cfg = ScenarioConfig(M_tR=4, L=3, M_rR=4)
        with pytest.raises(ScenarioError):
            generate_waveforms(cfg, stream(0, "waveforms"))


class TestTargetResponse:
    def test_single_target_rank_one(self):
        cfg = ScenarioConfig(targets=[(30.0, 0.2 + 0.1j)])
        D = generate_target_response(cfg)
        assert numerical_rank(D) == 1

    def test_broadside_target_is_constant_outer_product(self):
        beta = 0.5 - 0.25j
        cfg = ScenarioConfig(targets=[(0.0, beta)])
        D = generate_target_response(cfg)
        expect = beta * np.ones((cfg.M_rR, cfg.M_tR))
        assert np.linalg.norm(D - expect) <= 1e-12

    def test_two_targets_rank_two(self):
        cfg = ScenarioConfig(targets=[(-20.0, 0.3 + 0.0j), (35.0, 0.1 - 0.2j)])
        D = generate_target_response(cfg)
        assert numerical_rank(D) == 2

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
        omega = generate_sampling_mask(cfg, stream(0, "mask"))
        assert np.all(omega == 1)

    def test_ones_count_floor(self):
        cfg = ScenarioConfig(M_rR=8, L=32, p=0.5)
        omega = generate_sampling_mask(cfg, stream(0, "mask"))
        assert omega.sum() == 128

    def test_row_and_column_coverage(self):
        cfg = ScenarioConfig(M_rR=8, L=32, p=0.3, seed=5)
        omega = generate_sampling_mask(cfg, stream(5, "mask"))
        assert omega.sum(axis=1).min() >= 1
        assert omega.sum(axis=0).min() >= 1

    def test_binary_entries(self):
        cfg = ScenarioConfig(p=0.4)
        omega = generate_sampling_mask(cfg, stream(2, "mask"))
        assert set(np.unique(omega)) <= {0.0, 1.0}

    def test_coverage_unsatisfiable_rejected(self):
        # 8x32 mask at p=0.05 has 12 ones < 32 columns.
        cfg = ScenarioConfig(M_rR=8, L=32, p=0.05)
        with pytest.raises(ScenarioError):
            generate_sampling_mask(cfg, stream(0, "mask"))

    def test_covering_fallback_near_coverage_limit(self):
        # 33 and 38 ones can cover the 32 columns and 8 rows, but a uniform
        # draw covers with probability 2.0e-11 and 6.4e-8: the sampler makes
        # one draw and hands over to the constructive fallback.
        for p, n_ones in ((0.13, 33), (0.15, 38)):
            cfg = ScenarioConfig(M_rR=8, L=32, p=p)
            assert int(np.floor(p * 256)) == n_ones
            assert _coverage_probability(8, 32, n_ones) < 1e-4
            for seed in range(3):
                rng, want_rng = stream(seed, "mask"), stream(seed, "mask")
                a = generate_sampling_mask(cfg, rng)
                want_rng.choice(256, size=n_ones, replace=False)
                assert np.array_equal(a, _covering_mask(8, 32, n_ones, want_rng))
                assert rng.random() == want_rng.random()
                assert a.sum() == n_ones
                assert a.sum(axis=1).min() >= 1
                assert a.sum(axis=0).min() >= 1
                assert set(np.unique(a)) <= {0.0, 1.0}
                assert np.array_equal(a, generate_sampling_mask(cfg, stream(seed, "mask")))

    @pytest.mark.parametrize("rows,cols", [(2, 5), (3, 4), (4, 4)])
    def test_coverage_probability_matches_enumeration(self, rows, cols):
        # Every subset of the grid's cells, as the bits of 0 .. 2^(rows*cols)-1.
        size = rows * cols
        bits = (np.arange(2 ** size)[:, None] >> np.arange(size)) & 1
        grids = bits.reshape(-1, rows, cols).astype(bool)
        covers = grids.any(axis=2).all(axis=1) & grids.any(axis=1).all(axis=1)
        counts = bits.sum(axis=1)
        for n_ones in range(size + 1):
            want = covers[counts == n_ones].mean()
            assert abs(_coverage_probability(rows, cols, n_ones) - want) <= 1e-15
        assert _coverage_probability(rows, cols, max(rows, cols) - 1) == 0.0
        assert _coverage_probability(rows, cols, size) == 1.0

    @pytest.mark.parametrize("scheme,p,require_coverage", [
        (Scheme.SCHEME_I, 0.13, True),   # coverage probability < 1e-4: the fallback
        (Scheme.SCHEME_I, 0.15, True),
        (Scheme.SCHEME_I, 0.2, True),    # probability 4.8e-4: no fallback
        (Scheme.SCHEME_I, 0.25, True),   # some draws fail, then one covers
        (Scheme.SCHEME_I, 0.5, True),
        (Scheme.SCHEME_I, 0.05, False),
        (Scheme.SCHEME_II, 0.3, True),
        (Scheme.SCHEME_II, 0.9, True),
    ])
    def test_same_masks_and_draws_as_mask_loop(self, scheme, p, require_coverage):
        # The coverage test runs on the drawn cells; the sampler must still
        # make the same rng calls and return the same mask as the loop that
        # built every candidate mask and summed its rows and columns, and
        # that gave up after the first failed draw when a uniform draw
        # covers with probability below 1e-4.
        def loop_mask(cfg, rng):
            rows, cols = mask_shape(cfg)
            n_ones = int(np.floor(cfg.p * rows * cols))
            while True:
                flat = np.zeros(rows * cols)
                flat[rng.choice(rows * cols, size=n_ones, replace=False)] = 1.0
                omega = flat.reshape(rows, cols)
                if not require_coverage:
                    return omega
                if omega.sum(axis=1).min() >= 1 and omega.sum(axis=0).min() >= 1:
                    return omega
                if _coverage_probability(rows, cols, n_ones) < 1e-4:
                    return _covering_mask(rows, cols, n_ones, rng)

        for seed in range(4):
            cfg = ScenarioConfig(M_rR=8, L=32, p=p, scheme=scheme, seed=seed)
            want_rng, got_rng = stream(seed, "mask"), stream(seed, "mask")
            want = loop_mask(cfg, want_rng)
            got = generate_sampling_mask(cfg, got_rng, require_coverage=require_coverage)
            assert np.array_equal(got, want)
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
        omega = generate_sampling_mask(cfg, stream(0, "mask"), require_coverage=False)
        assert omega.sum() == 12

    def test_scheme2_shape(self):
        cfg = ScenarioConfig(scheme=Scheme.SCHEME_II, p=0.8)
        omega = generate_sampling_mask(cfg, stream(0, "mask"))
        assert omega.shape == (cfg.M_rR, cfg.M_tR)

    def test_determinism(self):
        cfg = ScenarioConfig(p=0.5, seed=11)
        a = generate_sampling_mask(cfg, stream(11, "mask"))
        b = generate_sampling_mask(cfg, stream(11, "mask"))
        assert np.array_equal(a, b)


class TestPhaseOffsets:
    def test_zero_jitter_gives_identity(self):
        cfg = ScenarioConfig(sigma_alpha2=0.0)
        for alpha in generate_phase_offsets(cfg, stream(0, "phases")):
            assert np.all(np.exp(1j * alpha) == 1.0)

    def test_unit_modulus(self):
        cfg = ScenarioConfig()
        for alpha in generate_phase_offsets(cfg, stream(4, "phases")):
            assert np.allclose(np.abs(np.exp(1j * alpha)), 1.0)

    def test_sample_variance_at_1e5_draws(self):
        cfg = ScenarioConfig(M_tR=1, M_rR=1, M_tC=1, M_rC=1, L=100_000)
        var = np.var(np.concatenate(generate_phase_offsets(cfg, stream(9, "phases"))))
        assert abs(var - 1e-3) < 0.05e-3

    def test_determinism(self):
        cfg = ScenarioConfig(seed=1)
        a = generate_phase_offsets(cfg, stream(1, "phases"))
        b = generate_phase_offsets(cfg, stream(1, "phases"))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


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
            cfg, scn.D, scn.S, scn.G2, X,
            np.zeros(cfg.L), scn.omega, stream(0, "noise"),
        )
        expect = noiseless_radar_return(cfg, scn.D, scn.S)
        assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_radar_rx_zero_mask(self):
        cfg = ScenarioConfig()
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        zero_mask = np.zeros((cfg.M_rR, cfg.L))
        out = synthesize_radar_rx(
            cfg, scn.D, scn.S, scn.G2, X,
            np.zeros(cfg.L), zero_mask, stream(0, "noise"),
        )
        assert np.all(out == 0)

    def test_radar_rx_scheme2_rank_one(self):
        cfg = _noiseless_cfg(scheme=Scheme.SCHEME_II, p=1.0)
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        out = synthesize_radar_rx(
            cfg, scn.D, scn.S, scn.G2, X,
            np.zeros(cfg.L), scn.omega, stream(0, "noise"),
        )
        expect = cfg.gamma * cfg.rho * scn.D
        assert numerical_rank(out) == 1
        assert np.linalg.norm(out - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_radar_rx_shape_mismatch(self):
        cfg = ScenarioConfig()
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC + 1, cfg.L), dtype=complex)
        with pytest.raises(ScenarioError):
            synthesize_radar_rx(
                cfg, scn.D, scn.S, scn.G2, X,
                np.zeros(cfg.L), scn.omega, stream(0, "noise"),
            )


    @pytest.mark.parametrize("name,shape,message", [
        ("D", (8, 5), "D has shape (8, 5), expected (8, 4)"),
        ("S", (5, 32), "S has shape (5, 32), expected (4, 32)"),
        ("G2", (8, 9), "G2 has shape (8, 9), expected (8, 8)"),
        ("omega", (8, 31), "mask shape (8, 31) does not match data shape (8, 32)"),
    ])
    def test_radar_rx_input_shapes_checked(self, name, shape, message):
        cfg = ScenarioConfig()
        scn = make_scenario(cfg)
        args = {"D": scn.D, "S": scn.S, "G2": scn.G2, "omega": scn.omega}
        args[name] = np.zeros(shape, dtype=args[name].dtype)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        with pytest.raises(ScenarioError) as info:
            synthesize_radar_rx(cfg, args["D"], args["S"], args["G2"], X,
                                np.zeros(cfg.L), args["omega"], stream(0, "noise"))
        assert str(info.value) == message


class TestRadarTruth:
    def test_scheme1_samples_the_return(self):
        cfg = ScenarioConfig(seed=2)
        scn = make_scenario(cfg)
        truth = radar_truth(cfg, scn.D, scn.S)
        assert truth.shape == (cfg.M_rR, cfg.L)
        assert np.array_equal(truth, cfg.gamma * cfg.rho * (scn.D @ scn.S))

    def test_scheme2_samples_the_matched_filters(self):
        # gamma*rho*D*S S^H = gamma*rho*D, since S S^H = I.
        cfg = ScenarioConfig(scheme=Scheme.SCHEME_II, seed=2)
        scn = make_scenario(cfg)
        truth = radar_truth(cfg, scn.D, scn.S)
        assert np.array_equal(truth, cfg.gamma * cfg.rho * scn.D)
        filtered = noiseless_radar_return(cfg, scn.D, scn.S) @ scn.S.conj().T
        assert np.linalg.norm(filtered - truth) <= 1e-12 * np.linalg.norm(truth)


class TestMakeScenario:
    def test_determinism(self):
        cfg = ScenarioConfig(p=0.5, seed=13)
        a = make_scenario(cfg)
        b = make_scenario(cfg)
        for name in ("H", "G1", "G2", "S", "D", "omega"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_streams_are_independent(self):
        # Mask draw count must not perturb channel draws.
        a = make_scenario(ScenarioConfig(p=1.0, seed=3))
        b = make_scenario(ScenarioConfig(p=0.5, seed=3))
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.S, b.S)


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


class TestPinnedDraws:
    """make_scenario and the first completion input of radar_pipeline are
    pinned to recorded digests of their bytes, so that no change to the
    generators or the synthesis moves a draw unnoticed. S comes from a
    LAPACK QR and may differ in its last bits under another LAPACK."""

    # SHA-256 (first 16 hex digits) of the bytes of (H, G1, G2, S, D) by seed;
    # they do not depend on the scheme or on require_coverage.
    SCENARIO_DIGESTS = {
        0: ("65811aed2ca60b18", "654d78cada8607c0", "b1e2ad4422d93856",
            "eb80daeada3473fb", "1cf7d3e0a14c454a"),
        1: ("328573ae1441fe48", "91d37df74eb6876d", "0daea6aaa9be178c",
            "b83245090e737629", "1cf7d3e0a14c454a"),
        2: ("d32c012120f88cf6", "4b6f4cc32c5ef7d4", "4a33f14494a1a547",
            "3a8c21c89c15cb27", "1cf7d3e0a14c454a"),
        3: ("6bedc417662b09c9", "b4379538313e6715", "89816ff050e65bd6",
            "66e12f7967455908", "1cf7d3e0a14c454a"),
    }
    # ... and of omega by (scheme, require_coverage): one digest per seed 0-3.
    MASK_DIGESTS = {
        (Scheme.SCHEME_I, True): ("383d47e75dd40d79", "e98a2578f6506414",
            "19d8e54b05f05491", "17d0e2488a65dee4"),
        (Scheme.SCHEME_I, False): ("383d47e75dd40d79", "25aacb6eecccaebf",
            "d7ff60bc22d848d1", "b8a7d86322f0be90"),
        (Scheme.SCHEME_II, True): ("cd487d2090e7244a", "1b0b657a6c6163b9",
            "87d62c59535d8bbe", "217f254aaad9c25d"),
        (Scheme.SCHEME_II, False): ("2c044651546481b2", "29fd1595a088d728",
            "07a6bf7b0ccf473c", "b7c266f749e7b13a"),
    }
    OBSERVED_DIGEST = "27f2e95158c632ff"

    @pytest.mark.parametrize("scheme,require_coverage", list(MASK_DIGESTS))
    def test_make_scenario(self, scheme, require_coverage):
        for seed in range(4):
            cfg = ScenarioConfig(p=0.3, scheme=scheme, seed=seed)
            scn = make_scenario(cfg, require_coverage=require_coverage)
            got = tuple(digest(a) for a in (scn.H, scn.G1, scn.G2, scn.S, scn.D))
            assert got == self.SCENARIO_DIGESTS[seed]
            assert digest(scn.omega) == self.MASK_DIGESTS[scheme, require_coverage][seed]

    def test_first_pipeline_observation(self, monkeypatch):
        # The 32 x 32 Scheme I recovery problem at p = 0.5 with an isotropic
        # design: only the draws and the synthesis reach the observation.
        cfg = ScenarioConfig(L=32, M_tR=16, M_rR=32, M_tC=4, M_rC=4, p=0.5, seed=13)
        scn = make_scenario(cfg)
        seen = []

        def record(observed, omega, params=None):
            seen.append(observed.copy())
            return np.zeros_like(observed), 0, True

        monkeypatch.setattr(completion, "complete", record)
        eye = cfg.P_t / (cfg.L * cfg.M_tC) * np.eye(cfg.M_tC)
        schedule = np.broadcast_to(eye, (cfg.L, cfg.M_tC, cfg.M_tC))
        completion.radar_pipeline(cfg, scn.D, scn.S, scn.G2, schedule, scn.omega, 1,
                                  stream(cfg.seed, "mc"))
        assert digest(seen[0]) == self.OBSERVED_DIGEST


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

    @pytest.mark.parametrize("name,value,message", [
        ("P_t", 0.0, "P_t must be positive"),
        ("P_t", -1.0, "P_t must be positive"),
        ("C", -0.5, "C must be nonnegative"),
        ("sigma_C2", -1e-3, "sigma_C2 must be nonnegative"),
        ("sigma1_2", -1e-3, "sigma1_2 must be nonnegative"),
        ("sigma2_2", -1e-3, "sigma2_2 must be nonnegative"),
        ("sigma_alpha2", -1e-3, "sigma_alpha2 must be nonnegative"),
        ("sigma_R2", -1e-3, "sigma_R2 must be nonnegative"),
        ("rho2", 0.0, "rho2 must be positive"),
        ("rho2", -5.0, "rho2 must be positive"),
        ("scheme", "bogus", "scheme must be one of Scheme.SCHEME_I, Scheme.SCHEME_II, got 'bogus'"),
        ("snr_dB", "25", "snr_dB must be a real number, got '25'"),
    ])
    def test_out_of_range_field_rejected(self, name, value, message):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(**{name: value})
        assert str(info.value) == message

    def test_scheme_given_by_name(self):
        # The name is a config file's to give; the constructor takes a member.
        with pytest.raises(ConfigError, match="scheme must be one of .*, got 'SchemeII'"):
            ScenarioConfig(scheme="SchemeII")
        assert parse_config("scheme = SchemeII\n").scheme is Scheme.SCHEME_II

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(M_tR=0)

    @pytest.mark.parametrize("name", ["M_tR", "M_rR", "M_tC", "M_rC", "L"])
    def test_non_integer_dimensions_rejected(self, name):
        for value in (32.5, 32.0, "32", None, True, False):
            with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                ScenarioConfig(**{name: value})
        cfg = ScenarioConfig(**{name: np.int64(4)})
        assert getattr(cfg, name) == 4

    @pytest.mark.parametrize("name", ["P_t", "C", "sigma_C2", "sigma_R2", "snr_dB", "sigma1_2",
                                      "sigma2_2", "gamma2_dB", "rho2", "sigma_alpha2", "p"])
    def test_non_finite_floats_rejected(self, name):
        # NaN passes the range tests, and would fail later as an unreachable
        # capacity or an eigh that does not converge, or not at all.
        for value in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.nan),
                      np.float32(math.inf)):
            with pytest.raises(ConfigError, match=f"^{name} must be finite, got "):
                ScenarioConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got nan$"):
            parse_config(f"{name} = nan\n")

    @pytest.mark.parametrize("target", [
        (math.nan, 0.2 + 0.1j), (math.inf, 0.2 + 0.1j),
        (30.0, complex(math.nan, 0.1)), (30.0, complex(0.2, math.inf)),
    ])
    def test_non_finite_targets_rejected(self, target):
        with pytest.raises(ConfigError, match="^targets must be finite, got "):
            ScenarioConfig(targets=[(0.0, 0.1 + 0j), target])

    def test_round_trip(self):
        cfg = ScenarioConfig(
            M_tR=16, M_rR=32, M_tC=4, M_rC=4, p=0.4, C=10.5, seed=42,
            scheme=Scheme.SCHEME_II,
            targets=[(30.0, 0.2 + 0.1j), (-15.0, 0.05 - 0.02j)],
        )
        back = parse_config(format_config(cfg))
        assert back == cfg

    def test_empty_target_parts_skipped(self):
        cfg = parse_config("targets = 30.0:(0.2+0.1j);; -15.0:(0.05-0.02j);\n")
        assert cfg.targets == [(30.0, 0.2 + 0.1j), (-15.0, 0.05 - 0.02j)]

    @pytest.mark.parametrize("line,message", [
        ("C = abc", "could not convert string to float: 'abc'"),
        ("C = None", "could not convert string to float: 'None'"),
        ("L = 3.5", "invalid literal for int()"),
        ("scheme = Foo", "'Foo' is not a valid Scheme"),
        ("targets = 30", "expected angle:coefficient, got '30'"),
        ("targets = 30:abc", "complex() arg is a malformed string"),
    ])
    def test_parse_rejects_bad_value_with_line(self, line, message):
        key = line.split()[0]
        with pytest.raises(ConfigError) as info:
            parse_config(f"# header\np = 0.5\n{line}\n")
        assert str(info.value).startswith(f"line 3: {key}: ")
        assert message in str(info.value)

    def test_parse_rejects_line_without_equals(self):
        with pytest.raises(ConfigError, match=r"^line 2: expected 'key = value'$"):
            parse_config("p = 0.5\nC 8\n")

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("no_such_field = 3\n")

    def test_parse_rejects_duplicate_key_naming_both_lines(self):
        with pytest.raises(ConfigError,
                           match=r"^line 4: duplicate key 'p', first set on line 2$"):
            parse_config("# header\np = 0.5\nC = 8\np = 0.7\n")
