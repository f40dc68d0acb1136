"""Scenario generation: channels, waveforms, targets, masks, phases, signals."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from specshare import completion, scenario
from specshare.config import ConfigError, ScenarioConfig, Scheme, format_config, parse_config
from specshare.harness import ExperimentSpec, run_compare
from specshare.linalg import crandn
from specshare.scenario import (
    ScenarioError,
    _coverage_probability,
    _covering_mask,
    covers,
    draw_trials,
    generate_channels,
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

from oracles import closed_form_whiten, dense_schedule, looped_observations


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
        # No seed could orthonormalize the rows: the config refuses it.
        with pytest.raises(ConfigError, match="^L must be >= M_tR for orthonormal waveform rows$"):
            ScenarioConfig(M_tR=4, L=3, M_rR=4)


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
        with pytest.raises(ConfigError, match="^target list is empty$"):
            ScenarioConfig(targets=[])

    def test_angle_outside_open_interval_rejected(self):
        with pytest.raises(ConfigError, match=r"^target angles must be real numbers in \(-90, 90\)"):
            ScenarioConfig(targets=[(90.0, 1.0)])

    # 30j once passed the config, and the run ended in a TypeError of the
    # angle test; np.complex128(30) would steer by its real part.
    @pytest.mark.parametrize("angle", [-90.0, 95.0, np.float64(-90.5), 30j,
                                       np.complex128(30.0)])
    def test_angle_not_real_in_open_interval_rejected(self, angle):
        with pytest.raises(ConfigError, match=r"^target angles must be real numbers in \(-90, 90\)"):
            ScenarioConfig(targets=[(30.0, 0.2 + 0.1j), (angle, 1.0)])

    def test_steering_vector_first_entry_unity(self):
        a = steering_vector(6, 42.0)
        assert a[0] == 1.0
        assert np.allclose(np.abs(a), 1.0)


class TestCovers:
    @pytest.mark.parametrize("dtype", [float, bool])
    def test_edge_shapes(self, dtype):
        empty_row, empty_col = np.ones((4, 5)), np.ones((4, 5))
        empty_row[2] = 0
        empty_col[:, 3] = 0
        cases = [
            (np.ones((1, 1)), True),
            (np.zeros((1, 1)), False),
            (np.ones((1, 6)), True),
            ([[1, 1, 0, 1, 1, 1]], False),
            (np.ones((6, 1)), True),
            ([[1], [1], [1], [1], [0], [1]], False),
            (empty_row, False),
            (empty_col, False),
            (np.ones((4, 5)), True),
            (np.eye(4)[::-1], True),
        ]
        for mask, want in cases:
            assert covers(np.asarray(mask, dtype=dtype)) is want


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

    @pytest.mark.parametrize("scheme,p,n_ones", [
        (Scheme.SCHEME_I, 0.05, 12),   # 12 ones < 32 columns
        (Scheme.SCHEME_I, 0.01, 2),
        (Scheme.SCHEME_I, 0.001, 0),
        (Scheme.SCHEME_II, 0.2, 6),    # 6 ones < 8 rows
    ])
    def test_uncoverable_mask_is_the_uniform_draw(self, scheme, p, n_ones):
        # Too few ones to cover: completion refuses the mask, not the
        # sampler, which returns the opt-out's draw from the same stream.
        for seed in range(3):
            cfg = ScenarioConfig(M_rR=8, L=32, p=p, scheme=scheme, seed=seed)
            rng, want_rng = stream(seed, "mask"), stream(seed, "mask")
            omega = generate_sampling_mask(cfg, rng)
            want = generate_sampling_mask(cfg, want_rng, require_coverage=False)
            assert omega.sum() == n_ones
            assert omega.tobytes() == want.tobytes()
            assert rng.random() == want_rng.random()

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
        covered = grids.any(axis=2).all(axis=1) & grids.any(axis=1).all(axis=1)
        for grid, want in zip(grids, covered):
            assert covers(grid) is covers(grid.astype(float)) is bool(want)
        counts = bits.sum(axis=1)
        for n_ones in range(size + 1):
            want = covered[counts == n_ones].mean()
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
        # The sampler tests each candidate mask with covers; it must make
        # the same rng calls and return the same mask as the loop that
        # summed every candidate's rows and columns, and that gave up after
        # the first failed draw when a uniform draw covers with probability
        # below 1e-4.
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
    """The phase offsets alpha2 that draw_trials returns."""

    def test_zero_jitter_gives_identity(self):
        cfg = ScenarioConfig(sigma_alpha2=0.0)
        alpha2 = draw_trials(cfg, 1, stream(0, "phases"))[1]
        assert np.all(np.exp(1j * alpha2) == 1.0)

    def test_unit_modulus(self):
        cfg = ScenarioConfig()
        alpha2 = draw_trials(cfg, 1, stream(4, "phases"))[1]
        assert np.allclose(np.abs(np.exp(1j * alpha2)), 1.0)

    def test_sample_variance_at_1e5_draws(self):
        cfg = ScenarioConfig(M_tR=1, M_rR=1, M_tC=1, M_rC=1, L=100_000)
        var = np.var(draw_trials(cfg, 2, stream(9, "phases"))[1])
        assert abs(var - 1e-3) < 0.05e-3

    def test_determinism(self):
        cfg = ScenarioConfig(seed=1)
        a = draw_trials(cfg, 2, stream(1, "phases"))
        b = draw_trials(cfg, 2, stream(1, "phases"))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def _noiseless_cfg(**kw):
    """A radar without noise or phase jitter: at 3000 dB the noise is below
    half an ulp of the return (TestRadarPipeline checks the observations
    bit for bit). The comm noise, which the synthesis does not read, keeps
    its default (a zero sigma_C2 would make it singular, which
    make_scenario refuses)."""
    kw.setdefault("snr_dB", 3000.0)
    kw.setdefault("sigma_alpha2", 0.0)
    return ScenarioConfig(**kw)


class TestSynthesis:
    def test_radar_rx_noiseless_identity(self):
        cfg = _noiseless_cfg(p=1.0)
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        out = synthesize_radar_rx(
            cfg, scn.S, scn.G2, X,
            np.zeros(cfg.L), scn.omega, np.zeros((cfg.M_rR, cfg.L)),
        )
        expect = noiseless_radar_return(cfg, scn.S)
        assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_radar_rx_zero_mask(self):
        cfg = ScenarioConfig()
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        zero_mask = np.zeros((cfg.M_rR, cfg.L))
        out = synthesize_radar_rx(
            cfg, scn.S, scn.G2, X,
            np.zeros(cfg.L), zero_mask, np.ones((cfg.M_rR, cfg.L)),
        )
        assert np.all(out == 0)

    def test_radar_rx_scheme2_rank_one(self):
        cfg = _noiseless_cfg(scheme=Scheme.SCHEME_II, p=1.0)
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        out = synthesize_radar_rx(
            cfg, scn.S, scn.G2, X,
            np.zeros(cfg.L), scn.omega, np.zeros((cfg.M_rR, cfg.L)),
        )
        expect = cfg.gamma * cfg.rho * generate_target_response(cfg)
        assert numerical_rank(out) == 1
        assert np.linalg.norm(out - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_radar_rx_shape_mismatch(self):
        cfg = ScenarioConfig()
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC + 1, cfg.L), dtype=complex)
        with pytest.raises(ScenarioError):
            synthesize_radar_rx(
                cfg, scn.S, scn.G2, X,
                np.zeros(cfg.L), scn.omega, np.zeros((cfg.M_rR, cfg.L)),
            )


    @pytest.mark.parametrize("name,shape,message", [
        ("X", (9, 32), "X has shape (9, 32), expected (8, 32)"),
        ("S", (5, 32), "S has shape (5, 32), expected (4, 32)"),
        ("G2", (8, 9), "G2 has shape (8, 9), expected (8, 8)"),
        ("omega", (8, 31), "mask shape (8, 31) does not match data shape (8, 32)"),
    ])
    def test_radar_rx_input_shapes_checked(self, name, shape, message):
        cfg = ScenarioConfig()
        scn = make_scenario(cfg)
        X = np.zeros((cfg.M_tC, cfg.L), dtype=complex)
        args = {"X": X, "S": scn.S, "G2": scn.G2, "omega": scn.omega}
        args[name] = np.zeros(shape, dtype=args[name].dtype)
        with pytest.raises(ScenarioError) as info:
            synthesize_radar_rx(cfg, args["S"], args["G2"], args["X"],
                                np.zeros(cfg.L), args["omega"], np.ones((cfg.M_rR, cfg.L)))
        assert str(info.value) == message


class TestRadarTruth:
    def test_scheme1_samples_the_return(self):
        cfg = ScenarioConfig(seed=2)
        scn = make_scenario(cfg)
        truth = radar_truth(cfg, scn.S)
        assert truth.shape == (cfg.M_rR, cfg.L)
        assert np.array_equal(truth, cfg.gamma * cfg.rho * (generate_target_response(cfg) @ scn.S))

    def test_scheme2_samples_the_matched_filters(self):
        # gamma*rho*D*S S^H = gamma*rho*D, since S S^H = I.
        cfg = ScenarioConfig(scheme=Scheme.SCHEME_II, seed=2)
        scn = make_scenario(cfg)
        truth = radar_truth(cfg, scn.S)
        assert np.array_equal(truth, cfg.gamma * cfg.rho * generate_target_response(cfg))
        filtered = noiseless_radar_return(cfg, scn.S) @ scn.S.conj().T
        assert np.linalg.norm(filtered - truth) <= 1e-12 * np.linalg.norm(truth)


class TestMakeScenario:
    def test_determinism(self):
        cfg = ScenarioConfig(p=0.5, seed=13)
        a = make_scenario(cfg)
        b = make_scenario(cfg)
        for name in ("B", "G2", "S", "omega"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(p=0.5, seed=4),
        ScenarioConfig(scheme=Scheme.SCHEME_II, p=0.5, seed=4),
        ScenarioConfig(M_tR=16, M_rR=32, M_tC=4, M_rC=4, L=128, p=0.5, seed=1),
    ], ids=["scheme1", "scheme2", "L128"])
    def test_noise_bit_equals_the_formula_on_the_channels_G1(self, cfg):
        """B whitens H against the noise of the channels' own G1 and the
        waveforms, drawn from their named streams."""
        H, G1, _ = generate_channels(cfg, stream(cfg.seed, "channels"))
        S = generate_waveforms(cfg, stream(cfg.seed, "waveforms"))
        assert make_scenario(cfg).B.tobytes() == scenario._whiten(cfg, H, G1, S).tobytes()

    SHARED = ("B", "G2", "S")
    # A valid value other than the base config's for every field that a
    # shared draw reads: each must miss the memo. np.int64(4) equals the seed
    # but is another type.
    OTHER = {
        "M_tR": 2, "M_rR": 6, "M_tC": 6, "M_rC": 3, "L": 24, "sigma_C2": 0.02,
        "sigma1_2": 0.2, "sigma2_2": 0.2, "rho2": 4000.0, "sigma_alpha2": 1e-2,
        "seed": np.int64(4),
    }
    # ... and for every field that none reads, besides p and the scheme,
    # which only the mask reads: each must hit it. -0.0 equals C = 0.0.
    # No draw reads targets: the target response is the config's
    # (generate_target_response), not the scenario's.
    UNREAD = {"P_t": 40.0, "C": -0.0, "snr_dB": 20.0, "gamma2_dB": -20.0,
              "targets": [(-20.0, 0.2 + 0.1j)]}

    def assert_reused(self, monkeypatch, change):
        """A config that differs from the last only in fields the shared
        draws do not read gets the draws a cold call makes, bit for bit, as
        the last call's objects with the same designs mapping, and its own
        mask."""
        cfg = ScenarioConfig(p=0.5, seed=4, C=0.0)
        cold = make_scenario(cfg.replace(**change))
        monkeypatch.setattr(scenario, "_memo", None)
        first = make_scenario(cfg)
        warm = make_scenario(cfg.replace(**change))
        for name in self.SHARED:
            assert getattr(warm, name) is getattr(first, name)
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()
        assert warm.designs is first.designs
        assert warm.omega.tobytes() == cold.omega.tobytes()

    @pytest.mark.parametrize("change", [
        {"p": 0.3}, {"scheme": Scheme.SCHEME_II}, {"p": 0.3, "scheme": Scheme.SCHEME_II},
    ], ids=["p", "scheme", "both"])
    def test_mask_fields_reuse_the_draws(self, monkeypatch, change):
        self.assert_reused(monkeypatch, change)

    @pytest.mark.parametrize("name", sorted(UNREAD))
    def test_unread_fields_reuse_the_draws(self, monkeypatch, name):
        self.assert_reused(monkeypatch, {name: self.UNREAD[name]})

    @pytest.mark.parametrize("name", sorted(OTHER))
    def test_every_other_field_misses(self, name):
        cfg = ScenarioConfig(p=0.5, seed=4, C=0.0)
        other = cfg.replace(**{name: self.OTHER[name]})
        first = make_scenario(cfg)
        miss = make_scenario(other)
        assert all(getattr(miss, a) is not getattr(first, a)
                   for a in (*self.SHARED, "designs"))
        assert make_scenario(other).B is miss.B  # and is then the one memoized

    def test_other_fields_cover_the_config(self):
        names = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert set(self.OTHER) == set(scenario._SHARED_FIELDS)
        assert set(self.OTHER) | set(self.UNREAD) == names - {"p", "scheme"}

    def test_c_sweep_draws_once_per_seed(self, monkeypatch):
        """A C-sweep's grid points reuse their seed's draws: one set of
        shared draws per seed, not per point."""
        calls = []
        real = scenario._shared_draws
        monkeypatch.setattr(scenario, "_shared_draws", lambda cfg: calls.append(cfg) or real(cfg))
        spec = ExperimentSpec(cfg=ScenarioConfig(), methods=["selfish"], sweep_var="C",
                              sweep_values=[4.0, 8.0, 12.0, 16.0], seeds=[0, 1, 2])
        rows = run_compare(spec)
        assert len(rows) == 12 and not any(r.error for r in rows)
        assert [cfg.seed for cfg in calls] == [0, 1, 2]

    def test_shared_arrays_refuse_writes(self):
        scn = make_scenario(ScenarioConfig(p=0.5, seed=4))
        for name in self.SHARED:
            with pytest.raises(ValueError, match="read-only"):
                getattr(scn, name)[0, 0] = 0.0
        scn.omega[0, 0] = 0.0  # every call makes its own mask

    def test_streams_are_independent(self):
        # Mask draw count must not perturb channel draws.
        a = make_scenario(ScenarioConfig(p=1.0, seed=3))
        b = make_scenario(ScenarioConfig(p=0.5, seed=3))
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.S, b.S)

    def test_every_seed_has_its_own_streams(self):
        # SeedSequence takes the seed whole: 2**64 does not draw seed 0's.
        def draw(seed):
            return stream(seed, "channels").random(4)

        assert not np.array_equal(draw(2**64), draw(0))
        assert np.array_equal(draw(np.int64(7)), draw(7))
        assert ScenarioConfig(seed=np.int64(7)).seed == 7


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


class TestPinnedDraws:
    """make_scenario and the first completion input of radar_pipeline are
    pinned, so that no change to the generators or the synthesis moves a
    draw unnoticed: the draws that the RNG and elementwise arithmetic fix
    by digests of their bytes, and what LAPACK and BLAS compute from them
    (S by a QR, B and the observation by products), whose last bits depend
    on the kernels, by their defining relations within TOL eps times the
    arrays' norms (measured worst under five OpenBLAS kernels: 4.3 for B
    and 1.2 for S over seeds 0-63, 0 for the observation)."""

    TOL = 32
    # SHA-256 (first 16 hex digits) of the bytes of (H, G1, G2, A, D) by seed,
    # H and G1 as generate_channels draws them, A the draw generate_waveforms
    # orthonormalizes and D as generate_target_response builds it; they do
    # not depend on the scheme or on require_coverage.
    SCENARIO_DIGESTS = {
        0: ("65811aed2ca60b18", "654d78cada8607c0", "b1e2ad4422d93856",
            "2f22a0b675185718", "1cf7d3e0a14c454a"),
        1: ("328573ae1441fe48", "91d37df74eb6876d", "0daea6aaa9be178c",
            "46a697fc0fe3c816", "1cf7d3e0a14c454a"),
        2: ("d32c012120f88cf6", "4b6f4cc32c5ef7d4", "4a33f14494a1a547",
            "03bc725cfe642c08", "1cf7d3e0a14c454a"),
        3: ("6bedc417662b09c9", "b4379538313e6715", "89816ff050e65bd6",
            "6aa546fc5314fc02", "1cf7d3e0a14c454a"),
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

    def assert_close(self, got, want, scale):
        assert np.linalg.norm(got - want) <= self.TOL * np.finfo(float).eps * scale

    @pytest.mark.parametrize("scheme,require_coverage", list(MASK_DIGESTS))
    def test_make_scenario(self, scheme, require_coverage):
        for seed in range(4):
            cfg = ScenarioConfig(p=0.3, scheme=scheme, seed=seed)
            scn = make_scenario(cfg, require_coverage=require_coverage)
            H, G1, _ = generate_channels(cfg, stream(seed, "channels"))
            A = crandn(stream(seed, "waveforms"), cfg.M_tR, cfg.L)
            D = generate_target_response(cfg)
            got = tuple(digest(a) for a in (H, G1, scn.G2, A, D))
            assert got == self.SCENARIO_DIGESTS[seed]
            assert digest(scn.omega) == self.MASK_DIGESTS[scheme, require_coverage][seed]
            # S is the Q^H of A^H = QR: orthonormal rows, and S A^H = R upper
            # triangular with a real diagonal (as LAPACK's Householder QR gives).
            norm_S, norm_A = np.linalg.norm(scn.S), np.linalg.norm(A)
            self.assert_close(scn.S @ scn.S.conj().T, np.eye(cfg.M_tR), norm_S**2)
            R = scn.S @ A.conj().T
            self.assert_close(R, np.triu(R).real + 1j * np.triu(R, 1).imag, norm_S * norm_A)
            # B is the whitening of the pinned H and G1 through the returned
            # S; its error scales with H / sigma_C, which bounds B.
            want = closed_form_whiten(H, G1, scn.S, cfg.rho2 * cfg.sigma_alpha2, cfg.sigma_C2)
            self.assert_close(scn.B, want, np.linalg.norm(H) / math.sqrt(cfg.sigma_C2))

    def test_first_pipeline_observation(self, monkeypatch):
        # The 32 x 32 Scheme I recovery problem at p = 0.5 with an isotropic
        # design: only the draws and the synthesis reach the observation,
        # which is the one a loop over the trial's draws synthesizes.
        cfg = ScenarioConfig(L=32, M_tR=16, M_rR=32, M_tC=4, M_rC=4, p=0.5, seed=13)
        scn = make_scenario(cfg)
        seen = []

        def record(observed, omega, params=None):
            seen.append(observed.copy())
            return np.zeros_like(observed), 0, True

        monkeypatch.setattr(completion, "complete", record)
        X = np.broadcast_to(np.eye(cfg.M_tC), (cfg.L, cfg.M_tC, cfg.M_tC))
        d = np.full((cfg.L, cfg.M_tC), cfg.P_t / (cfg.L * cfg.M_tC))
        completion.radar_pipeline(cfg, scn.S, scn.G2, X, d, scn.omega, 1,
                                  stream(cfg.seed, "mc"))
        want = looped_observations(cfg, scn.S, scn.G2, dense_schedule(X, d), scn.omega, 1,
                                   stream(cfg.seed, "mc"))[0]
        self.assert_close(seen[0], want, np.linalg.norm(want))


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
        ("rho2", 0.0, "rho2 must be positive"),
        ("rho2", -5.0, "rho2 must be positive"),
        ("scheme", "bogus", "scheme must be one of Scheme.SCHEME_I, Scheme.SCHEME_II, got 'bogus'"),
        ("snr_dB", "25", "snr_dB must be a real number, got '25'"),
        # 10^(dB/20) or 10^(dB/10) overflows, or falls to 0.
        ("gamma2_dB", 7000, "gamma2_dB out of range: 10^(gamma2_dB/20) must be a finite "
                            "positive number, got 7000"),
        ("snr_dB", 7000, "snr_dB out of range: 10^(snr_dB/10) must be a finite positive "
                         "number, got 7000"),
        ("snr_dB", -7000, "snr_dB out of range: 10^(snr_dB/10) must be a finite positive "
                          "number, got -7000"),
        # A seed is checked as a dimension is: 1.5 would draw seed 1's
        # streams, and "x" fail later with a bare ValueError.
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", "x", "seed must be an integer, got 'x'"),
        ("seed", -1, "seed must be >= 0"),
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

    @pytest.mark.parametrize("name", ["P_t", "C", "sigma_C2", "snr_dB", "sigma1_2", "sigma2_2",
                                      "gamma2_dB", "rho2", "sigma_alpha2", "p"])
    def test_non_finite_floats_rejected(self, name):
        # NaN passes the range tests, and would fail later as an unreachable
        # capacity or an eigh that does not converge, or not at all.
        for value in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.nan),
                      np.float32(math.inf)):
            with pytest.raises(ConfigError, match=f"^{name} must be finite, got "):
                ScenarioConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got nan$"):
            parse_config(f"{name} = nan\n")

    # These once raised a TypeError from a later comparison with None.
    @pytest.mark.parametrize("name", ["C", "sigma_C2", "snr_dB", "sigma1_2", "sigma2_2",
                                      "gamma2_dB", "sigma_alpha2", "p"])
    def test_none_rejected_where_not_optional(self, name):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(**{name: None})
        assert str(info.value) == f"{name} must be a real number, got None"
        # The optional fields take None for their derived defaults.
        cfg = ScenarioConfig(P_t=None, rho2=None, L=16, M_tR=2)
        assert (cfg.P_t, cfg.rho2) == (16.0, 1000.0 * 16 / 2)

    # The last three once raised a TypeError from cmath.isfinite, or passed
    # the config and failed to unpack in run_compare.
    @pytest.mark.parametrize("target", [
        (math.nan, 0.2 + 0.1j), (math.inf, 0.2 + 0.1j),
        (30.0, complex(math.nan, 0.1)), (30.0, complex(0.2, math.inf)),
        ("30", 0.2), (30.0, "x"), (30.0,),
    ])
    def test_non_finite_targets_rejected(self, target):
        with pytest.raises(ConfigError, match=r"^targets must be finite number pairs "
                                              r"\(angle, coefficient\), got "):
            ScenarioConfig(targets=[(0.0, 0.1 + 0j), target])

    def test_round_trip(self):
        cfg = ScenarioConfig(
            M_tR=16, M_rR=32, M_tC=4, M_rC=4, p=0.4, C=10.5, seed=42,
            scheme=Scheme.SCHEME_II,
            targets=[(30.0, 0.2 + 0.1j), (-15.0, 0.05 - 0.02j)],
        )
        back = parse_config(format_config(cfg))
        assert back == cfg
        # NumPy scalars, which the config accepts, are written as Python numbers.
        cfg = ScenarioConfig(C=np.float32(10.5), P_t=np.float64(20.0), seed=np.int64(3),
                             L=np.int32(24),
                             targets=[(np.float64(30.0), np.complex128(0.2 + 0.1j))])
        text = format_config(cfg)
        assert "np." not in text
        assert parse_config(text) == cfg

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
