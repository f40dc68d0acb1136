"""Random inputs of a coexistence experiment and received-signal synthesis.

Generates channels, orthogonal radar waveforms, the target response matrix,
the binary sampling mask and oscillator phase offsets, and synthesizes the
radar/communication receive matrices. All generators are pure functions of
(config, rng stream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, Scheme
from .linalg import crandn
from .streams import stream


class ScenarioError(ValueError):
    pass


@dataclass
class ChannelSet:
    H: np.ndarray    # M_rC x M_tC, unit entry variance
    G1: np.ndarray   # M_rC x M_tR, entry variance sigma1_2
    G2: np.ndarray   # M_rR x M_tC, entry variance sigma2_2


@dataclass
class WaveformMatrix:
    S: np.ndarray    # M_tR x L with orthonormal rows, S S^H = I

    @property
    def column_energies(self) -> np.ndarray:
        """a_l = s^H(l) s(l) for each symbol l."""
        return np.sum(np.abs(self.S) ** 2, axis=0)


@dataclass
class TargetResponse:
    D: np.ndarray
    targets: list


@dataclass
class SamplingMask:
    omega: np.ndarray  # binary, M_rR x L (Scheme I) or M_rR x M_tR (Scheme II)

    @property
    def ones_count(self) -> int:
        return int(self.omega.sum())

    def with_omega(self, omega: np.ndarray) -> "SamplingMask":
        return SamplingMask(omega=np.asarray(omega, dtype=float))


@dataclass
class PhaseSchedule:
    alpha1: np.ndarray  # length L, radians
    alpha2: np.ndarray

    @property
    def lambda1(self) -> np.ndarray:
        return np.exp(1j * self.alpha1)

    @property
    def lambda2(self) -> np.ndarray:
        return np.exp(1j * self.alpha2)


def steering_vector(n_antennas: int, angle_deg: float) -> np.ndarray:
    """Half-wavelength ULA steering vector [1, e^{j pi sin(theta)}, ...]."""
    theta = np.deg2rad(angle_deg)
    return np.exp(1j * np.pi * np.arange(n_antennas) * np.sin(theta))


def generate_channels(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelSet:
    """i.i.d. circularly symmetric Gaussian channels H, G1, G2."""
    H = crandn(rng, cfg.M_rC, cfg.M_tC)
    G1 = np.sqrt(cfg.sigma1_2) * crandn(rng, cfg.M_rC, cfg.M_tR)
    G2 = np.sqrt(cfg.sigma2_2) * crandn(rng, cfg.M_rR, cfg.M_tC)
    return ChannelSet(H=H, G1=G1, G2=G2)


def generate_waveforms(cfg: ScenarioConfig, rng: np.random.Generator) -> WaveformMatrix:
    """Gaussian orthogonal waveforms: rows of S orthonormalized so S S^H = I."""
    if cfg.L < cfg.M_tR:
        raise ScenarioError("L must be >= M_tR for orthonormal waveform rows")
    A = crandn(rng, cfg.M_tR, cfg.L)
    # QR of A^H gives orthonormal columns; transpose back to orthonormal rows.
    q, _ = np.linalg.qr(A.conj().T)
    return WaveformMatrix(S=q.conj().T)


def generate_target_response(cfg: ScenarioConfig) -> TargetResponse:
    """D = sum_k beta_k a_r(theta_k) a_t(theta_k)^T for stationary ULA targets."""
    if not cfg.targets:
        raise ScenarioError("target list is empty")
    D = np.zeros((cfg.M_rR, cfg.M_tR), dtype=complex)
    for angle_deg, coef in cfg.targets:
        if not (-90.0 < angle_deg < 90.0):
            raise ScenarioError("target angles must lie in (-90, 90) degrees")
        a_r = steering_vector(cfg.M_rR, angle_deg)
        a_t = steering_vector(cfg.M_tR, angle_deg)
        D += complex(coef) * np.outer(a_r, a_t)
    return TargetResponse(D=D, targets=list(cfg.targets))


def mask_shape(cfg: ScenarioConfig) -> tuple[int, int]:
    if cfg.scheme is Scheme.SCHEME_I:
        return (cfg.M_rR, cfg.L)
    return (cfg.M_rR, cfg.M_tR)


def generate_sampling_mask(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    require_coverage: bool = True,
    max_attempts: int = 200_000,
) -> SamplingMask:
    """Uniformly random binary mask with exactly floor(p * entries) ones.

    With require_coverage (the default), the draw is rejected and resampled
    until every row and every column holds at least one sample; a matrix
    with an empty row or column cannot be completed. If max_attempts draws
    all fail, which happens at sampling rates close to the coverage limit,
    the mask is built by _covering_mask instead; that fallback is not
    uniform over the covering masks. Callers that only need the
    interference weights (no completion) may opt out for sub-sampling
    rates too low to cover every row and column.
    """
    rows, cols = mask_shape(cfg)
    size = rows * cols
    n_ones = int(np.floor(cfg.p * size))
    if require_coverage and n_ones < max(rows, cols):
        raise ScenarioError(
            f"cannot cover every row and column with {n_ones} ones "
            f"in a {rows}x{cols} mask"
        )
    for _ in range(max_attempts):
        cells = rng.choice(size, size=n_ones, replace=False)
        if not require_coverage or _covers(cells, rows, cols):
            flat = np.zeros(size)
            flat[cells] = 1.0
            return SamplingMask(omega=flat.reshape(rows, cols))
    return SamplingMask(omega=_covering_mask(rows, cols, n_ones, rng))


def _covers(cells: np.ndarray, rows: int, cols: int) -> bool:
    """Whether the flat (row-major) cell indices hit every column and row."""
    return (len(set((cells % cols).tolist())) == cols
            and len(set((cells // cols).tolist())) == rows)


def _covering_mask(rows: int, cols: int, n_ones: int, rng: np.random.Generator) -> np.ndarray:
    """A rows x cols binary mask with n_ones >= max(rows, cols) ones that
    covers every row and column, built directly from rng.

    For t = 0 .. k-1 with k = max(rows, cols), cell t joins the (t mod rows)-th
    of the shuffled rows to the (t mod cols)-th of the shuffled columns;
    these k cells are distinct and cover both sides. The remaining ones go
    to distinct cells drawn uniformly from the rest. The result is not
    uniform over the covering masks, so this is only the fallback of
    generate_sampling_mask.
    """
    k = max(rows, cols)
    r = rng.permutation(rows)[np.arange(k) % rows]
    c = rng.permutation(cols)[np.arange(k) % cols]
    omega = np.zeros((rows, cols))
    omega[r, c] = 1.0
    free = np.flatnonzero(omega.ravel() == 0.0)
    omega.ravel()[rng.choice(free, size=n_ones - k, replace=False)] = 1.0
    return omega


def generate_phase_offsets(cfg: ScenarioConfig, rng: np.random.Generator) -> PhaseSchedule:
    """Zero-mean Gaussian phase jitter sequences with variance sigma_alpha2."""
    sd = np.sqrt(cfg.sigma_alpha2)
    return PhaseSchedule(
        alpha1=sd * rng.standard_normal(cfg.L),
        alpha2=sd * rng.standard_normal(cfg.L),
    )


def _check_shapes(cfg, D, S, X, G2):
    if D.shape != (cfg.M_rR, cfg.M_tR):
        raise ScenarioError(f"D has shape {D.shape}, expected {(cfg.M_rR, cfg.M_tR)}")
    if S.shape != (cfg.M_tR, cfg.L):
        raise ScenarioError(f"S has shape {S.shape}, expected {(cfg.M_tR, cfg.L)}")
    if X.shape != (cfg.M_tC, cfg.L):
        raise ScenarioError(f"X has shape {X.shape}, expected {(cfg.M_tC, cfg.L)}")
    if G2.shape != (cfg.M_rR, cfg.M_tC):
        raise ScenarioError(f"G2 has shape {G2.shape}, expected {(cfg.M_rR, cfg.M_tC)}")


def noiseless_radar_return(cfg: ScenarioConfig, D: np.ndarray, S: np.ndarray) -> np.ndarray:
    """gamma*rho*D*S, the interference- and noise-free target return."""
    return cfg.gamma * cfg.rho * (D @ S)


def resolve_sigma_R2(cfg: ScenarioConfig, D: np.ndarray, S: np.ndarray) -> float:
    """Radar noise variance: explicit if configured, else set by snr_dB
    against the mean entry power of the noiseless return."""
    if cfg.sigma_R2 is not None:
        return float(cfg.sigma_R2)
    signal = noiseless_radar_return(cfg, D, S)
    mean_power = float(np.mean(np.abs(signal) ** 2))
    return mean_power / 10.0 ** (cfg.snr_dB / 10.0)


def synthesize_radar_rx(
    cfg: ScenarioConfig,
    D: np.ndarray,
    S: np.ndarray,
    G2: np.ndarray,
    X: np.ndarray,
    phases: PhaseSchedule,
    mask: SamplingMask,
    rng: np.random.Generator,
) -> np.ndarray:
    """Masked radar receive matrix.

    Scheme I:  Omega o (gamma*rho*D*S + G2*X*Lambda2 + W_R)
    Scheme II: Omega o ((gamma*rho*D*S + G2*X*Lambda2 + W_R) S^H)
    """
    _check_shapes(cfg, D, S, X, G2)
    sigma_R2 = resolve_sigma_R2(cfg, D, S)
    W_R = np.sqrt(sigma_R2) * crandn(rng, cfg.M_rR, cfg.L)
    Y_R = noiseless_radar_return(cfg, D, S) + (G2 @ X) * phases.lambda2 + W_R
    if cfg.scheme is Scheme.SCHEME_II:
        Y_R = Y_R @ S.conj().T
    if mask.omega.shape != Y_R.shape:
        raise ScenarioError(
            f"mask shape {mask.omega.shape} does not match data shape {Y_R.shape}"
        )
    return mask.omega * Y_R


def synthesize_comm_rx(
    cfg: ScenarioConfig,
    H: np.ndarray,
    G1: np.ndarray,
    S: np.ndarray,
    X: np.ndarray,
    phases: PhaseSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Residual comm receive matrix after radar interference cancellation:
    H*X + rho*G1*S*Lambda_alpha + W_C with Lambda_alpha = diag(j*alpha1)."""
    if H.shape != (cfg.M_rC, cfg.M_tC) or G1.shape != (cfg.M_rC, cfg.M_tR):
        raise ScenarioError("channel shapes inconsistent with config")
    if X.shape != (cfg.M_tC, cfg.L) or S.shape != (cfg.M_tR, cfg.L):
        raise ScenarioError("signal shapes inconsistent with config")
    W_C = np.sqrt(cfg.sigma_C2) * crandn(rng, cfg.M_rC, cfg.L)
    return H @ X + cfg.rho * (G1 @ S) * (1j * phases.alpha1) + W_C


@dataclass
class Scenario:
    """One fully generated experiment instance."""

    cfg: ScenarioConfig
    channels: ChannelSet
    waveforms: WaveformMatrix
    target: TargetResponse
    mask: SamplingMask
    phases: PhaseSchedule


def make_scenario(cfg: ScenarioConfig, require_coverage: bool = True) -> Scenario:
    """Generate every random input of an experiment from named streams of
    cfg.seed. Stream separation keeps each piece stable as others evolve."""
    return Scenario(
        cfg=cfg,
        channels=generate_channels(cfg, stream(cfg.seed, "channels")),
        waveforms=generate_waveforms(cfg, stream(cfg.seed, "waveforms")),
        target=generate_target_response(cfg),
        mask=generate_sampling_mask(
            cfg, stream(cfg.seed, "mask"), require_coverage=require_coverage
        ),
        phases=generate_phase_offsets(cfg, stream(cfg.seed, "phases")),
    )
