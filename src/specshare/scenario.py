"""Random inputs of a coexistence experiment and radar receive synthesis.

Generates the channels H, G1 and G2, the radar waveforms S, the sampling
mask omega and the recovery trials' codewords, phases and noise, all plain
arrays, and synthesizes the masked radar receive matrix of the config's
targets. All generators are pure functions of (config, rng stream).
The comm link enters every design only through the whitened channels
B_l = R_wl^{-1/2} H, which make_scenario forms once from H, G1 and S.
make_scenario keeps the draws of its last config, keyed on the fields they
read, with the designs solved on them (Scenario.designs), the one owner of
reuse: a p, C, P_t, targets or radar-SNR sweep redraws only the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, sqrt

import numpy as np

from .config import ScenarioConfig, Scheme, SpecshareError
from .linalg import crandn
from .streams import stream


class ScenarioError(SpecshareError):
    pass


def steering_vector(n_antennas: int, angle_deg: float) -> np.ndarray:
    """Half-wavelength ULA steering vector [1, e^{j pi sin(theta)}, ...]."""
    theta = np.deg2rad(angle_deg)
    return np.exp(1j * np.pi * np.arange(n_antennas) * np.sin(theta))


def generate_channels(cfg: ScenarioConfig, rng: np.random.Generator):
    """i.i.d. circularly symmetric Gaussian channels (H, G1, G2): H is
    M_rC x M_tC with unit entry variance, G1 M_rC x M_tR with variance
    sigma1_2 and G2 M_rR x M_tC with variance sigma2_2."""
    H = crandn(rng, cfg.M_rC, cfg.M_tC)
    G1 = np.sqrt(cfg.sigma1_2) * crandn(rng, cfg.M_rC, cfg.M_tR)
    G2 = np.sqrt(cfg.sigma2_2) * crandn(rng, cfg.M_rR, cfg.M_tC)
    return H, G1, G2


def generate_waveforms(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Gaussian orthogonal waveforms: the M_tR x L matrix S, its rows
    orthonormalized so S S^H = I (ScenarioConfig keeps L >= M_tR)."""
    A = crandn(rng, cfg.M_tR, cfg.L)
    # QR of A^H gives orthonormal columns; transpose back to orthonormal rows.
    q, _ = np.linalg.qr(A.conj().T)
    return q.conj().T


def generate_target_response(cfg: ScenarioConfig) -> np.ndarray:
    """D = sum_k beta_k a_r(theta_k) a_t(theta_k)^T for stationary ULA targets."""
    D = np.zeros((cfg.M_rR, cfg.M_tR), dtype=complex)
    for angle_deg, coef in cfg.targets:
        a_r = steering_vector(cfg.M_rR, angle_deg)
        a_t = steering_vector(cfg.M_tR, angle_deg)
        D += complex(coef) * np.outer(a_r, a_t)
    return D


def mask_shape(cfg: ScenarioConfig) -> tuple[int, int]:
    if cfg.scheme is Scheme.SCHEME_I:
        return (cfg.M_rR, cfg.L)
    return (cfg.M_rR, cfg.M_tR)


# Rejection sampling keeps drawing while a uniform draw covers every row and
# column with at least this probability, i.e. for at most 1e4 expected draws.
_MIN_COVERAGE_PROBABILITY = 1e-4


def covers(omega: np.ndarray) -> bool:
    """Whether the mask omega has a nonzero entry in every column and every
    row: completion cannot recover a matrix from a mask that leaves a row or
    a column unsampled. The columns go first; a wide mask misses one of
    them far more often than one of its rows."""
    return bool(omega.any(axis=0).all() and omega.any(axis=1).all())


def generate_sampling_mask(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    require_coverage: bool = True,
) -> np.ndarray:
    """Uniformly random binary mask omega, M_rR x L (Scheme I) or M_rR x M_tR
    (Scheme II), with exactly floor(p * entries) ones.

    With require_coverage (the default), a mask whose ones can cover every
    row and every column (n_ones >= max(rows, cols)) does: a draw that
    covers(omega) refuses is rejected and redrawn, as long as a uniform draw
    covers with probability at least 1e-4 (_coverage_probability). Closer
    to the coverage limit the first failed draw hands over to
    _covering_mask, which is not uniform over the covering masks. Fewer
    ones leave a row or column empty in every draw, and give the one
    uniform draw that require_coverage=False gives: the designs read the
    mask only through its interference weights, and completion refuses it
    (a MetricError).
    """
    rows, cols = mask_shape(cfg)
    n_ones = int(np.floor(cfg.p * rows * cols))
    first = True
    while True:
        omega = np.zeros((rows, cols))
        omega.ravel()[rng.choice(rows * cols, size=n_ones, replace=False)] = 1.0
        if not require_coverage or n_ones < max(rows, cols) or covers(omega):
            return omega
        if first and _coverage_probability(rows, cols, n_ones) < _MIN_COVERAGE_PROBABILITY:
            return _covering_mask(rows, cols, n_ones, rng)
        first = False


def _coverage_probability(rows: int, cols: int, n_ones: int) -> float:
    """Probability that n_ones distinct cells drawn uniformly from a rows x
    cols grid hit every row and every column.

    Inclusion-exclusion over the i rows and j columns left empty, summed in
    exact integers: sum (-1)^(i+j) C(rows, i) C(cols, j)
    C((rows-i)(cols-j), n_ones) / C(rows*cols, n_ones).
    """
    hits = sum(
        (-1) ** (i + j) * comb(rows, i) * comb(cols, j) * comb((rows - i) * (cols - j), n_ones)
        for i in range(rows + 1)
        for j in range(cols + 1)
    )
    return hits / comb(rows * cols, n_ones)


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


def draw_trials(cfg: ScenarioConfig, trials: int, rng: np.random.Generator):
    """Every random draw of `trials` recovery trials, in one rng call: unit
    codewords v (trials, L, M_tC), phases alpha2 (trials, L) of variance
    sigma_alpha2 and unit noise (trials, M_rR, L). A trial's normals come in
    crandn's order: per symbol its codeword's real then imaginary parts,
    then alpha1 (dropped), alpha2, and the noise's real then imaginary parts."""
    L, n_tx, n_rx = cfg.L, cfg.M_tC, cfg.M_rR
    draws = rng.standard_normal((trials, 2 * L * n_tx + 2 * L + 2 * n_rx * L))
    z = draws[:, :2 * L * n_tx].reshape(trials, L, 2, n_tx)
    w = draws[:, 2 * L * (n_tx + 1):].reshape(trials, 2, n_rx, L)
    alpha2 = np.sqrt(cfg.sigma_alpha2) * draws[:, 2 * L * n_tx + L:2 * L * (n_tx + 1)]
    return ((z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0), alpha2,
            (w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0))


def _check_shapes(cfg, S, X, G2):
    if S.shape != (cfg.M_tR, cfg.L):
        raise ScenarioError(f"S has shape {S.shape}, expected {(cfg.M_tR, cfg.L)}")
    if X.shape[-2:] != (cfg.M_tC, cfg.L):
        raise ScenarioError(f"X has shape {X.shape}, expected {(cfg.M_tC, cfg.L)}")
    if G2.shape != (cfg.M_rR, cfg.M_tC):
        raise ScenarioError(f"G2 has shape {G2.shape}, expected {(cfg.M_rR, cfg.M_tC)}")


def noiseless_radar_return(cfg: ScenarioConfig, S: np.ndarray) -> np.ndarray:
    """gamma*rho*D*S, the interference- and noise-free return of cfg's targets."""
    return cfg.gamma * cfg.rho * (generate_target_response(cfg) @ S)


def radar_truth(cfg: ScenarioConfig, S: np.ndarray) -> np.ndarray:
    """The noiseless matrix the radar completes for cfg's targets: gamma*rho*D*S
    for Scheme I, which samples the receive antennas, and gamma*rho*D for
    Scheme II, which samples the matched-filter outputs (gamma*rho*D*S S^H,
    with S S^H = I)."""
    if cfg.scheme is Scheme.SCHEME_II:
        return cfg.gamma * cfg.rho * generate_target_response(cfg)
    return noiseless_radar_return(cfg, S)


def resolve_sigma_R2(cfg: ScenarioConfig, S: np.ndarray) -> float:
    """Radar noise variance, set by snr_dB against the mean entry power of
    the noiseless return. A ScenarioError names the power or variance that
    overflows."""
    with np.errstate(over="ignore"):
        mean_power = float(np.mean(np.abs(noiseless_radar_return(cfg, S)) ** 2))
    sigma_R2 = mean_power / 10.0 ** (cfg.snr_dB / 10.0)  # inf if mean_power is inf
    for name, value in (("signal power", mean_power), ("noise variance", sigma_R2)):
        if not np.isfinite(value):
            raise ScenarioError(f"radar {name} is not finite")
    return sigma_R2


def synthesize_radar_rx(
    cfg: ScenarioConfig,
    S: np.ndarray,
    G2: np.ndarray,
    X: np.ndarray,
    alpha2: np.ndarray,
    omega: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Masked radar receive matrix of cfg's targets, Lambda2 = diag(exp(j alpha2))
    and W_R the unit noise times sqrt(sigma_R2) (resolve_sigma_R2). X, alpha2
    and noise may carry a leading trial axis (draw_trials); the result has it.

    Scheme I:  Omega o (gamma*rho*D*S + G2*X*Lambda2 + W_R)
    Scheme II: Omega o ((gamma*rho*D*S + G2*X*Lambda2 + W_R) S^H)
    """
    _check_shapes(cfg, S, X, G2)
    W_R = np.sqrt(resolve_sigma_R2(cfg, S)) * noise
    Y_R = noiseless_radar_return(cfg, S) + (G2 @ X) * np.exp(1j * alpha2)[..., None, :] + W_R
    if cfg.scheme is Scheme.SCHEME_II:
        Y_R = Y_R @ S.conj().T
    if omega.shape != Y_R.shape[-2:]:
        raise ScenarioError(
            f"mask shape {omega.shape} does not match data shape {Y_R.shape[-2:]}"
        )
    return omega * Y_R


@dataclass
class Scenario:
    """One seed's random draws (the target response D is the config's, not
    a draw): the comm channel as its whitened stack B (L, M_rC, M_tC), B_l =
    R_wl^{-1/2} H (_whiten), G2, S and the mask omega. B, G2, S (read-only)
    and designs, the mapping of the designs solved on B and G2
    (covdesign.solve_weighted_eip), are shared with configs that differ only
    in fields these draws do not read (make_scenario). covers(omega) may be
    false when p is too low to cover every row and column; only completion
    needs it to be true."""

    B: np.ndarray
    G2: np.ndarray
    S: np.ndarray
    designs: dict
    omega: np.ndarray


# The config fields that H, G1, G2, S and the comm noise read; p and the
# scheme (the mask's), targets, C, P_t, gamma2_dB and snr_dB are not.
_SHARED_FIELDS = ("M_tR", "M_rR", "M_tC", "M_rC", "L", "sigma1_2", "sigma2_2", "rho2",
                  "sigma_alpha2", "sigma_C2", "seed")


def _bits(value):
    """An exact memo key for a config value: its type, and the bits of a
    float (0.0 and -0.0 differ). Other values, such as integers, compare
    exactly as they are."""
    if isinstance(value, float):
        return type(value), value.hex()
    return type(value), value


def _whiten(cfg: ScenarioConfig, H: np.ndarray, G1: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(L, M_rC, M_tC) stack B_l = R_wl^{-1/2} H of the comm noise R_wl =
    sigma_C^2 I + a g_l g_l^H, g_l = G1 s(l) and a = rho^2 sigma_alpha^2:
    R_wl^{-1/2} = sigma_C^{-1} (I - c_l u_l u_l^H), u_l = g_l / ||g_l||,
    c_l = 1 - (1 + a ||g_l||^2 / sigma_C^2)^{-1/2} by expm1 and log1p. With
    sigma_C^2 = 0, R_wl is singular (a ScenarioError) unless it is the
    positive scalar of one receive antenna."""
    g = np.matmul(G1, S.T[:, :, None])[..., 0]  # row l: G1 s(l)
    a, sigma_C2 = float(cfg.rho2) * float(cfg.sigma_alpha2), float(cfg.sigma_C2)
    if not (np.all(np.isfinite(g)) and isfinite(a) and isfinite(sigma_C2)):
        raise ScenarioError("noise covariance is not finite")
    if not np.all(np.isfinite(H)):
        raise ScenarioError("channel matrix is not finite")
    norm2 = np.sum(g.real**2 + g.imag**2, axis=1)
    if sigma_C2 == 0.0:
        if H.shape[0] > 1 or not np.all(a * norm2 > 0.0):
            raise ScenarioError("noise covariance is not positive definite")
        return H / np.sqrt(a * norm2)[:, None, None]
    with np.errstate(over="ignore"):  # t_l = inf gives c_l = 1
        c = -np.expm1(-0.5 * np.log1p(a * norm2 / sigma_C2))
    u = np.divide(g, np.sqrt(norm2)[:, None], out=np.zeros_like(g), where=norm2[:, None] > 0.0)
    return (H - (c[:, None] * u)[:, :, None] * (u.conj() @ H)[:, None, :]) / sqrt(sigma_C2)


def _shared_draws(cfg: ScenarioConfig) -> tuple:
    """(B, G2, S), the draws that read only _SHARED_FIELDS, with their
    arrays made read-only to be shared, and an empty designs mapping."""
    H, G1, G2 = generate_channels(cfg, stream(cfg.seed, "channels"))
    S = generate_waveforms(cfg, stream(cfg.seed, "waveforms"))
    draws = (_whiten(cfg, H, G1, S), G2, S)
    for a in draws:
        a.flags.writeable = False
    return (*draws, {})


# (key, _shared_draws) of the last config; a key that differs in any bit
# replaces it. It takes no lock: the harness makes scenarios on one thread.
_memo: tuple | None = None


def make_scenario(cfg: ScenarioConfig, require_coverage: bool = True) -> Scenario:
    """Generate every random input of an experiment from named streams of
    cfg.seed. Stream separation keeps each piece stable as others evolve.

    The draws B, G2 and S are memoized for the last config, keyed on the
    exact bits of the fields they read (_SHARED_FIELDS), the seed included;
    they are read-only arrays, the same objects at every hit, and carry the
    designs solved on them; the mask is drawn at every call. ScenarioConfig
    refuses every config no seed can run, so a ScenarioError means only
    unusable draws: a non-finite channel or comm noise, or a singular one
    (_whiten); an error is never memoized."""
    global _memo
    key = tuple(_bits(getattr(cfg, name)) for name in _SHARED_FIELDS)
    if _memo is None or _memo[0] != key:
        _memo = (key, _shared_draws(cfg))
    omega = generate_sampling_mask(cfg, stream(cfg.seed, "mask"), require_coverage=require_coverage)
    return Scenario(*_memo[1], omega)
