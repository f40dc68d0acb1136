"""Capacity and interference-power metrics.

Every radar-side interference metric is the one weighted form
sum_l Tr(W_l G2 R_xl G2^H) = sum(W o Q^T), where Q (M_rR x L) holds the
diagonals of G2 R_xl G2^H (interference_diag_matrix) and only the
nonnegative diagonal weights W_l differ. A weight array is (L, M_rR), row l
the diagonal of W_l, and each family has one builder:

  TIP      W_l = I             tip_weights: total power at the radar RX antennas
  EIP_I    W_l = Delta_l       scheme_weights: entries sampled by a Scheme I radar
  IP_FMFB  W_l = a_l * I       fmfb_weights: full matched filter bank output power
  EIP_II   W_l = Delta_l_xi    scheme_weights: random matched filter bank (Scheme II)

weighted_eip forms the sum, scheme_mask_cost (the adjoint of scheme_weights)
the mask's own cost Q~ with EIP = sum(Omega o Q~), and
mismatched_weight_diagonals remaps weights onto the comm symbol grid when the
symbol rates differ. Covariance and noise schedules are stacked (L, n, n)
arrays. Independent oracles for these quantities (the trace form of EIP_II
and a Monte-Carlo estimate from the signal model) are kept with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig, Scheme, SpecshareError
from .linalg import hermitize

PSD_TOL = 1e-9


class MetricError(SpecshareError):
    pass


def total_power(schedule: np.ndarray) -> float:
    """sum_l Tr(R_xl) of an (L, n, n) covariance stack."""
    return float(np.trace(schedule, axis1=-2, axis2=-1).real.sum())


def check_covariances(schedule: np.ndarray) -> None:
    """Raise MetricError unless every matrix R_l of the stack is finite,
    Hermitian and PSD to tau_l = PSD_TOL * max(1, Tr R_l): R_l + tau_l I has a
    Cholesky factor, which up to rounding is min eig(R_l) > -tau_l."""
    R = schedule
    if not np.all(np.isfinite(R)):
        raise MetricError("covariance matrix is not finite")
    skew = np.linalg.norm(R - np.swapaxes(R, -1, -2).conj(), axis=(-2, -1))
    if np.any(skew > 1e-10 * np.maximum(1.0, np.linalg.norm(R, axis=(-2, -1)))):
        raise MetricError("covariance matrix is not Hermitian")
    tau = PSD_TOL * np.maximum(1.0, np.trace(R, axis1=-2, axis2=-1).real)
    try:
        np.linalg.cholesky(hermitize(R) + tau[..., None, None] * np.eye(R.shape[-1]))
    except np.linalg.LinAlgError:
        raise MetricError("covariance matrix is not PSD") from None


def noise_covariances(cfg: ScenarioConfig, G1: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(L, M_rC, M_rC) stack R_wl = rho^2 sigma_alpha^2 G1 s(l) s^H(l) G1^H + sigma_C^2 I."""
    scale = cfg.rho2 * cfg.sigma_alpha2
    eye = cfg.sigma_C2 * np.eye(cfg.M_rC)
    v = np.matmul(G1, S.T[:, :, None])[..., 0]  # row l: G1 s(l)
    return hermitize(scale * (v[:, :, None] * v.conj()[:, None, :]) + eye)


def average_capacity(schedule: np.ndarray, H: np.ndarray, noise: np.ndarray) -> float:
    """(1/L) sum_l log2 |I + R_wl^{-1} H R_xl H^H| in bits/symbol."""
    if len(noise) != len(schedule):
        raise MetricError("schedule and noise lengths differ")
    for name, value in (("noise covariance", noise), ("covariance matrix", schedule),
                        ("channel matrix", H)):
        if not np.all(np.isfinite(value)):
            raise MetricError(f"{name} is not finite")
    try:  # a Cholesky factor exists exactly when the noise is positive definite
        np.linalg.cholesky(hermitize(noise))
    except np.linalg.LinAlgError:
        raise MetricError("noise covariance is not positive definite") from None
    sign_n, logdet_n = np.linalg.slogdet(noise)
    sign_f, logdet_f = np.linalg.slogdet(noise + H @ schedule @ H.conj().T)
    if np.any(sign_n.real <= 0) or np.any(sign_f.real <= 0):
        raise MetricError("capacity determinant is not positive")
    return float(np.sum((logdet_f - logdet_n) / math.log(2.0))) / len(schedule)


def interference_diag_matrix(G2: np.ndarray, schedule: np.ndarray) -> np.ndarray:
    """Q with column l holding the diagonal of G2 R_xl G2^H (M_rR x L)."""
    return np.einsum("ij,ljk,ik->il", G2, schedule, G2.conj()).real


def weighted_eip(weights: np.ndarray, Q: np.ndarray) -> float:
    """Weighted interference power sum_l Tr(W_l G2 R_xl G2^H) = sum(W o Q^T).

    Q comes from interference_diag_matrix. The sum is signed: roundoff can
    leave a numerically zero power slightly negative.
    """
    if weights.shape != Q.T.shape:
        raise MetricError("weights and interference profile shapes differ")
    return float(np.sum(weights * Q.T))


def tip_weights(n_rx: int, L: int) -> np.ndarray:
    """TIP weights W_l = I."""
    return np.ones((L, n_rx))


def fmfb_weights(S: np.ndarray, n_rx: int) -> np.ndarray:
    """IP_FMFB weights W_l = a_l I, a_l = ||s(l)||^2 the waveform column energies."""
    a = np.sum(np.abs(S) ** 2, axis=0)
    return np.repeat(a[:, None], n_rx, axis=1)


def scheme_weights(cfg: ScenarioConfig, omega: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The radar scheme's EIP weights over the L = S.shape[1] radar symbols.

    Scheme I: W_l = Delta_l, column l of the mask omega. Scheme II: row l
    holds a_{l,xi_m} = sum_{i in xi_m} |s_i(l)|^2, the energy of symbol l in
    the waveforms that receive antenna m's matched filters keep. Either way
    the array is C-ordered, like every other weight array.
    """
    if cfg.scheme is Scheme.SCHEME_I:
        if omega.shape[1] != S.shape[1]:
            raise MetricError("mask is not Scheme-I shaped")
        return omega.T.copy()
    if omega.shape[1] != S.shape[0]:
        raise MetricError("mask is not Scheme-II shaped for this waveform matrix")
    return np.ascontiguousarray((omega @ np.abs(S) ** 2).T)


def scheme_mask_cost(cfg: ScenarioConfig, Q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The mask cost Q~ with weighted_eip(scheme_weights(cfg, omega, S), Q) =
    sum(omega o Q~): Q for Scheme I, Q (S o conj(S))^T (M_rR x M_tR) for
    Scheme II."""
    if cfg.scheme is Scheme.SCHEME_I:
        return Q
    return Q @ (np.abs(S) ** 2).T


def mismatched_weight_diagonals(
    weights: np.ndarray, radar_rate: float, comm_rate: float, L_comm: int
) -> np.ndarray:
    """Map per-radar-symbol weights onto comm symbols for mismatched rates.

    Radar slower: the radar samples one comm symbol per radar symbol
    (aligned to comm-symbol boundaries); the unsampled comm symbols get
    zero weight. Radar faster: each comm symbol accumulates the weights of
    the floor(f_R/f_C) radar symbols it spans. Rates must be integer
    multiples of one another.
    """
    L_radar, n_rx = weights.shape
    if radar_rate == comm_rate:
        if L_comm != L_radar:
            raise MetricError("equal rates require equal symbol counts")
        return weights.copy()
    if radar_rate < comm_rate:
        ratio = comm_rate / radar_rate
        k = int(round(ratio))
        if abs(ratio - k) > 1e-9:
            raise MetricError("comm rate must be an integer multiple of radar rate")
        if L_comm < (L_radar - 1) * k + 1:
            raise MetricError("schedule too short for the radar symbol count")
        out = np.zeros((L_comm, n_rx))
        out[: L_radar * k : k] = weights
        return out
    ratio = radar_rate / comm_rate
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9:
        raise MetricError("radar rate must be an integer multiple of comm rate")
    if L_radar != k * L_comm:
        raise MetricError("radar symbol count must equal k * comm symbol count")
    return weights.reshape(L_comm, k, n_rx).sum(axis=1)
