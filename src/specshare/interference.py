"""Capacity and interference-power metrics.

Every radar-side interference metric is the one weighted form
sum_l Tr(W_l G2 R_xl G2^H) = sum(W o Q^T), where Q (M_rR x L) holds the
diagonals of G2 R_xl G2^H (interference_diag_matrix) and only the
nonnegative diagonal weights W_l differ (weight_schedule):

  TIP      W_l = I             total power at the radar RX antennas
  EIP_I    W_l = Delta_l       only entries sampled by a Scheme I radar
  IP_FMFB  W_l = a_l * I       full matched filter bank output power
  EIP_II   W_l = Delta_l_xi    random matched filter bank (Scheme II)

weighted_eip forms the sum, scheme_weights picks the radar scheme's EIP
weights and mismatched_weight_diagonals remaps them onto the comm symbol
grid when the symbol rates differ. Schedules are stacked (L, n, n) arrays.
The trace form of EIP_II and a Monte-Carlo oracle evaluate the same
quantities independently, for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, Scheme
from .linalg import crandn, hermitize, min_eig, psd_sqrt
from .scenario import SamplingMask

PSD_TOL = 1e-9

METHOD_TIP = "TIP"
METHOD_EIP_I = "EIP_I"
METHOD_IP_FMFB = "IP_FMFB"
METHOD_EIP_II = "EIP_II"


class MetricError(ValueError):
    pass


@dataclass
class _MatrixStack:
    """L per-symbol n x n matrices as one (L, n, n) array; a list of
    matrices is stacked on construction."""

    matrices: np.ndarray

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices)

    def __len__(self):
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]


class CovarianceSchedule(_MatrixStack):
    """The L per-symbol Hermitian PSD transmit covariance matrices."""

    @property
    def total_power(self) -> float:
        return float(np.trace(self.matrices, axis1=-2, axis2=-1).real.sum())

    def validate(self, tol: float = PSD_TOL):
        R = self.matrices
        skew = np.linalg.norm(R - np.swapaxes(R, -1, -2).conj(), axis=(-2, -1))
        if np.any(skew > 1e-10 * np.maximum(1.0, np.linalg.norm(R, axis=(-2, -1)))):
            raise MetricError("covariance matrix is not Hermitian")
        power = np.trace(R, axis1=-2, axis2=-1).real
        if np.any(min_eig(R) < -tol * np.maximum(1.0, power)):
            raise MetricError("covariance matrix is not PSD")

    def sqrts(self) -> np.ndarray:
        return psd_sqrt(self.matrices)


@dataclass
class WeightSchedule:
    """Per-symbol nonnegative diagonal interference weights."""

    diagonals: np.ndarray  # L x M_rR, real nonnegative
    method: str

    def __len__(self):
        return self.diagonals.shape[0]


class NoiseCovSchedule(_MatrixStack):
    """Per-symbol comm receiver noise-plus-interference covariances R_wl."""


def noise_covariances(cfg: ScenarioConfig, G1: np.ndarray, S: np.ndarray) -> NoiseCovSchedule:
    """R_wl = rho^2 sigma_alpha^2 G1 s(l) s^H(l) G1^H + sigma_C^2 I."""
    scale = cfg.rho2 * cfg.sigma_alpha2
    eye = cfg.sigma_C2 * np.eye(cfg.M_rC)
    mats = []
    for l in range(S.shape[1]):
        v = G1 @ S[:, l]
        mats.append(hermitize(scale * np.outer(v, v.conj()) + eye))
    return NoiseCovSchedule(np.stack(mats))


def average_capacity(
    schedule: CovarianceSchedule, H: np.ndarray, noise: NoiseCovSchedule
) -> float:
    """(1/L) sum_l log2 |I + R_wl^{-1} H R_xl H^H| in bits/symbol."""
    if len(noise) != len(schedule):
        raise MetricError("schedule and noise lengths differ")
    R_w = noise.matrices
    if np.any(min_eig(R_w) <= 0.0):
        raise MetricError("noise covariance is not positive definite")
    sign_n, logdet_n = np.linalg.slogdet(R_w)
    sign_f, logdet_f = np.linalg.slogdet(R_w + H @ schedule.matrices @ H.conj().T)
    if np.any(sign_n.real <= 0) or np.any(sign_f.real <= 0):
        raise MetricError("capacity determinant is not positive")
    return float(np.sum((logdet_f - logdet_n) / math.log(2.0))) / len(schedule)


def interference_diag_matrix(G2: np.ndarray, schedule: CovarianceSchedule) -> np.ndarray:
    """Q with column l holding the diagonal of G2 R_xl G2^H (M_rR x L)."""
    return np.einsum("ij,ljk,ik->il", G2, schedule.matrices, G2.conj()).real


def weighted_eip(weights: WeightSchedule, Q: np.ndarray) -> float:
    """Weighted interference power sum_l Tr(W_l G2 R_xl G2^H) = sum(W o Q^T).

    Q comes from interference_diag_matrix. The sum is signed: roundoff can
    leave a numerically zero power slightly negative.
    """
    if weights.diagonals.shape != Q.T.shape:
        raise MetricError("weights and interference profile shapes differ")
    return float(np.sum(weights.diagonals * Q.T))


def matched_filter_weights(S: np.ndarray, mask: SamplingMask):
    """Scheme II weights: a_{l,xi_m} = sum_{i in xi_m} |s_i(l)|^2.

    Returns (delta_lxi, a) with delta_lxi of shape L x M_rR (row l is the
    diagonal of Delta_l_xi) and a the length-L column energies a_l.
    """
    if mask.omega.shape[1] != S.shape[0]:
        raise MetricError("mask is not Scheme-II shaped for this waveform matrix")
    s_abs2 = np.abs(S) ** 2                 # M_tR x L
    delta_lxi = (mask.omega @ s_abs2).T     # L x M_rR
    return delta_lxi, s_abs2.sum(axis=0)


def eip_scheme2_trace_form(
    mask: SamplingMask, S: np.ndarray, G2: np.ndarray, schedule: CovarianceSchedule
) -> float:
    """Equivalent trace form Tr(Omega^T Q (S o conj(S))^T)."""
    if mask.omega.shape != (G2.shape[0], S.shape[0]):
        raise MetricError("mask is not Scheme-II shaped")
    Q = interference_diag_matrix(G2, schedule)
    s_abs2 = np.abs(S) ** 2
    return float(np.trace(mask.omega.T @ Q @ s_abs2.T).real)


def weight_schedule(
    method: str,
    n_rx: int,
    L: int,
    mask: SamplingMask | None = None,
    S: np.ndarray | None = None,
) -> WeightSchedule:
    """Build the diagonal weights unifying the four interference metrics."""
    if method == METHOD_TIP:
        diags = np.ones((L, n_rx))
    elif method == METHOD_EIP_I:
        if mask is None:
            raise MetricError("EIP_I weights require a Scheme-I mask")
        if mask.omega.shape != (n_rx, L):
            raise MetricError("mask is not Scheme-I shaped")
        diags = mask.omega.T.copy()
    elif method == METHOD_IP_FMFB:
        if S is None:
            raise MetricError("IP_FMFB weights require the waveform matrix")
        a = np.sum(np.abs(S) ** 2, axis=0)
        diags = np.repeat(a[:, None], n_rx, axis=1)
    elif method == METHOD_EIP_II:
        if mask is None or S is None:
            raise MetricError("EIP_II weights require a Scheme-II mask and waveforms")
        delta_lxi, _ = matched_filter_weights(S, mask)
        diags = delta_lxi
    else:
        raise MetricError(f"unknown weight method {method!r}")
    return WeightSchedule(diagonals=diags, method=method)


def scheme_weights(cfg: ScenarioConfig, mask: SamplingMask, S: np.ndarray) -> WeightSchedule:
    """The radar scheme's EIP weights: EIP_I under Scheme I, EIP_II under
    Scheme II, over the L = S.shape[1] radar symbols."""
    n_rx, L = mask.omega.shape[0], S.shape[1]
    if cfg.scheme is Scheme.SCHEME_I:
        return weight_schedule(METHOD_EIP_I, n_rx, L, mask=mask)
    return weight_schedule(METHOD_EIP_II, n_rx, L, mask=mask, S=S)


def mismatched_weight_diagonals(
    weights: WeightSchedule, radar_rate: float, comm_rate: float, L_comm: int
) -> np.ndarray:
    """Map per-radar-symbol weights onto comm symbols for mismatched rates.

    Radar slower: the radar samples one comm symbol per radar symbol
    (aligned to comm-symbol boundaries); the unsampled comm symbols get
    zero weight. Radar faster: each comm symbol accumulates the weights of
    the floor(f_R/f_C) radar symbols it spans. Rates must be integer
    multiples of one another.
    """
    n_rx = weights.diagonals.shape[1]
    L_radar = weights.diagonals.shape[0]
    if radar_rate == comm_rate:
        if L_comm != L_radar:
            raise MetricError("equal rates require equal symbol counts")
        return weights.diagonals.copy()
    if radar_rate < comm_rate:
        ratio = comm_rate / radar_rate
        k = int(round(ratio))
        if abs(ratio - k) > 1e-9:
            raise MetricError("comm rate must be an integer multiple of radar rate")
        if L_comm < (L_radar - 1) * k + 1:
            raise MetricError("schedule too short for the radar symbol count")
        out = np.zeros((L_comm, n_rx))
        for lr in range(L_radar):
            out[lr * k] = weights.diagonals[lr]
        return out
    ratio = radar_rate / comm_rate
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9:
        raise MetricError("radar rate must be an integer multiple of comm rate")
    if L_radar != k * L_comm:
        raise MetricError("radar symbol count must equal k * comm symbol count")
    return weights.diagonals.reshape(L_comm, k, n_rx).sum(axis=1)


def empirical_eip(
    cfg: ScenarioConfig,
    mask: SamplingMask,
    G2: np.ndarray,
    S: np.ndarray,
    schedule: CovarianceSchedule,
    trials: int,
    rng: np.random.Generator,
):
    """Monte-Carlo estimate of the masked interference power.

    Draws x(l) ~ CN(0, R_xl) and fresh phase offsets each trial and
    evaluates the masked power directly from the signal model. Returns
    (mean, standard error).
    """
    if trials < 1:
        raise MetricError("trials must be >= 1")
    roots = schedule.sqrts()
    L = len(schedule)
    n_tx = roots[0].shape[0]
    samples = np.empty(trials)
    sd_alpha = np.sqrt(cfg.sigma_alpha2)
    for t in range(trials):
        X = np.stack([roots[l] @ crandn(rng, n_tx) for l in range(L)], axis=1)
        lam2 = np.exp(1j * sd_alpha * rng.standard_normal(L))
        interf = (G2 @ X) * lam2
        if cfg.scheme is Scheme.SCHEME_I:
            masked = mask.omega * interf
        else:
            masked = mask.omega * (interf @ S.conj().T)
        samples[t] = np.sum(np.abs(masked) ** 2)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
