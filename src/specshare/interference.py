"""Capacity and interference-power metrics of designs R_xl = X_l diag(d_l) X_l^H.

Every radar-side interference metric is the one weighted form
sum_l Tr(W_l G2 R_xl G2^H) = sum(W o Q^T), where Q (M_rR x L) holds the
diagonals of G2 R_xl G2^H (interference_diag_matrix) and only the
nonnegative diagonal weights W_l differ. A weight array is (L, M_rR), row l
the diagonal of W_l, and each family has one builder:

  TIP      W_l = I             tip_weights: total power at the radar RX antennas
  EIP_I    W_l = Delta_l       scheme_weights: entries sampled by a Scheme I radar
  EIP_II   W_l = Delta_l_xi    scheme_weights: random matched filter bank (Scheme II)
  IP_FMFB  W_l = a_l * I       scheme_weights at Omega = 1: full matched filter bank

weighted_eip forms the sum, scheme_mask_cost (the adjoint of scheme_weights)
the mask's own cost Q~ with EIP = sum(Omega o Q~), and
mismatched_weight_diagonals remaps weights onto the comm symbol grid when the
symbol rates differ. The capacity reads the comm link only through its
whitened channels B_l = R_wl^{-1/2} H (scenario.make_scenario forms them).
Independent oracles (the trace form of EIP_II, a Monte-Carlo estimate, the
dense formulas) are kept with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig, Scheme, SpecshareError


class MetricError(SpecshareError):
    pass


def total_power(X: np.ndarray, d: np.ndarray) -> float:
    """sum_l Tr(R_l) = sum_lk d_lk ||(X_l)_:k||^2 of R_l = X_l diag(d_l) X_l^H."""
    return float(np.einsum("lnk,lnk,lk->", X.conj(), X, d).real)


def check_covariances(X: np.ndarray, d: np.ndarray) -> None:
    """Raise MetricError unless the factors of R_l = X_l diag(d_l) X_l^H are
    finite with d_l >= 0, so that R_l is Hermitian PSD."""
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(d))):
        raise MetricError("covariance matrix is not finite")
    if not np.all(d >= 0.0):
        raise MetricError("covariance matrix is not PSD")


def average_capacity(whitened: np.ndarray, X: np.ndarray, d: np.ndarray) -> float:
    """(1/L) sum_l log2 |I + R_wl^{-1} H R_l H^H| in bits/symbol, as log2
    det(I + (B_l X_l) diag(d_l) (B_l X_l)^H) with B_l = R_wl^{-1/2} H whitened."""
    if len(whitened) != len(X):
        raise MetricError("design and channel lengths differ")
    if not (np.all(np.isfinite(whitened)) and np.all(np.isfinite(X)) and np.all(np.isfinite(d))):
        raise MetricError("capacity input is not finite")
    Y = whitened @ X
    gram = (Y * d[:, None, :]) @ np.swapaxes(Y, -1, -2).conj()
    sign, logdet = np.linalg.slogdet(gram + np.eye(gram.shape[-1]))
    if np.any(sign.real <= 0):
        raise MetricError("capacity determinant is not positive")
    return float(np.sum(logdet / math.log(2.0))) / len(X)


def interference_diag_matrix(G2: np.ndarray, X: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Q (M_rR x L), Q_il = sum_k d_lk |(G2 X_l)_ik|^2 the diagonals of G2 R_l G2^H,
    from one product of G2 with the (n, L k) layout of X."""
    L, n, k = X.shape
    Y = np.asarray(G2 @ X.transpose(1, 0, 2).reshape(n, L * k), dtype=complex)
    parts = Y.view(np.float64).reshape(-1, L, k, 2)
    return np.einsum("ilkc,ilkc,lk->il", parts, parts, d)


def weighted_eip(weights: np.ndarray, Q: np.ndarray) -> float:
    """Weighted interference power sum_l Tr(W_l G2 R_xl G2^H) = sum(W o Q^T),
    nonnegative for nonnegative weights and d (interference_diag_matrix)."""
    if weights.shape != Q.T.shape:
        raise MetricError("weights and interference profile shapes differ")
    return float(np.sum(weights * Q.T))


def tip_weights(n_rx: int, L: int) -> np.ndarray:
    """TIP weights W_l = I."""
    return np.ones((L, n_rx))


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
    multiples of one another. The harness runs one shared block; this backs
    acceptance criterion 12, the paper's mismatched-rate claim.
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
