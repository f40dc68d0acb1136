"""Small Hermitian-matrix helpers shared across the solvers."""

import numpy as np

# Relative eigenvalue floor for matrix inverse square roots; keeps
# near-singular matrices from producing NaNs.
EIG_FLOOR = 1e-14


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix, or of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian with unit entry variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix (eigenvalues clipped at 0)."""
    w, v = np.linalg.eigh(hermitize(a))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def eig_floor(w: np.ndarray) -> np.ndarray:
    """Clip ascending eigenvalues (last axis) at EIG_FLOOR times the largest.

    Raises LinAlgError unless every largest eigenvalue is positive.
    """
    top = w[..., -1:]
    if np.any(top <= 0.0):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    floor = EIG_FLOOR * top
    return np.maximum(w, np.where(floor > 0, floor, EIG_FLOOR))


def psd_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian PD matrix, or of each matrix in a
    stack, with a relative eigenvalue floor."""
    w, v = np.linalg.eigh(hermitize(a))
    w = eig_floor(w)
    return (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def min_eig(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(a))[0])
