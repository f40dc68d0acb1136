"""Small Hermitian-matrix helpers shared across the solvers."""

import numpy as np

# Relative eigenvalue floor for the inverse of a PSD matrix (covdesign's
# Phi_l); keeps near-singular matrices from producing NaNs.
EIG_FLOOR = 1e-14


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix, or of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian with unit entry variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix, or of each matrix in a
    stack (eigenvalues clipped at 0)."""
    w, v = np.linalg.eigh(hermitize(a))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def eig_floor(w: np.ndarray) -> np.ndarray:
    """Clip ascending eigenvalues (last axis) at EIG_FLOOR times the largest.

    Raises LinAlgError unless every largest eigenvalue is positive.
    """
    top = w[..., -1:]
    if np.any(top <= 0.0):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    floor = EIG_FLOOR * top
    return np.maximum(w, np.where(floor > 0, floor, EIG_FLOOR))


def gram_spectrum(X: np.ndarray):
    """Singular values of X, or of each matrix in a stack, descending, from
    the Hermitian eigendecomposition of the narrow-side Gram matrix.

    Returns (sigma, A, V): A is X or X^H, whichever has no more columns than
    rows, and the columns of V are the eigenvectors of A^H A in the same
    order, i.e. the right singular vectors of A. The eigenvalues carry an
    absolute error of about eps*sigma1^2, so sigma_i is exact to about
    eps*sigma1^2/sigma_i.
    """
    A = np.swapaxes(X.conj(), -1, -2) if X.shape[-2] < X.shape[-1] else X
    w, V = np.linalg.eigh(np.swapaxes(A.conj(), -1, -2) @ A)
    return np.sqrt(np.maximum(w[..., ::-1], 0.0)), A, V[..., ::-1]
