"""The principal plane of a set of rows, from the top eigenpairs of small
dense symmetric PSD matrices.

One ``np.linalg.eigh`` call (LAPACK's symmetric eigensolver) gives every
eigenpair; the largest ``count`` are kept in descending order. Eigenvector
signs are arbitrary, so row ``i`` is oriented to have a positive dot
product with the fixed, slightly asymmetric reference
``1 + (i + 1) * 1e-3 * arange(n)``, which is never orthogonal to a
coordinate-symmetric eigenvector. The SOM initialisation lays the map out
along these rows, so the rule keeps its layout deterministic.
"""

from __future__ import annotations

import numpy as np


def top_eigenpairs(sym, count: int = 2):
    """Largest ``count`` eigenpairs of a symmetric PSD matrix, descending.

    Returns ``(values, vectors)`` with ``values`` shaped ``(count,)`` and
    ``vectors`` row-wise ``(count, n)``, orthonormal. Eigenvalues are clamped
    to be non-negative, which is exact for PSD input and only trims float
    noise.
    """
    work = np.asarray(sym, dtype=np.float64)
    n = work.shape[0]
    if work.shape != (n, n):
        raise ValueError("matrix must be square")
    if not 1 <= count <= n:
        raise ValueError("count must be between 1 and the matrix size")
    values, vectors = np.linalg.eigh(work)
    values = np.maximum(values[::-1][:count], 0.0)
    vectors = np.ascontiguousarray(vectors.T[::-1][:count])
    reference = 1.0 + np.outer(np.arange(1, count + 1) * 1e-3, np.arange(n))
    vectors[np.einsum("ij,ij->i", vectors, reference) < 0] *= -1.0
    return values, vectors


def principal_plane(rows: np.ndarray):
    """Mean, centred rows and the top two eigenpairs of their sample covariance.

    Returns ``(mean, centered, values, vectors)``, the eigenpairs as
    ``top_eigenpairs`` gives them. Fewer than two rows or two columns span
    no plane; ``values`` and ``vectors`` are then None.
    """
    mean = rows.mean(axis=0)
    centered = rows - mean
    n_samples, dim = rows.shape
    if n_samples < 2 or dim < 2:
        return mean, centered, None, None
    values, vectors = top_eigenpairs(centered.T @ centered / (n_samples - 1), count=2)
    return mean, centered, values, vectors
