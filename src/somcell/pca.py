"""The principal plane of a set of rows, from the top eigenpairs of small
dense symmetric PSD matrices.

One ``np.linalg.eigh`` call (LAPACK's symmetric eigensolver) gives every
eigenpair; the largest two are kept in descending order. Eigenvector
signs are arbitrary, so row ``i`` is oriented to have a positive dot
product with the fixed, slightly asymmetric reference
``1 + (i + 1) * 1e-3 * arange(n)``, which is never orthogonal to a
coordinate-symmetric eigenvector. The SOM initialisation lays the map out
along these rows and the projection draws on them, signs included, so the
rule keeps the layout deterministic and an untrained map projects in its
layout's order.
"""

from __future__ import annotations

import numpy as np


def top_eigenpairs(sym):
    """Largest two eigenpairs of a symmetric PSD matrix, descending.

    Returns ``(values, vectors)`` with ``values`` shaped ``(2,)`` and
    ``vectors`` row-wise ``(2, n)``, orthonormal. Eigenvalues are clamped
    to be non-negative, which is exact for PSD input and only trims float
    noise.
    """
    work = np.asarray(sym, dtype=np.float64)
    n = work.shape[0]
    if work.shape != (n, n):
        raise ValueError("matrix must be square")
    values, vectors = np.linalg.eigh(work)
    values = np.maximum(values[::-1][:2], 0.0)
    vectors = np.ascontiguousarray(vectors.T[::-1][:2])
    reference = 1.0 + np.outer([1e-3, 2e-3], np.arange(n))
    vectors[np.einsum("ij,ij->i", vectors, reference) < 0] *= -1.0
    return values, vectors


def principal_plane(rows: np.ndarray):
    """Mean, centred rows and the top two eigenpairs of their sample covariance.

    Returns ``(mean, centered, values, vectors)``, the eigenpairs as
    ``top_eigenpairs`` gives them. Rows with fewer than two columns, or all
    identical (a single row included), span no plane; ``values`` and
    ``vectors`` are then None.
    """
    mean = rows.mean(axis=0)
    centered = rows - mean
    if rows.shape[1] < 2 or (rows == rows[0]).all():
        return mean, centered, None, None
    values, vectors = top_eigenpairs(centered.T @ centered / (rows.shape[0] - 1))
    return mean, centered, values, vectors
