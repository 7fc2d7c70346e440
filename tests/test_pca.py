"""Dominant eigenpair extraction against independent references."""
import numpy as np
import pytest

from somcell import pca
from somcell.pca import principal_plane, top_eigenpairs


def random_psd(rng, n):
    x = rng.normal(size=(n + 3, n))
    return x.T @ x / len(x)


def test_matches_library_eigendecomposition():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        s = random_psd(rng, n)
        values, vectors = top_eigenpairs(s)
        ref = np.linalg.eigvalsh(s)[::-1]
        assert values[0] == pytest.approx(ref[0], abs=1e-8)
        assert values[1] == pytest.approx(ref[1], abs=1e-8)
        for lam, v in zip(values, vectors):
            assert np.linalg.norm(s @ v - lam * v) < 1e-7
            assert np.linalg.norm(v) == pytest.approx(1.0)


def test_eigenvalues_descend_and_vectors_are_orthogonal():
    rng = np.random.default_rng(12)
    s = random_psd(rng, 6)
    values, vectors = top_eigenpairs(s)
    assert values.shape == (2,) and vectors.shape == (2, 6)
    assert values[0] >= values[1] >= 0
    gram = vectors @ vectors.T
    assert np.allclose(gram, np.eye(2), atol=1e-8)


def test_known_two_by_two():
    s = np.array([[2.0, 0.0], [0.0, 1.0]])
    values, vectors = top_eigenpairs(s)
    assert values == pytest.approx([2.0, 1.0])
    assert abs(vectors[0] @ [1.0, 0.0]) == pytest.approx(1.0)
    assert abs(vectors[1] @ [0.0, 1.0]) == pytest.approx(1.0)


def test_zero_matrix_yields_zero_eigenvalues():
    values, vectors = top_eigenpairs(np.zeros((3, 3)))
    assert values == pytest.approx([0.0, 0.0])
    for v in vectors:
        assert np.linalg.norm(v) == pytest.approx(1.0)


def test_rank_one_matrix():
    u = np.array([3.0, 4.0]) / 5.0
    s = np.outer(u, u) * 7.0
    values, vectors = top_eigenpairs(s)
    assert values[0] == pytest.approx(7.0)
    assert values[1] == pytest.approx(0.0, abs=1e-9)
    assert abs(vectors[0] @ u) == pytest.approx(1.0)


def test_input_validation():
    with pytest.raises(ValueError):
        top_eigenpairs(np.zeros((2, 3)))


@pytest.mark.parametrize("rows", [[[1, 0, 1]], [[1, 0, 1]] * 3, [[1], [1], [1]], [[0], [1], [1]]])
def test_principal_plane_is_none_without_a_plane(rows, monkeypatch):
    # one row, identical rows and a single column span no plane, and the
    # eigensolver is not called for them
    monkeypatch.setattr(pca, "top_eigenpairs", None)
    rows = np.array(rows, dtype=np.uint8)
    mean, centered, values, vectors = principal_plane(rows)
    assert values is None and vectors is None
    assert np.array_equal(mean, rows.mean(axis=0)) and np.array_equal(centered, rows - mean)
