import numpy as np
import pytest

from projstruct.errors import DimensionMismatchError
from projstruct.linalg import project_rows_onto_span, sq_norm


def ridge_sweep_projection(basis, y):
    """Independent oracle: P y = lim_{lam -> 0} B (B'B + lam I)^{-1} B' y,
    evaluated on a decreasing regularization sweep."""
    basis = np.asarray(basis, dtype=float)
    out = None
    for lam in (1e-4, 1e-6, 1e-8):
        gram = basis.T @ basis + lam * np.eye(basis.shape[1])
        out = basis @ np.linalg.solve(gram, basis.T @ y)
    return out


def project(basis, y):
    """Projection of the single vector y, as a one-row batch."""
    return project_rows_onto_span(basis, y[None])[0]


def test_coordinate_projection():
    basis = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    y = np.array([3.0, -1.0, 2.0])
    assert np.allclose(project(basis, y), [3.0, 0.0, 2.0])


def test_mean_projection_single_column():
    basis = np.array([[1.0], [1.0]])
    assert np.allclose(project(basis, np.array([0.0, 2.0])), [1.0, 1.0])


def test_rank_deficient_matches_ridge_sweep():
    basis = np.array([[1.0, 2.0], [0.0, 0.0]])
    y = np.array([5.0, 7.0])
    got = project(basis, y)
    assert np.allclose(got, [5.0, 0.0], atol=1e-10)
    assert np.allclose(got, ridge_sweep_projection(basis, y), atol=1e-6)


def test_sq_norm_values():
    assert sq_norm(np.array([3.0, 4.0])) == 25.0
    assert sq_norm(np.zeros(5)) == 0.0
    with pytest.raises(DimensionMismatchError):
        sq_norm(np.array([]))


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatchError):
        project_rows_onto_span(np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(DimensionMismatchError):
        project_rows_onto_span(np.ones((2, 3)), np.ones((1, 2)))


def test_projection_algebra_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(0, n + 1))
        basis = rng.standard_normal((n, k))
        if k >= 2 and rng.random() < 0.4:  # inject a dependent column
            basis[:, -1] = basis[:, 0] * rng.standard_normal()
        y = rng.standard_normal(n)
        py = project(basis, y)
        ppy = project(basis, py)
        assert np.max(np.abs(ppy - py)) <= 1e-9 * (1.0 + np.linalg.norm(y))
        # Pythagoras
        lhs = sq_norm(y)
        rhs = sq_norm(py) + sq_norm(y - py)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + lhs)
        # residual orthogonal to every column
        resid = y - py
        for j in range(k):
            col = basis[:, j]
            bound = 1e-8 * np.linalg.norm(col) * np.linalg.norm(y) + 1e-12
            assert abs(np.dot(col, resid)) <= bound
