"""Dense vector primitives and orthogonal projection onto column spans.

Everything operates on plain float64 numpy arrays.  Matrices representing
parameters (covariance, bicluster means) are handled in vectorized row-major
form by the callers; here a matrix argument is always a basis whose columns
span the target subspace.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

# Columns whose residual norm falls below this fraction of the largest
# original column norm are treated as dependent and dropped.
COLUMN_DROP_RTOL = 1e-10


def as_vector(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise DimensionMismatchError(f"expected a 1-d vector of length >= 1, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("vector entries must be finite")
    return y


def sq_norm(y) -> float:
    """Squared Euclidean norm of a vector."""
    y = as_vector(y)
    return float(np.dot(y, y))


def orthonormal_span(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of the column span of ``basis``.

    Modified Gram-Schmidt with column pivoting and one reorthogonalization
    pass; rank-deficient inputs are fine, dependent columns are dropped at
    the COLUMN_DROP_RTOL threshold.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise DimensionMismatchError(f"basis must be 2-d, got shape {basis.shape}")
    n, k = basis.shape
    if k == 0:
        return np.zeros((n, 0))
    col_norms = np.linalg.norm(basis, axis=0)
    largest = float(col_norms.max(initial=0.0))
    if largest == 0.0:
        return np.zeros((n, 0))
    drop_tol = COLUMN_DROP_RTOL * largest

    work = basis.copy()
    cols: list[np.ndarray] = []
    remaining = list(range(k))
    while remaining:
        norms = np.linalg.norm(work[:, remaining], axis=0)
        j_local = int(np.argmax(norms))
        if norms[j_local] <= drop_tol:
            break
        j = remaining.pop(j_local)
        q = work[:, j].copy()
        for prev in cols:  # second orthogonalization pass for accuracy
            q -= prev * np.dot(prev, q)
        nq = np.linalg.norm(q)
        if nq <= drop_tol:
            continue
        q /= nq
        cols.append(q)
        if remaining:
            rem = np.asarray(remaining)
            work[:, rem] -= np.outer(q, q @ work[:, rem])
    if not cols:
        return np.zeros((n, 0))
    return np.column_stack(cols)


def project_rows_onto_span(basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Orthogonal projection of every row of ``rows`` onto the column span
    of ``basis``.

    Each residual is orthogonal to every column; redundant (proportional)
    columns are handled by the pivoted factorization.
    """
    basis = np.asarray(basis, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if basis.ndim != 2 or rows.ndim != 2 or basis.shape[0] != rows.shape[1]:
        raise DimensionMismatchError(
            f"basis shape {basis.shape} incompatible with rows of shape {rows.shape}"
        )
    if basis.shape[1] > basis.shape[0]:
        raise DimensionMismatchError("basis must have at most as many columns as it has rows")
    q = orthonormal_span(basis)
    if q.shape[1] == 0:
        return np.zeros_like(rows)
    return (rows @ q) @ q.T
