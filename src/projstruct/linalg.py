"""Dense vector primitives and orthogonal projection onto column spans.

Everything operates on plain float64 numpy arrays.  Matrices representing
parameters (covariance, bicluster means) are handled in vectorized row-major
form by the callers; here a matrix argument is always a basis whose columns
span the target subspace.  A span is read off one thin SVD of its basis: the
left singular vectors whose singular value exceeds COLUMN_DROP_RTOL times the
largest column norm are an orthonormal basis of it, and their count is its
dimension (`span_rank`, the same rule without the vectors).  A stack of
bases with the same column count is orthonormalized by one batched SVD
(`orthonormal_spans`), with the bytes of one `orthonormal_span` per basis.
Of the two projection shapes in `structures`, only the column spans
(`_SpanFamily`: knot, regression) come here: they project onto the stack,
and `noise.check_a1` takes their A1 norms from it.  The block means of
every other family need no basis.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

# Directions whose singular value falls below this fraction of the largest
# original column norm are treated as dependent and dropped.
COLUMN_DROP_RTOL = 1e-10


def as_vector(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise DimensionMismatchError(f"expected a 1-d vector of length >= 1, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("vector entries must be finite")
    return y


def finite_energy(y) -> bool:
    """Whether the sum of squares of the entries of y is finite; overflow
    and NaN give False, without a warning."""
    y = np.asarray(y, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.dot(y, y)))


def sq_norm(y) -> float:
    """Squared Euclidean norm of a vector."""
    y = as_vector(y)
    return float(np.dot(y, y))


def _basis_and_drop_tol(basis) -> tuple[np.ndarray, float]:
    """``basis`` as a 2-d float array, and COLUMN_DROP_RTOL times its largest
    column norm (0.0 when it has no columns or only zero ones)."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise DimensionMismatchError(f"basis must be 2-d, got shape {basis.shape}")
    largest = float(np.linalg.norm(basis, axis=0).max(initial=0.0))
    return basis, COLUMN_DROP_RTOL * largest


def orthonormal_span(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of the column span of ``basis``.

    Q is the thin SVD's left singular vectors with singular value above
    COLUMN_DROP_RTOL times the largest column norm, so rank-deficient inputs
    are fine.  The SVD is backward stable (Golub & Van Loan, Matrix
    Computations, 5.4) and shows the rank directly.  Callers use only
    Q Q^T, which does not depend on the choice of Q.
    """
    basis, drop_tol = _basis_and_drop_tol(basis)
    if drop_tol == 0.0:
        return np.zeros((basis.shape[0], 0))
    u, sv, _ = np.linalg.svd(basis, full_matrices=False)
    return u[:, sv > drop_tol]


def span_rank(basis: np.ndarray) -> int:
    """Dimension of the column span of ``basis``: the number of columns
    ``orthonormal_span`` keeps, by the same drop rule."""
    basis, drop_tol = _basis_and_drop_tol(basis)
    if drop_tol == 0.0:
        return 0
    return int(np.count_nonzero(np.linalg.svd(basis, compute_uv=False) > drop_tol))


def project_rows_onto_span(basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Orthogonal projection of every row of ``rows`` onto the column span
    of ``basis``.

    Each residual is orthogonal to every column; redundant (proportional)
    columns add no direction to the span.
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


def orthonormal_spans(bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`orthonormal_span` of every basis in the (G, n, r) stack ``bases``
    that keeps all r columns, from one batched SVD.

    Returns (q, full): full[g] says whether every singular value of basis g
    exceeds its drop tolerance, and q stacks the orthonormal bases of those
    full[g] ones, each in column-major order as `orthonormal_span` returns it
    (the layout decides which BLAS kernel forms Q^T y, and so its bytes).
    """
    if bases.ndim != 3:
        raise DimensionMismatchError(f"bases must be a (G, n, r) stack, got shape {bases.shape}")
    drop_tol = COLUMN_DROP_RTOL * np.linalg.norm(bases, axis=1).max(axis=1, initial=0.0)
    u, sv, _ = np.linalg.svd(bases, full_matrices=False)
    full = (sv > drop_tol[:, None]).all(axis=1)
    q = np.ascontiguousarray(u[full].transpose(0, 2, 1)).transpose(0, 2, 1)
    return q, full

