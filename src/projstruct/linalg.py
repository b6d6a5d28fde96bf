"""Dense vector primitives and orthonormal bases of column spans.

Everything operates on plain float64 numpy arrays.  Matrices representing
parameters (covariance, bicluster means) are handled in vectorized row-major
form by the callers; here a matrix argument is always a basis whose columns
span the target subspace.  A span is read off one thin SVD of its basis: the
left singular vectors whose singular value exceeds COLUMN_DROP_RTOL times the
largest column norm are an orthonormal basis of it, and their count is its
dimension.  A stack of bases with the same column count, full rank or not,
is orthonormalized by one batched SVD (`orthonormal_spans`); `span_rank` is
the same rule for one basis, without the vectors.  Of the two projection
shapes in `structures`, only the column spans (`_SpanFamily`: knot,
regression) come here: they project onto the stack, and `noise.check_a1`
takes their A1 norms from it.  The block means of every other family need
no basis.
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


def span_rank(basis: np.ndarray) -> int:
    """Dimension of the column span of ``basis``: the count of its singular
    values above COLUMN_DROP_RTOL times its largest column norm, the rule of
    `orthonormal_spans`."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise DimensionMismatchError(f"basis must be 2-d, got shape {basis.shape}")
    drop_tol = COLUMN_DROP_RTOL * float(np.linalg.norm(basis, axis=0).max(initial=0.0))
    if drop_tol == 0.0:
        return 0
    return int(np.count_nonzero(np.linalg.svd(basis, compute_uv=False) > drop_tol))


def orthonormal_spans(bases: np.ndarray) -> tuple[np.ndarray, list]:
    """Orthonormal bases of the column spans of the (G, n, r) stack
    ``bases``, from one batched SVD.

    Returns (rank, groups).  rank[g] is the dimension of span g, the count
    of its singular values above the drop tolerance, as `span_rank` counts
    them.  groups holds (positions, q) for each nonzero rank k: q stacks the
    first k left singular vectors of the bases at those positions, each in
    column-major order (the layout decides which BLAS kernel forms Q^T y,
    and so its bytes).  The SVD is backward stable (Golub & Van Loan,
    Matrix Computations, 5.4) and shows the rank directly; callers use only
    Q Q^T, which does not depend on the choice of Q.
    """
    if bases.ndim != 3:
        raise DimensionMismatchError(f"bases must be a (G, n, r) stack, got shape {bases.shape}")
    drop_tol = COLUMN_DROP_RTOL * np.linalg.norm(bases, axis=1).max(axis=1, initial=0.0)
    u, sv, _ = np.linalg.svd(bases, full_matrices=False)
    rank = np.count_nonzero(sv > drop_tol[:, None], axis=1)
    groups = []
    for k in np.unique(rank[rank > 0]).tolist():
        at = np.flatnonzero(rank == k)
        q = np.ascontiguousarray(u[at, :, :k].transpose(0, 2, 1)).transpose(0, 2, 1)
        groups.append((at, q))
    return rank, groups
