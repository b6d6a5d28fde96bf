import numpy as np
import pytest

from projstruct.errors import DimensionMismatchError
from projstruct.linalg import COLUMN_DROP_RTOL, orthonormal_spans, span_rank, sq_norm
from projstruct.structures import KnotFamily, KnotSet


def ridge_sweep_projection(basis, y):
    """Independent oracle: P y = lim_{lam -> 0} B (B'B + lam I)^{-1} B' y,
    evaluated on a decreasing regularization sweep."""
    basis = np.asarray(basis, dtype=float)
    out = None
    for lam in (1e-4, 1e-6, 1e-8):
        gram = basis.T @ basis + lam * np.eye(basis.shape[1])
        out = basis @ np.linalg.solve(gram, basis.T @ y)
    return out


def svd_orthonormal_span(basis):
    """Oracle: the thin SVD of the one basis, keeping the left singular
    vectors whose singular value exceeds COLUMN_DROP_RTOL times the largest
    column norm (column-major, as boolean indexing leaves them)."""
    basis = np.asarray(basis, dtype=float)
    if basis.shape[1] == 0:
        return np.zeros((basis.shape[0], 0))
    u, sv, _ = np.linalg.svd(basis, full_matrices=False)
    return u[:, sv > COLUMN_DROP_RTOL * np.linalg.norm(basis, axis=0).max()]


def mgs_orthonormal_span(basis):
    """Oracle: the pivoted modified Gram-Schmidt that the span code used
    before the thin SVD, kept verbatim.  Modified Gram-Schmidt with column
    pivoting and one reorthogonalization pass; dependent columns are dropped
    at the COLUMN_DROP_RTOL threshold."""
    basis = np.asarray(basis, dtype=float)
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


def span_of(basis):
    """(rank, Q) of the one basis, from `orthonormal_spans` of a stack of
    one; Q has no columns when the rank is 0."""
    basis = np.asarray(basis, dtype=float)
    rank, groups = orthonormal_spans(basis[None])
    q = groups[0][1][0] if groups else np.zeros((basis.shape[0], 0))
    return int(rank[0]), q


def project(basis, y):
    """Projection of the single vector y onto the span of basis."""
    q = span_of(basis)[1]
    return (y[None] @ q @ q.T)[0]


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
        orthonormal_spans(np.ones((3, 1)))
    with pytest.raises(DimensionMismatchError):
        span_rank(np.ones(3))


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


def _differential_bases():
    """Bases for the SVD-versus-MGS comparison: random, with proportional
    or zero columns, knot hinge bases up to n=40, and a regression design
    with a duplicated column."""
    rng = np.random.default_rng(14)
    for _ in range(120):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(0, n + 1))
        basis = rng.standard_normal((n, k)) * rng.choice([1e-6, 1.0, 1e6])
        for j in range(1, k):
            draw = rng.random()
            if draw < 0.2:
                basis[:, j] = rng.standard_normal() * basis[:, int(rng.integers(0, j))]
            elif draw < 0.3:
                basis[:, j] = 0.0
        yield f"random-{n}x{k}", basis
    for n in (3, 4, 8, 16, 25, 40):
        fam = KnotFamily(n)
        interior = range(fam.first, fam.last + 1)
        yield f"knot-{n}-none", fam._bases([KnotSet(())])[0]
        yield f"knot-{n}-all", fam._bases([KnotSet(tuple(interior))])[0]
        for _ in range(10):
            knots = sorted(rng.choice(list(interior), size=int(rng.integers(1, len(interior) + 1)),
                                      replace=False))
            yield f"knot-{n}-{len(knots)}", fam._bases([KnotSet(tuple(int(k) for k in knots))])[0]
    design = rng.standard_normal((40, 20))
    design[:, 7] = design[:, 3]
    yield "regression-duplicate", design
    yield "regression-duplicate-pair", design[:, [3, 7]]


@pytest.mark.parametrize("basis", [pytest.param(basis, id=f"{i}-{name}")
                                   for i, (name, basis) in enumerate(_differential_bases())])
def test_svd_span_matches_mgs_oracle(basis):
    """The thin SVD keeps as many columns as the pivoted MGS it replaced, and
    both give the same projection Q Q^T y; `orthonormal_spans` of a stack
    of one has the bytes of the basis's own SVD."""
    rank, got = span_of(basis)
    want = mgs_orthonormal_span(basis)
    assert got.shape == want.shape
    assert span_rank(basis) == rank == got.shape[1]
    assert got.tobytes() == svd_orthonormal_span(basis).tobytes()
    rng = np.random.default_rng(got.shape[0])
    for y in (rng.standard_normal(got.shape[0]), basis.sum(axis=1)):
        diff = got @ (got.T @ y) - want @ (want.T @ y)
        assert np.max(np.abs(diff), initial=0.0) <= 1e-12 * (1.0 + np.linalg.norm(y))


def test_stacked_spans_have_the_bytes_of_each_basis_alone():
    """A stack of 14-column bases of every rank from 0 to 14, made by
    copying, zeroing and scaling columns, gives each basis the rank of
    `span_rank` and, in its rank's group, the bytes and column-major layout
    of that basis's own SVD."""
    rng = np.random.default_rng(3)
    bases = rng.standard_normal((45, 20, 14)) * rng.choice([1e-6, 1.0, 1e6], (45, 1, 1))
    for g, basis in enumerate(bases):
        for j in rng.choice(14, g % 15, replace=False):
            basis[:, j] = (0.0 if rng.random() < 0.3 else rng.standard_normal()) * basis[:, 0]
    rank, groups = orthonormal_spans(bases)
    assert rank.tolist() == [span_rank(b) for b in bases]
    assert sorted(k for at, _ in groups for k in at) == np.flatnonzero(rank).tolist()
    assert len(groups) == len(set(rank.tolist()) - {0}) > 5
    for at, q in groups:
        for g, qg in zip(at, q):
            want = svd_orthonormal_span(bases[g])
            assert qg.shape == want.shape and qg.flags.f_contiguous, g
            assert qg.tobytes() == want.tobytes(), g
