import collections
import dataclasses
import functools
import itertools
import json
import logging
import math
import pathlib

import numpy as np
import pytest

from projstruct import selection, structures
from projstruct.errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidStructureError,
    UnsupportedFamilyError,
)
from projstruct.experiments import build_family
from projstruct.linalg import COLUMN_DROP_RTOL
from projstruct.structures import (
    Band,
    BandingFamily,
    Bicluster,
    BiclusterFamily,
    Caps,
    ClusteringFamily,
    JumpFamily,
    JumpSet,
    KnotFamily,
    KnotSet,
    LeveledSparse,
    LeveledSparsityFamily,
    MultiLevelPartition,
    RegressionFamily,
    RegressionSupport,
    SmoothnessFamily,
    SparseSet,
    SparsityFamily,
    Truncation,
    canonical_partition,
    is_sorted_unique,
)
from conftest import ENUM_CAPS, enumerate_small, small_families

DATA_DIR = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# projection examples
# ---------------------------------------------------------------------------


def test_sparsity_projection_zeroes_complement():
    fam = SparsityFamily(3)
    got = fam.project(SparseSet((0, 2)), np.array([3.0, -1.0, 2.0]))
    assert np.array_equal(got, [3.0, 0.0, 2.0])


def test_clustering_projection_group_averages():
    fam = ClusteringFamily(4)
    s = MultiLevelPartition((), ((0, 1), (2, 3)))
    got = fam.project(s, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(got, [1.5, 1.5, 3.5, 3.5])


def test_bicluster_single_block_is_global_mean():
    fam = BiclusterFamily(2, 2)
    s = Bicluster(((0, 1),), ((0, 1),))
    got = fam.project(s, np.array([1.0, 3.0, 5.0, 7.0]))
    assert np.array_equal(got, [4.0, 4.0, 4.0, 4.0])


def _ix_project(fam, s, theta):
    """The bicluster projection in np.ix_ form, kept as an oracle."""
    mat = theta.reshape(fam.n1, fam.n2)
    out = np.empty_like(mat)
    for rb in s.rows:
        for cb in s.cols:
            out[np.ix_(rb, cb)] = mat[np.ix_(rb, cb)].mean()
    return out.reshape(-1)


def _random_partitions(rng, n):
    """Whole axis, all singletons, and random labelings of [0, n) with
    a random number of labels, as canonical partitions."""
    parts = [(tuple(range(n)),), tuple((i,) for i in range(n))]
    for _ in range(4):
        labels = rng.integers(0, rng.integers(1, n + 1), n)
        parts.append(canonical_partition(
            [[i for i in range(n) if labels[i] == b] for b in range(n)]))
    return parts


@pytest.mark.parametrize("n1,n2", [(3, 3), (4, 6), (5, 5), (7, 3), (8, 8)])
def test_bicluster_kernels_have_the_bytes_of_the_ix_forms(n1, n2):
    """The block-mean row kernel projects a bicluster with the bytes of its
    np.ix_ form, on singleton, whole-axis and random blocks; so does every
    row of the stack of all of them."""
    fam = BiclusterFamily(n1, n2)
    rng = np.random.default_rng(n1 * 10 + n2)
    structs = [Bicluster(rows, cols) for rows in _random_partitions(rng, n1)
               for cols in _random_partitions(rng, n2)]
    for s in structs:
        fam.validate(s)
        theta = rng.standard_normal(n1 * n2) * 10.0 ** rng.integers(-3, 4, n1 * n2)
        assert fam.project(s, theta).tobytes() == _ix_project(fam, s, theta).tobytes()
    theta = rng.standard_normal(n1 * n2) * 10.0 ** rng.integers(-3, 4, n1 * n2)
    for s, row in zip(structs, fam._project_stack(structs, theta)):
        assert row.tobytes() == _ix_project(fam, s, theta).tobytes(), s


def test_band_projection_symmetrizes_then_zeroes():
    fam = BandingFamily(3)
    y = np.arange(9.0)
    got = fam.project(Band(0), y).reshape(3, 3)
    assert np.array_equal(np.diag(got), [0.0, 4.0, 8.0])
    assert np.count_nonzero(got - np.diag(np.diag(got))) == 0
    full = fam.project(Band(2), y).reshape(3, 3)
    assert np.array_equal(full, 0.5 * (y.reshape(3, 3) + y.reshape(3, 3).T))


def test_truncation_projection():
    fam = SmoothnessFamily(4)
    got = fam.project(Truncation(2), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(got, [1.0, 2.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# dimension examples
# ---------------------------------------------------------------------------


def test_dim_formulas():
    assert SmoothnessFamily(8).dim(Truncation(5)) == 5
    assert BandingFamily(4).dim(Band(0)) == 4
    assert BandingFamily(4).dim(Band(3)) == 10  # full symmetric space
    assert JumpFamily(10).dim(JumpSet((2, 6))) == 3
    assert SparsityFamily(6).dim(SparseSet((1, 4))) == 2
    assert ClusteringFamily(5).dim(MultiLevelPartition((0,), ((1, 2), (3, 4)))) == 3
    assert BiclusterFamily(3, 3).dim(Bicluster(((0, 1), (2,)), ((0,), (1, 2)))) == 4


def test_regression_dim_is_rank_of_selected_columns():
    rng = np.random.default_rng(5)
    design = rng.standard_normal((30, 20))
    design[:, 1] = 2.0 * design[:, 0]  # proportional pair
    fam = RegressionFamily(design)
    assert fam.in_small_family(2)
    assert fam.dim(RegressionSupport((0, 1))) == 1
    assert fam.dim(RegressionSupport((0, 2))) == 2
    assert fam.dim(fam.full_rank_structure) == fam.rank == 19


def test_regression_rank_follows_the_projection_drop_rule():
    """A column within 1e-12 of another adds no direction to the projection,
    so it adds none to dim, rank or I_r either."""
    rng = np.random.default_rng(5)
    design = rng.standard_normal((40, 20))
    design[:, 1] = design[:, 0] + 1e-12 * rng.standard_normal(40)
    fam = RegressionFamily(design)
    pair = RegressionSupport((0, 1))
    for s in (pair, fam.full_rank_structure):
        assert [fam.dim(s)] == fam._span_groups([s])[1]
    assert fam.dim(pair) == 1
    assert fam.rank == fam.dim(fam.full_rank_structure) == 19
    assert 1 not in fam.full_rank_structure.indices


def test_banding_dim_matches_closed_form():
    p = 5
    fam = BandingFamily(p)
    for w in range(p):
        assert fam.dim(Band(w)) == p + w * p - w * (w + 1) // 2


# ---------------------------------------------------------------------------
# majorant examples
# ---------------------------------------------------------------------------


def test_majorant_values():
    sp = SparsityFamily(10)
    assert sp.majorant(SparseSet(())) == 0.0  # 0 log(a/0) = 0 convention
    assert sp.majorant(SparseSet(tuple(range(10)))) == pytest.approx(20.0)
    full = Bicluster(tuple((i,) for i in range(4)), tuple((i,) for i in range(4)))
    assert BiclusterFamily(4, 4).majorant(full) == 16.0
    assert JumpFamily(8).majorant(JumpSet(())) == 1.0
    assert KnotFamily(8).majorant(KnotSet(())) == 2.0  # floored at dim


def test_majorant_variant_rho_prime():
    fam = SparsityFamily(10, majorant_variant="rho_prime")
    s = SparseSet((0, 1, 2))
    assert fam.majorant(s) == pytest.approx(max(3.0, math.log(math.comb(10, 3))))


def test_bicluster_majorant_elbow_branches():
    fam = BiclusterFamily(4, 5)
    def make(s1, s2):
        rows = tuple(tuple(range(i, 4, s1)) for i in range(s1))
        cols = tuple(tuple(range(i, 5, s2)) for i in range(s2))
        from projstruct.structures import canonical_partition
        return Bicluster(canonical_partition(rows), canonical_partition(cols))
    assert fam.majorant(make(2, 2)) == pytest.approx(4 + 4 * math.log(2) + 5 * math.log(2))
    assert fam.majorant(make(2, 5)) == pytest.approx(2 * 5 + 4 * math.log(2))
    assert fam.majorant(make(4, 2)) == pytest.approx(4 * 2 + 5 * math.log(2))
    assert fam.majorant(make(4, 5)) == 20.0
    for s1, s2 in itertools.product(range(1, 5), range(1, 6)):
        assert fam.counts_majorant(s1, s2) == fam.majorant(make(s1, s2))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts():
    assert len(list(SparsityFamily(3).enumerate_structures())) == 8
    assert len(list(SmoothnessFamily(4).enumerate_structures())) == 5


def test_bicluster_two_by_two_enumeration_distinct_subspaces():
    fam = BiclusterFamily(2, 2)
    structs = list(fam.enumerate_structures(Caps(max_blocks=2)))
    assert len(structs) == 4
    # brute-force dedup check: projection matrices (action on the standard
    # basis) must be pairwise distinct
    eye = np.eye(4)
    mats = [np.column_stack([fam.project(s, e) for e in eye]) for s in structs]
    for a, b in itertools.combinations(range(4), 2):
        assert not np.allclose(mats[a], mats[b])


def test_enumeration_is_duplicate_free_and_canonical():
    for name, fam in small_families().items():
        structs = enumerate_small(fam)
        assert len(structs) == len(set(structs)), name
        keys = [fam.sort_key(s) for s in structs]
        assert keys == sorted(keys), f"{name} enumeration out of canonical order"


@pytest.mark.parametrize("max_size", [None, 0, 3])
def test_size_classes_cover_the_enumeration(max_size):
    """Expanded by their counts, the size classes hold the multiset of
    (majorant, dim) pairs of the enumeration, and every representative is
    an enumerated structure."""
    for name, fam in small_families().items():
        caps = Caps(max_size=max_size,
                    max_blocks=getattr(ENUM_CAPS.get(name), "max_blocks", None))
        structs = list(fam.enumerate_structures(caps))
        classes = list(fam.size_classes(caps))
        assert {rep for _, rep in classes} <= set(structs), name
        expanded = collections.Counter()
        for count, rep in classes:
            expanded[(fam.majorant(rep), fam.dim(rep))] += count
        assert expanded == collections.Counter(
            (fam.majorant(s), fam.dim(s)) for s in structs), name


def test_size_classes_fit_a_cap_the_enumeration_fits():
    for fam, caps in ((SparsityFamily(14), Caps(max_count=2**14)),
                      (LeveledSparsityFamily(4), Caps(max_count=2**15))):
        assert sum(count for count, _ in fam.size_classes(caps)) == caps.max_count


@pytest.mark.parametrize("fam", [SparsityFamily(n) for n in (1, 2, 7, 40, 600)]
                         + [JumpFamily(30), KnotFamily(25)],
                         ids=lambda fam: f"{fam.tag}-{fam.n}")
def test_class_counts_are_binomial_coefficients(fam):
    count = fam.last - fam.first + 1
    for max_size in (None, 0, 1, 5, count - 1, count, count + 3):
        top = count if max_size is None else min(max_size, count)
        assert fam._class_counts(Caps(max_size=max_size)) == [
            math.comb(count, k) for k in range(top + 1)], max_size


def test_cap_exceeded_reports_projected_count():
    fam = SparsityFamily(20)
    with pytest.raises(CapExceededError) as err:
        list(fam.enumerate_structures(Caps(max_count=100)))
    assert err.value.projected_count == 2**20


def _projected_count(fam, max_blocks):
    # every count, 0 included, exceeds max_count=-1, so the projection is reported
    with pytest.raises(CapExceededError) as err:
        fam.enumerate_structures(Caps(max_count=-1, max_blocks=max_blocks))
    return err.value.projected_count


@pytest.mark.parametrize("fam", [ClusteringFamily(n) for n in range(1, 9)]
                         + [BiclusterFamily(n1, n2) for n1, n2 in ((1, 3), (2, 2), (3, 4), (4, 4))],
                         ids=lambda fam: f"{fam.tag}-{fam.ambient_dim}")
def test_projected_count_matches_enumeration(fam):
    for max_blocks in (None, -1, 0, 1, 2, 3):
        listed = list(fam.enumerate_structures(Caps(max_count=10**6, max_blocks=max_blocks)))
        assert _projected_count(fam, max_blocks) == len(listed), max_blocks


def test_capped_bicluster_reports_projected_count(monkeypatch):
    """Bell(8) = 4140 partitions per axis; the cap fires before any is
    built, so the same error comes out when building them would raise."""

    def unbuilt(n, max_blocks):
        raise AssertionError("the partitions were built before the cap check")

    monkeypatch.setattr(BiclusterFamily, "axis_partitions", staticmethod(unbuilt))
    assert _projected_count(BiclusterFamily(8, 8), None) == 4140**2
    assert _projected_count(BiclusterFamily(8, 8), 2) == (1 + 127)**2
    with pytest.raises(CapExceededError, match="max_count=200000") as err:
        BiclusterFamily(12, 12).enumerate_structures(Caps())
    assert err.value.projected_count == 4_213_597**2


def test_axis_partition_count_matches_the_partitions():
    for n in range(8):
        for max_blocks in range(-1, n + 2):
            assert (BiclusterFamily.axis_partition_count(n, max_blocks)
                    == len(list(BiclusterFamily.axis_partitions(n, max_blocks)))), (n, max_blocks)


def test_cap_error_on_counts_past_the_float_range():
    # 2^1099 jump structures: the count must be reported without float overflow
    with pytest.raises(CapExceededError, match="max_count=200000") as err:
        list(JumpFamily(1100).enumerate_structures(Caps()))
    assert err.value.projected_count == 2**1099


# ---------------------------------------------------------------------------
# union witness
# ---------------------------------------------------------------------------


def test_union_examples():
    sm = SmoothnessFamily(8)
    assert sm.union_structure(Truncation(3), Truncation(5)) == Truncation(5)
    sp = SparsityFamily(5)
    assert sp.union_structure(SparseSet((0,)), SparseSet((1, 2))) == SparseSet((0, 1, 2))


def test_regression_union_falls_back_to_full_rank():
    rng = np.random.default_rng(0)
    fam = RegressionFamily(rng.standard_normal((12, 10)))
    singles = [RegressionSupport((i,)) for i in range(4)]
    assert fam.in_small_family(1)
    # the pairwise union of two singletons has size 2, which violates the cap here
    assert not fam.in_small_family(2)
    assert fam.union_structure(singles[0], singles[1]) == fam.full_rank_structure
    assert fam.union_structure(singles[0], fam.full_rank_structure) == fam.full_rank_structure


def test_clustering_union_unsupported():
    fam = ClusteringFamily(4)
    a = MultiLevelPartition((), ((0, 1), (2, 3)))
    with pytest.raises(UnsupportedFamilyError):
        fam.union_structure(a, a)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_majorant_dominates_dimension_everywhere():
    for name, fam in small_families().items():
        for s in enumerate_small(fam):
            assert fam.majorant(s) >= fam.dim(s) - 1e-12, (name, s)


def test_union_witness_containment_and_subadditivity():
    rng = np.random.default_rng(42)
    for name, fam in small_families().items():
        if not fam.supports_union:
            continue
        structs = enumerate_small(fam)
        for _ in range(100):
            i0, i1 = (structs[rng.integers(len(structs))] for _ in range(2))
            u = fam.union_structure(i0, i1)
            x = rng.standard_normal(fam.ambient_dim)
            for part in (i0, i1):
                px = fam.project(part, x)
                assert np.linalg.norm(fam.project(u, px) - px) <= 1e-8, (name, i0, i1)
            if name != "bicluster":  # see the counterexample test below
                assert fam.majorant(u) <= fam.majorant(i0) + fam.majorant(i1) + 1e-12, \
                    (name, i0, i1)


def test_bicluster_union_subadditivity_fails_no_witness_exists():
    """The union witness keeps containment, but complexity subadditivity is
    impossible for biclustering: crossing a rows-merged/cols-split structure
    with its transpose forces the fully split partition, whose majorant
    n1*n2 exceeds the budget n1+n2.  Verified exhaustively at 2x3."""
    fam = BiclusterFamily(2, 3)
    merged_rows = Bicluster(((0, 1),), (((0,), (1,), (2,))))
    merged_cols = Bicluster(((0,), (1,)), ((0, 1, 2),))
    budget = fam.majorant(merged_rows) + fam.majorant(merged_cols)
    assert budget == pytest.approx(2 + 3)

    def refines(fine, coarse):
        return all(any(set(fb) <= set(cb) for cb in coarse) for fb in fine)

    containing = [
        s for s in fam.enumerate_structures()
        if refines(s.rows, merged_rows.rows) and refines(s.rows, merged_cols.rows)
        and refines(s.cols, merged_rows.cols) and refines(s.cols, merged_cols.cols)
    ]
    assert containing, "the fully split structure always contains both"
    assert min(fam.majorant(s) for s in containing) > budget
    # the shipped witness still contains both subspaces
    u = fam.union_structure(merged_rows, merged_cols)
    x = np.random.default_rng(0).standard_normal(6)
    for part in (merged_rows, merged_cols):
        px = fam.project(part, x)
        assert np.linalg.norm(fam.project(u, px) - px) <= 1e-10


def test_nested_structures_shrink_approximation_error():
    rng = np.random.default_rng(11)
    nested = {
        "smoothness": (SmoothnessFamily(8), Truncation(2), Truncation(5)),
        "sparsity": (SparsityFamily(8), SparseSet((1, 3)), SparseSet((1, 3, 6))),
        "jump": (JumpFamily(8), JumpSet((3,)), JumpSet((1, 3, 5))),
        "knot": (KnotFamily(8), KnotSet((3,)), KnotSet((2, 3, 5))),
        "banding": (BandingFamily(4), Band(1), Band(3)),
    }
    for name, (fam, small, big) in nested.items():
        for _ in range(100):
            theta = rng.standard_normal(fam.ambient_dim)
            err_small = np.linalg.norm(theta - fam.project(small, theta))
            err_big = np.linalg.norm(theta - fam.project(big, theta))
            assert err_big <= err_small + 1e-12, name


def test_projection_idempotent_and_pythagoras_across_families():
    rng = np.random.default_rng(3)
    for name, fam in small_families().items():
        structs = enumerate_small(fam)
        for _ in range(40):
            s = structs[rng.integers(len(structs))]
            theta = rng.standard_normal(fam.ambient_dim)
            p = fam.project(s, theta)
            pp = fam.project(s, p)
            assert np.max(np.abs(pp - p)) <= 1e-9 * (1.0 + np.linalg.norm(theta)), name
            lhs = float(theta @ theta)
            rhs = float(p @ p) + float((theta - p) @ (theta - p))
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + lhs), name


@pytest.mark.parametrize("name", sorted(small_families()))
def test_project_and_project_many_share_one_kernel(name):
    """project_many matches the stacked per-row project; for every family but
    bicluster, whose vector kernel sums each block in another order, project
    gives the bytes of the one-row batch."""
    fam = small_families()[name]
    rng = np.random.default_rng(17)
    for s in enumerate_small(fam):
        rows = rng.standard_normal((4, fam.ambient_dim))
        stacked = np.stack([fam.project(s, r) for r in rows])
        got = fam.project_many(s, rows)
        assert got.shape == rows.shape
        assert np.allclose(got, stacked, rtol=1e-12, atol=1e-12 * np.abs(rows).max()), s
        if name != "bicluster":
            theta = rows[0]
            one_row = fam.project_many(s, theta[None])[0]
            assert fam.project(s, theta).tobytes() == one_row.tobytes(), s


def _rank_deficient_design():
    """20 x 16 with column 5 a copy of column 2, column 9 zero and column
    11 a multiple of column 7: the supports {9}, {2, 5}, {7, 11} and
    {9, j} span less than their column counts."""
    design = np.random.default_rng(5).standard_normal((20, 16))
    design[:, 5] = design[:, 2]
    design[:, 9] = 0.0
    design[:, 11] = -2.5 * design[:, 7]
    return design


def _svd_project(basis, rows):
    """P_I of every row by the basis's own thin SVD, kept as the oracle of
    the span kernels: the left singular vectors whose singular value exceeds
    COLUMN_DROP_RTOL times the largest column norm, then (rows Q) Q^T."""
    if basis.shape[1] == 0:
        return np.zeros_like(rows)
    u, sv, _ = np.linalg.svd(basis, full_matrices=False)
    q = u[:, sv > COLUMN_DROP_RTOL * np.linalg.norm(basis, axis=0).max()]
    return (rows @ q) @ q.T


def _position_sample(fam, count, most=None):
    """count distinct position sets of fam (knot, jump or sparsity), of
    every size up to `most` (all of them when None), drawn at random."""
    rng = np.random.default_rng(fam.n)
    positions = np.arange(fam.first, fam.last + 1)
    top = positions.size if most is None else most
    drawn = {fam.structure_type(tuple(sorted(rng.choice(positions, k, replace=False).tolist())))
             for k in rng.integers(0, top + 1, count)}
    return sorted(drawn, key=fam.sort_key)


def _bicluster_sample(fam, count):
    """At most count distinct biclusters of fam, pairing at random the
    row and column partitions of ten `_random_partitions` draws per axis."""
    rng = np.random.default_rng(fam.n1 * 100 + fam.n2)
    rows, cols = ([p for _ in range(10) for p in _random_partitions(rng, n)]
                  for n in (fam.n1, fam.n2))
    pairs = rng.integers(0, 60, (count, 2))
    return sorted({Bicluster(rows[i], cols[j]) for i, j in pairs}, key=fam.sort_key)


def _clustering_dp_cells(n):
    """The best structure of every cell of the exact clustering DP on a
    random y, among them one cluster of all n coordinates: clusters of more
    than 8 coordinates are where numpy's mean sums pairwise."""
    y = np.random.default_rng(n).standard_normal(n)
    cells, _ = selection._clustering_cells(y, 1.0, 1.0, n // 2)
    structs = [s for _, s in cells]
    assert max(len(c) for s in structs for c in s.clusters) == n
    return structs


def _stack_cases():
    """name -> (family, structures) for the stacked-projection byte test;
    structures() lists what to project."""
    def enumeration(fam, caps=None):
        return fam, lambda: list(fam.enumerate_structures(caps))

    cases = {f"knot-{n}": enumeration(KnotFamily(n)) for n in range(3, 14)}
    cases["knot-20-sample"] = (KnotFamily(20), functools.partial(_position_sample,
                                                                 KnotFamily(20), 600))
    golden = json.loads((DATA_DIR / "golden_select" / "regression.json").read_text())
    cases["regression-golden"] = enumeration(build_family(golden["family"]))
    cases["regression-rank-deficient"] = enumeration(RegressionFamily(_rank_deficient_design()))
    for n in range(1, 9):
        cases[f"clustering-{n}-exact"] = enumeration(ClusteringFamily(n))
        for blocks in (0, 1, 2):
            cases[f"clustering-{n}-blocks-{blocks}"] = enumeration(ClusteringFamily(n),
                                                                   Caps(max_blocks=blocks))
    for n in (9, 20, 60):
        cases[f"clustering-{n}-dp-cells"] = (ClusteringFamily(n),
                                             functools.partial(_clustering_dp_cells, n))
    for n in (*range(2, 13), 16):
        cases[f"jump-{n}"] = enumeration(JumpFamily(n))
    # segments past 128 coordinates, where numpy's mean sums pairwise in blocks
    cases["jump-600-sample"] = (JumpFamily(600), functools.partial(_position_sample,
                                                                   JumpFamily(600), 80, 4))
    for levels in range(1, 5):
        cases[f"leveled-{levels}"] = enumeration(LeveledSparsityFamily(levels))
    cases["smoothness-64"] = enumeration(SmoothnessFamily(64))
    cases["sparsity-40-sample"] = (SparsityFamily(40), functools.partial(_position_sample,
                                                                         SparsityFamily(40), 400))
    cases["bicluster-3x3-default"] = enumeration(BiclusterFamily(3, 3))
    for p in range(1, 10):
        cases[f"banding-{p}"] = enumeration(BandingFamily(p))
    for n1, n2 in ((4, 6), (7, 3), (8, 8), (12, 12)):
        cases[f"bicluster-{n1}x{n2}-sample"] = (BiclusterFamily(n1, n2), functools.partial(
            _bicluster_sample, BiclusterFamily(n1, n2), 300))
    return cases


STACK_CASES = _stack_cases()


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_project_stack_rows_have_the_bytes_of_project(name):
    """Every row of `_project_stack` is byte for byte `project` of its
    structure, which stays the oracle: the block-mean families through one
    `np.where` and grouped block means (none for the mask families), knot
    and regression through the batched SVD, rank-deficient bases included."""
    fam, listing = STACK_CASES[name]
    structs = listing()
    rng = np.random.default_rng(23)
    for y in (rng.standard_normal(fam.ambient_dim) * 3.0,
              rng.integers(-2, 3, fam.ambient_dim).astype(float) + 1e3):
        rows = fam._project_stack(structs, y)
        assert rows.shape == (len(structs), fam.ambient_dim)
        for s, row in zip(structs, rows):
            assert row.tobytes() == fam.project(s, y).tobytes(), (name, s)


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_project_stack_rows_have_the_bytes_of_project_per_row(name):
    """Given one row per structure, row k of `_project_stack` is byte for
    byte `project` of structures[k] and y[k], as `noise.check_a3` projects
    the parts and then their unions; the rows draw random data at mixed
    scales and rounded data with an offset.  A case of more than 600
    structures is thinned to 600 evenly spaced ones."""
    fam, listing = STACK_CASES[name]
    structs = listing()
    structs = [structs[k] for k in np.linspace(0, len(structs) - 1,
                                               min(len(structs), 600)).astype(int)]
    rng = np.random.default_rng(31)
    shape = (len(structs), fam.ambient_dim)
    for y in (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape),
              rng.integers(-2, 3, shape).astype(float) + 1e3):
        rows = fam._project_stack(structs, y)
        assert rows.shape == shape
        for s, yk, row in zip(structs, y, rows):
            assert row.tobytes() == fam.project(s, yk).tobytes(), (name, s)


def _per_block_project(fam, s, rows):
    """The block-mean row kernel one block at a time, kept as an oracle:
    zero the rows, copy the kept columns, then write each block's mean."""
    kept, blocks = fam._blocks(s)
    out = np.zeros_like(rows)
    idx = np.array(kept, dtype=np.intp)
    out[:, idx] = rows[:, idx]
    for block in blocks:
        idx = np.array(block, dtype=np.intp)
        out[:, idx] = rows[:, idx].mean(axis=1, keepdims=True)
    return out


def _band_project(fam, s, rows):
    """The banding projection as a symmetrization times the band mask, kept
    as an oracle; it writes -0.0 where a negative entry lies off the band."""
    mats = rows.reshape(-1, fam.p, fam.p)
    sym = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
    idx = np.arange(fam.p)
    mask = (np.abs(idx[:, None] - idx[None, :]) <= s.width).astype(float)
    return (sym * mask[None]).reshape(rows.shape)


BLOCK_MEAN_CASES = sorted(name for name, (fam, _) in STACK_CASES.items()
                          if isinstance(fam, structures._BlockMeanFamily))


@pytest.mark.parametrize("name", BLOCK_MEAN_CASES)
def test_block_mean_rows_have_the_bytes_of_the_oracles(name):
    """`project_many` of 1, 6 and 130 rows has the bytes of the per-block
    oracle on every block-mean family, banding included; banding's rows
    also equal its symmetrize-and-mask oracle, bytes and all once the sign
    of zero is dropped (adding 0.0 turns -0.0 into 0.0).  A case of more
    than 400 structures is thinned to 400 evenly spaced ones."""
    fam, listing = STACK_CASES[name]
    structs = listing()
    structs = [structs[k] for k in np.linspace(0, len(structs) - 1,
                                               min(len(structs), 400)).astype(int)]
    rng = np.random.default_rng(29)
    batches = [rng.standard_normal((m, fam.ambient_dim))
               * 10.0 ** rng.integers(-3, 4, fam.ambient_dim) for m in (1, 6, 130)]
    for s in structs:
        for rows in batches:
            m = len(rows)
            got = fam.project_many(s, rows)
            assert got.tobytes() == _per_block_project(fam, s, rows).tobytes(), (name, s, m)
            if isinstance(fam, BandingFamily):
                band = _band_project(fam, s, rows)
                assert np.array_equal(got, band), (name, s, m)
                assert (got + 0.0).tobytes() == (band + 0.0).tobytes(), (name, s, m)


def test_every_family_has_one_of_the_two_subspace_shapes():
    """Each of the nine families projects through the base of exactly one
    subspace shape, block mean or span, which owns its row kernel and its
    stacked projection."""
    families = [c for c in vars(structures).values()
                if isinstance(c, type) and issubclass(c, structures.Family) and c.tag]
    assert len(families) == 9
    shapes = (structures._SpanFamily, structures._BlockMeanFamily)
    for c in families:
        assert sum(issubclass(c, shape) for shape in shapes) == 1, c


def test_span_stack_takes_rank_deficient_bases_in_its_groups(caplog):
    """A regression basis whose span is narrower than its column count (a
    copied, a zero or a scaled column) joins the group of its width and
    rank: both stack forms give the bytes of `project` and of the SVD
    oracle, the group ranks are the dimensions, and nothing is logged."""
    fam = RegressionFamily(_rank_deficient_design())
    structs = list(fam.enumerate_structures())
    groups, dims = fam._span_groups(structs)
    assert dims == [fam.dim(s) for s in structs]
    narrow = [s for s, dim in zip(structs, dims) if dim < len(s.indices)]
    assert len(narrow) == 1 + 1 + 1 + 15  # {9}, {2, 5}, {7, 11} and {9, j}
    grouped = sorted(k for idx, _ in groups for k in idx)
    assert grouped == [k for k, dim in enumerate(dims) if dim > 0]
    rng = np.random.default_rng(4)
    y, ys = rng.standard_normal(fam.ambient_dim), rng.standard_normal((len(structs),
                                                                      fam.ambient_dim))
    with caplog.at_level(logging.DEBUG):
        rows, per_row = fam._project_stack(structs, y), fam._project_stack(structs, ys)
    assert not caplog.records
    for s, row, yk, row_k in zip(structs, rows, ys, per_row):
        assert row.tobytes() == fam.project(s, y).tobytes(), s
        assert row.tobytes() == _svd_project(fam.columns(s), y[None])[0].tobytes(), s
        assert row_k.tobytes() == _svd_project(fam.columns(s), yk[None])[0].tobytes(), s


SPAN_CASES = sorted(name for name, (fam, _) in STACK_CASES.items()
                    if isinstance(fam, structures._SpanFamily))


@pytest.mark.parametrize("name", SPAN_CASES)
def test_span_rows_have_the_bytes_of_the_svd_oracle(name):
    """`project_many` of 1, 6 and 130 rows, and `project`, have the bytes of
    the basis's own SVD on knot and regression, rank-deficient designs
    included.  A case of more than 400 structures is thinned to 400 evenly
    spaced ones."""
    fam, listing = STACK_CASES[name]
    structs = listing()
    structs = [structs[k] for k in np.linspace(0, len(structs) - 1,
                                               min(len(structs), 400)).astype(int)]
    rng = np.random.default_rng(37)
    batches = [rng.standard_normal((m, fam.ambient_dim))
               * 10.0 ** rng.integers(-3, 4, fam.ambient_dim) for m in (1, 6, 130)]
    for s in structs:
        basis = fam._bases([s])[0]
        for rows in batches:
            want = _svd_project(basis, rows)
            assert fam.project_many(s, rows).tobytes() == want.tobytes(), (name, s, len(rows))
            assert fam.project(s, rows[0]).tobytes() == _svd_project(basis, rows[:1])[0].tobytes()


@pytest.mark.parametrize("method,fam,structure,rows,error", [
    ("project_many", SparsityFamily(3), SparseSet((-1,)), np.ones((2, 3)), InvalidStructureError),
    ("project_many", JumpFamily(4), JumpSet((7,)), np.ones((2, 4)), InvalidStructureError),
    ("project_many", SparsityFamily(3), SparseSet((0,)), np.ones((2, 4)), DimensionMismatchError),
    ("project_many", SparsityFamily(3), SparseSet((0,)), np.ones(3), DimensionMismatchError),
    ("project", SparsityFamily(3), SparseSet((0,)), np.zeros(4), DimensionMismatchError),
], ids=["negative-index", "break-out-of-range", "wrong-width", "one-dimensional",
        "project-wrong-length"])
def test_project_many_validates_structure_and_shape(method, fam, structure, rows, error):
    with pytest.raises(error):
        getattr(fam, method)(structure, rows)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _as_lists(value):
    """value with every tuple, at any depth, turned into a list."""
    if isinstance(value, tuple):
        return [_as_lists(v) for v in value]
    return value


def _int_lists(value):
    """Every list of ints in value, at any depth."""
    if isinstance(value, list):
        if all(isinstance(v, int) for v in value):
            yield value
        for v in value:
            yield from _int_lists(v)


def test_structure_json_holds_the_fields_as_sorted_lists():
    """`structure_to_json` writes the family tag and the structure's
    fields, each tuple as a list of plain ints, every index list sorted."""
    for name, fam in small_families().items():
        for s in enumerate_small(fam):
            doc = fam.structure_to_json(s)
            data = {f.name: _as_lists(getattr(s, f.name)) for f in dataclasses.fields(s)}
            assert doc == {"family": fam.tag, "data": data}, name
            assert json.loads(json.dumps(doc)) == doc, name
            for value in doc["data"].values():
                for ints in _int_lists(value):
                    assert ints == sorted(set(ints)), (name, s)


def test_validation_rejects_malformed_structures():
    with pytest.raises(InvalidStructureError):
        SparsityFamily(3).project(SparseSet((0, 5)), np.zeros(3))
    with pytest.raises(InvalidStructureError):
        SmoothnessFamily(3).dim(Truncation(4))
    with pytest.raises(InvalidStructureError):
        ClusteringFamily(4).dim(MultiLevelPartition((0,), ((1, 2),)))  # misses 3
    with pytest.raises(InvalidStructureError):
        KnotFamily(5).majorant(KnotSet((0,)))  # not interior
    with pytest.raises(InvalidStructureError):
        BiclusterFamily(2, 2).dim(Bicluster(((0,),), ((0, 1),)))  # row 1 missing
    fam = RegressionFamily(np.random.default_rng(0).standard_normal((8, 6)))
    big = tuple(range(5))
    if not fam.in_small_family(len(big)):
        with pytest.raises(InvalidStructureError):
            fam.majorant(RegressionSupport(big))


@pytest.mark.parametrize("fam,make,field,lo,hi", [
    (SparsityFamily(6), SparseSet, "indices", 0, 6),
    (JumpFamily(6), JumpSet, "breaks", 0, 5),
    (KnotFamily(6), KnotSet, "knots", 1, 5),
])
@pytest.mark.parametrize("method", ["project", "majorant", "dim", "structure_to_json"])
def test_position_set_validation_messages(fam, make, field, lo, hi, method):
    def call(pos):
        args = (make(pos), np.zeros(6)) if method == "project" else (make(pos),)
        return getattr(fam, method)(*args)

    order = f"^{field} must be sorted and unique$"
    cases = [
        ((3, 2), order),                        # unsorted
        ((2, 2), order),                        # repeated
        ((2.5, 3), order),                      # non-integral float
        ([2, 3], order),                        # list, not tuple
        ((lo - 1, 3), rf"^{field} out of range \[{lo}, {hi}\)$"),
        ((2, hi), rf"^{field} out of range \[{lo}, {hi}\)$"),
    ]
    for pos, message in cases:
        with pytest.raises(InvalidStructureError, match=message):
            call(pos)
    with pytest.raises(InvalidStructureError, match=f"^not a {make.__name__}: "):
        fam.validate(Truncation(1))
    call((2, 3))
    call(())
    fam.validate(make((2.0, np.int64(3))))  # integral values of other types pass


@pytest.mark.parametrize("fam,make", [
    (SparsityFamily(6), SparseSet), (JumpFamily(6), JumpSet), (KnotFamily(6), KnotSet)])
def test_integral_positions_of_other_types_project_like_ints(fam, make):
    """validate accepts (2.0, 3) and numpy integers, so the kernels must
    project them as (2, 3)."""
    y = np.arange(6.0) ** 2
    rows = np.stack([y, -y])
    want, want_rows = fam.project(make((2, 3)), y), fam.project_many(make((2, 3)), rows)
    for pos in ((2.0, 3), (2.0, 3.0), (np.int64(2), 3), (np.float64(2.0), np.int64(3))):
        assert np.array_equal(fam.project(make(pos), y), want), pos
        assert np.array_equal(fam.project_many(make(pos), rows), want_rows), pos


def test_is_sorted_unique_matches_sorted_tuple_of_set():
    def reference(pos):
        return pos == tuple(sorted(int(x) for x in set(pos)))

    def outcome(check, pos):
        try:
            return check(pos)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    cases = [(), (0,), (1, 2, 5), (5, 1), (1, 1), (1, 2, 2), [1, 2], [], (1.0, 2), (1.5,),
             (True, 2), (False, True), (np.int64(1), np.int64(4)), (np.int64(4), 1),
             (-3, 0, 7), ("1",), ("a",), (None,), (float("nan"),), tuple(range(600)),
             tuple(range(0, 40, 3)) + (38,)]
    for pos in cases:
        assert outcome(is_sorted_unique, pos) == outcome(reference, pos), pos


def test_leveled_canonical_form_trims_trailing_empty_levels():
    fam = LeveledSparsityFamily(3)
    s = fam.canonical([[0], [], []])
    assert s == LeveledSparse(((0,),))
    with pytest.raises(InvalidStructureError):
        fam.dim(LeveledSparse(((0,), ())))


@pytest.mark.parametrize("n_levels", [1, 2, 3])
def test_leveled_enumeration_is_the_canonical_form_of_every_choice(n_levels):
    """The enumeration builds each structure without `canonical`; it lists
    the canonical form of every choice of one subset per level, once each,
    in sort order."""
    fam = LeveledSparsityFamily(n_levels)
    subsets = ([c for k in range(2**j + 1) for c in itertools.combinations(range(2**j), k)]
               for j in range(n_levels))
    want = {fam.canonical(levels) for levels in itertools.product(*subsets)}
    assert list(fam.enumerate_structures()) == sorted(want, key=fam.sort_key)


@pytest.mark.parametrize("n_levels", [1, 2, 3])
def test_leveled_max_size_bounds_the_total_index_count(n_levels):
    """With max_size = m, the enumeration and the size classes are those of
    the uncapped enumeration filtered to at most m indices in all, and the
    projected count is sum_{k <= m} C(2^L - 1, k)."""
    fam = LeveledSparsityFamily(n_levels)
    full = list(fam.enumerate_structures())
    for m in range(fam.ambient_dim + 2):
        caps = Caps(max_size=m)
        want = [s for s in full if fam.dim(s) <= m]
        assert list(fam.enumerate_structures(caps)) == want, m
        classes = fam.size_classes(caps)
        assert sum(count for count, _ in classes) == len(want), m
        sizes = [tuple(len(lv) for lv in rep.levels) + (0,) * (n_levels - len(rep.levels))
                 for _, rep in classes]
        per_level = (range(2**j + 1) for j in range(n_levels))
        assert sizes == [k for k in itertools.product(*per_level) if sum(k) <= m], m
        with pytest.raises(CapExceededError) as err:
            list(fam.enumerate_structures(Caps(max_count=-1, max_size=m)))
        assert err.value.projected_count == sum(
            math.comb(fam.ambient_dim, k) for k in range(min(m, fam.ambient_dim) + 1))


def test_leveled_max_size_builds_only_the_allowed_size_tuples():
    """Five levels hold 2^31 supports, but one index in all leaves 32, in
    six size classes."""
    fam = LeveledSparsityFamily(5)
    classes = fam.size_classes(Caps(max_size=1))
    assert len(classes) == 6 and sum(count for count, _ in classes) == 32
    assert len(list(fam.enumerate_structures(Caps(max_size=1)))) == 32


@pytest.mark.parametrize("family, structure", [
    (SmoothnessFamily(9), Truncation),
    (SparsityFamily(9), lambda k: SparseSet(tuple(range(k)))),
    (SparsityFamily(9, majorant_variant="rho_prime"), lambda k: SparseSet(tuple(range(9 - k, 9)))),
    (BandingFamily(5), Band),
])
def test_size_vectors_hold_each_size_majorant_and_dimension(family, structure):
    """size_majorants[k] and size_dims[k] equal majorant and dim of a size-k
    structure, bit for bit; they are built once per instance and read-only."""
    rho, dim = family.size_majorants, family.size_dims
    assert rho.size == dim.size == family.n_sizes
    for k in range(family.n_sizes):
        assert rho[k] == family.majorant(structure(k)) and dim[k] == family.dim(structure(k))
    assert family.size_majorants is rho and family.size_dims is dim
    with pytest.raises(ValueError):
        rho[0] = 1.0
    with pytest.raises(ValueError):
        dim[0] = 1
