import collections
import itertools
import json
import math

import numpy as np
import pytest

from projstruct.errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidStructureError,
    UnsupportedFamilyError,
)
from projstruct.linalg import orthonormal_span
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
    is_sorted_unique,
)
from conftest import ENUM_CAPS, enumerate_small, small_families


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
        assert fam.dim(s) == orthonormal_span(fam.columns(s)).shape[1]
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
# slicing examples
# ---------------------------------------------------------------------------


def test_slicing_labels():
    assert SparsityFamily(8).slicing(SparseSet((1, 6))) == 2
    assert SmoothnessFamily(4).slicing(Truncation(0)) == 0
    s = Bicluster(((0, 1), (2,)), ((0,), (1,), (2,)))
    assert BiclusterFamily(3, 3).slicing(s) == (2, 3)


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


def test_capped_bicluster_reports_projected_count():
    # Bell(8) = 4140 partitions per axis; the cap fires before any is paired
    assert _projected_count(BiclusterFamily(8, 8), None) == 4140**2


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


def test_json_round_trip_is_bit_exact():
    for name, fam in small_families().items():
        for s in enumerate_small(fam):
            doc = fam.structure_to_json(s)
            text = json.dumps(doc, sort_keys=True)
            back = fam.structure_from_json(json.loads(text))
            assert back == s, name
            assert json.dumps(fam.structure_to_json(back), sort_keys=True) == text, name


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
