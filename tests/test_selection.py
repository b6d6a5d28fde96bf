import itertools
from collections import Counter
import json
import math

import numpy as np
import pytest

from projstruct import selection, structures
from projstruct.errors import DimensionMismatchError, InvalidStructureError
from projstruct.linalg import sq_norm
from projstruct.selection import (
    TIE_RTOL,
    AlternatingTrace,
    Projections,
    _ArgminTracker,
    _label_blocks,
    alternating_bicluster,
    objective,
    select_bruteforce,
    select_penalized,
)
from projstruct.structures import (
    BandingFamily,
    Bicluster,
    BiclusterFamily,
    Caps,
    ClusteringFamily,
    Family,
    JumpFamily,
    JumpSet,
    KnotFamily,
    LeveledSparsityFamily,
    MultiLevelPartition,
    SmoothnessFamily,
    SparseSet,
    SparsityFamily,
    Truncation,
)
from conftest import ENUM_CAPS, enumerate_small, small_families


def test_smoothness_example_selects_level_one():
    fam = SmoothnessFamily(3)
    s, obj = select_penalized(np.array([10.0, 0.1, 0.1]), fam, sigma=1.0, kappa=1.0)
    assert s == Truncation(1)
    assert obj == pytest.approx(0.02 + 2.0)


def test_bruteforce_tie_rules():
    fam = SparsityFamily(4)
    # all-zero data: the penalty dominates, minimal-majorant structure wins
    s, _ = select_bruteforce(np.zeros(4), fam, sigma=1.0, kappa=1.0)
    assert s == SparseSet(())
    sm = SmoothnessFamily(1)
    only = list(sm.enumerate_structures())
    s, _ = select_bruteforce(np.array([0.0]), sm, 1.0, 1.0)
    assert s == only[0]


def test_sparsity_selector_keeps_top_coordinates():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(3, 13))
        fam = SparsityFamily(n)
        y = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
        s, obj = select_penalized(y, fam, sigma=1.0, kappa=float(rng.uniform(0.3, 2.0)))
        size = len(s.indices)
        if size:
            chosen = np.abs(y)[list(s.indices)].min()
            rest = np.delete(np.abs(y), list(s.indices))
            assert rest.size == 0 or chosen >= rest.max() - 1e-12


def test_exact_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(7)
    fams = small_families()
    for name, fam in fams.items():
        for _ in range(20):
            y = rng.standard_normal(fam.ambient_dim)
            sigma = float(rng.uniform(0.3, 2.0))
            kappa = float(rng.uniform(0.3, 2.0))
            s_fast, obj_fast = select_penalized(y, fam, sigma, kappa)
            s_slow, obj_slow = select_bruteforce(y, fam, sigma, kappa, ENUM_CAPS.get(name))
            assert abs(obj_fast - obj_slow) <= 1e-9 * (1.0 + abs(obj_slow)), name
            assert s_fast == s_slow, (name, y)


def test_bicluster_exact_recovers_block_constant_signal():
    fam = BiclusterFamily(3, 3)
    truth = Bicluster(((0, 1), (2,)), ((0,), (1, 2)))
    theta = fam.project(truth, np.arange(9.0) ** 2)
    s, _ = select_penalized(theta, fam, sigma=1e-3, kappa=1.0)
    assert np.allclose(fam.project(s, theta), theta)
    assert fam.majorant(s) <= fam.majorant(truth) + 1e-12


def break_table(y, max_breaks):
    """The jump path's (sse, breaks) for 0..max_breaks breaks (`_break_sets`)."""
    return list(selection._break_sets(np.asarray(y, dtype=float), max_breaks))


def path_entries(Y, family):
    """(structure, SSE) for every size along a nested path: the entries of
    `size_path`, or the jump path's break sets (`_break_sets`)."""
    sizes = selection.size_path(Y, family)
    if sizes is None:
        return [(JumpSet(breaks), sse) for sse, breaks in break_table(Y, family.n - 1)]
    return [(sizes.build(k), sizes.sse[k]) for k in range(sizes.sse.size)]


def test_segment_dp_examples_and_exhaustive_equivalence():
    table = break_table(np.full(6, 3.25), max_breaks=3)
    assert all(sse == pytest.approx(0.0, abs=1e-12) for sse, _ in table)

    table = break_table(np.array([0.0, 0.0, 5.0, 5.0]), max_breaks=2)
    assert table[1] == (pytest.approx(0.0, abs=1e-12), (1,))

    rng = np.random.default_rng(4)
    y = rng.standard_normal(10)
    table = break_table(y, max_breaks=4)
    for k in range(5):
        best = min(
            float(sum((y[lo:hi] - y[lo:hi].mean()) @ (y[lo:hi] - y[lo:hi].mean())
                      for lo, hi in zip((0,) + tuple(b + 1 for b in breaks),
                                        tuple(b + 1 for b in breaks) + (10,))))
            for breaks in itertools.combinations(range(9), k)
        )
        assert table[k][0] == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_sparsity_size_monotone_in_kappa():
    rng = np.random.default_rng(9)
    fam = SparsityFamily(40)
    y = rng.standard_normal(40) * 2.0
    sizes = []
    for kappa in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        s, _ = select_penalized(y, fam, sigma=1.0, kappa=kappa)
        sizes.append(len(s.indices))
    assert sizes == sorted(sizes, reverse=True)


def test_heuristics_never_beat_bruteforce_and_alternation_is_monotone():
    rng = np.random.default_rng(21)
    fams = small_families()
    for name in ("regression", "bicluster", "clustering"):
        fam = fams[name]
        for _ in range(5):
            y = rng.standard_normal(fam.ambient_dim)
            _, obj_h = select_penalized(y, fam, 1.0, 1.0, mode="heuristic",
                                        rng=np.random.default_rng(3), max_blocks=3)
            _, obj_b = select_bruteforce(y, fam, 1.0, 1.0, ENUM_CAPS.get(name))
            assert obj_h >= obj_b - 1e-9 * (1.0 + abs(obj_b)), name

    fam = BiclusterFamily(4, 4)
    y = rng.standard_normal(16)
    trace = alternating_bicluster(y, fam, 1.0, 1.0, 3, 3, np.random.default_rng(5))
    diffs = np.diff(trace.history)
    assert np.all(diffs <= 1e-9)


def test_penalty_variant_map_adds_dimension():
    fam = SparsityFamily(5)
    y = np.array([3.0, 0.1, 0.2, 2.5, 0.0])
    s = SparseSet((0, 3))
    main = objective(y, fam, s, sigma=1.0, kappa=1.0, pen_variant="main")
    mapped = objective(y, fam, s, sigma=1.0, kappa=1.0, pen_variant="map")
    assert mapped == pytest.approx(main + 2.0)


def test_exact_mode_unavailable_for_oversized_knot_search():
    from projstruct.errors import ExactModeUnavailableError
    from projstruct.structures import KnotFamily

    fam = KnotFamily(40)
    with pytest.raises(ExactModeUnavailableError) as err:
        select_penalized(np.zeros(40), fam, 1.0, 1.0, caps=Caps(max_count=1000))
    assert "knot" in str(err.value)


def test_exact_matches_bruteforce_under_map_penalty_variant():
    rng = np.random.default_rng(31)
    fams = small_families()
    for name, fam in fams.items():
        for _ in range(15):
            y = rng.standard_normal(fam.ambient_dim) * rng.uniform(0.5, 2.5)
            sigma = float(rng.uniform(0.4, 1.8))
            kappa = float(rng.uniform(0.4, 1.8))
            s1, o1 = select_penalized(y, fam, sigma, kappa, pen_variant="map")
            s2, o2 = select_bruteforce(y, fam, sigma, kappa, ENUM_CAPS.get(name),
                                       pen_variant="map")
            assert s1 == s2, name
            assert abs(o1 - o2) <= 1e-9 * (1.0 + abs(o2)), name


@pytest.mark.parametrize("name", sorted(small_families()))
def test_dispatch_table_paths_searches_and_heuristic_fallback(name):
    fam = small_families()[name]
    y = np.random.default_rng(41).standard_normal(fam.ambient_dim) * 2.0
    if name in ("smoothness", "banding", "sparsity", "jump"):
        path = path_entries(y, fam)
        assert len({fam.dim(s) for s, _ in path}) == len(path)
        for s, sse in path:
            assert sse == pytest.approx(sq_norm(y - fam.project(s, y)), rel=1e-9, abs=1e-9)
    else:
        assert selection.size_path(y, fam) is None and name not in selection._PATHS

    proj = Projections(y, fam)
    heuristic = select_penalized(y, fam, 1.0, 1.0, mode="heuristic",
                                 rng=np.random.default_rng(3), proj=proj)
    if name in ("regression", "bicluster", "clustering"):
        # what the search scored: duplicate-free, in canonical order
        assert heuristic[0] in proj.searched
        assert proj.searched == sorted(set(proj.searched), key=fam.sort_key)
    else:
        assert heuristic == select_penalized(y, fam, 1.0, 1.0)
        assert proj.searched is None


@pytest.mark.parametrize("n", range(1, 10))
def test_clustering_dp_matches_enumeration(n):
    """The sorted-order DP selects the enumeration's structure and objective,
    bit for bit: in exact mode over every cluster count, in heuristic mode
    over at most max_blocks clusters, under both penalty variants.  Rounded
    and integer-valued draws force tied objectives; n = 9 (21,147 structures)
    keeps those two."""
    rng = np.random.default_rng(100 + n)
    fam = ClusteringFamily(n)
    settings = [("exact", 4, None), ("heuristic", 0, 0), ("heuristic", 1, 1),
                ("heuristic", 2, 2)]
    for kind in ("continuous", "rounded", "integer")[n // 9:]:
        y = rng.standard_normal(n) * rng.uniform(0.3, 3.0)
        if kind == "rounded":
            y = np.round(y)
        elif kind == "integer":
            y = rng.integers(0, 3, n).astype(float)
        sigma, kappa = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.05, 2.0))
        proj = Projections(y, fam)
        for pen_variant in ("main", "map"):
            for mode, max_blocks, enum_blocks in settings:
                got = select_penalized(y, fam, sigma, kappa, mode=mode, pen_variant=pen_variant,
                                       max_blocks=max_blocks, proj=proj)
                want = select_bruteforce(y, fam, sigma, kappa,
                                         Caps(max_count=10**6, max_blocks=enum_blocks),
                                         pen_variant, proj)
                assert got == want, (kind, pen_variant, mode, max_blocks, y.tolist())


def test_clustering_selection_ignores_a_large_common_offset():
    """The DP runs on centered data: an offset of 1e6 leaves the selected
    structure and the scored structures as they are, and lists no extra ties."""
    y = np.random.default_rng(40).standard_normal(40)
    fam = ClusteringFamily(40)
    for mode in ("exact", "heuristic"):
        shifted, plain = Projections(y + 1e6, fam), Projections(y, fam)
        assert (select_penalized(y + 1e6, fam, 1.0, 1.0, mode=mode, proj=shifted)[0]
                == select_penalized(y, fam, 1.0, 1.0, mode=mode, proj=plain)[0])
        assert shifted.searched == plain.searched


@pytest.mark.parametrize("levels,seeds", [(3, range(40)), (4, range(5, 8))], ids=["3", "4"])
def test_leveled_selection_matches_bruteforce_next_to_a_large_coordinate(levels, seeds):
    """With one coordinate near 1e8 (sigma = kappa = 1), each level's SSEs
    are tail sums of its sorted squares and keep their accuracy; the level
    total minus a prefix sum chose another structure than the brute force in
    6 of the 80 three-level cases and in all 3 four-level seeds (a
    four-level brute force takes 0.3 s)."""
    fam = LeveledSparsityFamily(levels)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(fam.ambient_dim) * rng.choice([0.5, 2.0, 4.0], fam.ambient_dim)
        y[rng.integers(fam.ambient_dim)] = 1e8 + rng.standard_normal()
        proj = Projections(y, fam)
        for pen_variant in ("main", "map"):
            got = select_penalized(y, fam, 1.0, 1.0, pen_variant=pen_variant, proj=proj)
            want = select_bruteforce(y, fam, 1.0, 1.0, pen_variant=pen_variant, proj=proj)
            assert got[0] == want[0], (levels, seed, pen_variant)
            assert got[1] == pytest.approx(want[1], rel=1e-12), (levels, seed, pen_variant)


@pytest.mark.parametrize("n", [12, 40])
def test_heuristic_clustering_is_no_worse_than_all_free_or_one_block(n):
    rng = np.random.default_rng(n)
    fam = ClusteringFamily(n)
    every = tuple(range(n))
    for _ in range(5):
        y = np.cumsum(rng.uniform(3.0, 5.0, 3))[rng.permutation(np.arange(n) % 3)]
        y = y + rng.uniform(0.1, 3.0) * rng.standard_normal(n)
        sigma = float(rng.uniform(0.2, 2.0))
        _, obj = select_penalized(y, fam, sigma, 1.0, mode="heuristic")
        for s in (MultiLevelPartition(every, ()), MultiLevelPartition((), (every,))):
            assert obj <= objective(y, fam, s, sigma, 1.0) * (1.0 + TIE_RTOL)


def full_rescoring_alternating_bicluster(Y, family, sigma, kappa, k1, k2, rng,
                                         pen_variant="main", restarts=10, max_iter=50):
    """The alternating search that scores every move with a full `objective`."""
    mat = np.asarray(Y, dtype=float).reshape(family.n1, family.n2)
    inits = []
    for _ in range(restarts):
        inits.append((rng.integers(0, k1, family.n1), rng.integers(0, k2, family.n2)))
    r_order = np.argsort(mat.mean(axis=1), kind="stable")
    c_order = np.argsort(mat.mean(axis=0), kind="stable")
    r_init = np.empty(family.n1, dtype=int)
    c_init = np.empty(family.n2, dtype=int)
    r_init[r_order] = (np.arange(family.n1) * k1) // family.n1
    c_init[c_order] = (np.arange(family.n2) * k2) // family.n2
    inits.append((r_init, c_init))

    def score(row_labels, col_labels):
        s = Bicluster(_label_blocks(row_labels, k1), _label_blocks(col_labels, k2))
        return s, objective(mat.reshape(-1), family, s, sigma, kappa, pen_variant)

    tracker, traces = _ArgminTracker(family), {}
    for row_labels, col_labels in inits:
        row_labels = row_labels.copy()
        col_labels = col_labels.copy()
        _, obj = score(row_labels, col_labels)
        history = [obj]
        for _ in range(max_iter):
            improved = False
            for axis, labels, k in ((0, row_labels, k1), (1, col_labels, k2)):
                n_axis = family.n1 if axis == 0 else family.n2
                for i in range(n_axis):
                    old = labels[i]
                    best_b, best_obj = old, obj
                    for b in range(k):
                        if b == old:
                            continue
                        labels[i] = b
                        _, cand = score(row_labels, col_labels)
                        if cand < best_obj - TIE_RTOL * (1.0 + abs(cand)):
                            best_b, best_obj = b, cand
                    labels[i] = best_b
                    if best_b != old:
                        obj = best_obj
                        history.append(obj)
                        improved = True
            if not improved:
                break
        s, obj = score(row_labels, col_labels)
        history.append(obj)
        tracker.offer(s, obj)
        traces.setdefault(s, AlternatingTrace(s, obj, history))
    return traces[tracker.result()[0]]


def _label_cases():
    """(family, row labels, column labels, y) cases for the label kernel:
    labels that leave blocks empty, 1 x n, n x 1 and 1 x 1 shapes, blocks of
    more than 8 entries (where numpy's mean sums pairwise), offsets of 1e6
    and rounded data with exact ties."""
    rng = np.random.default_rng(2027)
    shapes = [(1, 1), (1, 7), (9, 1), (12, 12), (10, 3)] + [
        (int(a), int(b)) for a, b in rng.integers(1, 10, size=(195, 2))]
    for case, (n1, n2) in enumerate(shapes):
        k1, k2 = (int(k) for k in rng.integers(1, 6, size=2))
        row_labels, col_labels = rng.integers(0, k1, n1), rng.integers(0, k2, n2)
        y = rng.standard_normal(n1 * n2) * 10.0 ** rng.integers(-3, 4)
        y = (y, np.round(y), y + 1e6, np.round(2.0 * y) / 2.0 + 1e6)[case % 4]
        yield BiclusterFamily(n1, n2), row_labels, col_labels, k1, k2, y


def test_label_rss_has_the_bytes_of_projections_rss():
    """`BiclusterFamily.label_rss` reads the labels and gives the bytes of
    `Projections.rss` of the `_label_blocks` structure, which stays the
    oracle."""
    for fam, row_labels, col_labels, k1, k2, y in _label_cases():
        s = Bicluster(_label_blocks(row_labels, k1), _label_blocks(col_labels, k2))
        want = Projections(y, fam).rss(s)
        [got] = fam.label_rss(y, row_labels[None], col_labels[None])
        assert type(got) is float and got.hex() == want.hex(), (fam.n1, fam.n2, s)


def test_label_rss_batches_have_the_bytes_of_projections_rss(monkeypatch):
    """Many labelings of one y in one `label_rss` call, with label maxima
    from 1 to 6 mixed in the batch and blocks left empty, give each
    labeling the bytes of `Projections.rss`, also when the chunk budget
    puts chunk boundaries inside the batch."""
    rng = np.random.default_rng(2028)
    for case, (fam, *_, y) in enumerate(_label_cases()):
        count = int(rng.integers(20, 60))
        rows = rng.integers(0, rng.integers(1, 7, size=(count, 1)), (count, fam.n1))
        cols = rng.integers(0, rng.integers(1, 7, size=(count, 1)), (count, fam.n2))
        if case % 2:
            monkeypatch.setattr(structures, "LABEL_BLOCK", int(rng.integers(1, 8)) * y.size)
        got = fam.label_rss(y, rows, cols)
        monkeypatch.undo()
        want = Projections(y, fam).rss_all(
            [Bicluster(_label_blocks(r, 6), _label_blocks(c, 6)) for r, c in zip(rows, cols)])
        assert [g.hex() for g in got] == [w.hex() for w in want], (case, fam.n1, fam.n2)


def test_screened_alternation_matches_full_rescoring():
    """Screening moves by block sums changes no decision: same structure,
    objective and history (exact floats) as scoring every move in full.
    Covers both penalties, rounded data with exact ties, more blocks than
    lines (blocks empty and reopen), 1 x n and n x 1 shapes, penalties
    that dominate the data (sigma^2 * pen >> ||Y||^2), and 8 x 8 shapes,
    half of them with an offset of 1e6."""
    rng = np.random.default_rng(2026)
    shapes = [(1, 5), (6, 1), (1, 1), (2, 2)] + [
        (int(a), int(b)) for a, b in rng.integers(1, 7, size=(116, 2))] + [(8, 8)] * 24
    for case, (n1, n2) in enumerate(shapes):
        fam = BiclusterFamily(n1, n2)
        y = rng.standard_normal(n1 * n2) * rng.uniform(0.3, 4.0)
        if case % 3 == 1:
            y = np.round(y)
        elif case % 3 == 2:
            y = np.round(2.0 * y) / 2.0
        if case >= 120 and case % 2:
            y = y + 1e6
        k1, k2 = (int(k) for k in rng.integers(1, 5, size=2))
        sigma = float(rng.uniform(0.2, 2.0)) * (30.0 if case % 7 == 3 else 1.0)
        kappa = float(rng.uniform(0.1, 2.0))
        pen_variant = ("main", "map")[case % 2]
        seed = int(rng.integers(0, 2**31))
        restarts = int(rng.integers(1, 4))
        args = (y, fam, sigma, kappa, k1, k2)
        got = alternating_bicluster(*args, np.random.default_rng(seed),
                                    pen_variant=pen_variant, restarts=restarts)
        want = full_rescoring_alternating_bicluster(*args, np.random.default_rng(seed),
                                                    pen_variant=pen_variant,
                                                    restarts=restarts)
        assert (got.structure, got.objective, got.history) == \
            (want.structure, want.objective, want.history), (case, n1, n2, k1, k2)


def test_screened_alternation_is_exact_when_the_penalty_dominates():
    """With sigma^2 * pen ~ 1e7 the tie tolerance 1e-12 * (1 + obj) is ~1e-5,
    far above 1e-9 * (1 + ||Y||^2).  Near-binary data make moves whose
    objectives differ by less than the tolerance but more than that band;
    the screening margin scales with obj, so it keeps them.  (A margin of
    1e-9 * (1 + ||Y||^2) alone changes the trace in cases 3, 8, 19 and 29.)"""
    for case in range(30):
        rng = np.random.default_rng([7, case])
        n1, n2 = (int(n) for n in rng.integers(3, 7, size=2))
        y = rng.integers(0, 2, n1 * n2) + 1e-7 * rng.standard_normal(n1 * n2)
        k1, k2 = (int(k) for k in rng.integers(3, 5, size=2))
        seed = int(rng.integers(0, 2**31))
        pen_variant = ("main", "map")[case % 2]
        args = (y, BiclusterFamily(n1, n2), 1e3, 1.0, k1, k2)
        got = alternating_bicluster(*args, np.random.default_rng(seed),
                                    pen_variant=pen_variant, restarts=2)
        want = full_rescoring_alternating_bicluster(*args, np.random.default_rng(seed),
                                                    pen_variant=pen_variant, restarts=2)
        assert (got.structure, got.objective, got.history) == \
            (want.structure, want.objective, want.history), case


def test_lockstep_bicluster_search_matches_per_pair_full_rescoring():
    """The bicluster search runs every restart of every block-count pair in
    lockstep; it visits what a pair-by-pair loop of the sequential search
    that scores every move in full visits, (structure, objective) with exact
    floats, and leaves the rng in the same state.  Covers shapes up to
    8 x 8, max_blocks 1-5 (more blocks than lines on the small shapes),
    1-10 restarts, so that restarts end at different steps, both
    penalties, rounded data with exact ties, offsets of 1e6 and penalties
    that dominate the data (sigma^2 * pen >> ||Y||^2).  A few single pairs
    with max_iter of 1 or 2 cut restarts off at the iteration count."""
    rng = np.random.default_rng(2029)
    shapes = [(1, 1), (1, 6), (5, 1), (2, 3)] + [
        (int(a), int(b)) for a, b in rng.integers(1, 9, size=(20, 2))]
    for case, (n1, n2) in enumerate(shapes):
        fam = BiclusterFamily(n1, n2)
        y = rng.standard_normal(n1 * n2) * rng.uniform(0.3, 4.0)
        y = (y, np.round(y), np.round(2.0 * y) / 2.0 + 1e6, y + 1e6)[case % 4]
        sigma = float(rng.uniform(0.2, 2.0)) * (30.0 if case % 5 == 2 else 1.0)
        kappa = float(rng.uniform(0.1, 2.0))
        pen_variant = ("main", "map")[case % 2]
        max_blocks = int(rng.integers(1, 6))
        restarts = int(rng.integers(1, 11))
        seed = int(rng.integers(0, 2**31))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = selection._bicluster_search(Projections(y, fam), sigma, kappa, pen_variant,
                                          got_rng, max_blocks, restarts)
        want = []
        for k1 in range(1, min(max_blocks, n1) + 1):
            for k2 in range(1, min(max_blocks, n2) + 1):
                trace = full_rescoring_alternating_bicluster(
                    y, fam, sigma, kappa, k1, k2, want_rng, pen_variant=pen_variant,
                    restarts=restarts)
                want.append((trace.structure, trace.objective))
        assert got == want, (case, n1, n2, max_blocks, restarts)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, case
    for case in range(12):
        n1, n2 = (int(n) for n in rng.integers(3, 9, size=2))
        k1, k2 = (int(k) for k in rng.integers(2, 5, size=2))
        args = (np.round(rng.standard_normal(n1 * n2)), BiclusterFamily(n1, n2), 1.0, 0.5,
                k1, k2)
        seed, max_iter = int(rng.integers(0, 2**31)), case % 2 + 1
        got = alternating_bicluster(*args, np.random.default_rng(seed), restarts=4,
                                    max_iter=max_iter)
        want = full_rescoring_alternating_bicluster(*args, np.random.default_rng(seed),
                                                    restarts=4, max_iter=max_iter)
        assert (got.structure, got.objective, got.history) == \
            (want.structure, want.objective, want.history), case


def test_large_heuristic_bicluster_stays_within_the_chunk_budget(monkeypatch):
    """The lockstep search scores its labelings (`label_rss`) and screens
    its restarts in chunks of `LABEL_BLOCK` floats, so a heuristic select
    on a 40 x 40 bicluster peaks at about eleven chunks of a 4,096-float
    budget in traced memory; one unchunked stack of its 44 restarts'
    labelings takes some 2.4 MB."""
    import tracemalloc

    budget = 4096
    monkeypatch.setattr(structures, "LABEL_BLOCK", budget)
    monkeypatch.setattr(selection, "LABEL_BLOCK", budget)
    fam = BiclusterFamily(40, 40)
    y = np.random.default_rng(1).standard_normal(fam.ambient_dim)
    proj = Projections(y, fam)
    tracemalloc.start()
    try:
        select_penalized(y, fam, 1.0, 1.0, mode="heuristic", rng=np.random.default_rng(0),
                         max_blocks=2, proj=proj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * budget


def test_bicluster_select_scores_few_moves_exactly(tmp_path, monkeypatch):
    """The fixed 8x8 bicluster `select` of the benchmark (seed 20261018)
    scored 25,745 structures with `objective` when every move was scored in
    full; screening by block sums must keep its exact scores, now the
    labelings that the label kernel (`BiclusterFamily.label_rss`) scores,
    under a third of that."""
    from projstruct.cli import main

    fixed = np.random.default_rng(20261018)
    rows, cols = fixed.permutation(8) % 2, fixed.permutation(8) % 2
    mat = fixed.uniform(2.5, 3.5) * (rows[:, None] == cols[None, :]) \
        + fixed.standard_normal((8, 8))
    data = tmp_path / "y.csv"
    np.savetxt(data, mat.reshape(-1, 1), delimiter=",", fmt="%.17g")
    config = tmp_path / "select.json"
    config.write_text(json.dumps({
        "family": {"kind": "bicluster", "n1": 8, "n2": 8}, "sigma": 1.0, "kappa": 1.0,
        "posterior_top_k": 5, "mode": "heuristic", "data": {"file": str(data)}}))
    calls = [0]
    real = BiclusterFamily.label_rss

    def counting(self, y, row_labels, col_labels):
        calls[0] += len(row_labels)
        return real(self, y, row_labels, col_labels)

    monkeypatch.setattr(BiclusterFamily, "label_rss", counting)
    assert main(["select", "--config", str(config), "--seed", "20261018",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert 0 < calls[0] < 25_745 // 3


def per_hi_segmentations(cost, max_cuts: int):
    """Optimal segmentation of 0..n into nonempty runs for every cut count.

    cost[lo, hi] is the additive cost of the run lo:hi (+inf forbids it).
    Returns [(total, cuts)] for 0..max_cuts cuts, cuts the sorted interior run
    starts; ties go to the smallest last cut (first argmin).  Segment
    neighbourhood DP, O(n^2 * max_cuts).
    """
    n = cost.shape[0] - 1
    best = np.full((max_cuts + 1, n + 1), np.inf)
    back = np.zeros((max_cuts + 1, n + 1), dtype=int)
    best[0] = cost[0]
    for k in range(1, max_cuts + 1):
        for hi in range(k + 1, n + 1):
            cand = best[k - 1, k:hi] + cost[k:hi, hi]
            j = int(np.argmin(cand))
            best[k, hi] = cand[j]
            back[k, hi] = j + k
    out = []
    for k in range(max_cuts + 1):
        cuts = []
        hi = n
        for kk in range(k, 0, -1):
            hi = int(back[kk, hi])
            cuts.append(hi)
        out.append((float(best[k, n]), cuts[::-1]))
    return out


def _rounded(y, rep):
    """y as is, rounded to integers or rounded to halves (ties), by rep % 3."""
    if rep % 3 == 1:
        return np.round(y)
    if rep % 3 == 2:
        return np.round(2.0 * y) / 2.0
    return y


def test_segment_dp_matches_per_hi_loop():
    """One numpy step per cut count gives the per-hi loop's floats and cuts,
    ties included, for every budget (a budget's table is a prefix of the
    full one, since no row depends on the budget)."""
    rng = np.random.default_rng(90)
    cases = [(n, rep) for n in range(1, 65) for rep in range(3)] + [(512, 0)]
    for n, rep in cases:
        y = _rounded(rng.standard_normal(n) * rng.uniform(0.5, 3.0), rep)
        full = [(sse, tuple(c - 1 for c in cuts))
                for sse, cuts in per_hi_segmentations(selection._sse_costs(y), n - 1)]
        budgets = range(n) if n <= 64 else (0, 1, 7, n - 1)
        for budget in budgets:
            assert repr(break_table(y, budget)) == repr(full[:budget + 1]), (n, rep, budget)


def test_segment_dp_matches_per_hi_loop_with_ties_at_n_512():
    """Data rounded to halves at n = 512 hit many exactly tied candidates;
    every budget up to 40 keeps the per-hi loop's totals and first-argmin
    cuts.  With these 9 distinct values, 12 of the 41 budgets have an exact
    tie on their optimal path, so taking the last argmin changes their cuts."""
    rng = np.random.default_rng(92)
    y = np.round(2.0 * rng.standard_normal(512) * 0.6) / 2.0
    full = [(sse, tuple(c - 1 for c in cuts))
            for sse, cuts in per_hi_segmentations(selection._sse_costs(y), 40)]
    for budget in range(41):
        assert repr(break_table(y, budget)) == repr(full[:budget + 1]), budget


def _near_minimum_oracle(obj):
    """`_near_minimum` with the NaN-skipping reductions."""
    width = 2 * (obj.size + 1) * selection.TIE_RTOL * (1.0 + np.nanmax(np.abs(obj)))
    return np.flatnonzero(obj <= np.nanmin(obj) + width).tolist()


def test_near_minimum_matches_the_nan_reduction_formula():
    """Plain min and max give the NaN-skipping formula's list on random,
    tied and +inf objectives (the objective holds no NaN)."""
    rng = np.random.default_rng(93)
    cases = []
    for size in (1, 2, 7, 64, 513):
        obj = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 6)
        cases.append(obj)
        cases.append(np.round(obj))  # ties
        near = obj.min() + np.abs(obj) * 1e-13 * rng.integers(0, 3, size)
        cases.append(near)  # within a few tie tolerances of the minimum
        spread = obj.copy()
        spread[rng.integers(0, size)] = math.inf
        cases.append(spread)
    cases += [np.full(5, math.inf), np.array([0.0, math.inf, 0.0]), np.zeros(9)]
    for obj in cases:
        assert selection._near_minimum(obj) == _near_minimum_oracle(obj), obj


@pytest.mark.parametrize("kappa", [1e308, 9e307])
def test_select_rejects_a_kappa_whose_double_overflows(kappa):
    """pen = 2 * kappa * rho: with 2 * kappa = inf a zero majorant gives a
    NaN penalty, so such a kappa is refused before any objective."""
    with pytest.raises(ValueError, match="2\\*kappa"):
        select_penalized(np.ones(8), SmoothnessFamily(8), 1.0, kappa)
    with np.errstate(over="ignore"):  # 2 * kappa * rho overflows for rho > 1
        chosen, _ = select_penalized(np.ones(8), SmoothnessFamily(8), 1.0, 8e307)
    assert chosen == Truncation(0)


def test_select_rejects_a_sigma_whose_square_underflows():
    """sigma = 1e-200 is positive, but sigma**2 is 0.0, and rss / sigma**2 in
    the posterior's weights would be inf or NaN."""
    with pytest.raises(ValueError, match="sigma\\*\\*2"):
        select_penalized(np.ones(8), SmoothnessFamily(8), 1e-200, 1.0)
    chosen, _ = select_penalized(np.ones(8), SmoothnessFamily(8), 1e-150, 1.0)
    assert chosen == Truncation(8)


def test_segmentations_match_per_hi_loop_on_clustering_costs():
    """Clustering-style costs (SSE - run penalty, +inf for runs shorter than
    2): cut counts past k/2 - 1 leave columns, and totals, all +inf."""
    rng = np.random.default_rng(91)
    for rep in range(60):
        k = int(rng.integers(1, 16))
        y = _rounded(rng.standard_normal(k) * rng.uniform(0.3, 3.0), rep)
        cost = selection._sse_costs(np.sort(y))
        lo, hi = np.ogrid[:k + 1, :k + 1]
        pen = 2.0 * float(rng.uniform(0.0, 2.0)) * np.array(
            [math.lgamma(ln + 1) for ln in range(k + 1)])
        cost -= pen[np.maximum(hi - lo, 0)]
        cost[hi - lo < 2] = np.inf
        for max_cuts in range(k):
            got = list(selection._segmentations(cost, max_cuts))
            assert repr(got) == repr(per_hi_segmentations(cost, max_cuts)), (rep, max_cuts)
        assert got[-1][0] == math.inf  # k - 1 cuts leave runs of length 1


def full_scoring_select(Y, family, sigma, kappa, pen_variant="main"):
    """The nested-path selector that offers every path entry."""
    tracker = _ArgminTracker(family)
    for s, sse in path_entries(Y, family):
        tracker.offer(s, sse + sigma**2 * selection.penalty(family, s, kappa, pen_variant))
    s, _ = tracker.result()
    return s, objective(Y, family, s, sigma, kappa, pen_variant)


def test_stopped_paths_match_full_scoring():
    rng = np.random.default_rng(92)
    makers = {
        "jump": JumpFamily,
        "sparsity": SparsityFamily,
        "sparsity-rho-prime": lambda n: SparsityFamily(n, majorant_variant="rho_prime"),
        "smoothness": SmoothnessFamily,
        "banding": lambda n: BandingFamily(max(1, n // 4)),
    }
    for rep in range(90):
        n = int(rng.integers(2, 41))
        for name, make in makers.items():
            fam = make(n)
            theta = np.repeat(rng.uniform(-4.0, 4.0, 3), [n // 3, n // 3, n - 2 * (n // 3)])
            if name == "banding":
                theta = rng.uniform(-4.0, 4.0, fam.ambient_dim)
            y = _rounded(theta + rng.standard_normal(fam.ambient_dim) * rng.uniform(0.0, 2.0),
                         rep)
            for sigma in (1e-3, 1e-2, 0.3, 1.0, 10.0, 1e2):
                for pen_variant in ("main", "map"):
                    kappa = float(rng.uniform(0.2, 2.0))
                    got = select_penalized(y, fam, sigma, kappa, pen_variant=pen_variant)
                    want = full_scoring_select(y, fam, sigma, kappa, pen_variant)
                    assert got[0] == want[0] and got[1] == want[1], (name, rep, sigma)


def test_rho_prime_sparsity_path_is_scored_in_full():
    """max{s, log C(n, s)} falls past s = n/2, so sigma^2 * pen alone can
    exceed the kept objective at s = 50 while a larger support wins."""
    fam = SparsityFamily(100, majorant_variant="rho_prime")
    assert fam.size_majorant(51) < fam.size_majorant(50)
    y = np.concatenate([np.full(49, 10.0), np.full(51, 1e-3)])
    s, obj = select_penalized(y, fam, 1.0, 1.0)
    assert (s, obj) == full_scoring_select(y, fam, 1.0, 1.0)
    assert len(s.indices) > 50
    assert selection.penalty(fam, SparseSet(tuple(range(50))), 1.0) > \
        objective(y, fam, SparseSet(tuple(range(49))), 1.0, 1.0) > obj


def _band_select(Y, family, sigma, kappa, pen_variant, tolerances):
    """The nested-path selector that offers only the entries within the given
    number of tie tolerances, TIE_RTOL * (1 + max|obj|), of the minimum."""
    path = path_entries(Y, family)
    obj = np.array([sse + sigma**2 * selection.penalty(family, s, kappa, pen_variant)
                    for s, sse in path])
    top = obj.min() + tolerances * TIE_RTOL * (1.0 + np.abs(obj).max())
    tracker = _ArgminTracker(family)
    for (s, _), value in zip(path, obj):
        if value <= top:
            tracker.offer(s, value)
    return tracker.result()[0]


@pytest.mark.parametrize("name, make, n", [
    ("smoothness", SmoothnessFamily, 30),
    ("sparsity", SparsityFamily, 30),
    ("sparsity-rho-prime", lambda n: SparsityFamily(n, majorant_variant="rho_prime"), 30),
    ("banding", BandingFamily, 14),
])
@pytest.mark.parametrize("pen_variant", ["main", "map"])
def test_tie_chains_longer_than_a_fixed_band_match_full_scoring(name, make, n, pen_variant,
                                                                monkeypatch):
    """Ten path entries whose objectives fall by 0.9 tie tolerances per size
    chain the tracker's improvements: each one two sizes on beats the kept
    entry, the one next to it ties and loses on its key.  Where the chain
    enters the band decides the winner, so a band of 4 tolerances picks
    another structure than scoring the whole path; the selector must not."""
    fam = make(n)
    sigma, kappa = 1.0, 0.7
    y = np.random.default_rng(95).standard_normal(fam.ambient_dim)
    real = selection._SIZE_PATHS[fam.tag]
    build = real(y, fam).build
    base = 1000.0
    step = 0.9 * TIE_RTOL * (1.0 + base)
    first, length = 3, 10  # sizes 3..12, below n/2, where rho' still rises
    target = np.full(fam.n_sizes, base + 1.0)
    target[first:first + length] = base + step * np.arange(length - 1, -1, -1)
    pen = np.array([sigma**2 * selection.penalty(fam, build(k), kappa, pen_variant)
                    for k in range(fam.n_sizes)])
    sse = target - pen

    def chained(y, family):
        return real(y, family)._replace(sse=sse)

    monkeypatch.setitem(selection._SIZE_PATHS, fam.tag, chained)
    want = full_scoring_select(y, fam, sigma, kappa, pen_variant)
    assert select_penalized(y, fam, sigma, kappa, pen_variant=pen_variant) == want
    assert _band_select(y, fam, sigma, kappa, pen_variant, 4) != want[0]
    assert _band_select(y, fam, sigma, kappa, pen_variant, 2 * (fam.n_sizes + 1)) == want[0]


def test_smoothness_select_scores_its_path_without_per_size_majorants(monkeypatch):
    """At n = 4096 on a rate-scaling input (Sobolev beta = 1, Q = 1000, sigma
    = 1/sqrt(n)) the selector reads a handful of majorants, one per offered
    entry and one for the reported objective; scoring entry by entry would
    read thousands."""
    n = 4096
    idx = np.arange(1, n + 1, dtype=float)
    theta = math.sqrt(1000.0 / np.sum(1.0 / idx)) * idx ** -1.5
    sigma = 1.0 / math.sqrt(n)
    y = theta + sigma * np.random.default_rng(96).standard_normal(n)
    fam = SmoothnessFamily(n)
    calls = [0]
    real = Family.majorant

    def counting(self, structure):
        calls[0] += 1
        return real(self, structure)

    monkeypatch.setattr(Family, "majorant", counting)
    got = select_penalized(y, fam, sigma, 1.0)
    assert 0 < calls[0] <= 8
    monkeypatch.setattr(Family, "majorant", real)
    assert got == full_scoring_select(y, fam, sigma, 1.0)


@pytest.mark.parametrize("name", sorted(small_families()))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_select_rejects_non_finite_sigma_and_kappa(name, bad):
    fam = small_families()[name]
    y = np.random.default_rng(97).standard_normal(fam.ambient_dim)
    for sigma, kappa in ((bad, 1.0), (1.0, bad)):
        for mode in ("exact", "heuristic"):
            with pytest.raises(ValueError, match="sigma and kappa must be positive"):
                select_penalized(y, fam, sigma, kappa, mode=mode)


def test_select_rejects_data_and_sigma_whose_squares_overflow():
    """Both end in one ValueError before scoring, with no overflow warning
    (the suite turns warnings into errors)."""
    fam = SparsityFamily(3)
    with pytest.raises(ValueError, match="sum of squares of Y overflows"):
        select_penalized([1e200, 1.0, 2.0], fam, 1.0, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        Projections([1.0, -1e160, 0.0], fam)
    with pytest.raises(ValueError, match="sigma\\*\\*2"):
        select_penalized([1.0, 1.0, 2.0], fam, 1e200, 1.0)


def test_settled_uses_the_kept_objective_not_the_running_minimum():
    """A tie keeps A (smaller key) at objective a while B's lower objective
    sets the running minimum; C, whose pen is past the running minimum's
    tolerance but ties with a, then wins on its key.  A stop against the
    running minimum would drop C."""
    fam = SparsityFamily(4)
    a_s, b_s, c_s = SparseSet((0, 1)), SparseSet((0, 1, 2)), SparseSet((0,))
    a = 10.0
    tol = TIE_RTOL * (1.0 + a)
    b, pen_c = a - 0.9 * tol, a + 0.5 * tol
    tracker = _ArgminTracker(fam)
    tracker.offer(a_s, a)
    tracker.offer(b_s, b)
    assert tracker.result() == (a_s, a)
    running_min = min(a, b)
    assert pen_c > running_min + TIE_RTOL * (1.0 + abs(running_min))
    assert not tracker.settled(pen_c)
    tracker.offer(c_s, pen_c)  # SSE 0
    assert tracker.result()[0] == c_s
    assert tracker.settled(a + 2.0 * tol)


def test_settled_offers_leave_the_tracker_unchanged():
    rng = np.random.default_rng(93)
    fam = SparsityFamily(6)
    supports = [SparseSet(c) for size in range(7) for c in itertools.combinations(range(6), size)]
    for _ in range(200):
        tracker = _ArgminTracker(fam)
        for _ in range(int(rng.integers(1, 6))):
            tracker.offer(supports[rng.integers(len(supports))],
                          float(rng.choice([1.0, 1.0 + 5e-12, 1.0 - 5e-12, 2.0])))
        floor = tracker.best_obj + TIE_RTOL * (1.0 + abs(tracker.best_obj)) * rng.uniform(0, 3)
        if not tracker.settled(floor):
            continue
        state = (tracker.best, tracker.best_obj, tracker.best_tie)
        for s in supports:
            tracker.offer(s, floor)
        assert (tracker.best, tracker.best_obj, tracker.best_tie) == state


def _improves_min_form(obj, best):
    return obj < best - TIE_RTOL * (1.0 + abs(min(best, obj)))


def _improves_obj_form(obj, best):
    return obj < best - TIE_RTOL * (1.0 + abs(obj))


def test_improves_matches_both_written_out_spellings():
    """`_improves` against the two forms the selectors once wrote out, the
    tolerance from |min(best, obj)| and from |obj|, at magnitudes 1e-20 to
    1e20, near ties, best = +inf and other edge values."""
    rng = np.random.default_rng(2026)
    mags = 10.0 ** rng.uniform(-20.0, 20.0, 2000) * rng.choice([-1.0, 1.0], 2000)
    pairs = [(m * (1.0 + k * TIE_RTOL), m)
             for m in mags for k in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)]
    pairs += [(float(a), float(b)) for a, b in zip(mags, rng.permutation(mags))]
    edges = [0.0, -0.0, 1.0, -1.0, 1e-20, -1e20, 5e-324, 1.7e308, math.inf, -math.inf,
             math.nan]
    pairs += [(a, b) for a in edges + list(mags[:50]) for b in edges]
    for obj, best in pairs:
        want = _improves_min_form(obj, best)
        assert want == _improves_obj_form(obj, best) == selection._improves(obj, best), \
            (obj, best)
    assert selection._improves(1e20, math.inf) and not selection._improves(math.inf, math.inf)


def test_tracker_offer_matches_the_written_out_rule():
    """`_ArgminTracker.offer` against its rule with one tolerance from
    |min(best, obj)| for both the improvement and the tie clause."""
    rng = np.random.default_rng(94)
    fam = SparsityFamily(5)
    supports = [SparseSet(c) for size in range(6) for c in itertools.combinations(range(5), size)]
    for _ in range(300):
        tracker = _ArgminTracker(fam)
        best, best_obj, best_tie = None, math.inf, None
        scale = 10.0 ** rng.uniform(-20.0, 20.0)
        for _ in range(int(rng.integers(1, 12))):
            s = supports[rng.integers(len(supports))]
            obj = scale * float(rng.choice([1.0, 1.0 + 5e-13, 1.0 - 5e-13, 1.0 + 3e-12, 2.0]))
            tracker.offer(s, obj)
            tol = TIE_RTOL * (1.0 + abs(min(best_obj, obj)))
            key = (fam.majorant(s), fam.sort_key(s))
            if obj < best_obj - tol:
                best, best_obj, best_tie = s, obj, key
            elif obj <= best_obj + tol and (best_tie is None or key < best_tie):
                best, best_tie, best_obj = s, key, min(best_obj, obj)
            assert (tracker.best, tracker.best_obj, tracker.best_tie) == (best, best_obj, best_tie)


def _jump_input(kind):
    """The benchmark's n=512 jump inputs: flat, or the fixed three-level step."""
    if kind == "flat":
        rng = np.random.default_rng(20261016)
        return rng.uniform(-2.0, 2.0) + 0.05 * rng.standard_normal(512)
    return np.repeat([0.0, 3.0, 1.0], [170, 171, 171]) \
        + np.random.default_rng(20261017).standard_normal(512)


@pytest.mark.parametrize("kind, most", [("flat", 2), ("step", 40)])
def test_jump_select_reads_few_path_entries(kind, most, monkeypatch):
    """The flat input and the step input of seed 20261017 read 2 and 39 of
    the 512 path entries; reading all of them would mean the stop is off."""
    read = [0]
    real = selection._PATHS["jump"]

    def counting(y, family):
        for entry in real(y, family):
            read[0] += 1
            yield entry

    monkeypatch.setitem(selection._PATHS, "jump", counting)
    y, fam = _jump_input(kind), JumpFamily(512)
    s, obj = select_penalized(y, fam, 1.0, 1.0)
    assert 0 < read[0] <= most
    monkeypatch.setitem(selection._PATHS, "jump", real)
    assert (s, obj) == full_scoring_select(y, fam, 1.0, 1.0)


def test_projection_memo_stores_read_only_projections(families):
    """Every row that `project` computes has the bytes of `family.project`,
    is stored read-only, and is read back from the memo the next time."""
    rng = np.random.default_rng(21)
    for name, fam in families.items():
        y = rng.standard_normal(fam.ambient_dim)
        proj = selection.Projections(y, fam)
        structs = enumerate_small(fam)[:6]
        for i, s in enumerate(structs):
            first = proj.project(s)
            assert list(proj.stored) == structs[:i + 1], name
            p = proj.project(s)
            assert p is proj.stored[s] and p.tobytes() == first.tobytes(), name
            assert not first.flags.writeable and not p.flags.writeable, name
            with pytest.raises(ValueError):
                p[0] = 1.0
            assert p.tobytes() == fam.project(s, y).tobytes(), name
            assert proj.rss(s) == sq_norm(y - fam.project(s, y)), name


def test_project_all_reads_and_keeps_what_project_does(families, monkeypatch):
    """`project_all` gives the bytes of `family.project` row by row,
    read-only, and stores every row as `project` does while the memo holds
    fewer than POSTERIOR_CAPS.max_count rows; a stored row is read without
    validating or projecting it again, and invalid or wrong-length input
    raises."""
    rng = np.random.default_rng(22)
    monkeypatch.setattr(selection, "POSTERIOR_CAPS", selection.Caps(max_count=5))
    for name, fam in families.items():
        y = rng.standard_normal(fam.ambient_dim)
        structs = enumerate_small(fam)[:8]
        want = [fam.project(s, y) for s in structs]
        proj = selection.Projections(y, fam)
        first = proj.project(structs[0])
        assert not first.flags.writeable and first.tobytes() == want[0].tobytes(), name
        assert list(proj.stored) == structs[:1], name
        assert proj.project(structs[0]) is proj.stored[structs[0]], name
        kept = proj.stored[structs[0]]
        rows = proj.project_all(structs)
        assert proj.stored[structs[0]] is kept and kept.tobytes() == first.tobytes(), name
        assert not rows.flags.writeable, name
        assert [r.tobytes() for r in rows] == [w.tobytes() for w in want], name
        assert list(proj.stored) == structs[:5], name
        for s, row in proj.stored.items():
            assert not row.flags.writeable, name
            assert row.tobytes() == want[structs.index(s)].tobytes(), name
            with pytest.raises(ValueError):
                row[0] = 1.0
        rss = [sq_norm(y - w) for w in want]
        assert proj.rss_all(structs) == rss and [proj.rss(s) for s in structs] == rss, name
        assert len(proj.stored) == min(5, len(structs)), name
        calls = []
        monkeypatch.setattr(fam, "validate", lambda s: calls.append(s))
        monkeypatch.setattr(fam, "_project_stack", lambda ss, y: calls.append(ss))
        stored = list(proj.stored)
        assert proj.project_all(stored).tobytes() == rows[:len(stored)].tobytes(), name
        assert calls == [], name
    bad = selection.Projections(np.ones(8), SparsityFamily(8))
    with pytest.raises(InvalidStructureError):
        bad.project_all([SparseSet((9,))])
    with pytest.raises(InvalidStructureError):
        bad.project(SparseSet((1, 1)))
    assert bad.stored == {}
    with pytest.raises(DimensionMismatchError):
        selection.Projections(np.ones(7), SparsityFamily(8)).project_all([SparseSet((1,))])


def test_projection_memo_rejects_another_family_or_observation():
    fam = SmoothnessFamily(4)
    y = np.array([3.0, 2.0, 1.0, 0.5])
    proj = selection.Projections(y, fam)
    assert selection.Projections.of(y.copy(), fam, proj) is proj
    with pytest.raises(ValueError, match="memo"):
        select_penalized(y + 1.0, fam, 1.0, 1.0, proj=proj)
    with pytest.raises(ValueError, match="memo"):
        select_penalized(y, SmoothnessFamily(4), 1.0, 1.0, proj=proj)


@pytest.mark.parametrize("fam,mode", [(KnotFamily(13), "exact"),
                                      (BiclusterFamily(5, 5), "heuristic")],
                         ids=["knot-13-bruteforce", "bicluster-5x5-search"])
@pytest.mark.parametrize("pen_variant", ["main", "map"])
def test_objective_validates_each_scored_structure_once(fam, mode, pen_variant, monkeypatch):
    """Scoring validates each structure once, when `Projections.project_all`
    first projects it; its penalty does not validate it again.  The only
    other validations are the tie rule's `majorant` calls.  The bicluster
    search scores its moves off the label arrays (`label_rss`), which builds
    and validates no structure, so there `_finish` alone scores a structure,
    the selected one."""
    y = np.random.default_rng(13).standard_normal(fam.ambient_dim)
    validated, scored, tie_keys, label_scores = Counter(), [], Counter(), []
    validate, score, tie_key = fam.validate, selection._objective_value, _ArgminTracker._tie_key
    label_rss = getattr(fam, "label_rss", None)

    def counting_validate(s):
        validated[s] += 1
        return validate(s)

    def counting_score(family, s, *args):
        scored.append(s)
        return score(family, s, *args)

    def counting_tie_key(tracker, s):
        tie_keys[s] += 1
        return tie_key(tracker, s)

    def counting_label_rss(y, row_labels, col_labels):
        label_scores.extend(row_labels)
        return label_rss(y, row_labels, col_labels)

    monkeypatch.setattr(fam, "validate", counting_validate)
    monkeypatch.setattr(selection, "_objective_value", counting_score)
    monkeypatch.setattr(_ArgminTracker, "_tie_key", counting_tie_key)
    if label_rss is not None:
        monkeypatch.setattr(fam, "label_rss", counting_label_rss)
    got = select_penalized(y, fam, 1.0, 1.0, mode=mode, pen_variant=pen_variant,
                           rng=np.random.default_rng(0))
    monkeypatch.undo()
    if label_rss is None:
        assert got[0] in scored and len(set(scored)) > 100
    else:
        assert scored == [got[0]] and len(label_scores) > 100
    assert validated == Counter(set(scored)) + tie_keys
    # the unvalidated penalty has the bytes of the public, validating one
    for s in set(scored):
        assert (selection._objective_value(fam, s, 1.5, 0.5, 1.0, pen_variant)
                == 1.5 + 0.5**2 * selection.penalty(fam, s, 1.0, pen_variant))
