"""Penalized structure selection.

The selected structure minimizes  ||Y - P_I Y||^2 + sigma^2 * pen(I)  with
pen(I) = 2*kappa*rho(I) (or the model-averaging variant that adds dim L_I).
The method is looked up by family tag.  Nested-path families score one
structure per size: smoothness, banding and sparsity (`_SIZE_PATHS`, each a
`SizePath` whose SSEs the DDM posterior reads too) as one numpy objective
array over sizes, jump (`_PATHS`) lazily along its DP rows;
leveled sparsity scans each level alone; clustering runs one DP over the
sorted order (`_clustering_cells`) that is exact over every cluster count up
to `EXACT_CLUSTERING_MAX_N`; the rest are enumerated within `EXACT_CAPS`,
a chunk of structures per stacked projection (`Projections.project_all`).
Heuristic mode runs the family's search (`_SEARCHES`: regression greedy,
bicluster alternation, the clustering DP with at most max_blocks clusters),
or the exact selector when it has none.  A search, and the exact clustering
DP, leaves the structures it scored on the `Projections` memo
(`Projections.searched`), where the restricted posterior reads them.  The
jump path (`_break_sets`) runs the segmentation DP `_segmentations`.

On a size-indexed path pen depends on the size alone, so the objective
array is sse + sigma^2 * pen_k with the float operations of `penalty`,
elementwise, and only the sizes within 2(n+2) tie tolerances of its minimum
are offered to the tie rule and built as structures (`_near_minimum` gives
the bound).  The jump path stops once the penalty alone loses: when
sigma^2 * pen of the next entry exceeds the tracker's kept objective by
more than the tie tolerance, that entry and every later one leave the
result as it is (`_ArgminTracker.settled`).  This is exact because pen
never decreases along it and every SSE is >= 0 (clipped DP costs), so each
later objective is at least its pen.  The bound is the kept objective, not
the running minimum of the offers: a tie that keeps the earlier structure
leaves the kept objective above that minimum, and a later offer can still
tie with it and win on its key.

The bicluster alternation scores a move exactly only when the move can
decide its sweep: block sums give every move's objective up to rounding,
and a move whose approximation lies clearly above the current objective or
above the best move's cannot change which move the exact tie rule picks, so
it is skipped (`alternating_bicluster` gives the bound).  The exact scores
come from the label arrays through one block-mean kernel
(`BiclusterFamily.label_rss`), not through a structure and the memo.
Decisions and stored objectives are those of scoring every move in full.
The heuristic search runs the restarts of every block-count pair in
lockstep (`_alternations`): each step screens all running restarts in one
batch per axis and scores all their kept moves in one kernel call, so the
per-call overhead of numpy on small arrays is paid per step, not per
restart and move.

Ties are broken deterministically: objectives within a relative 1e-12 band
count as equal, and among tied structures the one with the smallest majorant,
then the smallest canonical sort key, wins.  `_ArgminTracker` holds this rule;
the exact selectors, the brute force and the alternating bicluster restarts
all use it, so they return identical structures.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, ExactModeUnavailableError
from .linalg import as_vector, finite_energy, sq_norm
from .structures import (
    Band,
    Bicluster,
    Caps,
    Family,
    JumpSet,
    LABEL_BLOCK,
    MultiLevelPartition,
    RegressionSupport,
    SparseSet,
    Truncation,
    canonical_partition,
    sorted_tuple,
)

TIE_RTOL = 1e-12


def _improves(obj: float, best: float) -> bool:
    """Whether obj lies below best by more than the tie tolerance."""
    return obj < best - TIE_RTOL * (1.0 + abs(obj))


def penalty(family: Family, structure, kappa: float, pen_variant: str = "main") -> float:
    """pen(I) = 2*kappa*rho(I), plus dim(L_I) for the "map" variant."""
    dim = family.dim(structure) if pen_variant == "map" else 0
    return _penalty_value(family.majorant(structure), dim, kappa, pen_variant)


def _penalty_value(rho: float, dim: int, kappa: float, pen_variant: str) -> float:
    """`penalty` from the majorant rho and the dimension dim."""
    pen = 2.0 * kappa * rho
    if pen_variant == "map":
        pen += dim
    elif pen_variant != "main":
        raise ValueError(f"unknown penalty variant {pen_variant!r}")
    return pen


def _size_penalties(family: Family, kappa: float, pen_variant: str) -> np.ndarray:
    """pen_k, the `penalty` of a size-k structure of a size-indexed family,
    for every size k, from the family's per-size vectors."""
    return _penalty_value(family.size_majorants, family.size_dims, kappa, pen_variant)


class Projections:
    """P_I Y for one observation Y, shared by the selector, the structure
    posterior and the model-averaging mean.

    A caller makes one memo per Y and passes it to each of them; the memo
    goes when the call that made it ends, so it never outlives its Y.  It
    checks Y once, when it is made: one `finite_energy` pass, which a Y with
    a non-finite entry fails too, and its length; no projection checks Y
    again.  A `simulate` replication makes one memo of each draw and hands
    it to the selector, the point estimate and the conditional sampler
    (`experiments._Ctx.memo`).  Every
    projection goes through `project_all`, which takes a list of structures
    and projects those it has not stored in one `family._project_stack`,
    whose rows have the bytes of `family.project`; `project` and `rss` are
    its one-structure form.  The first request for a structure validates
    it, once.  The brute force, the enumerated posterior and `ma_mean` walk
    their structures in chunks of `PROJECTION_CHUNK`.  Every projected row
    is stored read-only while the memo holds fewer than
    `POSTERIOR_CAPS.max_count` rows, at 8 * N bytes each plus array overhead
    (a stored row holds the array of the rows projected with it, at most one
    chunk more); past that rows are computed and not kept.  So `ma_mean`
    reads the rows the posterior projected, and the posterior those the
    selector projected (the bicluster search scores its moves from labels
    and projects only the selected structure).  Size-indexed families
    (`size_path`) score their sizes, and weigh their posterior candidates,
    from the path's SSE array, so only their selected structure is
    projected.

    `searched` is what the last `select_penalized` on this memo scored when
    it ran a search (heuristic regression, bicluster and clustering, and the
    exact clustering DP): those structures, duplicate-free in canonical
    order; None when no search ran.  The restricted posterior ranges over
    this list, so it holds the selected structure.
    """

    def __init__(self, Y, family: Family):
        # one pass: a finite sum of squares has finite entries, so `as_vector`
        # runs only to raise its error for a wrong shape or a non-finite
        # entry, and `as_point` only for a wrong length
        y = np.asarray(Y, dtype=float)
        if y.ndim != 1 or y.size < 1 or not finite_energy(y):
            as_vector(y)
            raise ValueError("the sum of squares of Y overflows the float range")
        if y.size != family.ambient_dim:
            family.as_point(y)
        self.y = y
        self.family = family
        self.stored: dict = {}
        self.searched: list | None = None

    @classmethod
    def of(cls, Y, family: Family, proj: Projections | None):
        """proj, which must hold this family and Y, or a new memo when None."""
        if proj is None:
            return cls(Y, family)
        if proj.family is not family or not (proj.y is Y or np.array_equal(proj.y, Y)):
            raise ValueError("the projection memo holds another family or observation")
        return proj

    def project(self, structure) -> np.ndarray:
        """Row 0 of `project_all([structure])`; a stored row itself."""
        out = self.stored.get(structure)
        return self.project_all([structure])[0] if out is None else out

    def project_all(self, structures) -> np.ndarray:
        """The read-only (K, N) array whose row k is P_I Y for
        I = structures[k]: stored rows come from the memo, and the others are
        validated and then projected in one `family._project_stack`, whose
        rows have the bytes of `family.project`, and stored, within the
        memo's bound."""
        y, structures = self.y, list(structures)
        out = np.empty((len(structures), y.size))
        missing = []
        for k, s in enumerate(structures):
            row = self.stored.get(s)
            if row is None:
                self.family.validate(s)
                missing.append(k)
            else:
                out[k] = row
        if missing:
            rows = self.family._project_stack([structures[k] for k in missing], y)
            out[missing] = rows
            rows.flags.writeable = False
            room = max(0, POSTERIOR_CAPS.max_count - len(self.stored))
            for k, row in zip(missing[:room], rows):
                self.stored.setdefault(structures[k], row)
        out.flags.writeable = False
        return out

    def rss(self, structure) -> float:
        """||Y - P_I Y||^2."""
        return self.rss_all([structure])[0]

    def rss_all(self, structures) -> list[float]:
        """||Y - P_I Y||^2 of each structure, from one `project_all`.  Y has
        finite energy, so no residual overflows and none needs `sq_norm`'s
        check."""
        return [float(np.dot(r, r)) for r in self.y - self.project_all(structures)]


# structures per `Projections.project_all` call where a caller walks an
# enumeration: a chunk of N floats each, however long the enumeration
PROJECTION_CHUNK = 1024


def chunks(structures):
    """Consecutive lists of at most `PROJECTION_CHUNK` items of the
    iterable, lazily."""
    it = iter(structures)
    while chunk := list(itertools.islice(it, PROJECTION_CHUNK)):
        yield chunk


def objective(Y, family: Family, structure, sigma: float, kappa: float,
              pen_variant: str = "main", proj: Projections | None = None) -> float:
    rss = Projections.of(Y, family, proj).rss(structure)
    return _objective_value(family, structure, rss, sigma, kappa, pen_variant)


def _objective_value(family: Family, structure, rss: float, sigma: float, kappa: float,
                     pen_variant: str) -> float:
    """`objective` of a structure whose ||Y - P_I Y||^2 is rss.  The
    structure was validated when `Projections.project_all` projected it, so
    its penalty reads `_majorant` and `_dim` without validating it again."""
    dim = family._dim(structure) if pen_variant == "map" else 0
    return rss + sigma**2 * _penalty_value(family._majorant(structure), dim, kappa,
                                           pen_variant)


class _ArgminTracker:
    """Running argmin with the shared tolerance tie rule."""

    def __init__(self, family: Family):
        self.family = family
        self.best = None
        self.best_obj = math.inf
        self.best_tie = None

    def _tie_key(self, structure):
        return (self.family.majorant(structure), self.family.sort_key(structure))

    def offer(self, structure, obj: float):
        if _improves(obj, self.best_obj):
            self.best, self.best_obj, self.best_tie = structure, obj, self._tie_key(structure)
        elif obj <= self.best_obj + TIE_RTOL * (1.0 + abs(self.best_obj)):
            key = self._tie_key(structure)
            if self.best_tie is None or key < self.best_tie:
                self.best, self.best_tie = structure, key
                self.best_obj = min(self.best_obj, obj)

    def settled(self, floor: float) -> bool:
        """Whether no offer with an objective of at least floor can change
        the result: floor lies above the kept objective by more than the tie
        tolerance, so `offer` would neither take nor tie such an offer."""
        return floor > self.best_obj + TIE_RTOL * (1.0 + abs(self.best_obj))

    def result(self):
        if self.best is None:
            raise ValueError("no candidate structures offered")
        return self.best, self.best_obj


def select_bruteforce(Y, family: Family, sigma: float, kappa: float,
                      caps: Caps | None = None, pen_variant: str = "main",
                      proj: Projections | None = None):
    """Global minimizer by exhaustive search over the capped enumeration."""
    proj = Projections.of(Y, family, proj)
    tracker = _ArgminTracker(family)
    for chunk in chunks(family.enumerate_structures(caps)):
        for structure, rss in zip(chunk, proj.rss_all(chunk)):
            tracker.offer(structure, _objective_value(family, structure, rss, sigma, kappa,
                                                      pen_variant))
    return tracker.result()


def _finish(proj, sigma, kappa, pen_variant, tracker):
    structure, _ = tracker.result()
    # report the objective through the shared evaluator for cross-checks
    return structure, objective(proj.y, proj.family, structure, sigma, kappa, pen_variant, proj)


# ---------------------------------------------------------------------------
# Segmentation dynamic program (piecewise-constant SSE)
# ---------------------------------------------------------------------------


def _sse_costs(y):
    """cost[lo, hi]: SSE of y[lo:hi] around its mean (+inf when lo >= hi),
    for 0 <= lo, hi <= n; built in place to hold few (n+1)^2 temporaries."""
    n = y.size
    cs = np.concatenate([[0.0], np.cumsum(y)])
    cs2 = np.concatenate([[0.0], np.cumsum(y * y)])
    lo, hi = np.ogrid[:n + 1, :n + 1]
    t = cs[hi] - cs[lo]
    t *= t
    t /= np.maximum(hi - lo, 1)
    cost = cs2[hi] - cs2[lo]
    cost -= t
    np.maximum(cost, 0.0, out=cost)
    cost[lo >= hi] = np.inf
    return cost


def _segmentations(cost, max_cuts: int):
    """Optimal segmentation of 0..n into nonempty runs for each cut count.

    cost[lo, hi] is the additive cost of the run lo:hi; +inf forbids it, and
    it must be +inf wherever lo >= hi.  Yields (total, cuts) for 0, 1, ...,
    max_cuts cuts, lazily, so a caller that stops early skips the larger cut
    counts; cuts are the sorted interior run starts, and ties go to the
    smallest last cut (first argmin).  Segment neighbourhood DP (Auger &
    Lawrence 1989) with one numpy step, O(n^2), per cut count: row k holds,
    for every end hi, the best total of k cuts over 0:hi.

    The steps run on a contiguous layout: the run costs are transposed once,
    when the first cut count is asked for, so that the candidates of one end
    hi are one contiguous row, and each cut count adds its candidates into
    one reused buffer and takes the first argmin along the rows.  Each
    candidate is the same sum of two floats as in the column layout of
    cost, so totals and cuts, ties included, are those of the first argmin
    down the columns of cost.
    """
    n = cost.shape[0] - 1
    row = cost[0, 1:]  # the best totals of k cuts for hi = k+1..n; here k = 0
    yield float(row[-1]), []
    by_end = np.ascontiguousarray(cost.T)  # by_end[hi, lo] = cost[lo, hi]
    buf = np.empty(max(n - 1, 0) ** 2)
    back = []  # back[k - 1][hi - k - 1]: the last cut of the best k cuts over 0:hi
    for k in range(1, max_cuts + 1):
        m = n - k
        # cand[hi - k - 1, lo - k]: the run lo:hi (+inf if lo >= hi) after
        # k - 1 cuts over 0:lo
        cand = np.add(by_end[k + 1:, k:n], row[:-1], out=buf[:m * m].reshape(m, m))
        j = cand.argmin(axis=1)
        row = cand[np.arange(m), j]  # a copy: the buffer is reused
        back.append(j + k)
        cuts, hi = [], n
        for kk in range(k, 0, -1):
            hi = int(back[kk - 1][hi - kk - 1])
            cuts.append(hi)
        yield float(row[-1]), cuts[::-1]


def _break_sets(y, max_breaks: int):
    """(sse, breaks) for 0, 1, ..., max_breaks breaks, lazily."""
    # a break sits after the last index of its run
    for sse, cuts in _segmentations(_sse_costs(y), max_breaks):
        yield sse, tuple(cut - 1 for cut in cuts)


# ---------------------------------------------------------------------------
# Nested paths: (structure, SSE) pairs, one per size, holding the minimizer
# ---------------------------------------------------------------------------


class SizePath(NamedTuple):
    """A nested path of one structure per size k = 0..n_sizes-1: sse[k] is
    ||Y - P_k Y||^2 and build(k) the size-k structure; mean(weights) is
    sum_k weights[k] P_k Y, or None where no caller needs it (sparsity, whose
    theta_tilde averages over all 2^n supports)."""

    sse: np.ndarray
    build: Callable
    mean: Callable | None


def _tail_sums(values) -> np.ndarray:
    """out[k] = sum(values[k:]) for k = 0..len(values), summed from the far
    end.  A tail of squares keeps its relative accuracy however small it is,
    where the total minus a prefix sum would lose it next to the total."""
    out = np.zeros(len(values) + 1)
    np.cumsum(values[::-1], out=out[-2::-1])
    return out


def _smoothness_sizes(y, family):
    # level k keeps y_0..y_{k-1}, so theta_tilde_i = y_i * P(level > i)
    return SizePath(_tail_sums(y * y), Truncation, lambda w: y * _tail_sums(w)[1:-1])


def _banding_sizes(y, family):
    # width w keeps the symmetric part S within distance w of the diagonal,
    # so theta_tilde_ij = S_ij * P(width >= |i - j|); Y - S is in every residual
    mat = y.reshape(family.p, family.p)
    sym = 0.5 * (mat + mat.T)
    anti = (mat - sym).reshape(-1)
    idx = np.arange(family.p)
    dist = np.abs(idx[:, None] - idx[None, :])
    energy = np.bincount(dist.reshape(-1), weights=(sym * sym).reshape(-1), minlength=family.p)
    return SizePath(anti @ anti + _tail_sums(energy)[1:], Band,
                    lambda w: (sym * _tail_sums(w)[dist]).reshape(-1))


def _sparsity_sizes(y, family):
    # size k keeps the k largest |y_i|, ties in index order
    order = np.argsort(-np.abs(y), kind="stable")
    return SizePath(_tail_sums((y * y)[order]),
                    lambda size: SparseSet(tuple(np.sort(order[:size]).tolist())), None)


def _jump_path(y, family):
    return ((JumpSet(breaks), sse) for sse, breaks in _break_sets(y, family.n - 1))


# size-indexed paths, each a SizePath
_SIZE_PATHS = {
    "smoothness": _smoothness_sizes,
    "banding": _banding_sizes,
    "sparsity": _sparsity_sizes,
}

# lazy paths: (structure, SSE) pairs in size order
_PATHS = {"jump": _jump_path}


def size_path(Y, family: Family) -> SizePath | None:
    """The family's size-indexed path (smoothness, banding, sparsity), or None."""
    sizes = _SIZE_PATHS.get(family.tag)
    return None if sizes is None else sizes(np.asarray(Y, dtype=float), family)


def _near_minimum(obj: np.ndarray) -> list[int]:
    """The sizes whose objective lies within 2(n+2) tie tolerances of the
    minimum, n + 1 = obj.size, in path order; scoring them alone selects
    what scoring every size does.

    With T = TIE_RTOL * (1 + max|obj|), no tie tolerance on the path exceeds
    T.  The band [m, m + 2(n+2)T] above the minimum m holds at most n+1
    values, so the gaps between its sorted values and the band's top, at
    most n+1 of them, sum to 2(n+2)T: one gap exceeds 2T.  Call the entries
    below that gap low (the minimum is one) and the others high; every high
    value exceeds every low value by more than 2T.
    - A low offer improves on a kept high entry and replaces the tracker's
      whole state, so the first low offer leaves the same state whatever
      high entries came before it.
    - From then on the kept objective is a low value, and a high offer
      neither improves on it nor ties with it.
    So scoring any set of entries that holds every low one, in path order,
    ends in the same state: the band and the whole path both do, chained
    ties included.

    obj holds no NaN: the `Projections` memo admits only a Y of finite
    energy, so every SSE is finite, and sigma^2, 2 * kappa and the
    majorants are finite (`select_penalized` checks sigma^2 and 2 * kappa),
    so each sigma^2 * pen_k is finite or +inf, never inf * 0.  So the plain
    `min` and `max` give the bounds; +inf entries make the band the whole
    path, as they would under the NaN-skipping reductions.
    """
    width = 2 * (obj.size + 1) * TIE_RTOL * (1.0 + np.abs(obj).max())
    return np.flatnonzero(obj <= obj.min() + width).tolist()


def _select_leveled(proj, sigma, kappa, pen_variant):
    # the objective decomposes over levels, so each level scans independently
    y, family = proj.y, proj.family
    chosen = []
    for j in range(family.n_levels):
        off = family.level_offsets[j]
        sizes = _sparsity_sizes(y[off:off + 2**j], None)
        best_size, best_val = 0, math.inf
        for size in range(2**j + 1):
            pen_j = _penalty_value(family.level_majorant(j, size), size, kappa, pen_variant)
            val = sizes.sse[size] + sigma**2 * pen_j
            if _improves(val, best_val):
                best_size, best_val = size, val
        chosen.append(sizes.build(best_size).indices)
    structure = family.canonical(chosen)
    return structure, objective(y, family, structure, sigma, kappa, pen_variant, proj)


# ---------------------------------------------------------------------------
# Heuristic searches: (structure, objective) pairs visited
# ---------------------------------------------------------------------------


def _greedy_regression_path(proj, sigma, kappa, pen_variant, rng, max_blocks):
    """Forward greedy over supports inside the small family, then the I_r elbow."""
    family = proj.family

    def score(s):
        return objective(proj.y, family, s, sigma, kappa, pen_variant, proj)

    current: list[int] = []
    visited = [(RegressionSupport(()), score(RegressionSupport(())))]
    while family.in_small_family(len(current) + 1):
        best_j, best_obj = None, visited[-1][1]
        for j in range(family.p):
            if j in current:
                continue
            obj = score(RegressionSupport(sorted_tuple(current + [j])))
            if _improves(obj, best_obj):
                best_j, best_obj = j, obj
        if best_j is None:
            break
        current.append(best_j)
        visited.append((RegressionSupport(sorted_tuple(current)), best_obj))
    full = family.full_rank_structure
    visited.append((full, score(full)))
    return visited


@dataclass
class AlternatingTrace:
    structure: Bicluster
    objective: float
    history: list[float]


def _label_blocks(labels, k):
    blocks = [[] for _ in range(k)]
    for i, b in enumerate(labels.tolist()):
        blocks[b].append(i)
    return canonical_partition(blocks)


def _move_objectives(lines, labels, k, other, pen_table, ysq):
    """A[r, i, b]: restart r's objective, from block sums and up to
    rounding, after moving line i of `lines` from block labels[r, i] to
    block b, for the blocks b < K = len(pen_table) - 1; +inf at
    b = labels[r, i] and at b >= k[r].  The columns of `lines` are the other
    axis's lines, which restart r puts in the blocks other[r], and
    pen_table[s, s_other] is sigma^2 * pen for s blocks on this axis and
    s_other on the other (+inf at s = 0).

    With line sums R[i, c] over the other axis's blocks, block sums S[a, c]
    and block sizes n_a, n_c, the captured energy ||P Y||^2 is
    sum S^2 / (n_a n_c); a move changes rows labels[i] and b of S only.
    """
    restarts, n = labels.shape
    blocks = np.arange(len(pen_table) - 1)
    one_other = (other[:, :, None] == blocks).astype(float)
    n_other = one_other.sum(axis=1)
    w = (1.0 / np.maximum(n_other, 1))[:, :, None]  # an empty block's sums are zero
    R = lines @ one_other
    pens = pen_table[:, np.count_nonzero(n_other, axis=1)].T
    one = (labels[:, :, None] == blocks).astype(float)
    S = one.transpose(0, 2, 1) @ R
    size = one.sum(axis=1)
    energy = ((S * S) @ w)[..., 0] / np.maximum(size, 1)
    r = np.arange(restarts)[:, None]
    left, n_left = S[r, labels] - R, size[r, labels] - 1  # each line's block without it
    kept = (energy.sum(axis=1)[:, None] - energy[r, labels]
            + ((left * left) @ w)[..., 0] / np.maximum(n_left, 1))
    joined = S[:, None] + R[:, :, None]
    captured = (kept[..., None] - energy[:, None]
                + ((joined * joined) @ w[:, None])[..., 0] / (size + 1)[:, None])
    # block counts after each move; a count of 0 occurs only at b = labels[r, i]
    counts = (np.count_nonzero(size, axis=1)[:, None, None] - (n_left == 0)[..., None]
              + (size == 0)[:, None])
    out = ysq - captured + np.take_along_axis(
        pens, counts.reshape(restarts, -1), axis=1).reshape(counts.shape)
    out[(blocks == labels[..., None]) | (blocks >= k[:, None, None])] = math.inf
    return out


def _screen(lines, labels, k, other, pen_table, ysq, obj, first):
    """For each restart r, the first line i >= first[r] of `lines` with a
    target that the screen of `alternating_bicluster` keeps, or -1 when
    there is none, and the kept targets of that line as a mask over the
    blocks.  Restarts are screened in groups of at most `LABEL_BLOCK`
    floats of move objectives."""
    n = lines.shape[0]
    K = len(pen_table) - 1
    step = max(LABEL_BLOCK // (sum(lines.shape) * K * K), 1)
    line = np.empty(len(labels), dtype=int)
    targets = np.empty((len(labels), K), dtype=bool)
    for lo in range(0, len(labels), step):
        part = slice(lo, lo + step)
        approx = _move_objectives(lines, labels[part], k[part], other[part], pen_table, ysq)
        margin = (1e-9 * k[part] * (1.0 + ysq + np.abs(obj[part])))[:, None]
        lowest = approx.min(axis=2) + 2.0 * margin
        kept = approx < np.fmin(obj[part, None] + margin, lowest)[..., None]
        kept &= (np.arange(n) >= first[part, None])[..., None]
        has = kept.any(axis=2)
        at = has.argmax(axis=1)
        line[part] = np.where(has.any(axis=1), at, -1)
        targets[part] = kept[np.arange(len(at)), at]
    return line, targets


def alternating_bicluster(Y, family, sigma, kappa, k1, k2, rng,
                          pen_variant="main", restarts=10, max_iter=50, proj=None):
    """Alternating row/column reassignment with k1 row and k2 column
    blocks; objective never increases.  Draws `restarts` random inits,
    then takes one ordered init, and returns the trace of the restart whose
    final structure the tie rule picks.

    Each line moves to the first target block, in label order, whose exact
    objective beats the running best by the tie tolerance, and only targets
    that can decide that outcome are scored exactly.  Block sums give every
    target's objective (`_move_objectives`) within rounding error
    e << margin = 1e-9 * k * (1 + ||Y||^2 + |obj|) of its exact value, obj
    the current objective.  The screen keeps the targets whose approximation
    is below obj + margin and within 2 * margin of the lowest one:
    - a target with an approximation of at least obj + margin has an exact
      objective above obj, and never wins;
    - a target more than 2 * margin above the lowest approximation is more
      than k tie tolerances, TIE_RTOL * (1 + obj), above the best target's
      exact value.  Two sweeps that differ by such a target keep running
      best values within k tie tolerances of it, so both accept the best
      target and agree from then on.
    The exact sweep over the kept targets therefore picks the same target
    with the same objective, and every stored objective is an exact
    `objective` value.  The margin scales with obj because the tolerance
    does: once sigma^2 * pen dominates ||Y||^2, moves that tie within the
    tolerance can lie far more than 1e-9 * (1 + ||Y||^2) apart.

    Neither obj nor the approximations change until a line moves, so a
    sweep visits the first line with a kept target, and after that visit
    screens again from the next line on.  An exact score reads the labels
    (`BiclusterFamily.label_rss` plus sigma^2 * pen of the block counts),
    with the bytes of `objective` of the labels' structure; a `Bicluster`
    is built only for each restart's final labels.  The restarts run in
    lockstep (`_alternations`).
    """
    proj = Projections.of(Y, family, proj)
    return _alternations(proj, sigma, kappa, pen_variant, rng, [(k1, k2)], restarts,
                         max_iter)[0]


def _alternations(proj, sigma, kappa, pen_variant, rng, pairs, restarts=10, max_iter=50):
    """The `alternating_bicluster` trace of each block-count pair (k1, k2) of
    pairs, called pair by pair on one rng, with every restart of every pair
    run in lockstep.

    The inits are drawn in the order of the pair-by-pair calls.  Each
    restart keeps its labels, objective, axis, first line to screen,
    improved flag and iteration count.  A step screens every running
    restart on its axis (`_screen`, one batch of move objectives per axis,
    with targets up to the largest block count); a restart with no line
    left moves on to the other axis, or to its next iteration, or ends, and
    is screened again, until it has a line to visit or has ended.  Then the
    kept targets of every visited line are scored in one `label_rss` call,
    and each restart takes the first target, in label order, that beats
    its running best by the tie tolerance.  A restart's screens, visits
    and moves are those of running it alone.
    """
    family = proj.family
    mat = proj.y.reshape(family.n1, family.n2)
    ysq = sq_norm(proj.y)
    # one ordered init per pair: contiguous groups along marginal-mean order
    r_order = np.argsort(mat.mean(axis=1), kind="stable")
    c_order = np.argsort(mat.mean(axis=0), kind="stable")
    inits, ks = [], []
    for k1, k2 in pairs:
        for _ in range(restarts):
            inits.append((rng.integers(0, k1, family.n1), rng.integers(0, k2, family.n2)))
        r_init = np.empty(family.n1, dtype=int)
        c_init = np.empty(family.n2, dtype=int)
        r_init[r_order] = (np.arange(family.n1) * k1) // family.n1
        c_init[c_order] = (np.arange(family.n2) * k2) // family.n2
        inits.append((r_init, c_init))
        ks += [(k1, k2)] * (restarts + 1)
    labels = [np.array([init[ax] for init in inits]) for ax in (0, 1)]
    ks = np.array(ks).T
    K = int(ks.max())
    pen_table = np.full((K + 1, K + 1), math.inf)
    for s1, s2 in itertools.product(range(1, K + 1), repeat=2):
        pen_table[s1, s2] = sigma**2 * _penalty_value(family.counts_majorant(s1, s2), s1 * s2,
                                                      kappa, pen_variant)

    def score(rows, cols):
        # the bytes of `objective` of each labeling's structure
        s1, s2 = (1 + np.count_nonzero(np.diff(np.sort(lab, axis=1), axis=1), axis=1)
                  for lab in (rows, cols))
        return [rss + pen for rss, pen in zip(family.label_rss(proj.y, rows, cols),
                                              pen_table[s1, s2].tolist())]

    obj = score(*labels)
    history = [[o] for o in obj]
    axis, first, iters = (np.zeros(len(obj), dtype=int) for _ in range(3))
    improved = np.zeros(len(obj), dtype=bool)
    active = np.full(len(obj), max_iter > 0)
    lines, tables = (mat, mat.T), (pen_table, pen_table.T)
    while active.any():
        visits, waiting = [], active.copy()
        while waiting.any():
            for ax in (0, 1):
                idx = np.flatnonzero(waiting & (axis == ax))
                if not idx.size:
                    continue
                line, targets = _screen(lines[ax], labels[ax][idx], ks[ax][idx],
                                        labels[1 - ax][idx], tables[ax], ysq,
                                        np.asarray(obj)[idx], first[idx])
                found = line >= 0
                visits.append((idx[found], ax, line[found], targets[found]))
                waiting[idx[found]] = False
                done = idx[~found]  # no line left on this axis
                if ax == 0:
                    axis[done] = 1
                else:
                    active[done[~improved[done] | (iters[done] + 1 >= max_iter)]] = False
                    iters[done] += 1
                    improved[done] = axis[done] = 0
                first[done] = 0
                waiting &= active
        # every kept target of every visited line, each a copy of its
        # restart's labels with the line moved, in restart then label order
        moves = []
        for idx, ax, line, targets in visits:
            at, b = np.nonzero(targets)
            stack = [labels[0][idx[at]], labels[1][idx[at]]]
            stack[ax][np.arange(len(at)), line[at]] = b
            moves.append((idx[at], line[at], b, *stack))
            first[idx] = line + 1
        who, where, to, rows, cols = (np.concatenate(part) for part in zip(*moves))
        best = {}
        for r, i, b, cand in zip(who.tolist(), where.tolist(), to.tolist(), score(rows, cols)):
            if _improves(cand, best[r][2] if r in best else obj[r]):
                best[r] = (i, b, cand)
        for r, (i, b, cand) in best.items():
            labels[axis[r]][r, i] = b
            obj[r] = cand
            history[r].append(cand)
            improved[r] = True
    traces = []
    for p, (k1, k2) in enumerate(pairs):
        tracker, found = _ArgminTracker(family), {}
        for r in range(p * (restarts + 1), (p + 1) * (restarts + 1)):
            # obj[r] is the exact objective of the final labels
            s = Bicluster(_label_blocks(labels[0][r], k1), _label_blocks(labels[1][r], k2))
            history[r].append(obj[r])
            tracker.offer(s, obj[r])
            found.setdefault(s, AlternatingTrace(s, obj[r], history[r]))
        traces.append(found[tracker.result()[0]])
    return traces


def _bicluster_search(proj, sigma, kappa, pen_variant, rng, max_blocks, restarts=10):
    """Best alternating trace for every block-count pair up to max_blocks,
    all pairs' restarts in lockstep."""
    family = proj.family
    pairs = list(itertools.product(range(1, min(max_blocks, family.n1) + 1),
                                   range(1, min(max_blocks, family.n2) + 1)))
    return [(trace.structure, trace.objective)
            for trace in _alternations(proj, sigma, kappa, pen_variant, rng, pairs, restarts)]


def _clustering_cells(y, sigma, kappa, max_clusters: int):
    """The best structure of every feasible cell, f free coordinates and m
    <= max_clusters clusters, by one DP over the stable-sorted y.

    Inside a cell the rest of the penalty (min(f+m, n), -log f!,
    log C(n+m, m), dim) is fixed, so the best structure minimizes SSE -
    2 kappa sigma^2 sum log|I_k|!.  Some best structure splits the sorted y
    into runs, each a free singleton or a cluster of at least 2 entries:
    with the sizes fixed, SSE-best clusters on a line do not interleave
    (Fisher 1958), and a free coordinate inside a cluster's range swaps with
    one of its ends at no larger SSE.  tables[m][i, f] is the least cost of
    the sorted prefix 0:i with f free coordinates and m clusters.

    Returns (cells, ties): cells lists ((m, f), structure) in (m, f) order;
    ties(m, f, slack) lists the best of cell (m, f), then every other run
    sequence that costs at most slack more, give or take rounding, up to
    POSTERIOR_CAPS.max_count in all.  A structure that swaps two equal
    entries between runs, or between a run and a free coordinate, ties too
    and is not listed.
    """
    n = y.size
    order = np.argsort(y, kind="stable")
    run_pen = 2.0 * kappa * sigma**2 * np.array([math.lgamma(ln + 1) for ln in range(n + 1)])
    # SSE ignores a shift, and centering keeps the prefix sums, and so the
    # rounding of every total, within a few n eps of this scale
    centered = y[order] - y.mean()
    rounding = 4 * n * np.finfo(float).eps * (float(centered @ centered) + run_pen[n])
    cost = _sse_costs(centered)
    lo, hi = np.ogrid[:n + 1, :n + 1]
    cost -= run_pen[np.maximum(hi - lo, 0)]
    cost[hi - lo < 2] = np.inf  # runs shorter than 2 are not clusters
    idx = np.arange(n + 1)
    tables = [np.where(lo == hi, 0.0, np.inf)]  # no cluster: every coordinate free
    starts = [None]
    for m in range(1, min(max_clusters, n // 2) + 1):
        prev, best = tables[-1], np.full((n + 1, n + 1), np.inf)
        start = np.zeros((n + 1, n + 1), dtype=np.intp)
        first = 2 * m - 2  # the prefix before the last cluster holds m - 1 clusters
        for i in range(2 * m, n + 1):
            w = i - 2 * m + 1  # the free counts 0..i-2m that 0:i can hold
            # the last run is the cluster j:i, or the free coordinate i - 1
            cand = prev[first:i - 1, :w] + cost[first:i - 1, i, None]
            j = np.argmin(cand, axis=0)
            row = cand[j, idx[:w]]
            j += first
            free = best[i - 1, :w - 1] < row[1:]
            row[1:][free] = best[i - 1, :w - 1][free]
            j[1:][free] = i - 1
            best[i, :w], start[i, :w] = row, j
        tables.append(best)
        starts.append(start)

    def structure(runs):
        # runs: the clusters, as (start, end) slices of the sorted order
        clustered = np.zeros(n, dtype=bool)
        for j, i in runs:
            clustered[j:i] = True
        return MultiLevelPartition(sorted_tuple(order[~clustered]),
                                   canonical_partition(order[j:i] for j, i in runs))

    def cell_best(m, f):
        runs, i = [], n
        while m:
            j = int(starts[m][i, f])
            if j == i - 1:
                f -= 1
            else:
                runs.append((j, i))
                m -= 1
            i = j
        return structure(runs)

    def ties(m, f, slack):
        # depth first over the last runs, each step keeping the prefix's best
        # within what is left of the budget
        found = dict.fromkeys([cell_best(m, f)])
        stack = [(m, n, f, tables[m][n, f] + slack + rounding, ())]
        while stack and len(found) < POSTERIOR_CAPS.max_count:
            m, i, f, budget, runs = stack.pop()
            if m == 0:  # the prefix 0:i is free
                found.setdefault(structure(runs))
                continue
            if f and tables[m][i - 1, f - 1] <= budget:
                stack.append((m, i - 1, f - 1, budget, runs))
            within = tables[m - 1][:i - 1, f] + cost[:i - 1, i] <= budget
            for j in np.flatnonzero(within).tolist():
                stack.append((m - 1, j, f, budget - cost[j, i], runs + ((j, i),)))
        return list(found)

    cells = [((m, f), cell_best(m, f)) for m in range(len(tables))
             for f in np.flatnonzero(tables[m][n] < np.inf).tolist()]
    return cells, ties


def _clustering_optima(proj, sigma, kappa, pen_variant, rng, max_blocks):
    """The best structure of every cell of `_clustering_cells`, at most
    max_blocks clusters, then the run sequences that tie with the best of
    the lowest cells, so that the tie rule picks among these what it picks
    among the whole family (up to the swaps of equal entries that
    `_clustering_cells` does not list)."""
    y, family = proj.y, proj.family

    def score(s):
        return objective(y, family, s, sigma, kappa, pen_variant, proj)

    cells, ties = _clustering_cells(y, sigma, kappa, max_blocks)
    scored = [(cell, s, score(s)) for cell, s in cells]
    low = min(obj for *_, obj in scored)
    # a band far wider than the tie tolerance; what it lets in beyond the
    # ties is scored and loses
    slack = 1e-9 * (1.0 + abs(low))
    found = [(s, obj) for _, s, obj in scored]
    for cell, _, obj in scored:
        if obj <= low + slack:
            found += [(t, score(t)) for t in ties(*cell, slack)[1:]]
    return found


# every search takes (proj, sigma, kappa, pen_variant, rng, max_blocks)
_SEARCHES = {
    "regression": _greedy_regression_path,
    "bicluster": _bicluster_search,
    "clustering": _clustering_optima,
}


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

EXACT_CAPS = {
    "knot": Caps(max_count=400_000),
    "regression": Caps(max_count=400_000),
    "bicluster": Caps(max_count=300_000, max_blocks=None),
}

# the largest clustering family that exact mode selects over, all cluster
# counts (`_clustering_cells`): O(n^4) time, 0.84 s at n = 100 on one core of
# a 2-CPU machine (64 ms at n = 40), and 8 MB of DP tables there
EXACT_CLUSTERING_MAX_N = 100

# the largest family that `select` and `simulate` posteriors enumerate, and
# the most projections a `Projections` memo stores
POSTERIOR_CAPS = Caps(max_count=50_000)


def select_penalized(Y, family: Family, sigma: float, kappa: float, mode: str = "exact",
                     pen_variant: str = "main", rng=None, caps: Caps | None = None,
                     max_blocks: int = 4, proj: Projections | None = None):
    """Penalized selector; returns (structure, objective value).

    Exact mode is available for smoothness, banding, sparsity, leveled
    sparsity, jump and knot shape sets, regression within caps, tiny
    bicluster instances and clustering up to n = EXACT_CLUSTERING_MAX_N
    (the sorted-order DP over every cluster count; caps do not apply);
    heuristic mode covers regression (forward greedy), the bicluster search
    and the clustering DP with at most max_blocks clusters, and falls back to
    exact mode, with the same caps, for the other families.  The structures
    a search or the exact clustering DP scored go to `proj.searched`.

    The size-indexed paths (smoothness, banding, sparsity) are scored as one
    objective array, and only the sizes near its minimum are offered to the
    tie rule (`_near_minimum`).  The jump path is read lazily and stops once
    sigma^2 * pen alone exceeds the kept objective by more than the tie
    tolerance: pen never decreases along it and every SSE is >= 0, so no
    later entry could be taken or tie.
    """
    if not (0 < sigma < math.inf and 0 < kappa < math.inf and 0 < sigma * sigma < math.inf
            and 2.0 * kappa < math.inf):
        raise ValueError("sigma and kappa must be positive and finite, and so must sigma**2 "
                         "and 2*kappa")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    proj = Projections.of(Y, family, proj)
    scored = proj.searched = None
    if mode == "exact" and family.tag == "clustering":
        if family.n > EXACT_CLUSTERING_MAX_N:
            raise ExactModeUnavailableError(
                f"exact selection for family clustering is limited to n <= "
                f"{EXACT_CLUSTERING_MAX_N}, got n = {family.n}")
        # every cluster count: the whole family
        scored = _clustering_optima(proj, sigma, kappa, pen_variant, rng, family.n // 2)
    elif mode == "heuristic" and family.tag in _SEARCHES:
        rng = rng if rng is not None else np.random.default_rng(0)
        scored = _SEARCHES[family.tag](proj, sigma, kappa, pen_variant, rng, max_blocks)
    if scored is not None:
        proj.searched = sorted({s for s, _ in scored}, key=family.sort_key)
        tracker = _ArgminTracker(family)
        for s, obj in scored:
            tracker.offer(s, obj)
        return _finish(proj, sigma, kappa, pen_variant, tracker)
    sizes = size_path(proj.y, family)
    if sizes is not None:
        # the float operations of `sse + sigma**2 * penalty(...)`, elementwise;
        # an entry past the float range is +inf, which `_near_minimum` handles
        with np.errstate(over="ignore"):
            obj = sizes.sse + sigma**2 * _size_penalties(family, kappa, pen_variant)
        tracker = _ArgminTracker(family)
        for k in _near_minimum(obj):
            tracker.offer(sizes.build(k), obj[k])
        return _finish(proj, sigma, kappa, pen_variant, tracker)
    path = _PATHS.get(family.tag)
    if path is not None:
        tracker = _ArgminTracker(family)
        for s, sse in path(proj.y, family):
            pen = sigma**2 * penalty(family, s, kappa, pen_variant)
            if tracker.settled(pen):
                break
            tracker.offer(s, sse + pen)
        return _finish(proj, sigma, kappa, pen_variant, tracker)
    if family.tag == "leveled":
        return _select_leveled(proj, sigma, kappa, pen_variant)
    if family.tag not in EXACT_CAPS:
        raise ExactModeUnavailableError(f"no exact selector for family {family.tag}")
    try:
        return select_bruteforce(proj.y, family, sigma, kappa, caps or EXACT_CAPS[family.tag],
                                 pen_variant, proj)
    except CapExceededError as exc:
        raise ExactModeUnavailableError(
            f"exact selection for family {family.tag} exceeds caps: {exc}"
        ) from exc
