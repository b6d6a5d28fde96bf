"""Penalized structure selection.

The selected structure minimizes  ||Y - P_I Y||^2 + sigma^2 * pen(I)  with
pen(I) = 2*kappa*rho(I) (or the model-averaging variant that adds dim L_I).
The method is looked up by family tag.  Nested-path families score one
structure per size: smoothness, banding and sparsity (`_SIZE_PATHS`) as one
numpy objective array over sizes, jump (`_PATHS`) lazily along its DP rows;
leveled sparsity scans each level alone; the rest are enumerated within
`EXACT_CAPS`.  Heuristic mode runs the family's search (`_SEARCHES`:
regression greedy, bicluster alternation, clustering DP), or the exact
selector when it has none; `search_candidates` returns what the search visits.
The jump path (`segment_dp`) and the clustering search run one segmentation
DP, `_segmentations`; the clustering search runs it once per free set.

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
tie with it and win on its key.  The clustering search reads every cut
count, since each one is a candidate of its restricted posterior.

The bicluster alternation scores a move exactly only when the move can
decide its sweep: block sums give every move's objective up to rounding,
and a move whose approximation lies clearly above the current objective or
above the best move's cannot change which move the exact tie rule picks, so
it is skipped (`alternating_bicluster` gives the bound).  Decisions and stored
objectives are those of scoring every move in full.

Ties are broken deterministically: objectives within a relative 1e-12 band
count as equal, and among tied structures the one with the smallest majorant,
then the smallest canonical sort key, wins.  `_ArgminTracker` holds this rule;
the exact selectors, the brute force, the alternating bicluster restarts and
`ddm.select_map` all use it, so they return identical structures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ExactModeUnavailableError
from .linalg import as_vector, sq_norm
from .structures import (
    Band,
    Bicluster,
    Caps,
    Family,
    JumpSet,
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


class Projections:
    """P_I Y for one observation Y, shared by the selector, the structure
    posterior and the model-averaging mean.

    A caller makes one memo per Y and passes it to each of them; the memo
    goes when the call that made it ends, so it never outlives its Y.  The
    first request for a structure goes through `family.project`, which
    validates it.  The selector's projections (`objective`, keep=True) are
    stored read-only, at most `POSTERIOR_CAPS.max_count` of them at 8 * N
    bytes each plus array overhead; past that they are computed and not
    kept.  The posterior and the mean read what the selector stored and add
    nothing: a nested path scores its sizes without projecting, and storing
    the posterior's projections would hold every candidate's N floats
    (4,097 x 4,096 for smoothness at N = 4,096) while the mean rereads only
    those of nonzero weight.
    """

    def __init__(self, Y, family: Family):
        self.y = as_vector(Y)
        self.family = family
        self.stored: dict = {}

    @classmethod
    def of(cls, Y, family: Family, proj: Projections | None):
        """proj, which must hold this family and Y, or a new memo when None."""
        if proj is None:
            return cls(Y, family)
        if proj.family is not family or not (proj.y is Y or np.array_equal(proj.y, Y)):
            raise ValueError("the projection memo holds another family or observation")
        return proj

    def project(self, structure, keep: bool = False) -> np.ndarray:
        out = self.stored.get(structure)
        if out is None:
            out = self.family.project(structure, self.y)
            if keep and len(self.stored) < POSTERIOR_CAPS.max_count:
                out.flags.writeable = False
                self.stored[structure] = out
        return out

    def rss(self, structure, keep: bool = False) -> float:
        """||Y - P_I Y||^2."""
        return sq_norm(self.y - self.project(structure, keep))


def objective(Y, family: Family, structure, sigma: float, kappa: float,
              pen_variant: str = "main", proj: Projections | None = None) -> float:
    rss = Projections.of(Y, family, proj).rss(structure, keep=True)
    return rss + sigma**2 * penalty(family, structure, kappa, pen_variant)


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
    for structure in family.enumerate_structures(caps):
        tracker.offer(structure, objective(proj.y, family, structure, sigma, kappa,
                                           pen_variant, proj))
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
    smallest last cut (first argmin).  Segment neighbourhood DP with one
    numpy step, O(n^2), per cut count: row k holds, for every end hi, the
    best total of k cuts over 0:hi.
    """
    n = cost.shape[0] - 1
    row = cost[0, 1:]  # the best totals of k cuts for hi = k+1..n; here k = 0
    back = []  # back[k - 1][hi - k - 1]: the last cut of the best k cuts over 0:hi
    yield float(row[-1]), []
    for k in range(1, max_cuts + 1):
        # cand[lo - k, hi - k - 1]: k - 1 cuts over 0:lo, then the run lo:hi (+inf if lo >= hi)
        cand = row[:-1, None] + cost[k:n, k + 1:]
        j = np.argmin(cand, axis=0)
        row = cand[j, np.arange(n - k)]
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


def segment_dp(values, max_breaks: int):
    """SSE-optimal break sets for every break budget.

    Returns a list indexed by k = 0..max_breaks of (sse, breaks) where breaks
    is the k-break set minimizing the within-segment sum of squares around
    segment means.  Exact because the optimal fit on a segment is its mean,
    so costs are additive over segments; O(n^2 * max_breaks).
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 1:
        raise ValueError("values must be nonempty")
    if max_breaks > n - 1:
        raise ValueError("max_breaks must be at most n-1")
    return list(_break_sets(y, max_breaks))


# ---------------------------------------------------------------------------
# Nested paths: (structure, SSE) pairs, one per size, holding the minimizer
# ---------------------------------------------------------------------------


def _smoothness_sizes(y, family):
    tails = np.concatenate([np.cumsum((y * y)[::-1])[::-1], [0.0]])
    return tails, Truncation


def _banding_sizes(y, family):
    y = y.reshape(family.p, family.p)
    sym = 0.5 * (y + y.T)
    total = float(np.sum(y * y))
    idx = np.arange(family.p)
    dist = np.abs(idx[:, None] - idx[None, :])
    # captured energy of the symmetric part per band width
    energy = np.array([float(np.sum((sym * sym)[dist <= w])) for w in range(family.p)])
    return total - energy, Band


def _magnitude_gains(y):
    """Coordinates by decreasing |y| (stable order) and the energy captured by
    each prefix of that order, sizes 0..n."""
    order = np.argsort(-np.abs(y), kind="stable")
    return order, np.concatenate([[0.0], np.cumsum((y * y)[order])])


def _sparsity_sizes(y, family):
    order, gains = _magnitude_gains(y)
    return gains[-1] - gains, lambda size: SparseSet(sorted_tuple(order[:size]))


def _jump_path(y, family):
    return ((JumpSet(breaks), sse) for sse, breaks in _break_sets(y, family.n - 1))


# size-indexed paths: (sse, build), the SSE of every size k = 0..n_sizes-1
# and build(k), the size-k structure
_SIZE_PATHS = {
    "smoothness": _smoothness_sizes,
    "banding": _banding_sizes,
    "sparsity": _sparsity_sizes,
}

# lazy paths: (structure, SSE) pairs in size order
_PATHS = {"jump": _jump_path}


def nested_path(Y, family: Family):
    """(structure, SSE) pairs along the family's nested path, one per size,
    or None when the family has no such path."""
    y = np.asarray(Y, dtype=float)
    sizes = _SIZE_PATHS.get(family.tag)
    if sizes is not None:
        sse, build = sizes(y, family)
        return [(build(k), sse[k]) for k in range(sse.size)]
    path = _PATHS.get(family.tag)
    return None if path is None else list(path(y, family))


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
    ties included.  NaN entries (from overflowed data) never change the
    tracker and are skipped.
    """
    width = 2 * (obj.size + 1) * TIE_RTOL * (1.0 + np.nanmax(np.abs(obj)))
    return np.flatnonzero(obj <= np.nanmin(obj) + width).tolist()


def _select_leveled(proj, sigma, kappa, pen_variant):
    # the objective decomposes over levels, so each level scans independently
    y, family = proj.y, proj.family
    chosen = []
    for j in range(family.n_levels):
        off = family.level_offsets[j]
        order, gains = _magnitude_gains(y[off:off + 2**j])
        total = gains[-1]
        best_size, best_val = 0, math.inf
        for size in range(2**j + 1):
            pen_j = _penalty_value(family.level_majorant(j, size), size, kappa, pen_variant)
            val = (total - gains[size]) + sigma**2 * pen_j
            if _improves(val, best_val):
                best_size, best_val = size, val
        chosen.append(sorted_tuple(order[:best_size]))
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
    return canonical_partition(np.flatnonzero(labels == b) for b in range(k))


def _one_hot(labels, k):
    return (labels[:, None] == np.arange(k)).astype(float)


def _approx_move_objectives(lines, labels, k, other_labels, k_other, ysq, pen):
    """A[i, b]: the objective after moving line i (a row of `lines`) from
    block labels[i] to block b, from block sums and up to rounding; +inf at
    b = labels[i].  pen(s, s_other) is sigma^2 * pen for s blocks on this
    axis and s_other on the other.

    With line sums R[i, c] over the other axis's blocks, block sums S[a, c]
    and block sizes n_a, n_c, the captured energy ||P Y||^2 is
    sum S^2 / (n_a n_c); a move changes rows labels[i] and b of S only.
    """
    n_other = np.bincount(other_labels, minlength=k_other)
    w = 1.0 / np.maximum(n_other, 1)  # an empty block's sums are zero
    R = lines @ _one_hot(other_labels, k_other)
    S = _one_hot(labels, k).T @ R
    n = np.bincount(labels, minlength=k)
    energy = (S * S) @ w / np.maximum(n, 1)
    left, n_left = S[labels] - R, n[labels] - 1  # each line's block without it
    kept = energy.sum() - energy[labels] + (left * left) @ w / np.maximum(n_left, 1)
    joined = S + R[:, None, :]
    captured = kept[:, None] - energy + (joined * joined) @ w / (n + 1)
    # block counts after each move; a count of 0 occurs only at b = labels[i]
    counts = np.count_nonzero(n) - (n_left == 0)[:, None] + (n == 0)
    s_other = int(np.count_nonzero(n_other))
    pens = np.array([math.inf] + [pen(c, s_other) for c in range(1, k + 1)])
    approx = ysq - captured + pens[counts]
    approx[np.arange(labels.size), labels] = math.inf
    return approx


def alternating_bicluster(Y, family, sigma, kappa, k1, k2, rng,
                          pen_variant="main", restarts=10, max_iter=50, proj=None):
    """Alternating row/column reassignment; objective never increases.

    Each line moves to the first target block, in label order, whose exact
    objective beats the running best by the tie tolerance, and only targets
    that can decide that outcome are scored exactly.  Block sums give every
    target's objective (`_approx_move_objectives`) within rounding error
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
    """
    proj = Projections.of(Y, family, proj)
    mat = proj.y.reshape(family.n1, family.n2)
    ysq = sq_norm(proj.y)
    inits = []
    for _ in range(restarts):
        inits.append((rng.integers(0, k1, family.n1), rng.integers(0, k2, family.n2)))
    # one ordered initialization: contiguous groups along marginal-mean order
    r_order = np.argsort(mat.mean(axis=1), kind="stable")
    c_order = np.argsort(mat.mean(axis=0), kind="stable")
    r_init = np.empty(family.n1, dtype=int)
    c_init = np.empty(family.n2, dtype=int)
    r_init[r_order] = (np.arange(family.n1) * k1) // family.n1
    c_init[c_order] = (np.arange(family.n2) * k2) // family.n2
    inits.append((r_init, c_init))

    def structure(row_labels, col_labels):
        return Bicluster(_label_blocks(row_labels, k1), _label_blocks(col_labels, k2))

    def pen(s1, s2):
        return sigma**2 * _penalty_value(family.counts_majorant(s1, s2), s1 * s2, kappa,
                                         pen_variant)

    def score(row_labels, col_labels):
        return objective(proj.y, family, structure(row_labels, col_labels),
                         sigma, kappa, pen_variant, proj)

    tracker, traces = _ArgminTracker(family), {}
    for row_labels, col_labels in inits:
        row_labels = row_labels.copy()
        col_labels = col_labels.copy()
        obj = score(row_labels, col_labels)
        history = [obj]
        for _ in range(max_iter):
            improved = False
            for lines, labels, k, other, k_other, axis_pen in (
                    (mat, row_labels, k1, col_labels, k2, pen),
                    (mat.T, col_labels, k2, row_labels, k1, lambda s2, s1: pen(s1, s2))):
                approx = _approx_move_objectives(lines, labels, k, other, k_other, ysq,
                                                 axis_pen)
                for i in range(labels.size):
                    old = labels[i]
                    best_b, best_obj = old, obj
                    margin = 1e-9 * k * (1.0 + ysq + abs(obj))
                    row = approx[i]
                    for b in np.flatnonzero(row < min(obj + margin, row.min() + 2.0 * margin)):
                        labels[i] = b
                        cand = score(row_labels, col_labels)
                        if _improves(cand, best_obj):
                            best_b, best_obj = b, cand
                    labels[i] = best_b
                    if best_b != old:
                        obj = best_obj
                        history.append(obj)
                        improved = True
                        approx = _approx_move_objectives(lines, labels, k, other, k_other,
                                                         ysq, axis_pen)
            if not improved:
                break
        # obj is the exact objective of the final labels
        s = structure(row_labels, col_labels)
        history.append(obj)
        tracker.offer(s, obj)
        traces.setdefault(s, AlternatingTrace(s, obj, history))
    return traces[tracker.result()[0]]


def _bicluster_search(proj, sigma, kappa, pen_variant, rng, max_blocks):
    """Best alternating trace for every block-count pair up to max_blocks."""
    family = proj.family
    visited = []
    for k1 in range(1, min(max_blocks, family.n1) + 1):
        for k2 in range(1, min(max_blocks, family.n2) + 1):
            trace = alternating_bicluster(proj.y, family, sigma, kappa, k1, k2, rng,
                                          pen_variant=pen_variant, proj=proj)
            visited.append((trace.structure, trace.objective))
    return visited


def _clustering_search(proj, sigma, kappa, pen_variant, rng, max_blocks):
    """Sorted-order DP: clusters contiguous in value order, free sets of up to
    two coordinates swept exhaustively (none when n > 20), at most max_blocks
    clusters.

    Optimality is not claimed; the penalty's per-cluster term -log|I_k|! is
    separable, so one segmentation DP per free set gives, for every cluster
    count, the best clustering among the contiguous-in-sorted-order ones.
    """
    y, family = proj.y, proj.family
    n = family.n
    max_free = 2 if n <= 20 else 0  # the exhaustive free-set sweep is quadratic in n
    run_pen = 2.0 * kappa * sigma**2 * np.array([math.lgamma(ln + 1) for ln in range(n + 1)])
    candidates = []
    order = np.argsort(y, kind="stable")
    for f in range(min(max_free, n) + 1):
        for free_combo in itertools.combinations(range(n), f):
            free = sorted_tuple(free_combo)
            rest = [i for i in order if i not in free]
            k = len(rest)
            fits = [(0.0, [])] if k == 0 and max_blocks >= 0 else []  # nothing to cluster
            if k and max_blocks >= 1:
                # run cost SSE - 2*kappa*sigma^2*log(len!); runs shorter than 2 are barred
                cost = _sse_costs(y[rest])
                lo, hi = np.ogrid[:k + 1, :k + 1]
                cost -= run_pen[np.maximum(hi - lo, 0)]
                cost[hi - lo < 2] = np.inf
                fits = _segmentations(cost, min(max_blocks, k) - 1)
            for total, cuts in fits:
                if total == math.inf:
                    continue
                bounds = [0, *cuts, k]
                clusters = canonical_partition(rest[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
                s = MultiLevelPartition(free, clusters)
                candidates.append((s, objective(y, family, s, sigma, kappa, pen_variant, proj)))
    return candidates


# every search takes (proj, sigma, kappa, pen_variant, rng, max_blocks)
_SEARCHES = {
    "regression": _greedy_regression_path,
    "bicluster": _bicluster_search,
    "clustering": _clustering_search,
}


def _search(proj, sigma, kappa, pen_variant, rng, max_blocks):
    """(structure, objective) pairs visited by the family's heuristic search."""
    family = proj.family
    search = _SEARCHES.get(family.tag)
    if search is None:
        raise ExactModeUnavailableError(
            f"no heuristic search path for family {family.tag}; enumerate instead")
    rng = rng if rng is not None else np.random.default_rng(0)
    return search(proj, sigma, kappa, pen_variant, rng, max_blocks)


def search_candidates(Y, family: Family, sigma: float, kappa: float,
                      pen_variant: str = "main", rng=None, max_blocks: int = 4,
                      proj: Projections | None = None):
    """Structures visited by the heuristic search paths, duplicate-free in
    canonical order; the honest candidate set for restricted posteriors over
    non-enumerable families."""
    proj = Projections.of(Y, family, proj)
    found = [s for s, _ in _search(proj, sigma, kappa, pen_variant, rng, max_blocks)]
    return sorted(set(found), key=family.sort_key)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

EXACT_CAPS = {
    "knot": Caps(max_count=400_000),
    "regression": Caps(max_count=400_000),
    "bicluster": Caps(max_count=300_000, max_blocks=None),
    "clustering": Caps(max_count=300_000, max_blocks=3),
}

# the largest family that `select` and `simulate` posteriors enumerate, and
# the most projections a `Projections` memo stores
POSTERIOR_CAPS = Caps(max_count=50_000)


def select_penalized(Y, family: Family, sigma: float, kappa: float, mode: str = "exact",
                     pen_variant: str = "main", rng=None, caps: Caps | None = None,
                     max_blocks: int = 4, proj: Projections | None = None):
    """Penalized selector; returns (structure, objective value).

    Exact mode is available for smoothness, banding, sparsity, leveled
    sparsity, jump and knot shape sets, regression within caps, and tiny
    bicluster/clustering instances; heuristic mode covers regression
    (forward greedy) and bicluster/clustering searches, and falls back to
    exact mode, with the same caps, for the other families.

    The size-indexed paths (smoothness, banding, sparsity) are scored as one
    objective array, and only the sizes near its minimum are offered to the
    tie rule (`_near_minimum`).  The jump path is read lazily and stops once
    sigma^2 * pen alone exceeds the kept objective by more than the tie
    tolerance: pen never decreases along it and every SSE is >= 0, so no
    later entry could be taken or tie.
    """
    if not (0 < sigma < math.inf and 0 < kappa < math.inf):
        raise ValueError("sigma and kappa must be positive and finite")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    proj = Projections.of(Y, family, proj)
    if mode == "heuristic" and family.tag in _SEARCHES:
        tracker = _ArgminTracker(family)
        for s, obj in _search(proj, sigma, kappa, pen_variant, rng, max_blocks):
            tracker.offer(s, obj)
        return _finish(proj, sigma, kappa, pen_variant, tracker)
    sizes = _SIZE_PATHS.get(family.tag)
    if sizes is not None:
        sse, build = sizes(proj.y, family)
        # the float operations of `sse + sigma**2 * penalty(...)`, elementwise
        obj = sse + sigma**2 * _penalty_value(family.size_majorants, family.size_dims, kappa,
                                              pen_variant)
        tracker = _ArgminTracker(family)
        for k in _near_minimum(obj):
            tracker.offer(build(k), obj[k])
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
