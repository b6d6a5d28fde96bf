"""Structure families: discrete structures, their subspaces and complexity.

Each family maps a discrete structure I to a linear subspace L_I of the
ambient space and carries the bookkeeping around it: statistical dimension
d_I, complexity majorant rho(I), exhaustive (capped) enumeration in
canonical order, and the union witness I' with span(L_I0 + L_I1) <= L_I'
and rho(I') <= rho(I0) + rho(I1).

Everything downstream uses L_I only through the orthogonal projection P_I:
a batch kernel over rows (see `Family`), and a stacked kernel that projects
one vector, or one row per structure, onto a list of structures in one call
(`_project_stack`), each row with the bytes of `project`.  Every P_I has one
of two shapes, whose base class owns both kernels and what
`noise.check_a1` reads: block means (`_BlockMeanFamily`:
keep some coordinates, replace disjoint blocks of others by their mean and
zero the rest; a mask has no blocks, and banding's blocks are the pairs
(i, j), (j, i) inside the band) or a column span (`_SpanFamily`: knot,
regression; every basis, rank-deficient or not, is orthonormalized in one
batched SVD per width).  Sparsity, jump and knot structures are sorted
position sets and share their bookkeeping (`_PositionSetFamily`).

All index data is 0-based, both in memory and in the JSON shape
{"family": tag, "data": {...}} that `structure_to_json` writes (sorted
integer arrays).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import (CapExceededError, DimensionMismatchError, InvalidStructureError,
                     UnsupportedFamilyError)
from . import linalg
from .linalg import as_vector, span_rank

LOG = math.log

# floats in one chunk of `BiclusterFamily.label_rss`, one copy of y per
# labeling, and of the bicluster search's block-sum screen (512 KB)
LABEL_BLOCK = 1 << 16


def xlog(count: int, total_scaled: float) -> float:
    # 0 * log(a/0) = 0 convention
    if count == 0:
        return 0.0
    return count * LOG(total_scaled / count)


def log_binom(n: int, k: int) -> float:
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_multinom(n: int, sizes) -> float:
    out = math.lgamma(n + 1)
    for s in sizes:
        out -= math.lgamma(s + 1)
    return out


def geometric_sum(nu: float) -> float:
    """sum over k >= 0 of e^(-nu k) = 1 / (1 - e^(-nu)), through expm1, so it
    keeps full precision at tiny nu and overflows at no nu."""
    return -1.0 / math.expm1(-nu)


# ---------------------------------------------------------------------------
# Structures (tagged union)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truncation:
    level: int


@dataclass(frozen=True)
class SparseSet:
    indices: tuple[int, ...]


@dataclass(frozen=True)
class LeveledSparse:
    # levels[j] is the sorted index set at resolution level j (within [0, 2^j))
    levels: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MultiLevelPartition:
    free: tuple[int, ...]
    clusters: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class JumpSet:
    # break after position b: entries b and b+1 may differ
    breaks: tuple[int, ...]


@dataclass(frozen=True)
class KnotSet:
    # interior positions whose second difference is unconstrained
    knots: tuple[int, ...]


@dataclass(frozen=True)
class RegressionSupport:
    indices: tuple[int, ...]
    full_rank: bool = False


@dataclass(frozen=True)
class Band:
    width: int


@dataclass(frozen=True)
class Bicluster:
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]


def sorted_tuple(xs) -> tuple[int, ...]:
    return tuple(sorted(map(int, xs)))


def is_sorted_unique(pos) -> bool:
    """pos == sorted_tuple(set(pos)).  A tuple of plain ints, the common case,
    is checked for strict increase in C, without converting or sorting."""
    if type(pos) is tuple and set(map(type, pos)) <= {int}:
        return all(map(operator.lt, pos, pos[1:]))
    return pos == sorted_tuple(set(pos))


def canonical_partition(blocks) -> tuple[tuple[int, ...], ...]:
    """Sort each block, then sort blocks by smallest element; drop empties."""
    cleaned = [sorted_tuple(b) for b in blocks if len(b) > 0]
    return tuple(sorted(cleaned, key=lambda b: b[0]))


def _check_partition(blocks, ground: int, what: str):
    seen: set[int] = set()
    for b in blocks:
        if len(b) == 0:
            raise InvalidStructureError(f"{what}: empty block")
        for i in b:
            if not (0 <= i < ground):
                raise InvalidStructureError(f"{what}: index {i} out of range [0, {ground})")
            if i in seen:
                raise InvalidStructureError(f"{what}: index {i} repeated")
            seen.add(i)
    if len(seen) != ground:
        raise InvalidStructureError(f"{what}: blocks do not cover the ground set")


# ---------------------------------------------------------------------------
# Enumeration caps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Caps:
    """Limits for exhaustive enumeration.

    max_count bounds the number of emitted structures, max_size the index-set
    cardinality (where meaningful), max_blocks the cluster/block count per
    axis.  Enumeration raises CapExceededError with the projected count when
    max_count would be exceeded.
    """

    max_count: int = 200_000
    max_size: int | None = None
    max_blocks: int | None = None


def _check_projected(caps: Caps, projected: int) -> None:
    """Raise CapExceededError when `projected` structures exceed caps.max_count."""
    if projected > caps.max_count:
        # Decimal formats counts past the float range, which float(projected) cannot
        raise CapExceededError(
            f"enumeration of {Decimal(projected):.6g} structures exceeds "
            f"max_count={caps.max_count}",
            projected_count=projected,
        )


def _capped(it, caps: Caps, projected: int):
    _check_projected(caps, projected)
    count = 0
    for item in it:
        count += 1
        if count > caps.max_count:
            raise CapExceededError(
                f"enumeration exceeds max_count={caps.max_count}",
                projected_count=projected,
            )
        yield item


# ---------------------------------------------------------------------------
# Family base
# ---------------------------------------------------------------------------


class Family:
    """Base class; subclasses define one structure family each.

    A subclass's one projection kernel `_project_rows(structure, rows)`
    returns P_I applied to every row of a float (m, ambient_dim) array.
    `project` and `project_many` check the structure and shape, then call it;
    `project` goes through `_project`, the one-row batch.  Each subspace
    shape also defines `_project_stack(structures, y)`, which projects onto
    many structures, each already validated, either one vector y or, when y
    is a (K, ambient_dim) array, row k of y onto structures[k], with the
    bytes of `project` in every row.
    """

    tag: str = ""
    ambient_dim: int = 0
    supports_union: bool = True

    # -- contract surface ---------------------------------------------------

    def validate(self, structure) -> None:
        raise NotImplementedError

    def project(self, structure, theta) -> np.ndarray:
        theta = self.as_point(theta)
        self.validate(structure)
        return self._project(structure, theta)

    def as_point(self, theta) -> np.ndarray:
        """theta as a finite float vector of the ambient dimension."""
        theta = as_vector(theta)
        if theta.size != self.ambient_dim:
            raise DimensionMismatchError(
                f"{self.tag}: theta has length {theta.size}, ambient is {self.ambient_dim}"
            )
        return theta

    def project_many(self, structure, rows: np.ndarray) -> np.ndarray:
        """Project each row of the (m, ambient_dim) array ``rows``."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.ambient_dim:
            raise DimensionMismatchError(
                f"{self.tag}: rows have shape {rows.shape}, need (m, {self.ambient_dim})"
            )
        self.validate(structure)
        return self._project_rows(structure, rows)

    def _project(self, structure, theta):
        return self._project_rows(structure, theta[None])[0]

    def _project_rows(self, structure, rows):
        raise NotImplementedError

    def dim(self, structure) -> int:
        self.validate(structure)
        return self._dim(structure)

    def majorant(self, structure) -> float:
        self.validate(structure)
        return self._majorant(structure)

    def enumerate_structures(self, caps: Caps | None = None):
        raise NotImplementedError

    def size_classes(self, caps: Caps | None = None):
        """(count, representative) pairs covering enumerate_structures(caps):
        each class holds `count` structures that share the representative's
        majorant and dimension.  The default is one class per structure."""
        return ((1, s) for s in self.enumerate_structures(caps))

    def union_structure(self, i0, i1):
        if not self.supports_union:
            raise UnsupportedFamilyError(f"union witness is not available for family {self.tag}")
        self.validate(i0)
        self.validate(i1)
        return self._union(i0, i1)

    def sort_key(self, structure):
        """Canonical (size-lexicographic) enumeration order key."""
        raise NotImplementedError

    # -- serialization ------------------------------------------------------

    def structure_to_json(self, structure) -> dict:
        self.validate(structure)
        return {"family": self.tag, "data": self._data_to_json(structure)}


class _SizeIndexed:
    """A family whose nested path holds one structure per size k = 0..n_sizes-1,
    with a majorant and a dimension that depend on k alone (`size_majorant`,
    `size_dim`).  `size_majorants` and `size_dims` hold them for every k,
    built on first read, once per family instance, and read-only."""

    n_sizes: int

    @functools.cached_property
    def size_majorants(self) -> np.ndarray:
        return _read_only([self.size_majorant(k) for k in range(self.n_sizes)], float)

    @functools.cached_property
    def size_dims(self) -> np.ndarray:
        return _read_only([self.size_dim(k) for k in range(self.n_sizes)], int)


def _read_only(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Subspace shapes: column spans and block means
# ---------------------------------------------------------------------------


class _SpanFamily(Family):
    """A family whose L_I is the column span of a basis of `_width(s)`
    columns (at most ambient_dim): knot and regression.  `_bases(group)`
    stacks the bases of one width into a (G, ambient_dim, width) array.
    The row kernel, the stacked projection and `noise.check_a1` all read
    the orthonormal bases through `_span_groups`, full rank or not."""

    def _width(self, s) -> int:
        raise NotImplementedError

    def _bases(self, group) -> np.ndarray:
        raise NotImplementedError

    def _project_rows(self, s, rows):
        groups, _ = self._span_groups([s])
        if not groups:
            return np.zeros_like(rows)
        q = groups[0][1][0]
        return (rows @ q) @ q.T

    def _span_groups(self, structures) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[int]]:
        """(groups, dims): one group (idx, q) per width and nonzero rank,
        with q the `linalg.orthonormal_spans` of the bases at positions idx,
        and dims the dimension of each structure's span.  A structure whose
        span is the zero subspace (width 0, or only zero columns) is in no
        group."""
        by_width: dict[int, list[int]] = {}
        for k, s in enumerate(structures):
            by_width.setdefault(self._width(s), []).append(k)
        groups, dims = [], np.zeros(len(structures), dtype=int)
        for width, idx in by_width.items():
            if width == 0:
                continue
            idx = np.array(idx)
            dims[idx], same_width = linalg.orthonormal_spans(
                self._bases([structures[k] for k in idx]))
            groups += [(idx[at], q) for at, q in same_width]
        return groups, dims.tolist()

    def _project_stack(self, structures, y):
        out = np.zeros((len(structures), self.ambient_dim))
        for idx, q in self._span_groups(structures)[0]:
            rows = y[None] if y.ndim == 1 else y[idx][:, None]
            out[idx] = ((rows @ q) @ q.transpose(0, 2, 1))[:, 0]
        return out


class _BlockMeanFamily(Family):
    """A family whose P_I keeps the coordinates `_blocks(s)[0]`, replaces
    each block of `_blocks(s)[1]` (of at least 2) by its mean and zeroes the
    rest.  With no blocks P_I is a coordinate mask: smoothness, sparsity and
    leveled; clustering, jump, bicluster and banding have blocks.  The row
    kernel, the stack and `noise.check_a1` all read `masks`; the kernels
    write the means of all blocks of one size at once."""

    def _blocks(self, s) -> tuple:
        raise NotImplementedError

    def masks(self, structures) -> tuple[np.ndarray, dict]:
        """(keep, by_size): keep is the (K, ambient_dim) bool array whose row
        k marks the coordinates that structures[k] keeps; by_size maps each
        block size to (rows, blocks), the position k and the (G, size)
        coordinates of every block of that size."""
        kept_at: tuple[list[int], list[int]] = ([], [])
        by_size: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
        for k, s in enumerate(structures):
            kept, blocks = self._blocks(s)
            kept_at[0].extend([k] * len(kept))
            kept_at[1].extend(kept)
            for block in blocks:
                rows, same_size = by_size.setdefault(len(block), ([], []))
                rows.append(k)
                same_size.append(block)
        keep = np.zeros((len(structures), self.ambient_dim), dtype=bool)
        # intp: validate accepts integral positions of any number type
        keep[tuple(np.array(at, dtype=np.intp) for at in kept_at)] = True
        return keep, {size: (np.array(rows), np.array(same_size, dtype=np.intp))
                      for size, (rows, same_size) in by_size.items()}

    def _project_rows(self, s, rows):
        keep, by_size = self.masks([s])
        out = np.where(keep, rows, 0.0)
        for _, blocks in by_size.values():
            out[:, blocks] = rows[:, blocks].mean(axis=2)[:, :, None]
        return out

    def _project_stack(self, structures, y):
        keep, by_size = self.masks(structures)
        out = np.where(keep, y, 0.0)
        for rows, blocks in by_size.values():
            gathered = y[blocks] if y.ndim == 1 else y[rows[:, None], blocks]
            out[rows[:, None], blocks] = gathered.mean(axis=1)[:, None]
        return out


# ---------------------------------------------------------------------------
# Smoothness (truncation levels)
# ---------------------------------------------------------------------------


class SmoothnessFamily(_SizeIndexed, _BlockMeanFamily):
    """Truncation structures: L_I zeroes every coordinate past the level."""

    tag = "smoothness"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n >= 1 required")
        self.n = n
        self.ambient_dim = n
        self.n_sizes = n + 1

    def validate(self, s):
        if not isinstance(s, Truncation) or not (0 <= s.level <= self.n):
            raise InvalidStructureError(f"invalid truncation level for n={self.n}: {s!r}")

    def _blocks(self, s):
        return range(s.level), ()

    def _dim(self, s):
        return self.size_dim(s.level)

    def _majorant(self, s):
        return self.size_majorant(s.level)

    def size_dim(self, level: int) -> int:
        return level

    def size_majorant(self, level: int) -> float:
        return float(level)

    def enumerate_structures(self, caps=None):
        caps = caps or Caps()
        return _capped((Truncation(i) for i in range(self.n + 1)), caps, self.n + 1)

    def _union(self, i0, i1):
        return Truncation(max(i0.level, i1.level))

    def sort_key(self, s):
        return (s.level,)

    def _data_to_json(self, s):
        return {"level": s.level}

    def a2_closed_form(self, nu: float) -> float:
        return geometric_sum(nu)


# ---------------------------------------------------------------------------
# Sorted position sets: sparsity, jump and knot
# ---------------------------------------------------------------------------


class _PositionSetFamily(Family):
    """Sorted sets of positions in [first, last], last = n - from_end, held
    in the tuple field `field` of `structure_type`.  Enumeration is by size,
    then lexicographic; the union witness is the set union."""

    structure_type: type
    field: str
    first: int
    from_end: int

    def __init__(self, n: int):
        if n < self.first + self.from_end:
            raise ValueError(f"n >= {self.first + self.from_end} required")
        self.n = n
        self.ambient_dim = n
        self.last = n - self.from_end

    def _positions(self, s) -> tuple[int, ...]:
        return getattr(s, self.field)

    def validate(self, s):
        if not isinstance(s, self.structure_type):
            raise InvalidStructureError(f"not a {self.structure_type.__name__}: {s!r}")
        pos = self._positions(s)
        if not is_sorted_unique(pos):
            raise InvalidStructureError(f"{self.field} must be sorted and unique")
        if pos and not (self.first <= pos[0] and pos[-1] <= self.last):
            raise InvalidStructureError(
                f"{self.field} out of range [{self.first}, {self.last + 1})"
            )

    def _class_counts(self, caps: Caps) -> list[int]:
        """counts[k]: the number of sets of size k, for each size the caps allow."""
        count = self.last - self.first + 1
        max_size = count if caps.max_size is None else min(caps.max_size, count)
        counts = [1]
        for k in range(max_size):  # C(count, k+1) = C(count, k) (count-k) / (k+1)
            counts.append(counts[-1] * (count - k) // (k + 1))
        return counts

    def enumerate_structures(self, caps=None):
        caps = caps or Caps()
        counts = self._class_counts(caps)

        def gen():
            for size in range(len(counts)):
                for combo in itertools.combinations(range(self.first, self.last + 1), size):
                    yield self.structure_type(combo)

        return _capped(gen(), caps, sum(counts))

    def size_classes(self, caps=None):
        # majorant and dimension depend on the set size alone; the
        # representative is the first set of each size
        caps = caps or Caps()
        counts = self._class_counts(caps)
        _check_projected(caps, sum(counts))
        return [(c, self.structure_type(tuple(range(self.first, self.first + size))))
                for size, c in enumerate(counts)]

    def _union(self, i0, i1):
        union = set(self._positions(i0)) | set(self._positions(i1))
        return self.structure_type(sorted_tuple(union))

    def sort_key(self, s):
        pos = self._positions(s)
        return (len(pos), pos)

    def _data_to_json(self, s):
        return {self.field: list(self._positions(s))}


class SparsityFamily(_SizeIndexed, _BlockMeanFamily, _PositionSetFamily):
    """Subset structures: L_I zeroes the complement of the index set.

    majorant_variant "rho" uses 2|I| log(en/|I|); "rho_prime" the slightly
    smaller max{|I|, log C(n,|I|)}.
    """

    tag = "sparsity"
    structure_type, field, first, from_end = SparseSet, "indices", 0, 1

    def __init__(self, n: int, majorant_variant: str = "rho"):
        super().__init__(n)
        if majorant_variant not in ("rho", "rho_prime"):
            raise ValueError(f"unknown majorant variant {majorant_variant!r}")
        self.majorant_variant = majorant_variant
        self.n_sizes = n + 1

    def _blocks(self, s):
        return s.indices, ()

    def _dim(self, s):
        return self.size_dim(len(s.indices))

    def size_dim(self, size: int) -> int:
        return size

    def size_majorant(self, size: int) -> float:
        if self.majorant_variant == "rho":
            return 2.0 * xlog(size, math.e * self.n)
        return max(float(size), log_binom(self.n, size))

    def _majorant(self, s):
        return self.size_majorant(len(s.indices))

    def a2_closed_form(self, nu: float) -> float | None:
        if self.majorant_variant == "rho" and nu > 1.0:
            return 1.0 / (1.0 - math.exp(1.0 - nu))
        return None


# ---------------------------------------------------------------------------
# Leveled sparsity (wavelet-style dyadic levels)
# ---------------------------------------------------------------------------


class LeveledSparsityFamily(_BlockMeanFamily):
    """Per-level index subsets over dyadic levels 0..n_levels-1.

    Level j holds 2^j coordinates, stored level-major, so the ambient
    dimension is 2^n_levels - 1.  The canonical form trims trailing empty
    levels (the cut level is implicit), which removes the redundancy between
    a shallow structure and the same sets padded with empty levels.
    """

    tag = "leveled"

    def __init__(self, n_levels: int):
        if n_levels < 1:
            raise ValueError("n_levels >= 1 required")
        self.n_levels = n_levels
        self.ambient_dim = 2**n_levels - 1
        self.level_offsets = [2**j - 1 for j in range(n_levels)]

    @staticmethod
    def canonical(levels) -> LeveledSparse:
        lv = [sorted_tuple(set(l)) for l in levels]
        while lv and not lv[-1]:
            lv.pop()
        return LeveledSparse(tuple(lv))

    def validate(self, s):
        if not isinstance(s, LeveledSparse):
            raise InvalidStructureError(f"not a leveled sparse set: {s!r}")
        if len(s.levels) > self.n_levels:
            raise InvalidStructureError(f"more than {self.n_levels} levels")
        if s.levels and not s.levels[-1]:
            raise InvalidStructureError("trailing empty level; use the canonical form")
        for j, lv in enumerate(s.levels):
            if not is_sorted_unique(lv):
                raise InvalidStructureError(f"level {j}: indices must be sorted and unique")
            if lv and not (0 <= lv[0] and lv[-1] < 2**j):
                raise InvalidStructureError(f"level {j}: index out of range [0, {2 ** j})")

    def _blocks(self, s):
        # the flat positions of the indices of every level
        kept = []
        for j, lv in enumerate(s.levels):
            off = self.level_offsets[j]
            kept.extend(off + k for k in lv)
        return kept, ()

    def _dim(self, s):
        return sum(len(lv) for lv in s.levels)

    def level_majorant(self, j: int, size: int) -> float:
        """Share of the majorant from `size` indices on level j."""
        return 2.0 * xlog(size, math.e * 2**j)

    def _majorant(self, s):
        # start at 0.0 so the empty structure's majorant stays a float
        return sum((self.level_majorant(j, len(lv)) for j, lv in enumerate(s.levels)), 0.0)

    def _projected_count(self, caps: Caps) -> int:
        """sum_{k <= m} C(N, k) supports of at most m = caps.max_size indices;
        2^N when every coordinate can be in or out."""
        n, m = self.ambient_dim, caps.max_size
        return 2**n if m is None or m >= n else sum(math.comb(n, k) for k in range(m + 1))

    def _level_sizes(self, caps: Caps):
        """Tuples (k_0, ..., k_{L-1}) of per-level sizes, k_j <= 2^j, that sum
        to at most caps.max_size, in the order of itertools.product over the
        levels; no tuple past the bound is built."""
        def tails(j, budget):
            if j == self.n_levels:
                yield ()
                return
            for k in range(min(2**j, budget) + 1):
                for tail in tails(j + 1, budget - k):
                    yield (k, *tail)

        return tails(0, self.ambient_dim if caps.max_size is None else caps.max_size)

    def enumerate_structures(self, caps=None):
        caps = caps or Caps()

        def gen():
            # combinations are sorted, so each product is canonical once the
            # trailing empty levels are trimmed from the sizes
            for sizes in self._level_sizes(caps):
                depth = max((j + 1 for j, k in enumerate(sizes) if k), default=0)
                levels = (itertools.combinations(range(2**j), k)
                          for j, k in enumerate(sizes[:depth]))
                for combo in itertools.product(*levels):
                    yield LeveledSparse(combo)

        out = sorted(_capped(gen(), caps, self._projected_count(caps)), key=self.sort_key)
        return iter(out)

    def size_classes(self, caps=None):
        """One class per tuple (k_0, ..., k_{L-1}) of per-level sizes, holding
        prod_j C(2^j, k_j) structures; the majorant is a sum of per-level
        shares of the sizes.  The representative takes the first k_j indices
        of each level."""
        caps = caps or Caps()
        _check_projected(caps, self._projected_count(caps))
        return [(math.prod(math.comb(2**j, k) for j, k in enumerate(sizes)),
                 self.canonical(range(k) for k in sizes))
                for sizes in self._level_sizes(caps)]

    def _union(self, i0, i1):
        depth = max(len(i0.levels), len(i1.levels))
        merged = []
        for j in range(depth):
            a = set(i0.levels[j]) if j < len(i0.levels) else set()
            b = set(i1.levels[j]) if j < len(i1.levels) else set()
            merged.append(sorted_tuple(a | b))
        return self.canonical(merged)

    def sort_key(self, s):
        return (self._dim(s), len(s.levels), s.levels)

    def _data_to_json(self, s):
        return {"levels": [list(lv) for lv in s.levels]}

    # No closed-form summability constant is shipped for this family: the
    # natural candidate 1/(e^{nu-1}-2) silently skips layers with empty
    # levels, yet the empty structure alone already contributes e^0 = 1 to
    # the sum.  check_a2 reports the exact enumerated sum instead.


# ---------------------------------------------------------------------------
# Multi-level clustering
# ---------------------------------------------------------------------------


def _min2_partition_counts(n: int, max_blocks: int) -> list[int]:
    """counts[m] for m = 0..n: set partitions of m items into at most
    max_blocks blocks, each of size >= 2.

    With S(m, k) the count for exactly k blocks, item m either joins one of
    the k blocks over the other m-1 items or pairs with one of them:
    S(m, k) = k S(m-1, k) + (m-1) S(m-2, k-1), S(0, 0) = 1.
    """
    blocks = max(0, min(max_blocks, n // 2))
    table = [[0] * (blocks + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(2, n + 1):
        for k in range(1, blocks + 1):
            table[m][k] = k * table[m - 1][k] + (m - 1) * table[m - 2][k - 1]
    return [sum(row) for row in table]


class ClusteringFamily(_BlockMeanFamily):
    """Free coordinates plus clusters replaced by their group averages.

    Canonical form keeps only clusters of size >= 2: a singleton cluster
    spans the same subspace as a free coordinate but carries a strictly
    larger majorant, so enumeration emits the cheaper representative.
    The union witness is an open problem for this family and is refused.
    """

    tag = "clustering"
    supports_union = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n >= 1 required")
        self.n = n
        self.ambient_dim = n

    def validate(self, s):
        if not isinstance(s, MultiLevelPartition):
            raise InvalidStructureError(f"not a multi-level partition: {s!r}")
        _check_partition((s.free,) + s.clusters if s.free else s.clusters, self.n, self.tag)
        if s.free != sorted_tuple(s.free):
            raise InvalidStructureError("free set must be sorted")
        if s.clusters != canonical_partition(s.clusters):
            raise InvalidStructureError("clusters must be in canonical order")

    def _blocks(self, s):
        return s.free, s.clusters

    def _dim(self, s):
        return min(len(s.free) + len(s.clusters), self.n)

    def _majorant(self, s):
        m = len(s.clusters)
        sizes = [len(s.free)] + [len(c) for c in s.clusters]
        return (
            float(min(len(s.free) + m, self.n))
            + log_multinom(self.n, sizes)
            + log_binom(self.n + m, m)
        )

    def enumerate_structures(self, caps=None):
        caps = caps or Caps()
        max_blocks = caps.max_blocks if caps.max_blocks is not None else self.n

        def partitions_min2(items, blocks_left):
            # set partitions of `items` into at most blocks_left blocks, each of size >= 2
            if not items:
                yield []
                return
            if blocks_left <= 0 or len(items) < 2:
                return
            first, rest = items[0], items[1:]
            for r in range(1, len(rest) + 1):
                for mates in itertools.combinations(rest, r):
                    block = (first,) + mates
                    remaining = [x for x in rest if x not in mates]
                    for tail in partitions_min2(remaining, blocks_left - 1):
                        yield [block] + tail

        def gen():
            items = list(range(self.n))
            for free_size in range(self.n + 1):
                for free in itertools.combinations(items, free_size):
                    rest = [x for x in items if x not in free]
                    for blocks in partitions_min2(rest, max_blocks):
                        yield MultiLevelPartition(tuple(free), canonical_partition(blocks))

        clustered = _min2_partition_counts(self.n, max_blocks)
        projected = sum(math.comb(self.n, f) * clustered[self.n - f] for f in range(self.n + 1))
        out = sorted(_capped(gen(), caps, projected), key=self.sort_key)
        return iter(out)

    def sort_key(self, s):
        return (len(s.free) + len(s.clusters), s.free, s.clusters)

    def _data_to_json(self, s):
        return {"free": list(s.free), "clusters": [list(c) for c in s.clusters]}

    def a2_closed_form(self, nu: float) -> float | None:
        return 1.0 if nu >= 1.0 else None


# ---------------------------------------------------------------------------
# Shape: jump sets (piecewise constant) and knot sets (piecewise linear)
# ---------------------------------------------------------------------------


class JumpFamily(_BlockMeanFamily, _PositionSetFamily):
    """Piecewise-constant sequences; a break after position b frees x[b+1].

    P_I takes the mean of each segment between breaks."""

    tag = "jump"
    structure_type, field, first, from_end = JumpSet, "breaks", 0, 2

    def segments(self, s):
        bounds = [0] + [int(b) + 1 for b in s.breaks] + [self.n]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def _blocks(self, s):
        segments = self.segments(s)
        return ([lo for lo, hi in segments if hi - lo == 1],
                [tuple(range(lo, hi)) for lo, hi in segments if hi - lo > 1])

    def _dim(self, s):
        return len(s.breaks) + 1

    def _majorant(self, s):
        return 1.0 + 2.0 * xlog(len(s.breaks), math.e * self.n)


class KnotFamily(_SpanFamily, _PositionSetFamily):
    """Continuous piecewise-linear sequences with free curvature at knots.

    The subspace for knot set I is spanned by 1, t and the hinge columns
    (t - k)_+ for k in I, so dim = |I| + 2.  The majorant is the sparsity-style
    1 + 3|I| log(en/|I|), floored at the dimension so that rho >= d_I also
    holds for the empty knot set (the formula alone gives 1 < 2 there).
    """

    tag = "knot"
    structure_type, field, first, from_end = KnotSet, "knots", 1, 2

    def _width(self, s):
        return len(s.knots) + 2

    def _bases(self, group):
        knots = np.array([s.knots for s in group], dtype=float)  # (G, width - 2)
        t = np.arange(self.n, dtype=float)
        out = np.empty((len(group), self.n, knots.shape[1] + 2))
        out[:, :, 0] = 1.0
        out[:, :, 1] = t
        out[:, :, 2:] = np.maximum(t[:, None] - knots[:, None, :], 0.0)
        return out

    def _dim(self, s):
        return len(s.knots) + 2

    def _majorant(self, s):
        k = len(s.knots)
        return max(float(k + 2), 1.0 + 3.0 * xlog(k, math.e * self.n))


# ---------------------------------------------------------------------------
# Regression supports with rank elbow
# ---------------------------------------------------------------------------


class RegressionFamily(_SpanFamily, Family):
    """Column supports of a fixed design, living in prediction space R^n.

    The family is {I subset of [p]: 2|I| log(ep/|I|) <= r} plus the
    distinguished full-rank structure I_r (the first r linearly independent
    columns), whose majorant is r itself -- the elbow.
    """

    tag = "regression"

    def __init__(self, design: np.ndarray):
        design = np.asarray(design, dtype=float)
        if design.ndim != 2 or design.shape[0] < 1 or design.shape[1] < 1:
            raise ValueError("design must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(design)):
            raise ValueError("design entries must be finite")
        self.design = design
        self.n_obs, self.p = design.shape
        self.ambient_dim = self.n_obs
        self.rank = span_rank(design)
        self.full_rank_structure = RegressionSupport(self._greedy_independent(), True)

    def _greedy_independent(self) -> tuple[int, ...]:
        chosen: list[int] = []
        rank = 0
        for j in range(self.p):
            if span_rank(self.design[:, chosen + [j]]) > rank:
                chosen.append(j)
                rank += 1
            if rank == self.rank:
                break
        return tuple(chosen)

    def in_small_family(self, size: int) -> bool:
        return 2.0 * xlog(size, math.e * self.p) <= self.rank

    def validate(self, s):
        if not isinstance(s, RegressionSupport):
            raise InvalidStructureError(f"not a regression support: {s!r}")
        if not is_sorted_unique(s.indices):
            raise InvalidStructureError("indices must be sorted and unique")
        if s.indices and not (0 <= s.indices[0] and s.indices[-1] < self.p):
            raise InvalidStructureError(f"indices out of range [0, {self.p})")
        if s.full_rank:
            if s != self.full_rank_structure:
                raise InvalidStructureError("full_rank structure must be the canonical I_r")
        elif not self.in_small_family(len(s.indices)):
            raise InvalidStructureError(
                f"support of size {len(s.indices)} exceeds the 2|I|log(ep/|I|) <= rank cap"
            )

    def columns(self, s) -> np.ndarray:
        return self.design[:, list(s.indices)]

    def _width(self, s):
        return len(s.indices)

    def _bases(self, group):
        # design[:, idx] with idx of shape (G, width) is (n_obs, G, width)
        return np.moveaxis(self.design[:, [s.indices for s in group]], 1, 0)

    def _dim(self, s):
        return self.rank if s.full_rank else span_rank(self.columns(s))

    def _majorant(self, s):
        if s.full_rank:
            return float(self.rank)
        return 2.0 * xlog(len(s.indices), math.e * self.p)

    def enumerate_structures(self, caps=None):
        caps = caps or Caps()
        limit = self.p if caps.max_size is None else min(caps.max_size, self.p)
        sizes = [s for s in range(limit + 1) if self.in_small_family(s)]
        projected = sum(math.comb(self.p, s) for s in sizes) + 1

        def gen():
            for size in sizes:
                for combo in itertools.combinations(range(self.p), size):
                    yield RegressionSupport(combo)
            yield self.full_rank_structure

        return _capped(gen(), caps, projected)

    def _union(self, i0, i1):
        if i0.full_rank or i1.full_rank:
            return self.full_rank_structure
        union = sorted_tuple(set(i0.indices) | set(i1.indices))
        if not self.in_small_family(len(union)):
            return self.full_rank_structure
        return RegressionSupport(union)

    def sort_key(self, s):
        return (len(s.indices), s.indices, s.full_rank)

    def _data_to_json(self, s):
        return {"indices": list(s.indices), "full_rank": s.full_rank}

    def a2_closed_form(self, nu: float) -> float | None:
        return 1.0 / (1.0 - math.exp(1.0 - nu)) if nu > 1.0 else None


# ---------------------------------------------------------------------------
# Banded symmetric matrices
# ---------------------------------------------------------------------------


class BandingFamily(_SizeIndexed, _BlockMeanFamily):
    """Symmetric banded p x p matrices in vectorized (row-major) form; the
    nested path holds widths 0..p-1 (width p spans what p-1 spans).

    P_I symmetrizes and zeroes outside the band: it keeps the diagonal and
    replaces each pair of entries (i, j), (j, i) with 0 < j - i <= width by
    its mean."""

    tag = "banding"

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("p >= 1 required")
        self.p = p
        self.ambient_dim = p * p
        self.n_sizes = p

    def validate(self, s):
        if not isinstance(s, Band) or not (0 <= s.width <= self.p):
            raise InvalidStructureError(f"invalid band width for p={self.p}: {s!r}")

    def _blocks(self, s):
        p = self.p
        return ([i * p + i for i in range(p)],
                [(i * p + j, j * p + i) for i in range(p)
                 for j in range(i + 1, min(i + s.width, p - 1) + 1)])

    def _dim(self, s):
        return self.size_dim(min(s.width, self.p - 1))

    def _majorant(self, s):
        return self.size_majorant(min(s.width, self.p - 1))

    def size_dim(self, width: int) -> int:
        return self.p + width * self.p - (width * (width + 1)) // 2

    def size_majorant(self, width: int) -> float:
        return float(self.size_dim(width))

    def enumerate_structures(self, caps=None):
        # widths p-1 and p give the same subspace; emit one representative each
        caps = caps or Caps()
        return _capped((Band(w) for w in range(self.p)), caps, self.p)

    def _union(self, i0, i1):
        return Band(max(i0.width, i1.width))

    def sort_key(self, s):
        return (s.width,)

    def _data_to_json(self, s):
        return {"width": s.width}

    def a2_closed_form(self, nu: float) -> float:
        # same geometric structure as the truncation family
        return geometric_sum(nu)


# ---------------------------------------------------------------------------
# Biclustering
# ---------------------------------------------------------------------------


class BiclusterFamily(_BlockMeanFamily):
    """Row/column partitions of an n1 x n2 matrix with block-constant means.

    The majorant follows the four-branch elbow: per-axis label-counting costs
    n log s are replaced by the cheaper exact terms once an axis is fully
    split (s = n on that axis).
    """

    tag = "bicluster"

    def __init__(self, n1: int, n2: int):
        if n1 < 1 or n2 < 1:
            raise ValueError("n1, n2 >= 1 required")
        self.n1 = n1
        self.n2 = n2
        self.ambient_dim = n1 * n2

    def validate(self, s):
        if not isinstance(s, Bicluster):
            raise InvalidStructureError(f"not a bicluster: {s!r}")
        _check_partition(s.rows, self.n1, "bicluster rows")
        _check_partition(s.cols, self.n2, "bicluster cols")
        if s.rows != canonical_partition(s.rows) or s.cols != canonical_partition(s.cols):
            raise InvalidStructureError("blocks must be in canonical order")

    def _blocks(self, s):
        # the row-major flat positions of each row block x column block
        cells = [tuple(r * self.n2 + c for r in rb for c in cb) for rb in s.rows for cb in s.cols]
        return [c[0] for c in cells if len(c) == 1], [c for c in cells if len(c) > 1]

    def label_rss(self, y, row_labels, col_labels) -> list[float]:
        """||y - P_I y||^2 with the bytes of `Projections.rss` for each
        labeling: row c of the (C, n1) and (C, n2) label stacks is the
        structure I that puts row i in row block row_labels[c, i] and column
        j in column block col_labels[c, j] (labels >= 0; a label no line
        carries is no block), read off the labels without building I.  The
        labelings are scored in chunks of at most `LABEL_BLOCK` floats of
        y, one copy per labeling, unless one labeling alone needs more.

        Within a chunk each labeling's cells get ids of their own,
        c * k1 * k2 + row_label * k2 + col_label for the chunk's largest label
        counts k1 and k2.  A stable argsort by block size, then by cell id,
        makes each block contiguous and in ascending flat order, the
        order of `_blocks`, and lays the G blocks of one size, of every
        labeling, side by side.  Each block mean is `.mean(axis=1)` over that
        (G, size) gather, as `_project_stack` takes it (not
        `np.add.reduceat`, which sums a block of 3 or more in another order),
        and each residual norm is one `np.dot` of a row, as in `rss_all`, so
        P_I y and the norm have the bytes of the stacked kernel's."""
        step = max(LABEL_BLOCK // y.size, 1)
        out = []
        for lo in range(0, len(row_labels), step):
            rows, cols = row_labels[lo:lo + step], col_labels[lo:lo + step]
            k2 = int(cols.max()) + 1
            per = (int(rows.max()) + 1) * k2  # cell ids per labeling
            cells = (rows[:, :, None] * k2 + cols[:, None, :]).reshape(len(rows), -1)
            cells = (cells + per * np.arange(len(rows))[:, None]).reshape(-1)
            sizes = np.bincount(cells)
            order = np.argsort(sizes[cells] * sizes.size + cells, kind="stable")
            ys = np.tile(y, len(rows))
            p = ys.copy()  # a 1 x 1 block keeps its coordinate
            counts = np.bincount(sizes)  # blocks of each size
            ends = np.cumsum(counts * np.arange(counts.size))  # each size's end in order
            for size in (np.flatnonzero(counts[2:]) + 2).tolist():
                blocks = order[ends[size] - size * counts[size]:ends[size]].reshape(-1, size)
                p[blocks] = ys[blocks].mean(axis=1)[:, None]
            ys -= p
            out += [float(np.dot(r, r)) for r in ys.reshape(len(rows), -1)]
        return out

    def block_counts(self, s):
        return len(s.rows), len(s.cols)

    def _dim(self, s):
        s1, s2 = self.block_counts(s)
        return s1 * s2

    def _majorant(self, s):
        return self.counts_majorant(*self.block_counts(s))

    def counts_majorant(self, s1: int, s2: int) -> float:
        """The elbow majorant of any structure with s1 row and s2 column blocks."""
        n1, n2 = self.n1, self.n2
        if s1 < n1 and s2 < n2:
            return s1 * s2 + n1 * LOG(s1) + n2 * LOG(s2)
        if s1 < n1:
            return s1 * n2 + n1 * LOG(s1)
        if s2 < n2:
            return n1 * s2 + n2 * LOG(s2)
        return float(n1 * n2)

    @staticmethod
    def axis_partitions(n: int, max_blocks: int):
        """All set partitions of [0, n) into at most max_blocks blocks."""

        def rec(i, blocks):
            if i == n:
                yield canonical_partition(blocks)
                return
            for b in blocks:
                b.append(i)
                yield from rec(i + 1, blocks)
                b.pop()
            if len(blocks) < max_blocks:
                blocks.append([i])
                yield from rec(i + 1, blocks)
                blocks.pop()

        yield from rec(0, [])

    @staticmethod
    def axis_partition_count(n: int, max_blocks: int) -> int:
        """len(list(axis_partitions(n, max_blocks))), without building them.

        With S(m, k) the count for exactly k blocks, item m either joins one
        of the k blocks over the other m-1 items or opens a block of its own:
        S(m, k) = k S(m-1, k) + S(m-1, k-1), S(0, 0) = 1.
        """
        row = [1] + [0] * max(0, max_blocks)  # row[k] = S(m, k), here m = 0
        for _ in range(n):
            row = [0] + [k * row[k] + row[k - 1] for k in range(1, len(row))]
        return sum(row)

    def enumerate_structures(self, caps=None):
        caps = caps or Caps()
        max_blocks = caps.max_blocks
        b1 = self.n1 if max_blocks is None else min(max_blocks, self.n1)
        b2 = self.n2 if max_blocks is None else min(max_blocks, self.n2)
        projected = self.axis_partition_count(self.n1, b1) * self.axis_partition_count(self.n2, b2)
        # before the partitions are built: 4,213,597 per axis at 12 x 12
        _check_projected(caps, projected)

        row_parts = list(self.axis_partitions(self.n1, b1))
        col_parts = list(self.axis_partitions(self.n2, b2))
        gen = (Bicluster(rp, cp) for rp in row_parts for cp in col_parts)
        out = sorted(_capped(gen, caps, projected), key=self.sort_key)
        return iter(out)

    @staticmethod
    def _refine(part_a, part_b):
        blocks = []
        for a in part_a:
            for b in part_b:
                inter = sorted(set(a) & set(b))
                if inter:
                    blocks.append(tuple(inter))
        return canonical_partition(blocks)

    def _union(self, i0, i1):
        # Containment needs the coarsest common refinement or anything finer;
        # the elbow can make a fully split axis cheaper than an almost-split
        # one, so pick the cheapest among the refinement and its pushed-to-
        # full variants.  Complexity subadditivity rho(I') <= rho(I0)+rho(I1)
        # does NOT hold in general for this family: for I0 = (rows merged,
        # cols split) and I1 = (rows split, cols merged) the only containing
        # subspace is the full split with rho = n1*n2 > n1+n2.
        rows = self._refine(i0.rows, i1.rows)
        cols = self._refine(i0.cols, i1.cols)
        full_rows = canonical_partition([(i,) for i in range(self.n1)])
        full_cols = canonical_partition([(j,) for j in range(self.n2)])
        candidates = [
            Bicluster(rows, cols),
            Bicluster(full_rows, cols),
            Bicluster(rows, full_cols),
            Bicluster(full_rows, full_cols),
        ]
        return min(candidates, key=lambda s: (self._majorant(s), self.sort_key(s)))

    def sort_key(self, s):
        return (len(s.rows) * len(s.cols), s.rows, s.cols)

    def _data_to_json(self, s):
        return {"rows": [list(b) for b in s.rows], "cols": [list(b) for b in s.cols]}

    def a2_closed_form(self, nu: float) -> float | None:
        if nu >= 1.0:  # 1 / (e^nu + e^-nu - 2), written to overflow at no nu
            return math.exp(-nu) / math.expm1(-nu) ** 2
        return None


