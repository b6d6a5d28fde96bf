"""Structure families: discrete structures, their subspaces and complexity.

Each family maps a discrete structure I to a linear subspace L_I of the
ambient space and carries the bookkeeping around it: statistical dimension
d_I, complexity majorant rho(I), slicing label s(I), exhaustive (capped)
enumeration in canonical order, and the union witness I' with
span(L_I0 + L_I1) <= L_I' and rho(I') <= rho(I0) + rho(I1).

Everything downstream uses L_I only through the orthogonal projection P_I,
which each family writes once, as a batch kernel over rows (see `Family`);
bicluster alone adds a vector kernel.  Sparsity, jump and knot structures
are sorted position sets and share their bookkeeping (`_PositionSetFamily`).

All index data is 0-based, both in memory and in the JSON wire shape
{"family": tag, "data": {...}} (sorted integer arrays, bit-exact round trip).
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
from .linalg import as_vector, project_rows_onto_span, span_rank

LOG = math.log


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


def _keep_columns(rows: np.ndarray, idx) -> np.ndarray:
    """Copy of `rows` with every column outside `idx` set to zero."""
    out = np.zeros_like(rows)
    out[:, idx] = rows[:, idx]
    return out


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
    `project` goes through `_project`, which defaults to the one-row batch.
    """

    tag: str = ""
    ambient_dim: int = 0
    supports_union: bool = True

    # -- contract surface ---------------------------------------------------

    def validate(self, structure) -> None:
        raise NotImplementedError

    def project(self, structure, theta) -> np.ndarray:
        theta = as_vector(theta)
        if theta.size != self.ambient_dim:
            raise DimensionMismatchError(
                f"{self.tag}: theta has length {theta.size}, ambient is {self.ambient_dim}"
            )
        self.validate(structure)
        return self._project(structure, theta)

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

    def slicing(self, structure):
        self.validate(structure)
        return self._slicing(structure)

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

    def structure_from_json(self, doc: dict):
        if doc.get("family") != self.tag:
            raise InvalidStructureError(f"expected family {self.tag!r}, got {doc.get('family')!r}")
        structure = self._data_from_json(doc["data"])
        self.validate(structure)
        return structure


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
# Smoothness (truncation levels)
# ---------------------------------------------------------------------------


class SmoothnessFamily(_SizeIndexed, Family):
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

    def kept_coordinates(self, s):
        """Column index of the coordinates that P_I keeps (and does not zero)."""
        return slice(0, s.level)

    def _project_rows(self, s, rows):
        return _keep_columns(rows, self.kept_coordinates(s))

    def _dim(self, s):
        return self.size_dim(s.level)

    def _majorant(self, s):
        return self.size_majorant(s.level)

    def size_dim(self, level: int) -> int:
        return level

    def size_majorant(self, level: int) -> float:
        return float(level)

    def _slicing(self, s):
        return s.level

    def enumerate_structures(self, caps=None):
        caps = caps or Caps()
        return _capped((Truncation(i) for i in range(self.n + 1)), caps, self.n + 1)

    def _union(self, i0, i1):
        return Truncation(max(i0.level, i1.level))

    def sort_key(self, s):
        return (s.level,)

    def _data_to_json(self, s):
        return {"level": s.level}

    def _data_from_json(self, d):
        return Truncation(int(d["level"]))

    def a2_closed_form(self, nu: float) -> float:
        return math.exp(nu) / (math.exp(nu) - 1.0)


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

    def _slicing(self, s):
        return len(self._positions(s))

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

    def _data_from_json(self, d):
        return self.structure_type(sorted_tuple(d[self.field]))


class SparsityFamily(_SizeIndexed, _PositionSetFamily):
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

    def kept_coordinates(self, s):
        # intp: validate accepts integral positions of any number type
        return np.array(s.indices, dtype=np.intp)

    def _project_rows(self, s, rows):
        return _keep_columns(rows, self.kept_coordinates(s))

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


class LeveledSparsityFamily(Family):
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

    def kept_coordinates(self, s) -> list[int]:
        """Flat positions of the indices of every level."""
        out = []
        for j, lv in enumerate(s.levels):
            off = self.level_offsets[j]
            out.extend(off + k for k in lv)
        return out

    def _project_rows(self, s, rows):
        return _keep_columns(rows, self.kept_coordinates(s))

    def _dim(self, s):
        return sum(len(lv) for lv in s.levels)

    def level_majorant(self, j: int, size: int) -> float:
        """Share of the majorant from `size` indices on level j."""
        return 2.0 * xlog(size, math.e * 2**j)

    def _majorant(self, s):
        # start at 0.0 so the empty structure's majorant stays a float
        return sum((self.level_majorant(j, len(lv)) for j, lv in enumerate(s.levels)), 0.0)

    def _slicing(self, s):
        return (len(s.levels) - 1,) + tuple(len(lv) for lv in s.levels)

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
            for sizes in self._level_sizes(caps):
                levels = (itertools.combinations(range(2**j), k) for j, k in enumerate(sizes))
                for combo in itertools.product(*levels):
                    yield self.canonical(combo)

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

    def _data_from_json(self, d):
        return self.canonical(d["levels"])

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


class ClusteringFamily(Family):
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

    def _project_rows(self, s, rows):
        out = _keep_columns(rows, list(s.free))
        for cluster in s.clusters:
            idx = list(cluster)
            out[:, idx] = rows[:, idx].mean(axis=1, keepdims=True)
        return out

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

    def _slicing(self, s):
        return (len(s.free), tuple(sorted(len(c) for c in s.clusters)))

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

    def _data_from_json(self, d):
        return MultiLevelPartition(sorted_tuple(d["free"]), canonical_partition(d["clusters"]))

    def a2_closed_form(self, nu: float) -> float | None:
        return 1.0 if nu >= 1.0 else None


# ---------------------------------------------------------------------------
# Shape: jump sets (piecewise constant) and knot sets (piecewise linear)
# ---------------------------------------------------------------------------


class JumpFamily(_PositionSetFamily):
    """Piecewise-constant sequences; a break after position b frees x[b+1]."""

    tag = "jump"
    structure_type, field, first, from_end = JumpSet, "breaks", 0, 2

    def segments(self, s):
        bounds = [0] + [int(b) + 1 for b in s.breaks] + [self.n]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def _project_rows(self, s, rows):
        out = np.empty_like(rows)
        for lo, hi in self.segments(s):
            out[:, lo:hi] = rows[:, lo:hi].mean(axis=1, keepdims=True)
        return out

    def _dim(self, s):
        return len(s.breaks) + 1

    def _majorant(self, s):
        return 1.0 + 2.0 * xlog(len(s.breaks), math.e * self.n)


class KnotFamily(_PositionSetFamily):
    """Continuous piecewise-linear sequences with free curvature at knots.

    The subspace for knot set I is spanned by 1, t and the hinge columns
    (t - k)_+ for k in I, so dim = |I| + 2.  The majorant is the sparsity-style
    1 + 3|I| log(en/|I|), floored at the dimension so that rho >= d_I also
    holds for the empty knot set (the formula alone gives 1 < 2 there).
    """

    tag = "knot"
    structure_type, field, first, from_end = KnotSet, "knots", 1, 2

    def basis(self, s) -> np.ndarray:
        t = np.arange(self.n, dtype=float)
        cols = [np.ones(self.n), t]
        cols.extend(np.maximum(t - k, 0.0) for k in s.knots)
        return np.column_stack(cols)

    def _project_rows(self, s, rows):
        return project_rows_onto_span(self.basis(s), rows)

    def _dim(self, s):
        return len(s.knots) + 2

    def _majorant(self, s):
        k = len(s.knots)
        return max(float(k + 2), 1.0 + 3.0 * xlog(k, math.e * self.n))


# ---------------------------------------------------------------------------
# Regression supports with rank elbow
# ---------------------------------------------------------------------------


class RegressionFamily(Family):
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

    def _project_rows(self, s, rows):
        return project_rows_onto_span(self.columns(s), rows)

    def _dim(self, s):
        return self.rank if s.full_rank else span_rank(self.columns(s))

    def _majorant(self, s):
        if s.full_rank:
            return float(self.rank)
        return 2.0 * xlog(len(s.indices), math.e * self.p)

    def _slicing(self, s):
        return self.rank if s.full_rank else len(s.indices)

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

    def _data_from_json(self, d):
        return RegressionSupport(sorted_tuple(d["indices"]), bool(d.get("full_rank", False)))

    def a2_closed_form(self, nu: float) -> float | None:
        return 1.0 / (1.0 - math.exp(1.0 - nu)) if nu > 1.0 else None


# ---------------------------------------------------------------------------
# Banded symmetric matrices
# ---------------------------------------------------------------------------


class BandingFamily(_SizeIndexed, Family):
    """Symmetric banded p x p matrices in vectorized (row-major) form; the
    nested path holds widths 0..p-1 (width p spans what p-1 spans)."""

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

    def band_mask(self, width: int) -> np.ndarray:
        idx = np.arange(self.p)
        return (np.abs(idx[:, None] - idx[None, :]) <= width).astype(float)

    def _project_rows(self, s, rows):
        mats = rows.reshape(-1, self.p, self.p)
        sym = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        return (sym * self.band_mask(s.width)[None]).reshape(rows.shape)

    def _dim(self, s):
        return self.size_dim(min(s.width, self.p - 1))

    def _majorant(self, s):
        return self.size_majorant(min(s.width, self.p - 1))

    def size_dim(self, width: int) -> int:
        return self.p + width * self.p - (width * (width + 1)) // 2

    def size_majorant(self, width: int) -> float:
        return float(self.size_dim(width))

    def _slicing(self, s):
        return s.width

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

    def _data_from_json(self, d):
        return Band(int(d["width"]))

    def a2_closed_form(self, nu: float) -> float:
        # same geometric structure as the truncation family
        return math.exp(nu) / (math.exp(nu) - 1.0)


# ---------------------------------------------------------------------------
# Biclustering
# ---------------------------------------------------------------------------


class BiclusterFamily(Family):
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

    # The only family with its own vector kernel: the two kernels sum each
    # block in a different order, so their bytes differ in the last bits.
    # `select` output is pinned to this kernel's bytes and `check a1` output
    # to the batch kernel's, and no single kernel reproduces both.
    def _project(self, s, theta):
        mat = theta.reshape(self.n1, self.n2)
        out = np.empty_like(mat)
        for rb in s.rows:
            for cb in s.cols:
                out[np.ix_(rb, cb)] = mat[np.ix_(rb, cb)].mean()
        return out.reshape(-1)

    def _project_rows(self, s, rows):
        mats = rows.reshape(-1, self.n1, self.n2)
        out = np.empty_like(mats)
        for rb in s.rows:
            for cb in s.cols:
                block = mats[:, rb, :][:, :, cb]
                out[np.ix_(range(mats.shape[0]), rb, cb)] = block.mean(axis=(1, 2))[
                    :, None, None
                ]
        return out.reshape(rows.shape)

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

    def _slicing(self, s):
        return self.block_counts(s)

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

    def enumerate_structures(self, caps=None):
        caps = caps or Caps()
        max_blocks = caps.max_blocks
        b1 = self.n1 if max_blocks is None else min(max_blocks, self.n1)
        b2 = self.n2 if max_blocks is None else min(max_blocks, self.n2)

        row_parts = list(self.axis_partitions(self.n1, b1))
        col_parts = list(self.axis_partitions(self.n2, b2))
        gen = (Bicluster(rp, cp) for rp in row_parts for cp in col_parts)
        out = sorted(_capped(gen, caps, len(row_parts) * len(col_parts)), key=self.sort_key)
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

    def _data_from_json(self, d):
        return Bicluster(canonical_partition(d["rows"]), canonical_partition(d["cols"]))

    def a2_closed_form(self, nu: float) -> float | None:
        if nu >= 1.0:
            return 1.0 / (math.exp(nu) + math.exp(-nu) - 2.0)
        return None


