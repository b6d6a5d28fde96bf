"""Noise generators and Monte Carlo verification of the framework conditions.

Condition A1 bounds the moment generating function of projected noise by the
statistical dimension; A2 is an exact sum over the enumerated structures,
taken by size class, against a closed-form constant where the family has
one; A3 checks union witnesses by projection fixed points, the parts and
then the unions of many pairs in one stacked projection each; A4 checks the
two tail curves behind the quarter ball.

A1 estimation targets a log-MGF whose plug-in estimator is heavy tailed, so
the checker reports a stabilized log-mean-exp with jackknife standard errors
and caps each exponent summand at 700, counting how often the cap bites.
Its projected-noise norms come a block of structures at a time, from BLAS
products: block means through the keep masks and the block sums, column
spans through their orthonormal bases.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, UnsupportedFamilyError
from .structures import Caps, Family, _BlockMeanFamily, _SpanFamily

logger = logging.getLogger(__name__)

EXPONENT_CAP = 700.0
# largest ||P_{I'} P_I x - P_I x|| that check_a3 counts as containment
CONTAINMENT_TOL = 1e-8
# rows of A4 directions drawn, normalized and dotted at a time
A4_BLOCK = 4096
# floats in one A1 block product of structures against the draws (2 MB)
A1_BLOCK = 1 << 18
# A3 pairs whose parts and unions are projected in one stacked call each
A3_BLOCK = 1024


@dataclass(frozen=True)
class NoiseModel:
    """Seedable zero-mean noise stream.

    kinds: gaussian | bounded-uniform (half_width) | rademacher |
    ar1 (coefficient, unit marginal variance) | bernoulli-mean (theta per
    coordinate; the stream is xi = Y - theta for Y ~ Bernoulli(theta)).
    """

    kind: str = "gaussian"
    half_width: float = 1.0
    coefficient: float = 0.0
    theta: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("gaussian", "bounded-uniform", "rademacher", "ar1",
                             "bernoulli-mean"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "ar1" and not (abs(self.coefficient) < 1.0):
            raise ValueError("AR(1) coefficient must satisfy |coefficient| < 1")
        if self.kind == "bounded-uniform" and not (0.0 <= self.half_width
                                                   and 2.0 * self.half_width < math.inf):
            raise ValueError(f"bounded-uniform half_width must be >= 0 and twice it finite, "
                             f"got {self.half_width!r}")
        if self.kind == "bernoulli-mean":
            if not self.theta:
                raise ValueError("bernoulli-mean needs a theta vector")
            if any(not (0.0 <= t <= 1.0) for t in self.theta):
                raise ValueError("bernoulli-mean theta entries must lie in [0, 1]")

    @property
    def unit_variance(self) -> bool:
        return self.kind in ("gaussian", "rademacher", "ar1")

    def sample(self, rng, n: int) -> np.ndarray:
        return self.sample_many(rng, 1, n)[0]

    def sample_many(self, rng, reps: int, n: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal((reps, n))
        if self.kind == "bounded-uniform":
            return rng.uniform(-self.half_width, self.half_width, (reps, n))
        if self.kind == "rademacher":
            return 2.0 * rng.integers(0, 2, (reps, n)).astype(float) - 1.0
        if self.kind == "bernoulli-mean":
            theta = np.asarray(self.theta, dtype=float)
            if theta.size != n:
                raise ValueError(f"bernoulli-mean theta has length {theta.size}, need {n}")
            return (rng.random((reps, n)) < theta).astype(float) - theta
        # ar1: the innovations fill the array row by row, and each column
        # runs its recurrence step over all rows
        phi = self.coefficient
        innov = rng.standard_normal((reps, n))
        out = np.empty_like(innov)
        out[:, 0] = innov[:, 0]
        scale = math.sqrt(1.0 - phi * phi)
        for t in range(1, n):
            out[:, t] = phi * out[:, t - 1] + scale * innov[:, t]
        return out


# ---------------------------------------------------------------------------
# A1: log E exp(alpha ||P_I xi||^2) <= d_I
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class A1Row:
    structure: object
    estimate: float
    bound: float
    std_err: float
    n_saturated: int
    passed: bool


def _log_mean_exp_with_jackknife(values: np.ndarray, hi: float) -> tuple[float, float]:
    """Stabilized log-mean-exp and its jackknife standard error; hi is
    float(values.max()).

    One work array of len(values) holds exp(values - max), then the
    leave-one-out sums, logs and squared deviations in turn (`out=`); each
    step is the elementwise operation the formula names, so the bytes are
    those of computing it with a new array per step.  The largest term is
    exp(0) = 1, so the smallest leave-one-out sum is total - 1, and one
    scalar test tells whether any sum is tiny enough to recompute.
    """
    m = values.size
    work = np.subtract(values, hi)
    np.exp(work, out=work)
    total = float(work.sum())
    lme = hi + math.log(total / m)
    # leave-one-out estimates; recompute directly when one term dominates
    rest = np.subtract(total, work, out=work)
    if total - 1.0 <= total * 1e-12:
        tiny = rest <= total * 1e-12
        loo = np.empty(m)
        ok = ~tiny
        loo[ok] = hi + np.log(rest[ok] / (m - 1))
        for i in np.flatnonzero(tiny):
            sub = np.delete(values, i)
            h2 = float(sub.max())
            loo[i] = h2 + math.log(float(np.exp(sub - h2).sum()) / (m - 1))
    else:
        loo = np.divide(rest, m - 1, out=rest)
        np.log(loo, out=loo)
        loo += hi
    loo -= loo.mean()
    np.square(loo, out=loo)
    se = math.sqrt((m - 1) / m * float(loo.sum()))
    return lme, se


def _sq_norm_rows(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, rows)


def _runs(structures, width, budget: int):
    """Runs of consecutive structures whose widths sum to at most budget; a
    structure wider than budget makes a run alone."""
    block: list = []
    rows = 0
    for s in structures:
        w = width(s)
        if block and rows + w > budget:
            yield block
            block, rows = [], 0
        block.append(s)
        rows += w
    if block:
        yield block


def _span_sq_norms(family: _SpanFamily, block,
                   draws: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(norms of the block, the dimension of each structure).

    The orthonormal bases come a width and rank at a time from
    `family._span_groups`, beside each span's dimension, and
    ||Q_I^T xi||^2 sums the squares of the rows of (stacked Q^T) @ xi^T
    that belong to I.  A zero span is in no group, and its norms are 0."""
    reps, n = draws.shape
    norms = np.zeros((len(block), reps))
    groups, dims = family._span_groups(block)
    for idx, q in groups:
        prod = q.transpose(0, 2, 1).reshape(-1, n) @ draws.T
        np.square(prod, out=prod)
        norms[idx] = prod.reshape(len(idx), -1, reps).sum(axis=1)
    return norms, dims


def _block_mean_sq_norms(family: _BlockMeanFamily, block, draws: np.ndarray,
                         sq: np.ndarray) -> np.ndarray:
    """||P_I xi||^2 for the block: `keep @ sq.T` sums xi_i^2 over the kept
    coordinates, and each block B of I adds (sum_{i in B} xi_i / sqrt|B|)^2,
    from one product of the indicators of the blocks of each size with the
    draws.  Each sum is scaled before it is squared, so it overflows only
    if the norm does."""
    keep, by_size = family.masks(block)
    norms = keep @ sq.T
    for rows, blocks in by_size.values():
        indicators = np.zeros((len(rows), draws.shape[1]))
        indicators[np.arange(len(rows))[:, None], blocks] = 1.0
        sums = indicators @ draws.T
        sums /= math.sqrt(blocks.shape[1])
        np.square(sums, out=sums)
        np.add.at(norms, rows, sums)
    return norms


def _projected_sq_norms(family: Family, draws: np.ndarray, caps: Caps | None):
    """(I, ||P_I xi||^2 for each row xi of draws, dim L_I) for every
    enumerated I, in enumeration order; each I is validated once.

    Every family takes the norms of a block of consecutive structures from
    BLAS products.  The caller consumes each block before the next is
    computed, and neither side holds a block's norms while the next is
    built, so at most one block is alive.  A block's products hold at most
    A1_BLOCK floats, unless one structure alone needs more.

    - A block-mean family (`_BlockMeanFamily`) takes `_block_mean_sq_norms`:
      one row per structure and one per block of coordinates it averages,
      so a mask family (no blocks) takes `keep @ sq.T` alone, with
      sq = xi^2 squared once.
    - A span family (`_SpanFamily`: knot, regression) takes
      ||P_I xi||^2 = ||Q_I^T xi||^2 from one product per width and rank in
      the block (`_span_sq_norms`), rank-deficient bases included.  The
      batched SVD's ranks are the dimensions, so no structure takes an SVD
      of its own.

    A product sums in another order than projecting and then squaring, so
    the block norms are within a few n * eps * ||xi||^2 of the projection
    path's, not its bytes.  The products are taken only while every xi^2 is
    finite (in the mask product inf * 0 is nan): if one overflows, the
    whole family projects one structure at a time.  One DEBUG line says how
    many structures took which way.
    """
    reps = len(draws)
    spans = isinstance(family, _SpanFamily)
    with np.errstate(over="ignore"):
        sq = draws * draws
    products = bool(np.isfinite(sq).all())
    if spans:
        del sq  # only the overflow test reads the squares
    structures = family.enumerate_structures(caps)
    total = 0
    if products:
        width = ((lambda s: max(family._width(s), 1)) if spans
                 else (lambda s: 1 + len(family._blocks(s)[1])))
        for block in _runs(structures, width, max(A1_BLOCK // reps, 1)):
            for s in block:
                family.validate(s)
            if spans:
                norms, dims = _span_sq_norms(family, block, draws)
            else:
                norms = _block_mean_sq_norms(family, block, draws, sq)
                dims = map(family._dim, block)
            total += len(block)
            yield from zip(block, norms, dims)
            del norms  # before the next block's product
    else:
        for s in structures:
            family.validate(s)
            total += 1
            yield s, _sq_norm_rows(family._project_rows(s, draws)), family._dim(s)
    logger.debug("%s: A1 norms of %d structures %s", family.tag, total,
                 "from block products" if products else "projected one at a time")


def check_a1(family: Family, noise: NoiseModel, alpha: float, reps: int, rng,
             caps: Caps | None = None, se_mult: float = 2.0) -> list[A1Row]:
    """Monte Carlo check of the projected-noise MGF bound, per structure,
    against the family's statistical dimension.  For theta-dependent noise
    (bernoulli-mean) the estimate is at the supplied theta only, not the sup
    over the parameter space.

    The norms come from `_projected_sq_norms`, a block of structures at a
    time; each row of a block is scaled, capped and reduced by the
    jackknife in place before the next block is computed.  A row is counted
    and capped only when its maximum exceeds EXPONENT_CAP or is NaN; the
    capped row's maximum is then EXPONENT_CAP (NaN stays NaN).  Each
    structure is validated once, and its bound is its dimension, which
    `_projected_sq_norms` gives beside its norms.
    """
    draws = noise.sample_many(rng, reps, family.ambient_dim)
    rows = []
    for structure, sq_norms, dim in _projected_sq_norms(family, draws, caps):
        exponents = np.multiply(sq_norms, alpha, out=sq_norms)
        hi, n_sat = float(exponents.max()), 0
        if not hi <= EXPONENT_CAP:
            n_sat = int(np.count_nonzero(exponents > EXPONENT_CAP))
            np.minimum(exponents, EXPONENT_CAP, out=exponents)
            hi = min(hi, EXPONENT_CAP)
        est, se = _log_mean_exp_with_jackknife(exponents, hi)
        bound = float(dim)
        rows.append(A1Row(structure, est, bound, se, n_sat, est <= bound + se_mult * se))
        # a row is a view of its block: let the block go before the next
        del sq_norms, exponents
    return rows


# ---------------------------------------------------------------------------
# A2: sum of exp(-nu rho(I)) against the closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class A2Report:
    total: float
    bound: float | None
    passed: bool
    count: int
    min_rho_minus_dim: float


def check_a2(family: Family, nu: float, caps: Caps | None = None) -> A2Report:
    """Exact sum over the enumerated structures; also verifies the
    rho(I) >= d_I clause.

    The sum runs over the family's size classes: each representative is
    validated once, and its term e^{-nu rho} counts once per structure of
    the class.  The distinct terms, times their counts, are added as exact
    rationals and rounded once, so `total` is the correctly rounded exact
    sum: the value `math.fsum` gives over one term per structure.
    """
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu!r}")
    multiplicity: Counter[float] = Counter()
    count = 0
    min_gap = math.inf
    for size, structure in family.size_classes(caps):
        family.validate(structure)
        rho = family._majorant(structure)
        multiplicity[math.exp(-nu * rho)] += size
        min_gap = min(min_gap, rho - family._dim(structure))
        count += size
    total = float(sum(Fraction(term) * m for term, m in multiplicity.items()))
    bound = None
    closed = getattr(family, "a2_closed_form", None)
    if closed is not None:
        bound = closed(nu)
    passed = (min_gap >= 0.0) and (bound is None or total <= bound)
    return A2Report(total, bound, passed, count, min_gap)


# ---------------------------------------------------------------------------
# A3: union witness containment and subadditivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class A3Report:
    pairs_checked: int
    max_containment_residual: float
    max_rho_excess: float
    passed: bool


def check_a3(family: Family, n_pairs: int, rng, caps: Caps | None = None) -> A3Report:
    """Sampled pairs: P_{I'} must fix P_{I0}x and P_{I1}x, and
    rho(I') <= rho(I0) + rho(I1).  The complexity comparison allows a 1e-12
    relative slack because subadditivity holds with analytic equality for
    some pairs (disjoint supports), where summation order costs a few ulps.

    i0, i1 and x are drawn for each pair in turn, as a pair-at-a-time loop
    draws them.  For A3_BLOCK pairs at a time, one stacked projection
    (`family._project_stack`, whose rows have the bytes of `project`) takes
    every part's P_I x, and a second one the union's projection of each of
    them; each residual is the `np.linalg.norm` of its own 1-d difference.
    Caps that leave no structure to draw are a ConfigError."""
    if not family.supports_union:
        raise UnsupportedFamilyError(
            f"union witness unavailable for family {family.tag}")
    structures = list(family.enumerate_structures(caps))
    if not structures:
        raise ConfigError(f"the caps leave family {family.tag} no structure to draw pairs from")
    max_resid = 0.0
    max_excess = -math.inf
    subadditive = True
    for start in range(0, n_pairs, A3_BLOCK):
        parts, unions, xs = [], [], []
        for _ in range(min(A3_BLOCK, n_pairs - start)):
            i0, i1 = (structures[rng.integers(len(structures))] for _ in range(2))
            u = family.union_structure(i0, i1)
            xs.append(rng.standard_normal(family.ambient_dim))
            parts += [i0, i1]
            unions += [u, u]
            budget = family.majorant(i0) + family.majorant(i1)
            excess = family.majorant(u) - budget
            max_excess = max(max_excess, excess)
            if excess > 1e-12 * (1.0 + abs(budget)):
                subadditive = False
        px = family._project_stack(parts, np.repeat(xs, 2, axis=0))
        for fixed, p in zip(family._project_stack(unions, px), px):
            max_resid = max(max_resid, float(np.linalg.norm(fixed - p)))
    return A3Report(n_pairs, max_resid, max_excess,
                    max_resid <= CONTAINMENT_TOL and subadditive)


# ---------------------------------------------------------------------------
# A4: tail curves for the duplicated sample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class A4Row:
    M: float
    psi1: float
    psi2: float


def check_a4(noise: NoiseModel, M_grid, reps: int, n: int, rng) -> list[A4Row]:
    """Empirical psi1(M) = P(|<v, xi'>| >= sqrt(M)) over random unit v, and
    psi2(M) = P(| ||xi'||^2 - V | >= M sqrt(N)) with V = N for unit-variance
    kinds.

    The directions come from rng after the draws, A4_BLOCK rows at a time.
    The generator fills its output in sequence and each row's norm and dot
    product reads that row only, so the values are those of one (reps, n)
    array of directions, which is never held."""
    if not noise.unit_variance:
        raise ValueError("A4 check is defined for unit-variance noise kinds")
    draws = noise.sample_many(rng, reps, n)
    dots = np.empty(reps)
    for start in range(0, reps, A4_BLOCK):
        stop = min(start + A4_BLOCK, reps)
        v = rng.standard_normal((stop - start, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        np.abs(np.einsum("ij,ij->i", v, draws[start:stop]), out=dots[start:stop])
    sqn = np.einsum("ij,ij->i", draws, draws)
    rows = []
    for M in M_grid:
        psi1 = float(np.mean(dots >= math.sqrt(M)))
        psi2 = float(np.mean(np.abs(sqn - n) >= M * math.sqrt(n)))
        rows.append(A4Row(float(M), psi1, psi2))
    return rows
