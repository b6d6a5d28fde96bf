"""Data-dependent measures over structures and their conditional laws.

The structure measure puts weight proportional to
exp{-kappa*rho(I)} * exp{-||Y - P_I Y||^2 / (2 sigma^2)} on each structure;
normalization happens in the log domain.  For the sparsity family the
normalizer over all 2^n subsets factors through elementary symmetric
polynomials of exp{Y_i^2 / (2 sigma^2)}, so exactness does not require
enumeration: the normalizer and all n inclusion marginals P(i in I | Y)
(hence the exact model-averaging mean) take O(n^2) time, the marginals
from one reverse pass through an 8(n+1)^2-byte table of the recurrence.
The conditional law gives Gaussian draws supported on L_I.
`StructureMeasure` alone decides which measure, and which model-averaging
mean theta_tilde, a family gets; `select` and `simulate`'s "ma" estimator
both read it.  Past the enumeration cap its restricted posterior ranges over
the structures the selector's search scored (`Projections.searched`), so
`select` searches once and the selected structure is among the candidates.
Smoothness, banding and sparsity weigh their candidates from the SSE array
of their size path (`selection.SizePath`), the one the selector scores, and
the enumerated sparsity supports by a 0/1 mask; smoothness and banding take
theta_tilde = sum_k w_k P_k Y from one reverse cumulative sum of the
weights.  None of them projects.  `structure_posterior` serves the other
families.  Clustering, jump and bicluster, whose blocks partition the
coordinates, are scored from arrays of block ids by the label kernel
(`Projections.label_rss_all`), with the bytes of projecting and without
validating candidates that their own enumeration or search made; knot and
regression project each candidate once (a chunk of candidates per stacked
projection, `Projections.project_all`).  Either way each P_I Y is stored in
the memo, within its bound, and `ma_mean` reads those rows, adding
w * P_I Y in candidate order.  Projecting each candidate stays the tests'
oracle.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .linalg import sq_norm
from .selection import (POSTERIOR_CAPS, Projections, SizePath, _penalty_value, _size_penalties,
                        chunks, size_path)
from .structures import Family, SparsityFamily

# Gaussian conditional law: prior-to-posterior shrinkage with kappa = e - 1
# gives conditional covariance (kappa/(kappa+1)) sigma^2 P_I.
CONDITIONAL_KAPPA = math.e - 1.0
CONDITIONAL_VAR_FACTOR = CONDITIONAL_KAPPA / (CONDITIONAL_KAPPA + 1.0)


@dataclass
class DdmConfig:
    """Penalty scale, noise intensity and penalty variant."""

    kappa: float
    sigma: float
    pen_variant: str = "main"  # "main" = 2*kappa*rho; "map" adds dim(L_I)

    def __post_init__(self):
        if not (0 < self.kappa < math.inf and 0 <= self.sigma < math.inf):
            raise ValueError("kappa must be positive and sigma nonnegative, both finite")


@dataclass
class DdmPosterior:
    family: Family
    candidates: list
    log_weights: np.ndarray  # normalized: logsumexp == 0 when candidates cover the family
    method: str  # enumeration | symmetric-polynomial | restricted-candidate-set
    log_normalizer: float = 0.0

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def export(self, top_k: int | None = None) -> list[dict]:
        """JSON-ready [{structure, log_weight}], sorted by weight descending,
        then by the family's sort key; only the first top_k rows when top_k
        is given, which `heapq.nsmallest` finds without sorting the rest."""
        def key(i):
            return -self.log_weights[i], self.family.sort_key(self.candidates[i])

        order = range(len(self.candidates))
        order = sorted(order, key=key) if top_k is None else heapq.nsmallest(top_k, order, key=key)
        return [
            {"structure": self.family.structure_to_json(self.candidates[i]),
             "log_weight": float(self.log_weights[i])}
            for i in order
        ]


def _log_weights(rss, pen, cfg: DdmConfig):
    """-(rss / sigma^2 + pen) / 2, the unnormalized log weight, elementwise."""
    return -0.5 * (rss / cfg.sigma**2 + pen)


def logsumexp(values: np.ndarray) -> float:
    """log sum exp(values), shifted by the maximum; the maximum itself when
    it is not finite (all -inf, any +inf or NaN)."""
    values = np.asarray(values, dtype=float)
    hi = values.max()
    if not math.isfinite(hi):
        return float(hi)
    return float(hi + math.log(np.exp(values - hi).sum()))


# ---------------------------------------------------------------------------
# Elementary symmetric polynomials, log domain
# ---------------------------------------------------------------------------


def _log_esp_table(log_x: np.ndarray) -> np.ndarray:
    """(n+1) x (n+1) table whose row j is log e_k(x_0..x_{j-1}), k = 0..n.

    e_k after absorbing x_j is e_k + x_j * e_{k-1}; in the log domain each
    step is one vectorized logaddexp, so no overflow for any magnitudes.
    """
    log_x = np.asarray(log_x, dtype=float)
    n = log_x.size
    table = np.full((n + 1, n + 1), -np.inf)
    table[0, 0] = 0.0
    for j in range(n):
        table[j + 1] = table[j]
        table[j + 1, 1:j + 2] = np.logaddexp(table[j, 1:j + 2], log_x[j] + table[j, :j + 1])
    return table


def _sparsity_terms(Y, family: SparsityFamily, cfg: DdmConfig):
    """log x_j = Y_j^2 / (2 sigma^2) and log c_k, the weight of a size-k
    support apart from its prod x_j: base - pen_k / 2, with pen_k the
    `penalty` of a size-k support."""
    y = np.asarray(Y, dtype=float)
    log_x = 0.5 * (y * y) / cfg.sigma**2
    base = -0.5 * sq_norm(y) / cfg.sigma**2
    return log_x, base - 0.5 * _size_penalties(family, cfg.kappa, cfg.pen_variant)


def sparsity_log_normalizer(Y, family: SparsityFamily, cfg: DdmConfig,
                            table: np.ndarray) -> float:
    """Exact log normalizer over all 2^n subsets, without enumeration: the
    masses c_k e_k(x) of the support sizes, summed in the log domain.  The
    e_k are the last row of `table`, the `_log_esp_table` of log x."""
    return logsumexp(_sparsity_terms(Y, family, cfg)[1] + table[-1])


def sparsity_inclusion_probabilities(Y, family: SparsityFamily, cfg: DdmConfig,
                                     table: np.ndarray) -> np.ndarray:
    """Exact marginal P(i in I | Y) for every coordinate, in O(n^2) time.

    With Z = sum_k c_k e_k(x), the forward pass keeps every row of the
    log-ESP recurrence, and one reverse pass carries g, the log adjoint
    dZ/de_k of row j+1, from g = log c down to row 0 (the conditional-
    Poisson marginals of Chen, Dempster & Liu 1994).  The mass of the
    supports holding j is x_j * sum_k g_k e_{k-1}(x_0..x_{j-1}).  Every term
    is positive, so nothing is subtracted in the log domain and no fallback
    is needed.  Memory is the 8(n+1)^2-byte table, the `_log_esp_table` of
    log x.
    """
    log_x, log_c = _sparsity_terms(Y, family, cfg)
    log_z = logsumexp(log_c + table[-1])
    g = log_c.copy()
    probs = np.empty(family.n)
    for j in range(family.n - 1, -1, -1):
        probs[j] = math.exp(log_x[j] + logsumexp(g[1:j + 2] + table[j, :j + 1]) - log_z)
        # g becomes the adjoint of row j, whose e_k vanish for k > j
        g[:j + 1] = np.logaddexp(g[:j + 1], log_x[j] + g[1:j + 2])
    return np.clip(probs, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Posterior construction
# ---------------------------------------------------------------------------


def _check_sigma(cfg: DdmConfig) -> None:
    if cfg.sigma <= 0:
        raise ValueError("posterior construction needs sigma > 0")


def structure_posterior(Y, family: Family, cfg: DdmConfig, candidates, method: str,
                        proj: Projections | None = None) -> DdmPosterior:
    """Normalized structure measure over the candidates, which are the
    family's enumeration (method "enumeration") or the structures a search
    scored ("restricted-candidate-set"); either way the weights are
    normalized over the candidates.  A partition family's candidates are
    scored by the label kernel (`Projections.label_rss_all`), unvalidated;
    the others' through `Projections.project_all`, which validates each."""
    _check_sigma(cfg)
    if method not in ("enumeration", "restricted-candidate-set"):
        raise ValueError(f"unknown method {method!r}")
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set is empty")

    proj = Projections.of(Y, family, proj)
    if family.partition:
        rss = proj.label_rss_all(candidates)
    else:
        # project_all validates each candidate, now or when it stored its row
        rss = [r for chunk in chunks(candidates) for r in proj.rss_all(chunk)]
    # `penalty`'s float operations, elementwise
    dims = [family._dim(s) for s in candidates] if cfg.pen_variant == "map" else 0
    pen = _penalty_value(np.array([family._majorant(s) for s in candidates]), np.array(dims),
                         cfg.kappa, cfg.pen_variant)
    raw = _log_weights(np.array(rss), pen, cfg)
    log_z = logsumexp(raw)
    return DdmPosterior(family, candidates, raw - log_z, method, log_normalizer=log_z)


def _size_indexed_posterior(y, family, cfg: DdmConfig, path: SizePath, candidates,
                            method: str, table: np.ndarray | None = None) -> DdmPosterior:
    """The posterior of a smoothness, banding or sparsity family, without
    projecting.  "symmetric-polynomial": the sparsity path, from the path's
    SSE array, under the exact 2^n normalizer (from the log-ESP `table`).
    "enumeration": candidates are the family's enumeration; for smoothness
    and banding that is the path itself, in size order, and the enumerated
    sparsity supports are scored by a 0/1 mask, each ||Y - P_I Y||^2 the sum
    of Y_i^2 over the coordinates I drops."""
    _check_sigma(cfg)
    pen = _size_penalties(family, cfg.kappa, cfg.pen_variant)
    if method == "enumeration" and isinstance(family, SparsityFamily):
        sizes = [len(s.indices) for s in candidates]
        dropped = np.ones((len(candidates), family.n))
        dropped[np.repeat(np.arange(len(candidates)), sizes),
                [i for s in candidates for i in s.indices]] = 0.0
        raw = _log_weights(dropped @ (y * y), pen[sizes], cfg)
    else:
        raw = _log_weights(path.sse, pen, cfg)
    if method == "symmetric-polynomial":
        candidates = [path.build(k) for k in range(family.n_sizes)]
        log_z = sparsity_log_normalizer(y, family, cfg, table)
    else:
        log_z = logsumexp(raw)
    return DdmPosterior(family, candidates, raw - log_z, method, log_z)


def ma_mean(Y, family: Family, post: DdmPosterior,
            proj: Projections | None = None) -> np.ndarray:
    """Model-averaging mean: the weight-mixed projection of Y, summed in
    candidate order over the candidates of nonzero weight, whose rows proj
    holds, within its bound, when `structure_posterior` built post on it."""
    proj = Projections.of(Y, family, proj)
    weights = post.weights()
    out = np.zeros(family.ambient_dim)
    for chunk in chunks(np.flatnonzero(weights).tolist()):
        # out, then each w * p: the running sums of cumsum are those of out += w * p
        terms = np.empty((len(chunk) + 1, out.size))
        terms[0] = out
        np.multiply(weights[chunk, None], proj.project_all([post.candidates[k] for k in chunk]),
                    out=terms[1:])
        out = np.cumsum(terms, axis=0)[-1]
    return out


def sparsity_ma_mean_exact(Y, family: SparsityFamily, cfg: DdmConfig,
                           table: np.ndarray) -> np.ndarray:
    """Exact model-averaging mean over all 2^n supports: Y_i * P(i in I|Y)."""
    return np.asarray(Y, dtype=float) * sparsity_inclusion_probabilities(Y, family, cfg, table)


class StructureMeasure:
    """The structure measure of one observation; each part is built on first read.

    `posterior`: the enumeration within POSTERIOR_CAPS; past it, the sparsity
    nested path under the exact 2^n normalizer, else the restricted set of
    the structures the selector's search scored on proj (`proj.searched`),
    else None.  Smoothness, banding and sparsity weigh their candidates from
    the size path's arrays (`_size_indexed_posterior`) and project nothing;
    the other families store each candidate's P_I Y in proj, from the label
    kernel (clustering, jump, bicluster) or a stacked projection (knot,
    regression), and `ma_mean` reads those rows.
    `theta_tilde`: for sparsity, Y times the inclusion marginals, with no
    posterior built; for smoothness and banding, the size path's mean under
    the posterior weights (`SizePath.mean`); otherwise `ma_mean` over the
    posterior; None when there is no posterior.  Sparsity builds its
    (n+1)^2 log-ESP table once, for the 2^n normalizer and the marginals
    both."""

    def __init__(self, proj: Projections, cfg: DdmConfig):
        self.proj, self.cfg = proj, cfg

    @functools.cached_property
    def _path(self) -> SizePath | None:
        return size_path(self.proj.y, self.proj.family)

    @functools.cached_property
    def _esp_table(self) -> np.ndarray:
        """Sparsity's log-ESP table, shared by the normalizer and the marginals."""
        return _log_esp_table(_sparsity_terms(self.proj.y, self.proj.family, self.cfg)[0])

    @functools.cached_property
    def posterior(self) -> DdmPosterior | None:
        y, family, cfg, proj = self.proj.y, self.proj.family, self.cfg, self.proj
        try:
            candidates = list(family.enumerate_structures(POSTERIOR_CAPS))
            method = "enumeration"
        except CapExceededError:
            if isinstance(family, SparsityFamily):
                candidates, method = None, "symmetric-polynomial"
            elif proj.searched is None:
                return None
            else:
                candidates, method = proj.searched, "restricted-candidate-set"
        if self._path is not None:
            table = self._esp_table if method == "symmetric-polynomial" else None
            return _size_indexed_posterior(y, family, cfg, self._path, candidates, method, table)
        return structure_posterior(y, family, cfg, candidates, method, proj=proj)

    @functools.cached_property
    def theta_tilde(self) -> np.ndarray | None:
        y, family = self.proj.y, self.proj.family
        if isinstance(family, SparsityFamily):
            return sparsity_ma_mean_exact(y, family, self.cfg, self._esp_table)
        if self.posterior is None:
            return None
        if self._path is not None:  # the posterior ranges over the path, in size order
            return self._path.mean(self.posterior.weights())
        return ma_mean(y, family, self.posterior, self.proj)


def sample_conditional(Y, family: Family, structure, cfg: DdmConfig, rng,
                       count: int, proj: Projections | None = None) -> np.ndarray:
    """(count, N) draws from the conditional law on L_I centered at P_I Y.

    N(P_I Y, (kappa/(kappa+1)) sigma^2 P_I) with kappa = e-1.  The center
    is `proj.project(structure)`, on a new memo when proj is None: after
    `select_penalized` on proj it is the row the selector stored, so the
    selected structure is not projected again.  The projected draws are
    scaled and shifted in place, with the float operations of
    center + scale * P_I Z.
    """
    if count < 1:
        raise ValueError("count >= 1 required")
    center = Projections.of(Y, family, proj).project(structure)
    scale = cfg.sigma * math.sqrt(CONDITIONAL_VAR_FACTOR)
    noise = rng.standard_normal((count, family.ambient_dim))
    draws = family.project_many(structure, noise)
    draws *= scale
    draws += center
    return draws
