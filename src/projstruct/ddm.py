"""Data-dependent measures over structures and their conditional laws.

The structure measure puts weight proportional to
exp{-kappa*rho(I)} * exp{-||Y - P_I Y||^2 / (2 sigma^2)} on each structure;
normalization happens in the log domain.  For the sparsity family the
normalizer over all 2^n subsets factors through elementary symmetric
polynomials of exp{Y_i^2 / (2 sigma^2)}, so exactness does not require
enumeration: the normalizer and all n inclusion marginals P(i in I | Y)
(hence the exact model-averaging mean) take O(n^2) time, the marginals
from one reverse pass through an 8(n+1)^2-byte table of the recurrence.
Conditional laws produce draws supported on L_I.
`StructureMeasure` alone decides which measure, and which model-averaging
mean theta_tilde, a family gets; `select` and `simulate`'s "ma" estimator
both read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ExactModeUnavailableError
from .linalg import sq_norm
from .selection import (POSTERIOR_CAPS, Projections, _ArgminTracker, _penalty_value,
                        nested_path, penalty, search_candidates)
from .structures import Caps, Family, SparsityFamily

# Gaussian conditional law: prior-to-posterior shrinkage with kappa = e - 1
# gives conditional covariance (kappa/(kappa+1)) sigma^2 P_I.
CONDITIONAL_KAPPA = math.e - 1.0
CONDITIONAL_VAR_FACTOR = CONDITIONAL_KAPPA / (CONDITIONAL_KAPPA + 1.0)


@dataclass
class DdmConfig:
    """Penalty scale, noise intensity, and the conditional resampling law."""

    kappa: float
    sigma: float
    conditional_law: str = "gaussian"  # "gaussian" | "resample"
    z_sampler: object = None  # rng, size -> vector; required for "resample"
    pen_variant: str = "main"  # "main" = 2*kappa*rho; "map" adds dim(L_I)

    def __post_init__(self):
        if self.kappa <= 0 or self.sigma < 0:
            raise ValueError("kappa must be positive and sigma nonnegative")
        if self.conditional_law not in ("gaussian", "resample"):
            raise ValueError(f"unknown conditional law {self.conditional_law!r}")
        if self.conditional_law == "resample" and self.z_sampler is None:
            raise ValueError("resample law needs a z_sampler")


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
        """JSON-ready [{structure, log_weight}], sorted by weight descending;
        only the first top_k rows when top_k is given."""
        order = sorted(range(len(self.candidates)),
                       key=lambda i: (-self.log_weights[i], self.family.sort_key(self.candidates[i])))
        return [
            {"structure": self.family.structure_to_json(self.candidates[i]),
             "log_weight": float(self.log_weights[i])}
            for i in order[:top_k]
        ]


def log_unnormalized_weight(Y, family: Family, structure, cfg: DdmConfig,
                            proj: Projections | None = None) -> float:
    rss = Projections.of(Y, family, proj).rss(structure)
    return -0.5 * (rss / cfg.sigma**2 + penalty(family, structure, cfg.kappa, cfg.pen_variant))


def logsumexp(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    hi = values.max()
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + math.log(np.sum(np.exp(values - hi))))


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


def log_elementary_symmetric(log_x: np.ndarray) -> np.ndarray:
    """log e_k(x) for k = 0..n given log x_i, via the stable O(n^2) recurrence."""
    return _log_esp_table(log_x)[-1].copy()


def _sparsity_terms(Y, family: SparsityFamily, cfg: DdmConfig):
    """log x_j = Y_j^2 / (2 sigma^2) and log c_k, the weight of a size-k
    support apart from its prod x_j: base - pen_k / 2, with pen_k the
    `penalty` of a size-k support, from the family's per-size vectors."""
    y = np.asarray(Y, dtype=float)
    log_x = 0.5 * (y * y) / cfg.sigma**2
    base = -0.5 * sq_norm(y) / cfg.sigma**2
    pen = _penalty_value(family.size_majorants, family.size_dims, cfg.kappa, cfg.pen_variant)
    return log_x, base - 0.5 * pen


def sparsity_log_normalizer(Y, family: SparsityFamily, cfg: DdmConfig) -> float:
    """Exact log normalizer over all 2^n subsets, without enumeration: the
    masses c_k e_k(x) of the support sizes, summed in the log domain."""
    log_x, log_c = _sparsity_terms(Y, family, cfg)
    return logsumexp(log_c + log_elementary_symmetric(log_x))


def sparsity_inclusion_probabilities(Y, family: SparsityFamily, cfg: DdmConfig) -> np.ndarray:
    """Exact marginal P(i in I | Y) for every coordinate, in O(n^2) time.

    With Z = sum_k c_k e_k(x), the forward pass keeps every row of the
    log-ESP recurrence, and one reverse pass carries g, the log adjoint
    dZ/de_k of row j+1, from g = log c down to row 0 (the conditional-
    Poisson marginals of Chen, Dempster & Liu 1994).  The mass of the
    supports holding j is x_j * sum_k g_k e_{k-1}(x_0..x_{j-1}).  Every term
    is positive, so nothing is subtracted in the log domain and no fallback
    is needed.  Memory is the 8(n+1)^2-byte table.
    """
    log_x, log_c = _sparsity_terms(Y, family, cfg)
    table = _log_esp_table(log_x)
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


def structure_posterior(Y, family: Family, cfg: DdmConfig, candidates=None,
                        method: str = "auto", caps: Caps | None = None,
                        proj: Projections | None = None) -> DdmPosterior:
    """Normalized structure measure over a candidate set.

    method "enumeration" normalizes over the family's full (capped)
    enumeration; "symmetric-polynomial" (sparsity only) uses the exact 2^n
    normalizer; "restricted-candidate-set" normalizes over the structures
    actually supplied.  "auto" picks enumeration when candidates are absent
    and the restricted mode otherwise.
    """
    if cfg.sigma <= 0:
        raise ValueError("posterior construction needs sigma > 0")
    if method == "auto":
        method = "enumeration" if candidates is None else "restricted-candidate-set"
    if method not in ("enumeration", "restricted-candidate-set", "symmetric-polynomial"):
        raise ValueError(f"unknown method {method!r}")
    if method == "symmetric-polynomial" and not isinstance(family, SparsityFamily):
        raise ExactModeUnavailableError(
            "symmetric-polynomial normalization applies to the sparsity family only")
    candidates = list(family.enumerate_structures(caps) if candidates is None else candidates)
    if not candidates:
        raise ValueError("candidate set is empty")

    proj = Projections.of(Y, family, proj)
    raw = np.array([log_unnormalized_weight(proj.y, family, s, cfg, proj) for s in candidates])
    log_z = (sparsity_log_normalizer(Y, family, cfg) if method == "symmetric-polynomial"
             else logsumexp(raw))
    return DdmPosterior(family, candidates, raw - log_z, method, log_normalizer=log_z)


def select_map(post: DdmPosterior):
    """Highest-weight structure, under the selectors' tie rule: ties go to the
    smallest majorant, then the canonical enumeration order."""
    tracker = _ArgminTracker(post.family)
    for s, log_w in zip(post.candidates, post.log_weights):
        tracker.offer(s, -log_w)
    return tracker.result()[0]


def ma_mean(Y, family: Family, post: DdmPosterior,
            proj: Projections | None = None) -> np.ndarray:
    """Model-averaging mean: the weight-mixed projection of Y, summed in
    candidate order."""
    proj = Projections.of(Y, family, proj)
    weights = post.weights()
    out = np.zeros(family.ambient_dim)
    for w, s in zip(weights, post.candidates):
        if w == 0.0:
            continue
        out += w * proj.project(s)
    return out


def ms_mean(Y, family: Family, I_hat) -> np.ndarray:
    """Model-selection mean: the projection of Y onto the selected subspace."""
    return family.project(I_hat, Y)


def sparsity_ma_mean_exact(Y, family: SparsityFamily, cfg: DdmConfig) -> np.ndarray:
    """Exact model-averaging mean over all 2^n supports: Y_i * P(i in I|Y)."""
    return np.asarray(Y, dtype=float) * sparsity_inclusion_probabilities(Y, family, cfg)


class StructureMeasure:
    """The structure measure of one observation; each part is built on first read.

    `posterior`: the enumeration within POSTERIOR_CAPS; past it, the sparsity
    nested path under the exact 2^n normalizer, else the restricted set the
    heuristic search visits (drawing on rng), else None.  `theta_tilde`: for
    sparsity, Y times the inclusion marginals, with no posterior built;
    otherwise `ma_mean` over the posterior, or None."""

    def __init__(self, proj: Projections, cfg: DdmConfig, rng=None):
        self.proj, self.cfg, self.rng = proj, cfg, rng

    @functools.cached_property
    def posterior(self) -> DdmPosterior | None:
        y, family, cfg, proj = self.proj.y, self.proj.family, self.cfg, self.proj
        try:
            return structure_posterior(y, family, cfg, caps=POSTERIOR_CAPS, proj=proj)
        except CapExceededError:
            pass
        if isinstance(family, SparsityFamily):
            return structure_posterior(y, family, cfg, [s for s, _ in nested_path(y, family)],
                                       "symmetric-polynomial", proj=proj)
        try:
            candidates = search_candidates(y, family, cfg.sigma, cfg.kappa, cfg.pen_variant,
                                           rng=self.rng, proj=proj)
        except ExactModeUnavailableError:
            return None
        return structure_posterior(y, family, cfg, candidates, proj=proj)

    @functools.cached_property
    def theta_tilde(self) -> np.ndarray | None:
        y, family = self.proj.y, self.proj.family
        if isinstance(family, SparsityFamily):
            return sparsity_ma_mean_exact(y, family, self.cfg)
        return None if self.posterior is None else ma_mean(y, family, self.posterior, self.proj)


def sample_conditional(Y, family: Family, structure, cfg: DdmConfig, rng,
                       count: int) -> np.ndarray:
    """(count, N) draws from the conditional law on L_I centered at P_I Y.

    Gaussian: N(P_I Y, (kappa/(kappa+1)) sigma^2 P_I) with kappa = e-1.
    Resample: P_I Y + sigma P_I Z with caller-supplied Z draws.
    """
    if count < 1:
        raise ValueError("count >= 1 required")
    center = family.project(structure, Y)
    if cfg.conditional_law == "gaussian":
        scale = cfg.sigma * math.sqrt(CONDITIONAL_VAR_FACTOR)
        noise = rng.standard_normal((count, family.ambient_dim))
    else:
        scale = cfg.sigma
        noise = np.stack([np.asarray(cfg.z_sampler(rng, family.ambient_dim), dtype=float)
                          for _ in range(count)])
    projected = family.project_many(structure, noise)
    return center + scale * projected
