"""Reference computations and output checks, made apart from the program.

Nothing here imports projstruct.  Majorants are written out from the
paper's formulas, projections come from numpy.linalg.lstsq or from segment
and block means, and normalizers from a divide-and-conquer log-domain
polynomial product, so a fault in a shared helper of the program cannot
hide from these checks.

Every check function returns a list of problems; an empty list means the
output passed.  The objective of a structure I is
    ||y - P_I y||^2 + sigma^2 * 2 * kappa * rho(I).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math

import numpy as np

OBJ_RTOL = 1e-9    # selected objective against the enumerated minimum
VEC_ATOL = 1e-9    # projections, scaled by 1 + max|y|
LOGW_ATOL = 1e-8   # exported log weights
A1_Z = 6.0         # standard errors allowed between an A1 estimate and its exact value
BINOM_Z = 6.0      # binomial standard errors allowed for the A4 tail curves


# ---------------------------------------------------------------------------
# shared formulas
# ---------------------------------------------------------------------------


def xlog(k, total):
    """k * log(total / k) with 0 log(a/0) = 0; numpy-vectorized over k."""
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(k > 0, k * np.log(total / np.where(k > 0, k, 1.0)), 0.0)
    return out


def rho_sparse(k, n):
    return 2.0 * xlog(k, math.e * n)


def rho_jump(k, n):
    return 1.0 + 2.0 * xlog(k, math.e * n)


def rho_knot(k, n):
    return np.maximum(np.asarray(k, dtype=float) + 2.0, 1.0 + 3.0 * xlog(k, math.e * n))


def rho_bicluster(s1, s2, n1, n2):
    if s1 < n1 and s2 < n2:
        return s1 * s2 + n1 * math.log(s1) + n2 * math.log(s2)
    if s1 < n1:
        return s1 * n2 + n1 * math.log(s1)
    if s2 < n2:
        return n1 * s2 + n2 * math.log(s2)
    return float(n1 * n2)


def rho_clustering(free, clusters, n):
    m = len(clusters)
    sizes = [len(free)] + [len(c) for c in clusters]
    log_multinom = math.lgamma(n + 1) - sum(math.lgamma(s + 1) for s in sizes)
    log_binom = math.lgamma(n + m + 1) - math.lgamma(m + 1) - math.lgamma(n + 1)
    return float(min(len(free) + m, n)) + log_multinom + log_binom


def banding_dim(w, p):
    w = min(w, p - 1)
    return p + w * p - (w * (w + 1)) // 2


def logsumexp(v):
    v = np.asarray(v, dtype=float)
    hi = float(np.max(v))
    return hi + math.log(float(np.sum(np.exp(v - hi))))


def log_poly_product(log_x):
    """Log coefficients of prod_i (1 + x_i z), by divide and conquer.

    Each merge is a log-domain convolution over a full outer sum, scaled by
    the largest term of each output coefficient, so every coefficient is a
    sum of positive terms; this is a different evaluation order from the
    program's one-factor-at-a-time recurrence.
    """
    polys = [np.array([0.0, lx]) for lx in np.asarray(log_x, dtype=float)]
    if not polys:
        return np.zeros(1)
    while len(polys) > 1:
        merged = []
        for a, b in itertools.zip_longest(polys[0::2], polys[1::2]):
            if b is None:
                merged.append(a)
                continue
            outer = (a[:, None] + b[None, :]).ravel()
            idx = np.add.outer(np.arange(a.size), np.arange(b.size)).ravel()
            hi = np.full(a.size + b.size - 1, -np.inf)
            np.maximum.at(hi, idx, outer)
            acc = np.zeros_like(hi)
            np.add.at(acc, idx, np.exp(outer - hi[idx]))
            merged.append(hi + np.log(acc))
        polys = merged
    return polys[0]


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _vec_close(a, b, scale):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= VEC_ATOL * (1.0 + scale)))


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_csv(path):
    """(seed from the metadata line, header, rows as lists of strings)."""
    with open(path, encoding="utf-8") as fh:
        meta = fh.readline()
        reader = list(csv.reader(fh))
    seed = None
    for part in meta.split():
        if part.startswith("seed="):
            seed = int(part[5:])
    return seed, reader[0], reader[1:]


def _col(header, rows, name, kind=float):
    i = header.index(name)
    return [kind(r[i]) for r in rows]


# ---------------------------------------------------------------------------
# select: exact enumeration (knot, regression, small sparsity)
# ---------------------------------------------------------------------------


class Enumerated:
    """Every structure of a family with its fit, objective and posterior weight."""

    def __init__(self, y, keys, fits, rho, sigma, kappa):
        self.y = np.asarray(y, dtype=float)
        self.keys = list(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.fits = np.asarray(fits, dtype=float)
        self.rho = np.asarray(rho, dtype=float)
        rss = np.sum((self.y[None, :] - self.fits) ** 2, axis=1)
        self.obj = rss + sigma**2 * 2.0 * kappa * self.rho
        raw = -0.5 * (rss / sigma**2 + 2.0 * kappa * self.rho)
        self.log_w = raw - logsumexp(raw)
        self.theta_tilde = np.exp(self.log_w) @ self.fits


def lstsq_fit(basis, y):
    coef = np.linalg.lstsq(basis, y, rcond=None)[0]
    return basis @ coef


def enumerate_knot(y, sigma, kappa):
    n = y.size
    t = np.arange(n, dtype=float)
    keys, fits, rho = [], [], []
    for size in range(n - 1):
        for knots in itertools.combinations(range(1, n - 1), size):
            cols = [np.ones(n), t] + [np.maximum(t - k, 0.0) for k in knots]
            keys.append(knots)
            fits.append(lstsq_fit(np.column_stack(cols), y))
            rho.append(float(rho_knot(size, n)))
    return Enumerated(y, keys, fits, rho, sigma, kappa)


def regression_design(design_seed, n_obs, p):
    """The documented design rule: standard normals from a generator seeded
    with the first 8 bytes (big-endian) of sha256("<design_seed>:design")."""
    digest = hashlib.sha256(f"{design_seed}:design".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    return rng.standard_normal((n_obs, p))


def enumerate_regression(y, design, sigma, kappa):
    n_obs, p = design.shape
    rank = int(np.linalg.matrix_rank(design))
    chosen = []
    for j in range(p):  # first `rank` linearly independent columns
        if np.linalg.matrix_rank(design[:, chosen + [j]]) > len(chosen):
            chosen.append(j)
        if len(chosen) == rank:
            break
    keys, fits, rho = [], [], []
    for size in range(p + 1):
        if 2.0 * float(xlog(size, math.e * p)) > rank:
            continue
        for idx in itertools.combinations(range(p), size):
            keys.append((idx, False))
            fits.append(lstsq_fit(design[:, list(idx)], y) if idx else np.zeros(n_obs))
            rho.append(float(rho_sparse(size, p)))
    keys.append((tuple(chosen), True))
    fits.append(lstsq_fit(design[:, chosen], y))
    rho.append(float(rank))
    return Enumerated(y, keys, fits, rho, sigma, kappa)


def enumerate_sparsity(y, sigma, kappa):
    n = y.size
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    keys = [tuple(int(i) for i in np.flatnonzero(m)) for m in masks]
    fits = np.where(masks, y[None, :], 0.0)
    rho = rho_sparse(masks.sum(axis=1), n)
    return Enumerated(y, keys, fits, rho, sigma, kappa)


def check_enumerated(doc, ref: Enumerated, key_of):
    problems = []
    best = float(ref.obj.min())
    if not _close(doc["objective"], best, OBJ_RTOL):
        problems.append(f"objective {doc['objective']!r} is not the enumerated minimum {best!r}")
    key = key_of(doc["structure"]["data"])
    if key not in ref.index:
        return problems + [f"selected structure {key} is not in the enumerated family"]
    i = ref.index[key]
    if not _close(float(ref.obj[i]), best, OBJ_RTOL):
        problems.append(f"selected structure {key} has objective {ref.obj[i]!r} > {best!r}")
    scale = float(np.max(np.abs(ref.y)))
    if not _vec_close(doc["theta_check"], ref.fits[i], scale):
        problems.append("theta_check is not the projection onto the selected structure")
    problems += check_top(doc, dict(zip(ref.keys, ref.log_w.tolist())), key_of)
    if doc["theta_tilde"] is None or not _vec_close(doc["theta_tilde"], ref.theta_tilde, scale):
        problems.append("theta_tilde differs from the enumerated model average")
    return problems


def check_top(doc, log_w, key_of):
    """The exported top-k: method "enumeration", each entry's log weight
    equal to ours, and the entries in our order of decreasing weight."""
    post = doc.get("posterior")
    if post is None or post.get("method") != "enumeration":
        return ["posterior method is not 'enumeration'"]
    expect = sorted(log_w.values(), reverse=True)
    problems = []
    for rank, entry in enumerate(post["top"]):
        key = key_of(entry["structure"]["data"])
        ours = log_w.get(key)
        if ours is None or abs(entry["log_weight"] - ours) > LOGW_ATOL * (1.0 + abs(ours)):
            problems.append(f"posterior entry {rank} ({key}) log weight {entry['log_weight']!r}"
                            f" differs from {ours!r}")
        elif abs(ours - expect[rank]) > LOGW_ATOL * (1.0 + abs(ours)):
            problems.append(f"posterior entry {rank} is not the rank-{rank} structure")
    return problems


def knot_key(data):
    return tuple(data["knots"])


def regression_key(data):
    return (tuple(data["indices"]), bool(data["full_rank"]))


def sparse_key(data):
    return tuple(data["indices"])


# ---------------------------------------------------------------------------
# select: heuristic families (bicluster, clustering)
# ---------------------------------------------------------------------------


def check_bicluster(doc, y, n1, n2, sigma, kappa):
    mat = np.asarray(y, dtype=float).reshape(n1, n2)
    data = doc["structure"]["data"]
    fit = np.empty_like(mat)
    for rb in data["rows"]:
        for cb in data["cols"]:
            fit[np.ix_(rb, cb)] = mat[np.ix_(rb, cb)].mean()
    obj = float(np.sum((mat - fit) ** 2)) + sigma**2 * 2.0 * kappa * rho_bicluster(
        len(data["rows"]), len(data["cols"]), n1, n2)
    one_block = float(np.sum((mat - mat.mean()) ** 2)) + sigma**2 * 2.0 * kappa * rho_bicluster(
        1, 1, n1, n2)
    return _check_heuristic(doc, mat.reshape(-1), fit.reshape(-1), obj, one_block)


def check_clustering(doc, y, sigma, kappa):
    y = np.asarray(y, dtype=float)
    data = doc["structure"]["data"]
    fit = np.zeros_like(y)
    fit[data["free"]] = y[data["free"]]
    for cluster in data["clusters"]:
        fit[cluster] = y[cluster].mean()
    obj = float(np.sum((y - fit) ** 2)) + sigma**2 * 2.0 * kappa * rho_clustering(
        data["free"], data["clusters"], y.size)
    one_block = float(np.sum((y - y.mean()) ** 2)) + sigma**2 * 2.0 * kappa * rho_clustering(
        [], [list(range(y.size))], y.size)
    return _check_heuristic(doc, y, fit, obj, one_block)


def _check_heuristic(doc, y, fit, obj, one_block):
    problems = []
    if not _close(doc["objective"], obj, OBJ_RTOL):
        problems.append(f"objective {doc['objective']!r} differs from the block-mean value {obj!r}")
    if obj > one_block * (1.0 + OBJ_RTOL):
        problems.append(f"objective {obj!r} is worse than the one-block structure's {one_block!r}")
    scale = float(np.max(np.abs(y)))
    if not _vec_close(doc["theta_check"], fit, scale):
        problems.append("theta_check is not the block-mean fit of the selected structure")
    tilde = doc["theta_tilde"]
    slack = VEC_ATOL * (1.0 + scale)
    if tilde is None or min(tilde) < y.min() - slack or max(tilde) > y.max() + slack:
        problems.append("theta_tilde leaves [min y, max y]")
    return problems


# ---------------------------------------------------------------------------
# select: sequence families with closed-form argmin
# ---------------------------------------------------------------------------


def _first_argmin(values):
    """Smallest index whose value lies within the program's 1e-12 tie band
    of the minimum; along these paths the majorant grows with the index."""
    values = np.asarray(values, dtype=float)
    best = float(values.min())
    return int(np.flatnonzero(values <= best + 1e-12 * (1.0 + abs(best)))[0])


def check_sparsity_argmin(doc, y, sigma, kappa):
    y = np.asarray(y, dtype=float)
    n = y.size
    order = np.argsort(-np.abs(y), kind="stable")
    gains = np.concatenate([[0.0], np.cumsum((y * y)[order])])
    obj = (gains[-1] - gains) + sigma**2 * 2.0 * kappa * rho_sparse(np.arange(n + 1), n)
    k = _first_argmin(obj)
    support = sorted(int(i) for i in order[:k])
    problems = []
    if doc["structure"]["data"]["indices"] != support:
        problems.append(f"selected support of size {len(doc['structure']['data']['indices'])}"
                        f" is not the top-|y| set of size {k}")
    if not _close(doc["objective"], float(obj[k]), OBJ_RTOL):
        problems.append(f"objective {doc['objective']!r} differs from {float(obj[k])!r}")
    fit = np.zeros_like(y)
    fit[support] = y[support]
    if not _vec_close(doc["theta_check"], fit, float(np.max(np.abs(y)))):
        problems.append("theta_check is not y restricted to the selected support")
    return problems


def sparsity_mean_size(y, sigma, kappa):
    """E|I| under the structure measure, from the size distribution
    P(|I| = k) proportional to e_k(x) exp(-kappa rho(k)), x_i = exp(y_i^2 / 2 sigma^2)."""
    n = y.size
    log_e = log_poly_product(0.5 * y * y / sigma**2)
    log_p = log_e - kappa * rho_sparse(np.arange(n + 1), n)
    p = np.exp(log_p - logsumexp(log_p))
    return float(np.dot(np.arange(n + 1), p))


def check_sparsity_average(doc, y, mean_size):
    """theta_tilde_i / y_i is P(i in I): in [0, 1], nondecreasing in |y_i|,
    and summing to the mean support size."""
    y = np.asarray(y, dtype=float)
    tilde = np.asarray(doc["theta_tilde"], dtype=float)
    ratio = tilde / y
    problems = []
    if ratio.min() < -1e-12 or ratio.max() > 1.0 + 1e-12:
        problems.append("theta_tilde / y leaves [0, 1]")
    r = ratio[np.argsort(np.abs(y), kind="stable")]
    if np.any(np.diff(r) < -1e-9 * (1.0 + r[1:])):
        problems.append("theta_tilde / y decreases as |y| grows")
    if not _close(float(ratio.sum()), mean_size, 1e-8):
        problems.append(f"sum of theta_tilde / y = {ratio.sum()!r}, mean support size "
                        f"{mean_size!r}")
    return problems


def check_smoothness(doc, y, sigma, kappa):
    y = np.asarray(y, dtype=float)
    n = y.size
    tails = np.concatenate([np.cumsum((y * y)[::-1])[::-1], [0.0]])
    levels = np.arange(n + 1)
    obj = tails + sigma**2 * 2.0 * kappa * levels
    level = _first_argmin(obj)
    problems = []
    if doc["structure"]["data"]["level"] != level:
        problems.append(f"level {doc['structure']['data']['level']} is not the argmin {level}")
    if not _close(doc["objective"], float(obj[level]), OBJ_RTOL):
        problems.append(f"objective {doc['objective']!r} differs from {float(obj[level])!r}")
    scale = float(np.max(np.abs(y)))
    fit = np.where(np.arange(n) < level, y, 0.0)
    if not _vec_close(doc["theta_check"], fit, scale):
        problems.append("theta_check is not the truncation of y")
    raw = -0.5 * (tails / sigma**2 + 2.0 * kappa * levels)
    log_w = raw - logsumexp(raw)
    keep = np.cumsum(np.exp(log_w)[::-1])[::-1][1:]  # P(level > i)
    problems += check_top(doc, {(int(v),): float(log_w[v]) for v in levels},
                          lambda d: (d["level"],))
    if doc["theta_tilde"] is None or not _vec_close(doc["theta_tilde"], y * keep, scale):
        problems.append("theta_tilde differs from y_i * P(level > i)")
    return problems


def check_banding(doc, y, p, sigma, kappa):
    mat = np.asarray(y, dtype=float).reshape(p, p)
    sym = 0.5 * (mat + mat.T)
    dist = np.abs(np.arange(p)[:, None] - np.arange(p)[None, :])
    widths = np.arange(p)
    fits = [np.where(dist <= w, sym, 0.0).reshape(-1) for w in widths]
    rss = np.array([float(np.sum((mat.reshape(-1) - f) ** 2)) for f in fits])
    dims = np.array([banding_dim(int(w), p) for w in widths], dtype=float)
    obj = rss + sigma**2 * 2.0 * kappa * dims
    w = _first_argmin(obj)
    problems = []
    if doc["structure"]["data"]["width"] != w:
        problems.append(f"band width {doc['structure']['data']['width']} is not the argmin {w}")
    if not _close(doc["objective"], float(obj[w]), OBJ_RTOL):
        problems.append(f"objective {doc['objective']!r} differs from {float(obj[w])!r}")
    scale = float(np.max(np.abs(mat)))
    if not _vec_close(doc["theta_check"], fits[w], scale):
        problems.append("theta_check is not the banded symmetric part")
    raw = -0.5 * (rss / sigma**2 + 2.0 * kappa * dims)
    log_w = raw - logsumexp(raw)
    problems += check_top(doc, {(int(v),): float(log_w[v]) for v in widths},
                          lambda d: (d["width"],))
    tilde = np.exp(log_w) @ np.array(fits)
    if doc["theta_tilde"] is None or not _vec_close(doc["theta_tilde"], tilde, scale):
        problems.append("theta_tilde differs from the weighted banded fits")
    return problems


def check_leveled(doc, y, n_levels, sigma, kappa):
    y = np.asarray(y, dtype=float)
    chosen, total = [], 0.0
    for j in range(n_levels):
        block = y[2**j - 1:2**(j + 1) - 1]
        order = np.argsort(-np.abs(block), kind="stable")
        gains = np.concatenate([[0.0], np.cumsum((block * block)[order])])
        obj = (gains[-1] - gains) + sigma**2 * 2.0 * kappa * 2.0 * xlog(
            np.arange(2**j + 1), math.e * 2**j)
        k = _first_argmin(obj)
        chosen.append(sorted(int(i) for i in order[:k]))
        total += float(obj[k])
    while chosen and not chosen[-1]:
        chosen.pop()
    problems = []
    if doc["structure"]["data"]["levels"] != chosen:
        problems.append("leveled structure is not the per-level argmin")
    if not _close(doc["objective"], total, OBJ_RTOL):
        problems.append(f"objective {doc['objective']!r} differs from {total!r}")
    fit = np.zeros_like(y)
    for j, lv in enumerate(chosen):
        idx = [2**j - 1 + i for i in lv]
        fit[idx] = y[idx]
    if not _vec_close(doc["theta_check"], fit, float(np.max(np.abs(y)))):
        problems.append("theta_check is not y restricted to the selected levels")
    return problems


def jump_objective(cs, cs2, n, breaks, sigma, kappa):
    bounds = [0] + [b + 1 for b in breaks] + [n]
    sse = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        tot = cs[hi] - cs[lo]
        sse += max((cs2[hi] - cs2[lo]) - tot * tot / (hi - lo), 0.0)
    return sse + sigma**2 * 2.0 * kappa * float(rho_jump(len(breaks), n))


def check_jump(doc, y, sigma, kappa):
    """No single added, removed or moved break lowers the objective."""
    y = np.asarray(y, dtype=float)
    n = y.size
    cs = np.concatenate([[0.0], np.cumsum(y)])
    cs2 = np.concatenate([[0.0], np.cumsum(y * y)])
    breaks = sorted(doc["structure"]["data"]["breaks"])
    obj = jump_objective(cs, cs2, n, breaks, sigma, kappa)
    problems = []
    if not _close(doc["objective"], obj, OBJ_RTOL):
        problems.append(f"objective {doc['objective']!r} differs from {obj!r}")
    free = [b for b in range(n - 1) if b not in set(breaks)]
    neighbours = [sorted(breaks + [b]) for b in free]
    for b in breaks:
        rest = [x for x in breaks if x != b]
        neighbours.append(rest)
        neighbours.extend(sorted(rest + [c]) for c in free)
    tol = OBJ_RTOL * max(1.0, abs(obj))
    better = [nb for nb in neighbours
              if jump_objective(cs, cs2, n, nb, sigma, kappa) < obj - tol]
    if better:
        problems.append(f"{len(better)} single-break changes lower the objective")
    bounds = [0] + [b + 1 for b in breaks] + [n]
    fit = np.empty_like(y)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        fit[lo:hi] = y[lo:hi].mean()
    if not _vec_close(doc["theta_check"], fit, float(np.max(np.abs(y)))):
        problems.append("theta_check is not the segment-mean fit")
    return problems


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def sobolev_signal(n, beta, Q):
    idx = np.arange(1, n + 1, dtype=float)
    return math.sqrt(Q / float(np.sum(1.0 / idx))) * idx ** (-(beta + 0.5))


def sparse_signal(n, s, amplitude, sigma):
    theta = np.zeros(n)
    theta[:s] = amplitude * sigma
    return theta


def oracle_smoothness(theta, sigma, tau=1.0):
    """(rate_sq, rho) of the tau-oracle over truncation levels."""
    tails = np.concatenate([np.cumsum((theta * theta)[::-1])[::-1], [0.0]])
    levels = np.arange(theta.size + 1)
    obj = tails + tau * sigma**2 * levels
    k = _first_argmin(obj)
    return float(obj[k]), float(levels[k])


def oracle_sparse(theta, sigma, tau=1.0):
    """(rate_sq, rho) of the tau-oracle over supports: keep the top-k entries."""
    n = theta.size
    sq = np.sort(theta * theta)[::-1]
    tails = np.concatenate([sq[::-1].cumsum()[::-1], [0.0]])
    rho = rho_sparse(np.arange(n + 1), n)
    obj = tails + tau * sigma**2 * rho
    k = _first_argmin(obj)
    return float(obj[k]), float(rho[k])


def m2_theory(alpha, nu, delta=0.1):
    """M2 = M1 / delta for the strict constants (kappa just above its bound)."""
    kappa = (32.0 * nu + 10.0 + alpha) / (4.0 * alpha) + 0.5
    c3 = 6.0 / alpha + 4.0 * kappa
    return 12.0 * c3 * (nu + 1.0) / alpha / delta


def tau0(alpha, kappa, delta=0.1):
    tau_bar = 3.0 * (1.0 + kappa * alpha) / alpha
    return (1.0 + delta) / (1.0 - delta) * tau_bar + 0.1


def _nondecreasing(values):
    return all(b >= a for a, b in zip(values, values[1:]))


def _binary_se_ok(p, se, reps):
    return abs(se - math.sqrt(p * (1.0 - p) / reps)) <= 1e-12 * (1.0 + se)


class SimTable:
    """Parsed simulate CSV plus the generic checks every experiment shares."""

    def __init__(self, path, cfg, seed, expected_rows):
        self.problems = []
        self.seed, self.header, self.rows = load_csv(path)
        if self.seed != seed:
            self.problems.append(f"metadata seed {self.seed} != {seed}")
        if len(self.rows) != expected_rows:
            self.problems.append(f"{len(self.rows)} rows, config implies {expected_rows}")
        reps = cfg["reps"]
        if any(v != reps for v in self.col("reps", int)):
            self.problems.append(f"reps column differs from the config's {reps}")

    def col(self, name, kind=float, rows=None):
        return _col(self.header, self.rows if rows is None else rows, name, kind)

    def fractions(self, *names):
        for name in names:
            if any(not (0.0 <= v <= 1.0) for v in self.col(name)):
                self.problems.append(f"{name} leaves [0, 1]")

    def monotone(self, name, rows, increasing=True, what="M"):
        values = self.col(name, rows=rows)
        if not increasing:
            values = [-v for v in values]
        if not _nondecreasing(values):
            direction = "decreases" if increasing else "increases"
            self.problems.append(f"{name} {direction} as {what} grows")

    def binary_se(self, p_name, se_name, reps):
        for p, se in zip(self.col(p_name), self.col(se_name)):
            if not _binary_se_ok(p, se, reps):
                self.problems.append(f"{se_name} {se!r} != sqrt(p(1-p)/reps) at p={p!r}")
                return

    def equals(self, name, expected, rtol=1e-10):
        for v in self.col(name):
            if not _close(v, expected, rtol):
                self.problems.append(f"{name} {v!r} != independent value {expected!r}")
                return


def check_contraction(path, cfg, seed):
    """The grid's first M puts the threshold at 0 and its last far above any
    error, when the program's oracle rate equals the closed form (see
    workloads.py), so every draw exceeds the first and none the last."""
    m_grid = cfg["grid"]["M"]
    t = SimTable(path, cfg, seed, len(m_grid))
    t.fractions("frac_exceed")
    t.monotone("frac_exceed", t.rows, increasing=False)
    frac = t.col("frac_exceed")
    if frac and (frac[0] != 1.0 or frac[-1] != 0.0):
        t.problems.append(f"frac_exceed {frac[0]!r} at threshold 0 and {frac[-1]!r} far above "
                          "every error, not 1 and 0: the oracle rate differs from the closed form")
    return t.problems


def check_coverage_ebr(path, cfg, seed, theta, sigma):
    t_grid, m_grid = cfg["grid"]["t"], cfg["grid"]["M"]
    t = SimTable(path, cfg, seed, len(t_grid) * (len(m_grid) + 1))
    grid_rows = [r for r in t.rows if r[t.header.index("m_kind")] == "grid"]
    t.fractions("coverage")
    t.binary_se("coverage", "se", cfg["reps"])
    for ti in range(len(t_grid)):
        block = grid_rows[ti * len(m_grid):(ti + 1) * len(m_grid)]
        t.monotone("coverage", block)
        t.monotone("mean_radius_sq", block)
    rate, _ = oracle_smoothness(theta, sigma)
    t.equals("oracle_rate_sq", rate)
    consts = cfg["constants"]
    t.equals("m2_theory", m2_theory(consts.get("alpha", 0.4), consts.get("nu", 1.5)))
    t.equals("m2_used", consts["M2_override"])
    _check_calibrated(t, "coverage", grid_rows, keys=("t", "M"))
    return t.problems


def check_coverage_quarter(path, cfg, seed, theta, sigma):
    m_grid = cfg["grid"]["M"]
    t = SimTable(path, cfg, seed, len(m_grid) + 1)
    grid_rows = [r for r in t.rows if r[t.header.index("m_kind")] == "grid"]
    t.fractions("coverage")
    t.binary_se("coverage", "se", cfg["reps"])
    t.monotone("coverage", grid_rows)
    t.monotone("mean_radius_sq", grid_rows)
    rate, _ = oracle_sparse(theta, sigma)
    t.equals("oracle_rate_sq", rate)
    flag = int(rate <= sigma**2 * math.sqrt(theta.size))
    if any(v != flag for v in t.col("highly_structured", int)):
        t.problems.append(f"highly_structured != {flag}")
    _check_calibrated(t, "coverage", grid_rows, keys=("M",))
    return t.problems


def _check_calibrated(t, value, grid_rows, keys):
    """A calibrated row repeats the grid row at the M it picked."""
    cal_rows = [r for r in t.rows if r[t.header.index("m_kind")] == "calibrated"]
    grid = {tuple(r[t.header.index(k)] for k in keys): r for r in grid_rows}
    for row in cal_rows:
        match = grid.get(tuple(row[t.header.index(k)] for k in keys))
        if match is None or match[t.header.index(value)] != row[t.header.index(value)]:
            t.problems.append("calibrated row does not repeat a grid row")


def check_recovery(path, cfg, seed, theta, sigma):
    m_grid = cfg["grid"]["M"]
    t = SimTable(path, cfg, seed, len(m_grid))
    t.fractions("freq_lower", "freq_upper", "freq_shell")
    t.binary_se("freq_shell", "se_shell", cfg["reps"])
    for name in ("freq_lower", "freq_upper", "freq_shell"):
        t.monotone(name, t.rows)
    consts = cfg["constants"]
    _, rho_oracle = oracle_sparse(theta, sigma)
    _, rho_star = oracle_sparse(theta, sigma, tau0(consts.get("alpha", 0.4), consts["kappa"]))
    t.equals("rho_oracle", rho_oracle)
    t.equals("rho_tau0_oracle", rho_star)
    t.equals("delta", 0.1)
    return t.problems


def check_rate_scaling(path, cfg, seed):
    n_grid = cfg["grid"]["n"]
    t = SimTable(path, cfg, seed, len(n_grid))
    if t.col("n", int) != n_grid:
        t.problems.append("n column differs from the grid")
    for n, s, ln, lerr, err in zip(n_grid, t.col("sigma"), t.col("log_n"),
                                   t.col("log_mean_err_sq"), t.col("mean_err_sq")):
        if not (_close(s, 1.0 / math.sqrt(n), 1e-12) and _close(ln, math.log(n), 1e-12)
                and _close(lerr, math.log(err), 1e-12)):
            t.problems.append(f"sigma, log_n or log_mean_err_sq inconsistent at n={n}")
    slope = float(np.polyfit(t.col("log_n"), t.col("log_mean_err_sq"), 1)[0])
    if abs(slope + 2.0 / 3.0) > 0.15:
        t.problems.append(f"rate-scaling slope {slope:.3f} outside -2/3 +- 0.15")
    return t.problems


def check_size(path, cfg, seed, sigma):
    t = SimTable(path, cfg, seed, 1)
    mean_rhat = t.col("mean_rhat_sq")[0]
    if mean_rhat < 2.0 * sigma**2 * (1.0 - 1e-12):  # rho >= rho(no break) = 1
        t.problems.append(f"mean_rhat_sq {mean_rhat!r} < 2 sigma^2")
    if t.col("q50_ratio")[0] > t.col("q90_ratio")[0]:
        t.problems.append("q50_ratio > q90_ratio")
    rate = t.col("oracle_rate_sq")[0]
    flag = int(rate <= sigma**2 * math.sqrt(cfg["family"]["n"]))
    if t.col("highly_structured", int)[0] != flag:
        t.problems.append(f"highly_structured != {flag}")
    return t.problems


def check_estimation_risk(path, cfg, seed, theta, sigma):
    t = SimTable(path, cfg, seed, 1)
    rate, _ = oracle_sparse(theta, sigma)
    t.equals("oracle_rate_sq", rate)
    mean = t.col("mean_err_sq")[0]
    if not (mean > 0.0 and t.col("q50")[0] <= t.col("q90")[0]):
        t.problems.append("mean error or quantiles out of order")
    t.equals("mean_ratio", mean / rate)
    return t.problems


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _check_header(path, seed, header_expected):
    got_seed, header, rows = load_csv(path)
    problems = []
    if got_seed != seed:
        problems.append(f"metadata seed {got_seed} != {seed}")
    if header != header_expected:
        problems.append(f"header {header} != {header_expected}")
    return problems, header, rows


A1_HEADER = ["structure", "estimate", "bound", "std_err", "n_saturated", "pass"]


def check_a1(path, seed, exact_by_key, key_of):
    """Each row's estimate lies within A1_Z standard errors of its exact log-MGF."""
    problems, header, rows = _check_header(path, seed, A1_HEADER)
    if len(rows) != len(exact_by_key):
        problems.append(f"{len(rows)} rows, family has {len(exact_by_key)} structures")
    seen = set()
    for row in rows:
        doc = json.loads(row[0])
        key = key_of(doc["data"])
        seen.add(key)
        exact, dim = exact_by_key.get(key, (None, None))
        est, bound, se = float(row[1]), float(row[2]), float(row[3])
        if exact is None:
            problems.append(f"unknown structure {key}")
        elif abs(est - exact) > A1_Z * se + 1e-12 * (1.0 + abs(exact)):
            problems.append(f"A1 estimate {est!r} for {key} is more than {A1_Z:g} s.e. "
                            f"({se!r}) from the exact {exact!r}")
        elif bound != dim or row[4] != "0" or row[5] != "1":
            problems.append(f"A1 row {key}: bound, saturation or pass flag wrong")
    if len(seen) != len(rows):
        problems.append("A1 rows repeat a structure")
    return problems


def a1_gaussian_exact(dims, alpha):
    return {k: (-0.5 * d * math.log(1.0 - 2.0 * alpha), float(d)) for k, d in dims.items()}


def a1_knot_dims(n):
    return {knots: len(knots) + 2 for size in range(n - 1)
            for knots in itertools.combinations(range(1, n - 1), size)}


def a1_sparsity_dims(n):
    return {idx: len(idx) for size in range(n + 1)
            for idx in itertools.combinations(range(n), size)}


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def a1_bernoulli_exact(n1, n2, theta, alpha):
    """Exact log E exp(alpha ||P_I xi||^2) by summing over all 2^(n1 n2)
    outcomes of xi = Y - theta, Y ~ Bernoulli(theta)."""
    theta = np.asarray(theta, dtype=float)
    n = n1 * n2
    bits = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    prob = np.prod(np.where(bits == 1.0, theta, 1.0 - theta), axis=1)
    xi = (bits - theta).reshape(-1, n1, n2)
    out = {}
    for rows in set_partitions(list(range(n1))):
        for cols in set_partitions(list(range(n2))):
            proj = np.zeros_like(xi)
            for rb in rows:
                for cb in cols:
                    block = xi[:, rb][:, :, cb]
                    proj[:, np.array(rb)[:, None], np.array(cb)[None, :]] = \
                        block.mean(axis=(1, 2))[:, None, None]
            sq = np.sum(proj**2, axis=(1, 2))
            key = (tuple(sorted(tuple(sorted(b)) for b in rows)),
                   tuple(sorted(tuple(sorted(b)) for b in cols)))
            out[key] = (math.log(float(np.dot(prob, np.exp(alpha * sq)))),
                        float(len(rows) * len(cols)))
    return out


def bicluster_key(data):
    return (tuple(sorted(tuple(b) for b in data["rows"])),
            tuple(sorted(tuple(b) for b in data["cols"])))


def a1_ar1_exact(n, phi, alpha):
    """-1/2 log det(I - 2 alpha Sigma_l) for every truncation level l, with
    Sigma the unit-variance AR(1) Toeplitz covariance."""
    idx = np.arange(n)
    cov = phi ** np.abs(idx[:, None] - idx[None, :])
    out = {}
    for level in range(n + 1):
        block = np.eye(level) - 2.0 * alpha * cov[:level, :level]
        sign, logdet = np.linalg.slogdet(block) if level else (1.0, 0.0)
        out[(level,)] = (-0.5 * float(logdet) if sign > 0 else math.inf, float(level))
    return out


A2_HEADER = ["family", "nu", "total", "bound", "pass", "count", "min_rho_minus_dim"]


def check_a2(path, seed, family, nu, total, count, bound, min_gap):
    problems, header, rows = _check_header(path, seed, A2_HEADER)
    if len(rows) != 1:
        return problems + [f"{len(rows)} rows, expected 1"]
    row = rows[0]
    if row[0] != family or float(row[1]) != nu:
        problems.append("family or nu column wrong")
    if not _close(float(row[2]), total, 1e-12):
        problems.append(f"A2 total {row[2]} != closed sum {total!r}")
    if int(row[5]) != count:
        problems.append(f"A2 count {row[5]} != {count}")
    if (row[3] == "" and bound is not None) or (row[3] != "" and not _close(
            float(row[3]), bound, 1e-12)):
        problems.append(f"A2 bound {row[3]!r} != {bound!r}")
    if not _close(float(row[6]), min_gap, 1e-12) or row[4] != "1":
        problems.append("A2 min_rho_minus_dim or pass flag wrong")
    return problems


def a2_sparsity(n, nu):
    k = np.arange(n + 1)
    log_terms = [math.log(math.comb(n, int(i))) for i in k] - nu * rho_sparse(k, n)
    total = math.fsum(np.exp(log_terms))
    return total, 2**n, 1.0 / (1.0 - math.exp(1.0 - nu)), float(np.min(rho_sparse(k, n) - k))


def a2_leveled(n_levels, nu):
    total = 1.0
    for j in range(n_levels):
        k = np.arange(2**j + 1)
        rho = 2.0 * xlog(k, math.e * 2**j)
        total *= math.fsum(math.comb(2**j, int(i)) * math.exp(-nu * r) for i, r in zip(k, rho))
    return total, 2**(2**n_levels - 1), None, 0.0


A3_HEADER = ["family", "status", "pairs", "max_containment_residual", "max_rho_excess", "pass"]


def check_a3(path, seed, family, pairs):
    problems, header, rows = _check_header(path, seed, A3_HEADER)
    if len(rows) != 1:
        return problems + [f"{len(rows)} rows, expected 1"]
    row = rows[0]
    if row[:3] != [family, "checked", str(pairs)] or row[5] != "1":
        problems.append(f"A3 row {row} is not a checked pass over {pairs} pairs")
    elif float(row[3]) > 1e-8:
        problems.append(f"A3 containment residual {row[3]} > 1e-8")
    return problems


def chi2_tail_even(n, x):
    """P(chi^2_n > x) for even n: the Poisson sum exp(-x/2) sum_{k<n/2} (x/2)^k / k!."""
    if x <= 0.0:
        return 1.0
    half = x / 2.0
    log_terms = [k * math.log(half) - half - math.lgamma(k + 1) for k in range(n // 2)]
    return min(1.0, math.fsum(math.exp(v) for v in log_terms))


def check_a4(path, seed, m_grid, n, reps):
    problems, header, rows = _check_header(path, seed, ["M", "psi1", "psi2"])
    if [float(r[0]) for r in rows] != [float(m) for m in m_grid]:
        return problems + ["A4 M column differs from the grid"]
    for row in rows:
        M, psi1, psi2 = (float(v) for v in row)
        p1 = math.erfc(math.sqrt(M / 2.0))
        lo, hi = n - M * math.sqrt(n), n + M * math.sqrt(n)
        p2 = chi2_tail_even(n, hi) + (1.0 - chi2_tail_even(n, lo) if lo > 0 else 0.0)
        for name, got, p in (("psi1", psi1, p1), ("psi2", psi2, p2)):
            if abs(got - p) > BINOM_Z * math.sqrt(p * (1.0 - p) / reps) + 1.0 / reps:
                problems.append(f"A4 {name}({M:g}) = {got!r}, exact {p!r}")
    return problems
