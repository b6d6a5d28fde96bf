"""Monte Carlo experiments: contraction, risk, coverage, size, recovery.

Everything is driven by a single JSON-able config document.  Each (n, sigma)
grid cell is built once into a context (family, signal, noise, constants and
the cached oracle rate), and config-only checks run on it before any
replication starts; every replication of the cell then receives that same
context, in process or pickled to a worker.  Replication seeds derive from
sha256(master_seed, cell stream, rep index), so outputs are bit-identical
across runs and independent of worker count; rows are emitted in grid order.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os

import numpy as np

from . import __version__
from .balls import (
    duplicate_gaussian,
    ebr_radius_sq,
    highly_structured,
    quarter_radius_sq,
    v_statistic,
)
from .ddm import DdmConfig, StructureMeasure, sample_conditional
from .errors import ConfigError, DimensionMismatchError, ExactModeUnavailableError, WorkerError
from .linalg import as_vector, finite_energy, sq_norm
from .noise import NoiseModel
from .oracle import FrameworkConstants, oracle_rate
from .selection import Projections, select_penalized
from .structures import (
    BandingFamily,
    BiclusterFamily,
    ClusteringFamily,
    Family,
    JumpFamily,
    KnotFamily,
    LeveledSparsityFamily,
    RegressionFamily,
    SmoothnessFamily,
    SparsityFamily,
)

# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def derive_rng(master_seed: int, *parts) -> np.random.Generator:
    key = ":".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


@contextlib.contextmanager
def _section(name: str, spec):
    """A copy of the config section `name`, which must be an object; an
    error raised while building from it becomes one ConfigError, and a
    ConfigError raised inside passes unchanged."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object, got {spec!r}")
    try:
        yield dict(spec)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{name} config missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def build_family(spec: dict, n_override: int | None = None) -> Family:
    with _section("family", spec) as spec:
        kind = spec.pop("kind", None)
        if n_override is not None:
            if kind in ("bicluster", "regression"):
                raise ConfigError(f"a grid over n is not supported for the {kind} family; "
                                  "size it explicitly in the family section")
            spec["n"] = n_override
        for field in ("n", "n1", "n2", "n_obs", "p", "n_levels"):
            if field in spec:
                spec[field] = integer(spec[field], f"family.{field}", 1)
        if kind == "smoothness":
            return SmoothnessFamily(spec["n"])
        if kind == "sparsity":
            return SparsityFamily(spec["n"], spec.get("variant", "rho"))
        if kind == "leveled":
            return LeveledSparsityFamily(spec.get("n_levels") or spec["n"])
        if kind == "clustering":
            return ClusteringFamily(spec["n"])
        if kind == "jump":
            return JumpFamily(spec["n"])
        if kind == "knot":
            return KnotFamily(spec["n"])
        if kind == "banding":
            return BandingFamily(spec.get("p") or spec["n"])
        if kind == "bicluster":
            return BiclusterFamily(spec["n1"], spec["n2"])
        if kind == "regression":
            rng = derive_rng(integer(spec.get("design_seed", 0), "family.design_seed", 0), "design")
            design = rng.standard_normal((spec["n_obs"], spec["p"]))
            return RegressionFamily(design)
        raise ConfigError(f"unknown family kind {kind!r}")


def build_noise(spec: dict | None, n: int) -> NoiseModel:
    """The noise section's model for draws of length n."""
    with _section("noise", spec or {"kind": "gaussian"}) as spec:
        kind = spec.pop("kind", "gaussian")
        if kind == "bernoulli-mean":
            theta = tuple(spec["theta"])
            if len(theta) != n:
                raise ValueError(f"bernoulli-mean theta has length {len(theta)}, need {n}")
            return NoiseModel(kind, theta=theta)
        return NoiseModel(kind, **{k: float(v) for k, v in spec.items()})


def build_signal(spec: dict, family: Family, sigma: float) -> np.ndarray:
    n = family.ambient_dim
    with _section("signal", spec) as spec:
        kind = spec.pop("kind", None)
        if kind == "zero":
            return np.zeros(n)
        if kind == "constant":
            return np.full(n, float(spec.get("value", 0.5)) * sigma)
        if kind == "sparse":
            s = integer(spec.get("s", 1), "signal.s", 0)
            if s > n:
                raise ConfigError(f"sparse signal: s = {s} exceeds the ambient dimension {n}")
            theta = np.zeros(n)
            theta[:s] = float(spec.get("amplitude", 10.0)) * sigma
            return theta
        if kind == "sobolev":
            beta = float(spec.get("beta", 1.0))
            Q = positive_number(spec.get("Q", 1.0), "signal.Q")
            idx = np.arange(1, n + 1, dtype=float)
            harmonic = float(np.sum(1.0 / idx))
            return math.sqrt(Q / harmonic) * idx ** (-(beta + 0.5))
        if kind == "geometric":
            ratio = float(spec.get("ratio", 0.5))
            scale = float(spec.get("scale", 1.0))
            return scale * ratio ** np.arange(n, dtype=float)
        if kind == "piecewise":
            breaks = [integer(b, "signal.breaks", 0) for b in spec.get("breaks", [])]
            if breaks != sorted(set(breaks)) or (breaks and breaks[-1] > n - 2):
                raise ConfigError(f"piecewise signal: breaks must increase within [0, {n - 2}]")
            levels = [float(v) for v in spec.get("levels", [0.0])]
            if len(levels) != len(breaks) + 1:
                raise ConfigError("piecewise signal needs len(levels) == len(breaks)+1")
            # every level holds at least one coordinate, since the breaks increase
            return np.repeat(levels, np.diff([0] + [b + 1 for b in breaks] + [n])) * sigma
        raise ConfigError(f"unknown signal kind {kind!r}")


def build_constants(spec: dict | None) -> FrameworkConstants:
    with _section("constants", spec or {}) as spec:
        spec.setdefault("strict", False)
        # FrameworkConstants checks alpha and delta, lets a NaN or infinite
        # nu or kappa through and only stores the overrides.  M1 enters the
        # quarter radius under a square root.
        checks = {"nu": positive_number, "kappa": positive_number,
                  "M1_override": nonnegative_number}
        for field in ("nu", "kappa", "C_nu", "M0_override", "M1_override", "M2_override",
                      "M3_override"):
            if spec.get(field) is not None:
                checks.get(field, finite_number)(spec[field], f"constants.{field}")
        return FrameworkConstants(**spec)


def _finite_number(value, field: str, kind: str) -> float:
    """value as a float; a config error unless it is a finite number of the
    given kind: positive, nonnegative, or finite (either sign)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    signed = {"positive": number > 0, "nonnegative": number >= 0}.get(kind, True)
    if not (math.isfinite(number) and signed):
        raise ConfigError(f"{field} must be a {kind} number, got {value!r}")
    return number


def positive_number(value, field: str) -> float:
    return _finite_number(value, field, "positive")


def nonnegative_number(value, field: str) -> float:
    return _finite_number(value, field, "nonnegative")


def finite_number(value, field: str) -> float:
    return _finite_number(value, field, "finite")


def integer(value, field: str, least: int) -> int:
    """value; a config error unless it is an integer of at least `least`."""
    if type(value) is not int or value < least:
        raise ConfigError(f"{field} must be an integer of at least {least}, got {value!r}")
    return value


def selector_options(config: dict, kappa) -> tuple[float, str, str]:
    """kappa (the raw value given), mode and pen_variant of a select or
    simulate config; a config error unless kappa is a positive number, mode
    exact or heuristic and pen_variant main or map."""
    kappa = positive_number(kappa, "kappa")
    if 2.0 * kappa == math.inf:
        raise ConfigError(f"2*kappa overflows the float range, got kappa = {kappa!r}")
    mode = config.get("mode", "exact")
    if mode not in ("exact", "heuristic"):
        raise ConfigError(f"unknown mode {mode!r}; choose exact or heuristic")
    pen_variant = config.get("pen_variant", "main")
    if pen_variant not in ("main", "map"):
        raise ConfigError(f"unknown pen_variant {pen_variant!r}; choose main or map")
    return kappa, mode, pen_variant


def resolve_sigma(spec, n: int) -> float:
    if spec is None:
        raise ConfigError("sigma is missing")
    if isinstance(spec, str):
        if spec == "1/sqrt(n)":
            return 1.0 / math.sqrt(n)
        raise ConfigError(f"unknown sigma rule {spec!r}")
    sigma = positive_number(spec, "sigma")
    if sigma * sigma == math.inf:
        raise ConfigError(f"sigma**2 overflows the float range, got sigma = {spec!r}")
    return sigma


def _not_finite(what: str) -> ConfigError:
    return ConfigError(f"{what} has entries that are not finite or whose squares "
                       "overflow the float range")


def finite_data(y: np.ndarray, what: str) -> np.ndarray:
    """y; a config error unless its sum of squares is finite."""
    if not finite_energy(y):
        raise _not_finite(what)
    return y


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def point_estimate(Y, family: Family, sigma: float, kappa: float, estimator: str,
                   mode: str, pen_variant: str, rng=None, proj: Projections | None = None):
    """Returns (theta_hat, I_hat).  "ms" projects onto the selected structure;
    "ma" is the theta_tilde that `select` writes (`ddm.StructureMeasure`), and
    a cap error where it is None.  Each structure is projected once for this
    Y, into proj, which must hold this family and Y, or a new memo when None."""
    proj = Projections.of(Y, family, proj)
    i_hat, _ = select_penalized(proj.y, family, sigma, kappa, mode=mode,
                                pen_variant=pen_variant, rng=rng, proj=proj)
    if estimator == "ms":
        return proj.project(i_hat), i_hat
    if estimator == "ma":
        cfg = DdmConfig(kappa=kappa, sigma=sigma, pen_variant=pen_variant)
        theta_tilde = StructureMeasure(proj, cfg).theta_tilde
        if theta_tilde is None:
            raise ExactModeUnavailableError(
                f"the ma estimator needs a structure posterior, and family {family.tag} has "
                "none: too many structures to enumerate, and the selector ran no search")
        return theta_tilde, i_hat
    raise ConfigError(f"unknown estimator {estimator!r}")


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------


# a replication's draws scale with sigma, so a finite sigma can still overflow them
_DRAWN = "an observation drawn in a replication"


class _Ctx:
    """One grid cell, built once from the JSON config: the family, sigma,
    signal, noise and constants, plus the master seed that keys the
    replication streams.  Every replication of the cell receives this same
    object, pickled whole when it runs in a worker process.

    A replication makes one `Projections` memo of each observation it draws
    (`memo`), which checks the draw's finiteness once, and hands it to the
    selector, the point estimate and the conditional sampler, so each
    structure is projected once for that draw."""

    def __init__(self, config: dict, seed: int, n: int | None, sigma_spec):
        self.config = config
        self.seed = seed
        self.family = build_family(config["family"], n)
        self.sigma = resolve_sigma(sigma_spec, self.family.ambient_dim)
        self.kappa, self.mode, self.pen_variant = selector_options(
            config, config.get("kappa", 1.0))
        self.estimator = config.get("estimator", "ms")
        if self.estimator not in ("ms", "ma"):
            raise ConfigError(f"unknown estimator {self.estimator!r}; choose ms or ma")
        self.noise = build_noise(config.get("noise"), self.family.ambient_dim)
        self.theta = finite_data(build_signal(config["signal"], self.family, self.sigma),
                                 "the signal")
        self.constants = build_constants(config.get("constants"))
        self.structured_c = positive_number(config.get("structured_c", 1.0), "structured_c")

    @functools.cached_property
    def rate(self) -> float:
        return oracle_rate(self.theta, self.family, self.sigma, mode=self.mode).rate_sq

    @property
    def cell(self) -> list:
        """The n and sigma columns that start every output row."""
        return [self.family.ambient_dim, self.sigma]

    def highly_structured(self) -> int:
        return int(highly_structured(self.rate, self.sigma, self.family.ambient_dim,
                                     self.structured_c))

    def draw(self, rng) -> np.ndarray:
        return self.theta + self.sigma * self.noise.sample(rng, self.family.ambient_dim)

    def memo(self, y) -> Projections:
        """The projection memo of the drawn observation y; a config error
        when the sum of squares of y is not finite."""
        try:
            return Projections(y, self.family)
        except ValueError as exc:
            raise _not_finite(_DRAWN) from exc

    def select(self, proj: Projections, rng):
        return select_penalized(proj.y, self.family, self.sigma, self.kappa, mode=self.mode,
                                pen_variant=self.pen_variant, rng=rng, proj=proj)[0]

    def estimate(self, proj: Projections, rng, sigma: float | None = None):
        return point_estimate(proj.y, self.family, self.sigma if sigma is None else sigma,
                              self.kappa, self.estimator, self.mode, self.pen_variant, rng,
                              proj)


def _grid(config: dict, key: str, default):
    grid = config.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError(f"grid must be an object, got {grid!r}")
    values = grid.get(key, default)
    if not isinstance(values, list):
        values = [values]
    if not values:
        raise ConfigError(f"empty grid for {key!r}")
    return values


def _cells(config: dict, seed: int):
    """(cell index, context) for every (n, sigma) grid cell, n-major; every
    cell is built, and so checked, before the first replication runs."""
    ns = [n if n is None else integer(n, "grid.n", 1) for n in _grid(config, "n", [None])]
    grid = itertools.product(ns, _grid(config, "sigma", [config.get("sigma", 1.0)]))
    return list(enumerate(_Ctx(config, seed, n, sigma_spec) for n, sigma_spec in grid))


def _mean_se(flags) -> tuple[float, float]:
    arr = np.asarray(flags, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=0) / math.sqrt(arr.size))


def _ratio(value: float, rate: float) -> float:
    return value / rate if rate > 0 else math.inf


# -- replications: func(ctx, rng, *extra), module level so they pickle -------


def _rep_contraction(ctx, rng, thresholds):
    """Per threshold t, the fraction of posterior draws whose squared error
    is at least t; the errors are sorted once per replication.  The sampler
    centers at the row the selector stored in the draw's memo, and the
    squared errors are formed in place in the array of draws."""
    proj = ctx.memo(ctx.draw(rng))
    cfg = DdmConfig(kappa=ctx.kappa, sigma=ctx.sigma, pen_variant=ctx.pen_variant)
    draws = int(ctx.config.get("posterior_draws", 200))
    samples = sample_conditional(proj.y, ctx.family, ctx.select(proj, rng), cfg, rng, draws,
                                 proj)
    samples -= ctx.theta
    return _exceedance(np.square(samples, out=samples).sum(axis=1), thresholds)


def _exceedance(errs, thresholds) -> list[float]:
    """float(np.mean(errs >= t)) for each threshold t of NaN-free errs, from
    one sort: the errors below t are the first searchsorted(side="left") of
    the sorted errors, so ties count as exceeding.  The count and the size
    are exact in float64, so each quotient has the bytes of the mean of the
    0/1 flags."""
    errs = np.sort(errs)
    below = np.searchsorted(errs, thresholds, side="left")
    return [(errs.size - int(b)) / errs.size for b in below]


def _rep_error_sq(ctx, rng):
    theta_hat, i_hat = ctx.estimate(ctx.memo(ctx.draw(rng)), rng)
    return sq_norm(theta_hat - ctx.theta), ctx.family.majorant(i_hat)


def _center(ctx, theta_hat) -> np.ndarray:
    """theta_hat checked once as a ball center: a finite vector of the
    length of theta."""
    theta_hat = as_vector(theta_hat)
    if theta_hat.size != ctx.theta.size:
        raise DimensionMismatchError("theta has the wrong length for this ball")
    return theta_hat


def _hits(dist_sq: float, radii) -> list[tuple[float, float]]:
    """(whether the closed ball of each squared radius holds a point at
    squared distance dist_sq from its center, the squared radius)."""
    return [(float(dist_sq <= r), r) for r in radii]


def _rep_coverage_ebr(ctx, rng, t_list, M_list):
    """(hit, squared radius) of the EBR ball for each (t, M), t-major, as
    `contains(ebr_ball(...), theta)` would give them: rho(I_hat) and
    ||theta - theta_hat||^2 are computed once per replication, and each
    cell is one `ebr_radius_sq` and one comparison."""
    theta_hat, i_hat = ctx.estimate(ctx.memo(ctx.draw(rng)), rng)
    rho_hat = ctx.family.majorant(i_hat)
    dist_sq = sq_norm(ctx.theta - _center(ctx, theta_hat))
    return _hits(dist_sq, [ebr_radius_sq(rho_hat, ctx.sigma, ctx.constants, t, M)
                           for t in t_list for M in M_list])


def _check_quarter(ctx) -> None:
    if isinstance(ctx.family, BandingFamily):
        raise ConfigError("quarter ball is disabled for the banding family "
                          "(no valid V statistic is known there)")
    duplication = ctx.config.get("duplication", "gaussian")
    if duplication not in ("gaussian", "second-sample"):
        raise ConfigError(f"unknown duplication {duplication!r}")
    if duplication == "gaussian" and ctx.noise.kind != "gaussian":
        raise ConfigError("gaussian duplication requires gaussian noise")
    v_kind = ctx.config.get("v_statistic", "unit-variance")
    if v_kind not in ("unit-variance", "bernoulli"):
        raise ConfigError(f"unknown v_statistic {v_kind!r}; choose unit-variance or bernoulli")


def _rep_coverage_quarter(ctx, rng, M_list):
    """(hit, squared radius) of the quarter ball for each M, as
    `contains(quarter_ball(...), theta)` would give them: the statistic
    ||Y' - theta_hat||^2 - sigma^2 V and ||theta - theta_hat||^2 are
    computed once per replication, and each M is one `quarter_radius_sq`
    and one comparison."""
    if ctx.config.get("duplication", "gaussian") == "gaussian":
        y_prime, y_second = duplicate_gaussian(ctx.draw(rng), ctx.sigma, rng)
        sigma_eff = ctx.sigma * math.sqrt(2.0)
        v_kind = "unit-variance"
    else:
        y_second = ctx.draw(rng)
        y_prime = ctx.draw(rng)
        sigma_eff = ctx.sigma
        v_kind = ctx.config.get("v_statistic", "unit-variance")
    theta_hat, _ = ctx.estimate(ctx.memo(y_second), rng, sigma_eff)
    v = v_statistic(v_kind, y_prime, y_second)
    theta_hat = _center(ctx, theta_hat)
    stat = sq_norm(y_prime - theta_hat) - sigma_eff**2 * v
    return _hits(sq_norm(ctx.theta - theta_hat),
                 [quarter_radius_sq(stat, sigma_eff, M, ctx.constants.M1, y_prime.size)
                  for M in M_list])


def _rep_recovery(ctx, rng):
    return ctx.family.majorant(ctx.select(ctx.memo(ctx.draw(rng)), rng))


def _call(func, ctx, stream, extra, rep):
    return func(ctx, derive_rng(ctx.seed, "rep", stream, rep), *extra)


def _run_reps(func, ctx: _Ctx, stream, reps: int, workers: int, *extra):
    """func(ctx, rng, *extra) for reps replications of one cell, in rep order.
    Starts no more worker processes than replications or CPUs.  The process
    pool, and with it multiprocessing, is imported only when more than one
    worker runs; a pool whose worker died raises `WorkerError`."""
    task = functools.partial(_call, func, ctx, stream, extra)
    workers = min(workers, reps, os.cpu_count() or 1)
    if workers <= 1:
        return [task(rep) for rep in range(reps)]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, range(reps), chunksize=max(1, reps // (4 * workers))))
    except BrokenProcessPool as exc:
        raise WorkerError(str(exc)) from exc


def _calibration(func, ctx: _Ctx, ci: int, reps: int, workers: int, *extra):
    """(replications of the calibration stream, nominal level), or
    (None, None) when the config asks for no calibration."""
    calibrate = ctx.config.get("calibrate")
    if not calibrate:
        return None, None
    calib = _run_reps(func, ctx, f"calib:{ci}", int(calibrate.get("reps", reps)),
                      workers, *extra)
    return calib, float(calibrate.get("nominal", 0.95))


def _calibrate_m(values_by_m: dict[float, list[float]], nominal: float) -> float:
    """Smallest grid M whose empirical rate meets the nominal level."""
    for M in sorted(values_by_m):
        if np.mean(values_by_m[M]) >= nominal:
            return M
    return max(values_by_m)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_contraction(config, seed, workers):
    reps = int(config.get("reps", 100))
    M_list = [finite_number(m, "grid.M") for m in _grid(config, "M", [0.0])]
    header = ["n", "sigma", "M", "frac_exceed", "se", "reps"]
    rows = []
    for ci, ctx in _cells(config, seed):
        thresholds = [ctx.constants.M0 * ctx.rate + M * ctx.sigma**2 for M in M_list]
        per_rep = _run_reps(_rep_contraction, ctx, ci, reps, workers, thresholds)
        for mi, M in enumerate(M_list):
            rows.append([*ctx.cell, M, *_mean_se([row[mi] for row in per_rep]), reps])
    return header, rows


def run_estimation_risk(config, seed, workers):
    reps = int(config.get("reps", 100))
    header = ["n", "sigma", "mean_err_sq", "se", "q50", "q90",
              "oracle_rate_sq", "mean_ratio", "reps"]
    rows = []
    for ci, ctx in _cells(config, seed):
        errs = np.array([e for e, _ in _run_reps(_rep_error_sq, ctx, ci, reps, workers)])
        mean, se = _mean_se(errs)
        rows.append([*ctx.cell, mean, se,
                     float(np.quantile(errs, 0.5)), float(np.quantile(errs, 0.9)),
                     ctx.rate, _ratio(mean, ctx.rate), reps])
    return header, rows


def run_rate_scaling(config, seed, workers):
    reps = int(config.get("reps", 100))
    header = ["n", "sigma", "mean_err_sq", "se", "log_n", "log_mean_err_sq", "reps"]
    rows = []
    for ci, ctx in _cells(config, seed):
        errs = np.array([e for e, _ in _run_reps(_rep_error_sq, ctx, ci, reps, workers)])
        mean, se = _mean_se(errs)
        rows.append([*ctx.cell, mean, se,
                     math.log(ctx.family.ambient_dim), math.log(mean), reps])
    return header, rows


def run_coverage_ebr(config, seed, workers):
    reps = int(config.get("reps", 200))
    t_list = [nonnegative_number(t, "grid.t") for t in _grid(config, "t", [0.0])]
    M_list = [nonnegative_number(m, "grid.M") for m in _grid(config, "M", [0.0])]
    header = ["n", "sigma", "t", "M", "m_kind", "coverage", "se",
              "mean_radius_sq", "oracle_rate_sq", "mean_radius_to_oracle",
              "m2_theory", "m2_used", "reps"]
    rows = []
    for ci, ctx in _cells(config, seed):
        m2_theory = FrameworkConstants(
            alpha=ctx.constants.alpha, nu=ctx.constants.nu, strict=True).M2
        per_rep = _run_reps(_rep_coverage_ebr, ctx, f"main:{ci}", reps, workers,
                            t_list, M_list)

        def row(ti, mi, m_kind):
            idx = ti * len(M_list) + mi
            cov, se = _mean_se([r[idx][0] for r in per_rep])
            mean_rad = float(np.mean([r[idx][1] for r in per_rep]))
            return [*ctx.cell, t_list[ti], M_list[mi], m_kind, cov, se, mean_rad,
                    ctx.rate, _ratio(mean_rad, ctx.rate), m2_theory, ctx.constants.M2, reps]

        rows += [row(ti, mi, "grid") for ti in range(len(t_list)) for mi in range(len(M_list))]
        calib, nominal = _calibration(_rep_coverage_ebr, ctx, ci, reps, workers,
                                      t_list, M_list)
        if calib is not None:
            for ti in range(len(t_list)):
                values = {M: [r[ti * len(M_list) + mi][0] for r in calib]
                          for mi, M in enumerate(M_list)}
                rows.append(row(ti, M_list.index(_calibrate_m(values, nominal)),
                                "calibrated"))
    return header, rows


def run_coverage_quarter(config, seed, workers):
    reps = int(config.get("reps", 200))
    M_list = [nonnegative_number(m, "grid.M") for m in _grid(config, "M", [1.0])]
    header = ["n", "sigma", "M", "m_kind", "coverage", "se", "mean_radius_sq",
              "oracle_rate_sq", "mean_radius_to_oracle", "highly_structured", "reps"]
    rows = []
    for ci, ctx in _cells(config, seed):
        _check_quarter(ctx)
        flag = ctx.highly_structured()
        per_rep = _run_reps(_rep_coverage_quarter, ctx, f"main:{ci}", reps, workers, M_list)

        def row(mi, m_kind):
            cov, se = _mean_se([r[mi][0] for r in per_rep])
            mean_rad = float(np.mean([r[mi][1] for r in per_rep]))
            return [*ctx.cell, M_list[mi], m_kind, cov, se, mean_rad,
                    ctx.rate, _ratio(mean_rad, ctx.rate), flag, reps]

        rows += [row(mi, "grid") for mi in range(len(M_list))]
        calib, nominal = _calibration(_rep_coverage_quarter, ctx, ci, reps, workers, M_list)
        if calib is not None:
            values = {M: [r[mi][0] for r in calib] for mi, M in enumerate(M_list)}
            rows.append(row(M_list.index(_calibrate_m(values, nominal)), "calibrated"))
    return header, rows


def run_size(config, seed, workers):
    reps = int(config.get("reps", 200))
    header = ["n", "sigma", "mean_rhat_sq", "q50_ratio", "q90_ratio",
              "oracle_rate_sq", "highly_structured", "reps"]
    rows = []
    for ci, ctx in _cells(config, seed):
        rhos = np.array([rho for _, rho in _run_reps(_rep_error_sq, ctx, ci, reps, workers)])
        r_hat_sq = ctx.sigma**2 * (1.0 + rhos)
        # at rate 0 every ratio is inf, whose np.quantile would be nan
        quantiles = ([float(np.quantile(r_hat_sq / ctx.rate, q)) for q in (0.5, 0.9)]
                     if ctx.rate > 0 else [math.inf, math.inf])
        rows.append([*ctx.cell, float(np.mean(r_hat_sq)), *quantiles,
                     ctx.rate, ctx.highly_structured(), reps])
    return header, rows


def run_recovery_shell(config, seed, workers):
    reps = int(config.get("reps", 200))
    M_list = [finite_number(m, "grid.M") for m in _grid(config, "M", [0.0])]
    header = ["n", "sigma", "M", "m_kind", "freq_lower", "freq_upper", "freq_shell",
              "se_shell", "delta", "rho_tau0_oracle", "rho_oracle", "reps"]
    rows = []
    for ci, ctx in _cells(config, seed):
        delta = ctx.constants.delta
        rho_star, rho_oracle = (
            ctx.family.majorant(oracle_rate(ctx.theta, ctx.family, ctx.sigma, tau,
                                            mode=ctx.mode).structure)
            for tau in (ctx.constants.tau0, 1.0))

        def freqs(rho_values, M):
            lower = rho_values >= delta * rho_star - M
            upper = rho_values <= ctx.constants.recovery_upper_factor * rho_oracle + M
            return lower, upper

        rhos = np.array(_run_reps(_rep_recovery, ctx, f"main:{ci}", reps, workers))

        def row(M, m_kind):
            lower, upper = freqs(rhos, M)
            mean, se = _mean_se(lower & upper)
            return [*ctx.cell, M, m_kind, float(np.mean(lower)), float(np.mean(upper)),
                    mean, se, delta, rho_star, rho_oracle, reps]

        rows += [row(M, "grid") for M in M_list]
        calib, nominal = _calibration(_rep_recovery, ctx, ci, reps, workers)
        if calib is not None:
            calib = np.array(calib)
            values = {M: list(freqs(calib, M)[0].astype(float)) for M in M_list}
            rows.append(row(_calibrate_m(values, nominal), "calibrated"))
    return header, rows


RUNNERS = {
    "contraction": run_contraction,
    "estimation-risk": run_estimation_risk,
    "coverage-ebr": run_coverage_ebr,
    "coverage-quarter": run_coverage_quarter,
    "size": run_size,
    "recovery-shell": run_recovery_shell,
    "rate-scaling": run_rate_scaling,
}
EXPERIMENTS = tuple(RUNNERS)


def run_experiment(config: dict, seed: int, workers: int = 1):
    name = config.get("experiment")
    if not isinstance(name, str) or name not in RUNNERS:
        raise ConfigError(f"unknown experiment {name!r}; choose one of {EXPERIMENTS}")
    if "family" not in config or "signal" not in config:
        raise ConfigError("experiment config needs 'family' and 'signal' sections")
    calibrate = config.get("calibrate") or {}
    if not isinstance(calibrate, dict):
        raise ConfigError(f"calibrate must be an object, got {calibrate!r}")
    finite_number(calibrate.get("nominal", 0.95), "calibrate.nominal")
    # a count below 1 would write NaN rows or fail inside numpy
    integer(config.get("reps", 1), "reps", 1)
    integer(calibrate.get("reps", 1), "calibrate.reps", 1)
    integer(config.get("posterior_draws", 1), "posterior_draws", 1)
    return RUNNERS[name](config, seed, workers)


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):  # includes numpy scalars; repr round-trips
        return repr(float(v))
    return str(v)


def _csv_field(value) -> str:
    text = format_value(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(header, rows, seed: int, config: dict) -> str:
    lines = [f"# projstruct={__version__} seed={seed} config_sha256={config_hash(config)}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_field(v) for v in row))
    return "\n".join(lines) + "\n"
