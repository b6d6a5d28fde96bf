"""Monte Carlo experiments: contraction, risk, coverage, size, recovery.

Everything is driven by a single JSON-able config document.  Replication
seeds derive from sha256(master_seed, cell key, rep index), so outputs are
bit-identical across runs and independent of worker count; rows are emitted
in grid order.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .balls import contains, duplicate_gaussian, ebr_ball, highly_structured, quarter_ball, v_statistic
from .ddm import DdmConfig, ma_mean, sample_conditional, sparsity_ma_mean_exact, structure_posterior
from .errors import ConfigError
from .linalg import sq_norm
from .noise import NoiseModel
from .oracle import FrameworkConstants, oracle_rate
from .selection import select_penalized
from .structures import (
    BandingFamily,
    BiclusterFamily,
    Caps,
    ClusteringFamily,
    Family,
    JumpFamily,
    KnotFamily,
    LeveledSparsityFamily,
    RegressionFamily,
    SmoothnessFamily,
    SparsityFamily,
)

EXPERIMENTS = ("contraction", "estimation-risk", "coverage-ebr", "coverage-quarter",
               "size", "recovery-shell", "rate-scaling")


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


def build_family(spec: dict, n_override: int | None = None) -> Family:
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if n_override is not None:
        if kind in ("bicluster", "regression"):
            raise ConfigError(f"a grid over n is not supported for the {kind} family; "
                              "size it explicitly in the family section")
        spec["n"] = n_override
    try:
        if kind == "smoothness":
            return SmoothnessFamily(int(spec["n"]))
        if kind == "sparsity":
            return SparsityFamily(int(spec["n"]), spec.get("variant", "rho"))
        if kind == "leveled":
            return LeveledSparsityFamily(int(spec.get("n_levels", spec.get("n"))))
        if kind == "clustering":
            return ClusteringFamily(int(spec["n"]))
        if kind == "jump":
            return JumpFamily(int(spec["n"]))
        if kind == "knot":
            return KnotFamily(int(spec["n"]))
        if kind == "banding":
            return BandingFamily(int(spec.get("p", spec.get("n"))))
        if kind == "bicluster":
            return BiclusterFamily(int(spec["n1"]), int(spec["n2"]))
        if kind == "regression":
            rng = derive_rng(int(spec.get("design_seed", 0)), "design")
            design = rng.standard_normal((int(spec["n_obs"]), int(spec["p"])))
            return RegressionFamily(design)
    except KeyError as exc:
        raise ConfigError(f"family config missing field {exc}") from exc
    raise ConfigError(f"unknown family kind {kind!r}")


def build_noise(spec: dict | None) -> NoiseModel:
    spec = dict(spec or {"kind": "gaussian"})
    kind = spec.pop("kind", "gaussian")
    try:
        if kind == "bernoulli-mean":
            return NoiseModel(kind, theta=tuple(spec["theta"]))
        return NoiseModel(kind, **{k: float(v) for k, v in spec.items()})
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad noise config: {exc}") from exc


def build_signal(spec: dict, family: Family, sigma: float) -> np.ndarray:
    spec = dict(spec)
    kind = spec.pop("kind", None)
    n = family.ambient_dim
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, float(spec.get("value", 0.5)) * sigma)
    if kind == "sparse":
        s = int(spec.get("s", 1))
        if s > n:
            raise ConfigError("sparse signal: s exceeds the ambient dimension")
        theta = np.zeros(n)
        theta[:s] = float(spec.get("amplitude", 10.0)) * sigma
        return theta
    if kind == "sobolev":
        beta = float(spec.get("beta", 1.0))
        Q = float(spec.get("Q", 1.0))
        idx = np.arange(1, n + 1, dtype=float)
        harmonic = float(np.sum(1.0 / idx))
        return math.sqrt(Q / harmonic) * idx ** (-(beta + 0.5))
    if kind == "geometric":
        ratio = float(spec.get("ratio", 0.5))
        scale = float(spec.get("scale", 1.0))
        return scale * ratio ** np.arange(n, dtype=float)
    if kind == "piecewise":
        breaks = [int(b) for b in spec.get("breaks", [])]
        levels = [float(v) for v in spec.get("levels", [0.0])]
        if len(levels) != len(breaks) + 1:
            raise ConfigError("piecewise signal needs len(levels) == len(breaks)+1")
        theta = np.empty(n)
        bounds = [0] + [b + 1 for b in breaks] + [n]
        for lv, lo, hi in zip(levels, bounds[:-1], bounds[1:]):
            theta[lo:hi] = lv * sigma
        return theta
    raise ConfigError(f"unknown signal kind {kind!r}")


def build_constants(spec: dict | None) -> FrameworkConstants:
    spec = dict(spec or {})
    spec.setdefault("strict", False)
    try:
        return FrameworkConstants(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad constants config: {exc}") from exc


def resolve_sigma(spec, n: int) -> float:
    if spec is None:
        raise ConfigError("sigma is missing")
    if isinstance(spec, str):
        if spec == "1/sqrt(n)":
            return 1.0 / math.sqrt(n)
        raise ConfigError(f"unknown sigma rule {spec!r}")
    sigma = float(spec)
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    return sigma


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def point_estimate(Y, family: Family, sigma: float, kappa: float, estimator: str,
                   mode: str, pen_variant: str, rng=None):
    """Returns (theta_hat, I_hat).  "ms" projects onto the selected structure;
    "ma" mixes projections under the structure measure (exact for sparsity
    via symmetric polynomials, by enumeration otherwise)."""
    i_hat, _ = select_penalized(Y, family, sigma, kappa, mode=mode,
                                pen_variant=pen_variant, rng=rng)
    if estimator == "ms":
        return family.project(i_hat, Y), i_hat
    if estimator == "ma":
        cfg = DdmConfig(kappa=kappa, sigma=sigma, pen_variant=pen_variant)
        if isinstance(family, SparsityFamily):
            return sparsity_ma_mean_exact(Y, family, cfg), i_hat
        post = structure_posterior(Y, family, cfg, caps=Caps(max_count=50_000))
        return ma_mean(Y, family, post), i_hat
    raise ConfigError(f"unknown estimator {estimator!r}")


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------


class _Ctx:
    """Per-cell context rebuilt inside workers from the JSON config."""

    def __init__(self, config: dict, n: float | None, sigma_spec):
        self.config = config
        self.family = build_family(config["family"], None if n is None else int(n))
        self.sigma = resolve_sigma(sigma_spec, self.family.ambient_dim)
        self.kappa = float(config.get("kappa", 1.0))
        self.pen_variant = config.get("pen_variant", "main")
        self.mode = config.get("mode", "exact")
        self.estimator = config.get("estimator", "ms")
        self.noise = build_noise(config.get("noise"))
        self.theta = build_signal(config["signal"], self.family, self.sigma)
        self.constants = build_constants(config.get("constants"))

    def draw(self, rng) -> np.ndarray:
        return self.theta + self.sigma * self.noise.sample(rng, self.family.ambient_dim)


def _grid(config: dict, key: str, default):
    grid = config.get("grid", {})
    values = grid.get(key, default)
    if not isinstance(values, list):
        values = [values]
    if not values:
        raise ConfigError(f"empty grid for {key!r}")
    return values


def _mean_se(flags) -> tuple[float, float]:
    arr = np.asarray(flags, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=0) / math.sqrt(arr.size))


# -- per-replication payload runners (module level: picklable) --------------


def _rep_contraction(args):
    config, n, sigma_spec, M_list, seed, cell, rep = args
    ctx = _Ctx(config, n, sigma_spec)
    rng = derive_rng(seed, "rep", cell, rep)
    y = ctx.draw(rng)
    i_hat, _ = select_penalized(y, ctx.family, ctx.sigma, ctx.kappa, mode=ctx.mode,
                                pen_variant=ctx.pen_variant, rng=rng)
    draws = int(config.get("posterior_draws", 200))
    cfg = DdmConfig(kappa=ctx.kappa, sigma=ctx.sigma, pen_variant=ctx.pen_variant)
    samples = np.stack(sample_conditional(y, ctx.family, i_hat, cfg, rng, draws))
    errs = np.sum((samples - ctx.theta[None, :]) ** 2, axis=1)
    rate = oracle_rate(ctx.theta, ctx.family, ctx.sigma, mode=ctx.mode).rate_sq
    M0 = ctx.constants.M0
    return [float(np.mean(errs >= M0 * rate + M * ctx.sigma**2)) for M in M_list]


def _rep_error_sq(args):
    config, n, sigma_spec, seed, cell, rep = args
    ctx = _Ctx(config, n, sigma_spec)
    rng = derive_rng(seed, "rep", cell, rep)
    y = ctx.draw(rng)
    theta_hat, i_hat = point_estimate(y, ctx.family, ctx.sigma, ctx.kappa,
                                      ctx.estimator, ctx.mode, ctx.pen_variant, rng)
    return sq_norm(theta_hat - ctx.theta), ctx.family.majorant(i_hat)


def _rep_coverage_ebr(args):
    config, n, sigma_spec, t_list, M_list, seed, cell, rep = args
    ctx = _Ctx(config, n, sigma_spec)
    rng = derive_rng(seed, "rep", cell, rep)
    y = ctx.draw(rng)
    theta_hat, i_hat = point_estimate(y, ctx.family, ctx.sigma, ctx.kappa,
                                      ctx.estimator, ctx.mode, ctx.pen_variant, rng)
    out = []
    for t in t_list:
        for M in M_list:
            ball = ebr_ball(y, ctx.family, ctx.sigma, ctx.constants, i_hat,
                            theta_hat, t, M)
            out.append((float(contains(ball, ctx.theta)), ball.radius_sq))
    return out


def _rep_coverage_quarter(args):
    config, n, sigma_spec, M_list, seed, cell, rep = args
    ctx = _Ctx(config, n, sigma_spec)
    if isinstance(ctx.family, BandingFamily):
        raise ConfigError("quarter ball is disabled for the banding family "
                          "(no valid V statistic is known there)")
    rng = derive_rng(seed, "rep", cell, rep)
    duplication = config.get("duplication", "gaussian")
    if duplication == "gaussian":
        if ctx.noise.kind != "gaussian":
            raise ConfigError("gaussian duplication requires gaussian noise")
        y = ctx.draw(rng)
        y_prime, y_second = duplicate_gaussian(y, ctx.sigma, rng)
        sigma_eff = ctx.sigma * math.sqrt(2.0)
        v_kind = "unit-variance"
    elif duplication == "second-sample":
        y_second = ctx.draw(rng)
        y_prime = ctx.draw(rng)
        sigma_eff = ctx.sigma
        v_kind = config.get("v_statistic", "unit-variance")
    else:
        raise ConfigError(f"unknown duplication {duplication!r}")
    theta_hat, _ = point_estimate(y_second, ctx.family, sigma_eff, ctx.kappa,
                                  ctx.estimator, ctx.mode, ctx.pen_variant, rng)
    v = v_statistic(v_kind, y_prime, y_second)
    out = []
    for M in M_list:
        ball = quarter_ball(y_prime, theta_hat, sigma_eff, M, ctx.constants.M1, v)
        out.append((float(contains(ball, ctx.theta)), ball.radius_sq))
    return out


def _rep_recovery(args):
    config, n, sigma_spec, seed, cell, rep = args
    ctx = _Ctx(config, n, sigma_spec)
    rng = derive_rng(seed, "rep", cell, rep)
    y = ctx.draw(rng)
    i_hat, _ = select_penalized(y, ctx.family, ctx.sigma, ctx.kappa, mode=ctx.mode,
                                pen_variant=ctx.pen_variant, rng=rng)
    return ctx.family.majorant(i_hat)


_REP_FUNCS = {
    "contraction": _rep_contraction,
    "error": _rep_error_sq,
    "coverage-ebr": _rep_coverage_ebr,
    "coverage-quarter": _rep_coverage_quarter,
    "recovery": _rep_recovery,
}


def _run_reps(func_key: str, payloads, workers: int):
    func = _REP_FUNCS[func_key]
    if workers <= 1:
        return [func(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(payloads) // (4 * workers))
        return list(pool.map(func, payloads, chunksize=chunk))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _cells(config):
    n_grid = _grid(config, "n", [None])
    sigma_grid = _grid(config, "sigma", [config.get("sigma", 1.0)])
    for n in n_grid:
        for sigma_spec in sigma_grid:
            yield n, sigma_spec


def run_contraction(config, seed, workers):
    reps = int(config.get("reps", 100))
    M_list = [float(m) for m in _grid(config, "M", [0.0])]
    header = ["n", "sigma", "M", "frac_exceed", "se", "reps"]
    rows = []
    for ci, (n, sigma_spec) in enumerate(_cells(config)):
        payloads = [(config, n, sigma_spec, M_list, seed, ci, r) for r in range(reps)]
        per_rep = _run_reps("contraction", payloads, workers)
        ctx = _Ctx(config, n, sigma_spec)
        for mi, M in enumerate(M_list):
            mean, se = _mean_se([row[mi] for row in per_rep])
            rows.append([ctx.family.ambient_dim, ctx.sigma, M, mean, se, reps])
    return header, rows


def run_estimation_risk(config, seed, workers):
    reps = int(config.get("reps", 100))
    header = ["n", "sigma", "mean_err_sq", "se", "q50", "q90",
              "oracle_rate_sq", "mean_ratio", "reps"]
    rows = []
    for ci, (n, sigma_spec) in enumerate(_cells(config)):
        payloads = [(config, n, sigma_spec, seed, ci, r) for r in range(reps)]
        errs = np.array([e for e, _ in _run_reps("error", payloads, workers)])
        ctx = _Ctx(config, n, sigma_spec)
        rate = oracle_rate(ctx.theta, ctx.family, ctx.sigma, mode=ctx.mode).rate_sq
        mean, se = _mean_se(errs)
        rows.append([ctx.family.ambient_dim, ctx.sigma, mean, se,
                     float(np.quantile(errs, 0.5)), float(np.quantile(errs, 0.9)),
                     rate, mean / rate if rate > 0 else math.inf, reps])
    return header, rows


def run_rate_scaling(config, seed, workers):
    reps = int(config.get("reps", 100))
    header = ["n", "sigma", "mean_err_sq", "se", "log_n", "log_mean_err_sq", "reps"]
    rows = []
    for ci, (n, sigma_spec) in enumerate(_cells(config)):
        payloads = [(config, n, sigma_spec, seed, ci, r) for r in range(reps)]
        errs = np.array([e for e, _ in _run_reps("error", payloads, workers)])
        ctx = _Ctx(config, n, sigma_spec)
        mean, se = _mean_se(errs)
        rows.append([ctx.family.ambient_dim, ctx.sigma, mean, se,
                     math.log(ctx.family.ambient_dim), math.log(mean), reps])
    return header, rows


def _calibrate_m(values_by_m: dict[float, list[float]], nominal: float) -> float:
    """Smallest grid M whose empirical rate meets the nominal level."""
    for M in sorted(values_by_m):
        if np.mean(values_by_m[M]) >= nominal:
            return M
    return max(values_by_m)


def run_coverage_ebr(config, seed, workers):
    reps = int(config.get("reps", 200))
    t_list = [float(t) for t in _grid(config, "t", [0.0])]
    M_list = [float(m) for m in _grid(config, "M", [0.0])]
    calibrate = config.get("calibrate")
    header = ["n", "sigma", "t", "M", "m_kind", "coverage", "se",
              "mean_radius_sq", "oracle_rate_sq", "mean_radius_to_oracle",
              "m2_theory", "m2_used", "reps"]
    rows = []
    for ci, (n, sigma_spec) in enumerate(_cells(config)):
        ctx = _Ctx(config, n, sigma_spec)
        rate = oracle_rate(ctx.theta, ctx.family, ctx.sigma, mode=ctx.mode).rate_sq
        m2_theory = FrameworkConstants(
            alpha=ctx.constants.alpha, nu=ctx.constants.nu, strict=True).M2

        def run(m_values, stream, n_reps):
            payloads = [(config, n, sigma_spec, t_list, m_values, seed,
                         f"{stream}:{ci}", r) for r in range(n_reps)]
            return _run_reps("coverage-ebr", payloads, workers)

        per_rep = run(M_list, "main", reps)
        for ti, t in enumerate(t_list):
            for mi, M in enumerate(M_list):
                idx = ti * len(M_list) + mi
                cov, se = _mean_se([r[idx][0] for r in per_rep])
                mean_rad = float(np.mean([r[idx][1] for r in per_rep]))
                rows.append([ctx.family.ambient_dim, ctx.sigma, t, M, "grid", cov, se,
                             mean_rad, rate, mean_rad / rate if rate > 0 else math.inf,
                             m2_theory, ctx.constants.M2, reps])
        if calibrate:
            nominal = float(calibrate.get("nominal", 0.95))
            calib_reps = int(calibrate.get("reps", reps))
            calib = run(M_list, "calib", calib_reps)
            for ti, t in enumerate(t_list):
                values = {M: [r[ti * len(M_list) + mi][0] for r in calib]
                          for mi, M in enumerate(M_list)}
                m_star = _calibrate_m(values, nominal)
                mi = M_list.index(m_star)
                idx = ti * len(M_list) + mi
                cov, se = _mean_se([r[idx][0] for r in per_rep])
                mean_rad = float(np.mean([r[idx][1] for r in per_rep]))
                rows.append([ctx.family.ambient_dim, ctx.sigma, t, m_star, "calibrated",
                             cov, se, mean_rad, rate,
                             mean_rad / rate if rate > 0 else math.inf,
                             m2_theory, ctx.constants.M2, reps])
    return header, rows


def run_coverage_quarter(config, seed, workers):
    reps = int(config.get("reps", 200))
    M_list = [float(m) for m in _grid(config, "M", [1.0])]
    calibrate = config.get("calibrate")
    header = ["n", "sigma", "M", "m_kind", "coverage", "se", "mean_radius_sq",
              "oracle_rate_sq", "mean_radius_to_oracle", "highly_structured", "reps"]
    rows = []
    for ci, (n, sigma_spec) in enumerate(_cells(config)):
        ctx = _Ctx(config, n, sigma_spec)
        rate = oracle_rate(ctx.theta, ctx.family, ctx.sigma, mode=ctx.mode).rate_sq
        flag = int(highly_structured(rate, ctx.sigma, ctx.family.ambient_dim,
                                     float(config.get("structured_c", 1.0))))

        def run(stream, n_reps):
            payloads = [(config, n, sigma_spec, M_list, seed, f"{stream}:{ci}", r)
                        for r in range(n_reps)]
            return _run_reps("coverage-quarter", payloads, workers)

        per_rep = run("main", reps)
        for mi, M in enumerate(M_list):
            cov, se = _mean_se([r[mi][0] for r in per_rep])
            mean_rad = float(np.mean([r[mi][1] for r in per_rep]))
            rows.append([ctx.family.ambient_dim, ctx.sigma, M, "grid", cov, se,
                         mean_rad, rate, mean_rad / rate if rate > 0 else math.inf,
                         flag, reps])
        if calibrate:
            nominal = float(calibrate.get("nominal", 0.95))
            calib = run("calib", int(calibrate.get("reps", reps)))
            values = {M: [r[mi][0] for r in calib] for mi, M in enumerate(M_list)}
            m_star = _calibrate_m(values, nominal)
            mi = M_list.index(m_star)
            cov, se = _mean_se([r[mi][0] for r in per_rep])
            mean_rad = float(np.mean([r[mi][1] for r in per_rep]))
            rows.append([ctx.family.ambient_dim, ctx.sigma, m_star, "calibrated", cov,
                         se, mean_rad, rate, mean_rad / rate if rate > 0 else math.inf,
                         flag, reps])
    return header, rows


def run_size(config, seed, workers):
    reps = int(config.get("reps", 200))
    header = ["n", "sigma", "mean_rhat_sq", "q50_ratio", "q90_ratio",
              "oracle_rate_sq", "highly_structured", "reps"]
    rows = []
    for ci, (n, sigma_spec) in enumerate(_cells(config)):
        ctx = _Ctx(config, n, sigma_spec)
        payloads = [(config, n, sigma_spec, seed, ci, r) for r in range(reps)]
        rhos = np.array([rho for _, rho in _run_reps("error", payloads, workers)])
        r_hat_sq = ctx.sigma**2 * (1.0 + rhos)
        rate = oracle_rate(ctx.theta, ctx.family, ctx.sigma, mode=ctx.mode).rate_sq
        ratio = r_hat_sq / rate if rate > 0 else np.full_like(r_hat_sq, math.inf)
        flag = int(highly_structured(rate, ctx.sigma, ctx.family.ambient_dim,
                                     float(config.get("structured_c", 1.0))))
        rows.append([ctx.family.ambient_dim, ctx.sigma, float(np.mean(r_hat_sq)),
                     float(np.quantile(ratio, 0.5)), float(np.quantile(ratio, 0.9)),
                     rate, flag, reps])
    return header, rows


def run_recovery_shell(config, seed, workers):
    reps = int(config.get("reps", 200))
    M_list = [float(m) for m in _grid(config, "M", [0.0])]
    calibrate = config.get("calibrate")
    header = ["n", "sigma", "M", "m_kind", "freq_lower", "freq_upper", "freq_shell",
              "se_shell", "delta", "rho_tau0_oracle", "rho_oracle", "reps"]
    rows = []
    for ci, (n, sigma_spec) in enumerate(_cells(config)):
        ctx = _Ctx(config, n, sigma_spec)
        delta = ctx.constants.delta
        rho_star = ctx.family.majorant(
            oracle_rate(ctx.theta, ctx.family, ctx.sigma, ctx.constants.tau0,
                        mode=ctx.mode).structure)
        rho_oracle = ctx.family.majorant(
            oracle_rate(ctx.theta, ctx.family, ctx.sigma, mode=ctx.mode).structure)
        upper_factor = ctx.constants.recovery_upper_factor

        def run(stream, n_reps):
            payloads = [(config, n, sigma_spec, seed, f"{stream}:{ci}", r)
                        for r in range(n_reps)]
            return np.array(_run_reps("recovery", payloads, workers))

        rhos = run("main", reps)

        def freqs(rho_values, M):
            lower = rho_values >= delta * rho_star - M
            upper = rho_values <= upper_factor * rho_oracle + M
            return lower, upper

        for M in M_list:
            lower, upper = freqs(rhos, M)
            shell = lower & upper
            mean, se = _mean_se(shell)
            rows.append([ctx.family.ambient_dim, ctx.sigma, M, "grid",
                         float(np.mean(lower)), float(np.mean(upper)), mean, se,
                         delta, rho_star, rho_oracle, reps])
        if calibrate:
            nominal = float(calibrate.get("nominal", 0.95))
            calib = run("calib", int(calibrate.get("reps", reps)))
            values = {M: list(freqs(calib, M)[0].astype(float)) for M in M_list}
            m_star = _calibrate_m(values, nominal)
            lower, upper = freqs(rhos, m_star)
            shell = lower & upper
            mean, se = _mean_se(shell)
            rows.append([ctx.family.ambient_dim, ctx.sigma, m_star, "calibrated",
                         float(np.mean(lower)), float(np.mean(upper)), mean, se,
                         delta, rho_star, rho_oracle, reps])
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


def run_experiment(config: dict, seed: int, workers: int = 1):
    name = config.get("experiment")
    if name not in RUNNERS:
        raise ConfigError(f"unknown experiment {name!r}; choose one of {EXPERIMENTS}")
    if "family" not in config or "signal" not in config:
        raise ConfigError("experiment config needs 'family' and 'signal' sections")
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
