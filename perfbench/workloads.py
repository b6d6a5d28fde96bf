"""The two workloads: CLI calls, their generated inputs and their checks.

Every input derives from the workload seed.  For call `c` of workload `w`
the generator is numpy's default_rng seeded with the first 8 bytes
(big-endian) of sha256("<w>:<seed>:<c>"); its first draw is the call's
`--seed`, and the data and the free config values follow from the same
stream.  The exceptions are `jump-step` and `bicluster`, whose inputs are
fixed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass
class Call:
    """One operation: a CLI call and the check of its output."""

    name: str
    command: str  # select | simulate | check
    config: dict
    seed: int
    check: Callable[[str, int], list]  # (output path, seed) -> problems
    data: np.ndarray | None = None  # written one value per line to <name>.csv
    reps: int = 0  # Monte Carlo replications the call runs (simulate)

    @property
    def out_name(self) -> str:
        return f"{self.name}.{'json' if self.command == 'select' else 'csv'}"


def call_rng(workload: str, seed: int, call: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{workload}:{seed}:{call}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def build(workload: str, seed: int) -> list[Call]:
    calls = []
    for group in WORKLOADS[workload]:
        command, makers = GROUPS[group]
        for name, make in makers:
            rng = call_rng(workload, seed, name)
            spec = dict(seed=int(rng.integers(0, 2**31)))
            spec.update(make(rng))
            if spec.get("data") is not None:
                spec["config"]["data"] = {"file": f"{name}.csv"}
            calls.append(Call(name, command, **spec))
    return calls


# ---------------------------------------------------------------------------
# select-exhaustive: brute force over knot and regression, heuristic
# bicluster and clustering searches
# ---------------------------------------------------------------------------

KAPPA = 1.0


def _select_config(family, sigma, **extra):
    return dict({"family": family, "sigma": sigma, "kappa": KAPPA, "posterior_top_k": 5},
                **extra)


def _checked(check, *args):
    """Check function for a select call: load the JSON, then check it."""
    def run(path, seed):
        doc = checks.load_json(path)
        problems = [] if doc["seed"] == seed else [f"seed field {doc['seed']} != {seed}"]
        return problems + check(doc, *args)
    return run


def _enumerated(enumerate_fn, *args):
    """check_enumerated against a reference enumeration made when the check
    runs, so that it is not held in memory while the program is timed."""
    return lambda doc, key_of: checks.check_enumerated(doc, enumerate_fn(*args), key_of)


def _knot(rng):
    n, sigma = 13, 0.5
    t = np.arange(n, dtype=float)
    kink = int(rng.integers(3, n - 3))
    theta = rng.normal(0.0, 1.0) + rng.normal(0.0, 0.3) * t \
        + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0) * np.maximum(t - kink, 0.0)
    y = theta + sigma * rng.standard_normal(n)
    return dict(config=_select_config({"kind": "knot", "n": n}, sigma), data=y,
                check=_checked(_enumerated(checks.enumerate_knot, y, sigma, KAPPA),
                               checks.knot_key))


def _regression(rng):
    n_obs, p, sigma = 40, 20, 1.0
    design_seed = int(rng.integers(0, 2**31))
    design = checks.regression_design(design_seed, n_obs, p)
    beta = np.zeros(p)
    beta[rng.choice(p, 3, replace=False)] = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.5, 1.5, 3)
    y = design @ beta + sigma * rng.standard_normal(n_obs)
    family = {"kind": "regression", "n_obs": n_obs, "p": p, "design_seed": design_seed}
    return dict(config=_select_config(family, sigma), data=y,
                check=_checked(_enumerated(checks.enumerate_regression, y, design, sigma, KAPPA),
                               checks.regression_key))


# The alternating search sweeps until no move helps, so the bicluster call's
# time depends on its input: 5.6 s to 8.5 s on four workload seeds, a spread
# larger than that of the rest of the round together.  Its input and --seed
# are therefore fixed, and the run-to-run spread measures the host and the
# program rather than the draw.
BICLUSTER_SEED = 20261018


def _bicluster(rng):
    n1, n2, sigma = 8, 8, 1.0
    fixed = np.random.default_rng(BICLUSTER_SEED)
    rows, cols = fixed.permutation(n1) % 2, fixed.permutation(n2) % 2
    mat = fixed.uniform(2.5, 3.5) * (rows[:, None] == cols[None, :]) \
        + sigma * fixed.standard_normal((n1, n2))
    y = mat.reshape(-1)
    return dict(config=_select_config({"kind": "bicluster", "n1": n1, "n2": n2}, sigma,
                                      mode="heuristic"), data=y, seed=BICLUSTER_SEED,
                check=_checked(checks.check_bicluster, y, n1, n2, sigma, KAPPA))


def _clustering(rng):
    n, sigma = 8, 0.5
    centers = np.cumsum(rng.uniform(3.0, 5.0, 3))
    y = centers[rng.permutation(np.arange(n) % 3)] + sigma * rng.standard_normal(n)
    return dict(config=_select_config({"kind": "clustering", "n": n}, sigma, mode="heuristic"),
                data=y, check=_checked(checks.check_clustering, y, sigma, KAPPA))


# ---------------------------------------------------------------------------
# select-sequence: closed-form and DP selectors, log-ESP marginals
# ---------------------------------------------------------------------------

# jump-step selects breaks, and today `projstruct select` fails on every such
# input: the break positions are numpy integers, which json.dump refuses.
# Its input does not depend on the workload seed, so it fails in every run
# and the share of failed operations is the same in every run.
JUMP_STEP_SEED = 20261017


def _all_of(*fns):
    return lambda path, seed: [msg for fn in fns for msg in fn(path, seed)]


def _sparsity_600(rng):
    n, sigma = 600, 1.0
    theta = np.zeros(n)
    support = rng.choice(n, int(rng.integers(10, 21)), replace=False)
    theta[support] = rng.choice([-1.0, 1.0], support.size) * rng.uniform(3.0, 6.0, support.size)
    y = theta + sigma * rng.standard_normal(n)

    def average(doc):
        return checks.check_sparsity_average(doc, y, checks.sparsity_mean_size(y, sigma, KAPPA))
    return dict(config=_select_config({"kind": "sparsity", "n": n}, sigma), data=y,
                check=_all_of(_checked(checks.check_sparsity_argmin, y, sigma, KAPPA),
                              _checked(average)))


def _sparsity_12(rng):
    n, sigma = 12, 1.0
    theta = np.zeros(n)
    theta[rng.choice(n, 2, replace=False)] = rng.uniform(2.0, 4.0, 2)
    y = theta + sigma * rng.standard_normal(n)
    return dict(config=_select_config({"kind": "sparsity", "n": n}, sigma), data=y,
                check=_all_of(_checked(checks.check_sparsity_argmin, y, sigma, KAPPA),
                              _checked(_enumerated(checks.enumerate_sparsity, y, sigma, KAPPA),
                                       checks.sparse_key)))


def _jump_flat(rng):
    # Noise far below sigma: one break costs about 29 sigma^2 of penalty at
    # n=512, more than the whole sum of squares, so no seed selects a break.
    n, sigma = 512, 1.0
    y = rng.uniform(-2.0, 2.0) + 0.05 * sigma * rng.standard_normal(n)
    return dict(config=_select_config({"kind": "jump", "n": n}, sigma), data=y,
                check=_checked(checks.check_jump, y, sigma, KAPPA))


def _jump_step(rng):
    n, sigma = 512, 1.0
    fixed = np.random.default_rng(JUMP_STEP_SEED)
    y = np.repeat([0.0, 3.0, 1.0], [170, 171, 171]) + sigma * fixed.standard_normal(n)
    return dict(config=_select_config({"kind": "jump", "n": n}, sigma), data=y,
                seed=JUMP_STEP_SEED, check=_checked(checks.check_jump, y, sigma, KAPPA))


def _smoothness(rng):
    n, sigma = 4096, 0.05
    y = rng.uniform(1.0, 2.0) / np.arange(1, n + 1) + sigma * rng.standard_normal(n)
    return dict(config=_select_config({"kind": "smoothness", "n": n}, sigma), data=y,
                check=_checked(checks.check_smoothness, y, sigma, KAPPA))


def _leveled(rng):
    n_levels, sigma = 10, 1.0
    theta = np.zeros(2**n_levels - 1)
    hits = rng.choice(theta.size, 30, replace=False)
    theta[hits] = rng.choice([-1.0, 1.0], 30) * rng.uniform(3.0, 6.0, 30)
    y = theta + sigma * rng.standard_normal(theta.size)
    return dict(config=_select_config({"kind": "leveled", "n_levels": n_levels}, sigma),
                data=y, check=_checked(checks.check_leveled, y, n_levels, sigma, KAPPA))


def _banding(rng):
    p, sigma = 96, 1.0
    dist = np.abs(np.arange(p)[:, None] - np.arange(p)[None, :])
    band = int(rng.integers(2, 7))
    mat = np.where(dist <= band, 4.0 * rng.uniform(0.5, 1.0) ** dist, 0.0)
    y = (mat + sigma * rng.standard_normal((p, p))).reshape(-1)
    return dict(config=_select_config({"kind": "banding", "p": p}, sigma), data=y,
                check=_checked(checks.check_banding, y, p, sigma, KAPPA))


# ---------------------------------------------------------------------------
# simulate-mc: all seven experiments with cheap selectors
# ---------------------------------------------------------------------------

PRACTICAL = {"kappa": KAPPA, "strict": False}
M_GRID = [0.0, 1.0, 2.0, 4.0, 8.0]


def _sobolev(rng, n):
    Q = float(rng.uniform(0.5, 2.0))
    return {"kind": "sobolev", "beta": 1.0, "Q": Q}, checks.sobolev_signal(n, 1.0, Q)


def _sparse(rng, n, sigma, lo, hi):
    s, amp = int(rng.integers(4, 7)), float(rng.uniform(lo, hi))
    return {"kind": "sparse", "s": s, "amplitude": amp}, checks.sparse_signal(n, s, amp, sigma)


def _checked_csv(check, *args):
    return lambda path, seed: check(path, seed, *args)


def _simulate(cfg, check, *args):
    """A simulate call, checked by check(path, cfg, seed, *args).  It runs
    `reps` replications per grid cell, plus the calibration stream's."""
    cells = len(cfg.get("grid", {}).get("n", [None]))
    reps = cells * (cfg["reps"] + cfg.get("calibrate", {}).get("reps", 0))
    return dict(config=cfg, reps=reps,
                check=lambda path, seed: check(path, cfg, seed, *args))


# Contraction counts the posterior draws with ||draw - theta||^2 >= M0*rate
# + M*sigma^2.  The workload sets M0 = 1e9 and turns each wanted threshold T
# into M = (T - M0*r)/sigma^2, with r the benchmark's closed-form oracle
# rate.  When the program's rate equals r the thresholds are: 0, which every
# draw exceeds; r + m*sigma^2 for m in M_GRID, the usual curve with M0 = 1;
# and 100 (||theta||^2 + n sigma^2), which no draw reaches.  A rate off by a
# relative 1e-4 moves every threshold by 1e5 r, so the first or the last
# point gives it away.
CONTRACTION_M0 = 1e9


def _contraction(family, signal, theta, sigma, rate, reps):
    far = 100.0 * (float(theta @ theta) + theta.size * sigma**2)
    targets = [0.0] + [rate + m * sigma**2 for m in M_GRID] + [far]
    grid = [(t - CONTRACTION_M0 * rate) / sigma**2 for t in targets]
    cfg = {"experiment": "contraction", "family": family, "signal": signal, "sigma": sigma,
           "kappa": KAPPA, "reps": reps, "posterior_draws": 200, "grid": {"M": grid},
           "constants": dict(PRACTICAL, M0_override=CONTRACTION_M0)}
    return _simulate(cfg, checks.check_contraction)


def _contraction_smooth(rng):
    signal, theta = _sobolev(rng, 128)
    return _contraction({"kind": "smoothness", "n": 128}, signal, theta, 0.1,
                        checks.oracle_smoothness(theta, 0.1)[0], 150)


def _contraction_sparse(rng):
    signal, theta = _sparse(rng, 100, 1.0, 8.0, 12.0)
    return _contraction({"kind": "sparsity", "n": 100}, signal, theta, 1.0,
                        checks.oracle_sparse(theta, 1.0)[0], 100)


def _coverage_ebr(rng):
    signal, theta = _sobolev(rng, 128)
    cfg = {"experiment": "coverage-ebr", "family": {"kind": "smoothness", "n": 128},
           "signal": signal, "sigma": 0.1, "kappa": KAPPA, "reps": 200,
           "grid": {"t": [0.0, 1.0], "M": M_GRID + [16.0]},
           "calibrate": {"nominal": 0.9, "reps": 200},
           "constants": dict(PRACTICAL, M2_override=1.0)}
    return _simulate(cfg, checks.check_coverage_ebr, theta, 0.1)


def _coverage_quarter(rng):
    signal, theta = _sparse(rng, 100, 1.0, 8.0, 12.0)
    cfg = {"experiment": "coverage-quarter", "family": {"kind": "sparsity", "n": 100},
           "signal": signal, "sigma": 1.0, "kappa": KAPPA, "reps": 100,
           "grid": {"M": [0.0, 0.1, 0.5, 1.0, 2.0]}, "duplication": "gaussian",
           "calibrate": {"nominal": 0.9, "reps": 100}, "constants": PRACTICAL}
    return _simulate(cfg, checks.check_coverage_quarter, theta, 1.0)


def _recovery_shell(rng):
    signal, theta = _sparse(rng, 100, 1.0, 12.0, 14.0)
    cfg = {"experiment": "recovery-shell", "family": {"kind": "sparsity", "n": 100},
           "signal": signal, "sigma": 1.0, "kappa": KAPPA, "reps": 100,
           "grid": {"M": [0.0, 1.0, 2.0, 4.0]}, "constants": PRACTICAL}
    return _simulate(cfg, checks.check_recovery, theta, 1.0)


def _rate_scaling(rng):
    # Q = 1000 keeps the finite-sample slope inside the -2/3 +- 0.15 check on
    # every seed (mean -0.72, s.d. 0.011 over 30 seeds).  At Q = 1 and
    # n <= 512 it averages about -0.79, outside the band on many seeds.
    n_grid = [64, 256, 1024, 4096]
    cfg = {"experiment": "rate-scaling", "family": {"kind": "smoothness"},
           "signal": {"kind": "sobolev", "beta": 1.0, "Q": 1000.0}, "sigma": "1/sqrt(n)",
           "kappa": KAPPA, "reps": 30, "grid": {"n": n_grid}}
    return _simulate(cfg, checks.check_rate_scaling)


def _size(rng):
    breaks = sorted(int(b) for b in rng.choice(np.arange(5, 58), 2, replace=False))
    cfg = {"experiment": "size", "family": {"kind": "jump", "n": 64},
           "signal": {"kind": "piecewise", "breaks": breaks,
                      "levels": [float(v) for v in rng.uniform(-3.0, 3.0, 3)]},
           "sigma": 1.0, "kappa": KAPPA, "reps": 60, "constants": PRACTICAL}
    return _simulate(cfg, checks.check_size, 1.0)


def _estimation_risk(rng):
    signal, theta = _sparse(rng, 100, 1.0, 8.0, 12.0)
    cfg = {"experiment": "estimation-risk", "family": {"kind": "sparsity", "n": 100},
           "signal": signal, "sigma": 1.0, "kappa": KAPPA, "reps": 24, "estimator": "ma"}
    return _simulate(cfg, checks.check_estimation_risk, theta, 1.0)


# ---------------------------------------------------------------------------
# check-conditions: the A1-A4 checkers
# ---------------------------------------------------------------------------

# alpha = 0.05 < 1/8 gives exp(alpha ||P_I xi||^2) a finite fourth moment
# under Gaussian noise, so the jackknife standard error is meaningful.
A1_GAUSSIAN_ALPHA = 0.05


def _a1_gaussian(kind, n, dims):
    def make(rng):
        exact = checks.a1_gaussian_exact(dims(n), A1_GAUSSIAN_ALPHA)
        key = checks.knot_key if kind == "knot" else checks.sparse_key
        cfg = {"check": "a1", "family": {"kind": kind, "n": n}, "noise": {"kind": "gaussian"},
               "alpha": A1_GAUSSIAN_ALPHA, "reps": 20000}
        return dict(config=cfg, check=_checked_csv(checks.check_a1, exact, key))
    return make


def _a1_bicluster(rng):
    theta = [float(v) for v in rng.uniform(0.2, 0.8, 9)]
    cfg = {"check": "a1", "family": {"kind": "bicluster", "n1": 3, "n2": 3},
           "noise": {"kind": "bernoulli-mean", "theta": theta}, "alpha": 0.2, "reps": 20000,
           "caps": {"max_blocks": 3}}
    exact = checks.a1_bernoulli_exact(3, 3, theta, cfg["alpha"])
    return dict(config=cfg, check=_checked_csv(checks.check_a1, exact, checks.bicluster_key))


def _a1_ar1(rng):
    # 2 alpha lambda_max(Sigma) <= 2 * 0.02 * (1 + 0.6) / (1 - 0.6) = 0.16
    n, phi, alpha = 24, float(rng.uniform(0.3, 0.6)), 0.02
    cfg = {"check": "a1", "family": {"kind": "smoothness", "n": n},
           "noise": {"kind": "ar1", "coefficient": phi}, "alpha": alpha, "reps": 10000}
    exact = checks.a1_ar1_exact(n, phi, alpha)
    return dict(config=cfg, check=_checked_csv(checks.check_a1, exact, lambda d: (d["level"],)))


def _a2(kind, size_key, size, reference):
    def make(rng):
        nu = float(rng.uniform(1.2, 2.0))
        cfg = {"check": "a2", "family": {"kind": kind, size_key: size}, "nu": nu,
               "caps": {"max_count": 300000}}
        return dict(config=cfg, check=_checked_csv(checks.check_a2, kind, nu,
                                                 *reference(size, nu)))
    return make


def _a3(kind):
    def make(rng):
        cfg = {"check": "a3", "family": {"kind": kind, "n": 12}, "pairs": 300}
        return dict(config=cfg, check=_checked_csv(checks.check_a3, kind, cfg["pairs"]))
    return make


def _a4(rng):
    cfg = {"check": "a4", "noise": {"kind": "gaussian"}, "M": [0.25, 0.5, 1.0, 2.0, 4.0],
           "n": 64, "reps": 100000}
    return dict(config=cfg, check=_checked_csv(checks.check_a4, cfg["M"], cfg["n"], cfg["reps"]))


# groups of calls: name -> (command, [(call, input maker)])
GROUPS = {
    "select-exhaustive": ("select", [
        ("knot", _knot), ("regression", _regression), ("bicluster", _bicluster),
        ("clustering", _clustering)]),
    "select-sequence": ("select", [
        ("sparsity-600", _sparsity_600), ("sparsity-12", _sparsity_12),
        ("jump-flat", _jump_flat), ("jump-step", _jump_step), ("smoothness", _smoothness),
        ("leveled", _leveled), ("banding", _banding)]),
    "simulate-mc": ("simulate", [
        ("contraction-smooth", _contraction_smooth),
        ("contraction-sparse", _contraction_sparse), ("coverage-ebr", _coverage_ebr),
        ("coverage-quarter", _coverage_quarter), ("recovery-shell", _recovery_shell),
        ("rate-scaling", _rate_scaling), ("size", _size),
        ("estimation-risk", _estimation_risk)]),
    "check-conditions": ("check", [
        ("a1-knot", _a1_gaussian("knot", 10, checks.a1_knot_dims)),
        ("a1-sparsity", _a1_gaussian("sparsity", 10, checks.a1_sparsity_dims)),
        ("a1-bicluster", _a1_bicluster), ("a1-ar1", _a1_ar1),
        ("a2-sparsity", _a2("sparsity", "n", 18, checks.a2_sparsity)),
        ("a2-leveled", _a2("leveled", "n_levels", 4, checks.a2_leveled)),
        ("a3-jump", _a3("jump")), ("a3-knot", _a3("knot")), ("a4-gaussian", _a4)]),
}


# Each workload pairs a group that exercises a planned optimisation with one
# that bypasses it: linalg runs only in exhaustive-check, and the log-ESP
# code, segment_dp and the experiment harness only in sequence-simulate.
# Two workloads rather than four leave each run time to average out the
# host's speed drift (see README.md).
WORKLOADS = {
    "exhaustive-check": ("select-exhaustive", "check-conditions"),
    "sequence-simulate": ("select-sequence", "simulate-mc"),
}


def all_call_names() -> list[str]:
    return [name for _, makers in GROUPS.values() for name, _ in makers]
