"""Command-line entry point.

    projstruct select   --config cfg.json --out result.json [--seed S]
    projstruct simulate --config cfg.json --out table.csv [--seed S] [--workers K]
    projstruct check    --config cfg.json --out report.csv [--seed S]

Configs are single JSON documents (schema in the README).  Outputs are
deterministic functions of (config, seed): CSV files carry a metadata comment
line with version, seed, and config hash; floats print with '.' decimal
separator via repr.  Exit codes: 0 success, 2 config error, 3 cap error or a
worker process that died.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .ddm import DdmConfig, StructureMeasure
from .errors import (CapExceededError, ConfigError, ExactModeUnavailableError,
                     UnsupportedFamilyError, WorkerError)
from .experiments import (
    build_family,
    build_noise,
    build_signal,
    config_hash,
    derive_rng,
    finite_data,
    integer,
    nonnegative_number,
    positive_number,
    render_csv,
    resolve_sigma,
    run_experiment,
    selector_options,
)
from .noise import check_a1, check_a2, check_a3, check_a4
from .selection import Projections, select_penalized
from .structures import Caps


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def _require(config: dict, field: str):
    if field not in config:
        raise ConfigError(f"config is missing required field {field!r}")
    return config[field]


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _load_vector_csv(path: str) -> np.ndarray:
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse data file {path}: {exc}") from exc
    return rows.reshape(-1)


def _observation(config: dict, family, sigma: float, seed: int) -> np.ndarray:
    data = _require(config, "data")
    if not isinstance(data, dict):
        raise ConfigError(f"data must be an object, got {data!r}")
    if "file" in data:
        y = _load_vector_csv(data["file"])
        if y.size != family.ambient_dim:
            raise ConfigError(
                f"data file has {y.size} values, family needs {family.ambient_dim}")
        if not np.all(np.isfinite(y)):
            raise ConfigError(f"data file {data['file']} holds non-finite values")
        return finite_data(y, f"data file {data['file']}")
    if "signal" in data:
        theta = build_signal(data["signal"], family, sigma)
        noise = build_noise(data.get("noise"), family.ambient_dim)
        rng = derive_rng(seed, "select-data")
        with np.errstate(over="ignore", invalid="ignore"):  # finite_data refuses inf and NaN
            y = theta + sigma * noise.sample(rng, family.ambient_dim)
        return finite_data(y, "the signal plus noise")
    raise ConfigError("data section needs either 'file' or 'signal'")


def cmd_select(config: dict, seed: int, out_path: str) -> None:
    family = build_family(_require(config, "family"))
    sigma = resolve_sigma(_require(config, "sigma"), family.ambient_dim)
    kappa, mode, pen_variant = selector_options(config, _require(config, "kappa"))
    top_k = integer(config.get("posterior_top_k", 5), "posterior_top_k", 0)
    y = _observation(config, family, sigma, seed)

    # P_I y for every structure that the selector, the posterior and
    # theta_tilde share; dropped when this call returns
    proj = Projections(y, family)
    rng = derive_rng(seed, "select")
    structure, objective = select_penalized(y, family, sigma, kappa, mode=mode,
                                            pen_variant=pen_variant, rng=rng, proj=proj)
    theta_check = proj.project(structure)

    cfg = DdmConfig(kappa=kappa, sigma=sigma, pen_variant=pen_variant)
    measure = StructureMeasure(proj, cfg)
    post, theta_tilde = measure.posterior, measure.theta_tilde

    doc = {
        "version": __version__,
        "seed": seed,
        "config_sha256": config_hash(config),
        "structure": family.structure_to_json(structure),
        "objective": objective,
        "theta_check": theta_check.tolist(),
        "theta_tilde": None if theta_tilde is None else theta_tilde.tolist(),
        "posterior": None if post is None else {
            "method": post.method,
            "top": post.export(top_k),
        },
    }
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _caps_from(config: dict) -> Caps | None:
    spec = config.get("caps")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"caps must be an object, got {spec!r}")
    limits = {field: spec.get(field) for field in ("max_size", "max_blocks")}
    limits["max_count"] = spec.get("max_count", 200_000)
    for field, value in limits.items():
        if value is not None:
            integer(value, f"caps.{field}", 0)
    return Caps(**limits)


def _reps(config: dict) -> int:
    # the A1 jackknife leaves one draw out, so it needs two
    return integer(config.get("reps", 10_000), "reps", 2)


def cmd_check(config: dict, seed: int):
    """Header and rows of the requested condition check.  Every config value
    is checked before any draw or enumeration starts."""
    which = _require(config, "check")
    caps = _caps_from(config)
    rng = derive_rng(seed, "check", which)
    if which == "a1":
        family = build_family(_require(config, "family"))
        noise = build_noise(config.get("noise"), family.ambient_dim)
        rows = check_a1(family, noise, positive_number(_require(config, "alpha"), "alpha"),
                        _reps(config), rng, caps=caps,
                        se_mult=nonnegative_number(config.get("se_mult", 2.0), "se_mult"))
        header = ["structure", "estimate", "bound", "std_err", "n_saturated", "pass"]
        out = [[json.dumps(family.structure_to_json(r.structure), sort_keys=True),
                r.estimate, r.bound, r.std_err, r.n_saturated, int(r.passed)]
               for r in rows]
    elif which == "a2":
        family = build_family(_require(config, "family"))
        nu = positive_number(_require(config, "nu"), "nu")
        rep = check_a2(family, nu, caps)
        header = ["family", "nu", "total", "bound", "pass", "count", "min_rho_minus_dim"]
        out = [[family.tag, nu, rep.total,
                "" if rep.bound is None else rep.bound, int(rep.passed), rep.count,
                rep.min_rho_minus_dim]]
    elif which == "a3":
        family = build_family(_require(config, "family"))
        header = ["family", "status", "pairs", "max_containment_residual",
                  "max_rho_excess", "pass"]
        try:
            rep = check_a3(family, integer(config.get("pairs", 100), "pairs", 1), rng, caps)
            out = [[family.tag, "checked", rep.pairs_checked,
                    rep.max_containment_residual, rep.max_rho_excess, int(rep.passed)]]
        except UnsupportedFamilyError:
            out = [[family.tag, "unsupported", 0, "", "", 0]]
    elif which == "a4":
        n = integer(_require(config, "n"), "n", 1)
        noise = build_noise(config.get("noise"), n)
        if not noise.unit_variance:
            raise ConfigError(f"check a4 needs unit-variance noise (gaussian, rademacher or "
                              f"ar1), got {noise.kind}")
        M_grid = _require(config, "M")
        if not isinstance(M_grid, list):
            raise ConfigError(f"M must be a list of numbers, got {M_grid!r}")
        rows = check_a4(noise, [nonnegative_number(m, "M") for m in M_grid],
                        _reps(config), n, rng)
        header = ["M", "psi1", "psi2"]
        out = [[r.M, r.psi1, r.psi2] for r in rows]
    else:
        raise ConfigError(f"unknown check {which!r}; choose a1, a2, a3 or a4")
    return header, out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projstruct",
        description="Penalized structure selection, diagnostics and experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("select", "run the penalized selector on one data set"),
                       ("simulate", "run a Monte Carlo experiment grid"),
                       ("check", "verify the A1-A4 conditions")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--workers", type=int, default=1,
                       help="replication worker processes (simulate only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "select":
            cmd_select(config, args.seed, args.out)
        else:
            if args.command == "simulate":
                header, rows = run_experiment(config, args.seed, max(1, args.workers))
            else:
                header, rows = cmd_check(config, args.seed)
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(render_csv(header, rows, args.seed, config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, ExactModeUnavailableError) as exc:
        print(f"cap error: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
