import collections
import concurrent.futures
import json
import math
import os
import pathlib
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from projstruct import ddm, experiments, linalg
from projstruct.balls import contains, duplicate_gaussian, ebr_ball, quarter_ball, v_statistic
from projstruct.cli import main
from projstruct.errors import ConfigError
from projstruct.experiments import (
    build_family,
    build_signal,
    config_hash,
    derive_rng,
    point_estimate,
    render_csv,
    resolve_sigma,
    run_experiment,
)
from projstruct.oracle import FrameworkConstants
from projstruct.selection import select_penalized
from projstruct.structures import KnotFamily, RegressionFamily, SparseSet, SparsityFamily


BASE = {
    "family": {"kind": "sparsity", "n": 20},
    "signal": {"kind": "sparse", "s": 2, "amplitude": 8.0},
    "sigma": 1.0,
    "kappa": 1.0,
    "reps": 8,
    "constants": {"kappa": 1.0, "strict": False},
}


def test_contraction_schema_and_range():
    cfg = dict(BASE, experiment="contraction", grid={"M": [0.0, 4.0]},
               posterior_draws=50)
    header, rows = run_experiment(cfg, seed=1)
    assert header[:5] == ["n", "sigma", "M", "frac_exceed", "se"]
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row[3] <= 1.0


def test_estimation_risk_ma_vs_ms():
    cfg_ms = dict(BASE, experiment="estimation-risk", estimator="ms")
    cfg_ma = dict(BASE, experiment="estimation-risk", estimator="ma")
    _, rows_ms = run_experiment(cfg_ms, seed=5)
    _, rows_ma = run_experiment(cfg_ma, seed=5)
    assert rows_ms[0][2] > 0.0 and rows_ma[0][2] > 0.0
    assert rows_ms[0][2] != rows_ma[0][2]


def test_size_experiment_flags_highly_structured():
    cfg = dict(BASE, experiment="size",
               signal={"kind": "sparse", "s": 1, "amplitude": 5.0})
    header, rows = run_experiment(cfg, seed=2)
    flag_col = header.index("highly_structured")
    # rate ~ 2 log(en) ~ 8 > sqrt(20) ~ 4.5, so not highly structured at c=1
    assert rows[0][flag_col] == 0
    cfg2 = dict(cfg, structured_c=10.0)
    _, rows2 = run_experiment(cfg2, seed=2)
    assert rows2[0][flag_col] == 1


def test_quarter_ball_disabled_for_banding():
    cfg = {
        "experiment": "coverage-quarter",
        "family": {"kind": "banding", "p": 3},
        "signal": {"kind": "zero"},
        "sigma": 1.0, "kappa": 1.0, "reps": 2,
        "constants": {"kappa": 1.0, "strict": False},
    }
    with pytest.raises(ConfigError, match="banding"):
        run_experiment(cfg, seed=0)


def test_unknown_experiment_and_missing_sections():
    with pytest.raises(ConfigError):
        run_experiment(dict(BASE, experiment="frobnicate"), seed=0)
    with pytest.raises(ConfigError):
        run_experiment({"experiment": "size", "signal": {"kind": "zero"}}, seed=0)


def test_grid_iteration_covers_cells_in_order():
    cfg = dict(BASE, experiment="size", grid={"n": [10, 20], "sigma": [0.5, 1.0]},
               sigma=None)
    header, rows = run_experiment(cfg, seed=3)
    cells = [(r[0], r[1]) for r in rows]
    assert cells == [(10, 0.5), (10, 1.0), (20, 0.5), (20, 1.0)]


def test_signal_builders():
    fam = build_family({"kind": "smoothness", "n": 6})
    sob = build_signal({"kind": "sobolev", "beta": 1.0, "Q": 2.0}, fam, 1.0)
    idx = np.arange(1, 7, dtype=float)
    assert np.sum(idx**2 * sob**2) == pytest.approx(2.0)
    pw = build_signal({"kind": "piecewise", "breaks": [2], "levels": [1.0, -1.0]},
                      build_family({"kind": "jump", "n": 6}), 2.0)
    assert np.array_equal(pw, [2.0, 2.0, 2.0, -2.0, -2.0, -2.0])
    with pytest.raises(ConfigError):
        build_signal({"kind": "sparse", "s": 99}, fam, 1.0)
    with pytest.raises(ConfigError):
        build_signal({"kind": "nope"}, fam, 1.0)


def test_sigma_rules():
    assert resolve_sigma("1/sqrt(n)", 16) == 0.25
    assert resolve_sigma(2.0, 16) == 2.0
    with pytest.raises(ConfigError):
        resolve_sigma("bogus", 4)
    with pytest.raises(ConfigError):
        resolve_sigma(-1.0, 4)


def test_derived_rngs_are_stable_and_distinct():
    a = derive_rng(7, "rep", 0, 1).standard_normal(4)
    b = derive_rng(7, "rep", 0, 1).standard_normal(4)
    c = derive_rng(7, "rep", 0, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_render_csv_format():
    text = render_csv(["a", "b"], [[1, 2.5], [3, float("inf")], ['{"k": 1, "j": 2}', 0]],
                      seed=9, config={"x": 1})
    lines = text.split("\n")
    assert lines[0].startswith("# projstruct=") and "seed=9" in lines[0]
    assert "config_sha256=" + config_hash({"x": 1}) in lines[0]
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"
    assert lines[4] == '"{""k"": 1, ""j"": 2}",0'
    assert text.endswith("\n")


def test_workers_do_not_change_results():
    cfg = dict(BASE, experiment="recovery-shell", grid={"M": [0.0]})
    serial = run_experiment(cfg, seed=4, workers=1)
    parallel = run_experiment(cfg, seed=4, workers=2)
    assert serial == parallel


def test_quarter_ball_bernoulli_second_sample_path():
    theta = 0.4
    cfg = {
        "experiment": "coverage-quarter",
        "family": {"kind": "bicluster", "n1": 3, "n2": 3},
        "signal": {"kind": "constant", "value": theta},
        "noise": {"kind": "bernoulli-mean", "theta": [theta] * 9},
        "sigma": 1.0,
        "kappa": 0.5,
        "reps": 20,
        "mode": "exact",
        "duplication": "second-sample",
        "v_statistic": "bernoulli",
        "grid": {"M": [0.5]},
        "constants": {"kappa": 1.0, "strict": False, "M1_override": 3.0},
    }
    header, rows = run_experiment(cfg, seed=12)
    cov = rows[0][header.index("coverage")]
    assert 0.0 <= cov <= 1.0
    assert rows[0][header.index("mean_radius_sq")] >= 0.0


def test_contraction_fraction_monotone_in_M():
    cfg = dict(BASE, experiment="contraction", grid={"M": [0.0, 1.0, 4.0, 16.0]},
               posterior_draws=100)
    header, rows = run_experiment(cfg, seed=9)
    fracs = [r[header.index("frac_exceed")] for r in rows]
    assert fracs == sorted(fracs, reverse=True)


def test_grid_over_n_rejected_for_two_axis_families():
    cfg = {
        "experiment": "size",
        "family": {"kind": "bicluster", "n1": 3, "n2": 3},
        "signal": {"kind": "zero"}, "sigma": 1.0, "kappa": 1.0, "reps": 2,
        "grid": {"n": [4, 8]},
        "constants": {"kappa": 1.0, "strict": False},
    }
    with pytest.raises(ConfigError, match="bicluster"):
        run_experiment(cfg, seed=0)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class _DeadPool(_SerialPool):
    def map(self, fn, iterable, chunksize=1):
        raise BrokenProcessPool("a process in the pool was terminated abruptly")


def _fake_pool(monkeypatch, pool_class, cpus):
    """`_run_reps` imports the pool class from concurrent.futures when it
    starts workers, so the stand-in goes there."""
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: pool_class(started, max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return started


def test_worker_count_bounded_by_reps_and_cpus(monkeypatch):
    started = _fake_pool(monkeypatch, _SerialPool, cpus=4)
    cfg = dict(BASE, experiment="recovery-shell", grid={"M": [0.0]})
    assert run_experiment(cfg, seed=4, workers=64) == run_experiment(cfg, seed=4)
    assert started == [4]
    run_experiment(dict(cfg, reps=3), seed=4, workers=64)
    assert started == [4, 3]


def test_dead_worker_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    _fake_pool(monkeypatch, _DeadPool, cpus=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "size", "family": {"kind": "sparsity", "n": 6}, '
                   '"signal": {"kind": "zero"}, "sigma": 1.0, "reps": 4}', encoding="utf-8")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
                 "--workers", "2"])
    assert code == 3
    assert capsys.readouterr().err == (
        "worker error: a process in the pool was terminated abruptly\n")


def test_cli_import_leaves_multiprocessing_out():
    """The process pool is imported only when a run starts workers."""
    code = "import sys, projstruct.cli; sys.exit(int('multiprocessing' in sys.modules))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr or "projstruct.cli imported multiprocessing"


def _count_checks_and_projections(monkeypatch, family, y, structure):
    """Lists that grow by one entry for every finiteness check of an array
    (`as_vector`, `finite_energy`, in whichever module calls them) and for
    every projection of y onto structure (the stacked and the row kernel)."""
    checks, projected = [], []
    reals = {name: getattr(linalg, name) for name in ("as_vector", "finite_energy")}
    for module in [m for name, m in sys.modules.items() if name.startswith("projstruct")]:
        for name, real in reals.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, lambda v, _real=real, _name=name:
                                    checks.append(_name) or _real(v))
    stack, row_kernel = family._project_stack, family._project_rows

    def counting_stack(structures, point):
        if point.ndim == 1 and np.array_equal(point, y):
            projected.extend(s for s in structures if s == structure)
        return stack(structures, point)

    def counting_rows(s, rows):
        if s == structure and len(rows) == 1 and np.array_equal(rows[0], y):
            projected.append(s)
        return row_kernel(s, rows)

    monkeypatch.setattr(family, "_project_stack", counting_stack)
    monkeypatch.setattr(family, "_project_rows", counting_rows)
    return checks, projected


@pytest.mark.parametrize("family", [
    {"kind": "smoothness", "n": 128}, {"kind": "sparsity", "n": 20}, {"kind": "jump", "n": 12},
    {"kind": "knot", "n": 8}, {"kind": "banding", "p": 5}], ids=lambda f: f["kind"])
def test_contraction_replication_checks_and_projects_its_draw_once(monkeypatch, family):
    """One contraction replication checks its draw for finiteness once (the
    memo's one `finite_energy` pass) and projects it onto the selected
    structure once: the conditional sampler centers at the row the
    selector stored."""
    cfg = dict(BASE, experiment="contraction", family=family, signal={"kind": "zero"},
               posterior_draws=7)
    (_, ctx), = experiments._cells(cfg, seed=5)
    y = ctx.draw(derive_rng(5, "rep", 0, 0))
    i_hat, _ = select_penalized(y, ctx.family, ctx.sigma, ctx.kappa)
    want = experiments._rep_contraction(ctx, derive_rng(5, "rep", 0, 0), [0.0, 1.0])
    checks, projected = _count_checks_and_projections(monkeypatch, ctx.family, y, i_hat)
    got = experiments._rep_contraction(ctx, derive_rng(5, "rep", 0, 0), [0.0, 1.0])
    assert got == want
    assert checks == ["finite_energy"]
    assert projected == [i_hat]


QUARTER = {
    "experiment": "coverage-quarter",
    "family": {"kind": "sparsity", "n": 6},
    "signal": {"kind": "zero"},
    "sigma": 1.0, "kappa": 1.0, "reps": 4,
}


@pytest.mark.parametrize("change, match", [
    ({"noise": {"kind": "rademacher"}}, "gaussian duplication requires gaussian noise"),
    ({"duplication": "triplicate"}, "unknown duplication"),
    ({"family": {"kind": "banding", "p": 3}}, "banding"),
], ids=["rademacher-noise", "unknown-duplication", "banding"])
def test_config_checks_run_before_any_replication(monkeypatch, change, match):
    started = _fake_pool(monkeypatch, _SerialPool, cpus=2)
    with pytest.raises(ConfigError, match=match):
        run_experiment(dict(QUARTER, **change), seed=0, workers=2)
    assert started == []


def test_per_cell_work_runs_once_per_cell(monkeypatch):
    counts = collections.Counter()
    for name in ("build_family", "oracle_rate"):
        def counted(*args, _real=getattr(experiments, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    cfg = dict(BASE, experiment="contraction", grid={"n": [10, 20], "M": [0.0]},
               posterior_draws=20)
    _, rows = run_experiment(cfg, seed=1)
    assert [row[0] for row in rows] == [10, 20]
    assert counts == {"build_family": 2, "oracle_rate": 2}


@pytest.mark.parametrize("estimator", ["ma", "ms"])
def test_point_estimate_projections_do_not_outlive_their_observation(estimator):
    """Replications reuse one family instance; each Y gets its own
    projections, so a second Y gives what a fresh family gives."""
    rng = np.random.default_rng(11)
    design = rng.standard_normal((10, 5))
    for make, n in ((lambda: KnotFamily(8), 8), (lambda: RegressionFamily(design), 10)):
        shared = make()
        ys = [rng.standard_normal(n), rng.standard_normal(n)]
        got = [point_estimate(y, shared, 0.5, 1.0, estimator, "exact", "main") for y in ys]
        want = [point_estimate(y, make(), 0.5, 1.0, estimator, "exact", "main") for y in ys]
        for (theta, i_hat), (theta_ref, i_ref) in zip(got, want):
            assert i_hat == i_ref and theta.tobytes() == theta_ref.tobytes()
        assert got[0][0].tobytes() != got[1][0].tobytes()


def test_ma_on_sparsity_builds_no_posterior(monkeypatch):
    """The sparsity theta_tilde is Y times the O(n^2) inclusion marginals;
    no structure posterior is built, even where enumeration would fit."""
    def no_posterior(*args, **kwargs):
        raise AssertionError("a structure posterior was built")

    monkeypatch.setattr(ddm, "structure_posterior", no_posterior)
    y = np.random.default_rng(5).standard_normal(6) * 3.0
    family = SparsityFamily(6)
    theta, _ = point_estimate(y, family, 0.8, 1.0, "ma", "exact", "main")
    cfg = ddm.DdmConfig(kappa=1.0, sigma=0.8)
    assert theta.tobytes() == (y * ddm.sparsity_inclusion_probabilities(y, family, cfg)).tobytes()
    _, rows = run_experiment(dict(BASE, experiment="estimation-risk", estimator="ma"), seed=2)
    assert len(rows) == 1


SMALL = {
    "family": {"kind": "sparsity", "n": 6},
    "signal": {"kind": "sparse", "s": 1, "amplitude": 4.0},
    "sigma": 1.0, "kappa": 1.0, "reps": 4,
    "constants": {"kappa": 1.0, "strict": False},
}


@pytest.mark.parametrize("config, field", [
    ({"experiment": "size", "grid": [6]}, "grid"),
    ({"experiment": "rate-scaling", "grid": {"n": [6, "x"]}}, "grid.n"),
    ({"experiment": "rate-scaling", "grid": {"n": [6, 2.5]}}, "grid.n"),
    ({"experiment": "rate-scaling", "grid": {"n": [6, 0]}}, "grid.n"),
    ({"experiment": "coverage-ebr", "grid": {"t": [0.0, -1.0], "M": [0.0]}}, "grid.t"),
    ({"experiment": "coverage-ebr", "grid": {"t": [0.0], "M": [-1.0]}}, "grid.M"),
    ({"experiment": "coverage-ebr", "grid": {"t": [0.0], "M": ["x"]}}, "grid.M"),
    ({"experiment": "coverage-quarter", "grid": {"M": [-0.5]}}, "grid.M"),
    ({"experiment": "contraction", "grid": {"M": [float("inf")]}}, "grid.M"),
    ({"experiment": "recovery-shell", "grid": {"M": ["x"]}}, "grid.M"),
    ({"experiment": "size", "structured_c": 0}, "structured_c"),
    ({"experiment": "coverage-quarter", "structured_c": "x"}, "structured_c"),
    ({"experiment": "coverage-quarter", "duplication": "second-sample",
      "v_statistic": "zz"}, "v_statistic"),
], ids=["grid-not-an-object", "grid-n-string", "grid-n-fraction", "grid-n-0", "ebr-t-negative",
        "ebr-M-negative", "ebr-M-string", "quarter-M-negative", "contraction-M-inf",
        "recovery-M-string", "structured-c-0", "structured-c-string", "v-statistic-unknown"])
def test_simulate_fields_are_checked_before_any_replication(tmp_path, monkeypatch, capsys,
                                                            config, field):
    started = _fake_pool(monkeypatch, _SerialPool, cpus=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL, **config}), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and err.count("\n") == 1
    assert started == [] and not out.exists()


@pytest.mark.parametrize("name", ["contraction", "recovery-shell"])
def test_negative_shell_offsets_stay_allowed(name):
    cfg = dict(SMALL, experiment=name, reps=2, posterior_draws=5, grid={"M": [-1e9, -1.0]})
    _, rows = run_experiment(cfg, seed=3)
    assert [row[2] for row in rows] == [-1e9, -1.0]


# -- the coverage and contraction sweeps against their per-cell oracles -------

GOLDEN_SIMULATE = pathlib.Path(__file__).parent / "data" / "golden_simulate"


def _bits(cells) -> bytes:
    assert all(type(v) is float for cell in cells for v in cell)
    return np.array(cells, dtype=float).tobytes()


def _oracle_coverage_ebr(ctx, rng, t_list, M_list):
    """One `ebr_ball` and one `contains` per (t, M) cell."""
    y = ctx.draw(rng)
    theta_hat, i_hat = ctx.estimate(ctx.memo(y), rng)
    balls = [ebr_ball(y, ctx.family, ctx.sigma, ctx.constants, i_hat, theta_hat, t, M)
             for t in t_list for M in M_list]
    return [(float(contains(ball, ctx.theta)), ball.radius_sq) for ball in balls]


def _oracle_coverage_quarter(ctx, rng, M_list):
    """One `quarter_ball` and one `contains` per M."""
    if ctx.config.get("duplication", "gaussian") == "gaussian":
        y_prime, y_second = duplicate_gaussian(ctx.draw(rng), ctx.sigma, rng)
        sigma_eff, v_kind = ctx.sigma * math.sqrt(2.0), "unit-variance"
    else:
        y_second, y_prime = ctx.draw(rng), ctx.draw(rng)
        sigma_eff, v_kind = ctx.sigma, ctx.config.get("v_statistic", "unit-variance")
    theta_hat, _ = ctx.estimate(ctx.memo(y_second), rng, sigma_eff)
    v = v_statistic(v_kind, y_prime, y_second)
    balls = [quarter_ball(y_prime, theta_hat, sigma_eff, M, ctx.constants.M1, v)
             for M in M_list]
    return [(float(contains(ball, ctx.theta)), ball.radius_sq) for ball in balls]


def _oracle_contraction(ctx, rng, thresholds):
    """One mean of 0/1 flags per threshold."""
    y = ctx.draw(rng)
    cfg = ddm.DdmConfig(kappa=ctx.kappa, sigma=ctx.sigma, pen_variant=ctx.pen_variant)
    draws = int(ctx.config.get("posterior_draws", 200))
    samples = ddm.sample_conditional(y, ctx.family, ctx.select(ctx.memo(y), rng), cfg, rng,
                                     draws)
    errs = np.sum((samples - ctx.theta[None, :]) ** 2, axis=1)
    return [float(np.mean(errs >= t)) for t in thresholds]


def _grid_args(cfg, ctx):
    grid = cfg.get("grid", {})
    if cfg["experiment"] == "coverage-ebr":
        return grid.get("t", [0.0]), grid.get("M", [0.0])
    if cfg["experiment"] == "coverage-quarter":
        return (grid.get("M", [1.0]),)
    return ([ctx.constants.M0 * ctx.rate + M * ctx.sigma**2 for M in grid.get("M", [0.0])],)


@pytest.mark.parametrize("name,sweep,oracle", [
    ("coverage-ebr", experiments._rep_coverage_ebr, _oracle_coverage_ebr),
    ("coverage-ebr-knot-ma", experiments._rep_coverage_ebr, _oracle_coverage_ebr),
    ("coverage-quarter", experiments._rep_coverage_quarter, _oracle_coverage_quarter),
    ("coverage-quarter-bernoulli", experiments._rep_coverage_quarter,
     _oracle_coverage_quarter),
    ("contraction-grid", experiments._rep_contraction, _oracle_contraction),
])
def test_replication_sweeps_match_per_cell_oracles(name, sweep, oracle):
    """On the golden simulate configs, each replication's sweep has the
    bytes of the per-cell construction, hit flags and radii alike."""
    cfg = json.loads((GOLDEN_SIMULATE / f"{name}.json").read_text())
    for ci, ctx in experiments._cells(cfg, seed=3):
        extra = _grid_args(cfg, ctx)
        for rep in range(4):
            got = sweep(ctx, derive_rng(3, "rep", ci, rep), *extra)
            want = oracle(ctx, derive_rng(3, "rep", ci, rep), *extra)
            if sweep is experiments._rep_contraction:
                got, want = [(f,) for f in got], [(f,) for f in want]
            assert _bits(got) == _bits(want)


class _FixedCtx:
    """A replication context whose draws cycle through given vectors and
    whose estimate is a given (theta_hat, I_hat); its memo of a draw is the
    draw itself."""

    def __init__(self, family, theta, theta_hat, draws, constants, config=None, i_hat=None):
        self.family, self.sigma, self.constants = family, 1.0, constants
        self.theta, self.theta_hat = np.asarray(theta, float), np.asarray(theta_hat, float)
        self.i_hat, self.config = i_hat, config or {}
        self._draws = [np.asarray(d, float) for d in draws]
        self._next = 0

    def draw(self, rng):
        self._next += 1
        return self._draws[(self._next - 1) % len(self._draws)]

    def memo(self, y):
        return y

    def estimate(self, y, rng, sigma=None):
        return self.theta_hat, self.i_hat


def _compare(sweep, oracle, ctx, *grid):
    got = sweep(ctx, np.random.default_rng(0), *grid)
    assert _bits(got) == _bits(oracle(ctx, np.random.default_rng(0), *grid))
    return got


@pytest.mark.parametrize("step,want", [
    ([1.0, 0.0, 0.0, 0.0], [(1.0, 1.0), (1.0, 3.0), (1.0, 2.0), (1.0, 5.0)]),
    ([1.0, 1.0, 1.0, 0.0], [(0.0, 1.0), (1.0, 3.0), (0.0, 2.0), (1.0, 5.0)]),
])
def test_ebr_sweep_closed_ball_at_t_and_M_zero(step, want, monkeypatch):
    """sigma = M2 = 1 and rho(I_hat) = 0 give the radii (t + 1) + (t + 2) M:
    1, 3, 2 and 5 over t, M in {0, 1}.  theta sits at squared distance 1 or
    3 from theta_hat, exactly on a sphere; the closed ball holds it.  One
    replication takes the majorant once, not once per cell."""
    fam = SparsityFamily(4)
    theta_hat = np.array([0.5, -0.25, 0.0, 2.0])
    ctx = _FixedCtx(fam, theta_hat + np.array(step), theta_hat, [np.zeros(4)],
                    FrameworkConstants(M2_override=1.0), i_hat=SparseSet(()))
    assert _compare(experiments._rep_coverage_ebr, _oracle_coverage_ebr, ctx,
                    [0.0, 1.0], [0.0, 1.0]) == want
    majorant, calls = fam.majorant, []
    monkeypatch.setattr(fam, "majorant", lambda s: calls.append(s) or majorant(s))
    experiments._rep_coverage_ebr(ctx, np.random.default_rng(0), [0.0, 1.0, 2.0], [0.0, 1.0])
    assert calls == [SparseSet(())]


@pytest.mark.parametrize("config,draws,theta_hat,theta,M_list,want", [
    # ||Y' - theta_hat||^2 - V = 4 - 4 = 0; M = 1, M1 = 3: radius 2 * 2 * 2 = 8,
    # and theta at squared distance 8
    ({}, [np.zeros(4), np.ones(4)], np.zeros(4), [2.0, 2.0, 0.0, 0.0],
     [0.0, 1.0], [(0.0, 0.0), (1.0, 8.0)]),
    # the statistic is -4 and the margins too small: both radii clip to 0,
    # and theta = theta_hat lies in the closed ball of radius 0
    ({}, [np.zeros(4), np.zeros(4)], np.zeros(4), np.zeros(4),
     [0.0, 0.1], [(1.0, 0.0), (1.0, 0.0)]),
    ({}, [np.zeros(4), np.zeros(4)], np.zeros(4), [0.0, 0.0, 0.0, 1e-9],
     [0.0, 0.1], [(0.0, 0.0), (0.0, 0.0)]),
    # Bernoulli V = sum Y' - sum Y' Y = 2 - 1 = 1 and ||Y' - theta_hat||^2 = 1
    ({"v_statistic": "bernoulli"}, [[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
     np.full(4, 0.5), [2.5, 2.5, 0.5, 0.5], [0.0, 1.0], [(0.0, 0.0), (1.0, 8.0)]),
])
def test_quarter_sweep_second_sample_edges(config, draws, theta_hat, theta, M_list, want):
    ctx = _FixedCtx(SparsityFamily(4), theta, theta_hat, draws,
                    FrameworkConstants(M1_override=3.0),
                    config=dict(config, duplication="second-sample"))
    assert _compare(experiments._rep_coverage_quarter, _oracle_coverage_quarter, ctx,
                    M_list) == want


def test_exceedance_fractions_are_means_of_flags():
    """Ties count as exceeding; thresholds below or above every error, and
    +-inf, give 1 and 0 (or the share of infinite errors)."""
    errs = np.random.default_rng(5).exponential(2.0, 197)
    for e in (np.concatenate([errs, [1.0, 1.0, 3.0]]), np.full(7, 2.0),
              np.array([0.0, np.inf, 5.0, 0.0, 5.0, 5.0])):
        thresholds = [*e[:12], -np.inf, np.inf, -1.0, -0.0, 0.0, e.min(), e.max(),
                      np.nextafter(e.max(), -np.inf), np.nextafter(e.min(), np.inf),
                      np.median(e), 2.0 * e.max() + 1.0]
        got = experiments._exceedance(e, thresholds)
        want = [float(np.mean(e >= t)) for t in thresholds]
        assert _bits([got]) == _bits([want])
    assert experiments._exceedance(np.full(7, 2.0), [2.0, np.inf, -np.inf]) == [1.0, 0.0, 1.0]
