import json
import logging
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from projstruct import cli, ddm, experiments, linalg, noise, selection
from projstruct.cli import main
from projstruct.structures import Caps

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN_SIMULATE = sorted((DATA_DIR / "golden_simulate").glob("*.json"))
# (command, config): `select` writes `<name>.out.json`, `check` writes `<name>.csv`
GOLDEN_SELECT_CHECK = [
    ("select", p) for p in sorted((DATA_DIR / "golden_select").glob("*.json"))
    if not p.name.endswith(".out.json")
] + [("check", p) for p in sorted((DATA_DIR / "golden_check").glob("*.json"))]


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "projstruct.cli", *args],
                          capture_output=True, text=True)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SELECT_CONFIG = {
    "family": {"kind": "smoothness", "n": 8},
    "sigma": 0.5,
    "kappa": 1.0,
    "data": {"signal": {"kind": "geometric", "ratio": 0.5, "scale": 4.0},
             "noise": {"kind": "gaussian"}},
    "posterior_top_k": 3,
}


def test_select_reproduces_golden_file(tmp_path):
    cfg = write_config(tmp_path, SELECT_CONFIG)
    out = tmp_path / "select.json"
    r = run_cli("select", "--config", cfg, "--out", str(out), "--seed", "42")
    assert r.returncode == 0, r.stderr
    golden = (DATA_DIR / "golden_select_smoothness.json").read_bytes()
    assert out.read_bytes() == golden


def test_select_missing_sigma_is_config_error(tmp_path):
    bad = {k: v for k, v in SELECT_CONFIG.items() if k != "sigma"}
    cfg = write_config(tmp_path, bad)
    r = run_cli("select", "--config", cfg, "--out", str(tmp_path / "x.json"))
    assert r.returncode == 2
    assert "sigma" in r.stderr


def test_select_seed_repetition_identical(tmp_path):
    cfg = write_config(tmp_path, SELECT_CONFIG)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        r = run_cli("select", "--config", cfg, "--out", str(out), "--seed", "7")
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_select_from_data_file(tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("\n".join(str(v) for v in [5.0, 4.0, 0.1, 0.05]) + "\n")
    cfg = write_config(tmp_path, {
        "family": {"kind": "smoothness", "n": 4}, "sigma": 1.0, "kappa": 1.0,
        "data": {"file": str(data)}})
    out = tmp_path / "sel.json"
    r = run_cli("select", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["structure"] == {"family": "smoothness", "data": {"level": 2}}
    assert doc["theta_check"][:2] == [5.0, 4.0] and doc["theta_check"][2:] == [0.0, 0.0]


def test_select_sparsity_large_uses_symmetric_polynomial(tmp_path):
    cfg = write_config(tmp_path, {
        "family": {"kind": "sparsity", "n": 60}, "sigma": 1.0, "kappa": 1.0,
        "data": {"signal": {"kind": "sparse", "s": 3, "amplitude": 8.0},
                 "noise": {"kind": "gaussian"}}})
    out = tmp_path / "sel.json"
    r = run_cli("select", "--config", cfg, "--out", str(out), "--seed", "5")
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["posterior"]["method"] == "symmetric-polynomial"
    assert len(doc["structure"]["data"]["indices"]) == 3
    assert doc["theta_tilde"] is not None


@pytest.mark.parametrize("n,method", [(15, "enumeration"), (16, "symmetric-polynomial")])
def test_select_sparsity_posterior_switches_where_enumeration_exceeds_cap(tmp_path, n,
                                                                          method):
    # 2^15 supports fit the 50,000 posterior cap; 2^16 do not
    cfg = write_config(tmp_path, {
        "family": {"kind": "sparsity", "n": n}, "sigma": 1.0, "kappa": 1.0,
        "data": {"signal": {"kind": "sparse", "s": 2, "amplitude": 6.0},
                 "noise": {"kind": "gaussian"}}})
    out = tmp_path / "sel.json"
    assert main(["select", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    assert json.loads(out.read_text())["posterior"]["method"] == method


def test_check_a2_cap_error_past_the_float_range(tmp_path, capsys):
    cfg = write_config(tmp_path, {"check": "a2", "family": {"kind": "jump", "n": 1100},
                                  "nu": 1.0})
    out = tmp_path / "a2.csv"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cap error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("max_blocks", [-1, 2.5])
def test_check_rejects_bad_max_blocks(tmp_path, capsys, max_blocks):
    cfg = write_config(tmp_path, {"check": "a2", "family": {"kind": "clustering", "n": 5},
                                  "nu": 1.0, "caps": {"max_blocks": max_blocks}})
    out = tmp_path / "a2.csv"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "max_blocks" in err
    assert not out.exists()


A1_CONFIG = {"check": "a1", "family": {"kind": "sparsity", "n": 3},
             "noise": {"kind": "gaussian"}, "alpha": 0.2, "reps": 100}
A2_CONFIG = {"check": "a2", "family": {"kind": "sparsity", "n": 4}, "nu": 1.5}
A3_CONFIG = {"check": "a3", "family": {"kind": "jump", "n": 5}, "pairs": 10}
A4_CONFIG = {"check": "a4", "noise": {"kind": "gaussian"}, "M": [1.0], "n": 4, "reps": 100}


@pytest.mark.parametrize("config,field", [
    ({**A2_CONFIG, "nu": -200}, "nu"),
    ({**A2_CONFIG, "nu": float("nan")}, "nu"),
    ({**A2_CONFIG, "nu": "x"}, "nu"),
    ({**A2_CONFIG, "caps": {"max_count": "z"}}, "caps.max_count"),
    ({**A2_CONFIG, "caps": {"max_count": -1}}, "caps.max_count"),
    ({**A2_CONFIG, "caps": {"max_size": 2.5}}, "caps.max_size"),
    ({**A2_CONFIG, "caps": [1]}, "caps"),
    ({**A1_CONFIG, "alpha": "x"}, "alpha"),
    ({**A1_CONFIG, "alpha": 0}, "alpha"),
    ({**A1_CONFIG, "reps": 1}, "reps"),
    ({**A1_CONFIG, "reps": 2.5}, "reps"),
    ({**A1_CONFIG, "se_mult": "x"}, "se_mult"),
    ({**A1_CONFIG, "se_mult": -1.0}, "se_mult"),
    ({**A3_CONFIG, "pairs": "x"}, "pairs"),
    ({**A3_CONFIG, "pairs": 0}, "pairs"),
    ({**A4_CONFIG, "reps": 0}, "reps"),
    ({**A4_CONFIG, "n": 0}, "n"),
    ({**A4_CONFIG, "M": [1.0, -1.0]}, "M"),
    ({**A4_CONFIG, "M": 1.0}, "M"),
], ids=["nu-negative", "nu-nan", "nu-not-a-number", "max-count-not-a-number",
        "max-count-negative", "max-size-fraction", "caps-not-an-object", "alpha-not-a-number",
        "alpha-0", "reps-1", "reps-fraction", "se-mult-not-a-number", "se-mult-negative",
        "pairs-not-a-number", "pairs-0", "a4-reps-0", "a4-n-0", "a4-M-negative",
        "a4-M-not-a-list"])
def test_check_bad_input_is_one_line_config_error(tmp_path, monkeypatch, capsys, config,
                                                  field):
    def no_work(*args, **kwargs):
        raise AssertionError("the check started")

    for name in ("check_a1", "check_a2", "check_a3", "check_a4"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = write_config(tmp_path, config)
    out = tmp_path / "check.csv"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_select_jump_with_step_writes_integer_breaks(tmp_path):
    data = tmp_path / "y.csv"
    data.write_text("\n".join(str(v) for v in [0.1, -0.2, 0.0, 0.2, -0.1, 0.0,
                                                 9.9, 10.2, 10.0, 9.8, 10.1, 10.0]) + "\n")
    cfg = write_config(tmp_path, {
        "family": {"kind": "jump", "n": 12}, "sigma": 1.0, "kappa": 1.0,
        "data": {"file": str(data)}})
    out = tmp_path / "sel.json"
    r = run_cli("select", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["structure"] == {"family": "jump", "data": {"breaks": [5]}}


def test_invalid_json_reports_location(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"family": ,}')
    r = run_cli("select", "--config", str(cfg), "--out", str(tmp_path / "o.json"))
    assert r.returncode == 2
    assert "line" in r.stderr


def test_cap_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        "family": {"kind": "knot", "n": 40}, "sigma": 1.0, "kappa": 1.0,
        "data": {"signal": {"kind": "zero"}, "noise": {"kind": "gaussian"}}})
    r = run_cli("select", "--config", cfg, "--out", str(tmp_path / "o.json"))
    assert r.returncode == 3
    assert "cap" in r.stderr.lower()


def test_exact_clustering_past_its_size_limit_exits_with_a_cap_error(tmp_path):
    cfg = write_config(tmp_path, {
        "family": {"kind": "clustering", "n": selection.EXACT_CLUSTERING_MAX_N + 1},
        "sigma": 1.0, "kappa": 1.0, "data": {"signal": {"kind": "zero"}}})
    out = tmp_path / "o.json"
    r = run_cli("select", "--config", cfg, "--out", str(out))
    assert r.returncode == 3
    assert r.stderr.startswith("cap error:") and r.stderr.count("\n") == 1
    assert f"n <= {selection.EXACT_CLUSTERING_MAX_N}" in r.stderr
    assert not out.exists()


def test_check_a2_report_contains_bound(tmp_path):
    cfg = write_config(tmp_path, {"check": "a2",
                                  "family": {"kind": "smoothness", "n": 30}, "nu": 1.0})
    out = tmp_path / "a2.csv"
    r = run_cli("check", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# projstruct=")
    header = lines[1].split(",")
    row = lines[2].split(",")
    bound = float(row[header.index("bound")])
    assert bound == pytest.approx(np.e / (np.e - 1.0))
    assert row[header.index("pass")] == "1"


def test_check_a3_clustering_unsupported_row(tmp_path):
    cfg = write_config(tmp_path, {"check": "a3",
                                  "family": {"kind": "clustering", "n": 4},
                                  "caps": {"max_blocks": 2}})
    out = tmp_path / "a3.csv"
    r = run_cli("check", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "unsupported" in out.read_text()


def test_check_deterministic_under_seed(tmp_path):
    cfg = write_config(tmp_path, {"check": "a4", "noise": {"kind": "gaussian"},
                                  "M": [1.0, 4.0], "n": 8, "reps": 500})
    blobs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        r = run_cli("check", "--config", cfg, "--out", str(out), "--seed", "11")
        assert r.returncode == 0, r.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_check_a1_csv_structure_field_is_quoted(tmp_path):
    cfg = write_config(tmp_path, {"check": "a1",
                                  "family": {"kind": "sparsity", "n": 3},
                                  "noise": {"kind": "gaussian"},
                                  "alpha": 0.4, "reps": 2000})
    out = tmp_path / "a1.csv"
    r = run_cli("check", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 8  # comment, header, one row per subset
    assert lines[2].startswith('"')


def test_simulate_workers_flag_matches_serial(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "estimation-risk",
        "family": {"kind": "sparsity", "n": 15},
        "signal": {"kind": "sparse", "s": 2, "amplitude": 6.0},
        "sigma": 1.0, "kappa": 1.0, "reps": 6,
        "constants": {"kappa": 1.0, "strict": False}})
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    r1 = run_cli("simulate", "--config", cfg, "--out", str(out1), "--seed", "3")
    r2 = run_cli("simulate", "--config", cfg, "--out", str(out2), "--seed", "3",
                 "--workers", "2")
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_select_bicluster_restricted_posterior(tmp_path):
    cfg = write_config(tmp_path, {
        "family": {"kind": "bicluster", "n1": 8, "n2": 8}, "sigma": 0.5,
        "kappa": 1.0, "mode": "heuristic",
        "data": {"signal": {"kind": "zero"}, "noise": {"kind": "gaussian"}}})
    out = tmp_path / "sel.json"
    r = run_cli("select", "--config", cfg, "--out", str(out), "--seed", "6")
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["posterior"]["method"] == "restricted-candidate-set"
    assert doc["theta_tilde"] is not None


@pytest.mark.parametrize("family,mode,method,code", [
    ({"kind": "clustering", "n": 10}, "heuristic", "restricted-candidate-set", 0),
    ({"kind": "jump", "n": 18}, "exact", None, 3),
], ids=["clustering-10", "jump-18"])
def test_simulate_ma_uses_the_posterior_that_select_writes(tmp_path, family, mode, method,
                                                            code):
    """Clustering n = 10 is past the enumeration cap and has a heuristic
    search; jump n = 18 is past it with no search, so it has no posterior,
    and the ma estimator ends in one cap error line instead."""
    common = {"family": family, "mode": mode, "sigma": 1.0, "kappa": 1.0}
    signal = {"kind": "piecewise", "breaks": [4], "levels": [0.0, 3.0]}
    cfg = write_config(tmp_path, {**common, "data": {"signal": signal}}, "select.json")
    out = tmp_path / "sel.json"
    r = run_cli("select", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert (doc["posterior"] or {}).get("method") == method
    assert (doc["theta_tilde"] is None) == (method is None)

    cfg = write_config(tmp_path, {**common, "signal": signal, "experiment": "estimation-risk",
                                  "estimator": "ma", "reps": 2}, "simulate.json")
    tables = []
    for workers in ("1", "2"):
        table = tmp_path / f"w{workers}.csv"
        r = run_cli("simulate", "--config", cfg, "--out", str(table), "--workers", workers)
        assert r.returncode == code, r.stderr
        if code:
            assert r.stderr.startswith("cap error:") and r.stderr.count("\n") == 1
            assert not table.exists()
        else:
            assert r.stderr == ""
            tables.append(table.read_bytes())
    assert tables[:1] == tables[1:]


@pytest.mark.parametrize("config", [
    json.loads((DATA_DIR / "golden_select" / "clustering-heuristic.json").read_text()),
    {"family": {"kind": "clustering", "n": 10}, "mode": "heuristic", "sigma": 1.0,
     "kappa": 1.0, "data": {"signal": {"kind": "piecewise", "breaks": [4],
                                       "levels": [0.0, 3.0]}}},
], ids=["clustering-heuristic", "clustering-10"])
def test_clustering_select_is_the_restricted_posterior_mode(tmp_path, config):
    """Past the enumeration cap the posterior runs over the structures that
    the selector offers, so the selected structure is a candidate and holds
    the largest weight."""
    cfg = write_config(tmp_path, config)
    out = tmp_path / "sel.json"
    assert main(["select", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["posterior"]["method"] == "restricted-candidate-set"
    # the top rows are sorted by weight, largest first
    assert doc["posterior"]["top"][0]["structure"] == doc["structure"]


@pytest.mark.parametrize("family", [{"kind": "bicluster", "n1": 3, "n2": 9},
                                    {"kind": "clustering", "n": 10}],
                         ids=["bicluster-3x9", "clustering-10"])
def test_select_searches_once(tmp_path, monkeypatch, family):
    """Past the enumeration cap the posterior reads what the selector's
    search scored, and runs no search of its own."""
    calls = []
    search = selection._SEARCHES[family["kind"]]

    def counting(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setitem(selection._SEARCHES, family["kind"], counting)
    cfg = write_config(tmp_path, {
        "family": family, "mode": "heuristic", "sigma": 0.5, "kappa": 1.0,
        "data": {"signal": {"kind": "zero"}, "noise": {"kind": "gaussian"}}})
    out = tmp_path / "sel.json"
    assert main(["select", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["posterior"]["method"] == "restricted-candidate-set"
    assert len(calls) == 1


@pytest.mark.parametrize("family", [
    {"kind": "regression", "n_obs": 12, "p": 6, "design_seed": 3},
    {"kind": "bicluster", "n1": 2, "n2": 3},
], ids=["regression", "bicluster"])
def test_exact_mode_past_the_posterior_cap_has_no_posterior(tmp_path, monkeypatch, capsys,
                                                            family):
    """Exact regression and bicluster enumerate and search nothing, so past
    POSTERIOR_CAPS (lowered here) `select` writes null posteriors and the ma
    estimator stops with one cap error line; heuristic mode's search still
    gives a restricted posterior."""
    monkeypatch.setattr(ddm, "POSTERIOR_CAPS", Caps(max_count=2))
    signal = {"kind": "sparse", "s": 2, "amplitude": 3.0}
    common = {"family": family, "sigma": 0.5, "kappa": 1.0}
    out = tmp_path / "sel.json"
    for mode, method in (("exact", None), ("heuristic", "restricted-candidate-set")):
        cfg = write_config(tmp_path, {**common, "mode": mode, "data": {"signal": signal}})
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["posterior"] or {}).get("method") == method
        assert (doc["theta_tilde"] is None) == (method is None)

    cfg = write_config(tmp_path, {**common, "signal": signal, "experiment": "estimation-risk",
                                  "estimator": "ma", "reps": 2})
    table = tmp_path / "table.csv"
    assert main(["simulate", "--config", cfg, "--out", str(table)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cap error:") and err.count("\n") == 1
    assert not table.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_draws_that_overflow_are_one_line_config_error(tmp_path, workers):
    """sigma**2 is finite, but the sum of squares of each draw is not; the
    error comes back from a worker process too."""
    cfg = write_config(tmp_path, {
        "experiment": "estimation-risk", "family": {"kind": "sparsity", "n": 8},
        "signal": {"kind": "zero"}, "sigma": 1e154, "reps": 2})
    table = tmp_path / "table.csv"
    r = run_cli("simulate", "--config", cfg, "--out", str(table), "--workers", workers)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:") and r.stderr.count("\n") == 1
    assert "replication" in r.stderr
    assert not table.exists()


@pytest.mark.parametrize("experiment", ["contraction", "estimation-risk", "coverage-ebr",
                                        "coverage-quarter", "size", "recovery-shell"])
def test_each_replication_kind_reports_an_overflowing_draw_in_one_line(tmp_path, capsys,
                                                                       experiment):
    """Every replication checks its draw in the memo it makes of it, and a
    draw whose sum of squares overflows ends the run with exit 2 and this
    one line, also when sigma * noise overflows entry by entry (half_width
    1e300, sigma 1e10) and the draw is inf there, with no numpy warning.
    The noise, not sigma, is wide, so the per-cell oracle rate stays
    finite."""
    for half_width, sigma in ((1e155, 1.0), (1e300, 1e10)):
        cfg = write_config(tmp_path, {
            "experiment": experiment, "family": {"kind": "sparsity", "n": 8},
            "signal": {"kind": "zero"}, "sigma": sigma, "reps": 2,
            "noise": {"kind": "bounded-uniform", "half_width": half_width},
            "duplication": "second-sample", "constants": {"kappa": 1.0, "strict": False}})
        table = tmp_path / "table.csv"
        assert main(["simulate", "--config", cfg, "--out", str(table)]) == 2
        assert capsys.readouterr().err == (
            "config error: an observation drawn in a replication has entries that are not "
            "finite or whose squares overflow the float range\n")
        assert not table.exists()


@pytest.mark.parametrize("name", ["contraction", "coverage-quarter", "recovery-shell"])
def test_sigma_whose_penalties_overflow_is_one_line_config_error(tmp_path, capsys, name):
    """A golden config at sigma 1e154: sigma**2 is finite, but
    sigma**2 * pen_k passes the float range on the oracle's size path.
    Those sizes score +inf with no numpy warning, and the run ends in one
    config error line: a draw or, where the config scales its signal by
    sigma, the signal, whose squares overflow."""
    doc = json.loads((DATA_DIR / "golden_simulate" / f"{name}.json").read_text())
    cfg = write_config(tmp_path, dict(doc, sigma=1e154))
    table = tmp_path / "table.csv"
    assert main(["simulate", "--config", cfg, "--out", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "overflow the float range" in err
    assert not table.exists()


# (name, command, config file, section, field, value): one faulty value put
# into a valid golden config; none of them may end in a traceback, a math
# error in the middle of a run or a silent exit 0
CONFIG_FAULTS = [
    ("select-data-number", "select", "golden_select/jump", None, "data", 7),
    ("experiment-list", "simulate", "golden_simulate/size", None, "experiment", ["size"]),
    ("M1-negative", "simulate", "golden_simulate/coverage-quarter", "constants",
     "M1_override", -1.0),
    ("kappa-nan", "simulate", "golden_simulate/recovery-shell", "constants", "kappa",
     math.nan),
    ("kappa-inf", "simulate", "golden_simulate/recovery-shell", "constants", "kappa",
     math.inf),
    ("nu-nan", "simulate", "golden_simulate/coverage-quarter", "constants", "nu", math.nan),
    ("nu-inf", "simulate", "golden_simulate/coverage-quarter", "constants", "nu", math.inf),
    ("sobolev-Q-zero", "simulate", "golden_simulate/rate-scaling", "signal", "Q", 0.0),
    ("a3-no-structure", "check", "golden_check/a3-bicluster", "caps", "max_blocks", 0),
]


@pytest.mark.parametrize("command,name,section,field,value",
                         [fault[1:] for fault in CONFIG_FAULTS],
                         ids=[fault[0] for fault in CONFIG_FAULTS])
def test_faulty_config_values_are_one_line_config_errors(tmp_path, command, name, section,
                                                         field, value):
    """A value of the wrong type or out of range is rejected where the
    config is read: exit 2, one stderr line, no output file."""
    config = json.loads((DATA_DIR / f"{name}.json").read_text())
    (config if section is None else config.setdefault(section, {}))[field] = value
    out = tmp_path / "out"
    r = run_cli(command, "--config", write_config(tmp_path, config), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:") and r.stderr.count("\n") == 1, r.stderr
    assert not out.exists()


def test_size_at_oracle_rate_zero_reports_infinite_ratio_quantiles(tmp_path):
    """A zero signal has oracle rate 0, so every ratio r_hat^2 / rate is
    inf and so are its quantiles; np.quantile of infs gives nan, with a
    RuntimeWarning."""
    config = json.loads((DATA_DIR / "golden_simulate" / "size-leveled.json").read_text())
    config["signal"]["scale"] = 0
    out = tmp_path / "table.csv"
    assert main(["simulate", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines()[-2:])
    cells = dict(zip(header, row))
    assert cells["oracle_rate_sq"] == "0.0"
    assert cells["q50_ratio"] == cells["q90_ratio"] == "inf"


@pytest.mark.parametrize("overrides", [
    {"family": {"kind": "smoothness"}, "signal": {"kind": "zero"}, "kappa": 50.0},
    {"family": {"kind": "sparsity"}, "signal": {"kind": "zero"}, "kappa": 50.0},
    {"family": {"kind": "leveled", "n_levels": 3}, "grid": {}, "signal": {"kind": "zero"},
     "kappa": 50.0},
    {"signal": {"kind": "sobolev", "beta": 1.0, "Q": 1e300}},
], ids=["smoothness-zero", "sparsity-zero", "leveled-zero", "sobolev-Q-1e300"])
def test_rate_scaling_with_every_estimate_exact_writes_a_log_of_minus_inf(tmp_path, overrides):
    """Every replication's estimate equals theta: the empty structure at a
    zero signal and kappa = 50, or, at Q = 1e300, a signal beside which the
    noise is lost in rounding.  The mean squared error is 0, and its log is
    -inf, as `size` writes inf at oracle rate 0."""
    config = json.loads((DATA_DIR / "golden_simulate" / "rate-scaling.json").read_text())
    out = tmp_path / "table.csv"
    assert main(["simulate", "--config", write_config(tmp_path, {**config, **overrides}),
                 "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()[1:]
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["mean_err_sq"] == "0.0" and cells["log_mean_err_sq"] == "-inf"


# the values a config fuzz puts into one field at a time; DELETE removes it
DELETE = object()
FUZZ_VALUES = [None, True, "x", -1, 0, 0.5, 1e-300, 1e300, math.nan, [], {}, DELETE]
# every third value of each field, one value later at each next field, so
# the values rotate over the fields; all the cases of all the golden configs
# take about 45 s
FUZZ_STRIDE = 3
FUZZ_CONFIGS = [(command, config) for command, config in GOLDEN_SELECT_CHECK] + [
    ("simulate", p) for p in GOLDEN_SIMULATE]


def _fuzz_cases(doc):
    """(path, value) for every field of doc at every depth, in document
    order, with the FUZZ_VALUES entries v whose position plus the field's
    position is a multiple of FUZZ_STRIDE."""
    def fields(node, prefix):
        for key, child in node.items():
            yield prefix + (key,)
            if isinstance(child, dict):
                yield from fields(child, prefix + (key,))

    return [(path, value) for p, path in enumerate(fields(doc, ()))
            for v, value in enumerate(FUZZ_VALUES) if (p + v) % FUZZ_STRIDE == 0]


@pytest.mark.parametrize("command,config", FUZZ_CONFIGS,
                         ids=lambda v: v.stem if isinstance(v, pathlib.Path) else v)
def test_config_fuzz_ends_in_a_result_or_one_line(tmp_path, capsys, caplog, command, config):
    """A golden config with one field set to null, true, "x", -1, 0, 0.5,
    1e-300, 1e300, NaN, [] or {}, or deleted, exits 0, 2 or 3 with no
    traceback, no numpy warning (the suite makes warnings errors), and
    with exactly one stderr line when it is not 0.  A log record of level
    WARNING or above counts as a line, since the CLI prints it to stderr."""
    doc = json.loads(config.read_text())
    for path, value in _fuzz_cases(doc):
        mutated = json.loads(json.dumps(doc))
        node = mutated
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        caplog.clear()
        code = main([command, "--config", write_config(tmp_path, mutated),
                     "--out", str(tmp_path / "out"), "--seed", "1"])
        err = capsys.readouterr().err
        lines = err.count("\n") + sum(r.levelno >= logging.WARNING for r in caplog.records)
        case = (".".join(path), "deleted" if value is DELETE else value, err)
        assert code in (0, 2, 3), case
        assert code == 0 or lines == 1, case


@pytest.mark.parametrize("config", GOLDEN_SIMULATE, ids=lambda p: p.stem)
def test_simulate_reproduces_golden_csv(tmp_path, config):
    """`projstruct simulate --config <name>.json --seed 31337` must write the
    bytes of `<name>.csv`, which pins simulate output across commits."""
    out = tmp_path / "table.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--seed", "31337"]) == 0
    assert out.read_bytes() == config.with_suffix(".csv").read_bytes()


@pytest.mark.parametrize("command,config", GOLDEN_SELECT_CHECK,
                         ids=lambda v: v.stem if isinstance(v, pathlib.Path) else v)
def test_select_and_check_reproduce_golden_output(tmp_path, command, config):
    """`projstruct select|check --config <name>.json --seed 31337` must write
    the bytes of the file beside the config, which pins select output for
    every family and the A1/A3 checks across commits."""
    suffix = ".out.json" if command == "select" else ".csv"
    out = tmp_path / f"out{suffix}"
    assert main([command, "--config", str(config), "--out", str(out),
                 "--seed", "31337"]) == 0
    assert out.read_bytes() == config.with_suffix(suffix).read_bytes()


@pytest.mark.parametrize("name", ["knot", "regression", "bicluster", "bicluster-heuristic",
                                  "clustering-heuristic", "sparsity"])
def test_select_memo_bound_keeps_output(tmp_path, monkeypatch, name):
    """A memo that may store only 5 projections computes the rest and keeps
    every output byte; the posterior's own cap is left as it is."""
    most = []
    project, project_all = selection.Projections.project, selection.Projections.project_all

    def counting(self, structure):
        out = project(self, structure)
        most.append(len(self.stored))
        return out

    def counting_all(self, structures):
        out = project_all(self, structures)
        most.append(len(self.stored))
        return out

    monkeypatch.setattr(selection, "POSTERIOR_CAPS", Caps(max_count=5))
    monkeypatch.setattr(selection.Projections, "project", counting)
    monkeypatch.setattr(selection.Projections, "project_all", counting_all)
    config = DATA_DIR / "golden_select" / f"{name}.json"
    out = tmp_path / "out.json"
    assert main(["select", "--config", str(config), "--out", str(out), "--seed", "31337"]) == 0
    assert out.read_bytes() == config.with_suffix(".out.json").read_bytes()
    assert most and max(most) <= 5


def _count_spans(monkeypatch):
    """One entry per basis given to `linalg.orthonormal_spans`, the one SVD
    path of every span projection."""
    calls = []
    spans = linalg.orthonormal_spans

    def counting(bases):
        calls.extend([1] * len(bases))
        return spans(bases)

    monkeypatch.setattr(linalg, "orthonormal_spans", counting)
    return calls


@pytest.mark.parametrize("family,most", [
    ({"kind": "knot", "n": 13}, 2_049),  # 2,048 knot sets
    ({"kind": "regression", "n_obs": 40, "p": 20, "design_seed": 7}, 1_353),  # 1,352 supports
])
def test_select_projects_each_structure_once(tmp_path, monkeypatch, family, most):
    """The brute force, theta_check, the enumerated posterior and
    theta_tilde share one projection per structure; scoring them apart took
    three (6,145 and 4,057 bases orthonormalized)."""
    cfg = write_config(tmp_path, {
        "family": family, "sigma": 0.5, "kappa": 1.0,
        "data": {"signal": {"kind": "sparse", "s": 2, "amplitude": 3.0},
                 "noise": {"kind": "gaussian"}}})
    calls = _count_spans(monkeypatch)
    out = tmp_path / "sel.json"
    assert main(["select", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["posterior"]["method"] == "enumeration" and doc["theta_tilde"] is not None
    assert 0 < len(calls) <= most


def test_select_builds_the_sparsity_log_esp_table_once(tmp_path, monkeypatch):
    """Past the enumeration cap the 2^n normalizer and the inclusion
    marginals read one (n+1)^2 log-ESP table; they built one each."""
    calls = []
    table = ddm._log_esp_table

    def counting(log_x):
        calls.append(len(log_x))
        return table(log_x)

    monkeypatch.setattr(ddm, "_log_esp_table", counting)
    cfg = write_config(tmp_path, {
        "family": {"kind": "sparsity", "n": 200}, "sigma": 1.0, "kappa": 1.0,
        "data": {"signal": {"kind": "sparse", "s": 5, "amplitude": 4.0},
                 "noise": {"kind": "gaussian"}}})
    out = tmp_path / "sel.json"
    assert main(["select", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    doc = json.loads(out.read_text())
    assert doc["posterior"]["method"] == "symmetric-polynomial"
    assert doc["theta_tilde"] is not None
    assert calls == [200]


# family sections and signal sections the builders cannot build from
FAMILY_ERRORS = [{"kind": "smoothness", "n": "x"}, {"kind": "smoothness", "n": 0},
                 {"kind": "sparsity", "n": 8, "variant": "zz"},
                 {"kind": "regression", "n_obs": 0, "p": 3}, ["smoothness", 8],
                 {"kind": "smoothness", "n": 6.7}, {"kind": "smoothness", "n": "6"},
                 {"kind": "smoothness", "n": True}, {"kind": "bicluster", "n1": 2.5, "n2": 3},
                 {"kind": "bicluster", "n1": 3, "n2": "3"},
                 {"kind": "regression", "n_obs": 6.0, "p": 3},
                 {"kind": "regression", "n_obs": 6, "p": 3.5},
                 {"kind": "leveled", "n_levels": 0}, {"kind": "banding", "p": 4.5},
                 {"kind": "regression", "n_obs": 6, "p": 3, "design_seed": -1},
                 {"kind": "regression", "n_obs": 6, "p": 3, "design_seed": 1.5}]
SIGNAL_ERRORS = [{"kind": "sparse", "s": "x"}, {"kind": "sparse", "amplitude": "x"},
                 {"kind": "piecewise", "breaks": ["x"], "levels": [0.0, 1.0]},
                 {"kind": "sparse", "s": -2}, {"kind": "sparse", "s": 2.5},
                 {"kind": "sparse", "s": 9},
                 {"kind": "piecewise", "breaks": [10], "levels": [0.0, 1.0]},
                 {"kind": "piecewise", "breaks": [7], "levels": [0.0, 1.0]},
                 {"kind": "piecewise", "breaks": [3, 1], "levels": [0.0, 1.0, 2.0]},
                 {"kind": "piecewise", "breaks": [3, 3], "levels": [0.0, 1.0, 2.0]},
                 {"kind": "piecewise", "breaks": [-1], "levels": [0.0, 1.0]},
                 {"kind": "piecewise", "breaks": [2.5], "levels": [0.0, 1.0]}]
# the family and signal sections are sized for n = 8
BUILD_ERROR_IDS = ["family-n-string", "family-n-0", "sparsity-variant", "regression-n-obs-0",
                   "family-a-list", "family-n-fraction", "family-n-numeric-string",
                   "family-n-bool", "bicluster-n1-fraction", "bicluster-n2-string",
                   "regression-n-obs-float", "regression-p-fraction", "leveled-n-levels-0",
                   "banding-p-fraction", "regression-design-seed-negative",
                   "regression-design-seed-fraction",
                   "signal-s-string", "signal-amplitude-string", "piecewise-breaks-string",
                   "signal-s-negative", "signal-s-fraction", "signal-s-past-n",
                   "piecewise-break-past-n", "piecewise-last-level-empty",
                   "piecewise-breaks-decreasing", "piecewise-breaks-repeated",
                   "piecewise-break-negative", "piecewise-break-fraction"]


@pytest.mark.parametrize("overrides,field", [
    ({"kappa": 0}, "kappa"),
    ({"kappa": "a"}, "kappa"),
    ({"mode": "fast"}, "mode"),
    ({"pen_variant": "bic"}, "pen_variant"),
    ({"posterior_top_k": 2.5}, "posterior_top_k"),
    ({"posterior_top_k": "3"}, "posterior_top_k"),
    ({"posterior_top_k": -1}, "posterior_top_k"),
    ({"data": "nan-file"}, "non-finite"),
    ({"data": "overflow-file"}, "overflow"),
    ({"sigma": float("nan")}, "sigma"),
    ({"sigma": 1e200}, "sigma"),
    ({"data": {"signal": {"kind": "constant", "value": 1e200}}}, "overflow"),
    ({"kappa": 1e308}, "kappa"),
    ({"sigma": 1e-200}, "sigma"),
    ({"data": {"signal": {"kind": "geometric", "ratio": 1e300}}}, "overflow"),
    ({"sigma": 1e10, "data": {"signal": {"kind": "zero"},
                              "noise": {"kind": "bounded-uniform", "half_width": 1e300}}},
     "overflow"),
    *[({"family": spec}, "family") for spec in FAMILY_ERRORS],
    *[({"data": {"signal": spec}}, "signal") for spec in SIGNAL_ERRORS],
], ids=["kappa-0", "kappa-not-a-number", "unknown-mode", "unknown-pen-variant",
        "top-k-fraction", "top-k-string", "top-k-negative", "nan-in-data-file",
        "overflow-in-data-file", "sigma-nan", "sigma-square-overflows",
        "signal-square-overflows", "kappa-double-overflows", "sigma-square-underflows",
        "geometric-ratio-overflows", "draw-entry-overflows", *BUILD_ERROR_IDS])
def test_select_bad_input_is_one_line_config_error(tmp_path, monkeypatch, capsys, overrides,
                                                   field):
    def no_scoring(*args, **kwargs):
        raise AssertionError("scoring started")

    monkeypatch.setattr(cli, "select_penalized", no_scoring)
    if overrides.get("data") in ("nan-file", "overflow-file"):
        data = tmp_path / "y.csv"
        bad = "nan" if overrides["data"] == "nan-file" else "1e200"
        data.write_text(f"5.0\n{bad}\n0.1\n0.05\n")
        overrides = {"family": {"kind": "smoothness", "n": 4}, "data": {"file": str(data)}}
    cfg = write_config(tmp_path, {**SELECT_CONFIG, **overrides})
    out = tmp_path / "sel.json"
    assert main(["select", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert err.count("\n") == 1
    assert not out.exists()


COUNT_CONFIG = {
    "family": {"kind": "smoothness", "n": 8},
    "signal": {"kind": "sobolev", "beta": 1.0, "Q": 1.0},
    "sigma": 0.25, "kappa": 1.0, "reps": 4,
    "constants": {"kappa": 1.0, "strict": False},
}


@pytest.mark.parametrize("overrides,field", [
    ({"experiment": "estimation-risk", "reps": 0}, "reps"),
    ({"experiment": "estimation-risk", "reps": -3}, "reps"),
    ({"experiment": "coverage-ebr", "grid": {"M": [0.0, 1.0]},
      "calibrate": {"reps": 0}}, "calibrate.reps"),
    ({"experiment": "contraction", "grid": {"M": [0.0]}, "posterior_draws": 0},
     "posterior_draws"),
    ({"experiment": "estimation-risk", "reps": "many"}, "reps"),
    ({"experiment": "coverage-ebr", "grid": {"M": [0.0, 1.0]}, "calibrate": True},
     "calibrate"),
    ({"experiment": "coverage-ebr", "grid": {"M": [0.0, 1.0]},
      "calibrate": {"nominal": "high"}}, "calibrate.nominal"),
    ({"experiment": "estimation-risk", "reps": 2.5}, "reps"),
    ({"experiment": "estimation-risk", "reps": "3"}, "reps"),
    ({"experiment": "estimation-risk", "reps": True}, "reps"),
    ({"experiment": "contraction", "grid": {"M": [0.0]}, "posterior_draws": 20.0},
     "posterior_draws"),
    ({"experiment": "recovery-shell", "estimator": "bogus"}, "estimator"),
], ids=["reps-0", "reps-negative", "calibrate-reps-0", "posterior-draws-0", "reps-not-a-number",
        "calibrate-not-an-object", "calibrate-nominal-not-a-number", "reps-fraction",
        "reps-string", "reps-bool", "posterior-draws-float", "estimator-unknown"])
def test_simulate_rejects_non_positive_counts(tmp_path, monkeypatch, capsys, overrides,
                                              field):
    def no_replications(*args, **kwargs):
        raise AssertionError("a replication started")

    monkeypatch.setattr(experiments, "_run_reps", no_replications)
    cfg = write_config(tmp_path, {**COUNT_CONFIG, **overrides})
    out = tmp_path / "table.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert err.count("\n") == 1
    assert not out.exists()



@pytest.mark.parametrize("overrides,field", [
    ({"kappa": 0}, "kappa"),
    ({"kappa": "a"}, "kappa"),
    ({"mode": "fast"}, "mode"),
    ({"pen_variant": "bic"}, "pen_variant"),
    *[({"family": spec}, "family") for spec in FAMILY_ERRORS],
    *[({"signal": spec}, "signal") for spec in SIGNAL_ERRORS],
    ({"constants": {"kappa": 1.0, "M0_override": "x"}}, "M0_override"),
    ({"constants": {"kappa": 1.0, "C_nu": 1.0}}, "C_nu"),
    ({"constants": {"kappa": 1.0, "M3_override": 1.0}}, "M3_override"),
    ({"constants": [1.0]}, "constants"),
    ({"signal": {"kind": "sparse", "s": 1, "amplitude": 1e200}}, "signal"),
    ({"sigma": 1e200}, "sigma"),
    ({"grid": {"sigma": [1.0, 1e200]}}, "sigma"),
    ({"kappa": 1e308}, "kappa"),
    ({"sigma": 1e-200}, "sigma"),
    ({"grid": {"sigma": [1.0, 1e-200]}}, "sigma"),
    ({"signal": {"kind": "geometric", "ratio": 1e300}}, "signal"),
    ({"signal": {"kind": "geometric", "ratio": 1e300, "scale": 0.0}}, "signal"),
], ids=["kappa-0", "kappa-not-a-number", "unknown-mode", "unknown-pen-variant",
        *BUILD_ERROR_IDS, "m0-override-string", "c-nu-not-a-field", "m3-override-not-a-field",
        "constants-a-list", "signal-square-overflows", "sigma-square-overflows",
        "later-sigma-square-overflows", "kappa-double-overflows", "sigma-square-underflows",
        "later-sigma-square-underflows", "geometric-ratio-overflows",
        "geometric-zero-times-inf"])
def test_simulate_rejects_what_select_rejects(tmp_path, monkeypatch, capsys, overrides, field):
    def no_replications(*args, **kwargs):
        raise AssertionError("a replication started")

    monkeypatch.setattr(experiments, "_run_reps", no_replications)
    cfg = write_config(tmp_path, {**COUNT_CONFIG, "experiment": "estimation-risk",
                                  **overrides})
    out = tmp_path / "table.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert err.count("\n") == 1
    assert not out.exists()


# noise sections that no draw can use, with a word of their error; JSON
# reads the literal 1e309 as inf, and only check a4 needs unit variance
NOISE_FAULTS = {
    "half-width-1e309": ({"kind": "bounded-uniform", "half_width": "1e309"}, "half_width"),
    "half-width-nan": ({"kind": "bounded-uniform", "half_width": float("nan")}, "half_width"),
    "half-width-negative": ({"kind": "bounded-uniform", "half_width": -1}, "half_width"),
    "theta-length": ({"kind": "bernoulli-mean", "theta": [0.5, 0.5]}, "theta"),
    "not-unit-variance": ({"kind": "bounded-uniform", "half_width": 1.0}, "unit-variance"),
}
# each command that draws noise, and its config around a noise section
NOISE_COMMANDS = {
    "check-a1": ("check", lambda noise: {**A1_CONFIG, "noise": noise}),
    "check-a4": ("check", lambda noise: {**A4_CONFIG, "noise": noise}),
    "select": ("select", lambda noise: {**SELECT_CONFIG,
                                        "data": {"signal": {"kind": "zero"}, "noise": noise}}),
    "simulate": ("simulate", lambda noise: {**COUNT_CONFIG, "experiment": "estimation-risk",
                                            "noise": noise}),
}
NOISE_CASES = [(command, fault) for command in NOISE_COMMANDS for fault in NOISE_FAULTS
               if fault != "not-unit-variance" or command == "check-a4"]


@pytest.mark.parametrize("command,fault", NOISE_CASES, ids=[f"{c}-{f}" for c, f in NOISE_CASES])
def test_noise_faults_are_one_line_config_errors(tmp_path, monkeypatch, capsys, command,
                                                 fault):
    """A noise section that no draw can use ends in exit 2 and one config
    error line, before any draw: a bounded-uniform half_width that is
    infinite, NaN or negative, a bernoulli-mean theta whose length is not
    the ambient dimension, and, in check a4, noise that is not
    unit-variance."""
    def no_draws(*args, **kwargs):
        raise AssertionError("a draw started")

    name, config = NOISE_COMMANDS[command]
    spec, field = NOISE_FAULTS[fault]
    monkeypatch.setattr(noise.NoiseModel, "sample_many", no_draws)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config(spec)).replace('"1e309"', "1e309"), encoding="utf-8")
    out = tmp_path / "out"
    assert main([name, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("nu", [1e-300, 1e-10, 710.0, 1e300])
@pytest.mark.parametrize("family", [{"kind": "smoothness", "n": 6}, {"kind": "banding", "p": 3},
                                    {"kind": "bicluster", "n1": 2, "n2": 3}],
                         ids=["smoothness", "banding", "bicluster"])
def test_check_a2_at_extreme_nu_writes_a_passing_row(tmp_path, family, nu):
    """The closed forms are finite at every positive nu: e^nu / (e^nu - 1)
    divided by zero at 1e-300 and overflowed from 710."""
    cfg = write_config(tmp_path, {"check": "a2", "family": family, "nu": nu})
    out = tmp_path / "a2.csv"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()[1:]
    assert dict(zip(header.split(","), row.split(",")))["pass"] == "1"


def test_check_a2_leveled_max_size_bounds_the_enumeration(tmp_path):
    """Five levels hold 2^31 supports; one index in all leaves 32."""
    cfg = write_config(tmp_path, {"check": "a2", "family": {"kind": "leveled", "n_levels": 5},
                                  "nu": 1.5, "caps": {"max_size": 1}})
    out = tmp_path / "a2.csv"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()[1:]
    assert dict(zip(header.split(","), row.split(",")))["count"] == "32"
