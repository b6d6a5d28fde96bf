"""Acceptance criteria, one test per criterion, run at the stated tolerances.

Each test prints a single summary line (visible with pytest -s or in the
captured output of a failing run).  Criterion 4's A3 sub-check carries a
documented exception: complexity subadditivity provably fails for the
bicluster family (see notes/decisions.md in the repository root's notes
directory); the test pins the true state of affairs instead of the
impossible assertion.
"""

import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from projstruct.ddm import (DdmConfig, _log_esp_table, _sparsity_terms, sparsity_log_normalizer,
                            structure_posterior)
from projstruct.experiments import run_experiment
from projstruct.noise import NoiseModel, check_a1, check_a2, check_a3
from projstruct.oracle import oracle_rate
from projstruct.selection import EXACT_CAPS, select_bruteforce, select_penalized
from projstruct.structures import (
    BandingFamily,
    BiclusterFamily,
    Bicluster,
    Caps,
    JumpFamily,
    KnotFamily,
    LeveledSparsityFamily,
    RegressionFamily,
    SmoothnessFamily,
    SparsityFamily,
)

BERNOULLI_ALPHA = (math.e - 1.0) / (2.0 * (1.0 + math.e))


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def acceptance_families(rng):
    caps = {"bicluster": Caps(max_blocks=3)}
    fams = {
        "smoothness": SmoothnessFamily(12),
        "sparsity": SparsityFamily(10),
        "leveled": LeveledSparsityFamily(3),
        "jump": JumpFamily(8),
        "knot": KnotFamily(8),
        "banding": BandingFamily(5),
        "regression": RegressionFamily(rng.standard_normal((14, 10))),
        "bicluster": BiclusterFamily(3, 3),
    }
    return fams, caps


# ---------------------------------------------------------------------------
# 1. selector correctness
# ---------------------------------------------------------------------------


def test_criterion_1_selector_matches_bruteforce():
    rng = np.random.default_rng(101)
    fams, caps = acceptance_families(rng)
    t0 = time.time()
    for name, fam in fams.items():
        for i in range(200):
            y = rng.standard_normal(fam.ambient_dim) * rng.uniform(0.5, 3.0)
            sigma = float(rng.uniform(0.3, 2.0))
            kappa = float(rng.uniform(0.3, 2.0))
            s_fast, obj_fast = select_penalized(y, fam, sigma, kappa, mode="exact")
            s_brute, obj_brute = select_bruteforce(y, fam, sigma, kappa, caps.get(name))
            assert abs(obj_fast - obj_brute) <= 1e-9 * (1.0 + abs(obj_brute)), (name, i)
            assert s_fast == s_brute, (name, i)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"selector equivalence took {elapsed:.0f}s (budget 120s)"
    report(f"criterion 1 (selector correctness): PASS — 8 families x 200 instances "
           f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. DDM exactness via symmetric polynomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 12])
def test_criterion_2_ddm_symmetric_polynomial_exact(n):
    rng = np.random.default_rng(202 + n)
    fam = SparsityFamily(n)
    candidates = list(fam.enumerate_structures())
    worst = 0.0
    for _ in range(50):
        y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        cfg = DdmConfig(kappa=float(rng.uniform(0.4, 2.0)),
                        sigma=float(rng.uniform(0.5, 2.0)))
        enum = structure_posterior(y, fam, cfg, candidates, "enumeration")
        log_z = sparsity_log_normalizer(y, fam, cfg,
                                        _log_esp_table(_sparsity_terms(y, fam, cfg)[0]))
        # each unnormalized log weight under the symmetric-polynomial normalizer
        sym = enum.log_weights + enum.log_normalizer - log_z
        rel = np.max(np.abs(np.expm1(sym - enum.log_weights)))
        worst = max(worst, float(rel))
        assert rel <= 1e-10
    report(f"criterion 2 (DDM exactness, n={n}): PASS — worst per-weight relative "
           f"error {worst:.2e} <= 1e-10 over 50 draws")


# ---------------------------------------------------------------------------
# 3. projection algebra
# ---------------------------------------------------------------------------


def test_criterion_3_projection_algebra_500_triples():
    rng = np.random.default_rng(303)
    fams, caps = acceptance_families(rng)
    structures = {name: list(fam.enumerate_structures(caps.get(name)))
                  for name, fam in fams.items()}
    names = sorted(fams)
    for k in range(500):
        name = names[int(rng.integers(len(names)))]
        fam = fams[name]
        s = structures[name][int(rng.integers(len(structures[name])))]
        theta = rng.standard_normal(fam.ambient_dim) * rng.uniform(0.2, 5.0)
        p = fam.project(s, theta)
        pp = fam.project(s, p)
        scale = 1.0 + float(np.linalg.norm(theta))
        assert np.max(np.abs(pp - p)) <= 1e-8 * scale, (name, s)
        lhs = float(theta @ theta)
        rhs = float(p @ p) + float((theta - p) @ (theta - p))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + lhs), (name, s)
        resid = theta - p
        for _ in range(3):
            probe = rng.standard_normal(fam.ambient_dim)
            inner = abs(float(fam.project(s, probe) @ resid))
            assert inner <= 1e-8 * np.linalg.norm(probe) * (1.0 + np.linalg.norm(theta))
    report("criterion 3 (projection algebra): PASS — idempotence, Pythagoras and "
           "orthogonality on 500 triples at 1e-8")


# ---------------------------------------------------------------------------
# 4. condition suite
# ---------------------------------------------------------------------------


def test_criterion_4a_a2_closed_form_bounds():
    # n=30: the analytic gap e^{-31}/(1-e^{-1}) to the infinite-sum bound
    # is ~5e-14, safely above double resolution, so <= holds exactly
    smooth = check_a2(SmoothnessFamily(30), nu=1.0)
    assert smooth.bound == pytest.approx(math.e / (math.e - 1.0))
    assert smooth.passed and smooth.total <= smooth.bound
    sparse = check_a2(SparsityFamily(8), nu=2.0)
    assert sparse.bound == pytest.approx(1.0 / (1.0 - math.exp(-1.0)))
    assert sparse.passed and sparse.total <= sparse.bound
    report(f"criterion 4/A2: PASS — smoothness sum {smooth.total:.6f} <= "
           f"{smooth.bound:.6f}, sparsity sum {sparse.total:.6f} <= {sparse.bound:.6f}")


def test_criterion_4b_a3_witnesses_100_pairs_per_family():
    rng = np.random.default_rng(404)
    fams, caps = acceptance_families(rng)
    for name, fam in fams.items():
        if name == "bicluster":
            continue
        rep = check_a3(fam, 100, rng, caps.get(name))
        assert rep.passed, (name, rep)
        assert rep.max_rho_excess <= 1e-12
    # Bicluster: containment holds on 100 pairs, but subadditivity provably
    # fails -- crossing (rows merged, cols split) with its transpose admits
    # no witness cheaper than the full split.  Pin the true state.
    fam = BiclusterFamily(3, 3)
    rep = check_a3(fam, 100, rng, caps["bicluster"])
    assert rep.max_containment_residual <= 1e-8
    merged_rows = Bicluster(((0, 1, 2),), ((0,), (1,), (2,)))
    merged_cols = Bicluster(((0,), (1,), (2,)), ((0, 1, 2),))
    u = fam.union_structure(merged_rows, merged_cols)
    assert fam.majorant(u) > fam.majorant(merged_rows) + fam.majorant(merged_cols)
    report("criterion 4/A3: PASS with documented exception — containment+"
           "subadditivity hold on 100 pairs for 7 families; bicluster containment "
           "holds but subadditivity FAILS (provable defect, see decisions ledger)")


def test_criterion_4c_a1_gaussian_and_bernoulli_sbm():
    rng = np.random.default_rng(405)
    fam = SmoothnessFamily(6)
    rows = check_a1(fam, NoiseModel("gaussian"), alpha=0.4, reps=100_000, rng=rng,
                    se_mult=3.0)
    assert all(r.passed for r in rows), [(r.estimate, r.bound) for r in rows]

    sbm = BiclusterFamily(3, 3)
    theta = tuple(np.full(9, 0.35))
    rows_b = check_a1(sbm, NoiseModel("bernoulli-mean", theta=theta),
                      alpha=BERNOULLI_ALPHA, reps=100_000, rng=rng,
                      caps=Caps(max_blocks=3), se_mult=3.0)
    assert all(r.passed for r in rows_b)
    report("criterion 4/A1: PASS — Gaussian alpha=0.4 within 3 s.e. at 1e5 reps; "
           f"Bernoulli block model alpha={BERNOULLI_ALPHA:.4f} passes")


# ---------------------------------------------------------------------------
# 5. tau-oracle sandwich
# ---------------------------------------------------------------------------


def test_criterion_5_tau_oracle_sandwich():
    rng = np.random.default_rng(505)
    fams, caps = acceptance_families(rng)
    # the exact bicluster oracle enumerates under EXACT_CAPS, which on 3 x 3
    # holds the same 25 structures as the acceptance caps
    bicluster = fams["bicluster"]
    want = list(bicluster.enumerate_structures(caps["bicluster"]))
    assert len(want) == 25
    assert list(bicluster.enumerate_structures(EXACT_CAPS["bicluster"])) == want
    for name, fam in fams.items():
        for _ in range(100):
            theta = rng.standard_normal(fam.ambient_dim) * rng.uniform(0.2, 4.0)
            sigma = float(rng.uniform(0.3, 2.0))
            base = oracle_rate(theta, fam, sigma, tau=1.0)
            prev_rho = math.inf
            for tau in (1.0, 2.0, 5.0):
                rep = oracle_rate(theta, fam, sigma, tau=tau)
                plain = rep.approx_sq + sigma**2 * fam.majorant(rep.structure)
                assert base.rate_sq <= plain + 1e-10 * (1.0 + plain), name
                assert plain <= tau * base.rate_sq + 1e-10 * (1.0 + plain), name
                rho = fam.majorant(rep.structure)
                assert rho <= prev_rho + 1e-12, name
                prev_rho = rho
    report("criterion 5 (tau-oracle sandwich): PASS — 8 families x 100 signals, "
           "tau in {1,2,5}")


# ---------------------------------------------------------------------------
# 6. Sobolev rate scaling
# ---------------------------------------------------------------------------


def test_criterion_6_sobolev_rate_scaling():
    t0 = time.time()
    cfg = {
        "experiment": "rate-scaling",
        "family": {"kind": "smoothness"},
        "signal": {"kind": "sobolev", "beta": 1.0, "Q": 1.0},
        "sigma": "1/sqrt(n)",
        "kappa": 1.0,
        "reps": 200,
        "grid": {"n": [64, 128, 256, 512, 1024]},
    }
    header, rows = run_experiment(cfg, seed=606)
    log_n = np.array([r[header.index("log_n")] for r in rows])
    log_err = np.array([r[header.index("log_mean_err_sq")] for r in rows])
    slope = float(np.polyfit(log_n, log_err, 1)[0])
    elapsed = time.time() - t0
    assert elapsed < 300.0
    assert -2.0 / 3.0 - 0.15 <= slope <= -2.0 / 3.0 + 0.15, slope
    report(f"criterion 6 (Sobolev rate scaling): PASS — slope {slope:.3f} within "
           f"-2/3 +- 0.15, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. sparsity risk bound
# ---------------------------------------------------------------------------


def test_criterion_7_sparsity_risk_bound():
    ratios = {}
    for s in (1, 5, 10):
        cfg = {
            "experiment": "estimation-risk",
            "family": {"kind": "sparsity", "n": 200},
            "signal": {"kind": "sparse", "s": s, "amplitude": 10.0},
            "sigma": 1.0,
            "kappa": 1.0,
            "reps": 200,
        }
        header, rows = run_experiment(cfg, seed=707)
        mean_err = rows[0][header.index("mean_err_sq")]
        ratio = mean_err / (s * math.log(math.e * 200 / s))
        ratios[s] = ratio
        assert ratio <= 10.0, (s, ratio)
    report("criterion 7 (sparsity risk): PASS — mean error / (sigma^2 s log(en/s)) = "
           + ", ".join(f"s={s}: {r:.2f}" for s, r in ratios.items()) + " (<= 10)")


# ---------------------------------------------------------------------------
# 8. coverage dichotomy
# ---------------------------------------------------------------------------


def test_criterion_8_coverage_dichotomy():
    common = {
        "family": {"kind": "sparsity", "n": 100},
        "sigma": 1.0,
        "kappa": 1.0,
        "constants": {"kappa": 1.0, "strict": False, "M2_override": 1.0},
    }
    m_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    structured = {"kind": "sparse", "s": 5, "amplitude": 10.0}
    deceptive = {"kind": "constant", "value": 0.5}

    cfg_a = dict(common, experiment="coverage-ebr", signal=structured, reps=500,
                 grid={"t": [0.0], "M": m_grid},
                 calibrate={"nominal": 0.95, "reps": 300})
    header, rows = run_experiment(cfg_a, seed=808)
    cal = next(r for r in rows if r[header.index("m_kind")] == "calibrated")
    cov_a = cal[header.index("coverage")]
    ratio_a = cal[header.index("mean_radius_to_oracle")]
    m_star = cal[header.index("M")]
    assert cov_a >= 0.93, cov_a
    assert ratio_a <= 5.0, ratio_a

    cfg_b = dict(common, experiment="coverage-ebr", signal=deceptive, reps=500,
                 grid={"t": [0.0], "M": [m_star]})
    header_b, rows_b = run_experiment(cfg_b, seed=808)
    cov_b = rows_b[0][header_b.index("coverage")]
    assert cov_b < 0.90, cov_b

    q_grid = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
    cfg_c = dict(common, experiment="coverage-quarter", signal=structured, reps=300,
                 grid={"M": q_grid}, calibrate={"nominal": 0.95, "reps": 300})
    header_c, rows_c = run_experiment(cfg_c, seed=808)
    cal_q = next(r for r in rows_c if r[header_c.index("m_kind")] == "calibrated")
    m_quarter = cal_q[header_c.index("M")]
    cfg_d = dict(common, experiment="coverage-quarter", signal=deceptive, reps=500,
                 grid={"M": [m_quarter]})
    header_d, rows_d = run_experiment(cfg_d, seed=808)
    cov_d = rows_d[0][header_d.index("coverage")]
    assert cov_d >= 0.93, cov_d
    report(f"criterion 8 (coverage dichotomy): PASS — structured: EBR coverage "
           f"{cov_a:.3f} >= 0.93 at radius {ratio_a:.2f}x oracle (<=5x); deceptive: "
           f"EBR coverage {cov_b:.3f} < 0.90 while quarter ball {cov_d:.3f} >= 0.93")


# ---------------------------------------------------------------------------
# 9. weak recovery shell
# ---------------------------------------------------------------------------


def test_criterion_9_weak_recovery_shell():
    cfg = {
        "experiment": "recovery-shell",
        "family": {"kind": "sparsity", "n": 100},
        "signal": {"kind": "sparse", "s": 5, "amplitude": 12.0},
        "sigma": 1.0,
        "kappa": 1.0,
        "reps": 500,
        "grid": {"M": [0.0, 1.0, 2.0, 4.0]},
        "constants": {"kappa": 1.0, "strict": False},
        "calibrate": {"nominal": 0.95, "reps": 300},
    }
    header, rows = run_experiment(cfg, seed=909)
    cal = next(r for r in rows if r[header.index("m_kind")] == "calibrated")
    freq = cal[header.index("freq_lower")]
    rho_star = cal[header.index("rho_tau0_oracle")]
    assert rho_star > 0.0, "tau0-oracle must be non-trivial for this check"
    assert freq >= 0.95, freq
    report(f"criterion 9 (weak recovery shell): PASS — P(rho(I_hat) >= "
           f"0.1*rho(I*) - M) = {freq:.3f} >= 0.95 with rho(I*) = {rho_star:.1f}")


# ---------------------------------------------------------------------------
# 10. CLI determinism over every experiment
# ---------------------------------------------------------------------------


DETERMINISM_CONFIGS = {
    "contraction": {
        "experiment": "contraction",
        "family": {"kind": "smoothness", "n": 16},
        "signal": {"kind": "sobolev", "beta": 1.0, "Q": 1.0},
        "sigma": 0.25, "kappa": 1.0, "reps": 5, "posterior_draws": 20,
        "grid": {"M": [0.0, 2.0]},
        "constants": {"kappa": 1.0, "strict": False, "M0_override": 1.0},
    },
    "estimation-risk": {
        "experiment": "estimation-risk",
        "family": {"kind": "sparsity", "n": 12},
        "signal": {"kind": "sparse", "s": 2, "amplitude": 6.0},
        "sigma": 1.0, "kappa": 1.0, "reps": 5,
    },
    "coverage-ebr": {
        "experiment": "coverage-ebr",
        "family": {"kind": "sparsity", "n": 12},
        "signal": {"kind": "sparse", "s": 2, "amplitude": 6.0},
        "sigma": 1.0, "kappa": 1.0, "reps": 5,
        "grid": {"t": [0.0], "M": [0.0, 1.0]},
        "constants": {"kappa": 1.0, "strict": False, "M2_override": 1.0},
    },
    "coverage-quarter": {
        "experiment": "coverage-quarter",
        "family": {"kind": "sparsity", "n": 12},
        "signal": {"kind": "sparse", "s": 2, "amplitude": 6.0},
        "sigma": 1.0, "kappa": 1.0, "reps": 5, "grid": {"M": [0.5]},
        "constants": {"kappa": 1.0, "strict": False},
    },
    "size": {
        "experiment": "size",
        "family": {"kind": "jump", "n": 10},
        "signal": {"kind": "piecewise", "breaks": [4], "levels": [0.0, 3.0]},
        "sigma": 1.0, "kappa": 1.0, "reps": 5,
        "constants": {"kappa": 1.0, "strict": False},
    },
    "recovery-shell": {
        "experiment": "recovery-shell",
        "family": {"kind": "sparsity", "n": 12},
        "signal": {"kind": "sparse", "s": 2, "amplitude": 8.0},
        "sigma": 1.0, "kappa": 1.0, "reps": 5, "grid": {"M": [0.0, 10.0]},
        "constants": {"kappa": 1.0, "strict": False},
    },
    "rate-scaling": {
        "experiment": "rate-scaling",
        "family": {"kind": "smoothness"},
        "signal": {"kind": "sobolev", "beta": 1.0, "Q": 1.0},
        "sigma": "1/sqrt(n)", "kappa": 1.0, "reps": 5, "grid": {"n": [16, 32]},
    },
}
# Columns that must hold a nonzero value, so that a change to the oracle
# rate or to the upper shell bound would change the determinism CSVs.
DETERMINISM_NONZERO = {"contraction": "frac_exceed", "recovery-shell": "freq_upper"}


def test_criterion_10_simulate_determinism(tmp_path):
    assert set(DETERMINISM_CONFIGS) == {
        "contraction", "estimation-risk", "coverage-ebr", "coverage-quarter",
        "size", "recovery-shell", "rate-scaling"}
    for name, cfg in DETERMINISM_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        blobs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{name}-{attempt}.csv"
            r = subprocess.run(
                [sys.executable, "-m", "projstruct.cli", "simulate",
                 "--config", str(cfg_path), "--out", str(out), "--seed", "31337"],
                capture_output=True, text=True)
            assert r.returncode == 0, (name, r.stderr)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{name} output not byte-identical"
        if name in DETERMINISM_NONZERO:
            column = DETERMINISM_NONZERO[name]
            rows = csv.DictReader(line for line in blobs[0].decode().splitlines()
                                  if not line.startswith("#"))
            assert any(float(row[column]) != 0.0 for row in rows), (name, column)
    report("criterion 10 (determinism): PASS — byte-identical CSVs for all 7 "
           "experiments under a repeated seed")
