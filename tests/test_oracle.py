import logging
import math

import numpy as np
import pytest

from projstruct.oracle import (
    FrameworkConstants,
    ebr_ratio,
    kappa_lower,
    oracle_rate,
)
from projstruct.selection import objective
from projstruct.structures import (
    SmoothnessFamily,
    SparseSet,
    SparsityFamily,
    Truncation,
)
from conftest import enumerate_small, small_families


def practical_constants(kappa=1.0):
    return FrameworkConstants(kappa=kappa, strict=False)


def test_constant_formulas_match_proofs():
    c = FrameworkConstants()  # defaults alpha=0.4, nu=1.5
    assert kappa_lower(0.4, 1.5) == pytest.approx((32 * 1.5 + 10 + 0.4) / (4 * 0.4))
    assert c.kappa_bar == pytest.approx(36.5)
    assert c.tau_bar == pytest.approx(3.0 * (1.0 + c.kappa * 0.4) / 0.4)
    c1 = c.kappa * c.alpha / 4 - 5 / 8 - c.alpha / 16
    assert c1 > 2 * c.nu  # the summability requirement behind kappa_bar
    assert c.c3 == pytest.approx(6 / 0.4 + 4 * c.kappa)
    assert c.M0 == pytest.approx(c.c3 * (2 * 1.5 + 2 * 0.4 + 4) / 0.4)
    assert c.M1 == pytest.approx(12 * c.c3 * (1.5 + 1) / 0.4)
    assert c.M2 == pytest.approx(c.M1 / 0.1)


def test_tau0_example_value_and_monotonicity():
    c = FrameworkConstants(delta=0.1)
    assert c.tau0 == pytest.approx(11 / 9 * c.tau_bar + 0.1)
    assert FrameworkConstants(delta=1e-9).tau0 == pytest.approx(c.tau_bar + 0.1, abs=1e-6)
    vals = [FrameworkConstants(delta=d).tau0 for d in (0.1, 0.3, 0.5, 0.7)]
    assert vals == sorted(vals)


def test_strict_mode_enforces_kappa_bound(caplog):
    import projstruct.oracle as oracle_mod

    with pytest.raises(ValueError):
        FrameworkConstants(kappa=1.0, strict=True)
    oracle_mod._WARNED_PRACTICAL.clear()
    with caplog.at_level(logging.WARNING):
        FrameworkConstants(kappa=1.0, strict=False)
    assert any("practical mode" in r.message for r in caplog.records)


def test_oracle_exactly_structured_signal():
    fam = SparsityFamily(12)
    theta = np.zeros(12)
    theta[[2, 7]] = 25.0  # strong enough that no cheaper structure wins
    report = oracle_rate(theta, fam, sigma=1.0, tau=2.0)
    assert report.structure == SparseSet((2, 7))
    assert report.approx_sq == pytest.approx(0.0, abs=1e-18)
    assert report.rate_sq == pytest.approx(2.0 * fam.majorant(SparseSet((2, 7))))


def test_oracle_never_exceeds_full_dimension_budget():
    rng = np.random.default_rng(0)
    fam = SmoothnessFamily(10)
    for _ in range(25):
        theta = rng.standard_normal(10) * rng.uniform(0.1, 10.0)
        sigma = rng.uniform(0.2, 3.0)
        report = oracle_rate(theta, fam, sigma=sigma, tau=1.0)
        assert report.rate_sq <= 10 * sigma**2 + 1e-9


def test_geometric_smoothness_oracle_matches_bruteforce_scan():
    theta = np.array([2.0 ** (-i) for i in range(10)])
    fam = SmoothnessFamily(10)
    report = oracle_rate(theta, fam, sigma=0.5, tau=1.0)
    # independent oracle: direct scan over all truncation levels
    objs = []
    for level in range(11):
        tail = float(np.sum(theta[level:] ** 2))
        objs.append(tail + 0.25 * level)
    best = min(range(11), key=lambda l: (round(objs[l] / 1e-12), l))
    assert report.structure == Truncation(best)
    assert report.rate_sq == pytest.approx(objs[best], rel=1e-12)


def test_oracle_reports_are_minimal_over_enumeration():
    rng = np.random.default_rng(8)
    fams = small_families()
    for name, fam in fams.items():
        for _ in range(5):
            theta = rng.standard_normal(fam.ambient_dim)
            sigma = float(rng.uniform(0.3, 1.5))
            report = oracle_rate(theta, fam, sigma=sigma, tau=1.0)
            for s in enumerate_small(fam):
                r2 = objective(theta, fam, s, sigma, 0.5)
                assert report.rate_sq <= r2 + 1e-12, (name, s)


@pytest.mark.parametrize("name", ["smoothness", "sparsity", "jump", "banding"])
def test_tau_oracle_sandwich_and_rho_monotonicity(name):
    rng = np.random.default_rng(13)
    fam = small_families()[name]
    for _ in range(100):
        theta = rng.standard_normal(fam.ambient_dim) * rng.uniform(0.2, 4.0)
        sigma = float(rng.uniform(0.3, 2.0))
        base = oracle_rate(theta, fam, sigma, tau=1.0)
        prev_rho = math.inf
        for tau in (1.0, 2.0, 5.0):
            rep = oracle_rate(theta, fam, sigma, tau=tau)
            plain_rate = rep.approx_sq + sigma**2 * fam.majorant(rep.structure)
            assert base.rate_sq <= plain_rate + 1e-10
            assert plain_rate <= tau * base.rate_sq + 1e-10
            rho = fam.majorant(rep.structure)
            assert rho <= prev_rho + 1e-12
            prev_rho = rho


def test_ebr_ratio_zero_iff_structured_and_deceptive_example():
    c = FrameworkConstants()
    fam = SparsityFamily(12)
    theta = np.zeros(12)
    theta[3] = 100.0
    assert ebr_ratio(theta, fam, 1.0, c) <= 0.0  # b = 0: in the EBR class at t = 0

    # deceptive signal: every coordinate at half noise level
    fam50 = SparsityFamily(50)
    sigma = 2.0
    theta = np.full(50, 0.5 * sigma)
    b = ebr_ratio(theta, fam50, sigma, c)
    # the tau0-oracle collapses to the empty set, so b = n/4 exactly
    assert b == pytest.approx(12.5)
    assert b > 1.0
    # joint scaling of (theta, sigma) leaves the ratio unchanged
    assert ebr_ratio(3.0 * theta, fam50, 3.0 * sigma, c) == pytest.approx(b, rel=1e-12)


def test_ebr_class_nesting():
    c = practical_constants()
    fam = SparsityFamily(20)
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta = rng.standard_normal(20)
        # the class at level t is {b <= t}, so the classes nest in t once b
        # is a number >= 0
        assert 0.0 <= ebr_ratio(theta, fam, 1.0, c) < math.inf
