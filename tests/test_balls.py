import math
from types import SimpleNamespace

import numpy as np
import pytest

from projstruct.balls import (
    duplicate_gaussian,
    ebr_radius_sq,
    highly_structured,
    quarter_radius_sq,
    v_statistic,
)
from projstruct.errors import DimensionMismatchError
from projstruct.experiments import _center, _hits
from projstruct.linalg import sq_norm
from projstruct.oracle import FrameworkConstants
from projstruct.structures import SparseSet, SparsityFamily


CONST = FrameworkConstants()
FAM = SparsityFamily(6)


def ebr_radius(t, M, I_hat=SparseSet((0, 1))):
    return ebr_radius_sq(FAM.majorant(I_hat), 1.0, CONST, t, M)


def quarter_radius(y_prime, theta_hat, sigma, M, M1, v_stat):
    """The quarter ball's squared radius from Y', theta_hat and V."""
    stat = sq_norm(y_prime - theta_hat) - sigma**2 * v_stat
    return quarter_radius_sq(stat, sigma, M, M1, y_prime.size)


def test_ebr_radius_formula():
    rho = FAM.majorant(SparseSet((0, 1)))
    assert ebr_radius(0.0, 0.0) == pytest.approx(CONST.M2 * (1.0 + rho))
    assert ebr_radius(0.0, 0.0, I_hat=SparseSet(())) == pytest.approx(CONST.M2)
    assert ebr_radius(2.0, 3.0, I_hat=SparseSet(())) == pytest.approx(
        3.0 * CONST.M2 + 4.0 * 3.0)


def test_ebr_radius_monotone_in_t_and_M():
    grid = [0.0, 0.5, 1.0, 4.0]
    radii_t = [ebr_radius(t, 1.0) for t in grid]
    radii_m = [ebr_radius(1.0, m) for m in grid]
    assert radii_t == sorted(radii_t)
    assert radii_m == sorted(radii_m)


def test_quarter_ball_arithmetic_example():
    # ||Y' - theta_hat||^2 - sigma^2 V = 0, N=16, M=1, M1=3 -> radius 2*2*4 = 16
    theta_hat = np.zeros(16)
    y_prime = np.zeros(16)
    radius_sq = quarter_radius(y_prime, theta_hat, sigma=1.0, M=1.0, M1=3.0, v_stat=0.0)
    assert radius_sq == pytest.approx(16.0)


def test_quarter_ball_clamp_and_zero_margin():
    y = np.ones(4)
    assert quarter_radius(y, y, sigma=1.0, M=0.0, M1=3.0, v_stat=4.0) == 0.0
    zero_margin = quarter_radius(y + 1.0, y, sigma=1.0, M=0.0, M1=3.0, v_stat=0.0)
    assert zero_margin == 4.0  # ||Y' - theta_hat||^2, no margin at M = 0
    assert quarter_radius(y, y, sigma=1.0, M=1.0, M1=0.0, v_stat=100.0) == 0.0


def test_quarter_ball_monotone_in_M():
    rng = np.random.default_rng(4)
    y_prime = rng.standard_normal(9)
    theta_hat = np.zeros(9)
    radii = [quarter_radius(y_prime, theta_hat, 1.0, M, 3.0, 9.0)
             for M in (0.0, 0.5, 1.0, 2.0, 8.0)]
    assert radii == sorted(radii)


class _ZeroRng:
    @staticmethod
    def standard_normal(n):
        return np.zeros(n)


def test_duplicate_gaussian_identities():
    y = np.array([0.1, -2.3, 7.0])
    yp, ypp = duplicate_gaussian(y, 1.7, _ZeroRng())
    assert np.array_equal(yp, y) and np.array_equal(ypp, y)

    rng = np.random.default_rng(0)
    yp, ypp = duplicate_gaussian(y, 1.7, rng)
    assert np.array_equal(yp + ypp, 2.0 * y)


def test_duplicate_gaussian_moments():
    rng = np.random.default_rng(1)
    y = np.array([1.0, -0.5])
    sigma = 0.8
    draws = np.stack([duplicate_gaussian(y, sigma, rng)[0] for _ in range(100_000)])
    se = sigma / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - y) <= 3.0 * se)
    # duplication doubles the variance relative to a unit-noise original
    target = sigma**2
    se_var = target * math.sqrt(2.0 / draws.shape[0])
    assert np.all(np.abs(draws.var(axis=0) - target) <= 4.0 * se_var)


def test_v_statistic_values():
    assert v_statistic("unit-variance", np.zeros(7)) == 7.0
    got = v_statistic("bernoulli", np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert got == 1.0
    assert v_statistic("bernoulli", np.zeros(3), np.zeros(3)) == 0.0
    with pytest.raises(ValueError):
        v_statistic("bernoulli", np.zeros(3))
    with pytest.raises(ValueError):
        v_statistic("poisson", np.zeros(3))


def test_contains_closed_ball():
    """The coverage sweeps' membership test: `_center` checks the center
    against theta's length and `_hits` compares squared distances with
    closed-ball radii."""
    center = np.array([1.0, 2.0])

    def hit(theta, radius_sq):
        ctx = SimpleNamespace(theta=np.asarray(theta, dtype=float))
        return _hits(sq_norm(ctx.theta - _center(ctx, center)), [radius_sq])[0][0] == 1.0

    assert hit(center, 4.0)
    assert hit([3.0, 2.0], 4.0)  # boundary point, closed ball
    assert not hit([3.0 + 1e-9, 2.0], 4.0)
    assert not hit([1.0, 2.0 + 1e-12], 0.0)
    with pytest.raises(DimensionMismatchError):
        hit(np.zeros(3), 4.0)


def test_highly_structured_flag():
    assert highly_structured(rate_sq=0.5, sigma=1.0, ambient_dim=100, c=1.0)
    assert not highly_structured(rate_sq=50.0, sigma=1.0, ambient_dim=100, c=1.0)
