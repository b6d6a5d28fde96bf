"""Confidence balls: the EBR construction and the N^{1/4}-margin construction.

The EBR ball inflates the data-driven radius r_hat^2 = sigma^2 (1 + rho(I_hat))
by the structural parameter t; its coverage holds over the excessive-bias
class only.  The quarter ball de-biases ||Y' - theta_hat||^2 with a V
statistic and pays an explicit sigma^2 sqrt(N) margin in exchange for
coverage over the whole space.  Y' must be independent of the sample that
produced theta_hat; Gaussian duplication manufactures such a pair at the cost
of doubling the variance, while the Bernoulli V statistic requires a genuine
second sample.

A coverage experiment asks, for each replication, whether theta lies in the
ball for every cell of a (t, M) or M grid.  Only the radius depends on the
cell, so a replication takes its statistics once: the majorant rho(I_hat)
for the EBR ball, ||Y' - theta_hat||^2 - sigma^2 V for the quarter ball, and
||theta - theta_hat||^2 for both; each cell is then `ebr_radius_sq` or
`quarter_radius_sq` and one comparison.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_vector
from .oracle import FrameworkConstants


def ebr_radius_sq(rho_hat: float, sigma: float, constants: FrameworkConstants,
                  t: float, M: float) -> float:
    """(t+1) M2 r_hat^2 + (t+2) M sigma^2 with r_hat^2 = sigma^2 (1 + rho(I_hat))."""
    r_hat_sq = sigma**2 * (1.0 + rho_hat)
    return (t + 1.0) * constants.M2 * r_hat_sq + (t + 2.0) * M * sigma**2


def quarter_radius_sq(stat: float, sigma: float, M: float, M1: float, n: int) -> float:
    """(stat + 2 sigma^2 G_M sqrt(n))_+ with G_M = sqrt(M (M + M1)), where
    stat = ||Y' - theta_hat||^2 - sigma^2 V and n is the length of Y'."""
    if M < 0 or M1 < 0:
        raise ValueError("M and M1 must be nonnegative")
    g_m = math.sqrt(M * (M + M1))
    return max(stat + 2.0 * sigma**2 * g_m * math.sqrt(n), 0.0)


def duplicate_gaussian(Y, sigma: float, rng):
    """Randomized duplication (Y + sigma Z, Y - sigma Z) for Gaussian noise.

    The second sample is computed as 2Y - Y' so the pair sums to 2Y; each
    copy carries twice the original noise variance.
    """
    Y = as_vector(Y)
    z = rng.standard_normal(Y.size)
    y_prime = Y + sigma * z
    y_second = 2.0 * Y - y_prime
    return y_prime, y_second


def v_statistic(kind: str, Y_prime, Y=None) -> float:
    """V statistic used to de-bias ||xi'||^2: N for unit-variance noise,
    sum Y'_i - sum Y'_i Y_i in the Bernoulli model."""
    Y_prime = as_vector(Y_prime)
    if kind == "unit-variance":
        return float(Y_prime.size)
    if kind == "bernoulli":
        if Y is None:
            raise ValueError("the Bernoulli V statistic needs both samples")
        Y = as_vector(Y)
        if Y.size != Y_prime.size:
            raise DimensionMismatchError("samples must have equal length")
        return float(np.sum(Y_prime) - np.sum(Y_prime * Y))
    raise ValueError(f"unknown V statistic kind {kind!r}")


def highly_structured(rate_sq: float, sigma: float, ambient_dim: int, c: float = 1.0) -> bool:
    """Flag for r^2(theta) <= c sigma^2 sqrt(N), where the quarter ball's
    sqrt(N) margin dominates the oracle rate."""
    return rate_sq <= c * sigma**2 * math.sqrt(ambient_dim)
