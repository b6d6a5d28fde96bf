"""Oracle structures, tau-oracles, excessive-bias diagnostics, and the
constants that the theory attaches to them.

The constants bundle wires together the noise exponent alpha, the summability
exponent nu, the penalty scale kappa, and the derived quantities kappa_bar,
tau_bar, tau0, c3 and M0..M2.  Strict mode enforces the theoretical lower
bound on kappa; practical mode only logs, because the theoretical bound
(about 37 for the default alpha, nu) makes penalties far too large for
desk-scale experiments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .selection import Projections, select_penalized
from .structures import Family

logger = logging.getLogger(__name__)
_WARNED_PRACTICAL: set[tuple[float, float, float]] = set()


def kappa_lower(alpha: float, nu: float) -> float:
    """Smallest admissible penalty scale: (32 nu + 10 + alpha) / (4 alpha)."""
    return (32.0 * nu + 10.0 + alpha) / (4.0 * alpha)


@dataclass(frozen=True)
class FrameworkConstants:
    alpha: float = 0.4
    nu: float = 1.5
    kappa: float | None = None  # defaults to just above the strict bound
    delta: float = 0.1
    strict: bool = True
    # overrides for the proof-derived values; None means "use the formula"
    M0_override: float | None = None
    M1_override: float | None = None
    M2_override: float | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.kappa is None:
            object.__setattr__(self, "kappa", kappa_lower(self.alpha, self.nu) + 0.5)
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.kappa <= self.kappa_bar:
            if self.strict:
                raise ValueError(
                    f"strict mode requires kappa > kappa_bar = {self.kappa_bar:.6g}")
            key = (self.kappa, self.alpha, self.nu)
            if key not in _WARNED_PRACTICAL:  # one warning per configuration
                _WARNED_PRACTICAL.add(key)
                logger.warning(
                    "practical mode: kappa=%.6g is below the theoretical bound %.6g; "
                    "theorem constants no longer apply", self.kappa, self.kappa_bar)

    @property
    def kappa_bar(self) -> float:
        return kappa_lower(self.alpha, self.nu)

    @property
    def tau_bar(self) -> float:
        return 3.0 * (1.0 + self.kappa * self.alpha) / self.alpha

    @property
    def tau0(self) -> float:
        """tau0(delta) = ((1+delta)/(1-delta)) * tau_bar + 0.1."""
        return (1.0 + self.delta) / (1.0 - self.delta) * self.tau_bar + 0.1

    @property
    def c3(self) -> float:
        return 6.0 / self.alpha + 4.0 * self.kappa

    @property
    def M0(self) -> float:
        if self.M0_override is not None:
            return self.M0_override
        return self.c3 * (2.0 * self.nu + 2.0 * self.alpha + 4.0) / self.alpha

    @property
    def M1(self) -> float:
        if self.M1_override is not None:
            return self.M1_override
        return 12.0 * self.c3 * (self.nu + 1.0) / self.alpha

    @property
    def M2(self) -> float:
        if self.M2_override is not None:
            return self.M2_override
        return self.M1 / self.delta

    @property
    def recovery_upper_factor(self) -> float:
        # M0' from the strong-form size relation
        return 2.0 * self.kappa * self.alpha


@dataclass(frozen=True)
class OracleReport:
    """Best trade-off between approximation error and penalized complexity."""

    structure: object
    approx_sq: float
    rate_sq: float  # approx_sq + tau * sigma^2 * rho(I_o)


def oracle_rate(theta, family: Family, sigma: float, tau: float = 1.0,
                mode: str = "exact") -> OracleReport:
    """tau-oracle report: minimizes ||theta - P_I theta||^2 + tau sigma^2 rho(I).

    Reuses the penalized selector with Y replaced by theta and kappa = tau/2,
    since pen(I) = 2 kappa rho(I).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    proj = Projections(theta, family)
    structure, _ = select_penalized(theta, family, sigma, tau / 2.0, mode=mode, proj=proj)
    approx = proj.rss(structure)
    return OracleReport(structure, approx, approx + tau * sigma**2 * family.majorant(structure))


def ebr_ratio(theta, family: Family, sigma: float, constants: FrameworkConstants,
              mode: str = "exact") -> float:
    """Excessive bias ratio b(theta) = ||theta - P_{I*}theta||^2 / (sigma^2 (1 + rho(I*)))
    at the tau0-oracle I*."""
    report = oracle_rate(theta, family, sigma, constants.tau0, mode=mode)
    rho = family.majorant(report.structure)
    return report.approx_sq / (sigma**2 * (1.0 + rho))
