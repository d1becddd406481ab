"""Ergodic rates for a fixed design point, and their high-SNR limits.

Under Rayleigh fading the channel power gains are exponential, which gives:

* Strong user: the decode SINR is an exponential variable, so the ergodic
  rate has the closed form (1 / (2 ln 2)) e^k Gamma(0, k) with
  k = (1 - rho + mu) / ((1 - rho) * alpha * snr * var1).
* Weak user: the rate is driven by min{Y, W} where Y is U1's decode SINR for
  x2 and W is U2's combiner SINR.  The tail of min{Y, W} is approximated by
  the product Pr[Y > z] Pr[W > z] (the two share g1, and that coupling fades
  as the SNR grows, so the factorization tightens with SNR).  W = W1 + W2
  where W1 is the direct-link SINR (a truncated exponential-like tail) and
  W2 is proportional to the product g1 * g3 of two exponentials, whose
  density is a Bessel kernel: f_W2(z) = 2 lam K0(2 sqrt(lam z)) and
  F_W2(z) = 1 - 2 sqrt(lam z) K1(2 sqrt(lam z)),
  lam = (1 + mu) / (rho * eta * snr * var1 * var3).  The convolution tail is

      Pr[W > z] = 1 - F_W2(z)
                  + int_L(z)^z exp(-(1+mu)(z-y) / (snr var2 (1-a-a z+a y)))
                              * f_W2(y) dy,

  with L(z) = 0 for z < (1-alpha)/alpha and z - (1-alpha)/alpha otherwise.
  Since Pr[Y > z] vanishes for z >= (1-alpha)/alpha the outer integral for
  the ergodic rate runs over a finite range.
* rho = 0 is an explicit branch: W2 degenerates to 0 and Pr[W > z] is the W1
  tail alone; no Bessel limit is ever taken.

High-SNR approximations: the strong-user rate grows like log2(snr)/2 while
the weak user's saturates at log2(1 + (1-alpha)/alpha)/2, so the weighted
sum scales as (w1/2) log2(snr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import DomainError
from .model import DesignPoint, SystemParams
from .specfun import (
    EULER_GAMMA,
    QuadratureSpec,
    bessel_k0,
    bessel_k1,
    gamma_upper_0_scaled,
    integrate,
)

__all__ = [
    "RateSource",
    "ErgodicReport",
    "HighSnrSum",
    "ergodic_rate_u1",
    "prob_y_exceeds",
    "prob_w_exceeds",
    "w1_cdf",
    "w2_density",
    "w2_cdf",
    "ergodic_rate_u2",
    "ergodic_weighted_sum",
    "high_snr_u1",
    "high_snr_u2",
    "high_snr_sum",
]

_HALF_LN2_INV = 1.0 / (2.0 * math.log(2.0))


class RateSource(Enum):
    ANALYTIC = "analytic"
    HIGH_SNR = "high-snr"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class ErgodicReport:
    """Per-configuration ergodic rates in bits/s/Hz.

    ``quadrature_error`` is the outer-rule error estimate of c2_e for
    analytic reports; ``sample_count`` and the ``*_se`` standard errors are
    set for Monte Carlo reports.
    """

    c1_e: float
    c2_e: float
    c_sum_e: float
    source: RateSource
    quadrature_error: float | None = None
    sample_count: int | None = None
    c1_se: float | None = None
    c2_se: float | None = None
    c_sum_se: float | None = None


@dataclass(frozen=True)
class HighSnrSum:
    """High-SNR weighted sum: the two-term form and its leading term."""

    two_term: float
    leading: float


def _k_factor(p: SystemParams, d: DesignPoint) -> float:
    return (1.0 - d.rho + p.mu) / ((1.0 - d.rho) * d.alpha * p.avg_snr * p.var1)


def ergodic_rate_u1(p: SystemParams, d: DesignPoint) -> float:
    """Closed-form ergodic rate of the strong user:
    (1 / (2 ln 2)) e^k Gamma(0, k), evaluated in overflow-free scaled form."""
    return _HALF_LN2_INV * gamma_upper_0_scaled(_k_factor(p, d))


def prob_y_exceeds(p: SystemParams, d: DesignPoint, z: float) -> float:
    """Tail of U1's decode SINR for x2: zero at and beyond (1-alpha)/alpha."""
    if z < 0:
        raise DomainError(f"z must be >= 0, got {z}")
    if z == 0.0:
        return 1.0
    slack = 1.0 - d.alpha - d.alpha * z
    if slack <= 0.0:
        return 0.0
    return math.exp(
        -(1.0 - d.rho + p.mu) * z / (p.avg_snr * p.var1 * (1.0 - d.rho) * slack)
    )


def w1_cdf(p: SystemParams, d: DesignPoint, z: float) -> float:
    """CDF of the direct-link SINR at U2; saturates to 1 at (1-alpha)/alpha."""
    if z <= 0.0:
        return 0.0
    slack = 1.0 - d.alpha - d.alpha * z
    if slack <= 0.0:
        return 1.0
    return 1.0 - math.exp(-(1.0 + p.mu) * z / (p.avg_snr * p.var2 * slack))


def _lam(p: SystemParams, d: DesignPoint) -> float:
    if d.rho == 0.0:
        raise DomainError("relay-branch SINR degenerates at rho = 0")
    return (1.0 + p.mu) / (d.rho * p.eta * p.avg_snr * p.var1 * p.var3)


def w2_density(p: SystemParams, d: DesignPoint, z: float) -> float:
    """Density of the relay-branch SINR, 2 lam K0(2 sqrt(lam z)); has an
    integrable log singularity at 0."""
    lam = _lam(p, d)
    if z < 0.0:
        return 0.0
    if z == 0.0:
        return math.inf
    return 2.0 * lam * bessel_k0(2.0 * math.sqrt(lam * z))


def w2_cdf(p: SystemParams, d: DesignPoint, z: float) -> float:
    """CDF of the relay-branch SINR, 1 - 2 sqrt(lam z) K1(2 sqrt(lam z))."""
    return 1.0 - _w2_survival(p, d, z)


def _w2_survival(p: SystemParams, d: DesignPoint, z: float) -> float:
    lam = _lam(p, d)
    if z <= 0.0:
        return 1.0
    u = 2.0 * math.sqrt(lam * z)
    return u * bessel_k1(u)


def _w_conv_kernel(p: SystemParams, d: DesignPoint, z: float):
    """exp kernel of the W1/W2 convolution tail as a function of y in (L, z]."""
    coeff = 1.0 + p.mu
    scale = p.avg_snr * p.var2

    def kernel(y: float) -> float:
        slack = 1.0 - d.alpha - d.alpha * (z - y)
        if slack <= 0.0:
            return 0.0
        return math.exp(-coeff * (z - y) / (scale * slack))

    return kernel


def prob_w_exceeds(p: SystemParams, d: DesignPoint, z: float,
                   spec: QuadratureSpec | None = None) -> float:
    """Tail of U2's combiner SINR W = W1 + W2.

    rho = 0 uses the W1-only closed form; otherwise the Bessel tail plus the
    convolution integral.  The result is clamped to [0, 1].
    """
    if z < 0:
        raise DomainError(f"z must be >= 0, got {z}")
    if z == 0.0:
        return 1.0
    if d.rho == 0.0:
        return 1.0 - w1_cdf(p, d, z)

    spec = spec or QuadratureSpec()
    kernel = _w_conv_kernel(p, d, z)
    lam = _lam(p, d)
    zmax = (1.0 - d.alpha) / d.alpha
    lower = 0.0 if z < zmax else z - zmax

    if lower == 0.0:
        # substitute y = s^2 to flatten the K0 log singularity at y = 0
        def integrand(s: float) -> float:
            if s <= 0.0:
                return 0.0
            y = s * s
            return kernel(y) * 4.0 * lam * s * bessel_k0(2.0 * math.sqrt(lam) * s)

        conv, _ = integrate(integrand, 0.0, math.sqrt(z), spec)
    else:
        def integrand(y: float) -> float:
            if y <= lower:
                return 0.0
            return kernel(y) * 2.0 * lam * bessel_k0(2.0 * math.sqrt(lam * y))

        conv, _ = integrate(integrand, lower, z, spec)

    return min(1.0, max(0.0, _w2_survival(p, d, z) + conv))


def ergodic_rate_u2(p: SystemParams, d: DesignPoint,
                    spec: QuadratureSpec | None = None):
    """Ergodic rate of the weak user under the factored-tail approximation.

    Integrates Pr[Y > z] Pr[W > z] / (1 + z) over (0, (1-alpha)/alpha) and
    scales by 1 / (2 ln 2).  Returns ``(rate, error_estimate)`` where the
    estimate covers the outer quadrature (inner convolution integrals run at
    a 10x tighter relative tolerance).
    """
    spec = spec or QuadratureSpec()
    inner_spec = replace(spec, rel_tol=spec.rel_tol * 0.1, abs_tol=spec.abs_tol * 0.1)
    zmax = (1.0 - d.alpha) / d.alpha

    def integrand(z: float) -> float:
        py = prob_y_exceeds(p, d, z)
        if py == 0.0:
            return 0.0
        return py * prob_w_exceeds(p, d, z, inner_spec) / (1.0 + z)

    value, err = integrate(integrand, 0.0, zmax, spec)
    return max(0.0, _HALF_LN2_INV * value), _HALF_LN2_INV * err


def ergodic_weighted_sum(p: SystemParams, d: DesignPoint,
                         spec: QuadratureSpec | None = None) -> ErgodicReport:
    """Analytic ergodic report: closed-form c1, quadrature c2, weighted sum."""
    c1 = ergodic_rate_u1(p, d)
    c2, err = ergodic_rate_u2(p, d, spec)
    return ErgodicReport(
        c1_e=c1,
        c2_e=c2,
        c_sum_e=p.w1 * c1 + p.w2 * c2,
        source=RateSource.ANALYTIC,
        quadrature_error=err,
    )


def high_snr_u1(p: SystemParams, d: DesignPoint) -> float:
    """High-SNR expansion of the strong-user ergodic rate:
    (1 / (2 ln 2)) (-euler - ln k + k)."""
    k = _k_factor(p, d)
    return _HALF_LN2_INV * (-EULER_GAMMA - math.log(k) + k)


def high_snr_u2(p: SystemParams, d: DesignPoint) -> float:
    """Saturation level of the weak-user ergodic rate:
    (1/2) log2(1 + (1-alpha)/alpha)."""
    return 0.5 * math.log2(1.0 + (1.0 - d.alpha) / d.alpha)


def high_snr_sum(p: SystemParams, d: DesignPoint) -> HighSnrSum:
    """High-SNR weighted sum: (w1/2) log2(snr) + (w2/2) log2(1/alpha), and
    the leading term alone."""
    leading = 0.5 * p.w1 * math.log2(p.avg_snr)
    return HighSnrSum(
        two_term=leading + 0.5 * p.w2 * math.log2(1.0 / d.alpha),
        leading=leading,
    )
