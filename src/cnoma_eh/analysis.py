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

import numpy as np

from .errors import DomainError
from .model import DesignPoint, SystemParams
from .specfun import (
    _XGK,
    EULER_GAMMA,
    QuadratureSpec,
    _float_or_array,
    bessel_k0,
    bessel_k1,
    gamma_upper_0_scaled,
    integrate,
)

__all__ = [
    "ErgodicReport",
    "ergodic_rate_u1",
    "prob_y_exceeds",
    "prob_w_exceeds",
    "w1_cdf",
    "w2_density",
    "ergodic_rate_u2",
    "ergodic_weighted_sum",
    "high_snr_u1",
    "high_snr_u2",
]

_HALF_LN2_INV = 1.0 / (2.0 * math.log(2.0))


@dataclass(frozen=True)
class ErgodicReport:
    """Analytic ergodic rates in bits/s/Hz: closed-form c1_e, quadrature
    c2_e, their weighted sum c_sum_e, and ``quadrature_error``, the
    outer-rule error estimate of c2_e.  (Monte Carlo estimates are the
    point dicts of ``montecarlo.estimate_ergodic``.)
    """

    c1_e: float
    c2_e: float
    c_sum_e: float
    quadrature_error: float


def _k_factor(p: SystemParams, d: DesignPoint) -> float:
    return (1.0 - d.rho + p.mu) / ((1.0 - d.rho) * d.alpha * p.avg_snr * p.var1)


def ergodic_rate_u1(p: SystemParams, d: DesignPoint) -> float:
    """Closed-form ergodic rate of the strong user:
    (1 / (2 ln 2)) e^k Gamma(0, k), evaluated in overflow-free scaled form."""
    return _HALF_LN2_INV * gamma_upper_0_scaled(_k_factor(p, d))


def _nonnegative_z(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0):
        raise DomainError(f"z must be >= 0, got {z[~(z >= 0)].flat[0]}")
    return z


def _not_nan_z(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if np.isnan(z).any():
        raise DomainError("z must not be NaN")
    return z


def _exp_tail(coeff: float, z: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """exp(-coeff z / slack), and 0 where slack <= 0; NaN stays NaN."""
    ratio = np.divide(z, slack, out=np.full_like(z, np.inf), where=~(slack <= 0.0))
    return np.exp(-coeff * ratio)


def prob_y_exceeds(p: SystemParams, d: DesignPoint, z):
    """Tail of U1's decode SINR for x2 at each z (a float or an array): zero
    at and beyond (1-alpha)/alpha."""
    z = _nonnegative_z(z)
    coeff = (1.0 - d.rho + p.mu) / (p.avg_snr * p.var1 * (1.0 - d.rho))
    return _float_or_array(_exp_tail(coeff, z, 1.0 - d.alpha - d.alpha * z))


def w1_cdf(p: SystemParams, d: DesignPoint, z):
    """CDF of the direct-link SINR at U2; saturates to 1 at (1-alpha)/alpha."""
    z = np.maximum(_not_nan_z(z), 0.0)
    tail = _exp_tail((1.0 + p.mu) / (p.avg_snr * p.var2), z, 1.0 - d.alpha - d.alpha * z)
    return _float_or_array(np.where(z == 0.0, 0.0, 1.0 - tail))


def _lam(p: SystemParams, d: DesignPoint) -> float:
    if d.rho == 0.0:
        raise DomainError("relay-branch SINR degenerates at rho = 0")
    return (1.0 + p.mu) / (d.rho * p.eta * p.avg_snr * p.var1 * p.var3)


def w2_density(p: SystemParams, d: DesignPoint, z):
    """Density of the relay-branch SINR, 2 lam K0(2 sqrt(lam z)); has an
    integrable log singularity at 0."""
    lam = _lam(p, d)
    z = _not_nan_z(z)
    out = np.where(z < 0.0, 0.0, math.inf)
    pos = z > 0.0
    if pos.any():
        out[pos] = 2.0 * lam * bessel_k0(2.0 * np.sqrt(lam * z[pos]))
    return _float_or_array(out)


def _w2_survival(p: SystemParams, d: DesignPoint, z: np.ndarray) -> np.ndarray:
    lam = _lam(p, d)
    out = np.ones_like(z)
    pos = z > 0.0
    if pos.any():
        u = 2.0 * np.sqrt(lam * z[pos])
        out[pos] = u * bessel_k1(u)
    return out


def _w_convolution(p: SystemParams, d: DesignPoint, z: np.ndarray,
                   spec: QuadratureSpec) -> np.ndarray:
    """int_L(z)^z exp-kernel(z - y) f_W2(y) dy for every z > 0 at once.

    y = s^2 flattens the K0 log singularity at y = 0, and s in
    [sqrt(L(z)), sqrt(z)] maps onto u in [0, 1], so one ``integrate`` call
    runs the (z x nodes) array on a panel tree the z values share.
    """
    lam = _lam(p, d)
    zmax = (1.0 - d.alpha) / d.alpha
    coeff = (1.0 + p.mu) / (p.avg_snr * p.var2)
    k0_scale = 2.0 * math.sqrt(lam)
    zc = z[:, None]
    s_lo = np.sqrt(np.maximum(zc - zmax, 0.0))
    width = np.sqrt(zc) - s_lo

    def integrand(u):
        s = s_lo + width * u
        gap = zc - s * s
        kernel = _exp_tail(coeff, gap, 1.0 - d.alpha - d.alpha * gap)
        return kernel * (4.0 * lam * width) * s * bessel_k0(k0_scale * s)

    conv, _ = integrate(integrand, 0.0, 1.0, spec)
    return conv


def prob_w_exceeds(p: SystemParams, d: DesignPoint, z,
                   spec: QuadratureSpec | None = None):
    """Tail of U2's combiner SINR W = W1 + W2 at each z (a float or an
    array).

    rho = 0 uses the W1-only closed form; otherwise the Bessel tail plus the
    convolution integral, one shared quadrature for all z.  The result is
    clamped to [0, 1].
    """
    z = _nonnegative_z(z)
    if d.rho == 0.0:
        return _float_or_array(1.0 - np.asarray(w1_cdf(p, d, z)))
    out = np.ones_like(z)
    pos = z > 0.0
    if pos.any():
        zp = z[pos]
        conv = _w_convolution(p, d, zp, spec or QuadratureSpec())
        out[pos] = np.clip(_w2_survival(p, d, zp) + conv, 0.0, 1.0)
    return _float_or_array(out)


def ergodic_rate_u2(p: SystemParams, d: DesignPoint):
    """Ergodic rate of the weak user under the factored-tail approximation.

    Integrates Pr[Y > z] Pr[W > z] / (1 + z) over (0, zmax), zmax =
    (1-alpha)/alpha, and scales by 1 / (2 ln 2).  At z = 0 the integrand
    decays no faster than Pr[Y > z] Pr[W1 > z] (W >= W1), whose 1/e length
    there is ``length``.  A rule with every node beyond it (low SNR, rho
    near 1) sees only underflow, so zmax is cut by 4 until the first node of
    [0, cut] lies within it, one rule per piece.  Each outer panel's 21 z
    nodes go to ``prob_w_exceeds`` in one call, whose convolution integrals
    share one inner panel tree; each z still meets the inner tolerance on
    its own, 10x tighter than the default ``QuadratureSpec`` of the outer
    rule.  Returns ``(rate, error_estimate)`` where the estimate covers the
    outer quadrature.
    """
    spec = QuadratureSpec()
    inner_spec = replace(spec, rel_tol=spec.rel_tol * 0.1, abs_tol=spec.abs_tol * 0.1)
    zmax = (1.0 - d.alpha) / d.alpha
    length = (1.0 - d.alpha) / (d.alpha * _k_factor(p, d) + (1.0 + p.mu) / (p.avg_snr * p.var2))
    cuts = [zmax]
    while 0.5 * (1.0 - _XGK[0]) * cuts[0] > length:
        cuts.insert(0, 0.25 * cuts[0])

    def integrand(z):
        py = prob_y_exceeds(p, d, z)
        out = np.zeros_like(z)
        live = py > 0.0
        if live.any():
            out[live] = py[live] * prob_w_exceeds(p, d, z[live], inner_spec) / (1.0 + z[live])
        return out

    pieces = [integrate(integrand, lo, hi, spec) for lo, hi in zip([0.0, *cuts], cuts)]
    value, err = (math.fsum(x) for x in zip(*pieces))
    return max(0.0, _HALF_LN2_INV * value), _HALF_LN2_INV * err


def ergodic_weighted_sum(p: SystemParams, d: DesignPoint) -> ErgodicReport:
    """Analytic ergodic report: closed-form c1, quadrature c2, weighted sum."""
    c1 = ergodic_rate_u1(p, d)
    c2, err = ergodic_rate_u2(p, d)
    return ErgodicReport(
        c1_e=c1,
        c2_e=c2,
        c_sum_e=p.w1 * c1 + p.w2 * c2,
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
