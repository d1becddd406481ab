"""Self-contained special functions and adaptive quadrature.

Everything the ergodic-rate analysis needs is implemented here without any
runtime special-function dependency:

* ``gamma_upper_0``: the upper incomplete gamma function at zero order,
  Gamma(0, x) = integral_x^inf exp(-t)/t dt (equal to the exponential
  integral E1).  Alternating series for x <= 1, modified-Lentz continued
  fraction for x > 1.
* ``bessel_k0`` / ``bessel_k1``: modified Bessel functions of the second
  kind.  Exact ascending series for x <= 2; for x > 2 a Chebyshev expansion
  of sqrt(x) exp(x) K_n(x) in 4/x - 1, fitted offline against a 40-digit
  reference (see scripts/fit_k_bessel_coeffs.py, max relative error < 2e-16
  on [2, 2e6]).
* ``integrate`` / ``integrate_semi_infinite``: globally adaptive bisection
  quadrature with the nested G10/K21 Gauss-Kronrod pair of QUADPACK qk21.
  Each panel samples the integrand once at the 21 Kronrod nodes, takes the
  K21 value, and uses |K21 - G10| over the 10 embedded Gauss nodes as its
  error estimate.  No node touches a panel end, so an integrable endpoint
  singularity is handled by subdivision alone; any non-finite sample raises
  ``NonFiniteSample``.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, NonFiniteSample, ToleranceNotMet

__all__ = [
    "EULER_GAMMA",
    "QuadratureSpec",
    "gamma_upper_0",
    "gamma_upper_0_scaled",
    "bessel_k0",
    "bessel_k1",
    "integrate",
    "integrate_semi_infinite",
]

EULER_GAMMA = 0.57721566490153286061

_SERIES_EPS = 1e-18
_CF_EPS = 1e-16
_MAX_PANELS = 4096


# ---------------------------------------------------------------------------
# Upper incomplete gamma at zero order

def _gamma0_cf(x: float) -> float:
    """exp(x) * Gamma(0, x) via the continued fraction, stable for x > 1."""
    b = x + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DomainError(f"continued fraction failed to converge at x={x}")


def _gamma0_series(x: float) -> float:
    """Gamma(0, x) = -euler - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!)."""
    total = -EULER_GAMMA - math.log(x)
    power = 1.0  # x^k / k!
    sign = 1.0
    for k in range(1, 200):
        power *= x / k
        sign = -sign
        term = -sign * power / k
        total += term
        if abs(term) < _SERIES_EPS * (abs(total) + 1e-300):
            break
    return total


def gamma_upper_0(x: float) -> float:
    """Gamma(0, x) for x > 0, relative accuracy ~1e-14 on [1e-8, 700]."""
    if not x > 0:
        raise DomainError(f"gamma_upper_0 requires x > 0, got {x}")
    if x <= 1.0:
        return _gamma0_series(x)
    return math.exp(-x) * _gamma0_cf(x)


def gamma_upper_0_scaled(x: float) -> float:
    """exp(x) * Gamma(0, x), overflow-free for large x (tends to 1/x)."""
    if not x > 0:
        raise DomainError(f"gamma_upper_0_scaled requires x > 0, got {x}")
    if x <= 1.0:
        return math.exp(x) * _gamma0_series(x)
    return _gamma0_cf(x)


# ---------------------------------------------------------------------------
# Modified Bessel functions K0, K1

# Chebyshev tables for sqrt(x) exp(x) K_n(x) as a series in v = 4/x - 1,
# x in [2, inf).  Generated by scripts/fit_k_bessel_coeffs.py.
_K0_LARGE_CHEB = (
    2.4403030820659555,
    -0.0314481013119645,
    0.0015698838857300533,
    -0.00012849549581627802,
    1.39498137188765e-05,
    -1.8317555227191195e-06,
    2.766813639445015e-07,
    -4.660489897687948e-08,
    8.574034017414225e-09,
    -1.6975345093890614e-09,
    3.5773972814003283e-10,
    -7.957489244477396e-11,
    1.8559491149549264e-11,
    -4.514597883374519e-12,
    1.1403405882073441e-12,
    -2.9800969231481784e-13,
    8.032890775068375e-14,
    -2.2275133267462965e-14,
    6.340076476276646e-15,
    -1.848593377920907e-15,
    5.5120559994043335e-16,
    -1.6782311257549003e-16,
    5.210391777643549e-17,
    -1.6475805939842515e-17,
    5.300433771177066e-18,
    -1.7331712005814717e-18,
    5.755109202868042e-19,
    -1.9390956052838417e-19,
)

_K1_LARGE_CHEB = (
    2.7206261904844427,
    0.10392373657681724,
    -0.002857816859622779,
    0.00019521551847135162,
    -1.936197974166083e-05,
    2.406484947837217e-06,
    -3.5019606030878126e-07,
    5.7410841254500495e-08,
    -1.0345762465678097e-08,
    2.0150497551970347e-09,
    -4.1903547593419254e-10,
    9.218315187605315e-11,
    -2.129967838427791e-11,
    5.139639673482343e-12,
    -1.2891739609498229e-12,
    3.348419666052243e-13,
    -8.976705182010146e-14,
    2.4771544242195988e-14,
    -7.0198370892147685e-15,
    2.038703166239861e-15,
    -6.057047270643018e-16,
    1.8380935752430452e-16,
    -5.689462849193643e-17,
    1.7940510478863452e-17,
    -5.75674448207302e-18,
    1.877865190161669e-18,
    -6.221645287337223e-19,
    2.0919125269469384e-19,
)


def _clenshaw(coeffs, v: float) -> float:
    b1 = b2 = 0.0
    for c in reversed(coeffs[1:]):
        b1, b2 = 2.0 * v * b1 - b2 + c, b1
    return v * b1 - b2 + coeffs[0] / 2.0


def _k0_small(x: float) -> float:
    # K0 = -(ln(x/2) + euler) I0(x) + sum_{k>=1} H_k y^k / (k!)^2, y = x^2/4
    y = 0.25 * x * x
    term = 1.0
    i0 = 1.0
    hsum = 0.0
    hk = 0.0
    for k in range(1, 60):
        term *= y / (k * k)
        hk += 1.0 / k
        i0 += term
        hsum += term * hk
        if term < _SERIES_EPS:
            break
    return -(math.log(0.5 * x) + EULER_GAMMA) * i0 + hsum


def _k1_small(x: float) -> float:
    # K1 = 1/x + ln(x/2) I1(x) - (x/4) sum_{k>=0} (H_k + H_{k+1} - 2 euler) y^k / (k!(k+1)!)
    y = 0.25 * x * x
    term = 1.0
    s_i1 = 1.0
    hk = 0.0
    hk1 = 1.0
    s_dig = 1.0 - 2.0 * EULER_GAMMA
    for k in range(1, 60):
        term *= y / (k * (k + 1))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        s_i1 += term
        s_dig += term * (hk + hk1 - 2.0 * EULER_GAMMA)
        if term < _SERIES_EPS:
            break
    i1 = 0.5 * x * s_i1
    return 1.0 / x + math.log(0.5 * x) * i1 - 0.25 * x * s_dig


def bessel_k0(x: float) -> float:
    """Modified Bessel K0(x) for x > 0, relative accuracy ~1e-14 on [1e-8, 700]."""
    if not x > 0:
        raise DomainError(f"bessel_k0 requires x > 0, got {x}")
    if x <= 2.0:
        return _k0_small(x)
    return _clenshaw(_K0_LARGE_CHEB, 4.0 / x - 1.0) * math.exp(-x) / math.sqrt(x)


def bessel_k1(x: float) -> float:
    """Modified Bessel K1(x) for x > 0, relative accuracy ~1e-14 on [1e-8, 700]."""
    if not x > 0:
        raise DomainError(f"bessel_k1 requires x > 0, got {x}")
    if x <= 2.0:
        return _k1_small(x)
    return _clenshaw(_K1_LARGE_CHEB, 4.0 / x - 1.0) * math.exp(-x) / math.sqrt(x)


# ---------------------------------------------------------------------------
# Adaptive quadrature

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive integrator."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-8
    max_depth: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be > 0")
        if not self.max_depth >= 1:
            raise DomainError("max_depth must be >= 1")


# G10/K21 Gauss-Kronrod pair, QUADPACK qk21 layout (Piessens et al., 1983):
# Kronrod nodes >= 0 from the outermost in (Gauss nodes at odd indices, the
# centre last), their K21 weights, and the G10 weights of the Gauss nodes.
# Correctly rounded from 30 digits; tests/test_specfun.py rebuilds them.
_XGK = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
    0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
    0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
    0.14887433898163122, 0.0,
)
_WGK = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169,
)
_WG = (
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287,
)


def _kronrod(f, a, b):
    """(K21 value, |K21 - G10|) on [a, b]; the nodes never touch a or b."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    k21 = g10 = 0.0
    for i, t in enumerate(_XGK):
        for x in (mid - half * t, mid + half * t) if t else (mid,):
            v = f(x)
            if not math.isfinite(v):
                raise NonFiniteSample(f"integrand returned {v} at x={x}")
            k21 += _WGK[i] * v
            if i % 2:
                g10 += _WG[i // 2] * v
    return half * k21, abs(half * (k21 - g10))


def integrate(f, lo: float, hi: float, spec: QuadratureSpec | None = None):
    """Adaptive quadrature of ``f`` on [lo, hi].

    Returns ``(value, error_estimate)``.  Panels with the largest error
    estimates are bisected first, down to ``spec.max_depth`` levels.  If the
    requested tolerance cannot be met a ``ToleranceNotMet`` warning is issued
    and the best value is returned together with the achieved estimate.  A
    non-finite integrand value raises ``NonFiniteSample``.
    """
    spec = spec or QuadratureSpec()
    if not lo < hi:
        raise DomainError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")

    value, err = _kronrod(f, lo, hi)
    # heap entries: (-err, seq, a, b, value, depth)
    heap = [(-err, 0, lo, hi, value, 0)]
    done = []
    seq = 1
    total_value, total_err = value, err

    while heap:
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total_value)):
            break
        if seq > _MAX_PANELS:
            break
        neg_err, _, a, b, v, depth = heapq.heappop(heap)
        m = 0.5 * (a + b)
        # too deep, or the interval is exhausted at float resolution
        if depth >= spec.max_depth or not a < m < b:
            done.append((a, b, v, -neg_err))
            continue
        v1, e1 = _kronrod(f, a, m)
        v2, e2 = _kronrod(f, m, b)
        total_value += (v1 + v2) - v
        total_err += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, seq, a, m, v1, depth + 1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, m, b, v2, depth + 1))
        seq += 1

    # Recompute totals from the final disjoint panels, left to right, so the
    # result does not depend on the refinement history.
    panels = done + [(a, b, v, -ne) for ne, _, a, b, v, _ in heap]
    panels.sort(key=lambda t: t[0])
    value = math.fsum(t[2] for t in panels)
    err = math.fsum(t[3] for t in panels)
    if err > max(spec.abs_tol, spec.rel_tol * abs(value)):
        warnings.warn(
            f"quadrature error estimate {err:.3e} exceeds tolerance "
            f"(abs {spec.abs_tol:.1e}, rel {spec.rel_tol:.1e})",
            ToleranceNotMet,
            stacklevel=2,
        )
    return value, err


def integrate_semi_infinite(f, lo: float, spec: QuadratureSpec | None = None):
    """Quadrature of ``f`` on [lo, inf) via the substitution x = lo + u/(1-u)."""

    def g(u):
        one_minus = 1.0 - u
        x = lo + u / one_minus
        return f(x) / (one_minus * one_minus)

    return integrate(g, 0.0, 1.0, spec)
