"""Self-contained special functions and adaptive quadrature.

Everything the ergodic-rate analysis needs is implemented here without any
runtime special-function dependency:

* ``gamma_upper_0_scaled``: exp(x) times the upper incomplete gamma
  function at zero order, Gamma(0, x) = integral_x^inf exp(-t)/t dt (equal
  to the exponential integral E1).  Alternating series for x <= 1,
  modified-Lentz continued fraction for x > 1.
* ``bessel_k0`` / ``bessel_k1``: modified Bessel functions of the second
  kind, for a float or elementwise for an array.  A fixed 16-term ascending
  series in y = x^2/4 for x <= 2; for x > 2 a Chebyshev expansion of
  sqrt(x) exp(x) K_n(x) in 4/x - 1, fitted offline against a 40-digit
  reference (see scripts/fit_k_bessel_coeffs.py, max relative error < 2e-16
  on [2, 2e6]) and summed by array Clenshaw.  A float runs the same array
  code, so it gets the same bits as that element of an array.
* ``integrate`` / ``integrate_semi_infinite``: globally adaptive bisection
  quadrature with the nested G10/K21 Gauss-Kronrod pair of QUADPACK qk21.
  Each panel takes the K21 value on its 21 Kronrod nodes and uses
  |K21 - G10| over the 10 embedded Gauss nodes as its error estimate.  The
  integrand is called once on the whole range's 21 nodes, then once per
  bisection, on the 42 nodes of both halves.  An integrand may return an
  (m, nodes) array: m integrals then share one panel tree, each component
  must meet its own tolerance, and the panel worst off relative to its
  tolerance is bisected next.  ``trees`` splits the components among
  independent panel trees that advance in lock-step, so one integrand call
  serves every tree's bisection and each tree keeps the bits it gets alone.
  No node touches a panel end, so an integrable endpoint singularity is
  handled by subdivision alone; any non-finite sample raises
  ``NonFiniteSample``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteSample, ToleranceNotMet

__all__ = [
    "EULER_GAMMA",
    "QuadratureSpec",
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
_MAX_DEPTH = 60


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


# Ascending series in y = x^2/4 for x <= 2, 16 terms (k = 0..15): with y <= 1
# the first dropped term is below 1/(16!)^2 < 3e-27 of the leading one.  Each
# coefficient is an exact ratio of integers (euler enters as its float value),
# and int / int is correctly rounded.  Tables run from the highest power down.
#   K0 = -(ln(x/2) + euler) I0(x) + sum_k H_k y^k / (k!)^2,
#   I0 = sum_k y^k / (k!)^2,
#   K1 = 1/x + ln(x/2) I1(x) - (x/4) sum_k (H_k + H_{k+1} - 2 euler) y^k / (k!(k+1)!),
#   I1 = (x/2) sum_k y^k / (k!(k+1)!).
_TERMS = range(15, -1, -1)
_FACT = [math.factorial(k) for k in range(17)]
_LCM = math.lcm(*range(1, 17))
_H = [sum(_LCM // j for j in range(1, k + 1)) for k in range(17)]  # _LCM * H_k
_EG_NUM, _EG_DEN = EULER_GAMMA.as_integer_ratio()
_I0_SERIES = tuple(1 / _FACT[k] ** 2 for k in _TERMS)
_K0_H_SERIES = tuple(_H[k] / (_LCM * _FACT[k] ** 2) for k in _TERMS)
_I1_SERIES = tuple(1 / (_FACT[k] * _FACT[k + 1]) for k in _TERMS)
_K1_H_SERIES = tuple(
    ((_H[k] + _H[k + 1]) * _EG_DEN - 2 * _EG_NUM * _LCM)
    / (_LCM * _EG_DEN * _FACT[k] * _FACT[k + 1])
    for k in _TERMS)


def _horner(coeffs, y):
    acc = np.full_like(y, coeffs[0])
    for c in coeffs[1:]:
        acc *= y
        acc += c
    return acc


def _clenshaw(coeffs, v):
    two_v = 2.0 * v
    b1 = np.zeros_like(v)
    b2 = np.zeros_like(v)
    for c in reversed(coeffs[1:]):
        b0 = two_v * b1
        b0 -= b2
        b0 += c
        b1, b2 = b0, b1
    return v * b1 - b2 + coeffs[0] / 2.0


def _k0_small(x):
    y = 0.25 * x * x
    return -(np.log(0.5 * x) + EULER_GAMMA) * _horner(_I0_SERIES, y) + _horner(_K0_H_SERIES, y)


def _k1_small(x):
    y = 0.25 * x * x
    i1 = 0.5 * x * _horner(_I1_SERIES, y)
    return 1.0 / x + np.log(0.5 * x) * i1 - 0.25 * x * _horner(_K1_H_SERIES, y)


def _float_or_array(out: np.ndarray):
    """A 0-d result as a float, any other as the array itself."""
    return out if out.ndim else float(out)


def _bessel_k(name, small, cheb, x):
    """K_n at every element of ``x``: the ascending series for x <= 2, the
    Chebyshev table in 4/x - 1 above.  A float gives a float."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise DomainError(f"{name} requires x > 0, got {x[~(x > 0)].flat[0]}")
    low = x <= 2.0
    out = np.empty_like(x)
    if low.any():
        out[low] = small(x[low])
    if not low.all():
        xh = x[~low]
        out[~low] = _clenshaw(cheb, 4.0 / xh - 1.0) * np.exp(-xh) / np.sqrt(xh)
    return _float_or_array(out)


def bessel_k0(x):
    """Modified Bessel K0(x) for x > 0 (a float or an array), relative
    accuracy ~1e-14 on [1e-8, 700].  A float goes through the array code and
    costs about 100 us, so pass many points as one array."""
    return _bessel_k("bessel_k0", _k0_small, _K0_LARGE_CHEB, x)


def bessel_k1(x):
    """Modified Bessel K1(x) for x > 0 (a float or an array), relative
    accuracy ~1e-14 on [1e-8, 700].  A float goes through the array code and
    costs about 100 us, so pass many points as one array."""
    return _bessel_k("bessel_k1", _k1_small, _K1_LARGE_CHEB, x)


# ---------------------------------------------------------------------------
# Adaptive quadrature

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive integrator."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be > 0")


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


# The 21 nodes in ascending order on [-1, 1], their K21 weights, and their
# G10 weights (zero at the Kronrod-only nodes).
_NODES = np.array([-t for t in _XGK[:-1]] + list(reversed(_XGK)))
_WK21 = np.array(_WGK[:-1] + _WGK[::-1])
_G10_HALF = tuple(_WG[i // 2] if i % 2 else 0.0 for i in range(len(_WGK)))
_WG10 = np.array(_G10_HALF[:-1] + _G10_HALF[::-1])


def _kronrod(f, a, b):
    """(K21 value, |K21 - G10|) of each integrand component on each panel
    [a, b], from one call of ``f``.  ``a`` and ``b`` hold p panel ends, as a
    (p,) row for every component or an (m, p) array with one row per
    component; ``f`` gets the panels' nodes as one (21 p,) row or as (m, 21 p)
    rows.  Returns two arrays of shape (p,) for a scalar integrand and (m, p)
    otherwise.  No node touches a or b."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[..., None] + half[..., None] * _NODES).reshape(*a.shape[:-1], -1)
    v = np.asarray(f(x), dtype=float)
    finite = np.isfinite(v)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0])
        raise NonFiniteSample(
            f"integrand returned {v[bad]} at x={np.broadcast_to(x, v.shape)[bad]}")
    # elementwise sums, not BLAS: each panel's sum is the same for any m and p
    v = v.reshape(*v.shape[:-1], a.shape[-1], _NODES.size)
    k21 = (v * _WK21).sum(axis=-1)
    g10 = (v * _WG10).sum(axis=-1)
    return half * k21, np.abs(half * (k21 - g10))


_OPEN, _RETIRED, _SPLIT = 0, 1, 2


class _Tree:
    """One panel tree and the components that share it: each panel's
    (a, b, depth), state and per-component (value, error), one row per panel
    in the order the panels were made, so argmax breaks a tie in favour of
    the older panel."""

    def __init__(self, lo, hi, value, err):
        cap = 64
        self.vals = np.empty((cap, value.size))
        self.errs = np.empty((cap, value.size))
        self.state = np.full(cap, _SPLIT, dtype=np.int8)
        self.ends = [(lo, hi, 0)]
        self.vals[0], self.errs[0], self.state[0] = value, err, _OPEN
        self.n = 1
        self.stopped = False

    def next_split(self, spec: QuadratureSpec):
        """Choose the panel to bisect next and return the ends of its halves
        as ((a, mid), (mid, b)); or return None, and stay ``stopped``, once
        every component meets its tolerance or no panel can be bisected."""
        vals, errs, state, n = self.vals, self.errs, self.state, self.n
        while not self.stopped:
            # totals over the unsplit panels, summed afresh: a running total
            # drifts, and could stop the loop short of the tolerance
            live = state[:n] != _SPLIT
            total_value, total_err = vals[:n][live].sum(axis=0), errs[:n][live].sum(axis=0)
            tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total_value))
            if (total_err <= tol).all() or n > _MAX_PANELS:
                break
            # with one component tol is common to all panels: rank by err alone
            ratio = errs[:n, 0] if vals.shape[1] == 1 else (errs[:n] / tol).max(axis=1)
            j = int(np.argmax(np.where(state[:n] == _OPEN, ratio, -1.0)))
            if state[j] != _OPEN:
                break
            a, b, depth = self.ends[j]
            m = 0.5 * (a + b)
            # too deep, or the interval is exhausted at float resolution
            if depth >= _MAX_DEPTH or not a < m < b:
                state[j] = _RETIRED
                continue
            self.j, self.halves = j, [(a, m, depth + 1), (m, b, depth + 1)]
            return (a, m), (m, b)
        self.stopped = True
        return None

    def split(self, value, err):
        """Replace the panel ``next_split`` chose by its halves, whose
        (value, error) are the two columns of ``value`` and ``err``."""
        n, j = self.n, self.j
        if n + 2 > self.state.size:
            self.vals = np.concatenate([self.vals, self.vals])
            self.errs = np.concatenate([self.errs, self.errs])
            self.state = np.concatenate([self.state, np.full_like(self.state, _SPLIT)])
        self.vals[n:n + 2] = value.T
        self.errs[n:n + 2] = err.T
        self.state[j], self.state[n], self.state[n + 1] = _SPLIT, _OPEN, _OPEN
        self.ends += self.halves
        self.n = n + 2

    def totals(self):
        """Each component's value and error, summed exactly over the final
        disjoint panels from left to right, so the result does not depend on
        the refinement history."""
        final = sorted(np.flatnonzero(self.state[:self.n] != _SPLIT), key=lambda i: self.ends[i][0])
        return ([math.fsum(col) for col in self.vals[final].T.tolist()],
                [math.fsum(col) for col in self.errs[final].T.tolist()])


def integrate(f, lo: float, hi: float, spec: QuadratureSpec | None = None, trees=None):
    """Adaptive quadrature of ``f`` on [lo, hi].

    ``f`` takes an array of nodes and returns one value per node, or an
    (m, nodes) array for m integrals over [lo, hi].  Returns
    ``(value, error_estimate)``: two floats, or two length-m arrays.

    Without ``trees`` all components share one panel tree and ``f`` gets one
    row of nodes.  ``trees`` gives each of the m components a tree id:
    components with the same id share a tree, each tree is refined as it
    would be alone, and ``f`` gets an (m, nodes) array, one row of nodes per
    component.  Within a tree, until every component meets its own
    tolerance ``max(spec.abs_tol, spec.rel_tol * |value|)``, the panel with
    the largest error over tolerance in any component is bisected, down to
    ``_MAX_DEPTH`` = 60 levels (for one integral: the panel with the largest
    error).  The trees advance in lock-step: each call of ``f`` evaluates
    both halves of every tree's bisected panel, 42 nodes per row (21 on the
    first call, for [lo, hi]); a tree that has stopped gets the nodes it was
    last evaluated on again, and those values are ignored.  If the
    tolerance cannot be met a single ``ToleranceNotMet`` warning is issued
    and the best values are returned together with the achieved estimates.
    A non-finite integrand value raises ``NonFiniteSample``.
    """
    spec = spec or QuadratureSpec()
    if not lo < hi:
        raise DomainError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")

    # the tree of each row of nodes: one row for all components, or one per component
    owner = 0 if trees is None else np.unique(trees, return_inverse=True)[1].ravel()
    count = 1 if trees is None else owner.max() + 1
    # the panels each tree was last evaluated on
    a, b = np.full((count, 1), float(lo)), np.full((count, 1), float(hi))
    value, err = _kronrod(f, a[owner], b[owner])
    scalar = value.ndim == 1
    value, err = value.reshape(-1, 1), err.reshape(-1, 1)
    m = value.shape[0]
    cols = [slice(None)] if trees is None else [np.flatnonzero(owner == t) for t in range(count)]
    forest = [_Tree(lo, hi, value[c, 0], err[c, 0]) for c in cols]
    a, b = np.repeat(a, 2, axis=1), np.repeat(b, 2, axis=1)

    while True:
        moving = []
        for t, tree in enumerate(forest):
            halves = tree.next_split(spec)
            if halves is not None:
                a[t], b[t] = halves
                moving.append(t)
        if not moving:
            break
        value, err = _kronrod(f, a[owner], b[owner])
        value, err = value.reshape(-1, 2), err.reshape(-1, 2)
        for t in moving:
            forest[t].split(value[cols[t]], err[cols[t]])

    value, err = np.empty(m), np.empty(m)
    for c, tree in zip(cols, forest):
        value[c], err[c] = tree.totals()
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
    missed = err > tol
    if missed.any():
        worst = int(np.argmax(err / tol))
        where = "" if scalar else f" in {int(missed.sum())} of {value.size} components"
        warnings.warn(
            f"quadrature error estimate {err[worst]:.3e} exceeds tolerance "
            f"(abs {spec.abs_tol:.1e}, rel {spec.rel_tol:.1e}){where}",
            ToleranceNotMet,
            stacklevel=2,
        )
    if scalar:
        return float(value[0]), float(err[0])
    return value, err


def integrate_semi_infinite(f, lo: float, spec: QuadratureSpec | None = None):
    """Quadrature of ``f`` on [lo, inf) via the substitution x = lo + u/(1-u)."""

    def g(u):
        one_minus = 1.0 - u
        x = lo + u / one_minus
        return f(x) / (one_minus * one_minus)

    return integrate(g, 0.0, 1.0, spec)
