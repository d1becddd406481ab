import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cnoma_eh import specfun, validation
from cnoma_eh.errors import DomainError, NonFiniteSample, ToleranceNotMet
from cnoma_eh.specfun import (
    EULER_GAMMA,
    QuadratureSpec,
    bessel_k0,
    bessel_k1,
    gamma_upper_0_scaled,
    integrate,
    integrate_semi_infinite,
)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 25


# Independent oracles: exponentially scaled integral representations, so the
# absolute quadrature tolerance controls the relative error at large x.

def oracle_gamma0(x):
    """e^x Gamma(0, x) = int_0^inf e^(-x u) / (1 + u) du."""
    umax = 120.0 / x
    pts = [0, umax] if umax <= 1 else [0, 1, umax]
    scaled = mp.quad(lambda u: mp.exp(-x * u) / (1 + u), pts)
    return float(scaled * mp.exp(-x)), float(scaled)


def oracle_k(order, x):
    """e^x K_order(x) = int_0^inf e^(-x (cosh t - 1)) cosh(order t) dt."""
    tmax = mp.acosh(1 + 120.0 / x)
    scaled = mp.quad(
        lambda t: mp.exp(-x * (mp.cosh(t) - 1)) * mp.cosh(order * t),
        [0, tmax / 4, tmax / 2, tmax],
    )
    return float(scaled * mp.exp(-x)), float(scaled)


class TestGammaUpper0:
    def test_domain(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                gamma_upper_0_scaled(bad)

    def test_known_value_at_one(self):
        # 50-term series and continued fraction agree on Gamma(0, 1) =
        # 0.219383934395520...
        assert gamma_upper_0_scaled(1.0) == pytest.approx(
            math.e * 0.21938393439552027, rel=1e-14)

    def test_small_x_log_expansion(self):
        x = 1e-6
        assert gamma_upper_0_scaled(x) == pytest.approx(
            math.exp(x) * (-math.log(x) - EULER_GAMMA), abs=1e-5)

    def test_large_x_asymptotic_oracle(self):
        # e^x Gamma(0, x) ~ (1 / x) sum (-1)^k k! / x^k, truncated at its
        # smallest term; the truncation error is far below 1e-10 at x = 100
        x = 100.0
        term, total = 1.0, 0.0
        k = 0
        while True:
            total += term
            k += 1
            nxt = -term * k / x
            if abs(nxt) >= abs(term):
                break
            term = nxt
        assert gamma_upper_0_scaled(x) == pytest.approx(total / x, rel=1e-10)

    def test_accuracy_grid_vs_integral_oracle(self):
        for x in np.logspace(-8, math.log10(700.0), 25):
            _, ref_scaled = oracle_gamma0(float(x))
            assert gamma_upper_0_scaled(float(x)) == pytest.approx(ref_scaled, rel=1e-10)

    def test_scaled_consistency(self):
        # the series (x <= 1) and the continued fraction (x > 1) agree on
        # either side of the seam
        for x in (0.5, 1.0, 2.0):
            assert math.exp(x) * specfun._gamma0_series(x) == pytest.approx(
                specfun._gamma0_cf(x), rel=1e-12
            )

    def test_derivative_identity(self):
        # d/dx e^x Gamma(0, x) = e^x Gamma(0, x) - 1/x
        for x in (0.1, 1.0, 10.0):
            h = x * 1e-6
            fd = (gamma_upper_0_scaled(x + h) - gamma_upper_0_scaled(x - h)) / (2 * h)
            assert fd == pytest.approx(gamma_upper_0_scaled(x) - 1.0 / x, rel=1e-6)


class TestBesselK:
    def test_domain(self):
        for bad in (0.0, -2.0):
            with pytest.raises(DomainError):
                bessel_k0(bad)
            with pytest.raises(DomainError):
                bessel_k1(bad)

    def test_known_values_at_one(self):
        assert bessel_k0(1.0) == pytest.approx(0.42102443824070833, rel=1e-13)
        assert bessel_k1(1.0) == pytest.approx(0.60190723019723457, rel=1e-13)

    def test_small_x_pole_of_k1(self):
        x = 1e-6
        assert x * bessel_k1(x) == pytest.approx(1.0, abs=1e-5)

    def test_small_x_log_of_k0(self):
        x = 1e-6
        assert bessel_k0(x) == pytest.approx(-math.log(x / 2) - EULER_GAMMA, rel=1e-5)

    def test_accuracy_grid_vs_integral_oracle(self):
        for x in np.logspace(-8, math.log10(700.0), 25):
            k0_ref, _ = oracle_k(0, float(x))
            k1_ref, _ = oracle_k(1, float(x))
            assert bessel_k0(float(x)) == pytest.approx(k0_ref, rel=1e-10)
            assert bessel_k1(float(x)) == pytest.approx(k1_ref, rel=1e-10)

    def test_recurrence_k2(self):
        # K2(x) = K0(x) + 2 K1(x) / x, with K2 from the integral oracle
        for x in (0.5, 1.0, 5.0, 50.0):
            k2_ref, _ = oracle_k(2, x)
            assert bessel_k0(x) + 2.0 * bessel_k1(x) / x == pytest.approx(k2_ref, rel=1e-9)

    def test_positive_decreasing_convex(self):
        xs = np.logspace(-4, 2, 200)
        for f in (bessel_k0, bessel_k1):
            vals = np.array([f(float(x)) for x in xs])
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)
        # convexity on a uniform grid
        xs = np.linspace(0.05, 20.0, 400)
        for f in (bessel_k0, bessel_k1):
            vals = np.array([f(float(x)) for x in xs])
            assert np.all(np.diff(vals, 2) > 0)

    def test_series_chebyshev_seam(self):
        # both branches agree around the x = 2 switch point
        for x in (1.999999999, 2.0, 2.000000001):
            k0_ref, _ = oracle_k(0, x)
            k1_ref, _ = oracle_k(1, x)
            assert bessel_k0(x) == pytest.approx(k0_ref, rel=1e-12)
            assert bessel_k1(x) == pytest.approx(k1_ref, rel=1e-12)

    ARRAY_XS = np.concatenate([
        [1e-8, 1.999999999, math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0),
         2.000000001, 700.0],
        np.logspace(-8, math.log10(700.0), 25),
    ])

    @pytest.mark.parametrize("f", [bessel_k0, bessel_k1])
    def test_array_matches_scalar_calls(self, f):
        xs = self.ARRAY_XS
        values = f(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        scalar = np.array([f(float(x)) for x in xs])
        assert np.all(np.abs(values / scalar - 1.0) <= 1e-15)
        assert np.array_equal(f(xs.reshape(4, 8)), values.reshape(4, 8))
        assert isinstance(f(1.0), float)

    def test_array_vs_oracle_and_frozen_table(self):
        xs = self.ARRAY_XS
        for order, f in ((0, bessel_k0), (1, bessel_k1)):
            ref = np.array([oracle_k(order, float(x))[0] for x in xs])
            assert np.all(np.abs(f(xs) / ref - 1.0) <= 1e-10)
        table = np.array(validation._SPECFUN_REFERENCE)
        assert np.all(np.abs(bessel_k0(table[:, 0]) / table[:, 2] - 1.0) <= 1e-10)
        assert np.all(np.abs(bessel_k1(table[:, 0]) / table[:, 3] - 1.0) <= 1e-10)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_array_domain(self, bad):
        xs = np.array([0.5, 3.0, bad, 1.0])
        for f in (bessel_k0, bessel_k1):
            with pytest.raises(DomainError):
                f(xs)


def gauss_kronrod_21():
    """The G10/K21 rule in the layout of specfun's frozen tuples, built at 30
    digits.  The Kronrod nodes are the roots of the Stieltjes polynomial E11,
    the odd monic polynomial with int P10(x) E11(x) x^k dx = 0 for k <= 10;
    both weight sets make their rule exact on the even monomials."""
    with mp.workdps(30):
        def moment(m):  # int_-1^1 x^m dx
            return mp.mpf(0) if m % 2 else mp.mpf(2) / (m + 1)

        # 2^10 P10(x) = sum_k (-1)^k C(10, k) C(20 - 2k, 10) x^(10 - 2k)
        p10 = {10 - 2 * k: (-1) ** k * math.comb(10, k) * math.comb(20 - 2 * k, 10)
               for k in range(6)}

        def p10_moment(m):
            return mp.fsum(c * moment(m + j) for j, c in p10.items())

        odd = (1, 3, 5, 7, 9)  # even k are orthogonal by parity
        e11 = mp.lu_solve(mp.matrix([[p10_moment(k + j) for j in odd] for k in odd]),
                          mp.matrix([-p10_moment(k + 11) for k in odd]))

        def positive_roots(coeffs):  # coeffs of a polynomial in x^2, highest first
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=100)
            return [mp.sqrt(mp.re(t)) for t in roots]

        gauss = sorted(positive_roots([p10[j] for j in (10, 8, 6, 4, 2, 0)]), reverse=True)
        kronrod = positive_roots([1] + [e11[i] for i in (4, 3, 2, 1, 0)])
        xgk = sorted(gauss + kronrod, reverse=True) + [mp.mpf(0)]

        def weights(nodes):
            rows = [[(2 if x else 1) * x ** (2 * m) for x in nodes] for m in range(len(nodes))]
            return list(mp.lu_solve(mp.matrix(rows),
                                    mp.matrix([moment(2 * m) for m in range(len(nodes))])))

        return xgk, weights(xgk), weights(gauss)


class TestGaussKronrodRule:
    def test_frozen_tuples_match_construction(self):
        for frozen, built in zip((specfun._XGK, specfun._WGK, specfun._WG), gauss_kronrod_21()):
            assert len(frozen) == len(built)
            for f, b in zip(frozen, built):
                assert abs(f - float(b)) <= math.ulp(float(b))
        assert specfun._XGK[-1] == 0.0

    def test_monomial_exactness(self):
        # K21 is exact through degree 31 and G10 through degree 19.  Both
        # rules are symmetric, so odd monomials on [-1, 1] vanish exactly and
        # the even ones carry the check: the value is exact up to x^30 but not
        # x^32, and |K21 - G10| vanishes up to x^18 but not x^20
        for m in range(0, 34, 2):
            value, err = specfun._kronrod(lambda x: x ** m, -1.0, 1.0)
            assert (abs(value - 2.0 / (m + 1)) <= 1e-15) == (m <= 31), m
            assert (err <= 1e-15) == (m <= 19), m

    def test_polynomial_costs_one_panel(self):
        coeffs = [(-1.0) ** k * (k + 1) / 7.0 for k in range(20)]  # degree 19
        calls = []
        shapes = []

        def poly(x):
            calls.extend(x)
            shapes.append(x.shape)
            return sum(c * x ** k for k, c in enumerate(coeffs))

        lo, hi = 0.3, 1.7
        value, err = integrate(poly, lo, hi)
        exact = sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
        assert len(calls) == 21
        assert shapes == [(21,)]  # one integrand call per panel
        assert all(lo < x < hi for x in calls)
        assert value == pytest.approx(exact, rel=1e-13)
        assert err <= 1e-13 * abs(exact)


class TestQuadrature:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=-1.0)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)

    def test_constant(self):
        value, err = integrate(np.ones_like, 0.0, 1.0)
        assert value == pytest.approx(1.0, rel=1e-14)
        assert err < 1e-12

    def test_semi_infinite_exponential_kernel(self):
        # int_0^inf e^-x / (1 + x) dx = e * Gamma(0, 1)
        value, err = integrate_semi_infinite(
            lambda x: np.exp(-x) / (1.0 + x), 0.0, QuadratureSpec(rel_tol=1e-10)
        )
        assert value == pytest.approx(0.5963473623231940, rel=1e-9)

    def test_log_endpoint_singularity(self):
        value, _ = integrate(
            np.log, 0.0, 1.0,
            QuadratureSpec(rel_tol=1e-9),
        )
        assert value == pytest.approx(-1.0, rel=1e-8)

    def test_inverse_sqrt_singularity(self):
        value, _ = integrate(
            lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
            QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12),
        )
        assert value == pytest.approx(2.0, rel=1e-7)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, a, b):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
        f = np.exp
        g = np.sin
        combined, e1 = integrate(lambda x: a * f(x) + b * g(x), 0.0, 2.0, spec)
        vf, e2 = integrate(f, 0.0, 2.0, spec)
        vg, e3 = integrate(g, 0.0, 2.0, spec)
        assert combined == pytest.approx(a * vf + b * vg,
                                         abs=10 * (e1 + abs(a) * e2 + abs(b) * e3) + 1e-12)

    def test_bessel_density_normalization(self):
        # 2 lam K0(2 sqrt(lam z)) integrates to 1 on (0, inf) for any lam > 0
        for lam in (0.07, 1.0, 23.0):
            def density(z, lam=lam):
                return 2.0 * lam * bessel_k0(2.0 * np.sqrt(lam * z))

            value, _ = integrate_semi_infinite(
                density, 0.0, QuadratureSpec(rel_tol=1e-9)
            )
            assert value == pytest.approx(1.0, abs=1e-7)

    def test_nonfinite_raises_away_from_endpoints(self):
        def bad(x):
            return np.where((0.4 < x) & (x < 0.6), math.inf, 1.0)

        with pytest.raises(NonFiniteSample):
            integrate(bad, 0.0, 1.0)

    def test_nonfinite_beside_an_endpoint_raises(self):
        # refinement toward the log singularity samples below 1e-6
        def bad(x):
            return np.where(x < 1e-6, math.inf, np.log(x))

        with pytest.raises(NonFiniteSample):
            integrate(bad, 0.0, 1.0)

    def test_tolerance_not_met_warning_still_returns_value(self):
        # a relative tolerance of 1e-25 cannot be met: refinement stops at the
        # panel cap (at 1e-17 the same integral converges, test below)
        spec = QuadratureSpec(rel_tol=1e-25, abs_tol=1e-30)
        with pytest.warns(ToleranceNotMet):
            value, err = integrate(lambda x: np.exp(-x) / (1 + 50 * x * x), 0.0, 30.0, spec)
        assert math.isfinite(value)
        assert err > 0

    def test_never_stops_as_converged_short_of_the_tolerance(self, monkeypatch):
        # a stop test on running totals drifted by about an ulp of the first
        # panel: it stopped here after 29 panels as if converged, and the
        # final sum (7.9e-18) then missed the tolerance (1.7e-18) and warned
        calls = []
        real = specfun._kronrod
        monkeypatch.setattr(specfun, "_kronrod",
                            lambda f, a, b: calls.append((a, b)) or real(f, a, b))
        spec = QuadratureSpec(rel_tol=1e-17, abs_tol=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ToleranceNotMet)
            value, err = integrate(lambda x: np.exp(-x) / (1 + 50 * x * x), 0.0, 30.0, spec)
        assert err <= spec.rel_tol * abs(value)
        assert 29 < len(calls) < specfun._MAX_PANELS
        exact = mp.quad(lambda x: mp.exp(-x) / (1 + 50 * x * x), [0, 1, 30])
        assert value == pytest.approx(float(exact), rel=1e-15)


class TestVectorIntegrand:
    """An (m, nodes) integrand: m integrals on one shared panel tree."""

    def test_each_component_meets_its_own_tolerance(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
        scales = np.array([1e-6, 1.0, 1e6])

        def f(x):
            return scales[:, None] * np.vstack([np.exp(-x), np.log(x), np.cos(40.0 * x)])

        values, errs = integrate(f, 0.0, 1.0, spec)
        exact = scales * np.array([1.0 - math.exp(-1.0), -1.0, math.sin(40.0) / 40.0])
        assert values.shape == errs.shape == (3,)
        assert np.all(errs <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values)))
        assert np.all(np.abs(values - exact) <= 1e-9 * np.abs(exact))
        # each component agrees with integrating it alone
        for i in range(3):
            alone, _ = integrate(lambda x, i=i: f(x)[i], 0.0, 1.0, spec)
            assert values[i] == pytest.approx(alone, rel=1e-9)

    def test_one_component_is_one_integral(self):
        v1, e1 = integrate(lambda x: np.exp(-x)[None, :], 0.0, 3.0)
        v0, e0 = integrate(lambda x: np.exp(-x), 0.0, 3.0)
        assert v1.shape == e1.shape == (1,)
        assert (v1[0], e1[0]) == (v0, e0)

    def test_unconvergeable_component_warns_once(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)

        def f(x):
            # the second row oscillates far too fast for the panel budget
            return np.vstack([np.exp(-x), np.sin(1e7 * x) ** 2])

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values, errs = integrate(f, 0.0, 1.0, spec)
        missed = [w for w in caught if issubclass(w.category, ToleranceNotMet)]
        assert len(missed) == 1
        assert "1 of 2 components" in str(missed[0].message)
        assert errs[0] <= max(spec.abs_tol, spec.rel_tol * abs(values[0]))
        assert values[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)
        assert errs[1] > spec.rel_tol * abs(values[1])

    def test_nonfinite_component_raises(self):
        with pytest.raises(NonFiniteSample):
            integrate(lambda x: np.vstack([x, np.where(x > 0.5, math.nan, x)]), 0.0, 1.0)
