import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cnoma_eh import analysis
from cnoma_eh.analysis import (
    _w2_survival,
    ergodic_rate_u1,
    ergodic_rate_u2,
    ergodic_weighted_sum,
    high_snr_u1,
    high_snr_u2,
    prob_w_exceeds,
    prob_y_exceeds,
    w1_cdf,
    w2_density,
)
from cnoma_eh.errors import DomainError, ToleranceNotMet
from cnoma_eh.model import (
    DesignPoint,
    SystemParams,
    _sinr_mrc,
    _sinr_x2,
)
from cnoma_eh.specfun import QuadratureSpec, integrate_semi_infinite

from conftest import design_points, system_params_strategy

BASE = DesignPoint(alpha=0.25, rho=0.3)


def params(snr_db, mu=1.0, w2=2.0, **kw):
    return SystemParams(avg_snr=10.0 ** (snr_db / 10.0), mu=mu, w1=1.0, w2=w2, **kw)


class TestErgodicU1:
    def test_unit_exponent_value(self):
        # choose snr so the gamma argument is exactly 1:
        # (1 - rho + mu) / ((1 - rho) alpha snr) = 1 with rho=0, mu=0, alpha=0.5
        p = SystemParams(avg_snr=2.0, mu=0.0)
        d = DesignPoint(alpha=0.5, rho=0.0)
        # e * Gamma(0, 1) / (2 ln 2)
        assert ergodic_rate_u1(p, d) == pytest.approx(0.4301736911354429, rel=1e-13)

    def test_vanishes_at_low_snr(self):
        p = SystemParams(avg_snr=1e-12, mu=1.0)
        assert ergodic_rate_u1(p, BASE) < 1e-10

    def test_matches_direct_tail_quadrature(self, rng):
        # closed form vs int_0^inf exp(-k x) / (1 + x) dx / (2 ln 2)
        for _ in range(50):
            p = SystemParams(
                avg_snr=float(rng.uniform(0.5, 1e4)),
                mu=float(rng.uniform(0.0, 2.0)),
                var1=float(rng.uniform(0.2, 3.0)),
            )
            d = DesignPoint(alpha=float(rng.uniform(0.05, 0.95)),
                            rho=float(rng.uniform(0.0, 0.9)))
            k = (1 - d.rho + p.mu) / ((1 - d.rho) * d.alpha * p.avg_snr * p.var1)
            val, _ = integrate_semi_infinite(
                lambda x: np.exp(-k * x) / (1.0 + x), 0.0,
                QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14),
            )
            assert ergodic_rate_u1(p, d) == pytest.approx(
                val / (2 * math.log(2)), rel=1e-8
            )

    @given(p=system_params_strategy(), d=design_points())
    def test_nonnegative(self, p, d):
        assert ergodic_rate_u1(p, d) >= 0.0


class TestProbYExceeds:
    def test_at_zero(self):
        assert prob_y_exceeds(params(10), BASE, 0.0) == 1.0

    def test_beyond_power_ratio_cutoff(self):
        p = params(10)
        zmax = (1 - BASE.alpha) / BASE.alpha
        assert prob_y_exceeds(p, BASE, zmax) == 0.0
        assert prob_y_exceeds(p, BASE, zmax + 1.0) == 0.0

    def test_hand_value(self):
        p = SystemParams(avg_snr=10.0, mu=0.0)
        d = DesignPoint(alpha=0.5, rho=0.0)
        assert prob_y_exceeds(p, d, 0.5) == pytest.approx(math.exp(-0.2), rel=1e-14)

    def test_rejects_negative_z(self):
        for z in (-0.1, math.nan, [0.5, math.nan]):
            with pytest.raises(DomainError):
                prob_y_exceeds(params(10), BASE, z)

    def test_monotone_tail_in_unit_interval(self):
        p = params(15)
        zs = np.linspace(0.0, 4.0, 200)
        vals = [prob_y_exceeds(p, BASE, float(z)) for z in zs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestRelayBranchDistribution:
    def test_cdf_endpoints_and_monotonicity(self):
        cdf = 1.0 - _w2_survival(params(10), BASE, np.linspace(0.0, 200.0, 500))
        assert cdf[0] == 0.0
        assert (np.diff(cdf) >= -1e-12).all()
        assert cdf[-1] > 0.999

    def test_cdf_derivative_matches_density(self):
        p = params(10)
        for z in (0.05, 0.3, 1.0, 4.0):
            h = z * 1e-5
            lo, hi = 1.0 - _w2_survival(p, BASE, np.array([z - h, z + h]))
            fd = (hi - lo) / (2 * h)
            assert fd == pytest.approx(w2_density(p, BASE, z), rel=1e-5)

    def test_density_degenerate_at_rho_zero(self):
        with pytest.raises(DomainError):
            w2_density(params(10), DesignPoint(alpha=0.25, rho=0.0), 1.0)

    def test_density_singular_at_origin(self):
        assert w2_density(params(10), BASE, 0.0) == math.inf
        assert w2_density(params(10), BASE, -1.0) == 0.0

    def test_nan_rejected(self):
        for f in (w1_cdf, w2_density):
            for z in (math.nan, [1.0, math.nan]):
                with pytest.raises(DomainError):
                    f(params(10), BASE, z)


class TestProbWExceeds:
    def test_at_zero(self):
        assert prob_w_exceeds(params(10), BASE, 0.0) == 1.0

    def test_rho_zero_closed_form(self):
        p = params(10)
        d = DesignPoint(alpha=0.25, rho=0.0)
        zmax = (1 - d.alpha) / d.alpha
        for z in (0.1, 0.5, 1.5):
            expected = math.exp(
                -(1 + p.mu) * z / (p.avg_snr * p.var2 * (1 - d.alpha - d.alpha * z))
            )
            assert prob_w_exceeds(p, d, z) == pytest.approx(expected, rel=1e-14)
            assert prob_w_exceeds(p, d, z) == pytest.approx(1.0 - w1_cdf(p, d, z), rel=1e-14)
        assert prob_w_exceeds(p, d, zmax + 0.5) == 0.0

    def test_matches_monte_carlo_tail(self, rng):
        # empirical Pr[W > 1] from 10^6 draws of (g2, g1 g3)
        p = SystemParams(avg_snr=100.0, mu=1.0, eta=1.0)
        d = DesignPoint(alpha=0.3, rho=0.4)
        n = 1_000_000
        g1 = rng.exponential(1.0, n)
        g2 = rng.exponential(1.0, n)
        g3 = rng.exponential(1.0, n)
        w = _sinr_mrc(p.avg_snr, p.mu, p.eta, g1, g2, g3, d.alpha, d.rho)
        for z in (0.5, 1.0, 3.0):
            emp = float(np.mean(w > z))
            se = math.sqrt(emp * (1 - emp) / n)
            assert abs(prob_w_exceeds(p, d, z) - emp) <= 3 * se + 1e-9

    def test_monotone_and_bounded(self):
        p = params(10)
        zs = np.linspace(0.0, 10.0, 60)
        vals = [prob_w_exceeds(p, BASE, float(z)) for z in zs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_z(self):
        for d in (BASE, DesignPoint(alpha=0.25, rho=0.0)):
            for z in (-1e-9, math.nan, [0.5, math.nan]):
                with pytest.raises(DomainError):
                    prob_w_exceeds(params(10), d, z)


class TestErgodicU2:
    def test_collapses_as_alpha_approaches_one(self):
        p = params(20)
        c2, _ = ergodic_rate_u2(p, DesignPoint(alpha=0.999, rho=0.3))
        assert 0.0 <= c2 < 2e-3

    def test_rho_zero_branch_against_monte_carlo(self, rng):
        # at rho = 0 the two tail factors involve disjoint gains, so a plain
        # Monte Carlo of min{Y, W1} estimates the same quantity.  At -40 and
        # -30 dB both tails decay before the first node of one rule over
        # the whole z range
        d = DesignPoint(alpha=0.25, rho=0.0)
        n = 500_000
        g1 = rng.exponential(1.0, n)
        g2 = rng.exponential(1.0, n)
        for snr_db in (10.0, -40.0, -30.0):
            p = params(snr_db)
            y = _sinr_x2(p.avg_snr, p.mu, g1, d.alpha, d.rho)
            w1 = (1 - d.alpha) * p.avg_snr * g2 / (d.alpha * p.avg_snr * g2 + 1 + p.mu)
            c2_mc = 0.5 * np.log2(1.0 + np.minimum(y, w1))
            se = float(np.std(c2_mc, ddof=1) / math.sqrt(n))
            c2, _ = ergodic_rate_u2(p, d)
            assert abs(c2 - float(np.mean(c2_mc))) <= 3 * se, snr_db

    def test_high_snr_saturation_level(self):
        p = params(40)
        c2, _ = ergodic_rate_u2(p, BASE)
        assert c2 == pytest.approx(1.0, rel=0.02)  # half log2(4)

    def test_nondecreasing_in_snr_and_relay_variance(self):
        values = [ergodic_rate_u2(params(db), BASE)[0] for db in (0, 10, 20, 30)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        values = [
            ergodic_rate_u2(params(10, var3=v), BASE)[0] for v in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_factorization_gap_shrinks_with_snr(self, rng):
        # correlated Monte Carlo (same g1 in both tail factors) vs the
        # factored analytic value: the gap narrows as SNR grows
        n = 300_000
        g1 = rng.exponential(1.0, n)
        g2 = rng.exponential(1.0, n)
        g3 = rng.exponential(1.0, n)
        gaps = {}
        for db in (0, 10, 30):
            p = params(db)
            z = np.minimum(
                _sinr_x2(p.avg_snr, p.mu, g1, BASE.alpha, BASE.rho),
                _sinr_mrc(p.avg_snr, p.mu, p.eta, g1, g2, g3, BASE.alpha, BASE.rho),
            )
            mc = float(np.mean(0.5 * np.log2(1.0 + z)))
            gaps[db] = abs(ergodic_rate_u2(p, BASE)[0] - mc) / mc
        assert gaps[30] < gaps[10] < gaps[0]

    # the fig1 benchmark points, and the integrand calls the nested
    # quadrature made there with a call per panel and an inner call per
    # outer panel
    @pytest.mark.parametrize("snr_db, calls_before", [(0.0, 256), (20.0, 162), (40.0, 336)])
    def test_lock_step_trees_cut_the_integrand_calls(self, snr_db, calls_before, monkeypatch):
        calls = []
        real = analysis.integrate

        def counted(f, *args, **kwargs):
            return real(lambda x: calls.append(x.shape) or f(x), *args, **kwargs)

        monkeypatch.setattr(analysis, "integrate", counted)
        ergodic_rate_u2(params(snr_db), BASE)
        assert len(calls) <= 0.35 * calls_before

    @pytest.mark.parametrize("snr_db, alpha, rho", [
        (-40.0, 0.25, 0.3), (-10.0, 0.05, 0.7), (0.0, 0.25, 0.3), (20.0, 0.5, 0.0),
        (40.0, 0.25, 0.3), (60.0, 0.9, 1.0 - 1e-6)])
    def test_each_outer_panel_gets_the_bits_of_its_own_inner_call(self, snr_db, alpha, rho,
                                                                 monkeypatch):
        p, d = params(snr_db), DesignPoint(alpha=alpha, rho=rho)
        together = ergodic_rate_u2(p, d)
        shared_tree = analysis._w_tail

        def one_call_per_panel(p, d, z, spec, trees):
            out = np.empty_like(z)
            for tree in np.unique(trees):
                out[trees == tree] = shared_tree(p, d, z[trees == tree], spec)
            return out

        monkeypatch.setattr(analysis, "_w_tail", one_call_per_panel)
        assert [x.hex() for x in together] == [x.hex() for x in ergodic_rate_u2(p, d)]


# (snr_db, alpha, rho, rate, error estimate) of ergodic_rate_u2 at its default
# tolerances, frozen from the scalar nested quadrature (one inner integral per
# outer node) that the shared-panel array quadrature replaced.
U2_REFERENCE = (
    (0.0, 0.1, 0.0, 0.13124307500929994, 9.515210149417013e-10),
    (0.0, 0.1, 0.05, 0.13635270660504467, 3.5183911717597784e-10),
    (0.0, 0.1, 0.3, 0.1427991468526063, 4.7487514844523e-10),
    (0.0, 0.1, 0.9, 0.05191115291612396, 1.6147373025769618e-10),
    (0.0, 0.25, 0.0, 0.10628157368646848, 6.08076943856124e-12),
    (0.0, 0.25, 0.05, 0.11169881501600748, 9.984509044355437e-10),
    (0.0, 0.25, 0.3, 0.11842655261701934, 1.6874224450490092e-10),
    (0.0, 0.25, 0.9, 0.0429621860733032, 5.712539007195263e-11),
    (0.0, 0.5, 0.0, 0.06785428353871557, 3.903448373172674e-10),
    (0.0, 0.5, 0.05, 0.07346187164544773, 4.4596351564213496e-10),
    (0.0, 0.5, 0.3, 0.07918299247775601, 6.021886503098693e-10),
    (0.0, 0.5, 0.9, 0.028349162174084543, 2.0683745508589414e-10),
    (20.0, 0.1, 0.0, 1.257207831477011, 5.34157897268696e-10),
    (20.0, 0.1, 0.05, 1.3162502379293455, 1.1457866434028819e-08),
    (20.0, 0.1, 0.3, 1.330547370074865, 7.141584446364873e-09),
    (20.0, 0.1, 0.9, 0.9912727635667846, 7.234897216383736e-10),
    (20.0, 0.25, 0.0, 0.8201665228592754, 1.452464147810789e-10),
    (20.0, 0.25, 0.05, 0.8621282245396011, 3.4916543734849283e-09),
    (20.0, 0.25, 0.3, 0.8624535727546094, 6.283450847883598e-09),
    (20.0, 0.25, 0.9, 0.6809346646592557, 1.981368959015807e-10),
    (20.0, 0.5, 0.0, 0.4291506750892925, 4.279390777926334e-11),
    (20.0, 0.5, 0.05, 0.4506334945896738, 2.2039056735950836e-10),
    (20.0, 0.5, 0.3, 0.4481525127342626, 1.999206785892102e-09),
    (20.0, 0.5, 0.9, 0.368971912612956, 1.616266981616605e-09),
    (40.0, 0.1, 0.0, 1.646155377699914, 1.858015810194449e-09),
    (40.0, 0.1, 0.05, 1.6523592209100897, 6.077840556070691e-10),
    (40.0, 0.1, 0.3, 1.651165530770092, 7.76479366944778e-09),
    (40.0, 0.1, 0.9, 1.6273209223642189, 1.3683296936809318e-08),
    (40.0, 0.25, 0.0, 0.994455108125827, 2.9443104081098395e-09),
    (40.0, 0.25, 0.05, 0.9968428249536686, 1.4191873313693496e-09),
    (40.0, 0.25, 0.3, 0.9963688918143845, 5.46956521170122e-10),
    (40.0, 0.25, 0.9, 0.9871345962918652, 1.6142053399824584e-10),
    (40.0, 0.5, 0.0, 0.49801911302296853, 9.80520477665686e-10),
    (40.0, 0.5, 0.05, 0.4988828938546492, 4.587813132741741e-09),
    (40.0, 0.5, 0.3, 0.4987097497704268, 4.800018434681485e-09),
    (40.0, 0.5, 0.9, 0.49534988916366757, 5.347239557927655e-11),
)


@pytest.mark.parametrize("snr_db, alpha, rho, rate, err", U2_REFERENCE,
                         ids=[f"{s:g}dB-alpha{a:g}-rho{r:g}" for s, a, r, _, _ in U2_REFERENCE])
def test_u2_matches_frozen_scalar_quadrature(snr_db, alpha, rho, rate, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ToleranceNotMet)
        value, _ = ergodic_rate_u2(params(snr_db), DesignPoint(alpha=alpha, rho=rho))
    assert abs(value - rate) <= err


class TestWeightedSum:
    def test_report_assembly(self):
        p = params(10, w2=2.0)
        rep = ergodic_weighted_sum(p, BASE)
        assert rep.c_sum_e == pytest.approx(rep.c1_e + 2.0 * rep.c2_e, rel=1e-14)
        assert rep.quadrature_error >= 0.0

    def test_linearity_in_weights(self):
        p1 = params(10, w2=2.0)
        p2 = SystemParams(avg_snr=10.0, mu=1.0, w1=2.0, w2=4.0)
        r1 = ergodic_weighted_sum(p1, BASE)
        r2 = ergodic_weighted_sum(p2, BASE)
        assert r2.c_sum_e == pytest.approx(2.0 * r1.c_sum_e, rel=1e-12)

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            SystemParams(avg_snr=10.0, w1=1.0, w2=0.0)
        with pytest.raises(DomainError):
            SystemParams(avg_snr=10.0, w1=0.0, w2=1.0)


class TestHighSnr:
    def test_saturation_at_equal_split(self):
        p = params(30)
        assert high_snr_u2(p, DesignPoint(alpha=0.5, rho=0.3)) == 0.5

    def test_u1_expansion_close_to_exact_at_high_snr(self):
        p = params(40)
        exact = ergodic_rate_u1(p, BASE)
        assert high_snr_u1(p, BASE) == pytest.approx(exact, rel=0.01)

    def test_weighted_sum_slope(self):
        # between 30 and 40 dB the analytic weighted sum climbs at w1/2 per
        # doubling of snr (log2 axis), within 10 percent
        d = BASE
        cs30 = ergodic_weighted_sum(params(30), d).c_sum_e
        cs40 = ergodic_weighted_sum(params(40), d).c_sum_e
        slope = (cs40 - cs30) / (math.log2(1e4) - math.log2(1e3))
        assert slope == pytest.approx(0.5, rel=0.10)

    @given(p=system_params_strategy(), d=design_points())
    def test_u2_form_depends_only_on_alpha(self, p, d):
        assert high_snr_u2(p, d) == pytest.approx(
            0.5 * math.log2(1.0 + (1.0 - d.alpha) / d.alpha), rel=1e-14
        )
