import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cnoma_eh.errors import DomainError
from cnoma_eh.model import (
    ChannelRealization,
    DesignPoint,
    SystemParams,
    _sinr_mrc,
    _sinr_x1,
    _sinr_x2,
    db_to_linear,
    rates,
    sinr_mrc_at_u2,
    sinr_x1_at_u1,
    sinr_x2_at_u1,
)

from conftest import design_points, ordered_channels, system_params_strategy


def make(avg_snr=10.0, mu=1.0, eta=1.0, g=(1.0, 0.5, 0.8), alpha=0.5, rho=0.3,
         w1=1.0, w2=2.0):
    p = SystemParams(avg_snr=avg_snr, mu=mu, eta=eta, w1=w1, w2=w2)
    ch = ChannelRealization(g1=g[0], g2=g[1], g3=g[2])
    d = DesignPoint(alpha=alpha, rho=rho)
    return p, ch, d


class TestTypes:
    @pytest.mark.parametrize("kwargs", [
        dict(avg_snr=0.0), dict(avg_snr=-1.0), dict(mu=-0.1),
        dict(eta=0.0), dict(eta=1.5), dict(var1=0.0), dict(var2=-1.0),
        dict(var3=0.0), dict(w1=0.0), dict(w2=0.0), dict(w2=-2.0),
    ])
    def test_system_params_rejects_bad_fields(self, kwargs):
        base = dict(avg_snr=10.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            SystemParams(**base)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("name", ["avg_snr", "mu", "var1", "var2", "var3", "w1", "w2"])
    def test_system_params_rejects_non_finite(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be"):
            SystemParams(**{"avg_snr": 10.0, name: value})

    def test_weights_must_be_positive_not_just_w2(self):
        with pytest.raises(DomainError):
            SystemParams(avg_snr=1.0, w1=1.0, w2=0.0)
        SystemParams(avg_snr=1.0, w1=2.0, w2=1.0)  # w2 < w1 is legal

    def test_wtilde2(self):
        assert SystemParams(avg_snr=1.0, w1=2.0, w2=5.0).wtilde2 == 2.5

    @pytest.mark.parametrize("g", [(-0.1, 0, 0), (0, -1, 0), (0, 0, -1e-9)])
    def test_channel_rejects_negative_gains(self, g):
        with pytest.raises(DomainError):
            ChannelRealization(*g)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_channel_rejects_non_finite_gains(self, index, value):
        g = [2.0, 1.0, 0.5]
        g[index] = value
        with pytest.raises(DomainError, match=f"g{index + 1} must be"):
            ChannelRealization(*g)

    @pytest.mark.parametrize("alpha,rho", [
        (0.0, 0.0), (1.0, 0.0), (-0.2, 0.0), (0.5, 1.0), (0.5, -0.01), (0.5, 1.5),
    ])
    def test_design_point_rejects_out_of_domain(self, alpha, rho):
        with pytest.raises(DomainError):
            DesignPoint(alpha=alpha, rho=rho)

    def test_design_point_boundaries(self):
        DesignPoint(alpha=1e-12, rho=0.0)
        DesignPoint(alpha=1.0 - 1e-12, rho=1.0 - 1e-12)


class TestSinrX1:
    def test_all_penalties_off_full_power(self):
        # kernel check at the alpha -> 1 boundary: no splitting, no conversion noise
        assert _sinr_x1(10.0, 0.0, 1.0, 1.0, 0.0) == 10.0

    def test_hand_value(self):
        p, ch, d = make(avg_snr=20.0, mu=0.5, g=(1.0, 0.5, 0.0), alpha=0.5, rho=0.5)
        assert sinr_x1_at_u1(p, ch, d) == pytest.approx(5.0, rel=1e-15)

    def test_vanishes_as_rho_approaches_one(self):
        p, ch, _ = make(mu=0.5)
        d = DesignPoint(alpha=0.5, rho=1.0 - 1e-12)
        assert sinr_x1_at_u1(p, ch, d) < 1e-10


class TestSinrX2:
    def test_zero_power_on_x2(self):
        # alpha -> 1 leaves nothing on the weak user's symbol
        assert _sinr_x2(10.0, 1.0, 2.0, 1.0, 0.3) == 0.0

    def test_classic_noma_form_when_no_eh_or_conversion_noise(self):
        p, ch, d = make(avg_snr=8.0, mu=0.0, g=(1.5, 0.5, 0.0), alpha=0.3, rho=0.0)
        expected = (1 - 0.3) * 8.0 * 1.5 / (0.3 * 8.0 * 1.5 + 1.0)
        assert sinr_x2_at_u1(p, ch, d) == pytest.approx(expected, rel=1e-15)

    def test_hand_value(self):
        p, ch, d = make(avg_snr=40.0, mu=1.0, g=(0.5, 0.1, 0.5), alpha=0.25, rho=0.25)
        assert sinr_x2_at_u1(p, ch, d) == pytest.approx(11.25 / 5.5, rel=1e-15)


class TestSinrMrc:
    def test_no_harvested_energy_direct_only(self):
        p, ch, d = make(g=(1.0, 0.4, 5.0), rho=0.0)
        expected = (1 - d.alpha) * p.avg_snr * 0.4 / (d.alpha * p.avg_snr * 0.4 + 1 + p.mu)
        assert sinr_mrc_at_u2(p, ch, d) == pytest.approx(expected, rel=1e-15)

    def test_broken_relay_link_equals_no_splitting(self):
        p, ch0, d0 = make(g=(1.0, 0.4, 0.0), rho=0.0)
        _, ch, d = make(g=(1.0, 0.4, 0.0), rho=0.6)
        assert sinr_mrc_at_u2(p, ch, d) == sinr_mrc_at_u2(p, ch0, d0)

    def test_hand_value(self):
        p, ch, d = make(avg_snr=40.0, mu=1.0, eta=1.0, g=(0.5, 0.1, 0.5),
                        alpha=0.25, rho=0.25)
        assert sinr_mrc_at_u2(p, ch, d) == pytest.approx(2.25, rel=1e-15)


class TestHarvestedEnergy:
    """U1 relays x2 on the energy it harvests in phase 1, eta * rho *
    avg_snr * g1; over a link of gain g3 and noise 1 + mu that adds
    rho * eta * avg_snr * g1 * g3 / (1 + mu) to the combiner SINR."""

    @staticmethod
    def relay_term(p, ch, d):
        direct = (1 - d.alpha) * p.avg_snr * ch.g2 / (d.alpha * p.avg_snr * ch.g2 + 1 + p.mu)
        return sinr_mrc_at_u2(p, ch, d) - direct

    def test_no_splitting_harvests_nothing(self):
        p, ch, d = make(g=(1.0, 0.5, 5.0), rho=0.0)
        assert self.relay_term(p, ch, d) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # harvested 0.5 * 0.4 * 10 * 0.3 = 0.6, over g3 / (1 + mu) = 1 / 2
        p, ch, d = make(avg_snr=10.0, mu=1.0, eta=0.5, g=(0.3, 0.1, 1.0), alpha=0.5, rho=0.4)
        assert self.relay_term(p, ch, d) == pytest.approx(0.3, rel=1e-14)

    def test_linear_in_rho(self):
        p, ch, _ = make(eta=1.0, g=(1.0, 0.5, 0.8))
        e1 = self.relay_term(p, ch, DesignPoint(0.5, 0.25))
        e2 = self.relay_term(p, ch, DesignPoint(0.5, 0.5))
        assert e2 == pytest.approx(2 * e1, rel=1e-14)


class TestRates:
    def test_all_zero_sinrs(self):
        p, ch, d = make(g=(0.0, 0.0, 0.0))
        r = rates(p, ch, d)
        assert r.c1 == 0.0 and r.c2 == 0.0 and r.weighted_sum == 0.0

    def test_exact_half_log2(self):
        # alpha*snr*g1 = 3 with all penalties off: c1 = log2(4)/2 = 1 exactly
        p, ch, d = make(avg_snr=6.0, mu=0.0, g=(1.0, 0.5, 0.0), alpha=0.5, rho=0.0)
        assert rates(p, ch, d).c1 == 1.0

    def test_exact_sinr_pair_three_and_one(self):
        # crafted so the decode SINR is 3 and the combiner SINR is exactly 1
        # (and below U1's x2 SINR): c1 = 1.0, c2 = 0.5 exactly
        p, ch, d = make(avg_snr=48.0, mu=0.0, g=(0.25, 1.0 / 24.0, 0.0),
                        alpha=0.25, rho=0.0, w1=1.0, w2=1.0)
        assert sinr_x1_at_u1(p, ch, d) == pytest.approx(3.0, rel=1e-15)
        assert sinr_mrc_at_u2(p, ch, d) == pytest.approx(1.0, rel=1e-15)
        assert sinr_x2_at_u1(p, ch, d) > 1.0
        r = rates(p, ch, d)
        assert r.c1 == pytest.approx(1.0, rel=1e-15)
        assert r.c2 == pytest.approx(0.5, rel=1e-15)

    def test_composed_hand_value(self):
        p, ch, d = make(avg_snr=40.0, mu=1.0, eta=1.0, g=(0.5, 0.1, 0.5),
                        alpha=0.25, rho=0.25, w1=1.0, w2=2.0)
        r = rates(p, ch, d)
        # 0.5*log2(1 + min(11.25/5.5, 2.25))
        assert r.c2 == pytest.approx(0.8033287859102376, rel=1e-14)
        assert r.weighted_sum == pytest.approx(r.c1 + 2 * r.c2, rel=1e-15)

    @given(p=system_params_strategy(), ch=ordered_channels(), d=design_points())
    def test_c2_is_half_log2_of_min_sinr(self, p, ch, d):
        r = rates(p, ch, d)
        expected = 0.5 * math.log2(
            1.0 + min(sinr_x2_at_u1(p, ch, d), sinr_mrc_at_u2(p, ch, d))
        )
        assert r.c2 == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert r.c1 >= 0 and r.c2 >= 0

    def test_c2_min_definition_bulk(self, rng):
        n = 100_000
        g1 = rng.exponential(1.0, n)
        g2 = rng.exponential(1.0, n)
        g3 = rng.exponential(1.0, n)
        s_x2 = _sinr_x2(10.0, 1.0, g1, 0.25, 0.3)
        s_mrc = _sinr_mrc(10.0, 1.0, 1.0, g1, g2, g3, 0.25, 0.3)
        c2 = 0.5 * np.log2(1.0 + np.minimum(s_x2, s_mrc))
        spot = rng.integers(0, n, 200)
        for i in spot:
            p = SystemParams(avg_snr=10.0, mu=1.0)
            ch = ChannelRealization(g1=float(g1[i]), g2=float(g2[i]), g3=float(g3[i]))
            assert rates(p, ch, DesignPoint(0.25, 0.3)).c2 == pytest.approx(float(c2[i]), rel=1e-12)


class TestMonotonicity:
    @given(p=system_params_strategy(mu=st.floats(0.01, 2.0)), ch=ordered_channels(),
           d=design_points(), h=st.just(1e-6))
    def test_sinr_x1_decreasing_in_rho_for_positive_mu(self, p, ch, d, h):
        if d.rho + h >= 1:
            return
        up = sinr_x1_at_u1(p, ch, DesignPoint(d.alpha, d.rho + h))
        assert up < sinr_x1_at_u1(p, ch, d)

    @given(p=system_params_strategy(), ch=ordered_channels(), d=design_points())
    def test_sinr_x1_increasing_in_alpha_and_g1(self, p, ch, d):
        h = 1e-6
        if d.alpha + h >= 1:
            return
        assert sinr_x1_at_u1(p, ch, DesignPoint(d.alpha + h, d.rho)) > sinr_x1_at_u1(p, ch, d)
        bigger = ChannelRealization(ch.g1 * (1 + 1e-6), ch.g2, ch.g3)
        assert sinr_x1_at_u1(p, bigger, d) > sinr_x1_at_u1(p, ch, d)

    @given(p=system_params_strategy(mu=st.floats(0.01, 2.0)), ch=ordered_channels(),
           d=design_points())
    def test_sinr_x2_decreasing_in_rho_and_alpha(self, p, ch, d):
        h = 1e-6
        if d.rho + h >= 1 or d.alpha + h >= 1:
            return
        assert sinr_x2_at_u1(p, ch, DesignPoint(d.alpha, d.rho + h)) < sinr_x2_at_u1(p, ch, d)
        assert sinr_x2_at_u1(p, ch, DesignPoint(d.alpha + h, d.rho)) < sinr_x2_at_u1(p, ch, d)

    @given(p=system_params_strategy(), ch=ordered_channels(), d=design_points())
    def test_sinr_mrc_increasing_in_rho(self, p, ch, d):
        h = 1e-6
        if d.rho + h >= 1 or ch.g3 == 0:
            return
        assert sinr_mrc_at_u2(p, ch, DesignPoint(d.alpha, d.rho + h)) > sinr_mrc_at_u2(p, ch, d)


class TestNormalization:
    @given(tx=st.floats(0.1, 1e6), noise=st.floats(1e-6, 10.0),
           ch=ordered_channels(), d=design_points(),
           mu=st.floats(0.0, 2.0), eta=st.floats(0.1, 1.0))
    def test_explicit_powers_match_normalized_form(self, tx, noise, ch, d, mu, eta):
        p = SystemParams(avg_snr=tx / noise, mu=mu, eta=eta)
        keep = 1.0 - d.rho
        # raw formulas with explicit transmit and noise powers
        raw_x1 = keep * d.alpha * tx * ch.g1 / (keep * noise + mu * noise)
        raw_x2 = keep * (1 - d.alpha) * tx * ch.g1 / (
            keep * d.alpha * tx * ch.g1 + keep * noise + mu * noise
        )
        raw_mrc = (1 - d.alpha) * tx * ch.g2 / (d.alpha * tx * ch.g2 + noise + mu * noise) \
            + d.rho * eta * tx * ch.g1 * ch.g3 / (noise + mu * noise)
        assert sinr_x1_at_u1(p, ch, d) == pytest.approx(raw_x1, rel=1e-12)
        assert sinr_x2_at_u1(p, ch, d) == pytest.approx(raw_x2, rel=1e-12)
        assert sinr_mrc_at_u2(p, ch, d) == pytest.approx(raw_mrc, rel=1e-12)


class TestTextbookReduction:
    def test_mu_zero_rho_zero_is_plain_two_user_noma(self):
        snr, g1, g2, alpha = 12.0, 1.8, 0.4, 0.35
        p = SystemParams(avg_snr=snr, mu=0.0)
        ch = ChannelRealization(g1=g1, g2=g2, g3=0.7)
        d = DesignPoint(alpha=alpha, rho=0.0)
        assert sinr_x1_at_u1(p, ch, d) == pytest.approx(alpha * snr * g1, rel=1e-15)
        assert sinr_x2_at_u1(p, ch, d) == pytest.approx(
            (1 - alpha) * snr * g1 / (alpha * snr * g1 + 1), rel=1e-15
        )
        assert sinr_mrc_at_u2(p, ch, d) == pytest.approx(
            (1 - alpha) * snr * g2 / (alpha * snr * g2 + 1), rel=1e-15
        )


class TestDbConversion:
    @given(db=st.floats(-60.0, 60.0))
    def test_round_trip(self, db):
        assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_known_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(np.array([0.0, 20.0]))[1] == pytest.approx(100.0, rel=1e-14)
