import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cnoma_eh import optimizer
from cnoma_eh.errors import (
    DivisionDegenerate,
    DomainError,
    InfeasibleChannel,
    NumericalFailure,
)
from cnoma_eh.model import (
    ChannelRealization,
    DesignPoint,
    SystemParams,
    rates,
    sinr_mrc_at_u2,
    sinr_x2_at_u1,
)
from cnoma_eh.optimizer import (
    _GRID2D_RHO_MAX,
    _INVPHI,
    _REFINE_TOL,
    ALPHA_MIN,
    AlphaGridSpec,
    SolverBranch,
    _alpha_grid,
    _coeffs,
    _draw,
    _feasibility_root,
    _golden_rows,
    _grid_argmax,
    _profile,
    _search,
    _stationary_root,
    f_objective,
    optimal_rho_for_alpha,
    rho_tilde,
    solve_1d,
    solve_2d_exhaustive,
)
from cnoma_eh.validation import _df_drho_numerator, random_instances

from conftest import ordered_channels, system_params_strategy


def sinr_gap(p, ch, alpha, rho):
    d = DesignPoint(alpha=alpha, rho=rho)
    return sinr_x2_at_u1(p, ch, d) - sinr_mrc_at_u2(p, ch, d)


def bisect_crossing(p, ch, alpha, iters=200):
    """Independent root finder for the SINR crossing in rho; None if the
    constraint never binds on [0, 1)."""
    lo, hi = 0.0, 1.0 - 1e-15
    if sinr_gap(p, ch, alpha, hi) >= 0.0:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if sinr_gap(p, ch, alpha, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_f_alpha(coeffs, wtilde2, rho):
    d, e, t, pp, q = coeffs
    return np.log(d - e * rho) - np.log(t - rho) + wtilde2 * np.log(pp + q * rho)


def f_coeffs(p, ch, alpha):
    """(d, e, t, pp, q) of f_alpha at a float alpha, from the solver's
    kernel, as floats."""
    k = _draw(p, ch.g1, ch.g2, ch.g3)
    d, e, pp = (float(v) for v in _coeffs(k, alpha)[:3])
    return d, e, 1.0 + p.mu, pp, k.q


def stationary_terms(p, ch, alpha):
    """(lead, beta, constant, theta) of the stationary-point quadratic, from
    the solver's kernel, as floats."""
    return [float(v) for v in _coeffs(_draw(p, ch.g1, ch.g2, ch.g3), alpha)[6:]]


def theta_beta(p, ch, alpha):
    _, beta, _, theta = stationary_terms(p, ch, alpha)
    return theta, beta


def rho_bar(p, ch, alpha):
    """The solver's smaller stationary root, on one-element arrays."""
    return _stationary_root(*(np.array([v]) for v in stationary_terms(p, ch, alpha))).item()


def golden_max(g, lo, hi, tol):
    """The scalar golden-section search the lock-step refine must reproduce:
    maximizes g on [lo, hi]; ties keep the left probe.  Returns (x_best,
    g_best, evaluations)."""
    a, b = lo, hi
    if b - a <= tol:
        mid = 0.5 * (a + b)
        return mid, g(mid), 1
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = g(c), g(d)
    evals = 2
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = g(d)
        evals += 1
    if fc >= fd:
        return c, fc, evals
    return d, fd, evals


def rows_of(k, rows):
    """The draws of the array inputs ``k`` at ``rows``, any numpy index."""
    return k._replace(g1=k.g1[rows], g2=k.g2[rows], q=k.q[rows])


def one_row_profile(k, alpha):
    """_profile of one draw at a float alpha as the refine takes it: on
    one-row arrays."""
    return _profile(k, np.array([alpha]))


def float_profile(k):
    return lambda a: one_row_profile(k, a)[3].item()


def grid_points(logf):
    """Profile points the grid stage evaluates for a draw whose profile on
    the whole grid is ``logf``: every 16th grid index and the last, then a
    window of 33 (the whole grid below 33 points) where the coarse profile
    rises strictly to one maximum and falls strictly after it, and all n
    points where it does not (a second local maximum, a tie or a NaN)."""
    n = len(logf)
    coarse = logf[sorted({*range(0, n, 16), n - 1})].tolist()
    steps = list(zip(coarse, coarse[1:]))
    peak = next((j for j, (a, b) in enumerate(steps) if not b > a), len(steps))
    single = all(b < a for a, b in steps[peak:])
    return len(coarse) + (min(33, n) if single else n)


def scalar_search(p, g1, g2, g3, n):
    """One draw's 1D search with the scalar golden section: the first-hit
    argmax of the profile on all n grid points, golden_max on its bracket,
    then rho* and the case at alpha*.  Returns ((alpha*, rho*, interior,
    lower, evaluations), incumbent index)."""
    k = _draw(p, g1, g2, g3)
    alphas = _alpha_grid(n)
    logf = _profile(k, alphas)[3]
    i = int(np.argmax(logf))
    lo, hi = float(alphas[max(i - 1, 0)]), float(alphas[min(i + 1, n - 1)])
    a_ref, f_ref, n_ref = golden_max(float_profile(k), lo, hi, _REFINE_TOL)
    alpha = a_ref if f_ref > logf[i] else float(alphas[i])
    rho, interior, lower, _ = one_row_profile(k, alpha)
    return (alpha, rho.item(), interior.item(), lower.item(), grid_points(logf) + n_ref + 1), i


def search_rows(p, g1, g2, g3, n):
    """_search on gain arrays, as one tuple of Python scalars per draw."""
    return list(zip(*(v.tolist() for v in _search([p], g1, g2, g3, n))))


class TestInnerCoefficients:
    def test_hand_values(self):
        p = SystemParams(avg_snr=40.0, mu=1.0, eta=1.0, w1=1.0, w2=2.0)
        ch = ChannelRealization(g1=0.5, g2=0.1, g3=0.5)
        d, e, t, _, q = f_coeffs(p, ch, 0.25)
        assert (d, e, t) == (7.0, 6.0, 2.0)
        assert q == 5.0

    def test_mu_zero_collapses_d_to_e(self):
        p = SystemParams(avg_snr=10.0, mu=0.0)
        ch = ChannelRealization(g1=1.0, g2=0.3, g3=0.4)
        d, e, t, _, _ = f_coeffs(p, ch, 0.4)
        assert d == e
        assert t == 1.0

    @given(p=system_params_strategy(), ch=ordered_channels(),
           alpha=st.floats(0.01, 0.99))
    def test_structural_invariants(self, p, ch, alpha):
        d, e, t, pp, q = f_coeffs(p, ch, alpha)
        assert d == pytest.approx(e + p.mu, rel=1e-15)
        assert t <= d
        assert pp >= 1.0
        assert q >= 0.0

    @given(p=system_params_strategy(), ch=ordered_channels(),
           alpha=st.floats(0.01, 0.99), rho=st.floats(0.0, 0.95))
    def test_f_alpha_matches_raw_sinr_objective(self, p, ch, alpha, rho):
        d, e, t, pp, q = f_coeffs(p, ch, alpha)
        f_raw = f_objective(p, ch, DesignPoint(alpha=alpha, rho=rho))
        f_coeff = (d - e * rho) / (t - rho) * (pp + q * rho) ** p.wtilde2
        assert f_coeff == pytest.approx(f_raw, rel=1e-12)


class TestBoundary:
    def test_coefficient_signs(self):
        for p, ch in random_instances(3, 50):
            a, _, c = _coeffs(_draw(p, ch.g1, ch.g2, ch.g3), 0.4)[3:6]
            if p.eta > 0 and ch.g1 > 0 and ch.g3 > 0:
                assert a > 0
            assert c > 0  # holds whenever g1 > g2

    def test_requires_ordered_channel(self):
        p = SystemParams(avg_snr=10.0)
        with pytest.raises(InfeasibleChannel):
            rho_tilde(p, ChannelRealization(g1=0.5, g2=0.5, g3=1.0), 0.5)
        with pytest.raises(InfeasibleChannel):
            rho_tilde(p, ChannelRealization(g1=0.2, g2=0.5, g3=1.0), 0.5)

    def test_alpha_domain(self):
        p = SystemParams(avg_snr=10.0)
        ch = ChannelRealization(g1=1.0, g2=0.5, g3=1.0)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                rho_tilde(p, ch, bad)

    def test_hand_instance_matches_bisection(self):
        p = SystemParams(avg_snr=100.0, mu=0.5, eta=1.0)
        ch = ChannelRealization(g1=2.0, g2=0.5, g3=1.0)
        rt = rho_tilde(p, ch, 0.3)
        ref = bisect_crossing(p, ch, 0.3)
        assert ref is not None
        assert rt == pytest.approx(ref, abs=1e-12)
        d = DesignPoint(alpha=0.3, rho=rt)
        s_mrc = sinr_mrc_at_u2(p, ch, d)
        assert abs(sinr_x2_at_u1(p, ch, d) - s_mrc) / (1.0 + s_mrc) < 1e-9

    def test_strictly_positive_at_ordered_channels(self):
        for p, ch in random_instances(5, 100):
            assert rho_tilde(p, ch, 0.25) > 0.0

    def test_random_instances_match_bisection(self):
        rng = np.random.default_rng(17)
        for p, ch in random_instances(11, 200):
            alpha = float(rng.uniform(0.02, 0.98))
            rt = rho_tilde(p, ch, alpha)
            ref = bisect_crossing(p, ch, alpha)
            if ref is None:
                # no crossing below 1: the boundary sits at 1 up to roundoff
                assert rt >= 1.0 - 1e-9
            else:
                assert rt == pytest.approx(ref, abs=1e-9)

    def test_weak_relay_with_no_conversion_noise_never_binds(self):
        # with mu = 0 the decode SINR no longer depends on rho, so a weak
        # enough relay link leaves the whole [0, 1) range feasible
        p = SystemParams(avg_snr=10.0, mu=0.0, eta=1.0)
        ch = ChannelRealization(g1=1.0, g2=0.3, g3=1e-9)
        assert rho_tilde(p, ch, 0.5) == 1.0
        assert bisect_crossing(p, ch, 0.5) is None
        # and as the relay weakens, the boundary climbs toward 1
        prev = 0.0
        for g3 in (0.5, 0.2, 0.1, 0.05):
            rt = rho_tilde(p, ChannelRealization(g1=1.0, g2=0.3, g3=g3), 0.5)
            assert rt >= prev
            prev = rt

    def test_constraint_equivalence(self):
        rng = np.random.default_rng(23)
        for p, ch in random_instances(29, 200):
            alpha = float(rng.uniform(0.02, 0.98))
            rt = rho_tilde(p, ch, alpha)
            for rho in rng.uniform(0.0, 0.999, 50):
                gap = sinr_gap(p, ch, alpha, float(rho))
                d = DesignPoint(alpha=alpha, rho=float(rho))
                band = 1e-8 * (1.0 + sinr_mrc_at_u2(p, ch, d))
                if rho <= rt - 1e-12:
                    assert gap >= -band
                elif rho >= rt + 1e-12:
                    assert gap <= band


class TestObjective:
    def test_reformulation_equivalence(self):
        for p, ch in random_instances(31, 100):
            d = DesignPoint(alpha=0.35, rho=0.2)
            f = f_objective(p, ch, d)
            r = rates(p, ch, d)
            lhs = 0.5 * p.w1 * math.log2(f)
            rhs = p.w1 * r.c1 + p.w2 * 0.5 * math.log2(1 + sinr_mrc_at_u2(p, ch, d))
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert f > 0

    def test_degenerate_values(self):
        p = SystemParams(avg_snr=1.0, w1=1.0, w2=2.0)
        ch = ChannelRealization(g1=0.0, g2=0.0, g3=0.0)
        assert f_objective(p, ch, DesignPoint(0.5, 0.0)) == 1.0

    def test_exact_sinr_pair_values(self):
        # decode SINR 3 and combiner SINR 1: f = 4 * 2^wr
        ch = ChannelRealization(g1=0.25, g2=1.0 / 24.0, g3=0.0)
        d = DesignPoint(alpha=0.25, rho=0.0)
        p1 = SystemParams(avg_snr=48.0, mu=0.0, w1=1.0, w2=1.0)
        p2 = SystemParams(avg_snr=48.0, mu=0.0, w1=1.0, w2=2.0)
        assert f_objective(p1, ch, d) == pytest.approx(8.0, rel=1e-14)
        assert f_objective(p2, ch, d) == pytest.approx(16.0, rel=1e-14)


class TestDerivativeNumerator:
    def test_mu_zero_form(self):
        # with d = e and t = 1 the numerator reduces to q wr (1 - rho)(d - e rho) > 0
        p = SystemParams(avg_snr=10.0, mu=0.0, w1=1.0, w2=3.0)
        coeffs = f_coeffs(p, ChannelRealization(1.5, 0.5, 0.7), 0.4)
        d, e, _, _, q = coeffs
        for rho in (0.0, 0.3, 0.9):
            expected = q * 3.0 * (1 - rho) * (d - e * rho)
            assert _df_drho_numerator(*coeffs, 3.0, rho) == pytest.approx(expected, rel=1e-13)
            assert _df_drho_numerator(*coeffs, 3.0, rho) > 0

    def test_dead_relay_form(self):
        # q = 0: numerator = (d - e t) p = -mu alpha snr g1 p <= 0
        p = SystemParams(avg_snr=10.0, mu=0.8, w1=1.0, w2=2.0)
        coeffs = f_coeffs(p, ChannelRealization(1.5, 0.5, 0.0), 0.4)
        _, _, _, pp, q = coeffs
        assert q == 0.0
        expected = -(0.8 * 0.4 * 10.0 * 1.5) * pp
        for rho in (0.0, 0.5):
            assert _df_drho_numerator(*coeffs, 2.0, rho) == pytest.approx(expected, rel=1e-13)

    def test_sign_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        for p, ch in random_instances(41, 100):
            alpha = float(rng.uniform(0.05, 0.95))
            rho = float(rng.uniform(0.0, 0.9))
            coeffs = f_coeffs(p, ch, alpha)
            d, _, t, pp, q = coeffs
            num = _df_drho_numerator(*coeffs, p.wtilde2, rho)
            h = 1e-7
            fd = (log_f_alpha(coeffs, p.wtilde2, rho + h)
                  - log_f_alpha(coeffs, p.wtilde2, max(rho - h, 0.0)))
            scale = abs(d * pp) + abs(q * p.wtilde2 * t * d)
            if abs(num) > 1e-6 * scale:  # away from the stationary point
                assert math.copysign(1, num) == math.copysign(1, fd)


class TestThetaBeta:
    def test_dead_relay(self):
        p = SystemParams(avg_snr=10.0, mu=1.0)
        theta, beta = theta_beta(p, ChannelRealization(1.0, 0.5, 0.0), 0.5)
        assert beta == 0.0
        assert theta == 0.0

    def test_equal_weights_beta(self):
        p = SystemParams(avg_snr=10.0, mu=0.7, w2=1.0)
        ch = ChannelRealization(1.3, 0.4, 0.9)
        _, e, t, _, q = f_coeffs(p, ch, 0.35)
        _, beta = theta_beta(p, ch, 0.35)
        assert beta == pytest.approx(q * e * t, rel=1e-14)

    def test_discriminant_matches_polynomial_fit(self):
        # interpolate the quadratic numerator through three points in
        # high-precision arithmetic and compare its discriminant with 4 theta
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(43)
        with mp.workdps(50):
            for p, ch in random_instances(47, 100):
                alpha = float(rng.uniform(0.05, 0.95))
                coeffs = f_coeffs(p, ch, alpha)
                if coeffs[4] == 0.0:
                    continue
                wr = mp.mpf(p.wtilde2)
                d, e, t, pp, q = (mp.mpf(v) for v in coeffs)

                def num(rho):
                    return (d - e * t) * (pp + q * rho) + q * wr * (t - rho) * (d - e * rho)

                n_m, n_0, n_p = num(-1), num(0), num(1)
                a_fit = (n_p + n_m) / 2 - n_0
                b_fit = (n_p - n_m) / 2
                disc_fit = b_fit * b_fit - 4 * a_fit * n_0
                theta, beta = theta_beta(p, ch, alpha)
                fd, fe, ft, fp, fq = coeffs
                constant = (fd - fe * ft) * fp + fq * p.wtilde2 * ft * fd
                scale = 4.0 * max(beta * beta, abs(fq * p.wtilde2 * fe * constant))
                assert abs(float(disc_fit) - 4.0 * theta) <= 1e-10 * scale


class TestRhoBar:
    def interior_cases(self, n=400, seed=53):
        rng = np.random.default_rng(seed)
        for p, ch in random_instances(seed, n):
            alpha = float(rng.uniform(0.05, 0.95))
            coeffs = f_coeffs(p, ch, alpha)
            if coeffs[4] == 0.0:
                continue
            theta, _ = theta_beta(p, ch, alpha)
            if theta <= 0.0:
                continue
            rb = rho_bar(p, ch, alpha)
            yield p, ch, alpha, coeffs, rb

    def test_degenerate_division(self):
        p = SystemParams(avg_snr=10.0, mu=1.0)
        with pytest.raises(DivisionDegenerate):
            rho_bar(p, ChannelRealization(1.0, 0.5, 0.0), 0.5)

    def test_stationary_point_of_derivative(self):
        found = 0
        for p, ch, alpha, coeffs, rb in self.interior_cases():
            if not 0.0 <= rb < 1.0:
                continue
            found += 1
            # conditioning scale of evaluating the quadratic at rb
            d, e, t, pp, q = coeffs
            theta, beta = theta_beta(p, ch, alpha)
            constant = (d - e * t) * pp + q * p.wtilde2 * t * d
            scale = q * p.wtilde2 * e * rb * rb + 2 * abs(beta) * rb + abs(constant)
            assert abs(_df_drho_numerator(*coeffs, p.wtilde2, rb)) <= 1e-9 * scale
        assert found > 10

    def test_local_maximum_probe(self):
        eps = 1e-4
        for p, ch, alpha, coeffs, rb in self.interior_cases():
            if not eps < rb < 1.0 - eps:
                continue
            fm = log_f_alpha(coeffs, p.wtilde2, rb - eps)
            f0 = log_f_alpha(coeffs, p.wtilde2, rb)
            fp = log_f_alpha(coeffs, p.wtilde2, rb + eps)
            assert fm < f0 and fp < f0

    def test_bounded_by_t_for_growing_weight_ratio(self):
        p0 = SystemParams(avg_snr=30.0, mu=1.0)
        ch = ChannelRealization(g1=1.2, g2=0.4, g3=0.8)
        coeffs = f_coeffs(p0, ch, 0.3)
        t = coeffs[2]
        grid = np.linspace(0.0, 0.999999, 10_000)
        for wr in (1.5, 3.0, 10.0, 1e2, 1e4):
            p = dataclasses.replace(p0, w2=wr)  # w1 = 1, so wtilde2 = wr
            theta, _ = theta_beta(p, ch, 0.3)
            if theta <= 0:
                continue
            rb = rho_bar(p, ch, 0.3)
            assert rb <= t + 1e-12
            if 0 < rb < 1:  # fine-grid argmax agrees with the closed form
                best = grid[np.argmax(log_f_alpha(coeffs, wr, grid))]
                assert abs(best - rb) < 2e-4


class TestRhoPolicy:
    def test_dead_relay_goes_to_zero_not_boundary(self):
        p = SystemParams(avg_snr=10.0, mu=1.0, w1=1.0, w2=2.0)
        ch = ChannelRealization(g1=1.5, g2=0.5, g3=0.0)
        rho, branch = optimal_rho_for_alpha(p, ch, 0.4)
        assert rho == 0.0
        assert branch is SolverBranch.LOWER
        coeffs = f_coeffs(p, ch, 0.4)
        grid = np.linspace(0.0, rho_tilde(p, ch, 0.4), 10_000)
        vals = log_f_alpha(coeffs, p.wtilde2, grid)
        assert vals[0] == pytest.approx(float(np.max(vals)), rel=1e-12)

    def test_no_conversion_noise_rides_the_boundary(self):
        p = SystemParams(avg_snr=10.0, mu=0.0, w1=1.0, w2=2.0)
        ch = ChannelRealization(g1=1.5, g2=0.5, g3=0.8)
        rho, branch = optimal_rho_for_alpha(p, ch, 0.4)
        assert branch is SolverBranch.BOUNDARY
        assert rho == pytest.approx(rho_tilde(p, ch, 0.4), abs=1e-9)

    def test_policy_beats_dense_grid(self):
        rng = np.random.default_rng(61)
        for p, ch in random_instances(67, 300):
            alpha = float(rng.uniform(0.05, 0.95))
            rho, _ = optimal_rho_for_alpha(p, ch, alpha)
            coeffs = f_coeffs(p, ch, alpha)
            rt = min(rho_tilde(p, ch, alpha), 1.0 - 1e-9)
            grid = np.linspace(0.0, rt, 10_000)
            best = float(np.max(log_f_alpha(coeffs, p.wtilde2, grid)))
            mine = log_f_alpha(coeffs, p.wtilde2, rho)
            assert mine >= best - 1e-6 * abs(best) - 1e-12

    def test_unimodal_shape_classification(self):
        # the fixed-alpha objective is monotone or single-peaked as the
        # (theta, rho_bar) classification predicts
        rng = np.random.default_rng(71)
        for p, ch in random_instances(73, 120):
            alpha = float(rng.uniform(0.05, 0.95))
            coeffs = f_coeffs(p, ch, alpha)
            grid = np.linspace(0.0, 1.0 - 1e-6, 10_000)
            vals = log_f_alpha(coeffs, p.wtilde2, grid)
            diffs = np.diff(vals)
            signs = np.sign(diffs[np.abs(diffs) > 1e-13])
            changes = int(np.count_nonzero(np.diff(signs)))
            if coeffs[4] == 0.0:
                assert changes == 0 and (len(signs) == 0 or signs[0] <= 0)
                continue
            theta, _ = theta_beta(p, ch, alpha)
            rb = rho_bar(p, ch, alpha) if theta > 0 else None
            if theta > 0 and rb is not None and 1e-4 < rb < 1 - 1e-4:
                assert changes <= 1
                if changes == 1:
                    assert signs[0] > 0 and signs[-1] < 0
            elif theta > 0 and rb is not None and rb <= 0:
                assert changes == 0 and signs[0] < 0
            elif theta <= 0:
                assert changes == 0 and (len(signs) == 0 or signs[0] > 0)


def assert_rows_are_alone(block, alone):
    """Each field of ``block`` holds, row by row, the bits of that field in
    the one-row results ``alone``."""
    for j, field in enumerate(block):
        assert field.dtype == alone[0][j].dtype
        assert field.tobytes() == b"".join(a[j].tobytes() for a in alone)


class TestProfile:
    def test_search_rows_take_the_bits_of_each_draw_alone(self):
        # each row of a multi-row profile (rho*, the two masks, log f)
        # and of a block's search (alpha*, rho*, the two masks and the
        # evaluations) has the bits its draw gets alone, on live and
        # dead-relay rows alike
        pool = random_instances(97, 150)
        rng = np.random.default_rng(3)
        cases = set()
        for mu in (0.0, 1.0):
            gains = [(ch.g1, ch.g2, ch.g3) for p, ch in pool if p.mu == mu][:40]
            gains += [(g1, g2, 0.0) for g1, g2, _ in gains[::4]]
            g1, g2, g3 = (np.array(x) for x in zip(*gains))
            for snr_db in (0.0, 20.0, 40.0):
                p = SystemParams(avg_snr=10.0 ** (snr_db / 10.0), mu=mu, w1=1.0, w2=3.0)
                alpha = rng.uniform(ALPHA_MIN, 1.0 - ALPHA_MIN, len(gains))
                k = _draw(p, g1, g2, g3)
                alone = [one_row_profile(_draw(p, *x), a) for x, a in zip(gains, alpha)]
                # the refine's (rows,) profile and the grid's (rows, 1) x
                # (m,) one, each on the whole mixed block
                got = _profile(k, alpha)
                assert_rows_are_alone(got, alone)
                dead = k.q == 0.0
                assert dead.any() and (~dead).any()
                # dead-relay rows: lower, never interior, rho* = 0
                assert got[2][dead].all() and not (got[1][dead].any() or got[0][dead].any())
                cols = rng.choice(1000, 5, replace=False)
                grid_alpha = _alpha_grid(1000)[cols]
                got = _profile(rows_of(k, np.s_[:, None]), grid_alpha)
                assert_rows_are_alone(got, [_profile(_draw(p, *x), grid_alpha) for x in gains])
                assert got[2][dead].all() and not (got[1][dead].any() or got[0][dead].any())
                block = _search([p], g1, g2, g3, 1000)
                assert_rows_are_alone(
                    block, [_search([p], *(np.array([x]) for x in draw), 1000) for draw in gains])
                cases |= set(zip(block[2].tolist(), block[3].tolist()))
        # interior, lower and boundary all reached at alpha*
        assert cases == {(True, False), (False, True), (False, False)}


class TestSolve1D:
    def test_trivial_weights(self):
        ch = ChannelRealization(g1=1.5, g2=0.5, g3=0.8)
        for w1, w2 in ((2.0, 1.0), (1.0, 1.0)):
            p = SystemParams(avg_snr=10.0, w1=w1, w2=w2)
            out = solve_1d(p, ch)
            assert out.branch is SolverBranch.TRIVIAL
            assert out.alpha_star == 1.0 - ALPHA_MIN
            assert out.rho_star == 0.0
            assert out.evaluations == 1

    def test_requires_ordered_channel(self):
        p = SystemParams(avg_snr=10.0, w1=1.0, w2=2.0)
        with pytest.raises(InfeasibleChannel):
            solve_1d(p, ChannelRealization(g1=0.5, g2=0.5, g3=0.8))

    def test_weight_scaling_leaves_argmax_unchanged(self):
        ch = ChannelRealization(g1=1.5, g2=0.5, g3=0.8)
        p = SystemParams(avg_snr=10.0, w1=1.0, w2=2.0)
        p7 = SystemParams(avg_snr=10.0, w1=7.0, w2=14.0)
        a, b = solve_1d(p, ch), solve_1d(p7, ch)
        assert a.alpha_star == b.alpha_star
        assert a.rho_star == b.rho_star
        assert b.rate_triple.weighted_sum == pytest.approx(
            7 * a.rate_triple.weighted_sum, rel=1e-12
        )

    def test_beats_2d_oracle(self):
        for p, ch in random_instances(79, 40):
            ws_1d = solve_1d(p, ch).rate_triple.weighted_sum
            ws_2d = solve_2d_exhaustive(p, ch, 150, 150).rate_triple.weighted_sum
            assert ws_1d >= ws_2d - 1e-4

    def test_feasible_and_combiner_limited_at_optimum(self):
        for p, ch in random_instances(83, 40):
            out = solve_1d(p, ch)
            assert 0.0 <= out.rho_star <= rho_tilde(p, ch, out.alpha_star) + 1e-12
            d = DesignPoint(out.alpha_star, out.rho_star)
            s_mrc = sinr_mrc_at_u2(p, ch, d)
            assert sinr_x2_at_u1(p, ch, d) >= s_mrc - 1e-8 * (1.0 + s_mrc)
            # reported branch is the case actually taken at alpha_star
            rho_again, branch_again = optimal_rho_for_alpha(p, ch, out.alpha_star)
            assert out.branch is branch_again
            assert out.rho_star == rho_again

    def test_objective_consistent_with_rates(self):
        p = SystemParams(avg_snr=25.0, mu=0.5, w1=1.0, w2=3.0)
        ch = ChannelRealization(g1=2.0, g2=0.6, g3=1.1)
        out = solve_1d(p, ch)
        d = DesignPoint(out.alpha_star, out.rho_star)
        assert out.objective_f == pytest.approx(f_objective(p, ch, d), rel=1e-12)
        assert out.rate_triple.weighted_sum == pytest.approx(
            rates(p, ch, d).weighted_sum, rel=1e-14
        )
        # 64 coarse points, a 33-point window, 17 refine probes at the
        # grid's edge and the profile at alpha*
        assert out.evaluations == 64 + 33 + 17 + 1

    def test_refinement_never_hurts(self):
        # the refined optimum is never worse than the best point of its grid
        grid = AlphaGridSpec(n=200)
        assert grid.margin == ALPHA_MIN  # the name the benchmark's tracer reads
        alphas = np.linspace(grid.margin, 1.0 - grid.margin, grid.n)
        for p, ch in random_instances(89, 30):
            k = _draw(p, ch.g1, ch.g2, ch.g3)
            rho, _, _, logf = _profile(k, alphas)
            i = int(np.argmax(logf))
            on_grid = rates(p, ch, DesignPoint(float(alphas[i]), float(rho[i]))).weighted_sum
            assert solve_1d(p, ch, grid).rate_triple.weighted_sum >= on_grid - 1e-12


class TestSolve2D:
    def test_degenerate_grid_returns_best_corner(self):
        p = SystemParams(avg_snr=10.0, mu=1.0, w1=1.0, w2=2.0)
        ch = ChannelRealization(g1=1.5, g2=0.5, g3=0.8)
        out = solve_2d_exhaustive(p, ch, 2, 2)
        corners = []
        for a in (ALPHA_MIN, 1 - ALPHA_MIN):
            for r in (0.0, _GRID2D_RHO_MAX):
                corners.append(rates(p, ch, DesignPoint(a, r)).weighted_sum)
        assert out.rate_triple.weighted_sum == max(corners)
        assert out.evaluations == 4

    def test_grid_must_have_two_points_per_axis(self):
        p = SystemParams(avg_snr=10.0, mu=1.0, w1=1.0, w2=2.0)
        ch = ChannelRealization(g1=1.5, g2=0.5, g3=0.8)
        for n_alpha, n_rho in ((1, 10), (10, 1)):
            with pytest.raises(DomainError):
                solve_2d_exhaustive(p, ch, n_alpha, n_rho)

    def test_nested_refinement_is_monotone(self):
        p = SystemParams(avg_snr=15.0, mu=1.0, w1=1.0, w2=3.0)
        ch = ChannelRealization(g1=1.2, g2=0.4, g3=0.9)
        values = []
        for n in (25, 49, 97):  # nested uniform grids: midpoints added
            out = solve_2d_exhaustive(p, ch, n, n)
            values.append(out.rate_triple.weighted_sum)
        assert values[0] <= values[1] <= values[2]

    def test_tie_break_prefers_smallest_rho(self):
        # mu = 0 and a dead relay make the weighted sum independent of rho,
        # so the argmax must land on rho = 0
        p = SystemParams(avg_snr=10.0, mu=0.0, w1=1.0, w2=2.0)
        ch = ChannelRealization(g1=1.5, g2=0.5, g3=0.0)
        out = solve_2d_exhaustive(p, ch, 40, 40)
        assert out.rho_star == 0.0
        assert out.branch is SolverBranch.GRID


# solve_1d outcomes frozen bit for bit: (alpha_star, rho_star, objective_f,
# c1, c2, weighted_sum) as float.hex, then the branch and the evaluation
# count.  Keys 0-11 are random_instances(1001, 12); the named draws are in
# _FROZEN_DRAWS.  A change that moves any of these bits changes the figures.
_FROZEN_OUTCOMES = {
    0: ('0x1.23b03e2ba2efcp-9', '0x1.ffffff7a0ec2cp-1', '0x1.64fc97bee3868p+74', '0x1.54dfc46a1e881p-2', '0x1.d868c969b7510p+1', '0x1.29eb3d6ae6cfbp+5', 'INTERIOR', 116),
    1: ('0x1.a36e2eb1c432dp-14', '0x1.d039b63c6bb39p-2', '0x1.77bee1c3417a4p+1', '0x1.afaac84daeb04p-15', '0x1.8db2ce3b3176bp-2', '0x1.8db98ce652ad7p-1', 'BOUNDARY', 115),
    2: ('0x1.a36e2eb1c432dp-14', '0x1.4a5244f846f9cp-3', '0x1.200c8d93410b8p+9', '0x1.0cc3ec83c2012p-14', '0x1.d581949c60f33p-2', '0x1.257209a5a91bcp+2', 'BOUNDARY', 115),
    3: ('0x1.70ee617006316p-1', '0x1.8594e1fe6aaaep-2', '0x1.0373813cf1d37p+2', '0x1.65b5f5e372f90p-1', '0x1.3e784df030496p-3', '0x1.02790e6dc58eep+0', 'BOUNDARY', 116),
    4: ('0x1.a36e2eb1c432dp-14', '0x1.4560f54727289p-2', '0x1.16ea9c513c7fap+18', '0x1.ace134742a450p-11', '0x1.cfecb00437ffdp+0', '0x1.21faa18774d09p+3', 'BOUNDARY', 115),
    5: ('0x1.a36e2eb1c432dp-14', '0x1.38436f07bd20ep-2', '0x1.c4a67bffca11bp+6', '0x1.a759dacd8c39cp-10', '0x1.22f1eb166928fp+1', '0x1.b49fcbdcf76eep+1', 'BOUNDARY', 115),
    6: ('0x1.a36e2eb1c432dp-14', '0x1.3fb2b5407e1d0p-1', '0x1.02a9e54eaf9efp+5', '0x1.627a08c6c1efbp-12', '0x1.40e99803b9717p+0', '0x1.40f4abd3ffa78p+1', 'BOUNDARY', 115),
    7: ('0x1.a36e2eb1c432dp-14', '0x1.4e54342019f80p-2', '0x1.f5918a3de5a17p+11', '0x1.42030209d404dp-12', '0x1.326c8d6e4d347p+0', '0x1.7f0cb8d5e8a8ep+2', 'BOUNDARY', 115),
    8: ('0x1.a36e2eb1c432dp-14', '0x1.fc33086d82bfap-3', '0x1.04c5d9e8d0064p+20', '0x1.c70c105ed5591p-13', '0x1.0055e784504a3p+0', '0x1.406d287174bb9p+3', 'BOUNDARY', 115),
    9: ('0x1.a36e2eb1c432dp-14', '0x1.950ac3d344dc1p-2', '0x1.fa0a3f2d011f4p+100', '0x1.529ec968af2c7p-4', '0x1.429de9e965527p+2', '0x1.93eeb3c872feap+5', 'BOUNDARY', 115),
    10: ('0x1.a780a881f290cp-10', '0x1.fffffff768fa1p-1', '0x1.9eda1c4fc7c4ap+13', '0x1.106d07166c89bp-3', '0x1.adc5ef655c19dp+1', '0x1.b649579e0f7e2p+2', 'BOUNDARY', 116),
    11: ('0x1.a36e2eb1c432dp-14', '0x1.509f95279c9bdp-3', '0x1.159acb300b808p+45', '0x1.37cac28a517eap-5', '0x1.2042cadf6ae7ep+2', '0x1.68ef62f88acaap+4', 'BOUNDARY', 115),
    'solve_cli': ('0x1.a36e2eb1c432dp-14', '0x1.d6d14aa0d995cp-2', '0x1.39728e958b52dp+5', '0x1.8dd6ece137bbbp-12', '0x1.52a5016beb89cp+0', '0x1.52b1702352938p+1', 'BOUNDARY', 115),
    'mu_zero': ('0x1.a36e2eb1c432dp-14', '0x1.7a9d88b1422a3p-1', '0x1.11f792d949fa0p+11', '0x1.c58f7f542366fp-11', '0x1.d96f5049339ecp+0', '0x1.6321a8b2e1583p+2', 'BOUNDARY', 115),
    'dead_relay': ('0x1.1111055a4ecccp-3', '0x0.0p+0', '0x1.b8fffffffff2fp+3', '0x1.fffff0281924ap-2', '0x1.646eee1a760d8p-1', '0x1.e46eea247c56ap+0', 'LOWER', 116),
    'alpha_floor': ('0x1.a36e2eb1c432dp-14', '0x1.a57f598c308bbp-1', '0x1.9adb037179fa6p+101', '0x1.64491f578b3e3p-4', '0x1.44d3c7855ccacp+2', '0x1.96baddf65fc31p+5', 'BOUNDARY', 115),
    'rho_cap': ('0x1.ebd5757b24d0bp-3', '0x1.fffffff768fa1p-1', '0x1.dcc837e3936e5p+4', '0x1.9bb9e7ae59e78p-1', '0x1.a4fa0c17f64bdp-1', '0x1.396b7ff7919fcp+1', 'BOUNDARY', 116),
    'grid_200': ('0x1.a36e2eb1c432dp-14', '0x1.c6653ca816fd3p-2', '0x1.3d56f753f46c0p+14', '0x1.f143f26a2a56ep-10', '0x1.3132541915b3cp+1', '0x1.c9ea9264c7304p+2', 'BOUNDARY', 68),
    'trivial': ('0x1.fff2e48e8a71ep-1', '0x0.0p+0', '0x1.0ffc57bfd603bp+3', '0x1.8b2dcf99eb49fp+0', '0x1.b03caaa2e4a35p-15', '0x1.8b2f7fd695ecdp+1', 'TRIVIAL', 1),
}

_EDGE_GAINS = tuple(float.fromhex(h) for h in (
    '0x1.b4d3c687ff11dp-1', '0x1.d525f4d24b322p-4', '0x1.5a8d2eec37acbp-3'))

# name: (SystemParams fields, (g1, g2, g3), grid points)
_FROZEN_DRAWS = {
    'solve_cli': (dict(avg_snr=10.0), (1.5, 0.5, 0.8), 1000),  # cnoma-eh solve's example
    'mu_zero': (dict(avg_snr=10.0, mu=0.0, w2=3.0), (1.2, 0.4, 0.9), 1000),
    'dead_relay': (dict(avg_snr=10.0, mu=1.0, w2=2.0), (1.5, 0.5, 0.0), 1000),  # q == 0
    'alpha_floor': (dict(avg_snr=1e4, mu=1.0, w2=10.0), _EDGE_GAINS, 1000),  # 40 dB, alpha* = ALPHA_MIN
    'rho_cap': (dict(avg_snr=10.0, mu=0.0, w2=2.0), _EDGE_GAINS, 1000),  # rho* = _RHO_CAP
    'grid_200': (dict(avg_snr=25.0, mu=0.5, w2=3.0), (2.0, 0.6, 1.1), 200),
    'trivial': (dict(avg_snr=10.0, w1=2.0, w2=1.0), (1.5, 0.5, 0.8), 1000),
}


def _frozen_row(out):
    r = out.rate_triple
    floats = (out.alpha_star, out.rho_star, out.objective_f, r.c1, r.c2, r.weighted_sum)
    return tuple(x.hex() for x in floats) + (out.branch.name, out.evaluations)


class TestFrozenOutcomes:
    def test_solve_1d_outcomes_bit_for_bit(self):
        got = {i: _frozen_row(solve_1d(p, ch))
               for i, (p, ch) in enumerate(random_instances(1001, 12))}
        for name, (fields, gains, n) in _FROZEN_DRAWS.items():
            out = solve_1d(SystemParams(**fields), ChannelRealization(*gains), AlphaGridSpec(n=n))
            got[name] = _frozen_row(out)
        assert got == _FROZEN_OUTCOMES

    def test_frozen_draws_reach_their_edges(self):
        floor = solve_1d(SystemParams(**_FROZEN_DRAWS['alpha_floor'][0]),
                         ChannelRealization(*_EDGE_GAINS))
        assert floor.alpha_star == ALPHA_MIN
        cap = solve_1d(SystemParams(**_FROZEN_DRAWS['rho_cap'][0]),
                       ChannelRealization(*_EDGE_GAINS))
        assert cap.rho_star == 1.0 - 1e-9


class TestDiscriminantGuards:
    # b^2 - 4ac = 16 (1 - 1e-12)^2 - 16, about -3e-11: roundoff next to a
    # tangency, far inside the guard of 1e-8 * scale^2 = 1.6e-7
    TANGENT = (4.0, 4.0 * (1.0 - 1e-12), 1.0)
    BAD = (1.0, 1.0, 1.0)  # b^2 - 4ac = -3

    def test_feasibility_roundoff_is_clamped(self):
        a, b, c = self.TANGENT
        assert b * b - 4.0 * a * c < 0.0
        arr = _feasibility_root(*(np.array([x, x]) for x in self.TANGENT))
        assert arr.tolist() == [2.0 * c / b] * 2

    def test_feasibility_below_guard_raises(self):
        with pytest.raises(NumericalFailure):
            _feasibility_root(*(np.array([x]) for x in self.BAD))

    def test_feasibility_one_bad_row_raises(self):
        good = (2.0, 5.0, 1.0)
        rows = np.array([good, self.TANGENT, self.BAD, good]).T
        with pytest.raises(NumericalFailure):
            _feasibility_root(*rows)
        assert _feasibility_root(*rows[:, [0, 1, 3]]).shape == (3,)

    def test_feasibility_nan_never_trips_the_guard(self):
        assert math.isnan(_feasibility_root(np.array([math.nan]), np.ones(1), np.ones(1))[0])

    # theta = 1 - (1 + 1e-12): roundoff against a guard of 1e-8
    S_TANGENT = (1.0, 1.0, 1.0 + 1e-12, 1.0 - (1.0 + 1e-12))
    S_BAD = (1.0, 0.0, 1.0, -1.0)  # lead, beta, constant, theta

    def test_stationary_roundoff_is_clamped(self):
        lead, beta, constant, theta = self.S_TANGENT
        assert theta < 0.0
        arr = _stationary_root(*(np.array([x, x]) for x in self.S_TANGENT))
        assert arr.tolist() == [constant / beta] * 2

    def test_stationary_below_guard_raises(self):
        with pytest.raises(NumericalFailure):
            _stationary_root(*(np.array([x]) for x in self.S_BAD))

    def test_stationary_one_bad_row_raises(self):
        good = (1.0, 2.0, 1.0, 3.0)
        rows = np.array([good, self.S_TANGENT, self.S_BAD, good]).T
        with pytest.raises(NumericalFailure):
            _stationary_root(*rows)
        assert _stationary_root(*rows[:, [0, 1, 3]]).shape == (3,)

    def test_stationary_zero_lead_raises_on_the_array_path(self):
        good = (1.0, 2.0, 1.0, 3.0)
        rows = np.array([good, (0.0, 2.0, 1.0, 4.0)]).T
        with pytest.raises(DivisionDegenerate):
            _stationary_root(*rows)


def near_tie_params(snr_db):
    return SystemParams(avg_snr=10.0 ** (snr_db / 10.0), mu=2.0, w1=1.0, w2=1.5)


class TestLockStepRefine:
    """The refine on rows in lock-step against the scalar golden section."""

    @pytest.mark.parametrize("n", [1000, 200])
    def test_search_matches_the_scalar_reference(self, n):
        gains = [(ch.g1, ch.g2, ch.g3) for _, ch in random_instances(1001, 40)]
        gains += [(g1, g2, 0.0) for g1, g2, _ in gains[::4]]  # dead relay rows inside
        g1, g2, g3 = (np.array(x) for x in zip(*gains))
        mixed = 0
        for snr_db in (0.0, 20.0, 40.0):
            for mu in (0.0, 1.0):
                p = SystemParams(avg_snr=10.0 ** (snr_db / 10.0), mu=mu, w1=1.0, w2=3.0)
                want = [scalar_search(p, *x, n) for x in gains]
                assert search_rows(p, g1, g2, g3, n) == [row for row, _ in want]
                # edge brackets are one grid step wide and stop a probe
                # earlier than interior ones in the same refine call
                edge = {i in (0, n - 1) for _, i in want[:40]}
                mixed += edge == {True, False}
        assert mixed > 0

    def test_narrow_brackets_and_ties_match_the_scalar_reference(self):
        p = SystemParams(avg_snr=100.0, mu=1.0, w1=1.0, w2=3.0)
        live = _draw(p, np.array([1.5, 2.5, 0.9, 1.2]), np.array([0.5, 0.4, 0.3, 1.1]),
                     np.array([0.8, 1.7, 0.2, 0.6]))
        # g1 = g2 = 0: a dead relay with log f = 0 at every alpha, so every
        # comparison of two probes is a tie
        flat = _draw(p, np.zeros(4), np.zeros(4), np.ones(4))
        lo = np.array([0.1, 0.3, 0.5, 0.25])
        # widths: below tol (two rows), far above it, just above it
        hi = lo + np.array([0.5 * _REFINE_TOL, _REFINE_TOL, 2e-3, 1.5 * _REFINE_TOL])
        for k in (live, flat):
            # an incumbent every probe beats, so alpha* is the refine's own
            alpha, probes = _golden_rows(k, lo, hi, np.full(4, 0.5), np.full(4, -np.inf))
            want = [golden_max(float_profile(rows_of(k, j)), lo[j], hi[j], _REFINE_TOL)
                    for j in range(4)]
            assert alpha.tolist() == [x for x, _, _ in want]
            assert probes.tolist() == [e for _, _, e in want]
            assert probes.tolist()[:2] == [1, 1] and len(set(probes.tolist())) == 3
        # the left probe wins ties: the flat rows end at the left of the bracket
        assert (alpha - lo < 0.5 * (hi - lo))[2:].all()

    def test_incumbent_kept_unless_beaten_strictly(self):
        p = SystemParams(avg_snr=10.0, mu=1.0, w1=1.0, w2=2.0)
        flat = _draw(p, np.zeros(2), np.zeros(2), np.ones(2))
        lo, hi = np.array([0.2, 0.4]), np.array([0.2 + 1e-3, 0.4 + 1e-3])
        x0 = np.array([0.7, 0.9])
        # log f = 0 everywhere: equal to an incumbent of 0, below one of 1
        alpha, _ = _golden_rows(flat, lo, hi, x0, np.array([0.0, -1.0]))
        assert alpha[0] == 0.7 and lo[1] < alpha[1] < hi[1]

    def test_rows_probe_only_the_alphas_of_their_draw_alone(self, monkeypatch):
        # every row stays in the loop until the last one stops; a row that
        # stopped probes its best point again, never a point its draw alone
        # would not probe
        p = SystemParams(avg_snr=100.0, mu=1.0, w1=1.0, w2=3.0)
        k = _draw(p, np.array([1.5, 2.5, 0.9, 1.2, 1.9]), np.array([0.5, 0.4, 0.3, 1.1, 0.7]),
                  np.array([0.8, 1.7, 0.2, 0.6, 0.9]))
        alphas = _alpha_grid(1000)
        # one grid step at either edge, two steps inside, and a narrow bracket
        lo = np.array([alphas[0], alphas[998], alphas[400], 0.3, alphas[10]])
        hi = np.array([alphas[1], alphas[999], alphas[402], 0.3 + 0.5 * _REFINE_TOL, alphas[12]])
        seen = []
        real = optimizer._profile

        def spy(draws, alpha):
            seen.append(alpha.tolist())
            return real(draws, alpha)

        monkeypatch.setattr(optimizer, "_profile", spy)

        def probed(rows):
            seen.clear()
            _, probes = _golden_rows(rows_of(k, rows), lo[rows], hi[rows],
                                     np.full(len(rows), 0.5), np.full(len(rows), -np.inf))
            return [set(x) for x in zip(*seen)], probes.tolist()

        together, probes = probed([0, 1, 2, 3, 4])
        assert together == [probed([j])[0][0] for j in range(5)]
        assert probes == [17, 17, 18, 1, 18]
        assert [len(x) for x in together] == probes

    # Two draws whose profile near alpha* is flat to the last bit of log f:
    # a last-bit change in a log of the refine turns a golden-section step
    # on the first, and the last pick on the second.
    NEAR_TIES = (
        (-10.0, ("0x1.72098ec914375p+0", "0x1.8d9de1a1f1e7fp-3", "0x1.3f4db84a6d7bfp+0")),
        (0.0, ("0x1.373e82f64edf8p-1", "0x1.934e0874dc20bp-4", "0x1.d5a2ff8796bb4p-1")),
    )

    @pytest.mark.parametrize("snr_db, gains", NEAR_TIES)
    def test_near_tie_row_matches_its_draw_alone(self, snr_db, gains):
        # at whatever SIMD level numpy dispatches its log to in this process,
        # the refine of a slice takes each row's logs as its draw alone does
        p = near_tie_params(snr_db)
        draw = [float.fromhex(x) for x in gains]
        # the draw as the first row of a slice with six others
        block = [draw] + [[ch.g1, ch.g2, ch.g3] for _, ch in random_instances(1001, 6)]
        g1, g2, g3 = (np.array(x) for x in zip(*block))
        got = _search([p], g1, g2, g3, 1000)[0][0].hex()
        assert got == solve_1d(p, ChannelRealization(*draw)).alpha_star.hex()
        assert got == scalar_search(p, *draw, 1000)[0][0].hex()


class TestGridChunks:
    """``_search`` on blocks, which it splits into grid chunks and refine
    slices: each row as its draw alone, and the guards as on one draw."""

    P = SystemParams(avg_snr=10.0, mu=1.0, w1=1.0, w2=2.0)
    G1 = np.array([1.5, 1.7, 2.5, 1.9, 2.1, 1.2])
    G2 = np.full(6, 0.5)

    def test_dead_relay_rows_take_the_lower_case_inside_a_chunk(self):
        g3 = np.array([0.8, 0.0, 0.7, 0.0, 0.9, 0.0])
        dead = g3 == 0.0
        for n in (1000, 200):  # 4 and 20 rows per grid chunk
            # mixed blocks, then blocks of dead rows only
            for rows in (slice(None), dead):
                g1, g2, g3r = self.G1[rows], self.G2[rows], g3[rows]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # no DivisionDegenerate, no warning
                    rows = search_rows(self.P, g1, g2, g3r, n)
                draws = list(zip(g1.tolist(), g2.tolist(), g3r.tolist()))
                alone = [search_rows(self.P, *(np.array([v]) for v in x), n)[0] for x in draws]
                assert rows == alone
                assert rows == [scalar_search(self.P, *x, n)[0] for x in draws]
                dead_rows = [row for row, x in zip(rows, draws) if x[2] == 0.0]
                assert dead_rows and all(lower and not interior
                                         for _, _, interior, lower, _ in dead_rows)

    @pytest.mark.parametrize("slots, values", [
        ((3, 4, 5), TestDiscriminantGuards.BAD),      # feasibility a, b, c
        ((6, 7, 8, 9), TestDiscriminantGuards.S_BAD),  # lead, beta, constant, theta
    ])
    def test_one_bad_row_raises_as_its_draw_alone(self, monkeypatch, slots, values):
        real = optimizer._coeffs
        # the grid stage holds a chunk's constants as (rows, 1) columns, the
        # refine a slice's as (rows,) arrays; the bad row trips one of them
        stage = {"ndim": 0}

        def corrupted(k, alpha):
            # the draw with g1 == 2.5 gets coefficients below the guard
            out = list(real(k, alpha))
            if np.ndim(k.g1) == stage["ndim"]:
                bad = np.equal(k.g1, 2.5)
                for slot, value in zip(slots, values):
                    out[slot] = np.where(bad, value, out[slot])
            return out

        monkeypatch.setattr(optimizer, "_coeffs", corrupted)
        g3 = np.full(6, 0.8)
        for stage["ndim"], where in ((2, "_grid_argmax"), (1, "_golden_rows")):
            with pytest.raises(NumericalFailure) as alone:
                solve_1d(self.P, ChannelRealization(2.5, 0.5, 0.8))
            for n in (1000, 200):
                with pytest.raises(NumericalFailure) as block:
                    _search([self.P], self.G1, self.G2, g3, n)
                assert str(block.value) == str(alone.value)
                assert where in [entry.name for entry in block.traceback]
            good = self.G1 != 2.5
            alpha = _search([self.P], self.G1[good], self.G2[good], g3[good], 1000)[0]
            assert alpha.shape == (5,)


def hex_rows(solved):
    """_search's five arrays as lists, floats as float.hex."""
    return [[x.hex() if isinstance(x, float) else x for x in v.tolist()] for v in solved]


class TestChunkRows:
    """The grid stage runs on chunks of rows and the refine on slices of
    rows; a row's outcome does not depend on either."""

    P = SystemParams(avg_snr=100.0, mu=1.0, w1=1.0, w2=3.0)

    @staticmethod
    def block(count=37):
        """Swap-ordered draws with every fourth relay link dead: 27 live
        and 10 dead rows, which no tested chunk of 3 or more rows divides
        both of."""
        g = -np.log1p(-np.random.default_rng(21).random((count, 3)))
        g1, g2 = np.maximum(g[:, 0], g[:, 1]), np.minimum(g[:, 0], g[:, 1])
        g3 = g[:, 2].copy()
        g3[::4] = 0.0
        return g1, g2, g3

    def test_search_outcomes_do_not_depend_on_chunk_or_slice_rows(self, monkeypatch):
        g1, g2, g3 = self.block()
        n = 1000
        want = hex_rows(_search([self.P], g1, g2, g3, n))
        alone = [hex_rows(_search([self.P], *(np.array([x]) for x in draw), n))
                 for draw in zip(g1, g2, g3)]
        assert want == [[row[j][0] for row in alone] for j in range(5)]
        for chunk_rows in (1, 3, 16, 64):
            monkeypatch.setattr(optimizer, "_GRID_CELLS", chunk_rows * n)
            for refine_rows in (7, 1024):
                monkeypatch.setattr(optimizer, "_REFINE_ROWS", refine_rows)
                assert hex_rows(_search([self.P], g1, g2, g3, n)) == want, (chunk_rows, refine_rows)


class TestStackedPoints:
    """``_search`` at several points over shared draws: the grid stage runs
    once per point, the refine over every point's rows in lock-step with
    per-row parameters, and each point's rows are the bytes of that point
    searched alone."""

    # mu 0 and 1, 0, 20 and 40 dB, w2/w1 of 1.5 and 20: twelve points
    POINTS = [SystemParams(avg_snr=10.0 ** (db / 10.0), mu=mu, w1=1.0, w2=wr)
              for mu in (0.0, 1.0) for db in (0.0, 20.0, 40.0) for wr in (1.5, 20.0)]

    def test_rows_are_each_point_searched_alone(self, monkeypatch):
        g1, g2, g3 = TestChunkRows.block()  # 27 live and 10 dead-relay rows
        n = 1000
        alone = [hex_rows(_search([p], g1, g2, g3, n)) for p in self.POINTS]
        want = [[x for point in alone for x in point[j]] for j in range(5)]
        # dead rows take the lower branch at rho* = 0, at every point
        for point in alone:
            assert all(point[3][i] and point[1][i] == (0.0).hex() for i in range(0, 37, 4))
        # one slice of all 444 rows; nine slices of 50 rows, each across a
        # boundary between points; slices of 7 rows, most inside one point
        for refine_rows in (1024, 50, 7):
            monkeypatch.setattr(optimizer, "_REFINE_ROWS", refine_rows)
            assert hex_rows(_search(self.POINTS, g1, g2, g3, n)) == want, refine_rows

    def test_points_in_any_order_and_repeated(self):
        g1, g2, g3 = TestChunkRows.block(9)
        p, q = self.POINTS[1], self.POINTS[10]
        one = hex_rows(_search([p], g1, g2, g3, 200))
        other = hex_rows(_search([q], g1, g2, g3, 200))
        got = hex_rows(_search([q, p, q], g1, g2, g3, 200))
        assert got == [b + a + b for a, b in zip(one, other)]


def full_grid_search(p, g1, g2, g3, n):
    """_search's five arrays from the whole grid: per draw, the first-hit
    argmax of the profile on all n grid points, then the same lock-step
    refine on its bracket and the profile at alpha*.  Evaluations are
    counted by grid_points."""
    alphas = _alpha_grid(n)
    k = _draw(p, g1, g2, g3)
    logf = np.concatenate([_profile(rows_of(k, np.s_[j:j + 16, None]), alphas)[3]
                           for j in range(0, len(g1), 16)])
    i = logf.argmax(axis=1)
    top = logf[np.arange(len(g1)), i]
    a, probes = _golden_rows(k, alphas[np.maximum(i - 1, 0)],
                             alphas[np.minimum(i + 1, n - 1)], alphas[i], top)
    rho, interior, lower, _ = _profile(k, a)
    points = np.array([grid_points(row) for row in logf], dtype=np.intp)
    return [a, rho, interior, lower, points + probes + 1]


class TestCoarseToFine:
    """The grid stage evaluates a coarse grid, then a window around its
    argmax or, for a coarse profile that is not single-peaked, every point;
    the search returns what the whole grid's argmax gives."""

    @staticmethod
    def blocks(seed, count):
        """Swap-ordered unit-mean draws with every seventh relay link dead."""
        g = -np.log1p(-np.random.default_rng(seed).random((count, 3)))
        g1, g2 = np.maximum(g[:, 0], g[:, 1]), np.minimum(g[:, 0], g[:, 1])
        g3 = g[:, 2].copy()
        g3[::7] = 0.0
        return g1, g2, g3

    @pytest.mark.parametrize("n", [200, 1000])
    def test_search_matches_the_whole_grid(self, n):
        pool = [(ch.g1, ch.g2, ch.g3) for _, ch in random_instances(1001, 60)]
        g1, g2, g3 = (np.concatenate([x, y]) for x, y in
                      zip(zip(*pool), self.blocks(n, 100)))
        branches, fallback = set(), 0
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            for ratio in (1.5, 2.0, 5.0, 10.0):
                for mu in (0.0, 1.0):
                    p = SystemParams(avg_snr=10.0 ** (snr_db / 10.0), mu=mu, w1=1.0, w2=ratio)
                    got, want = _search([p], g1, g2, g3, n), full_grid_search(p, g1, g2, g3, n)
                    assert hex_rows(got) == hex_rows(want), (snr_db, ratio, mu)
                    branches |= set(zip(got[2].tolist(), got[3].tolist()))
                    fallback += int((got[4] > n).sum())
        assert branches == {(True, False), (False, True), (False, False)}
        assert fallback > 0  # some draws took every grid point

    @pytest.mark.parametrize("n", [2, 3, 33, 34])
    def test_small_grids_match_the_whole_grid(self, n):
        g1, g2, g3 = self.blocks(n, 60)
        for snr_db in (0.0, 20.0, 40.0):
            p = SystemParams(avg_snr=10.0 ** (snr_db / 10.0), mu=1.0, w1=1.0, w2=3.0)
            assert hex_rows(_search([p], g1, g2, g3, n)) == hex_rows(full_grid_search(p, g1, g2, g3, n))

    def test_alpha_floor_and_dead_relay_draws(self):
        # the whole grid's argmax at index 0 (alpha* = ALPHA_MIN), and a
        # draw with q == 0 (rho* = 0 at every alpha)
        got = {}
        for name in ('alpha_floor', 'dead_relay'):
            fields, gains, n = _FROZEN_DRAWS[name]
            p, g = SystemParams(**fields), [np.array([x]) for x in gains]
            got[name] = _search([p], *g, n)
            assert hex_rows(got[name]) == hex_rows(full_grid_search(p, *g, n))
        assert got['alpha_floor'][0].item() == ALPHA_MIN
        assert got['dead_relay'][3].item() and got['dead_relay'][1].item() == 0.0

    # A draw whose profile on 200 points peaks at grid index 154, while its
    # coarse profile peaks at index 0 and again near 154: a window around
    # the coarse argmax alone would miss the whole grid's argmax.
    TWO_PEAKS = (dict(avg_snr=6.936431481550722, mu=0.5, eta=0.20220143216495234, w1=1.0,
                      w2=10.78773869695332),
                 (0.5806515073417523, 0.010934465946294552, 0.3157404775920605))

    def test_second_coarse_peak_takes_every_point(self):
        fields, gains = self.TWO_PEAKS
        p, n = SystemParams(**fields), 200
        k = _draw(p, *gains)
        alphas = _alpha_grid(n)
        logf = _profile(k, alphas)[3]
        assert int(np.argmax(logf)) == 154
        coarse = list(range(0, n, 16)) + [n - 1]
        at, f_coarse, single = _grid_argmax(k, n, np.array(coarse))
        assert coarse[at] == 0 and not single
        assert logf[154] - f_coarse > 0.007
        g = [np.array([x]) for x in gains]
        got = _search([p], *g, n)
        assert hex_rows(got) == hex_rows(full_grid_search(p, *g, n))
        assert got[4].item() > len(coarse) + n
        assert abs(got[0].item() - alphas[154]) < alphas[1] - alphas[0]


class TestAlphaGridCache:
    def test_grid_is_linspace_bit_for_bit_and_read_only(self):
        for n in (2, 200, 1000):
            alphas = _alpha_grid(n)
            ref = np.linspace(ALPHA_MIN, 1.0 - ALPHA_MIN, n)
            assert alphas.tobytes() == ref.tobytes()
            with pytest.raises(ValueError):
                alphas[0] = 0.5

    def test_outcomes_do_not_depend_on_cache_state(self):
        pool = random_instances(1001, 6)
        sizes = (200, 1000, 200)
        _alpha_grid.cache_clear()
        warm = [[solve_1d(p, ch, AlphaGridSpec(n=n)) for p, ch in pool] for n in sizes]
        fresh = []
        for n in sizes:
            _alpha_grid.cache_clear()
            fresh.append([solve_1d(p, ch, AlphaGridSpec(n=n)) for p, ch in pool])
        assert warm == fresh
        assert warm[0] == warm[2]
