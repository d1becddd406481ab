"""Per-realization weighted sum rate maximization over (alpha, rho).

The problem: maximize w1*C1 + w2*C2 over alpha in [ALPHA_MIN, 1 - ALPHA_MIN]
and rho in [0, _RHO_CAP].  The 1D grid, the w2 <= w1 corner and the 2D
oracle all take alpha from that range.  The lower alpha bound is a real
constraint: many optima sit on it, with the weighted sum still rising below
it.

At the optimum the weak user's rate is limited by U2's combiner, not by U1's
decode step (otherwise lowering rho would raise both rates).  The problem is
therefore equivalent to maximizing

    f(alpha, rho) = (1 + sinr_x1) * (1 + sinr_mrc)^wr,      wr = w2/w1,

subject to sinr_x2_at_u1 >= sinr_mrc_at_u2, whose boundary in rho is the
smaller root rho_tilde(alpha) of a quadratic a*rho^2 - b*rho + c (the
constraint holds exactly on [0, rho_tilde]).  For fixed alpha,

    f_alpha(rho) = (d - e*rho) / (t - rho) * (p + q*rho)^wr

with d = 1 + mu + alpha*snr*g1, e = 1 + alpha*snr*g1, t = 1 + mu,
p = 1 + (1-alpha)*snr*g2 / (alpha*snr*g2 + 1 + mu), q = eta*snr*g1*g3/(1+mu).
The sign of d f_alpha / d rho on [0, 1) is the sign of the quadratic

    N(rho) = (d - e*t)*(p + q*rho) + q*wr*(t - rho)*(d - e*rho)
           = (q*wr*e)*rho^2 - 2*beta*rho + [(d - e*t)*p + q*wr*t*d],

    beta = 0.5*q*d*(wr - 1) + 0.5*q*e*t*(wr + 1),

an upward parabola whose larger root is >= t >= 1, so only the smaller root
rho_bar = (beta - sqrt(theta)) / (q*wr*e), theta = beta^2 - leading*constant,
matters on [0, 1).  Case split per candidate alpha:

* theta > 0 and rho_bar in (0, rho_tilde):  interior maximum at rho_bar;
* theta > 0 and rho_bar <= 0:               f_alpha decreasing, rho* = 0;
* otherwise:                                f_alpha nondecreasing on the
                                            feasible set, rho* = rho_tilde;
* q == 0 (dead relay link):                 N = (d - e*t)*p <= 0, f_alpha is
                                            nonincreasing, rho* = 0.  The
                                            "otherwise" rule above would pick
                                            the boundary here, which is wrong.

The 1D search evaluates log f(alpha, rho*(alpha)) on a uniform alpha grid
(built once per grid size and cached read-only) and sharpens the incumbent
with a golden-section pass on the bracketing interval.  One function,
``_profile``, evaluates the profile for the grid (as arrays) and for the
refine and the final rho* (as floats); the alpha-free constants of a draw
(``_Draw``) are formed once per solve, and the branch taken is read only at
alpha*.  The grid stage, ``_grid_argmax``, takes one draw's constants as
floats or a chunk's as (rows, 1) columns.  A Monte Carlo block runs it once
per chunk of its draws (``_grid_incumbents``) and passes each draw's
incumbent to ``solve_1d``, which refines that draw alone.  Every entry of a
chunk's (rows x n) profile takes the float operations of its draw alone, so
outcomes do not depend on the chunk.
``solve_2d_exhaustive`` is the independent benchmark: a plain grid argmax of
the raw weighted sum (with the min{} in the weak user's rate), kept free of
the reformulation on purpose.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    DivisionDegenerate,
    DomainError,
    InfeasibleChannel,
    NumericalFailure,
)
from .model import (
    ChannelRealization,
    DesignPoint,
    RateTriple,
    SystemParams,
    _rate_tuple,
    rates,
    sinr_mrc_at_u2,
    sinr_x1_at_u1,
)

__all__ = [
    "SolverBranch",
    "ALPHA_MIN",
    "AlphaGridSpec",
    "OptimizationOutcome",
    "rho_tilde",
    "f_objective",
    "optimal_rho_for_alpha",
    "solve_1d",
    "solve_2d_exhaustive",
]

# Smallest power allocation any search takes; alpha runs over
# [ALPHA_MIN, 1 - ALPHA_MIN].
ALPHA_MIN = 1e-4

# Largest rho the solver will ever return; keeps boundary solutions inside the
# open constraint rho < 1 when the feasibility constraint never binds.
_RHO_CAP = 1.0 - 1e-9

# Discriminants this far below zero (relative to scale^2) are roundoff near a
# tangency and are clamped; anything worse is a genuine numerical failure.
_DISC_GUARD = 1e-8

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Width in alpha at which the golden-section refine stops.
_REFINE_TOL = 1e-6

# Cells of one grid-stage chunk: rows = max(1, _GRID_CELLS // n) draws share
# each (rows x n) profile.  At n = 1000 on a 2-core VM with numpy 2.4, the
# grid stage per draw at 4 rows took 0.65 of its time for one draw alone;
# 2 rows and 8 or 16 rows were slower than 4.  The profile holds about 16
# temporaries of rows x n floats at once, 0.5 MB at 4 rows.
_GRID_CELLS = 4096

# Top of the 2D oracle's rho grid; short of _RHO_CAP until the solver's
# rho -> 1 edge is mended (ROADMAP item 3).
_GRID2D_RHO_MAX = 1.0 - 1e-6


class SolverBranch(Enum):
    INTERIOR = "interior"  # rho* at the stationary point rho_bar
    LOWER = "lower"        # rho* = 0
    BOUNDARY = "boundary"  # rho* at the feasibility boundary rho_tilde
    TRIVIAL = "trivial"    # w2 <= w1: all power to U1, no splitting
    GRID = "grid"          # exhaustive 2D search result


@dataclass(frozen=True)
class AlphaGridSpec:
    """Grid for the 1D search: n points on [ALPHA_MIN, 1 - ALPHA_MIN].  The
    incumbent is always refined by golden-section search to 1e-6 in alpha."""

    n: int = 1000
    margin: ClassVar[float] = ALPHA_MIN

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("alpha grid needs at least 2 points")


@dataclass(frozen=True)
class OptimizationOutcome:
    alpha_star: float
    rho_star: float
    objective_f: float
    rate_triple: RateTriple
    branch: SolverBranch
    evaluations: int


def _require_ordered(ch: ChannelRealization):
    if not ch.g1 > ch.g2:
        raise InfeasibleChannel(f"requires g1 > g2, got g1={ch.g1}, g2={ch.g2}")


def _check_alpha(alpha: float):
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")


# Float alphas take this math-backed stand-in for numpy in _profile: on a
# 2-core VM with numpy 2.4, _profile costs about 55 us for a one-element alpha
# array against 3 us for a float, and a solve makes about 18 single-alpha
# calls (the golden-section probes and the final rho*).  Only the grid stage
# takes numpy, once per solve or once per chunk of a Monte Carlo block.  The
# refine stays on math: numpy's log differs from libm's in the last bit on
# some inputs, so moving it, or batching it across draws in numpy, would
# change outcomes.
_MATH = SimpleNamespace(
    sqrt=math.sqrt, log=math.log, maximum=max, minimum=min,
    where=lambda cond, a, b: a if cond else b, any=bool, count_nonzero=bool,
)


class _Draw(NamedTuple):
    """The alpha-free constants of the profile for one (params, channel)
    pair as floats, formed once per solve, or for a chunk of draws as
    (rows, 1) columns, one draw per row."""

    snr: float
    mu: float
    g1: float
    g2: float
    t: float        # 1 + mu
    q: float        # eta*snr*g1*g3 / (1 + mu)
    wtilde2: float
    half_q: float
    q_w: float
    q_w_t: float
    w_minus: float
    w_plus: float


def _draw(p: SystemParams, g1, g2, g3) -> _Draw:
    q = p.eta * p.avg_snr * g1 * g3 / (1.0 + p.mu)
    w = p.wtilde2
    t = 1.0 + p.mu
    return _Draw(p.avg_snr, p.mu, g1, g2, t, q, w, 0.5 * q, q * w, q * w * t,
                 w - 1.0, w + 1.0)


@functools.lru_cache(maxsize=8)
def _alpha_grid(n: int):
    """The n-point alpha grid on [ALPHA_MIN, 1 - ALPHA_MIN] and 1 - alpha on
    it, both read-only; built on the first solve at each n."""
    alphas = np.linspace(ALPHA_MIN, 1.0 - ALPHA_MIN, n)
    rest = 1.0 - alphas
    alphas.setflags(write=False)
    rest.setflags(write=False)
    return alphas, rest


def _coeffs(k: _Draw, alpha, rest):
    """Everything f_alpha and its two quadratics need at alpha (a float or
    an array, with rest = 1 - alpha):

        d, e, pp                       f_alpha = (d - e rho)/(t - rho)*(pp + q rho)^wr
        a, b, c                        feasibility quadratic a rho^2 - b rho + c
        lead, beta, constant, theta    stationary quadratic lead rho^2 - 2 beta rho
                                       + constant; its discriminant is 4 theta
    """
    snr, mu, g1, g2, t, q, _, half_q, q_w, q_w_t, w_minus, w_plus = k
    a_snr = alpha * snr
    r_snr = rest * snr
    r_snr_g1 = r_snr * g1
    e = 1.0 + a_snr * g1
    d = e + mu
    pp = 1.0 + r_snr * g2 / (a_snr * g2 + 1.0 + mu)
    direct = pp - 1.0
    lead = q_w * e
    beta = half_q * d * w_minus + half_q * e * t * w_plus
    constant = (d - e * t) * pp + q_w_t * d
    return (d, e, pp,
            q * e, q * d - direct * e + r_snr_g1, r_snr_g1 - direct * d,
            lead, beta, constant, beta * beta - lead * constant)


def _feasibility_root(xp, a, b, c):
    """rho_tilde: the smaller root 2c / (b + sqrt(b^2 - 4ac)), capped at 1.
    The guard's scale is formed only when some discriminant is negative: a
    non-negative or NaN one can never trip it."""
    disc = b * b - 4.0 * a * c
    if xp.any(disc < 0.0):
        scale = xp.maximum(abs(a), xp.maximum(abs(b), abs(c)))
        if xp.any(disc < -_DISC_GUARD * scale * scale):
            raise NumericalFailure("feasibility discriminant below roundoff guard")
    return xp.minimum(2.0 * c / (b + xp.sqrt(xp.maximum(disc, 0.0))), 1.0)


def _stationary_root(xp, lead, beta, constant, theta):
    """rho_bar: the smaller stationary root, in whichever of its two forms
    does not cancel.  The guard's scale is formed only when some theta is
    negative."""
    if xp.any(lead == 0.0):
        raise DivisionDegenerate(
            "stationary-point quadratic degenerates when q * wtilde2 * e == 0"
        )
    if xp.any(theta < 0.0):
        scale = xp.maximum(beta * beta, abs(lead * constant))
        if xp.any(theta < -_DISC_GUARD * scale):
            raise NumericalFailure("stationary-point discriminant below roundoff guard")
    root = xp.sqrt(xp.maximum(theta, 0.0))
    positive = beta > 0.0
    return (xp.where(positive, constant, beta - root)
            / xp.where(positive, beta + root, lead))


def _profile(k: _Draw, alpha, rest, xp):
    """rho*(alpha), the interior and lower masks of the case split, and
    log f(alpha, rho*(alpha)): the profile the 1D search maximizes.
    ``alpha`` is a float (xp = _MATH) or an array (xp = np) inside (0, 1),
    with rest = 1 - alpha.  See the module docstring for the case split."""
    d, e, pp, a, b, c, lead, beta, constant, theta = _coeffs(k, alpha, rest)
    t, q = k.t, k.q
    if not xp.count_nonzero(q):
        # dead relay link (in every row): rho* = 0 at every alpha (never
        # interior, always lower)
        interior, lower, rb, rt = alpha < 0.0, alpha > 0.0, 0.0, 0.0
    else:
        rt = _feasibility_root(xp, a, b, c)
        rb = _stationary_root(xp, lead, beta, constant, theta)
        positive = theta > 0.0
        interior = positive & (rb > 0.0) & (rb < rt)
        lower = positive & (rb <= 0.0)
    rho = xp.where(interior, rb, xp.where(lower, 0.0, xp.minimum(rt, _RHO_CAP)))
    log_f = xp.log(d - e * rho) - xp.log(t - rho) + k.wtilde2 * xp.log(pp + q * rho)
    return rho, interior, lower, log_f


def _branch(interior, lower) -> SolverBranch:
    """The case _profile took at one float alpha."""
    if interior:
        return SolverBranch.INTERIOR
    return SolverBranch.LOWER if lower else SolverBranch.BOUNDARY


def rho_tilde(p: SystemParams, ch: ChannelRealization, alpha: float) -> float:
    """Largest power-splitting fraction for which U1 still decodes x2 at least
    as well as U2's combiner.

    Returns the smaller root of the feasibility quadratic, computed in the
    cancellation-free form 2c / (b + sqrt(b^2 - 4ac)).  Returns exactly 1.0
    when the constraint never binds on [0, 1) (possible only with mu == 0 and
    a weak relay link); then there is no SINR crossing below 1.
    """
    _require_ordered(ch)
    _check_alpha(alpha)
    k = _draw(p, ch.g1, ch.g2, ch.g3)
    _, _, _, a, b, c, _, _, _, _ = _coeffs(k, alpha, 1.0 - alpha)
    return _feasibility_root(_MATH, a, b, c)


def f_objective(p: SystemParams, ch: ChannelRealization, d: DesignPoint) -> float:
    """(1 + sinr_x1) * (1 + sinr_mrc)^(w2/w1); its scaled log is the weighted
    sum rate with the weak user's rate taken at the combiner."""
    return (1.0 + sinr_x1_at_u1(p, ch, d)) * (1.0 + sinr_mrc_at_u2(p, ch, d)) ** p.wtilde2


def optimal_rho_for_alpha(p: SystemParams, ch: ChannelRealization, alpha: float):
    """Best feasible rho for this alpha, with the case actually taken.

    Returns ``(rho_star, branch)``; see the module docstring for the split.
    """
    _require_ordered(ch)
    _check_alpha(alpha)
    k = _draw(p, ch.g1, ch.g2, ch.g3)
    rho, interior, lower, _ = _profile(k, alpha, 1.0 - alpha, _MATH)
    return rho, _branch(interior, lower)


def _golden_max(g, lo: float, hi: float, tol: float):
    """Golden-section maximization of g on [lo, hi]; ties keep the left probe
    so results are deterministic.  Returns (x_best, g_best, evaluations)."""
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


def _grid_argmax(k: _Draw, n: int):
    """The grid stage: the first-hit argmax index of log f on the n-point
    alpha grid (the smallest alpha wins ties) and log f there.  ``k`` holds
    one draw's constants as floats, or a chunk's as (rows, 1) columns with
    q == 0 in every row or in none; the profile is then (rows x n) and each
    row gets the same float operations, and so the same bits, as its draw
    alone."""
    alphas, rest = _alpha_grid(n)
    logf = _profile(k, alphas, rest, np)[3]
    return logf.argmax(axis=-1), logf.max(axis=-1)


def _grid_incumbents(p: SystemParams, g1, g2, g3, n: int):
    """``_grid_argmax`` for each draw of equal-length gain arrays, in chunks
    of rows = max(1, _GRID_CELLS // n) draws; returns the index and log f
    arrays.  A chunk that mixes dead-relay draws (q == 0) with live ones is
    split in two, since the dead ones take the rho* = 0 case."""
    rows = max(1, _GRID_CELLS // n)
    index = np.empty(len(g1), dtype=np.intp)
    top = np.empty(len(g1))
    for lo in range(0, len(g1), rows):
        s = slice(lo, lo + rows)
        k = _draw(p, g1[s, None], g2[s, None], g3[s, None])
        if 0 < np.count_nonzero(k.q) < len(k.q):
            dead = k.q[:, 0] == 0.0
            for part in (dead, ~dead):
                sub = _draw(p, g1[s][part, None], g2[s][part, None], g3[s][part, None])
                index[s][part], top[s][part] = _grid_argmax(sub, n)
        else:
            index[s], top[s] = _grid_argmax(k, n)
    return index, top


def solve_1d(p: SystemParams, ch: ChannelRealization,
             grid: AlphaGridSpec | None = None, *,
             incumbent: tuple[int, float] | None = None) -> OptimizationOutcome:
    """Weighted-sum-rate maximization by 1D search over alpha.

    For w2 <= w1 the optimum is the no-cooperation corner (all source power
    on x1, no splitting) at alpha = 1 - ALPHA_MIN.  Otherwise evaluates
    f(alpha, rho*(alpha)) on the grid and refines the incumbent bracket by
    golden section.  ``incumbent`` is this draw's grid stage result (index,
    log f) when the caller has run it already, as the Monte Carlo blocks do
    with ``_grid_incumbents``; without it ``_grid_argmax`` runs on this draw
    alone.
    """
    if p.w2 <= p.w1:
        d = DesignPoint(alpha=1.0 - ALPHA_MIN, rho=0.0)
        return OptimizationOutcome(
            alpha_star=d.alpha,
            rho_star=0.0,
            objective_f=f_objective(p, ch, d),
            rate_triple=rates(p, ch, d),
            branch=SolverBranch.TRIVIAL,
            evaluations=1,
        )
    _require_ordered(ch)
    n = (grid or AlphaGridSpec()).n
    k = _draw(p, ch.g1, ch.g2, ch.g3)
    i, f_grid = _grid_argmax(k, n) if incumbent is None else incumbent
    alphas = _alpha_grid(n)[0]
    lo = float(alphas[max(i - 1, 0)])
    hi = float(alphas[min(i + 1, n - 1)])
    a_ref, f_ref, n_ref = _golden_max(
        lambda a: _profile(k, a, 1.0 - a, _MATH)[3], lo, hi, _REFINE_TOL
    )
    best_alpha = a_ref if f_ref > f_grid else float(alphas[i])

    rho_star, interior, lower, _ = _profile(k, best_alpha, 1.0 - best_alpha, _MATH)
    evaluations = n + n_ref + 1
    d = DesignPoint(alpha=best_alpha, rho=rho_star)
    return OptimizationOutcome(
        alpha_star=best_alpha,
        rho_star=rho_star,
        objective_f=f_objective(p, ch, d),
        rate_triple=rates(p, ch, d),
        branch=_branch(interior, lower),
        evaluations=evaluations,
    )


def solve_2d_exhaustive(p: SystemParams, ch: ChannelRealization,
                        n_alpha: int = 300, n_rho: int = 300) -> OptimizationOutcome:
    """Grid argmax of the raw weighted sum rate over n_alpha x n_rho points
    of alpha in [ALPHA_MIN, 1 - ALPHA_MIN] and rho in [0, 1 - 1e-6].

    Deliberately independent of the solver: evaluates w1*C1 + w2*C2 with the
    min{} inside C2 and no constraint reformulation.  Ties break toward the
    smallest alpha, then the smallest rho.
    """
    if n_alpha < 2 or n_rho < 2:
        raise DomainError("2D grid needs at least 2 points per axis")
    alphas = np.linspace(ALPHA_MIN, 1.0 - ALPHA_MIN, n_alpha)
    rhos = np.linspace(0.0, _GRID2D_RHO_MAX, n_rho)
    c1, c2, ws = _rate_tuple(
        p.avg_snr, p.mu, p.eta, ch.g1, ch.g2, ch.g3,
        alphas[:, None], rhos[None, :], p.w1, p.w2,
    )
    flat = int(np.argmax(ws))  # C order: first max is smallest alpha, then rho
    i, j = divmod(flat, n_rho)
    d = DesignPoint(alpha=float(alphas[i]), rho=float(rhos[j]))
    return OptimizationOutcome(
        alpha_star=d.alpha,
        rho_star=d.rho,
        objective_f=f_objective(p, ch, d),
        rate_triple=RateTriple(
            c1=float(c1[i, j]), c2=float(c2[i, j]), weighted_sum=float(ws[i, j])
        ),
        branch=SolverBranch.GRID,
        evaluations=n_alpha * n_rho,
    )
