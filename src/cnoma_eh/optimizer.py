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
with a golden-section pass on the bracketing interval.  One array function,
``_profile``, evaluates the profile everywhere.  ``_search`` runs the search
for a set of draws: the grid stage (``_grid_argmax``) on (rows x n) chunks,
then the refine (``_golden_rows``) on slices of up to ``_REFINE_ROWS`` draws
in lock-step, each draw stopping after the probes it would take alone, and
one last profile at each draw's alpha* for rho* and the branch.  Every
operation on the way is elementwise, so a row gets the bits its draw gets
alone and outcomes do not depend on the block.  numpy does each of them,
except the logs of the refine's probes: those come from ``math.log``
(``_libm_log``), because where the profile is flat to the last bit a
golden-section comparison follows the log's last bit.  ``solve_1d`` packs
one draw's row of that result; alone it is a batch of one.
``solve_2d_exhaustive`` is the independent benchmark: a plain grid argmax of
the raw weighted sum (with the min{} in the weak user's rate), kept free of
the reformulation on purpose.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
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

# Draws of one refine slice.  Per draw, the lock-step refine on a 2-core VM
# with numpy 2.4 took 76-88 us at 16 rows, 12-20 us at 256, 8.4-11.5 us at
# 1024 and 7.3-8.2 us at 8192, while its tracemalloc peak grew with the
# slice: 74 KB, 283 KB and 2.2 MB.
_REFINE_ROWS = 1024

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


def _libm_log(x):
    """math.log of each element of a 1-D array, for the refine's probes:
    numpy's log differs from libm's in the last bit on some inputs, and
    where the profile is that flat a golden-section comparison follows it.
    A zero or negative element raises ValueError, as math.log does."""
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


class _Draw(NamedTuple):
    """The inputs of the profile for one (params, channel) pair: floats, or
    for a set of draws (rows,) arrays (the refine) or (rows, 1) columns (the
    grid stage), one draw per row."""

    p: SystemParams
    g1: float
    g2: float
    q: float        # eta*snr*g1*g3 / (1 + mu)


def _draw(p: SystemParams, g1, g2, g3) -> _Draw:
    return _Draw(p, g1, g2, p.eta * p.avg_snr * g1 * g3 / (1.0 + p.mu))


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
    p, g1, g2, q = k
    snr, mu, w = p.avg_snr, p.mu, p.wtilde2
    t = 1.0 + mu
    half_q, q_w = 0.5 * q, q * w
    a_snr = alpha * snr
    r_snr = rest * snr
    r_snr_g1 = r_snr * g1
    e = 1.0 + a_snr * g1
    d = e + mu
    pp = 1.0 + r_snr * g2 / (a_snr * g2 + 1.0 + mu)
    direct = pp - 1.0
    lead = q_w * e
    beta = half_q * d * (w - 1.0) + half_q * e * t * (w + 1.0)
    constant = (d - e * t) * pp + q_w * t * d
    return (d, e, pp,
            q * e, q * d - direct * e + r_snr_g1, r_snr_g1 - direct * d,
            lead, beta, constant, beta * beta - lead * constant)


def _feasibility_root(a, b, c):
    """rho_tilde: the smaller root 2c / (b + sqrt(b^2 - 4ac)), capped at 1.
    The guard's scale is formed only when some discriminant is negative: a
    non-negative or NaN one can never trip it."""
    disc = b * b - 4.0 * a * c
    if (disc < 0.0).any():
        scale = np.maximum(abs(a), np.maximum(abs(b), abs(c)))
        if (disc < -_DISC_GUARD * scale * scale).any():
            raise NumericalFailure("feasibility discriminant below roundoff guard")
    return np.minimum(2.0 * c / (b + np.sqrt(np.maximum(disc, 0.0))), 1.0)


def _stationary_root(lead, beta, constant, theta):
    """rho_bar: the smaller stationary root, in whichever of its two forms
    does not cancel.  The guard's scale is formed only when some theta is
    negative."""
    if (lead == 0.0).any():
        raise DivisionDegenerate(
            "stationary-point quadratic degenerates when q * wtilde2 * e == 0"
        )
    if (theta < 0.0).any():
        scale = np.maximum(beta * beta, abs(lead * constant))
        if (theta < -_DISC_GUARD * scale).any():
            raise NumericalFailure("stationary-point discriminant below roundoff guard")
    root = np.sqrt(np.maximum(theta, 0.0))
    positive = beta > 0.0
    return (np.where(positive, constant, beta - root)
            / np.where(positive, beta + root, lead))


def _profile(k: _Draw, alpha, rest, log=np.log):
    """rho*(alpha), the interior and lower masks of the case split, and
    log f(alpha, rho*(alpha)): the profile the 1D search maximizes.
    ``alpha`` is an array inside (0, 1) that broadcasts against the arrays
    in ``k``, with rest = 1 - alpha; ``log`` is np.log, or _libm_log for the
    refine's probes.  See the module docstring for the case split."""
    d, e, pp, a, b, c, lead, beta, constant, theta = _coeffs(k, alpha, rest)
    p, q = k.p, k.q
    if not np.count_nonzero(q):
        # dead relay link (in every row): rho* = 0 at every alpha (never
        # interior, always lower)
        interior, lower, rb, rt = alpha < 0.0, alpha > 0.0, 0.0, 0.0
    else:
        rt = _feasibility_root(a, b, c)
        rb = _stationary_root(lead, beta, constant, theta)
        positive = theta > 0.0
        interior = positive & (rb > 0.0) & (rb < rt)
        lower = positive & (rb <= 0.0)
    rho = np.where(interior, rb, np.where(lower, 0.0, np.minimum(rt, _RHO_CAP)))
    log_f = log(d - e * rho) - log(1.0 + p.mu - rho) + p.wtilde2 * log(pp + q * rho)
    return rho, interior, lower, log_f


def _branch(interior: bool, lower: bool) -> SolverBranch:
    """The case _profile took at one alpha."""
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
    x = np.array([alpha])
    a, b, c = _coeffs(_draw(p, ch.g1, ch.g2, ch.g3), x, 1.0 - x)[3:6]
    return _feasibility_root(a, b, c).item()


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
    x = np.array([alpha])
    rho, interior, lower, _ = _profile(_draw(p, ch.g1, ch.g2, ch.g3), x, 1.0 - x)
    return rho.item(), _branch(interior.item(), lower.item())


def _grid_argmax(k: _Draw, n: int):
    """The grid stage: the first-hit argmax index of log f on the n-point
    alpha grid (the smallest alpha wins ties) and log f there.  ``k`` holds
    a chunk's inputs as (rows, 1) columns with q == 0 in every row or in
    none; the profile is then (rows x n) and each row gets the same float
    operations, and so the same bits, as its draw alone."""
    alphas, rest = _alpha_grid(n)
    logf = _profile(k, alphas, rest)[3]
    return logf.argmax(axis=-1), logf.max(axis=-1)


def _golden_rows(k: _Draw, lo, hi, x0, f0):
    """Golden-section maximization of each row's profile on [lo, hi], all
    rows in lock-step.  ``k`` holds the rows' inputs as (rows,) arrays, with
    q == 0 in every row or in none.  Each row takes the probes, the tie rule
    (the left probe wins ties) and the stop of the section on its own: a row
    stops once its bracket is no wider than _REFINE_TOL, and a bracket that
    starts that narrow takes one probe at its midpoint (c = d).  Every row
    stays in the loop until the last one stops: a stopped row probes its
    best point again, after which c = d = that point, so it never evaluates
    a point its draw alone would not.  Returns per row alpha*, the best
    probe where it beats the incumbent (x0, f0) strictly and x0 otherwise,
    and the number of probes."""
    def g(x):
        return _profile(k, x, 1.0 - x, _libm_log)[3]

    a, b = lo, hi
    width = b - a
    narrow = width <= _REFINE_TOL
    mid = 0.5 * (a + b)
    step = _INVPHI * width
    c = np.where(narrow, mid, b - step)
    d = np.where(narrow, mid, a + step)
    fc, fd = g(c), g(d)
    probes = np.where(narrow, 1, 2)
    while (go := width > _REFINE_TOL).any():
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        width = b - a
        step = _INVPHI * width
        x = np.where(go, np.where(left, b - step, a + step), np.where(left, c, d))
        fx = g(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        probes += go
    left = fc >= fd
    x_ref, f_ref = np.where(left, c, d), np.where(left, fc, fd)
    return np.where(f_ref > f0, x_ref, x0), probes


def _search(p: SystemParams, g1, g2, g3, n: int):
    """The 1D search for each draw of equal-length gain arrays: returns the
    arrays alpha*, rho*, the interior and lower masks of the case taken at
    alpha*, and the evaluation count (grid points, refine probes and the
    profile at alpha*).  The draws are split once into dead-relay (q == 0,
    which take the rho* = 0 case) and live sets.  Each set runs the grid
    stage in chunks of max(1, _GRID_CELLS // n) draws, then the refine in
    slices of at most _REFINE_ROWS draws, on each draw's grid bracket: one
    grid step either side of its incumbent, inside the grid.  Each slice
    ends with one profile at its draws' alpha*."""
    alphas = _alpha_grid(n)[0]
    chunk = max(1, _GRID_CELLS // n)
    alpha_star, rho_star = np.empty(len(g1)), np.empty(len(g1))
    interior, lower = np.empty(len(g1), dtype=bool), np.empty(len(g1), dtype=bool)
    evaluations = np.empty(len(g1), dtype=np.intp)
    dead = _draw(p, g1, g2, g3).q == 0.0
    for part in (np.flatnonzero(dead), np.flatnonzero(~dead)):
        h1, h2, h3 = g1[part], g2[part], g3[part]
        index = np.empty(part.size, dtype=np.intp)
        top = np.empty(part.size)
        for lo in range(0, part.size, chunk):
            s = slice(lo, lo + chunk)
            index[s], top[s] = _grid_argmax(_draw(p, h1[s, None], h2[s, None], h3[s, None]), n)
        for lo in range(0, part.size, _REFINE_ROWS):
            s = slice(lo, lo + _REFINE_ROWS)
            i, rows = index[s], part[s]
            k = _draw(p, h1[s], h2[s], h3[s])
            a, probes = _golden_rows(k, alphas[np.maximum(i - 1, 0)],
                                     alphas[np.minimum(i + 1, n - 1)], alphas[i], top[s])
            alpha_star[rows] = a
            rho_star[rows], interior[rows], lower[rows], _ = _profile(k, a, 1.0 - a)
            evaluations[rows] = n + probes + 1
    return alpha_star, rho_star, interior, lower, evaluations


def solve_1d(p: SystemParams, ch: ChannelRealization,
             grid: AlphaGridSpec | None = None, *,
             row: list | None = None) -> OptimizationOutcome:
    """Weighted-sum-rate maximization by 1D search over alpha.

    For w2 <= w1 the optimum is the no-cooperation corner (all source power
    on x1, no splitting) at alpha = 1 - ALPHA_MIN.  Otherwise evaluates
    f(alpha, rho*(alpha)) on the grid, refines the incumbent bracket by
    golden section and takes rho* and the branch at alpha* (``_search``),
    then the rates there.  ``row`` is this draw's (alpha*, rho*, interior,
    lower, evaluations) from ``_search``, as Python scalars, when the caller
    has run it already, as the Monte Carlo blocks do for all their draws at
    once; without it ``_search`` runs on this draw alone.  Alone, a solve
    costs 1.1-1.7 ms on a 2-core VM with numpy 2.4, mostly numpy's per-call
    cost on the one-row arrays of the refine.
    """
    if p.w2 <= p.w1:
        alpha_star, rho_star, branch, evaluations = 1.0 - ALPHA_MIN, 0.0, SolverBranch.TRIVIAL, 1
    else:
        _require_ordered(ch)
        if row is None:
            n = (grid or AlphaGridSpec()).n
            solved = _search(p, np.array([ch.g1]), np.array([ch.g2]), np.array([ch.g3]), n)
            row = [v.item() for v in solved]
        alpha_star, rho_star, interior, lower, evaluations = row
        branch = _branch(interior, lower)
    d = DesignPoint(alpha=alpha_star, rho=rho_star)
    return OptimizationOutcome(
        alpha_star=alpha_star,
        rho_star=rho_star,
        objective_f=f_objective(p, ch, d),
        rate_triple=rates(p, ch, d),
        branch=branch,
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
