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
* q == 0 (dead relay link), per row:       N = (d - e*t)*p <= 0, f_alpha is
                                            nonincreasing, rho* = 0 (the
                                            "otherwise" rule above would pick
                                            the boundary, which is wrong).

The 1D search finds the first-hit argmax of log f(alpha, rho*(alpha)) on a
uniform n-point alpha grid (built once per grid size and cached read-only)
and sharpens the incumbent with a golden-section pass on the bracketing
interval.  The grid stage goes coarse to fine: it evaluates every
_COARSE_STEP-th grid index and index n - 1, then only the window of
2 _COARSE_STEP + 1 grid indices around the coarse argmax, about 100 of
1000 points per draw.  A draw whose coarse profile is not single-peaked
(a second local maximum, a tie or a NaN) takes all n points instead.  Each
evaluated point is a point of the same grid and gets the same float
operations, so the incumbent is the full grid's whenever the full grid's
argmax lies in the window: that held on every draw checked, which is not
a proof.  One array function, ``_profile``, evaluates the profile
everywhere, through its kernels ``_coeffs``, ``_feasibility_root`` and
``_stationary_root``.  ``_search`` runs the search at a list of points
(``SystemParams``) for a set of draws.  Per point, the grid stage's coarse,
window and all-n steps (``_grid_stage``) each go through the one grid
kernel (``_grid_argmax``) on chunks of rows, with the point's parameters as
floats.  Then the refine (``_golden_rows``) runs over every (point, draw)
row, on slices of up to ``_REFINE_ROWS`` rows in lock-step, each row with
its own point's parameters (a ``_Draw`` holds floats or per-row arrays) and
stopping after the probes it would take alone, and one last profile at each
row's alpha* gives rho* and the branch.  Every operation on the way, each
log included, is an elementwise numpy call, so a row gets the bits its draw
gets alone, at its point alone, and outcomes do not depend on the block or
on the points beside it.
``solve_1d`` packs one draw's row of that result with its rates; alone it
is a batch of one.
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

# Rows, (point, draw) pairs, of one refine slice; the Monte Carlo jobs
# stack as many points into one search as fit in it.  It bounds the refine's
# temporaries, each of one slice's rows.  Per row, the lock-step refine and
# the final profile took 71 us at 16 rows, 5.6 us at 256, 2.2 us at 1024 and
# 1.7 us at 8192 on a 2-core VM with numpy 2.4, while the tracemalloc peak
# grew with the slice: 10 KB, 77 KB, 295 KB and 2.3 MB.
_REFINE_ROWS = 1024

# Cells of one chunk of the grid stage.  Each step of the stage runs on
# chunks of max(1, _GRID_CELLS // m) draws at its m grid points, so it
# bounds each temporary of a chunk's (rows x m) profile to about that many
# cells (m, if m is larger): at n = 1000, 64 draws of the 64 coarse points,
# 124 of a 33-point window and 4 of all 1000 points.  The tracemalloc peak
# of a 256-draw search at n = 1000 is 0.67 MB for one point and 0.69 MB for
# four stacked points (2-core VM, numpy 2.4).
_GRID_CELLS = 4096

# Stride of the grid stage's coarse step, in grid indices.  The window
# step then evaluates the 2 _COARSE_STEP + 1 grid indices around the
# coarse argmax, which hold both of its coarse neighbours.
_COARSE_STEP = 16

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
    search takes the first-hit argmax of the grid, found coarse to fine
    from about 100 of 1000 points (the module docstring says when that is
    the whole grid's argmax), and refines it by golden-section search to
    1e-6 in alpha."""

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


class _Draw(NamedTuple):
    """The inputs of the profile: the parameters it reads and one channel,
    as floats, or for a set of draws (rows,) arrays (the refine) or (rows,
    1) columns (the grid stage), one draw per row.  The grid stage takes
    one point's parameters as floats, the refine each row's point's as
    (rows,) arrays: an elementwise operation gives the same bits either
    way."""

    snr: float
    mu: float
    wr: float       # w2 / w1
    g1: float
    g2: float
    q: float        # eta*snr*g1*g3 / (1 + mu)


class _RowParams(NamedTuple):
    """The fields of ``SystemParams`` that ``_draw`` reads, as (rows,)
    arrays: one point's values per row."""

    avg_snr: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    wtilde2: np.ndarray


def _draw(p: SystemParams | _RowParams, g1, g2, g3) -> _Draw:
    return _Draw(p.avg_snr, p.mu, p.wtilde2, g1, g2,
                 p.eta * p.avg_snr * g1 * g3 / (1.0 + p.mu))


@functools.lru_cache(maxsize=8)
def _alpha_grid(n: int):
    """The n-point alpha grid on [ALPHA_MIN, 1 - ALPHA_MIN], read-only;
    built on the first solve at each n."""
    alphas = np.linspace(ALPHA_MIN, 1.0 - ALPHA_MIN, n)
    alphas.setflags(write=False)
    return alphas


def _coeffs(k: _Draw, alpha):
    """Everything f_alpha and its two quadratics need at alpha (a float or
    an array):

        d, e, pp                       f_alpha = (d - e rho)/(t - rho)*(pp + q rho)^wr
        a, b, c                        feasibility quadratic a rho^2 - b rho + c
        lead, beta, constant, theta    stationary quadratic lead rho^2 - 2 beta rho
                                       + constant; its discriminant is 4 theta
    """
    snr, mu, w, g1, g2, q = k
    t = 1.0 + mu
    half_q, q_w = 0.5 * q, q * w
    a_snr = alpha * snr
    r_snr = (1.0 - alpha) * snr
    s = r_snr * g1
    e = a_snr * g1 + 1.0
    d = e + mu
    pp = r_snr * g2 / (a_snr * g2 + 1.0 + mu) + 1.0
    direct = pp - 1.0
    lead = q_w * e
    beta = half_q * d * (w - 1.0) + half_q * e * t * (w + 1.0)
    constant = (d - e * t) * pp + q_w * t * d
    return (d, e, pp, q * e, q * d - direct * e + s, s - direct * d,
            lead, beta, constant, beta * beta - lead * constant)


def _feasibility_root(a, b, c):
    """rho_tilde: the smaller root 2c / (b + sqrt(b^2 - 4ac)), capped at 1.
    The guard's scale is formed only when some discriminant is negative: a
    non-negative or NaN one can never trip it."""
    disc = b * b - 4.0 * a * c
    if np.count_nonzero(disc < 0.0):
        scale = np.maximum(abs(a), np.maximum(abs(b), abs(c)))
        if np.count_nonzero(disc < -_DISC_GUARD * scale * scale):
            raise NumericalFailure("feasibility discriminant below roundoff guard")
    return np.minimum(2.0 * c / (b + np.sqrt(np.maximum(disc, 0.0))), 1.0)


def _stationary_root(lead, beta, constant, theta):
    """rho_bar: the smaller stationary root, in whichever of its two forms
    does not cancel.  The guard's scale is formed only when some theta is
    negative."""
    if np.count_nonzero(lead == 0.0):
        raise DivisionDegenerate(
            "stationary-point quadratic degenerates when q * wtilde2 * e == 0"
        )
    if np.count_nonzero(theta < 0.0):
        scale = np.maximum(beta * beta, abs(lead * constant))
        if np.count_nonzero(theta < -_DISC_GUARD * scale):
            raise NumericalFailure("stationary-point discriminant below roundoff guard")
    root = np.sqrt(np.maximum(theta, 0.0))
    positive = beta > 0.0
    return (np.where(positive, constant, beta - root)
            / np.where(positive, beta + root, lead))


def _profile(k: _Draw, alpha):
    """rho*(alpha), the interior and lower masks of the case split, and
    log f(alpha, rho*(alpha)): the profile the 1D search maximizes.
    ``alpha`` is an array inside (0, 1) that broadcasts against the arrays
    in ``k``; each result has the shape of alpha broadcast against ``k``.
    See the module docstring for the case split."""
    d, e, pp, a, b, c, lead, beta, constant, theta = _coeffs(k, alpha)
    q = k.q
    dead = q == 0.0
    if np.count_nonzero(dead):
        # rows with q == 0: theta is +0 (positive false), and lower |= dead
        # gives rho* = 0.  Their lead and b (with g1 = 0) are 0, which would
        # make both unused roots 0/0, so they take 1 instead.  Live blocks
        # skip the two full-size where calls, 2-3% of a search
        lead, b = np.where(dead, 1.0, lead), np.where(dead, 1.0, b)
    rb = _stationary_root(lead, beta, constant, theta)
    rt = _feasibility_root(a, b, c)
    positive = theta > 0.0
    interior = positive & (rb > 0.0) & (rb < rt)
    lower = positive & (rb <= 0.0) | dead
    rho = np.where(interior, rb, np.where(lower, 0.0, np.minimum(rt, _RHO_CAP)))
    log_f = np.log(d - e * rho) - np.log(1.0 + k.mu - rho) + k.wr * np.log(pp + q * rho)
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
    a weak relay link); then there is no SINR crossing below 1.  A root a
    roundoff below 0 (g2 a few ulps below g1) is returned as 0, as ``_search``
    clamps rho*, so the result is a valid ``DesignPoint`` rho.
    """
    _require_ordered(ch)
    _check_alpha(alpha)
    a, b, c = _coeffs(_draw(p, ch.g1, ch.g2, ch.g3), np.array([alpha]))[3:6]
    return np.maximum(_feasibility_root(a, b, c), 0.0).item()


def f_objective(p: SystemParams, ch: ChannelRealization, d: DesignPoint) -> float:
    """(1 + sinr_x1) * (1 + sinr_mrc)^(w2/w1); its scaled log is the weighted
    sum rate with the weak user's rate taken at the combiner.  Returns
    ``math.inf`` where the power overflows a float (high SNR with a large
    w2/w1)."""
    try:
        return (1.0 + sinr_x1_at_u1(p, ch, d)) * (1.0 + sinr_mrc_at_u2(p, ch, d)) ** p.wtilde2
    except OverflowError:
        return math.inf


def optimal_rho_for_alpha(p: SystemParams, ch: ChannelRealization, alpha: float):
    """Best feasible rho for this alpha, with the case actually taken.

    Returns ``(rho_star, branch)``; see the module docstring for the split.
    rho_star is clamped at 0, as in ``_search``: at a near tie the boundary
    root can be a roundoff below it.
    """
    _require_ordered(ch)
    _check_alpha(alpha)
    rho, interior, lower, _ = _profile(_draw(p, ch.g1, ch.g2, ch.g3), np.array([alpha]))
    return np.maximum(rho, 0.0).item(), _branch(interior.item(), lower.item())


def _grid_argmax(k: _Draw, n: int, cols):
    """The grid kernel: log f at the grid indices ``cols`` of the n-point
    alpha grid, an int array of shape (m,) for every row or (rows, m).
    Returns per row the position in ``cols`` of the first-hit argmax (the
    smallest alpha wins ties), log f there, and whether log f over ``cols``
    is single-peaked: it rises strictly to its maximum and falls strictly
    after it, with no tie and no NaN.  ``k`` holds a chunk's inputs as
    (rows, 1) columns; the profile is then (rows x m), and each of its
    points gets the same float operations, and so the same bits, as it gets
    alone."""
    logf = _profile(k, _alpha_grid(n)[cols])[3]
    after, before = logf[..., 1:], logf[..., :-1]
    up = after > before
    # a step neither up nor down (a tie or a NaN), or an up step after one
    # that was not up
    flat = up == (after < before)
    rise = up[..., 1:] > up[..., :-1]
    single = ~(flat.any(axis=-1) | rise.any(axis=-1))
    return logf.argmax(axis=-1), logf.max(axis=-1), single


def _grid_rows(p: SystemParams, g1, g2, g3, n: int, offsets, start=None):
    """The grid kernel on every draw of the (rows,) gain arrays, in chunks
    of max(1, _GRID_CELLS // m) draws, at the m grid indices ``offsets``,
    moved per draw by ``start`` when given.  Returns per draw the grid
    index of its first-hit argmax, log f there and whether its profile is
    single-peaked."""
    chunk = max(1, _GRID_CELLS // offsets.size)
    index, top, single = (np.empty(g1.size, dtype=t) for t in (np.intp, float, bool))
    for lo in range(0, g1.size, chunk):
        s = slice(lo, lo + chunk)
        k = _draw(p, g1[s, None], g2[s, None], g3[s, None])
        cols = offsets if start is None else start[s, None] + offsets
        j, top[s], single[s] = _grid_argmax(k, n, cols)
        index[s] = offsets[j]
    if start is not None:
        index += start
    return index, top, single


def _golden_rows(k: _Draw, lo, hi, x0, f0):
    """Golden-section maximization of each row's profile on [lo, hi], all
    rows in lock-step, with ``k`` holding their inputs as (rows,) arrays.
    Each row takes the probes, the tie rule (the left probe wins ties) and
    the stop of the section on its own: a row stops once its bracket is no
    wider than _REFINE_TOL, and a bracket that starts that narrow takes one
    probe at its midpoint (c = d).  Every row stays in the loop until the
    last one stops: a stopped row probes its best point again, after which
    c = d = that point, so it never evaluates a point its draw alone would
    not.  Returns per row alpha*, the best probe where it beats the
    incumbent (x0, f0) strictly and x0 otherwise, and the number of
    probes."""

    def g(x):
        return _profile(k, x)[3]

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


def _grid_stage(p: SystemParams, g1, g2, g3, n: int):
    """The grid stage of one point's search on every draw of the (rows,)
    gain arrays: the coarse step, then the window around the coarse argmax
    of each single-peaked draw and all n points on the others, each step in
    chunks of rows (``_grid_rows``).  Returns per draw the grid index of its
    incumbent, log f there and the number of profile points evaluated."""
    # every _COARSE_STEP-th grid index and n - 1; a window's column offsets
    coarse = np.array([*range(0, n - 1, _COARSE_STEP), n - 1])
    window = np.arange(min(2 * _COARSE_STEP + 1, n))
    peak, _, single = _grid_rows(p, g1, g2, g3, n, coarse)
    index, top = np.empty(len(g1), dtype=np.intp), np.empty(len(g1))
    one, many = np.flatnonzero(single), np.flatnonzero(~single)
    # the window holds the coarse argmax's two coarse neighbours
    start = np.minimum(np.maximum(peak[one] - _COARSE_STEP, 0), n - window.size)
    index[one], top[one], _ = _grid_rows(p, g1[one], g2[one], g3[one], n, window, start)
    index[many], top[many], _ = _grid_rows(p, g1[many], g2[many], g3[many], n, np.arange(n))
    return index, top, coarse.size + np.where(single, window.size, n)


def _search(params, g1, g2, g3, n: int):
    """The 1D search at each ``SystemParams`` of ``params`` for each draw of
    equal-length gain arrays, dead relay links (q == 0) included.  Returns
    the arrays alpha*, rho*, the interior and lower masks of the case taken
    at alpha*, and the evaluation count (profile points of the grid stage,
    refine probes and the profile at alpha*), with one row per (point,
    draw), point-major: the rows of ``params[j]`` are j*len(g1) on.

    The grid stage (``_grid_stage``) runs once per point, with its float
    parameters.  Then the refine runs on every row in slices of at most
    _REFINE_ROWS rows, each row with its own point's parameters, on the
    row's grid bracket: one grid step either side of its incumbent, inside
    the grid.  Each slice ends with one profile at its rows' alpha*.  A row
    takes the bits of its (point, draw) searched alone."""
    m = len(g1)
    rows = len(params) * m
    index, top, points = (np.empty(rows, dtype=t) for t in (np.intp, float, np.intp))
    for j, p in enumerate(params):
        s = slice(j * m, (j + 1) * m)
        index[s], top[s], points[s] = _grid_stage(p, g1, g2, g3, n)
    alphas = _alpha_grid(n)
    table = np.array([(p.avg_snr, p.mu, p.eta, p.wtilde2) for p in params]).T
    alpha_star, rho_star, interior, lower, evaluations = (
        np.empty(rows, dtype=t) for t in (float, float, bool, bool, np.intp))
    for lo in range(0, rows, _REFINE_ROWS):
        s = slice(lo, lo + _REFINE_ROWS)
        point, draw = np.divmod(np.arange(lo, min(lo + _REFINE_ROWS, rows)), m)
        i = index[s]
        k = _draw(_RowParams(*table[:, point]), g1[draw], g2[draw], g3[draw])
        a, probes = _golden_rows(k, alphas[np.maximum(i - 1, 0)],
                                 alphas[np.minimum(i + 1, n - 1)], alphas[i], top[s])
        alpha_star[s] = a
        rho_star[s], interior[s], lower[s], _ = _profile(k, a)
        evaluations[s] = points[s] + probes + 1
    # a near tie (g2 -> g1) can cancel c in the feasibility quadratic and
    # leave rho_tilde a roundoff below 0
    return alpha_star, np.maximum(rho_star, 0.0), interior, lower, evaluations


def solve_1d(p: SystemParams, ch: ChannelRealization,
             grid: AlphaGridSpec | None = None, *,
             row: list | None = None) -> OptimizationOutcome:
    """Weighted-sum-rate maximization by 1D search over alpha.

    For w2 <= w1 the optimum is the no-cooperation corner (all source power
    on x1, no splitting) at alpha = 1 - ALPHA_MIN, with its rates from
    ``rates``.  Otherwise finds the grid's argmax of f(alpha, rho*(alpha))
    coarse to fine (about 100 of 1000 points; the evaluations count them),
    refines the incumbent bracket by golden section and takes rho* and the
    branch at alpha* (``_search``), then the rates there (``_rate_tuple``).
    ``row`` is this draw's (alpha*, rho*, interior, lower, evaluations, c1,
    c2, weighted sum) from those two calls, as Python scalars, when the
    caller has made them already, as the Monte Carlo jobs do for a stack of
    points on their draws at once; without it both run on this draw alone,
    as one-row arrays.  Alone, a solve is a one-point, one-row ``_search``:
    its cost is mostly
    numpy's per-call cost on the one-row arrays of the two grid steps and
    the refine; with ``row`` it is only the objective and the outcome.
    """
    if p.w2 <= p.w1:
        d = DesignPoint(alpha=1.0 - ALPHA_MIN, rho=0.0)
        return OptimizationOutcome(d.alpha, d.rho, f_objective(p, ch, d), rates(p, ch, d),
                                   SolverBranch.TRIVIAL, 1)
    _require_ordered(ch)
    if row is None:
        gains = [np.array([ch.g1]), np.array([ch.g2]), np.array([ch.g3])]
        solved = _search([p], *gains, (grid or AlphaGridSpec()).n)
        rated = _rate_tuple(p.avg_snr, p.mu, p.eta, *gains, solved[0], solved[1], p.w1, p.w2)
        row = [v.item() for v in (*solved, *rated)]
    alpha_star, rho_star, interior, lower, evaluations, *rated = row
    d = DesignPoint(alpha=alpha_star, rho=rho_star)
    return OptimizationOutcome(alpha_star, rho_star, f_objective(p, ch, d), RateTriple(*rated),
                               _branch(interior, lower), evaluations)


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
    c1, c2, wsum = _rate_tuple(
        p.avg_snr, p.mu, p.eta, ch.g1, ch.g2, ch.g3,
        alphas[:, None], rhos[None, :], p.w1, p.w2,
    )
    flat = int(np.argmax(wsum))  # C order: first max is smallest alpha, then rho
    i, j = divmod(flat, n_rho)
    d = DesignPoint(alpha=float(alphas[i]), rho=float(rhos[j]))
    return OptimizationOutcome(
        alpha_star=d.alpha,
        rho_star=d.rho,
        objective_f=f_objective(p, ch, d),
        rate_triple=RateTriple(
            c1=float(c1[i, j]), c2=float(c2[i, j]), weighted_sum=float(wsum[i, j])
        ),
        branch=SolverBranch.GRID,
        evaluations=n_alpha * n_rho,
    )
