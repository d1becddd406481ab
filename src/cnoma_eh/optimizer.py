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
``_profile``, evaluates the profile everywhere.  It and its kernels
(``_coeffs``, ``_feasibility_root``, ``_stationary_root``) write every
intermediate into the buffers of a ``_Workspace`` with numpy's ``out=``,
each element through the float operations of the plain expression, so a
profile allocates no array of its own size.  ``_search`` runs the search
for a set of draws: the grid stage (``_grid_argmax``) on (rows x n) chunks,
then the refine (``_golden_rows``) on slices of up to ``_REFINE_ROWS`` draws
in lock-step, each draw stopping after the probes it would take alone, and
one last profile at each draw's alpha* for rho* and the branch; one
workspace serves all the chunks and one all the probes.  Every operation on
the way, each log included, is an elementwise numpy call, so a row gets the
bits its draw gets alone and outcomes do not depend on the block.
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

# Draws of one refine slice.  Per draw, the lock-step refine and the final
# profile, all in one workspace of the slice's rows, took 109 us at 16 rows,
# 25 us at 256, 16 us at 1024 and 14 us at 8192 on a 2-core VM with numpy
# 2.4 (level with a fresh temporary per operation), while the tracemalloc
# peak grew with the slice: 10 KB, 79 KB, 294 KB and 2.3 MB.
_REFINE_ROWS = 1024

# Cells of one grid-stage chunk: rows = max(1, _GRID_CELLS // n) draws share
# each (rows x n) profile, computed in one workspace of thirteen float and
# four bool buffers of that shape.  At n = 1000 on a 2-core VM with numpy
# 2.4, per draw and against a fresh temporary per operation at 4 rows, the
# grid stage ran 1.06x as fast at 4 rows, 1.27x at 8, 1.28x at 16, 1.17x at
# 32 and 0.93x at 64 (medians of 15 interleaved rounds): past 16 rows the
# buffers outgrow the 2 MB L2 cache.  8 rows keep the workspace at 0.86 MB,
# half of 16 rows', and each float buffer (64 KB) under glibc's default
# 128 KiB mmap threshold, so the buffers come from the heap, not from a
# fresh mapping per search.
_GRID_CELLS = 8192

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


class _Workspace(NamedTuple):
    """Buffers of one shape that the profile's kernels write into, in place
    of the temporaries each numpy expression would allocate: ``f`` holds
    float buffers, ``b`` bool ones.  Every result a kernel returns is one of
    them, valid until the next kernel call on the same buffers; a caller
    that keeps one copies it.  Outside the guards' rare branches no ufunc
    call writes into one of its own inputs: numpy 2.4 runs such a call
    through its general iterator, whose set-up costs more than the
    arithmetic on the refine's few rows."""

    f: tuple
    b: tuple

    def rows(self, count: int) -> _Workspace:
        """The leading ``count`` rows of every buffer: each stays contiguous."""
        return _Workspace(tuple(x[:count] for x in self.f), tuple(x[:count] for x in self.b))


def _workspace(shape) -> _Workspace:
    """A fresh workspace of ``shape``: the thirteen float buffers and four
    bool buffers one ``_profile`` uses."""
    return _Workspace(tuple(np.empty(shape) for _ in range(13)),
                      tuple(np.empty(shape, dtype=bool) for _ in range(4)))


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


def _shape(*arrays):
    return np.broadcast_shapes(*map(np.shape, arrays))


def _coeffs(k: _Draw, alpha, rest, ws: _Workspace | None = None):
    """Everything f_alpha and its two quadratics need at alpha (a float or
    an array, with rest = 1 - alpha):

        d, e, pp                       f_alpha = (d - e rho)/(t - rho)*(pp + q rho)^wr
        a, b, c                        feasibility quadratic a rho^2 - b rho + c
        lead, beta, constant, theta    stationary quadratic lead rho^2 - 2 beta rho
                                       + constant; its discriminant is 4 theta

    written into ``ws.f[0:10]`` in that order (``ws.f[10:12]`` are
    scratch) and returned as those buffers.  ``ws`` has the shape of alpha
    broadcast against the draw's arrays; without it a fresh one is made.
    Each element takes the float operations, in order, of the expressions
    in the comments."""
    p, g1, g2, q = k
    snr, mu, w = p.avg_snr, p.mu, p.wtilde2
    ws = ws or _workspace(_shape(alpha, g1, q))
    d, e, pp, a, b, c, lead, beta, constant, theta, s, u = ws.f[:12]
    t = 1.0 + mu
    half_q, q_w = 0.5 * q, q * w
    a_snr = alpha * snr
    r_snr = rest * snr
    # e = 1 + a_snr g1;  d = e + mu
    np.add(np.multiply(a_snr, g1, out=d), 1.0, out=e)
    np.add(e, mu, out=d)
    # pp = 1 + r_snr g2 / (a_snr g2 + 1 + mu);  direct = pp - 1, in u
    np.add(np.add(np.multiply(a_snr, g2, out=u), 1.0, out=pp), mu, out=u)
    np.divide(np.multiply(r_snr, g2, out=pp), u, out=a)
    np.add(a, 1.0, out=pp)
    np.subtract(pp, 1.0, out=u)
    # a = q e;  b = q d - direct e + r_snr g1;  c = r_snr g1 - direct d
    np.multiply(r_snr, g1, out=s)
    np.multiply(q, e, out=a)
    np.add(np.subtract(np.multiply(q, d, out=b), np.multiply(u, e, out=c), out=lead), s, out=b)
    np.subtract(s, np.multiply(u, d, out=lead), out=c)
    # lead = q_w e;  beta = half_q d (w - 1) + half_q e t (w + 1)
    np.multiply(q_w, e, out=lead)
    np.multiply(np.multiply(half_q, d, out=u), w - 1.0, out=s)
    np.multiply(np.multiply(np.multiply(half_q, e, out=u), t, out=beta), w + 1.0, out=u)
    np.add(s, u, out=beta)
    # constant = (d - e t) pp + q_w t d;  theta = beta beta - lead constant
    np.multiply(np.subtract(d, np.multiply(e, t, out=s), out=u), pp, out=s)
    np.add(s, np.multiply(q_w * t, d, out=u), out=constant)
    np.subtract(np.multiply(beta, beta, out=s), np.multiply(lead, constant, out=u), out=theta)
    return d, e, pp, a, b, c, lead, beta, constant, theta


def _feasibility_root(a, b, c, ws: _Workspace | None = None):
    """rho_tilde: the smaller root 2c / (b + sqrt(b^2 - 4ac)), capped at 1,
    written into ``ws.f[0]`` (``ws.f[1:3]`` and ``ws.b[0]`` are scratch)
    and returned as that buffer.  The guard's scale is formed only when
    some discriminant is negative: a non-negative or NaN one can never trip
    it."""
    ws = ws or _workspace(_shape(a, b, c))
    out, disc, tmp = ws.f[:3]
    # disc = b b - 4 a c
    np.multiply(np.multiply(4.0, a, out=tmp), c, out=out)
    np.subtract(np.multiply(b, b, out=tmp), out, out=disc)
    if np.count_nonzero(np.less(disc, 0.0, out=ws.b[0])):
        # scale = max(|a|, max(|b|, |c|));  disc < -guard scale scale
        np.maximum(np.abs(b, out=out), np.abs(c, out=tmp), out=out)
        scale = np.maximum(np.abs(a, out=tmp), out, out=tmp)
        np.multiply(np.multiply(-_DISC_GUARD, scale, out=out), scale, out=out)
        if np.count_nonzero(np.less(disc, out, out=ws.b[0])):
            raise NumericalFailure("feasibility discriminant below roundoff guard")
    # min(2c / (b + sqrt(max(disc, 0))), 1)
    np.add(b, np.sqrt(np.maximum(disc, 0.0, out=out), out=tmp), out=out)
    np.divide(np.multiply(2.0, c, out=tmp), out, out=disc)
    return np.minimum(disc, 1.0, out=out)


def _stationary_root(lead, beta, constant, theta, ws: _Workspace | None = None):
    """rho_bar: the smaller stationary root, in whichever of its two forms
    does not cancel, written into ``ws.f[1]`` (``ws.f[0]``, ``ws.f[2]`` and
    ``ws.b[0:2]`` are scratch) and returned as that buffer.  The guard's
    scale is formed only when some theta is negative."""
    ws = ws or _workspace(_shape(lead, beta, constant, theta))
    num, root, den = ws.f[:3]
    positive, other = ws.b[:2]
    if np.count_nonzero(np.equal(lead, 0.0, out=positive)):
        raise DivisionDegenerate(
            "stationary-point quadratic degenerates when q * wtilde2 * e == 0"
        )
    if np.count_nonzero(np.less(theta, 0.0, out=positive)):
        # scale = max(beta beta, |lead constant|);  theta < -guard scale
        np.abs(np.multiply(lead, constant, out=num), out=root)
        scale = np.maximum(np.multiply(beta, beta, out=num), root, out=den)
        if np.count_nonzero(np.less(theta, np.multiply(-_DISC_GUARD, scale, out=num),
                                    out=positive)):
            raise NumericalFailure("stationary-point discriminant below roundoff guard")
    np.sqrt(np.maximum(theta, 0.0, out=num), out=root)
    # where(beta > 0, constant, beta - root) / where(beta > 0, beta + root, lead)
    np.greater(beta, 0.0, out=positive)
    np.copyto(np.subtract(beta, root, out=num), constant, where=positive)
    np.copyto(np.add(beta, root, out=den), lead, where=np.logical_not(positive, out=other))
    return np.divide(num, den, out=root)


def _profile(k: _Draw, alpha, rest, ws: _Workspace | None = None):
    """rho*(alpha), the interior and lower masks of the case split, and
    log f(alpha, rho*(alpha)): the profile the 1D search maximizes.
    ``alpha`` is an array inside (0, 1) that broadcasts against the arrays
    in ``k``, with rest = 1 - alpha.  The four results are buffers of ``ws``
    (a fresh workspace without it), each of the shape of alpha broadcast
    against ``k``.  See the module docstring for the case split."""
    ws = ws or _workspace(_shape(alpha, k.g1, k.q))
    d, e, pp, a, b, c, lead, beta, constant, theta = _coeffs(k, alpha, rest, ws)
    p, q = k.p, k.q
    f = ws.f
    positive, lower, interior, flag = ws.b
    rho = f[7]
    if not np.count_nonzero(q):
        # dead relay link (in every row): rho* = 0 at every alpha (never
        # interior, always lower)
        np.less(alpha, 0.0, out=interior)
        np.greater(alpha, 0.0, out=lower)
        rho.fill(0.0)
    else:
        # rb in f[11]; rt in f[6], once lead, beta and constant are spent
        rb = _stationary_root(lead, beta, constant, theta, _Workspace(f[10:13], ws.b[1:3]))
        np.greater(theta, 0.0, out=positive)
        rt = _feasibility_root(a, b, c, _Workspace(f[6:9], ws.b[1:2]))
        # interior = positive & (rb > 0) & (rb < rt);  lower = positive & (rb <= 0)
        np.bitwise_and(positive, np.greater(rb, 0.0, out=flag), out=lower)
        np.bitwise_and(lower, np.less(rb, rt, out=flag), out=interior)
        np.bitwise_and(positive, np.less_equal(rb, 0.0, out=flag), out=lower)
        # rho = where(interior, rb, where(lower, 0, min(rt, _RHO_CAP)))
        np.minimum(rt, _RHO_CAP, out=rho)
        np.copyto(rho, 0.0, where=lower)
        np.copyto(rho, rb, where=interior)
    # log f = log(d - e rho) - log(1 + mu - rho) + wr log(pp + q rho)
    log_f, x, log_t, log_p = f[8], f[9], f[10], f[12]
    np.log(np.subtract(d, np.multiply(e, rho, out=log_f), out=x), out=log_f)
    np.log(np.subtract(1.0 + p.mu, rho, out=x), out=log_t)
    np.log(np.add(pp, np.multiply(q, rho, out=x), out=log_p), out=x)
    np.multiply(p.wtilde2, x, out=log_p)
    np.add(np.subtract(log_f, log_t, out=x), log_p, out=log_f)
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


def _grid_argmax(k: _Draw, n: int, ws: _Workspace | None = None):
    """The grid stage: the first-hit argmax index of log f on the n-point
    alpha grid (the smallest alpha wins ties) and log f there.  ``k`` holds
    a chunk's inputs as (rows, 1) columns with q == 0 in every row or in
    none; the profile is then (rows x n), in ``ws`` when given, and each
    row gets the same float operations, and so the same bits, as its draw
    alone."""
    alphas, rest = _alpha_grid(n)
    logf = _profile(k, alphas, rest, ws)[3]
    return logf.argmax(axis=-1), logf.max(axis=-1)


def _golden_rows(k: _Draw, lo, hi, x0, f0, ws: _Workspace | None = None):
    """Golden-section maximization of each row's profile on [lo, hi], all
    rows in lock-step.  ``k`` holds the rows' inputs as (rows,) arrays, with
    q == 0 in every row or in none.  Each row takes the probes, the tie rule
    (the left probe wins ties) and the stop of the section on its own: a row
    stops once its bracket is no wider than _REFINE_TOL, and a bracket that
    starts that narrow takes one probe at its midpoint (c = d).  Every row
    stays in the loop until the last one stops: a stopped row probes its
    best point again, after which c = d = that point, so it never evaluates
    a point its draw alone would not.  Every probe's profile is computed in
    ``ws`` (one fresh workspace for all of them without it).  Returns per
    row alpha*, the best probe where it beats the incumbent (x0, f0)
    strictly and x0 otherwise, and the number of probes."""
    ws = ws or _workspace(np.shape(lo))

    def g(x):
        return _profile(k, x, 1.0 - x, ws)[3]

    a, b = lo, hi
    width = b - a
    narrow = width <= _REFINE_TOL
    mid = 0.5 * (a + b)
    step = _INVPHI * width
    c = np.where(narrow, mid, b - step)
    d = np.where(narrow, mid, a + step)
    fc = g(c).copy()  # g's result is a view of ws, which the next probe reuses
    fd = g(d).copy()
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
    ends with one profile at its draws' alpha*.  One workspace of
    (chunk x n) serves every grid chunk and one of up to _REFINE_ROWS rows
    every slice, each through its leading rows."""
    alphas = _alpha_grid(n)[0]
    chunk = max(1, _GRID_CELLS // n)
    grid_ws = _workspace((min(chunk, len(g1)), n))
    refine_ws = _workspace((min(_REFINE_ROWS, len(g1)),))
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
            k = _draw(p, h1[s, None], h2[s, None], h3[s, None])
            index[s], top[s] = _grid_argmax(k, n, grid_ws.rows(len(k.q)))
        for lo in range(0, part.size, _REFINE_ROWS):
            s = slice(lo, lo + _REFINE_ROWS)
            i, rows = index[s], part[s]
            k = _draw(p, h1[s], h2[s], h3[s])
            ws = refine_ws.rows(rows.size)
            a, probes = _golden_rows(k, alphas[np.maximum(i - 1, 0)],
                                     alphas[np.minimum(i + 1, n - 1)], alphas[i], top[s], ws)
            alpha_star[rows] = a
            rho_star[rows], interior[rows], lower[rows], _ = _profile(k, a, 1.0 - a, ws)
            evaluations[rows] = n + probes + 1
    return alpha_star, rho_star, interior, lower, evaluations


def solve_1d(p: SystemParams, ch: ChannelRealization,
             grid: AlphaGridSpec | None = None, *,
             row: list | None = None) -> OptimizationOutcome:
    """Weighted-sum-rate maximization by 1D search over alpha.

    For w2 <= w1 the optimum is the no-cooperation corner (all source power
    on x1, no splitting) at alpha = 1 - ALPHA_MIN, with its rates from
    ``rates``.  Otherwise evaluates f(alpha, rho*(alpha)) on the grid,
    refines the incumbent bracket by golden section and takes rho* and the
    branch at alpha* (``_search``), then the rates there (``_rate_tuple``).
    ``row`` is this draw's (alpha*, rho*, interior, lower, evaluations, c1,
    c2, weighted sum) from those two calls, as Python scalars, when the
    caller has made them already, as the Monte Carlo blocks do for all their
    draws at once; without it both run on this draw alone, as one-row
    arrays.  Alone, a solve costs about 1.3 ms on a 2-core VM with numpy
    2.4, mostly numpy's per-call cost on the one-row arrays of the refine;
    with ``row`` it is only the objective and the outcome.
    """
    if p.w2 <= p.w1:
        d = DesignPoint(alpha=1.0 - ALPHA_MIN, rho=0.0)
        return OptimizationOutcome(d.alpha, d.rho, f_objective(p, ch, d), rates(p, ch, d),
                                   SolverBranch.TRIVIAL, 1)
    _require_ordered(ch)
    if row is None:
        gains = [np.array([ch.g1]), np.array([ch.g2]), np.array([ch.g3])]
        solved = _search(p, *gains, (grid or AlphaGridSpec()).n)
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
