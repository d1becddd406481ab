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
everywhere.  It and its kernels (``_coeffs``, ``_feasibility_root``,
``_stationary_root``) write every intermediate into the buffers of a
``_Workspace`` with numpy's ``out=``, each element through the float
operations of the plain expression, so a profile allocates no array of its
own size.  ``_search`` runs the search at a list of points
(``SystemParams``) for a set of draws.  Per point, the grid stage's coarse,
window and all-n steps (``_grid_stage``) each go through the one grid
kernel (``_grid_argmax``) on chunks of rows, with the point's parameters as
floats.  Then the refine (``_golden_rows``) runs over every (point, draw)
row, on slices of up to ``_REFINE_ROWS`` rows in lock-step, each row with
its own point's parameters (a ``_Draw`` holds floats or per-row arrays) and
stopping after the probes it would take alone, and one last profile at each
row's alpha* gives rho* and the branch.  One workspace serves every chunk
of every point's grid stage and is released before one serves all the
probes.  Every operation on the way, each log included, is an elementwise
numpy call, so a row gets the bits its draw gets alone, at its point alone,
and outcomes do not depend on the block or on the points beside it.
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
# stack as many points into one search as fit in it.  Per row, the lock-step
# refine and the final profile, all in one workspace of the slice's rows,
# took 109 us at 16 rows, 25 us at 256, 16 us at 1024 and 14 us at 8192 on
# a 2-core VM with numpy 2.4 (level with a fresh temporary per operation),
# while the tracemalloc peak grew with the slice: 10 KB, 79 KB, 294 KB and
# 2.3 MB.
_REFINE_ROWS = 1024

# Cells of the grid stage's workspace: max(1, _GRID_CELLS // n) rows of n,
# thirteen float and four bool buffers of that shape.  Each step of the
# stage runs on chunks of as many draws as its (rows x points) profile
# fits into those cells: at n = 1000 that is 62 draws of the 64 coarse
# points, 121 of a 33-point window and 4 of all 1000 points.  Per draw,
# on 256-draw blocks at n = 1000 (2-core VM, numpy 2.4, medians of 9
# interleaved rounds), the search took 31 us at 2048 cells, 24 us at 4096
# and 26 us at 8192.  4096 cells keep the workspace at 0.43 MB and a
# 256-draw search's tracemalloc peak at 0.69 MB, below the 1.05 MB of the
# all-points grid stage at 8192 cells.  At 8192 cells the window step's
# temporaries raised that peak to 1.30 MB.  glibc then grew the heap in
# the first fig2 pass and kept the grown top chunk, so later code that
# allocates arrays of up to about 0.5 MB, the benchmark's reference kernel
# included, stopped page-faulting and ran 2-3x as fast: at 4 of 7 checkout
# paths tried, and at none of 10 with 4096 cells.
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

    def take(self, *shape) -> _Workspace:
        """Views of ``shape`` over the leading cells of every buffer, each
        contiguous: the buffers of a smaller profile."""
        return _Workspace(tuple(_cells(x, shape) for x in self.f),
                          tuple(_cells(x, shape) for x in self.b))


def _cells(x, shape):
    """A view of ``shape`` over the leading cells of the contiguous array x."""
    return np.ndarray(shape, x.dtype, x)


def _workspace(shape) -> _Workspace:
    """A fresh workspace of ``shape``: the thirteen float buffers and four
    bool buffers one ``_profile`` uses."""
    return _Workspace(tuple(np.empty(shape) for _ in range(13)),
                      tuple(np.empty(shape, dtype=bool) for _ in range(4)))


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
    snr, mu, w, g1, g2, q = k
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
    q = k.q
    f = ws.f
    positive, lower, interior, flag = ws.b
    rho = f[7]
    dead = np.count_nonzero(q) < np.size(q)
    if dead:
        # rows with q == 0: theta is +0 (positive false), and lower |= dead
        # below gives rho* = 0.  Their lead and b (with g1 = 0) are 0, which
        # would make both unused roots 0/0, so they take 1 instead
        np.copyto(lead, 1.0, where=np.equal(q, 0.0, out=flag))
        np.copyto(b, 1.0, where=flag)
    # rb in f[11]; rt in f[6], once lead, beta and constant are spent
    rb = _stationary_root(lead, beta, constant, theta, _Workspace(f[10:13], ws.b[1:3]))
    np.greater(theta, 0.0, out=positive)
    rt = _feasibility_root(a, b, c, _Workspace(f[6:9], ws.b[1:2]))
    # interior = positive & (rb > 0) & (rb < rt);  lower = positive & (rb <= 0)
    np.bitwise_and(positive, np.greater(rb, 0.0, out=flag), out=lower)
    np.bitwise_and(lower, np.less(rb, rt, out=flag), out=interior)
    np.bitwise_and(positive, np.less_equal(rb, 0.0, out=flag), out=lower)
    if dead:
        np.copyto(lower, True, where=np.equal(q, 0.0, out=flag))
    # rho = where(interior, rb, where(lower, 0, min(rt, _RHO_CAP)))
    np.minimum(rt, _RHO_CAP, out=rho)
    np.copyto(rho, 0.0, where=lower)
    np.copyto(rho, rb, where=interior)
    # log f = log(d - e rho) - log(1 + mu - rho) + wr log(pp + q rho)
    log_f, x, log_t, log_p = f[8], f[9], f[10], f[12]
    np.log(np.subtract(d, np.multiply(e, rho, out=log_f), out=x), out=log_f)
    np.log(np.subtract(1.0 + k.mu, rho, out=x), out=log_t)
    np.log(np.add(pp, np.multiply(q, rho, out=x), out=log_p), out=x)
    np.multiply(k.wr, x, out=log_p)
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


def _grid_argmax(k: _Draw, n: int, cols, ws: _Workspace | None = None):
    """The grid kernel: log f at the grid indices ``cols`` of the n-point
    alpha grid, an int array of shape (m,) for every row or (rows, m).
    Returns per row the position in ``cols`` of the first-hit argmax (the
    smallest alpha wins ties), log f there, and whether log f over ``cols``
    is single-peaked: it rises strictly to its maximum and falls strictly
    after it, with no tie and no NaN.  ``k`` holds a chunk's inputs as
    (rows, 1) columns; the profile is then (rows x m), in ``ws`` when given,
    and each of its points gets the same float operations, and so the same
    bits, as it gets alone."""
    alphas, rest = _alpha_grid(n)
    alphas, rest = alphas[cols], rest[cols]
    ws = ws or _workspace(_shape(alphas, k.g1, k.q))
    logf = _profile(k, alphas, rest, ws)[3]
    after, before = logf[..., 1:], logf[..., :-1]
    up = np.greater(after, before, out=_cells(ws.b[0], after.shape))
    down = np.less(after, before, out=_cells(ws.b[1], after.shape))
    # a step neither up nor down (a tie or a NaN), or an up step after one
    # that was not up
    flat = np.equal(up, down, out=_cells(ws.b[2], after.shape))
    rise = np.greater(up[..., 1:], up[..., :-1], out=_cells(ws.b[3], up[..., 1:].shape))
    single = ~(flat.any(axis=-1) | rise.any(axis=-1))
    return logf.argmax(axis=-1), logf.max(axis=-1), single


def _grid_rows(p: SystemParams, g1, g2, g3, n: int, ws: _Workspace, offsets, start=None):
    """The grid kernel on every draw of the (rows,) gain arrays, in chunks
    of as many draws as a (rows x m) view of ``ws`` holds, at the m grid
    indices ``offsets``, moved per draw by ``start`` when given.  Returns
    per draw the grid index of its first-hit argmax, log f there and
    whether its profile is single-peaked."""
    m = offsets.size
    chunk = max(1, ws.f[0].size // m)
    index, top, single = (np.empty(g1.size, dtype=t) for t in (np.intp, float, bool))
    for lo in range(0, g1.size, chunk):
        s = slice(lo, lo + chunk)
        k = _draw(p, g1[s, None], g2[s, None], g3[s, None])
        cols = offsets if start is None else start[s, None] + offsets
        j, top[s], single[s] = _grid_argmax(k, n, cols, ws.take(len(k.q), m))
        index[s] = offsets[j]
    if start is not None:
        index += start
    return index, top, single


def _golden_rows(k: _Draw, lo, hi, x0, f0, ws: _Workspace | None = None):
    """Golden-section maximization of each row's profile on [lo, hi], all
    rows in lock-step, with ``k`` holding their inputs as (rows,) arrays.
    Each row takes the probes, the tie rule (the left probe wins ties) and
    the stop of the section on its own: a row stops once its bracket is no
    wider than _REFINE_TOL, and a bracket that starts that narrow takes one
    probe at its midpoint (c = d).  Every row stays in the loop until the
    last one stops: a stopped row probes its best point again, after which
    c = d = that point, so it never evaluates a point its draw alone would
    not.  Every probe's profile is computed in ``ws`` (one fresh workspace
    for all of them without it).  Returns per row alpha*, the best probe
    where it beats the incumbent (x0, f0) strictly and x0 otherwise, and
    the number of probes."""
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


def _grid_stage(p: SystemParams, g1, g2, g3, n: int, ws: _Workspace):
    """The grid stage of one point's search on every draw of the (rows,)
    gain arrays, in ``ws``: the coarse step, then the window around the
    coarse argmax of each single-peaked draw and all n points on the
    others.  Returns per draw the grid index of its incumbent, log f there
    and the number of profile points evaluated."""
    # every _COARSE_STEP-th grid index and n - 1; a window's column offsets
    coarse = np.array([*range(0, n - 1, _COARSE_STEP), n - 1])
    window = np.arange(min(2 * _COARSE_STEP + 1, n))
    peak, _, single = _grid_rows(p, g1, g2, g3, n, ws, coarse)
    index, top = np.empty(len(g1), dtype=np.intp), np.empty(len(g1))
    one, many = np.flatnonzero(single), np.flatnonzero(~single)
    # the window holds the coarse argmax's two coarse neighbours
    start = np.minimum(np.maximum(peak[one] - _COARSE_STEP, 0), n - window.size)
    index[one], top[one], _ = _grid_rows(p, g1[one], g2[one], g3[one], n, ws, window, start)
    index[many], top[many], _ = _grid_rows(p, g1[many], g2[many], g3[many], n, ws,
                                           np.arange(n))
    return index, top, coarse.size + np.where(single, window.size, n)


def _search(params, g1, g2, g3, n: int):
    """The 1D search at each ``SystemParams`` of ``params`` for each draw of
    equal-length gain arrays, dead relay links (q == 0) included.  Returns
    the arrays alpha*, rho*, the interior and lower masks of the case taken
    at alpha*, and the evaluation count (profile points of the grid stage,
    refine probes and the profile at alpha*), with one row per (point,
    draw), point-major: the rows of ``params[j]`` are j*len(g1) on.

    The grid stage (``_grid_stage``) runs once per point, with its float
    parameters, in one workspace of (max(1, _GRID_CELLS // n) x n) cells
    that every chunk of every point takes views of.  That workspace is
    released before the refine, which runs on every row in slices of at
    most _REFINE_ROWS rows, each row with its own point's parameters, on
    the row's grid bracket: one grid step either side of its incumbent,
    inside the grid.  Each slice ends with one profile at its rows' alpha*,
    and one workspace of up to _REFINE_ROWS rows serves every slice.  A row
    takes the bits of its (point, draw) searched alone."""
    m = len(g1)
    rows = len(params) * m
    index, top, points = (np.empty(rows, dtype=t) for t in (np.intp, float, np.intp))
    grid_ws = _workspace((min(max(1, _GRID_CELLS // n), m), n))
    for j, p in enumerate(params):
        s = slice(j * m, (j + 1) * m)
        index[s], top[s], points[s] = _grid_stage(p, g1, g2, g3, n, grid_ws)
    del grid_ws  # before the refine's buffers, so that the two never coexist
    alphas = _alpha_grid(n)[0]
    table = np.array([(p.avg_snr, p.mu, p.eta, p.wtilde2) for p in params]).T
    refine_ws = _workspace((min(_REFINE_ROWS, rows),))
    alpha_star, rho_star, interior, lower, evaluations = (
        np.empty(rows, dtype=t) for t in (float, float, bool, bool, np.intp))
    for lo in range(0, rows, _REFINE_ROWS):
        s = slice(lo, lo + _REFINE_ROWS)
        point, draw = np.divmod(np.arange(lo, min(lo + _REFINE_ROWS, rows)), m)
        i = index[s]
        k = _draw(_RowParams(*table[:, point]), g1[draw], g2[draw], g3[draw])
        ws = refine_ws.take(i.size)
        a, probes = _golden_rows(k, alphas[np.maximum(i - 1, 0)],
                                 alphas[np.minimum(i + 1, n - 1)], alphas[i], top[s], ws)
        alpha_star[s] = a
        rho_star[s], interior[s], lower[s], _ = _profile(k, a, 1.0 - a, ws)
        evaluations[s] = points[s] + probes + 1
    return alpha_star, rho_star, interior, lower, evaluations


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
