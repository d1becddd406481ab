"""Seeded channel sampling and empirical estimation of ergodic quantities.

Sampling is counter-based and block-structured: draw ``i`` lives in block
``i // block_size``, and each block derives its own Philox stream from
``(seed, block_index)``.  Exponential gains come from inverse-CDF transforms
of a fixed number of uniforms per draw, so a block's content depends only on
``(seed, block_index)`` and never on how blocks are scheduled.  Workers
take contiguous runs of whole blocks and per-block partial sums are
combined in block order, which makes every aggregate bit-identical for any
worker count.

An optimized sweep makes one job per run of blocks for all its points: the
job samples each block once, and stacks as many points as fit in
``_REFINE_ROWS`` rows into one ``_search`` over the kept draws, whose refine
takes each row's own point's parameters.  Each (point, block) sum still
adds its draws in draw order, so every point is the point it is alone.

Two ordering policies are exposed: UNORDERED draws match the plain
exponential marginals assumed by the analytic ergodic rates; SWAP_ORDERED
swaps g1 and g2 when needed so each draw satisfies the solver's g1 > g2
precondition (per-draw order statistics of the pair).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice
from typing import Any

import numpy as np

from .errors import DomainError
from .model import ChannelRealization, DesignPoint, SystemParams, _rate_tuple
from .optimizer import _REFINE_ROWS, AlphaGridSpec, _search, solve_1d

__all__ = [
    "Ordering",
    "SamplerConfig",
    "sample_gains",
    "estimate_ergodic",
    "estimate_optimized",
    "estimate_optimized_sweep",
]


class Ordering(Enum):
    UNORDERED = "unordered"
    SWAP_ORDERED = "swap"


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    ordering: Ordering = Ordering.UNORDERED
    sample_count: int = 100_000
    block_size: int = 8192

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be an unsigned 64-bit integer")
        if self.sample_count < 1:
            raise DomainError("sample_count must be >= 1")
        if self.block_size < 1:
            raise DomainError("block_size must be >= 1")


def sample_gains(cfg: SamplerConfig, p: SystemParams, block_index: int, count: int):
    """Gain arrays for one block; deterministic in (seed, block_index)."""
    ss = np.random.SeedSequence([cfg.seed, block_index])
    u = np.random.Generator(np.random.Philox(ss)).random((count, 3))
    # inverse CDF keeps the per-draw uniform budget fixed (3 per draw)
    g1 = -p.var1 * np.log1p(-u[:, 0])
    g2 = -p.var2 * np.log1p(-u[:, 1])
    g3 = -p.var3 * np.log1p(-u[:, 2])
    if cfg.ordering is Ordering.SWAP_ORDERED:
        g1, g2 = np.maximum(g1, g2), np.minimum(g1, g2)
    return g1, g2, g3


def _blocks(cfg: SamplerConfig):
    full, rem = divmod(cfg.sample_count, cfg.block_size)
    for b in range(full):
        yield b, cfg.block_size
    if rem:
        yield full, rem


def _moments(values: np.ndarray):
    return float(values.sum()), float(np.square(values).sum())


def _mean_se(n: int, s1: float, s2: float):
    mean = float(s1) / n
    if n < 2:
        return mean, float("nan")
    var = max(0.0, (float(s2) - float(s1) * float(s1) / n) / (n - 1))
    return mean, math.sqrt(var / n)


def _runs(cfg: SamplerConfig, workers: int) -> list[list[tuple[int, int]]]:
    """``cfg``'s blocks as ``(block_index, count)`` pairs, split into
    min(workers, blocks) contiguous runs whose lengths differ by at most one."""
    blocks = list(_blocks(cfg))
    k = min(workers, len(blocks))
    size, extra = divmod(len(blocks), k)
    cuts = [i * size + min(i, extra) for i in range(k + 1)]
    return [blocks[a:b] for a, b in zip(cuts, cuts[1:])]


def _run_blocks(job, cfg: SamplerConfig, args: tuple,
                pool: ProcessPoolExecutor | None = None) -> list[dict[str, Any]]:
    """Run ``job(cfg, *args, run)`` on runs of ``cfg``'s blocks; return its
    points, in order, each with ``n`` (draws kept), ``skipped``, and
    ``mean_<name>``, ``se_<name>`` for each name a block sums.

    A job returns one ``([{name: (sum, sum of squares)} per point],
    skipped)`` per block of its run.  Each point's sums are added in block
    order, so no point depends on how the blocks were split.  Without
    ``pool`` the parent runs every block as one run; with one, the blocks
    are split by ``_runs`` into one run per process of ``pool`` and each run
    is one job of one ``pool.map``, which serves every point.
    """
    task = partial(job, cfg, *args)
    if pool is None:
        results = [task(list(_blocks(cfg)))]
    else:
        results = pool.map(task, _runs(cfg, pool._max_workers))  # sized to its runs
    blocks = [block for result in results for block in result]
    skipped = sum(skip for _, skip in blocks)
    n = cfg.sample_count - skipped
    points = []
    for sums in zip(*(point_sums for point_sums, _ in blocks)):
        totals: dict[str, tuple[float, float]] = {}
        for block in sums:
            for name, (s1, s2) in block.items():
                t1, t2 = totals.get(name, (0.0, 0.0))
                totals[name] = (t1 + s1, t2 + s2)
        point = {"n": n, "skipped": skipped}
        for name, (s1, s2) in totals.items():
            point[f"mean_{name}"], point[f"se_{name}"] = _mean_se(n, s1, s2)
        points.append(point)
    return points


def _ergodic_job(cfg: SamplerConfig, p: SystemParams, d: DesignPoint, run: list):
    """Per block of ``run``: (sum, sum of squares) of c1, c2 and the weighted
    sum at the fixed design ``d``, for the one point ``p``; no draw is
    skipped."""
    out = []
    for block_index, count in run:
        g1, g2, g3 = sample_gains(cfg, p, block_index, count)
        c1, c2, ws = _rate_tuple(p.avg_snr, p.mu, p.eta, g1, g2, g3,
                                 d.alpha, d.rho, p.w1, p.w2)
        out.append(([{"c1": _moments(c1), "c2": _moments(c2), "wsum": _moments(ws)}], 0))
    return out


def estimate_ergodic(cfg: SamplerConfig, p: SystemParams, d: DesignPoint) -> dict[str, Any]:
    """Monte Carlo ergodic rates at a fixed design point.

    Returns the point ``n``, ``skipped`` (always 0), and ``mean_<name>`` and
    ``se_<name>`` for ``c1``, ``c2`` and ``wsum`` (the weighted sum).
    """
    return _run_blocks(_ergodic_job, cfg, (p, d))[0]


def _optimized_job(cfg: SamplerConfig, params: list[SystemParams], grid: AlphaGridSpec,
                   baseline: DesignPoint | None, run: list):
    """Per block of ``run``: per point of ``params``, (sum, sum of squares)
    of each averaged quantity, keyed as in ``estimate_optimized_sweep``'s
    points, and the skipped count.

    The run goes in groups of ceil(``_REFINE_ROWS`` / block_size) blocks,
    each block sampled once for every point.  The group's kept rows are
    searched for max(1, ``_REFINE_ROWS`` // rows) points at a time, one
    ``_search`` per stack of points, and each point's rows then get one
    ``_rate_tuple`` at their alpha* and rho*.  So a job holds one stack's
    rows, not the run's or the sweep's, and each row of either takes the
    bits of its (point, draw) alone.  Each (point, block) sum adds its
    draws in draw order."""
    group = -(-_REFINE_ROWS // cfg.block_size)
    out = []
    for start in range(0, len(run), group):
        kept = []
        for block_index, count in run[start:start + group]:
            # every point has the draws' variances (the sweep checks them)
            g1, g2, g3 = sample_gains(cfg, params[0], block_index, count)
            keep = g1 != g2
            kept.append((g1[keep], g2[keep], g3[keep]))
            sums = []
            for p in params:
                sums.append({"wsum_opt": [0.0, 0.0], "alpha_star": [0.0, 0.0],
                             "rho_star": [0.0, 0.0]})
                if baseline is not None:
                    _, _, ws_fixed = _rate_tuple(p.avg_snr, p.mu, p.eta, g1, g2, g3,
                                                 baseline.alpha, baseline.rho, p.w1, p.w2)
                    sums[-1]["wsum_fixed"] = _moments(ws_fixed[keep])
            out.append((sums, count - len(kept[-1][0])))
        gains = [np.concatenate(column) for column in zip(*kept)]
        m = len(gains[0])
        stack = max(1, _REFINE_ROWS // max(m, 1))
        for lo in range(0, len(params), stack):
            solved = _search(params[lo:lo + stack], *gains, grid.n)
            for j, p in enumerate(params[lo:lo + stack]):
                mine = [v[j * m:(j + 1) * m] for v in solved]
                rated = _rate_tuple(p.avg_snr, p.mu, p.eta, *gains, mine[0], mine[1],
                                    p.w1, p.w2)
                # the point's rows in draw order: each block takes the next len(k1)
                rows = zip(*(v.tolist() for v in (*gains, *mine, *rated)))
                for (sums, _), (k1, _, _) in zip(out[-len(kept):], kept):
                    for x1, x2, x3, *row in islice(rows, len(k1)):
                        # one solve_1d call per kept draw and point: benchmark/tracing.py
                        # counts them
                        sol = solve_1d(p, ChannelRealization(g1=x1, g2=x2, g3=x3), grid,
                                       row=row)
                        for pair, v in zip(sums[lo + j].values(),
                                           (sol.rate_triple.weighted_sum, sol.alpha_star,
                                            sol.rho_star)):
                            pair[0] += v
                            pair[1] += v * v
            del solved, mine, rated, rows  # before the next stack's search, not after it
    return out


def estimate_optimized(cfg: SamplerConfig, p: SystemParams,
                       grid: AlphaGridSpec | None = None,
                       baseline: DesignPoint | None = None) -> dict[str, Any]:
    """Per-draw optimization over SWAP_ORDERED draws: the one-point
    ``estimate_optimized_sweep``, in this process."""
    return estimate_optimized_sweep(cfg, [p], grid, baseline)[0]


def estimate_optimized_sweep(cfg: SamplerConfig, params: list[SystemParams],
                             grid: AlphaGridSpec | None = None,
                             baseline: DesignPoint | None = None,
                             workers: int = 1) -> list[dict[str, Any]]:
    """Per-draw optimization at each ``SystemParams`` of ``params``, in
    order, on the SWAP_ORDERED draws of ``cfg``, which every point shares.

    Runs the 1D search on every draw at every point and aggregates, per
    point, the optimized weighted sum rate and the optimal coefficients;
    when ``baseline`` is given the fixed-design weighted sum is averaged
    over the same draws, and ``gain_percent`` is 100 (optimized - fixed) /
    fixed of the two means.  Draws with g1 == g2 exactly are skipped,
    counted, and left out of every mean.

    Each block is sampled once for all the points, so the points must agree
    on ``var1``, ``var2`` and ``var3``; like the other preconditions this is
    checked before anything is sampled.  The blocks are split once into
    ``_runs(cfg, workers)`` and one job per run serves every point
    (``_optimized_job``).  With two or more runs, one pool of one process
    per run takes them all in one ``map`` and is shut down before this
    returns; with one run the parent does the work.  The points are the
    same for any ``workers``, and each is the point it would be alone.
    """
    if not all(p.w2 > p.w1 for p in params):
        raise DomainError("optimized sweeps require w2 > w1")
    if cfg.ordering is not Ordering.SWAP_ORDERED:
        raise DomainError("optimized sweeps require swap-ordered draws (g1 >= g2)")
    if len({(p.var1, p.var2, p.var3) for p in params}) > 1:
        raise DomainError("a sweep's points share their draws: var1, var2 and var3 "
                          "must be equal at every point")
    if not params:
        return []
    args = (list(params), grid or AlphaGridSpec(), baseline)
    size = len(_runs(cfg, workers))
    if size < 2:
        points = _run_blocks(_optimized_job, cfg, args)
    else:
        with ProcessPoolExecutor(max_workers=size) as pool:
            points = _run_blocks(_optimized_job, cfg, args, pool)
    if baseline is not None:
        for point in points:
            f_m = point["mean_wsum_fixed"]
            point["gain_percent"] = 100.0 * (point["mean_wsum_opt"] - f_m) / f_m
    return points
