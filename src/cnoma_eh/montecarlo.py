"""Seeded channel sampling and empirical estimation of ergodic quantities.

Sampling is counter-based and block-structured: draw ``i`` lives in block
``i // block_size``, and each block derives its own Philox stream from
``(seed, block_index)``.  Exponential gains come from inverse-CDF transforms
of a fixed number of uniforms per draw, so a block's content depends only on
``(seed, block_index)`` and never on how blocks are scheduled.  Workers
take contiguous runs of whole blocks and per-block partial sums are
combined in block order, which makes every aggregate bit-identical for any
worker count.

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
                pool: ProcessPoolExecutor | None = None) -> dict[str, Any]:
    """Run ``job(cfg, *args, run)`` on runs of ``cfg``'s blocks; return one
    point: ``n`` (draws kept), ``skipped``, and ``mean_<name>``,
    ``se_<name>`` for each name a block sums.

    A job returns one ``({name: (sum, sum of squares)}, skipped)`` per block
    of its run.  These are added in block order, so the point does not
    depend on how the blocks were split.  Without ``pool`` the parent runs
    every block as one run; with one, the blocks are split by ``_runs`` into
    one run per process of ``pool`` and each run is one job of it.
    """
    task = partial(job, cfg, *args)
    if pool is None:
        results = [task(list(_blocks(cfg)))]
    else:
        results = pool.map(task, _runs(cfg, pool._max_workers))  # sized to its runs
    blocks = [block for result in results for block in result]

    totals: dict[str, tuple[float, float]] = {}
    for sums, _ in blocks:
        for name, (s1, s2) in sums.items():
            t1, t2 = totals.get(name, (0.0, 0.0))
            totals[name] = (t1 + s1, t2 + s2)
    skipped = sum(skip for _, skip in blocks)
    n = cfg.sample_count - skipped
    point = {"n": n, "skipped": skipped}
    for name, (s1, s2) in totals.items():
        point[f"mean_{name}"], point[f"se_{name}"] = _mean_se(n, s1, s2)
    return point


def _ergodic_job(cfg: SamplerConfig, p: SystemParams, d: DesignPoint, run: list):
    """Per block of ``run``: (sum, sum of squares) of c1, c2 and the weighted
    sum at the fixed design ``d``; no draw is skipped."""
    out = []
    for block_index, count in run:
        g1, g2, g3 = sample_gains(cfg, p, block_index, count)
        c1, c2, ws = _rate_tuple(p.avg_snr, p.mu, p.eta, g1, g2, g3,
                                 d.alpha, d.rho, p.w1, p.w2)
        out.append(({"c1": _moments(c1), "c2": _moments(c2), "wsum": _moments(ws)}, 0))
    return out


def estimate_ergodic(cfg: SamplerConfig, p: SystemParams, d: DesignPoint) -> dict[str, Any]:
    """Monte Carlo ergodic rates at a fixed design point.

    Returns the point ``n``, ``skipped`` (always 0), and ``mean_<name>`` and
    ``se_<name>`` for ``c1``, ``c2`` and ``wsum`` (the weighted sum).
    """
    return _run_blocks(_ergodic_job, cfg, (p, d))


def _optimized_job(cfg: SamplerConfig, p: SystemParams, grid: AlphaGridSpec,
                   baseline: DesignPoint | None, run: list):
    """Per block of ``run``: (sum, sum of squares) of each averaged quantity,
    keyed as in ``estimate_optimized``'s point, and the skipped count.  One
    ``_search`` serves the kept draws of each group of
    ceil(``_REFINE_ROWS`` / block_size) blocks of the run, so that a job
    holds one group's rows, not the run's; each row of a search takes the
    bits of its draw alone."""
    group = -(-_REFINE_ROWS // cfg.block_size)
    out = []
    for start in range(0, len(run), group):
        kept = []
        for block_index, count in run[start:start + group]:
            g1, g2, g3 = sample_gains(cfg, p, block_index, count)
            keep = g1 != g2
            kept.append((g1[keep], g2[keep], g3[keep]))
            sums = {"wsum_opt": [0.0, 0.0], "alpha_star": [0.0, 0.0], "rho_star": [0.0, 0.0]}
            if baseline is not None:
                _, _, ws_fixed = _rate_tuple(p.avg_snr, p.mu, p.eta, g1, g2, g3,
                                             baseline.alpha, baseline.rho, p.w1, p.w2)
                sums["wsum_fixed"] = _moments(ws_fixed[keep])
            out.append((sums, count - len(kept[-1][0])))
        gains = [np.concatenate(column) for column in zip(*kept)]
        # the group's rows in draw order: each block takes the next len(k1)
        rows = zip(*(v.tolist() for v in (*gains, *_search(p, *gains, grid.n))))
        for (sums, _), (k1, _, _) in zip(out[-len(kept):], kept):
            for x1, x2, x3, *row in islice(rows, len(k1)):
                # one solve_1d call per kept draw: benchmark/tracing.py counts them
                sol = solve_1d(p, ChannelRealization(g1=x1, g2=x2, g3=x3), grid, row=row)
                for pair, v in zip(sums.values(),
                                   (sol.rate_triple.weighted_sum, sol.alpha_star, sol.rho_star)):
                    pair[0] += v
                    pair[1] += v * v
        del kept, gains, rows  # before the next group's search, not after it
    return out


def estimate_optimized(cfg: SamplerConfig, p: SystemParams,
                       grid: AlphaGridSpec | None = None,
                       baseline: DesignPoint | None = None, *,
                       pool: ProcessPoolExecutor | None = None) -> dict[str, Any]:
    """Per-draw optimization over SWAP_ORDERED draws.

    Runs the 1D search on every draw and aggregates the optimized weighted
    sum rate and the optimal coefficients; when ``baseline`` is given the
    fixed-design weighted sum is averaged over the same draws, and
    ``gain_percent`` is 100 (optimized - fixed) / fixed of the two means.
    Draws with g1 == g2 exactly are skipped, counted, and left out of every
    mean.

    Without ``pool`` the parent does every block and no process is started.
    ``estimate_optimized_sweep`` passes the pool it owns: the blocks are then
    split into one contiguous run per process, and each run is one job.  The
    point is the same either way.
    """
    if not p.w2 > p.w1:
        raise DomainError("optimized sweeps require w2 > w1")
    if cfg.ordering is not Ordering.SWAP_ORDERED:
        raise DomainError("optimized sweeps require swap-ordered draws (g1 >= g2)")
    point = _run_blocks(_optimized_job, cfg, (p, grid or AlphaGridSpec(), baseline), pool)
    if baseline is not None:
        f_m = point["mean_wsum_fixed"]
        point["gain_percent"] = 100.0 * (point["mean_wsum_opt"] - f_m) / f_m
    return point


def estimate_optimized_sweep(cfg: SamplerConfig, params: list[SystemParams],
                             grid: AlphaGridSpec | None = None,
                             baseline: DesignPoint | None = None,
                             workers: int = 1) -> list[dict[str, Any]]:
    """``estimate_optimized`` at each ``SystemParams`` of ``params``, in
    order, on the draws of ``cfg``.

    The blocks are split once into ``_runs(cfg, workers)``.  With two or
    more runs, one pool of one process per run serves every point, each run
    one job, and is shut down before this returns; with one run the parent
    does the work.  The points are the same for any ``workers``.
    """
    size = len(_runs(cfg, workers))
    if size < 2:
        return [estimate_optimized(cfg, p, grid, baseline) for p in params]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return [estimate_optimized(cfg, p, grid, baseline, pool=pool) for p in params]
