"""Seeded channel sampling and empirical estimation of ergodic quantities.

Sampling is counter-based and block-structured: draw ``i`` lives in block
``i // block_size``, and each block derives its own Philox stream from
``(seed, block_index)``.  Exponential gains come from inverse-CDF transforms
of a fixed number of uniforms per draw, so a block's content depends only on
``(seed, block_index)`` and never on how blocks are scheduled.  Workers
partition whole blocks and partial sums are combined in block order, which
makes every aggregate bit-identical for any worker count.

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
from typing import Any

import numpy as np

from .errors import DomainError
from .model import ChannelRealization, DesignPoint, SystemParams, _rate_tuple
from .optimizer import AlphaGridSpec, _search, solve_1d

__all__ = [
    "Ordering",
    "SamplerConfig",
    "sample_gains",
    "estimate_ergodic",
    "estimate_optimized",
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


def _run_blocks(block, cfg: SamplerConfig, args: tuple, workers: int = 1) -> dict[str, Any]:
    """Run ``block(cfg, *args, block_index, count)`` on every block; return
    one point: ``n`` (draws kept), ``skipped``, and ``mean_<name>``,
    ``se_<name>`` for each name a block sums.

    A block returns ``({name: (sum, sum of squares)}, skipped)``.  These are
    added in block order, so the point does not depend on ``workers``.
    """
    jobs = [(cfg, *args, b, count) for b, count in _blocks(cfg)]
    # both paths return the blocks in job order; a pool only for 2+ blocks,
    # and no more processes than blocks
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(block, *zip(*jobs), chunksize=1))
    else:
        results = [block(*job) for job in jobs]

    totals: dict[str, tuple[float, float]] = {}
    for sums, _ in results:
        for name, (s1, s2) in sums.items():
            t1, t2 = totals.get(name, (0.0, 0.0))
            totals[name] = (t1 + s1, t2 + s2)
    skipped = sum(skip for _, skip in results)
    n = cfg.sample_count - skipped
    point = {"n": n, "skipped": skipped}
    for name, (s1, s2) in totals.items():
        point[f"mean_{name}"], point[f"se_{name}"] = _mean_se(n, s1, s2)
    return point


def _ergodic_block(cfg: SamplerConfig, p: SystemParams, d: DesignPoint,
                   block_index: int, count: int):
    """Per-block (sum, sum of squares) of c1, c2 and the weighted sum at the
    fixed design ``d``; no draw is skipped."""
    g1, g2, g3 = sample_gains(cfg, p, block_index, count)
    c1, c2, ws = _rate_tuple(p.avg_snr, p.mu, p.eta, g1, g2, g3,
                             d.alpha, d.rho, p.w1, p.w2)
    return {"c1": _moments(c1), "c2": _moments(c2), "wsum": _moments(ws)}, 0


def estimate_ergodic(cfg: SamplerConfig, p: SystemParams, d: DesignPoint) -> dict[str, Any]:
    """Monte Carlo ergodic rates at a fixed design point.

    Returns the point ``n``, ``skipped`` (always 0), and ``mean_<name>`` and
    ``se_<name>`` for ``c1``, ``c2`` and ``wsum`` (the weighted sum).
    """
    return _run_blocks(_ergodic_block, cfg, (p, d))


def _optimized_block(cfg: SamplerConfig, p: SystemParams, grid: AlphaGridSpec,
                     baseline: DesignPoint | None, block_index: int, count: int):
    """Per-block (sum, sum of squares) of each averaged quantity, keyed as in
    ``estimate_optimized``'s point, and the skipped count."""
    g1, g2, g3 = sample_gains(cfg, p, block_index, count)
    keep = g1 != g2
    k1, k2, k3 = g1[keep], g2[keep], g3[keep]
    solved = _search(p, k1, k2, k3, grid.n)
    sums = {"wsum_opt": [0.0, 0.0], "alpha_star": [0.0, 0.0], "rho_star": [0.0, 0.0]}
    for x1, x2, x3, *row in zip(k1.tolist(), k2.tolist(), k3.tolist(),
                                *(v.tolist() for v in solved)):
        # one solve_1d call per kept draw: benchmark/tracing.py counts them
        out = solve_1d(p, ChannelRealization(g1=x1, g2=x2, g3=x3), grid, row=row)
        for pair, v in zip(sums.values(),
                           (out.rate_triple.weighted_sum, out.alpha_star, out.rho_star)):
            pair[0] += v
            pair[1] += v * v
    if baseline is not None:
        _, _, ws_fixed = _rate_tuple(p.avg_snr, p.mu, p.eta, g1, g2, g3,
                                     baseline.alpha, baseline.rho, p.w1, p.w2)
        sums["wsum_fixed"] = _moments(ws_fixed[keep])
    return sums, count - int(keep.sum())


def estimate_optimized(cfg: SamplerConfig, p: SystemParams,
                       grid: AlphaGridSpec | None = None,
                       baseline: DesignPoint | None = None,
                       workers: int = 1) -> dict[str, Any]:
    """Per-draw optimization over SWAP_ORDERED draws.

    Runs the 1D search on every draw and aggregates the optimized weighted
    sum rate and the optimal coefficients; when ``baseline`` is given the
    fixed-design weighted sum is accumulated on the same draws, and
    ``gain_percent`` is 100 (optimized - fixed) / fixed of the two means.
    Draws with g1 == g2 exactly are skipped, counted, and left out of every
    mean.
    """
    if not p.w2 > p.w1:
        raise DomainError("optimized sweeps require w2 > w1")
    if cfg.ordering is not Ordering.SWAP_ORDERED:
        raise DomainError("optimized sweeps require swap-ordered draws (g1 >= g2)")
    point = _run_blocks(_optimized_block, cfg, (p, grid or AlphaGridSpec(), baseline), workers)
    if baseline is not None:
        f_m = point["mean_wsum_fixed"]
        point["gain_percent"] = 100.0 * (point["mean_wsum_opt"] - f_m) / f_m
    return point
