import dataclasses
import functools
import math

import numpy as np
import pytest

from cnoma_eh import cli, montecarlo, optimizer
from cnoma_eh.analysis import ergodic_rate_u1
from cnoma_eh.errors import DomainError
from cnoma_eh.model import ChannelRealization, DesignPoint, SystemParams, rates
from cnoma_eh.montecarlo import (
    Ordering,
    SamplerConfig,
    estimate_ergodic,
    estimate_optimized,
    sample_gains,
)
from cnoma_eh.optimizer import AlphaGridSpec, solve_1d

BASE = DesignPoint(alpha=0.25, rho=0.3)


def params(snr_db, w2=2.0, mu=1.0):
    return SystemParams(avg_snr=10.0 ** (snr_db / 10.0), mu=mu, w1=1.0, w2=w2)


def ties_and_dead_relays(real):
    """``sample_gains`` with g1 == g2 on every 14th draw (skipped: 37 of a
    40-draw block are kept) and g3 = 0 on every 9th from the 6th (dead relay
    links among live ones in a grid chunk)."""
    def gains(cfg, p, block_index, count):
        g1, g2, g3 = real(cfg, p, block_index, count)
        g2, g3 = g2.copy(), g3.copy()
        g2[::14] = g1[::14]
        g3[5::9] = 0.0
        return g1, g2, g3
    return gains


@pytest.fixture
def recording_pools(monkeypatch):
    """A stand-in for the process pool that runs each job in this process,
    so no process is ever started.  Each pool made is recorded as a dict:
    ``size`` (max_workers), ``maps`` (the runs of each ``map`` call) and
    ``open`` (False once its ``with`` block has exited); a job's run of
    blocks is its last argument."""
    made = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            self.record = {"size": max_workers, "maps": [], "open": True}
            made.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.record["open"] = False
            return False

        def map(self, fn, *iterables, chunksize=1):
            jobs = list(zip(*iterables))
            self.record["maps"].append([args[-1] for args in jobs])  # each job's run
            return [fn(*args) for args in jobs]

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingExecutor)
    return made


class TestSampler:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, sample_count=0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, block_size=0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=-1)
        SamplerConfig(seed=2**64 - 1)

    def test_identical_stream_index_identical_draw(self):
        # a block's stream is keyed by (seed, block index) alone
        cfg = SamplerConfig(seed=7, ordering=Ordering.UNORDERED, sample_count=10)
        a = sample_gains(cfg, params(10), 4321, 16)
        b = sample_gains(cfg, params(10), 4321, 16)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_different_streams_differ(self):
        cfg = SamplerConfig(seed=7, sample_count=10)
        a = sample_gains(cfg, params(10), 0, 16)
        b = sample_gains(cfg, params(10), 1, 16)
        assert not any(np.array_equal(x, y) for x, y in zip(a, b))

    def test_block_prefix_does_not_depend_on_count(self):
        # a partial last block holds the first draws of the full block
        cfg = SamplerConfig(seed=99, ordering=Ordering.SWAP_ORDERED,
                            sample_count=10, block_size=64)
        p = params(10)
        full = sample_gains(cfg, p, block_index=3, count=64)
        part = sample_gains(cfg, p, block_index=3, count=17)
        for x, y in zip(full, part):
            np.testing.assert_array_equal(x[:17], y)

    def test_exponential_means(self):
        p = SystemParams(avg_snr=10.0, var1=1.0, var2=1.0, var3=2.5)
        cfg = SamplerConfig(seed=5, ordering=Ordering.UNORDERED, sample_count=400_000)
        total = np.zeros(3)
        n = 0
        from cnoma_eh.montecarlo import _blocks

        for b, cnt in _blocks(cfg):
            g1, g2, g3 = sample_gains(cfg, p, b, cnt)
            total += (g1.sum(), g2.sum(), g3.sum())
            n += cnt
        means = total / n
        assert means[0] == pytest.approx(1.0, abs=3 * 1.0 / math.sqrt(n))
        assert means[2] == pytest.approx(2.5, abs=3 * 2.5 / math.sqrt(n))

    def test_swap_ordered_max_statistics(self):
        # mean of max of two unit exponentials is 3/2
        p = params(10)
        cfg = SamplerConfig(seed=11, ordering=Ordering.SWAP_ORDERED, sample_count=300_000)
        g1, g2, _ = sample_gains(cfg, p, 0, cfg.sample_count)
        assert np.all(g1 >= g2)
        se = float(np.std(g1, ddof=1)) / math.sqrt(cfg.sample_count)
        assert float(np.mean(g1)) == pytest.approx(1.5, abs=3 * se)


class TestEstimateErgodic:
    def test_matches_closed_form_u1(self):
        cfg = SamplerConfig(seed=21, ordering=Ordering.UNORDERED, sample_count=200_000)
        for snr_db in (0, 10, 20):
            p = params(snr_db)
            pt = estimate_ergodic(cfg, p, BASE)
            assert abs(ergodic_rate_u1(p, BASE) - pt["mean_c1"]) <= 3 * pt["se_c1"]

    def test_rates_vanish_at_tiny_snr(self):
        cfg = SamplerConfig(seed=23, ordering=Ordering.UNORDERED, sample_count=50_000)
        p = SystemParams(avg_snr=1e-9, mu=1.0)
        pt = estimate_ergodic(cfg, p, BASE)
        assert pt["mean_c1"] < 1e-6 and pt["mean_c2"] < 1e-6

    def test_weak_user_rate_saturates(self):
        cfg = SamplerConfig(seed=25, ordering=Ordering.UNORDERED, sample_count=200_000)
        r30 = estimate_ergodic(cfg, params(30), BASE)
        r40 = estimate_ergodic(cfg, params(40), BASE)
        assert r40["mean_c2"] - r30["mean_c2"] < 0.05

    def test_weighted_sum_column(self):
        cfg = SamplerConfig(seed=27, ordering=Ordering.UNORDERED, sample_count=20_000)
        p = params(10, w2=3.0)
        pt = estimate_ergodic(cfg, p, BASE)
        assert pt["mean_wsum"] == pytest.approx(pt["mean_c1"] + 3.0 * pt["mean_c2"], rel=1e-12)

    def test_point_layout(self):
        # the same point format as estimate_optimized: every draw is kept
        cfg = SamplerConfig(seed=27, ordering=Ordering.UNORDERED,
                            sample_count=1000, block_size=300)
        pt = estimate_ergodic(cfg, params(10), BASE)
        assert list(pt) == ["n", "skipped", "mean_c1", "se_c1", "mean_c2", "se_c2",
                            "mean_wsum", "se_wsum"]
        assert pt["n"] == cfg.sample_count and pt["skipped"] == 0

    def test_standard_error_scales_inverse_sqrt(self):
        p = params(10)
        se = {}
        for n in (4000, 16000):
            cfg = SamplerConfig(seed=29, ordering=Ordering.UNORDERED, sample_count=n)
            se[n] = estimate_ergodic(cfg, p, BASE)["se_c1"]
        ratio = se[4000] / se[16000]
        assert ratio == pytest.approx(2.0, rel=0.2)


class TestEstimateOptimized:
    def test_requires_prioritized_weak_user(self):
        cfg = SamplerConfig(seed=31, sample_count=10)
        with pytest.raises(DomainError):
            estimate_optimized(cfg, params(10, w2=0.5))

    def test_rejects_unordered_draws_before_any_solve(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solve_1d ran on an unordered sampler")

        monkeypatch.setattr(montecarlo, "solve_1d", never)
        cfg = SamplerConfig(seed=31, ordering=Ordering.UNORDERED, sample_count=50)
        with pytest.raises(DomainError):
            estimate_optimized(cfg, params(10, w2=2.0), baseline=BASE)

    def test_fixed_baseline_averages_kept_draws(self, monkeypatch):
        real = montecarlo.sample_gains

        def with_ties(cfg, p, block_index, count):
            g1, g2, g3 = real(cfg, p, block_index, count)
            g2 = g2.copy()
            g2[::7] = g1[::7]
            return g1, g2, g3

        monkeypatch.setattr(montecarlo, "sample_gains", with_ties)
        cfg = SamplerConfig(seed=41, ordering=Ordering.SWAP_ORDERED,
                            sample_count=300, block_size=128)
        p = params(10, w2=2.0)
        pt = estimate_optimized(cfg, p, baseline=BASE)
        kept = []
        for block_index, count in ((0, 128), (1, 128), (2, 44)):
            g1, g2, g3 = with_ties(cfg, p, block_index, count)
            kept += [rates(p, ChannelRealization(g1=float(a), g2=float(b), g3=float(c)),
                           BASE).weighted_sum
                     for a, b, c in zip(g1, g2, g3) if a != b]
        assert pt["n"] == len(kept) and pt["skipped"] == 300 - len(kept) > 0
        assert pt["mean_wsum_fixed"] == pytest.approx(np.mean(kept), rel=1e-12)

    def test_fixed_baseline_equals_ergodic_estimate(self):
        # with no ties every draw is kept: the same blocks give the same sums
        cfg = SamplerConfig(seed=45, ordering=Ordering.SWAP_ORDERED,
                            sample_count=300, block_size=128)
        p = params(10, w2=2.0)
        pt = estimate_optimized(cfg, p, baseline=BASE)
        ergodic = estimate_ergodic(cfg, p, BASE)
        assert pt["skipped"] == 0 and ergodic["n"] == pt["n"] == 300
        assert pt["mean_wsum_fixed"] == ergodic["mean_wsum"]
        assert pt["se_wsum_fixed"] == ergodic["se_wsum"]

    @staticmethod
    @functools.cache
    def plain_solve_sums(n, snr_db, mu):
        """Kept, dead-relay and the (sum, sum of squares) totals of five
        40-draw blocks: each kept draw solved alone, summed in draw order per
        block, and the block sums added in block order."""
        gains = ties_and_dead_relays(montecarlo.sample_gains)
        cfg = SamplerConfig(seed=47, ordering=Ordering.SWAP_ORDERED,
                            sample_count=200, block_size=40)
        p = params(snr_db, w2=3.0, mu=mu)
        totals = {"wsum_opt": [0.0, 0.0], "alpha_star": [0.0, 0.0], "rho_star": [0.0, 0.0]}
        kept = dead = 0
        for block_index in range(5):
            sums = {name: [0.0, 0.0] for name in totals}
            for x1, x2, x3 in zip(*(g.tolist() for g in gains(cfg, p, block_index, 40))):
                if x1 == x2:
                    continue
                kept, dead = kept + 1, dead + (x3 == 0.0)
                out = solve_1d(p, ChannelRealization(x1, x2, x3), AlphaGridSpec(n=n))
                for name, v in zip(sums, (out.rate_triple.weighted_sum, out.alpha_star,
                                          out.rho_star)):
                    sums[name][0] += v
                    sums[name][1] += v * v
            for name, (s1, s2) in sums.items():
                totals[name][0] += s1
                totals[name][1] += s2
        return kept, dead, totals

    # n = 1000 and 200: 4 and 20 draws per grid chunk; an id names the
    # worker count only above 1
    @pytest.mark.parametrize("snr_db, mu, n, workers, runs", [
        pytest.param(snr_db, mu, n, workers, runs,
                     id=f"{snr_db}-{mu}-{n}" + (f"-w{workers}" if workers > 1 else ""))
        for snr_db, mu in ((0.0, 0.0), (0.0, 1.0), (40.0, 0.0), (40.0, 1.0))
        for n in (1000, 200)
        for workers, runs in ((1, [5]), (2, [3, 2]), (3, [2, 2, 1]))])
    def test_block_sums_equal_a_plain_solve_loop(self, monkeypatch, recording_pools,
                                                 snr_db, mu, n, workers, runs):
        # five blocks in runs that do not divide evenly; ties and dead-relay
        # rows fall in every block, so in every job of two or more blocks
        kept, dead, totals = self.plain_solve_sums(n, snr_db, mu)
        monkeypatch.setattr(montecarlo, "sample_gains",
                            ties_and_dead_relays(montecarlo.sample_gains))
        cfg = SamplerConfig(seed=47, ordering=Ordering.SWAP_ORDERED,
                            sample_count=200, block_size=40)
        assert [len(run) for run in montecarlo._runs(cfg, workers)] == runs
        # one search per run, then one per two blocks of a run (groups
        # [2, 2, 1], [2, 1] and [2], or one block per run at workers=3)
        for refine_rows in (montecarlo._REFINE_ROWS, 80):
            monkeypatch.setattr(montecarlo, "_REFINE_ROWS", refine_rows)
            recording_pools.clear()
            [pt] = montecarlo.estimate_optimized_sweep(
                cfg, [params(snr_db, w2=3.0, mu=mu)], AlphaGridSpec(n=n), workers=workers)
            # one process and one job per run, when there are two or more
            assert [(pool["size"], pool["maps"]) for pool in recording_pools] == (
                [(workers, [montecarlo._runs(cfg, workers)])] if workers > 1 else [])
            assert kept == pt["n"] == 185 and pt["skipped"] == 15 and dead > 0
            for name, (s1, s2) in totals.items():
                mean, se = montecarlo._mean_se(kept, s1, s2)
                assert pt[f"mean_{name}"] == mean and pt[f"se_{name}"] == se

    def test_one_solve_1d_call_per_kept_draw(self, monkeypatch):
        # benchmark/tracing.py wraps montecarlo.solve_1d, counts one solve per
        # call and reads the grid from the third positional argument
        calls = []
        real = montecarlo.solve_1d

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        gains = ties_and_dead_relays(montecarlo.sample_gains)
        monkeypatch.setattr(montecarlo, "sample_gains", gains)
        monkeypatch.setattr(montecarlo, "solve_1d", counting)
        cfg = SamplerConfig(seed=49, ordering=Ordering.SWAP_ORDERED,
                            sample_count=100, block_size=40)
        p = params(10, w2=2.0)
        grid = AlphaGridSpec(n=200)
        pt = estimate_optimized(cfg, p, grid)
        drawn = []
        for block_index, count in ((0, 40), (1, 40), (2, 20)):
            drawn += [x for x in zip(*(g.tolist() for g in gains(cfg, p, block_index, count)))
                      if x[0] != x[1]]
        assert len(calls) == pt["n"] == len(drawn) and pt["skipped"] > 0
        assert [(ch.g1, ch.g2, ch.g3) for (_, ch, _), _ in calls] == drawn
        assert all(args[2] is grid for args, _ in calls)
        # each call gets its draw's row of the block's search and of its
        # batched rates, as Python scalars, and returns what the draw gives
        # alone, where solve_1d calls rates on floats
        for (_, ch, _), kwargs in calls:
            alone = real(p, ch, grid)
            alpha, rho, interior, lower, evaluations, c1, c2, wsum = kwargs["row"]
            assert [type(v) for v in kwargs["row"]] == [float, float, bool, bool, int,
                                                        float, float, float]
            assert (alpha, rho, evaluations) == (alone.alpha_star, alone.rho_star,
                                                 alone.evaluations)
            assert optimizer._branch(interior, lower) is alone.branch
            r = alone.rate_triple
            assert [x.hex() for x in (c1, c2, wsum)] == [
                x.hex() for x in (r.c1, r.c2, r.weighted_sum)]
            assert real(p, ch, grid, row=kwargs["row"]) == alone

    def test_point_statistics(self):
        cfg = SamplerConfig(seed=33, ordering=Ordering.SWAP_ORDERED, sample_count=3000)
        pt = estimate_optimized(cfg, params(10, w2=2.0), baseline=BASE)
        assert pt["skipped"] == 0
        assert pt["n"] == 3000
        assert 0.0 < pt["mean_alpha_star"] < 1.0
        assert 0.0 <= pt["mean_rho_star"] < 1.0
        assert pt["mean_wsum_opt"] > pt["mean_wsum_fixed"]
        assert pt["gain_percent"] == (
            100.0 * (pt["mean_wsum_opt"] - pt["mean_wsum_fixed"]) / pt["mean_wsum_fixed"])
        assert pt["se_wsum_opt"] > 0.0

    def test_per_draw_dominance(self):
        # the optimized weighted sum beats any fixed design on every single
        # draw, up to the search tolerance
        cfg = SamplerConfig(seed=35, ordering=Ordering.SWAP_ORDERED, sample_count=200)
        p = params(10, w2=2.0)
        g1, g2, g3 = sample_gains(cfg, p, 0, cfg.sample_count)
        for i in range(cfg.sample_count):
            ch = ChannelRealization(g1=float(g1[i]), g2=float(g2[i]), g3=float(g3[i]))
            ws_opt = solve_1d(p, ch).rate_triple.weighted_sum
            ws_fixed = rates(p, ch, BASE).weighted_sum
            assert ws_opt >= ws_fixed - 1e-4

    def test_worker_count_does_not_change_results(self, recording_pools):
        cfg = SamplerConfig(seed=37, ordering=Ordering.SWAP_ORDERED,
                            sample_count=2000, block_size=256)
        ps = [params(10, w2=5.0), params(20, w2=2.0)]
        a = montecarlo.estimate_optimized_sweep(cfg, ps, baseline=BASE, workers=1)
        b = montecarlo.estimate_optimized_sweep(cfg, ps, baseline=BASE, workers=2)
        assert [pool["size"] for pool in recording_pools] == [2]
        assert a == b

    def test_pool_never_outnumbers_blocks(self, recording_pools, tmp_path):
        p = params(10, w2=2.0)
        # three blocks: one process per block; one block: the parent runs it
        for sample_count, workers, sizes in ((150, 10**6, [3]), (40, 2, [])):
            recording_pools.clear()
            cfg = SamplerConfig(seed=43, ordering=Ordering.SWAP_ORDERED,
                                sample_count=sample_count, block_size=64)
            [point] = montecarlo.estimate_optimized_sweep(cfg, [p], baseline=BASE,
                                                          workers=workers)
            assert [pool["size"] for pool in recording_pools] == sizes
            assert not any(pool["open"] for pool in recording_pools)
            assert point == estimate_optimized(cfg, p, baseline=BASE)

        def fig3(samples, workers):
            cfg = cli.ExperimentConfig(
                kind="fig3", seed=43, samples=samples, block_size=64, grid_n=200,
                workers=workers, out=str(tmp_path / f"fig3_{samples}_{workers}.csv"))
            path = cli.run_figure(cfg)
            return [line for line in path.read_text().splitlines()
                    if not line.startswith(("# timestamp=", "# config.out=",
                                            "# config.workers="))]

        # a sweep of six points of three blocks: one pool of min(workers, 3)
        # processes serves them all, one map in all (each job runs every
        # point on its blocks), and is shut down before run_figure returns
        for workers, size, runs in ((2, 2, [2, 1]), (10**6, 3, [1, 1, 1])):
            recording_pools.clear()
            lines = fig3(150, workers)
            assert [pool["size"] for pool in recording_pools] == [size]
            [pool] = recording_pools
            assert not pool["open"]
            assert [[len(run) for run in jobs] for jobs in pool["maps"]] == [runs]
            assert lines == fig3(150, 1)
        # a one-block sweep opens none
        recording_pools.clear()
        fig3(40, 2)
        assert recording_pools == []

    def test_a_point_alone_starts_no_process(self, recording_pools):
        # only the sweep makes a pool: a lone call at any block count keeps
        # every block in the parent
        p = params(10, w2=2.0)
        for sample_count in (40, 150, 640):
            cfg = SamplerConfig(seed=43, ordering=Ordering.SWAP_ORDERED,
                                sample_count=sample_count, block_size=64)
            assert estimate_optimized(cfg, p, baseline=BASE)["n"] == sample_count
        assert recording_pools == []

    def test_point_memory_does_not_grow_with_its_blocks(self):
        # a job searches ceil(_REFINE_ROWS / block_size) blocks at a time, so
        # eight 1024-draw blocks peak about where one does
        import tracemalloc

        p = params(20, w2=2.0)

        def peak(sample_count):
            cfg = SamplerConfig(seed=51, ordering=Ordering.SWAP_ORDERED,
                                sample_count=sample_count, block_size=1024)
            tracemalloc.start()
            try:
                estimate_optimized(cfg, p, baseline=BASE)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1024)  # the first call's one-off allocations (caches, imports) aside
        one, eight = peak(1024), peak(8 * 1024)
        assert eight <= 1.2 * one, (one, eight)

    # 18 points over shared draws: mu 0 and 1, 0, 20 and 40 dB, w2/w1 of
    # 1.5, 3 and 20
    SWEEP = [params(snr_db, w2=w2, mu=mu)
             for mu in (0.0, 1.0) for snr_db in (0.0, 20.0, 40.0) for w2 in (1.5, 3.0, 20.0)]

    @pytest.mark.parametrize("workers, runs", [(1, [5]), (2, [3, 2]), (3, [2, 2, 1])])
    def test_sweep_points_equal_points_alone(self, monkeypatch, recording_pools, workers, runs):
        # five 40-draw blocks, with skipped ties and dead relay links in each
        monkeypatch.setattr(montecarlo, "sample_gains",
                            ties_and_dead_relays(montecarlo.sample_gains))
        cfg = SamplerConfig(seed=53, ordering=Ordering.SWAP_ORDERED,
                            sample_count=200, block_size=40)
        grid = AlphaGridSpec(n=200)
        alone = [estimate_optimized(cfg, p, grid, BASE) for p in self.SWEEP]
        assert {pt["skipped"] for pt in alone} == {15}
        assert [len(run) for run in montecarlo._runs(cfg, workers)] == runs
        # 1024 rows: 5 points per search on a run's 185 (or fewer) kept
        # rows; 80: groups of two blocks, one or two points per search, and
        # refine slices across points
        for refine_rows in (montecarlo._REFINE_ROWS, 80):
            monkeypatch.setattr(montecarlo, "_REFINE_ROWS", refine_rows)
            monkeypatch.setattr(optimizer, "_REFINE_ROWS", refine_rows)
            recording_pools.clear()
            sweep = montecarlo.estimate_optimized_sweep(cfg, self.SWEEP, grid, BASE, workers)
            assert sweep == alone, refine_rows
            # one pool and one map for the whole sweep
            assert [(pool["size"], len(pool["maps"])) for pool in recording_pools] == (
                [(workers, 1)] if workers > 1 else [])

    def test_sweep_memory_does_not_grow_with_its_points(self):
        # one 256-draw block, as in fig2_opt: a job stacks 4 points per
        # search and holds one stack's rows, and the search's temporaries
        # are of one grid chunk or refine slice, so 18 points peak about
        # where one does
        import tracemalloc

        cfg = SamplerConfig(seed=55, ordering=Ordering.SWAP_ORDERED, sample_count=256)
        sweep = [params(snr_db, w2=w2) for w2 in (2.0, 5.0) for snr_db in range(0, 41, 5)]

        def peak(points):
            tracemalloc.start()
            try:
                montecarlo.estimate_optimized_sweep(cfg, points, baseline=BASE)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(sweep)  # the first call's one-off allocations (caches, imports) aside
        one = max(peak([p]) for p in sweep)
        eighteen = peak(sweep)
        assert eighteen <= 1.1 * one, (one, eighteen)

    def test_sweep_points_share_their_draws(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr(montecarlo, "sample_gains", never)
        cfg = SamplerConfig(seed=57, ordering=Ordering.SWAP_ORDERED, sample_count=50)
        p = params(10, w2=2.0)
        for name in ("var1", "var2", "var3"):
            other = dataclasses.replace(params(20, w2=3.0), **{name: 2.0})
            for workers in (1, 2):
                with pytest.raises(DomainError, match="share their draws"):
                    montecarlo.estimate_optimized_sweep(cfg, [p, other], workers=workers)
        # equal variances at every point are the sweep's draws
        same = dataclasses.replace(params(20, w2=3.0), var3=p.var3)
        monkeypatch.undo()
        assert len(montecarlo.estimate_optimized_sweep(cfg, [p, same])) == 2

    def test_coarser_grid_is_close(self):
        cfg = SamplerConfig(seed=39, ordering=Ordering.SWAP_ORDERED, sample_count=500)
        p = params(10, w2=2.0)
        fine = estimate_optimized(cfg, p, grid=AlphaGridSpec(n=1000))
        coarse = estimate_optimized(cfg, p, grid=AlphaGridSpec(n=250))
        assert coarse["mean_wsum_opt"] == pytest.approx(fine["mean_wsum_opt"], rel=1e-3)
