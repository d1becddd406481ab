"""Benchmark of the cnoma-eh figure runners.

Run from the repository root:

    python3 benchmark/run.py --workload fig2_opt --seed 1 --seconds 36 --trace 0

``--trace 0`` repeats untraced passes of the workload (each pass is one call
of ``cli.run_fig1/2/3`` on the workload's config) until ``--seconds`` have
gone, and reports medians over the passes: the end-to-end metrics.  Every
time is host-adjusted: scaled by how long a fixed reference kernel took on
every core just before and just after it (see ``host_factor``).
``--trace 1`` makes one untraced pass and the traced passes that give the
per-layer metrics; see README.md.  Every output row is checked; the last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full report, with provenance, goes to
``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer
from workloads import ROOT, WORKLOADS, Workload, check_rows, load_references, read_rows

OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
WARMUP_PASSES = 1
SETUP_REPEATS = 7
# Seconds the reference kernel is taken to last on a host at nominal speed.
# Host-adjusted times are in seconds at that speed.
REF_NOMINAL_S = 0.09

END_TO_END = {
    "setup_s": "s",
    "wall_adj_s": "s",
    "cpu_adj_s": "s",
    "draws_per_adj_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "optimizer.solve_1d.calls": "count",
    "optimizer.solve_1d.self_s": "s",
    "optimizer.solve_1d.us_per_call": "us",
    "optimizer.solve_1d.refine_us_per_call": "us",
    "optimizer.solve_1d.rest_us_per_call": "us",
    "optimizer.evaluations_per_draw": "count",
    "optimizer.optimal_rho_for_alpha.calls": "count",
    "optimizer.optimal_rho_for_alpha.self_s": "s",
    "optimizer.branch.interior": "count",
    "optimizer.branch.lower": "count",
    "optimizer.branch.boundary": "count",
    "optimizer.alpha_edge_hits": "count",
    "model.rates.calls": "count",
    "montecarlo.sample_gains.calls": "count",
    "montecarlo.sample_gains.draws": "count",
    "montecarlo.sample_gains.self_s": "s",
    "montecarlo.sample_gains.ms_per_block": "ms",
    "montecarlo.estimate_ergodic.calls": "count",
    "montecarlo.estimate_ergodic.self_s": "s",
    "montecarlo.estimate_ergodic.ns_per_draw": "ns",
    "montecarlo.estimate_optimized.calls": "count",
    "montecarlo.estimate_optimized.self_s": "s",
    "montecarlo.estimate_optimized.us_per_draw": "us",
    "montecarlo.skipped_draws": "count",
    "montecarlo.pool.parent_s": "s",
    "montecarlo.pool.utilization": "ratio",
    "analysis.ergodic_weighted_sum.calls": "count",
    "analysis.ergodic_rate_u2.calls": "count",
    "analysis.ergodic_rate_u2.self_s": "s",
    "analysis.ergodic_rate_u2.s_per_call": "s",
    "analysis.prob_w_exceeds.calls": "count",
    "analysis.prob_w_exceeds.self_s": "s",
    "analysis.quadrature_error_max": "bit/s/Hz",
    "specfun.bessel_k0.calls": "count",
    "specfun.bessel_k0.self_s": "s",
    "specfun.bessel_k0.us_per_call": "us",
    "specfun.bessel_k1.calls": "count",
    "specfun.gamma_upper_0_scaled.calls": "count",
    "specfun.integrate.calls": "count",
    "specfun.integrate.integrand_evals": "count",
    "specfun.integrate.evals_per_call": "count",
    "specfun.integrate.self_s": "s",
    "specfun.tolerance_not_met": "count",
    "cli.runner.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.base_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclasses.dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rows: list[dict] | None
    output_bytes: int


class Ops:
    """Output rows checked, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, expected_rows: int, problems: list[str]):
        self.attempted += expected_rows
        self.problems += problems


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(wl: Workload, cfg, tracer=None) -> Pass:
    """One call of the workload's runner; pool workers are joined (so their
    CPU time is counted) before the runner returns."""
    runner = wl.runner()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        if tracer is None:
            path = runner(cfg)
        else:
            with tracer.span("cli.runner"):
                path = runner(cfg)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        return Pass(wall, cpu, read_rows(path), Path(path).stat().st_size)
    except Exception:  # a raising pass or unreadable output counts as failed rows
        traceback.print_exc()
        return Pass(time.perf_counter() - t0, _cpu_s() - cpu0, None, 0)


def _spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


_REF_X = np.linspace(0.0, 1.0, 20_000)


def _reference_kernel() -> float:
    """Fixed interpreter and numpy work of the benchmark's own, never changed
    by the program: its time measures the host's speed at that moment."""
    s = 0.0
    for i in range(300):
        s += float(np.sum(np.exp(-_REF_X * i) * np.log1p(_REF_X)))
    return s


def _reference_times(cores: list[int]) -> list[float]:
    """Seconds the reference kernel takes pinned to each of ``cores`` in turn.
    Leaves the process pinned to the last of them."""
    times = []
    for core in cores:
        os.sched_setaffinity(0, {core})
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


def host_factor(ref_times: list[float]) -> float:
    """REF_NOMINAL_S over the harmonic mean of reference kernel times.

    The host is a shared VM whose speed drifts by 20-50% over minutes, alike
    for the reference and the workload.  A time multiplied by the factor
    from the reference runs on every core just before and just after it is
    that time at nominal host speed: its host-adjusted time.  The harmonic
    mean is the cores' joint throughput, which a pool spread over them gets.
    """
    return REF_NOMINAL_S * statistics.fmean(1.0 / t for t in ref_times)


def _setup_s(wl: Workload, seed: int) -> float:
    """Fresh interpreter to ``cnoma_eh`` imported and the config built."""
    code = (f"import sys; sys.path.insert(0, {str(workloads.BENCH_DIR)!r}); import workloads; "
            f"workloads.WORKLOADS[{wl.name!r}].config({seed}, 'unused')")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """Largest max RSS of this process and of any child it has waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def timed_run(wl: Workload, cfg, seconds: float, refs: dict, ops: Ops) -> tuple[dict, dict]:
    """A warm-up pass, then untraced passes for ``seconds`` (at least
    MIN_PASSES in all), then the set-up measurements; host-adjusted medians
    over the timed passes and the set-ups.

    Passes of a single-process workload, and the set-up interpreters, take
    turns on the usable cores: on a shared VM each core's speed drifts on
    its own, and a process left where the scheduler put it measures one
    core's drift for the whole run.  Pool workloads keep every core for
    their workers.  The reference kernel runs on every core between any two
    measurements.
    """
    passes, setups, ref_times = [], [], []
    cores = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    _reference_kernel()  # first numpy calls, out of every measurement
    try:
        ref_times.append(_reference_times(cores))
        while True:
            os.sched_setaffinity(0, {cores[len(passes) % len(cores)]} if cfg.workers == 1
                                 else set(cores))
            ps = run_pass(wl, cfg)
            ref_times.append(_reference_times(cores))
            ops.add(len(wl.axis(cfg)), check_rows(wl, cfg, ps.rows, refs))
            passes.append(ps)
            if ps.rows is None:
                break
            median_wall = statistics.median(p.wall_s for p in passes)
            if len(passes) >= MIN_PASSES and time.perf_counter() + median_wall > deadline:
                break
        peak = _peak_rss_mb()  # before the set-up interpreters, which are not the workload
        for i in range(SETUP_REPEATS):
            os.sched_setaffinity(0, {cores[i % len(cores)]})
            setups.append(_setup_s(wl, cfg.seed))
            ref_times.append(_reference_times(cores))
    finally:
        os.sched_setaffinity(0, set(cores))
    factors = [host_factor(a + b) for a, b in zip(ref_times, ref_times[1:])]
    pass_factors, setup_factors = factors[:len(passes)], factors[len(passes):]
    timed = list(zip(passes, pass_factors))
    timed = timed[WARMUP_PASSES:] or timed
    walls = [p.wall_s for p, _ in timed]
    adj_walls = [p.wall_s * f for p, f in timed]
    draws = wl.draws(cfg)
    metrics = {
        "setup_s": statistics.median(t * f for t, f in zip(setups, setup_factors)),
        "wall_adj_s": statistics.median(adj_walls),
        "cpu_adj_s": statistics.median(p.cpu_s * f for p, f in timed),
        "draws_per_adj_s": statistics.median(draws / w for w in adj_walls),
        "peak_rss_mb": peak,
    }
    detail = {
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "host_factor": f}
                   for p, f in zip(passes, pass_factors)],
        "timed_passes": len(timed),
        "setup_runs": [{"s": t, "host_factor": f} for t, f in zip(setups, setup_factors)],
        "reference_kernel_s": ref_times,
        "draws_per_pass": draws,
        "unadjusted": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p.cpu_s for p, _ in timed),
            "draws_per_s": statistics.median(draws / w for w in walls),
        },
        "noise": {
            "host_noise_wall_iqr_over_median": _spread(walls),
            "host_noise_adj_wall_iqr_over_median": _spread(adj_walls),
            "host_factor_range": [min(factors), max(factors)],
        },
    }
    return metrics, detail


def traced_run(wl: Workload, cfg, refs: dict, ops: Ops, out_dir: Path) -> tuple[dict, dict]:
    """One untraced pass, one traced pass at workers=1 (every count and self
    time), and for a pooled workload one traced pass at its own worker count
    (parent-side pool time; spans in forked workers are lost)."""
    base = run_pass(wl, cfg)
    ops.add(len(wl.axis(cfg)), check_rows(wl, cfg, base.rows, refs))
    serial_cfg = dataclasses.replace(cfg, workers=1)
    tracer = Tracer()
    with tracer.patched():
        serial = run_pass(wl, serial_cfg, tracer)
    traced = [(serial_cfg, serial)]
    pool_tracer, pool_pass = tracer, serial
    if cfg.workers > 1:
        pool_tracer = Tracer()
        with pool_tracer.patched():
            pool_pass = run_pass(wl, cfg, pool_tracer)
        traced.append((cfg, pool_pass))
    for c, ps in traced:  # tracing must not change a single output bit
        problems = check_rows(wl, c, ps.rows, refs)
        if not problems and ps.rows != base.rows:
            problems = ["rows differ from the untraced pass"]
        ops.add(len(wl.axis(c)), problems)

    L = tracer.layers()
    pool_layers = pool_tracer.layers()
    n = tracer.counts

    def layer(name, key):
        return L.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    solve_calls = layer("optimizer.solve_1d", "calls")
    solve_us = per(layer("optimizer.solve_1d", "total_s"), solve_calls, 1e6)
    refine_us = per(layer("optimizer.optimal_rho_for_alpha", "total_s"), solve_calls, 1e6)
    int_calls = layer("specfun.integrate", "calls")
    m = {
        "optimizer.solve_1d.calls": solve_calls,
        "optimizer.solve_1d.self_s": layer("optimizer.solve_1d", "self_s"),
        "optimizer.solve_1d.us_per_call": solve_us,
        "optimizer.solve_1d.refine_us_per_call": refine_us,
        "optimizer.solve_1d.rest_us_per_call": solve_us - refine_us,
        "optimizer.evaluations_per_draw": per(n["optimizer.evaluations"], solve_calls),
        "optimizer.optimal_rho_for_alpha.calls": layer("optimizer.optimal_rho_for_alpha", "calls"),
        "optimizer.optimal_rho_for_alpha.self_s": layer("optimizer.optimal_rho_for_alpha", "self_s"),
        "optimizer.branch.interior": n["optimizer.branch.interior"],
        "optimizer.branch.lower": n["optimizer.branch.lower"],
        "optimizer.branch.boundary": n["optimizer.branch.boundary"],
        "optimizer.alpha_edge_hits": n["optimizer.alpha_edge_hits"],
        "model.rates.calls": layer("model.rates", "calls"),
        "montecarlo.sample_gains.calls": layer("montecarlo.sample_gains", "calls"),
        "montecarlo.sample_gains.draws": n["montecarlo.sample_gains.draws"],
        "montecarlo.sample_gains.self_s": layer("montecarlo.sample_gains", "self_s"),
        "montecarlo.sample_gains.ms_per_block": per(
            layer("montecarlo.sample_gains", "total_s"), layer("montecarlo.sample_gains", "calls"), 1e3),
        "montecarlo.estimate_ergodic.calls": layer("montecarlo.estimate_ergodic", "calls"),
        "montecarlo.estimate_ergodic.self_s": layer("montecarlo.estimate_ergodic", "self_s"),
        "montecarlo.estimate_ergodic.ns_per_draw": per(
            layer("montecarlo.estimate_ergodic", "total_s"), n["montecarlo.estimate_ergodic.draws"], 1e9),
        "montecarlo.estimate_optimized.calls": layer("montecarlo.estimate_optimized", "calls"),
        "montecarlo.estimate_optimized.self_s": layer("montecarlo.estimate_optimized", "self_s"),
        "montecarlo.estimate_optimized.us_per_draw": per(
            layer("montecarlo.estimate_optimized", "total_s"), n["montecarlo.estimate_optimized.draws"], 1e6),
        "montecarlo.skipped_draws": n["montecarlo.skipped_draws"],
        "montecarlo.pool.parent_s": pool_layers.get("montecarlo.estimate_optimized", {}).get("total_s", 0.0),
        "montecarlo.pool.utilization": per(base.cpu_s, base.wall_s * cfg.workers),
        "analysis.ergodic_weighted_sum.calls": layer("analysis.ergodic_weighted_sum", "calls"),
        "analysis.ergodic_rate_u2.calls": layer("analysis.ergodic_rate_u2", "calls"),
        "analysis.ergodic_rate_u2.self_s": layer("analysis.ergodic_rate_u2", "self_s"),
        "analysis.ergodic_rate_u2.s_per_call": per(
            layer("analysis.ergodic_rate_u2", "total_s"), layer("analysis.ergodic_rate_u2", "calls")),
        "analysis.prob_w_exceeds.calls": layer("analysis.prob_w_exceeds", "calls"),
        "analysis.prob_w_exceeds.self_s": layer("analysis.prob_w_exceeds", "self_s"),
        "analysis.quadrature_error_max": tracer.quadrature_error_max,
        "specfun.bessel_k0.calls": layer("specfun.bessel_k0", "calls"),
        "specfun.bessel_k0.self_s": layer("specfun.bessel_k0", "self_s"),
        "specfun.bessel_k0.us_per_call": per(
            layer("specfun.bessel_k0", "total_s"), layer("specfun.bessel_k0", "calls"), 1e6),
        "specfun.bessel_k1.calls": layer("specfun.bessel_k1", "calls"),
        "specfun.gamma_upper_0_scaled.calls": layer("specfun.gamma_upper_0_scaled", "calls"),
        "specfun.integrate.calls": int_calls,
        "specfun.integrate.integrand_evals": n["specfun.integrand_evals"],
        "specfun.integrate.evals_per_call": per(n["specfun.integrand_evals"], int_calls),
        "specfun.integrate.self_s": layer("specfun.integrate", "self_s"),
        "specfun.tolerance_not_met": n["specfun.tolerance_not_met"],
        "cli.runner.self_s": layer("cli.runner", "self_s"),
        "cli.output_bytes": base.output_bytes,
        "trace.base_wall_s": base.wall_s,
        "trace.overhead_ratio": per(pool_pass.wall_s, base.wall_s),
    }
    spans_path = out_dir / f"{wl.name}.spans.npz"
    tracer.save(spans_path)
    detail = {
        "note": ("per-layer counts and self times come from the traced workers=1 pass; "
                 "time values include the tracing wrappers' cost, counts are exact"
                 + ("; pool time (montecarlo.pool.parent_s) is parent-side, from the traced "
                    f"workers={cfg.workers} pass, because spans in forked workers are lost"
                    if cfg.workers > 1 else "")),
        "untraced_pass": {"wall_s": base.wall_s, "cpu_s": base.cpu_s},
        "traced_passes": [{"workers": c.workers, "wall_s": ps.wall_s} for c, ps in traced],
        "layers": L,
        "spans_file": str(spans_path),
        "cost_table": cost_table(m),
    }
    return m, detail


def cost_table(m: dict) -> list[dict]:
    """Per-call costs of the layers, from the traced spans."""
    rows = [
        ("one sampling block", m["montecarlo.sample_gains.ms_per_block"], "ms", True),
        ("one solve_1d", m["optimizer.solve_1d.us_per_call"], "us", True),
        ("  of which refine stage (optimal_rho_for_alpha)",
         m["optimizer.solve_1d.refine_us_per_call"], "us", True),
        ("  of which the rest (grid stage, final rates)",
         m["optimizer.solve_1d.rest_us_per_call"], "us", True),
        ("estimate_optimized per draw", m["montecarlo.estimate_optimized.us_per_draw"], "us", True),
        ("one ergodic_rate_u2", m["analysis.ergodic_rate_u2.s_per_call"], "s", True),
        ("one bessel_k0", m["specfun.bessel_k0.us_per_call"], "us", True),
        ("integrand_evals per integrate", m["specfun.integrate.evals_per_call"], "count", False),
    ]
    return [{"layer": name, "value": value, "unit": unit, "traced_time": traced}
            for name, value, unit, traced in rows]


def _git_rev() -> str:
    """Commit of the checkout, read from .git without running git (which
    would look outside the checkout when there is no .git here)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(wl: Workload, cfg) -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cnoma_eh": workloads.cnoma_eh.__version__,
        "git_rev": _git_rev(),
        "seed": cfg.seed,
        "scale": {k: getattr(cfg, k) for k in wl.scale},
        "draws_per_pass": wl.draws(cfg),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path = OUT_DIR) -> dict:
    """Run one workload, writing its output files under ``out_dir``, and
    return the full report; its ``result`` entry is the line the benchmark
    prints last."""
    out_dir.mkdir(exist_ok=True)
    refs = load_references()
    cfg = wl.config(seed, out_dir / f"{wl.name}.csv")
    ops = Ops()
    if trace:
        metrics, detail = traced_run(wl, cfg, refs, ops, out_dir)
        units = PER_LAYER
    else:
        metrics, detail = timed_run(wl, cfg, seconds, refs, ops)
        units = END_TO_END
    failed = len(ops.problems)
    return {
        "workload": wl.name,
        "why": wl.why,
        "trace": trace,
        "provenance": {**provenance(wl, cfg), **detail.pop("noise", {})},
        "ops": {"attempted": ops.attempted, "failed": failed,
                "ops_failed_ratio": failed / ops.attempted, "problems": ops.problems},
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": ops.attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, default=float) + "\n")
    ops = report["ops"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: ops_failed_ratio="
          f"{ops['failed']}/{ops['attempted']}; report {path.relative_to(ROOT)}")
    for problem in ops["problems"][:10]:
        print(f"  failed row {problem}")
    if args.trace:
        print(f"  {report['detail']['note']}")
        for row in report["detail"]["cost_table"]:
            tag = " (traced)" if row["traced_time"] else ""
            print(f"  {row['layer']}: {row['value']:.6g} {row['unit']}{tag}")
    else:
        raw = ", ".join(f"{k}={v:.6g}" for k, v in report["detail"]["unadjusted"].items())
        print(f"  unadjusted medians: {raw}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
