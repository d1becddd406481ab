"""Benchmark workloads: the figure configs built from a seed, and the per-row
correctness checks on what the figure runners write.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports ``cnoma_eh`` from there.  A copy of the package found anywhere else is
refused, so the benchmark always measures the source tree it sits next to,
and fails (rather than measuring something else) when that tree is missing.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

sys.path.insert(0, str(SRC))

import cnoma_eh  # noqa: E402
from cnoma_eh import cli  # noqa: E402

if Path(cnoma_eh.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"cnoma_eh was imported from {cnoma_eh.__file__}, not from {SRC}")

# The CLI's default sweep; written out so a change of CLI defaults cannot
# silently change the benchmark's scale.
SNR_SWEEP_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
# fig1 takes the low, middle and high end of that sweep: one analytic point
# costs 0.5-1.9 s, and the full sweep would leave only 3 passes in a run on a
# host whose speed drifts by 20-30% over tens of seconds.
FIG1_SNR_DB = (0.0, 20.0, 40.0)

# Same tolerance as validation.check_u1_analytic_vs_mc: |closed form - MC| / SE.
U1_MC_Z_MAX = 3.0


@dataclass(frozen=True)
class Workload:
    """One figure runner at a fixed scale.  ``scale`` holds every
    ``ExperimentConfig`` field the benchmark sets apart from the seed and the
    output path."""

    name: str
    kind: str
    why: str
    scale: dict

    def config(self, seed: int, out: str | Path) -> cli.ExperimentConfig:
        return cli.ExperimentConfig(kind=self.kind, seed=seed, out=str(out), **self.scale)

    def runner(self):
        # looked up at call time so a replaced cli.run_figN is the one called
        return getattr(cli, f"run_{self.kind}")

    def axis(self, cfg: cli.ExperimentConfig) -> list[tuple]:
        """The row keys the runner must write, in order."""
        if self.kind == "fig1":
            return [(s,) for s in cfg.snr_db_values]
        if self.kind == "fig2":
            return [(s, w) for w in cfg.wtilde2_values for s in cfg.snr_db_values]
        return [(w,) for w in cfg.wtilde2_values]

    def draws(self, cfg: cli.ExperimentConfig) -> int:
        """Monte Carlo draws in one pass: ergodic-estimator draws for fig1,
        optimised draws for fig2 and fig3."""
        return len(self.axis(cfg)) * cfg.samples


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1_ergodic",
            kind="fig1",
            why="analysis and specfun do the work (ergodic_rate_u2 quadrature, K0 calls); "
                "the optimizer is never called",
            scale=dict(snr_db_values=FIG1_SNR_DB, samples=1_000_000, ordering="unordered",
                       block_size=8192, alpha=0.25, rho=0.3, w1=1.0, w2=2.0, workers=1),
        ),
        Workload(
            name="fig2_opt",
            kind="fig2",
            why="single-process per-draw solve_1d loop over the SNR sweep and two weights; "
                "bypasses analysis and specfun",
            scale=dict(snr_db_values=SNR_SWEEP_DB, wtilde2_values=(2.0, 5.0), samples=256,
                       ordering="swap", block_size=8192, alpha=0.25, rho=0.3, w1=1.0,
                       grid_n=1000, workers=1),
        ),
        Workload(
            name="fig3_pool",
            kind="fig3",
            why="solver over six weights fanned out to a 2-worker process pool, "
                "16 blocks per point; shows pool start-up and imbalance",
            scale=dict(snr_db=10.0, wtilde2_values=(1.5, 2.0, 3.0, 5.0, 7.0, 10.0),
                       samples=1024, ordering="swap", block_size=64, w1=1.0,
                       grid_n=1000, workers=2),
        ),
    )
}


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


def read_rows(path: str | Path) -> list[dict]:
    """Data rows of a runner's CSV output as column -> float."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, map(float, ln.split(",")))) for ln in lines[1:]]


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol


def _fig1_problems(row, refs):
    ref = refs.get(repr(row["snr_db"]))
    if ref is None:
        yield "no frozen analytic reference at this SNR"
    elif not _close(row["c2_analytic"], ref["c2_analytic"], ref["quadrature_error"]):
        yield (f"c2_analytic {row['c2_analytic']!r} off reference {ref['c2_analytic']!r} "
               f"by more than its quadrature error {ref['quadrature_error']:.3g}")
    if not abs(row["c1_mc"] - row["c1_analytic"]) <= U1_MC_Z_MAX * row["c1_se"]:
        yield f"c1_mc more than {U1_MC_Z_MAX} SE from the closed form"


def _fig2_problems(row, refs):
    if not row["csum_optimized"] >= row["csum_fixed"]:
        yield "optimised mean below the fixed-design mean"
    ref = refs.get(f"{row['snr_db']!r},{row['wtilde2']!r}")
    if ref is not None and not _close(row["csum_optimized"], *ref):
        yield f"csum_optimized more than 1 SE from the frozen reference {ref[0]!r}"


def _fig3_problems(row, refs):
    if not 0.0 < row["mean_alpha_star"] < 1.0:
        yield "mean alpha* outside (0, 1)"
    if not 0.0 <= row["mean_rho_star"] < 1.0:
        yield "mean rho* outside [0, 1)"
    ref = refs.get(repr(row["wtilde2"]))
    if ref is not None:
        if not _close(row["mean_alpha_star"], ref[0], ref[1]):
            yield f"mean alpha* more than 1 SE from the frozen reference {ref[0]!r}"
        if not _close(row["mean_rho_star"], ref[2], ref[3]):
            yield f"mean rho* more than 1 SE from the frozen reference {ref[2]!r}"


def seed_references(wl: Workload, seed: int, refs: dict) -> dict:
    """Frozen per-row references for this seed, or {} when none were frozen
    for it or they were frozen at another scale."""
    entry = refs.get(wl.name, {})
    if entry.get("scale") != _jsonable(wl.scale):
        return {}
    return entry.get("seeds", {}).get(str(seed), {})


_AXIS_COLUMNS = {"fig1": ("snr_db",), "fig2": ("snr_db", "wtilde2"), "fig3": ("wtilde2",)}


def check_rows(wl: Workload, cfg: cli.ExperimentConfig, rows: list[dict] | None,
               refs: dict) -> list[str]:
    """One problem string per failed row (a missing row, or rows=None for a
    pass that raised, counts every expected row as failed)."""
    axis = wl.axis(cfg)
    if rows is None:
        return [f"{key}: pass raised or wrote unreadable output" for key in axis]
    if wl.kind == "fig1":
        row_problems, row_refs = _fig1_problems, refs[wl.name]["rows"]
    else:
        row_problems = _fig2_problems if wl.kind == "fig2" else _fig3_problems
        row_refs = seed_references(wl, cfg.seed, refs)
    failed = []
    keys = [tuple(row[c] for c in _AXIS_COLUMNS[wl.kind]) for row in rows]
    for key in axis:
        if key not in keys:
            failed.append(f"{key}: row missing")
            continue
        row = rows[keys.index(key)]
        if not all(math.isfinite(v) for v in row.values()):
            failed.append(f"{key}: non-finite value")
            continue
        problems = list(row_problems(row, row_refs))
        if problems:
            failed.append(f"{key}: " + "; ".join(problems))
    return failed


def _jsonable(scale: dict) -> dict:
    return json.loads(json.dumps(scale))
