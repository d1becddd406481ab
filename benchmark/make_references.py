"""Regenerate benchmark/references.json, the frozen values the benchmark's
row checks compare against:

* fig1_ergodic: the analytic c2 and its quadrature error estimate at each SNR
  of the sweep (seed-independent);
* fig2_opt: the optimised mean and its SE per (SNR, w2/w1) row, per seed;
* fig3_pool: mean alpha*, rho* and their SEs per w2/w1 row, per seed,
  computed at workers=1 so that the pooled runs also pin worker-count
  determinism.

Run from the repository root:  python3 benchmark/make_references.py
Regenerate only when a change is meant to move these numbers, and say so.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from workloads import REFERENCES, ROOT, WORKLOADS, read_rows

from cnoma_eh import analysis

REFERENCE_SEEDS = range(1, 11)


def fig1_rows() -> dict:
    wl = WORKLOADS["fig1_ergodic"]
    cfg = wl.config(0, "unused")
    rows = {}
    for snr_db in cfg.snr_db_values:
        rep = analysis.ergodic_weighted_sum(cfg.system_params(snr_db), cfg.baseline())
        rows[repr(float(snr_db))] = {"c2_analytic": rep.c2_e,
                                     "quadrature_error": rep.quadrature_error}
    return {"rows": rows}


def per_seed(name: str, row_key, row_value, out_dir: Path) -> dict:
    wl = WORKLOADS[name]
    seeds = {}
    for seed in REFERENCE_SEEDS:
        cfg = dataclasses.replace(wl.config(seed, out_dir / f"{name}.csv"), workers=1)
        rows = read_rows(wl.runner()(cfg))
        seeds[str(seed)] = {row_key(r): row_value(r) for r in rows}
        print(f"{name} seed {seed}: {len(rows)} rows")
    return {"scale": wl.scale, "seeds": seeds}


def main():
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    refs = {
        "fig1_ergodic": fig1_rows(),
        "fig2_opt": per_seed(
            "fig2_opt",
            lambda r: f"{r['snr_db']!r},{r['wtilde2']!r}",
            lambda r: [r["csum_optimized"], r["csum_optimized_se"]],
            out_dir),
        "fig3_pool": per_seed(
            "fig3_pool",
            lambda r: repr(r["wtilde2"]),
            lambda r: [r["mean_alpha_star"], r["mean_alpha_star_se"],
                       r["mean_rho_star"], r["mean_rho_star_se"]],
            out_dir),
    }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
