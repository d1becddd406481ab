"""Tests of the benchmark itself, at tiny scales.

Run from the repository root:  python3 -m pytest benchmark -q
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
from workloads import ROOT, WORKLOADS, read_rows

from cnoma_eh import cli

BENCHMARK_JSON = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small enough for seconds, large enough to reach every layer each workload
# reaches at full scale (fig3 keeps 2 workers and several blocks per point).
TINY = {
    "fig1_ergodic": dict(snr_db_values=(20.0,), samples=20_000),
    "fig2_opt": dict(snr_db_values=(10.0, 40.0), samples=16),
    "fig3_pool": dict(wtilde2_values=(2.0, 10.0), samples=32, block_size=8),
}
SEED = 7  # no frozen reference at tiny scale; the invariant checks still run


def tiny(name):
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, scale={**wl.scale, **TINY[name]})


def test_benchmark_json_lists_the_runners_metrics():
    assert [w["name"] for w in BENCHMARK_JSON["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK_JSON["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK_JSON["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_metric_emitted_with_its_unit(name, trace, tmp_path):
    report = run.run_workload(tiny(name), SEED, seconds=0, trace=trace, out_dir=tmp_path)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK_JSON["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    json.dumps(result, allow_nan=False)
    provenance = {"cores", "numpy", "python", "git_rev", "seed", "scale"}
    if not trace:
        provenance |= {"host_noise_wall_iqr_over_median", "host_noise_adj_wall_iqr_over_median"}
        assert set(report["detail"]["unadjusted"]) == {"setup_s", "wall_s", "cpu_s", "draws_per_s"}
    assert set(report["provenance"]) >= provenance


def test_host_factor_is_nominal_over_harmonic_mean():
    nominal = run.REF_NOMINAL_S
    assert run.host_factor([nominal] * 4) == pytest.approx(1.0)
    # one core at half speed: the two cores' joint throughput is 3/4 of nominal
    assert run.host_factor([nominal, 2 * nominal]) == pytest.approx(0.75)


def test_traced_counts_repeat_exactly(tmp_path):
    counts = [
        {k: v["value"] for k, v in run.run_workload(
            tiny("fig2_opt"), SEED, 0, True, tmp_path)["result"]["metrics"].items()
         if k.endswith((".calls", ".draws", "integrand_evals", "evaluations_per_draw",
                        "alpha_edge_hits", "skipped_draws", "tolerance_not_met"))
         or ".branch." in k}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["optimizer.solve_1d.calls"] == 2 * 2 * 16


@pytest.mark.parametrize("cell, failed_per_pass, problem", [
    ("-1.0", 1, "below the fixed-design mean"),  # csum_optimized below csum_fixed
    ("garbage", 4, "unreadable output"),         # an unreadable file fails the whole pass
])
def test_corrupted_output_row_counts_as_failed(cell, failed_per_pass, problem, tmp_path,
                                               monkeypatch):
    real = cli.run_fig2

    def corrupting(cfg):
        path = real(cfg)
        lines = Path(path).read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if ln.startswith("snr_db,")) + 1
        cells = lines[first].split(",")
        cells[2] = cell
        lines[first] = ",".join(cells)
        Path(path).write_text("\n".join(lines) + "\n")
        return path

    monkeypatch.setattr(cli, "run_fig2", corrupting)
    report = run.run_workload(tiny("fig2_opt"), SEED, seconds=0, trace=False, out_dir=tmp_path)
    passes = len(report["detail"]["passes"])
    assert report["result"]["correct"] is False
    assert report["result"]["failed"] == failed_per_pass * passes
    assert report["result"]["attempted"] == 4 * passes
    assert report["ops"]["ops_failed_ratio"] == failed_per_pass / 4
    assert problem in report["ops"]["problems"][0]


def test_frozen_reference_applies_at_its_seed(tmp_path):
    wl = WORKLOADS["fig3_pool"]
    refs = run.load_references()
    cfg = wl.config(1, tmp_path / "x.csv")
    ref = refs["fig3_pool"]["seeds"]["1"]
    rows = [{"wtilde2": float(k), "mean_alpha_star": v[0], "mean_alpha_star_se": v[1],
             "mean_rho_star": v[2], "mean_rho_star_se": v[3]} for k, v in ref.items()]
    assert run.check_rows(wl, cfg, rows, refs) == []
    rows[0]["mean_alpha_star"] += 2 * rows[0]["mean_alpha_star_se"]
    assert len(run.check_rows(wl, cfg, rows, refs)) == 1
    assert run.check_rows(wl, cfg, rows[1:], refs)[0].endswith("row missing")


def test_read_rows_skips_provenance(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("# cnoma-eh x\n# seed=1\na,b\n1.0,2.5\n")
    assert read_rows(path) == [{"a": 1.0, "b": 2.5}]
