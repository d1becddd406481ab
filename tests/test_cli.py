import dataclasses
import json
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cnoma_eh import analysis, cli, montecarlo, optimizer, validation
from cnoma_eh.cli import (
    ExperimentConfig,
    _parse_float_list,
    _parse_snr_values,
    main,
    run_figure,
)
from cnoma_eh.errors import ConfigError
from cnoma_eh.model import DesignPoint, SystemParams, db_to_linear

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "cnoma_eh" / "schemas"


def read_csv(path: Path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return comments, header, rows


def strip_timestamp(path: Path):
    return [l for l in path.read_text().splitlines() if not l.startswith("# timestamp=")]


class TestParsers:
    def test_snr_sweep(self):
        assert _parse_snr_values("0:40:5") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        assert _parse_snr_values("10") == (10.0,)
        assert _parse_snr_values("0:1:0.5") == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("bad", ["5:0:1", "0:10:-1", "a:b:c", "1:2:3:4", ""])
    def test_snr_sweep_rejects(self, bad):
        with pytest.raises(ConfigError):
            _parse_snr_values(bad)

    def test_float_list(self):
        assert _parse_float_list("2, 5") == (2.0, 5.0)
        for bad in ("2,x", "", " , "):
            with pytest.raises(ConfigError):
                _parse_float_list(bad)


@pytest.fixture(scope="module")
def fig1_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1") / "fig1.csv"
    cfg = ExperimentConfig(kind="fig1", seed=41, samples=2000, out=str(out))
    run_figure(cfg)
    return cfg, out


@pytest.fixture(scope="module")
def fig2_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2") / "fig2.csv"
    cfg = ExperimentConfig(kind="fig2", seed=43, samples=1500,
                           snr_db_values=(0.0, 10.0, 20.0), out=str(out))
    run_figure(cfg)
    return cfg, out


class TestFig1:
    @pytest.fixture
    def result(self, fig1_result):
        return fig1_result

    def test_default_sweep_has_nine_rows(self, result):
        _, header, rows = read_csv(result[1])
        assert len(rows) == 9
        assert header == [
            "snr_db", "c1_mc", "c1_se", "c2_mc", "c2_se", "csum_mc", "csum_se",
            "c1_analytic", "c2_analytic", "csum_analytic", "c1_highsnr", "c2_highsnr",
            "c2_analytic_err",
        ]

    def test_analytic_column_is_pipeline_identity(self, result):
        cfg, out = result
        _, header, rows = read_csv(out)
        col = header.index("c1_analytic")
        d = DesignPoint(alpha=cfg.alpha, rho=cfg.rho)
        for row in rows:
            p = SystemParams(avg_snr=db_to_linear(row[0]), mu=cfg.mu,
                             w1=cfg.w1, w2=cfg.w2)
            assert row[col] == analysis.ergodic_rate_u1(p, d)

    def test_high_snr_column_converges(self, result):
        _, header, rows = read_csv(result[1])
        last = rows[-1]  # 40 dB
        c2_an = last[header.index("c2_analytic")]
        c2_hs = last[header.index("c2_highsnr")]
        assert abs(c2_an - c2_hs) < 0.03

    def test_provenance_embedded(self, result):
        comments, _, _ = read_csv(result[1])
        joined = "\n".join(comments)
        assert "# config.seed=41" in joined
        assert "# config.samples=2000" in joined
        assert any(line.startswith("# timestamp=") for line in comments)


class TestFig2:
    @pytest.fixture
    def result(self, fig2_result):
        return fig2_result

    def test_row_grid(self, result):
        _, header, rows = read_csv(result[1])
        assert len(rows) == 6  # 2 weight ratios x 3 SNR points
        assert header[:2] == ["snr_db", "wtilde2"]

    def test_gain_nonnegative_everywhere(self, result):
        _, header, rows = read_csv(result[1])
        gain = header.index("gain_percent")
        for row in rows:
            assert row[gain] >= 0.0

    def test_rerun_reproduces_file(self, result, tmp_path):
        cfg, out = result
        out2 = tmp_path / "again.csv"
        cfg2 = ExperimentConfig(kind="fig2", seed=43, samples=1500,
                                snr_db_values=(0.0, 10.0, 20.0), out=str(out2))
        run_figure(cfg2)
        a = [l for l in strip_timestamp(out) if not l.startswith("# config.out=")]
        b = [l for l in strip_timestamp(out2) if not l.startswith("# config.out=")]
        assert a == b

    def test_requires_weight_ratio_above_one(self, tmp_path):
        cfg = ExperimentConfig(kind="fig2", wtilde2_values=(0.5, 2.0),
                               out=str(tmp_path / "x.csv"))
        with pytest.raises(ConfigError):
            run_figure(cfg)

    def test_json_format_validates_against_schema(self, tmp_path):
        out = tmp_path / "fig2.json"
        cfg = ExperimentConfig(kind="fig2", seed=43, samples=500,
                               snr_db_values=(10.0,), wtilde2_values=(2.0,),
                               out=str(out), fmt="json")
        run_figure(cfg)
        doc = json.loads(out.read_text())
        schema = json.loads((SCHEMA_DIR / "sweep.schema.json").read_text())
        jsonschema.validate(doc, schema)
        assert doc["experiment"] == "fig2"
        assert len(doc["rows"]) == 1


def forbid_estimators(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an estimator or the release gate ran")

    for module, name in ((montecarlo, "estimate_ergodic"),
                         (montecarlo, "estimate_optimized"),
                         (montecarlo, "estimate_optimized_sweep"),
                         (analysis, "ergodic_weighted_sum"),
                         (cli, "solve_1d"),
                         (validation, "run_all")):
        monkeypatch.setattr(module, name, never)


class _Ones:
    """Stands in for any estimator result: every field and key reads 1.0."""

    def __getattr__(self, name):
        return 1.0

    def __getitem__(self, key):
        return 1.0


def _ones_sweep(sampler, params, *args, **kwargs):
    """Stands in for ``montecarlo.estimate_optimized_sweep``: one ``_Ones``
    per point."""
    return [_Ones() for _ in params]


@pytest.mark.parametrize("kind, samples, ordering, wtilde2", [
    ("fig1", 1_000_000, "unordered", None),  # fig1 takes no weight ratios
    ("fig2", 100_000, "swap", "2.0,5.0"),
    ("fig3", 100_000, "swap", "1.5,2.0,3.0,5.0,7.0,10.0"),
])
def test_default_run_records_resolved_defaults(kind, samples, ordering, wtilde2,
                                               tmp_path, monkeypatch, capsys):
    samplers = []

    def fake(sampler, *args, **kwargs):
        samplers.append(sampler)
        return _Ones()

    def fake_sweep(sampler, params, *args, **kwargs):
        return [fake(sampler) for _ in params]  # one sampler per point, as for fig1

    monkeypatch.setattr(montecarlo, "estimate_ergodic", fake)
    monkeypatch.setattr(montecarlo, "estimate_optimized_sweep", fake_sweep)
    monkeypatch.setattr(analysis, "ergodic_weighted_sum", lambda *a, **k: _Ones())
    out = tmp_path / f"{kind}.csv"
    assert main([kind, "--out", str(out)]) == 0
    comments, _, rows = read_csv(out)
    assert f"# config.samples={samples}" in comments
    assert f"# config.ordering={ordering}" in comments
    if wtilde2 is None:
        assert not any(line.startswith("# config.wtilde2_values=") for line in comments)
    else:
        assert f"# config.wtilde2_values={wtilde2}" in comments
    assert rows and len(samplers) == len(rows)
    assert {(s.sample_count, s.ordering.value) for s in samplers} == {(samples, ordering)}


@pytest.mark.parametrize("kind, ordering", [
    ("fig1", "swap"), ("fig2", "unordered"), ("fig3", "unordered"), ("fig1", "sorted"),
])
def test_figure_takes_only_its_own_ordering(kind, ordering):
    # fig1's analytic columns assume unordered gains, fig2/fig3's solver swap-ordered
    own = cli._FIGURES[kind].ordering
    with pytest.raises(ConfigError, match=f"{kind} draws {own} gains"):
        ExperimentConfig(kind=kind, ordering=ordering)
    assert ExperimentConfig(kind=kind, ordering=own).sampler().ordering.value == own


_SYSTEM = {"mu", "eta", "var1", "var2", "var3", "w1"}
_SAMPLER = {"seed", "samples", "ordering", "block_size"}


@pytest.mark.parametrize("argv, read", [
    (["fig1", "--format", "json"],
     _SYSTEM | _SAMPLER | {"w2", "alpha", "rho", "snr_db_values", "fmt"}),
    (["fig2", "--format", "json"],
     _SYSTEM | _SAMPLER | {"alpha", "rho", "snr_db_values", "wtilde2_values", "grid_n",
                           "workers", "fmt"}),
    (["fig3", "--format", "json"],
     _SYSTEM | _SAMPLER | {"snr_db", "wtilde2_values", "grid_n", "workers", "fmt"}),
    (["solve", "--format", "json", "--g1", "1.5", "--g2", "0.5", "--g3", "0.8"],
     _SYSTEM | {"w2", "snr_db", "g1", "g2", "g3", "grid_n", "fmt"}),
    (["validate"], {"seed", "full", "workers"}),
], ids=["fig1", "fig2", "fig3", "solve", "validate"])
def test_provenance_lists_exactly_the_fields_read(argv, read, tmp_path, monkeypatch, capsys):
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    reads, recording = set(), [True]

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            if recording[0] and name in fields:
                reads.add(name)
            return object.__getattribute__(self, name)

    def flat_config(cfg, real=cli._flat_config):
        recording[0] = False  # writing the provenance is not a read by the run
        try:
            return real(cfg)
        finally:
            recording[0] = True

    solved = SimpleNamespace(
        alpha_star=0.5, rho_star=0.25, objective_f=1.0, evaluations=3,
        rate_triple=SimpleNamespace(c1=1.0, c2=1.0, weighted_sum=3.0),
        branch=SimpleNamespace(value="interior"))
    monkeypatch.setattr(cli, "ExperimentConfig", Recording)
    monkeypatch.setattr(cli, "_flat_config", flat_config)
    monkeypatch.setattr(montecarlo, "estimate_ergodic", lambda *a, **k: _Ones())
    monkeypatch.setattr(montecarlo, "estimate_optimized_sweep", _ones_sweep)
    monkeypatch.setattr(analysis, "ergodic_weighted_sum", lambda *a, **k: _Ones())
    monkeypatch.setattr(cli, "solve_1d", lambda *a, **k: solved)
    monkeypatch.setattr(validation, "run_all", lambda **kw: [
        validation.CheckResult("demo", 0.0, 1.0, True, "ok")])
    out = tmp_path / "x.json"
    assert main(argv + ["--out", str(out)]) == 0
    config = json.loads(out.read_text())["provenance"]["config"]
    recorded = {k.removeprefix("config.") for k in config if k.startswith("config.")}
    assert recorded == reads == read | {"kind", "out"}


@pytest.mark.parametrize("kind", ["fig2", "fig3"])
def test_unordered_optimized_sweep_fails_before_any_solve(kind, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("solve_1d ran on an unordered sampler")

    # no option sets the ordering, so give the figure an unordered default
    unordered = cli._FIGURES[kind]._replace(ordering="unordered")
    monkeypatch.setattr(montecarlo, "solve_1d", never)
    monkeypatch.setitem(cli._FIGURES, kind, unordered)
    rc = main([kind, "--samples", "50", "--snr-db", "10",
               "--wtilde2", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "swap-ordered" in capsys.readouterr().err


class TestFig3:
    def test_output_domains(self, tmp_path):
        out = tmp_path / "fig3.csv"
        cfg = ExperimentConfig(kind="fig3", seed=47, samples=1500,
                               wtilde2_values=(1.5, 3.0), out=str(out))
        run_figure(cfg)
        _, header, rows = read_csv(out)
        assert header == ["wtilde2", "mean_alpha_star", "mean_alpha_star_se",
                          "mean_rho_star", "mean_rho_star_se"]
        assert len(rows) == 2
        for row in rows:
            assert 0.0 < row[1] < 1.0
            assert 0.0 <= row[3] < 1.0


class TestSolve:
    def test_prints_outcome(self, capsys):
        rc = main(["solve", "--snr-db", "10", "--g1", "1.5", "--g2", "0.5",
                   "--g3", "0.8"])
        assert rc == 0
        out = capsys.readouterr().out
        for key in ("alpha_star", "rho_star", "objective_f", "weighted_sum",
                    "branch", "evaluations"):
            assert key in out

    def test_missing_gain_is_config_error(self, capsys):
        rc = main(["solve", "--snr-db", "10", "--g1", "1.5", "--g2", "0.5"])
        assert rc == 1

    def test_json_output_validates(self, tmp_path, capsys):
        schema = json.loads((SCHEMA_DIR / "sweep.schema.json").read_text())
        # the example draw sits on the feasibility boundary; a dead relay
        # link (g3 = 0) takes rho* = 0
        for g3, branch in (("0.8", "boundary"), ("0", "lower")):
            argv = ["solve", "--snr-db", "10", "--g1", "1.5", "--g2", "0.5", "--g3", g3]
            out = tmp_path / f"solve_{g3}.json"
            assert main([*argv, "--out", str(out), "--format", "json"]) == 0
            doc = json.loads(out.read_text())
            jsonschema.validate(doc, schema)
            assert doc["columns"][-2:] == ["branch", "evaluations"]
            assert doc["rows"][0][-2] == branch
            out = tmp_path / f"solve_{g3}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            header, row = out.read_text().splitlines()[-2:]
            assert header.split(",") == doc["columns"]
            assert row.split(",")[-2] == branch
            assert f"branch       = {branch}\n" in capsys.readouterr().out


class TestConfigFile:
    def test_file_plus_cli_override(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[system]\nmu = 0.5\n\n[sampler]\nseed = 1234\nsamples = 800\n"
            "[sweep]\nsnr_db = 0:10:10\nwtilde2 = 2\n"
            f"[output]\nout = {tmp_path / 'from_file.csv'}\n"
        )
        rc = main(["fig2", "--config", str(ini), "--seed", "999"])
        assert rc == 0
        comments, _, rows = read_csv(tmp_path / "from_file.csv")
        joined = "\n".join(comments)
        assert "# config.seed=999" in joined       # CLI wins over file
        assert "# config.mu=0.5" in joined         # file wins over default
        assert len(rows) == 2

    def test_unknown_key_rejected_with_location(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[system]\nbogus = 1\n")
        rc = main(["fig1", "--config", str(ini)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "[system]" in err

    def test_bad_value_rejected_with_location(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[sampler]\nseed = not_an_int\n")
        rc = main(["fig1", "--config", str(ini)])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    def test_empty_weight_ratio_list_rejected(self, kind, tmp_path, monkeypatch, capsys):
        forbid_estimators(monkeypatch)
        ini = tmp_path / "empty.ini"
        ini.write_text("[sweep]\nwtilde2 =\n")
        out = tmp_path / "x.csv"
        assert main([kind, "--config", str(ini), "--out", str(out)]) == 1
        assert main([kind, "--wtilde2", "", "--out", str(out)]) == 1
        assert "bad float list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, text, message", [
        ("wtilde2", "", "bad float list ''"),
        ("snr_db", "5:0:1", "bad SNR sweep spec '5:0:1'"),
    ])
    def test_bad_sweep_entry_rejected_with_location(self, key, text, message, tmp_path,
                                                    monkeypatch, capsys):
        forbid_estimators(monkeypatch)
        ini = tmp_path / "sweep.ini"
        ini.write_text(f"[sweep]\n{key} = {text}\n")
        assert main(["fig2", "--config", str(ini), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert message in err and f"at {ini} [sweep] {key}" in err

    def test_readme_example_loads_for_every_subcommand(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        ini = tmp_path / "readme.ini"
        ini.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        for kind in ("fig1", "fig2", "fig3", "solve", "validate"):
            overrides = cli._load_config_file(str(ini), kind)
            assert overrides and set(overrides) <= cli._READS[kind]
            ExperimentConfig(kind=kind, **overrides)

    def test_missing_file(self, capsys):
        rc = main(["fig1", "--config", "/nonexistent/x.ini"])
        assert rc == 1

    @pytest.mark.parametrize("content", [
        b"out = x.csv\n",                                  # no section header
        b"[sampler]\nseed = 1\nseed = 2\n",                # duplicated key
        b"[sampler]\nseed = 1\n[sampler]\nsamples = 5\n",  # duplicated section
        b"[sampler]\nseed\n",                              # a line with no value
        b"[sampler]\nseed = \xff\xfe\n",                   # not UTF-8
    ], ids=["no-section", "duplicate-key", "duplicate-section", "no-value", "not-utf8"])
    def test_unparsable_file_is_a_config_error(self, content, tmp_path, monkeypatch, capsys):
        forbid_estimators(monkeypatch)
        ini = tmp_path / "broken.ini"
        ini.write_bytes(content)
        assert main(["fig1", "--config", str(ini), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(ini) in err
        assert "Traceback" not in err

    def test_percent_is_read_literally(self, tmp_path):
        ini = tmp_path / "pct.ini"
        ini.write_text(f"[output]\nout = {tmp_path / '100%%.csv'}\n")
        assert cli._load_config_file(str(ini), "solve")["out"] == str(tmp_path / "100%%.csv")
        out = tmp_path / "50%.csv"
        ini.write_text(f"[output]\nout = {out}\n")
        assert main(["solve", "--config", str(ini), "--g1", "1.5", "--g2", "0.5",
                     "--g3", "0.8"]) == 0
        assert out.exists()


class TestValidateCommand:
    def test_report_schema_and_exit_codes(self, tmp_path, monkeypatch, capsys):
        canned = [validation.CheckResult("demo", 0.0, 1.0, True, "ok")]
        monkeypatch.setattr(validation, "run_all", lambda **kw: canned)
        out = tmp_path / "report.json"
        rc = main(["validate", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
        jsonschema.validate(doc, schema)
        assert doc["passed"] is True

        failing = [validation.CheckResult("demo", 9.0, 1.0, False, "broken")]
        monkeypatch.setattr(validation, "run_all", lambda **kw: failing)
        rc = main(["validate", "--out", str(tmp_path / "r2.json")])
        assert rc == 2

    def test_mutation_in_solver_is_caught(self, monkeypatch):
        # corrupting the denominator of the interior stationary point must
        # trip the solver-vs-oracle check; the first 60 pool instances suffice
        pool = validation.random_instances
        monkeypatch.setattr(validation, "random_instances", lambda seed, n: pool(seed, 60))
        clean = validation.check_solver_pool(seed=1001)[0]
        assert clean.name == "solver_optimality" and clean.passed

        # the shared stationary-root helper feeds the alpha grid, the
        # golden-section refine and the final rho*
        def corrupted(lead, beta, constant, theta):
            return (beta - np.sqrt(np.maximum(theta, 0.0))) / (2.0 * lead)

        monkeypatch.setattr(optimizer, "_stationary_root", corrupted)
        mutated = validation.check_solver_pool(seed=1001)[0]
        assert not mutated.passed

    def test_run_all_computes_each_quantity_once(self, monkeypatch):
        # the weak-user quadrature runs once per SNR (0/20/30/40 dB) and
        # each instance of the 200-instance solver pool is solved once
        calls = Counter()

        def count(module, name, impl):
            def counted(*args, **kwargs):
                calls[name] += 1
                return impl(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(analysis, "ergodic_rate_u2", lambda *a, **k: (1.0, 0.0))
        count(optimizer, "solve_1d", optimizer.solve_1d)
        monkeypatch.setattr(montecarlo, "estimate_ergodic", lambda *a, **k: _Ones())
        monkeypatch.setattr(montecarlo, "estimate_optimized_sweep", _ones_sweep)
        results = validation.run_all()
        assert len(results) == 18
        assert calls == {"ergodic_rate_u2": 4, "solve_1d": 200}


class TestMainEntry:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["nope"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("kind", ["fig1", "fig2", "fig3"])
    @pytest.mark.parametrize("samples, message", [
        ("0", "sample_count must be >= 1"),
        ("-5", "sample_count must be >= 1"),
        ("1", "a figure needs samples >= 2"),
    ], ids=["0", "-5", "1"])
    def test_nonpositive_samples_fail_before_any_work(self, kind, samples, message,
                                                      tmp_path, monkeypatch, capsys):
        forbid_estimators(monkeypatch)
        out = tmp_path / "x.csv"
        assert main([kind, "--samples", samples, "--out", str(out)]) == 1
        ini = tmp_path / "samples.ini"
        ini.write_text(f"[sampler]\nsamples = {samples}\n")
        assert main([kind, "--config", str(ini), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fig2", "--grid", "1"], "alpha grid needs at least 2 points"),
        (["fig2", "--alpha", "1.5"], "alpha must be in (0, 1)"),
        (["fig1", "--mu", "-1"], "mu must be >= 0"),
        (["fig1", "--rho", "1"], "rho must be in [0, 1)"),
        (["solve", "--g1", "1", "--g2", "0.5", "--g3", "-1"], "g3 must be >= 0"),
        # non-finite values: none may reach an estimator or the solver
        (["solve", "--mu", "inf", "--snr-db", "10", "--g1", "1.5", "--g2", "0.5",
          "--g3", "0.8"], "mu must be finite, got inf"),
        (["fig2", "--mu", "inf", "--snr-db", "10", "--samples", "20", "--wtilde2", "2"],
         "mu must be finite, got inf"),
        (["fig1", "--mu", "nan", "--samples", "10"], "mu must be finite, got nan"),
        (["solve", "--snr-db", "inf", "--g1", "1.5", "--g2", "0.5", "--g3", "0.8"],
         "avg_snr must be finite, got inf"),
        (["fig3", "--snr-db", "inf", "--samples", "10", "--wtilde2", "2"],
         "avg_snr must be finite, got inf"),
        (["fig1", "--snr-db", "0:inf:5", "--samples", "10"], "bad SNR sweep spec '0:inf:5'"),
        (["solve", "--snr-db", "4000", "--g1", "1.5", "--g2", "0.5", "--g3", "0.8"],
         "SNR 4000.0 dB is out of range"),
        (["solve", "--g1", "inf", "--g2", "0.5", "--g3", "0.8"], "g1 must be finite, got inf"),
        (["fig2", "--wtilde2", "2,inf", "--samples", "10", "--snr-db", "10"],
         "w2 must be finite, got inf"),
        (["validate", "--seed", "-1"], "seed must be an unsigned 64-bit integer, got -1"),
        (["solve", "--g1", "0.5", "--g2", "1.5", "--g3", "0.8"], "requires g1 > g2"),
        (["solve", "--g1", "1.5", "--g2", "1.5", "--g3", "0.8"], "requires g1 > g2"),
    ])
    def test_config_domain_error_exits_one(self, argv, message, tmp_path, monkeypatch,
                                           capsys):
        forbid_estimators(monkeypatch)
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["validate", "--samples", "5"],
        ["validate", "--format", "csv"],
        ["solve", "--seed", "3", "--g1", "1.5", "--g2", "0.5", "--g3", "0.8"],
        ["fig1", "--workers", "2"],
        ["fig3", "--alpha", "0.4"],
        ["fig3", "--alpha", "1.5", "--samples", "10", "--wtilde2", "2"],
        ["solve", "--alpha", "1.5", "--g1", "1.5", "--g2", "0.5", "--g3", "0.8"],
        ["fig1", "--grid", "1", "--samples", "10", "--snr-db", "0"],
        ["solve", "--samples", "-3", "--g1", "1.5", "--g2", "0.5", "--g3", "0.8"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_unread_flag_rejected_before_any_work(self, argv, tmp_path, monkeypatch, capsys):
        forbid_estimators(monkeypatch)
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fig3", "--snr-db", "0:20:10", "--samples", "10", "--wtilde2", "2"],
        ["solve", "--snr-db", "0:40:20", "--g1", "1.5", "--g2", "0.5", "--g3", "0.8"],
    ], ids=lambda argv: argv[0])
    def test_single_point_kind_rejects_snr_sweep(self, argv, tmp_path, monkeypatch, capsys):
        forbid_estimators(monkeypatch)
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert "invalid float value: '0:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, workers", [("fig3", "0"), ("fig2", "-4"), ("validate", "0")])
    def test_workers_below_one_rejected_before_any_work(self, kind, workers, tmp_path,
                                                        monkeypatch, capsys):
        forbid_estimators(monkeypatch)
        out = tmp_path / "x.csv"
        assert main([kind, "--workers", workers, "--out", str(out)]) == 1
        ini = tmp_path / "workers.ini"
        ini.write_text(f"[run]\nworkers = {workers}\n")
        assert main([kind, "--config", str(ini), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("workers must be >= 1") == 2
        assert not out.exists()

    def test_unknown_format_is_config_error(self, tmp_path):
        cfg = ExperimentConfig(kind="fig3", samples=100, wtilde2_values=(2.0,),
                               out=str(tmp_path / "x.bin"), fmt="xml")
        with pytest.raises(ConfigError):
            run_figure(cfg)

    @pytest.mark.parametrize("kind", ["fig1", "fig2", "fig3"])
    def test_unknown_format_fails_before_any_work(self, kind, tmp_path, monkeypatch, capsys):
        forbid_estimators(monkeypatch)
        with pytest.raises(ConfigError):
            run_figure(ExperimentConfig(kind=kind, out=str(tmp_path / "x.xml"), fmt="xml"))

        ini = tmp_path / "xml.ini"
        ini.write_text("[output]\nformat = xml\n")
        assert main([kind, "--config", str(ini)]) == 1
        assert "format" in capsys.readouterr().err
