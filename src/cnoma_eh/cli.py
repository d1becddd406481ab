"""Command-line front end: experiment configs, sweep runners, file output.

Subcommands
    fig1      ergodic rates (Monte Carlo, analytic, high-SNR) vs average SNR
              at a fixed design point
    fig2      optimized vs fixed weighted sum rate across SNR, one weight
              ratio per curve
    fig3      mean optimal coefficients vs weight ratio
    solve     one channel realization through the 1D search
    validate  the release-gate checks, with a JSON report

Every output file embeds its effective configuration, the package version,
the seed, and a timestamp; rerunning with the embedded configuration
reproduces the file byte-for-byte except for the timestamp line.  SNR is
expressed in dB at this boundary and converted to the linear scale
internally.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, montecarlo, validation
from .errors import CnomaError, ConfigError, DomainError, NumericalFailure
from .model import ChannelRealization, DesignPoint, SystemParams, db_to_linear
from .optimizer import AlphaGridSpec, solve_1d

__all__ = [
    "ExperimentConfig",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_figure",
    "run_solve",
    "run_validate",
    "main",
]


@dataclass
class ExperimentConfig:
    """One experiment run.  A figure kind fills unset ``samples``,
    ``ordering`` and ``wtilde2_values`` with its defaults when the config is
    built, so provenance records the values the run used.  The worker count,
    the fixed design point, the sampler and the solver grid are checked then
    too, for every subcommand, before any work."""

    kind: str
    # system (weights w1/w2 apply to fig1; fig2/fig3 build w2 from wtilde2)
    mu: float = 1.0
    eta: float = 1.0
    var1: float = 1.0
    var2: float = 1.0
    var3: float = 1.0
    w1: float = 1.0
    w2: float = 2.0
    # fixed design baseline
    alpha: float = 0.25
    rho: float = 0.3
    # sweeps / single-point inputs
    snr_db_values: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    wtilde2_values: tuple | None = None
    snr_db: float = 10.0
    g1: float | None = None
    g2: float | None = None
    g3: float | None = None
    # sampler
    seed: int = 12345
    samples: int | None = None
    ordering: str | None = None
    block_size: int = 8192
    # solver
    grid_n: int = 1000
    refine: bool = True
    # run
    workers: int = 1
    full: bool = False
    # output
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        self.baseline()
        self.solver_grid()
        fig = _FIGURES.get(self.kind)
        if fig is not None:
            if self.samples is None:
                self.samples = fig.samples
            if self.ordering is None:
                self.ordering = fig.ordering
            if self.wtilde2_values is None:
                self.wtilde2_values = fig.wtilde2
        self.sampler()
        if fig is not None and self.samples == 1:
            raise ConfigError("a figure needs samples >= 2: every row reports "
                              "a standard error")

    def system_params(self, snr_db: float, w2: float | None = None) -> SystemParams:
        return _build(
            SystemParams, avg_snr=db_to_linear(snr_db), mu=self.mu, eta=self.eta,
            var1=self.var1, var2=self.var2, var3=self.var3,
            w1=self.w1, w2=self.w2 if w2 is None else w2,
        )

    def sampler(self) -> montecarlo.SamplerConfig:
        """The Monte Carlo sampler; ``SamplerConfig``'s defaults stand in for
        the samples and ordering that solve and validate leave unset."""
        fields = dict(seed=self.seed, block_size=self.block_size)
        if self.samples is not None:
            fields["sample_count"] = self.samples
        if self.ordering is not None:
            try:
                fields["ordering"] = montecarlo.Ordering(self.ordering)
            except ValueError:
                raise ConfigError(f"unknown ordering {self.ordering!r} (use unordered|swap)")
        return _build(montecarlo.SamplerConfig, **fields)

    def solver_grid(self) -> AlphaGridSpec:
        return _build(AlphaGridSpec, n=self.grid_n, refine=self.refine)

    def baseline(self) -> DesignPoint:
        return _build(DesignPoint, alpha=self.alpha, rho=self.rho)


def _build(cls, **fields):
    """``cls(**fields)`` from configured values: a value outside the model's
    domain is a configuration error (exit 1), not a numerical one."""
    try:
        return cls(**fields)
    except DomainError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# Output files

def _flat_config(cfg: ExperimentConfig) -> dict:
    flat = {}
    for field in dataclasses.fields(cfg):
        v = getattr(cfg, field.name)
        if isinstance(v, tuple):
            v = ",".join(repr(float(x)) for x in v)
        flat[f"config.{field.name}"] = v
    flat["version"] = __version__
    flat["numpy_version"] = np.__version__
    return dict(sorted(flat.items()))


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, experiment: str, columns, rows, cfg: ExperimentConfig):
    lines = [f"# cnoma-eh {__version__} {experiment}", f"# timestamp={_timestamp()}"]
    lines += [f"# {k}={v}" for k, v in _flat_config(cfg).items() if k != "version"]
    lines.append(",".join(columns))
    lines += [",".join(_fmt_cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, experiment: str, cfg: ExperimentConfig, **body):
    doc = {
        "experiment": experiment,
        "provenance": {
            "version": __version__,
            "timestamp": _timestamp(),
            "config": _flat_config(cfg),
        },
        **body,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _output_path(cfg: ExperimentConfig, experiment: str) -> Path:
    """Where a runner writes; checks the format before any work is done."""
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.fmt!r} (use csv|json)")
    return Path(cfg.out or f"{experiment}.{cfg.fmt}")


def _write_sweep(out: Path, cfg: ExperimentConfig, experiment: str, columns, rows) -> Path:
    out.parent.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "json":
        _write_json(out, experiment, cfg, columns=list(columns),
                    rows=[[float(v) for v in row] for row in rows])
    else:
        _write_csv(out, experiment, columns, rows, cfg)
    return out


# ---------------------------------------------------------------------------
# Experiment runners

def _fig1_rows(cfg: ExperimentConfig, sampler: montecarlo.SamplerConfig):
    d = cfg.baseline()
    for snr_db in cfg.snr_db_values:
        p = cfg.system_params(snr_db)
        mc = montecarlo.estimate_ergodic(sampler, p, d)
        an = analysis.ergodic_weighted_sum(p, d)
        yield [
            float(snr_db),
            mc.c1_e, mc.c1_se, mc.c2_e, mc.c2_se, mc.c_sum_e, mc.c_sum_se,
            an.c1_e, an.c2_e, an.c_sum_e,
            analysis.high_snr_u1(p, d), analysis.high_snr_u2(p, d),
            an.quadrature_error,
        ]


def _fig2_rows(cfg: ExperimentConfig, sampler: montecarlo.SamplerConfig):
    d = cfg.baseline()
    grid = cfg.solver_grid()
    for wt2 in cfg.wtilde2_values:
        for snr_db in cfg.snr_db_values:
            p = cfg.system_params(snr_db, w2=wt2 * cfg.w1)
            pt = montecarlo.estimate_optimized(sampler, p, grid=grid, baseline=d,
                                               workers=cfg.workers)
            yield [
                float(snr_db), float(wt2),
                pt["mean_wsum_opt"], pt["se_wsum_opt"],
                pt["mean_wsum_fixed"], pt["se_wsum_fixed"],
                pt["gain_percent"],
            ]


def _fig3_rows(cfg: ExperimentConfig, sampler: montecarlo.SamplerConfig):
    grid = cfg.solver_grid()
    for wt2 in cfg.wtilde2_values:
        p = cfg.system_params(cfg.snr_db, w2=wt2 * cfg.w1)
        pt = montecarlo.estimate_optimized(sampler, p, grid=grid, workers=cfg.workers)
        yield [float(wt2), pt["mean_alpha_star"], pt["se_alpha_star"],
               pt["mean_rho_star"], pt["se_rho_star"]]


class _Figure(NamedTuple):
    """Everything one figure decides: its defaults, its file layout, and a
    row builder ``rows(cfg, sampler)`` yielding one row per sweep point."""

    help: str
    samples: int
    ordering: str
    wtilde2: tuple | None  # None: the figure takes no weight ratios
    columns: tuple
    rows: Callable


_FIGURES = {
    "fig1": _Figure(
        help="ergodic rates vs SNR at a fixed design point",
        samples=1_000_000, ordering="unordered", wtilde2=None,
        columns=("snr_db", "c1_mc", "c1_se", "c2_mc", "c2_se", "csum_mc", "csum_se",
                 "c1_analytic", "c2_analytic", "csum_analytic", "c1_highsnr", "c2_highsnr",
                 "c2_analytic_err"),
        rows=_fig1_rows,
    ),
    "fig2": _Figure(
        help="optimized vs fixed weighted sum rate",
        samples=100_000, ordering="swap", wtilde2=(2.0, 5.0),
        columns=("snr_db", "wtilde2", "csum_optimized", "csum_optimized_se",
                 "csum_fixed", "csum_fixed_se", "gain_percent"),
        rows=_fig2_rows,
    ),
    "fig3": _Figure(
        help="mean optimal coefficients vs weight ratio",
        samples=100_000, ordering="swap", wtilde2=(1.5, 2.0, 3.0, 5.0, 7.0, 10.0),
        columns=("wtilde2", "mean_alpha_star", "mean_alpha_star_se",
                 "mean_rho_star", "mean_rho_star_se"),
        rows=_fig3_rows,
    ),
}


def run_figure(cfg: ExperimentConfig) -> Path:
    """Run the figure named by ``cfg.kind`` and write its file."""
    fig = _FIGURES[cfg.kind]
    out = _output_path(cfg, cfg.kind)
    if fig.wtilde2 and any(wt <= 1.0 for wt in cfg.wtilde2_values):
        raise ConfigError(f"{cfg.kind} requires w2 > w1, i.e. every wtilde2 > 1")
    rows = list(fig.rows(cfg, cfg.sampler()))
    return _write_sweep(out, cfg, cfg.kind, fig.columns, rows)


# the benchmark, validation.check_determinism and the tests call these names
run_fig1 = run_fig2 = run_fig3 = run_figure


_SOLVE_COLUMNS = (
    "alpha_star", "rho_star", "objective_f", "c1", "c2", "weighted_sum", "evaluations",
)


def run_solve(cfg: ExperimentConfig) -> Path | None:
    """Solve one channel realization and print the outcome."""
    if cfg.g1 is None or cfg.g2 is None or cfg.g3 is None:
        raise ConfigError("solve requires --g1, --g2 and --g3")
    path = _output_path(cfg, "solve") if cfg.out else None
    p = cfg.system_params(cfg.snr_db)
    ch = _build(ChannelRealization, g1=cfg.g1, g2=cfg.g2, g3=cfg.g3)
    out = solve_1d(p, ch, cfg.solver_grid())
    print(f"alpha_star   = {out.alpha_star!r}")
    print(f"rho_star     = {out.rho_star!r}")
    print(f"objective_f  = {out.objective_f!r}")
    print(f"c1           = {out.rate_triple.c1!r}")
    print(f"c2           = {out.rate_triple.c2!r}")
    print(f"weighted_sum = {out.rate_triple.weighted_sum!r}")
    print(f"branch       = {out.branch.value}")
    print(f"evaluations  = {out.evaluations}")
    if path is None:
        return None
    row = [out.alpha_star, out.rho_star, out.objective_f,
           out.rate_triple.c1, out.rate_triple.c2,
           out.rate_triple.weighted_sum, float(out.evaluations)]
    return _write_sweep(path, cfg, "solve", _SOLVE_COLUMNS, [row])


def run_validate(cfg: ExperimentConfig) -> int:
    """Run the release gate, print one line per check, write a JSON report.

    Returns 0 when every check passes, 2 otherwise.
    """
    checks = validation.run_all(seed=cfg.seed, full=cfg.full, workers=cfg.workers)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: value={c.value:.6g} tolerance={c.tolerance} ({c.detail})")
    all_passed = all(bool(c.passed) for c in checks)
    out = Path(cfg.out or "validate_report.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, "validate", cfg, passed=all_passed, checks=[
        {
            "name": c.name,
            "value": float(c.value),
            "tolerance": c.tolerance if isinstance(c.tolerance, str) else float(c.tolerance),
            "passed": bool(c.passed),
            "detail": c.detail,
        }
        for c in checks
    ])
    print(("all checks passed" if all_passed else "CHECKS FAILED") + f"; report: {out}")
    return 0 if all_passed else 2


# ---------------------------------------------------------------------------
# Argument and config-file parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for bad usage, not argparse's 2
        raise ConfigError(message)


def _parse_snr_values(text: str):
    try:
        if ":" in text:
            start, stop, step = (float(tok) for tok in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            n = int(round((stop - start) / step))
            values = tuple(start + step * k for k in range(n + 1) if start + step * k <= stop + 1e-9 * max(1.0, step))
            if not values:
                raise ValueError
            return values
        return (float(text),)
    except ValueError:
        raise ConfigError(f"bad SNR sweep spec {text!r}; expected START:STOP:STEP or a single dB value")


def _parse_float_list(text: str):
    try:
        values = tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise ConfigError(f"bad float list {text!r}")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# (section, key) -> (config field, converter from the entry's text)
_INI_FIELDS = {
    ("system", "mu"): ("mu", float),
    ("system", "eta"): ("eta", float),
    ("system", "var1"): ("var1", float),
    ("system", "var2"): ("var2", float),
    ("system", "var3"): ("var3", float),
    ("system", "w1"): ("w1", float),
    ("system", "w2"): ("w2", float),
    ("system", "snr_db"): ("snr_db", float),
    ("design", "alpha"): ("alpha", float),
    ("design", "rho"): ("rho", float),
    ("sweep", "snr_db"): ("snr_db_values", _parse_snr_values),
    ("sweep", "wtilde2"): ("wtilde2_values", _parse_float_list),
    ("channel", "g1"): ("g1", float),
    ("channel", "g2"): ("g2", float),
    ("channel", "g3"): ("g3", float),
    ("sampler", "seed"): ("seed", int),
    ("sampler", "samples"): ("samples", int),
    ("sampler", "ordering"): ("ordering", str.strip),
    ("sampler", "block_size"): ("block_size", int),
    ("solver", "grid"): ("grid_n", int),
    ("solver", "refine"): ("refine", _parse_bool),
    ("run", "workers"): ("workers", int),
    ("run", "full"): ("full", _parse_bool),
    ("output", "out"): ("out", str.strip),
    ("output", "format"): ("fmt", str.strip),
}


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    overrides = {}
    for section in parser.sections():
        for key, text in parser.items(section):
            where = f"{path} [{section}] {key}"
            try:
                field, conv = _INI_FIELDS[(section, key)]
            except KeyError:
                raise ConfigError(f"unknown config entry at {where}")
            try:
                overrides[field] = conv(text)
            except ConfigError as exc:
                raise ConfigError(f"{exc} at {where}")
            except ValueError:
                raise ConfigError(f"bad value {text!r} at {where}")
    return overrides


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", metavar="PATH", help="INI config file")
    sub.add_argument("--seed", type=int, help="64-bit RNG seed")
    sub.add_argument("--samples", type=int, help="Monte Carlo draws per sweep point")
    sub.add_argument("--snr-db", metavar="START:STOP:STEP",
                     help="SNR sweep in dB (or a single value)")
    sub.add_argument("--wtilde2", metavar="LIST", help="comma-separated weight ratios")
    sub.add_argument("--alpha", type=float, help="fixed power-allocation baseline")
    sub.add_argument("--rho", type=float, help="fixed power-splitting baseline")
    sub.add_argument("--mu", type=float, help="conversion-noise factor")
    sub.add_argument("--out", metavar="PATH", help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), dest="fmt")
    sub.add_argument("--ordering", choices=("unordered", "swap"))
    sub.add_argument("--grid", type=int, dest="grid_n", help="alpha grid points for the 1D search")
    sub.add_argument("--workers", type=int, help="parallel workers (deterministic for any count)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cnoma-eh", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"cnoma-eh {__version__}")
    subs = parser.add_subparsers(dest="kind", required=True)
    helps = {kind: fig.help for kind, fig in _FIGURES.items()}
    helps.update(solve="optimize one channel realization",
                 validate="run the release-gate checks")
    for kind, desc in helps.items():
        sub = subs.add_parser(kind, help=desc)
        _add_common(sub)
        if kind == "solve":
            sub.add_argument("--g1", type=float, help="source->U1 power gain")
            sub.add_argument("--g2", type=float, help="source->U2 power gain")
            sub.add_argument("--g3", type=float, help="U1->U2 power gain")
        if kind == "validate":
            sub.add_argument("--full", action="store_true", default=None,
                             help="run Monte Carlo checks at full published scales")
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = _load_config_file(args.config) if args.config else {}
    # every other argparse dest is the name of an ExperimentConfig field
    for field, value in vars(args).items():
        if value is not None and field not in ("kind", "config", "snr_db", "wtilde2"):
            overrides[field] = value
    if args.snr_db is not None:
        values = _parse_snr_values(args.snr_db)
        overrides["snr_db_values"] = values
        if len(values) == 1:
            overrides["snr_db"] = values[0]
    if args.wtilde2 is not None:
        overrides["wtilde2_values"] = _parse_float_list(args.wtilde2)
    try:
        return ExperimentConfig(kind=args.kind, **overrides)
    except TypeError as exc:
        raise ConfigError(str(exc))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
        if cfg.kind in _FIGURES:
            print(f"wrote {run_figure(cfg)}")
        elif cfg.kind == "solve":
            run_solve(cfg)
        else:
            return run_validate(cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CnomaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
