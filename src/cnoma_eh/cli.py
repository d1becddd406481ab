"""Command-line front end: experiment configs, sweep runners, file output.

Subcommands
    fig1      ergodic rates (Monte Carlo, analytic, high-SNR) vs average SNR
              at a fixed design point
    fig2      optimized vs fixed weighted sum rate across SNR, one weight
              ratio per curve
    fig3      mean optimal coefficients vs weight ratio
    solve     one channel realization through the 1D search
    validate  the release-gate checks, with a JSON report

Each subcommand takes, checks and records only the options it reads; one
table, ``_OPTIONS``, gives every option's flag, INI entry and readers.
Every output file embeds the configuration fields its subcommand read, the
package version and a timestamp; rerunning with the embedded configuration
reproduces the file byte-for-byte except for the timestamp line.  SNR is
expressed in dB at this boundary and converted to the linear scale
internally.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, montecarlo, validation
from .errors import CnomaError, ConfigError, DomainError, InfeasibleChannel, NumericalFailure
from .model import ChannelRealization, DesignPoint, SystemParams, db_to_linear
from .optimizer import AlphaGridSpec, _require_ordered, solve_1d

__all__ = ["ExperimentConfig", "run_fig1", "run_fig2", "run_fig3", "run_figure", "run_solve",
           "run_validate", "main"]


@dataclass
class ExperimentConfig:
    """One experiment run.  ``kind`` names the subcommand, and ``_OPTIONS``
    says which of the other fields it reads; only those are checked and
    recorded.  A figure kind fills unset ``samples`` and ``wtilde2_values``
    with its defaults when the config is built, and sets its own
    ``ordering`` (any other is an error), so provenance records the values
    the run used.  Every object the run builds from the config (system
    points, design point, sampler, solver grid, channel) is built then too,
    before any work."""

    kind: str
    # system (weights w1/w2 apply to fig1 and solve; fig2/fig3 build w2
    # from wtilde2)
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
    # run
    workers: int = 1
    full: bool = False
    # output
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        reads = _READS[self.kind]
        if "workers" in reads and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if "seed" in reads and not 0 <= self.seed < 2**64:  # validate builds no sampler
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        fig = _FIGURES.get(self.kind)
        if fig is not None:
            if self.samples is None:
                self.samples = fig.samples
            if self.ordering not in (None, fig.ordering):
                raise ConfigError(f"{self.kind} draws {fig.ordering} gains, "
                                  f"not {self.ordering!r}")
            self.ordering = fig.ordering
            if fig.wtilde2 and self.wtilde2_values is None:
                self.wtilde2_values = fig.wtilde2
            self.sampler()
            if self.samples == 1:
                raise ConfigError("a figure needs samples >= 2: every row reports "
                                  "a standard error")
        if "alpha" in reads:
            self.baseline()
        if "grid_n" in reads:
            self.solver_grid()
        if "g1" in reads:
            self.channel()
        if "mu" in reads:
            self.system_points()

    def system_params(self, snr_db: float, w2: float | None = None) -> SystemParams:
        try:
            avg_snr = db_to_linear(snr_db)
        except OverflowError:
            raise ConfigError(f"SNR {snr_db} dB is out of range")
        return _build(
            SystemParams, avg_snr=avg_snr, mu=self.mu, eta=self.eta,
            var1=self.var1, var2=self.var2, var3=self.var3,
            w1=self.w1, w2=self.w2 if w2 is None else w2,
        )

    def system_points(self) -> list:
        """``(snr_db, wtilde2, SystemParams)`` for every point of the run, in
        row order (weight ratio outer, SNR inner).  ``wtilde2`` is None where
        the run takes the configured ``w2``."""
        reads = _READS[self.kind]
        snrs = self.snr_db_values if "snr_db_values" in reads else (self.snr_db,)
        ratios = self.wtilde2_values if "wtilde2_values" in reads else (None,)
        return [(s, wt, self.system_params(s, None if wt is None else wt * self.w1))
                for wt in ratios for s in snrs]

    def sampler(self) -> montecarlo.SamplerConfig:
        return _build(montecarlo.SamplerConfig, seed=self.seed,
                      ordering=montecarlo.Ordering(self.ordering),
                      sample_count=self.samples, block_size=self.block_size)

    def solver_grid(self) -> AlphaGridSpec:
        return _build(AlphaGridSpec, n=self.grid_n)

    def baseline(self) -> DesignPoint:
        return _build(DesignPoint, alpha=self.alpha, rho=self.rho)

    def channel(self) -> ChannelRealization:
        if self.g1 is None or self.g2 is None or self.g3 is None:
            raise ConfigError("solve requires --g1, --g2 and --g3")
        ch = _build(ChannelRealization, g1=self.g1, g2=self.g2, g3=self.g3)
        _require_ordered(ch)  # InfeasibleChannel: exit 1, as for any configured value
        return ch


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
    """The fields the run read, as provenance."""
    flat = {}
    for name in ("kind", *_READS[cfg.kind]):
        v = getattr(cfg, name)
        if isinstance(v, tuple):
            v = ",".join(repr(float(x)) for x in v)
        flat[f"config.{name}"] = v
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
    doc = {"experiment": experiment, **body, "provenance": {
        "version": __version__, "timestamp": _timestamp(), "config": _flat_config(cfg)}}
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
    for snr_db, _, p in cfg.system_points():
        mc = montecarlo.estimate_ergodic(sampler, p, d)
        an = analysis.ergodic_weighted_sum(p, d)
        yield [float(snr_db), mc["mean_c1"], mc["se_c1"], mc["mean_c2"], mc["se_c2"],
               mc["mean_wsum"], mc["se_wsum"], an.c1_e, an.c2_e, an.c_sum_e,
               analysis.high_snr_u1(p, d), analysis.high_snr_u2(p, d), an.quadrature_error]


def _fig2_rows(cfg: ExperimentConfig, sampler: montecarlo.SamplerConfig):
    d = cfg.baseline()
    points = cfg.system_points()
    sweep = montecarlo.estimate_optimized_sweep(sampler, [p for _, _, p in points],
                                                cfg.solver_grid(), d, cfg.workers)
    for (snr_db, wt2, _), pt in zip(points, sweep):
        yield [float(snr_db), float(wt2), pt["mean_wsum_opt"], pt["se_wsum_opt"],
               pt["mean_wsum_fixed"], pt["se_wsum_fixed"], pt["gain_percent"]]


def _fig3_rows(cfg: ExperimentConfig, sampler: montecarlo.SamplerConfig):
    points = cfg.system_points()
    sweep = montecarlo.estimate_optimized_sweep(sampler, [p for _, _, p in points],
                                                cfg.solver_grid(), workers=cfg.workers)
    for (_, wt2, _), pt in zip(points, sweep):
        yield [float(wt2), pt["mean_alpha_star"], pt["se_alpha_star"],
               pt["mean_rho_star"], pt["se_rho_star"]]


class _Figure(NamedTuple):
    """Everything one figure decides: its defaults, its file layout, and a
    row builder ``rows(cfg, sampler)`` yielding one row per sweep point.  An
    optimized figure's builder makes one ``montecarlo.estimate_optimized_sweep``
    call, which owns the worker pool for all its points."""

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
    rows = list(fig.rows(cfg, cfg.sampler()))  # a sweep's pool is shut down by now
    return _write_sweep(out, cfg, cfg.kind, fig.columns, rows)


# the benchmark, validation.check_determinism and the tests call these names
run_fig1 = run_fig2 = run_fig3 = run_figure


_SOLVE_COLUMNS = ("alpha_star", "rho_star", "objective_f", "c1", "c2", "weighted_sum",
                  "evaluations")


def run_solve(cfg: ExperimentConfig) -> Path | None:
    """Solve one channel realization and print the outcome."""
    path = _output_path(cfg, "solve")
    out = solve_1d(cfg.system_params(cfg.snr_db), cfg.channel(), cfg.solver_grid())
    row = [out.alpha_star, out.rho_star, out.objective_f, out.rate_triple.c1,
           out.rate_triple.c2, out.rate_triple.weighted_sum, float(out.evaluations)]
    for name, v in zip(_SOLVE_COLUMNS[:-1], row):
        print(f"{name:<12} = {v!r}")
    print(f"branch       = {out.branch.value}")
    print(f"evaluations  = {out.evaluations}")
    return None if cfg.out is None else _write_sweep(path, cfg, "solve", _SOLVE_COLUMNS, [row])


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
        {"name": c.name, "value": float(c.value), "passed": bool(c.passed), "detail": c.detail,
         "tolerance": c.tolerance if isinstance(c.tolerance, str) else float(c.tolerance)}
        for c in checks])
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
            if not (math.isfinite(start) and math.isfinite(stop) and step > 0
                    and stop >= start):
                raise ValueError
            n = int(round((stop - start) / step))
            values = tuple(start + step * k for k in range(n + 1) if start + step * k <= stop + 1e-9 * max(1.0, step))
            if not values:
                raise ValueError
            return values
        return (float(text),)
    except (ValueError, OverflowError):
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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(text)


class _Option(NamedTuple):
    """One ``ExperimentConfig`` field: its INI (section, key) and its flag
    (None: not settable that way), the converter from the entry's or the
    flag's text, and the subcommands that read the field."""

    field: str
    ini: tuple | None
    flag: str | None
    conv: Callable
    kinds: tuple
    help: str | None = None


_FIGS = ("fig1", "fig2", "fig3")
_SYSTEM = (*_FIGS, "solve")
_OPTIMIZED = ("fig2", "fig3")

_OPTIONS = (
    _Option("mu", ("system", "mu"), "--mu", float, _SYSTEM, "conversion-noise factor"),
    *(_Option(name, ("system", name), None, float, _SYSTEM)
      for name in ("eta", "var1", "var2", "var3", "w1")),
    _Option("w2", ("system", "w2"), None, float, ("fig1", "solve")),
    _Option("alpha", ("design", "alpha"), "--alpha", float, ("fig1", "fig2"),
            "fixed power-allocation baseline"),
    _Option("rho", ("design", "rho"), "--rho", float, ("fig1", "fig2"),
            "fixed power-splitting baseline"),
    _Option("snr_db_values", ("sweep", "snr_db"), "--snr-db", _parse_snr_values,
            ("fig1", "fig2"), "SNR sweep in dB: START:STOP:STEP or a single value"),
    _Option("wtilde2_values", ("sweep", "wtilde2"), "--wtilde2", _parse_float_list,
            _OPTIMIZED, "comma-separated weight ratios w2/w1, each > 1"),
    _Option("snr_db", ("system", "snr_db"), "--snr-db", float, ("fig3", "solve"),
            "average SNR in dB (one value)"),
    _Option("g1", ("channel", "g1"), "--g1", float, ("solve",), "source->U1 power gain"),
    _Option("g2", ("channel", "g2"), "--g2", float, ("solve",), "source->U2 power gain"),
    _Option("g3", ("channel", "g3"), "--g3", float, ("solve",), "U1->U2 power gain"),
    _Option("seed", ("sampler", "seed"), "--seed", int, (*_FIGS, "validate"),
            "64-bit RNG seed"),
    _Option("samples", ("sampler", "samples"), "--samples", int, _FIGS,
            "Monte Carlo draws per sweep point"),
    # each figure's ordering is its own (_Figure.ordering); Python callers
    # may pass only that one
    _Option("ordering", None, None, str, _FIGS),
    _Option("block_size", ("sampler", "block_size"), None, int, _FIGS),
    _Option("grid_n", ("solver", "grid"), "--grid", int, (*_OPTIMIZED, "solve"),
            "alpha grid points of the 1D search"),
    _Option("workers", ("run", "workers"), "--workers", int, (*_OPTIMIZED, "validate"),
            "parallel workers (deterministic for any count)"),
    _Option("full", ("run", "full"), "--full", _parse_bool, ("validate",),
            "run the Monte Carlo checks at full published scales"),
    _Option("out", ("output", "out"), "--out", str.strip, (*_SYSTEM, "validate"),
            "output file path"),
    _Option("fmt", ("output", "format"), "--format", str.strip, _SYSTEM,
            "output format: csv or json"),
)

# subcommand -> the ExperimentConfig fields it reads (``kind`` aside)
_READS = {kind: frozenset(opt.field for opt in _OPTIONS if kind in opt.kinds)
          for kind in (*_SYSTEM, "validate")}
_BY_INI = {opt.ini: opt for opt in _OPTIONS if opt.ini}


def _load_config_file(path: str, kind: str) -> dict:
    """The entries ``kind`` reads, as config fields; entries it does not read
    are skipped, so one file can serve every subcommand."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    overrides = {}
    for section in parser.sections():
        for key, text in parser.items(section):
            where = f"{path} [{section}] {key}"
            opt = _BY_INI.get((section, key))
            if opt is None:
                raise ConfigError(f"unknown config entry at {where}")
            if kind not in opt.kinds:
                continue
            try:
                overrides[opt.field] = opt.conv(text)
            except ConfigError as exc:
                raise ConfigError(f"{exc} at {where}")
            except ValueError:
                raise ConfigError(f"bad value {text!r} at {where}")
    return overrides


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
        sub.add_argument("--config", metavar="PATH",
                         help="INI config file (entries this subcommand does not read are skipped)")
        for opt in _OPTIONS:
            if opt.flag is None or kind not in opt.kinds:
                continue
            kw = (dict(action="store_true", default=None) if opt.conv is _parse_bool
                  else dict(type=opt.conv, metavar=opt.flag.lstrip("-").upper()))
            sub.add_argument(opt.flag, dest=opt.field, help=opt.help, **kw)
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = _load_config_file(args.config, args.kind) if args.config else {}
    # every other argparse dest is the name of an ExperimentConfig field
    overrides.update((field, value) for field, value in vars(args).items()
                     if value is not None and field not in ("kind", "config"))
    return ExperimentConfig(kind=args.kind, **overrides)


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
    except (ConfigError, InfeasibleChannel) as exc:
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
