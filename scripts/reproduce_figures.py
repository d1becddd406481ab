#!/usr/bin/env python3
"""Reproduce the three standard experiments with default settings.

Writes fig1.csv, fig2.csv, fig3.csv into results/ (override with --outdir).
Full-scale runs take a few minutes; pass --quick for a fast smoke run.
"""

import argparse
import sys
from pathlib import Path

from cnoma_eh.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--workers", type=int, default=1, help="worker processes for fig2 and fig3")
    ap.add_argument("--quick", action="store_true",
                    help="reduced draw counts for a fast smoke run")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    samples = {"fig1": "20000", "fig2": "2000", "fig3": "2000"} if args.quick else {}

    for kind in ("fig1", "fig2", "fig3"):
        argv = [kind, "--out", str(outdir / f"{kind}.csv"), "--seed", str(args.seed)]
        if kind != "fig1":  # fig1 always runs in one process
            argv += ["--workers", str(args.workers)]
        if kind in samples:
            argv += ["--samples", samples[kind]]
        rc = cli_main(argv)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
