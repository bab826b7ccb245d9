"""Render every figure dataset to CSV in one go.

Thin wrapper over the ``levisqueeze figure`` subcommand so a full data
directory can be rebuilt with a single call:

    python3 scripts/run_figures.py --out-dir data

Pass figure ids to rebuild a subset, or --points to coarsen every sweep for
a quick look.  Each figure's line gives its wall time and the process's peak
resident memory so far (getrusage's ru_maxrss, read as KiB as on Linux).
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

from levisqueeze.cli import main as cli_main
from levisqueeze.figures import FIGURES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figures", nargs="*", metavar="FIG",
                        help="figure ids to render (default: all)")
    parser.add_argument("--out-dir", default="data", help="output directory")
    parser.add_argument("--points", type=int, default=None,
                        help="override sweep resolution for every figure")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    wanted = args.figures or sorted(FIGURES)
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        parser.error(f"unknown figure ids: {', '.join(unknown)}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    status = 0
    for fig in wanted:
        out = out_dir / f"{fig}.{args.format}"
        cmd = ["figure", fig, "--out", str(out), "--format", args.format]
        if args.points is not None:
            cmd += ["--set", f"points={args.points}"]
        start = time.perf_counter()
        code = cli_main(cmd)
        elapsed = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if code == 0:
            print(f"{fig}: wrote {out} in {elapsed:.1f}s, peak RSS {peak_mb:.1f} MB")
        else:
            print(f"{fig}: failed with exit code {code}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
