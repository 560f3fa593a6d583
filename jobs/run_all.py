"""Regenerate the paper's tables and write each one to ``<out>/<name>.txt``.

Each NAME is an output-file stem from ``repro.eval.experiments.TABLES``:
``table1 table2 table3 table4 ablation error_analysis``; with none, all
six run. Each framework variant the named tables need is built once and
shared between them.

Usage: ``python jobs/run_all.py [NAME ...] [--out experiments_out]
[--scale 1.0] [--d5-scale 0.2]``
"""
from __future__ import annotations

import argparse
import os
import time

from repro.eval.experiments import DEFAULT_D5_SCALE, TABLES, run_tables
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("names", nargs="*", metavar="NAME", help=" ".join(TABLES))
    ap.add_argument("--out", type=str, default="experiments_out")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--d5-scale", type=float, default=DEFAULT_D5_SCALE)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    spark = get_spark("run-all")
    t0 = time.time()
    texts = run_tables(
        spark, args.names or list(TABLES), scale=args.scale, d5_scale=args.d5_scale
    )
    for name, text in texts.items():
        with open(os.path.join(args.out, f"{name}.txt"), "w") as f:
            f.write(text)
        print(f"== wrote {name}.txt ==\n{text}\n", flush=True)
    print(f"[t={time.time() - t0:.0f}s] done", flush=True)
    spark.stop()


if __name__ == "__main__":
    main()
