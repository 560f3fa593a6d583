"""Structured Streaming demo — continuous EMD Globalizer on a simulated
Twitter stream (Section III's execution model).

Materializes a streaming dataset as micro-batch files, then (1) runs the
incremental foreachBatch pipeline, printing per-batch progress (new
candidates registered, entity mentions emitted), and (2) runs the
windowed count of Local EMD tags, printing top per-window tag counts.

Usage: ``spark-submit jobs/streaming_demo.py [--dataset d2] [--scale S]
[--batches N] [--d5-scale S]``
"""
from __future__ import annotations

import argparse
import tempfile

from _session import get_spark

from repro.eval.experiments import fitted_variants
from repro.eval.metrics import score_mentions
from repro.streaming.job import (
    STREAM_SCHEMA,
    StreamingGlobalizer,
    windowed_tag_counts,
    write_stream_batches,
)
from repro.streams import generator as gen


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", type=str, default="d2")
    ap.add_argument("--scale", type=float, default=0.5)
    ap.add_argument("--batches", type=int, default=4)
    ap.add_argument("--d5-scale", type=float, default=0.1)
    args = ap.parse_args()
    spark = get_spark("streaming-demo")
    variants = fitted_variants(
        spark, systems=["Aguilar et al."], scale=0.5, d5_scale=args.d5_scale
    )
    variant = variants["Aguilar et al."]
    ds = gen.generate(args.dataset, scale=args.scale)

    with tempfile.TemporaryDirectory() as td:
        write_stream_batches(ds, td, n_batches=args.batches)
        sg = StreamingGlobalizer(variant)
        sg.run_file_stream(spark, td)
        print(f"\n== foreachBatch pipeline over {args.batches} micro-batches ==")
        for out in sg.outputs:
            print(
                f"batch {out.batch_id}: {out.n_tweets} tweets, "
                f"+{out.n_new_candidates} candidates, "
                f"{len(out.mentions)} entity mentions emitted"
            )
        prf = score_mentions(sg.all_output_mentions(), ds.gold)
        print(f"stream-cumulative: P={prf.precision:.3f} R={prf.recall:.3f} F1={prf.f1:.3f}")

        # windowed Local EMD tag counts (declarative streaming aggregation)
        stream = (
            spark.readStream.schema(STREAM_SCHEMA)
            .option("maxFilesPerTrigger", 1)
            .json(td)
        )
        counts = windowed_tag_counts(
            stream, variant.system, window_duration="300 seconds"
        )
        q = (
            counts.writeStream.outputMode("complete")
            .format("memory")
            .queryName("window_counts")
            .trigger(availableNow=True)
            .start()
        )
        q.awaitTermination(300)
        print("\n== windowed Local EMD tag counts (top keys per window) ==")
        spark.sql(
            "SELECT window.start AS w_start, key, n_mentions FROM window_counts "
            "ORDER BY n_mentions DESC LIMIT 15"
        ).show(truncate=False)
    spark.stop()


if __name__ == "__main__":
    main()
