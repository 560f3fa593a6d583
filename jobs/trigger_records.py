"""Per-trigger records of the benchmark's stream cell, from production.

Replays the ``d4-stream-aguilar`` input of ``perfbench`` (D4's first
3,000 tweets of input seed ``SEED`` as 12 one-file micro-batches,
Aguilar variant, the bench's ``local[min(4, nproc)]`` session) through
``run_file_stream``: one warm-up replay, then ``REPLAYS`` measured ones,
then one more recorded with Java Flight Recorder. Prints one run's
record as one JSON object, keyed as an entry of ``runs`` in
``BENCH_trigger.json``: the median of each ``TRIGGER_PHASES`` phase over
every measured batch's ``BatchOutput.trigger_ms``, the driver JVM's
process starts per trigger on the query's stream thread, by command,
and the final-mention digest.

Run from the root of a checkout::

    PYTHONHASHSEED=7 PYTHONPATH=src python3 jobs/trigger_records.py
"""
from __future__ import annotations

import collections
import json
import os
import statistics
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
)

import measure  # noqa: E402
import run as bench  # noqa: E402
import workloads as W  # noqa: E402

from repro.session import recorded_process_starts  # noqa: E402
from repro.streaming.job import TRIGGER_PHASES, StreamingGlobalizer  # noqa: E402

WORKLOAD = "d4-stream-aguilar"
SEED = 1
REPLAYS = 4


def replay(spark, variant, ds, out_dir: str) -> StreamingGlobalizer:
    """One replay of ``ds`` as the bench writes it, in ``out_dir``."""
    W.write_replay(ds, out_dir, W.WORKLOADS[WORKLOAD].n_batches)
    sg = StreamingGlobalizer(variant)
    sg.run_file_stream(spark, out_dir)
    return sg


def main() -> None:
    wl = W.WORKLOADS[WORKLOAD]
    with tempfile.TemporaryDirectory() as work:
        spark = bench.start_spark(work)
        try:
            variant = W.build(spark, wl)
            ds = W.generate_input(wl, SEED)
            replay(spark, variant, W.head(ds, W.WARMUP_TWEETS), os.path.join(work, "warm"))
            records = []
            for k in range(REPLAYS):
                sg = replay(spark, variant, ds, os.path.join(work, f"replay-{k}"))
                records += [o.trigger_ms for o in sg.outputs]
            with recorded_process_starts(os.path.join(work, "starts.jfr")) as starts:
                sg = replay(spark, variant, ds, os.path.join(work, "jfr"))
        finally:
            bench.stop_spark(spark)
    on_stream = collections.Counter(
        c for t, c in starts if t.startswith("stream execution thread")
    )
    print(json.dumps({
        "cores": min(4, os.cpu_count() or 1),
        "triggers": len(records),
        "median_ms": {p: statistics.median(r[p] for r in records) for p in TRIGGER_PHASES},
        "process_starts_per_trigger": {
            c: n / len(sg.outputs) for c, n in sorted(on_stream.items())
        },
        "digest": measure.mention_digest(sg.all_output_mentions())[:16],
    }))


if __name__ == "__main__":
    main()
