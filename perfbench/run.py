"""EMD Globalizer benchmark: one workload, one process, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload d4-chunker --seed 1 --seconds 5 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it has
every per-layer metric instead. ``perfbench/README.md`` defines each
metric per workload. The run

1. picks a random ``PYTHONHASHSEED`` unless one is set, and re-executes
   itself with it so the seed can be recorded (the Local EMD features
   depend on it);
2. starts one local Spark session on ``min(4, nproc)`` cores with the
   session settings of ``jobs/_session.py``;
3. fits the workload's framework variant, generates its input from
   ``--seed`` and runs one small warm-up pass: set-up ends here;
4. repeats whole cycles (batch) or replays (stream) until ``--seconds``
   have been measured, checking each one's output;
5. with ``--trace 1``, runs the same input once more layer by layer
   (``layers.py``) and checks that it emits the same mentions;
6. stops Spark and every process it started, then prints the result.

Scratch files go to ``.bench_work/`` in the checkout. Each run appends
its seeds and final-mention digest to ``.bench_work/runs.jsonl``; a traced
run also writes its spans there as ``spans-<workload>-<seed>-<pid>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def start_spark(local_dir: str):
    from pyspark.sql import SparkSession

    cores = min(4, os.cpu_count() or 1)
    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", local_dir)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", os.path.join(local_dir, "warehouse"))
        # the session settings of jobs/_session.py
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _children(pid: int) -> list:
    """Pids of the live descendants of ``pid``."""
    parent = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
    out, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out += kids
        frontier += kids
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_spark(spark) -> None:
    """Stop Spark, end the JVM and wait until every process it started has
    exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = gateway.proc
    spawned = _children(os.getpid())
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    while any(_alive(p) for p in spawned) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in spawned:
        if _alive(p):
            os.kill(p, 9)


def jvm_peak_rss_mb() -> float:
    from pyspark import SparkContext

    with open(f"/proc/{SparkContext._gateway.proc.pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def distinct_digests(record: dict) -> int:
    """Append ``record`` to the run log and count the distinct digests of
    the logged runs with its workload and seed, that is, on the same input."""
    log = os.path.join(WORK, "runs.jsonl")
    with open(log, "a") as f:
        f.write(json.dumps(record) + "\n")
    with open(log) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    same_input = (record["workload"], record["seed"])
    return len({r["digest"] for r in rows if (r["workload"], r["seed"]) == same_input})


def run(args, run_dir: str) -> tuple:
    """Set up, measure and (with ``--trace 1``) trace one workload.

    Returns ``(correct, attempted, failed, values, note)``.
    """
    import measure
    import layers
    import workloads as W
    from repro.eval.metrics import score_mentions

    wl = W.WORKLOADS[args.workload]
    tracer = layers.Tracer() if args.trace else None
    t = time.perf_counter()
    spark = start_spark(run_dir)
    spark_start_s = time.perf_counter() - t
    try:
        variant = W.build(spark, wl, tracer)

        # load generation, which set-up time excludes
        t = time.perf_counter()
        ds = W.generate_input(wl, args.seed)
        warm = W.head(ds, W.WARMUP_TWEETS)
        if wl.is_stream:
            warm_dir = os.path.join(run_dir, "warmup")
            W.write_replay(warm, warm_dir, n_batches=1)
        else:
            t_ingest = time.perf_counter()
            tweets_df = W.cached_frame(spark, ds)
            ingest_s = time.perf_counter() - t_ingest
            warm_df = W.cached_frame(spark, warm)
        load_s = time.perf_counter() - t

        if wl.is_stream:
            W.run_replay(spark, variant, warm_dir, warm, "warmup")
        else:
            W.EMDGlobalizer(variant).run(spark, warm_df)
            warm_df.unpersist()
        setup_s = time.perf_counter() - T_START - load_s

        # measured and untraced: whole units of work until --seconds pass
        ops = []
        t_measure = time.perf_counter()
        while not ops or time.perf_counter() - t_measure < args.seconds:
            k = len(ops)
            if wl.is_stream:
                replay_dir = os.path.join(run_dir, f"replay-{k}")
                paths = W.write_replay(ds, replay_dir, wl.n_batches)
                op = W.run_replay(spark, variant, replay_dir, ds, f"replay-{k}")
            else:
                op = W.run_cycle(spark, variant, tweets_df, ds.gold, f"cycle-{k}")
            if op.problems:
                print(f"# {args.workload} op {k}: {'; '.join(op.problems)}", file=sys.stderr)
            ops.append(op)
        good = [o for o in ops if not o.problems]
        if not good:
            raise RuntimeError("no measured operation succeeded")
        # a stream op is a micro-batch; a failed replay fails all of them
        per_op = wl.n_batches if wl.is_stream else 1
        attempted = per_op * len(ops)
        failed = per_op * (len(ops) - len(good))
        last = good[-1]

        if wl.is_stream:
            latencies = [s for o in good for s in o.latencies]
            batch_jobs = [c for o in good for c in o.jobs]
            unit_jobs = [tuple(sum(c) for c in zip(*o.jobs)) for o in good]
            query_overhead_s = statistics.median(o.seconds - sum(o.latencies) for o in good)
            # Local EMD is per sentence, so its output on the union is the
            # union of its per-batch outputs; tagged once, untimed
            input_df = W.cached_frame(spark, ds)
            local_f1 = score_mentions(variant.system.tag(input_df).toPandas(), ds.gold).f1
            input_df.unpersist()
            global_f1 = score_mentions(last.mentions, ds.gold).f1
            digest = measure.mention_digest(last.mentions)
        else:
            # a batch cycle is a stream of one micro-batch, read by caching
            # the input DataFrame
            latencies = [o.seconds for o in good]
            batch_jobs = unit_jobs = [o.jobs for o in good]
            query_overhead_s = ingest_s
            local_f1, global_f1, digest = last.local_f1, last.global_f1, last.digest
        cycle_s = statistics.median(o.seconds for o in good)
        lat = measure.summarize(latencies)
        values = {
            "setup_s": setup_s,
            "cycle_s": cycle_s,
            "tweets_per_s": len(ds.tweets) / cycle_s,
            "batch_latency_p50_s": lat.median,
            "local_f1": local_f1,
            "global_f1": global_f1,
            "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_share": (attempted - failed) / attempted,
        }
        op_seconds = ", ".join(f"{o.seconds:.3f}" for o in ops)
        note = f"ops=[{op_seconds}]s batches={lat.n} p50={lat.median:.4f}s"
        if lat.tail_pct:
            note += f" p{lat.tail_pct:g}={lat.tail:.4f}s"

        if args.trace:
            t = time.perf_counter()
            if wl.is_stream:
                traced, counts = layers.traced_replay(spark, variant, paths, tracer)
            else:
                traced, counts = layers.traced_cycle(spark, variant, tweets_df, tracer)
            trace_s = time.perf_counter() - t
            attempted += per_op
            # the trace must measure the same program: same mentions out
            if not wl.is_stream and measure.mention_digest(traced) != digest:
                failed += per_op
                print("# the traced cycle emitted other mentions", file=sys.stderr)
            jobs, stages, tasks = W.median_counts(unit_jobs)
            values = {
                **{f"{name}_s": tracer.seconds[name] for name in layers.LAYERS},
                **{name: counts[name] for name in layers.COUNTS},
                "pipeline.emit_ratio": counts["pipeline.final_mentions"]
                / max(1, counts["mention_extraction.mined"]),
                "pipeline.spark_jobs": jobs,
                "pipeline.spark_stages": stages,
                "pipeline.spark_tasks": tasks,
                "streaming.batches": lat.n,
                "streaming.batch_latency_max_s": max(latencies),
                "streaming.spark_jobs_per_batch": W.median_counts(batch_jobs)[0],
                "streaming.query_overhead_s": query_overhead_s,
                "streaming.latency_growth": W.latency_growth(latencies),
                "candidate_base.size": last.n_candidates,
                "setup.spark_start_s": spark_start_s,
                **{f"{name}_s": tracer.seconds[name] for name in layers.SETUP_LAYERS},
                "trace.total_s": trace_s,
                "trace.overhead_s": trace_s - cycle_s,
                "jvm.peak_rss_mb": jvm_peak_rss_mb(),
            }
        n_digests = distinct_digests(
            {
                "workload": args.workload,
                "seed": args.seed,
                "hash_seed": os.environ["PYTHONHASHSEED"],
                "trace": args.trace,
                "digest": digest,
            },
        )
        if args.trace:
            values["pipeline.distinct_digests"] = n_digests
            tracer.dump(
                os.path.join(WORK, f"spans-{args.workload}-{args.seed}-{os.getpid()}.json"),
                T_START,
            )
        note += f" digest={digest[:16]} distinct_digests={n_digests}"
    finally:
        stop_spark(spark)
    return failed == 0, attempted, failed, values, note


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "pipeline.py")):
        print(f"perfbench: no program source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if "PYTHONHASHSEED" not in os.environ:
        # not pinned: a fresh seed per run, but one the run can record
        os.environ["PYTHONHASHSEED"] = str(random.SystemRandom().randrange(1, 2**32))
        os.execv(sys.executable, [sys.executable, *sys.argv])

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    # everything a run writes stays in the checkout, the JVMs' files too
    os.environ["TMPDIR"] = run_dir
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={run_dir}"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    sys.path[:0] = [SRC, BENCH_DIR]
    try:
        correct, attempted, failed, values, note = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    import measure

    print(f"# workload={args.workload} seed={args.seed} "
          f"hash_seed={os.environ['PYTHONHASHSEED']} {note}")
    print(measure.result_line(correct, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
