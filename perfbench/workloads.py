"""Workloads of the EMD Globalizer benchmark and their untraced runs.

A batch workload times whole calls to ``EMDGlobalizer.run`` on a cached
DataFrame; the stream workload times whole replays through
``StreamingGlobalizer.run_file_stream`` and, inside them, each
``process_batch`` call. Every unit of work runs under its own Spark job
group so its jobs, stages and tasks can be counted afterwards, and its
output is checked before it counts as done.
"""
from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import pandas as pd

from repro.core.pipeline import EMDGlobalizer, build_variant
from repro.eval.experiments import make_system
from repro.eval.metrics import score_mentions
from repro.streaming.job import StreamingGlobalizer, write_stream_batches
from repro.streams import generator as gen
from repro.streams.generator import TweetDataset

import measure
import layers

# Variant training scale: the tagger corpus at 30%, the classifier's D5
# stream at 10% (3,800 tweets).
VARIANT_SCALE = 0.3
VARIANT_D5_SCALE = 0.1

# Tweets per micro-batch file of a stream replay.
BATCH_TWEETS = 250

# Tweets in the warm-up pass that ends set-up (one micro-batch on the
# stream). Every first cycle in a process ran slower than the ones after it.
WARMUP_TWEETS = BATCH_TWEETS


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a Local EMD system on a generated corpus.

    ``n_batches`` > 0 makes it a stream replay of the corpus' first
    ``n_batches * BATCH_TWEETS`` tweets, one micro-batch file per trigger.
    """

    name: str
    system: str
    dataset: str
    n_batches: int = 0

    @property
    def is_stream(self) -> bool:
        return self.n_batches > 0


WORKLOADS = {
    w.name: w
    for w in (
        # syntactic path: pooling dominates, the deep embedder is unused
        Workload("d4-chunker", "NP Chunker", "d4"),
        # the deep path once per micro-batch, with driver-side state
        Workload("d4-stream-aguilar", "Aguilar et al.", "d4", n_batches=12),
    )
}


def generate_input(wl: Workload, seed: int) -> TweetDataset:
    """The workload's corpus drawn with the benchmark seed.

    The generator takes its random stream from the dataset's spec; the
    spec's seed is combined with ``seed`` for this one call and restored
    after it, so the corpus keeps the dataset's size, topics and entity
    pool and only the draw changes.
    """
    spec = gen.DATASET_SPECS[wl.dataset]
    gen.DATASET_SPECS[wl.dataset] = {**spec, "seed": [spec["seed"], seed]}
    try:
        ds = gen.generate(wl.dataset)
    finally:
        gen.DATASET_SPECS[wl.dataset] = spec
    return head(ds, wl.n_batches * BATCH_TWEETS) if wl.is_stream else ds


def head(ds: TweetDataset, n: int) -> TweetDataset:
    """The first ``n`` tweets of ``ds`` with their gold mentions."""
    tweets = ds.tweets.iloc[:n].reset_index(drop=True)
    gold = ds.gold[ds.gold["tweet_id"].isin(set(tweets["tweet_id"]))].reset_index(drop=True)
    return TweetDataset(ds.name, ds.streaming, tweets, gold, ds.entity_pool)


def build(spark, wl: Workload, tracer: layers.Tracer | None = None):
    """Fit the workload's framework variant; with a tracer, time its
    sub-layers."""
    system = make_system(wl.system)
    timed = contextlib.nullcontext() if tracer is None else layers.traced_setup(tracer, system)
    with timed:
        return build_variant(spark, system, scale=VARIANT_SCALE, d5_scale=VARIANT_D5_SCALE)


def cached_frame(spark, ds: TweetDataset):
    """``ds`` as a cached, materialised Spark DataFrame."""
    df = ds.to_spark(spark).cache()
    df.count()
    return df


def write_replay(ds: TweetDataset, out_dir: str, n_batches: int) -> list:
    """Micro-batch files for one replay, in arrival order."""
    paths = write_stream_batches(ds, out_dir, n_batches=n_batches)
    # the file source orders files by modification time: make it strict
    t = time.time() - len(paths)
    for i, p in enumerate(paths):
        os.utime(p, (t + i, t + i))
    return paths


def _failed(what: str) -> None:
    print(f"# {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Cycle:
    """One untraced ``EMDGlobalizer.run`` call and what it produced.

    ``problems`` is empty when the call returned and its output passed
    every check.
    """

    problems: list
    seconds: float = float("nan")
    jobs: tuple = ()  # (jobs, stages, tasks)
    digest: str = ""
    local_f1: float = float("nan")
    global_f1: float = float("nan")
    n_candidates: int = 0


def run_cycle(spark, variant, tweets_df, gold: pd.DataFrame, group: str) -> Cycle:
    """Time one cycle and check its output."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    t0 = time.perf_counter()
    try:
        res = EMDGlobalizer(variant).run(spark, tweets_df)
    except Exception:  # a failed cycle is counted, and the run goes on
        _failed(group)
        return Cycle(["raised"])
    seconds = time.perf_counter() - t0
    local_f1 = score_mentions(res.local_mentions, gold).f1
    global_f1 = score_mentions(res.final_mentions, gold).f1
    problems = measure.check_batch_output(
        res.final_mentions, res.mined_mentions, res.candidates, local_f1, global_f1
    )
    return Cycle(
        problems,
        seconds,
        layers.job_counts(sc, group),
        measure.mention_digest(res.final_mentions),
        local_f1,
        global_f1,
        len(res.candidates),
    )


@dataclass
class Replay:
    """One untraced stream replay and what it produced.

    ``problems`` is empty when the replay ended and its output passed
    every check.
    """

    problems: list
    seconds: float
    latencies: list
    jobs: list  # (jobs, stages, tasks) per micro-batch
    n_tweets: list
    mentions: pd.DataFrame = field(default_factory=pd.DataFrame)
    n_candidates: int = 0


def run_replay(spark, variant, in_dir: str, ds: TweetDataset, group: str) -> Replay:
    """Replay ``in_dir`` through ``run_file_stream``; time every
    ``process_batch`` call from outside and check the output."""
    sc = spark.sparkContext
    sg = StreamingGlobalizer(variant)
    latencies, groups, n_tweets = [], [], []
    process_batch = sg.process_batch

    def timed_batch(spark_, batch_df, batch_id):
        # foreachBatch calls back on its own thread: set the group there
        g = f"{group}-b{batch_id}"
        sc.setJobGroup(g, g)
        t0 = time.perf_counter()
        out = process_batch(spark_, batch_df, batch_id)
        latencies.append(time.perf_counter() - t0)
        groups.append(g)
        n_tweets.append(out.n_tweets)
        return out

    sg.process_batch = timed_batch
    t0 = time.perf_counter()
    try:
        sg.run_file_stream(spark, in_dir)
    except Exception:  # a failed replay is counted, and the run goes on
        _failed(group)
        return Replay(["raised"], time.perf_counter() - t0, latencies, [], n_tweets)
    seconds = time.perf_counter() - t0
    jobs = [layers.job_counts(sc, g) for g in groups]
    mentions = sg.all_output_mentions()
    problems = measure.check_stream_output(n_tweets, mentions, ds.tweets)
    return Replay(
        problems, seconds, latencies, jobs, n_tweets, mentions, len(sg.candidate_base)
    )


def latency_growth(latencies: list) -> float:
    """Median latency of the last quarter of batches over the first's."""
    q = max(1, len(latencies) // 4)
    return statistics.median(latencies[-q:]) / statistics.median(latencies[:q])


def median_counts(counts: list) -> tuple:
    """Element-wise median of ``(jobs, stages, tasks)`` tuples."""
    return tuple(statistics.median(c) for c in zip(*counts))
