"""Structured Streaming execution of EMD Globalizer (Section III).

The paper's framework "facilitates continuous execution of a tweet
stream over multiple iterations. Each iteration consists of a batch of
incoming tweets". This module expresses that as a Spark Structured
Streaming job over a file source of tweet micro-batches:

- ``write_stream_batches`` materializes a generated dataset as ordered
  JSON micro-batch files with event timestamps (the Twitter API feed
  stand-in);
- ``StreamingGlobalizer`` runs one ``global_emd_cycle`` per micro-batch
  inside ``foreachBatch``, against a CTrie and CandidateBase it keeps
  across batches: Local EMD on the new batch, CTrie growth with new
  seed candidates, occurrence mining of the batch against all candidates
  known so far, incremental CandidateBase (sum, count) pooling, and
  re-classification — gamma (ambiguous) candidates gain evidence as new
  mentions arrive, exactly the paper's incremental design;
- ``windowed_tag_counts`` is a declarative windowed view of Local
  EMD's own tags: event-time windows of per-key tag counts maintained
  by the engine (no CTrie scan).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.candidate_base import CandidateBase
from repro.core.ctrie import CTrie
from repro.core.pipeline import FittedVariant, global_emd_cycle
from repro.streams.generator import TweetDataset

__all__ = [
    "write_stream_batches",
    "StreamingGlobalizer",
    "windowed_tag_counts",
    "STREAM_SCHEMA",
]

STREAM_SCHEMA = T.StructType(
    [
        T.StructField("tweet_id", T.LongType(), False),
        T.StructField("sent_id", T.IntegerType(), False),
        T.StructField("topic", T.IntegerType(), False),
        T.StructField("tokens", T.ArrayType(T.StringType()), False),
        T.StructField("ts", T.TimestampType(), False),
    ]
)

# columns of an emitted mention
MENTION_COLS = ["tweet_id", "sent_id", "start", "length", "key", "surface"]


def write_stream_batches(
    dataset: TweetDataset,
    out_dir: str,
    *,
    n_batches: int = 4,
    start_ts: str = "2020-03-01T00:00:00",
    seconds_per_tweet: float = 1.0,
) -> list:
    """Write the dataset as ordered JSON micro-batch files with event
    timestamps; returns the file paths in arrival order."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = pd.Timestamp(start_ts)
    pdf = dataset.tweets.reset_index(drop=True)
    paths = []
    per = int(np.ceil(len(pdf) / n_batches))
    for b in range(n_batches):
        chunk = pdf.iloc[b * per : (b + 1) * per]
        path = os.path.join(out_dir, f"batch-{b:04d}.json")
        with open(path, "w") as f:
            for i, r in chunk.iterrows():
                ts = t0 + pd.Timedelta(seconds=i * seconds_per_tweet)
                f.write(
                    json.dumps(
                        {
                            "tweet_id": int(r.tweet_id),
                            "sent_id": int(r.sent_id),
                            "topic": int(r.topic),
                            "tokens": list(r.tokens),
                            "ts": ts.isoformat(),
                        }
                    )
                    + "\n"
                )
        paths.append(path)
    return paths


@dataclass
class BatchOutput:
    """Per-micro-batch emission record."""

    batch_id: int
    n_tweets: int
    n_new_candidates: int
    mentions: pd.DataFrame  # entity-labelled mentions of this batch


@dataclass
class StreamingGlobalizer:
    """Driver-side incremental state + per-batch pipeline advance."""

    variant: FittedVariant
    ctrie: CTrie = field(default_factory=CTrie)
    candidate_base: CandidateBase | None = None
    outputs: list = field(default_factory=list)

    def __post_init__(self):
        if self.candidate_base is None:
            self.candidate_base = CandidateBase(self.variant.emb_dim)

    def process_batch(
        self, spark: SparkSession, batch_df: DataFrame, batch_id: int
    ) -> BatchOutput:
        """One ``global_emd_cycle`` (Section III steps 2–3) on a
        micro-batch, against the kept CTrie and CandidateBase."""
        v = self.variant
        batch_df = batch_df.select("tweet_id", "sent_id", "topic", "tokens").cache()
        try:
            n_tweets = batch_df.count()
            before = len(self.ctrie)
            res = global_emd_cycle(
                spark, v.system, v.phrase_embedder, batch_df,
                self.ctrie, self.candidate_base, v.classifier,
            )
        finally:
            batch_df.unpersist()
        mentions = res.final_mentions[MENTION_COLS]
        out = BatchOutput(batch_id, n_tweets, len(self.ctrie) - before, mentions)
        self.outputs.append(out)
        return out

    def all_output_mentions(self) -> pd.DataFrame:
        """Union of per-batch emissions (final stream output)."""
        frames = [o.mentions for o in self.outputs if len(o.mentions)]
        if not frames:
            return pd.DataFrame(columns=MENTION_COLS)
        return pd.concat(frames, ignore_index=True)

    # ------------------------------------------------------------------
    def run_file_stream(
        self,
        spark: SparkSession,
        input_dir: str,
        *,
        max_files_per_trigger: int = 1,
        timeout_seconds: int = 300,
    ) -> None:
        """Consume a directory of micro-batch files with a Structured
        Streaming query whose ``foreachBatch`` advances this state."""

        def on_batch(batch_df: DataFrame, batch_id: int) -> None:
            if batch_df.rdd.isEmpty():
                return
            self.process_batch(spark, batch_df, int(batch_id))

        stream = (
            spark.readStream.schema(STREAM_SCHEMA)
            .option("maxFilesPerTrigger", max_files_per_trigger)
            .json(input_dir)
        )
        query = (
            stream.writeStream.foreachBatch(on_batch)
            .option("checkpointLocation", os.path.join(input_dir, "_checkpoint"))
            .trigger(availableNow=True)
            .start()
        )
        query.awaitTermination(timeout_seconds)


def windowed_tag_counts(
    stream_df: DataFrame,
    system,
    *,
    window_duration: str = "60 seconds",
    watermark: str = "120 seconds",
) -> DataFrame:
    """Per-event-time-window, per-key counts of Local EMD's tags (the
    mentions ``system.tag_pandas`` emits, not a CTrie scan); each tag
    takes its sentence's ``ts``.

    ``system`` is a *fitted* Local EMD system shipped in the closure;
    the result is a streaming aggregation suitable for a memory/console
    sink (or ``availableNow`` batch-equivalent runs in tests).
    """
    out_schema = T.StructType(
        [
            T.StructField("ts", T.TimestampType(), False),
            T.StructField("key", T.StringType(), False),
        ]
    )

    def tag(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            tags = system.tag_pandas(pdf)
            yield pdf[["tweet_id", "sent_id", "ts"]].merge(
                tags, on=["tweet_id", "sent_id"]
            )[["ts", "key"]]

    tagged = stream_df.mapInPandas(tag, schema=out_schema)
    return (
        tagged.withWatermark("ts", watermark)
        .groupBy(F.window("ts", window_duration), "key")
        .agg(F.count("*").alias("n_mentions"))
    )
