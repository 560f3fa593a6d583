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
  mentions arrive, exactly the paper's incremental design. The cycle
  reads the batch once, in one task, and counts its tweets as it goes:
  the batch is coalesced to one partition, so the whole micro-batch is
  one Spark job and no planning pass runs to count its partitions. The
  task reads the fitted system from the broadcast its variant made once
  (``FittedVariant.shipped``), so a Python worker that keeps running a
  stream's tasks unpickles the system once and keeps its caches warm.

Every micro-batch of every query runs on one long-lived driver thread.
``foreachBatch`` calls back on a new py4j thread per query, and that
thread outlives the query; glibc gives each thread that allocates a
malloc arena of its own, which keeps a batch's working set (about 17 MB
with Aguilar). One batch thread keeps one arena, however many queries
run.
"""
from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.core.candidate_base import CandidateBase
from repro.core.ctrie import CTrie
from repro.core.entity_classifier import LABELS
from repro.core.pipeline import FittedVariant, global_emd_cycle
from repro.local_emd.base import MENTIONS_SCHEMA
from repro.streams.generator import TWEETS_SCHEMA, TweetDataset

__all__ = [
    "write_stream_batches",
    "StreamingGlobalizer",
    "STREAM_SCHEMA",
]

STREAM_SCHEMA = T.StructType(
    TWEETS_SCHEMA.fields + [T.StructField("ts", T.TimestampType(), False)]
)

# columns of an emitted mention
MENTION_COLS = MENTIONS_SCHEMA.fieldNames()

# the one thread every query's micro-batches run on; started by the
# first batch
_BATCH_THREAD = ThreadPoolExecutor(max_workers=1, thread_name_prefix="micro-batch")

# the event time of a written stream's first tweet; each later tweet
# comes one second after the one before it
_STREAM_START = pd.Timestamp("2020-03-01T00:00:00")

# writes the offset, commit and file-source logs with FileSystem
# create/rename; see ``StreamingGlobalizer.run_file_stream``
CHECKPOINT_FILE_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing."
    "FileSystemBasedCheckpointFileManager"
)

# the ``durationMs`` phases of a trigger that ``BatchOutput.trigger_ms`` keeps
TRIGGER_PHASES = (
    "walCommit", "latestOffset", "getBatch", "queryPlanning",
    "addBatch", "commitOffsets", "triggerExecution",
)


def write_stream_batches(
    dataset: TweetDataset,
    out_dir: str,
    *,
    n_batches: int = 4,
) -> list:
    """Write the dataset as ordered JSON micro-batch files with event
    timestamps from ``_STREAM_START``; returns the file paths in arrival
    order."""
    os.makedirs(out_dir, exist_ok=True)
    pdf = dataset.tweets.reset_index(drop=True)[TWEETS_SCHEMA.fieldNames()]
    pdf = pdf.assign(ts=_STREAM_START + pd.to_timedelta(pdf.index, unit="s"))
    per = int(np.ceil(len(pdf) / n_batches))
    paths = [os.path.join(out_dir, f"batch-{b:04d}.json") for b in range(n_batches)]
    for b, path in enumerate(paths):
        pdf.iloc[b * per : (b + 1) * per].to_json(
            path, orient="records", lines=True, date_format="iso"
        )
    return paths


@dataclass
class BatchOutput:
    """Per-micro-batch emission record.

    ``trigger_ms`` holds the milliseconds of each of ``TRIGGER_PHASES``
    that Structured Streaming spent on the batch's trigger; it is filled
    when the batch ran in ``run_file_stream`` and Spark still kept the
    trigger's progress, and is empty otherwise.
    """

    batch_id: int
    n_tweets: int
    n_new_candidates: int
    label_counts: dict  # candidates per label (``LABELS``) after the batch
    label_flips: int  # candidates known before the batch whose label it changed
    mentions: pd.DataFrame  # entity-labelled mentions of this batch
    trigger_ms: dict = field(default_factory=dict)


@dataclass
class StreamingGlobalizer:
    """Driver-side incremental state + per-batch pipeline advance."""

    variant: FittedVariant
    ctrie: CTrie = field(default_factory=CTrie)
    candidate_base: CandidateBase | None = None
    outputs: list = field(default_factory=list)

    def __post_init__(self):
        if self.candidate_base is None:
            self.candidate_base = self.variant.candidate_base()

    def process_batch(
        self, spark: SparkSession, batch_df: DataFrame, batch_id: int
    ) -> BatchOutput:
        """One ``global_emd_cycle`` (Section III steps 2–3) on a
        micro-batch, against the kept CTrie and CandidateBase. The batch
        is read once, by the cycle's one task, which also counts its
        tweets; an empty micro-batch emits nothing and changes no
        state. The output counts the candidates of each label after the
        batch, and the label flips: every candidate known before the
        batch was labelled by the batch that added it, and the batch
        re-labels them all."""
        v = self.variant
        before, labels = len(self.ctrie), self.candidate_base.labels()
        res = global_emd_cycle(
            spark, v.shipped(spark), batch_df, self.ctrie,
            self.candidate_base, v.classifier, one_task=True,
        )
        after = self.candidate_base.labels()
        out = BatchOutput(
            batch_id, res.n_sentences, len(self.ctrie) - before,
            {label: int(np.sum(after == label)) for label in LABELS},
            int(np.sum(labels != after[: len(labels)])),
            res.final_mentions[MENTION_COLS],
        )
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
        timeout_seconds: int = 300,
    ) -> None:
        """Consume a directory of micro-batch files with a Structured
        Streaming query whose ``foreachBatch`` advances this state, one
        file per micro-batch.
        Each micro-batch's ``process_batch`` runs on the module's one
        batch thread while the callback waits for it. The query's
        checkpoint is ``input_dir/_checkpoint``: a later call on the same
        directory runs only the files that arrived since, numbering their
        batches on from the last one committed.

        Once the query has ended, each of its batches' ``BatchOutput``
        gets its trigger's ``durationMs`` phases (``TRIGGER_PHASES``) as
        ``trigger_ms``, matched by batch id from ``query.recentProgress``.
        Spark keeps only the last ``spark.sql.streaming.
        numRecentProgressUpdates`` (100) progress updates of a query, so
        the earlier batches of a longer stream carry no record.

        Before it starts the query, this sets ``spark``'s
        ``spark.sql.streaming.checkpointFileManagerClass`` to
        ``CHECKPOINT_FILE_MANAGER``, and leaves it set: the file source
        makes its metadata log later, on the query's own thread, from
        the reader's session, so restoring it after ``start()`` would
        race with that. Spark's default manager renames through
        ``FileContext``, which without ``libhadoop`` starts a ``readlink``
        process for each renamed path; the FileSystem manager renames
        with ``File.renameTo``, which starts none (DESIGN.md, "The
        trigger's fixed cost"). That rename is atomic on the local
        filesystem, where the checkpoint lives, and Spark itself falls
        back to this manager when ``FileContext`` is unavailable. Its one
        weakness, checking that the target is absent before renaming,
        matters only when two writers share a checkpoint; here each has
        one: one directory per input and one active run per query id.

        Raises ``TimeoutError`` if the query has not consumed every file
        after ``timeout_seconds``; the query is stopped and a batch in
        flight finishes first, so the state is no longer advanced once
        this returns or raises.
        """
        # the JVM keeps the callback after the query ends: it must not
        # keep this state alive
        state = weakref.ref(self)

        def on_batch(batch_df: DataFrame, batch_id: int) -> None:
            _BATCH_THREAD.submit(
                state().process_batch, spark, batch_df, int(batch_id)
            ).result()

        spark.conf.set(
            "spark.sql.streaming.checkpointFileManagerClass", CHECKPOINT_FILE_MANAGER
        )
        first = len(self.outputs)
        stream = (
            spark.readStream.schema(STREAM_SCHEMA)
            .option("maxFilesPerTrigger", 1)
            .json(input_dir)
        )
        query = (
            stream.writeStream.foreachBatch(on_batch)
            .option("checkpointLocation", os.path.join(input_dir, "_checkpoint"))
            .trigger(availableNow=True)
            .start()
        )
        # awaitTermination takes only a positive timeout: 0 polls once
        if timeout_seconds > 0:
            finished = query.awaitTermination(timeout_seconds)
        else:
            finished = not query.isActive
        if not finished:
            query.stop()
            # the thread runs one call at a time, in order: this waits
            # for a batch in flight
            _BATCH_THREAD.submit(int).result()
        # a trigger that found no new file ran no batch and has no addBatch
        phases = {
            p.batchId: {k: p.durationMs[k] for k in TRIGGER_PHASES if k in p.durationMs}
            for p in query.recentProgress
            if "addBatch" in p.durationMs
        }
        for out in self.outputs[first:]:
            out.trigger_ms = phases.get(out.batch_id, {})
        if not finished:
            raise TimeoutError(
                f"stream over {input_dir} did not finish in {timeout_seconds} s"
            )
