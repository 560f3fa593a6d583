"""Tests for the Structured Streaming execution mode (Section III)."""
import glob
import os

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.pipeline import EMDGlobalizer
from repro.eval.metrics import score_mentions
from repro.oracle import assert_equivalent
from repro.streaming.job import (
    STREAM_SCHEMA,
    StreamingGlobalizer,
    windowed_tag_counts,
    write_stream_batches,
)
from repro.streams import generator as gen


@pytest.fixture(scope="module")
def ds_small():
    return gen.generate("d1", scale=0.25)


class TestWriteStreamBatches:
    def test_writes_requested_batches(self, ds_small, tmp_path_factory):
        td = tmp_path_factory.mktemp("batches")
        paths = write_stream_batches(ds_small, str(td), n_batches=3)
        assert len(paths) == 3
        assert all(os.path.exists(p) for p in paths)

    def test_batches_partition_dataset(self, ds_small, tmp_path_factory, spark):
        td = tmp_path_factory.mktemp("batches2")
        write_stream_batches(ds_small, str(td), n_batches=4)
        df = spark.read.schema(STREAM_SCHEMA).json(str(td))
        assert df.count() == len(ds_small.tweets)
        assert df.select("tweet_id").distinct().count() == len(ds_small.tweets)

    def test_timestamps_monotone_in_tweet_id(self, ds_small, tmp_path_factory, spark):
        td = tmp_path_factory.mktemp("batches3")
        write_stream_batches(ds_small, str(td), n_batches=2)
        pdf = (
            spark.read.schema(STREAM_SCHEMA).json(str(td))
            .orderBy("tweet_id").toPandas()
        )
        assert pdf["ts"].is_monotonic_increasing


class TestIncrementalPipeline:
    def test_single_batch_equals_batch_pipeline(
        self, spark, chunker_variant, aguilar_variant, ds_small
    ):
        """One micro-batch covering the whole dataset must reproduce the
        batch pipeline's outputs and candidate state exactly, on the
        syntactic and the deep path."""
        df = ds_small.to_spark(spark).cache()
        cols = ["tweet_id", "sent_id", "start", "length", "key"]
        try:
            for variant in (chunker_variant, aguilar_variant):
                batch_res = EMDGlobalizer(variant).run(spark, df)
                sg = StreamingGlobalizer(variant)
                sg.process_batch(spark, df, 0)
                a = set(map(tuple, batch_res.final_mentions[cols].itertuples(index=False)))
                b = set(map(tuple, sg.all_output_mentions()[cols].itertuples(index=False)))
                assert a == b
                # every candidate's n_mentions, score and label
                pd.testing.assert_frame_equal(
                    batch_res.candidates, sg.candidate_base.table(), check_exact=True
                )
        finally:
            df.unpersist()

    def test_empty_batches_emit_nothing(
        self, spark, chunker_variant, aguilar_variant, ds_small
    ):
        """An empty micro-batch neither crashes nor changes state, before
        and after candidates exist."""
        empty = spark.createDataFrame([], STREAM_SCHEMA)
        for variant in (chunker_variant, aguilar_variant):
            sg = StreamingGlobalizer(variant)
            sg.process_batch(spark, empty, 0)
            assert len(sg.ctrie) == 0 and len(sg.candidate_base) == 0
            sg.process_batch(spark, ds_small.to_spark(spark), 1)
            before = sg.candidate_base.table()
            out = sg.process_batch(spark, empty, 2)
            assert out.n_tweets == 0 and out.n_new_candidates == 0 and len(out.mentions) == 0
            pd.testing.assert_frame_equal(before, sg.candidate_base.table(), check_exact=True)

    def test_multi_batch_state_grows(self, spark, aguilar_variant, ds_small, tmp_path_factory):
        td = tmp_path_factory.mktemp("stream")
        write_stream_batches(ds_small, str(td), n_batches=3)
        sg = StreamingGlobalizer(aguilar_variant)
        files = sorted(glob.glob(os.path.join(str(td), "batch-*.json")))
        sizes = []
        for b, path in enumerate(files):
            batch_df = spark.read.schema(STREAM_SCHEMA).json(path)
            sg.process_batch(spark, batch_df, b)
            sizes.append(len(sg.ctrie))
        assert sizes == sorted(sizes)  # candidates only accumulate
        assert len(sg.outputs) == 3
        assert sg.candidate_base.keys()  # pooled state exists

    def test_streamed_f1_close_to_batch(self, spark, aguilar_variant, ds_small, tmp_path_factory):
        """Incremental emission loses only early-batch mentions of
        late-discovered candidates; cumulative F1 must be within a few
        points of the batch pipeline's."""
        df = ds_small.to_spark(spark).cache()
        try:
            batch_res = EMDGlobalizer(aguilar_variant).run(spark, df)
        finally:
            df.unpersist()
        batch_f1 = score_mentions(batch_res.final_mentions, ds_small.gold).f1
        td = tmp_path_factory.mktemp("stream2")
        write_stream_batches(ds_small, str(td), n_batches=3)
        sg = StreamingGlobalizer(aguilar_variant)
        for b, path in enumerate(
            sorted(glob.glob(os.path.join(str(td), "batch-*.json")))
        ):
            sg.process_batch(spark, spark.read.schema(STREAM_SCHEMA).json(path), b)
        stream_f1 = score_mentions(sg.all_output_mentions(), ds_small.gold).f1
        assert abs(stream_f1 - batch_f1) < 0.12

    def test_foreach_batch_file_stream(self, spark, aguilar_variant, ds_small, tmp_path_factory):
        """End-to-end Structured Streaming run (availableNow trigger)."""
        td = tmp_path_factory.mktemp("stream3")
        write_stream_batches(ds_small, str(td), n_batches=2)
        sg = StreamingGlobalizer(aguilar_variant)
        sg.run_file_stream(spark, str(td))
        assert sum(o.n_tweets for o in sg.outputs) == len(ds_small.tweets)
        assert len(sg.all_output_mentions()) > 0


class TestWindowedCounts:
    def test_windowed_counts_match_batch_oracle(self, spark, aguilar_variant, ds_small, tmp_path_factory):
        """The streaming windowed aggregation, run to completion, must
        equal the same aggregation computed in batch — checked through
        the DuckDB oracle on the tagged mentions."""
        td = tmp_path_factory.mktemp("stream4")
        write_stream_batches(
            ds_small, str(td), n_batches=2, seconds_per_tweet=30.0
        )
        stream = (
            spark.readStream.schema(STREAM_SCHEMA)
            .option("maxFilesPerTrigger", 1)
            .json(str(td))
        )
        counts = windowed_tag_counts(
            stream, aguilar_variant.system, window_duration="600 seconds"
        )
        prev_tz = spark.conf.get("spark.sql.session.timeZone")
        spark.conf.set("spark.sql.session.timeZone", "UTC")
        try:
            qname = "win_counts_test"
            q = (
                counts.writeStream.outputMode("complete")
                .format("memory").queryName(qname)
                .trigger(availableNow=True).start()
            )
            q.awaitTermination(240)
            got = spark.sql(
                "SELECT CAST(unix_timestamp(window.start) AS BIGINT) AS w_start_s, "
                f"key, n_mentions FROM {qname}"
            )
            # batch reference: tag everything, bucket the same epoch math
            # in DuckDB (BIGINT cast: DuckDB's // on DOUBLE is not floor)
            batch = spark.read.schema(STREAM_SCHEMA).json(str(td)).toPandas()
            rows = []
            for r in batch.itertuples():
                for s, l in aguilar_variant.system.tag_sentence(
                    list(r.tokens), int(r.tweet_id), int(r.sent_id)
                ):
                    span = list(r.tokens)[s : s + l]
                    if any(t.startswith(("#", "@", "http")) for t in span):
                        continue
                    rows.append((r.ts, " ".join(t.lower() for t in span)))
            tagged = pd.DataFrame(rows, columns=["ts", "key"])
            assert_equivalent(
                got,
                """
                SELECT 600 * (CAST(epoch(ts) AS BIGINT) // 600) AS w_start_s,
                       key, COUNT(*) AS n_mentions
                FROM tagged GROUP BY 1, 2
                """,
                tagged=tagged,
            )
        finally:
            spark.conf.set("spark.sql.session.timeZone", prev_tz)
