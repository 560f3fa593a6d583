"""Tests for the Structured Streaming execution mode (Section III)."""
import copy
import dataclasses
import gc
import glob
import json
import os
import shutil
import threading
import weakref

import numpy as np
import pandas as pd
import pytest

from repro.core.ctrie import CTrie
from repro.core.entity_classifier import LABELS
from repro.core.pipeline import EMDGlobalizer, FittedVariant, global_emd_cycle
from repro.eval.metrics import score_mentions
from repro.local_emd.np_chunker import NPChunker
from repro.session import recorded_process_starts
from repro.streaming.job import (
    MENTION_COLS,
    STREAM_SCHEMA,
    TRIGGER_PHASES,
    StreamingGlobalizer,
    write_stream_batches,
)
from repro.streams import generator as gen
from repro.streams.generator import TWEETS_SCHEMA


@pytest.fixture(scope="module")
def ds_small():
    return gen.generate("d1", scale=0.25)


def _thirds(ds) -> list:
    """``ds``'s tweets in three consecutive chunks."""
    per = -(-len(ds.tweets) // 3)
    return [ds.tweets.iloc[i : i + per] for i in range(0, len(ds.tweets), per)]


def _assert_same_state(ctrie_a, cb_a, ctrie_b, cb_b) -> None:
    """Equal CTrie keys and candidate tables, and bit-equal (sum, count)
    and category counts, which sum to each mention count."""
    assert ctrie_a.keys() == ctrie_b.keys()
    pd.testing.assert_frame_equal(cb_a.table(), cb_b.table(), check_exact=True)
    assert cb_a.keys() == cb_b.keys() and len(cb_a) > 0
    for a, b in ((cb_a.get(k), cb_b.get(k)) for k in cb_a.keys()):
        assert np.array_equal(a.emb_sum, b.emb_sum) and np.array_equal(a.counts, b.counts)
        assert a.counts.sum() == a.n_mentions


def _row_by_row_batches(dataset, out_dir: str, n_batches: int) -> list:
    """The micro-batch files as a per-row ``json.dumps`` loop writes them:
    the reference for ``write_stream_batches``'s files."""
    pdf = dataset.tweets.reset_index(drop=True)
    per = -(-len(pdf) // n_batches)
    paths = []
    for b in range(n_batches):
        path = os.path.join(out_dir, f"batch-{b:04d}.json")
        with open(path, "w") as f:
            for i, r in pdf.iloc[b * per : (b + 1) * per].iterrows():
                ts = pd.Timestamp("2020-03-01T00:00:00") + pd.Timedelta(seconds=i)
                row = {
                    "tweet_id": int(r.tweet_id), "sent_id": int(r.sent_id),
                    "topic": int(r.topic), "tokens": list(r.tokens), "ts": ts.isoformat(),
                }
                f.write(json.dumps(row) + "\n")
        paths.append(path)
    return paths


class UnpickleLoggingChunker(NPChunker):
    """NP Chunker that appends the pid of each process that unpickles it
    to the file ``log``. Module-level, because a broadcast pickles its
    value with ``pickle``, which refers to the class by name."""

    def __init__(self, log: str):
        super().__init__()
        self.log = log

    def __setstate__(self, state):
        self.__dict__.update(state)
        with open(self.log, "a") as f:
            f.write(f"{os.getpid()}\n")


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

    def test_files_read_as_the_row_by_row_writers(self, ds_small, tmp_path, spark):
        """Read back with ``STREAM_SCHEMA``, each file holds the ids,
        topics, tokens (non-ASCII ones included) and event times that
        the per-row writer gives the same file."""
        odd = ["Zürich", "東京", "naïve", "😷", "\\u00e9"]
        tokens = [
            t + [odd[i % 5]] if i % 7 == 0 else t
            for i, t in enumerate(ds_small.tweets["tokens"])
        ]
        ds = dataclasses.replace(ds_small, tweets=ds_small.tweets.assign(tokens=tokens))
        (tmp_path / "new").mkdir()
        (tmp_path / "old").mkdir()
        paths = write_stream_batches(ds, str(tmp_path / "new"), n_batches=3)
        expect = _row_by_row_batches(ds, str(tmp_path / "old"), 3)
        assert [os.path.basename(p) for p in paths] == [os.path.basename(p) for p in expect]
        for got, want in zip(paths, expect):
            a, b = (spark.read.schema(STREAM_SCHEMA).json(p).toPandas() for p in (got, want))
            assert len(a) > 0 and a["tokens"].map(len).sum() > 0
            pd.testing.assert_frame_equal(a, b, check_exact=True)
        read = spark.read.schema(STREAM_SCHEMA).json(str(tmp_path / "new")).toPandas()
        assert set(odd) <= {t for ts in read["tokens"] for t in ts}


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

    def test_partitioning_of_micro_batches_changes_nothing(
        self, spark, chunker_variant, aguilar_variant, ds_small
    ):
        """Three micro-batches of one partition and the same batches split
        into two partitions leave the same CTrie and candidate state,
        (sum, count) included, and emit the same mentions:
        ``process_batch`` runs each as one task whatever its partitions."""
        chunks = _thirds(ds_small)
        for variant in (chunker_variant, aguilar_variant):
            runs = []
            for n in (1, 2):
                sg = StreamingGlobalizer(variant)
                emitted = [
                    sg.process_batch(
                        spark, spark.createDataFrame(c, TWEETS_SCHEMA).repartition(n), b
                    ).mentions.sort_values(MENTION_COLS).reset_index(drop=True)
                    for b, c in enumerate(chunks)
                ]
                runs.append((sg, emitted))
            (sg1, out1), (sg2, out2) = runs
            _assert_same_state(sg1.ctrie, sg1.candidate_base, sg2.ctrie, sg2.candidate_base)
            for a, b in zip(out1, out2):
                pd.testing.assert_frame_equal(a, b, check_exact=True)
            assert sum(len(m) for m in out1) > 0

    def test_both_cycle_plans_agree_under_kept_state(
        self, spark, chunker_variant, aguilar_variant, ds_small
    ):
        """The one-job plan (one partition) and the two-job plan (two
        partitions) of ``global_emd_cycle``, run on three chunks against
        a kept CTrie and CandidateBase, leave the same state, (sum,
        count) included, and give each chunk the same final mentions."""
        chunks = _thirds(ds_small)
        for variant in (chunker_variant, aguilar_variant):
            runs = []
            for n in (1, 2):
                ctrie, cb = CTrie(), variant.candidate_base()
                finals = [
                    global_emd_cycle(
                        spark, variant.shipped(spark),
                        spark.createDataFrame(c, TWEETS_SCHEMA).repartition(n),
                        ctrie, cb, variant.classifier,
                    ).final_mentions
                    for c in chunks
                ]
                runs.append((ctrie, cb, finals))
            (ctrie1, cb1, out1), (ctrie2, cb2, out2) = runs
            _assert_same_state(ctrie1, cb1, ctrie2, cb2)
            for a, b in zip(out1, out2):
                pd.testing.assert_frame_equal(a, b, check_exact=True)
            assert sum(len(m) for m in out1) > 0

    def test_empty_batches_emit_nothing(self, spark, chunker_variant, aguilar_variant, ds_small):
        """An empty micro-batch runs the cycle, emits nothing and leaves
        the CTrie and every candidate's (sum, count), score and label as
        they were, before and after candidates exist."""
        empty = spark.createDataFrame([], STREAM_SCHEMA)
        for variant in (chunker_variant, aguilar_variant):
            sg = StreamingGlobalizer(variant)
            cb = sg.candidate_base
            for batch_id in (0, 2):
                keys, table = sg.ctrie.keys(), cb.table()
                sums = {k: (cb.get(k).emb_sum.copy(), cb.get(k).counts.copy()) for k in cb.keys()}
                out = sg.process_batch(spark, empty, batch_id)
                assert out.n_tweets == 0 and out.n_new_candidates == 0 and len(out.mentions) == 0
                assert sg.ctrie.keys() == keys
                pd.testing.assert_frame_equal(table, cb.table(), check_exact=True)
                assert cb.keys() == list(sums)
                for k, (emb_sum, counts) in sums.items():
                    assert np.array_equal(emb_sum, cb.get(k).emb_sum)
                    assert np.array_equal(counts, cb.get(k).counts)
                if batch_id == 0:
                    assert len(sg.ctrie) == 0 and len(cb) == 0
                    sg.process_batch(spark, ds_small.to_spark(spark), 1)
                    assert len(cb) > 0

    @pytest.mark.parametrize("variant", ["chunker_variant", "aguilar_variant"])
    def test_micro_batch_without_local_mentions(self, spark, request, variant):
        """A one-partition micro-batch in which Local EMD finds nothing
        (an empty sentence, one of tweet-special tokens) runs, counts its
        tweets and emits nothing."""
        pdf = pd.DataFrame(
            {"tweet_id": [1, 2], "sent_id": [0, 0], "topic": [0, 0],
             "tokens": [[], ["#Covid", "@Andy", "http://t.co/x"]]}
        )
        batch_df = spark.createDataFrame(pdf, TWEETS_SCHEMA).coalesce(1)
        sg = StreamingGlobalizer(request.getfixturevalue(variant))
        out = sg.process_batch(spark, batch_df, 0)
        assert out.n_tweets == 2 and len(out.mentions) == 0 and len(sg.ctrie) == 0

    @pytest.mark.parametrize("variant", ["chunker_variant", "aguilar_variant"])
    def test_one_file_micro_batch_is_one_spark_job(
        self, spark, request, variant, ds_small, tmp_path_factory
    ):
        """A micro-batch read from one file is read once, by the cycle's
        one Spark job, and its tweets are counted on the way."""
        td = tmp_path_factory.mktemp("one_job")
        (path,) = write_stream_batches(ds_small, str(td), n_batches=1)
        batch_df = spark.read.schema(STREAM_SCHEMA).json(path)
        sg = StreamingGlobalizer(request.getfixturevalue(variant))
        sc = spark.sparkContext
        group = f"micro-batch-jobs-{variant}"
        sc.setJobGroup(group, group)
        try:
            out = sg.process_batch(spark, batch_df, 0)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1
        assert out.n_tweets == len(ds_small.tweets) and len(out.mentions) > 0

    def test_micro_batches_leave_no_broadcast_files(
        self, spark, chunker_variant, ds_small, tmp_path
    ):
        """Each micro-batch destroys the CTrie broadcast its scan read:
        the driver's temporary directory, which holds a file per live
        broadcast, does not grow over 10 one-file micro-batches."""
        temp_dir = spark.sparkContext._temp_dir
        files = write_stream_batches(ds_small, str(tmp_path), n_batches=11)
        sg = StreamingGlobalizer(chunker_variant)
        for b, path in enumerate(files):
            sg.process_batch(spark, spark.read.schema(STREAM_SCHEMA).json(path), b)
            if b == 0:
                before = len(os.listdir(temp_dir))
        assert len(os.listdir(temp_dir)) <= before
        assert sum(len(o.mentions) for o in sg.outputs) > 0

    def test_label_counts_and_flips_of_each_batch(
        self, spark, chunker_variant, aguilar_variant, ds_small, tmp_path
    ):
        """On a three-file stream, each batch's label counts sum to the
        candidates known after it, and its label flips equal a recount
        from the candidate tables taken between batches."""
        files = write_stream_batches(ds_small, str(tmp_path), n_batches=3)
        for variant in (chunker_variant, aguilar_variant):
            sg = StreamingGlobalizer(variant)
            before, flips = sg.candidate_base.table(), 0
            for b, path in enumerate(files):
                out = sg.process_batch(spark, spark.read.schema(STREAM_SCHEMA).json(path), b)
                after = sg.candidate_base.table()
                assert tuple(out.label_counts) == LABELS
                assert sum(out.label_counts.values()) == len(sg.candidate_base) == len(after)
                assert out.label_counts == {l: int((after["label"] == l).sum()) for l in LABELS}
                both = before.merge(after, on="key", suffixes=("_before", ""))
                assert len(both) == len(before)
                assert out.label_flips == int((both["label_before"] != both["label"]).sum())
                before, flips = after, flips + out.label_flips
            assert flips > 0

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

    def test_queries_share_one_batch_thread_and_free_their_state(
        self, spark, chunker_variant, ds_small, tmp_path_factory
    ):
        """Consecutive queries run every ``process_batch`` on the same
        driver thread, and a globalizer dropped after its query returns
        is freed: the callback the JVM keeps does not hold it."""
        threads = []

        class ThreadRecording(StreamingGlobalizer):
            def process_batch(self, *args):
                threads.append(threading.get_ident())
                return super().process_batch(*args)

        for k in range(2):
            td = tmp_path_factory.mktemp(f"one_thread{k}")
            write_stream_batches(ds_small, str(td), n_batches=2)
            sg = ThreadRecording(chunker_variant)
            sg.run_file_stream(spark, str(td))
            assert len(sg.outputs) == 2
            state = weakref.ref(sg)
            del sg
            gc.collect()
            assert state() is None
        assert len(threads) == 4 and len(set(threads)) == 1

    def test_system_unpickled_at_most_once_per_worker(
        self, spark, chunker_variant, ds_small, tmp_path
    ):
        """A variant ships its system once: a batch cycle, two streams of
        four one-file micro-batches and three batch cycles on a cached
        4-partition frame (a tagging job, then the scan) hand their
        tasks the same broadcast, and no Python worker unpickles the
        system twice."""
        log = tmp_path / "unpickled-by"
        variant = FittedVariant(UnpickleLoggingChunker(str(log)), chunker_variant.classifier)
        shipped = []
        ship = variant.shipped
        variant.shipped = lambda s: shipped.append(ship(s)) or shipped[-1]
        EMDGlobalizer(variant).run(spark, ds_small.to_spark(spark).coalesce(1))
        for k in range(2):
            td = tmp_path / f"stream{k}"
            write_stream_batches(ds_small, str(td), n_batches=4)
            sg = StreamingGlobalizer(variant)
            sg.run_file_stream(spark, str(td))
            assert len(sg.outputs) == 4
        df = ds_small.to_spark(spark).repartition(4).cache()
        try:
            df.count()
            for _ in range(3):
                assert len(EMDGlobalizer(variant).run(spark, df).local_mentions) > 0
        finally:
            df.unpersist()
        assert len(shipped) == 12 and all(b is shipped[0] for b in shipped)
        pids = log.read_text().split()
        assert len(pids) > 0 and len(pids) == len(set(pids))

    def test_file_stream_timeout_stops_query(
        self, spark, chunker_variant, ds_small, tmp_path_factory
    ):
        """A stream that outlives its timeout raises, and its query is
        stopped rather than left advancing the state."""
        td = tmp_path_factory.mktemp("stream_timeout")
        write_stream_batches(ds_small, str(td), n_batches=2)
        sg = StreamingGlobalizer(chunker_variant)
        with pytest.raises(TimeoutError):
            sg.run_file_stream(spark, str(td), timeout_seconds=0)
        assert spark.streams.active == []

    def test_restarted_query_runs_only_new_files(
        self, spark, chunker_variant, ds_small, tmp_path
    ):
        """A query restarted on its directory resumes from its checkpoint:
        with no new file it runs no batch and leaves the state as it was;
        a fourth file then runs as batch 3 alone. Each batch of a query
        carries its trigger's phases, and the checkpoint holds one offset
        and one commit per batch and no temporary file."""
        held = tmp_path / "held"
        td = tmp_path / "stream"
        paths = write_stream_batches(ds_small, str(td), n_batches=4)
        held.mkdir()
        os.replace(paths[3], held / "late.json")
        sg = StreamingGlobalizer(chunker_variant)

        def run() -> list:
            first = len(sg.outputs)
            sg.run_file_stream(spark, str(td))
            return sg.outputs[first:]

        assert [o.batch_id for o in run()] == [0, 1, 2]
        ctrie, cb = copy.deepcopy(sg.ctrie), copy.deepcopy(sg.candidate_base)
        assert run() == []
        _assert_same_state(ctrie, cb, sg.ctrie, sg.candidate_base)
        os.replace(held / "late.json", paths[3])
        (late,) = run()
        assert late.batch_id == 3 and late.n_tweets > 0
        assert sum(o.n_tweets for o in sg.outputs) == len(ds_small.tweets)
        assert all(tuple(o.trigger_ms) == TRIGGER_PHASES for o in sg.outputs)
        ckpt = td / "_checkpoint"
        logs = {str(b) for b in range(4)} | {f".{b}.crc" for b in range(4)}
        for log in ("offsets", "commits", os.path.join("sources", "0")):
            assert set(os.listdir(ckpt / log)) == logs
        assert not [f for _, _, fs in os.walk(ckpt) for f in fs if "tmp" in f]

    @pytest.mark.skipif(
        not (shutil.which("jcmd") and shutil.which("jfr")),
        reason="needs the JDK's jcmd and jfr",
    )
    def test_triggers_start_no_readlink_process(
        self, spark, chunker_variant, ds_small, tmp_path
    ):
        """Writing a query's checkpoint logs starts no ``readlink``
        process and at most 7 processes a trigger on the query's stream
        thread (a ``chmod`` per log file and per checksum file, and per
        directory made). The driver JVM's process starts are recorded
        with Java Flight Recorder over a four-file stream."""
        td = tmp_path / "stream"
        write_stream_batches(ds_small, str(td), n_batches=4)
        sg = StreamingGlobalizer(chunker_variant)
        with recorded_process_starts(str(tmp_path / "starts.jfr")) as starts:
            sg.run_file_stream(spark, str(td))
        on_stream = [c for t, c in starts if t.startswith("stream execution thread")]
        assert len(sg.outputs) == 4
        assert "readlink" not in {c for _, c in starts}
        assert len(on_stream) <= 7 * len(sg.outputs)
