"""Outside-in tracing of the EMD Globalizer layers.

The traced run re-issues the calls ``EMDGlobalizer.run`` and
``StreamingGlobalizer.process_batch`` make, one layer at a time, with a
span around each call. Spark is lazy, so a lazy layer's output is
materialised (``cache()`` + ``count()``, or ``toPandas()`` where the
pipeline collects it anyway) inside its own span; otherwise its work
would be billed to whichever later layer first forces it. The same
files also time the set-up sub-layers of ``build_variant`` by wrapping
the functions it calls, and count Spark jobs, stages and tasks per job
group through the status tracker. Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np
import pandas as pd

from repro.core import pipeline
from repro.core.candidate_base import CandidateBase
from repro.core.ctrie import CTrie
from repro.core.entity_classifier import (
    LABEL_AMBIG,
    LABEL_ENTITY,
    LABEL_NON,
    EntityClassifier,
)
from repro.core.global_embedding import global_embeddings
from repro.core.mention_extraction import collect_local_embeddings, extract_mentions
from repro.core.tweetbase import TweetBase
from repro.streaming.job import STREAM_SCHEMA

# Layer spans of one traced pass, in pipeline order.
LAYERS = (
    "local_emd.tag",
    "ctrie.build",
    "mention_extraction.mine",
    "mention_extraction.embed",
    "global_embedding.pool",
    "entity_classifier.classify",
    "pipeline.emit",
)

# Sub-layers of build_variant that traced_setup times.
SETUP_LAYERS = (
    "setup.fit",
    "setup.phrase_embedder",
    "setup.candidate_table",
    "setup.classifier_train",
)

# Counts a traced pass reports next to its layer seconds.
COUNTS = (
    "local_emd.mentions",
    "ctrie.keys",
    "mention_extraction.mined",
    "mention_extraction.embedded",
    "global_embedding.candidates",
    "entity_classifier.entity",
    "entity_classifier.ambiguous",
    "entity_classifier.non_entity",
    "pipeline.final_mentions",
)


class Tracer:
    """In-memory spans ``(name, parent, start, end)`` and their totals."""

    def __init__(self):
        self.spans: list = []
        self.seconds: dict = defaultdict(float)
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, parent, t0, t1))
            self.seconds[name] += t1 - t0

    def dump(self, path: str, t0: float) -> None:
        """Write the spans to ``path`` as JSON, times in seconds after ``t0``."""
        with open(path, "w") as f:
            json.dump(
                [
                    {"name": n, "parent": p, "start": a - t0, "end": b - t0}
                    for n, p, a, b in self.spans
                ],
                f,
            )

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed


@contextlib.contextmanager
def traced_setup(tracer: Tracer, system):
    """Time ``build_variant``'s sub-layers while the block runs.

    Wraps ``fit`` of the system's class, ``train_phrase_embedder``,
    ``candidate_table`` and ``EntityClassifier.train`` and restores all
    four on exit. The wrappers sit on classes and modules, never on the
    system object, which Spark ships to its workers.
    """
    cls = type(system)
    saved = (
        cls.__dict__.get("fit"),
        pipeline.train_phrase_embedder,
        pipeline.candidate_table,
        EntityClassifier.train,
    )
    cls.fit = tracer.wrap("setup.fit", cls.fit)
    pipeline.train_phrase_embedder = tracer.wrap(
        "setup.phrase_embedder", pipeline.train_phrase_embedder
    )
    pipeline.candidate_table = tracer.wrap("setup.candidate_table", pipeline.candidate_table)
    EntityClassifier.train = tracer.wrap("setup.classifier_train", EntityClassifier.train)
    try:
        yield
    finally:
        fit = saved[0]
        if fit is None:
            del cls.fit  # fit was inherited
        else:
            cls.fit = fit
        (
            _,
            pipeline.train_phrase_embedder,
            pipeline.candidate_table,
            EntityClassifier.train,
        ) = saved


def job_counts(sc, group: str) -> tuple:
    """``(jobs, stages, tasks)`` Spark ran under job group ``group``."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = tasks = 0
    for jid in jobs:
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        for sid in info.stageIds:
            st = tracker.getStageInfo(sid)
            # a stage whose shuffle output exists already is skipped: it is
            # listed in the job but completes no task, so it is not counted
            if st is not None and st.numCompletedTasks:
                stages += 1
                tasks += st.numCompletedTasks
    return len(jobs), stages, tasks


def _label_counts(labels) -> dict:
    labels = list(labels)
    return {
        "entity_classifier.entity": labels.count(LABEL_ENTITY),
        "entity_classifier.ambiguous": labels.count(LABEL_AMBIG),
        "entity_classifier.non_entity": labels.count(LABEL_NON),
    }


def traced_cycle(spark, variant, tweets_df, tracer: Tracer) -> tuple:
    """One full cycle as ``EMDGlobalizer.run`` performs it, layer by layer.

    Returns ``(final_mentions, counts)``.
    """
    v = variant
    with tracer.span("local_emd.tag"):
        local = v.system.tag(tweets_df).toPandas()
    with tracer.span("ctrie.build"):
        # the same seed filter EMDGlobalizer.run applies
        ctrie = CTrie(pipeline._seed_keys(local))
    with tracer.span("mention_extraction.mine"):
        mined_df = extract_mentions(spark, tweets_df, ctrie).cache()
        n_mined = mined_df.count()
    with tracer.span("mention_extraction.embed"):
        emb_df = collect_local_embeddings(
            spark, tweets_df, mined_df, v.system, v.phrase_embedder
        ).cache()
        n_embedded = emb_df.count()
    with tracer.span("global_embedding.pool"):
        gstats = (
            global_embeddings(emb_df).toPandas().sort_values("key").reset_index(drop=True)
        )
    with tracer.span("entity_classifier.classify"):
        labels = []
        if len(gstats):
            embs = np.stack(gstats["emb"].to_numpy()).astype(np.float32)
            scores = v.classifier.scores(embs, gstats["key"].tolist())
            labels = [v.classifier.bucket(float(p)) for p in scores]
        gstats["label"] = labels
    with tracer.span("pipeline.emit"):
        mined = mined_df.toPandas()
        entity_keys = set(gstats.loc[gstats["label"] == LABEL_ENTITY, "key"])
        final = mined[mined["key"].isin(entity_keys)].reset_index(drop=True)
    emb_df.unpersist()
    mined_df.unpersist()
    counts = {
        "local_emd.mentions": len(local),
        "ctrie.keys": len(ctrie),
        "mention_extraction.mined": n_mined,
        "mention_extraction.embedded": n_embedded,
        "global_embedding.candidates": len(gstats),
        **_label_counts(gstats["label"]),
        "pipeline.final_mentions": len(final),
    }
    return final, counts


def traced_replay(spark, variant, batch_paths: list, tracer: Tracer) -> tuple:
    """A stream replay as ``StreamingGlobalizer.process_batch`` performs it,
    one micro-batch file at a time and layer by layer.

    Returns ``(emitted_mentions, counts)``; layer seconds and counts are
    summed over micro-batches, state sizes are taken at the end.
    """
    v = variant
    ctrie = CTrie()
    cb = CandidateBase(v.emb_dim)
    tweet_base = TweetBase()
    counts = defaultdict(int)
    emitted = []
    for path in batch_paths:
        batch_df = (
            spark.read.schema(STREAM_SCHEMA)
            .json(path)
            .select("tweet_id", "sent_id", "topic", "tokens")
            .cache()
        )
        batch_df.count()
        for r in batch_df.select("tweet_id", "sent_id", "tokens").collect():
            tweet_base.add_sentence(r.tweet_id, r.sent_id, list(r.tokens))
        with tracer.span("local_emd.tag"):
            local = v.system.tag(batch_df).toPandas()
        counts["local_emd.mentions"] += len(local)
        with tracer.span("ctrie.build"):
            for key in sorted(set(local["key"])):
                if 1 <= len(key.split(" ")) <= pipeline.MAX_CANDIDATE_TOKENS:
                    ctrie.insert(key)
        if len(ctrie) == 0:
            batch_df.unpersist()
            continue
        with tracer.span("mention_extraction.mine"):
            mined_df = extract_mentions(spark, batch_df, ctrie).cache()
            counts["mention_extraction.mined"] += mined_df.count()
        with tracer.span("mention_extraction.embed"):
            embs = collect_local_embeddings(
                spark, batch_df, mined_df, v.system, v.phrase_embedder
            ).toPandas()
        counts["mention_extraction.embedded"] += len(embs)
        with tracer.span("global_embedding.pool"):
            for r in embs.itertuples():
                cb.add_mention(r.key, np.asarray(r.emb, dtype=np.float64))
                tweet_base.record_mention(r.tweet_id, r.sent_id, r.start, r.length, r.key)
        with tracer.span("entity_classifier.classify"):
            cb.classify_all(v.classifier)
        with tracer.span("pipeline.emit"):
            entity_keys = cb.entity_keys()
            emitted.append(embs[embs["key"].isin(entity_keys)])
        mined_df.unpersist()
        batch_df.unpersist()
    mentions = pd.concat(emitted, ignore_index=True) if emitted else pd.DataFrame(
        columns=["tweet_id", "sent_id", "start", "length", "key"]
    )
    counts["ctrie.keys"] = len(ctrie)
    counts["global_embedding.candidates"] = len(cb)
    counts.update(_label_counts(cb.get(k).label for k in cb.keys()))
    counts["pipeline.final_mentions"] = len(mentions)
    return mentions, dict(counts)
