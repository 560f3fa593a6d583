"""Shared interface and surface featurization for Local EMD systems.

A Local EMD system, per Section IV, is any algorithm that processes one
tweet-sentence at a time and emits likely entity mentions (BIO spans).
Deep systems additionally expose token-level 'entity-aware' embeddings
from their penultimate layer. Both capabilities are defined here so the
Global EMD pipeline can treat every instantiation as a black box.

Tagging runs as Spark ``mapInPandas`` over tweet partitions: the fitted
system (numpy weights + vocab dicts) is captured in the closure, shipped
once per executor, and tags each sentence of a partition in turn with
``tag_sentence``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

__all__ = [
    "MENTIONS_SCHEMA",
    "LocalEMDSystem",
    "mentions_frame",
    "surface_features",
    "spans_to_bio",
    "bio_to_spans",
    "is_special",
    "sentence_nondiscriminative",
    "N_SURFACE_FEATURES",
]

MENTIONS_SCHEMA = T.StructType(
    [
        T.StructField("tweet_id", T.LongType(), False),
        T.StructField("sent_id", T.IntegerType(), False),
        T.StructField("start", T.IntegerType(), False),
        T.StructField("length", T.IntegerType(), False),
        T.StructField("key", T.StringType(), False),
        T.StructField("surface", T.StringType(), False),
    ]
)

N_SURFACE_FEATURES = 9


def is_special(tok: str) -> bool:
    """Tweet-specific tokens (hashtags, handles, URLs) — every system in
    the paper carries tweet-sensitive features that exclude these."""
    return tok.startswith(("#", "@", "http"))


def _cap_initial(tok: str) -> bool:
    return len(tok) > 0 and tok[0].isupper() and not (len(tok) > 1 and tok.isupper())


def _allcaps(tok: str) -> bool:
    return len(tok) > 1 and tok.isupper()


def sentence_nondiscriminative(tokens: list) -> bool:
    """Category-6 check (Sec V-B-1): casing carries no information when
    the whole sentence is upper, lower, or first-char-capitalized."""
    alpha = [t for t in tokens if not is_special(t) and t]
    if not alpha:
        return True
    return (
        all(t.isupper() for t in alpha)
        or all(t.islower() for t in alpha)
        or all(t[0].isupper() for t in alpha)
    )


def surface_features(tokens: list) -> np.ndarray:
    """Per-token orthographic features, ``(n, N_SURFACE_FEATURES)``:

    0 cap-initial, 1 all-caps, 2 lowercase, 3 special(#/@/url),
    4 sentence-start, 5 sentence-nondiscriminative, 6 long-word(len>=8),
    7 prev-token-capitalized, 8 next-token-capitalized.
    """
    n = len(tokens)
    f = np.zeros((n, N_SURFACE_FEATURES), dtype=np.float32)
    nondisc = sentence_nondiscriminative(tokens)
    caps = [(_cap_initial(t) or _allcaps(t)) for t in tokens]
    for i, t in enumerate(tokens):
        f[i, 0] = _cap_initial(t)
        f[i, 1] = _allcaps(t)
        f[i, 2] = t.islower()
        f[i, 3] = is_special(t)
        f[i, 4] = i == 0
        f[i, 5] = nondisc
        f[i, 6] = len(t) >= 8
        f[i, 7] = caps[i - 1] if i > 0 else 0.0
        f[i, 8] = caps[i + 1] if i < n - 1 else 0.0
    return f


def spans_to_bio(n: int, spans: list) -> np.ndarray:
    """Gold ``(start, length)`` spans -> integer BIO tags (0=O,1=B,2=I)."""
    tags = np.zeros(n, dtype=np.int64)
    for start, length in spans:
        tags[start] = 1
        tags[start + 1 : start + length] = 2
    return tags


def bio_to_spans(tags: np.ndarray) -> list:
    """Integer BIO tags -> ``(start, length)`` spans. An orphan I (no
    preceding B) opens a new span — the usual lenient decode."""
    spans = []
    start = None
    for i, t in enumerate(tags):
        if t == 1 or (t == 2 and start is None):
            if start is not None:
                spans.append((start, i - start))
            start = i
        elif t == 0:
            if start is not None:
                spans.append((start, i - start))
                start = None
    if start is not None:
        spans.append((start, len(tags) - start))
    return spans


def mentions_frame(tweets: pd.DataFrame, tag_sentence) -> pd.DataFrame:
    """Mention rows (``MENTIONS_SCHEMA`` columns) of every span that
    ``tag_sentence(tokens, tweet_id, sent_id)`` returns for a pandas
    chunk of tweets. Spans touching a tweet-special token are dropped;
    ``key`` is the lowercased surface."""
    rows = []
    for tweet_id, sent_id, toks in zip(
        tweets["tweet_id"], tweets["sent_id"], tweets["tokens"]
    ):
        toks = list(toks)
        for start, length in tag_sentence(toks, int(tweet_id), int(sent_id)):
            span = toks[start : start + length]
            if any(is_special(t) for t in span):
                continue
            rows.append(
                (
                    int(tweet_id),
                    int(sent_id),
                    int(start),
                    int(length),
                    " ".join(t.lower() for t in span),
                    " ".join(span),
                )
            )
    return pd.DataFrame(
        rows, columns=["tweet_id", "sent_id", "start", "length", "key", "surface"]
    )


class LocalEMDSystem:
    """Base class: fitted systems are picklable and Spark-broadcastable."""

    name: str = "base"
    is_deep: bool = False
    embedding_dim: int | None = None  # penultimate width for deep systems

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        """Train on the (synthetic) WNUT17-train stand-in. Rule-based
        systems override with a no-op."""
        raise NotImplementedError

    def tag_sentence(self, tokens: list, tweet_id: int, sent_id: int) -> list:
        """Tag one sentence; return ``(start, length)`` spans."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def tag_pandas(self, tweets: pd.DataFrame) -> pd.DataFrame:
        """Tag a pandas chunk of tweets -> mentions frame."""
        return mentions_frame(tweets, self.tag_sentence)

    def tag(self, tweets_df: DataFrame) -> DataFrame:
        """Distributed tagging: mapInPandas over tweet partitions."""
        system = self

        def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            for pdf in batches:
                yield system.tag_pandas(pdf)

        return tweets_df.mapInPandas(run, schema=MENTIONS_SCHEMA)

    # -- deep-system extension points ----------------------------------
    def entity_aware_embeddings(
        self, tokens: list, tweet_id: int, sent_id: int
    ) -> np.ndarray:
        """Penultimate-layer embeddings for every token of a sentence
        (deep systems only)."""
        raise NotImplementedError(f"{self.name} is not a deep EMD system")
