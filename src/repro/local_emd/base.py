"""Shared interface and surface featurization for Local EMD systems.

A Local EMD system, per Section IV, is any algorithm that processes one
tweet-sentence at a time and emits likely entity mentions (BIO spans).
Deep systems additionally expose token-level 'entity-aware' embeddings
from their penultimate layer. Both capabilities are defined here so the
Global EMD pipeline can treat every instantiation as a black box.

A system's one interface is a chunk of sentences (``Sentences``: every
token of the chunk in one flat list, with sentence offsets), because the
features of all its tokens can then be built with array operations:
``tag_chunk`` gives the spans of every sentence of a chunk and, for deep
systems, the activations of every token; ``activations`` gives those
activations alone. A single sentence is a chunk of one.

``LocalEMDSystem.tag`` runs tagging as a Spark ``mapInArrow`` job over
tweet partitions (``tag_batches``: one ``tag_chunk`` per Arrow record
batch) with the fitted system in the job's closure, which is pickled
into the job and unpickled by each of its tasks. A Global EMD cycle
runs the same task function on the system its variant broadcast once
(``repro.core.mention_extraction``).
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import types as T
from pyspark.sql.pandas.types import to_arrow_schema

__all__ = [
    "MENTIONS_SCHEMA",
    "SPAN_COLS",
    "LocalEMDSystem",
    "Sentences",
    "Spans",
    "mention_columns",
    "tag_batches",
    "surface_features",
    "spans_to_bio",
    "bio_spans",
    "is_special",
    "sentence_nondiscriminative",
    "N_SURFACE_FEATURES",
    "CORPUS_CHUNK",
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

# a mention's position; no two mentions share one
SPAN_COLS = ["tweet_id", "sent_id", "start", "length"]

N_SURFACE_FEATURES = 9

# sentences per chunk where a whole corpus is featurised on the driver
# (a tagger's training set, the phrase embedder's inputs): bounds the
# float64 activations held at once to a few MB
CORPUS_CHUNK = 128


class Sentences:
    """A chunk of tweet-sentences: every token in one flat list.

    Sentence ``i`` is ``tokens[offsets[i]:offsets[i + 1]]``, sentence
    ``sent_ids[i]`` of tweet ``tweet_ids[i]``. The per-token arrays
    (lowercased tokens, sentence index, position) are built on first
    use.
    """

    def __init__(self, tokens: list, offsets, tweet_ids, sent_ids):
        self.tokens = tokens
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.tweet_ids = np.asarray(tweet_ids, dtype=np.int64)
        self.sent_ids = np.asarray(sent_ids, dtype=np.int64)

    @classmethod
    def of(cls, sentences, tweet_ids, sent_ids) -> "Sentences":
        """A chunk of token sequences with their coordinates."""
        sentences = [list(s) for s in sentences]
        offsets = np.zeros(len(sentences) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in sentences], out=offsets[1:])
        return cls([t for s in sentences for t in s], offsets, tweet_ids, sent_ids)

    @classmethod
    def from_frame(cls, tweets: pd.DataFrame) -> "Sentences":
        """The sentences of a pandas frame of tweets."""
        return cls.of(tweets["tokens"], tweets["tweet_id"], tweets["sent_id"])

    @classmethod
    def from_arrow(cls, batch: pa.RecordBatch) -> "Sentences":
        """The sentences of an Arrow record batch of tweets."""
        toks = batch.column("tokens")
        offsets = np.asarray(toks.offsets, dtype=np.int64)
        return cls(
            toks.flatten().to_numpy(zero_copy_only=False).tolist(),
            offsets - offsets[0],
            batch.column("tweet_id").to_numpy(),
            batch.column("sent_id").to_numpy(),
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def sentence(self, i: int) -> list:
        return self.tokens[self.offsets[i] : self.offsets[i + 1]]

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def lowered(self) -> list:
        return [t.lower() for t in self.tokens]

    @cached_property
    def sentence_index(self) -> np.ndarray:
        """The sentence of each token."""
        return np.repeat(np.arange(len(self)), self.lengths)

    @cached_property
    def positions(self) -> np.ndarray:
        """Each token's position in its sentence."""
        return np.arange(len(self.tokens)) - self.offsets[self.sentence_index]

    @cached_property
    def is_last(self) -> np.ndarray:
        """Whether each token ends its sentence."""
        return self.positions == self.lengths[self.sentence_index] - 1


class Spans(NamedTuple):
    """``(start, length)`` spans of the sentences of a chunk: span ``k``
    starts at token ``start[k]`` of sentence ``sentence[k]``."""

    sentence: np.ndarray
    start: np.ndarray
    length: np.ndarray

    @staticmethod
    def of(triples: list) -> "Spans":
        """Spans from ``(sentence, start, length)`` triples."""
        a = np.array(triples, dtype=np.int64).reshape(-1, 3)
        return Spans(a[:, 0], a[:, 1], a[:, 2])


_SPECIAL_PREFIXES = ("#", "@", "http")


def is_special(tok: str) -> bool:
    """Tweet-specific tokens (hashtags, handles, URLs) — every system in
    the paper carries tweet-sensitive features that exclude these."""
    return tok.startswith(_SPECIAL_PREFIXES)


def sentence_nondiscriminative(tokens: list) -> bool:
    """Category-6 check (Sec V-B-1): casing carries no information when
    the whole sentence is upper, lower, or first-char-capitalized."""
    alpha = [t for t in tokens if t and not t.startswith(_SPECIAL_PREFIXES)]
    if not alpha:
        return True
    return (
        all(map(str.isupper, alpha))
        or all(map(str.islower, alpha))
        or all(t[0].isupper() for t in alpha)
    )


def surface_features(tokens: list, offsets) -> np.ndarray:
    """Per-token orthographic features, ``(n, N_SURFACE_FEATURES)``, of
    the sentences ``tokens[offsets[i]:offsets[i + 1]]``:

    0 cap-initial, 1 all-caps, 2 lowercase, 3 special(#/@/url),
    4 sentence-start, 5 sentence-nondiscriminative, 6 long-word(len>=8),
    7 prev-token-capitalized, 8 next-token-capitalized (neither crosses
    a sentence boundary).
    """
    n = len(tokens)
    offsets = np.asarray(offsets)
    lengths = np.diff(offsets)
    size = np.fromiter(map(len, tokens), np.intp, n)
    allcaps = np.fromiter(map(str.isupper, tokens), bool, n) & (size > 1)
    cap_initial = np.fromiter((t[:1].isupper() for t in tokens), bool, n) & ~allcaps
    caps = cap_initial | allcaps
    first = np.zeros(n, dtype=bool)
    first[offsets[:-1][lengths > 0]] = True
    last = np.zeros(n, dtype=bool)
    last[offsets[1:][lengths > 0] - 1] = True
    bounds = offsets.tolist()
    nondisc = [sentence_nondiscriminative(tokens[a:b]) for a, b in zip(bounds, bounds[1:])]
    f = np.zeros((n, N_SURFACE_FEATURES), dtype=np.float32)
    f[:, 0] = cap_initial
    f[:, 1] = allcaps
    f[:, 2] = np.fromiter(map(str.islower, tokens), bool, n)
    f[:, 3] = np.fromiter(map(is_special, tokens), bool, n)
    f[:, 4] = first
    f[:, 5] = np.repeat(np.array(nondisc, dtype=bool), lengths)
    f[:, 6] = size >= 8
    f[1:, 7] = caps[:-1] & ~first[1:]
    f[:-1, 8] = caps[1:] & ~last[:-1]
    return f


def spans_to_bio(n: int, spans: list) -> np.ndarray:
    """Gold ``(start, length)`` spans -> integer BIO tags (0=O,1=B,2=I)."""
    tags = np.zeros(n, dtype=np.int64)
    for start, length in spans:
        tags[start] = 1
        tags[start + 1 : start + length] = 2
    return tags


def bio_spans(tags: np.ndarray, offsets) -> Spans:
    """The spans of the integer BIO tags of a chunk's tokens, whose
    sentence ``i`` is ``tags[offsets[i]:offsets[i + 1]]``. A span opens
    at a B, or at an I that starts its sentence or follows an O (an
    orphan I, the usual lenient decode); it runs over the I tags that
    follow it in its sentence."""
    tags = np.asarray(tags)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    first = np.zeros(len(tags), dtype=bool)
    first[offsets[:-1][lengths > 0]] = True
    after_o = np.ones(len(tags), dtype=bool)
    after_o[1:] = tags[:-1] == 0
    opens = (tags == 1) | ((tags == 2) & (first | after_o))
    at = np.flatnonzero(opens)
    span_of = np.cumsum(opens) - 1
    length = np.bincount(span_of[tags != 0], minlength=len(at))
    sentence = np.repeat(np.arange(len(lengths)), lengths)[at]
    return Spans(sentence, at - offsets[sentence], length)


def mention_columns(sents: Sentences, spans: Spans) -> dict:
    """``MENTIONS_SCHEMA`` columns of the ``spans`` of the chunk
    ``sents``. Spans touching a tweet-special token are dropped; ``key``
    is the lowercased surface."""
    keep, keys, surfaces = [], [], []
    first = sents.offsets[spans.sentence] + spans.start
    for k, (a, n) in enumerate(zip(first.tolist(), spans.length.tolist())):
        span = sents.tokens[a : a + n]
        if any(map(is_special, span)):
            continue
        keep.append(k)
        keys.append(" ".join(t.lower() for t in span))
        surfaces.append(" ".join(span))
    keep = np.array(keep, dtype=np.intp)
    s = spans.sentence[keep]
    return {
        "tweet_id": sents.tweet_ids[s],
        "sent_id": sents.sent_ids[s],
        "start": spans.start[keep],
        "length": spans.length[keep],
        "key": keys,
        "surface": surfaces,
    }


_MENTIONS_ARROW = to_arrow_schema(MENTIONS_SCHEMA)


def tag_batches(system, batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
    """``MENTIONS_SCHEMA`` record batches of the Local EMD mentions of
    Arrow record batches of tweets, one ``tag_chunk`` per batch: the
    task of a ``mapInArrow`` tagging job."""
    for batch in batches:
        sents = Sentences.from_arrow(batch)
        cols = mention_columns(sents, system.tag_chunk(sents)[0])
        yield pa.record_batch(
            [pa.array(cols[f.name], f.type) for f in _MENTIONS_ARROW],
            schema=_MENTIONS_ARROW,
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

    def tag_chunk(self, sents: Sentences) -> tuple:
        """``(spans, activations)`` of a chunk: the ``Spans`` of every
        sentence and, for deep systems, the float32 entity-aware
        embeddings of every token from the same forward pass (``None``
        for the others)."""
        raise NotImplementedError

    def tag(self, tweets_df: DataFrame) -> DataFrame:
        """Distributed tagging: ``tag_batches`` as ``mapInArrow`` over
        tweet partitions, with this system in the job's closure."""
        system = self
        return tweets_df.mapInArrow(
            lambda batches: tag_batches(system, batches), schema=MENTIONS_SCHEMA
        )

    def activations(self, sents: Sentences) -> np.ndarray:
        """Penultimate-layer embeddings (float32) of every token of a
        chunk (deep systems only)."""
        raise NotImplementedError(f"{self.name} is not a deep EMD system")
