"""Synthetic microblog corpora mirroring the paper's Table I datasets.

The paper evaluates on crawled Twitter streams (D1–D4), a 38K-tweet
training stream (D5), and two non-streaming benchmarks (WNUT17, BTC).
None of these can be fetched offline, so this module generates
pseudo-English corpora that reproduce the property Global EMD exploits:

- **streaming** datasets are topical — a small entity pool is repeated
  under Zipf popularity, each mention rendered in a sampled
  capitalization variant inside a fresh noisy context;
- **non-streaming** datasets are random samples — a large entity pool
  means candidates rarely recur, so collective evidence is thin.

Every dataset carries gold mention spans (token offsets) for scoring.
Generation is deterministic in the dataset seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.local_emd.base import is_special
from repro.streams import vocab as V

__all__ = ["TweetDataset", "generate", "DATASET_SPECS", "dataset_slices"]

TWEETS_SCHEMA = T.StructType(
    [
        T.StructField("tweet_id", T.LongType(), False),
        T.StructField("sent_id", T.IntegerType(), False),
        T.StructField("topic", T.IntegerType(), False),
        T.StructField("tokens", T.ArrayType(T.StringType()), False),
    ]
)


@dataclass
class TweetDataset:
    """One generated corpus: tweets plus gold mention annotations."""

    name: str
    streaming: bool
    tweets: pd.DataFrame  # tweet_id, sent_id, topic, tokens(list[str])
    gold: pd.DataFrame  # tweet_id, sent_id, start, length, eid, key, surface, variant
    entity_pool: list  # the V.Entity objects this dataset draws from

    def to_spark(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.tweets, schema=TWEETS_SCHEMA)

    def stats(self) -> dict:
        """Table I row: size, #topics, #hashtags, #entities (mentioned)."""
        hashtags = {
            t for toks in self.tweets["tokens"] for t in toks if t.startswith("#")
        }
        return {
            "dataset": self.name,
            "size": int(len(self.tweets)),
            "n_topics": int(self.tweets["topic"].nunique()),
            "n_hashtags": len(hashtags),
            "n_entities": int(self.gold["eid"].nunique()),
            "n_mentions": int(len(self.gold)),
        }


# name -> (n_tweets, n_topics, entity_pool_size, zipf_alpha, streaming, seed,
#          emphasis-capitalization rate of noise words)
# Sizes follow Table I where legible (see DESIGN.md §6 for the OCR fixes).
# The tagger-training corpus ("wnut17_train") is *cleaner* (lower
# emphasis-cap rate) than the targeted streams: the paper's Local EMD
# systems were trained on WNUT17 and then applied to topical streams,
# and this train->stream domain shift is exactly why their precision
# degrades there (e.g. TwitterNLP P=0.33 on the Covid stream D2).
DATASET_SPECS: dict = {
    "d1": dict(n_tweets=1000, n_topics=2, pool=283, alpha=1.05, streaming=True, seed=11, emphasis=0.12),
    "d2": dict(n_tweets=2000, n_topics=4, pool=906, alpha=1.05, streaming=True, seed=12, emphasis=0.14),
    "d3": dict(n_tweets=3000, n_topics=3, pool=600, alpha=1.05, streaming=True, seed=13, emphasis=0.10),
    "d4": dict(n_tweets=6000, n_topics=5, pool=674, alpha=1.05, streaming=True, seed=14, emphasis=0.12),
    "d5": dict(n_tweets=38000, n_topics=6, pool=7000, alpha=1.02, streaming=True, seed=15, emphasis=0.12),
    # non-streaming: random samples still repeat head entities a few
    # times (WNUT17/BTC are not entity-disjoint across tweets), but far
    # less than targeted streams; benchmark text is also cleaner
    "wnut17": dict(n_tweets=1287, n_topics=40, pool=950, alpha=0.8, streaming=False, seed=16, emphasis=0.06),
    "btc": dict(n_tweets=9553, n_topics=60, pool=3000, alpha=0.45, streaming=False, seed=17, emphasis=0.06),
    # training corpus for the simulated EMD taggers (stand-in for the
    # WNUT17 train split the paper's systems were trained/fine-tuned on)
    "wnut17_train": dict(n_tweets=3000, n_topics=40, pool=2000, alpha=0.3, streaming=False, seed=18, emphasis=0.05),
}


def dataset_slices(vocabulary: V.Vocabulary) -> dict:
    """Assign each dataset a contiguous slice of the entity inventory.

    Slices are disjoint so that, e.g., tagger-training entities are not
    the test-stream entities — generalization must come from shared
    structure (familiarity direction, casing), as in the paper.
    """
    slices = {}
    offset = 0
    for name, spec in DATASET_SPECS.items():
        pool = vocabulary.entities[offset : offset + spec["pool"]]
        if len(pool) < spec["pool"]:
            raise ValueError(
                f"entity inventory too small for {name}: need {spec['pool']}"
            )
        slices[name] = pool
        offset += spec["pool"]
    return slices


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** alpha
    return w / w.sum()


def _apply_sentence_casing(tokens: list, casing: str) -> list:
    """Tweet-level non-discriminative casing (Sec V-B-1 category 6)."""
    if casing == "allcaps":
        return [t if is_special(t) else t.upper() for t in tokens]
    if casing == "lower":
        return [t if is_special(t) else t.lower() for t in tokens]
    if casing == "title":
        return [t if is_special(t) else t.capitalize() for t in tokens]
    return tokens


def generate(
    name: str,
    vocabulary: V.Vocabulary | None = None,
    *,
    scale: float = 1.0,
) -> TweetDataset:
    """Generate one named dataset. ``scale`` < 1 shrinks tweet counts for
    unit tests while preserving every distributional property."""
    if vocabulary is None:
        vocabulary = default_vocabulary()
    spec = DATASET_SPECS[name]
    pool = dataset_slices(vocabulary)[name]
    rng = np.random.default_rng(spec["seed"])
    n_tweets = max(20, int(spec["n_tweets"] * scale))
    n_topics = spec["n_topics"]
    streaming = spec["streaming"]
    emphasis = spec.get("emphasis", 0.12)

    # split the pool into per-topic subpools (round-robin)
    topic_pools: list = [[] for _ in range(n_topics)]
    for i, e in enumerate(pool):
        topic_pools[i % n_topics].append(e)
    topic_weights = _zipf_weights(n_topics, 0.6)
    pool_weights = [_zipf_weights(len(tp), spec["alpha"]) for tp in topic_pools]

    if streaming:
        mention_counts, mention_p = [1, 2, 3], [0.45, 0.40, 0.15]
    else:
        mention_counts, mention_p = [0, 1, 2], [0.25, 0.55, 0.20]

    tweet_rows = []
    gold_rows = []
    for tweet_id in range(n_tweets):
        topic = int(rng.choice(n_topics, p=topic_weights))
        tp, tw = topic_pools[topic], pool_weights[topic]
        n_noise = int(rng.integers(6, 16))
        noise_idx = rng.choice(
            len(vocabulary.common_words), size=n_noise, p=vocabulary.common_weights
        )
        items: list = [("w", vocabulary.common_words[i]) for i in noise_idx]
        # decorations
        if rng.random() < 0.45:
            for _ in range(int(rng.integers(1, 3))):
                items.append(("w", vocabulary.hashtag_words[rng.integers(len(vocabulary.hashtag_words))]))
        if rng.random() < 0.25:
            items.insert(0, ("w", vocabulary.user_handles[rng.integers(len(vocabulary.user_handles))]))
        if rng.random() < 0.15:
            items.append(("w", "http://t.co/" + V.ONSETS[rng.integers(len(V.ONSETS))]))
        # entity mentions
        n_m = int(rng.choice(mention_counts, p=mention_p))
        for _ in range(n_m):
            e = tp[int(rng.choice(len(tp), p=tw))]
            pos = int(rng.integers(0, len(items) + 1))
            items.insert(pos, ("m", e))
        # tweet-level casing
        u = rng.random()
        casing = "none"
        if u < 0.05:
            casing = "allcaps"
        elif u < 0.09:
            casing = "lower"
        elif u < 0.11:
            casing = "title"

        tokens: list = []
        spans: list = []
        for kind, payload in items:
            if kind == "w":
                w = payload
                if not is_special(w):
                    if w in (vocabulary.titlecase_words or ()) and rng.random() < 0.7:
                        w = w.capitalize()  # 'Monday'-type conventional caps
                    elif len(tokens) == 0 and rng.random() < 0.8:
                        w = w.capitalize()  # sentence-start convention
                    elif rng.random() < emphasis:
                        # random emphasis — Twitter text capitalizes freely
                        # (titles, "So Proud", etc.), the main FP source that
                        # keeps capitalization from being a clean entity signal
                        w = w.capitalize()
                tokens.append(w)
            else:
                e = payload
                variant = V.sample_variant(rng, len(e.tokens))
                rendered = V.render_mention(e.tokens, variant, rng)
                start = len(tokens)
                tokens.extend(rendered)
                spans.append((start, len(e.tokens), e, variant))
        final_tokens = _apply_sentence_casing(tokens, casing)
        tweet_rows.append((tweet_id, 0, topic, final_tokens))
        for start, length, e, variant in spans:
            surface = " ".join(final_tokens[start : start + length])
            eff_variant = variant if casing == "none" else "nondiscriminative"
            gold_rows.append(
                (tweet_id, 0, start, length, e.eid, e.key, surface, eff_variant)
            )

    tweets = pd.DataFrame(
        tweet_rows, columns=["tweet_id", "sent_id", "topic", "tokens"]
    )
    gold = pd.DataFrame(
        gold_rows,
        columns=["tweet_id", "sent_id", "start", "length", "eid", "key", "surface", "variant"],
    )
    return TweetDataset(name, streaming, tweets, gold, pool)


_DEFAULT_VOCAB: V.Vocabulary | None = None


def default_vocabulary() -> V.Vocabulary:
    """The shared vocabulary, sized so every Table I slice fits; cached
    because entity-inventory construction is the slow part."""
    global _DEFAULT_VOCAB
    if _DEFAULT_VOCAB is None:
        need = sum(s["pool"] for s in DATASET_SPECS.values())
        _DEFAULT_VOCAB = V.build_vocabulary(n_entities=need, seed=7)
    return _DEFAULT_VOCAB
