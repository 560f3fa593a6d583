"""Pure helpers of the benchmark: summaries, metric names, digests and
output checks.

Nothing here imports Spark, so the helpers can be tested on their own
(``python3 -m pytest perfbench``).
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
from dataclasses import dataclass

import pandas as pd

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Columns that identify one emitted mention: its span and candidate key.
MENTION_COLS = ["tweet_id", "sent_id", "start", "length", "key"]

# Percentiles a summary may report beyond the median, highest first, in
# tenths of a percent so that ranks are computed in exact integers.
_TAIL_PERMILLE = (999, 990, 900)


@dataclass(frozen=True)
class Summary:
    """Median of a sample, its highest supported tail percentile and size.

    ``tail_pct`` is the highest of p90/p99/p99.9 that has at least ten
    samples beyond it, or ``None`` when the sample is too small for any.
    """

    n: int
    median: float
    tail_pct: float | None
    tail: float | None


def summarize(values) -> Summary:
    """Summarise a non-empty sample of timings."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("cannot summarise an empty sample")
    n = len(vals)
    for permille in _TAIL_PERMILLE:
        # nearest rank: the smallest value with the percentile at or below it
        rank = -(-permille * n // 1000)
        if n - rank >= 10:
            return Summary(n, statistics.median(vals), permille / 10, vals[rank - 1])
    return Summary(n, statistics.median(vals), None, None)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``.

    A name starts with a letter or digit and has at most 64 letters,
    digits, ``_``, ``.`` and ``-``.
    """
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def result_line(
    correct: bool, attempted: int, failed: int, values: dict, units: dict
) -> str:
    """The one-line JSON result: every metric in ``units``, with its unit.

    ``values`` must hold exactly the names of ``units``, each a finite
    number; anything else raises ``ValueError`` so that a malformed
    result is never printed.
    """
    for name in units:
        check_metric_name(name)
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, extra {extra}")
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad op counts: attempted={attempted} failed={failed}")
    metrics = {}
    for name, unit in units.items():
        v = float(values[name])
        if not math.isfinite(v):
            raise ValueError(f"metric {name} is not finite: {v}")
        metrics[name] = {"value": v, "unit": unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def mention_digest(mentions: pd.DataFrame) -> str:
    """Order-independent SHA-256 of a set of emitted mentions."""
    rows = sorted(
        {
            (int(t), int(s), int(a), int(n), str(k))
            for t, s, a, n, k in mentions[MENTION_COLS].itertuples(index=False)
        }
    )
    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
    return h.hexdigest()


def _spans(df: pd.DataFrame) -> set:
    return set(map(tuple, df[MENTION_COLS].itertuples(index=False)))


def check_batch_output(
    final: pd.DataFrame,
    mined: pd.DataFrame,
    candidates: pd.DataFrame,
    local_f1: float,
    global_f1: float,
) -> list:
    """Problems with one batch cycle's output; empty when it is correct.

    Every final mention must be a mined mention of a candidate labelled
    entity, and Global EMD must beat Local EMD on F1 (paper Table III).
    """
    problems = []
    never_mined = _spans(final) - _spans(mined)
    if never_mined:
        problems.append(f"{len(never_mined)} final mentions were never mined")
    entity = set(candidates.loc[candidates["label"] == "entity", "key"])
    not_entity = set(final["key"]) - entity
    if not_entity:
        problems.append(f"{len(not_entity)} final keys are not labelled entity")
    if not global_f1 > local_f1:
        problems.append(f"global F1 {global_f1:.4f} <= local F1 {local_f1:.4f}")
    return problems


def check_stream_output(
    n_tweets_per_batch: list, mentions: pd.DataFrame, input_tweets: pd.DataFrame
) -> list:
    """Problems with one stream replay's output; empty when it is correct.

    The micro-batches must account for every input tweet exactly once by
    count, and every emitted mention must reference an input sentence.
    """
    problems = []
    if sum(n_tweets_per_batch) != len(input_tweets):
        problems.append(
            f"batches hold {sum(n_tweets_per_batch)} tweets, input has {len(input_tweets)}"
        )
    known = set(zip(input_tweets["tweet_id"], input_tweets["sent_id"]))
    emitted = set(zip(mentions["tweet_id"], mentions["sent_id"]))
    stray = emitted - known
    if stray:
        problems.append(f"{len(stray)} emitted mentions reference no input sentence")
    return problems
