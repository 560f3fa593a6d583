"""TweetBase (Section IV): per-sentence record store.

Maintains an individual record for every tweet-sentence, indexed by
``(tweet_id, sent_id)``, with the list of detected mentions. In the
Spark pipeline, batch and streaming alike, the same information lives
in DataFrames and no pipeline code reads or writes this store; it
mirrors the paper's data-structure inventory for inspection and tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TweetBase", "SentenceRecord"]


@dataclass
class SentenceRecord:
    """One tweet-sentence and its evolving mention list."""

    tweet_id: int
    sent_id: int
    tokens: list
    mentions: list = field(default_factory=list)  # (start, length, key)


class TweetBase:
    """Keyed store of :class:`SentenceRecord`."""

    def __init__(self):
        self._records: dict = {}

    def __len__(self) -> int:
        return len(self._records)

    def add_sentence(self, tweet_id: int, sent_id: int, tokens: list) -> SentenceRecord:
        rec = SentenceRecord(tweet_id, sent_id, list(tokens))
        self._records[(tweet_id, sent_id)] = rec
        return rec

    def get(self, tweet_id: int, sent_id: int) -> SentenceRecord:
        return self._records[(tweet_id, sent_id)]

    def record_mention(
        self, tweet_id: int, sent_id: int, start: int, length: int, key: str
    ) -> None:
        self._records[(tweet_id, sent_id)].mentions.append((start, length, key))

    def all_mentions(self) -> list:
        """Flat ``(tweet_id, sent_id, start, length, key)`` list."""
        return [
            (r.tweet_id, r.sent_id, s, l, k)
            for r in self._records.values()
            for (s, l, k) in r.mentions
        ]
