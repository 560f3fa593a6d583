"""CandidateBase (Section V-C): incremental per-candidate state.

Maintains, for every entity candidate, the running (sum, count) of its
local mention embeddings — so the pooled global embedding "can be
incrementally updated by adding local embeddings into the pool as and
when new mentions arrive" — plus the latest classifier verdict. It is
the only code that pools embeddings: one Global EMD cycle
(``repro.core.pipeline.global_emd_cycle``) adds a whole batch of
mentions with :meth:`CandidateBase.add_mentions`, into a fresh base in
batch mode and into the kept base of a stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.entity_classifier import EntityClassifier, LABEL_AMBIG, LABEL_ENTITY

__all__ = ["CandidateBase", "CandidateRecord"]


@dataclass
class CandidateRecord:
    """Running pooled state for one candidate key."""

    key: str
    emb_sum: np.ndarray
    n_mentions: int = 0
    label: str = LABEL_AMBIG
    score: float = float("nan")

    @property
    def global_embedding(self) -> np.ndarray:
        return (self.emb_sum / max(1, self.n_mentions)).astype(np.float32)


class CandidateBase:
    """Keyed store of :class:`CandidateRecord` with incremental update."""

    def __init__(self, d_emb: int):
        self.d_emb = d_emb
        self._records: dict = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> CandidateRecord:
        return self._records[key]

    def keys(self) -> list:
        return sorted(self._records)

    def _record(self, key: str) -> CandidateRecord:
        rec = self._records.get(key)
        if rec is None:
            rec = CandidateRecord(key, np.zeros(self.d_emb, dtype=np.float64))
            self._records[key] = rec
        return rec

    def add_mention(self, key: str, emb: np.ndarray) -> CandidateRecord:
        rec = self._record(key)
        rec.emb_sum += emb
        rec.n_mentions += 1
        return rec

    def add_mentions(self, keys, embs: np.ndarray) -> None:
        """Pool a batch of mentions: ``keys[i]`` gains ``embs[i]``.

        One group-sum over the batch onto the running sums, adding rows
        in the order given — bit-equal to calling :meth:`add_mention`
        row by row.
        """
        uniq, inv = np.unique(np.asarray(keys, dtype=object), return_inverse=True)
        recs = [self._record(k) for k in uniq]
        sums = np.array([r.emb_sum for r in recs]).reshape(len(recs), self.d_emb)
        np.add.at(sums, inv, embs)
        for rec, emb_sum, n in zip(recs, sums, np.bincount(inv, minlength=len(recs))):
            rec.emb_sum = emb_sum
            rec.n_mentions += int(n)

    def embeddings(self, keys: list) -> np.ndarray:
        """``(len(keys), d_emb)`` float32 global embeddings of ``keys``."""
        return np.array(
            [self._records[k].global_embedding for k in keys], dtype=np.float32
        ).reshape(len(keys), self.d_emb)

    def classify_all(self, classifier: EntityClassifier) -> None:
        """Re-score every candidate against its current pooled embedding
        (streaming mode re-runs this per micro-batch: gamma candidates
        gain evidence as new mentions arrive)."""
        if not self._records:
            return
        keys = self.keys()
        scores = classifier.scores(self.embeddings(keys), keys)
        for k, p in zip(keys, scores):
            self._records[k].score = float(p)
            self._records[k].label = classifier.bucket(float(p))

    def entity_keys(self) -> set:
        return {k for k, r in self._records.items() if r.label == LABEL_ENTITY}

    def table(self) -> pd.DataFrame:
        """One row per candidate, sorted by key: key, n_mentions, score, label."""
        return pd.DataFrame(
            [(r.key, r.n_mentions, r.score, r.label) for r in map(self.get, self.keys())],
            columns=["key", "n_mentions", "score", "label"],
        )
