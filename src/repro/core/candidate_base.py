"""CandidateBase (Section V-C): incremental per-candidate state.

Maintains, for every entity candidate, the running (sum, count) of its
local mention embeddings — so the pooled global embedding "can be
incrementally updated by adding local embeddings into the pool as and
when new mentions arrive" — its mention count per syntactic category,
and the latest classifier verdict. A base of ``d_emb`` 0 (non-deep
systems) pools no floats: a global embedding is then the category
counts over the mention count, the "global syntactic distribution". It is
the only code that pools embeddings: one Global EMD cycle
(``repro.core.pipeline.global_emd_cycle``) adds a whole batch of
mentions with :meth:`CandidateBase.add_mentions`, into a fresh base in
batch mode and into the kept base of a stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.entity_classifier import EntityClassifier, LABEL_ENTITY
from repro.core.syntactic import CATEGORY_NAMES, N_CATEGORIES

__all__ = ["CandidateBase", "CandidateRecord"]


@dataclass(frozen=True)
class CandidateRecord:
    """A copy of one candidate's row (:meth:`CandidateBase.get`);
    ``counts[c]`` counts its mentions of syntactic category ``c``."""

    key: str
    emb_sum: np.ndarray
    counts: np.ndarray
    n_mentions: int
    label: str
    score: float


class CandidateBase:
    """Columns with one row per candidate, in the order first added: a
    float64 ``(n, d_emb)`` sum matrix, an int64 ``(n, N_CATEGORIES)``
    count matrix, and mention-count and score (NaN until scored) arrays."""

    def __init__(self, d_emb: int):
        self.d_emb = d_emb
        self._index: dict = {}  # key -> row
        self._keys = np.empty(0, dtype=object)
        self._sums = np.zeros((0, d_emb))
        self._counts = np.zeros((0, N_CATEGORIES), dtype=np.int64)
        self._n = np.zeros(0, dtype=np.int64)
        self._scores = np.zeros(0)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def get(self, key: str) -> CandidateRecord:
        """Why ``key`` has its label: its pooled sum, category counts,
        mention count, label and score, read from its row."""
        i = self._index[key]
        return CandidateRecord(
            key, self._sums[i].copy(), self._counts[i].copy(), int(self._n[i]),
            EntityClassifier.bucket(self._scores[i]), float(self._scores[i]),
        )

    def keys(self) -> list:
        return sorted(self._index)

    def labels(self) -> np.ndarray:
        """Each row's label: the alpha/beta/gamma bucket of its score, and
        ambiguous while it is unscored."""
        return EntityClassifier.bucket(self._scores)

    def add_mention(self, key: str, emb: np.ndarray) -> None:
        self.add_mentions([key], np.asarray(emb)[None])

    def add_mentions(self, keys, embs: np.ndarray, categories=()) -> None:
        """Pool a batch of mentions: ``keys[i]`` gains ``embs[i]`` and a
        mention of category ``categories[i]`` (if given).

        New keys get rows in the order they first appear; then one
        scatter-add adds the rows in the order given, so the float64 sums
        do not depend on how a mention sequence is split into batches.
        """
        codes, uniq = pd.factorize(np.asarray(keys, dtype=object))
        rows = np.fromiter((self._index.setdefault(k, len(self._index)) for k in uniq), np.intp)
        new = len(self._index) - len(self._keys)
        if new:
            self._keys = np.concatenate([self._keys, uniq[rows >= len(self._keys)]])
            self._sums = np.concatenate([self._sums, np.zeros((new, self.d_emb))])
            self._counts = np.concatenate([self._counts, np.zeros((new, N_CATEGORIES), np.int64)])
            self._n = np.concatenate([self._n, np.zeros(new, np.int64)])
            self._scores = np.concatenate([self._scores, np.full(new, np.nan)])
        at = rows[codes]
        cats = np.asarray(categories, dtype=np.intp)
        np.add.at(self._sums, at, embs)
        np.add.at(self._counts, (at[: len(cats)], cats), 1)
        np.add.at(self._n, at, 1)

    def embeddings(self, keys: list) -> np.ndarray:
        """``(len(keys), d_emb or N_CATEGORIES)`` float32 global
        embeddings of ``keys``: each one's pooled sum (its category
        counts when ``d_emb`` is 0) over its mention count."""
        rows = np.array([self._index[k] for k in keys], dtype=np.intp)
        pooled = self._sums[rows] if self.d_emb else self._counts[rows]
        return (pooled / np.maximum(self._n[rows], 1)[:, None]).astype(np.float32)

    def classify_all(self, classifier: EntityClassifier) -> None:
        """Re-score every candidate against its current pooled embedding
        (streaming mode re-runs this per micro-batch: gamma candidates
        gain evidence as new mentions arrive). The rows are scored in
        one product, in key order."""
        if not len(self):
            return
        order = np.argsort(self._keys)
        keys = self._keys[order].tolist()
        self._scores[order] = classifier.scores(self.embeddings(keys), keys)

    def entity_keys(self) -> set:
        return set(self._keys[self.labels() == LABEL_ENTITY])

    def table(self) -> pd.DataFrame:
        """One row per candidate, sorted by key: key, n_mentions, score,
        label, and its mention count in each category (``CATEGORY_NAMES``)."""
        names = ("key", "n_mentions", "score", "label", *CATEGORY_NAMES)
        columns = (self._keys, self._n, self._scores, self.labels(), *self._counts.T)
        order = np.argsort(self._keys)
        return pd.DataFrame({name: column[order] for name, column in zip(names, columns)})
