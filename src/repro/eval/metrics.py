"""Surface-form EMD metrics (Section VI "Performance Metrics").

EMD "requires detection of all occurrences of entities in their various
string forms", so scoring is exact-span, occurrence-level: a predicted
mention is correct iff a gold mention with identical
``(tweet_id, sent_id, start, length)`` exists. Precision/recall/F1 over
these instance sets is the paper's F1 (Surface); no entity typing.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from repro.local_emd.base import SPAN_COLS

__all__ = ["PRF", "score_mentions"]


@dataclass(frozen=True)
class PRF:
    """Precision/recall/F1 triple with the underlying counts."""

    precision: float
    recall: float
    f1: float
    n_pred: int
    n_gold: int
    n_correct: int

    def row(self) -> dict:
        return {
            "P": round(self.precision, 4),
            "R": round(self.recall, 4),
            "F1": round(self.f1, 4),
        }


def score_mentions(pred: pd.DataFrame, gold: pd.DataFrame) -> PRF:
    """Score predicted mention spans against gold spans.

    Duplicate predictions of the same span are collapsed (a span can be
    correct once); gold is a set of spans by construction.
    """
    pred_spans = (
        set(map(tuple, pred[SPAN_COLS].itertuples(index=False)))
        if len(pred)
        else set()
    )
    gold_spans = (
        set(map(tuple, gold[SPAN_COLS].itertuples(index=False)))
        if len(gold)
        else set()
    )
    n_correct = len(pred_spans & gold_spans)
    p = n_correct / len(pred_spans) if pred_spans else 0.0
    r = n_correct / len(gold_spans) if gold_spans else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return PRF(p, r, f1, len(pred_spans), len(gold_spans), n_correct)
