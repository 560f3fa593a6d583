"""Rule-based NP-Chunker Local EMD (stand-in for the TweeboParser chunker).

The paper's first instantiation extracts noun phrases from TweeboParser
dependency trees and forwards them as entity candidates — a
high-volume, low-precision projector. The dependency parser itself is
unavailable offline; this chunker reproduces its candidate profile from
surface shape alone:

- in normally-cased sentences, maximal runs of capitalized tokens are
  chunked (catching proper-cased and ALL-CAPS mentions, plus capitalized
  noise words — the FP source), with a lone sentence-start capital only
  trusted when the word is long (sentence-start casing is ambiguous);
- in non-discriminatively cased sentences (all-upper/lower/title), where
  casing carries no signal, long words are chunked as noun candidates —
  the shape-only fallback a POS-driven chunker degrades to.

No training is involved, mirroring the paper's use of a production
parser as a black box.
"""
from __future__ import annotations

import pandas as pd

from repro.local_emd.base import (
    LocalEMDSystem,
    Sentences,
    Spans,
    is_special,
    sentence_nondiscriminative,
)

__all__ = ["NPChunker"]

# a word this long is trusted as a noun candidate where casing is no guide
LONG_WORD = 8


def _cap_like(tok: str) -> bool:
    return len(tok) > 0 and tok[0].isupper()


class NPChunker(LocalEMDSystem):
    """Capitalization/shape noun-phrase chunker."""

    name = "NP Chunker"
    is_deep = False

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        """Rule-based: nothing to train."""

    def tag_chunk(self, sents: Sentences) -> tuple:
        """The spans ``_sentence_spans`` finds in each sentence of a
        chunk; a rule-based system has no activations."""
        found = [
            (i, start, length)
            for i in range(len(sents))
            for start, length in self._sentence_spans(sents.sentence(i))
        ]
        return Spans.of(found), None

    def _sentence_spans(self, tokens: list) -> list:
        """The ``(start, length)`` chunks of one sentence."""
        if sentence_nondiscriminative(tokens):
            return [
                (i, 1)
                for i, t in enumerate(tokens)
                if not is_special(t) and len(t) >= LONG_WORD
            ]
        spans = []
        i = 0
        n = len(tokens)
        while i < n:
            if not is_special(tokens[i]) and _cap_like(tokens[i]):
                j = i
                while j < n and not is_special(tokens[j]) and _cap_like(tokens[j]):
                    j += 1
                length = j - i
                # a lone capitalized sentence-starter is ambiguous unless long
                if not (length == 1 and i == 0 and len(tokens[0]) < LONG_WORD):
                    spans.append((i, length))
                i = j
            else:
                i += 1
        return spans
