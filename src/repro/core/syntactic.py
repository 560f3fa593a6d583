"""Six-way syntactic capitalization categories (Section V-B-1).

Each mined mention occurrence is given which of six syntactic
presentations it exhibits. A candidate's mention counts per category
over its mention count (``CandidateBase``) are its global syntactic
distribution — entities concentrate on proper/full capitalization,
common-word false positives on lowercase/sentence-start.
"""
from __future__ import annotations

from repro.local_emd.base import sentence_nondiscriminative

__all__ = [
    "CAT_PROPER",
    "CAT_SENT_START",
    "CAT_SUBSTRING",
    "CAT_FULL_CAPS",
    "CAT_NO_CAPS",
    "CAT_NONDISC",
    "N_CATEGORIES",
    "CATEGORY_NAMES",
    "sentence_categories",
]

CAT_PROPER = 0  # (1) first char of every candidate token capitalized
CAT_SENT_START = 1  # (2) unigram capitalized at start of sentence
CAT_SUBSTRING = 2  # (3) only a proper substring of a multigram capitalized
CAT_FULL_CAPS = 3  # (4) entire string capitalized ('UN', 'UK')
CAT_NO_CAPS = 4  # (5) entire string lowercase
CAT_NONDISC = 5  # (6) sentence casing carries no information
N_CATEGORIES = 6

# the name of each category, by number: a candidate table's count columns
CATEGORY_NAMES = ("proper", "sent_start", "substring", "full_caps", "no_caps", "nondisc")


def sentence_categories(tokens: list, spans: list) -> list:
    """The category of each ``(start, length)`` mention span of one
    sentence; the sentence's casing (category 6) is checked once."""
    if not spans:
        return []
    if sentence_nondiscriminative(tokens):
        return [CAT_NONDISC] * len(spans)
    return [_span_category(tokens, start, length) for start, length in spans]


def _span_category(tokens: list, start: int, length: int) -> int:
    """Categories 1–5 of a span in a sentence whose casing is informative."""
    span = tokens[start : start + length]
    cap_initial = [len(t) > 0 and t[0].isupper() for t in span]
    if all(len(t) > 1 and t.isupper() for t in span):
        return CAT_FULL_CAPS
    if all(t.islower() for t in span):
        return CAT_NO_CAPS
    if length == 1:
        return CAT_SENT_START if start == 0 else CAT_PROPER
    if all(cap_initial):
        return CAT_PROPER
    if any(cap_initial):
        return CAT_SUBSTRING
    # mixed internal casing with no capitalized token: treat as lowercase
    return CAT_NO_CAPS
