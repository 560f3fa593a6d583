"""Tests for the 6-way syntactic capitalization categories (Sec V-B-1)."""
import numpy as np
import pytest

from repro.core import syntactic as S
from repro.core.candidate_base import CandidateBase


def _category(tokens: list, start: int, length: int) -> int:
    """The category of the one mention ``tokens[start:start + length]``."""
    return S.sentence_categories(tokens, [(start, length)])[0]


class TestCategories:
    def test_proper_multigram(self):
        toks = ["saw", "Andy", "Beshear", "there"]
        assert _category(toks, 1, 2) == S.CAT_PROPER

    def test_proper_unigram_mid_sentence(self):
        toks = ["cases", "in", "Italy", "rise"]
        assert _category(toks, 2, 1) == S.CAT_PROPER

    def test_sentence_start_unigram(self):
        toks = ["Italy", "is", "rising"]
        assert _category(toks, 0, 1) == S.CAT_SENT_START

    def test_substring_capitalization(self):
        toks = ["saw", "Andy", "beshear", "now"]
        assert _category(toks, 1, 2) == S.CAT_SUBSTRING

    def test_full_caps(self):
        toks = ["the", "UK", "votes"]
        assert _category(toks, 1, 1) == S.CAT_FULL_CAPS

    def test_full_caps_multigram(self):
        toks = ["the", "UN", "HQ", "x"]
        assert _category(toks, 1, 2) == S.CAT_FULL_CAPS

    def test_no_caps(self):
        toks = ["the", "coronavirus", "Spreads"]
        assert _category(toks, 1, 1) == S.CAT_NO_CAPS

    def test_nondiscriminative_allcaps_sentence(self):
        toks = ["WE", "PASSED", "ITALY", "NOW"]
        assert _category(toks, 2, 1) == S.CAT_NONDISC

    def test_nondiscriminative_lower_sentence(self):
        toks = ["all", "lower", "coronavirus", "talk"]
        assert _category(toks, 2, 1) == S.CAT_NONDISC

    def test_nondiscriminative_title_sentence(self):
        toks = ["Every", "Token", "Capped", "Italy"]
        assert _category(toks, 3, 1) == S.CAT_NONDISC

    def test_sentence_start_multigram_is_proper(self):
        # category 2 is defined for unigram candidates only
        toks = ["Andy", "Beshear", "spoke", "x"]
        assert _category(toks, 0, 2) == S.CAT_PROPER


class TestOneHot:
    @pytest.mark.parametrize("cat", range(S.N_CATEGORIES))
    def test_one_hot(self, cat):
        """The global syntactic distribution of a candidate whose mentions
        all have category ``cat`` is the float32 one-hot of ``cat``."""
        cb = CandidateBase(0)
        cb.add_mentions(["k"] * 3, np.empty((3, 0)), [cat] * 3)
        v = cb.embeddings(["k"])[0]
        assert np.array_equal(v, np.eye(S.N_CATEGORIES, dtype=np.float32)[cat])
        assert v.dtype == np.float32 and S.CATEGORY_NAMES[cat] in cb.table()
        assert cb.table().loc[0, S.CATEGORY_NAMES[cat]] == 3
