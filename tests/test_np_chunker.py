"""Tests for the rule-based NP Chunker's rule on one sentence
(``_sentence_spans``); ``tests/test_chunk_featurisation.py`` checks its
``tag_chunk`` against that rule."""
import pytest

from repro.local_emd.base import Sentences
from repro.local_emd.np_chunker import LONG_WORD, NPChunker


@pytest.fixture(scope="module")
def chunker():
    return NPChunker()


class TestNormalSentences:
    def test_chunks_capitalized_run(self, chunker):
        toks = ["we", "visited", "Andy", "Beshear", "today"]
        assert chunker._sentence_spans(toks) == [(2, 2)]

    def test_chunks_allcaps_token(self, chunker):
        toks = ["cases", "in", "UK", "rising"]
        assert chunker._sentence_spans(toks) == [(2, 1)]

    def test_skips_lowercase_mentions(self, chunker):
        # mixed-case sentence (discriminative): lowercase mention missed
        toks = ["We", "love", "coronavirus", "news"]
        assert chunker._sentence_spans(toks) == []

    def test_lone_short_sentence_start_skipped(self, chunker):
        toks = ["Word", "then", "lower", "stuff"]
        assert chunker._sentence_spans(toks) == []

    def test_long_sentence_start_kept(self, chunker):
        toks = ["Wonderful" + "x" * 2, "then", "lower", "stuff"]
        assert chunker._sentence_spans(toks) == [(0, 1)]

    def test_sentence_start_run_kept(self, chunker):
        toks = ["Andy", "Beshear", "spoke", "well"]
        assert chunker._sentence_spans(toks) == [(0, 2)]

    def test_specials_break_runs(self, chunker):
        toks = ["meet", "Andy", "#covid", "Beshear", "ok"]
        assert chunker._sentence_spans(toks) == [(1, 1), (3, 1)]

    def test_partial_extraction_of_substring_caps(self, chunker):
        # only the capitalized prefix of a substring-cased mention chunks
        toks = ["saw", "Andy", "beshear", "live"]
        assert chunker._sentence_spans(toks) == [(1, 1)]


class TestNondiscriminativeSentences:
    def test_allcaps_sentence_uses_length_rule(self, chunker):
        toks = ["WE", "PASSED", "SUPERLONGNAME", "NOW"]
        assert chunker._sentence_spans(toks) == [(2, 1)]

    def test_lower_sentence_uses_length_rule(self, chunker):
        toks = ["all", "lower", "here", "including", "longcandidate"]
        spans = chunker._sentence_spans(toks)
        assert (3, 1) in spans and (4, 1) in spans  # len>=8 words only

    def test_specials_never_chunked(self, chunker):
        toks = ["ALL", "CAPS", "#supercalifragilistic"]
        assert chunker._sentence_spans(toks) == []


class TestConfig:
    def test_fit_is_noop(self, chunker):
        chunker.fit(None, None)  # must not raise

    def test_not_deep(self, chunker):
        assert not chunker.is_deep
        with pytest.raises(NotImplementedError):
            chunker.activations(Sentences.of([["a"]], [0], [0]))

    def test_long_word_threshold(self, chunker):
        """A lone capitalised sentence-starter of 7 characters is dropped,
        one of ``LONG_WORD`` (8) characters kept."""
        assert LONG_WORD == 8
        assert chunker._sentence_spans(["Seventh", "then", "lower"]) == []
        assert chunker._sentence_spans(["Eighteen", "then", "lower"]) == [(0, 1)]

