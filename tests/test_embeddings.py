"""Tests for the synthetic pretrained embedding bank."""
import pickle

import numpy as np
import pytest

from repro.local_emd.embeddings import EmbeddingBank


def _contextual(bank, tokens: list, tweet_id: int, sent_id: int):
    """``contextual_chunk`` of the one sentence ``tokens``."""
    return bank.contextual_chunk(tokens, [0, len(tokens)], [tweet_id], [sent_id])


@pytest.fixture()
def bank():
    return EmbeddingBank(
        dim=32,
        token_familiarity={"coronavirus": 0.9, "beshear": 0.2},
        entity_strength=1.0,
        noise_sigma=0.5,
        direction_sigma=0.3,
        seed=5,
    )


class TestBaseVectors:
    def test_shape_and_dtype(self, bank):
        v = bank.base_vector("hello")
        assert v.shape == (32,)
        assert v.dtype == np.float32

    def test_deterministic(self, bank):
        assert np.array_equal(bank.base_vector("hello"), bank.base_vector("hello"))

    def test_case_insensitive(self, bank):
        assert np.array_equal(bank.base_vector("Hello"), bank.base_vector("hello"))

    def test_distinct_tokens_differ(self, bank):
        assert not np.array_equal(bank.base_vector("a"), bank.base_vector("b"))

    def test_entity_token_carries_entityness(self, bank):
        # familiarity 0.9, strength 1.0 -> projection ~0.9 +- the random
        # base component (std 1/sqrt(32) ~ 0.18); plain tokens ~0 +- 0.18
        assert bank.entityness("coronavirus") == pytest.approx(0.9, abs=0.5)
        assert bank.entityness("hello") == pytest.approx(0.0, abs=0.5)

    def test_entityness_scales_with_familiarity(self, bank):
        # averaging out the base noise over many synthetic tokens
        import numpy as np

        strong_bank = EmbeddingBank(
            dim=32, token_familiarity={f"t{i}": 0.9 for i in range(50)}, seed=5
        )
        weak_bank = EmbeddingBank(
            dim=32, token_familiarity={f"t{i}": 0.2 for i in range(50)}, seed=5
        )
        strong = np.mean([strong_bank.entityness(f"t{i}") for i in range(50)])
        weak = np.mean([weak_bank.entityness(f"t{i}") for i in range(50)])
        assert strong - weak == pytest.approx(
            0.7 * strong_bank.entity_strength, abs=0.15
        )


class TestContextual:
    def test_shape(self, bank):
        out = _contextual(bank, ["a", "b", "c"], 7, 0)
        assert out.shape == (3, 32)

    def test_deterministic_per_occurrence(self, bank):
        a = _contextual(bank, ["a", "b"], 7, 0)
        b = _contextual(bank, ["a", "b"], 7, 0)
        assert np.array_equal(a, b)

    def test_varies_across_occurrences(self, bank):
        a = _contextual(bank, ["coronavirus"], 7, 0)
        b = _contextual(bank, ["coronavirus"], 8, 0)
        assert not np.array_equal(a, b)

    def test_recompute_equals_slice(self, bank):
        """Recomputing one sentence alone is bit-equal to slicing it out
        of a chunk of several sentences — the property the pipeline's
        recompute-instead-of-materialize design relies on."""
        sents = [["a", "b"], ["a", "b", "coronavirus", "c"], ["x"]]
        chunk = bank.contextual_chunk(sum(sents, []), [0, 2, 6, 7], [3, 3, 4], [0, 1, 0])
        assert np.array_equal(chunk[2:6], _contextual(bank, sents[1], 3, 1))
        assert not np.array_equal(chunk[0:2], chunk[2:4])

    def test_direction_noise_moves_entityness(self, bank):
        # across many occurrences, the entityness projection of the same
        # token should vary with std ~ direction_sigma
        proj = [
            float(_contextual(bank, ["coronavirus"], i, 0)[0] @ bank.direction)
            for i in range(200)
        ]
        assert np.std(proj) == pytest.approx(0.3, abs=0.12)


class TestPickling:
    def test_roundtrip_preserves_values(self, bank):
        _ = bank.base_vector("hello")  # populate cache
        clone = pickle.loads(pickle.dumps(bank))
        assert np.array_equal(clone.base_vector("hello"), bank.base_vector("hello"))
        assert np.array_equal(
            _contextual(clone, ["x", "y"], 1, 0), _contextual(bank, ["x", "y"], 1, 0)
        )

    def test_caches_dropped_on_pickle(self, bank):
        _ = bank.base_vector("hello")
        state = bank.__getstate__()
        assert state["_cache"] == {}
        assert state["_noise"] is None
