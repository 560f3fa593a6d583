"""BERTweet Local EMD instantiation (fine-tuned for EMD).

The original is a RoBERTa-procedure BERT-base trained on 850M tweets,
fine-tuned with a feed-forward + softmax head on WNUT17-train. Offline
we reproduce its interface with a :class:`DeepEMDSystem` over a 768-d
synthetic contextual bank (no gazetteer — it is a pure language model),
penultimate width 768 so the Entity Phrase Embedder sees "the layer
prior to the output softmax layer" at BERT-base width, which the phrase
embedder then compresses to 300-d per the paper's best configuration.

Calibration note: the bank's entityness signal is slightly weaker than
Aguilar's (no updated Twitter lexical resources), matching the paper's
observation that Aguilar et al. edges out BERTweet on these streams.
"""
from __future__ import annotations

from repro.local_emd.deep import DeepEMDSystem
from repro.local_emd.embeddings import EmbeddingBank

__all__ = ["make_bertweet", "BERTWEET_DIM"]

BERTWEET_DIM = 768


def make_bertweet(token_familiarity: dict) -> DeepEMDSystem:
    """Build the (unfitted) BERTweet stand-in."""
    bank = EmbeddingBank(
        dim=BERTWEET_DIM,
        token_familiarity=token_familiarity,
        entity_strength=0.85,
        noise_sigma=0.92,
        seed=223,
    )
    return DeepEMDSystem(
        "BERTweet",
        bank,
        hidden=[BERTWEET_DIM],
        gazetteer_keys=None,
        seed=43,
        epochs=10,
    )
