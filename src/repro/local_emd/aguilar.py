"""Aguilar et al. (WNUT17 winner) Local EMD instantiation.

The original is a multi-task BiLSTM-CNN-CRF over Twitter-trained word
embeddings, character/orthographic encoders, POS features, and a 6-type
gazetteer lexical vector. Offline we reproduce its interface and error
profile with a :class:`DeepEMDSystem` whose inputs are the synthetic
Twitter-style embedding bank (strong familiarity signal — the paper
notes its "reliance on updated Twitter-trained word embeddings and
gazetteers, to better cover some rare entities") plus gazetteer
features, and whose penultimate layer is 100-d — matching the paper's
"the size of the candidate embeddings ... is of 100 dimensions, the
same as the system's output vectors".
"""
from __future__ import annotations

from repro.local_emd.deep import DeepEMDSystem
from repro.local_emd.embeddings import EmbeddingBank

__all__ = ["make_aguilar", "AGUILAR_DIM"]

AGUILAR_DIM = 100


def make_aguilar(token_familiarity: dict, gazetteer_keys: set) -> DeepEMDSystem:
    """Build the (unfitted) Aguilar et al. stand-in.

    50-d word embeddings (Godin et al. Twitter word2vec is 400-d, but the
    discriminative content here is calibrated, not the raw width), strong
    entityness coverage, gazetteer lexical features, penultimate 100-d.
    """
    bank = EmbeddingBank(
        dim=50,
        token_familiarity=token_familiarity,
        entity_strength=1.0,
        noise_sigma=0.75,
        seed=211,
    )
    return DeepEMDSystem(
        "Aguilar et al.",
        bank,
        hidden=[128, AGUILAR_DIM],
        gazetteer_keys=gazetteer_keys,
        seed=41,
        epochs=14,
    )
