"""Per-sentence, per-token reference implementations of Local EMD
featurisation, tagging and mention embedding.

The production code builds features, runs the taggers and embeds
mentions a whole chunk of sentences at a time with array operations.
These are the loops it replaced, kept as oracles: the tests compare the
chunk functions' output with theirs bit for bit (``np.array_equal``, no
tolerance). They read only a system's fitted state (weights, vocabulary
sets, embedding bank), never its featurisation methods.
"""
from __future__ import annotations

import zlib

import numpy as np

from repro.core import syntactic
from repro.local_emd.base import is_special
from repro.local_emd.embeddings import _NOISE_POOL

_N_FREQ_BUCKETS = 4
_N_CTX_BUCKETS = 16


def contextual(bank, tokens: list, tweet_id: int, sent_id: int) -> np.ndarray:
    """``EmbeddingBank.contextual_chunk`` of one sentence, one token at a
    time."""
    out = np.empty((len(tokens), bank.dim), dtype=np.float32)
    for i, tok in enumerate(tokens):
        h = zlib.crc32(f"{tweet_id}|{sent_id}|{i}".encode("utf-8")) % _NOISE_POOL
        out[i] = (
            bank.base_vector(tok)
            + np.float32(bank.noise_sigma) * bank.noise_pool[h]
            + np.float32(bank.direction_sigma * bank.scalar_pool[h]) * bank.direction
        )
    return out


def sentence_nondiscriminative(tokens: list) -> bool:
    alpha = [t for t in tokens if not is_special(t) and t]
    if not alpha:
        return True
    return (
        all(t.isupper() for t in alpha)
        or all(t.islower() for t in alpha)
        or all(t[0].isupper() for t in alpha)
    )


def _cap_initial(tok: str) -> bool:
    return len(tok) > 0 and tok[0].isupper() and not (len(tok) > 1 and tok.isupper())


def _allcaps(tok: str) -> bool:
    return len(tok) > 1 and tok.isupper()


def surface_features(tokens: list) -> np.ndarray:
    """``surface_features`` of one sentence, nine scalar writes per token."""
    n = len(tokens)
    f = np.zeros((n, 9), dtype=np.float32)
    nondisc = sentence_nondiscriminative(tokens)
    caps = [(_cap_initial(t) or _allcaps(t)) for t in tokens]
    for i, t in enumerate(tokens):
        f[i, 0] = _cap_initial(t)
        f[i, 1] = _allcaps(t)
        f[i, 2] = t.islower()
        f[i, 3] = is_special(t)
        f[i, 4] = i == 0
        f[i, 5] = nondisc
        f[i, 6] = len(t) >= 8
        f[i, 7] = caps[i - 1] if i > 0 else 0.0
        f[i, 8] = caps[i + 1] if i < n - 1 else 0.0
    return f


def gazetteer_features(tokens: list, unigram_keys: set, all_tokens: set) -> np.ndarray:
    f = np.zeros((len(tokens), 2), dtype=np.float32)
    for i, t in enumerate(tokens):
        low = t.lower()
        f[i, 0] = low in unigram_keys
        f[i, 1] = low in all_tokens
    return f


def _freq_bucket(freq, tok: str) -> int:
    c = freq.get(tok.lower(), 0)
    if c == 0:
        return 0
    if c <= 3:
        return 1
    if c <= 20:
        return 2
    return 3


def features(system, tokens: list, tweet_id: int, sent_id: int) -> np.ndarray:
    """One sentence's tagger input for TwitterNLP, a deep system or
    HIRE-NER, built as each system built it one sentence at a time."""
    name = system.name
    if name == "TwitterNLP":
        n = len(tokens)
        fb = np.zeros((n, _N_FREQ_BUCKETS), dtype=np.float32)
        ctx = np.zeros((n, 2 * _N_CTX_BUCKETS), dtype=np.float32)
        for i, t in enumerate(tokens):
            fb[i, _freq_bucket(system.freq, t)] = 1.0
            if i > 0:
                ctx[i, zlib.crc32(tokens[i - 1].lower().encode()) % _N_CTX_BUCKETS] = 1.0
            if i < n - 1:
                nxt = zlib.crc32(tokens[i + 1].lower().encode()) % _N_CTX_BUCKETS
                ctx[i, _N_CTX_BUCKETS + nxt] = 1.0
        gaz = gazetteer_features(tokens, system.gaz_uni, system.gaz_tokens)
        return np.concatenate([surface_features(tokens), gaz, fb, ctx], axis=1)
    low = [t.lower() for t in tokens]
    emb = contextual(system.bank, low, tweet_id, sent_id)
    if name == "HIRE-NER":
        glob = np.stack([system.memory[t] for t in low]) if tokens else emb
        gaz = gazetteer_features(tokens, system.gaz_uni, system.gaz_tokens)
        return np.concatenate([emb, surface_features(tokens), gaz, glob], axis=1)
    parts = [emb, surface_features(tokens)]
    if system.gaz_uni is not None:
        parts.append(gazetteer_features(tokens, system.gaz_uni, system.gaz_tokens))
    return np.concatenate(parts, axis=1)


def bio_to_spans(tags) -> list:
    spans = []
    start = None
    for i, t in enumerate(tags):
        if t == 1 or (t == 2 and start is None):
            if start is not None:
                spans.append((start, i - start))
            start = i
        elif t == 0:
            if start is not None:
                spans.append((start, i - start))
                start = None
    if start is not None:
        spans.append((start, len(tags) - start))
    return spans


def forward(system, tokens: list, tweet_id: int, sent_id: int) -> tuple:
    """One sentence's forward pass: its decoded spans, the output
    probabilities and the float32 activations entering the output
    layer."""
    hidden = system.model.penultimate(features(system, tokens, tweet_id, sent_id))
    probs = system.model.layers[-1].forward(hidden)
    spans = bio_to_spans(np.argmax(probs, axis=1)) if tokens else []
    return spans, probs, hidden.astype(np.float32)


def embed_tokens(pe, token_embs: np.ndarray) -> np.ndarray:
    """Eq. 1–2 for one mention: ``mean`` then ``@ W``."""
    return (token_embs.mean(axis=0) @ pe.W + pe.b).astype(np.float32)


def pooled_sentence_embeddings(system, sentences: list, id_offset: int) -> np.ndarray:
    out = np.empty((len(sentences), system.embedding_dim), dtype=np.float32)
    for i, toks in enumerate(sentences):
        out[i] = forward(system, list(toks), id_offset + i, 9999)[2].mean(axis=0)
    return out


def mined_rows(trie, system, pe, sentences) -> list:
    """``(tweet_id, sent_id, start, length, key, surface, category, emb)``
    of every mention of a ``trie`` candidate in ``sentences``,
    ``(tweet_id, sent_id, tokens)`` triples: one sentence and one
    mention at a time, the embedding empty for a non-deep system."""
    rows = []
    for tweet_id, sent_id, toks in sentences:
        toks = list(toks)
        matches = trie.scan(toks)
        if not matches:
            continue
        cats = syntactic.sentence_categories(toks, [(s, n) for s, n, _ in matches])
        ea = forward(system, toks, tweet_id, sent_id)[2] if pe is not None else None
        for (s, n, key), cat in zip(matches, cats):
            if pe is None:
                emb = np.empty(0, dtype=np.float32)
            else:
                emb = embed_tokens(pe, ea[s : s + n])
            rows.append(
                (int(tweet_id), int(sent_id), s, n, key, " ".join(toks[s : s + n]), int(cat), emb)
            )
    return rows
