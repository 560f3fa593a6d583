"""Synthetic pretrained token embeddings with per-occurrence context noise.

The paper's deep Local EMD systems consume pretrained representations
(Twitter word2vec for Aguilar et al., a BERT encoder for BERTweet) that
cannot be shipped offline. This bank reproduces the two properties of
those representations that the framework's behaviour depends on:

1. **Familiarity structure** — tokens of entities that are well covered
   by pretraining carry a strong component along a common "entityness"
   direction; rare/emergent entity tokens carry a weak one. This is why
   the paper's local systems detect famous entities reliably and novel
   ones inconsistently.
2. **Contextual variation** — each *occurrence* of a token gets a
   deterministic pseudo-random perturbation, so the same surface string
   yields different contextual embeddings in different tweets. This is
   the source of the paper's observation that local EMD detects a
   mention in one tweet and misses the identical string in another.

Determinism: base vectors are seeded by a stable hash of the token;
occurrence noise indexes a fixed pool by a stable hash of
``(tweet_id, sent_id, position)``. Re-computing an embedding anywhere in
the pipeline (local tagging, global mining) therefore yields bit-equal
values — verified by tests — which lets the Spark dataflow recompute
instead of materializing 768-d vectors for every token of a corpus.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EmbeddingBank"]

_NOISE_POOL = 8192


def _stable_hash(s: str) -> int:
    return zlib.crc32(s.encode("utf-8"))


# the decimal digits of a token position, for the occurrence hash
_POSITIONS = [str(i).encode() for i in range(256)]


@dataclass
class EmbeddingBank:
    """Deterministic hashed-Gaussian embeddings with an entityness axis."""

    dim: int
    token_familiarity: dict  # lowercase token -> max familiarity over entities
    entity_strength: float = 1.2
    noise_sigma: float = 0.6
    # per-occurrence noise *along the entityness axis*. Isotropic noise
    # alone is nearly orthogonal to any fixed direction at high dim
    # (projection std ~ sigma/sqrt(dim)), which would make entityness a
    # noiseless feature and detection perfectly consistent; this scalar
    # restores the occurrence-level ambiguity the paper observes (the
    # same string detected in one tweet, missed in another).
    direction_sigma: float = 0.4
    seed: int = 101
    # token (as given, and lowercased) -> its row of ``_vectors``, whose
    # first ``_n`` rows are the base vectors computed so far
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _vectors: np.ndarray | None = field(default=None, repr=False, compare=False)
    _n: int = field(default=0, repr=False, compare=False)
    _direction: np.ndarray | None = field(default=None, repr=False, compare=False)
    _noise: np.ndarray | None = field(default=None, repr=False, compare=False)
    _scalars: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):  # drop caches when broadcast to executors
        d = self.__dict__.copy()
        d["_cache"] = {}
        d["_vectors"] = None
        d["_n"] = 0
        d["_direction"] = None
        d["_noise"] = None
        d["_scalars"] = None
        return d

    @property
    def direction(self) -> np.ndarray:
        """The unit 'entityness' direction shared by all entity tokens."""
        if self._direction is None:
            g = np.random.default_rng(self.seed)
            v = g.normal(size=self.dim)
            self._direction = (v / np.linalg.norm(v)).astype(np.float32)
        return self._direction

    @property
    def noise_pool(self) -> np.ndarray:
        if self._noise is None:
            g = np.random.default_rng(self.seed + 1)
            self._noise = g.normal(
                0.0, 1.0 / np.sqrt(self.dim), (_NOISE_POOL, self.dim)
            ).astype(np.float32)
        return self._noise

    @property
    def scalar_pool(self) -> np.ndarray:
        if self._scalars is None:
            g = np.random.default_rng(self.seed + 2)
            self._scalars = g.normal(0.0, 1.0, _NOISE_POOL).astype(np.float32)
        return self._scalars

    def _row(self, token: str) -> int:
        """The row of ``_vectors`` that holds the token's base vector,
        computed and appended at the token's first use."""
        t = token.lower()
        row = self._cache.get(t)
        if row is None:
            g = np.random.default_rng((_stable_hash(t) * 2654435761 + self.seed) % 2**63)
            vec = g.normal(0.0, 1.0 / np.sqrt(self.dim), self.dim).astype(np.float32)
            fam = self.token_familiarity.get(t)
            if fam is not None:
                vec = vec + np.float32(fam * self.entity_strength) * self.direction
            if self._vectors is None or self._n == len(self._vectors):
                grown = np.empty((max(256, 2 * self._n), self.dim), dtype=np.float32)
                if self._n:
                    grown[: self._n] = self._vectors[: self._n]
                self._vectors = grown
            self._vectors[self._n] = vec
            row = self._cache[t] = self._n
            self._n += 1
        self._cache[token] = row
        return row

    def base_vector(self, token: str) -> np.ndarray:
        """Type-level embedding of the lowercased token."""
        row = self._row(token)  # may grow ``_vectors``
        return self._vectors[row].copy()

    def base_vectors(self, tokens: list) -> np.ndarray:
        """The base vectors of ``tokens``, an ``(n, dim)`` float32 matrix."""
        get = self._cache.get
        rows = [get(t) for t in tokens]
        for i in [i for i, r in enumerate(rows) if r is None]:
            rows[i] = self._row(tokens[i])
        if not rows:
            return np.empty((0, self.dim), dtype=np.float32)
        return self._vectors[np.array(rows, dtype=np.intp)]

    def contextual_chunk(self, tokens: list, offsets, tweet_ids, sent_ids) -> np.ndarray:
        """Occurrence-level embeddings of the sentences
        ``tokens[offsets[i]:offsets[i + 1]]``, sentence ``(tweet_ids[i],
        sent_ids[i])``, their tokens at positions ``0, 1, ...``.

        Returns an ``(n, dim)`` float32 matrix: base vector + sigma-scaled
        pool noise keyed by the absolute occurrence coordinates, built
        for all tokens at once. The hash of ``"tweet|sent|position"`` is
        the CRC-32 of the position's digits continued from that of the
        sentence's ``"tweet|sent|"`` prefix.
        """
        crc32 = zlib.crc32
        h = []
        bounds = np.asarray(offsets).tolist()
        ids = zip(np.asarray(tweet_ids).tolist(), np.asarray(sent_ids).tolist())
        for (t, s), a, b in zip(ids, bounds, bounds[1:]):
            prefix = crc32(f"{t}|{s}|".encode("utf-8"))
            n = b - a
            digits = _POSITIONS[:n] if n <= len(_POSITIONS) else [str(p).encode() for p in range(n)]
            h += [crc32(d, prefix) for d in digits]
        h = np.array(h, dtype=np.intp) % _NOISE_POOL
        out = self.base_vectors(tokens)
        out += np.float32(self.noise_sigma) * self.noise_pool[h]
        # the scalar is rounded to float32 from a float64 product, as
        # ``np.float32(sigma * scalar)`` rounds it for one token
        scale = (self.direction_sigma * self.scalar_pool[h].astype(np.float64)).astype(np.float32)
        out += scale[:, None] * self.direction
        return out

    def entityness(self, token: str) -> float:
        """Projection of the token's base vector on the entityness axis —
        a diagnostic used by calibration tests."""
        return float(self.base_vector(token) @ self.direction)
