"""Hashed TF-IDF embeddings (the sentence-transformer role).

No pretrained model is available offline, so posts are embedded by
feature hashing: token unigrams and bigrams hash into a fixed number of
dimensions with signed updates (to cancel collisions), weighted by
log-scaled term frequency and a corpus IDF, then L2-normalized.  For the
templated text this study clusters — the paper itself measures 88–100 %
similarity across scam copy — lexical overlap is exactly the signal the
sentence embeddings provided.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenize import bigrams, tokenize
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry


def _hash_feature(feature: str, dims: int) -> tuple:
    """Stable (index, sign) for a feature string."""
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    index = value % dims
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return index, sign


class HashedTfidfEmbedder:
    """Embeds documents into a dense ``dims``-dimensional space.

    Usage::

        embedder = HashedTfidfEmbedder(dims=256)
        matrix = embedder.fit_transform(texts)   # (n_docs, dims), rows L2=1
    """

    def __init__(self, dims: int = 256, use_bigrams: bool = True,
                 keep_handles: bool = True, min_df: int = 1,
                 telemetry: Optional[Telemetry] = None) -> None:
        if dims < 8:
            raise ValueError("dims must be at least 8")
        self.dims = dims
        self.use_bigrams = use_bigrams
        self.keep_handles = keep_handles
        self.min_df = min_df
        self.telemetry = telemetry or NULL_TELEMETRY
        self._idf: Optional[Dict[str, float]] = None

    # -- features ------------------------------------------------------------

    def features(self, text: str) -> List[str]:
        tokens = remove_stopwords(tokenize(text, keep_handles=self.keep_handles))
        feats = list(tokens)
        if self.use_bigrams:
            feats.extend(bigrams(tokens))
        return feats

    # -- fitting ---------------------------------------------------------------

    def fit(self, texts: Sequence[str]) -> "HashedTfidfEmbedder":
        """Learn IDF weights over a corpus."""
        with self.telemetry.tracer.span("nlp.embed.fit", n_docs=len(texts)):
            doc_freq: Dict[str, int] = {}
            for text in texts:
                for feature in set(self.features(text)):
                    doc_freq[feature] = doc_freq.get(feature, 0) + 1
            n_docs = max(1, len(texts))
            self._idf = {
                feature: math.log((1 + n_docs) / (1 + df)) + 1.0
                for feature, df in doc_freq.items()
                if df >= self.min_df
            }
        return self

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Embed documents; rows are L2-normalized (zero rows stay zero)."""
        with self.telemetry.tracer.span("nlp.embed.transform", n_docs=len(texts)):
            return self._transform(texts)

    def _transform(self, texts: Sequence[str]) -> np.ndarray:
        matrix = np.zeros((len(texts), self.dims), dtype=np.float64)
        # A corpus repeats a few thousand distinct features hundreds of
        # thousands of times; hash each one once.
        hashed: Dict[str, tuple] = {}
        for row, text in enumerate(texts):
            counts: Dict[str, int] = {}
            for feature in self.features(text):
                counts[feature] = counts.get(feature, 0) + 1
            for feature, count in counts.items():
                idf = 1.0 if self._idf is None else self._idf.get(feature, 0.0)
                if idf == 0.0:
                    continue
                weight = (1.0 + math.log(count)) * idf
                slot = hashed.get(feature)
                if slot is None:
                    slot = hashed[feature] = _hash_feature(feature, self.dims)
                index, sign = slot
                matrix[row, index] += sign * weight
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return matrix / norms

    def fit_transform(self, texts: Sequence[str]) -> np.ndarray:
        return self.fit(texts).transform(texts)


def cosine_similarity_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of L2-normalized rows."""
    return matrix @ matrix.T


__all__ = ["HashedTfidfEmbedder", "cosine_similarity_matrix"]
