"""Differential tests: each Section-6 fast path against the code it replaced.

The oracles below are verbatim copies of the earlier, slower
implementations.  Every fast path must reproduce them exactly: equal
vetting verdicts, ``==`` language scores, ``array_equal`` embeddings,
k-means++ centres and DBSCAN labels, and equal reuse groups.  Tables 5
and 6 are byte-identical only while these hold.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from difflib import SequenceMatcher
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scam_posts import (
    ClusterVetter,
    ScamPipelineConfig,
    _token_matches,
)
from repro.nlp import langdetect
from repro.nlp.cluster import DBSCAN, _kmeans_pp_init, _pairwise_sq_dists, _sq_norms
from repro.nlp.embeddings import HashedTfidfEmbedder
from repro.nlp.langdetect import LanguageDetector, _letter_features
from repro.nlp.similarity import ReuseGroup, normalize_for_similarity, reuse_groups
from repro.nlp.tokenize import tokenize
from repro.synthetic.scamtext import (
    ALL_SUBTYPES,
    VETTING_CODEBOOK,
    benign_post_text,
    scam_post_text,
)
from repro.util.rng import RngTree

# -- oracles: the replaced implementations, kept verbatim ----------------------


def oracle_indicator_hits(tokens: Set[str], indicators: Sequence[str]) -> int:
    """Count indicator keywords present, with light stemming: a token
    matches an indicator when either is a prefix of the other (so
    'investment' matches 'invest', 'nfts' matches 'nft')."""
    hits = 0
    for indicator in indicators:
        if indicator in tokens:
            hits += 1
            continue
        if len(indicator) >= 4 and any(
            token.startswith(indicator) or
            (len(token) >= 4 and indicator.startswith(token))
            for token in tokens
        ):
            hits += 1
    return hits


class OracleVetter(ClusterVetter):
    """The vetter with the per-indicator ``any()`` scan."""

    def _score_sample(self, sample: List[str]) -> Tuple[Optional[str], float]:
        scores: Dict[str, float] = {}
        token_sets = [set(tokenize(text, keep_handles=False)) for text in sample]
        for subtype, indicators in VETTING_CODEBOOK.items():
            matches = sum(
                1 for tokens in token_sets
                if oracle_indicator_hits(tokens, indicators) >= 2
            )
            scores[subtype] = matches / max(1, len(sample))
        best_subtype = max(scores, key=lambda s: (scores[s], s))
        best = scores[best_subtype]
        if best >= self._config.vetting_threshold:
            return best_subtype, best
        return None, best


def oracle_trigrams(text: str) -> Counter:
    text = langdetect._SOCIAL_TOKEN_RE.sub(" ", text.lower())
    cleaned = " ".join(ch if ch.isalpha() or ch == " " else " " for ch in text)
    cleaned = " ".join(cleaned.split())
    padded = f" {cleaned} "
    return Counter(padded[i : i + 3] for i in range(len(padded) - 2))


def oracle_normalize(counts: Counter) -> Dict[str, float]:
    norm = math.sqrt(sum(c * c for c in counts.values()))
    if norm == 0:
        return {}
    return {gram: c / norm for gram, c in counts.items()}


ORACLE_PROFILES = {
    lang: oracle_normalize(oracle_trigrams(text))
    for lang, text in langdetect._SEED_TEXT.items()
}


def oracle_scores(text: str) -> List[Tuple[str, float]]:
    """(language, cosine score) sorted best-first."""
    if not isinstance(text, str):
        # Degraded records may carry None; score as empty text.
        text = ""
    doc = oracle_normalize(oracle_trigrams(text))
    results = []
    for lang, profile in ORACLE_PROFILES.items():
        score = sum(weight * profile.get(gram, 0.0) for gram, weight in doc.items())
        results.append((lang, score))
    results.sort(key=lambda pair: (-pair[1], pair[0]))
    return results


def oracle_hash_feature(feature: str, dims: int) -> tuple:
    """Stable (index, sign) for a feature string."""
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    index = value % dims
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return index, sign


def oracle_transform(self: HashedTfidfEmbedder, texts: Sequence[str]) -> np.ndarray:
    matrix = np.zeros((len(texts), self.dims), dtype=np.float64)
    for row, text in enumerate(texts):
        counts: Dict[str, int] = {}
        for feature in self.features(text):
            counts[feature] = counts.get(feature, 0) + 1
        for feature, count in counts.items():
            idf = 1.0 if self._idf is None else self._idf.get(feature, 0.0)
            if idf == 0.0:
                continue
            weight = (1.0 + math.log(count)) * idf
            index, sign = oracle_hash_feature(feature, self.dims)
            matrix[row, index] += sign * weight
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


def oracle_pairwise_sq_dists(block: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between block rows and all points."""
    cross = block @ points.T
    block_norms = (block * block).sum(axis=1)[:, None]
    point_norms = (points * points).sum(axis=1)[None, :]
    d2 = block_norms + point_norms - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def oracle_kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding."""
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = rng.integers(0, n)
    centers[0] = points[first]
    closest = oracle_pairwise_sq_dists(points, centers[0:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(0, n, size=k - c)]
            break
        probs = closest / total
        index = rng.choice(n, p=probs)
        centers[c] = points[index]
        d2 = oracle_pairwise_sq_dists(points, centers[c : c + 1]).ravel()
        np.minimum(closest, d2, out=closest)
    return centers


class OracleDBSCAN(DBSCAN):
    """DBSCAN recomputing the all-points norms for every block."""

    def _fit_predict(self, points: np.ndarray) -> np.ndarray:
        n = len(points)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        eps2 = self.eps * self.eps
        # Neighbor lists, computed blockwise to bound memory.
        neighbors: List[np.ndarray] = []
        for start in range(0, n, self.block_size):
            block = points[start : start + self.block_size]
            d2 = oracle_pairwise_sq_dists(block, points)
            for row in d2:
                neighbors.append(np.nonzero(row <= eps2)[0])
        labels = np.full(n, -1, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        cluster = 0
        for i in range(n):
            if visited[i]:
                continue
            visited[i] = True
            if len(neighbors[i]) < self.min_samples:
                continue  # noise (may later be claimed as a border point)
            # Grow a new cluster from this core point.
            labels[i] = cluster
            queue = list(neighbors[i])
            head = 0
            while head < len(queue):
                j = queue[head]
                head += 1
                if labels[j] == -1:
                    labels[j] = cluster  # border point
                if visited[j]:
                    continue
                visited[j] = True
                labels[j] = cluster
                if len(neighbors[j]) >= self.min_samples:
                    queue.extend(neighbors[j])
            cluster += 1
        return labels


def oracle_normalized_word_similarity(a: str, b: str) -> float:
    wa, wb = normalize_for_similarity(a), normalize_for_similarity(b)
    if not wa and not wb:
        return 1.0
    return SequenceMatcher(a=wa, b=wb, autojunk=False).ratio()


def oracle_reuse_groups(texts: Sequence[str], threshold: float = 0.88) -> List[ReuseGroup]:
    n = len(texts)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    similarities: Dict[Tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            sim = oracle_normalized_word_similarity(texts[i], texts[j])
            if sim >= threshold:
                similarities[(i, j)] = sim
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    members: Dict[int, List[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    groups: List[ReuseGroup] = []
    for group_indices in members.values():
        if len(group_indices) < 2:
            continue
        sims = [
            similarities.get((a, b)) or similarities.get((b, a))
            for ai, a in enumerate(group_indices)
            for b in group_indices[ai + 1 :]
        ]
        sims = [s for s in sims if s is not None]
        if not sims:
            # Linked only transitively: recompute the direct bounds.
            sims = [
                oracle_normalized_word_similarity(texts[a], texts[b])
                for ai, a in enumerate(group_indices)
                for b in group_indices[ai + 1 :]
            ]
        groups.append(
            ReuseGroup(
                indices=sorted(group_indices),
                min_similarity=min(sims),
                max_similarity=max(sims),
            )
        )
    groups.sort(key=lambda g: (-g.size, g.indices[0]))
    return groups


# -- strategies -------------------------------------------------------------------

INDICATORS = sorted({i for indicators in VETTING_CODEBOOK.values() for i in indicators})

#: Tokens around the prefix rule: each indicator, its 4-character and
#: shorter prefixes, and suffixed forms ('nfts', 'donations', 'investing').
EDGE_TOKENS = sorted(
    {i for i in INDICATORS}
    | {i[:n] for i in INDICATORS for n in (1, 2, 3, 4)}
    | {i + suffix for i in INDICATORS for suffix in ("s", "ing", "ment", "x")}
)

tokens = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.text(min_size=1, max_size=3),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=4, max_size=4),
    st.text(min_size=1, max_size=10),
)
token_sets = st.sets(tokens, max_size=12)

#: Indicator lists with members that prefix one another.
indicator_lists = st.lists(
    st.one_of(
        st.sampled_from(["nft", "nfts", "donate", "donation", "invest",
                         "investment", "coin", "coins"]),
        st.sampled_from(INDICATORS),
        st.text(min_size=1, max_size=6),
    ),
    max_size=8,
)

post_words = st.lists(
    st.one_of(st.sampled_from(EDGE_TOKENS),
              st.sampled_from(["the", "and", "now", "win", "#crypto",
                               "@desk", "https://x.example/a", "42", "!!"]),
              st.text(max_size=6)),
    max_size=12,
).map(" ".join)


def corpus(seed: int, n_scam: int, n_benign: int) -> List[str]:
    rng = RngTree(seed, name="oracle-corpus")
    texts = [
        scam_post_text(ALL_SUBTYPES[i % len(ALL_SUBTYPES)], rng.child(f"s{i}"))
        for i in range(n_scam)
    ]
    texts += [benign_post_text(rng.child(f"b{i}")) for i in range(n_benign)]
    return texts


# -- vetting ----------------------------------------------------------------------


def token_match_hits(tokens: Set[str], indicators: Sequence[str]) -> int:
    """The indicators some token matches under ``_token_matches``, the
    one definition of the prefix rule."""
    return sum(
        1 for indicator in indicators
        if any(_token_matches(token, indicator) for token in tokens)
    )


class TestVettingOracle:
    @given(token_sets, indicator_lists)
    @settings(max_examples=300, deadline=None)
    def test_indicator_hits(self, tokens, indicators):
        assert (token_match_hits(tokens, indicators)
                == oracle_indicator_hits(tokens, indicators))

    @given(token_sets)
    @settings(max_examples=300, deadline=None)
    def test_memoised_hits_per_subtype(self, tokens):
        vetter = ClusterVetter(ScamPipelineConfig())
        matched = vetter._matched_indicators(tokens)
        for indicators in VETTING_CODEBOOK.values():
            fast = sum(1 for indicator in indicators if indicator in matched)
            assert fast == oracle_indicator_hits(tokens, indicators)

    def test_prefix_pairs(self):
        for tokens in ({"nft"}, {"nfts"}, {"nftsomething"}, {"donate"},
                       {"donation"}, {"donations"}, {"dona"}, {"don"}):
            for indicators in (["nft", "nfts"], ["donate", "donation"]):
                assert (token_match_hits(tokens, indicators)
                        == oracle_indicator_hits(tokens, indicators))

    @given(st.lists(post_words, min_size=1, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_score_sample(self, sample):
        config = ScamPipelineConfig()
        assert (ClusterVetter(config)._score_sample(sample)
                == OracleVetter(config)._score_sample(sample))

    @given(st.integers(0, 2**16), st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_verdicts_on_generated_posts(self, seed, n_clusters):
        texts = corpus(seed, n_scam=120, n_benign=60)
        labels = np.random.default_rng(seed).integers(-1, n_clusters, size=len(texts))
        config = ScamPipelineConfig(seed=seed)
        fast = ClusterVetter(config).vet(texts, labels, {})
        slow = OracleVetter(config).vet(texts, labels, {})
        assert fast == slow


# -- language filter ------------------------------------------------------------------


class TestLanguageOracle:
    detector = LanguageDetector()

    @pytest.mark.parametrize("text", [
        None, "", "   ", "!!! ... ??? 123 456", "#motivation #motivationdaily",
        "@someone #tag https://x.example/path", "привет всем спасибо",
        "日本語のテキスト", "مرحبا بالجميع", "a", "ab cd", "İstanbul ß ǅ",
        "thank you all for watching the new video",
        "gracias por el apoyo nueva publicacion cada semana",
    ])
    def test_scores_on_edge_texts(self, text):
        assert self.detector.scores(text) == oracle_scores(text)

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_scores_on_any_text(self, text):
        assert self.detector.scores(text) == oracle_scores(text)

    @given(post_words)
    @settings(max_examples=200, deadline=None)
    def test_scores_on_post_like_text(self, text):
        assert self.detector.scores(text) == oracle_scores(text)

    def test_scores_on_generated_posts(self):
        for text in corpus(11, n_scam=200, n_benign=200):
            assert self.detector.scores(text) == oracle_scores(text)

    def test_letter_features_are_unigrams_and_cross_word_pairs(self):
        # Not character trigrams: every non-letter is dropped, so the
        # pairs run across word boundaries ('bc' in "ab cd").
        assert list(_letter_features("ab cd").items()) == [
            ("a", 1), ("ab", 1), ("b", 1), ("bc", 1), ("c", 1), ("cd", 1), ("d", 1),
        ]
        assert _letter_features("x") == Counter({"x": 1})
        assert _letter_features("1, 2! #tag @who https://x.example") == Counter()

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_letter_features_are_the_spaced_trigrams(self, text):
        legacy = oracle_trigrams(text)
        assert list(_letter_features(text).items()) == [
            (gram.replace(" ", ""), count) for gram, count in legacy.items()
        ]


# -- embeddings -------------------------------------------------------------------


class TestEmbeddingOracle:
    @given(st.lists(post_words, max_size=30), st.sampled_from([8, 64, 192]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_transform(self, texts, dims, fitted):
        embedder = HashedTfidfEmbedder(dims=dims)
        if fitted:
            embedder.fit(texts)
        assert np.array_equal(embedder.transform(texts),
                              oracle_transform(embedder, texts))

    def test_transform_on_generated_posts(self):
        texts = corpus(5, n_scam=300, n_benign=200)
        embedder = HashedTfidfEmbedder(dims=192).fit(texts)
        assert np.array_equal(embedder.transform(texts),
                              oracle_transform(embedder, texts))


# -- clustering -----------------------------------------------------------------------


def random_points(seed: int, n: int, dims: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(4, dims))
    points = centers[rng.integers(0, 4, size=n)] + rng.normal(scale=0.2, size=(n, dims))
    return points.astype(dtype)


class TestClusterOracle:
    @given(st.integers(0, 2**16), st.integers(1, 300), st.integers(1, 24),
           st.sampled_from([2, 16, 192]), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_kmeans_pp_centres(self, seed, n, k, dims, dtype):
        points = random_points(seed, n, dims, dtype)
        k = min(k, n)
        fast = _kmeans_pp_init(points, k, np.random.default_rng(seed))
        slow = oracle_kmeans_pp_init(points, k, np.random.default_rng(seed))
        assert np.array_equal(fast, slow)

    @given(st.integers(0, 2**16), st.integers(1, 300), st.integers(1, 40),
           st.sampled_from([2, 16, 192]), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_distances_with_precomputed_norms(self, seed, n, m, dims, dtype):
        # The centres above are robust to last-bit changes in the
        # distances; the hoisted norms must not change even those.
        points = random_points(seed, n, dims, dtype)
        others = random_points(seed + 1, m, dims, dtype)
        expected = oracle_pairwise_sq_dists(points, others)
        for block_norms, point_norms in ((_sq_norms(points), None),
                                         (None, _sq_norms(others))):
            fast = _pairwise_sq_dists(points, others, block_norms=block_norms,
                                      point_norms=point_norms)
            assert np.array_equal(fast, expected)

    def test_kmeans_pp_with_duplicate_points(self):
        points = np.ones((20, 8), dtype=np.float32)
        fast = _kmeans_pp_init(points, 5, np.random.default_rng(3))
        slow = oracle_kmeans_pp_init(points, 5, np.random.default_rng(3))
        assert np.array_equal(fast, slow)

    @given(st.integers(0, 2**16), st.integers(0, 400),
           st.sampled_from([0.3, 0.9, 2.0]), st.integers(1, 6),
           st.sampled_from([16, 64, 512]))
    @settings(max_examples=40, deadline=None)
    def test_dbscan_labels(self, seed, n, eps, min_samples, block_size):
        points = random_points(seed, n, 8, np.float32)
        fast = DBSCAN(eps, min_samples, block_size=block_size).fit_predict(points)
        slow = OracleDBSCAN(eps, min_samples, block_size=block_size).fit_predict(points)
        assert np.array_equal(fast, slow)

    def test_dbscan_on_embedded_posts(self):
        texts = corpus(9, n_scam=400, n_benign=200)
        matrix = HashedTfidfEmbedder(dims=192).fit_transform(texts).astype(np.float32)
        fast = DBSCAN(0.9, 5, block_size=128).fit_predict(matrix)
        slow = OracleDBSCAN(0.9, 5, block_size=128).fit_predict(matrix)
        assert np.array_equal(fast, slow)


# -- underground reuse ------------------------------------------------------------------

reuse_texts = st.lists(
    st.lists(st.sampled_from(["selling", "aged", "accounts", "instagram", "bulk",
                              "cheap", "pva", "99", "5", "!!", "fast"]),
             max_size=8).map(" ".join),
    max_size=14,
)


class TestReuseOracle:
    @given(reuse_texts, st.sampled_from([0.0, 0.5, 0.88, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_reuse_groups(self, texts, threshold):
        assert reuse_groups(texts, threshold) == oracle_reuse_groups(texts, threshold)

    def test_two_empty_texts_are_identical(self):
        assert reuse_groups(["", "123 !!"], 0.88) == oracle_reuse_groups(["", "123 !!"], 0.88)
        assert reuse_groups(["", "123 !!"], 0.88)[0].min_similarity == 1.0
