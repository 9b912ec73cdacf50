"""Section 6: scam post analysis (Tables 5 and 6).

The pipeline mirrors the paper's technical setup stage for stage:

1. language filter (CLD2 -> :class:`~repro.nlp.langdetect.LanguageDetector`);
2. embeddings (all-mpnet-base-v2 -> hashed TF-IDF over token unigrams and
   bigrams);
3. reduction (UMAP -> none: the hashed embeddings are already dense and
   low-dimensional, so they are clustered directly);
4. clustering (HDBSCAN -> DBSCAN or the scalable density clusterer);
5. keywords (KeyBERT -> class-based TF-IDF);
6. vetting (manual 25-post review -> :class:`ClusterVetter` with the
   codebook distilled from the paper's six scam types).

Outputs reproduce Table 5 (scam accounts/posts per platform) and Table 6
(accounts/posts per category and subtype).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.dataset import MeasurementDataset, PostRecord
from repro.nlp.cluster import DBSCAN, ScalableDensityClusterer, cluster_stats
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.nlp.embeddings import HashedTfidfEmbedder
from repro.nlp.keywords import class_tfidf_keywords
from repro.nlp.langdetect import LanguageDetector
from repro.nlp.tokenize import tokenize
from repro.synthetic.scamtext import SUBTYPE_TO_CATEGORY, VETTING_CODEBOOK
from repro.util.rng import RngTree


@dataclass(frozen=True)
class ScamPipelineConfig:
    """Tunables for the clustering pipeline."""

    embedding_dims: int = 192
    #: Corpora above this size use the scalable density clusterer (with a
    #: refinement pass) instead of exact DBSCAN.
    large_corpus_threshold: int = 12_000
    #: DBSCAN radius for corpora at or below the threshold.
    dbscan_eps: float = 0.9
    dbscan_min_samples: int = 5
    merge_eps: float = 0.4
    min_cluster_size: int = 6
    kmeans_max_k: int = 512
    refine_min: int = 24
    refine_divisor: int = 12
    #: Posts sampled per cluster for vetting (the paper used 25).
    vetting_sample: int = 25
    #: A cluster is scam-labeled when at least this fraction of sampled
    #: posts match a scam subtype's indicators.
    vetting_threshold: float = 0.5
    seed: int = 7


@dataclass
class ClusterVerdict:
    """Vetting outcome for one cluster."""

    cluster_id: int
    size: int
    keywords: List[Tuple[str, float]]
    subtype: Optional[str]  # None = not scam
    category: Optional[str]
    match_score: float

    @property
    def is_scam(self) -> bool:
        return self.subtype is not None


@dataclass
class ScamReport:
    """Tables 5 and 6 plus pipeline bookkeeping."""

    posts_considered: int
    posts_english: int
    n_clusters: int
    n_noise: int
    verdicts: List[ClusterVerdict]
    #: Table 5: platform -> (scam accounts, scam posts).
    table5: Dict[str, Tuple[int, int]]
    #: Table 6: category -> subtype -> (accounts, posts).
    table6: Dict[str, Dict[str, Tuple[int, int]]]
    total_scam_accounts: int
    total_scam_posts: int
    #: (platform, handle) pairs flagged as scam accounts.
    scam_accounts: Set[Tuple[str, str]] = field(default_factory=set)
    #: indices (into the English corpus) of scam posts with their subtype.
    scam_post_subtypes: Dict[int, str] = field(default_factory=dict)
    #: post_id -> predicted subtype, for scoring against ground truth.
    scam_post_ids: Dict[str, str] = field(default_factory=dict)

    @property
    def scam_clusters(self) -> int:
        return sum(1 for v in self.verdicts if v.is_scam)

    def predicted_accounts(self) -> Set[Tuple[str, str]]:
        """The (platform, handle) pairs the pipeline labelled as scam."""
        return set(self.scam_accounts)


def _token_matches(token: str, indicator: str) -> bool:
    """Whether ``token`` counts as ``indicator``, with light stemming.

    Equal strings always match.  An indicator of four or more characters
    also matches when either string is a prefix of the other, the token
    needing four characters itself to count as a prefix (so 'investment'
    matches 'invest' and 'nfts' matches 'nft', but 'nftsomething' does not
    match the three-letter 'nft').
    """
    if token == indicator:
        return True
    return len(indicator) >= 4 and (
        token.startswith(indicator)
        or (len(token) >= 4 and indicator.startswith(token))
    )


class ClusterVetter:
    """The programmatic stand-in for manual cluster review.

    For each cluster, sample ``vetting_sample`` posts and score every
    scam subtype in the codebook: a sampled post "matches" a subtype when
    it contains at least two of that subtype's indicator keywords.  The
    best-scoring subtype above the threshold labels the cluster.
    """

    def __init__(self, config: ScamPipelineConfig) -> None:
        self._config = config
        self._rng = RngTree(config.seed, name="vetter")
        self._indicators = tuple(dict.fromkeys(
            indicator
            for indicators in VETTING_CODEBOOK.values()
            for indicator in indicators
        ))
        # token -> the codebook indicators it matches; posts in one corpus
        # share most of their vocabulary, so each token is tested once.
        self._token_memo: Dict[str, FrozenSet[str]] = {}

    def vet(
        self,
        texts: Sequence[str],
        labels: np.ndarray,
        keywords: Dict[int, List[Tuple[str, float]]],
    ) -> List[ClusterVerdict]:
        members_by_label: Dict[int, List[int]] = {}
        for index, label in enumerate(labels):
            if label >= 0:
                members_by_label.setdefault(int(label), []).append(index)
        verdicts: List[ClusterVerdict] = []
        for label in sorted(members_by_label):
            member_indices = members_by_label[label]
            sample_size = min(self._config.vetting_sample, len(member_indices))
            sample = self._rng.child(f"cluster-{label}").sample(
                member_indices, sample_size
            )
            subtype, score = self._score_sample([texts[i] for i in sample])
            verdicts.append(
                ClusterVerdict(
                    cluster_id=label,
                    size=len(member_indices),
                    keywords=keywords.get(label, []),
                    subtype=subtype,
                    category=SUBTYPE_TO_CATEGORY.get(subtype) if subtype else None,
                    match_score=score,
                )
            )
        return verdicts

    def _matched_indicators(self, tokens: Set[str]) -> Set[str]:
        """Every codebook indicator that some token in ``tokens`` matches."""
        memo = self._token_memo
        matched: Set[str] = set()
        for token in tokens:
            hits = memo.get(token)
            if hits is None:
                hits = memo[token] = frozenset(
                    indicator for indicator in self._indicators
                    if _token_matches(token, indicator)
                )
            matched |= hits
        return matched

    def _score_sample(self, sample: List[str]) -> Tuple[Optional[str], float]:
        scores: Dict[str, float] = {}
        matched_sets = [
            self._matched_indicators(set(tokenize(text, keep_handles=False)))
            for text in sample
        ]
        for subtype, indicators in VETTING_CODEBOOK.items():
            matches = sum(
                1 for matched in matched_sets
                if sum(1 for indicator in indicators if indicator in matched) >= 2
            )
            scores[subtype] = matches / max(1, len(sample))
        best_subtype = max(scores, key=lambda s: (scores[s], s))
        best = scores[best_subtype]
        if best >= self._config.vetting_threshold:
            return best_subtype, best
        return None, best


class ScamPostAnalysis:
    """Runs the full Section-6 pipeline over collected posts."""

    def __init__(self, config: Optional[ScamPipelineConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.config = config or ScamPipelineConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        self._detector = LanguageDetector()

    def run(self, dataset: MeasurementDataset) -> ScamReport:
        return self.run_posts(dataset.posts)

    def run_posts(self, posts: Sequence[PostRecord]) -> ScamReport:
        config = self.config
        tracer = self.telemetry.tracer
        with tracer.span("nlp.language_filter", n_posts=len(posts)):
            english = [p for p in posts if self._detector.is_english(p.text)]
        texts = [p.text for p in english]
        if not texts:
            return ScamReport(
                posts_considered=len(posts), posts_english=0, n_clusters=0,
                n_noise=0, verdicts=[], table5={}, table6={},
                total_scam_accounts=0, total_scam_posts=0,
            )
        labels = self._cluster(texts)
        stats = cluster_stats(labels)
        with tracer.span("nlp.keywords", n_clusters=stats.n_clusters):
            keywords = class_tfidf_keywords(texts, labels, top_n=10)
        vetter = ClusterVetter(config)
        with tracer.span("nlp.vetting", n_clusters=stats.n_clusters):
            verdicts = vetter.vet(texts, labels, keywords)
        return self._aggregate(posts, english, labels, verdicts, stats)

    # -- clustering -------------------------------------------------------------

    def _cluster(self, texts: List[str]) -> np.ndarray:
        config = self.config
        embedder = HashedTfidfEmbedder(
            dims=config.embedding_dims, telemetry=self.telemetry
        )
        matrix = embedder.fit_transform(texts).astype(np.float32)
        if len(texts) > config.large_corpus_threshold:
            clusterer = ScalableDensityClusterer(
                merge_eps=config.merge_eps,
                min_cluster_size=config.min_cluster_size,
                max_k=config.kmeans_max_k,
                seed=config.seed,
                refine_min=config.refine_min,
                refine_divisor=config.refine_divisor,
                telemetry=self.telemetry,
            )
            return clusterer.fit_predict(matrix)
        dbscan = DBSCAN(eps=config.dbscan_eps,
                        min_samples=config.dbscan_min_samples,
                        telemetry=self.telemetry)
        return dbscan.fit_predict(matrix)

    # -- aggregation ---------------------------------------------------------------

    def _aggregate(
        self,
        all_posts: Sequence[PostRecord],
        english: List[PostRecord],
        labels: np.ndarray,
        verdicts: List[ClusterVerdict],
        stats,
    ) -> ScamReport:
        subtype_of_cluster = {v.cluster_id: v.subtype for v in verdicts if v.is_scam}
        scam_posts_by_platform: Counter = Counter()
        scam_accounts: Set[Tuple[str, str]] = set()
        scam_post_subtypes: Dict[int, str] = {}
        scam_post_ids: Dict[str, str] = {}
        subtype_posts: Counter = Counter()
        subtype_accounts: Dict[str, Set[Tuple[str, str]]] = {}
        for index, (post, label) in enumerate(zip(english, labels)):
            subtype = subtype_of_cluster.get(int(label))
            if subtype is None:
                continue
            key = (post.platform, post.handle)
            scam_posts_by_platform[post.platform] += 1
            scam_accounts.add(key)
            scam_post_subtypes[index] = subtype
            scam_post_ids[post.post_id] = subtype
            subtype_posts[subtype] += 1
            subtype_accounts.setdefault(subtype, set()).add(key)
        accounts_by_platform: Counter = Counter()
        for platform, handle in scam_accounts:
            accounts_by_platform[platform] += 1
        table5 = {
            platform: (
                accounts_by_platform.get(platform, 0),
                scam_posts_by_platform.get(platform, 0),
            )
            for platform in sorted(
                set(accounts_by_platform) | set(scam_posts_by_platform)
            )
        }
        table6: Dict[str, Dict[str, Tuple[int, int]]] = {}
        for subtype, posts_count in subtype_posts.items():
            category = SUBTYPE_TO_CATEGORY[subtype]
            table6.setdefault(category, {})[subtype] = (
                len(subtype_accounts[subtype]),
                posts_count,
            )
        return ScamReport(
            posts_considered=len(all_posts),
            posts_english=len(english),
            n_clusters=stats.n_clusters,
            n_noise=stats.n_noise,
            verdicts=verdicts,
            table5=table5,
            table6=table6,
            total_scam_accounts=len(scam_accounts),
            total_scam_posts=sum(scam_posts_by_platform.values()),
            scam_accounts=scam_accounts,
            scam_post_subtypes=scam_post_subtypes,
            scam_post_ids=scam_post_ids,
        )


__all__ = [
    "ClusterVerdict",
    "ClusterVetter",
    "ScamPipelineConfig",
    "ScamPostAnalysis",
    "ScamReport",
]
