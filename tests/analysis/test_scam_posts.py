"""Tests for the Section-6 scam-post pipeline, scored against ground truth."""

import pytest

from repro.analysis.scam_posts import (
    ClusterVetter,
    ScamPipelineConfig,
    ScamPostAnalysis,
)
from repro.core.dataset import PostRecord
from repro.nlp.langdetect import LanguageDetector
from repro.synthetic.scamtext import SUBTYPE_TO_CATEGORY


@pytest.fixture(scope="module")
def scam_report(dataset):
    return ScamPostAnalysis().run(dataset)


@pytest.fixture(scope="module")
def truth(world):
    mapping = {}
    for account in world.accounts.values():
        for post in account.posts:
            mapping[post.text] = post.scam_subtype
    return mapping


@pytest.fixture(scope="module")
def english_posts(dataset):
    detector = LanguageDetector()
    return [p for p in dataset.posts if detector.is_english(p.text)]


class TestPipelineShape:
    def test_language_filter_drops_a_minority(self, scam_report):
        ratio = scam_report.posts_english / scam_report.posts_considered
        assert 0.85 < ratio < 0.97  # ~8% of posts are non-English

    def test_many_clusters_minority_scam(self, scam_report):
        assert scam_report.n_clusters > 20
        assert 0 < scam_report.scam_clusters < scam_report.n_clusters

    def test_table5_covers_all_platforms(self, scam_report):
        assert set(scam_report.table5) == {
            "Facebook", "Instagram", "TikTok", "X", "YouTube",
        }

    def test_table6_maps_into_paper_taxonomy(self, scam_report):
        for category, subtypes in scam_report.table6.items():
            for subtype in subtypes:
                assert SUBTYPE_TO_CATEGORY[subtype] == category

    def test_x_has_most_scam_posts(self, scam_report):
        posts = {p: v[1] for p, v in scam_report.table5.items()}
        assert max(posts, key=posts.get) == "X"  # paper: X leads posts

    def test_youtube_has_most_scam_accounts(self, scam_report):
        accounts = {p: v[0] for p, v in scam_report.table5.items()}
        assert max(accounts, key=accounts.get) == "YouTube"  # paper: YT leads accounts


class TestDetectionQuality:
    def test_post_precision_above_95(self, scam_report, truth, english_posts):
        detected = list(scam_report.scam_post_subtypes)
        assert detected
        true_positives = sum(
            1 for i in detected if truth.get(english_posts[i].text)
        )
        assert true_positives / len(detected) > 0.95

    def test_post_recall_above_85(self, scam_report, truth, english_posts):
        total_scam = sum(1 for p in english_posts if truth.get(p.text))
        true_positives = sum(
            1 for i in scam_report.scam_post_subtypes
            if truth.get(english_posts[i].text)
        )
        assert true_positives / total_scam > 0.85

    def test_subtype_assignment_mostly_correct(self, scam_report, truth, english_posts):
        checked = correct = 0
        for index, subtype in scam_report.scam_post_subtypes.items():
            expected = truth.get(english_posts[index].text)
            if expected is not None:
                checked += 1
                if expected == subtype:
                    correct += 1
        assert checked > 0
        assert correct / checked > 0.8

    def test_account_precision(self, scam_report, world):
        truth_accounts = {
            (a.platform.value, a.handle)
            for a in world.accounts.values()
            if a.is_scammer
        }
        detected = scam_report.scam_accounts
        assert detected
        assert len(detected & truth_accounts) / len(detected) > 0.95

    def test_account_recall_of_collected(self, scam_report, world, dataset):
        collected_handles = {(p.platform, p.handle) for p in dataset.profiles}
        truth_accounts = {
            (a.platform.value, a.handle)
            for a in world.accounts.values()
            if a.is_scammer and (a.platform.value, a.handle) in collected_handles
        }
        hit = len(scam_report.scam_accounts & truth_accounts)
        assert hit / len(truth_accounts) > 0.8


def _indicator_hits(vetter, tokens, indicators):
    """How many of ``indicators`` the vetter matches in ``tokens``."""
    return len(vetter._matched_indicators(tokens) & set(indicators))


class TestVetter:
    def test_codebook_match_requires_two_indicators(self):
        vetter = ClusterVetter(ScamPipelineConfig())
        tokens = {"bitcoin", "weather"}
        hits = _indicator_hits(vetter, tokens,
                               ["bitcoin", "profit", "trading"])
        assert hits == 1

    def test_prefix_stemming(self):
        vetter = ClusterVetter(ScamPipelineConfig())
        tokens = {"investment", "donations"}
        assert _indicator_hits(vetter, tokens, ["invest"]) == 1
        assert _indicator_hits(vetter, tokens, ["donation"]) == 1

    def test_short_indicators_need_exact_match(self):
        vetter = ClusterVetter(ScamPipelineConfig())
        assert _indicator_hits(vetter, {"nftsomething"}, ["nft"]) == 0
        assert _indicator_hits(vetter, {"nft"}, ["nft"]) == 1


class TestDegenerateInputs:
    def test_empty_dataset(self):
        report = ScamPostAnalysis().run_posts([])
        assert report.total_scam_posts == 0
        assert report.table5 == {}

    def test_all_non_english(self):
        posts = [
            PostRecord(post_id=str(i), platform="X", handle="h",
                       text="gracias por el apoyo nueva publicacion cada semana")
            for i in range(10)
        ]
        report = ScamPostAnalysis().run_posts(posts)
        assert report.posts_english == 0
        assert report.total_scam_posts == 0

    def test_small_benign_corpus(self):
        posts = [
            PostRecord(post_id=str(i), platform="X", handle=f"h{i}",
                       text=f"lovely hiking weather today number {i} in the hills")
            for i in range(20)
        ]
        report = ScamPostAnalysis().run_posts(posts)
        assert report.total_scam_posts == 0
