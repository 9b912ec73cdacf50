"""Tests for the Study pipeline and report rendering."""

import pytest

from repro.analysis import (
    AccountSetupAnalysis,
    EfficacyAnalysis,
    MarketplaceAnatomy,
    NetworkAnalysis,
    ScamPostAnalysis,
    UndergroundAnalysis,
)
from repro.analysis.figures import fig3_outlier, fig5_descriptions, listing_dynamics
from repro.core import Study, StudyConfig
from repro.core import reports
from repro.marketplaces.channels import CHANNELS
from repro.synthetic import calibration as cal

from tests.conftest import TEST_SCALE


class TestStudy:
    def test_triage_module(self):
        study = Study(StudyConfig(scale=0.02))
        assert len(study.marketplaces_to_monitor()) == 12

    def test_dataset_shape(self, study_result):
        summary = study_result.dataset.summary()
        assert summary["listings"] > 0
        assert summary["profiles"] > 0
        assert summary["posts"] > 0
        assert summary["underground"] == cal.UNDERGROUND_TOTAL_POSTS

    def test_profiles_match_visible_listings(self, study_result):
        dataset = study_result.dataset
        visible_urls = {l.profile_url for l in dataset.visible_listings()}
        profile_urls = {p.profile_url for p in dataset.profiles}
        assert profile_urls == visible_urls

    def test_every_marketplace_crawled(self, study_result):
        markets = {l.marketplace for l in study_result.dataset.listings}
        assert markets == set(cal.MARKETPLACE_TABLE1)

    def test_payment_methods_collected_for_all(self, study_result):
        assert set(study_result.payment_methods) == set(cal.MARKETPLACE_TABLE1)

    def test_simulated_time_positive(self, study_result):
        assert study_result.simulated_seconds > 0

    def test_inactive_share_near_paper(self, study_result):
        profiles = study_result.dataset.profiles
        inactive = sum(1 for p in profiles if not p.is_active)
        rate = inactive / len(profiles)
        assert abs(rate - cal.OVERALL_EFFICACY) < 0.05

    def test_no_underground_config(self):
        result = Study(
            StudyConfig(seed=3, scale=0.02, iterations=2, include_underground=False)
        ).run()
        assert result.dataset.underground == []

    def test_determinism(self):
        config = StudyConfig(seed=77, scale=0.02, iterations=2)
        a = Study(config).run()
        b = Study(config).run()
        assert a.dataset.summary() == b.dataset.summary()
        assert a.active_per_iteration == b.active_per_iteration
        urls_a = sorted(l.offer_url for l in a.dataset.listings)
        urls_b = sorted(l.offer_url for l in b.dataset.listings)
        assert urls_a == urls_b


class TestReports:
    """Every renderer returns non-empty text containing its headline rows."""

    def test_table1(self, dataset):
        anatomy = MarketplaceAnatomy().run(dataset)
        text = reports.render_table1(anatomy, TEST_SCALE)
        assert "Accsmarket" in text and "Total" in text

    def test_table2(self, dataset):
        anatomy = MarketplaceAnatomy().run(dataset)
        text = reports.render_table2(anatomy, TEST_SCALE)
        assert "YouTube" in text and "Paper" in text

    def test_table3(self, study_result):
        matrix = MarketplaceAnatomy.payment_matrix(study_result.payment_methods)
        text = reports.render_table3(matrix)
        assert "Z2U" in text
        assert "match" in text

    def test_table4(self, dataset):
        setup = AccountSetupAnalysis().run(dataset)
        text = reports.render_table4(setup)
        assert "TikTok" in text

    def test_table5_and_6(self, dataset):
        report = ScamPostAnalysis().run(dataset)
        t5 = reports.render_table5(report, TEST_SCALE)
        t6 = reports.render_table6(report, TEST_SCALE)
        assert "Total" in t5
        assert "Crypto Scams" in t6
        assert "Engagement Bait" in t6

    def test_table7(self, dataset):
        network = NetworkAnalysis().run(dataset)
        text = reports.render_table7(network, TEST_SCALE)
        assert "Instagram" in text and "All" in text

    def test_table8(self, dataset):
        efficacy = EfficacyAnalysis().run(dataset)
        text = reports.render_table8(efficacy)
        assert "19.71" in text  # the paper column

    def test_table9(self):
        text = reports.render_table9(CHANNELS)
        assert "contact points" in text

    def test_fig2(self, study_result):
        dynamics = listing_dynamics(
            study_result.active_per_iteration, study_result.cumulative_per_iteration
        )
        text = reports.render_fig2(dynamics)
        assert "cumulative monotonic: True" in text

    def test_fig3(self, dataset):
        text = reports.render_fig3(fig3_outlier(dataset))
        assert "FameSwap" in text and "$50,000,000" in text

    def test_fig4(self, dataset):
        setup = AccountSetupAnalysis().run(dataset)
        text = reports.render_fig4(setup)
        assert "Pre-2020" in text

    def test_fig5(self, dataset):
        network = NetworkAnalysis().run(dataset)
        text = reports.render_fig5(fig5_descriptions(network))
        assert "1." in text

    def test_underground_report(self, dataset):
        report = UndergroundAnalysis().run(dataset.underground)
        text = reports.render_underground(report)
        assert "Nexus" in text and "cross-market sellers" in text

    def test_anatomy_extras(self, dataset):
        anatomy = MarketplaceAnatomy().run(dataset)
        text = reports.render_anatomy_extras(anatomy, TEST_SCALE)
        assert "top-grossing platform: TikTok" in text
