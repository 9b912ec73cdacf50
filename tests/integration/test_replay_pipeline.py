"""Replay is the live pipeline run over an archive, not a second driver.

A chaos-profile archived run with the underground forums on is replayed
offline.  The replay must recompute every record list, the simulated
clock and the scorecard exactly, and, with telemetry on, record the same
stage spans under the same ``study`` root as the live run did.
"""

import json

import pytest

from repro.archive import run_replay
from repro.core.pipeline import Study, StudyConfig
from repro.obs.telemetry import Telemetry

RECORD_TYPES = ("listings", "sellers", "profiles", "posts", "underground")


@pytest.fixture(scope="module")
def chaos_archived_run(tmp_path_factory):
    archive_dir = str(tmp_path_factory.mktemp("chaos_archive"))
    live = Study(StudyConfig(
        seed=97, scale=0.01, iterations=3, include_underground=True,
        chaos_profile="moderate", telemetry_enabled=True,
        archive_dir=archive_dir,
    )).run()
    return live, archive_dir


def test_chaos_underground_replay_matches_live(chaos_archived_run):
    live, archive_dir = chaos_archived_run
    # The run exercised what this test is about: injected faults and
    # the underground collector.
    assert sum(live.fault_injector.counts.values()) > 0
    assert live.dataset.underground

    replayed = run_replay(archive_dir)
    for record_type in RECORD_TYPES:
        assert (getattr(replayed.dataset, record_type)
                == getattr(live.dataset, record_type)), record_type
    assert replayed.simulated_seconds == live.simulated_seconds
    assert replayed.scorecard is not None and live.scorecard is not None
    assert (
        json.dumps(replayed.scorecard.to_dict(), sort_keys=True)
        == json.dumps(live.scorecard.to_dict(), sort_keys=True)
    )


def test_replay_records_the_live_stage_spans(chaos_archived_run):
    live, archive_dir = chaos_archived_run
    telemetry = Telemetry()
    run_replay(archive_dir, telemetry=telemetry)

    live_spans = live.telemetry.tracer.spans
    replay_spans = telemetry.tracer.spans
    for spans in (live_spans, replay_spans):
        roots = [span.name for span in spans if span.parent_id is None]
        assert roots == ["study"]

    live_stages = [row["name"]
                   for row in live.telemetry.tracer.stage_summary()]
    replay_stages = [row["name"] for row in telemetry.tracer.stage_summary()]
    assert "archive_seal" in live_stages
    assert replay_stages == [n for n in live_stages if n != "archive_seal"]
    assert "iteration_crawl" in replay_stages
    assert not [span.name for span in replay_spans
                if span.name.startswith("replay.")]
