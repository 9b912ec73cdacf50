"""Tests for the dataset bridge and the ``repro data`` CLI commands."""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.contracts import QuarantineStore
from repro.core.dataset import (
    ListingRecord,
    MeasurementDataset,
    ProfileRecord,
    SellerRecord,
)
from repro.faults import DiskFaultInjector, resolve_profile
from repro.faults.profiles import FaultProfile, FaultRates
from repro.store import (
    StoreError,
    StoreWriter,
    is_store_dir,
    load_dataset,
    save_dataset,
)


def _dataset(listings=3, sellers=2, profiles=1):
    return MeasurementDataset(
        listings=[
            ListingRecord(offer_url=f"http://m/offer/{i}", marketplace="M",
                          price_usd=10.0 + i)
            for i in range(listings)
        ],
        sellers=[
            SellerRecord(seller_url=f"http://m/seller/{i}", marketplace="M")
            for i in range(sellers)
        ],
        profiles=[
            ProfileRecord(profile_url=f"http://x/p{i}", platform="X",
                          handle=f"h{i}")
            for i in range(profiles)
        ],
    )


class TestBridge:
    def test_roundtrip_preserves_records(self, tmp_path):
        directory = str(tmp_path / "store")
        dataset = _dataset()
        report = save_dataset(dataset, directory)
        assert report.complete
        assert report.counts == {"listings": 3, "profiles": 1, "sellers": 2}
        loaded = load_dataset(directory)
        assert loaded.listings == dataset.listings
        assert loaded.sellers == dataset.sellers
        assert loaded.profiles == dataset.profiles

    def test_is_store_dir(self, tmp_path):
        directory = str(tmp_path / "store")
        save_dataset(_dataset(), directory)
        assert is_store_dir(directory)
        assert not is_store_dir(str(tmp_path))

    def test_disk_full_flushes_prefix_and_marks_partial(self, tmp_path):
        directory = str(tmp_path / "store")
        faults = DiskFaultInjector(resolve_profile("disk_full"), seed=3)
        dataset = _dataset(listings=5000)
        report = save_dataset(dataset, directory, faults=faults)
        assert report.partial == "disk_full"
        flushed = report.counts.get("listings", 0)
        assert 0 < flushed < 5000
        assert sum(report.dropped.values()) + flushed \
            + report.counts.get("sellers", 0) \
            + report.counts.get("profiles", 0) == 5003
        # The partial store still loads, and carries the marker.
        loaded = load_dataset(directory)
        assert len(loaded.listings) >= flushed - 1
        with open(os.path.join(directory, "store.json")) as handle:
            assert json.load(handle)["partial"] == "disk_full"

    def test_save_replaces_once_and_fsyncs_each_segment_once(
            self, tmp_path, monkeypatch):
        # One fsync per sealed segment plus one for the manifest, and
        # the manifest's rename is the only os.replace of the save.
        calls = {"replace": 0, "fsync": 0}
        real_replace, real_fsync = os.replace, os.fsync

        def counted_replace(*args, **kwargs):
            calls["replace"] += 1
            return real_replace(*args, **kwargs)

        def counted_fsync(*args, **kwargs):
            calls["fsync"] += 1
            return real_fsync(*args, **kwargs)

        monkeypatch.setattr(os, "replace", counted_replace)
        monkeypatch.setattr(os, "fsync", counted_fsync)
        directory = str(tmp_path / "store")
        save_dataset(_dataset(listings=7, sellers=4, profiles=2),
                     directory, segment_max_records=3)
        segments = len(os.listdir(os.path.join(directory, "segments")))
        assert segments == 3 + 2 + 1
        assert calls == {"replace": 1, "fsync": segments + 1}

    def test_save_refuses_existing_store_directory(self, tmp_path):
        directory = str(tmp_path / "store")
        save_dataset(_dataset(), directory)
        before = {
            name: open(os.path.join(directory, "segments", name),
                       "rb").read()
            for name in os.listdir(os.path.join(directory, "segments"))
        }
        with pytest.raises(StoreError):
            save_dataset(_dataset(listings=9), directory)
        # The refusal left the first run's store byte-identical.
        after = {
            name: open(os.path.join(directory, "segments", name),
                       "rb").read()
            for name in os.listdir(os.path.join(directory, "segments"))
        }
        assert after == before
        assert len(load_dataset(directory).listings) == 3

    def test_disk_full_during_seal_still_degrades_gracefully(
            self, tmp_path):
        # With a certain per-write ENOSPC rate, even the partial-seal
        # manifest write fails; save_dataset must honor its "a full
        # disk does not raise" contract and report the partial save.
        directory = str(tmp_path / "store")
        profile = FaultProfile(
            name="full", rates=FaultRates(disk_enospc=1.0),
        )
        faults = DiskFaultInjector(profile, seed=11)
        report = save_dataset(_dataset(), directory, faults=faults)
        assert report.partial == "disk_full"
        assert sum(report.dropped.values()) == 6
        # No manifest landed, but the directory is still a readable
        # (empty-prefix) store, not a traceback.
        assert not os.path.exists(os.path.join(directory, "store.json"))
        loaded = load_dataset(directory)
        assert loaded.listings == []

    def test_shape_drifted_record_is_quarantined(self, tmp_path):
        directory = str(tmp_path / "store")
        writer = StoreWriter(directory)
        writer.append("listings", {"marketplace": "M"})  # no offer_url
        writer.append("listings", {"offer_url": "u", "marketplace": "M"})
        writer.seal()
        quarantine = QuarantineStore()
        loaded = load_dataset(directory, quarantine=quarantine)
        assert len(loaded.listings) == 1
        assert quarantine.total == 1

    def test_unknown_record_type_is_ignored(self, tmp_path):
        directory = str(tmp_path / "store")
        writer = StoreWriter(directory)
        writer.append("wormholes", {"x": 1})
        writer.append("listings", {"offer_url": "u", "marketplace": "M"})
        writer.seal()
        loaded = load_dataset(directory)
        assert len(loaded.listings) == 1


class TestDataCli:
    def _store(self, tmp_path):
        directory = str(tmp_path / "store")
        save_dataset(_dataset(), directory)
        return directory

    def test_verify_clean_store_exits_zero(self, tmp_path, capsys):
        directory = self._store(tmp_path)
        assert main(["data", "verify", directory]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_flipped_byte_exits_two(self, tmp_path, capsys):
        directory = self._store(tmp_path)
        segment = sorted(glob.glob(
            os.path.join(directory, "segments", "listings-*.seg")
        ))[0]
        with open(segment, "rb") as handle:
            payload = bytearray(handle.read())
        payload[12] ^= 0x01
        with open(segment, "wb") as handle:
            handle.write(bytes(payload))
        assert main(["data", "verify", directory]) == 2
        assert "CORRUPT" in capsys.readouterr().err

    def test_verify_non_store_dir_exits_two(self, tmp_path, capsys):
        assert main(["data", "verify", str(tmp_path)]) == 2

    def test_stats_renders_counts(self, tmp_path, capsys):
        directory = self._store(tmp_path)
        assert main(["data", "stats", directory]) == 0
        out = capsys.readouterr().out
        assert "listings: 3" in out
        assert "sealed: True" in out

    def test_report_reads_store_layout(self, tmp_path, capsys):
        # ``repro report`` on a store dir written by run --store-dir
        # must render the same tables as on the flat run dir — the
        # meta-derived sections (payment methods, listing dynamics)
        # included, since the meta file is mirrored into the store.
        out_dir = str(tmp_path / "out")
        store_dir = str(tmp_path / "store")
        assert main([
            "run", "--out", out_dir, "--store-dir", store_dir,
            "--scale", "0.02", "--iterations", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["report", store_dir, "--scale", "0.02"]) == 0
        from_store = capsys.readouterr().out
        assert "Table 1" in from_store
        assert "Table 3" in from_store
        assert "Figure 2" in from_store
        assert main(["report", out_dir, "--scale", "0.02"]) == 0
        assert capsys.readouterr().out == from_store


class TestRunStoreDir:
    def test_second_run_into_same_store_dir_is_refused(
            self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        store_dir = str(tmp_path / "store")
        args = ["--scale", "0.02", "--iterations", "1",
                "--store-dir", store_dir]
        assert main(["run", "--out", out_dir] + args) == 0
        capsys.readouterr()
        rc = main(["run", "--out", str(tmp_path / "out2")] + args)
        assert rc == 1
        assert "store save refused" in capsys.readouterr().err
        # The first run's store is untouched and still verifies clean.
        assert main(["data", "verify", store_dir]) == 0

    def test_run_chaos_disk_full_exits_zero_marked_partial(
            self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        store_dir = str(tmp_path / "store")
        rc = main([
            "run", "--out", out_dir, "--store-dir", store_dir,
            "--scale", "0.05", "--iterations", "2",
            "--chaos", "disk_full",
        ])
        assert rc == 0
        with open(os.path.join(out_dir, "study_meta.json")) as handle:
            assert json.load(handle)["partial"] == "disk_full"
        # The flushed prefix is sealed and internally consistent.
        assert main(["data", "verify", store_dir]) == 0
        assert "partial:disk_full" in capsys.readouterr().out
