"""Tests for the append-only segmented record store."""

import hashlib
import json
import os

import pytest

from repro.contracts import QuarantineStore
from repro.faults import DiskFaultInjector, resolve_profile
from repro.faults.profiles import FaultProfile, FaultRates
from repro.store import (
    DEFAULT_SEGMENT_RECORDS,
    STORE_MANIFEST_FILENAME,
    StoreError,
    StoreReader,
    StoreWriter,
)
from repro.store.segments import FOOTER_KEY, segment_name


def _fill(directory, count, record_type="listings", segment_max=3,
          seal=True):
    writer = StoreWriter(directory, segment_max_records=segment_max)
    for index in range(count):
        writer.append(record_type, {"offer_url": f"u{index}", "i": index})
    if seal:
        writer.seal()
    else:
        writer.close()
    return writer


def _segment_path(directory, record_type="listings", seq=0):
    return os.path.join(directory, "segments",
                        segment_name(record_type, seq))


class TestWriterReader:
    def test_roundtrip_in_append_order(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 10)
        reader = StoreReader.open(directory)
        records = list(reader.iter_records("listings"))
        assert [r["i"] for r in records] == list(range(10))

    def test_rollover_seals_fixed_size_segments(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 10, segment_max=3)
        reader = StoreReader.open(directory)
        entries = reader.manifest["segments"]
        assert [e["records"] for e in entries] == [3, 3, 3, 1]
        assert reader.manifest["sealed"] is True
        assert reader.manifest["counts"] == {"listings": 10}

    def test_segment_footer_checksums_payload(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 3, segment_max=3)
        with open(_segment_path(directory), "rb") as handle:
            lines = handle.read().split(b"\n")
        footer = json.loads(lines[-2])[FOOTER_KEY]
        body = b"\n".join(lines[:-2]) + b"\n"
        assert footer["records"] == 3
        assert footer["sha256"] == hashlib.sha256(body).hexdigest()

    def test_multiple_record_types_get_separate_segments(self, tmp_path):
        directory = str(tmp_path / "store")
        writer = StoreWriter(directory, segment_max_records=4)
        writer.append("listings", {"a": 1})
        writer.append("profiles", {"b": 2})
        writer.seal()
        reader = StoreReader.open(directory)
        assert reader.record_types() == ["listings", "profiles"]
        assert reader.counts() == {"listings": 1, "profiles": 1}

    def test_append_after_seal_refused(self, tmp_path):
        directory = str(tmp_path / "store")
        writer = _fill(directory, 2)
        with pytest.raises(StoreError):
            writer.append("listings", {"late": True})

    def test_open_refuses_non_store_dir(self, tmp_path):
        with pytest.raises(StoreError):
            StoreReader.open(str(tmp_path))
        with pytest.raises(StoreError):
            StoreReader.open(str(tmp_path / "missing"))

    def test_writer_refuses_directory_with_existing_store(self, tmp_path):
        # Reuse would restart seq numbering inside the old run's
        # segments and cross-contaminate the two runs.
        directory = str(tmp_path / "store")
        _fill(directory, 3)
        with pytest.raises(StoreError, match="already holds a store"):
            StoreWriter(directory)

    def test_writer_refuses_directory_with_segments_but_no_manifest(
            self, tmp_path):
        # Even a crashed previous run (segments, no manifest) is data
        # the reader must recover — never a base for new appends.
        directory = str(tmp_path / "store")
        _fill(directory, 3, seal=False)
        assert not os.path.exists(
            os.path.join(directory, STORE_MANIFEST_FILENAME))
        with pytest.raises(StoreError, match="already holds a store"):
            StoreWriter(directory)

    def test_writer_accepts_empty_or_fresh_directory(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        StoreWriter(str(tmp_path / "empty")).seal()
        StoreWriter(str(tmp_path / "fresh")).seal()

    def test_same_data_twice_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        _fill(a, 7)
        _fill(b, 7)
        for name in sorted(os.listdir(os.path.join(a, "segments"))):
            with open(os.path.join(a, "segments", name), "rb") as fa, \
                    open(os.path.join(b, "segments", name), "rb") as fb:
                assert fa.read() == fb.read()
        with open(os.path.join(a, STORE_MANIFEST_FILENAME), "rb") as fa, \
                open(os.path.join(b, STORE_MANIFEST_FILENAME), "rb") as fb:
            assert fa.read() == fb.read()


class TestCrashRecovery:
    def test_unsealed_tail_loads_flushed_prefix(self, tmp_path):
        # A writer killed before seal(): every flushed record loads.
        directory = str(tmp_path / "store")
        _fill(directory, 7, segment_max=3, seal=False)
        reader = StoreReader.open(directory)
        assert [r["i"] for r in reader.iter_records("listings")] == \
            list(range(7))

    def test_torn_final_line_is_dropped_and_counted(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 5, segment_max=100, seal=False)
        with open(_segment_path(directory), "ab") as handle:
            handle.write(b'{"offer_url": "torn mid-wri')
        reader = StoreReader.open(directory)
        assert [r["i"] for r in reader.iter_records("listings")] == \
            list(range(5))
        assert reader.recovered_tails == 1
        # A recovered tail is the design working, not a verify problem.
        assert reader.verify() == []

    def test_sealed_but_unclaimed_segment_loads(self, tmp_path):
        # Crash between footer write and manifest update: the segment
        # has a valid footer but the manifest does not claim it.
        directory = str(tmp_path / "store")
        _fill(directory, 3, segment_max=3, seal=False)
        assert not os.path.exists(
            os.path.join(directory, STORE_MANIFEST_FILENAME))
        reader = StoreReader.open(directory)
        assert len(list(reader.iter_records("listings"))) == 3

    def test_missing_manifest_is_not_fatal(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 4, segment_max=2)
        os.remove(os.path.join(directory, STORE_MANIFEST_FILENAME))
        reader = StoreReader.open(directory)
        assert len(list(reader.iter_records("listings"))) == 4


class TestCorruption:
    def _corrupt(self, path, offset=10):
        with open(path, "rb") as handle:
            payload = bytearray(handle.read())
        payload[offset] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(payload))

    def test_corrupt_sealed_segment_is_quarantined_and_skipped(
            self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 9, segment_max=3)
        self._corrupt(_segment_path(directory, seq=1))
        quarantine = QuarantineStore()
        reader = StoreReader.open(directory, quarantine=quarantine)
        records = list(reader.iter_records("listings"))
        # The middle segment's 3 records are gone; the rest survive.
        assert [r["i"] for r in records] == [0, 1, 2, 6, 7, 8]
        assert reader.quarantined_segments == 1
        assert quarantine.total == 1

    def test_verify_reports_checksum_mismatch(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 3, segment_max=3)
        self._corrupt(_segment_path(directory))
        problems = StoreReader.open(directory).verify()
        assert len(problems) == 1
        assert "checksum" in problems[0]

    def test_verify_reports_missing_segment(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 3, segment_max=3)
        os.remove(_segment_path(directory))
        problems = StoreReader.open(directory).verify()
        assert problems and "missing" in problems[0]

    def test_verify_clean_store_is_empty(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 20, segment_max=4)
        assert StoreReader.open(directory).verify() == []

    def test_rescan_does_not_duplicate_quarantine_bookkeeping(
            self, tmp_path):
        # GroupedView and repeated counts() re-scan segments; the same
        # corrupt segment must be dead-lettered and counted exactly once.
        directory = str(tmp_path / "store")
        _fill(directory, 9, segment_max=3)
        self._corrupt(_segment_path(directory, seq=1))
        quarantine = QuarantineStore()
        reader = StoreReader.open(directory, quarantine=quarantine)
        reader.counts()
        reader.counts()
        grouped = reader.grouped("listings", "offer_url")
        grouped.counts()
        list(grouped.iter_group("u0"))
        assert reader.quarantined_segments == 1
        assert quarantine.total == 1

    def test_rescan_does_not_recount_recovered_tail(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 5, segment_max=100, seal=False)
        with open(_segment_path(directory), "ab") as handle:
            handle.write(b'{"offer_url": "torn mid-wri')
        reader = StoreReader.open(directory)
        assert reader.count("listings") == 5
        assert reader.count("listings") == 5
        assert reader.recovered_tails == 1
        assert reader.recovered_lines_dropped == 1

    def test_records_after_footer_are_quarantined_not_served(
            self, tmp_path):
        # A sealed-but-unclaimed segment with bytes appended past its
        # footer: the post-footer lines are bogus (nothing legitimately
        # appends to a sealed segment) and must never be yielded.
        directory = str(tmp_path / "store")
        _fill(directory, 3, segment_max=3, seal=False)
        assert not os.path.exists(
            os.path.join(directory, STORE_MANIFEST_FILENAME))
        with open(_segment_path(directory), "ab") as handle:
            handle.write(b'{"offer_url": "smuggled", "i": 99}\n')
        quarantine = QuarantineStore()
        reader = StoreReader.open(directory, quarantine=quarantine)
        records = list(reader.iter_records("listings"))
        assert [r["i"] for r in records] == [0, 1, 2]
        assert quarantine.total == 1
        assert reader.verify() == [
            f"{segment_name('listings', 0)}: "
            f"data after sealed footer in tail segment"
        ]

    def test_bit_flip_on_read_is_caught_by_checksum(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 3, segment_max=3)
        profile = FaultProfile(
            name="flip", rates=FaultRates(disk_bit_flip=1.0),
        )
        faults = DiskFaultInjector(profile, seed=7)
        reader = StoreReader.open(directory, faults=faults)
        assert list(reader.iter_records("listings")) == []
        assert reader.quarantined_segments == 1
        assert faults.counts.get("bit_flip", 0) >= 1


class TestUnclaimedSealedSegments:
    """A crash before the final seal leaves no manifest; each segment's
    footer is then the claim it is checked against."""

    def test_writer_leaves_no_manifest_before_seal(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 7, segment_max=3, seal=False)
        assert not os.path.exists(
            os.path.join(directory, STORE_MANIFEST_FILENAME))
        assert StoreReader.open(directory).manifest is None

    def test_bit_flip_in_unclaimed_sealed_segment_is_quarantined(
            self, tmp_path):
        # Sealed segments whose manifest is gone (the state a crash
        # before the final seal leaves, for every sealed segment).
        directory = str(tmp_path / "store")
        _fill(directory, 6, segment_max=3)
        os.remove(os.path.join(directory, STORE_MANIFEST_FILENAME))
        path = _segment_path(directory, seq=0)
        with open(path, "rb") as handle:
            payload = bytearray(handle.read())
        # '{"i":0,...' -> '{"i":1,...': the line still decodes, so only
        # the footer checksum can tell.
        assert payload[:6] == b'{"i":0'
        payload[5] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(payload))
        quarantine = QuarantineStore()
        reader = StoreReader.open(directory, quarantine=quarantine)
        assert [r["i"] for r in reader.iter_records("listings")] == \
            [3, 4, 5]
        assert reader.quarantined_segments == 1
        assert quarantine.total == 1
        assert reader.verify() == [
            f"{segment_name('listings', 0)}: "
            f"footer checksum does not match segment bytes"
        ]

    def test_footer_count_mismatch_is_quarantined(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 3, segment_max=3)
        os.remove(os.path.join(directory, STORE_MANIFEST_FILENAME))
        path = _segment_path(directory)
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        del lines[1]  # a lost record line: every remaining line decodes
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        reader = StoreReader.open(directory)
        assert list(reader.iter_records("listings")) == []
        assert reader.quarantined_segments == 1
        problems = reader.verify()
        assert len(problems) == 1 and "footer claims 3 records" in \
            problems[0]

    def test_verify_reports_missing_middle_segment(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 9, segment_max=3, seal=False)
        os.remove(_segment_path(directory, seq=1))
        assert StoreReader.open(directory).verify() == [
            f"{segment_name('listings', 1)}: "
            f"missing (gap in the listings segment sequence)"
        ]

    def test_missing_claimed_segment_is_reported_once(self, tmp_path):
        directory = str(tmp_path / "store")
        _fill(directory, 9, segment_max=3)
        os.remove(_segment_path(directory, seq=1))
        assert StoreReader.open(directory).verify() == [
            f"{segment_name('listings', 1)}: listed in manifest but missing"
        ]


class TestGroupedView:
    def _store(self, tmp_path):
        directory = str(tmp_path / "store")
        writer = StoreWriter(directory, segment_max_records=2)
        for index in range(9):
            writer.append("listings", {
                "i": index, "marketplace": f"m{index % 3}",
            })
        writer.seal()
        return StoreReader.open(directory)

    def test_counts_single_pass(self, tmp_path):
        grouped = self._store(tmp_path).grouped("listings", "marketplace")
        assert grouped.counts() == {"m0": 3, "m1": 3, "m2": 3}

    def test_iter_group_streams_matches(self, tmp_path):
        grouped = self._store(tmp_path).grouped("listings", "marketplace")
        assert [r["i"] for r in grouped.iter_group("m1")] == [1, 4, 7]

    def test_callable_key(self, tmp_path):
        grouped = self._store(tmp_path).grouped(
            "listings", lambda payload: payload["i"] % 2,
        )
        assert grouped.counts() == {0: 5, 1: 4}

    def test_iteration_yields_groups_in_first_seen_order(self, tmp_path):
        grouped = self._store(tmp_path).grouped("listings", "marketplace")
        seen = {key: [r["i"] for r in group] for key, group in grouped}
        assert list(seen) == ["m0", "m1", "m2"]
        assert seen["m2"] == [2, 5, 8]


class TestDefaults:
    def test_default_segment_size_is_sane(self):
        assert DEFAULT_SEGMENT_RECORDS >= 64
