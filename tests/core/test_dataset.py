"""Tests for the measurement dataset records and their persistence
through the segmented store."""

import pytest

from repro.contracts import QuarantineStore
from repro.core.dataset import (
    ListingRecord,
    MeasurementDataset,
    PostRecord,
    ProfileRecord,
    SellerRecord,
    UndergroundRecord,
    dedup_by,
    record_from_dict,
)
from repro.store import (
    StoreError,
    StoreReader,
    StoreWriter,
    load_dataset,
    save_dataset,
)
from repro.store.dataset_store import RULE_RECORD_SHAPE


def sample_dataset():
    ds = MeasurementDataset()
    ds.listings = [
        ListingRecord(offer_url="http://m.example/offer/1", marketplace="M1",
                      platform="X", price_usd=17.0,
                      profile_url="http://x.example/h1"),
        ListingRecord(offer_url="http://m.example/offer/2", marketplace="M2",
                      platform="Instagram", price_usd=298.0),
    ]
    ds.sellers = [SellerRecord(seller_url="http://m.example/seller/1",
                               marketplace="M1", name="S", country="Turkey")]
    ds.profiles = [ProfileRecord(profile_url="http://x.example/h1", platform="X",
                                 handle="h1", followers=2752, status="active")]
    ds.posts = [PostRecord(post_id="p1", platform="X", handle="h1",
                           text="hello world", likes=3)]
    ds.underground = [UndergroundRecord(url="http://n.onion/thread/1",
                                        market="Nexus", title="t", body="b",
                                        author="a", platform="TikTok")]
    return ds


class TestViews:
    def test_by_marketplace(self):
        grouped = sample_dataset().listings_by_marketplace()
        assert set(grouped) == {"M1", "M2"}
        assert len(grouped["M1"]) == 1

    def test_by_platform(self):
        ds = sample_dataset()
        assert set(ds.profiles_by_platform()) == {"X"}
        assert set(ds.posts_by_platform()) == {"X"}

    def test_visible_listings(self):
        visible = sample_dataset().visible_listings()
        assert len(visible) == 1
        assert visible[0].has_visible_profile

    def test_profile_for_url(self):
        ds = sample_dataset()
        assert ds.profile_for_url("http://x.example/h1").handle == "h1"
        assert ds.profile_for_url("http://x.example/none") is None

    def test_profile_for_url_index_invalidates_on_append(self):
        ds = sample_dataset()
        assert ds.profile_for_url("http://x.example/h2") is None  # builds cache
        ds.profiles.append(ProfileRecord(
            profile_url="http://x.example/h2", platform="X", handle="h2",
        ))
        assert ds.profile_for_url("http://x.example/h2").handle == "h2"

    def test_profile_for_url_index_invalidates_on_replacement(self):
        ds = sample_dataset()
        assert ds.profile_for_url("http://x.example/h1") is not None
        ds.profiles = [ProfileRecord(
            profile_url="http://x.example/h1", platform="X", handle="new",
        )]
        assert ds.profile_for_url("http://x.example/h1").handle == "new"

    def test_profile_for_url_index_invalidates_on_edge_swap(self):
        # Same-length in-place replacement of the last element is
        # caught by the first/last identity fingerprint.
        ds = sample_dataset()
        assert ds.profile_for_url("http://x.example/h1").handle == "h1"
        ds.profiles[-1] = ProfileRecord(
            profile_url="http://x.example/h1", platform="X", handle="swap",
        )
        assert ds.profile_for_url("http://x.example/h1").handle == "swap"

    def test_profile_for_url_explicit_invalidate_hook(self):
        # Mutating a record's URL in place is invisible to the
        # fingerprint; the documented contract is the explicit hook.
        ds = sample_dataset()
        assert ds.profile_for_url("http://x.example/h1") is not None
        ds.profiles[0].profile_url = "http://x.example/moved"
        ds.invalidate_profile_index()
        assert ds.profile_for_url("http://x.example/h1") is None
        assert ds.profile_for_url("http://x.example/moved").handle == "h1"

    def test_profile_for_url_first_match_wins(self):
        ds = sample_dataset()
        ds.profiles.append(ProfileRecord(
            profile_url="http://x.example/h1", platform="X", handle="dup",
        ))
        assert ds.profile_for_url("http://x.example/h1").handle == "h1"

    def test_summary(self):
        assert sample_dataset().summary() == {
            "sellers": 1, "listings": 2, "profiles": 1, "posts": 1, "underground": 1,
        }


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        ds = sample_dataset()
        save_dataset(ds, str(tmp_path / "run1"))
        loaded = load_dataset(str(tmp_path / "run1"))
        assert loaded.summary() == ds.summary()
        assert loaded.listings[0] == ds.listings[0]
        assert loaded.profiles[0] == ds.profiles[0]
        assert loaded.underground[0] == ds.underground[0]

    def test_save_is_atomic_no_temp_leftovers(self, tmp_path):
        directory = tmp_path / "run_atomic"
        save_dataset(sample_dataset(), str(directory))
        leftovers = [p.name for p in directory.rglob("*") if ".tmp" in p.name]
        assert leftovers == []

    def test_save_overwrite_never_leaves_stale_mixture(self, tmp_path):
        # A store is write-once: saving over one is refused outright,
        # so two runs' records can never mix in one directory.
        directory = str(tmp_path / "run_over")
        big = sample_dataset()
        save_dataset(big, directory)
        with pytest.raises(StoreError, match="already holds a store"):
            save_dataset(MeasurementDataset(), directory)
        assert load_dataset(directory).summary() == big.summary()

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            load_dataset(str(tmp_path / "nothing"))
        with pytest.raises(StoreError, match="not a segmented store"):
            load_dataset(str(tmp_path))

    def test_full_study_roundtrip(self, tmp_path, dataset):
        save_dataset(dataset, str(tmp_path / "study"))
        loaded = load_dataset(str(tmp_path / "study"))
        assert loaded.summary() == dataset.summary()
        original_prices = sorted(
            l.price_usd for l in dataset.listings if l.price_usd is not None
        )
        loaded_prices = sorted(
            l.price_usd for l in loaded.listings if l.price_usd is not None
        )
        assert original_prices == loaded_prices


def _unsealed_store(directory, **records):
    """A store as a SIGKILL before the seal leaves it: every record
    flushed into unsealed tail segments, no footer, no manifest."""
    writer = StoreWriter(str(directory))
    for record_type, payloads in records.items():
        for payload in payloads:
            writer.append(record_type, payload)
    writer.close()
    return directory


class TestCorruptLineLoading:
    def _truncate_last_line(self, path):
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

    def _listings(self):
        return [{"offer_url": f"http://m.example/offer/{i}",
                 "marketplace": "M1"} for i in range(3)]

    def test_truncated_final_line_is_skipped_and_counted(self, tmp_path):
        run_dir = _unsealed_store(tmp_path / "run", listings=self._listings())
        # Simulate a SIGKILL mid-write: cut the final listings line.
        self._truncate_last_line(run_dir / "segments" / "listings-000000.seg")
        store = QuarantineStore()
        loaded = load_dataset(str(run_dir), quarantine=store)
        assert len(loaded.listings) == 2
        # A torn tail is recovered (counted), not dead-lettered.
        assert store.total == 0
        reader = StoreReader.open(str(run_dir))
        assert len(list(reader.iter_records("listings"))) == 2
        assert reader.recovered_tails == 1

    def test_corrupt_line_without_store_is_silently_skipped(self, tmp_path):
        run_dir = _unsealed_store(tmp_path / "run", listings=self._listings())
        self._truncate_last_line(run_dir / "segments" / "listings-000000.seg")
        loaded = load_dataset(str(run_dir))  # must not raise
        assert len(loaded.listings) == 2

    def test_wrong_shape_line_is_quarantined(self, tmp_path):
        run_dir = str(tmp_path / "run")
        writer = StoreWriter(run_dir)
        writer.append("posts", {"post_id": "p1", "platform": "X",
                                "handle": "h", "text": "t"})
        writer.append("posts", {"no_such_field": 1})  # missing required args
        writer.append("posts", [1, 2, 3])  # not an object at all
        writer.seal()
        store = QuarantineStore()
        loaded = load_dataset(run_dir, quarantine=store)
        assert len(loaded.posts) == 1
        assert [e.rule for e in store.entries] == [RULE_RECORD_SHAPE] * 2

    def test_unknown_fields_are_dropped_not_fatal(self, tmp_path):
        run_dir = str(tmp_path / "run")
        writer = StoreWriter(run_dir)
        writer.append("listings", {"offer_url": "http://m.example/offer/9",
                                   "marketplace": "M1", "added_in_v99": True})
        writer.seal()
        store = QuarantineStore()
        loaded = load_dataset(run_dir, quarantine=store)
        assert store.total == 0
        assert loaded.listings[-1].offer_url == "http://m.example/offer/9"

    def test_old_single_value_provenance_loads(self, tmp_path):
        run_dir = str(tmp_path / "run")
        writer = StoreWriter(run_dir)
        writer.append("listings", {"offer_url": "http://m.example/offer/1",
                                   "marketplace": "M1",
                                   "provenance": "partial:truncated_html"})
        writer.seal()
        loaded = load_dataset(run_dir)
        assert loaded.listings[0].provenance == "partial:truncated_html"


class TestRecordFromDict:
    def test_drops_unknown_keys(self):
        record = record_from_dict(
            PostRecord,
            {"post_id": "p", "platform": "x", "handle": "h", "text": "t",
             "future_field": 1},
        )
        assert record.post_id == "p"

    def test_rejects_non_dict(self):
        with pytest.raises(TypeError):
            record_from_dict(PostRecord, [1, 2])

    def test_rejects_missing_required(self):
        with pytest.raises(TypeError):
            record_from_dict(PostRecord, {"post_id": "p"})


class TestMergeAndDedup:
    def test_merge_appends(self):
        a = sample_dataset()
        b = sample_dataset()
        a.merge(b)
        assert len(a.listings) == 4

    def test_dedup_by(self):
        records = [1, 2, 2, 3, 1]
        assert dedup_by(records, key=lambda r: r) == [1, 2, 3]
