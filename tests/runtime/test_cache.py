"""Unit tests for the schedule cache (LRU + on-disk tiers)."""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import ReproError
from repro.runtime.cache import CACHE_FORMAT_VERSION, CachedCompilation, ScheduleCache
from repro.runtime.jobs import CompileJob, compile_job
from repro.schedule.serialize import schedule_from_dict, schedule_to_bytes, write_varint


@pytest.fixture(scope="module")
def entry() -> CachedCompilation:
    result = compile_job(CompileJob(circuit="qft_8", device="G-2x2", capacity=6))
    return CachedCompilation.from_result(result)


class TestMemoryTier:
    def test_hit_miss_accounting(self, entry):
        cache = ScheduleCache(max_entries=4)
        assert cache.get("fp-a") is None
        cache.put("fp-a", entry)
        assert cache.get("fp-a") is entry
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "evictions": 0,
            "disk_hits": 0,
            "disk_evictions": 0,
            "network_hits": 0,
            "network_misses": 0,
            "network_stores": 0,
            "network_errors": 0,
        }

    def test_lru_evicts_least_recently_used(self, entry):
        cache = ScheduleCache(max_entries=2)
        cache.put("a", entry)
        cache.put("b", entry)
        cache.get("a")  # refresh a, so b becomes the eviction victim
        cache.put("c", entry)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_needs_positive_capacity(self):
        with pytest.raises(ReproError):
            ScheduleCache(max_entries=0)


class TestDiskTier:
    def test_round_trip_through_a_fresh_cache(self, tmp_path, entry):
        ScheduleCache(directory=tmp_path).put("fp", entry)
        fresh = ScheduleCache(directory=tmp_path)
        loaded = fresh.get("fp")
        assert loaded is not None
        assert fresh.stats.disk_hits == 1
        schedule = loaded.schedule()
        assert schedule.count_summary() == entry.schedule().count_summary()
        assert loaded.compiler_name == entry.compiler_name
        assert loaded.mapping_name == entry.mapping_name

    def test_disk_hit_promotes_into_memory(self, tmp_path, entry):
        ScheduleCache(directory=tmp_path).put("fp", entry)
        fresh = ScheduleCache(directory=tmp_path)
        fresh.get("fp")
        fresh.get("fp")
        assert fresh.stats.hits == 2
        assert fresh.stats.disk_hits == 1  # second hit came from memory

    def test_corrupt_legacy_entry_rejected(self, tmp_path, entry):
        """A format-v2 ``<fp>.json`` file, even a corrupt one, is inert."""
        (tmp_path / "fp.json").write_text("{not json")
        cache = ScheduleCache(directory=tmp_path)
        assert cache.get("fp") is None
        assert cache.stats.misses == 1 and cache.stats.disk_hits == 0
        assert "fp" not in cache
        assert cache.disk_entries() == 0 and cache.disk_bytes() == 0
        cache.put("fp", entry)
        assert (tmp_path / "fp.json").read_text() == "{not json"
        assert cache.disk_entries() == 1
        cache.clear(disk=True)
        assert [p.name for p in tmp_path.iterdir()] == ["fp.json"]

    def test_corrupt_binary_entry_rejected(self, tmp_path):
        (tmp_path / "bad.sched").write_bytes(b"not a cache entry")
        with pytest.raises(ReproError):
            ScheduleCache(directory=tmp_path).get("bad")

    def test_truncated_binary_entry_rejected(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        cache.put("fp", entry)
        path = tmp_path / "fp.sched"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ReproError):
            ScheduleCache(directory=tmp_path).get("fp")

    def test_future_binary_version_is_a_miss(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        cache.put("fp", entry)
        path = tmp_path / "fp.sched"
        raw = bytearray(path.read_bytes())
        raw[4] = CACHE_FORMAT_VERSION + 1  # version byte follows the magic
        path.write_bytes(bytes(raw))
        assert ScheduleCache(directory=tmp_path).get("fp") is None

    def test_clear_disk(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        cache.put("fp", entry)
        cache.clear(disk=True)
        assert ScheduleCache(directory=tmp_path).get("fp") is None


class TestDiskBudget:
    """Satellite: size-bounded on-disk eviction (LRU by mtime)."""

    def _entry_bytes(self, tmp_path, entry) -> int:
        probe = ScheduleCache(directory=tmp_path / "probe")
        probe.put("probe", entry)
        return (tmp_path / "probe" / "probe.sched").stat().st_size

    def test_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ReproError):
            ScheduleCache(directory=tmp_path, max_disk_bytes=0)

    def test_unbounded_by_default(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        for i in range(6):
            cache.put(f"fp{i}", entry)
        assert len(list(tmp_path.glob("*.sched"))) == 6
        assert cache.stats.disk_evictions == 0

    def test_oldest_entries_evicted_beyond_budget(self, tmp_path, entry):
        size = self._entry_bytes(tmp_path, entry)
        cache = ScheduleCache(directory=tmp_path, max_disk_bytes=3 * size)
        for i in range(5):
            cache.put(f"fp{i}", entry)
            os.utime(tmp_path / f"fp{i}.sched", (1_000_000 + i, 1_000_000 + i))
        kept = sorted(p.stem for p in tmp_path.glob("*.sched"))
        assert kept == ["fp2", "fp3", "fp4"]
        assert cache.stats.disk_evictions == 2

    def test_newest_entry_survives_a_tiny_budget(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path, max_disk_bytes=1)
        cache.put("first", entry)
        cache.put("second", entry)
        kept = [p.stem for p in tmp_path.glob("*.sched")]
        assert kept == ["second"]

    def test_disk_read_refreshes_recency(self, tmp_path, entry):
        size = self._entry_bytes(tmp_path, entry)
        cache = ScheduleCache(directory=tmp_path, max_disk_bytes=2 * size)
        cache.put("old", entry)
        cache.put("mid", entry)
        os.utime(tmp_path / "old.sched", (1_000_000, 1_000_000))
        os.utime(tmp_path / "mid.sched", (1_000_001, 1_000_001))
        # A disk hit on the oldest entry makes it the most recent...
        reader = ScheduleCache(directory=tmp_path, max_disk_bytes=2 * size)
        assert reader.get("old") is not None
        # ...so the next store evicts "mid" instead.
        reader.put("new", entry)
        kept = sorted(p.stem for p in tmp_path.glob("*.sched"))
        assert "old" in kept and "new" in kept and "mid" not in kept

    def test_eviction_survives_cache_restarts(self, tmp_path, entry):
        size = self._entry_bytes(tmp_path, entry)
        for i in range(6):
            cache = ScheduleCache(directory=tmp_path, max_disk_bytes=2 * size)
            cache.put(f"fp{i}", entry)
        assert len(list(tmp_path.glob("*.sched"))) <= 2


class TestEntryFormat:
    def test_dict_round_trip(self, entry):
        data = json.loads(json.dumps(entry.to_dict()))
        assert data["format_version"] == CACHE_FORMAT_VERSION
        assert data["compiler_name"] == entry.compiler_name
        assert data["statistics"] == entry.statistics
        assert schedule_to_bytes(schedule_from_dict(data["schedule"])) == entry.schedule_blob

    def test_bytes_round_trip(self, entry):
        blob = entry.to_bytes()
        rebuilt = CachedCompilation.from_bytes(blob)
        assert rebuilt == entry
        assert rebuilt.to_bytes() == blob  # deterministic re-encode

    def test_trailing_bytes_after_the_schedule_rejected(self, entry):
        # The schedule blob runs to the end of the entry, so appended
        # bytes land in the blob and its decode must refuse them.
        padded = CachedCompilation.from_bytes(entry.to_bytes() + b"garbage!!")
        with pytest.raises(ReproError, match="trailing bytes"):
            padded.schedule()

    def test_version_mismatch_rejected(self, entry):
        for version in (2, CACHE_FORMAT_VERSION + 1):
            raw = bytearray(entry.to_bytes())
            raw[4] = version  # version byte follows the magic
            with pytest.raises(ReproError, match="format version"):
                CachedCompilation.from_bytes(bytes(raw))

    def test_missing_field_rejected(self, entry):
        meta = json.dumps({"mapping_name": "m", "compile_time_s": 0.0}).encode()
        raw = bytearray(b"RCEN")
        raw.append(CACHE_FORMAT_VERSION)
        write_varint(raw, len(meta))
        raw += meta + entry.schedule_blob
        with pytest.raises(ReproError, match="compiler_name"):
            CachedCompilation.from_bytes(bytes(raw))

    def test_bad_magic_rejected(self, entry):
        with pytest.raises(ReproError):
            CachedCompilation.from_bytes(b"XXXX" + entry.to_bytes()[4:])

    def test_disk_entry_is_binary(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        cache.put("fp", entry)
        raw = (tmp_path / "fp.sched").read_bytes()
        assert raw.startswith(b"RCEN")
        assert raw[4] == CACHE_FORMAT_VERSION
        loaded = CachedCompilation.from_bytes(raw)
        assert loaded.schedule().circuit_name == "qft_8"

    def test_binary_entry_smaller_than_json(self, entry):
        json_bytes = len(json.dumps(entry.to_dict(), sort_keys=True))
        assert len(entry.to_bytes()) * 2 < json_bytes
