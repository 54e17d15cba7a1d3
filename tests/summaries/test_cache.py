"""Summary-cache robustness: a cache must never change *what* is
computed, only *whether* it is recomputed.  Foreign, corrupt, or
truncated state always degrades to a clean cold start."""

import json
import os
import threading

from repro.summaries import SUMMARY_SCHEMA, SummaryCache
from repro.summaries.cache import META_NAME, SUMMARIES_NAME

FP = "fp-current"

HIT = ["wformal", ["M.m", 3], None, "sink()", 2, None, 0, "v", "p0", None]


def make(directory, fingerprint=FP, max_entries=1024) -> SummaryCache:
    cache = SummaryCache(str(directory), fingerprint,
                         max_entries=max_entries)
    cache.load()
    return cache


def test_round_trip(tmp_path):
    cache = make(tmp_path)
    cache.put("k1", "A.f", {"p0": [HIT], "p1": []})
    reread = make(tmp_path)
    assert reread.reset_reason is None
    entry = reread.get("k1")
    assert entry == {"method": "A.f", "hits": {"p0": [HIT], "p1": []}}
    assert reread.get("absent") is None


def test_fresh_directory_is_cold_not_stale(tmp_path):
    cache = make(tmp_path / "new")
    assert cache.entries == {}
    assert cache.stale == 0
    assert cache.reset_reason is None
    assert os.path.exists(cache.meta_path)


def test_foreign_fingerprint_resets_cold(tmp_path):
    make(tmp_path, fingerprint="fp-old").put("k1", "A.f", {"p0": [HIT]})
    cache = make(tmp_path, fingerprint=FP)
    assert cache.entries == {}
    assert "foreign" in cache.reset_reason
    assert cache.stale == 1
    # The reset rewrote the identity: a reload under the new
    # fingerprint is a plain cold cache, not another reset.
    again = make(tmp_path, fingerprint=FP)
    assert again.reset_reason is None


def test_unsupported_schema_resets_cold(tmp_path):
    make(tmp_path)
    meta_path = tmp_path / META_NAME
    meta_path.write_text(json.dumps(
        {"schema": SUMMARY_SCHEMA + 1, "fingerprint": FP}))
    cache = make(tmp_path)
    assert cache.entries == {}
    assert "schema" in cache.reset_reason


def test_corrupt_meta_resets_cold(tmp_path):
    make(tmp_path).put("k1", "A.f", {"p0": [HIT]})
    (tmp_path / META_NAME).write_text("{not json")
    cache = make(tmp_path)
    assert cache.entries == {}
    assert "unreadable" in cache.reset_reason


def test_crash_truncated_tail_is_skipped_silently(tmp_path):
    cache = make(tmp_path)
    cache.put("k1", "A.f", {"p0": [HIT]})
    cache.put("k2", "B.g", {"p0": []})
    with open(tmp_path / SUMMARIES_NAME, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "key": "k3", "met')  # no newline: crash
    reread = make(tmp_path)
    assert set(reread.entries) == {"k1", "k2"}
    # The unterminated line never finished existing — not stale.
    assert reread.stale == 0


def test_terminated_malformed_row_is_dropped_and_counted(tmp_path):
    cache = make(tmp_path)
    cache.put("k1", "A.f", {"p0": [HIT]})
    with open(tmp_path / SUMMARIES_NAME, "a", encoding="utf-8") as fh:
        fh.write("{broken json}\n")
        fh.write(json.dumps({"schema": SUMMARY_SCHEMA, "key": "k2",
                             "method": "B.g", "hits": {}}) + "\n")
    reread = make(tmp_path)
    assert set(reread.entries) == {"k1", "k2"}
    assert reread.stale == 1


def test_wrong_shape_rows_are_stale_not_fatal(tmp_path):
    make(tmp_path)
    rows = [
        json.dumps([1, 2, 3]),                                # not a dict
        json.dumps({"schema": 999, "key": "x"}),              # bad schema
        json.dumps({"schema": SUMMARY_SCHEMA, "key": 7,
                    "method": "A.f", "hits": {}}),            # bad key
        json.dumps({"schema": SUMMARY_SCHEMA, "key": "ok",
                    "method": "A.f", "hits": {"p0": []}}),
    ]
    (tmp_path / SUMMARIES_NAME).write_text("\n".join(rows) + "\n")
    cache = make(tmp_path)
    assert set(cache.entries) == {"ok"}
    assert cache.stale == 3


def test_duplicate_keys_merge_per_formal(tmp_path):
    make(tmp_path)
    path = tmp_path / SUMMARIES_NAME
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": SUMMARY_SCHEMA, "key": "k",
                             "method": "A.f",
                             "hits": {"p0": [HIT]}}) + "\n")
        fh.write(json.dumps({"schema": SUMMARY_SCHEMA, "key": "k",
                             "method": "A.f",
                             "hits": {"p1": []}}) + "\n")
    reread = make(tmp_path)
    assert reread.get("k")["hits"] == {"p0": [HIT], "p1": []}


def test_put_extends_only_fresh_formals(tmp_path):
    cache = make(tmp_path)
    cache.put("k", "A.f", {"p0": [HIT]})
    cache.put("k", "A.f", {"p0": [], "p1": []})
    assert cache.get("k")["hits"] == {"p0": [HIT], "p1": []}
    # And the on-disk rows merge back to the same view.
    assert make(tmp_path).get("k")["hits"] == {"p0": [HIT], "p1": []}


def test_eviction_drops_oldest_and_compacts(tmp_path):
    cache = make(tmp_path, max_entries=3)
    for i in range(5):
        cache.put(f"k{i}", f"M{i}.f", {"p0": []})
    assert set(cache.entries) == {"k2", "k3", "k4"}
    assert cache.evicted == 2
    lines = (tmp_path / SUMMARIES_NAME).read_text().strip().split("\n")
    assert len(lines) == 3  # compacted, not just forgotten
    reread = make(tmp_path, max_entries=3)
    assert set(reread.entries) == {"k2", "k3", "k4"}


def test_drop_forgets_in_memory_and_after_compaction(tmp_path):
    cache = make(tmp_path)
    cache.put("k1", "A.f", {"p0": [HIT]})
    cache.put("k2", "B.g", {"p0": []})
    cache.drop("k1")
    assert cache.get("k1") is None
    cache._compact()
    assert set(make(tmp_path).entries) == {"k2"}


def test_concurrent_writers_interleave_whole_lines(tmp_path):
    """Line-atomic appends: parallel writers to one directory never
    corrupt each other; the reader sees every completed entry."""
    make(tmp_path)  # settle meta.json before the writers race

    def writer(tag):
        cache = make(tmp_path)
        for i in range(50):
            cache.put(f"{tag}-{i}", f"{tag}.m{i}", {"p0": [HIT]})

    threads = [threading.Thread(target=writer, args=(t,))
               for t in ("a", "b", "c")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    reread = make(tmp_path)
    assert reread.stale == 0
    assert len(reread.entries) == 150
    for tag in ("a", "b", "c"):
        assert reread.get(f"{tag}-49")["hits"] == {"p0": [HIT]}
