"""Run ledger: fingerprints, record schema, append/read, filtering."""

import json

import pytest

from repro.core import TAJConfig
from repro.core.results import PhaseTimes, TAJResult
from repro.obs.ledger import (LEDGER_SCHEMA, LedgerError, append_record,
                              comparable_records, config_fingerprint,
                              corpus_hash, host_fingerprint,
                              make_record, read_ledger,
                              record_from_result, sha256_fingerprint)


def _record(**overrides):
    base = dict(kind="analysis", config_name="hybrid-optimized",
                fingerprint="abcd" * 4,
                corpus={"hash": "beef" * 4, "files": 2},
                phases={"taint": 0.5, "modeling": 0.1},
                seconds=0.6,
                counters={"taint.flows": 3})
    base.update(overrides)
    return make_record(**base)


def test_sha256_fingerprint_is_stable_and_order_independent():
    a = sha256_fingerprint({"x": 1, "y": 2})
    b = sha256_fingerprint({"y": 2, "x": 1})
    assert a == b
    assert len(a) == 16
    assert a != sha256_fingerprint({"x": 1, "y": 3})


def test_corpus_hash_order_independent_content_sensitive():
    assert corpus_hash(["aa", "bb"]) == corpus_hash(["bb", "aa"])
    assert corpus_hash(["aa", "bb"]) != corpus_hash(["aa", "bc"])


def test_config_fingerprint_tracks_every_knob():
    base = TAJConfig.hybrid_optimized()
    assert config_fingerprint(base) == config_fingerprint(
        TAJConfig.hybrid_optimized())
    # Any knob change — including nested dataclasses and new-PR knobs
    # like profile — moves the fingerprint.
    assert config_fingerprint(base) != config_fingerprint(
        base.with_budget(max_cg_nodes=7))
    assert config_fingerprint(base) != config_fingerprint(
        base.with_profile())
    assert config_fingerprint(base) != config_fingerprint(
        base.with_resilience(deadline_seconds=5.0))


def test_host_fingerprint_shape():
    host = host_fingerprint()
    assert set(host) == {"python", "cores", "platform"}
    assert host["cores"] >= 1


def test_make_record_schema():
    record = _record(commit="cafe1234", issues=2, raw_flows=3,
                     confirm={"confirmed": 2})
    assert record["schema"] == LEDGER_SCHEMA
    assert record["commit"] == "cafe1234"
    assert record["phases"] == {"modeling": 0.1, "taint": 0.5}
    assert list(record["phases"]) == ["modeling", "taint"]  # sorted
    assert record["confirm"] == {"confirmed": 2}
    json.dumps(record)  # must be JSON-clean as-is


def test_record_from_result_uses_span_times_and_work_counters():
    config = TAJConfig.hybrid_optimized()
    result = TAJResult(
        config_name=config.name,
        times=PhaseTimes(modeling=0.1, pointer_analysis=0.2, sdg=0.05,
                         taint=0.3, reporting=0.01),
        metrics={"counters": {"pointer.propagations": 42,
                              "taint.flows": 3,
                              "pointer.pts_keys_irrelevant": 9}},
    )
    record = record_from_result(result, config, ["class A {}"],
                                commit="c0ffee")
    assert record["kind"] == "analysis"
    assert record["config"]["name"] == "hybrid-optimized"
    assert record["config"]["fingerprint"] == config_fingerprint(config)
    assert record["corpus"] == {"hash": corpus_hash(["class A {}"]),
                                "files": 1}
    assert record["phases"]["taint"] == pytest.approx(0.3)
    assert "confirm" not in record["phases"]  # zero phases dropped
    assert record["counters"] == {"pointer.propagations": 42,
                                  "taint.flows": 3}
    assert record["seconds"] == pytest.approx(0.66)


def test_append_and_read_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    first = _record()
    second = _record(seconds=0.7)
    append_record(str(path), first)
    append_record(str(path), second)
    records = read_ledger(str(path))
    assert len(records) == 2
    assert records[0] == first
    assert records[1] == second


def test_read_ledger_skips_blank_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    append_record(str(path), _record())
    with open(path, "a") as handle:
        handle.write("\n\n")
    append_record(str(path), _record())
    assert len(read_ledger(str(path))) == 2


def test_read_ledger_names_the_malformed_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    append_record(str(path), _record())
    with open(path, "a") as handle:
        handle.write("not json\n")
    with pytest.raises(LedgerError, match=r":2:"):
        read_ledger(str(path))


def test_read_ledger_skips_crash_truncated_final_line(tmp_path):
    """A writer killed mid-append leaves an unterminated partial JSON
    tail; reading must skip it (with a warning naming the line), not
    raise — the committed history before it stays usable."""
    path = tmp_path / "ledger.jsonl"
    first = _record()
    append_record(str(path), first)
    whole = json.dumps(_record(seconds=9.0))
    with open(path, "a") as handle:
        handle.write(whole[:len(whole) // 2])  # no trailing newline
    with pytest.warns(UserWarning, match=r":2:.*crash-truncated"):
        records = read_ledger(str(path))
    assert records == [first]


def test_read_ledger_truncation_tolerance_needs_missing_newline(
        tmp_path):
    """The tolerance is only for the unterminated tail: a malformed
    line that *is* newline-terminated was a complete (bad) write and
    still raises."""
    path = tmp_path / "ledger.jsonl"
    append_record(str(path), _record())
    with open(path, "a") as handle:
        handle.write('{"half": \n')
    with pytest.raises(LedgerError, match=r":2:"):
        read_ledger(str(path))


def test_read_ledger_rejects_unknown_schema(tmp_path):
    path = tmp_path / "ledger.jsonl"
    bad = _record()
    bad["schema"] = 99
    append_record(str(path), bad)
    with pytest.raises(LedgerError, match="schema"):
        read_ledger(str(path))


def test_comparable_records_filters_on_kind_config_corpus():
    reference = _record()
    same = _record(seconds=9.0)
    other_kind = _record(kind="bench")
    other_config = _record(fingerprint="ffff" * 4)
    other_corpus = _record(corpus={"hash": "0" * 16, "files": 2})
    got = comparable_records(
        [same, other_kind, other_config, other_corpus, reference],
        reference)
    assert got == [same]


def test_comparable_records_same_host_gate():
    reference = _record()
    twin = _record(seconds=1.0)
    foreign = _record(seconds=2.0)
    foreign["host"] = {"python": "9.9", "cores": 64,
                       "platform": "plan9"}
    assert comparable_records([twin, foreign], reference,
                              same_host=True) == [twin]
    assert comparable_records([twin, foreign], reference) == \
        [twin, foreign]
