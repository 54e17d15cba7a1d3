"""The append-only run ledger: one JSONL record per analysis/bench run.

A single trace answers "how fast is this run"; the ledger answers "is
this run slower than last week, and which phase regressed" — it is the
run *history* the regression sentinel (:mod:`repro.obs.compare`,
``benchmarks/regression.py``) diffs against.

Each record is one flat JSON object (schema version
:data:`LEDGER_SCHEMA`) with:

* ``kind`` — ``"analysis"`` (one TAJ pipeline run) or ``"bench"`` (one
  ``bench_solver`` suite sweep);
* ``config`` — the configuration name plus a **fingerprint** (sha-256
  over the canonical JSON of every knob), so only like-configured runs
  are ever compared;
* ``corpus`` — a sha-256 over the analyzed sources (or the suite
  corpus), so a corpus change is never mistaken for a regression;
* ``host`` — python version / CPU count / platform, the comparability
  gate for wall-clock diffs;
* ``phases`` — per-phase span durations (pipeline phases for analysis
  records, per-suite walls for bench records);
* ``counters`` — deterministic work counters (propagations, flows, …)
  that regress independently of host speed;
* ``completeness`` / ``confirm`` — the resilience verdict and the
  dynamic-confirmation verdict counts;
* ``commit`` — the VCS commit id, passed in via ``--commit`` (the
  ledger never shells out to git itself).

Appends are atomic at line granularity (one ``write`` of one
newline-terminated line in append mode); the reader skips blank lines
and raises :class:`LedgerError` on malformed or wrong-schema records.
Ledger schema reference: ``docs/observability.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Dict, Iterable, List, Optional

LEDGER_SCHEMA = 1

# Counters copied from a metrics snapshot into ``record["counters"]``:
# deterministic work measures, comparable across hosts.
WORK_COUNTERS = (
    "pointer.propagations", "pointer.edges", "pointer.nodes_processed",
    "pointer.cycles_collapsed", "pointer.keys_merged",
    "taint.rules_consulted", "taint.flows",
    "taint.suppressed_by_length", "report.issues",
    # Summary-cache effectiveness (repro.summaries): deterministic for
    # a given (cache state, corpus) pair, present only on "summary"
    # runs — the sentinel flags a cache that stopped hitting, not just
    # the wall-clock consequence.
    "summary.cache.hits", "summary.cache.misses",
    "summary.cache.evictions", "summary.cache.stale",
)


class LedgerError(ValueError):
    """A ledger file (or one of its records) is malformed."""


def sha256_fingerprint(payload: object) -> str:
    """Short stable digest of any JSON-serializable value."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def corpus_hash(sources: Iterable[str]) -> str:
    """Order-independent digest of a source corpus."""
    digest = hashlib.sha256()
    for piece in sorted(hashlib.sha256(src.encode("utf-8")).hexdigest()
                        for src in sources):
        digest.update(piece.encode("ascii"))
    return digest.hexdigest()[:16]


def config_fingerprint(config) -> str:
    """Digest of every :class:`~repro.core.config.TAJConfig` knob (via
    dataclass fields, so new knobs change the fingerprint by default)."""
    import dataclasses
    if dataclasses.is_dataclass(config):
        knobs = {}
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            if dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            elif isinstance(value, frozenset):
                value = sorted(value)
            knobs[field.name] = value
        return sha256_fingerprint(knobs)
    return sha256_fingerprint(config)


def host_fingerprint() -> Dict[str, object]:
    """The wall-clock comparability gate: records from different hosts
    (or python versions) are never wall-diffed against each other."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "cores": cores,
        "platform": sys.platform,
    }


def make_record(kind: str, config_name: str, fingerprint: str,
                corpus: Dict[str, object], phases: Dict[str, float],
                seconds: float, counters: Dict[str, float],
                completeness: str = "complete",
                issues: int = 0, raw_flows: int = 0,
                confirm: Optional[Dict[str, int]] = None,
                commit: Optional[str] = None,
                extra: Optional[Dict[str, object]] = None) -> Dict:
    """Assemble one schema-stable ledger record."""
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "ts": round(time.time(), 3),
        "commit": commit,
        "config": {"name": config_name, "fingerprint": fingerprint},
        "corpus": dict(corpus),
        "host": host_fingerprint(),
        "phases": {name: round(float(value), 6)
                   for name, value in sorted(phases.items())},
        "seconds": round(float(seconds), 6),
        "counters": {name: counters[name]
                     for name in sorted(counters)},
        "completeness": completeness,
        "issues": issues,
        "raw_flows": raw_flows,
        "confirm": dict(confirm) if confirm else None,
    }
    if extra:
        record.update(extra)
    return record


def record_from_result(result, config, sources: Iterable[str],
                       commit: Optional[str] = None,
                       extra: Optional[Dict[str, object]] = None) -> Dict:
    """A ledger record for one :class:`~repro.core.results.TAJResult`.

    Phase durations come from ``result.times`` (span-derived, the
    single timing source); work counters from the metrics snapshot.
    """
    sources = list(sources)
    times = result.times
    phases = {
        "modeling": times.modeling,
        "pointer_analysis": times.pointer_analysis,
        "sdg": times.sdg,
        "taint": times.taint,
        "reporting": times.reporting,
    }
    if times.confirm:
        phases["confirm"] = times.confirm
    counters: Dict[str, float] = {}
    snapshot_counters = (result.metrics or {}).get("counters", {})
    for name in WORK_COUNTERS:
        if name in snapshot_counters:
            counters[name] = snapshot_counters[name]
    confirm = None
    if result.confirmation is not None:
        confirm = dict(result.confirmation.counts())
    return make_record(
        kind="analysis",
        config_name=config.name,
        fingerprint=config_fingerprint(config),
        corpus={"hash": corpus_hash(sources), "files": len(sources)},
        phases=phases,
        seconds=times.total,
        counters=counters,
        completeness=result.completeness,
        issues=result.issues,
        raw_flows=result.raw_flows,
        confirm=confirm,
        commit=commit,
        extra=extra,
    )


def append_record(path: str, record: Dict) -> None:
    """Append one record as a single JSONL line (atomic at line
    granularity: one write of one newline-terminated line)."""
    line = json.dumps(record, sort_keys=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def read_ledger(path: str) -> List[Dict]:
    """All records, oldest first.  Blank lines are skipped; a
    malformed line or an unknown schema raises :class:`LedgerError`
    naming the line number.

    Crash tolerance: a malformed **final** line with no terminating
    newline is a partial append — the writer (or its host) died mid
    ``write``.  That record never finished existing, so it is skipped
    with a :class:`UserWarning` naming ``path:lineno`` instead of
    poisoning the whole ledger; every *terminated* line must still
    parse."""
    records: List[Dict] = []
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n")
    # A trailing newline yields a final empty element; its absence
    # means the last line was never terminated (crash-truncated).
    truncated_tail = lines[-1].strip() != ""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if truncated_tail and lineno == len(lines):
                import warnings
                warnings.warn(
                    f"{path}:{lineno}: skipping crash-truncated "
                    f"partial record: {exc}")
                continue
            raise LedgerError(
                f"{path}:{lineno}: malformed record: {exc}") from exc
        if not isinstance(record, dict):
            raise LedgerError(
                f"{path}:{lineno}: record is not an object")
        if record.get("schema") != LEDGER_SCHEMA:
            raise LedgerError(
                f"{path}:{lineno}: unsupported ledger schema "
                f"{record.get('schema')!r} "
                f"(expected {LEDGER_SCHEMA})")
        records.append(record)
    return records


def comparable_records(records: List[Dict], reference: Dict,
                       same_host: bool = False) -> List[Dict]:
    """Records comparable to ``reference``: same kind, same config
    fingerprint, same corpus hash — optionally also the same host
    fingerprint (required before wall-clock diffs mean anything)."""
    def key(rec: Dict):
        parts = [rec.get("kind"),
                 (rec.get("config") or {}).get("fingerprint"),
                 (rec.get("corpus") or {}).get("hash")]
        if same_host:
            parts.append(tuple(sorted((rec.get("host") or {}).items())))
        return tuple(parts)

    want = key(reference)
    return [rec for rec in records
            if rec is not reference and key(rec) == want]
