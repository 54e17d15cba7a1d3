"""The persistent on-disk summary cache behind ``--summary-cache DIR``.

One directory holds one cache: ``meta.json`` pins the cache identity
(schema version + a fingerprint of the model-library version and the
analysis knobs that shape balanced-region exploration), and
``summaries.jsonl`` accumulates one line per cached entry.  An entry is
one method's balanced-region hit lists under one security rule, keyed
by :func:`repro.summaries.keys.entry_key` — the transitive content
hash, so the key *is* the validity proof: any edit to the method, its
resolved callees, or the rule moves the key and the old entry simply
stops being found (it ages out by eviction, it is never served stale).

Safety model: a cache must never change *what* is computed, only
*whether* it is recomputed.

* A ``meta.json`` from another model-library version, other knobs, or
  an unknown schema marks the whole directory **foreign**: it is reset
  to empty and the run proceeds cold (counted under
  ``summary.cache.stale``).
* Appends are atomic at line granularity; a process killed mid-append
  leaves a truncated final line the reader skips (the
  :func:`repro.obs.ledger.read_ledger` tolerance contract).  Concurrent
  writers therefore interleave whole lines; duplicate keys merge
  last-wins per formal, which is deterministic given file order and
  harmless because equal keys imply equal content.
* A terminated-but-malformed row is dropped and counted
  (``summary.cache.stale``); corruption can cost time, never
  correctness.
* The entry count is capped; overflow drops the oldest entries
  (``summary.cache.evictions``) and compacts the file.

The cache never stores flows, only per-method hit lists — the
composition back into source→sink flows always happens live against
the current program, which is what keeps a warm run byte-identical to
a cold one.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

SUMMARY_SCHEMA = 1
META_NAME = "meta.json"
SUMMARIES_NAME = "summaries.jsonl"
DEFAULT_MAX_ENTRIES = 65536


class SummaryCache:
    """One cache directory for one (model version, knobs) identity.

    Protocol: construct with the identity fingerprint, call
    :meth:`load` once per run, then :meth:`get`/:meth:`put` entries.
    ``stale``/``evicted`` count load-time drops; hit/miss accounting
    lives with the backend, which knows what a lookup means.
    """

    def __init__(self, directory: str, fingerprint: str,
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        self.max_entries = max_entries
        self.meta_path = os.path.join(directory, META_NAME)
        self.entries_path = os.path.join(directory, SUMMARIES_NAME)
        # key -> {"method": str, "hits": {formal: [serialized hits]}}
        self.entries: Dict[str, Dict] = {}
        self.stale = 0
        self.evicted = 0
        self.reset_reason: Optional[str] = None
        os.makedirs(directory, exist_ok=True)

    # -- load ----------------------------------------------------------------

    def load(self) -> None:
        """Read every compatible entry into memory.  An absent, foreign,
        or corrupt cache resets the directory and starts empty — a cold
        run, never a wrong one."""
        meta = self._load_meta()
        if meta is None:
            self._reset(None if not os.path.exists(self.meta_path)
                        else "unreadable cache metadata")
            return
        if meta.get("schema") != SUMMARY_SCHEMA \
                or meta.get("fingerprint") != self.fingerprint:
            self._reset(
                "foreign cache (model/knobs fingerprint mismatch)"
                if meta.get("schema") == SUMMARY_SCHEMA
                else f"unsupported cache schema {meta.get('schema')!r}")
            return
        for row in self._read_rows():
            key = row.get("key")
            method = row.get("method")
            hits = row.get("hits")
            if not isinstance(key, str) or not isinstance(method, str) \
                    or not isinstance(hits, dict):
                self.stale += 1
                continue
            entry = self.entries.get(key)
            if entry is None:
                # Re-insert moves the key to the back of the eviction
                # order: recently rewritten entries survive longest.
                self.entries[key] = {"method": method, "hits": dict(hits)}
            else:
                entry["hits"].update(hits)
        self._evict()

    def _load_meta(self) -> Optional[Dict]:
        try:
            with open(self.meta_path, encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    def _read_rows(self):
        """Entry rows, with the run-ledger tail tolerance: a crash
        mid-append leaves an unterminated final line, which never
        finished existing and is skipped without counting as stale."""
        try:
            with open(self.entries_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return []
        rows = []
        lines = text.split("\n")
        truncated_tail = lines[-1].strip() != ""
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                if not (truncated_tail and lineno == len(lines)):
                    self.stale += 1
                continue
            if isinstance(row, dict) and row.get("schema") == SUMMARY_SCHEMA:
                rows.append(row)
            else:
                self.stale += 1
        return rows

    def _evict(self) -> None:
        overflow = len(self.entries) - self.max_entries
        if overflow <= 0:
            return
        for key in list(self.entries)[:overflow]:
            del self.entries[key]
        self.evicted += overflow
        self._compact()

    def _compact(self) -> None:
        """Rewrite the entry file from the live in-memory set.  Written
        to a temp file then renamed, so a crash mid-compaction leaves
        either the old file or the new one, both self-consistent."""
        tmp_path = self.entries_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for key, entry in self.entries.items():
                handle.write(self._format_row(key, entry["method"],
                                              entry["hits"]) + "\n")
        os.replace(tmp_path, self.entries_path)

    def _reset(self, reason: Optional[str]) -> None:
        if reason is not None:
            self.reset_reason = reason
            self.stale += 1
        try:
            os.remove(self.entries_path)
        except OSError:
            pass
        meta = {"schema": SUMMARY_SCHEMA, "fingerprint": self.fingerprint}
        with open(self.meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, sort_keys=True)
            handle.write("\n")

    # -- access --------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        return self.entries.get(key)

    def put(self, key: str, method: str, hits: Dict) -> None:
        """Insert or extend one entry (one atomic line append per
        call).  Extending happens when a later run explores a formal of
        an already-cached method that the first run never descended
        into."""
        entry = self.entries.get(key)
        if entry is not None:
            fresh = {formal: rows for formal, rows in hits.items()
                     if formal not in entry["hits"]}
            if not fresh:
                return
            entry["hits"].update(fresh)
            hits = fresh
        else:
            self.entries[key] = {"method": method, "hits": dict(hits)}
        line = self._format_row(key, method, hits)
        with open(self.entries_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
        self._evict()

    def drop(self, key: str) -> None:
        """Forget one entry (e.g. it failed to rebind against the
        current program).  Removal is in-memory; the dead line ages out
        at the next compaction."""
        self.entries.pop(key, None)

    @staticmethod
    def _format_row(key: str, method: str, hits: Dict) -> str:
        return json.dumps({"schema": SUMMARY_SCHEMA, "key": key,
                           "method": method, "hits": hits},
                          sort_keys=True)
