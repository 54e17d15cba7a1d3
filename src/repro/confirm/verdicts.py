"""Flow verdicts: the replay oracle's classification vocabulary.

Every reported flow gets exactly one verdict:

* ``confirmed`` — a replay delivered a value carrying a matching taint
  label (right kind for the rule, minted in the flow's source method,
  no rule sanitizer applied) into the flow's sink.
* ``refuted`` — the replay reached the flow's sink with the source
  method executed, but the only matching labels arriving were
  sanitized (``reason="sanitized"``) or no matching label arrived at
  all (``reason="no-tainted-witness"``).
* ``inconclusive`` — the replay could not decide: the source or sink
  method does not exist in the execution program
  (``source-not-executable`` / ``sink-not-executable``), was never
  reached (``source-not-reached`` / ``sink-not-reached``), or the
  interpreter's step budget expired mid-run
  (``replay-budget-exhausted``).

``canonical_verdicts`` fixes the output order the same way
:func:`~repro.taint.flows.canonical_flows` does for flows, which is
what makes ``--confirm`` output byte-identical across repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

CONFIRMED = "confirmed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# Rendering/summary order: most decisive first.
VERDICT_ORDER = (CONFIRMED, REFUTED, INCONCLUSIVE)


@dataclass(frozen=True)
class FlowVerdict:
    """The replay oracle's judgment on one reported flow."""

    rule: str
    source: str               # "Method@iid", matching TaintFlow refs
    sink: str
    sink_display: str
    verdict: str              # CONFIRMED | REFUTED | INCONCLUSIVE
    reason: str               # e.g. "tainted-witness", "sanitized"
    labels: Tuple[str, ...] = ()   # the dynamic labels that decided it
    fault_replay: bool = False     # decided only by the fault-mode run

    def sort_key(self) -> Tuple:
        """Stable total order from rendered strings only (the same
        discipline as :meth:`TaintFlow.sort_key`)."""
        return (self.rule, self.source, self.sink, self.sink_display)

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "source": self.source,
            "sink": self.sink,
            "sink_display": self.sink_display,
            "verdict": self.verdict,
            "reason": self.reason,
            "labels": list(self.labels),
            "fault_replay": self.fault_replay,
        }


def canonical_verdicts(verdicts: Iterable[FlowVerdict]
                       ) -> List[FlowVerdict]:
    """Dedupe by (rule, source, sink) and sort by
    :meth:`FlowVerdict.sort_key` — one verdict per reported flow, in a
    process-independent order."""
    best: Dict[Tuple, FlowVerdict] = {}
    for verdict in verdicts:
        key = (verdict.rule, verdict.source, verdict.sink)
        kept = best.get(key)
        if kept is None or verdict.sort_key() < kept.sort_key():
            best[key] = verdict
    return sorted(best.values(), key=FlowVerdict.sort_key)


@dataclass
class ConfirmationResult:
    """Everything one confirm pass produced."""

    verdicts: List[FlowVerdict] = field(default_factory=list)
    seed: int = 0
    replays: int = 0              # interpreter runs performed (modes)
    replay_steps: int = 0         # total interpreter steps across them
    instrumented_sources: int = 0  # |plan.source_methods|
    instrumented_sinks: int = 0    # |plan.sink_methods|
    aborted_entrypoints: List[str] = field(default_factory=list)
    fuel_exhausted: List[str] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICT_ORDER}
        for verdict in self.verdicts:
            out[verdict.verdict] = out.get(verdict.verdict, 0) + 1
        return out

    @property
    def confirmed(self) -> List[FlowVerdict]:
        return [v for v in self.verdicts if v.verdict == CONFIRMED]

    @property
    def refuted(self) -> List[FlowVerdict]:
        return [v for v in self.verdicts if v.verdict == REFUTED]

    @property
    def inconclusive(self) -> List[FlowVerdict]:
        return [v for v in self.verdicts if v.verdict == INCONCLUSIVE]

    def verdict_for(self, rule: str, source: str,
                    sink: str) -> FlowVerdict:
        """The verdict for one flow identity; raises ``KeyError`` when
        the flow was not under confirmation."""
        for verdict in self.verdicts:
            if (verdict.rule, verdict.source, verdict.sink) == (
                    rule, source, sink):
                return verdict
        raise KeyError((rule, source, sink))

    def to_payload(self) -> Dict:
        """JSON-serializable form (CLI ``--json`` / bench artifacts)."""
        return {
            "seed": self.seed,
            "replays": self.replays,
            "replay_steps": self.replay_steps,
            "instrumented_sources": self.instrumented_sources,
            "instrumented_sinks": self.instrumented_sinks,
            "aborted_entrypoints": list(self.aborted_entrypoints),
            "fuel_exhausted": list(self.fuel_exhausted),
            "counts": self.counts(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
