"""The five evaluated configurations (paper Table 1).

|                    | Hybrid |           |           | CS | CI |
|                    | Unbnd. | Priorit.  | Optimized |    |    |
| synthetic models   |   ✓    |    ✓      |    ✓      | ✓  | ✓  |
| priority-driven CG |        |    ✓      |    ✓      |    |    |
| bounds (§6.2)      |        |           |    ✓      |    |    |

The paper used a call-graph bound of 20 000 nodes, a heap-transition
bound of 20 000, a flow-length cutoff of 14, and a nested-taint depth of
2 on applications of 100-800 KLoC, with CS thin slicing limited by a
1 GB JVM heap.  Our benchmark suite is scaled down ~100× and the flow
"length" here counts fine-grained value-flow steps, so the preset
constructors use rescaled defaults (320 call-graph nodes, 200 heap
transitions, length 25, 800 abstract state units); everything stays
overridable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..bounds import Budget
from ..modeling import ModelOptions

# Scaled defaults (paper values / ~100, matching the suite's scale).
DEFAULT_CG_NODE_BOUND = 320
DEFAULT_HEAP_TRANSITION_BOUND = 200
DEFAULT_FLOW_LENGTH_BOUND = 25
DEFAULT_NESTED_DEPTH = 2
# Abstract memory budget emulating the 1 GB JVM heap for CS slicing.
DEFAULT_CS_STATE_UNITS = 800


@dataclass
class TAJConfig:
    """A complete analysis configuration."""

    name: str
    slicing: str = "hybrid"          # "hybrid" | "cs" | "ci" | "summary"
    prioritized: bool = False             # §6.1 priority-driven CG
    budget: Budget = field(default_factory=Budget)
    models: ModelOptions = field(default_factory=ModelOptions)
    # Context-policy toggles (paper §3.1); ablations flip these.
    # CI thin slicing (Sridharan et al. [33]) pairs with a fully
    # context-insensitive pointer analysis.
    context_insensitive_pointers: bool = False
    # Whitelist code reduction (§4.2.1) — one of the "optimizations" of
    # the fully-optimized configuration.  ``whitelist_extra`` holds the
    # per-application hand-written entries (benign app-bundled library
    # classes), mirroring how the paper's whitelist was maintained.
    use_whitelist: bool = False
    whitelist_extra: frozenset = frozenset()
    object_sensitive: bool = True
    collections_unlimited: bool = True
    factory_call_strings: bool = True
    taint_api_call_strings: bool = True
    # Resilience (repro.resilience, docs/robustness.md).  A wall-clock
    # budget alongside the §6 work budgets; ``None`` disables it.
    deadline_seconds: Optional[float] = None
    # Graceful-degradation mode: quarantine source units that fail the
    # frontend, and descend the slicing ladder (cs → hybrid → ci) on
    # budget/deadline exhaustion instead of aborting the rule sweep.
    # Off by default so the paper's CS out-of-memory reproduction (and
    # the strict-frontend contract) are preserved.
    resilient: bool = False
    # Dynamic flow confirmation (repro.confirm, docs/validation.md):
    # after reporting, replay the program with partial instrumentation
    # derived from each flow's witness chain and attach per-flow
    # confirmed/refuted/inconclusive verdicts to the result.
    confirm: bool = False
    # Interpreter step budget per replay run.
    confirm_fuel: int = 200_000
    # Payload seed mixed into every source value during replay, making
    # verdicts a deterministic function of (program, seed, fault mode).
    confirm_seed: int = 1
    # Persistent summary cache directory for the "summary" strategy
    # (repro.summaries, docs/performance.md): a cold run harvests
    # per-method summaries into it, a warm run on the same or an
    # overlapping app seals them back in.  None = in-memory only
    # (summary behaves like hybrid plus harvest bookkeeping).
    summary_cache_dir: Optional[str] = None

    def with_budget(self, **kwargs) -> "TAJConfig":
        """This configuration with the named budget bounds replaced; an
        unknown bound name raises ``TypeError``."""
        return replace(self, budget=replace(self.budget, **kwargs))

    def with_resilience(self, deadline_seconds: Optional[float] = None,
                        resilient: bool = True) -> "TAJConfig":
        """This configuration with graceful degradation enabled (and,
        optionally, a wall-clock deadline)."""
        return replace(self, deadline_seconds=deadline_seconds,
                       resilient=resilient)

    def with_confirm(self, confirm: bool = True,
                     fuel: int = 200_000, seed: int = 1) -> "TAJConfig":
        """This configuration with the dynamic replay oracle enabled:
        every reported flow gets a confirmed/refuted/inconclusive
        verdict (``TAJResult.confirmation``)."""
        return replace(self, confirm=confirm, confirm_fuel=fuel,
                       confirm_seed=seed)

    def with_summary_cache(self, directory: Optional[str]) -> "TAJConfig":
        """This configuration on the summary strategy, persisting
        per-method taint-transfer summaries under ``directory`` (warm
        runs reuse them; see docs/performance.md)."""
        return replace(self, slicing="summary",
                       summary_cache_dir=directory)

    # -- the five Table 1 presets ------------------------------------------

    @staticmethod
    def hybrid_unbounded() -> "TAJConfig":
        """Hybrid thin slicing, run to completion, no bounds."""
        return TAJConfig(name="hybrid-unbounded", slicing="hybrid")

    @staticmethod
    def hybrid_prioritized(
            max_cg_nodes: int = DEFAULT_CG_NODE_BOUND) -> "TAJConfig":
        """Hybrid + priority-driven call-graph construction under a
        node budget (§6.1)."""
        return TAJConfig(name="hybrid-prioritized", slicing="hybrid",
                         prioritized=True,
                         budget=Budget(max_cg_nodes=max_cg_nodes))

    @staticmethod
    def hybrid_optimized(
            max_cg_nodes: int = DEFAULT_CG_NODE_BOUND,
            max_heap_transitions: int = DEFAULT_HEAP_TRANSITION_BOUND,
            max_flow_length: int = DEFAULT_FLOW_LENGTH_BOUND,
            max_nested_depth: int = DEFAULT_NESTED_DEPTH) -> "TAJConfig":
        """Hybrid + priority + every §6.2 bound (the paper's recommended
        configuration)."""
        return TAJConfig(
            name="hybrid-optimized", slicing="hybrid", prioritized=True,
            use_whitelist=True,
            budget=Budget(max_cg_nodes=max_cg_nodes,
                          max_heap_transitions=max_heap_transitions,
                          max_flow_length=max_flow_length,
                          max_nested_depth=max_nested_depth))

    @staticmethod
    def cs(max_state_units: int = DEFAULT_CS_STATE_UNITS) -> "TAJConfig":
        """CS thin slicing under the memory-emulation budget."""
        return TAJConfig(name="cs", slicing="cs",
                         budget=Budget(max_state_units=max_state_units))

    @staticmethod
    def ci() -> "TAJConfig":
        """CI thin slicing, unbounded."""
        return TAJConfig(name="ci", slicing="ci",
                         context_insensitive_pointers=True)

    @staticmethod
    def summary(cache_dir: Optional[str] = None) -> "TAJConfig":
        """Summary-based modular engine (repro.summaries): hybrid
        precision, per-method summaries reused from ``cache_dir`` when
        given.  Not part of :meth:`all_presets` — it is an engine
        variant of hybrid-unbounded, not a sixth Table 1 row."""
        return TAJConfig(name="summary", slicing="summary",
                         summary_cache_dir=cache_dir)

    @staticmethod
    def all_presets() -> list:
        return [TAJConfig.hybrid_unbounded(), TAJConfig.hybrid_prioritized(),
                TAJConfig.hybrid_optimized(), TAJConfig.cs(),
                TAJConfig.ci()]


def settings_matrix() -> str:
    """Render the Table 1 settings matrix."""
    rows = [
        ("Configuration", "Models", "Priority", "Bounds", "Slicing"),
        ("hybrid-unbounded", "yes", "no", "no", "hybrid"),
        ("hybrid-prioritized", "yes", "yes", "cg-nodes", "hybrid"),
        ("hybrid-optimized", "yes", "yes", "all (§6.2)", "hybrid"),
        ("cs", "yes", "no", "memory emulation", "context-sensitive"),
        ("ci", "yes", "no", "no", "context-insensitive"),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
