"""Fault-injection sweep: every pipeline seam must fail gracefully.

Runs the securibench micro-suite through :class:`repro.core.TAJ` with a
matrix of scripted :class:`~repro.resilience.FaultPlan`\\ s — one plan
per (seam, action) pair, covering every seam of
``repro.resilience.faults`` — and enforces the robustness contract of
``docs/robustness.md``:

* **no unhandled tracebacks**: every run returns a
  :class:`~repro.core.results.TAJResult`, never raises;
* **no silent absorption**: a run that swallowed a fault carries at
  least one diagnostic or degradation, and its ``completeness`` is not
  ``"complete"``;
* **completeness is truthful**: deadline faults report
  ``partial-deadline``, budget faults ``partial-budget`` (or a ladder
  descent), essential-phase faults ``failed``.

Entry points:

* **script** — ``PYTHONPATH=src python benchmarks/fault_injection.py``
  (the CI job); ``--quick`` runs one case per securibench category;
  exits non-zero on any contract violation.
* **pytest** — the ``test_*`` functions run a cross-section of the
  matrix under the regular suite.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script mode
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.securibench import CASES
from repro.core import TAJ, TAJConfig
from repro.resilience import Fault, FaultPlan

# One scenario per row: (label, seam, fault kwargs, config factory name,
# expected completeness values).  Every seam of the fault table appears
# at least once.
SCENARIOS: List[Tuple[str, Fault, str, Tuple[str, ...]]] = [
    ("frontend-source-error",
     Fault("frontend.source", action="raise", exception="source"),
     "optimized", ("partial-fault",)),
    ("frontend-corrupt",
     Fault("frontend.source", action="corrupt"),
     "optimized", ("partial-fault",)),
    ("modeling-fault",
     Fault("modeling.pass", action="raise"),
     "optimized", ("failed",)),
    ("pointer-fault",
     Fault("pointer.solve", action="raise"),
     "optimized", ("failed",)),
    ("pointer-deadline",
     Fault("pointer.solve", action="trip-deadline"),
     "optimized", ("partial-deadline",)),
    ("sdg-fault",
     Fault("sdg.build", action="raise"),
     "optimized", ("failed",)),
    ("tabulation-fault",
     Fault("tabulation.step", action="raise"),
     "optimized", ("partial-fault",)),
    ("hybrid-budget-ladder",
     Fault("slicing.hybrid", action="raise", exception="budget"),
     "optimized", ("partial-budget",)),
    ("cs-budget-ladder",
     Fault("slicing.cs", action="raise", exception="budget"),
     "cs", ("partial-budget",)),
    ("ci-fault",
     Fault("slicing.ci", action="raise"),
     "ci", ("partial-fault",)),
    ("ci-step-deadline",
     Fault("ci.step", action="trip-deadline"),
     "ci", ("partial-deadline", "partial-fault")),
    ("summary-budget-ladder",
     Fault("slicing.summary", action="raise", exception="budget"),
     "summary", ("partial-budget",)),
    ("reporting-fault",
     Fault("reporting.build", action="raise"),
     "optimized", ("partial-fault",)),
    ("confirm-fault",
     Fault("confirm.replay", action="raise"),
     "confirm", ("partial-fault",)),
]

CONFIGS = {
    "optimized": TAJConfig.hybrid_optimized,
    "cs": TAJConfig.cs,
    "ci": TAJConfig.ci,
    "summary": TAJConfig.summary,
    "confirm": lambda: TAJConfig.hybrid_optimized().with_confirm(),
}


def suite_cases(quick: bool = False) -> Dict[str, str]:
    """case name -> source, over the securibench micro-suite."""
    out: Dict[str, str] = {}
    for category, cases in CASES.items():
        names = sorted(cases)
        if quick:
            names = names[:1]
        for name in names:
            out[f"{category}/{name}"] = cases[name][0]
    return out


def run_scenario(label: str, fault: Fault, config_key: str,
                 expected: Tuple[str, ...],
                 source: str) -> Optional[str]:
    """Run one (scenario, case); returns an error string or None."""
    config = CONFIGS[config_key]().with_resilience(
        deadline_seconds=3600.0, resilient=True)
    taj = TAJ(config, faults=FaultPlan.of(fault))
    try:
        result = taj.analyze_sources([source])
    except Exception:
        return (f"{label}: unhandled exception escaped the pipeline:\n"
                f"{traceback.format_exc()}")
    if not result.diagnostics and not result.degradations:
        return (f"{label}: fault at {fault.seam} was absorbed silently "
                f"(no diagnostics, no degradations)")
    if result.completeness == "complete":
        return (f"{label}: fault at {fault.seam} absorbed but the run "
                f"still claims to be complete")
    if result.completeness not in expected:
        return (f"{label}: completeness {result.completeness!r}, "
                f"expected one of {expected}")
    return None


def run_matrix(quick: bool = False) -> List[str]:
    """The full sweep; returns the list of contract violations."""
    cases = suite_cases(quick)
    errors: List[str] = []
    runs = 0
    for case_name, source in cases.items():
        for label, fault, config_key, expected in SCENARIOS:
            runs += 1
            error = run_scenario(label, fault, config_key, expected,
                                 source)
            if error is not None:
                errors.append(f"[{case_name}] {error}")
    print(f"fault-injection: {runs} runs over {len(cases)} cases x "
          f"{len(SCENARIOS)} scenarios, {len(errors)} violations")
    return errors


# -- pytest mode --------------------------------------------------------------

def test_fault_matrix_quick():
    """Every seam scenario survives one case per category."""
    errors = run_matrix(quick=True)
    assert not errors, "\n".join(errors)


# -- script mode --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fault-injection sweep over the securibench suite.")
    parser.add_argument("--quick", action="store_true",
                        help="one case per securibench category")
    args = parser.parse_args(argv)
    errors = run_matrix(quick=args.quick)
    for error in errors:
        print(f"FAIL: {error}")
    if errors:
        return 1
    print("OK: every seam fault produced a diagnosed, "
          "correctly-labelled TAJResult")
    return 0


if __name__ == "__main__":
    sys.exit(main())
