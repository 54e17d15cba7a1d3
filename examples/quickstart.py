#!/usr/bin/env python3
"""Quickstart: analyze the paper's motivating example (Figure 1).

The program reads two servlet parameters, pushes them through a map,
invokes a method reflectively, wraps results in carrier objects, and
prints three of them — only one of which is actually tainted.  A precise
analysis reports exactly that one.

Run:  python examples/quickstart.py
"""

from repro import TAJ, TAJConfig
from repro.bench.micro import MOTIVATING
from repro.reporting import render_text


def main() -> None:
    taj = TAJ(TAJConfig.hybrid_unbounded())
    result = taj.analyze_sources([MOTIVATING])

    print(render_text(result.report, title="TAJ on the motivating "
                                           "program (paper Figure 1)"))
    print()
    print(f"analysis phases (s): modeling={result.times.modeling:.3f} "
          f"pointer={result.times.pointer_analysis:.3f} "
          f"sdg={result.times.sdg:.3f} taint={result.times.taint:.3f}")
    counters = result.metrics["counters"]
    print(f"call-graph nodes: {result.cg_nodes}, "
          f"reflective calls resolved: "
          f"{counters['modeling.reflective_calls_resolved']}, "
          f"dictionary accesses modeled: "
          f"{counters['modeling.dictionary_accesses']}")

    assert result.issues == 1, "expected exactly the one BAD println"
    issue = result.report.issues[0]
    print()
    print("=> the single issue is the `writer.println(i1)` call: the")
    print("   Internal object is a taint carrier holding the fName")
    print("   parameter; the sanitized (i2) and untainted (i3) calls")
    print("   are correctly rejected.")
    print(f"   remediation: {issue.remediation} at {issue.lcp}")


if __name__ == "__main__":
    main()
