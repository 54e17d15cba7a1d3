"""The end-to-end benchmark's five workloads.

A workload turns a seed into one pass: the ordered list of
(input, config) runs the timed loop repeats.  Each run carries the
ground truth it is scored against, which never comes from the
analyzer: hand-written per-rule counts for the micro programs, and the
generator's planted flows everywhere else.

Why these five (each stresses a different layer):

* ``micro-corpus`` — 63 tiny hand-written programs; per-run fixed cost
  (re-parsing the model library) dominates.
* ``table2-suite`` — the paper's own evaluation traffic, 22 apps x the
  five Table-1 presets; every layer does work, CS exhausts its budget
  on the 16 large apps.
* ``scale30`` — one 251 KB source text; the frontend dominates, and the
  unbounded half loads the back end too.
* ``sharedlib-ci`` — ci's conflation yields thousands of flows, so the
  taint sweep and reporting dominate: the inverse of ``scale30``.
* ``sharedlib-summary`` — the summary engine writing a fresh cache
  (cold), reading it (warm), and reusing it for another app (cross).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro import TAJConfig, TAJResult
from repro.bench import securibench
from repro.bench.generator import (GeneratedApp, scaling_corpus,
                                   summary_corpus)
from repro.bench.micro import MICRO_CASES, MICRO_DESCRIPTORS, MOTIVATING
from repro.bench.oracle import score_run
from repro.bench.suite import benign_lib_classes, generate_suite

# tp, fp, fn of one run against its ground truth.
Truth = Callable[[TAJResult], Tuple[int, int, int]]


@dataclass
class Run:
    """One analysis of one input under one configuration."""

    input_id: str
    config: TAJConfig
    sources: List[str]
    descriptor: Optional[Dict[str, str]]
    truth: Truth

    def config_in(self, workdir: str) -> TAJConfig:
        """The configuration, with a summary cache (if the strategy
        uses one) placed in the pass's own work directory."""
        if self.config.slicing == "summary":
            return replace(self.config, summary_cache_dir=os.path.join(
                workdir, "summaries"))
        return self.config

    def input_digest(self) -> str:
        """SHA-256 of the sources and descriptor the analyzer receives."""
        payload = json.dumps([self.sources, self.descriptor or {}],
                             sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _rule_counts_truth(expected: Dict[str, int],
                       result: TAJResult) -> Tuple[int, int, int]:
    """Score per-rule issue counts: tp = sum of min(got, expected)."""
    got: Dict[str, int] = {}
    if result.report is not None:
        for issue in result.report.issues:
            got[issue.rule] = got.get(issue.rule, 0) + 1
    tp = fp = fn = 0
    for rule in set(got) | set(expected):
        have, want = got.get(rule, 0), expected.get(rule, 0)
        tp += min(have, want)
        fp += max(0, have - want)
        fn += max(0, want - have)
    return tp, fp, fn


def _planted_truth(app: GeneratedApp,
                   result: TAJResult) -> Tuple[int, int, int]:
    score = score_run(app, result)
    return score.tp, score.fp, score.fn


def _app_runs(input_id: str, app: GeneratedApp,
              configs: List[TAJConfig]) -> List[Run]:
    truth = partial(_planted_truth, app)
    return [Run(input_id, config, app.sources,
                app.deployment_descriptor or None, truth)
            for config in configs]


def micro_corpus(seed: int) -> List[Run]:
    # The Figure-1 program's expected answer (one XSS) is stated in
    # repro.bench.micro's docstring rather than in MICRO_CASES.
    programs = [("Motivating", MOTIVATING, {"XSS": 1}, None)]
    programs += [(name, source, expected, MICRO_DESCRIPTORS.get(name))
                 for name, (source, expected) in sorted(MICRO_CASES.items())]
    programs += [(f"{category}:{name}", source, expected, None)
                 for category, name, source, expected
                 in securibench.all_cases()]
    configs = [TAJConfig.hybrid_unbounded(), TAJConfig.cs(), TAJConfig.ci()]
    runs = [Run(name, config, [source], descriptor,
                partial(_rule_counts_truth, expected))
            for name, source, expected, descriptor in programs
            for config in configs]
    random.Random(seed).shuffle(runs)
    return runs


def table2_suite(seed: int) -> List[Run]:
    # The paper's suite is pinned by its own per-app specs; the seed
    # leaves it unchanged, so every seed is checked against the pins.
    runs: List[Run] = []
    apps = generate_suite()
    for name in sorted(apps):
        app = apps[name]
        whitelist = frozenset(benign_lib_classes(app))
        configs = [replace(config, whitelist_extra=whitelist)
                   if config.use_whitelist else config
                   for config in TAJConfig.all_presets()]
        runs += _app_runs(name, app, configs)
    return runs


def scale30(seed: int) -> List[Run]:
    return _app_runs("scaling-x30", scaling_corpus(30, seed=7 + seed),
                     [TAJConfig.hybrid_optimized(),
                      TAJConfig.hybrid_unbounded()])


def _sharedlib(variant: int) -> GeneratedApp:
    return summary_corpus(60, 96, 10, variant=variant)


def sharedlib_ci(seed: int) -> List[Run]:
    return _app_runs("sharedlib", _sharedlib(seed), [TAJConfig.ci()])


def sharedlib_summary(seed: int) -> List[Run]:
    # Order matters: cold fills the pass's fresh cache directory, warm
    # reads it back for the same app, cross reads it for another app
    # that shares the library.
    app, other = _sharedlib(seed), _sharedlib(seed + 1)
    config = TAJConfig.summary()
    return (_app_runs("cold", app, [config]) +
            _app_runs("warm", app, [config]) +
            _app_runs("cross", other, [config]))


# Name -> pass builder, in the order the benchmark runs them.
WORKLOADS: Dict[str, Callable[[int], List[Run]]] = {
    "micro-corpus": micro_corpus,
    "table2-suite": table2_suite,
    "scale30": scale30,
    "sharedlib-ci": sharedlib_ci,
    "sharedlib-summary": sharedlib_summary,
}
