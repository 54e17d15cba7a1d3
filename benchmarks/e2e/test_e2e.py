"""Self-tests of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as driver
from stats import p90, quartiles, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
GENERATED = {"scale30", "sharedlib-ci", "sharedlib-summary"}


def _run(*args: str, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=600)


def _inputs(name: str, seed: int):
    return [(run.input_id, run.config.name, run.input_digest())
            for run in WORKLOADS[name](seed)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    assert _inputs(name, 3) == _inputs(name, 3)
    changed = sorted(_inputs(name, 3)) != sorted(_inputs(name, 4))
    assert changed == (name in GENERATED)


def test_micro_corpus_seed_changes_run_order():
    assert _inputs("micro-corpus", 3) != _inputs("micro-corpus", 4)


def test_order_statistics_on_fixed_lists():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == [2.25, 4.5, 6.75]
    assert quartiles([5.0]) == [5.0, 5.0, 5.0]
    assert p90(list(range(1, 11))) == 9
    assert p90(list(range(100, 0, -1))) == 90
    assert p90([3.0]) == 3.0
    assert summarize([4, 1, 3, 2]) == {"median": 2.5, "q1": 1.25,
                                       "q3": 3.75, "n": 4}


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == driver.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == driver.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tampered_digest_fails_and_names_the_run(tmp_path):
    pins = json.loads((HERE / "expected.json").read_text())
    pins["table2-suite"]["A"]["hybrid-unbounded"]["digest"] = "0" * 64
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(pins))
    out = _run("--workload", "table2-suite", "--inputs", "1",
               "--seconds", "0", "--trace", "0", "--expected",
               str(expected), "--out", str(tmp_path))
    assert out.returncode != 0
    assert "WRONG (table2-suite, A, hybrid-unbounded)" in out.stdout
    assert not json.loads(out.stdout.splitlines()[-1])["correct"]


def test_one_input_smoke_of_every_workload(tmp_path):
    out = _run("--inputs", "1", "--seconds", "0", "--out", str(tmp_path))
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name in WORKLOADS:
        assert set(result["metrics"][name]) == \
            set(driver.END_TO_END) | set(driver.PER_LAYER)
        assert (tmp_path / name / "trace.json").is_file()
        layers = json.loads((tmp_path / name / "layers.json").read_text())
        assert {"lang", "modeling", "pointer", "taint"} <= set(
            layers["layers"])
        # Self times partition the analysis: nothing counted twice.
        shares = [row["share_of_analysis"]
                  for row in layers["layers"].values()
                  if "share_of_analysis" in row]
        assert sum(shares) <= 1.0 + 1e-9


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "micro-corpus", "--seconds", "0",
               script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
