"""Generator --scale knob: scaled specs, ground truth, analyzability."""

import pytest

from repro.bench.generator import AppSpec, generate_app, scaling_corpus
from repro.modeling import prepare


def test_scaled_multiplies_pattern_counts():
    spec = AppSpec(name="base", seed=3)
    scaled = spec.scaled(10)
    for name in AppSpec.SCALED_FIELDS:
        assert getattr(scaled, name) == getattr(spec, name) * 10
    # Per-class sizes and trait flags are not scaled.
    assert scaled.cold_methods == spec.cold_methods
    assert scaled.lib_methods == spec.lib_methods
    assert scaled.seed == spec.seed
    assert scaled.name == "base-x10"


def test_scaled_identity_and_validation():
    spec = AppSpec(name="base")
    assert spec.scaled(1) is spec
    with pytest.raises(ValueError):
        spec.scaled(0)


def test_scaled_ground_truth_scales():
    base = generate_app(AppSpec(name="s", seed=5))
    big = generate_app(AppSpec(name="s", seed=5).scaled(10))
    assert len(big.planted) == len(base.planted) * 10
    base_tp = sum(1 for p in base.planted if p.is_true_positive)
    big_tp = sum(1 for p in big.planted if p.is_true_positive)
    assert big_tp == base_tp * 10


def test_scaling_corpus_compiles_and_spreads_entrypoints():
    app = scaling_corpus(10)
    program = prepare(app.sources).program
    # ~4 flow methods per servlet: scale 10 must yield dozens of
    # entrypoints.
    assert len(program.entrypoints) >= 25


def test_generator_cli_scale(tmp_path, capsys):
    from repro.bench.generator import main
    out = tmp_path / "corpus.jlang"
    assert main(["--scale", "2", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "class" in text
    prepare([text])  # the emitted corpus must be a valid program
