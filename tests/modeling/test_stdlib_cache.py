"""The model library is prepared once per process, one build per value
of ``ModelOptions.strings``, and shared by every analysis.  A run's
``Program`` refers to the shared classes; the only library methods a
run rewrites are its own copies of those the constant-key model
changes.  No analysis may write into the shared classes, and the
shared library may keep no run alive."""

import gc
import weakref

import pytest

from repro import TAJ, TAJConfig
from repro.bench.micro import MICRO_CASES, MICRO_DESCRIPTORS, MOTIVATING
from repro.bench.suite import generate_suite
from repro.core import taj as taj_module
from repro.ir import ClassDecl, Method, Program, ValidationError
from repro.ir.printer import format_class, format_method, format_program
from repro.lang import parse
from repro.modeling import prepare, stdlib
from repro.modeling.stdlib import load_stdlib, prepared_library
from repro.taint.flows import canonical_flows

EJB_SOURCE = MICRO_CASES["ejb_dispatch"][0]
EJB_DESCRIPTOR = MICRO_DESCRIPTORS["ejb_dispatch"]
# Figure 1 puts "fName" and "date"; this program puts "clean" and "dirty".
OTHER_KEYS = MICRO_CASES["map_constant_keys"][0]


@pytest.fixture(scope="module")
def table2_app():
    # Ginp declares its own ``library class``es: library code that is
    # not the shared library's.
    app = generate_suite(["Ginp"])["Ginp"]
    assert any("library class" in source for source in app.sources)
    return app


def printed(classes) -> str:
    program = Program()
    program.classes.update(classes)
    return format_program(program)


def test_analyses_leave_both_shared_builds_as_built(table2_app):
    for config in TAJConfig.all_presets() + [TAJConfig.summary()]:
        TAJ(config).analyze_sources([MOTIVATING])
    # --confirm replays the flows on the strings=False build.
    confirmed = TAJ(TAJConfig.hybrid_unbounded().with_confirm()) \
        .analyze_sources([MOTIVATING])
    assert confirmed.confirmation
    ejb = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources(
        [EJB_SOURCE], EJB_DESCRIPTOR)
    assert ejb.issues == 1
    TAJ(TAJConfig.hybrid_unbounded()).analyze_sources(
        table2_app.sources, table2_app.deployment_descriptor)
    for strings in (True, False):
        fresh = prepared_library.__wrapped__(strings)
        assert printed(prepared_library(strings).classes) \
            == printed(fresh.classes)


def test_model_passes_rewrite_library_methods_in_place():
    """The premise of the next test: after modeling, some library
    classes of the analyzed program (the run's own copies) no longer
    print as loaded."""
    library = load_stdlib()
    program = prepare([MOTIVATING]).program
    assert any(format_class(cls) != format_class(program.classes[name])
               for name, cls in library.classes.items())


def test_a_run_sees_only_its_own_dictionary_keys():
    def analysis(source):
        prepared = prepare([source])
        result = TAJ(TAJConfig.hybrid_unbounded()).analyze_prepared(
            prepared)
        flows = [repr(flow.sort_key())
                 for flow in canonical_flows(result.flows)]
        contains = format_method(
            prepared.program.lookup_method("HashMap.containsKey/1"))
        return format_program(prepared.program), flows, contains

    first = analysis(MOTIVATING)
    other = analysis(OTHER_KEYS)
    again = analysis(MOTIVATING)
    # The premise: containsKey's wildcard get reads the run's own keys.
    assert "@key:dirty" in other[2] and "@key:dirty" not in first[2]
    assert first == again


def test_each_run_is_freed_with_its_result(monkeypatch, table2_app):
    runs = []

    def recording_prepare(*args, **kwargs):
        prepared = real_prepare(*args, **kwargs)
        runs.append(weakref.ref(prepared.program))
        return prepared

    real_prepare = taj_module.prepare
    monkeypatch.setattr(taj_module, "prepare", recording_prepare)
    inputs = [([MOTIVATING], None), ([EJB_SOURCE], EJB_DESCRIPTOR),
              (table2_app.sources, table2_app.deployment_descriptor)]
    for sources, descriptor in inputs:
        for config in (TAJConfig.hybrid_unbounded(), TAJConfig.ci(),
                       TAJConfig.cs()):
            result = TAJ(config).analyze_sources(sources, descriptor)
            assert result.completeness == "complete"
            del result
    gc.collect()
    assert len(runs) == 9
    assert [ref() for ref in runs] == [None] * 9


def test_live_ir_objects_stay_flat(table2_app):
    def analyze():
        TAJ(TAJConfig.hybrid_unbounded()).analyze_sources(
            table2_app.sources, table2_app.deployment_descriptor)

    def live_ir() -> int:
        gc.collect()
        return sum(isinstance(obj, (ClassDecl, Method))
                   for obj in gc.get_objects())

    analyze()
    counts = []
    for _ in range(3):
        analyze()
        counts.append(live_ir())
    assert counts[0] == counts[1] == counts[2], counts


def test_prepare_shares_every_library_class_but_its_copies():
    library = prepared_library()
    # Found by the constant-key model's own matcher, not by name.
    assert set(library.dictionary_constants) == {
        "HashMap.containsKey/1", "HttpSession.getAttribute/1",
        "HttpSession.setAttribute/2"}
    first, second = load_stdlib(), load_stdlib()
    assert first is not second and first.classes is not second.classes
    shared = first.classes
    assert all(second.classes[name] is cls for name, cls in shared.items())

    program = prepare([MOTIVATING]).program
    for name, cls in shared.items():
        own = program.classes[name]
        for key, method in cls.methods.items():
            qname = f"{name}.{key[0]}/{key[1]}"
            copied = qname in library.dictionary_constants
            assert (own.methods[key] is method) != copied, qname
        copied_class = any(qname.startswith(f"{name}.")
                           for qname in library.dictionary_constants)
        assert (own is cls) != copied_class, name


@pytest.mark.parametrize("call", [
    'Object m() { return Class.forName("Object"); }',
    'Object m(InitialContext c) { return c.lookup("ejb/A"); }',
])
def test_a_library_that_calls_a_resolved_api_fails_the_build(
        call, monkeypatch):
    source = stdlib.STDLIB_SOURCE + f"library class Probe {{ {call} }}\n"
    monkeypatch.setattr(stdlib, "_stdlib_unit",
                        lambda: parse(source, "<stdlib>"))
    with pytest.raises(ValidationError, match="Probe.m/"):
        prepared_library.__wrapped__(True)
