"""The model library is parsed once per process and lowered afresh by
every ``load_stdlib()`` call, so the model passes that rewrite one
analysis's library IR in place never reach another analysis."""

from repro import TAJ, TAJConfig
from repro.bench.micro import MOTIVATING
from repro.ir.printer import format_class, format_program
from repro.lang import Lowerer, parse
from repro.modeling import prepare
from repro.modeling.stdlib import STDLIB_SOURCE, load_stdlib


def freshly_parsed_library() -> str:
    lowerer = Lowerer()
    lowerer.add_unit(parse(STDLIB_SOURCE, "<stdlib>"))
    return format_program(lowerer.lower_all())


def test_each_load_lowers_a_distinct_program():
    first, second = load_stdlib(), load_stdlib()
    assert first is not second
    assert {id(m) for m in first.methods()}.isdisjoint(
        id(m) for m in second.methods())
    assert format_program(first) == format_program(second) \
        == freshly_parsed_library()


def test_model_passes_rewrite_library_methods_in_place():
    """The premise of the next test: after modeling, some library
    classes of the analyzed program no longer print as loaded."""
    library = load_stdlib()
    program = prepare([MOTIVATING]).program
    assert any(format_class(cls) != format_class(program.classes[name])
               for name, cls in library.classes.items())


def test_an_analysis_leaves_later_loads_untouched():
    expected = freshly_parsed_library()
    TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([MOTIVATING])
    assert format_program(load_stdlib()) == expected
