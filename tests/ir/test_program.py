"""Program/method structure tests."""

import pytest

from repro.ir import (Assign, ClassDecl, Const, FieldDecl, Goto, If, Method,
                      Param, Program, Return, STRING, format_class,
                      parse_type)
from tests.conftest import lower_mini


def build_method():
    method = Method("C", "m", [Param("p", STRING)])
    return method


def test_qname_format():
    method = build_method()
    assert method.qname == "C.m/1"
    assert method.display_name == "C.m"


def test_finish_terminates_open_blocks_with_return():
    """Block ids carry no fallthrough meaning (they are allocated out of
    order around try/catch), so an unterminated block returns."""
    method = build_method()
    b0 = method.new_block()
    method.append(b0, Const("x", 1))
    b1 = method.new_block()
    method.append(b1, Return(None))
    method.finish()
    assert isinstance(method.blocks[0].terminator, Return)
    assert method.blocks[0].succs == []
    # b1 became unreachable and was pruned.
    assert 1 not in method.blocks


def test_finish_adds_implicit_return():
    method = build_method()
    b0 = method.new_block()
    method.append(b0, Const("x", 1))
    method.finish()
    assert isinstance(method.blocks[0].terminator, Return)


def test_finish_prunes_unreachable_blocks():
    method = build_method()
    b0 = method.new_block()
    method.append(b0, Return(None))
    method.new_block()  # unreachable
    method.finish()
    assert list(method.blocks) == [0]


def test_iids_are_unique_and_increasing():
    method = build_method()
    b0 = method.new_block()
    i1 = method.append(b0, Const("x", 1))
    i2 = method.append(b0, Assign("y", "x"))
    assert i2.iid > i1.iid >= 0


def test_if_terminator_successors():
    method = build_method()
    b0 = method.new_block()
    b1 = method.new_block()
    b2 = method.new_block()
    method.append(b0, If("c", b1.bid, b2.bid))
    method.append(b1, Return(None))
    method.append(b2, Return(None))
    method.finish()
    assert method.blocks[0].succs == [1, 2]


def test_program_duplicate_class_rejected():
    program = Program()
    program.add_class(ClassDecl("C"))
    with pytest.raises(ValueError):
        program.add_class(ClassDecl("C"))


def test_lookup_method():
    program = lower_mini("class C { void m(Object a) { } }")
    assert program.lookup_method("C.m/1") is not None
    assert program.lookup_method("C.m/2") is None
    assert program.lookup_method("Nope.m/1") is None
    assert program.lookup_method("garbage") is None


def test_application_vs_library_partition():
    program = lower_mini("class C { }")
    app = {c.name for c in program.application_classes()}
    lib = {c.name for c in program.library_classes()}
    assert "C" in app and "Object" in lib
    assert not app & lib


def test_stats_counts():
    program = lower_mini("""
class C {
  void m() { int x = 1; }
  void n() { int y = 2; }
}""")
    stats = program.stats()
    assert stats["app_classes"] == 1
    assert stats["app_methods"] == 2
    assert stats["total_classes"] > stats["app_classes"]
    assert stats["app_instructions"] > 0


def test_type_of_handles_ssa_versions():
    method = build_method()
    method.var_types["x"] = "String"
    assert method.type_of("x.3") == "String"
    assert method.type_of("x") == "String"
    assert method.type_of("unknown") is None


def test_field_decl_lookup():
    cls = ClassDecl("C")
    cls.add_field(FieldDecl("f", parse_type("String")))
    assert cls.fields["f"].type == STRING


def test_instruction_count():
    program = lower_mini("class C { void m() { int x = 1; } }")
    method = program.lookup_method("C.m/0")
    assert method.instruction_count() == len(list(method.instructions()))


def test_copies_leave_the_original_untouched():
    program = lower_mini("class C { Object m(Object a) { return a; } }")
    cls = program.get_class("C")
    method = cls.get_method("m", 1)
    before = format_class(cls), method._next_iid
    own_cls, own = cls.copy(), method.copy()
    own_cls.add_method(own)
    block = own.blocks[own.entry_block]
    block.instrs.insert(0, Const("x", 1))
    block.succs.append(7)
    own.var_types["x"] = "int"
    own.fresh_iid()
    assert own_cls.get_method("m", 1) is own
    assert cls.get_method("m", 1) is method
    assert (format_class(cls), method._next_iid) == before
    assert "x" not in method.var_types
