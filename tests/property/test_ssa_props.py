"""Property-based tests: SSA invariants over generated control flow.

A small program generator produces arbitrary nestings of if/while/try
with assignments over a fixed pool of variables; SSA construction must
always yield single-assignment form with dominating definitions, and
agree with the Cytron-style reference construction
(``tests/ssa/reference_ssa.py``).  A second generator produces
straight-line bodies, where the two must print identically.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.ir import (INT, Assign, BinOp, Call, Method, Param, Phi, Return,
                      validate_program)
from repro.lang import lower_source
from repro.ssa import to_ssa
from tests.ssa.reference_ssa import (DominatorTree, differences,
                                     reference_to_ssa)

VARS = ["a", "b", "c"]


@st.composite
def statements(draw, depth=0):
    n = draw(st.integers(min_value=1, max_value=3))
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["assign", "assign", "if", "while", "try"] if depth < 2
            else ["assign"]))
        if kind == "assign":
            lhs = draw(st.sampled_from(VARS))
            rhs = draw(st.sampled_from(VARS + ["1", "2"]))
            out.append(f"{lhs} = {rhs};")
        elif kind == "if":
            cond = draw(st.sampled_from(VARS))
            then = draw(statements(depth + 1))
            els = draw(statements(depth + 1))
            out.append(
                f"if ({cond} > 0) {{ {' '.join(then)} }} "
                f"else {{ {' '.join(els)} }}")
        elif kind == "while":
            cond = draw(st.sampled_from(VARS))
            body = draw(statements(depth + 1))
            out.append(f"while ({cond} > 0) {{ {' '.join(body)} }}")
        else:
            body = draw(statements(depth + 1))
            handler = draw(statements(depth + 1))
            out.append(f"try {{ {' '.join(body)} }} "
                       f"catch (Exception ex) {{ {' '.join(handler)} }}")
    return out


def source_of(stmts):
    return f"""
library class Object {{ }}
library class Exception {{ }}
class C {{
  static int m(int a, int b, int c) {{
    {" ".join(stmts)}
    return a;
  }}
}}"""


def build(stmts):
    program = lower_source(source_of(stmts))
    method = program.lookup_method("C.m/3")
    info = to_ssa(method)
    validate_program(program)
    return program, method, info


@given(statements())
@settings(max_examples=60, deadline=None)
def test_single_assignment(stmts):
    _, method, _ = build(stmts)
    defs = []
    for instr in method.instructions():
        defs.extend(instr.defs())
    assert len(defs) == len(set(defs))


@given(statements())
@settings(max_examples=60, deadline=None)
def test_every_use_has_a_def_or_is_entry(stmts):
    _, method, _ = build(stmts)
    defined = {"a", "b", "c"}
    for instr in method.instructions():
        defined.update(instr.defs())
    for instr in method.instructions():
        for use in instr.uses():
            assert use in defined or use.endswith(".0"), use


@given(statements())
@settings(max_examples=40, deadline=None)
def test_non_phi_defs_dominate_uses(stmts):
    _, method, _ = build(stmts)
    dom = DominatorTree(method)
    def_block = {}
    for bid, block in method.blocks.items():
        for instr in block.instrs:
            for var in instr.defs():
                def_block[var] = bid
    for bid, block in method.blocks.items():
        for instr in block.instrs:
            if isinstance(instr, Phi):
                # Phi operands must be defined in (a dominator of) the
                # corresponding predecessor.
                for pred, var in instr.operands.items():
                    if var in def_block:
                        assert dom.dominates(def_block[var], pred)
            else:
                for use in instr.uses():
                    if use in def_block:
                        assert dom.dominates(def_block[use], bid)


@given(statements())
@settings(max_examples=40, deadline=None)
def test_phi_operand_count_matches_preds(stmts):
    _, method, _ = build(stmts)
    for bid, block in method.blocks.items():
        for instr in block.instrs:
            if isinstance(instr, Phi):
                assert set(instr.operands) == set(block.preds)


@given(statements())
@settings(max_examples=60, deadline=None)
def test_nests_match_reference(stmts):
    method = lower_source(source_of(stmts)).lookup_method("C.m/3")
    ref = copy.deepcopy(method)
    info = to_ssa(method)
    assert differences(method, info, ref, reference_to_ssa(ref)) == []


# Straight-line bodies, built as IR so a use can come before any def:
# ``a``/``b`` are parameters, ``this`` is the receiver, and ``c``/``d``
# are locals nothing defines until the body assigns them.
LOCALS = ["a", "b", "c", "d"]
reads = st.sampled_from(LOCALS + ["this"])


@st.composite
def straight_line(draw):
    method = Method("C", "m", [Param("a", INT), Param("b", INT)])
    block = method.new_block()
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        lhs = draw(st.sampled_from(LOCALS))
        kind = draw(st.sampled_from(["copy", "add", "call"]))
        if kind == "copy":
            instr = Assign(lhs, draw(reads))
        elif kind == "add":
            instr = BinOp(lhs, "+", draw(reads), draw(reads))
        else:
            instr = Call(lhs, "virtual", "C", "id", "this", [draw(reads)])
        method.append(block, instr)
    method.append(block, Return(draw(reads)))
    method.finish()
    return method


@given(straight_line())
@settings(max_examples=60, deadline=None)
def test_straight_line_matches_reference(method):
    ref = copy.deepcopy(method)
    info = to_ssa(method)
    assert differences(method, info, ref, reference_to_ssa(ref)) == []
