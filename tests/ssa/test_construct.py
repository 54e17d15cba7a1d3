"""SSA construction tests."""

from repro.ir import Phi
from repro.ssa import to_ssa
from tests.conftest import lower_mini
from tests.ssa.reference_ssa import reference_to_ssa


def ssa_method(source, qname="C.m/1"):
    program = lower_mini(source)
    method = program.lookup_method(qname)
    info = to_ssa(method)
    return method, info


def all_defs(method):
    out = []
    for instr in method.instructions():
        out.extend(instr.defs())
    return out


def test_single_assignment_property():
    method, _ = ssa_method("""
class C {
  int m(int p) {
    int x = 1;
    x = x + 1;
    if (p > 0) { x = 5; }
    return x;
  }
}""")
    defs = all_defs(method)
    assert len(defs) == len(set(defs)), "each SSA var defined once"


def test_uses_refer_to_existing_defs_or_entry():
    method, _ = ssa_method("""
class C {
  int m(int p) {
    int x = p;
    while (x < 10) { x = x + 1; }
    return x;
  }
}""")
    defs = set(all_defs(method)) | {"p", "this"}
    for instr in method.instructions():
        for use in instr.uses():
            assert use in defs or use.endswith(".0"), use


def test_phi_placed_at_join():
    method, _ = ssa_method("""
class C {
  int m(int p) {
    int x = 0;
    if (p > 0) { x = 1; } else { x = 2; }
    return x;
  }
}""")
    phis = [i for i in method.instructions() if isinstance(i, Phi)]
    x_phis = [p for p in phis if p.lhs.startswith("x.")]
    assert len(x_phis) == 1
    assert len(x_phis[0].operands) == 2


def test_phi_operands_keyed_by_predecessor():
    method, _ = ssa_method("""
class C {
  int m(int p) {
    int x = 0;
    if (p > 0) { x = 1; } else { x = 2; }
    return x;
  }
}""")
    phi = next(i for i in method.instructions()
               if isinstance(i, Phi) and i.lhs.startswith("x."))
    for pred in phi.operands:
        assert pred in method.blocks
    # The two operands are distinct versions of x.
    assert len(set(phi.operands.values())) == 2


def test_loop_variable_gets_phi():
    method, _ = ssa_method("""
class C {
  int m(int p) {
    int i = 0;
    while (i < p) { i = i + 1; }
    return i;
  }
}""")
    phis = [i for i in method.instructions()
            if isinstance(i, Phi) and i.lhs.startswith("i.")]
    assert len(phis) == 1


def test_params_keep_their_names():
    method, info = ssa_method("""
class C {
  int m(int p) { return p; }
}""")
    uses = {u for instr in method.instructions() for u in instr.uses()}
    assert "p" in uses


def test_dead_phis_pruned():
    method, _ = ssa_method("""
class C {
  int m(int p) {
    int unused = 0;
    if (p > 0) { unused = 1; } else { unused = 2; }
    return p;
  }
}""")
    phis = [i for i in method.instructions() if isinstance(i, Phi)]
    assert not any(p.lhs.startswith("unused.") for p in phis)


def test_def_use_info_is_consistent():
    method, info = ssa_method("""
class C {
  int m(int p) {
    int x = p + 1;
    int y = x + 2;
    return y;
  }
}""")
    for var, users in info.uses.items():
        for user in users:
            assert var in user.uses()
    for var, site in info.def_site.items():
        assert var in site.defs()


def test_native_method_untouched():
    program = lower_mini("class C { native void m(); }")
    method = program.lookup_method("C.m/0")
    info = to_ssa(method)
    assert not info.def_site


def test_straightline_code_needs_no_phi():
    method, _ = ssa_method("""
class C {
  int m(int p) {
    int a = p;
    int b = a + 1;
    return b;
  }
}""")
    assert not any(isinstance(i, Phi) for i in method.instructions())


def test_nested_loops():
    method, _ = ssa_method("""
class C {
  int m(int p) {
    int total = 0;
    for (int i = 0; i < p; i++) {
      for (int j = 0; j < i; j++) {
        total = total + j;
      }
    }
    return total;
  }
}""")
    defs = all_defs(method)
    assert len(defs) == len(set(defs))
    phis = [i for i in method.instructions()
            if isinstance(i, Phi) and i.lhs.startswith("total.")]
    assert len(phis) >= 2  # one per loop header


def test_branch_temporary_in_loop_gets_no_phi():
    """The shape of the model library's ``HashMap.get``: the temporary
    of ``out = e.val`` is assigned in one branch of a loop body and never
    read past it.  No use asks for it at a join, so it gets no phi (the
    Cytron-style reference keeps a dead cycle of two phis for it)."""
    source = """
class Entry { Object val; Entry next; }
class C {
  Object m(Entry e) {
    Object out = null;
    while (e != null) {
      if (e.val != null) { out = e.val; }
      e = e.next;
    }
    return out;
  }
}"""
    method, _ = ssa_method(source)
    phis = sorted(i.lhs.rpartition(".")[0] for i in method.instructions()
                  if isinstance(i, Phi))
    assert phis == ["e", "out", "out"]  # loop header: e, out; if join: out

    ref = lower_mini(source).lookup_method("C.m/1")
    reference_to_ssa(ref)
    ref_phis = [i for i in ref.instructions() if isinstance(i, Phi)]
    assert sum(i.lhs.startswith("%t") for i in ref_phis) == 2
