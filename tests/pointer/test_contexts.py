"""Context and key representation tests."""

from repro.pointer import EMPTY, KeyTable

TABLE = KeyTable()


def ikey(name="C", ctx=EMPTY, iid=0):
    return TABLE.instance_key(TABLE.alloc_site("M.m/0", iid, name), ctx)


def test_empty_context_depth():
    assert EMPTY.depth() == 0


def test_call_site_context():
    ctx = TABLE.call_site_context("C.m/0", 5)
    assert ctx.depth() == 1
    assert ctx == TABLE.call_site_context("C.m/0", 5)
    assert ctx != TABLE.call_site_context("C.m/0", 6)


def test_obj_context_depth_nests():
    inner = ikey("A")
    mid = ikey("B", TABLE.obj_context(inner))
    outer = TABLE.obj_context(mid)
    assert outer.depth() == 2


def test_truncate_keeps_shallow_contexts():
    ctx = TABLE.obj_context(ikey())
    assert TABLE.truncate(ctx, 3) is ctx


def test_truncate_collapses_deep_contexts():
    ctx = EMPTY
    for i in range(10):
        ctx = TABLE.obj_context(ikey("C", ctx, i))
    out = TABLE.truncate(ctx, 3)
    assert out.depth() <= 3


def test_instance_key_identity():
    a = ikey("C")
    b = ikey("C")
    assert a is b
    assert ikey("C", TABLE.obj_context(ikey("D"))) != a


def test_instance_key_class_name():
    assert ikey("Foo").class_name == "Foo"


def test_pointer_keys_are_hashable_and_distinct():
    keys = {
        TABLE.local("C.m/0", EMPTY, "x"),
        TABLE.local("C.m/0", EMPTY, "y"),
        TABLE.field(ikey(), "f"),
        TABLE.static_field("C", "g"),
        TABLE.ret("C.m/0", EMPTY),
    }
    assert len(keys) == 5


def test_local_keys_distinguish_contexts():
    c1 = TABLE.call_site_context("A.a/0", 1)
    c2 = TABLE.call_site_context("A.a/0", 2)
    assert TABLE.local("C.m/0", c1, "x") != TABLE.local("C.m/0", c2, "x")
