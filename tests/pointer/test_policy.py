"""Context-policy tests (paper §3.1)."""

from repro.ir import Call, Method, Param, STRING
from repro.pointer import (CallSiteContext, ContextPolicy, EMPTY, KeyTable,
                           ObjContext, PolicyConfig)

# The policies below decide over this table, so the receivers and the
# contexts they return share one key space.
TABLE = KeyTable()


def make_method(cls, name, static=False):
    return Method(cls, name, [Param("p", STRING)], is_static=static)


def make_call(iid=7):
    call = Call("r", "virtual", "", "m", "recv", ["a"])
    call.iid = iid
    return call


def receiver(cls="C"):
    return TABLE.instance_key(TABLE.alloc_site("Main.main/0", 0, cls))


def make_policy(**kwargs):
    config = PolicyConfig(collection_classes={"HashMap"},
                          factory_methods={"F.build"},
                          taint_api_methods={"Req.getParameter"})
    for key, value in kwargs.items():
        setattr(config, key, value)
    return ContextPolicy(config, ctx=TABLE)


def test_default_instance_method_gets_object_context():
    policy = make_policy()
    ctx = policy.callee_context("Main.main/0", EMPTY, make_call(),
                                make_method("C", "m"), receiver())
    assert isinstance(ctx, ObjContext)
    assert ctx.receiver == receiver()


def test_static_method_is_context_insensitive():
    policy = make_policy()
    ctx = policy.callee_context("Main.main/0", EMPTY, make_call(),
                                make_method("C", "m", static=True), None)
    assert ctx is EMPTY


def test_taint_api_gets_call_site_context():
    policy = make_policy()
    ctx = policy.callee_context("Main.main/0", EMPTY, make_call(9),
                                make_method("Req", "getParameter"),
                                receiver("Req"))
    assert ctx == TABLE.call_site_context("Main.main/0", 9)


def test_factory_by_registry():
    policy = make_policy()
    ctx = policy.callee_context("Main.main/0", EMPTY, make_call(3),
                                make_method("F", "build", static=True),
                                None)
    assert isinstance(ctx, CallSiteContext)


def test_factory_by_name_prefix():
    policy = make_policy()
    for name in ("create", "createWidget", "makeThing"):
        ctx = policy.callee_context(
            "Main.main/0", EMPTY, make_call(3),
            make_method("Anything", name, static=True), None)
        assert isinstance(ctx, CallSiteContext), name


def test_collection_gets_deep_object_context():
    policy = make_policy()
    ctx = policy.callee_context("Main.main/0", EMPTY, make_call(),
                                make_method("HashMap", "put"),
                                receiver("HashMap"))
    assert isinstance(ctx, ObjContext)


def test_insensitive_config_disables_everything():
    policy = ContextPolicy(PolicyConfig.insensitive(), ctx=TABLE)
    assert policy.callee_context(
        "Main.main/0", EMPTY, make_call(),
        make_method("C", "m"), receiver()) is EMPTY
    assert policy.callee_context(
        "Main.main/0", EMPTY, make_call(),
        make_method("Anything", "create", static=True), None) is EMPTY


def test_heap_context_for_collections_clones_per_instance():
    policy = make_policy()
    ctx = TABLE.obj_context(receiver("HashMap"))
    heap = policy.heap_context(make_method("HashMap", "put"), ctx)
    assert heap == ctx


def test_heap_context_for_ordinary_methods_is_empty():
    policy = make_policy()
    ctx = TABLE.obj_context(receiver())
    assert policy.heap_context(make_method("C", "m"), ctx) is EMPTY


def test_heap_context_for_factory_contexts_is_the_call_site():
    policy = make_policy()
    ctx = TABLE.call_site_context("Main.main/0", 3)
    assert policy.heap_context(make_method("F", "build"), ctx) == ctx
