"""Synthetic pointer summaries for native library methods (paper §4.2.3).

Native methods have no analyzable body; each registered handler applies
the method's taint-relevant pointer behaviour directly to the solver
state.  "Failure to analyze these methods would render the analysis
useless" — the classic examples the paper names, ``Thread.start`` and
``AccessController.doPrivileged``, are both modeled here by dispatching
to the appropriate ``run`` method.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..callgraph.graph import CGNode
from ..ir import Call, Method
from ..pointer.keys import InstanceKey
from ..ir import ARRAY_CONTENTS

Handler = Callable[["object", CGNode, Call, Method,
                    Optional[InstanceKey]], None]


class NativeSummaries:
    """Registry mapping native method display names to handlers."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Handler] = {}

    def register(self, display: str, handler: Handler) -> None:
        self._handlers[display] = handler

    def apply(self, solver, caller: CGNode, call: Call, callee: Method,
              receiver: Optional[InstanceKey]) -> None:
        handler = self._handlers.get(callee.display_name)
        if handler is not None:
            handler(solver, caller, call, callee, receiver)

    def handles(self, display: str) -> bool:
        return display in self._handlers


# -- handler factories ---------------------------------------------------------
#
# Handlers build pointer keys through the solver's key factories
# (``make_alloc`` / ``make_local`` / ``make_field``) rather than the key
# classes directly: the seed solver kept as a test oracle
# (``tests/pointer/reference_solver.py``) uses its own key family, and
# each solver's tables must only ever hold its own.

def returns_new(class_name: str) -> Handler:
    """Return a fresh object allocated at the call site."""

    def handler(solver, caller, call, callee, receiver) -> None:
        if not call.lhs:
            return
        ikey = solver.make_alloc(caller.method, call.iid, class_name)
        solver.add_pts(
            solver.make_local(caller.method, caller.context, call.lhs),
            {ikey})

    return handler


def returns_new_array_of(elem_class: str) -> Handler:
    """Return a fresh array containing one fresh element object."""

    def handler(solver, caller, call, callee, receiver) -> None:
        if not call.lhs:
            return
        arr = solver.make_alloc(caller.method, call.iid, f"{elem_class}[]")
        elem = solver.make_alloc(caller.method, call.iid, elem_class)
        solver.add_pts(
            solver.make_local(caller.method, caller.context, call.lhs),
            {arr})
        solver.add_pts(solver.make_field(arr, ARRAY_CONTENTS), {elem})

    return handler


def returns_arg(index: int) -> Handler:
    """Return the ``index``-th argument unchanged (e.g. ``narrow``)."""

    def handler(solver, caller, call, callee, receiver) -> None:
        if not call.lhs or index >= len(call.args):
            return
        make_local = solver.make_local
        solver.add_copy_edge(
            make_local(caller.method, caller.context, call.args[index]),
            make_local(caller.method, caller.context, call.lhs))

    return handler


def dispatches_run_on_receiver() -> Handler:
    """``Thread.start`` → virtual dispatch to ``receiver.run()``."""

    def handler(solver, caller, call, callee, receiver) -> None:
        if receiver is None:
            return
        target = solver.hierarchy.dispatch(receiver.class_name, "run", 0)
        if target is None:
            return
        synthetic = Call(None, "virtual", "", "run", call.receiver, [])
        synthetic.iid = call.iid
        solver._bind_call(caller, synthetic, target, receiver)

    return handler


def dispatches_run_on_arg(index: int) -> Handler:
    """``AccessController.doPrivileged(a)`` → dispatch to ``a.run()``."""

    def handler(solver, caller, call, callee, receiver) -> None:
        if index >= len(call.args):
            return
        arg_key = solver.make_local(caller.method, caller.context,
                                    call.args[index])
        synthetic = Call(call.lhs, "virtual", "", "run",
                         call.args[index], [])
        synthetic.iid = call.iid
        # Register a watcher so late-arriving points-to facts dispatch too.
        solver.register_call_watch(arg_key, caller, synthetic)

    return handler


def default_natives() -> NativeSummaries:
    """The standard registry for the modeled library."""
    natives = NativeSummaries()
    natives.register("HttpServletRequest.getSession",
                     returns_new("HttpSession"))
    natives.register("HttpServletRequest.getCookies",
                     returns_new_array_of("Cookie"))
    natives.register("HttpServletRequest.getReader",
                     returns_new("BufferedReader"))
    natives.register("DriverManager.getConnection",
                     returns_new("Connection"))
    natives.register("Connection.createStatement", returns_new("Statement"))
    natives.register("Connection.prepareStatement",
                     returns_new("PreparedStatement"))
    natives.register("Statement.executeQuery", returns_new("ResultSet"))
    natives.register("PreparedStatement.executeQuery",
                     returns_new("ResultSet"))
    natives.register("Runtime.getRuntime", returns_new("Runtime"))
    natives.register("Runtime.exec", returns_new("Process"))
    natives.register("PortableRemoteObject.narrow", returns_arg(0))
    natives.register("Thread.start", dispatches_run_on_receiver())
    natives.register("AccessController.doPrivileged",
                     dispatches_run_on_arg(0))
    # Unresolved reflection falls back to opaque objects; the reflection
    # model pass (§4.2.3) rewrites the resolvable cases before analysis.
    natives.register("Class.forName", returns_new("Class"))
    natives.register("Class.getMethods", returns_new_array_of("Method"))
    natives.register("Class.getMethod", returns_new("Method"))
    return natives
