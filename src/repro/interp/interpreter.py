"""A concrete interpreter for jlang programs with dynamic taint tags.

This is the *dynamic* counterpart of the static analysis: it executes
the program's entrypoints for real (reflection included), tags strings
returned by sources with labels, strips them at sanitizers, and records
an event whenever a sink receives a tainted value — either directly or
through its object state (the dynamic analogue of taint carriers).

It is used by the test suite and benchmarks to *validate ground truth*:
a planted true-positive flow should be dynamically confirmable, while a
sanitized flow never produces a tainted sink event.

Scope/simplifications (documented, deliberate):

* programs are executed on the unmodeled IR (only entrypoint synthesis
  applied), so the real model-library bodies (HashMap & co.) run;
* loops are bounded by a fuel counter; exhausting fuel aborts the
  entrypoint (reported, not an error);
* ``throw`` aborts the current entrypoint; catch blocks are reachable
  via *fault-injection mode*, which takes the synthetic
  exception-dispatch edges and materializes a caught exception whose
  message carries an ``exc:`` label (mirroring TAJ's §4.1.2 model);
* ``==`` compares ``JString`` by value (interned-literal semantics) and
  everything else by identity;
* ``Thread.start`` runs the target inline (a sequential schedule).
"""

from __future__ import annotations

import sys

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir import (ArrayLoad, ArrayStore, Assign, BinOp, Call, Cast,
                  ClassHierarchy, Const, EnterCatch, Goto, If, Load,
                  Method, New, NewArray, Phi, Program, Return, Select,
                  StaticLoad, StaticStore, Store, StringOp, Throw, UnOp)
from ..lang.lower import EXC_DISPATCH
from .values import (FALSE, JArray, JClass, JHome, JInt, JMethod, JObject,
                     JString, NO_TAINT, NULL, TRUE, deep_taint, taint_of)


class Fuel(Exception):
    """Raised when an entrypoint exceeds its step budget."""


class Halt(Exception):
    """Raised by ``throw`` — aborts the current entrypoint."""


@dataclass
class SinkEvent:
    """A sink invocation observed at run time."""

    method: str               # qname of the method containing the call
    iid: int
    display: str              # e.g. "PrintWriter.println"
    direct_taint: FrozenSet[str]
    state_taint: FrozenSet[str]   # via object state (carrier semantics)

    @property
    def tainted(self) -> bool:
        return bool(self.direct_taint or self.state_taint)

    @property
    def all_taint(self) -> FrozenSet[str]:
        return self.direct_taint | self.state_taint


@dataclass
class RunResult:
    """Everything one interpreter run produced."""

    events: List[SinkEvent] = field(default_factory=list)
    aborted_entrypoints: List[str] = field(default_factory=list)
    # The subset of aborts caused by step-budget exhaustion (Fuel), as
    # opposed to ``throw`` reaching the entrypoint frame (Halt).  The
    # replay oracle treats these as "inconclusive", not "refuted".
    fuel_exhausted: List[str] = field(default_factory=list)
    steps: int = 0
    # Every method body the run entered (qnames) — the coverage record
    # the replay oracle (repro.confirm) uses to distinguish "refuted"
    # (sink reached, stayed clean) from "inconclusive" (never reached).
    entered_methods: Set[str] = field(default_factory=set)

    def tainted_events(self) -> List[SinkEvent]:
        return [e for e in self.events if e.tainted]


# Sink displays the interpreter records (mirrors the default rule set).
SINK_DISPLAYS = {
    "PrintWriter.println", "PrintWriter.print", "PrintWriter.write",
    "JspWriter.print", "JspWriter.println",
    "Statement.executeQuery", "Statement.executeUpdate",
    "Statement.execute", "Connection.prepareStatement",
    "Runtime.exec", "HttpServletResponse.sendRedirect",
    "HttpServletResponse.addHeader",
}
# Constructor sinks: recorded, then the real body (if any) still runs.
CTOR_SINKS = {"File", "FileReader", "FileWriter", "FileInputStream"}

# Python frames needed per app-level call comfortably fit this budget
# even for the deepest scaled-corpus call chains (fuel bounds total
# steps, so depth cannot exceed the fuel limit anyway).
_RECURSION_LIMIT = 100_000

SANITIZER_DISPLAYS = {
    "URLEncoder.encode", "Encoder.encodeForHTML",
    "StringEscapeUtils.escapeHtml", "StringEscapeUtils.escapeSql",
    "Codec.encodeForSQL", "FilenameUtils.normalize",
    "MessageSanitizer.scrub", "URLValidator.validate",
    "HeaderSanitizer.strip",
}

SOURCE_DISPLAYS = {
    "HttpServletRequest.getParameter": "src",
    "HttpServletRequest.getHeader": "src",
    "HttpServletRequest.getQueryString": "src",
    "HttpServletRequest.getRequestURI": "src",
    "Cookie.getValue": "src",
    "BufferedReader.readLine": "src",
    "TaintSupport.source": "src",
    "System.getProperty": "sys",
}


class Interpreter:
    """Executes a program's entrypoints with taint tracking.

    Partial instrumentation (paper-adjacent: arXiv 2411.19354 shows
    path-restricted dynamic taint suffices to triage candidate flows):
    ``source_methods`` / ``sink_methods`` restrict where taint labels
    are minted and where sink events are recorded to the methods on a
    candidate flow's witness chain.  ``None`` (the default) instruments
    everything — the legacy full-replay behaviour.  ``seed`` is mixed
    into every source payload so replays are deterministic functions of
    (program, seed, fault mode).
    """

    def __init__(self, program: Program, fuel: int = 200_000,
                 fault_injection: bool = False,
                 source_methods: Optional[FrozenSet[str]] = None,
                 sink_methods: Optional[FrozenSet[str]] = None,
                 seed: int = 0) -> None:
        self.program = program
        self.hierarchy = ClassHierarchy(program)
        self.fuel_limit = fuel
        self.fault_injection = fault_injection
        self.source_methods = source_methods
        self.sink_methods = sink_methods
        self.seed = seed
        self.statics: Dict[Tuple[str, str], object] = {}
        self.result = RunResult()
        self._fuel = 0

    def _instrument_source(self, method: Method) -> bool:
        """Should a source executing inside ``method`` mint a label?"""
        return self.source_methods is None or \
            method.qname in self.source_methods

    def _instrument_sink(self, method: Method) -> bool:
        """Should a sink call inside ``method`` record an event?"""
        return self.sink_methods is None or \
            method.qname in self.sink_methods

    def _payload(self, text: str) -> str:
        """The deterministic concrete value a source returns."""
        if self.seed:
            return f"<{text}#s{self.seed}>"
        return f"<{text}>"

    # -- public API ---------------------------------------------------------

    def run(self) -> RunResult:
        """Execute every entrypoint in order; shared static state."""
        # Scaled benchmark apps chain calls hundreds of frames deep and
        # each app-level call costs several Python frames.  CPython 3.11
        # inlines Python-to-Python calls, so raising the ceiling is safe
        # (no C stack growth); restore it when the run finishes.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, _RECURSION_LIMIT))
        try:
            for entry in self.program.entrypoints:
                method = self.program.lookup_method(entry)
                if method is None:
                    continue
                self._fuel = 0
                try:
                    self.call_method(method, None, [])
                except Fuel:
                    self.result.aborted_entrypoints.append(entry)
                    self.result.fuel_exhausted.append(entry)
                except (Halt, RecursionError):
                    self.result.aborted_entrypoints.append(entry)
        finally:
            sys.setrecursionlimit(limit)
        return self.result

    # -- helpers ------------------------------------------------------------------

    def _tick(self) -> None:
        self._fuel += 1
        self.result.steps += 1
        if self._fuel > self.fuel_limit:
            raise Fuel()

    def new_object(self, class_name: str) -> JObject:
        return JObject(class_name)

    def construct(self, class_name: str, args: List[object]) -> JObject:
        """Allocate and run the matching constructor if one exists."""
        obj = self.new_object(class_name)
        ctor = self.hierarchy.lookup_static(class_name, "<init>",
                                            len(args))
        if ctor is not None and not ctor.is_native:
            self.call_method(ctor, obj, args)
        return obj

    def record_sink(self, method: Method, call: Call, display: str,
                    args: List[object]) -> None:
        if not self._instrument_sink(method):
            return
        direct = NO_TAINT
        state = NO_TAINT
        for arg in args:
            direct |= taint_of(arg)
            if not isinstance(arg, JString):
                state |= deep_taint(arg)
        self.result.events.append(SinkEvent(
            method.qname, call.iid, display, direct, state))

    # -- dispatch --------------------------------------------------------------------

    def call_method(self, method: Method, receiver: Optional[object],
                    args: List[object]) -> object:
        if method.is_native:
            raise Halt()  # native without builtin: cannot execute
        self.result.entered_methods.add(method.qname)
        env: Dict[str, object] = {}
        if receiver is not None:
            env["this"] = receiver
        for param, arg in zip(method.param_names(), args):
            env[param] = arg
        return self._exec_blocks(method, env)

    def _exec_blocks(self, method: Method, env: Dict[str, object]) -> object:
        bid = method.entry_block
        prev = -1
        while True:
            block = method.blocks[bid]
            # Phis evaluate in parallel against the predecessor block.
            phis = [i for i in block.instrs if isinstance(i, Phi)]
            if phis:
                snapshot = {phi.lhs: env.get(phi.operands.get(prev, ""),
                                             NULL)
                            for phi in phis}
                env.update(snapshot)
            jump: Optional[int] = None
            for instr in block.instrs:
                if isinstance(instr, Phi):
                    continue
                self._tick()
                outcome = self._exec(method, instr, env)
                if outcome is not None:
                    kind, payload = outcome
                    if kind == "return":
                        return payload
                    if kind == "jump":
                        jump = payload
                        break
            if jump is None:
                return NULL
            prev, bid = bid, jump

    # -- instruction execution -----------------------------------------------------------

    def _exec(self, method: Method, instr, env: Dict[str, object]):
        if isinstance(instr, Const):
            env[instr.lhs] = self._const(instr.value)
        elif isinstance(instr, Assign):
            env[instr.lhs] = env.get(instr.rhs, NULL)
        elif isinstance(instr, Cast):
            env[instr.lhs] = env.get(instr.value, NULL)
        elif isinstance(instr, (Select,)):
            for arg in instr.args:
                if arg in env:
                    env[instr.lhs] = env[arg]
                    break
            else:
                env[instr.lhs] = NULL
        elif isinstance(instr, BinOp):
            env[instr.lhs] = self._binop(instr.op,
                                         env.get(instr.left, NULL),
                                         env.get(instr.right, NULL))
        elif isinstance(instr, UnOp):
            operand = env.get(instr.operand, NULL)
            if instr.op == "!":
                env[instr.lhs] = FALSE if operand.truthy() else TRUE
            elif isinstance(operand, JInt):
                env[instr.lhs] = JInt(-operand.value)
            else:
                env[instr.lhs] = NULL
        elif isinstance(instr, New):
            env[instr.lhs] = self.new_object(instr.class_name)
        elif isinstance(instr, NewArray):
            length = env.get(instr.length or "", JInt(0))
            size = length.value if isinstance(length, JInt) else 0
            env[instr.lhs] = JArray(size)
        elif isinstance(instr, Load):
            base = env.get(instr.base, NULL)
            env[instr.lhs] = base.fields.get(instr.fld, NULL) \
                if isinstance(base, JObject) else NULL
        elif isinstance(instr, Store):
            base = env.get(instr.base, NULL)
            if isinstance(base, JObject):
                base.fields[instr.fld] = env.get(instr.rhs, NULL)
        elif isinstance(instr, StaticLoad):
            env[instr.lhs] = self.statics.get(
                (instr.class_name, instr.fld), NULL)
        elif isinstance(instr, StaticStore):
            self.statics[(instr.class_name, instr.fld)] = \
                env.get(instr.rhs, NULL)
        elif isinstance(instr, ArrayLoad):
            base = env.get(instr.base, NULL)
            index = env.get(instr.index or "", JInt(0))
            idx = index.value if isinstance(index, JInt) else 0
            env[instr.lhs] = base.load(idx) if isinstance(base, JArray) \
                else NULL
        elif isinstance(instr, ArrayStore):
            base = env.get(instr.base, NULL)
            if isinstance(base, JArray):
                index = env.get(instr.index or "", None)
                value = env.get(instr.rhs, NULL)
                if isinstance(index, JInt):
                    base.store(index.value, value)
                else:
                    base.elements.append(value)
        elif isinstance(instr, StringOp):
            env[instr.lhs or "%void"] = self._stringop(instr, env)
        elif isinstance(instr, EnterCatch):
            env[instr.lhs] = self._caught_exception(method, instr)
        elif isinstance(instr, Call):
            value = self._call(method, instr, env)
            if instr.lhs:
                env[instr.lhs] = value
        elif isinstance(instr, Return):
            return ("return", env.get(instr.value, NULL)
                    if instr.value else NULL)
        elif isinstance(instr, Goto):
            return ("jump", instr.target)
        elif isinstance(instr, If):
            cond = env.get(instr.cond, NULL)
            if isinstance(cond, JString) and cond.value == EXC_DISPATCH:
                taken = instr.then_block if self.fault_injection \
                    else instr.else_block
            else:
                taken = instr.then_block if cond.truthy() \
                    else instr.else_block
            return ("jump", taken)
        elif isinstance(instr, Throw):
            raise Halt()
        return None

    def _const(self, value) -> object:
        if value is None:
            return NULL
        if isinstance(value, bool):
            return TRUE if value else FALSE
        if isinstance(value, int):
            return JInt(value)
        return JString(str(value))

    def _binop(self, op: str, left: object, right: object) -> object:
        if op == "+":
            if isinstance(left, JString) or isinstance(right, JString):
                ls = left if isinstance(left, JString) else \
                    JString(str(left))
                rs = right if isinstance(right, JString) else \
                    JString(str(right))
                return JString(ls.value + rs.value, ls.taint | rs.taint)
            if isinstance(left, JInt) and isinstance(right, JInt):
                return JInt(left.value + right.value)
            return NULL
        if isinstance(left, JInt) and isinstance(right, JInt):
            a, b = left.value, right.value
            if op == "-":
                return JInt(a - b)
            if op == "*":
                return JInt(a * b)
            if op == "/":
                return JInt(a // b) if b else JInt(0)
            if op == "%":
                return JInt(a % b) if b else JInt(0)
            if op in ("<", ">", "<=", ">="):
                table = {"<": a < b, ">": a > b, "<=": a <= b,
                         ">=": a >= b}
                return TRUE if table[op] else FALSE
        if op in ("==", "!="):
            eq = self._equals(left, right)
            return TRUE if (eq if op == "==" else not eq) else FALSE
        if op in ("&&", "||"):
            lt, rt = left.truthy(), right.truthy()
            return TRUE if (lt and rt if op == "&&" else lt or rt) \
                else FALSE
        return NULL

    @staticmethod
    def _equals(left: object, right: object) -> bool:
        if isinstance(left, JString) and isinstance(right, JString):
            return left.value == right.value
        if isinstance(left, JInt) and isinstance(right, JInt):
            return left.value == right.value
        if isinstance(left, JNullType) or isinstance(right, JNullType):
            return left is right
        return left is right

    def _stringop(self, instr: StringOp, env) -> object:
        # StringOps only appear when model passes ran; interpret them
        # with plain concat-all semantics so modeled programs stay
        # executable too.
        taint = NO_TAINT
        parts = []
        for arg in instr.args:
            value = env.get(arg, NULL)
            taint |= taint_of(value)
            parts.append(str(value))
        if instr.method in SANITIZER_DISPLAYS:
            taint = frozenset(f"{label}|san={instr.method}"
                              for label in taint)
        return JString("".join(parts), taint)

    def _caught_exception(self, method: Method, instr) -> JObject:
        exc = self.new_object(instr.exc_type)
        taint = NO_TAINT
        if self._instrument_source(method):
            taint = frozenset({f"exc:{method.qname}@{instr.iid}"})
        exc.fields["message"] = JString(
            f"internal error ({instr.exc_type})", taint)
        return exc

    # -- calls ----------------------------------------------------------------------

    def _call(self, method: Method, call: Call, env) -> object:
        args = [env.get(a, NULL) for a in call.args]
        receiver = env.get(call.receiver, NULL) if call.receiver else None

        target, display = self._resolve(call, receiver)
        if display is not None:
            builtin = self._builtin(method, call, display, receiver, args)
            if builtin is not NotImplemented:
                return builtin
        if target is None or target.is_native:
            return NULL
        self._tick()
        return self.call_method(target, receiver, args)

    def _resolve(self, call: Call, receiver) -> Tuple[Optional[Method],
                                                      Optional[str]]:
        if call.kind == "static":
            target = self.hierarchy.lookup_static(
                call.class_name, call.method_name, call.arity)
            display = f"{call.class_name}.{call.method_name}"
            return target, display
        # Reflective and EJB stand-in receivers dispatch specially.
        if isinstance(receiver, (JClass, JMethod, JHome)):
            return None, f"<meta>.{call.method_name}"
        # String values receive String-API calls directly.
        if isinstance(receiver, JString):
            return None, f"String.{call.method_name}"
        if isinstance(receiver, JObject):
            target = self.hierarchy.dispatch(
                receiver.class_name, call.method_name, call.arity)
            display = target.display_name if target else \
                f"?.{call.method_name}"
            return target, display
        if call.kind == "special" and isinstance(receiver, JObject):
            target = self.hierarchy.lookup_static(
                call.class_name, call.method_name, call.arity)
            return target, call.target_id()
        return None, None

    # -- builtins -----------------------------------------------------------------------

    def _builtin(self, method: Method, call: Call, display: str,
                 receiver, args) -> object:
        name = call.method_name
        # Sinks (recorded; flow continues).
        if display in SINK_DISPLAYS:
            self.record_sink(method, call, display, args)
            if name in ("executeQuery",):
                return self.new_object("ResultSet")
            return NULL
        if call.kind == "special" and name == "<init>" and \
                call.class_name in CTOR_SINKS:
            self.record_sink(method, call,
                             f"{call.class_name}.<init>", args)
            return NotImplemented  # the (empty) body still runs
        # Sources.
        kind = SOURCE_DISPLAYS.get(display)
        if kind is not None:
            seedtext = str(args[0]) if args else "input"
            taint = NO_TAINT
            if self._instrument_source(method):
                taint = frozenset({f"{kind}:{method.qname}@{call.iid}"})
            return JString(self._payload(seedtext), taint)
        # Sanitizers annotate labels (rule-specific judgement happens at
        # validation time).
        if display in SANITIZER_DISPLAYS:
            value = args[0] if args else NULL
            if isinstance(value, JString):
                return value.with_sanitizer(display)
            return value
        # String carriers (when the strings model did NOT run).
        if isinstance(receiver, JString):
            return self._string_method(name, receiver, args)
        if display == "String.valueOf" or display == "String.format":
            taint = NO_TAINT
            for arg in args:
                taint |= taint_of(arg)
            return JString("".join(str(a) for a in args), taint)
        if isinstance(receiver, JObject) and \
                receiver.class_name in ("StringBuilder", "StringBuffer"):
            return self._builder_method(name, receiver, args)
        if call.kind == "special" and name == "<init>" and \
                call.class_name in ("StringBuilder", "StringBuffer"):
            recv = receiver
            if isinstance(recv, JObject):
                recv.fields["__buf"] = args[0] if args and isinstance(
                    args[0], JString) else JString("")
            return NULL
        # Reflection.
        if display == "Class.forName":
            cname = str(args[0]) if args else ""
            return JClass(cname) if self.program.get_class(cname) \
                else NULL
        if isinstance(receiver, JClass):
            return self._class_method(name, receiver, args)
        if isinstance(receiver, JMethod):
            return self._method_method(method, name, receiver, args)
        # EJB.
        if display == "InitialContext.lookup":
            key = str(args[0]) if args else ""
            bean = self.program.deployment_descriptor.get(key)
            return JHome(bean) if bean else NULL
        if isinstance(receiver, JHome) and name == "create":
            return self.construct(receiver.bean_class, [])
        if display == "PortableRemoteObject.narrow":
            return args[0] if args else NULL
        # Threads / privileged actions: sequential schedule.
        if display == "Thread.start" and isinstance(receiver, JObject):
            run = self.hierarchy.dispatch(receiver.class_name, "run", 0)
            if run is not None and not run.is_native:
                self.call_method(run, receiver, [])
            return NULL
        if display == "AccessController.doPrivileged" and args:
            action = args[0]
            if isinstance(action, JObject):
                run = self.hierarchy.dispatch(action.class_name, "run", 0)
                if run is not None and not run.is_native:
                    return self.call_method(run, action, [])
            return NULL
        # Misc library natives.
        if display == "HttpServletRequest.getSession":
            return self.construct("HttpSession", [])
        if display == "HttpServletRequest.getCookies":
            arr = JArray(1)
            arr.store(0, self.new_object("Cookie"))
            return arr
        if display == "HttpServletRequest.getReader":
            return self.new_object("BufferedReader")
        if display == "DriverManager.getConnection":
            return self.new_object("Connection")
        if display in ("Connection.createStatement",
                       "Connection.prepareStatement"):
            if display.endswith("prepareStatement"):
                self.record_sink(method, call, display, args)
            return self.new_object("Statement")
        if display == "Runtime.getRuntime":
            return self.new_object("Runtime")
        if display == "RandomAccessFile.readFully" and args:
            buffer = args[0]
            if isinstance(buffer, JArray):
                taint = NO_TAINT
                if self._instrument_source(method):
                    taint = frozenset(
                        {f"src:{method.qname}@{call.iid}"})
                buffer.store(0, JString(self._payload("file data"),
                                        taint))
            return NULL
        if display == "Date.getDate":
            return JString("2009-06-15")
        if display == "Integer.toString":
            return JString(str(args[0]) if args else "0")
        if display == "Integer.parseInt":
            try:
                return JInt(int(str(args[0])))
            except (TypeError, ValueError):
                return JInt(0)
        if display == "Math.random":
            return JInt(4)  # chosen by fair dice roll
        if display == "Exception.printStackTrace":
            return NULL
        if display == "PrintWriter.flush" or name == "close":
            return NULL
        if display == "HttpServletResponse.sendError":
            self.record_sink(method, call,
                             "HttpServletResponse.sendError", args)
            return NULL
        return NotImplemented

    def _string_method(self, name: str, receiver: JString,
                       args) -> object:
        taint = receiver.taint
        value = receiver.value
        if name == "concat" and args:
            other = args[0]
            otaint = taint_of(other)
            return JString(value + str(other), taint | otaint)
        if name in ("trim",):
            return JString(value.strip(), taint)
        if name == "toUpperCase":
            return JString(value.upper(), taint)
        if name == "toLowerCase":
            return JString(value.lower(), taint)
        if name == "substring":
            return JString(value, taint)
        if name == "replace" and len(args) == 2:
            return JString(value.replace(str(args[0]), str(args[1])),
                           taint)
        if name in ("toString", "intern"):
            return receiver
        if name == "equals" and args:
            return TRUE if str(args[0]) == value else FALSE
        if name == "equalsIgnoreCase" and args:
            return TRUE if str(args[0]).lower() == value.lower() \
                else FALSE
        if name == "startsWith" and args:
            return TRUE if value.startswith(str(args[0])) else FALSE
        if name == "endsWith" and args:
            return TRUE if value.endswith(str(args[0])) else FALSE
        if name == "contains" and args:
            return TRUE if str(args[0]) in value else FALSE
        if name == "length":
            return JInt(len(value))
        if name == "indexOf" and args:
            return JInt(value.find(str(args[0])))
        return NULL

    def _builder_method(self, name: str, receiver: JObject,
                        args) -> object:
        buf = receiver.fields.get("__buf")
        if not isinstance(buf, JString):
            buf = JString("")
        if name == "append" and args:
            other = args[0]
            buf = JString(buf.value + str(other),
                          buf.taint | taint_of(other) | deep_taint(other))
            receiver.fields["__buf"] = buf
            return receiver
        if name == "insert" and len(args) == 2:
            other = args[1]
            buf = JString(str(other) + buf.value,
                          buf.taint | taint_of(other))
            receiver.fields["__buf"] = buf
            return receiver
        if name == "toString":
            return buf
        if name == "length":
            return JInt(len(buf.value))
        return NULL

    def _class_method(self, name: str, receiver: JClass, args) -> object:
        cls = self.program.get_class(receiver.class_name)
        if cls is None:
            return NULL
        if name == "getMethods":
            arr = JArray(0)
            for (mname, _arity), _m in sorted(cls.methods.items()):
                if mname != "<init>":
                    arr.elements.append(JMethod(receiver.class_name,
                                                mname))
            return arr
        if name == "getMethod" and args:
            return JMethod(receiver.class_name, str(args[0]))
        if name == "newInstance":
            return self.construct(receiver.class_name, [])
        return NULL

    def _method_method(self, caller: Method, name: str,
                       receiver: JMethod, args) -> object:
        if name == "getName":
            return JString(receiver.method_name)
        if name == "invoke" and len(args) == 2:
            target_recv, arg_array = args
            actuals = list(arg_array.elements) \
                if isinstance(arg_array, JArray) else []
            if isinstance(target_recv, JObject):
                target = self.hierarchy.dispatch(
                    target_recv.class_name, receiver.method_name,
                    len(actuals))
                if target is not None and not target.is_native:
                    return self.call_method(target, target_recv, actuals)
            return NULL
        return NULL


# JNull type alias used in _equals (import-order friendly).
JNullType = type(NULL)


def execute(program: Program, fuel: int = 200_000,
            fault_injection: bool = False,
            source_methods: Optional[FrozenSet[str]] = None,
            sink_methods: Optional[FrozenSet[str]] = None,
            seed: int = 0) -> RunResult:
    """Run every entrypoint of an (unmodeled) program."""
    return Interpreter(program, fuel=fuel,
                       fault_injection=fault_injection,
                       source_methods=source_methods,
                       sink_methods=sink_methods, seed=seed).run()
