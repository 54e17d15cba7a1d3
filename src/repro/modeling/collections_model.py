"""Constant-key dictionary modeling (paper §4.2.1).

Web applications overwhelmingly access hash structures with keys that
resolve to compile-time constants.  TAJ exploits this: a ``put``/``get``
(or ``setAttribute``/``getAttribute``) whose key is a constant becomes a
synthetic field access on the dictionary object itself:

    m.put("fName", t1)      =>   m.@key:fName = t1
    m.get("fName")          =>   load of m.@key:fName (+ the wildcard)

Accesses with unresolvable keys use the wildcard field ``@key:?``; a
read additionally selects among every constant key observed for the same
dictionary kind, preserving soundness:

* constant put  -> writes ``@key:k``
* wildcard put  -> writes ``@key:?``
* constant get  -> reads ``@key:k`` and ``@key:?``
* wildcard get  -> reads every known ``@key:*`` and ``@key:?``

Runs after SSA construction (it needs constant propagation); the
replacement instructions keep SSA form (fresh single-assignment temps).
When disabled (ablation), dictionary traffic flows through the real
collection bodies in the model library instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir import Call, Const, Instruction, Load, Method, Select, Store
from ..ssa import ConstantValues
from .stdlib import DICT_CLASSES

_PUT_NAMES = {"put": 2, "setAttribute": 2}
_GET_NAMES = {"get": 1, "getAttribute": 1}

WILDCARD = "?"


def _dict_kind(recv_type: str) -> str:
    """Dictionary kind for key-universe grouping."""
    return "session" if recv_type == "HttpSession" else "map"


def access_kind(method: Method, instr: Instruction) -> Optional[str]:
    """If ``instr`` is a dictionary access, return its kind."""
    if not isinstance(instr, Call) or instr.kind != "virtual" or \
            not instr.receiver:
        return None
    recv_type = method.type_of(instr.receiver)
    if recv_type not in DICT_CLASSES:
        return None
    if instr.method_name in _PUT_NAMES and \
            instr.arity == _PUT_NAMES[instr.method_name]:
        return _dict_kind(recv_type)
    if instr.method_name in _GET_NAMES and \
            instr.arity == _GET_NAMES[instr.method_name]:
        return _dict_kind(recv_type)
    return None


class DictionaryModel:
    """Two-pass constant-key rewriter over a whole program."""

    def __init__(self) -> None:
        # dictionary kind -> constant keys observed anywhere.
        self.keys_by_kind: Dict[str, Set[str]] = {}
        self.rewritten = 0

    # -- pass 1: collect the constant-key universe -------------------------

    def collect(self, method: Method, constants: ConstantValues) -> None:
        if method.is_native:
            return
        for instr in method.instructions():
            kind = access_kind(method, instr)
            if kind is None:
                continue
            key = constants.string_constant_of(instr.args[0])
            if key is not None:
                self.keys_by_kind.setdefault(kind, set()).add(key)

    # -- pass 2: rewrite ------------------------------------------------------

    def rewrite(self, method: Method, constants: ConstantValues) -> int:
        """Rewrite ``method``'s dictionary accesses; only the blocks that
        hold one get a new instruction list."""
        if method.is_native:
            return 0
        count = 0
        for block in method.blocks.values():
            before = count
            out: List[Instruction] = []
            for instr in block.instrs:
                kind = access_kind(method, instr)
                if kind is None:
                    out.append(instr)
                    continue
                assert isinstance(instr, Call)
                key = constants.string_constant_of(instr.args[0])
                if instr.method_name in _PUT_NAMES:
                    out.extend(self._lower_put(method, instr, key))
                else:
                    out.extend(self._lower_get(method, instr, key, kind))
                count += 1
            if count != before:
                block.instrs = out
        self.rewritten += count
        return count

    def _lower_put(self, method: Method, call: Call,
                   key: Optional[str]) -> List[Instruction]:
        fld = f"@key:{key if key is not None else WILDCARD}"
        store = Store(call.receiver, fld, call.args[1])
        store.iid = call.iid
        store.line = call.line
        instrs: List[Instruction] = [store]
        if call.lhs:
            # ``put`` returns the previous value; model as null.
            const = Const(call.lhs, None)
            const.iid = method.fresh_iid()
            const.line = call.line
            instrs.append(const)
        return instrs

    def _lower_get(self, method: Method, call: Call, key: Optional[str],
                   kind: str) -> List[Instruction]:
        if key is not None:
            fields = [f"@key:{key}", f"@key:{WILDCARD}"]
        else:
            known = sorted(self.keys_by_kind.get(kind, ()))
            fields = [f"@key:{k}" for k in known] + [f"@key:{WILDCARD}"]
        if not call.lhs:
            return []
        instrs: List[Instruction] = []
        temps: List[str] = []
        for idx, fld in enumerate(fields):
            tmp = f"%dk{call.iid}_{idx}"
            load = Load(tmp, call.receiver, fld)
            load.iid = call.iid if idx == 0 else method.fresh_iid()
            load.line = call.line
            instrs.append(load)
            temps.append(tmp)
        select = Select(call.lhs, temps)
        select.iid = method.fresh_iid()
        select.line = call.line
        instrs.append(select)
        return instrs


def rewrite_methods(methods: List[Method],
                    constants_by_method: Dict[str, ConstantValues]) -> int:
    """Run both passes over the ``methods`` with available constants;
    the key universe is collected from the same methods."""
    model = DictionaryModel()
    pairs = [(method, constants_by_method[method.qname])
             for method in methods if method.qname in constants_by_method]
    for method, constants in pairs:
        model.collect(method, constants)
    for method, constants in pairs:
        model.rewrite(method, constants)
    return model.rewritten
