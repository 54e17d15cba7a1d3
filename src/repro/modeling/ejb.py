"""EJB remote-invocation modeling (paper §4.2.2).

Resolving ``home.create()``/``obj.m2()`` through a real Java EE container
would require analyzing thousands of container methods.  TAJ instead
consults the deployment descriptor and generates an *analyzable artifact*
whose semantics stand in for the container: the JNDI lookup returns an
artifact home whose ``create`` allocates the bean class directly.

Concretely, for

    Object ref = ctx.lookup("java:comp/env/ejb/EB2");   // descriptor: -> EB2Bean
    EB2Home home = (EB2Home) PortableRemoteObject.narrow(ref, "EB2Home");
    EB2 obj = home.create();
    obj.m2();

the pass replaces the ``lookup`` call with an allocation of the generated
class ``$EJBHome$EB2Bean { EB2Bean create() { return new EB2Bean(); } }``.
``narrow`` already returns its argument (native summary), the cast passes
the object through, ``create`` dispatches into the artifact, and ``m2``
dispatches to the bean implementation — no container code analyzed,
exactly the portability/precision/scalability argument of the paper.

Runs after SSA + constant propagation (lookup keys must be constants).
Artifact classes are returned so the pipeline can push them through the
remaining passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir import Call, Instruction, Method, New, Program
from ..lang import Lowerer, parse
from ..ssa import ConstantValues


def _artifact_name(bean_class: str) -> str:
    return f"$EJBHome${bean_class}"


def is_lookup(method: Method, instr: Instruction) -> bool:
    """A JNDI ``lookup`` on an ``InitialContext``: the only call the
    pass rewrites."""
    return isinstance(instr, Call) and instr.kind == "virtual" and \
        instr.method_name == "lookup" and instr.arity == 1 and \
        bool(instr.lhs) and \
        method.type_of(instr.receiver or "") == "InitialContext"


class EJBModel:
    """Deployment-descriptor-driven EJB call resolution."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.generated: List[str] = []
        self._made: Set[str] = set()
        self.resolved = 0

    def _ensure_artifact(self, bean_class: str) -> Optional[str]:
        if self.program.get_class(bean_class) is None:
            return None
        name = _artifact_name(bean_class)
        if name in self._made or self.program.get_class(name) is not None:
            return name
        source = (
            f"library class {name} {{\n"
            f"  {bean_class} create() {{ return new {bean_class}(); }}\n"
            f"}}\n"
        )
        lowerer = Lowerer(self.program)
        lowerer.add_unit(parse(source, "<ejb-model>"))
        lowerer.lower_all()
        self._made.add(name)
        self.generated.append(name)
        return name

    def rewrite_method(self, method: Method,
                       constants: ConstantValues) -> int:
        if method.is_native:
            return 0
        descriptor = self.program.deployment_descriptor
        if not descriptor:
            return 0
        count = 0
        for block in method.blocks.values():
            before = count
            out: List[Instruction] = []
            for instr in block.instrs:
                if is_lookup(method, instr):
                    key = constants.string_constant_of(instr.args[0])
                    bean = descriptor.get(key) if key is not None else None
                    artifact = self._ensure_artifact(bean) if bean else None
                    if artifact is not None:
                        alloc = New(instr.lhs, artifact)
                        alloc.iid = instr.iid
                        alloc.line = instr.line
                        out.append(alloc)
                        count += 1
                        continue
                out.append(instr)
            if count != before:
                block.instrs = out
        self.resolved += count
        return count

    def rewrite_methods(
            self, methods: List[Method],
            constants_by_method: Dict[str, ConstantValues]) -> int:
        for method in methods:
            constants = constants_by_method.get(method.qname)
            if constants is not None:
                self.rewrite_method(method, constants)
        return self.resolved
