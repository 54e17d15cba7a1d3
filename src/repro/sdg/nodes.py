"""Node vocabulary for the dependence graphs.

The no-heap SDG is represented as a *value-flow graph* (VFG) over facts:

* ``Fact(method, var)`` — an SSA value in a method (context-free; the
  RHS tabulation recovers context sensitivity by call/return matching);
* the special variable ``RET`` stands for a method's return value.

HSDG nodes are statements: ``StmtRef(method, iid)`` with the instruction
attached.  Store statements, load statements, and source/sink call
statements are the node kinds the paper's Figure 2 shows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Instruction

RET = "<ret>"


@dataclass(frozen=True)
class Fact:
    """A value node of the no-heap SDG: an SSA variable in a method."""

    method: str
    var: str

    def __str__(self) -> str:
        return f"{self.method}::{self.var}"


@dataclass(frozen=True)
class StmtRef:
    """A statement node, identified by method qname and instruction id."""

    method: str
    iid: int

    def __str__(self) -> str:
        return f"{self.method}@{self.iid}"


@dataclass
class Stmt:
    """A statement node with its instruction and source classification."""

    ref: StmtRef
    instr: Instruction
    in_application: bool    # application vs library code (drives LCP, §5)

    @property
    def method(self) -> str:
        return self.ref.method

    @property
    def line(self) -> int:
        return self.instr.line

    def __hash__(self) -> int:
        return hash(self.ref)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Stmt) and self.ref == other.ref
