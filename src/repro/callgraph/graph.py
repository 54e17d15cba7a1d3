"""Call-graph representation.

A node is a (method, context) pair — "a method in some calling context,
as determined by the context-sensitivity policy" (paper §6.1).  Edges are
labeled with the call-site instruction id in the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover — avoids a package import cycle
    from ..pointer.contexts import Context


@dataclass(frozen=True)
class CGNode:
    """A method analyzed in a context."""

    method: str        # method qname
    context: "Context"

    def __str__(self) -> str:
        return f"{self.method}<{self.context}>"


@dataclass(frozen=True)
class CGEdge:
    """caller --[call site iid]--> callee."""

    caller: CGNode
    call_iid: int
    callee: CGNode


class CallGraph:
    """Nodes, edges, and adjacency of the on-the-fly call graph."""

    def __init__(self) -> None:
        self.nodes: Dict[CGNode, int] = {}      # node -> creation index
        self.edges: Set[CGEdge] = set()
        self._succs: Dict[CGNode, Set[CGNode]] = {}
        self._preds: Dict[CGNode, Set[CGNode]] = {}
        self.entrypoints: List[CGNode] = []
        # Per-method node index: method qname -> nodes (all contexts).
        self._by_method: Dict[str, List[CGNode]] = {}
        # Call-site resolution index: (caller, call iid) -> callees.
        self._by_site: Dict[Tuple[CGNode, int], List[CGNode]] = {}

    def add_node(self, node: CGNode) -> bool:
        """Add a node; returns True if it was new."""
        if node in self.nodes:
            return False
        self.nodes[node] = len(self.nodes)
        self._by_method.setdefault(node.method, []).append(node)
        return True

    def add_edge(self, caller: CGNode, call_iid: int,
                 callee: CGNode) -> bool:
        edge = CGEdge(caller, call_iid, callee)
        if edge in self.edges:
            return False
        self.edges.add(edge)
        self._succs.setdefault(caller, set()).add(callee)
        self._preds.setdefault(callee, set()).add(caller)
        self._by_site.setdefault((caller, call_iid), []).append(callee)
        return True

    def succs(self, node: CGNode) -> Set[CGNode]:
        return self._succs.get(node, set())

    def preds(self, node: CGNode) -> Set[CGNode]:
        return self._preds.get(node, set())

    def neighbors(self, node: CGNode) -> Set[CGNode]:
        return self.succs(node) | self.preds(node)

    def nodes_of_method(self, method: str) -> List[CGNode]:
        return self._by_method.get(method, [])

    def reachable_methods(self) -> Set[str]:
        return set(self._by_method)

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    def callees_at(self, caller: CGNode, call_iid: int) -> List[CGNode]:
        """Possible targets of one call site in one caller node."""
        return self._by_site.get((caller, call_iid), [])

    def size_stats(self) -> Dict[str, int]:
        """Growth summary (the Table 2 size columns), in the shape the
        metrics registry records as ``callgraph.*`` gauges."""
        contexts_per_method = [len(nodes)
                               for nodes in self._by_method.values()]
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "entrypoints": len(self.entrypoints),
            "methods": len(self._by_method),
            "call_sites": len(self._by_site),
            "max_contexts_per_method": max(contexts_per_method,
                                           default=0),
        }

    def __iter__(self) -> Iterator[CGNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)
