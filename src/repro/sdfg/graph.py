"""A small ordered directed multigraph used by the dataflow IR.

The IR needs a graph structure with:

* arbitrary (hashable-by-identity) node objects,
* parallel edges carrying payloads and named connectors,
* deterministic iteration order (insertion order) so that program execution,
  serialization and graph diffs are reproducible,
* the usual traversals (topological sort, BFS, reverse BFS) used by the
  FuzzyFlow analyses.

``networkx`` is used elsewhere only as a cross-check for the max-flow
computation; the IR itself uses this self-contained implementation so node
and edge identity semantics stay fully under our control.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    TypeVar,
)

NodeT = TypeVar("NodeT")
EdgeDataT = TypeVar("EdgeDataT")

__all__ = ["Edge", "OrderedMultiDiGraph", "GraphError"]


class GraphError(Exception):
    """Raised on invalid graph manipulations (unknown nodes, cycles, ...)."""


class Edge(Generic[NodeT, EdgeDataT]):
    """A directed edge with optional connector names and a payload."""

    __slots__ = ("src", "dst", "data", "src_conn", "dst_conn")

    def __init__(
        self,
        src: NodeT,
        dst: NodeT,
        data: EdgeDataT = None,
        src_conn: Optional[str] = None,
        dst_conn: Optional[str] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.data = data
        self.src_conn = src_conn
        self.dst_conn = dst_conn

    def __repr__(self) -> str:
        sc = f".{self.src_conn}" if self.src_conn else ""
        dc = f".{self.dst_conn}" if self.dst_conn else ""
        return f"Edge({self.src!r}{sc} -> {self.dst!r}{dc}: {self.data!r})"


class OrderedMultiDiGraph(Generic[NodeT, EdgeDataT]):
    """Directed multigraph with insertion-ordered nodes and edges.

    ``version`` counts structural mutations: every node or edge added or
    removed bumps it, so anything derived from the structure alone (e.g. a
    state's scope index) is valid exactly while the version is unchanged.
    These methods are the only writers of the graph's internals (enforced
    by ``make lint-arch``); edges are never re-pointed in place.
    """

    def __init__(self) -> None:
        self._edges: List[Edge[NodeT, EdgeDataT]] = []
        # Keyed by the nodes in insertion order: ``_out`` is the node set.
        self._out: Dict[NodeT, List[Edge[NodeT, EdgeDataT]]] = {}
        self._in: Dict[NodeT, List[Edge[NodeT, EdgeDataT]]] = {}
        self.version = 0

    # ------------------------------------------------------------------ #
    # Nodes
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeT) -> NodeT:
        if node not in self._out:
            self._out[node] = []
            self._in[node] = []
            self.version += 1
        return node

    def remove_node(self, node: NodeT) -> None:
        if node not in self._out:
            raise GraphError(f"Node {node!r} not in graph")
        for e in list(self._in[node]) + list(self._out[node]):
            self.remove_edge(e)
        del self._out[node]
        del self._in[node]
        self.version += 1

    def copy(
        self,
        node_map: Mapping[NodeT, NodeT],
        edge_data: Callable[[EdgeDataT], EdgeDataT],
    ) -> "OrderedMultiDiGraph[NodeT, EdgeDataT]":
        """A new graph over the images ``node_map`` gives this graph's nodes
        (in this graph's order; a node it does not map is left out) and a new
        edge for every edge between two mapped nodes, carrying
        ``edge_data(edge.data)``.  Built directly, with ``version`` set as if
        every node and edge had been added one by one."""
        out: OrderedMultiDiGraph[NodeT, EdgeDataT] = OrderedMultiDiGraph()
        outs, ins, edges = out._out, out._in, out._edges
        for node in self._out:
            new = node_map.get(node)
            if new is not None:
                outs[new] = []
                ins[new] = []
        for e in self._edges:
            src, dst = node_map.get(e.src), node_map.get(e.dst)
            if src is not None and dst is not None:
                edge = Edge(src, dst, edge_data(e.data), e.src_conn, e.dst_conn)
                edges.append(edge)
                outs[src].append(edge)
                ins[dst].append(edge)
        out.version = len(outs) + len(edges)
        return out

    def has_node(self, node: NodeT) -> bool:
        return node in self._out

    def nodes(self) -> List[NodeT]:
        return list(self._out)

    # ------------------------------------------------------------------ #
    # Edges
    # ------------------------------------------------------------------ #
    def add_edge(
        self,
        src: NodeT,
        dst: NodeT,
        data: EdgeDataT = None,
        src_conn: Optional[str] = None,
        dst_conn: Optional[str] = None,
    ) -> Edge[NodeT, EdgeDataT]:
        self.add_node(src)
        self.add_node(dst)
        edge = Edge(src, dst, data, src_conn, dst_conn)
        self._edges.append(edge)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        self.version += 1
        return edge

    def remove_edge(self, edge: Edge[NodeT, EdgeDataT]) -> None:
        try:
            self._edges.remove(edge)
        except ValueError as exc:
            raise GraphError(f"Edge {edge!r} not in graph") from exc
        self._out[edge.src].remove(edge)
        self._in[edge.dst].remove(edge)
        self.version += 1

    def edges(self) -> List[Edge[NodeT, EdgeDataT]]:
        return list(self._edges)

    def out_edges(self, node: NodeT) -> List[Edge[NodeT, EdgeDataT]]:
        if node not in self._out:
            raise GraphError(f"Node {node!r} not in graph")
        return list(self._out[node])

    def in_edges(self, node: NodeT) -> List[Edge[NodeT, EdgeDataT]]:
        if node not in self._out:
            raise GraphError(f"Node {node!r} not in graph")
        return list(self._in[node])

    # ------------------------------------------------------------------ #
    # Degrees
    # ------------------------------------------------------------------ #
    def in_degree(self, node: NodeT) -> int:
        return len(self._in[node])

    # ------------------------------------------------------------------ #
    # Traversals
    # ------------------------------------------------------------------ #
    def topological_sort(self) -> List[NodeT]:
        """Kahn's algorithm; raises :class:`GraphError` on cycles."""
        indeg = {n: self.in_degree(n) for n in self._out}
        queue = deque(n for n in self._out if indeg[n] == 0)
        order: List[NodeT] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for e in self._out[node]:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    queue.append(e.dst)
        if len(order) != len(self._out):
            raise GraphError("Graph contains a cycle; topological sort impossible")
        return order

    def bfs_nodes(self, sources: Iterable[NodeT], reverse: bool = False) -> Iterator[NodeT]:
        """Breadth-first traversal from the given sources (excluded sources
        are yielded as well, first)."""
        visited: Set[int] = set()
        queue: deque[NodeT] = deque()
        for s in sources:
            if id(s) not in visited:
                visited.add(id(s))
                queue.append(s)
        while queue:
            node = queue.popleft()
            yield node
            edges = self._in[node] if reverse else self._out[node]
            for e in edges:
                nxt = e.src if reverse else e.dst
                if id(nxt) not in visited:
                    visited.add(id(nxt))
                    queue.append(nxt)

    def descendants(self, node: NodeT) -> Set[NodeT]:
        """All nodes reachable from ``node`` (excluding itself unless cyclic)."""
        out = set(self.bfs_nodes([node]))
        out.discard(node)
        return out

    def ancestors(self, node: NodeT) -> Set[NodeT]:
        """All nodes that can reach ``node``."""
        out = set(self.bfs_nodes([node], reverse=True))
        out.discard(node)
        return out

    # ------------------------------------------------------------------ #
    def __contains__(self, node: NodeT) -> bool:
        return node in self._out
