"""Dataflow state graphs.

An :class:`SDFGState` is a single dataflow graph: access nodes, tasklets and
map scopes connected by memlet-carrying edges.  States are the nodes of the
program's control-flow state machine (see :mod:`repro.sdfg.sdfg`).

The helpers on this class (``add_mapped_tasklet``, ``scope_dict`` ...)
mirror the DaCe API surface that both the workload builders and the
transformations rely on.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.sdfg.dtypes import ScheduleType
from repro.sdfg.graph import Edge, GraphError, OrderedMultiDiGraph
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, Map, MapEntry, MapExit, Node, Tasklet
from repro.symbolic.ranges import Range, Subset
from repro.symbolic.simplify import simplify

__all__ = ["SDFGState", "propagate_memlet"]

_CYCLIC = "Graph contains a cycle; topological sort impossible"


def propagate_memlet(inner: Memlet, map_obj: Map) -> Memlet:
    """Propagate a memlet out of a map scope.

    The inner subset is a function of the map parameters; the propagated
    (outer) subset is the bounding box obtained by substituting each
    parameter with its range begin and end.  This assumes index expressions
    are monotonically non-decreasing in the map parameters, which holds for
    the affine accesses used throughout this repository.  The propagated
    volume is the inner volume multiplied by the number of map iterations.
    """
    if inner.is_empty or inner.subset is None:
        return inner.clone()
    lo_map = {p: r.begin for p, r in zip(map_obj.params, map_obj.ranges)}
    hi_map = {p: r.end for p, r in zip(map_obj.params, map_obj.ranges)}
    new_ranges = []
    for rng in inner.subset.ranges:
        new_ranges.append(
            Range(
                simplify(rng.begin.subs(lo_map)),
                simplify(rng.end.subs(hi_map)),
                1,
            )
        )
    volume = simplify(inner.volume() * map_obj.num_iterations())
    return Memlet(
        data=inner.data,
        subset=Subset(new_ranges),
        wcr=inner.wcr,
        volume=volume,
        dynamic=inner.dynamic,
    )


class _ScopeIndex:
    """What every scope query of one state derives from its structure,
    built in one pass at one ``graph.version``: the topological order
    (``None`` for a cyclic graph), the scope dict, each scope's direct
    children, each map's first entry / exit, the first map exit without an
    entry (which makes every scope-dict query raise), and -- filled on the
    first :meth:`SDFGState.scope_subgraph_nodes` -- every node inside each
    scope.  The views handed out are read-only and shared."""

    __slots__ = ("version", "order", "scopes", "children", "entries", "exits",
                 "orphan_exit", "inside")

    def __init__(self, graph: OrderedMultiDiGraph) -> None:
        self.version = graph.version
        nodes = graph.nodes()
        entries: Dict[Map, MapEntry] = {}
        exits: Dict[Map, MapExit] = {}
        for n in nodes:
            if isinstance(n, MapEntry):
                entries.setdefault(n.map, n)
            elif isinstance(n, MapExit):
                exits.setdefault(n.map, n)
        self.orphan_exit = next(
            (n for n in nodes if isinstance(n, MapExit) and n.map not in entries), None
        )
        try:
            order: Optional[List[Node]] = graph.topological_sort()
        except GraphError:
            order = None
        # A node's scope is that of its first predecessor (or the
        # predecessor itself, when it is a map entry).
        scopes: Dict[Node, Optional[MapEntry]] = {}
        children: Dict[Optional[MapEntry], List[Node]] = {}
        for node in nodes if order is None else order:
            preds = graph.in_edges(node)
            scope = None
            if preds:
                src = preds[0].src
                if isinstance(src, MapEntry):
                    scope = src
                elif isinstance(src, MapExit):
                    scope = scopes.get(entries.get(src.map))
                else:
                    scope = scopes.get(src)
            scopes[node] = scope
            if not isinstance(node, MapExit):
                children.setdefault(scope, []).append(node)
        self.order = None if order is None else tuple(order)
        self.scopes = MappingProxyType(scopes)
        self.children = MappingProxyType({k: tuple(v) for k, v in children.items()})
        self.entries = entries
        self.exits = exits
        self.inside: Optional[Dict[MapEntry, List[Node]]] = None

    def nodes_inside(self, graph: OrderedMultiDiGraph) -> Dict[MapEntry, List[Node]]:
        """Every node (in graph order) whose scope chain reaches each entry."""
        if self.inside is None:
            inside: Dict[MapEntry, List[Node]] = {}
            for node in graph.nodes():
                scope = self.scopes[node]
                while scope is not None:
                    members = inside.setdefault(scope, [])
                    if members and members[-1] is node:
                        break  # a scope chain that cycles (cyclic graphs only)
                    members.append(node)
                    scope = self.scopes.get(scope)
            self.inside = inside
        return self.inside


class SDFGState:
    """A single dataflow graph (one node of the control-flow state machine).

    The scope queries (``topological_sort``, ``scope_dict``,
    ``scope_children``, ``scope_subgraph_nodes``, ``exit_node``,
    ``entry_node_for_exit``) read one index per state, rebuilt on the first
    query after the graph's ``version`` moves -- which is why the graph is
    mutated only through its own methods.  Copies and pickles drop the
    index.  A program shared read-only across threads may have two threads
    build it at once: both compute the same value and the index is set by a
    single store, so the race is harmless.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.graph: OrderedMultiDiGraph[Node, Memlet] = OrderedMultiDiGraph()
        self._index: Optional[_ScopeIndex] = None

    def __getstate__(self) -> Dict:
        return {**self.__dict__, "_index": None}

    # ------------------------------------------------------------------ #
    # Node/edge management
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> Node:
        return self.graph.add_node(node)

    def remove_node(self, node: Node) -> None:
        self.graph.remove_node(node)

    def add_access(self, data: str) -> AccessNode:
        """Add an access node for a named data container."""
        node = AccessNode(data)
        self.graph.add_node(node)
        return node

    def add_tasklet(
        self,
        label: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        code: str,
        side_effect_callback: bool = False,
    ) -> Tasklet:
        t = Tasklet(label, inputs, outputs, code, side_effect_callback=side_effect_callback)
        self.graph.add_node(t)
        return t

    def add_map(
        self,
        label: str,
        ranges: Dict[str, Union[str, Tuple, Range]],
        schedule: ScheduleType = ScheduleType.Sequential,
    ) -> Tuple[MapEntry, MapExit]:
        """Add an (empty) map scope; returns its entry and exit nodes."""
        m = Map(label, list(ranges.keys()), list(ranges.values()), schedule)
        entry, exit_ = MapEntry(m), MapExit(m)
        self.graph.add_node(entry)
        self.graph.add_node(exit_)
        return entry, exit_

    def add_edge(
        self,
        src: Node,
        src_conn: Optional[str],
        dst: Node,
        dst_conn: Optional[str],
        memlet: Memlet,
    ) -> Edge[Node, Memlet]:
        if src_conn is not None:
            src.add_out_connector(src_conn)
        if dst_conn is not None:
            dst.add_in_connector(dst_conn)
        return self.graph.add_edge(src, dst, memlet, src_conn, dst_conn)

    def add_nedge(self, src: Node, dst: Node, memlet: Optional[Memlet] = None) -> Edge:
        """Add an edge without connectors (e.g. access-to-access copies)."""
        return self.graph.add_edge(src, dst, memlet or Memlet.empty(), None, None)

    def remove_edge(self, edge: Edge) -> None:
        self.graph.remove_edge(edge)

    # ------------------------------------------------------------------ #
    # Convenience builders
    # ------------------------------------------------------------------ #
    def add_mapped_tasklet(
        self,
        label: str,
        map_ranges: Dict[str, Union[str, Tuple, Range]],
        inputs: Dict[str, Memlet],
        code: str,
        outputs: Dict[str, Memlet],
        schedule: ScheduleType = ScheduleType.Sequential,
        input_nodes: Optional[Dict[str, AccessNode]] = None,
        output_nodes: Optional[Dict[str, AccessNode]] = None,
        external_edges: bool = True,
    ) -> Tuple[Tasklet, MapEntry, MapExit]:
        """Add ``tasklet`` surrounded by a map scope, fully connected.

        ``inputs`` / ``outputs`` map tasklet connector names to the *inner*
        memlets (i.e. per-iteration accesses as functions of the map
        parameters).  Outer edges to/from access nodes are created with
        propagated memlets when ``external_edges`` is true.
        """
        entry, exit_ = self.add_map(label, map_ranges, schedule)
        tasklet = self.add_tasklet(label, list(inputs.keys()), list(outputs.keys()), code)
        input_nodes = dict(input_nodes or {})
        output_nodes = dict(output_nodes or {})

        if not inputs:
            # Keep the scope connected even without data inputs.
            self.add_nedge(entry, tasklet, Memlet.empty())
        for conn, memlet in inputs.items():
            in_conn = f"IN_{memlet.data}"
            out_conn = f"OUT_{memlet.data}"
            entry.add_in_connector(in_conn)
            entry.add_out_connector(out_conn)
            self.add_edge(entry, out_conn, tasklet, conn, memlet)
            if external_edges:
                node = input_nodes.get(memlet.data)
                if node is None:
                    node = self.add_access(memlet.data)
                    input_nodes[memlet.data] = node
                outer = propagate_memlet(memlet, entry.map)
                self.add_edge(node, None, entry, in_conn, outer)

        if not outputs:
            self.add_nedge(tasklet, exit_, Memlet.empty())
        for conn, memlet in outputs.items():
            in_conn = f"IN_{memlet.data}"
            out_conn = f"OUT_{memlet.data}"
            exit_.add_in_connector(in_conn)
            exit_.add_out_connector(out_conn)
            self.add_edge(tasklet, conn, exit_, in_conn, memlet)
            if external_edges:
                node = output_nodes.get(memlet.data)
                if node is None:
                    node = self.add_access(memlet.data)
                    output_nodes[memlet.data] = node
                outer = propagate_memlet(memlet, entry.map)
                self.add_edge(exit_, out_conn, node, None, outer)

        return tasklet, entry, exit_

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def nodes(self) -> List[Node]:
        return self.graph.nodes()

    def edges(self) -> List[Edge[Node, Memlet]]:
        return self.graph.edges()

    def in_edges(self, node: Node) -> List[Edge[Node, Memlet]]:
        return self.graph.in_edges(node)

    def out_edges(self, node: Node) -> List[Edge[Node, Memlet]]:
        return self.graph.out_edges(node)

    def data_nodes(self) -> List[AccessNode]:
        return [n for n in self.graph.nodes() if isinstance(n, AccessNode)]

    def access_nodes_for(self, data: str) -> List[AccessNode]:
        return [n for n in self.data_nodes() if n.data == data]

    def topological_sort(self) -> Tuple[Node, ...]:
        order = self._scope_index().order
        if order is None:
            raise GraphError(_CYCLIC)
        return order

    # ------------------------------------------------------------------ #
    # Scopes
    # ------------------------------------------------------------------ #
    def _scope_index(self) -> _ScopeIndex:
        index = self._index
        if index is None or index.version != self.graph.version:
            index = self._index = _ScopeIndex(self.graph)
        return index

    def _checked_index(self, ordered: bool = False) -> _ScopeIndex:
        """The index, once every map exit is known to have its entry (and,
        if ``ordered``, the graph to be acyclic)."""
        index = self._scope_index()
        if ordered and index.order is None:
            raise GraphError(_CYCLIC)
        if index.orphan_exit is not None:
            raise GraphError(f"No matching MapEntry for {index.orphan_exit!r}")
        return index

    def exit_node(self, entry: MapEntry) -> MapExit:
        """The map exit matching a map entry."""
        exit_ = self._scope_index().exits.get(entry.map)
        if exit_ is None:
            raise GraphError(f"No matching MapExit for {entry!r}")
        return exit_

    def entry_node_for_exit(self, exit_: MapExit) -> MapEntry:
        entry = self._scope_index().entries.get(exit_.map)
        if entry is None:
            raise GraphError(f"No matching MapEntry for {exit_!r}")
        return entry

    def scope_dict(self) -> Mapping[Node, Optional[MapEntry]]:
        """Map each node to its innermost enclosing map entry (or ``None``)."""
        return self._checked_index().scopes

    def scope_children(self) -> Mapping[Optional[MapEntry], Tuple[Node, ...]]:
        """The nodes directly inside each map entry (``None``: the top
        level), in execution order, map exits left out.  A cyclic state has
        no execution order and raises like :meth:`topological_sort`."""
        return self._checked_index(ordered=True).children

    def scope_subgraph_nodes(
        self, entry: MapEntry, include_boundary: bool = True
    ) -> List[Node]:
        """All nodes inside a map scope (optionally with entry/exit)."""
        exit_ = self.exit_node(entry)
        members = self._checked_index().nodes_inside(self.graph).get(entry, ())
        inner = [n for n in members if n is not entry and n is not exit_]
        if include_boundary:
            return [entry] + inner + [exit_]
        return inner

    @property
    def free_symbols(self) -> Set[str]:
        out: Set[str] = set()
        for node in self.graph.nodes():
            out |= node.free_symbols
        for e in self.graph.edges():
            if e.data is not None:
                out |= e.data.free_symbols
        # Map parameters are bound inside their scopes.
        for node in self.graph.nodes():
            if isinstance(node, MapEntry):
                out -= set(node.map.params)
        return out

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"SDFGState({self.label!r}, {len(self.graph.nodes())} nodes, "
            f"{len(self.graph.edges())} edges)"
        )
