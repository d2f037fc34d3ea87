"""Dataflow state graphs.

An :class:`SDFGState` is a single dataflow graph: access nodes, tasklets and
map scopes connected by memlet-carrying edges.  States are the nodes of the
program's control-flow state machine (see :mod:`repro.sdfg.sdfg`).

The helpers on this class (``add_mapped_tasklet``, ``add_memlet_path``,
``scope_dict`` ...) mirror the DaCe API surface that both the workload
builders and the transformations rely on.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.sdfg.dtypes import ScheduleType
from repro.sdfg.graph import Edge, GraphError, OrderedMultiDiGraph
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    CodeNode,
    Map,
    MapEntry,
    MapExit,
    NestedSDFGNode,
    Node,
    Tasklet,
)
from repro.symbolic.expressions import Expr, sympify
from repro.symbolic.ranges import Range, Subset
from repro.symbolic.simplify import simplify

__all__ = ["SDFGState", "propagate_memlet"]


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


class SDFGState:
    """A single dataflow graph (one node of the control-flow state machine)."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.graph: OrderedMultiDiGraph[Node, Memlet] = OrderedMultiDiGraph()

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

    def add_nested_sdfg(
        self,
        sdfg,
        inputs: Sequence[str],
        outputs: Sequence[str],
        symbol_mapping: Optional[Dict[str, Union[str, int, Expr]]] = None,
        label: Optional[str] = None,
    ) -> NestedSDFGNode:
        node = NestedSDFGNode(
            label or sdfg.name, sdfg, inputs, outputs, symbol_mapping
        )
        self.graph.add_node(node)
        return node

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

    def add_memlet_path(
        self,
        *path_nodes: Node,
        memlet: Memlet,
        src_conn: Optional[str] = None,
        dst_conn: Optional[str] = None,
    ) -> List[Edge]:
        """Connect a chain of nodes through map entries/exits.

        The edge adjacent to the innermost code node carries ``memlet``;
        edges crossing map entry/exit boundaries carry propagated memlets and
        use the ``IN_<data>`` / ``OUT_<data>`` connector convention.
        """
        if len(path_nodes) < 2:
            raise ValueError("add_memlet_path requires at least two nodes")
        edges: List[Edge] = []
        data = memlet.data
        # Determine direction: if the first node is an access/entry chain the
        # innermost edge is the last one; if it starts at a code node the
        # innermost edge is the first one.
        forward = not isinstance(path_nodes[0], (Tasklet, NestedSDFGNode))
        n = len(path_nodes)
        # Pre-compute propagated memlets from innermost to outermost.
        maps_on_path: List[Map] = []
        for node in path_nodes:
            if isinstance(node, (MapEntry, MapExit)):
                maps_on_path.append(node.map)
        # innermost memlet is `memlet`; going outward we propagate over each map.
        for i in range(n - 1):
            u, v = path_nodes[i], path_nodes[i + 1]
            # Number of map boundaries strictly between this edge and the
            # innermost end of the path.
            if forward:
                # Innermost edge is the last edge of the path.
                boundary_nodes = [
                    x for x in path_nodes[i + 1 : n - 1] if isinstance(x, (MapEntry, MapExit))
                ]
            else:
                boundary_nodes = [
                    x for x in path_nodes[1 : i + 1] if isinstance(x, (MapEntry, MapExit))
                ]
            cur = memlet.clone()
            for b in boundary_nodes:
                cur = propagate_memlet(cur, b.map)
            uconn: Optional[str] = None
            vconn: Optional[str] = None
            if isinstance(u, MapEntry):
                uconn = f"OUT_{data}"
                u.add_in_connector(f"IN_{data}")
                u.add_out_connector(uconn)
            elif isinstance(u, MapExit):
                uconn = f"OUT_{data}"
                u.add_in_connector(f"IN_{data}")
                u.add_out_connector(uconn)
            elif isinstance(u, (Tasklet, NestedSDFGNode)):
                uconn = src_conn
            if isinstance(v, MapEntry):
                vconn = f"IN_{data}"
                v.add_in_connector(vconn)
                v.add_out_connector(f"OUT_{data}")
            elif isinstance(v, MapExit):
                vconn = f"IN_{data}"
                v.add_in_connector(vconn)
                v.add_out_connector(f"OUT_{data}")
            elif isinstance(v, (Tasklet, NestedSDFGNode)):
                vconn = dst_conn
            edges.append(self.add_edge(u, uconn, v, vconn, cur))
        return edges

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

    def all_edges(self, *nodes: Node) -> List[Edge[Node, Memlet]]:
        return self.graph.all_edges(*nodes)

    def data_nodes(self) -> List[AccessNode]:
        return [n for n in self.graph.nodes() if isinstance(n, AccessNode)]

    def access_nodes_for(self, data: str) -> List[AccessNode]:
        return [n for n in self.data_nodes() if n.data == data]

    def source_nodes(self) -> List[Node]:
        return self.graph.source_nodes()

    def sink_nodes(self) -> List[Node]:
        return self.graph.sink_nodes()

    def topological_sort(self) -> List[Node]:
        return self.graph.topological_sort()

    def node_by_guid(self, guid: int) -> Optional[Node]:
        for n in self.graph.nodes():
            if n.guid == guid:
                return n
        return None

    # ------------------------------------------------------------------ #
    # Scopes
    # ------------------------------------------------------------------ #
    def exit_node(self, entry: MapEntry) -> MapExit:
        """The map exit matching a map entry."""
        for n in self.graph.nodes():
            if isinstance(n, MapExit) and n.map is entry.map:
                return n
        raise GraphError(f"No matching MapExit for {entry!r}")

    def entry_node_for_exit(self, exit_: MapExit) -> MapEntry:
        for n in self.graph.nodes():
            if isinstance(n, MapEntry) and n.map is exit_.map:
                return n
        raise GraphError(f"No matching MapEntry for {exit_!r}")

    def scope_dict(self) -> Dict[Node, Optional[MapEntry]]:
        """Map each node to its innermost enclosing map entry (or ``None``)."""
        result: Dict[Node, Optional[MapEntry]] = {}
        try:
            order = self.graph.topological_sort()
        except GraphError:
            order = self.graph.nodes()
        exit_to_entry: Dict[MapExit, MapEntry] = {}
        for n in self.graph.nodes():
            if isinstance(n, MapExit):
                exit_to_entry[n] = self.entry_node_for_exit(n)
        for node in order:
            preds = self.graph.in_edges(node)
            if not preds:
                result[node] = None
                continue
            src = preds[0].src
            if isinstance(src, MapEntry):
                result[node] = src
            elif isinstance(src, MapExit):
                entry = exit_to_entry[src]
                result[node] = result.get(entry)
            else:
                result[node] = result.get(src)
        return result

    def scope_children(self) -> Dict[Optional[MapEntry], List[Node]]:
        """Inverse of :meth:`scope_dict`: scope entry -> direct child nodes."""
        sdict = self.scope_dict()
        out: Dict[Optional[MapEntry], List[Node]] = {}
        for node, scope in sdict.items():
            out.setdefault(scope, []).append(node)
        return out

    def scope_subgraph_nodes(
        self, entry: MapEntry, include_boundary: bool = True
    ) -> List[Node]:
        """All nodes inside a map scope (optionally with entry/exit)."""
        exit_ = self.exit_node(entry)
        sdict = self.scope_dict()
        inner: List[Node] = []
        # A node is in the scope if walking up its scope chain reaches `entry`.
        for node in self.graph.nodes():
            if node is entry or node is exit_:
                continue
            scope = sdict.get(node)
            while scope is not None:
                if scope is entry:
                    inner.append(node)
                    break
                scope = sdict.get(scope)
        if include_boundary:
            return [entry] + inner + [exit_]
        return inner

    # ------------------------------------------------------------------ #
    # Read/write sets
    # ------------------------------------------------------------------ #
    def read_memlets(self) -> List[Tuple[str, Memlet]]:
        """All (data, memlet) pairs read in this state.

        A memlet is a read if it leaves an access node of that container
        (directly or through map entries).
        """
        reads: List[Tuple[str, Memlet]] = []
        for e in self.graph.edges():
            m: Memlet = e.data
            if m is None or m.is_empty:
                continue
            dst = e.dst
            if isinstance(dst, (Tasklet, NestedSDFGNode, MapEntry)) and m.data is not None:
                # Only count the innermost read (into a code node) to avoid
                # double counting through scope boundaries.
                if isinstance(dst, (Tasklet, NestedSDFGNode)):
                    reads.append((m.data, m))
            if isinstance(e.src, AccessNode) and isinstance(dst, AccessNode):
                reads.append((m.data, m))
        return reads

    def write_memlets(self) -> List[Tuple[str, Memlet]]:
        """All (data, memlet) pairs written in this state."""
        writes: List[Tuple[str, Memlet]] = []
        for e in self.graph.edges():
            m: Memlet = e.data
            if m is None or m.is_empty:
                continue
            if isinstance(e.src, (Tasklet, NestedSDFGNode)) and m.data is not None:
                writes.append((m.data, m))
            elif isinstance(e.src, AccessNode) and isinstance(e.dst, AccessNode):
                target = m.data if m.other_subset is None else e.dst.data
                subset = m.subset if m.other_subset is None else m.other_subset
                writes.append((e.dst.data, Memlet(e.dst.data, subset, wcr=m.wcr)))
        return writes

    def read_set(self) -> Set[str]:
        """Names of all containers read in this state."""
        out = {d for d, _ in self.read_memlets()}
        # Copies read their source container.
        for e in self.graph.edges():
            if isinstance(e.src, AccessNode) and isinstance(e.dst, AccessNode):
                out.add(e.src.data)
        return out

    def write_set(self) -> Set[str]:
        """Names of all containers written in this state."""
        return {d for d, _ in self.write_memlets()}

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
            f"SDFGState({self.label!r}, {self.graph.number_of_nodes()} nodes, "
            f"{self.graph.number_of_edges()} edges)"
        )
