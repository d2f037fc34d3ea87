"""Maximum-flow / minimum-cut machinery for input-configuration minimization.

Implements the preparation procedure of Sec. 4.2 (building a flow network
from the program's dataflow graph, with data-movement volumes as capacities)
and the Edmonds-Karp algorithm to find the minimum s-t cut.  ``networkx`` is
only used by the test suite as an independent cross-check of the max-flow
values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, Node
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState

__all__ = ["FlowNetwork", "prepare_input_flow_network", "SOURCE", "SINK"]

SOURCE = "__source__"
SINK = "__sink__"


class FlowNetwork:
    """A capacitated directed graph with max-flow / min-cut queries."""

    def __init__(self) -> None:
        self._capacity: Dict[Hashable, Dict[Hashable, float]] = {}
        self._nodes: Set[Hashable] = set()

    # ------------------------------------------------------------------ #
    def add_node(self, node: Hashable) -> None:
        self._nodes.add(node)
        self._capacity.setdefault(node, {})

    def add_edge(self, u: Hashable, v: Hashable, capacity: float) -> None:
        """Add capacity from ``u`` to ``v`` (parallel edges accumulate)."""
        if capacity < 0:
            raise ValueError("Edge capacities must be non-negative")
        self.add_node(u)
        self.add_node(v)
        self._capacity[u][v] = self._capacity[u].get(v, 0.0) + capacity
        self._capacity[v].setdefault(u, self._capacity[v].get(u, 0.0))

    def nodes(self) -> Set[Hashable]:
        return set(self._nodes)

    def edges(self) -> List[Tuple[Hashable, Hashable, float]]:
        out = []
        for u, targets in self._capacity.items():
            for v, c in targets.items():
                if c > 0:
                    out.append((u, v, c))
        return out

    # ------------------------------------------------------------------ #
    def max_flow_min_cut(
        self, source: Hashable, sink: Hashable
    ) -> Tuple[float, Set[Hashable]]:
        """Edmonds-Karp maximum flow; returns ``(flow_value, source_side)``.

        ``source_side`` is the set of nodes reachable from the source in the
        residual graph -- the S component of the minimum cut.
        """
        if source not in self._nodes or sink not in self._nodes:
            return 0.0, set(self._nodes) - {sink}
        # Residual capacities (copy).
        residual: Dict[Hashable, Dict[Hashable, float]] = {
            u: dict(vs) for u, vs in self._capacity.items()
        }
        for node in self._nodes:
            residual.setdefault(node, {})

        def bfs_path() -> Optional[List[Hashable]]:
            parents: Dict[Hashable, Hashable] = {source: source}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v, cap in residual[u].items():
                    if cap > 1e-12 and v not in parents:
                        parents[v] = u
                        if v == sink:
                            path = [v]
                            while path[-1] is not source:
                                path.append(parents[path[-1]])
                            return list(reversed(path))
                        queue.append(v)
            return None

        flow = 0.0
        while True:
            path = bfs_path()
            if path is None:
                break
            bottleneck = min(
                residual[u][v] for u, v in zip(path[:-1], path[1:])
            )
            if bottleneck == float("inf"):
                # Saturating an infinite path means the cut value is infinite;
                # terminate to avoid looping forever.
                flow = float("inf")
                for u, v in zip(path[:-1], path[1:]):
                    residual[u][v] = 0.0
                continue
            flow += bottleneck
            for u, v in zip(path[:-1], path[1:]):
                residual[u][v] -= bottleneck
                residual[v][u] = residual[v].get(u, 0.0) + bottleneck

        # Source side of the cut: reachable in the residual graph.
        reachable: Set[Hashable] = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 1e-12 and v not in reachable:
                    reachable.add(v)
                    queue.append(v)
        return flow, reachable


# ---------------------------------------------------------------------- #
# Flow-network preparation (Sec. 4.2, "Preparation")
# ---------------------------------------------------------------------- #
@dataclass
class PreparedNetwork:
    """The flow network plus bookkeeping to map cut results back to nodes."""

    network: FlowNetwork
    #: Representative (top-level) node for every dataflow node.
    representative: Dict[int, Node]
    #: All top-level representatives outside the cutout.
    outside_nodes: List[Node]
    #: Representatives of the cutout.
    cutout_reps: Set[int]


def _representatives(state: SDFGState) -> Dict[int, Node]:
    """Map every node to its top-level representative (outermost scope entry
    for nodes inside map scopes, the node itself otherwise)."""
    sdict = state.scope_dict()
    rep: Dict[int, Node] = {}
    for node in state.nodes():
        scope = sdict.get(node)
        if isinstance(node, MapExit):
            scope = state.entry_node_for_exit(node)
        elif isinstance(node, MapEntry) and sdict.get(node) is None:
            rep[id(node)] = node
            continue
        if scope is None:
            rep[id(node)] = node
            continue
        # Walk to the outermost scope.
        outer = scope
        while sdict.get(outer) is not None:
            outer = sdict[outer]
        rep[id(node)] = outer
    return rep


def prepare_input_flow_network(
    sdfg: SDFG,
    state: SDFGState,
    cutout_nodes: Sequence[Node],
    input_configuration: Sequence[str],
    symbol_values: Optional[Dict[str, int]] = None,
) -> PreparedNetwork:
    """Build the minimum input-flow cut network for a dataflow cutout.

    The graph is contracted to top-level granularity (each outermost map
    scope becomes a single node); capacities are concrete data-movement
    volumes evaluated with ``symbol_values``.
    """
    rep = _representatives(state)
    cutout_reps = {id(rep[id(n)]) for n in cutout_nodes if id(n) in rep}
    input_set = set(input_configuration)

    net = FlowNetwork()
    net.add_node(SOURCE)
    net.add_node(SINK)

    # Contracted edges between top-level representatives.
    contracted: Dict[Tuple[int, int], float] = {}
    contracted_nodes: Dict[int, Node] = {}
    for node in state.nodes():
        r = rep[id(node)]
        contracted_nodes[id(r)] = r
    incoming: Dict[int, List[Tuple[Node, float]]] = {}
    outgoing: Dict[int, List[Tuple[Node, float]]] = {}
    for edge in state.edges():
        u, v = rep[id(edge.src)], rep[id(edge.dst)]
        if u is v:
            continue
        memlet = edge.data
        volume = 0.0
        if memlet is not None and not memlet.is_empty:
            try:
                volume = float(memlet.volume_at(symbol_values))
            except Exception:
                volume = float("inf")
        contracted[(id(u), id(v))] = contracted.get((id(u), id(v)), 0.0) + volume
        incoming.setdefault(id(v), []).append((u, volume))
        outgoing.setdefault(id(u), []).append((v, volume))

    def container_size(data: str) -> float:
        try:
            return float(sdfg.arrays[data].total_size().evaluate(symbol_values))
        except Exception:
            return float("inf")

    inf = float("inf")

    # 1. Source connections: graph sources and external data nodes.
    external_nodes: Set[int] = set()
    for nid, node in contracted_nodes.items():
        if nid in cutout_reps:
            continue
        is_source = not incoming.get(nid)
        is_external_access = (
            isinstance(node, AccessNode) and not sdfg.arrays[node.data].transient
        )
        if is_external_access:
            external_nodes.add(nid)
        if is_source or is_external_access:
            cap = container_size(node.data) if isinstance(node, AccessNode) else inf
            net.add_edge(SOURCE, nid, cap)

    # 2. Interior edges (outside the cutout).
    for (uid, vid), volume in contracted.items():
        if uid in cutout_reps and vid in cutout_reps:
            continue
        if uid in cutout_reps or vid in cutout_reps:
            continue  # boundary edges handled below
        u_node, v_node = contracted_nodes[uid], contracted_nodes[vid]
        cap = volume
        # Accesses to external data are always part of the input config, so
        # their other incoming edges do not constrain the cut.
        if vid in external_nodes:
            cap = inf
        # A cut must not sever a dependency *behind* a data node without
        # paying for the data node itself: outgoing edges of data nodes are
        # free of charge only in the sense that the cut should happen before
        # the node, i.e. they get infinite capacity.
        if isinstance(u_node, AccessNode):
            cap = inf
        net.add_edge(uid, vid, cap)

    # 3. Sink connections: edges feeding the cutout's input configuration are
    #    redirected to T with their data-movement volume as capacity; other
    #    edges into the cutout keep their volume as well (they also feed the
    #    region being computed).
    for (uid, vid), volume in contracted.items():
        if vid not in cutout_reps or uid in cutout_reps:
            continue
        u_node = contracted_nodes[uid]
        v_node = contracted_nodes[vid]
        cap = volume
        if isinstance(v_node, AccessNode) and v_node.data in input_set:
            cap = volume
        if isinstance(u_node, AccessNode) and u_node.data in input_set:
            # The input container itself feeds the cutout: the cut may either
            # pay for this data (cutting before the container) or include its
            # producer.
            cap = container_size(u_node.data)
        net.add_edge(uid, SINK, cap)

    # 4. Edges leaving the cutout towards nodes that can come back are "free"
    #    (S->T with capacity 0 per the paper); edges that never come back are
    #    irrelevant for the S-T flow.  Both are no-ops in the network.

    outside = [
        node
        for nid, node in contracted_nodes.items()
        if nid not in cutout_reps
    ]
    return PreparedNetwork(
        network=net,
        representative=rep,
        outside_nodes=outside,
        cutout_reps=cutout_reps,
    )
