"""Structural validation of SDFGs.

Validation catches malformed programs early: dangling connectors, memlets
referring to unknown containers, subset dimensionality mismatches, map scopes
without matching exits, unreachable states, and cycles inside dataflow
states.  The differential-testing harness also relies on validation to detect
transformations that generate *invalid code* (one of the failure classes in
Table 2 of the paper).
"""

from __future__ import annotations

from repro.sdfg.graph import GraphError
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, Tasklet

__all__ = ["InvalidSDFGError", "validate_sdfg", "validate_state"]


class InvalidSDFGError(Exception):
    """Raised when an SDFG fails structural validation."""

    def __init__(self, message: str, sdfg=None, state=None, node=None) -> None:
        self.sdfg = sdfg
        self.state = state
        self.node = node
        location = []
        if sdfg is not None:
            location.append(f"sdfg '{sdfg.name}'")
        if state is not None:
            location.append(f"state '{state.label}'")
        if node is not None:
            location.append(f"node {node!r}")
        loc = " in " + ", ".join(location) if location else ""
        super().__init__(message + loc)


def validate_sdfg(sdfg) -> None:
    """Validate a whole SDFG; raises :class:`InvalidSDFGError` on problems."""
    if not sdfg.states():
        raise InvalidSDFGError("SDFG has no states", sdfg=sdfg)

    # Start state must exist and be part of the graph.
    start = sdfg.start_state
    if start not in sdfg.states():
        raise InvalidSDFGError("Start state is not part of the SDFG", sdfg=sdfg)

    # All states reachable from the start state.
    reachable = set(id(s) for s in sdfg._states.bfs_nodes([start]))
    for state in sdfg.states():
        if id(state) not in reachable:
            raise InvalidSDFGError(
                f"State '{state.label}' is unreachable from the start state",
                sdfg=sdfg,
            )

    # Interstate edge symbols must not collide with data container names
    # (assignments to containers are not allowed).
    for e in sdfg.edges():
        for sym in e.data.assignments:
            if sym in sdfg.arrays:
                raise InvalidSDFGError(
                    f"Interstate edge assigns to data container '{sym}'", sdfg=sdfg
                )

    for state in sdfg.states():
        validate_state(sdfg, state)


def validate_state(sdfg, state) -> None:
    """Validate a single dataflow state."""
    # Dataflow must be acyclic.
    try:
        state.graph.topological_sort()
    except GraphError as exc:
        raise InvalidSDFGError(
            f"Dataflow graph contains a cycle: {exc}", sdfg=sdfg, state=state
        ) from exc

    entries = [n for n in state.nodes() if isinstance(n, MapEntry)]
    exits = [n for n in state.nodes() if isinstance(n, MapExit)]

    # Every entry has exactly one exit with the same map object and vice versa.
    entry_maps = [id(n.map) for n in entries]
    exit_maps = [id(n.map) for n in exits]
    for n in entries:
        if exit_maps.count(id(n.map)) != 1:
            raise InvalidSDFGError(
                "Map entry without exactly one matching exit",
                sdfg=sdfg, state=state, node=n,
            )
    for n in exits:
        if entry_maps.count(id(n.map)) != 1:
            raise InvalidSDFGError(
                "Map exit without exactly one matching entry",
                sdfg=sdfg, state=state, node=n,
            )

    # Map ranges must have distinct parameters.
    for n in entries:
        if len(set(n.map.params)) != len(n.map.params):
            raise InvalidSDFGError(
                f"Map has duplicate parameters {n.map.params}",
                sdfg=sdfg, state=state, node=n,
            )

    sdict = state.scope_dict()

    for node in state.nodes():
        # Access nodes must refer to registered containers.
        if isinstance(node, AccessNode):
            if node.data not in sdfg.arrays:
                raise InvalidSDFGError(
                    f"Access node refers to unknown container '{node.data}'",
                    sdfg=sdfg, state=state, node=node,
                )
        # Isolated tasklets are almost always a transformation bug.
        if isinstance(node, Tasklet):
            if not state.in_edges(node) and not state.out_edges(node):
                raise InvalidSDFGError(
                    "Tasklet is disconnected from the dataflow graph",
                    sdfg=sdfg, state=state, node=node,
                )
            if not node.out_connectors and not state.out_edges(node):
                raise InvalidSDFGError(
                    "Tasklet produces no outputs",
                    sdfg=sdfg, state=state, node=node,
                )

    for edge in state.edges():
        memlet = edge.data
        # Connector consistency.
        if edge.src_conn is not None and edge.src_conn not in edge.src.out_connectors:
            raise InvalidSDFGError(
                f"Edge uses undeclared source connector '{edge.src_conn}'",
                sdfg=sdfg, state=state, node=edge.src,
            )
        if edge.dst_conn is not None and edge.dst_conn not in edge.dst.in_connectors:
            raise InvalidSDFGError(
                f"Edge uses undeclared destination connector '{edge.dst_conn}'",
                sdfg=sdfg, state=state, node=edge.dst,
            )
        if memlet is None or memlet.is_empty:
            continue
        # Memlet data must exist.
        if memlet.data not in sdfg.arrays:
            raise InvalidSDFGError(
                f"Memlet refers to unknown container '{memlet.data}'",
                sdfg=sdfg, state=state,
            )
        desc = sdfg.arrays[memlet.data]
        if memlet.subset is not None and memlet.subset.dims != len(desc.shape):
            raise InvalidSDFGError(
                f"Memlet subset [{memlet.subset}] has {memlet.subset.dims} "
                f"dimensions but container '{memlet.data}' has {len(desc.shape)}",
                sdfg=sdfg, state=state,
            )
        if memlet.wcr is not None and memlet.wcr not in ("sum", "prod", "min", "max"):
            raise InvalidSDFGError(
                f"Unknown write-conflict resolution '{memlet.wcr}'",
                sdfg=sdfg, state=state,
            )
        # Edges between two access nodes with other_subset must match dims of dst.
        if (
            isinstance(edge.src, AccessNode)
            and isinstance(edge.dst, AccessNode)
            and memlet.other_subset is not None
        ):
            dst_desc = sdfg.arrays[edge.dst.data]
            if memlet.other_subset.dims != len(dst_desc.shape):
                raise InvalidSDFGError(
                    f"Copy destination subset [{memlet.other_subset}] does not "
                    f"match container '{edge.dst.data}' dimensionality",
                    sdfg=sdfg, state=state,
                )

    # Scope consistency: edges crossing into a map scope must go through the
    # entry node; edges leaving must go through the exit.
    for edge in state.edges():
        src_scope = sdict.get(edge.src)
        dst_scope = sdict.get(edge.dst)
        if isinstance(edge.src, MapEntry):
            src_scope = edge.src
        if isinstance(edge.dst, MapExit):
            dst_scope = edge.dst.map
            # Normalize: the destination scope of an edge into an exit is the
            # scope the exit closes.
            dst_scope = state.entry_node_for_exit(edge.dst)
        if src_scope is not dst_scope and not isinstance(
            edge.dst, MapEntry
        ) and not isinstance(edge.src, MapExit):
            # Allowed: edges into an entry (outside -> boundary) and out of an
            # exit (boundary -> outside); anything else crossing scopes is
            # invalid.
            raise InvalidSDFGError(
                f"Edge {edge!r} crosses a map scope boundary without passing "
                "through the entry/exit node",
                sdfg=sdfg, state=state,
            )
