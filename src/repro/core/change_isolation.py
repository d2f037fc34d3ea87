"""Change isolation (Sec. 3, step 2): determining the change set ΔT.

Two modes are provided, mirroring the paper:

* **white box** -- the transformation self-reports the nodes/states it will
  modify (:meth:`PatternTransformation.modified_nodes` /
  :meth:`~PatternTransformation.modified_states`).  This is how DaCe
  transformations expose their pattern, and it is the one the verifier uses.
* **black box** -- the change set is recovered by diffing the program graph
  before and after applying the transformation to a throw-away copy.  Nodes
  are matched by their guid (which survives copies); nodes whose fingerprint
  changed, nodes that only exist on one side, and the endpoints of
  added/removed/modified edges are all part of ΔT.  It audits the white box:
  on every registered instance, the cutout ``extract_cutout(sdfg, nodes=,
  states=)`` builds from it lies inside the white-box cutout
  (``tests/test_black_box_audit.py``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.sdfg.nodes import Node
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.transforms.base import Match, PatternTransformation

__all__ = ["white_box_change_set", "black_box_change_set", "graph_diff_nodes"]


def white_box_change_set(
    sdfg: SDFG, transformation: PatternTransformation, match: Match
) -> Tuple[List[Tuple[SDFGState, Node]], List[SDFGState]]:
    """ΔT as self-reported by the transformation."""
    return (
        transformation.modified_nodes(sdfg, match),
        transformation.modified_states(sdfg, match),
    )


def _edge_key(state_nodes: Dict[int, int], edge) -> Tuple:
    """A comparable identity for an edge based on endpoint guids."""
    memlet = edge.data
    return (
        edge.src.guid,
        edge.dst.guid,
        edge.src_conn,
        edge.dst_conn,
        None if memlet is None else str(memlet),
    )


def graph_diff_nodes(original: SDFG, transformed: SDFG) -> Dict[str, Set[int]]:
    """Diff two program graphs node-by-node (matched by guid).

    Returns guid sets: ``modified`` (fingerprint changed), ``removed`` (only
    in the original), ``added`` (only in the transformed), and
    ``edge_endpoints`` (guids of original nodes adjacent to changed edges).
    """
    orig_nodes: Dict[int, Tuple[SDFGState, Node]] = {
        n.guid: (s, n) for s, n in original.all_nodes()
    }
    new_nodes: Dict[int, Tuple[SDFGState, Node]] = {
        n.guid: (s, n) for s, n in transformed.all_nodes()
    }

    modified: Set[int] = set()
    for guid, (_, node) in orig_nodes.items():
        if guid in new_nodes and new_nodes[guid][1].fingerprint() != node.fingerprint():
            modified.add(guid)
    removed = set(orig_nodes) - set(new_nodes)
    added = set(new_nodes) - set(orig_nodes)

    # Edge-level diff per matching state (by label).
    edge_endpoints: Set[int] = set()
    new_states = {s.label: s for s in transformed.states()}
    for state in original.states():
        other = new_states.get(state.label)
        if other is None:
            # Whole state removed: every node in it is affected.
            edge_endpoints |= {n.guid for n in state.nodes()}
            continue
        orig_edges = {(_edge_key({}, e)) for e in state.edges()}
        new_edges = {(_edge_key({}, e)) for e in other.edges()}
        for key in orig_edges ^ new_edges:
            src_guid, dst_guid = key[0], key[1]
            edge_endpoints.add(src_guid)
            edge_endpoints.add(dst_guid)

    return {
        "modified": modified,
        "removed": removed,
        "added": added,
        "edge_endpoints": edge_endpoints,
    }


def black_box_change_set(
    sdfg: SDFG, transformation: PatternTransformation, match: Match
) -> Tuple[List[Tuple[SDFGState, Node]], List[SDFGState]]:
    """ΔT recovered by applying the transformation to a copy and diffing.

    The returned nodes/states refer to the *original* program, so the result
    is directly comparable to (and interchangeable with) the white-box change
    set.
    """
    from repro.core.cutout import transfer_match  # late import, avoids cycle

    probe = sdfg.clone()
    probe_match = transfer_match(transformation, match, probe)
    transformation.apply(probe, probe_match)

    diff = graph_diff_nodes(sdfg, probe)
    affected_guids = (
        diff["modified"] | diff["removed"] | (diff["edge_endpoints"] - diff["added"])
    )

    nodes: List[Tuple[SDFGState, Node]] = []
    states: List[SDFGState] = []
    for state, node in sdfg.all_nodes():
        if node.guid in affected_guids:
            nodes.append((state, node))
            if state not in states:
                states.append(state)

    # States whose interstate edges changed are also affected.
    orig_edge_sigs = {
        (e.src.label, e.dst.label, e.data.condition, tuple(sorted(e.data.assignments.items())))
        for e in sdfg.edges()
    }
    probe_edge_sigs = {
        (e.src.label, e.dst.label, e.data.condition, tuple(sorted(e.data.assignments.items())))
        for e in probe.edges()
    }
    changed_labels: Set[str] = set()
    for sig in orig_edge_sigs ^ probe_edge_sigs:
        changed_labels.add(sig[0])
        changed_labels.add(sig[1])
    probe_labels = {s.label for s in probe.states()}
    for state in sdfg.states():
        if state.label in changed_labels or state.label not in probe_labels:
            if state not in states:
                states.append(state)

    return nodes, states
