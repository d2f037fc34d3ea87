"""JSON (de)serialization of SDFGs.

Serialization is used to persist extracted cutouts as fully reproducible test
cases (together with the fault-inducing inputs), and by tests to check that a
program round-trips losslessly.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.sdfg.data import data_from_dict
from repro.sdfg.dtypes import ScheduleType
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, Map, MapEntry, MapExit, Node, Tasklet
from repro.sdfg.sdfg import SDFG, InterstateEdge
from repro.sdfg.state import SDFGState
from repro.symbolic.ranges import Range

__all__ = [
    "sdfg_to_dict",
    "sdfg_from_dict",
    "sdfg_to_json",
    "sdfg_from_json",
    "node_to_dict",
    "node_from_dict",
]


def sdfg_to_json(sdfg: "SDFG") -> str:
    """Serialize an SDFG to a JSON string.

    The sweep pipeline ships custom (non-suite) workloads to worker
    processes as JSON strings, since SDFG object graphs are not guaranteed
    to be picklable across process boundaries."""
    return json.dumps(sdfg_to_dict(sdfg))


def sdfg_from_json(text: str) -> "SDFG":
    """Deserialize an SDFG from a JSON string."""
    return sdfg_from_dict(json.loads(text))


def node_to_dict(node: Node, node_id: int) -> Dict:
    """Serialize a dataflow node."""
    base = {
        "id": node_id,
        "guid": node.guid,
        "label": node.label,
        "in_connectors": sorted(node.in_connectors),
        "out_connectors": sorted(node.out_connectors),
    }
    if isinstance(node, AccessNode):
        base["type"] = "AccessNode"
        base["data"] = node.data
    elif isinstance(node, Tasklet):
        base["type"] = "Tasklet"
        base["code"] = node.code
        base["language"] = node.language
        base["side_effect_callback"] = node.side_effect_callback
    elif isinstance(node, MapEntry):
        base["type"] = "MapEntry"
        base["map"] = _map_to_dict(node.map)
    elif isinstance(node, MapExit):
        base["type"] = "MapExit"
        base["map"] = _map_to_dict(node.map)
    else:  # pragma: no cover - future node types
        raise TypeError(f"Cannot serialize node of type {type(node).__name__}")
    return base


def _map_to_dict(m: Map) -> Dict:
    return {
        "label": m.label,
        "params": list(m.params),
        "ranges": [str(r) for r in m.ranges],
        "schedule": m.schedule.value,
    }


def _map_from_dict(d: Dict) -> Map:
    return Map(
        d["label"],
        d["params"],
        [Range.from_string(r) for r in d["ranges"]],
        ScheduleType(d.get("schedule", "Sequential")),
    )


def node_from_dict(d: Dict, map_registry: Dict[int, Map]) -> Node:
    """Deserialize a dataflow node.  ``map_registry`` shares Map objects
    between matching entry/exit pairs (keyed by the entry node guid)."""
    ntype = d["type"]
    if ntype == "AccessNode":
        node: Node = AccessNode(d["data"])
    elif ntype == "Tasklet":
        node = Tasklet(
            d["label"],
            d["in_connectors"],
            d["out_connectors"],
            d["code"],
            language=d.get("language", "python"),
            side_effect_callback=d.get("side_effect_callback", False),
        )
    elif ntype in ("MapEntry", "MapExit"):
        key = (d["map"]["label"], tuple(d["map"]["params"]), tuple(d["map"]["ranges"]))
        m = map_registry.get(key)
        if m is None:
            m = _map_from_dict(d["map"])
            map_registry[key] = m
        node = MapEntry(m) if ntype == "MapEntry" else MapExit(m)
    else:
        raise TypeError(f"Cannot deserialize node of type {ntype}")
    node.guid = d.get("guid", node.guid)
    node.in_connectors = set(d.get("in_connectors", []))
    node.out_connectors = set(d.get("out_connectors", []))
    node.label = d.get("label", node.label)
    return node


def state_to_dict(state: SDFGState) -> Dict:
    nodes = state.nodes()
    node_ids = {node: i for i, node in enumerate(nodes)}
    return {
        "label": state.label,
        "nodes": [node_to_dict(n, node_ids[n]) for n in nodes],
        "edges": [
            {
                "src": node_ids[e.src],
                "dst": node_ids[e.dst],
                "src_conn": e.src_conn,
                "dst_conn": e.dst_conn,
                "memlet": e.data.to_dict() if e.data is not None else None,
            }
            for e in state.edges()
        ],
    }


def state_from_dict(d: Dict, sdfg: SDFG) -> SDFGState:
    state = SDFGState(d["label"])
    map_registry: Dict = {}
    nodes_by_id: Dict[int, Node] = {}
    for nd in d["nodes"]:
        node = node_from_dict(nd, map_registry)
        nodes_by_id[nd["id"]] = node
        state.add_node(node)
    for ed in d["edges"]:
        memlet = Memlet.from_dict(ed["memlet"]) if ed["memlet"] is not None else Memlet.empty()
        state.graph.add_edge(
            nodes_by_id[ed["src"]],
            nodes_by_id[ed["dst"]],
            memlet,
            ed.get("src_conn"),
            ed.get("dst_conn"),
        )
    return state


def sdfg_to_dict(sdfg: SDFG) -> Dict:
    states = sdfg.states()
    state_ids = {s: i for i, s in enumerate(states)}
    return {
        "type": "SDFG",
        "name": sdfg.name,
        "arrays": {name: desc.to_dict() for name, desc in sdfg.arrays.items()},
        "symbols": {name: t.name for name, t in sdfg.symbols.items()},
        "constants": dict(sdfg.constants),
        "start_state": state_ids[sdfg.start_state] if states else None,
        "states": [state_to_dict(s) for s in states],
        "edges": [
            {
                "src": state_ids[e.src],
                "dst": state_ids[e.dst],
                "data": e.data.to_dict(),
            }
            for e in sdfg.edges()
        ],
    }


def sdfg_from_dict(d: Dict) -> SDFG:
    sdfg = SDFG(d["name"])
    for name, desc in d.get("arrays", {}).items():
        sdfg.arrays[name] = data_from_dict(desc)
    for name, tname in d.get("symbols", {}).items():
        sdfg.add_symbol(name, tname)
    sdfg.constants = dict(d.get("constants", {}))
    states_by_id: Dict[int, SDFGState] = {}
    for i, sd in enumerate(d.get("states", [])):
        state = state_from_dict(sd, sdfg)
        sdfg._states.add_node(state)
        states_by_id[i] = state
    for ed in d.get("edges", []):
        sdfg.add_edge(
            states_by_id[ed["src"]],
            states_by_id[ed["dst"]],
            InterstateEdge.from_dict(ed["data"]),
        )
    if d.get("start_state") is not None and states_by_id:
        sdfg._start_state = states_by_id[d["start_state"]]
    elif states_by_id:
        sdfg._start_state = states_by_id[0]
    return sdfg
