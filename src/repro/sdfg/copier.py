"""The structural copier: the one way to copy the dataflow IR.

Every copy of a program or of a part of one goes through here --
:meth:`SDFG.clone <repro.sdfg.sdfg.SDFG.clone>`, the cutouts of
:mod:`repro.core.cutout` and the unrolled states of
:func:`repro.transforms.base.copy_state_into`.  A copy rebuilds the topology
and every mutable carrier and shares the immutable leaves (expressions,
ranges, subsets, element types, enums, strings):

* a node gets a new ``__dict__`` with fresh connector sets and keeps its
  guid, so the copy can be diffed against the original;
* a :class:`~repro.sdfg.nodes.Map` is copied once per state copy, so a
  copied ``MapEntry`` and its ``MapExit`` still share one map (the scope
  index pairs them through it);
* memlets, data descriptors and interstate edges are copied by their
  ``clone`` (an interstate edge gets its own ``assignments`` dict);
* a state gets a new graph and no scope index;
* a program gets its own ``arrays`` / ``symbols`` / ``constants`` and its
  start state remapped.

The map table is the only memo: carriers form a tree over the shared leaves
(the graph's edges are rebuilt from a node table), so nothing else is
reached twice.  ``make lint-arch`` keeps :mod:`copy` out of the IR packages.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import Map, MapEntry, MapExit, Node
from repro.sdfg.sdfg import SDFG, InterstateEdge
from repro.sdfg.state import SDFGState

__all__ = ["clone_sdfg", "clone_state"]


def _clone_map(m: Map) -> Map:
    out = Map.__new__(Map)
    out.__dict__ = {**m.__dict__, "params": list(m.params), "ranges": list(m.ranges)}
    return out


def _clone_node(node: Node, maps: Dict[Map, Map]) -> Node:
    """``maps`` holds the copy of each map met so far in this state."""
    out = node.__class__.__new__(node.__class__)
    out.__dict__ = {
        **node.__dict__,
        "in_connectors": set(node.in_connectors),
        "out_connectors": set(node.out_connectors),
    }
    if isinstance(node, (MapEntry, MapExit)):
        m = maps.get(node.map)
        if m is None:
            m = maps[node.map] = _clone_map(node.map)
        out.map = m
    return out


def _clone_memlet(memlet: Optional[Memlet]) -> Optional[Memlet]:
    return None if memlet is None else memlet.clone()


def clone_state(state: SDFGState, nodes: Optional[Iterable[Node]] = None) -> SDFGState:
    """A copy of ``state`` -- or, given ``nodes``, of the subgraph they
    induce in it -- that belongs to no program yet."""
    maps: Dict[Map, Map] = {}
    node_map = {n: _clone_node(n, maps) for n in (state.nodes() if nodes is None else nodes)}
    out = SDFGState.__new__(SDFGState)
    out.__dict__ = {
        **state.__dict__,
        "graph": state.graph.copy(node_map, _clone_memlet),
        "_index": None,
    }
    return out


def clone_sdfg(sdfg: SDFG) -> SDFG:
    """A copy of the whole program ``sdfg`` (same name, same node guids)."""
    states = {s: clone_state(s) for s in sdfg.states()}
    out = SDFG.__new__(SDFG)
    out.__dict__ = {
        **sdfg.__dict__,
        "arrays": {name: desc.clone() for name, desc in sdfg.arrays.items()},
        "symbols": dict(sdfg.symbols),
        "constants": dict(sdfg.constants),
        "_states": sdfg._states.copy(states, InterstateEdge.clone),
        "_start_state": states.get(sdfg._start_state),
    }
    return out
