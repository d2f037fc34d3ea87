"""Whole-program analyses on the SDFG state machine.

Currently provides:

* sequential-loop detection (the guard/body/back-edge pattern created by
  :meth:`repro.sdfg.sdfg.SDFG.add_loop`), used by the loop-unrolling
  transformation and by the gray-box constraint analysis (loop bounds
  constrain the values a loop variable can take, Sec. 5.1),
* state reachability helpers used by the side-effect analyses (Sec. 3.1),
* elementwise scope-chain discovery (candidate producer/consumer map scopes
  for the vectorized backend's scope fusion).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.sdfg.graph import Edge
from repro.sdfg.nodes import AccessNode, MapEntry
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState

__all__ = [
    "LoopInfo",
    "find_loops",
    "states_reachable_from",
    "states_reaching",
    "loop_variable_bounds",
    "elementwise_scope_chains",
    "access_node_is_transparent",
]


@dataclass
class LoopInfo:
    """A detected sequential loop in the state machine."""

    guard: SDFGState
    body: SDFGState
    after: SDFGState
    init_edge: Edge
    condition_edge: Edge
    exit_edge: Edge
    back_edge: Edge
    loop_variable: str
    init_expression: str
    condition: str
    increment_expression: str

    def iteration_values(self, symbols: Dict[str, int]) -> Optional[List[int]]:
        """The concrete sequence of loop-variable values, if computable."""
        ns = dict(symbols)
        try:
            ns[self.loop_variable] = eval(  # noqa: S307
                compile(self.init_expression, "<loop-init>", "eval"), {"__builtins__": {}}, ns
            )
        except Exception:
            return None
        values: List[int] = []
        cond_code = compile(self.condition, "<loop-cond>", "eval")
        incr_code = compile(self.increment_expression, "<loop-incr>", "eval")
        try:
            while eval(cond_code, {"__builtins__": {}}, ns):  # noqa: S307
                values.append(ns[self.loop_variable])
                if len(values) > 1_000_000:
                    return None
                ns[self.loop_variable] = eval(incr_code, {"__builtins__": {}}, ns)  # noqa: S307
        except Exception:
            return None
        return values


def find_loops(sdfg: SDFG) -> List[LoopInfo]:
    """Detect sequential loops following the guard-state pattern.

    A guard state ``G`` forms a loop if it has exactly two outgoing edges --
    one conditional edge to a body state ``B`` and one to an exit state with
    the negated condition -- and there is a back edge ``B -> G`` whose
    assignments update a variable that is also assigned on some incoming edge
    of ``G`` from outside the loop (the init edge).
    """
    loops: List[LoopInfo] = []
    for guard in sdfg.states():
        out = sdfg.out_edges(guard)
        if len(out) != 2:
            continue
        cond_edge: Optional[Edge] = None
        exit_edge: Optional[Edge] = None
        for a, b in ((out[0], out[1]), (out[1], out[0])):
            ca, cb = a.data.condition.strip(), b.data.condition.strip()
            if cb == f"not ({ca})" or ca == f"not ({cb})":
                if cb == f"not ({ca})":
                    cond_edge, exit_edge = a, b
                else:
                    cond_edge, exit_edge = b, a
                break
        if cond_edge is None or exit_edge is None:
            continue
        body = cond_edge.dst
        after = exit_edge.dst
        if body is guard or after is body:
            continue
        # Find the back edge: an incoming edge of the guard from a state
        # reachable from the body (or the body itself) with assignments.
        back_edge: Optional[Edge] = None
        init_edge: Optional[Edge] = None
        body_reach = states_reachable_from(sdfg, body, stop_at=guard)
        for e in sdfg.in_edges(guard):
            if e.src is body or e.src in body_reach:
                if e.data.assignments:
                    back_edge = e
            else:
                init_edge = e
        if back_edge is None or init_edge is None:
            continue
        # The loop variable is assigned on both the init and the back edge.
        candidates = set(back_edge.data.assignments) & set(init_edge.data.assignments)
        if not candidates:
            continue
        # Prefer a variable that appears in the condition.
        loop_var = None
        cond_syms = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", cond_edge.data.condition))
        for c in sorted(candidates):
            if c in cond_syms:
                loop_var = c
                break
        if loop_var is None:
            loop_var = sorted(candidates)[0]
        loops.append(
            LoopInfo(
                guard=guard,
                body=body,
                after=after,
                init_edge=init_edge,
                condition_edge=cond_edge,
                exit_edge=exit_edge,
                back_edge=back_edge,
                loop_variable=loop_var,
                init_expression=init_edge.data.assignments[loop_var],
                condition=cond_edge.data.condition,
                increment_expression=back_edge.data.assignments[loop_var],
            )
        )
    return loops


def states_reachable_from(
    sdfg: SDFG, state: SDFGState, stop_at: Optional[SDFGState] = None
) -> Set[SDFGState]:
    """States reachable from ``state`` (not crossing ``stop_at``)."""
    visited: Set[SDFGState] = set()
    stack = [state]
    while stack:
        cur = stack.pop()
        for e in sdfg.out_edges(cur):
            nxt = e.dst
            if nxt is stop_at or nxt in visited:
                continue
            visited.add(nxt)
            stack.append(nxt)
    visited.discard(state)
    return visited


def states_reaching(sdfg: SDFG, state: SDFGState) -> Set[SDFGState]:
    """States from which ``state`` is reachable."""
    visited: Set[SDFGState] = set()
    stack = [state]
    while stack:
        cur = stack.pop()
        for e in sdfg.in_edges(cur):
            prv = e.src
            if prv in visited:
                continue
            visited.add(prv)
            stack.append(prv)
    visited.discard(state)
    return visited


def loop_variable_bounds(sdfg: SDFG, symbols: Dict[str, int]) -> Dict[str, Tuple[int, int]]:
    """Concrete (min, max) bounds of each sequential-loop variable.

    Used by the gray-box constraint analysis: when a cutout was extracted
    from inside a loop, the loop variable's observed range constrains the
    values worth sampling for it.
    """
    bounds: Dict[str, Tuple[int, int]] = {}
    for loop in find_loops(sdfg):
        values = loop.iteration_values(symbols)
        if values:
            bounds[loop.loop_variable] = (min(values), max(values))
    return bounds


# ---------------------------------------------------------------------- #
# Elementwise scope chains (scope-fusion candidates)
# ---------------------------------------------------------------------- #
#
# The vectorized backend executes each map scope as a handful of whole-array
# operations; a *chain* of elementwise scopes (producer writes B, consumer
# reads B over the same iteration domain) still pays one gather, one scatter
# and one grid construction per scope, plus the materialization of every
# intermediate array.  Scope fusion collapses such a chain into a single
# vectorized execution.  This pass finds the *structural* candidates; the
# data-dependence legality checks (matching subsets, no WCR-feeding reads,
# no cross-iteration hazards) live with the vectorized planner, which has
# the per-scope memlet plans in hand.


def access_node_is_transparent(state: SDFGState, node: AccessNode) -> bool:
    """Whether executing this top-level access node is a no-op.

    The interpreter only performs work for an access node when it has an
    incoming copy edge from *another access node* with a non-empty memlet;
    plain pass-through nodes between a map exit and the next map entry do
    nothing and therefore cannot order-separate two fused scopes.
    """
    for edge in state.in_edges(node):
        if isinstance(edge.src, AccessNode) and edge.data is not None and not edge.data.is_empty:
            return False
    return True


def elementwise_scope_chains(state: SDFGState) -> List[List[MapEntry]]:
    """Runs of fusable-candidate top-level map scopes in execution order.

    A chain is a maximal sequence of two or more top-level map entries such
    that

    * consecutive members are separated only by *transparent* nodes in the
      state's topological execution order (map exits, and access nodes whose
      execution is a no-op) -- any other node (a top-level tasklet, an
      access-to-access copy) executes between the scopes and breaks the
      chain, and
    * every member has the same map parameter names and textually identical
      iteration ranges, so their iteration domains coincide point for point.

    Whether a candidate chain is actually *legal* to fuse additionally
    depends on its memlets (the vectorized planner's job); this pass is
    purely structural and safe to call on any acyclic state.
    """

    def signature(entry: MapEntry) -> Tuple:
        return (
            tuple(entry.map.params),
            tuple((str(r.begin), str(r.end), str(r.step)) for r in entry.map.ranges),
        )

    chains: List[List[MapEntry]] = []
    run: List[MapEntry] = []

    def close() -> None:
        if len(run) >= 2:
            chains.append(list(run))
        run.clear()

    # Top-level nodes only: the rest are ordered by their entry, and map
    # exits pair with an entry already in (or before) the run.
    for node in state.scope_children().get(None, ()):
        if isinstance(node, MapEntry):
            if run and signature(node) != signature(run[0]):
                close()
            run.append(node)
        elif isinstance(node, AccessNode) and access_node_is_transparent(state, node):
            continue
        else:
            close()
    close()
    return chains
