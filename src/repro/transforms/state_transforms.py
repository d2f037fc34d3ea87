"""Transformations on the control-flow state machine.

* :class:`LoopUnrolling` -- unrolls sequential loops with constant bounds;
  the buggy variant mis-computes the trip count of negative-step loops (the
  CLOUDSC finding of Sec. 6.4: a 4-iteration descending loop unrolled into
  too few body instances).
* :class:`StateAssignElimination` -- removes dead interstate symbol
  assignments; the buggy variant removes assignments that are still needed.
* :class:`SymbolAliasPromotion` -- replaces aliased symbols by their source
  symbol; the buggy variant forgets to rewrite dataflow uses before dropping
  the alias.
"""

from __future__ import annotations

import re
from typing import List

from repro.sdfg.analysis import LoopInfo, find_loops, states_reachable_from
from repro.sdfg.nodes import MapEntry, MapExit
from repro.sdfg.sdfg import SDFG, InterstateEdge
from repro.sdfg.state import SDFGState
from repro.symbolic.expressions import Symbol
from repro.transforms.base import (
    Match,
    PatternTransformation,
    TransformationError,
    copy_state_into,
    register_transformation,
)

__all__ = ["LoopUnrolling", "StateAssignElimination", "SymbolAliasPromotion"]


def _symbol_used_in_state(state: SDFGState, symbol: str) -> bool:
    return symbol in state.free_symbols


def _substitute_symbol_in_state(state: SDFGState, old: str, new: str) -> None:
    """Replace a symbol in all memlets and map ranges of a state."""
    mapping = {old: Symbol(new)}
    for edge in state.edges():
        if edge.data is not None and not edge.data.is_empty:
            edge.data = edge.data.subs(mapping)
    for node in state.nodes():
        if isinstance(node, (MapEntry, MapExit)):
            node.map.ranges = [r.subs(mapping) for r in node.map.ranges]


def _substitute_symbol_in_edge(edge_data: InterstateEdge, old: str, new: str) -> None:
    edge_data.condition = re.sub(rf"\b{re.escape(old)}\b", new, edge_data.condition)
    edge_data.assignments = {
        k: re.sub(rf"\b{re.escape(old)}\b", new, v)
        for k, v in edge_data.assignments.items()
    }


# ---------------------------------------------------------------------- #
@register_transformation
class LoopUnrolling(PatternTransformation):
    """Fully unroll a sequential loop with constant bounds.

    Buggy variant: derives the trip count from the loop condition assuming an
    exclusive ascending comparison, which drops iterations of negative-step
    loops (Sec. 6.4, "Loop Unrolling").
    """

    name = "LoopUnrolling"
    description = "Fully unrolls constant-bound sequential loops"
    builtin = False  # a custom optimization in the CLOUDSC case study

    def __init__(self, inject_bug: bool = False, max_iterations: int = 128) -> None:
        super().__init__(inject_bug=inject_bug)
        self.max_iterations = max_iterations

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches = []
        for loop in find_loops(sdfg):
            matches.append(
                Match(
                    self,
                    states=[loop.guard, loop.body],
                    metadata={"loop": loop},
                )
            )
        return matches

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        loop: LoopInfo = match.metadata["loop"]
        values = loop.iteration_values({})
        if values is None or not values or len(values) > self.max_iterations:
            return False
        # The body must be a simple single-entry/single-exit loop body.
        body_in = sdfg.in_edges(loop.body)
        body_out = sdfg.out_edges(loop.body)
        return len(body_in) == 1 and len(body_out) == 1

    # .................................................................. #
    def _unroll_values(self, loop: LoopInfo) -> List[int]:
        correct = loop.iteration_values({}) or []
        if not self.inject_bug:
            return correct
        # BUG: extract the bound from the condition and use an exclusive
        # ascending-style range regardless of the comparison direction.
        m = re.match(
            rf"\s*{re.escape(loop.loop_variable)}\s*(<=|>=|<|>)\s*(-?\d+)\s*$",
            loop.condition,
        )
        if not m:
            return correct
        bound = int(m.group(2))
        init = int(eval(loop.init_expression, {"__builtins__": {}}, {}))  # noqa: S307
        step_match = re.match(
            rf"\s*{re.escape(loop.loop_variable)}\s*([+-])\s*(\d+)\s*$",
            loop.increment_expression,
        )
        if not step_match:
            return correct
        step = int(step_match.group(2)) * (1 if step_match.group(1) == "+" else -1)
        if step > 0:
            # Ascending loops happen to be handled correctly by the buggy
            # implementation -- only negative-step loops are mis-unrolled,
            # matching the single failing instance found on CLOUDSC.
            return correct
        return list(range(init, bound, step))

    def apply(self, sdfg: SDFG, match: Match) -> None:
        loop: LoopInfo = match.metadata["loop"]
        values = self._unroll_values(loop)
        before = loop.init_edge.src
        after = loop.after

        # Remove the loop skeleton.
        for e in (loop.init_edge, loop.condition_edge, loop.exit_edge, loop.back_edge):
            if e in sdfg.edges():
                sdfg.remove_edge(e)
        # Preserve any assignments that arrived on the init edge other than
        # the loop variable itself.
        carried = {
            k: v
            for k, v in loop.init_edge.data.assignments.items()
            if k != loop.loop_variable
        }

        prev = before
        first_assign = dict(carried)
        for k, value in enumerate(values):
            inst = copy_state_into(sdfg, loop.body, f"{loop.body.label}_unrolled_{k}")
            assignments = dict(first_assign)
            assignments[loop.loop_variable] = str(value)
            first_assign = {}
            sdfg.add_edge(prev, inst, InterstateEdge(assignments=assignments))
            prev = inst
        if not values:
            sdfg.add_edge(prev, after, InterstateEdge(assignments=dict(carried)))
        else:
            sdfg.add_edge(prev, after, InterstateEdge())

        sdfg.remove_state(loop.body)
        sdfg.remove_state(loop.guard)

    def modified_states(self, sdfg: SDFG, match: Match) -> List[SDFGState]:
        loop: LoopInfo = match.metadata["loop"]
        return [loop.guard, loop.body]


# ---------------------------------------------------------------------- #
@register_transformation
class StateAssignElimination(PatternTransformation):
    """Remove dead symbol assignments from interstate edges.

    Buggy variant: only checks whether the symbol is *reassigned* downstream
    and never whether it is still used, so live assignments are removed as
    well -- executing the program then fails with an undefined symbol
    ("generates invalid code", Table 2 ὒ8).
    """

    name = "StateAssignElimination"
    description = "Program simplification: removes dead interstate assignments"

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches = []
        for edge in sdfg.edges():
            for symbol in sorted(edge.data.assignments.keys()):
                matches.append(
                    Match(
                        self,
                        states=[edge.src, edge.dst],
                        metadata={"edge": edge, "symbol": symbol},
                    )
                )
        return matches

    def _symbol_is_dead(self, sdfg: SDFG, edge, symbol: str) -> bool:
        dst = edge.dst
        if self.inject_bug:
            # BUG: only check whether the symbol is *reassigned* downstream
            # and never check whether it is still *used* -- live assignments
            # are removed, leaving undefined-symbol references behind.
            for e in sdfg.edges():
                if e is not edge and symbol in e.data.assignments:
                    return False
            return True
        # Correct: the symbol must be unused in the destination state, every
        # state reachable from it, and every interstate edge reachable from it
        # (conditions or right-hand sides of assignments).
        if _symbol_used_in_state(dst, symbol):
            return False
        reachable = states_reachable_from(sdfg, dst) | {dst}
        for state in reachable:
            if state is not dst and _symbol_used_in_state(state, symbol):
                return False
            for e in sdfg.out_edges(state):
                names = e.data.free_symbols
                if symbol in names:
                    return False
        return True

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        return self._symbol_is_dead(sdfg, match.metadata["edge"], match.metadata["symbol"])

    def apply(self, sdfg: SDFG, match: Match) -> None:
        edge = match.metadata["edge"]
        symbol = match.metadata["symbol"]
        if symbol not in edge.data.assignments:
            raise TransformationError(
                f"StateAssignElimination: '{symbol}' is not assigned on the edge"
            )
        del edge.data.assignments[symbol]

    def modified_states(self, sdfg: SDFG, match: Match) -> List[SDFGState]:
        edge = match.metadata["edge"]
        out = [edge.src, edge.dst]
        if not self.inject_bug:
            return out
        # The buggy variant can affect everything downstream; still report the
        # local change set (FuzzyFlow covers the rest via side-effect analysis).
        return out


# ---------------------------------------------------------------------- #
@register_transformation
class SymbolAliasPromotion(PatternTransformation):
    """Replace a symbol alias (``s2 = s1`` on an interstate edge) by its
    source symbol and drop the assignment.

    Buggy variant: rewrites interstate edges but forgets dataflow uses (map
    ranges and memlets), leaving references to the now-undefined alias --
    "generates invalid code" (Table 2 ὒ8).
    """

    name = "SymbolAliasPromotion"
    description = "Program simplification: promotes symbol aliases"

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches = []
        ident = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*$")
        for edge in sdfg.edges():
            for alias, expr in sorted(edge.data.assignments.items()):
                m = ident.match(expr)
                if not m:
                    continue
                source = m.group(1)
                if source == alias:
                    continue
                matches.append(
                    Match(
                        self,
                        states=[edge.src, edge.dst],
                        metadata={"edge": edge, "alias": alias, "source": source},
                    )
                )
        return matches

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        alias = match.metadata["alias"]
        source = match.metadata["source"]
        edge = match.metadata["edge"]
        # The alias must be assigned only on this edge, and the source symbol
        # must never be reassigned (otherwise the alias would capture an older
        # value and the promotion would not be meaning-preserving).
        for e in sdfg.edges():
            if e is not edge and alias in e.data.assignments:
                return False
            if source in e.data.assignments:
                return False
        # The alias must not collide with a data container.
        return alias not in sdfg.arrays and source not in sdfg.arrays

    def apply(self, sdfg: SDFG, match: Match) -> None:
        alias = match.metadata["alias"]
        source = match.metadata["source"]
        edge = match.metadata["edge"]
        # Rewrite every use of the alias downstream of the edge.
        targets = states_reachable_from(sdfg, edge.dst) | {edge.dst}
        for state in targets:
            if not self.inject_bug:
                _substitute_symbol_in_state(state, alias, source)
            # BUG: dataflow uses (map ranges, memlet subsets) are skipped.
            for e in sdfg.out_edges(state):
                _substitute_symbol_in_edge(e.data, alias, source)
        del edge.data.assignments[alias]

    def modified_states(self, sdfg: SDFG, match: Match) -> List[SDFGState]:
        edge = match.metadata["edge"]
        out = [edge.src, edge.dst]
        out.extend(s for s in states_reachable_from(sdfg, edge.dst) if s not in out)
        return out
