"""Fusion-style transformations: tasklet fusion, map-reduce fusion, and
redundant-write elimination.

These are the "removes temporary writes / intermediate buffers" family of
optimizations from Table 2 and the CLOUDSC write-elimination case study
(Sec. 6.4).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, Node, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState, propagate_memlet
from repro.symbolic.expressions import Symbol
from repro.transforms.base import (
    Match,
    PatternTransformation,
    TransformationError,
    register_transformation,
)

__all__ = ["TaskletFusion", "MapReduceFusion", "RedundantWriteElimination"]


def _rename_identifier(code: str, old: str, new: str) -> str:
    """Rename a variable in tasklet code (word-boundary aware)."""
    return re.sub(rf"\b{re.escape(old)}\b", new, code)


def _container_access_count(sdfg: SDFG, data: str) -> int:
    """Number of access nodes referring to a container across the program."""
    count = 0
    for state in sdfg.states():
        for node in state.data_nodes():
            if node.data == data:
                count += 1
    return count


def _find_producer_consumer_chains(
    sdfg: SDFG, transformation: PatternTransformation
) -> List[Match]:
    """Find ``tasklet -> transient access -> tasklet`` chains in one scope."""
    matches: List[Match] = []
    for state in sdfg.states():
        sdict = state.scope_dict()
        for acc in state.data_nodes():
            desc = sdfg.arrays.get(acc.data)
            if desc is None or not desc.transient:
                continue
            in_edges = state.in_edges(acc)
            out_edges = state.out_edges(acc)
            if len(in_edges) != 1 or len(out_edges) != 1:
                continue
            producer, consumer = in_edges[0].src, out_edges[0].dst
            if not isinstance(producer, Tasklet) or not isinstance(consumer, Tasklet):
                continue
            if sdict.get(producer) is not sdict.get(consumer):
                continue
            if sdict.get(acc) is not sdict.get(producer):
                continue
            matches.append(
                Match(
                    transformation,
                    state=state,
                    nodes={"first": producer, "access": acc, "second": consumer},
                )
            )
    return matches


def _fuse_chain(
    sdfg: SDFG,
    state: SDFGState,
    first: Tasklet,
    access: AccessNode,
    second: Tasklet,
    forward_wrong_operand: bool = False,
) -> Tasklet:
    """Fuse ``first -> access -> second`` into a single tasklet.

    With ``forward_wrong_operand`` the consumer's connector is bound to the
    producer's *input* instead of its result -- the injected change-in-
    semantics bug of the TaskletFusion entry in Table 2.
    """
    in_edge = state.in_edges(access)[0]
    out_edge = state.out_edges(access)[0]
    produced_conn = in_edge.src_conn
    consumed_conn = out_edge.dst_conn
    if produced_conn is None or consumed_conn is None:
        raise TransformationError("TaskletFusion: chain edges must use connectors")

    # Rename all connectors to collision-free names.
    code1 = first.code
    code2 = second.code
    new_inputs: Dict[str, Tuple[Tasklet, str]] = {}
    for conn in sorted(first.in_connectors):
        new = f"__in1_{conn}"
        code1 = _rename_identifier(code1, conn, new)
        new_inputs[new] = (first, conn)
    for conn in sorted(second.in_connectors):
        if conn == consumed_conn:
            continue
        new = f"__in2_{conn}"
        code2 = _rename_identifier(code2, conn, new)
        new_inputs[new] = (second, conn)
    new_outputs: Dict[str, Tuple[Tasklet, str]] = {}
    for conn in sorted(second.out_connectors):
        new = f"__out2_{conn}"
        code2 = _rename_identifier(code2, conn, new)
        new_outputs[new] = (second, conn)
    # Producer outputs other than the fused one stay visible.
    for conn in sorted(first.out_connectors):
        if conn == produced_conn:
            continue
        new = f"__out1_{conn}"
        code1 = _rename_identifier(code1, conn, new)
        new_outputs[new] = (first, conn)

    # The intermediate value.
    code1 = _rename_identifier(code1, produced_conn, "__fused_tmp")
    if forward_wrong_operand and first.in_connectors:
        # BUG: bind the consumer to the producer's first input operand rather
        # than the produced value.
        wrong = f"__in1_{sorted(first.in_connectors)[0]}"
        code2 = _rename_identifier(code2, consumed_conn, wrong)
    else:
        code2 = _rename_identifier(code2, consumed_conn, "__fused_tmp")

    fused = state.add_tasklet(
        f"{first.label}_{second.label}_fused",
        list(new_inputs.keys()),
        list(new_outputs.keys()),
        code1 + "\n" + code2,
        side_effect_callback=first.side_effect_callback or second.side_effect_callback,
    )

    # Rewire inputs.
    for new_conn, (orig_node, orig_conn) in new_inputs.items():
        for e in state.in_edges(orig_node):
            if e.dst_conn == orig_conn:
                state.add_edge(e.src, e.src_conn, fused, new_conn, e.data)
    # Rewire outputs.
    for new_conn, (orig_node, orig_conn) in new_outputs.items():
        for e in state.out_edges(orig_node):
            if e.src_conn == orig_conn:
                state.add_edge(fused, new_conn, e.dst, e.dst_conn, e.data)

    state.remove_node(first)
    state.remove_node(second)
    state.remove_node(access)
    # Drop the temporary container if nothing else uses it.
    if _container_access_count(sdfg, access.data) == 0:
        try:
            sdfg.remove_data(access.data)
        except Exception:  # pragma: no cover - defensive
            pass
    return fused


# ---------------------------------------------------------------------- #
@register_transformation
class TaskletFusion(PatternTransformation):
    """Fuse two tasklets connected through a single-use temporary.

    Buggy variant: forwards the wrong operand into the consumer (a silent
    change in semantics, Table 2 ✗).
    """

    name = "TaskletFusion"
    description = "Removes temporary writes between adjacent computations"

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        return _find_producer_consumer_chains(sdfg, self)

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        acc: AccessNode = match.nodes["access"]
        # The temporary must not be used anywhere else in the program.
        return _container_access_count(sdfg, acc.data) == 1

    def apply(self, sdfg: SDFG, match: Match) -> None:
        _fuse_chain(
            sdfg,
            match.state,
            match.nodes["first"],
            match.nodes["access"],
            match.nodes["second"],
            forward_wrong_operand=self.inject_bug,
        )


# ---------------------------------------------------------------------- #
@register_transformation
class RedundantWriteElimination(PatternTransformation):
    """Eliminate an intermediate write by subsuming the producer into the
    consumer (the CLOUDSC "write elimination" optimization of Sec. 6.4).

    The faithful variant refuses to eliminate writes to containers that are
    accessed anywhere else in the program.  The buggy variant skips that
    check, so a write whose value is read again later silently disappears --
    the exact failure the paper reports (1 faulty instance out of 136 on
    CLOUDSC).
    """

    name = "RedundantWriteElimination"
    description = "Removes temporary write operations between computations"
    builtin = False  # a custom optimization in the CLOUDSC case study

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        return _find_producer_consumer_chains(sdfg, self)

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        if self.inject_bug:
            # BUG: no check whether the temporary is read again later.
            return True
        acc: AccessNode = match.nodes["access"]
        return _container_access_count(sdfg, acc.data) == 1

    def apply(self, sdfg: SDFG, match: Match) -> None:
        _fuse_chain(
            sdfg,
            match.state,
            match.nodes["first"],
            match.nodes["access"],
            match.nodes["second"],
            forward_wrong_operand=False,
        )


# ---------------------------------------------------------------------- #
@register_transformation
class MapReduceFusion(PatternTransformation):
    """Fuse an element-wise producer map with a following reduction map,
    removing the intermediate buffer.

    Buggy variant: removes the intermediate container from the program while
    a memlet still refers to it -- "generates invalid code" (Table 2 ὒ8).
    """

    name = "MapReduceFusion"
    description = "Removes intermediate buffers for reductions"

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for state in sdfg.states():
            sdict = state.scope_dict()
            for acc in state.data_nodes():
                desc = sdfg.arrays.get(acc.data)
                if desc is None or not desc.transient or sdict.get(acc) is not None:
                    continue
                in_edges = state.in_edges(acc)
                out_edges = state.out_edges(acc)
                if len(in_edges) != 1 or len(out_edges) != 1:
                    continue
                if not isinstance(in_edges[0].src, MapExit):
                    continue
                if not isinstance(out_edges[0].dst, MapEntry):
                    continue
                first_exit: MapExit = in_edges[0].src
                second_entry: MapEntry = out_edges[0].dst
                first_entry = state.entry_node_for_exit(first_exit)
                info = self._reduction_info(sdfg, state, second_entry, acc.data)
                if info is None:
                    continue
                matches.append(
                    Match(
                        self,
                        state=state,
                        nodes={
                            "first_map_entry": first_entry,
                            "first_map_exit": first_exit,
                            "buffer": acc,
                            "second_map_entry": second_entry,
                        },
                        metadata=info,
                    )
                )
        return matches

    def _reduction_info(
        self, sdfg: SDFG, state: SDFGState, entry: MapEntry, buffer_name: str
    ) -> Optional[Dict]:
        """Check the consumer map is an identity-tasklet reduction over the
        buffer and collect its output memlet."""
        inner = state.scope_subgraph_nodes(entry, include_boundary=False)
        tasklets = [n for n in inner if isinstance(n, Tasklet)]
        if len(tasklets) != 1 or any(isinstance(n, MapEntry) for n in inner):
            return None
        t = tasklets[0]
        if len(t.in_connectors) != 1 or len(t.out_connectors) != 1:
            return None
        in_conn = next(iter(t.in_connectors))
        out_conn = next(iter(t.out_connectors))
        if t.code.strip() != f"{out_conn} = {in_conn}":
            return None
        in_edge = next(
            (e for e in state.in_edges(t) if e.dst_conn == in_conn), None
        )
        out_edge = next(
            (e for e in state.out_edges(t) if e.src_conn == out_conn), None
        )
        if in_edge is None or out_edge is None:
            return None
        if in_edge.data.data != buffer_name or out_edge.data.wcr is None:
            return None
        # The buffer must be read at the plain map-parameter index.
        params = entry.map.params
        subset = in_edge.data.subset
        if subset.dims != len(params):
            return None
        for p, r in zip(params, subset.ranges):
            if not (r.is_point() and r.begin == Symbol(p)):
                return None
        exit_ = state.exit_node(entry)
        outer_out = next(
            (e for e in state.out_edges(exit_) if not e.data.is_empty), None
        )
        if outer_out is None or not isinstance(outer_out.dst, AccessNode):
            return None
        return {
            "reduce_params": list(params),
            "reduce_output_memlet": out_edge.data,
            "reduce_target": outer_out.dst.data,
            "reduce_target_node": outer_out.dst,
        }

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        state = match.state
        first_entry: MapEntry = match.nodes["first_map_entry"]
        buffer: AccessNode = match.nodes["buffer"]
        # The producer must write the buffer at plain parameter indices so the
        # parameter substitution below is exact.
        inner = state.scope_subgraph_nodes(first_entry, include_boundary=False)
        tasklets = [n for n in inner if isinstance(n, Tasklet)]
        if len(tasklets) != 1:
            return False
        t = tasklets[0]
        out_edges = [e for e in state.out_edges(t) if e.data.data == buffer.data]
        if len(out_edges) != 1:
            return False
        params = first_entry.map.params
        subset = out_edges[0].data.subset
        if subset.dims != len(params) or len(params) != len(match.metadata["reduce_params"]):
            return False
        return all(
            r.is_point() and r.begin == Symbol(p) for p, r in zip(params, subset.ranges)
        )

    def apply(self, sdfg: SDFG, match: Match) -> None:
        state = match.state
        first_entry: MapEntry = match.nodes["first_map_entry"]
        first_exit: MapExit = match.nodes["first_map_exit"]
        buffer: AccessNode = match.nodes["buffer"]
        second_entry: MapEntry = match.nodes["second_map_entry"]
        second_exit = state.exit_node(second_entry)

        reduce_memlet: Memlet = match.metadata["reduce_output_memlet"]
        reduce_params: List[str] = match.metadata["reduce_params"]
        target: str = match.metadata["reduce_target"]

        # Re-express the reduction output subset in the producer's parameters.
        substitution = {
            rp: Symbol(fp) for rp, fp in zip(reduce_params, first_entry.map.params)
        }
        new_out_subset = reduce_memlet.subset.subs(substitution)

        # Redirect the producer tasklet's write to the reduction target.
        inner = state.scope_subgraph_nodes(first_entry, include_boundary=False)
        producer = next(n for n in inner if isinstance(n, Tasklet))
        for e in state.out_edges(producer):
            if e.data.data == buffer.data:
                e.data = Memlet(target, new_out_subset, wcr=reduce_memlet.wcr)

        # Rewire the producer's exit to write the reduction target directly.
        target_access: AccessNode = match.metadata["reduce_target_node"]
        if not self.inject_bug:
            for e in list(state.out_edges(first_exit)):
                if e.data is not None and e.data.data == buffer.data:
                    state.remove_edge(e)
                    outer = propagate_memlet(
                        Memlet(target, new_out_subset, wcr=reduce_memlet.wcr),
                        first_entry.map,
                    )
                    state.add_edge(first_exit, e.src_conn, target_access, None, outer)
        # BUG (inject_bug): the boundary edge keeps referring to the buffer
        # container even though the container is deleted below.

        # Remove the consumer map scope.
        for n in state.scope_subgraph_nodes(second_entry, include_boundary=True):
            if state.graph.has_node(n):
                state.remove_node(n)

        # Drop the intermediate container.
        if self.inject_bug:
            # BUG: unconditionally delete the container even though boundary
            # memlets still reference it -> structurally invalid program.
            sdfg.arrays.pop(buffer.data, None)
        else:
            state.remove_node(buffer)
            if _container_access_count(sdfg, buffer.data) == 0:
                referenced = any(
                    e.data is not None and not e.data.is_empty and e.data.data == buffer.data
                    for st in sdfg.states()
                    for e in st.edges()
                )
                if not referenced:
                    sdfg.remove_data(buffer.data)

    def modified_nodes(self, sdfg: SDFG, match: Match) -> List[Tuple[SDFGState, Node]]:
        state = match.state
        out = []
        for key in ("first_map_entry", "second_map_entry"):
            entry: MapEntry = match.nodes[key]
            out.extend((state, n) for n in state.scope_subgraph_nodes(entry))
        out.append((state, match.nodes["buffer"]))
        return out
