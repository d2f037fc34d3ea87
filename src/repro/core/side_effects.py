"""Side-effect analysis: system state and input configuration (Sec. 3.1/3.2).

Given the set of nodes (or states) forming a cutout, this module determines

* the **system state**: every container (or subset thereof) written inside
  the cutout that can be observed afterwards -- either because it is external
  / persistent (non-transient) or because an overlapping subset is read again
  in the part of the program reachable from the cutout, and
* the **input configuration**: every container that may already hold data
  when the cutout starts executing and can influence its behaviour -- either
  external/persistent containers read inside the cutout, or transients with
  an overlapping write on some path reaching the cutout.

One practical extension over the paper's description: a container in the
system state whose cutout-internal writes provably do *not* cover the whole
container is also added to the input configuration.  The untouched part of
such a container flows through the cutout unchanged and is part of the
observable state afterwards, so the differential harness must be able to seed
it (this is exactly the situation the GPU-kernel-extraction bug of Sec. 6.4
corrupts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.sdfg.analysis import states_reachable_from, states_reaching
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, Node, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.ranges import Subset

__all__ = [
    "SideEffectAnalysis",
    "collect_boundary_accesses",
    "analyze_side_effects",
]


@dataclass
class SideEffectAnalysis:
    """Result of the side-effect analysis for a cutout."""

    input_configuration: List[str] = field(default_factory=list)
    system_state: List[str] = field(default_factory=list)
    #: Containers read inside the cutout (regardless of classification).
    reads: Dict[str, List[Subset]] = field(default_factory=dict)
    #: Containers written inside the cutout.
    writes: Dict[str, List[Subset]] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# Access collection
# ---------------------------------------------------------------------- #
def collect_boundary_accesses(
    state: SDFGState, nodes: Sequence[Node]
) -> Tuple[Dict[str, List[Memlet]], Dict[str, List[Memlet]]]:
    """Reads and writes of a node set at the access-node boundary level.

    Reads are edges leaving an access node of the set; writes are edges
    entering an access node of the set.  Boundary (propagated) memlets
    describe the full per-execution footprint of the enclosed scopes, which
    is what the coverage and overlap checks need.  Write-conflict-resolution
    writes also count as reads (the prior contents influence the result).
    """
    node_ids = {id(n) for n in nodes}
    reads: Dict[str, List[Memlet]] = {}
    writes: Dict[str, List[Memlet]] = {}
    for edge in state.edges():
        if id(edge.src) not in node_ids or id(edge.dst) not in node_ids:
            continue
        memlet: Memlet = edge.data
        if memlet is None or memlet.is_empty:
            continue
        if isinstance(edge.src, AccessNode):
            data = edge.src.data
            sub = memlet.subset if memlet.data == data or memlet.data is None else memlet.subset
            reads.setdefault(data, []).append(memlet)
        if isinstance(edge.dst, AccessNode):
            data = edge.dst.data
            if isinstance(edge.src, AccessNode) and memlet.other_subset is not None:
                writes.setdefault(data, []).append(
                    Memlet(data, memlet.other_subset, wcr=memlet.wcr)
                )
            else:
                writes.setdefault(data, []).append(memlet)
            if memlet.wcr is not None:
                reads.setdefault(data, []).append(memlet)
    return reads, writes


def region_accesses(
    state: SDFGState, region_nodes: Sequence[Node]
) -> Tuple[Dict[str, List[Memlet]], Dict[str, List[Memlet]]]:
    """Reads and writes performed by a *region* of a state.

    Unlike :func:`collect_boundary_accesses`, the access node at the other
    end of an edge does not need to be part of the region -- a region reads a
    container whenever one of its nodes consumes data from an access node,
    even if that access node is shared with the cutout.  This matters when
    the cutout and its surroundings access the same container through the
    same access node.
    """
    region_ids = {id(n) for n in region_nodes}
    reads: Dict[str, List[Memlet]] = {}
    writes: Dict[str, List[Memlet]] = {}
    for edge in state.edges():
        memlet: Memlet = edge.data
        if memlet is None or memlet.is_empty:
            continue
        if isinstance(edge.src, AccessNode) and id(edge.dst) in region_ids:
            reads.setdefault(edge.src.data, []).append(memlet)
        if isinstance(edge.dst, AccessNode) and id(edge.src) in region_ids:
            data = edge.dst.data
            if isinstance(edge.src, AccessNode) and memlet.other_subset is not None:
                writes.setdefault(data, []).append(
                    Memlet(data, memlet.other_subset, wcr=memlet.wcr)
                )
            else:
                writes.setdefault(data, []).append(memlet)
            if memlet.wcr is not None:
                reads.setdefault(data, []).append(memlet)
    return reads, writes


def _state_level_accesses(
    states: Sequence[SDFGState],
) -> Tuple[Dict[str, List[Memlet]], Dict[str, List[Memlet]]]:
    """Boundary-level reads and writes of whole states."""
    reads: Dict[str, List[Memlet]] = {}
    writes: Dict[str, List[Memlet]] = {}
    for state in states:
        r, w = collect_boundary_accesses(state, state.nodes())
        for k, v in r.items():
            reads.setdefault(k, []).extend(v)
        for k, v in w.items():
            writes.setdefault(k, []).extend(v)
    return reads, writes


def _subsets(memlets: Iterable[Memlet]) -> List[Subset]:
    out = []
    for m in memlets:
        if m.subset is not None:
            out.append(m.subset)
    return out


def _overlaps(a: Iterable[Subset], b: Iterable[Subset], bindings=None) -> bool:
    for sa in a:
        for sb in b:
            if sa.intersects(sb, bindings):
                return True
    return False


def _covers_container(sdfg: SDFG, data: str, written: List[Subset]) -> bool:
    """Whether one of the written subsets provably covers the whole
    container (a bounding box of several would not: it spans their gaps)."""
    full = Subset.full([str(s) for s in sdfg.arrays[data].shape])
    return any(sub.covers(full) for sub in written)


# ---------------------------------------------------------------------- #
# Forward / backward program regions
# ---------------------------------------------------------------------- #
def _same_state_regions(
    state: SDFGState, nodes: Sequence[Node]
) -> Tuple[List[Node], List[Node]]:
    """Nodes of the same state executing after / before the cutout.

    Descendants of the cutout are "after", ancestors are "before"; nodes that
    are neither (parallel dataflow) may execute on either side, so they are
    conservatively included in both.
    """
    node_ids = {id(n) for n in nodes}
    descendants: Set[int] = set()
    ancestors: Set[int] = set()
    for n in nodes:
        descendants |= {id(x) for x in state.graph.descendants(n)}
        ancestors |= {id(x) for x in state.graph.ancestors(n)}
    after: List[Node] = []
    before: List[Node] = []
    for other in state.nodes():
        oid = id(other)
        if oid in node_ids:
            continue
        is_desc = oid in descendants
        is_anc = oid in ancestors
        if is_desc or (not is_desc and not is_anc):
            after.append(other)
        if is_anc or (not is_desc and not is_anc):
            before.append(other)
    return after, before


def _cutout_state_in_cycle(sdfg: SDFG, state: SDFGState) -> bool:
    return state in states_reachable_from(sdfg, state)


# ---------------------------------------------------------------------- #
# Main analysis
# ---------------------------------------------------------------------- #
def analyze_side_effects(
    sdfg: SDFG,
    cutout_nodes: Optional[Sequence[Tuple[SDFGState, Node]]] = None,
    cutout_states: Optional[Sequence[SDFGState]] = None,
    symbol_values: Optional[Dict[str, int]] = None,
) -> SideEffectAnalysis:
    """Determine input configuration and system state for a cutout.

    Either ``cutout_nodes`` (a dataflow-level cutout within one or more
    states) or ``cutout_states`` (a state-machine-level cutout of whole
    states) must be provided.
    """
    analysis = SideEffectAnalysis()

    if cutout_nodes:
        by_state: Dict[SDFGState, List[Node]] = {}
        for st, node in cutout_nodes:
            by_state.setdefault(st, []).append(node)
        reads: Dict[str, List[Memlet]] = {}
        writes: Dict[str, List[Memlet]] = {}
        after_nodes: Dict[SDFGState, List[Node]] = {}
        before_nodes: Dict[SDFGState, List[Node]] = {}
        for st, nodes in by_state.items():
            # Use the relaxed region-level collection so boundary edges count
            # even when the adjacent access node is not (yet) part of the
            # cutout node set.
            r, w = region_accesses(st, nodes)
            for k, v in r.items():
                reads.setdefault(k, []).extend(v)
            for k, v in w.items():
                writes.setdefault(k, []).extend(v)
            after_nodes[st], before_nodes[st] = _same_state_regions(st, nodes)
        cutout_state_list = list(by_state.keys())
    elif cutout_states:
        reads, writes = _state_level_accesses(cutout_states)
        after_nodes, before_nodes = {}, {}
        cutout_state_list = list(cutout_states)
    else:
        raise ValueError("Either cutout_nodes or cutout_states must be provided")

    analysis.reads = {k: _subsets(v) for k, v in reads.items()}
    analysis.writes = {k: _subsets(v) for k, v in writes.items()}

    # -------------------------------------------------------------- #
    # Side-effect callbacks cannot be captured -- warn (Sec. 3.1 / 7.1).
    # -------------------------------------------------------------- #
    callback_nodes: List[Node] = []
    if cutout_nodes:
        callback_nodes = [n for _, n in cutout_nodes if isinstance(n, Tasklet) and n.side_effect_callback]
    else:
        for st in cutout_state_list:
            callback_nodes.extend(
                n for n in st.nodes() if isinstance(n, Tasklet) and n.side_effect_callback
            )
    if callback_nodes:
        analysis.warnings.append(
            "cutout contains user-defined callbacks or library calls with "
            "potential side effects that cannot be captured: "
            + ", ".join(sorted(n.label for n in callback_nodes))
        )

    # -------------------------------------------------------------- #
    # Forward regions (for the system state) and backward regions (for the
    # input configuration) of the surrounding program.
    # -------------------------------------------------------------- #
    forward_states: Set[SDFGState] = set()
    backward_states: Set[SDFGState] = set()
    for st in cutout_state_list:
        forward_states |= states_reachable_from(sdfg, st)
        backward_states |= states_reaching(sdfg, st)
        if _cutout_state_in_cycle(sdfg, st):
            forward_states.add(st)
            backward_states.add(st)
    forward_states -= set(cutout_state_list) if cutout_states else set()
    backward_states -= set(cutout_state_list) if cutout_states else set()

    # Pre-compute read/write memlets of the forward/backward program regions.
    fwd_reads: Dict[str, List[Subset]] = {}
    bwd_writes: Dict[str, List[Subset]] = {}
    if cutout_nodes:
        for st, nodes in after_nodes.items():
            r, _ = region_accesses(st, nodes)
            for k, v in r.items():
                fwd_reads.setdefault(k, []).extend(_subsets(v))
        for st, nodes in before_nodes.items():
            _, w = region_accesses(st, nodes)
            for k, v in w.items():
                bwd_writes.setdefault(k, []).extend(_subsets(v))
    for st in forward_states:
        r, _ = collect_boundary_accesses(st, st.nodes())
        for data, memlets in r.items():
            fwd_reads.setdefault(data, []).extend(_subsets(memlets))
    for st in backward_states:
        _, w = collect_boundary_accesses(st, st.nodes())
        for data, memlets in w.items():
            bwd_writes.setdefault(data, []).extend(_subsets(memlets))

    # -------------------------------------------------------------- #
    # System state (Sec. 3.1): external-data analysis + program-flow analysis.
    # -------------------------------------------------------------- #
    system_state: List[str] = []
    for data, written_subsets in analysis.writes.items():
        desc = sdfg.arrays[data]
        if not desc.transient:
            system_state.append(data)
            continue
        later_reads = fwd_reads.get(data, [])
        if later_reads and _overlaps(written_subsets, later_reads, symbol_values):
            system_state.append(data)

    # -------------------------------------------------------------- #
    # Input configuration (Sec. 3.2).
    # -------------------------------------------------------------- #
    input_config: List[str] = []
    for data, read_subsets in analysis.reads.items():
        desc = sdfg.arrays[data]
        if not desc.transient:
            input_config.append(data)
            continue
        earlier_writes = bwd_writes.get(data, [])
        if earlier_writes and _overlaps(read_subsets, earlier_writes, symbol_values):
            input_config.append(data)

    # Partially-written system-state containers also need to be seeded.
    for data in system_state:
        if data in input_config:
            continue
        if not _covers_container(sdfg, data, analysis.writes.get(data, [])):
            input_config.append(data)

    analysis.system_state = sorted(set(system_state))
    analysis.input_configuration = sorted(set(input_config))
    return analysis
