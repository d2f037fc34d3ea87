"""Input-configuration minimization via the minimum input-flow cut (Sec. 4).

Given an extracted dataflow cutout, this module decides whether growing the
cutout with surrounding dataflow (trading recomputation for input size)
shrinks the input configuration, using the max-flow/min-cut formulation of
Sec. 4.2.  If no strictly smaller input configuration exists, the original
cutout is returned unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.cutout import Cutout, extract_cutout
from repro.core.mincut import SINK, SOURCE, prepare_input_flow_network
from repro.sdfg.nodes import Node
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState

__all__ = ["MinimizationResult", "minimize_input_configuration"]


@dataclass
class MinimizationResult:
    """Outcome of the input-minimization step."""

    cutout: Cutout
    minimized: bool
    original_input_volume: int
    minimized_input_volume: int
    added_nodes: int = 0

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the input volume removed (0 if not minimized)."""
        if self.original_input_volume == 0:
            return 0.0
        return 1.0 - (self.minimized_input_volume / self.original_input_volume)


def _sink_side_reaching_sink(
    network, source_side: Set, cutout_reps: Set[int]
) -> Set[int]:
    """Representatives on the sink side of the cut that can reach the sink."""
    sink_side = set(network.nodes()) - set(source_side)
    # Reachability towards SINK over the network edges restricted to sink-side
    # nodes (direction preserved).
    adjacency: Dict = {}
    for u, v, _ in network.edges():
        adjacency.setdefault(u, []).append(v)
    reaches: Set = set()
    # Reverse BFS from SINK within the sink side.
    reverse: Dict = {}
    for u, v, _ in network.edges():
        reverse.setdefault(v, []).append(u)
    queue = deque([SINK])
    seen = {SINK}
    while queue:
        node = queue.popleft()
        for prev in reverse.get(node, []):
            if prev in seen or prev not in sink_side:
                continue
            seen.add(prev)
            reaches.add(prev)
            queue.append(prev)
    return {n for n in reaches if isinstance(n, int) and n not in cutout_reps}


def minimize_input_configuration(
    sdfg: SDFG,
    state: SDFGState,
    cutout: Cutout,
    symbol_values: Optional[Dict[str, int]] = None,
) -> MinimizationResult:
    """Attempt to shrink a dataflow cutout's input configuration.

    Returns the original cutout unchanged when the minimum input-flow cut
    does not yield a strictly smaller input configuration.
    """
    if cutout.kind != "dataflow":
        return MinimizationResult(
            cutout=cutout,
            minimized=False,
            original_input_volume=cutout.input_volume(symbol_values),
            minimized_input_volume=cutout.input_volume(symbol_values),
        )

    original_nodes = [
        n for n in state.nodes() if n.guid in cutout.node_guids
    ]
    original_volume = cutout.input_volume(symbol_values)

    prepared = prepare_input_flow_network(
        sdfg, state, original_nodes, cutout.input_configuration, symbol_values
    )
    flow, source_side = prepared.network.max_flow_min_cut(SOURCE, SINK)

    additions_ids = _sink_side_reaching_sink(
        prepared.network, source_side, prepared.cutout_reps
    )
    if not additions_ids:
        return MinimizationResult(
            cutout=cutout,
            minimized=False,
            original_input_volume=original_volume,
            minimized_input_volume=original_volume,
        )

    # Map representative ids back to actual nodes and re-extract.
    id_to_node = {id(n): n for n in state.nodes()}
    added_nodes: List[Node] = [id_to_node[i] for i in additions_ids if i in id_to_node]
    expanded_nodes = original_nodes + added_nodes
    new_cutout = extract_cutout(
        sdfg,
        nodes=[(state, n) for n in expanded_nodes],
        symbol_values=symbol_values,
    )
    new_volume = new_cutout.input_volume(symbol_values)

    if new_volume < original_volume:
        return MinimizationResult(
            cutout=new_cutout,
            minimized=True,
            original_input_volume=original_volume,
            minimized_input_volume=new_volume,
            added_nodes=len(added_nodes),
        )
    return MinimizationResult(
        cutout=cutout,
        minimized=False,
        original_input_volume=original_volume,
        minimized_input_volume=original_volume,
    )
