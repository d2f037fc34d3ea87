"""Simulated GPU-kernel extraction.

The CLOUDSC case study (Sec. 6.4) tests a custom transformation that turns
suitable loop nests into GPU kernels by inserting host/device copies around
them.  The accelerator is *simulated* here: "device" containers are ordinary
transient buffers with ``StorageType.GPU_Global`` and host<->device copies
are explicit access-to-access copy edges -- exactly the structure whose bug
the paper describes:

    the transformation generates data copies for the *entire* data containers
    touched by extracted GPU kernels [...] if the data written to by the
    kernel is not also first copied onto the GPU in its entirety, this causes
    garbage values to be copied back to the host.

The faithful variant copies every touched container to the device before the
kernel runs; the buggy variant only copies containers the kernel *reads*, so
partially-written outputs drag uninitialized device memory back over valid
host data.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.sdfg.dtypes import ScheduleType, StorageType
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, MapEntry, Node, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.transforms.base import Match, PatternTransformation, register_transformation

__all__ = ["GPUKernelExtraction"]


@register_transformation
class GPUKernelExtraction(PatternTransformation):
    """Extract a top-level map scope into a (simulated) GPU kernel."""

    name = "GPUKernelExtraction"
    description = (
        "Runs a loop nest as a device kernel, inserting host/device copies"
    )
    builtin = False  # a custom optimization in the CLOUDSC case study

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches = []
        for state in sdfg.states():
            sdict = state.scope_dict()
            for entry in [n for n in state.nodes() if isinstance(n, MapEntry)]:
                if sdict.get(entry) is not None:
                    continue
                if entry.map.schedule == ScheduleType.GPU_Device:
                    continue
                matches.append(Match(self, state=state, nodes={"map_entry": entry}))
        return matches

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        exit_ = state.exit_node(entry)
        # All boundary edges must connect to access nodes of array containers.
        for e in state.in_edges(entry):
            if e.data.is_empty:
                continue
            if not isinstance(e.src, AccessNode):
                return False
        for e in state.out_edges(exit_):
            if e.data.is_empty:
                continue
            if not isinstance(e.dst, AccessNode):
                return False
        # Kernels with opaque callbacks cannot be extracted.
        for n in state.scope_subgraph_nodes(entry, include_boundary=False):
            if isinstance(n, Tasklet) and n.side_effect_callback:
                return False
        return True

    # .................................................................. #
    def _device_name(self, sdfg: SDFG, data: str) -> str:
        name = f"gpu_{data}"
        if name not in sdfg.arrays:
            desc = sdfg.arrays[data].clone()
            desc.transient = True
            desc.storage = StorageType.GPU_Global
            sdfg.add_datadesc(name, desc)
        return name

    def _rename_scope_memlets(
        self, state: SDFGState, entry: MapEntry, mapping: Dict[str, str]
    ) -> None:
        exit_ = state.exit_node(entry)
        scope_nodes = set(
            id(n) for n in state.scope_subgraph_nodes(entry, include_boundary=True)
        )
        for e in state.edges():
            if id(e.src) in scope_nodes and id(e.dst) in scope_nodes:
                if e.data is not None and not e.data.is_empty and e.data.data in mapping:
                    e.data.data = mapping[e.data.data]

    def apply(self, sdfg: SDFG, match: Match) -> None:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        exit_ = state.exit_node(entry)

        read_containers: Set[str] = set()
        written_containers: Set[str] = set()
        for e in state.in_edges(entry):
            if not e.data.is_empty:
                read_containers.add(e.data.data)
        for e in state.out_edges(exit_):
            if not e.data.is_empty:
                written_containers.add(e.data.data)
        touched = read_containers | written_containers

        mapping = {data: self._device_name(sdfg, data) for data in touched}

        # Existing host access nodes adjacent to the kernel boundary.
        read_nodes: Dict[str, AccessNode] = {}
        for e in state.in_edges(entry):
            if not e.data.is_empty and isinstance(e.src, AccessNode):
                read_nodes.setdefault(e.data.data, e.src)
        write_nodes: Dict[str, AccessNode] = {}
        for e in state.out_edges(exit_):
            if not e.data.is_empty and isinstance(e.dst, AccessNode):
                write_nodes.setdefault(e.data.data, e.dst)

        # Host -> device copies.  The faithful variant copies every touched
        # container in its entirety; the buggy variant only copies containers
        # the kernel reads.
        copy_in = touched if not self.inject_bug else read_containers
        device_in_nodes: Dict[str, AccessNode] = {}
        for data in sorted(copy_in):
            gpu = mapping[data]
            if data in read_nodes:
                host_node = read_nodes[data]
            else:
                # Write-only container: source the copy from an existing
                # access node (correctly ordered after any producer) if one
                # exists, but never from the node the kernel writes back to
                # (that would create a cycle).
                existing = [
                    n
                    for n in state.access_nodes_for(data)
                    if n is not write_nodes.get(data)
                ]
                host_node = existing[0] if existing else state.add_access(data)
            dev_node = state.add_access(gpu)
            shape = [str(s) for s in sdfg.arrays[data].shape]
            full = ", ".join(f"0:({s})-1" for s in shape)
            state.add_nedge(host_node, dev_node, Memlet(data, full, other_subset=full))
            device_in_nodes[data] = dev_node

        # Rewire kernel inputs to the device containers.
        for e in list(state.in_edges(entry)):
            if e.data.is_empty:
                continue
            data = e.data.data
            gpu = mapping[data]
            dev_node = device_in_nodes.get(data)
            if dev_node is None:
                dev_node = state.add_access(gpu)
                device_in_nodes[data] = dev_node
            new_memlet = e.data.clone()
            new_memlet.data = gpu
            state.remove_edge(e)
            state.add_edge(dev_node, None, entry, e.dst_conn, new_memlet)

        # Rewire kernel outputs to device containers and copy whole
        # containers back to the host (this is what the engineers' original
        # transformation did; it is only safe if the container was copied to
        # the device in its entirety beforehand).
        for e in list(state.out_edges(exit_)):
            if e.data.is_empty:
                continue
            data = e.data.data
            gpu = mapping[data]
            host_out = e.dst
            dev_out = state.add_access(gpu)
            new_memlet = e.data.clone()
            new_memlet.data = gpu
            state.remove_edge(e)
            state.add_edge(exit_, e.src_conn, dev_out, None, new_memlet)
            shape = [str(s) for s in sdfg.arrays[data].shape]
            full = ", ".join(f"0:({s})-1" for s in shape)
            state.add_nedge(dev_out, host_out, Memlet(gpu, full, other_subset=full))
            # Ensure the copy-in (if any) is ordered before the kernel writes.
            if data in device_in_nodes and data not in read_containers:
                state.add_nedge(device_in_nodes[data], entry, Memlet.empty())

        # Rename all memlets inside the kernel scope to the device containers.
        self._rename_scope_memlets(state, entry, mapping)

        entry.map.schedule = ScheduleType.GPU_Device

    def modified_nodes(self, sdfg: SDFG, match: Match) -> List[Tuple[SDFGState, Node]]:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        out = [(state, n) for n in state.scope_subgraph_nodes(entry)]
        exit_ = state.exit_node(entry)
        # The host access nodes around the kernel are also affected (copies
        # are inserted next to them).
        for e in state.in_edges(entry):
            if isinstance(e.src, AccessNode):
                out.append((state, e.src))
        for e in state.out_edges(exit_):
            if isinstance(e.dst, AccessNode):
                out.append((state, e.dst))
        return out
