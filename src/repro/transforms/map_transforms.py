"""Transformations that restructure map scopes (parallel loop nests).

* :class:`MapTiling` -- the loop-tiling optimization of Fig. 2/3, with the
  paper's two injected bugs (off-by-one tile bound, missing bounds clamp).
* :class:`Vectorization` -- the loop vectorization of Sec. 6.1 whose
  correctness depends on input sizes being divisible by the vector width.
* :class:`MapExpansion` -- expands multi-dimensional maps into nested
  single-dimensional maps; the buggy variant generates invalid code.
* :class:`BufferTiling` -- tiles producer/consumer loop pairs around a shared
  transient buffer; the buggy variant drops the remainder tile.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sdfg.dtypes import ScheduleType
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import Map, MapEntry, MapExit, Node, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.expressions import Expr, Min, Symbol
from repro.symbolic.ranges import Range
from repro.symbolic.simplify import simplify
from repro.transforms.base import Match, PatternTransformation, register_transformation

__all__ = ["MapTiling", "Vectorization", "MapExpansion", "BufferTiling", "tile_map"]


# ---------------------------------------------------------------------- #
# Shared tiling machinery
# ---------------------------------------------------------------------- #
def tile_map(
    state: SDFGState,
    entry: MapEntry,
    tile_size: int,
    clamp: bool = True,
    off_by_one: bool = False,
    truncate: bool = False,
    dims: Optional[List[int]] = None,
) -> Tuple[MapEntry, MapExit]:
    """Tile the given map in place; returns the new outer (tile) entry/exit.

    For each tiled parameter ``p`` with range ``b:e`` a new outer parameter
    ``tile_p`` iterates ``b:e:tile_size`` and the inner range becomes
    ``tile_p : Min(tile_p + tile_size - 1, e)``.

    * ``clamp=False`` omits the ``Min`` clamp -- out-of-bounds accesses when
      the extent is not a multiple of ``tile_size`` (the generalization bug of
      Sec. 2.1).
    * ``off_by_one=True`` uses ``Min(tile_p + tile_size, e)`` -- the inclusive
      ``<=`` bound of Fig. 2, overlapping adjacent tiles by one element.
    * ``truncate=True`` shortens the *outer* range so the remainder tile is
      never executed (the BufferTiling bug).
    """
    exit_ = state.exit_node(entry)
    m = entry.map
    dims = list(range(len(m.params))) if dims is None else dims

    outer_params: List[str] = []
    outer_ranges: List[Range] = []
    for d in dims:
        p = m.params[d]
        rng = m.ranges[d]
        tile_param = f"tile_{p}"
        outer_params.append(tile_param)
        outer_end: Expr = rng.end
        if truncate:
            # Only iterate over full tiles; the remainder is (incorrectly)
            # dropped.
            extent = simplify(rng.end - rng.begin + 1)
            full = simplify((extent // tile_size) * tile_size)
            outer_end = simplify(rng.begin + full - 1)
        outer_ranges.append(Range(rng.begin, outer_end, tile_size))
        # Inner range re-expressed in terms of the tile parameter.
        tp = Symbol(tile_param)
        if off_by_one:
            inner_end: Expr = Min.make(tp + tile_size, rng.end)
        elif clamp:
            inner_end = Min.make(tp + tile_size - 1, rng.end)
        else:
            inner_end = simplify(tp + tile_size - 1)
        m.ranges[d] = Range(tp, inner_end, 1)

    outer_map = Map(f"{m.label}_tiles", outer_params, outer_ranges, m.schedule)
    outer_entry = MapEntry(outer_map)
    outer_exit = MapExit(outer_map)
    state.add_node(outer_entry)
    state.add_node(outer_exit)

    # Reroute incoming edges of the original entry through the tile entry.
    for e in list(state.in_edges(entry)):
        data = e.data.data if e.data is not None and not e.data.is_empty else None
        in_conn = f"IN_{data}" if data else None
        out_conn = f"OUT_{data}" if data else None
        state.remove_edge(e)
        state.add_edge(e.src, e.src_conn, outer_entry, in_conn, e.data)
        state.add_edge(outer_entry, out_conn, entry, e.dst_conn, e.data.clone() if e.data else Memlet.empty())
    if not state.in_edges(entry):
        state.add_nedge(outer_entry, entry, Memlet.empty())

    # Reroute outgoing edges of the original exit through the tile exit.
    for e in list(state.out_edges(exit_)):
        data = e.data.data if e.data is not None and not e.data.is_empty else None
        in_conn = f"IN_{data}" if data else None
        out_conn = f"OUT_{data}" if data else None
        state.remove_edge(e)
        state.add_edge(exit_, e.src_conn, outer_exit, in_conn, e.data.clone() if e.data else Memlet.empty())
        state.add_edge(outer_exit, out_conn, e.dst, e.dst_conn, e.data)
    if not state.out_edges(exit_):
        state.add_nedge(exit_, outer_exit, Memlet.empty())

    return outer_entry, outer_exit


def _top_level_map_entries(state: SDFGState) -> List[MapEntry]:
    sdict = state.scope_dict()
    return [
        n for n in state.nodes() if isinstance(n, MapEntry) and sdict.get(n) is None
    ]


# ---------------------------------------------------------------------- #
@register_transformation
class MapTiling(PatternTransformation):
    """Tile a map scope to improve memory reuse (Fig. 2/3).

    ``bug_kind`` selects which of the paper's two bugs to inject when
    ``inject_bug`` is set: ``"off_by_one"`` (the ``<=`` bound of Fig. 2) or
    ``"no_clamp"`` (out-of-bounds for sizes not divisible by the tile size).
    """

    name = "MapTiling"
    description = "Tiles a parallel loop nest with a configurable tile size"

    def __init__(
        self,
        tile_size: int = 32,
        inject_bug: bool = False,
        bug_kind: str = "off_by_one",
    ) -> None:
        super().__init__(inject_bug=inject_bug)
        self.tile_size = int(tile_size)
        if bug_kind not in ("off_by_one", "no_clamp"):
            raise ValueError(f"Unknown bug kind {bug_kind!r}")
        self.bug_kind = bug_kind

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches = []
        for state in sdfg.states():
            for entry in _top_level_map_entries(state):
                matches.append(Match(self, state=state, nodes={"map_entry": entry}))
        return matches

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        entry: MapEntry = match.nodes["map_entry"]
        # Only tile maps with unit-step ranges.
        return all(str(r.step) == "1" for r in entry.map.ranges)

    def apply(self, sdfg: SDFG, match: Match) -> None:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        tile_map(
            state,
            entry,
            self.tile_size,
            clamp=not (self.inject_bug and self.bug_kind == "no_clamp"),
            off_by_one=self.inject_bug and self.bug_kind == "off_by_one",
        )

    def modified_nodes(self, sdfg: SDFG, match: Match) -> List[Tuple[SDFGState, Node]]:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        return [(state, n) for n in state.scope_subgraph_nodes(entry)]


# ---------------------------------------------------------------------- #
@register_transformation
class Vectorization(PatternTransformation):
    """Vectorize the innermost dimension of an element-wise map (Sec. 6.1).

    The correct variant clamps the per-iteration block to the loop bound; the
    paper-faithful buggy variant assumes the extent is divisible by the
    vector width, so its correctness depends on the input size (the Table 2
    entry marked "input dependent").
    """

    name = "Vectorization"
    description = "Vectorizes loops by the chosen vector width (default 4)"

    def __init__(self, vector_size: int = 4, inject_bug: bool = False) -> None:
        super().__init__(inject_bug=inject_bug)
        self.vector_size = int(vector_size)

    # .................................................................. #
    def _vector_param(self, entry: MapEntry) -> str:
        return entry.map.params[-1]

    def _inner_code_nodes(self, state: SDFGState, entry: MapEntry) -> List[Node]:
        return [
            n
            for n in state.scope_subgraph_nodes(entry, include_boundary=False)
            if isinstance(n, Tasklet)
        ]

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches = []
        for state in sdfg.states():
            sdict = state.scope_dict()
            for entry in [n for n in state.nodes() if isinstance(n, MapEntry)]:
                # Only innermost maps (no nested maps inside).
                inner = state.scope_subgraph_nodes(entry, include_boundary=False)
                if any(isinstance(n, MapEntry) for n in inner):
                    continue
                matches.append(Match(self, state=state, nodes={"map_entry": entry}))
        return matches

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        param = self._vector_param(entry)
        rng = entry.map.ranges[-1]
        if str(rng.step) != "1":
            return False
        tasklets = self._inner_code_nodes(state, entry)
        if not tasklets:
            return False
        # Tasklets calling scalar-only library functions (``math.*``) cannot
        # operate on vector blocks; such maps are not vectorizable.
        if any("math." in t.code for t in tasklets):
            return False
        psym = Symbol(param)

        def uses_param_as_point(memlet: Memlet) -> bool:
            uses = [
                d
                for d, r in enumerate(memlet.subset.ranges)
                if param in r.begin.free_symbols or param in r.end.free_symbols
            ]
            if len(uses) != 1:
                return False
            r = memlet.subset.ranges[uses[0]]
            return r.is_point() and r.begin == psym

        # Inputs that use the vectorized parameter must use it as a plain
        # point index; inputs that do not use it are broadcast (allowed).
        # Outputs must all be indexed by the parameter and carry no
        # write-conflict resolution (reductions cannot be widened this way).
        for t in tasklets:
            for e in state.in_edges(t):
                memlet: Memlet = e.data
                if memlet is None or memlet.is_empty:
                    continue
                if param in memlet.free_symbols and not uses_param_as_point(memlet):
                    return False
            for e in state.out_edges(t):
                memlet = e.data
                if memlet is None or memlet.is_empty:
                    continue
                if memlet.wcr is not None:
                    return False
                if param not in memlet.free_symbols or not uses_param_as_point(memlet):
                    return False
        return True

    def apply(self, sdfg: SDFG, match: Match) -> None:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        exit_ = state.exit_node(entry)
        param = self._vector_param(entry)
        psym = Symbol(param)
        vs = self.vector_size
        rng = entry.map.ranges[-1]
        # Stride the map by the vector width.
        entry.map.ranges[-1] = Range(rng.begin, rng.end, vs)
        entry.map.schedule = ScheduleType.Vectorized
        # Widen every point access on the vectorized dimension to a block.
        for t in self._inner_code_nodes(state, entry):
            for e in state.in_edges(t) + state.out_edges(t):
                memlet: Memlet = e.data
                if memlet is None or memlet.is_empty or param not in memlet.free_symbols:
                    continue
                new_ranges = []
                for r in memlet.subset.ranges:
                    if r.is_point() and r.begin == psym:
                        if self.inject_bug:
                            end: Expr = simplify(psym + (vs - 1))
                        else:
                            end = Min.make(psym + (vs - 1), rng.end)
                        new_ranges.append(Range(psym, end, 1))
                    else:
                        new_ranges.append(r)
                from repro.symbolic.ranges import Subset

                memlet.subset = Subset(new_ranges)

    def modified_nodes(self, sdfg: SDFG, match: Match) -> List[Tuple[SDFGState, Node]]:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        return [(state, n) for n in state.scope_subgraph_nodes(entry)]


# ---------------------------------------------------------------------- #
@register_transformation
class MapExpansion(PatternTransformation):
    """Expand a multi-dimensional map into nested one-dimensional maps.

    The buggy variant omits the connector declarations on the newly inserted
    inner map entries/exits, producing a structurally invalid program -- the
    Table 2 failure class "generates invalid code".
    """

    name = "MapExpansion"
    description = "Removes collapsing from parallel nested loops"

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches = []
        for state in sdfg.states():
            for entry in [n for n in state.nodes() if isinstance(n, MapEntry)]:
                if len(entry.map.params) >= 2:
                    matches.append(Match(self, state=state, nodes={"map_entry": entry}))
        return matches

    def apply(self, sdfg: SDFG, match: Match) -> None:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        exit_ = state.exit_node(entry)
        m = entry.map
        inner_params = list(zip(m.params[1:], m.ranges[1:]))
        # The original map keeps only its first dimension.
        m.params = m.params[:1]
        m.ranges = m.ranges[:1]

        new_entries: List[MapEntry] = []
        new_exits: List[MapExit] = []
        for p, r in inner_params:
            im = Map(f"{m.label}_{p}", [p], [r], m.schedule)
            new_entries.append(MapEntry(im))
            new_exits.append(MapExit(im))
        for n in new_entries + new_exits:
            state.add_node(n)

        # Chain the body-side edges of the original entry through the new
        # entries: entry -> e1 -> e2 -> ... -> body.
        for e in list(state.out_edges(entry)):
            state.remove_edge(e)
            chain = [entry] + new_entries
            data = e.data.data if e.data is not None and not e.data.is_empty else None
            for i in range(len(chain) - 1):
                src, dst = chain[i], chain[i + 1]
                sconn = e.src_conn if i == 0 else (f"OUT_{data}" if data else None)
                dconn = f"IN_{data}" if data else None
                payload = e.data.clone() if e.data else Memlet.empty()
                if self.inject_bug:
                    # BUG: forget to declare the connectors on the new scopes.
                    state.graph.add_edge(src, dst, payload, sconn, dconn)
                else:
                    state.add_edge(src, sconn, dst, dconn, payload)
            last_conn = f"OUT_{data}" if data else None
            if self.inject_bug:
                state.graph.add_edge(new_entries[-1], e.dst, e.data, last_conn, e.dst_conn)
            else:
                state.add_edge(new_entries[-1], last_conn, e.dst, e.dst_conn, e.data)

        # Chain the body-side edges of the original exit through the new exits
        # (innermost exit first): body -> eN -> ... -> e1 -> exit.
        rev_exits = list(reversed(new_exits))
        for e in list(state.in_edges(exit_)):
            state.remove_edge(e)
            data = e.data.data if e.data is not None and not e.data.is_empty else None
            first_conn = f"IN_{data}" if data else None
            if self.inject_bug:
                state.graph.add_edge(e.src, rev_exits[0], e.data, e.src_conn, first_conn)
            else:
                state.add_edge(e.src, e.src_conn, rev_exits[0], first_conn, e.data)
            chain = rev_exits + [exit_]
            for i in range(len(chain) - 1):
                src, dst = chain[i], chain[i + 1]
                sconn = f"OUT_{data}" if data else None
                dconn = e.dst_conn if dst is exit_ else (f"IN_{data}" if data else None)
                payload = e.data.clone() if e.data else Memlet.empty()
                if self.inject_bug:
                    state.graph.add_edge(src, dst, payload, sconn, dconn)
                else:
                    state.add_edge(src, sconn, dst, dconn, payload)

    def modified_nodes(self, sdfg: SDFG, match: Match) -> List[Tuple[SDFGState, Node]]:
        state = match.state
        entry: MapEntry = match.nodes["map_entry"]
        return [(state, n) for n in state.scope_subgraph_nodes(entry)]


# ---------------------------------------------------------------------- #
@register_transformation
class BufferTiling(PatternTransformation):
    """Tile a producer/consumer map pair that communicates through a buffer.

    The faithful variant tiles both maps with clamped tile bounds (a pure
    re-ordering).  The buggy variant truncates the tiled ranges to full tiles
    only, silently dropping the remainder -- a change in program semantics
    (the Table 2 entry for BufferTiling, marked ✗).
    """

    name = "BufferTiling"
    description = "Tiles buffers between loops"

    def __init__(self, tile_size: int = 8, inject_bug: bool = False) -> None:
        super().__init__(inject_bug=inject_bug)
        self.tile_size = int(tile_size)

    def find_matches(self, sdfg: SDFG) -> List[Match]:
        matches = []
        for state in sdfg.states():
            sdict = state.scope_dict()
            for buf in state.data_nodes():
                desc = sdfg.arrays.get(buf.data)
                if desc is None or not desc.transient:
                    continue
                if sdict.get(buf) is not None:
                    continue
                writers = [
                    e.src for e in state.in_edges(buf) if isinstance(e.src, MapExit)
                ]
                readers = [
                    e.dst for e in state.out_edges(buf) if isinstance(e.dst, MapEntry)
                ]
                if len(writers) == 1 and len(readers) == 1:
                    first_entry = state.entry_node_for_exit(writers[0])
                    matches.append(
                        Match(
                            self,
                            state=state,
                            nodes={
                                "first_map_entry": first_entry,
                                "buffer": buf,
                                "second_map_entry": readers[0],
                            },
                        )
                    )
        return matches

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        first: MapEntry = match.nodes["first_map_entry"]
        second: MapEntry = match.nodes["second_map_entry"]
        return all(str(r.step) == "1" for r in first.map.ranges) and all(
            str(r.step) == "1" for r in second.map.ranges
        )

    def apply(self, sdfg: SDFG, match: Match) -> None:
        state = match.state
        first: MapEntry = match.nodes["first_map_entry"]
        second: MapEntry = match.nodes["second_map_entry"]
        for entry in (first, second):
            tile_map(
                state,
                entry,
                self.tile_size,
                clamp=True,
                truncate=self.inject_bug,
            )

    def modified_nodes(self, sdfg: SDFG, match: Match) -> List[Tuple[SDFGState, Node]]:
        state = match.state
        out = []
        for key in ("first_map_entry", "second_map_entry"):
            entry: MapEntry = match.nodes[key]
            out.extend((state, n) for n in state.scope_subgraph_nodes(entry))
        out.append((state, match.nodes["buffer"]))
        return out
