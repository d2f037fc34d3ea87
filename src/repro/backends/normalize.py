"""Iteration-domain normalisation (first step of the *analyze* layer).

Rewrites a map scope into a *flat domain with point accesses* before the
legality rules of :func:`repro.backends.analysis.analyze_scope` see it, so
everything downstream -- closed-form geometry, runtime -- handles a
nest of maps or a strided map over blocks as the flat unit-step scope it
computes the same thing as.  Two rewrites, both
matched on expression trees (like :func:`unit_affine_offset`), never by
probing points:

* **flatten** a perfect nest -- a scope whose only child is a map entry,
  down to a single tasklet, inner ranges free of every enclosing parameter
  -- into one scope whose parameters and ranges are the concatenation.
  Nest order is lexicographic order of the flat domain, so the sequential
  WCR accumulation of the runtime stays bitwise identical.
* **densify** a strided axis ``t`` (integer step ``s >= 2``) whose only use
  is one width-``s`` block ``t : t + s - 1`` or ``t : Min(t + s - 1, E)``,
  either as the range of one inner axis (``tile_map``: the inner axis then
  iterates the union of the blocks and ``t`` disappears) or as a memlet
  range (Vectorization: ``t`` itself iterates the union and the blocks
  become points; the interpreter still runs the tasklet once per block, so
  an empty block drops the scope at run time).  The union is
  ``first .. min(last_t + s - 1, E)``: an unclamped block keeps its
  out-of-bounds last tile, so the ordinary bounds check still raises.

A scope that fits neither is refused with a reason slug, exactly like every
other legality rule; nothing is executed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.backends.codegen.numpy_eager import BoundAxis
from repro.interpreter.tasklet_exec import compile_expression
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import MapEntry, Tasklet
from repro.sdfg.state import SDFGState
from repro.symbolic.expressions import Add, Expr, Integer, Min, Symbol

__all__ = ["FlatScope", "normalize_scope", "unit_affine_offset"]


def unit_affine_offset(expr, param: str) -> Optional[int]:
    """Integer ``c`` such that ``expr == param + c``, else ``None``.

    The match is *structural* -- ``Symbol(param)`` or a two-term sum of
    ``Symbol(param)`` and an integer constant (what ``i + 1`` / ``i - 1`` /
    ``1 + i`` parse and fold to).  Probing concrete points instead would
    accept piecewise expressions (``i % 4096``, ``Min(i, C)``) that agree
    with ``param + c`` on the probe set but wrap elsewhere, silently
    corrupting vectorized writes.
    """
    if isinstance(expr, Symbol):
        return 0 if expr.name == param else None
    if isinstance(expr, Add) and len(expr.args) == 2:
        a, b = expr.args
        if isinstance(b, Symbol):
            a, b = b, a
        if isinstance(a, Symbol) and a.name == param and isinstance(b, Integer):
            return b.value
    return None


@dataclass
class FlatScope:
    """A scope as the legality rules see it: one tasklet under a flat domain."""

    #: Map entries of the nest, outermost first (one for a plain scope).
    levels: List[MapEntry]
    tasklet: Tasklet
    axes: List[BoundAxis]
    #: Non-parameter names the domain's ranges and clamps read.
    deps: Set[str]
    #: Parameters whose memlet blocks stand for points of a densified axis.
    block_params: Set[str] = field(default_factory=set)
    #: Whether an axis was densified from a tile: the nest then visits two
    #: reduction axes in another order than the flat domain does.
    tiled: bool = False
    #: Strided parameters a densification removed or re-read as dense --
    #: the tasklet code must not read them -- and the refusal's reason.
    unread: Dict[str, str] = field(default_factory=dict)

    @property
    def params(self) -> List[str]:
        return [axis.param for axis in self.axes]

    def point_indices(self, memlet: Memlet) -> Optional[List[Expr]]:
        """One index expression per dimension of the memlet's subset over the
        flat domain (a densified axis's block is the point at its start), or
        ``None`` when some dimension is a range."""
        out: List[Expr] = []
        for r in memlet.subset.ranges:
            if not r.is_point() and not (
                isinstance(r.begin, Symbol) and r.begin.name in self.block_params
            ):
                return None
            out.append(r.begin)
        return out


def _is_block(r, t: str, width: int, params: Set[str]) -> Tuple[bool, Optional[Expr]]:
    """Whether the range ``r`` is the width-``width`` block that starts at
    ``t`` -- ``t : t + width - 1``, or ``t : Min(t + width - 1, E...)`` with
    every ``E`` free of the domain's parameters -- and the clamp ``E`` of the
    second form."""
    if not (isinstance(r.begin, Symbol) and r.begin.name == t and r.step == Integer(1)):
        return False, None
    if unit_affine_offset(r.end, t) == width - 1:
        return True, None
    if isinstance(r.end, Min):
        rest = [a for a in r.end.args if unit_affine_offset(a, t) != width - 1]
        if len(rest) == len(r.end.args) - 1 and not any(
            a.free_symbols & params for a in rest
        ):
            return True, Min.make(*rest)
    return False, None


def normalize_scope(
    state: SDFGState, entry: MapEntry
) -> Tuple[Optional[FlatScope], Optional[str]]:
    """The flat form of the scope under ``entry``, or the refusal's reason."""
    children = state.scope_children()
    levels = [entry]
    inside = children.get(entry, ())
    while len(inside) == 1 and isinstance(inside[0], MapEntry):
        inner = inside[0]
        # Pure pass-through: the inner map is fed by the enclosing entry alone.
        if any(e.src is not levels[-1] for e in state.in_edges(inner)):
            return None, "scope-not-single-tasklet"
        levels.append(inner)
        inside = children.get(inner, ())
    # Exactly one tasklet at the bottom: in-scope access nodes and imperfect
    # nests fall back to the interpreter.
    if len(inside) != 1 or not isinstance(inside[0], Tasklet):
        return None, "scope-not-single-tasklet"
    tasklet = inside[0]

    ranges = [
        (p, level, dim, rng)
        for level, node in enumerate(levels)
        for dim, (p, rng) in enumerate(zip(node.map.params, node.map.ranges))
    ]
    if len(levels) == 1 and all(
        isinstance(rng.step, Integer) and abs(rng.step.value) == 1 for _, _, _, rng in ranges
    ):
        # The common case: nothing to flatten, nothing strided.
        return _flat(levels, tasklet, ranges, {}, {}), None

    params = {p for p, _, _, _ in ranges}
    if len(params) != len(ranges):
        return None, "dependent-inner-range"  # an inner parameter shadows an outer one
    # Every symbol set is taken once: walking expression trees is what
    # this function costs.
    reads = [rng.free_symbols for _, _, _, rng in ranges]
    dense: Dict[str, Tuple[int, Optional[Expr], bool]] = {}  # param -> width, clamp, per_block
    source: Dict[str, int] = {}  # tile-densified param -> index of the strided range it unions
    unread: Dict[str, str] = {}
    uses: Optional[List[_Use]] = None
    for i, (t, t_level, _, rng) in enumerate(ranges):
        if not (isinstance(rng.step, Integer) and rng.step.value >= 2) or reads[i] & params:
            continue
        width = rng.step.value
        if uses is None:
            uses = _tasklet_uses(state, tasklet)
        users = [j for j in range(len(ranges)) if j != i and t in reads[j]]
        named = [use for use in uses if t in use.symbols]
        if users:
            # Tile: ``t`` only ever starts the block one inner axis iterates.
            p, level, _, inner = ranges[users[0]]
            ok, clamp = _is_block(inner, t, width, params)
            if len(users) != 1 or not ok or level <= t_level or named:
                return None, "dependent-inner-range"
            dense[p] = (width, clamp, False)
            source[p] = i
            unread[t] = "dependent-inner-range"
        elif any(not use.range.is_point() for use in named):
            ok, clamp = _vector_blocks(t, width, uses, named, params)
            # ``math.*`` is scalar-only, and there the tasklet runs on the block.
            if not ok or "math." in tasklet.code:
                return None, "non-block-use-of-strided-axis"
            dense[t] = (width, clamp, True)
            unread[t] = "non-block-use-of-strided-axis"
        # else: an ordinary strided axis of point accesses

    kept = []
    for i, (p, _, _, _) in enumerate(ranges):
        if p in unread and p not in dense:
            continue  # a tile's strided axis is gone
        i = source.get(p, i)
        if reads[i] & params:
            return None, "dependent-inner-range"
        kept.append((p,) + ranges[i][1:])
    return _flat(levels, tasklet, kept, dense, unread), None


@dataclass
class _Use:
    """One dimension of one tasklet memlet and the symbols it reads."""

    memlet: Memlet
    is_input: bool
    pos: int
    range: Any
    symbols: Set[str]


def _tasklet_uses(state: SDFGState, tasklet: Tasklet) -> List[_Use]:
    return [
        _Use(e.data, is_input, pos, r, r.free_symbols)
        for is_input, side in ((True, state.in_edges(tasklet)), (False, state.out_edges(tasklet)))
        for e in side
        if e.data is not None and not e.data.is_empty and e.data.subset is not None
        for pos, r in enumerate(e.data.subset.ranges)
    ]


def _vector_blocks(
    t: str, width: int, uses: List[_Use], named: List[_Use], params: Set[str]
) -> Tuple[bool, Optional[Expr]]:
    """Whether every tasklet memlet uses the strided axis ``t`` as one and the
    same width-``width`` block, so that the interpreter's arithmetic on block
    arrays is the flat domain's arithmetic on points -- and the blocks' clamp.

    Every memlet that names ``t`` (``named``: its dimensions that do) names
    it in one dimension, the block; every output names it (the tasklet's
    value is a block); and in every input and WCR output the block lies
    equally far from the last dimension (NumPy aligns trailing axes when the
    interpreter combines the block arrays; a plain write reshapes its value
    instead).
    """
    blocked = {id(use.memlet) for use in named}
    if len(blocked) != len(named) or any(
        not use.is_input and id(use.memlet) not in blocked for use in uses
    ):
        return False, None
    clamps = set()
    tails = set()
    for use in named:
        ok, clamp = _is_block(use.range, t, width, params)
        if not ok:
            return False, None
        clamps.add(clamp)
        if use.is_input or use.memlet.wcr is not None:
            tails.add(len(use.memlet.subset.ranges) - use.pos)
    return len(clamps) == 1 and len(tails) <= 1, next(iter(clamps))


def _flat(levels, tasklet, kept, dense, unread) -> FlatScope:
    axes: List[BoundAxis] = []
    deps: Set[str] = set()
    for p, level, dim, rng in kept:
        width, clamp, per_block = dense.get(p, (0, None, False))
        code = None if clamp is None else compile_expression(str(clamp))
        axes.append(BoundAxis(p, levels[level], dim, width, code, per_block))
        deps |= rng.free_symbols
        if clamp is not None:
            deps |= clamp.free_symbols
    return FlatScope(
        levels,
        tasklet,
        axes,
        deps,
        {p for p, (_, _, per_block) in dense.items() if per_block},
        any(not per_block for _, _, per_block in dense.values()),
        unread,
    )
