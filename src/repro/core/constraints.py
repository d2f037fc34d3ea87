"""Gray-box constraint derivation for fuzzing (Sec. 5.1).

Uniform random sampling of every free input leads to many uninteresting
crashes (e.g. an index parameter sampled outside its container).  FuzzyFlow
therefore performs static analyses on the cutout and the original program to
constrain sampled values:

* symbols used to *index* data containers are bounded by the container extent
  in that dimension,
* symbols used to *size* containers are sampled from ``[1, size_max]``
  (containers cannot have non-positive sizes),
* loop iteration variables inherit the loop bounds observed in the original
  program,
* engineers can add custom constraints from domain knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.sdfg.analysis import loop_variable_bounds
from repro.sdfg.nodes import MapEntry
from repro.sdfg.sdfg import SDFG

__all__ = ["SymbolConstraint", "derive_constraints"]


@dataclass
class SymbolConstraint:
    """An inclusive sampling interval for one symbol."""

    name: str
    low: int
    high: int
    role: str = "free"  # "size", "index", "loop", "free", "custom"

    def clamp(self, value: int) -> int:
        return max(self.low, min(self.high, value))


def _size_symbols(sdfg: SDFG) -> Set[str]:
    out: Set[str] = set()
    for desc in sdfg.arrays.values():
        out |= desc.free_symbols
    return out


def _index_symbol_bounds(
    sdfg: SDFG, symbol_values: Mapping[str, int]
) -> Dict[str, Tuple[int, int]]:
    """Bound symbols used to index containers by the indexed dimension size."""
    bounds: Dict[str, Tuple[int, int]] = {}
    size_syms = _size_symbols(sdfg)
    map_params: Set[str] = set()
    for state in sdfg.states():
        for node in state.nodes():
            if isinstance(node, MapEntry):
                map_params |= set(node.map.params)
    for state in sdfg.states():
        for edge in state.edges():
            memlet = edge.data
            if memlet is None or memlet.is_empty or memlet.subset is None:
                continue
            desc = sdfg.arrays.get(memlet.data)
            if desc is None:
                continue
            for dim, rng in enumerate(memlet.subset.ranges):
                dim_syms = (rng.begin.free_symbols | rng.end.free_symbols)
                dim_syms -= size_syms
                dim_syms -= map_params
                if not dim_syms:
                    continue
                try:
                    dim_size = int(desc.shape[dim].evaluate(symbol_values))
                except KeyError:
                    continue
                for sym in dim_syms:
                    lo, hi = bounds.get(sym, (0, dim_size - 1))
                    bounds[sym] = (max(0, lo), min(hi, dim_size - 1))
    return bounds


def derive_constraints(
    cutout_sdfg: SDFG,
    original_sdfg: Optional[SDFG] = None,
    symbol_values: Optional[Mapping[str, int]] = None,
    size_max: int = 32,
    custom: Optional[Mapping[str, Tuple[int, int]]] = None,
) -> Dict[str, SymbolConstraint]:
    """Derive sampling constraints for every free symbol of a cutout.

    ``symbol_values`` are the concrete defaults the engineer provided (e.g.
    the model sizes of the application being optimized); they anchor the
    index-bound analysis.  ``custom`` constraints override everything else.
    """
    symbol_values = dict(symbol_values or {})
    constraints: Dict[str, SymbolConstraint] = {}

    size_syms = _size_symbols(cutout_sdfg)
    free = set(cutout_sdfg.free_symbols)

    # 1. Size parameters: containers can never have non-positive sizes.
    for sym in sorted(free & size_syms):
        high = size_max
        if sym in symbol_values:
            high = max(1, min(size_max, int(symbol_values[sym]) * 2))
        constraints[sym] = SymbolConstraint(sym, 1, max(1, high), role="size")

    # 2. Index parameters: bounded by the dimensions they index (analysis on
    #    the cutout itself).
    index_bounds = _index_symbol_bounds(cutout_sdfg, symbol_values)
    for sym, (lo, hi) in sorted(index_bounds.items()):
        if sym in constraints:
            continue
        if sym in free:
            constraints[sym] = SymbolConstraint(sym, lo, max(lo, hi), role="index")

    # 3. Program-context constraints from the original program: loop bounds.
    if original_sdfg is not None:
        try:
            loop_bounds = loop_variable_bounds(original_sdfg, symbol_values)
        except Exception:
            loop_bounds = {}
        for sym, (lo, hi) in loop_bounds.items():
            if sym in free and sym not in constraints:
                constraints[sym] = SymbolConstraint(sym, lo, hi, role="loop")

    # 4. Remaining free symbols: generic non-negative range.
    for sym in sorted(free):
        if sym not in constraints:
            constraints[sym] = SymbolConstraint(sym, 0, size_max, role="free")

    # 5. Custom engineer-provided constraints override everything.
    for sym, (lo, hi) in (custom or {}).items():
        constraints[sym] = SymbolConstraint(sym, int(lo), int(hi), role="custom")

    return constraints
