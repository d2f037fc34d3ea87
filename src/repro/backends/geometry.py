"""Closed-form scope geometry: integers in, one basic index out.

A vectorized scope touches its containers through point subsets whose
per-dimension index the analyzer has classified (``BoundInput.dims`` /
``BoundOutput.dims``): ``("param", (axis, offset))`` is the arithmetic
sequence ``first + offset, step, count`` of one map axis, ``("const",
code)`` a single position.  Bounds checks and NumPy indices for such
accesses follow from the map's evaluated ranges by integer arithmetic; no
index array is built, reduced or re-recognised.  Accesses with an
``expr`` dimension never come here (they materialise their index arrays in
:mod:`repro.backends.execute`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.interpreter.errors import MemoryViolation
from repro.interpreter.executor import _EVAL_GLOBALS

__all__ = ["Triple", "axis_triple", "access_index", "gather_index"]

#: ``(first, step, count)`` of one map axis.
Triple = Tuple[int, int, int]


def axis_triple(begin: int, end: int, step: int) -> Triple:
    """The iteration sequence of an evaluated (inclusive, non-zero-step)
    map range."""
    return begin, step, len(range(begin, end + 1 if step > 0 else end - 1, step))


def access_index(
    dims: Sequence[Tuple[str, Any]],
    triples: Sequence[Triple],
    shape: Tuple[int, ...],
    bindings: Dict[str, Any],
    data: str,
    subset_str: str,
) -> List[Any]:
    """Bounds-checked index of a ``param``/``const`` access over a
    non-empty domain: per container dimension a slice (``param``) or an
    int (``const``).

    Raises the interpreter's :class:`MemoryViolation` -- after every
    constant has been evaluated, so an unevaluable index still surfaces as
    its own error first.
    """
    if len(dims) != len(shape):
        raise MemoryViolation(data, subset_str, shape, "dimensionality mismatch")
    index: List[Any] = []
    inside = True
    for (kind, payload), dim in zip(dims, shape):
        if kind == "param":
            axis, offset = payload
            first, step, count = triples[axis]
            first += offset
            last = first + step * (count - 1)
            lo, hi = (first, last) if first <= last else (last, first)
            if count == 1:
                index.append(slice(first, first + 1))
            elif step > 0:
                index.append(slice(first, last + 1, step))
            else:
                index.append(slice(first, last - 1 if last > 0 else None, step))
        else:
            lo = hi = int(eval(payload, _EVAL_GLOBALS, bindings))  # noqa: S307
            index.append(lo)
        inside = inside and 0 <= lo and hi < dim
    if not inside:
        raise MemoryViolation(data, subset_str, shape)
    return index


def gather_index(
    dims: Sequence[Tuple[str, Any]], index: List[Any], nparams: int
) -> Tuple[Tuple, Optional[Tuple[int, ...]]]:
    """``(basic index, transpose)`` fetching the block a broadcast gather
    with index grids would: parameter axes in map order, length 1 for
    parameters the access does not use.  ``transpose`` is ``None`` when the
    indexed block already has that layout; an all-constant gather stays a
    scalar read.
    """
    used = [payload[0] for kind, payload in dims if kind == "param"]
    if not used:
        return tuple(index), None
    # Indexed block: the used parameters in dimension order, then one new
    # axis per unused parameter.
    order = used + [a for a in range(nparams) if a not in used]
    full = tuple(index) + (None,) * (nparams - len(used))
    if order == sorted(order):
        return full, None
    perm = list(range(nparams))
    for pos, axis in enumerate(order):
        perm[axis] = pos
    return full, tuple(perm)
