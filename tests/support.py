"""Scaffolding that several test modules share and no product path uses.

* :func:`add_scale`, an op builder that lowers to the same map-scope
  structure as the builders of :mod:`repro.frontend.ops`;
* :func:`apply_to_first`, which applies a transformation at its first
  applicable match;
* :func:`equivalent`, a probabilistic semantic-equality check of symbolic
  expressions.
"""

import math
import random
from typing import Iterable, Optional, Tuple

from repro.frontend.ops import _range_dict, _shape_of
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import MapEntry, MapExit, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.expressions import sympify
from repro.transforms import Match, PatternTransformation, TransformationError


def add_scale(
    sdfg: SDFG,
    state: SDFGState,
    src: str,
    dst: str,
    scale: str,
    label: Optional[str] = None,
) -> Tuple[Tasklet, MapEntry, MapExit]:
    """Add ``dst[idx] = src[idx] * scale`` where ``scale`` is a scalar container.

    This is the loop-nest structure of the BERT multi-head-attention scaling
    step the Fig. 5 case study vectorizes.
    """
    shape = _shape_of(sdfg, dst)
    params = [f"i{d}" for d in range(len(shape))]
    idx = ", ".join(params)
    return state.add_mapped_tasklet(
        label or f"scale_{dst}",
        _range_dict(params, shape),
        {"in_val": Memlet.simple(src, idx), "s": Memlet.simple(scale, "0")},
        "out_val = in_val * s",
        {"out_val": Memlet.simple(dst, idx)},
    )


def apply_to_first(xform: PatternTransformation, sdfg: SDFG) -> Match:
    """Apply ``xform`` to its first applicable match (raises if none exists)."""
    matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
    if not matches:
        raise TransformationError(f"{xform.name}: no applicable match found")
    xform.apply(sdfg, matches[0])
    return matches[0]


def equivalent(a, b, symbols: Optional[Iterable[str]] = None, probes: int = 8,
               lo: int = 1, hi: int = 97, seed: int = 0) -> bool:
    """Whether two expressions agree at ``probes`` random points (used where
    structural equality is too strict, e.g. ``N + N`` vs ``2 * N``)."""
    ea, eb = sympify(a), sympify(b)
    syms = set(symbols or (ea.free_symbols | eb.free_symbols))
    rng = random.Random(seed)
    for _ in range(max(1, probes)):
        bindings = {s: rng.randint(lo, hi) for s in syms}
        try:
            va, vb = ea.evaluate(bindings), eb.evaluate(bindings)
        except (ZeroDivisionError, OverflowError):
            continue
        if isinstance(va, float) or isinstance(vb, float):
            if not math.isclose(float(va), float(vb), rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif va != vb:
            return False
    return True
