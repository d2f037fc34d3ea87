"""Builders for common numerical operations on dataflow states.

Two granularities are used deliberately:

* **fine-grained** ops are map scopes over element-wise tasklets; these are
  the structures the evaluated transformations (tiling, vectorization,
  fusion, ...) match and rewrite, so every loop nest the paper's case studies
  optimize is expressed this way;
* **coarse-grained** ops are single block tasklets operating on whole array
  views (e.g. ``C = A @ B``); these keep interpretation of the surrounding
  program fast where the structure is not the subject of a transformation
  (the role MKL-backed library nodes play in the paper's BERT case study).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import MapEntry, MapExit, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState

__all__ = ["add_matmul", "add_batched_matmul", "add_init"]


def _shape_of(sdfg: SDFG, name: str) -> List[str]:
    return [str(s) for s in sdfg.data(name).shape]


def _range_dict(params: Sequence[str], shape: Sequence[str]) -> Dict[str, str]:
    return {p: f"0:({s})-1" for p, s in zip(params, shape)}


# ---------------------------------------------------------------------- #
# Matrix products
# ---------------------------------------------------------------------- #
def add_matmul(
    sdfg: SDFG,
    state: SDFGState,
    a: str,
    b: str,
    c: str,
    coarse: bool = False,
    accumulate: bool = False,
    label: Optional[str] = None,
) -> Tuple:
    """Add ``C (+)= A @ B`` to a state.

    Fine-grained form: a 3D map (``i, j, k``) with a ``sum`` write-conflict
    resolution on ``C[i, j]`` (the output is zero-initialized first unless
    ``accumulate`` is set).  Coarse-grained form: one block tasklet.
    """
    label = label or f"matmul_{c}"
    n, k = _shape_of(sdfg, a)
    k2, m = _shape_of(sdfg, b)
    if coarse:
        ta = state.add_access(a)
        tb = state.add_access(b)
        tc = state.add_access(c)
        code = "z = x @ y" if not accumulate else "z = z_in + x @ y"
        inputs = ["x", "y"] + (["z_in"] if accumulate else [])
        t = state.add_tasklet(label, inputs, ["z"], code)
        state.add_edge(ta, None, t, "x", Memlet.full(a, [n, k]))
        state.add_edge(tb, None, t, "y", Memlet.full(b, [k2, m]))
        if accumulate:
            tc_in = state.add_access(c)
            state.add_edge(tc_in, None, t, "z_in", Memlet.full(c, [n, m]))
        state.add_edge(t, "z", tc, None, Memlet.full(c, [n, m]))
        return (t,)
    if not accumulate:
        add_init(sdfg, state, c, 0.0, label=f"{label}_init")
    tasklet, entry, exit_ = state.add_mapped_tasklet(
        label,
        {"i": f"0:({n})-1", "j": f"0:({m})-1", "k": f"0:({k})-1"},
        {"a_in": Memlet.simple(a, "i, k"), "b_in": Memlet.simple(b, "k, j")},
        "c_out = a_in * b_in",
        {"c_out": Memlet(c, "i, j", wcr="sum")},
    )
    return tasklet, entry, exit_


def add_batched_matmul(
    sdfg: SDFG,
    state: SDFGState,
    a: str,
    b: str,
    c: str,
    batch_dims: int = 2,
    label: Optional[str] = None,
) -> Tuple:
    """Add a batched ``C[b...] = A[b...] @ B[b...]`` as one block tasklet.

    ``batch_dims`` leading dimensions are treated as batch dimensions; the
    trailing two dimensions are contracted with ``numpy.matmul``.
    """
    label = label or f"bmm_{c}"
    ta, tb, tc = state.add_access(a), state.add_access(b), state.add_access(c)
    t = state.add_tasklet(label, ["x", "y"], ["z"], "z = np.matmul(x, y)")
    state.add_edge(ta, None, t, "x", Memlet.full(a, _shape_of(sdfg, a)))
    state.add_edge(tb, None, t, "y", Memlet.full(b, _shape_of(sdfg, b)))
    state.add_edge(t, "z", tc, None, Memlet.full(c, _shape_of(sdfg, c)))
    return (t,)


# ---------------------------------------------------------------------- #
# Initialization
# ---------------------------------------------------------------------- #
def add_init(
    sdfg: SDFG,
    state: SDFGState,
    dst: str,
    value: float = 0.0,
    label: Optional[str] = None,
) -> Tuple[Tasklet, MapEntry, MapExit]:
    """Initialize every element of ``dst`` to a constant value."""
    shape = _shape_of(sdfg, dst)
    params = [f"i{d}" for d in range(len(shape))]
    idx = ", ".join(params)
    return state.add_mapped_tasklet(
        label or f"init_{dst}",
        _range_dict(params, shape),
        {},
        f"out_val = {value!r}",
        {"out_val": Memlet.simple(dst, idx)},
    )
