"""Kernel definitions for the mini NPBench suite.

Every kernel is a function returning a fresh program plus its default symbol
values (kept small so per-instance fuzzing of the whole suite stays within a
laptop-scale budget).  The kernels intentionally mix the structural patterns
the swept transformations match:

* element-wise maps (Vectorization, MapTiling, MapExpansion targets),
* producer/consumer buffer pairs (BufferTiling, MapReduceFusion targets),
* tasklet chains through scalar temporaries (TaskletFusion targets),
* interstate symbol assignments (StateAssignElimination /
  SymbolAliasPromotion targets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.frontend import add_init, add_matmul
from repro.sdfg import SDFG, InterstateEdge, Memlet, float64

__all__ = ["KernelSpec", "all_kernels"]


@dataclass
class KernelSpec:
    """A suite entry: a builder plus default symbol values and its domain."""

    name: str
    build: Callable[[], SDFG]
    symbols: Dict[str, int]
    domain: str


def _ew(state, label, ranges, inputs, code, outputs, **kw):
    return state.add_mapped_tasklet(label, ranges, inputs, code, outputs, **kw)


# ---------------------------------------------------------------------- #
# Dense linear algebra (polybench-style)
# ---------------------------------------------------------------------- #
def build_gemm() -> SDFG:
    """C = alpha * A @ B + beta * C."""
    sdfg = SDFG("gemm")
    sdfg.add_array("A", ["NI", "NK"], float64)
    sdfg.add_array("B", ["NK", "NJ"], float64)
    sdfg.add_array("C", ["NI", "NJ"], float64)
    sdfg.add_scalar("alpha", float64)
    sdfg.add_scalar("beta", float64)
    sdfg.add_transient("AB", ["NI", "NJ"], float64)
    state = sdfg.add_state("gemm")
    add_init(sdfg, state, "AB", 0.0)
    _, _, mm_exit = _ew(
        state, "mm", {"i": "0:NI-1", "j": "0:NJ-1", "k": "0:NK-1"},
        {"a": Memlet.simple("A", "i, k"), "b": Memlet.simple("B", "k, j"),
         "al": Memlet.simple("alpha", "0")},
        "c = al * a * b", {"c": Memlet("AB", "i, j", wcr="sum")},
    )
    ab_node = next(e.dst for e in state.out_edges(mm_exit))
    _ew(
        state, "scale_add", {"i": "0:NI-1", "j": "0:NJ-1"},
        {"ab": Memlet.simple("AB", "i, j"), "c_in": Memlet.simple("C", "i, j"),
         "be": Memlet.simple("beta", "0")},
        "c_out = ab + be * c_in", {"c_out": Memlet.simple("C", "i, j")},
        input_nodes={"AB": ab_node},
    )
    return sdfg


def build_atax() -> SDFG:
    """y = A^T (A x)."""
    sdfg = SDFG("atax")
    sdfg.add_array("A", ["M", "N"], float64)
    sdfg.add_array("x", ["N"], float64)
    sdfg.add_array("y", ["N"], float64)
    sdfg.add_transient("tmp", ["M"], float64)
    state = sdfg.add_state("atax")
    add_init(sdfg, state, "tmp", 0.0)
    add_init(sdfg, state, "y", 0.0)
    _, _, e1 = _ew(
        state, "ax", {"i": "0:M-1", "j": "0:N-1"},
        {"a": Memlet.simple("A", "i, j"), "xv": Memlet.simple("x", "j")},
        "t = a * xv", {"t": Memlet("tmp", "i", wcr="sum")},
    )
    tmp_node = next(e.dst for e in state.out_edges(e1))
    _ew(
        state, "aty", {"i": "0:M-1", "j": "0:N-1"},
        {"a": Memlet.simple("A", "i, j"), "t": Memlet.simple("tmp", "i")},
        "yv = a * t", {"yv": Memlet("y", "j", wcr="sum")},
        input_nodes={"tmp": tmp_node},
    )
    return sdfg


def build_bicg() -> SDFG:
    """s = A^T r ; q = A p."""
    sdfg = SDFG("bicg")
    sdfg.add_array("A", ["M", "N"], float64)
    sdfg.add_array("p", ["N"], float64)
    sdfg.add_array("r", ["M"], float64)
    sdfg.add_array("q", ["M"], float64)
    sdfg.add_array("s", ["N"], float64)
    state = sdfg.add_state("bicg")
    add_init(sdfg, state, "q", 0.0)
    add_init(sdfg, state, "s", 0.0)
    _ew(
        state, "q_mv", {"i": "0:M-1", "j": "0:N-1"},
        {"a": Memlet.simple("A", "i, j"), "pv": Memlet.simple("p", "j")},
        "qv = a * pv", {"qv": Memlet("q", "i", wcr="sum")},
    )
    _ew(
        state, "s_mv", {"i": "0:M-1", "j": "0:N-1"},
        {"a": Memlet.simple("A", "i, j"), "rv": Memlet.simple("r", "i")},
        "sv = a * rv", {"sv": Memlet("s", "j", wcr="sum")},
    )
    return sdfg


def build_mvt() -> SDFG:
    """x1 += A y1 ; x2 += A^T y2."""
    sdfg = SDFG("mvt")
    sdfg.add_array("A", ["N", "N"], float64)
    sdfg.add_array("x1", ["N"], float64)
    sdfg.add_array("x2", ["N"], float64)
    sdfg.add_array("y1", ["N"], float64)
    sdfg.add_array("y2", ["N"], float64)
    state = sdfg.add_state("mvt")
    _ew(
        state, "x1_update", {"i": "0:N-1", "j": "0:N-1"},
        {"a": Memlet.simple("A", "i, j"), "y": Memlet.simple("y1", "j")},
        "o = a * y", {"o": Memlet("x1", "i", wcr="sum")},
    )
    _ew(
        state, "x2_update", {"i": "0:N-1", "j": "0:N-1"},
        {"a": Memlet.simple("A", "j, i"), "y": Memlet.simple("y2", "j")},
        "o = a * y", {"o": Memlet("x2", "i", wcr="sum")},
    )
    return sdfg


def build_two_mm() -> SDFG:
    """D = alpha*A@B@C + beta*D (2mm)."""
    sdfg = SDFG("two_mm")
    sdfg.add_array("A", ["NI", "NK"], float64)
    sdfg.add_array("B", ["NK", "NJ"], float64)
    sdfg.add_array("C", ["NJ", "NL"], float64)
    sdfg.add_array("D", ["NI", "NL"], float64)
    sdfg.add_transient("tmp", ["NI", "NJ"], float64)
    state = sdfg.add_state("two_mm")
    add_matmul(sdfg, state, "A", "B", "tmp", label="first_mm")
    tmp_node = [n for n in state.data_nodes() if n.data == "tmp"][-1]
    add_init(sdfg, state, "D", 0.0)
    _ew(
        state, "second_mm", {"i": "0:NI-1", "j": "0:NL-1", "k": "0:NJ-1"},
        {"t": Memlet.simple("tmp", "i, k"), "c": Memlet.simple("C", "k, j")},
        "d = t * c", {"d": Memlet("D", "i, j", wcr="sum")},
        input_nodes={"tmp": tmp_node},
    )
    return sdfg


def build_three_mm() -> SDFG:
    """G = (A@B) @ (C@D) (3mm)."""
    sdfg = SDFG("three_mm")
    for name, shape in (
        ("A", ["NI", "NK"]), ("B", ["NK", "NJ"]), ("C", ["NJ", "NM"]),
        ("D", ["NM", "NL"]), ("G", ["NI", "NL"]),
    ):
        sdfg.add_array(name, shape, float64)
    sdfg.add_transient("E", ["NI", "NJ"], float64)
    sdfg.add_transient("F", ["NJ", "NL"], float64)
    state = sdfg.add_state("three_mm")
    add_matmul(sdfg, state, "A", "B", "E", label="e_mm")
    add_matmul(sdfg, state, "C", "D", "F", label="f_mm")
    add_matmul(sdfg, state, "E", "F", "G", label="g_mm")
    return sdfg


# ---------------------------------------------------------------------- #
# Stencils
# ---------------------------------------------------------------------- #
def build_jacobi_1d() -> SDFG:
    """One Jacobi-1D sweep: B[i] = (A[i-1] + A[i] + A[i+1]) / 3."""
    sdfg = SDFG("jacobi_1d")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array("B", ["N"], float64)
    state = sdfg.add_state("sweep")
    _ew(
        state, "jacobi", {"i": "1:N-2"},
        {"w": Memlet.simple("A", "i - 1"), "c": Memlet.simple("A", "i"),
         "e": Memlet.simple("A", "i + 1")},
        "o = (w + c + e) / 3.0", {"o": Memlet.simple("B", "i")},
    )
    return sdfg


def build_jacobi_2d() -> SDFG:
    """One Jacobi-2D sweep on the interior."""
    sdfg = SDFG("jacobi_2d")
    sdfg.add_array("A", ["N", "N"], float64)
    sdfg.add_array("B", ["N", "N"], float64)
    state = sdfg.add_state("sweep")
    _ew(
        state, "jacobi2d", {"i": "1:N-2", "j": "1:N-2"},
        {
            "c": Memlet.simple("A", "i, j"),
            "n": Memlet.simple("A", "i - 1, j"),
            "s": Memlet.simple("A", "i + 1, j"),
            "w": Memlet.simple("A", "i, j - 1"),
            "e": Memlet.simple("A", "i, j + 1"),
        },
        "o = 0.2 * (c + n + s + w + e)", {"o": Memlet.simple("B", "i, j")},
    )
    return sdfg


def build_heat_3d_step() -> SDFG:
    """A single heat-3d-like update on the interior of a 3D grid."""
    sdfg = SDFG("heat_3d")
    sdfg.add_array("A", ["N", "N", "N"], float64)
    sdfg.add_array("B", ["N", "N", "N"], float64)
    state = sdfg.add_state("step")
    _ew(
        state, "heat", {"i": "1:N-2", "j": "1:N-2", "k": "1:N-2"},
        {
            "c": Memlet.simple("A", "i, j, k"),
            "xm": Memlet.simple("A", "i - 1, j, k"),
            "xp": Memlet.simple("A", "i + 1, j, k"),
            "ym": Memlet.simple("A", "i, j - 1, k"),
            "yp": Memlet.simple("A", "i, j + 1, k"),
        },
        "o = c + 0.125 * (xm + xp + ym + yp - 4 * c)",
        {"o": Memlet.simple("B", "i, j, k")},
    )
    return sdfg


# ---------------------------------------------------------------------- #
# Element-wise pipelines, reductions, normalizations
# ---------------------------------------------------------------------- #
def build_axpy_pipeline() -> SDFG:
    """tmp = a*x ; y = tmp + y  (producer/consumer buffer pair)."""
    sdfg = SDFG("axpy_pipeline")
    sdfg.add_array("x", ["N"], float64)
    sdfg.add_array("y", ["N"], float64)
    sdfg.add_scalar("a", float64)
    sdfg.add_transient("tmp", ["N"], float64)
    state = sdfg.add_state("axpy")
    _, _, e1 = _ew(
        state, "scale_x", {"i": "0:N-1"},
        {"xv": Memlet.simple("x", "i"), "av": Memlet.simple("a", "0")},
        "t = av * xv", {"t": Memlet.simple("tmp", "i")},
    )
    tmp_node = next(e.dst for e in state.out_edges(e1))
    _ew(
        state, "add_y", {"i": "0:N-1"},
        {"t": Memlet.simple("tmp", "i"), "yv": Memlet.simple("y", "i")},
        "o = t + yv", {"o": Memlet.simple("y", "i")},
        input_nodes={"tmp": tmp_node},
    )
    return sdfg


def build_sum_of_squares() -> SDFG:
    """acc = sum(A**2) via a square map feeding a reduction map."""
    sdfg = SDFG("sum_of_squares")
    sdfg.add_array("A", ["N", "N"], float64)
    sdfg.add_array("acc", [1], float64)
    sdfg.add_transient("sq", ["N", "N"], float64)
    state = sdfg.add_state("s")
    add_init(sdfg, state, "acc", 0.0)
    _, _, e1 = _ew(
        state, "square", {"i": "0:N-1", "j": "0:N-1"},
        {"a": Memlet.simple("A", "i, j")}, "b = a * a",
        {"b": Memlet.simple("sq", "i, j")},
    )
    sq_node = next(e.dst for e in state.out_edges(e1))
    _ew(
        state, "reduce", {"i": "0:N-1", "j": "0:N-1"},
        {"in_val": Memlet.simple("sq", "i, j")}, "out_val = in_val",
        {"out_val": Memlet("acc", "0", wcr="sum")},
        input_nodes={"sq": sq_node},
    )
    return sdfg


def build_softmax_rows() -> SDFG:
    """Row-wise softmax with explicit max/sum reductions and loop nests."""
    sdfg = SDFG("softmax_rows")
    sdfg.add_array("X", ["N", "M"], float64)
    sdfg.add_array("Y", ["N", "M"], float64)
    sdfg.add_transient("rowmax", ["N"], float64)
    sdfg.add_transient("expx", ["N", "M"], float64)
    sdfg.add_transient("rowsum", ["N"], float64)
    state = sdfg.add_state("softmax")
    add_init(sdfg, state, "rowmax", -1e30)
    add_init(sdfg, state, "rowsum", 0.0)
    _, _, e_max = _ew(
        state, "row_max", {"i": "0:N-1", "j": "0:M-1"},
        {"x": Memlet.simple("X", "i, j")}, "m = x",
        {"m": Memlet("rowmax", "i", wcr="max")},
    )
    rowmax_node = next(e.dst for e in state.out_edges(e_max))
    _, _, e_exp = _ew(
        state, "exp_shift", {"i": "0:N-1", "j": "0:M-1"},
        {"x": Memlet.simple("X", "i, j"), "m": Memlet.simple("rowmax", "i")},
        "e = math.exp(x - m)", {"e": Memlet.simple("expx", "i, j")},
        input_nodes={"rowmax": rowmax_node},
    )
    expx_node = next(e.dst for e in state.out_edges(e_exp))
    _, _, e_sum = _ew(
        state, "row_sum", {"i": "0:N-1", "j": "0:M-1"},
        {"e": Memlet.simple("expx", "i, j")}, "s = e",
        {"s": Memlet("rowsum", "i", wcr="sum")},
        input_nodes={"expx": expx_node},
    )
    rowsum_node = next(e.dst for e in state.out_edges(e_sum))
    _ew(
        state, "normalize", {"i": "0:N-1", "j": "0:M-1"},
        {"e": Memlet.simple("expx", "i, j"), "s": Memlet.simple("rowsum", "i")},
        "y = e / s", {"y": Memlet.simple("Y", "i, j")},
        input_nodes={"expx": expx_node, "rowsum": rowsum_node},
    )
    return sdfg


def build_scaled_diff_chain() -> SDFG:
    """Scalar tasklet chain: d = |a*x0 - b*x1| (TaskletFusion targets)."""
    sdfg = SDFG("scaled_diff")
    sdfg.add_array("x", [2], float64)
    sdfg.add_array("d", [1], float64)
    sdfg.add_scalar("a", float64)
    sdfg.add_scalar("b", float64)
    sdfg.add_transient("t0", [1], float64)
    sdfg.add_transient("t1", [1], float64)
    state = sdfg.add_state("s")
    xr = state.add_access("x")
    ar, br = state.add_access("a"), state.add_access("b")
    t0n, t1n = state.add_access("t0"), state.add_access("t1")
    dw = state.add_access("d")
    tk0 = state.add_tasklet("scale0", ["xv", "av"], ["o"], "o = av * xv")
    tk1 = state.add_tasklet("scale1", ["xv", "bv"], ["o"], "o = bv * xv")
    tk2 = state.add_tasklet("diff", ["u", "v"], ["o"], "o = abs(u - v)")
    state.add_edge(xr, None, tk0, "xv", Memlet.simple("x", "0"))
    state.add_edge(ar, None, tk0, "av", Memlet.simple("a", "0"))
    state.add_edge(tk0, "o", t0n, None, Memlet.simple("t0", "0"))
    state.add_edge(xr, None, tk1, "xv", Memlet.simple("x", "1"))
    state.add_edge(br, None, tk1, "bv", Memlet.simple("b", "0"))
    state.add_edge(tk1, "o", t1n, None, Memlet.simple("t1", "0"))
    state.add_edge(t0n, None, tk2, "u", Memlet.simple("t0", "0"))
    state.add_edge(t1n, None, tk2, "v", Memlet.simple("t1", "0"))
    state.add_edge(tk2, "o", dw, None, Memlet.simple("d", "0"))
    return sdfg


def build_windowed_update() -> SDFG:
    """Two states with an interstate symbol alias (state-machine targets)."""
    sdfg = SDFG("windowed_update")
    sdfg.add_array("X", ["N"], float64)
    sdfg.add_array("Y", ["N"], float64)
    sdfg.add_symbol("W")
    first = sdfg.add_state("setup", is_start_state=True)
    compute = sdfg.add_state("compute")
    compute.add_mapped_tasklet(
        "window", {"i": "0:W-1"},
        {"x": Memlet.simple("X", "i")}, "y = x * 0.5",
        {"y": Memlet.simple("Y", "i")},
    )
    sdfg.add_edge(first, compute, InterstateEdge(assignments={"W": "N"}))
    return sdfg


def build_iterative_smoother() -> SDFG:
    """A constant-trip sequential loop of element-wise smoothing sweeps."""
    sdfg = SDFG("iterative_smoother")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_transient("B", ["N"], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("sweep")
    _, _, e1 = body.add_mapped_tasklet(
        "smooth", {"i": "1:N-2"},
        {"w": Memlet.simple("A", "i - 1"), "c": Memlet.simple("A", "i"),
         "e": Memlet.simple("A", "i + 1")},
        "o = (w + c + e) / 3.0", {"o": Memlet.simple("B", "i")},
    )
    b_node = next(e.dst for e in body.out_edges(e1))
    body.add_mapped_tasklet(
        "writeback", {"i": "1:N-2"},
        {"b": Memlet.simple("B", "i")}, "a = b",
        {"a": Memlet.simple("A", "i")},
        input_nodes={"B": b_node},
    )
    sdfg.add_loop(init, body, None, "t", "0", "t < 4", "t + 1")
    return sdfg


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_KERNELS: List[KernelSpec] = [
    KernelSpec("gemm", build_gemm, {"NI": 6, "NJ": 5, "NK": 4}, "linear algebra"),
    KernelSpec("atax", build_atax, {"M": 6, "N": 5}, "linear algebra"),
    KernelSpec("bicg", build_bicg, {"M": 6, "N": 5}, "linear algebra"),
    KernelSpec("mvt", build_mvt, {"N": 6}, "linear algebra"),
    KernelSpec("2mm", build_two_mm, {"NI": 4, "NJ": 5, "NK": 3, "NL": 4}, "linear algebra"),
    KernelSpec("3mm", build_three_mm, {"NI": 4, "NJ": 3, "NK": 3, "NM": 4, "NL": 3}, "linear algebra"),
    KernelSpec("jacobi_1d", build_jacobi_1d, {"N": 12}, "stencil"),
    KernelSpec("jacobi_2d", build_jacobi_2d, {"N": 8}, "stencil"),
    KernelSpec("heat_3d", build_heat_3d_step, {"N": 6}, "stencil"),
    KernelSpec("axpy_pipeline", build_axpy_pipeline, {"N": 12}, "elementwise"),
    KernelSpec("sum_of_squares", build_sum_of_squares, {"N": 6}, "reduction"),
    KernelSpec("softmax_rows", build_softmax_rows, {"N": 5, "M": 6}, "normalization"),
    KernelSpec("scaled_diff", build_scaled_diff_chain, {}, "scalar pipeline"),
    KernelSpec("windowed_update", build_windowed_update, {"N": 8}, "control flow"),
    KernelSpec("iterative_smoother", build_iterative_smoother, {"N": 10}, "control flow"),
]


def all_kernels() -> List[KernelSpec]:
    """All kernels of the mini suite."""
    return list(_KERNELS)
