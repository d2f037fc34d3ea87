"""The matrix-chain multiplication of Fig. 2: ``R = ((A @ B) @ C) @ D``.

Each multiplication is a three-dimensional map with a ``sum`` write-conflict
resolution, i.e. exactly the loop-nest structure whose tiling the paper's
running example breaks with an off-by-one bound.
"""

from __future__ import annotations

import numpy as np

from repro.frontend import add_matmul
from repro.sdfg import SDFG, float64

__all__ = ["build_matmul_chain", "reference_matmul_chain"]


def build_matmul_chain(size_symbol: str = "N") -> SDFG:
    """Build ``R = ((A @ B) @ C) @ D`` with four ``N x N`` input matrices.

    ``U`` and ``V`` are the transient intermediates of the first and second
    multiplications (the second one, producing ``V``, is the sub-program the
    paper extracts as a cutout).
    """
    sdfg = SDFG("matmul_chain")
    for name in ("A", "B", "C", "D", "R"):
        sdfg.add_array(name, [size_symbol, size_symbol], float64)
    sdfg.add_transient("U", [size_symbol, size_symbol], float64)
    sdfg.add_transient("V", [size_symbol, size_symbol], float64)
    state = sdfg.add_state("chain")
    add_matmul(sdfg, state, "A", "B", "U", label="mm1")
    add_matmul(sdfg, state, "U", "C", "V", label="mm2")
    add_matmul(sdfg, state, "V", "D", "R", label="mm3")
    return sdfg


def reference_matmul_chain(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray
) -> np.ndarray:
    """NumPy reference for the matrix chain."""
    return ((A @ B) @ C) @ D
