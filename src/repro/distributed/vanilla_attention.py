"""Distributed Vanilla-Attention SDDMM over the simulated communicator.

The forward pass partitions the rows of ``A`` and of the sampling mask ``S``
across ranks, broadcasts ``B``, computes the local SDDMM on every rank with
the dataflow-IR kernel, and gathers the row blocks.  The per-rank compute
kernel is exactly :func:`repro.workloads.sddmm.build_sddmm`, so a FuzzyFlow
cutout extracted from it contains *no* communication -- any data received
through a collective appears as a regular input container (Sec. 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.distributed.comm import SimulatedComm
from repro.interpreter import execute_sdfg
from repro.sdfg import SDFG
from repro.workloads.sddmm import build_sddmm, reference_sddmm

__all__ = ["DistributedSDDMM", "run_distributed_sddmm"]


@dataclass
class DistributedSDDMM:
    """A row-partitioned SDDMM execution plan."""

    comm: SimulatedComm
    local_kernel: SDFG

    @classmethod
    def create(cls, num_ranks: int) -> "DistributedSDDMM":
        return cls(comm=SimulatedComm(num_ranks), local_kernel=build_sddmm())

    # ------------------------------------------------------------------ #
    def forward(self, A: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Run the distributed forward pass and return the gathered result."""
        comm = self.comm
        a_blocks = comm.scatter_rows(A)
        s_blocks = comm.scatter_rows(S)
        b_copies = comm.bcast(B)
        local_results: List[np.ndarray] = []
        for rank in range(comm.size):
            a_loc, s_loc, b_loc = a_blocks[rank], s_blocks[rank], b_copies[rank]
            result = execute_sdfg(
                self.local_kernel,
                {
                    "A": a_loc,
                    "B": b_loc,
                    "S": s_loc,
                    "out": np.zeros_like(s_loc),
                },
                {"NR": a_loc.shape[0], "NK": a_loc.shape[1], "NC": b_loc.shape[1]},
            )
            local_results.append(result.outputs["out"])
        return comm.gather_rows(local_results)


def run_distributed_sddmm(
    num_ranks: int,
    rows: int,
    cols: int,
    inner: int,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Convenience driver: random inputs, distributed run, NumPy reference."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, inner))
    B = rng.standard_normal((inner, cols))
    S = (rng.random((rows, cols)) < 0.25).astype(np.float64)
    plan = DistributedSDDMM.create(num_ranks)
    distributed = plan.forward(A, B, S)
    reference = reference_sddmm(A, B, S)
    return {
        "distributed": distributed,
        "reference": reference,
        "A": A,
        "B": B,
        "S": S,
        "num_collectives": np.array([plan.comm.num_collectives]),
    }
