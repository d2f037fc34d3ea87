"""Simulated distributed-memory substrate (Sec. 6.2 / Fig. 6).

The paper's Vanilla-Attention case study runs across MPI ranks; testing
optimizations there normally requires multi-node allocations.  This package
provides a single-process simulation of the relevant pieces:

* :class:`repro.distributed.comm.SimulatedComm` -- rank-indexed collectives
  (broadcast, scatter, allgather) over NumPy arrays,
* :mod:`repro.distributed.vanilla_attention` -- a row-partitioned distributed
  SDDMM whose per-rank compute kernel is a dataflow program, demonstrating
  that a cutout of the kernel excludes communication and can be fuzzed on a
  single "node".
"""

from repro.distributed.comm import SimulatedComm
from repro.distributed.vanilla_attention import (
    DistributedSDDMM,
    run_distributed_sddmm,
)

__all__ = ["SimulatedComm", "DistributedSDDMM", "run_distributed_sddmm"]
