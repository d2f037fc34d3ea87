"""Convenience builders that lower common numerical operations to the IR.

The paper's implementation uses DaCe's Python/C/Fortran frontends to obtain
dataflow graphs from source programs.  This reproduction instead provides a
few *op builders* (:mod:`repro.frontend.ops`) -- matrix products and
initialization -- that the workload programs in :mod:`repro.workloads`
are assembled from, together with hand-built map scopes.
"""

from repro.frontend.ops import add_batched_matmul, add_init, add_matmul

__all__ = ["add_matmul", "add_batched_matmul", "add_init"]
