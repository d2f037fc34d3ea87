"""A mini NPBench-style benchmark suite (Sec. 6.3).

The paper sweeps DaCe's built-in transformations over the 52 NPBench
applications and counts transformation instances that fail differential
fuzzing.  This package provides a representative subset of kernels drawn
from the same application domains (dense linear algebra, stencils,
reductions, element-wise pipelines and normalization), each built on the
dataflow IR and each exposing realistic transformation-instance counts.

Use :func:`repro.workloads.npbench.suite.all_kernels` to enumerate the suite.
"""

from repro.workloads.npbench.suite import KernelSpec, all_kernels

__all__ = ["KernelSpec", "all_kernels"]
