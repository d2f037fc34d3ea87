"""Type classes, storage locations and schedule types for the dataflow IR.

``typeclass`` wraps a NumPy dtype; :data:`float64`, :data:`float32`,
:data:`int32`, :data:`int64`, :data:`uint8` and :data:`bool_` are the
instances used throughout the repository.

:class:`StorageType` and :class:`ScheduleType` mirror the (much larger) DaCe
enumerations just enough to express the transformations evaluated in the
paper: host vs. (simulated) device memory, and sequential vs. parallel vs.
device map schedules.
"""

from __future__ import annotations

import enum
from typing import Dict, Union

import numpy as np

from repro.symbolic.expressions import Immutable

__all__ = [
    "typeclass",
    "float32",
    "float64",
    "int8",
    "int32",
    "int64",
    "uint8",
    "bool_",
    "StorageType",
    "ScheduleType",
    "DTYPE_REGISTRY",
    "dtype_from_numpy",
    "REDUCTION_IDENTITIES",
    "reduction_function",
]


class typeclass(Immutable):
    """A scalar element type backed by a NumPy dtype (immutable: copies of a
    program share their element types)."""

    __slots__ = ("name", "nptype")

    def __init__(self, name: str, nptype: np.dtype) -> None:
        self.name = name
        self.nptype = np.dtype(nptype)

    def as_numpy(self) -> np.dtype:
        return self.nptype

    def __eq__(self, other: object) -> bool:
        if isinstance(other, typeclass):
            return self.nptype == other.nptype
        if isinstance(other, (str, np.dtype, type)):
            try:
                return self.nptype == np.dtype(other)
            except TypeError:
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("typeclass", self.nptype.str))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"typeclass({self.name})"


float32 = typeclass("float32", np.float32)
float64 = typeclass("float64", np.float64)
int8 = typeclass("int8", np.int8)
int32 = typeclass("int32", np.int32)
int64 = typeclass("int64", np.int64)
uint8 = typeclass("uint8", np.uint8)
bool_ = typeclass("bool", np.bool_)

DTYPE_REGISTRY: Dict[str, typeclass] = {
    t.name: t for t in (float32, float64, int8, int32, int64, uint8, bool_)
}


def dtype_from_numpy(dtype: Union[np.dtype, str, type, typeclass]) -> typeclass:
    """Look up (or build) the typeclass matching a NumPy dtype."""
    if isinstance(dtype, typeclass):
        return dtype
    npdt = np.dtype(dtype)
    for t in DTYPE_REGISTRY.values():
        if t.nptype == npdt:
            return t
    t = typeclass(npdt.name, npdt)
    DTYPE_REGISTRY[t.name] = t
    return t


class StorageType(enum.Enum):
    """Where a data container lives.

    The GPU storage types model the *simulated* accelerator used by the
    GPU-kernel-extraction case study (Sec. 6.4): device containers are
    separate host-side NumPy buffers, and host<->device copies are explicit
    copy edges, which is exactly the structure whose bugs the paper reports.
    """

    Default = "Default"
    CPU_Heap = "CPU_Heap"
    Register = "Register"
    GPU_Global = "GPU_Global"
    GPU_Shared = "GPU_Shared"


class ScheduleType(enum.Enum):
    """How a map scope is scheduled."""

    Sequential = "Sequential"
    CPU_Multicore = "CPU_Multicore"
    GPU_Device = "GPU_Device"
    Vectorized = "Vectorized"


# ---------------------------------------------------------------------- #
# Write-conflict resolution (reductions on memlets)
# ---------------------------------------------------------------------- #
REDUCTION_IDENTITIES: Dict[str, float] = {
    "sum": 0.0,
    "prod": 1.0,
    "max": -np.inf,
    "min": np.inf,
}


def reduction_function(wcr: str):
    """Return a binary NumPy ufunc-like callable for a WCR name."""
    table = {
        "sum": np.add,
        "prod": np.multiply,
        "max": np.maximum,
        "min": np.minimum,
    }
    if wcr not in table:
        raise ValueError(f"Unknown write-conflict resolution '{wcr}'")
    return table[wcr]
