"""The parametric dataflow intermediate representation.

This subpackage provides a self-contained re-implementation of the subset of
the Stateful Dataflow Multigraph (SDFG) representation that FuzzyFlow's
analyses rely on (see Table 1 of the paper):

* true per-operation read/write sets via memlets,
* parametric container shapes and access subsets,
* explicit transient/persistent data lifetime,
* hierarchical scopes (map scopes) and a control-flow state machine.
"""

from repro.sdfg.data import Array, Data, Scalar
from repro.sdfg.dtypes import (
    ScheduleType,
    StorageType,
    bool_,
    float32,
    float64,
    int32,
    int64,
    typeclass,
)
from repro.sdfg.graph import Edge, GraphError, OrderedMultiDiGraph
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    CodeNode,
    Map,
    MapEntry,
    MapExit,
    Node,
    Tasklet,
)
from repro.sdfg.sdfg import SDFG, InterstateEdge, SDFGError
from repro.sdfg.state import SDFGState, propagate_memlet
from repro.sdfg.validation import InvalidSDFGError, validate_sdfg

__all__ = [
    "SDFG",
    "SDFGState",
    "SDFGError",
    "InterstateEdge",
    "InvalidSDFGError",
    "validate_sdfg",
    "propagate_memlet",
    "Array",
    "Scalar",
    "Data",
    "Memlet",
    "Node",
    "AccessNode",
    "CodeNode",
    "Tasklet",
    "Map",
    "MapEntry",
    "MapExit",
    "Edge",
    "OrderedMultiDiGraph",
    "GraphError",
    "typeclass",
    "float32",
    "float64",
    "int32",
    "int64",
    "bool_",
    "StorageType",
    "ScheduleType",
]
