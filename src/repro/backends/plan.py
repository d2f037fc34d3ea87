"""The typed lowering-plan IR (the *plan* layer of backend lowering).

Backend lowering is a four-stage pipeline (see :mod:`repro.backends`):

    analyze  ->  plan  ->  codegen  ->  execute

This module is the contract between the stages: every lowering decision the
analyzer makes -- which scopes vectorize and why the others do not, which
scopes fuse into which chains, which intermediates are chain-private, which
gather/write geometry each memlet lowers to -- is captured in plain
dataclasses.  Emitters (:mod:`repro.backends.codegen`) consume plans and
bind them to a concrete program's nodes; the execute layer never re-derives a decision.

Expressions are stored as *source strings* (per-dimension point indices,
constant output dimensions), not compiled code objects -- compilation is the
emitters' job, which keeps the IR picklable and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "InputPlan",
    "OutputPlan",
    "AxisPlan",
    "ScopePlan",
    "ChainPlan",
    "StatePlan",
    "ProgramPlan",
]


@dataclass
class InputPlan:
    """One gathered tasklet input (a point-subset read)."""

    conn: str
    data: str
    #: One index expression (source text) per container dimension.
    index_exprs: List[str]
    subset_str: str
    #: The same indices classified per dimension, exactly like
    #: :attr:`OutputPlan.dims`: ``("param", (axis, offset))`` for a
    #: unit-slope affine index in one map parameter (each parameter at most
    #: once), ``("const", expr)`` for an index free of map parameters, and
    #: -- inputs only -- ``("expr", text)`` for everything else (non-unit
    #: slope, two parameters, piecewise, a parameter's second use).  An
    #: input without an ``expr`` dimension is gathered in closed form
    #: (:mod:`repro.backends.geometry`); one with, through index arrays
    #: evaluated from :attr:`index_exprs`.
    dims: List[Tuple[str, Any]]


@dataclass
class OutputPlan:
    """One scattered tasklet output (a point-subset write, possibly WCR)."""

    conn: str
    data: str
    #: Per dimension: ``("param", (axis, offset))`` for a unit-slope affine
    #: index in one map parameter, or ``("const", expr)`` for an index
    #: expression (source text) free of map parameters.
    dims: List[Tuple[str, Any]]
    wcr: Optional[str]
    subset_str: str


@dataclass
class AxisPlan:
    """One axis of the flat iteration domain a scope was planned over
    (:mod:`repro.backends.normalize`)."""

    param: str
    #: The source of the axis's range: range ``dim`` of the map whose entry
    #: is :attr:`ScopePlan.level_guids` ``[level]``.
    level: int
    dim: int
    #: A densified axis: that range has step ``width`` and each of its
    #: values ``t`` stood for the block ``t : t + width - 1``, cut off at
    #: ``clamp`` (source text) when there is one; the axis iterates the
    #: union of the blocks with unit step.  0 for an axis taken as it is.
    width: int = 0
    clamp: Optional[str] = None
    #: The block was a memlet range of the range's own parameter
    #: (Vectorization), so the tasklet ran once per block, not per element.
    per_block: bool = False


@dataclass
class ScopePlan:
    """The vectorized-lowering recipe for one map scope.

    Nodes are referenced by guid (stable across clone and JSON round-trip).
    """

    #: The scope's (outermost) map entry.
    entry_guid: int
    entry_label: str
    tasklet_guid: int
    tasklet_label: str
    #: The tasklet source (straight-line, vectorizable; see analysis).
    code: str
    inputs: List[InputPlan]
    outputs: List[OutputPlan]
    #: Non-parameter names the scope's setup (grids, gather indices, write
    #: geometry) reads; executions with unchanged values reuse the setup.
    setup_deps: Tuple[str, ...] = ()
    #: Whether anything reads the broadcast iteration grids: the tasklet
    #: code names a map parameter, or an input has an ``expr`` dimension.
    #: Otherwise a scope execution never builds them.
    needs_grids: bool = True
    #: Map entries of the perfect nest the scope was flattened from,
    #: outermost (``entry_guid``) first; one entry for a plain scope.
    level_guids: Tuple[int, ...] = ()
    #: The flat domain the accesses' ``param`` axes index, in nest order.
    domain: List[AxisPlan] = field(default_factory=list)


@dataclass
class ChainPlan:
    """Fusion membership and input routing of one elementwise scope chain.

    ``routes`` parallels each member's :attr:`ScopePlan.inputs`: every
    input either reads the pre-chain store (``"gather"``) or an earlier
    member's in-flight value (``"chain"``).  ``internal`` names containers
    private to the chain, whose writes are never materialized.
    """

    member_guids: Tuple[int, ...]
    routes: List[List[str]]
    internal: Tuple[str, ...] = ()
    setup_deps: Tuple[str, ...] = ()


@dataclass
class StatePlan:
    """Every lowering decision for one state's dataflow."""

    state_label: str
    #: Plan (or ``None`` for analyzer-rejected scopes) per map-entry guid.
    scopes: Dict[int, Optional[ScopePlan]] = field(default_factory=dict)
    #: Why each rejected scope falls back to the interpreter (per guid).
    fallback_reasons: Dict[int, str] = field(default_factory=dict)
    chains: List[ChainPlan] = field(default_factory=list)


@dataclass
class ProgramPlan:
    """The complete lowering plan of one program; ``states`` follows the
    order of ``sdfg.states()``."""

    sdfg_name: str
    states: List[StatePlan] = field(default_factory=list)
