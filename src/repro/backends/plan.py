"""The typed lowering-plan IR (the *plan* layer of backend lowering).

Backend lowering is a four-stage pipeline (see :mod:`repro.backends`):

    analyze  ->  plan  ->  codegen  ->  execute

This module is the contract between the stages: every lowering decision the
analyzer makes -- which scopes vectorize and why the others do not, which
scopes fuse into which chains, which intermediates are chain-private, which
gather/write geometry each memlet lowers to, which symbols the driver
hoists -- is captured in plain, serializable dataclasses.  Emitters
(:mod:`repro.backends.codegen`) consume plans and bind them to a concrete
program's nodes; the execute layer never re-derives a decision.

Plans are JSON round-trippable (:meth:`ProgramPlan.to_dict` /
:meth:`ProgramPlan.from_dict`), so the compiled backend persists them in its
on-disk artifacts next to the generated driver: a sibling worker process
skips scope analysis and fusion legality entirely.  The format is versioned
by :data:`PLAN_FORMAT_VERSION`; a mismatch is a cache *miss* (the plan is
re-derived and the artifact rewritten), never an error.

Expressions are stored as *source strings* (per-dimension point indices,
constant output dimensions), not compiled code objects -- compilation is the
emitters' job, which keeps the IR picklable and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "PLAN_FORMAT_VERSION",
    "InputPlan",
    "OutputPlan",
    "AxisPlan",
    "ScopePlan",
    "ChainPlan",
    "StatePlan",
    "ProgramPlan",
]

#: Version of the serialized plan format.  Bump on ANY structural change to
#: the dataclasses below: persisted artifacts carry it, and a mismatch
#: invalidates the cached entry.
PLAN_FORMAT_VERSION = 3


def _dims_from_json(raw) -> List[Tuple[str, Any]]:
    dims: List[Tuple[str, Any]] = []
    for kind, payload in raw:
        if kind == "param":
            axis, offset = payload
            dims.append(("param", (int(axis), int(offset))))
        else:
            dims.append((str(kind), str(payload)))
    return dims


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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "conn": self.conn,
            "data": self.data,
            "index_exprs": list(self.index_exprs),
            "subset_str": self.subset_str,
            "dims": [list(dim) for dim in self.dims],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "InputPlan":
        return cls(
            conn=d["conn"],
            data=d["data"],
            index_exprs=[str(e) for e in d["index_exprs"]],
            subset_str=d["subset_str"],
            dims=_dims_from_json(d["dims"]),
        )


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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "conn": self.conn,
            "data": self.data,
            "dims": [list(dim) for dim in self.dims],
            "wcr": self.wcr,
            "subset_str": self.subset_str,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "OutputPlan":
        return cls(
            conn=d["conn"],
            data=d["data"],
            dims=_dims_from_json(d["dims"]),
            wcr=d.get("wcr"),
            subset_str=d["subset_str"],
        )


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

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "AxisPlan":
        return cls(
            param=d["param"],
            level=int(d["level"]),
            dim=int(d["dim"]),
            width=int(d["width"]),
            clamp=d["clamp"],
            per_block=bool(d["per_block"]),
        )


@dataclass
class ScopePlan:
    """The vectorized-lowering recipe for one map scope.

    Nodes are referenced by guid (stable across clone and JSON round-trip,
    and covered by the SDFG content hash, so an artifact plan always
    resolves against the program it was derived from).
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entry_guid": self.entry_guid,
            "entry_label": self.entry_label,
            "tasklet_guid": self.tasklet_guid,
            "tasklet_label": self.tasklet_label,
            "code": self.code,
            "inputs": [i.to_dict() for i in self.inputs],
            "outputs": [o.to_dict() for o in self.outputs],
            "setup_deps": list(self.setup_deps),
            "needs_grids": self.needs_grids,
            "level_guids": list(self.level_guids),
            "domain": [a.to_dict() for a in self.domain],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ScopePlan":
        return cls(
            entry_guid=int(d["entry_guid"]),
            entry_label=d["entry_label"],
            tasklet_guid=int(d["tasklet_guid"]),
            tasklet_label=d["tasklet_label"],
            code=d["code"],
            inputs=[InputPlan.from_dict(i) for i in d["inputs"]],
            outputs=[OutputPlan.from_dict(o) for o in d["outputs"]],
            setup_deps=tuple(d.get("setup_deps", ())),
            needs_grids=bool(d["needs_grids"]),
            level_guids=tuple(int(g) for g in d["level_guids"]),
            domain=[AxisPlan.from_dict(a) for a in d["domain"]],
        )


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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "member_guids": list(self.member_guids),
            "routes": [list(r) for r in self.routes],
            "internal": list(self.internal),
            "setup_deps": list(self.setup_deps),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ChainPlan":
        return cls(
            member_guids=tuple(int(g) for g in d["member_guids"]),
            routes=[[str(step) for step in r] for r in d["routes"]],
            internal=tuple(d.get("internal", ())),
            setup_deps=tuple(d.get("setup_deps", ())),
        )


@dataclass
class StatePlan:
    """Every lowering decision for one state's dataflow."""

    state_label: str
    #: Plan (or ``None`` for analyzer-rejected scopes) per map-entry guid.
    scopes: Dict[int, Optional[ScopePlan]] = field(default_factory=dict)
    #: Why each rejected scope falls back to the interpreter (per guid).
    fallback_reasons: Dict[int, str] = field(default_factory=dict)
    chains: List[ChainPlan] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "state_label": self.state_label,
            "scopes": {
                str(guid): (plan.to_dict() if plan is not None else None)
                for guid, plan in self.scopes.items()
            },
            "fallback_reasons": {
                str(guid): reason for guid, reason in self.fallback_reasons.items()
            },
            "chains": [c.to_dict() for c in self.chains],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "StatePlan":
        return cls(
            state_label=d["state_label"],
            scopes={
                int(guid): (ScopePlan.from_dict(p) if p is not None else None)
                for guid, p in d.get("scopes", {}).items()
            },
            fallback_reasons={
                int(guid): str(reason)
                for guid, reason in d.get("fallback_reasons", {}).items()
            },
            chains=[ChainPlan.from_dict(c) for c in d.get("chains", [])],
        )


@dataclass
class ProgramPlan:
    """The complete lowering plan of one program.

    ``states`` follows the order of ``sdfg.states()`` (the artifact and the
    rebuilt program enumerate identically -- the content hash pins the
    serialization).  ``hoisted_symbols`` records the loop-invariant symbol
    loads the driver emitter hoisted, for inspection and reporting.
    """

    format: int
    sdfg_name: str
    states: List[StatePlan] = field(default_factory=list)
    hoisted_symbols: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": self.format,
            "sdfg_name": self.sdfg_name,
            "states": [s.to_dict() for s in self.states],
            "hoisted_symbols": list(self.hoisted_symbols),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ProgramPlan":
        fmt = d.get("format")
        if fmt != PLAN_FORMAT_VERSION:
            raise ValueError(
                f"Plan format {fmt!r} does not match {PLAN_FORMAT_VERSION}"
            )
        return cls(
            format=int(fmt),
            sdfg_name=d.get("sdfg_name", ""),
            states=[StatePlan.from_dict(s) for s in d.get("states", [])],
            hoisted_symbols=tuple(d.get("hoisted_symbols", ())),
        )
