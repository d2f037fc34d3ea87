"""The transformation framework.

A :class:`PatternTransformation` finds *matches* (program locations it can
rewrite), checks applicability, applies the rewrite in place, and -- crucially
for FuzzyFlow's white-box change isolation (Sec. 3, step 2) -- reports which
nodes/states it modifies (the change set ΔT).

Transformations may carry an ``inject_bug`` flag.  With the flag off they are
faithful, semantics-preserving optimizations; with it on they reproduce the
bug class the paper's evaluation found in the corresponding DaCe or custom
transformation.  The differential-fuzzing case studies run the buggy variants
and check that FuzzyFlow flags them; the unit tests also check that the
correct variants pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

from repro.sdfg.copier import clone_state
from repro.sdfg.nodes import Node, next_guid
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState

__all__ = [
    "TransformationError",
    "Match",
    "PatternTransformation",
    "register_transformation",
    "all_builtin_transformations",
]


class TransformationError(Exception):
    """Raised when a transformation cannot be applied to a given match."""


@dataclass
class Match:
    """A concrete location a transformation can be applied to.

    ``state`` and ``nodes`` describe dataflow-level matches; state-machine
    transformations (loop unrolling, symbol promotion, ...) leave them empty
    and populate ``states`` / ``metadata`` instead.
    """

    transformation: "PatternTransformation"
    state: Optional[SDFGState] = None
    nodes: Dict[str, Node] = field(default_factory=dict)
    states: List[SDFGState] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        loc = ""
        if self.state is not None:
            loc = f"state '{self.state.label}'"
        elif self.states:
            loc = "states " + ", ".join(f"'{s.label}'" for s in self.states)
        parts = ", ".join(f"{k}={v!r}" for k, v in self.nodes.items())
        return f"{self.transformation.name} @ {loc} [{parts}]"

    def __repr__(self) -> str:
        return f"Match({self.describe()})"


class PatternTransformation:
    """Base class for all transformations."""

    #: Human-readable transformation name (defaults to the class name).
    name: str = ""
    #: One-line description (mirrors the Table 2 phrasing where applicable).
    description: str = ""
    #: Whether this transformation is part of the "built-in" set swept over
    #: the NPBench-style suite (Sec. 6.3).
    builtin: bool = True

    def __init__(self, inject_bug: bool = False) -> None:
        self.inject_bug = inject_bug
        if not self.name:
            self.name = type(self).__name__

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def find_matches(self, sdfg: SDFG) -> List[Match]:
        """All locations in ``sdfg`` this transformation can rewrite."""
        raise NotImplementedError

    def can_be_applied(self, sdfg: SDFG, match: Match) -> bool:
        """Additional applicability check for a specific match."""
        return True

    def apply(self, sdfg: SDFG, match: Match) -> None:
        """Rewrite ``sdfg`` in place at the matched location."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Change reporting (white-box ΔT)
    # ------------------------------------------------------------------ #
    def modified_nodes(self, sdfg: SDFG, match: Match) -> List[Tuple[SDFGState, Node]]:
        """Dataflow nodes of the *original* program this match will modify."""
        if match.state is None:
            return []
        return [(match.state, n) for n in match.nodes.values()]

    def modified_states(self, sdfg: SDFG, match: Match) -> List[SDFGState]:
        """States of the original program this match will modify."""
        if match.states:
            return list(match.states)
        if match.state is not None:
            return [match.state]
        return []

    def __repr__(self) -> str:
        flag = " [buggy]" if self.inject_bug else ""
        return f"<{self.name}{flag}>"


# ---------------------------------------------------------------------- #
# Registry of built-in transformations (used by the NPBench-style sweep)
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type[PatternTransformation]] = {}


def register_transformation(cls: Type[PatternTransformation]) -> Type[PatternTransformation]:
    """Class decorator adding a transformation to the built-in registry."""
    _REGISTRY[cls.__name__] = cls
    return cls


def all_builtin_transformations() -> Dict[str, Type[PatternTransformation]]:
    """Name -> class mapping of all registered built-in transformations."""
    # Importing the concrete modules populates the registry.
    import repro.transforms.fusion_transforms  # noqa: F401
    import repro.transforms.gpu_transforms  # noqa: F401
    import repro.transforms.map_transforms  # noqa: F401
    import repro.transforms.state_transforms  # noqa: F401

    return {name: cls for name, cls in _REGISTRY.items() if cls.builtin}


# ---------------------------------------------------------------------- #
# Helpers shared by concrete transformations
# ---------------------------------------------------------------------- #
def copy_state_into(sdfg: SDFG, state: SDFGState, new_label: str) -> SDFGState:
    """Copy a state into ``sdfg`` under a new label.

    All copied nodes receive *fresh* guids: the copies are new program
    elements (e.g. unrolled loop body instances), not the originals.
    """
    new_state = clone_state(state)
    new_state.label = new_label
    for node in new_state.nodes():
        node.guid = next_guid()
    sdfg._states.add_node(new_state)
    return new_state
