"""AFL-style coverage map.

The interpreter records coverage *features* -- hashed identifiers of control
flow decisions (state transitions, interstate-condition outcomes, tasklet
executions bucketed by execution count).  The coverage-guided fuzzer keeps an
input in its corpus whenever an execution produces a feature not seen before,
which mirrors how AFL++ uses its edge bitmap (Sec. 5.1, "Coverage-Guided
Fuzzing").
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

__all__ = ["CoverageMap", "bucket_count"]


def bucket_count(count: int) -> int:
    """Bucket an execution count the way AFL buckets hit counts.

    Buckets: 0, 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+.
    """
    if count <= 3:
        return count
    if count <= 7:
        return 4
    if count <= 15:
        return 8
    if count <= 31:
        return 16
    if count <= 127:
        return 32
    return 128


class CoverageMap:
    """A set of hashed coverage features."""

    __slots__ = ("_features",)

    def __init__(self, features: Iterable[int] | None = None) -> None:
        self._features: Set[int] = set(features or ())

    # ------------------------------------------------------------------ #
    def record(self, *feature) -> None:
        """Record a coverage feature (any hashable tuple of components)."""
        self._features.add(hash(feature) & 0xFFFFFFFF)

    def record_transition(self, src_label: str, dst_label: str) -> None:
        self.record("transition", src_label, dst_label)

    def record_condition(self, location: str, outcome: bool) -> None:
        self.record("condition", location, outcome)

    def record_tasklet(self, guid: int, count: int) -> None:
        self.record("tasklet", guid, bucket_count(count))

    # ------------------------------------------------------------------ #
    def features(self) -> Set[int]:
        return set(self._features)

    def merge(self, other: "CoverageMap") -> None:
        """Add all features of ``other`` into this map."""
        self._features |= other._features

    def has_new_coverage(self, other: "CoverageMap") -> bool:
        """Whether ``other`` exercises anything this map has not seen."""
        return bool(other._features - self._features)

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, feature: int) -> bool:
        return feature in self._features

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageMap):
            return NotImplemented
        return self._features == other._features

    def __repr__(self) -> str:
        return f"CoverageMap({len(self._features)} features)"
