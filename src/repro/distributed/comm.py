"""A single-process simulation of MPI-style collectives.

Each collective is expressed over a list of per-rank NumPy buffers.  The
simulation is deliberately simple -- its purpose is to model the *dataflow*
structure of a distributed application (data arriving at a rank through a
collective becomes a plain local buffer), which is all the Fig. 6 argument
needs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["SimulatedComm"]


class SimulatedComm:
    """A communicator over ``size`` simulated ranks."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("Communicator size must be positive")
        self.size = size
        #: Number of collective operations performed (used by tests and the
        #: Fig. 6 benchmark to show cutouts exclude communication).
        self.num_collectives = 0

    # ------------------------------------------------------------------ #
    def bcast(self, data: np.ndarray, root: int = 0) -> List[np.ndarray]:
        """Broadcast the root's buffer to every rank."""
        self._check_rank(root)
        self.num_collectives += 1
        return [np.array(data, copy=True) for _ in range(self.size)]

    def scatter_rows(self, data: np.ndarray, root: int = 0) -> List[np.ndarray]:
        """Scatter a 2D array row-block-wise from the root."""
        self._check_rank(root)
        if data.shape[0] % self.size != 0:
            raise ValueError(
                f"Cannot scatter {data.shape[0]} rows over {self.size} ranks evenly"
            )
        self.num_collectives += 1
        chunk = data.shape[0] // self.size
        return [
            np.array(data[r * chunk : (r + 1) * chunk], copy=True)
            for r in range(self.size)
        ]

    def gather_rows(self, locals_: Sequence[np.ndarray], root: int = 0) -> np.ndarray:
        """The root receives the row-wise concatenation of all local buffers."""
        self._check_rank(root)
        self._check_participants(locals_)
        self.num_collectives += 1
        return np.concatenate(list(locals_), axis=0)

    # ------------------------------------------------------------------ #
    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise ValueError(f"Rank {rank} out of range for size {self.size}")

    def _check_participants(self, locals_: Sequence[np.ndarray]) -> None:
        if len(locals_) != self.size:
            raise ValueError(
                f"Collective requires {self.size} participants, got {len(locals_)}"
            )
