"""Input-configuration sampling for differential fuzzing.

Samples concrete symbol values (respecting derived constraints) and concrete
container contents for a cutout's input configuration.  Containers that are
only part of the system state are zero-initialized; both program versions of
a trial receive bit-identical copies of the same sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import SymbolConstraint
from repro.sdfg.sdfg import SDFG

__all__ = ["InputSample", "InputSampler"]


@dataclass
class InputSample:
    """One concrete input configuration."""

    arguments: Dict[str, np.ndarray]
    symbols: Dict[str, int]
    index: int = 0


class InputSampler:
    """Samples input configurations for a cutout."""

    #: Default edge length for size symbols when ``vary_sizes`` is off and no
    #: fixed value was provided.  Kept deliberately small: fixed-size
    #: campaigns are meant to be fast, so defaulting to the constraint's
    #: upper bound (the slowest trials) would silently waste the budget.  The
    #: value is clamped into the symbol's constraint interval.
    DEFAULT_FIXED_SIZE = 8

    def __init__(
        self,
        sdfg: SDFG,
        input_configuration: Sequence[str],
        system_state: Sequence[str],
        constraints: Optional[Mapping[str, SymbolConstraint]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
        vary_sizes: bool = True,
        value_range: float = 2.0,
        integer_range: Tuple[int, int] = (-8, 8),
        seed: int = 0,
    ) -> None:
        self.sdfg = sdfg
        self.input_configuration = list(input_configuration)
        self.system_state = list(system_state)
        self.constraints = dict(constraints or {})
        self.fixed_symbols = dict(fixed_symbols or {})
        self.vary_sizes = vary_sizes
        self.value_range = float(value_range)
        self.integer_range = integer_range
        self.rng = np.random.default_rng(seed)
        self._counter = 0
        #: The program is final once a sampler exists, so the walk that
        #: collects its free symbols happens once, not once per trial.
        self._free_symbols = sorted(sdfg.free_symbols)

    # ------------------------------------------------------------------ #
    def sample_symbols(self) -> Dict[str, int]:
        """Sample values for every free symbol of the program.

        Every ``fixed_symbols`` entry is honored in the output, even for
        symbols the program does not list as free (e.g. symbols only used by
        interstate assignments or by the enclosing context).
        """
        out: Dict[str, int] = {sym: int(val) for sym, val in self.fixed_symbols.items()}
        for sym in self._free_symbols:
            if sym in out:
                continue
            constraint = self.constraints.get(sym)
            if constraint is None:
                out[sym] = int(self.rng.integers(1, 17))
                continue
            if constraint.role == "size" and not self.vary_sizes:
                out[sym] = constraint.clamp(self.DEFAULT_FIXED_SIZE)
            else:
                out[sym] = int(self.rng.integers(constraint.low, constraint.high + 1))
        return out

    def _sample_container(self, name: str, symbols: Mapping[str, int]) -> np.ndarray:
        desc = self.sdfg.arrays[name]
        shape = desc.concrete_shape(symbols)
        dtype = desc.dtype.as_numpy()
        if np.issubdtype(dtype, np.floating):
            data = self.rng.uniform(-self.value_range, self.value_range, size=shape)
            return data.astype(dtype)
        if np.issubdtype(dtype, np.integer):
            lo, hi = self.integer_range
            return self.rng.integers(lo, hi + 1, size=shape).astype(dtype)
        if dtype == np.bool_:
            return self.rng.integers(0, 2, size=shape).astype(np.bool_)
        raise TypeError(f"Cannot sample values for dtype {dtype}")

    def sample(self, symbols: Optional[Mapping[str, int]] = None) -> InputSample:
        """Sample a full input configuration.

        Input-configuration containers receive random contents; containers
        only in the system state are zero-initialized; any other
        non-transient container of the executable cutout is zero-initialized
        as well (it must exist to run the program, but its value cannot
        influence the semantics).
        """
        symbol_values = dict(symbols) if symbols is not None else self.sample_symbols()
        arguments: Dict[str, np.ndarray] = {}
        for name, desc in self.sdfg.arrays.items():
            if desc.transient:
                continue
            if name in self.input_configuration:
                arguments[name] = self._sample_container(name, symbol_values)
            else:
                arguments[name] = np.zeros(
                    desc.concrete_shape(symbol_values), dtype=desc.dtype.as_numpy()
                )
        sample = InputSample(arguments=arguments, symbols=symbol_values, index=self._counter)
        self._counter += 1
        return sample
