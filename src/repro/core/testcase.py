"""Reproducible test-case export and replay.

When differential fuzzing finds a fault-inducing input, FuzzyFlow emits a
*fully reproducible, minimal test case*: the extracted cutout program, the
transformation name, the failing input configuration (including symbol
values), and the observed verdict.  The test case can be reloaded on any
machine (e.g. a consumer workstation, as in the CLOUDSC case study) and
re-executed to reproduce and debug the fault without the original
application.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.fuzzing import compare_system_states
from repro.interpreter import SDFGExecutor
from repro.interpreter.errors import ExecutionError
from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import sdfg_from_dict, sdfg_to_dict

__all__ = ["ReproducibleTestCase", "save_test_case", "load_test_case"]


@dataclass
class ReproducibleTestCase:
    """A self-contained failing (or passing) test case."""

    name: str
    transformation: str
    original_cutout: SDFG
    transformed_cutout: Optional[SDFG]
    inputs: Dict[str, np.ndarray]
    symbols: Dict[str, int]
    system_state: List[str]
    input_configuration: List[str]
    verdict: str = ""
    notes: str = ""

    # ------------------------------------------------------------------ #
    def replay(self) -> Dict[str, Any]:
        """Re-run both cutouts on the stored inputs and re-compare (within
        :data:`repro.core.fuzzing.TOLERANCE`, as the fuzzer does)."""
        result: Dict[str, Any] = {"reproduced": False, "mismatched": [], "error": ""}
        orig_exec = SDFGExecutor(self.original_cutout)
        try:
            ref = orig_exec.run(
                {k: np.array(v, copy=True) for k, v in self.inputs.items()}, self.symbols
            )
        except ExecutionError as exc:
            result["error"] = f"original cutout failed: {exc}"
            return result
        if self.transformed_cutout is None:
            result["outputs"] = ref.outputs
            return result
        try:
            cand = SDFGExecutor(self.transformed_cutout).run(
                {k: np.array(v, copy=True) for k, v in self.inputs.items()}, self.symbols
            )
        except ExecutionError as exc:
            result["reproduced"] = True
            result["error"] = f"transformed cutout failed: {exc}"
            return result
        mismatched, max_err = compare_system_states(ref.outputs, cand.outputs, self.system_state)
        result["reproduced"] = bool(mismatched)
        result["mismatched"] = mismatched
        result["max_abs_error"] = max_err
        return result


def _save_program(sdfg: SDFG, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(sdfg_to_dict(sdfg), f, indent=2)


def _load_program(path: str) -> SDFG:
    with open(path, "r", encoding="utf-8") as f:
        return sdfg_from_dict(json.load(f))


def save_test_case(case: ReproducibleTestCase, directory: str) -> str:
    """Persist a test case to a directory; returns the directory path."""
    os.makedirs(directory, exist_ok=True)
    _save_program(case.original_cutout, os.path.join(directory, "cutout.json"))
    if case.transformed_cutout is not None:
        _save_program(case.transformed_cutout, os.path.join(directory, "cutout_transformed.json"))
    np.savez_compressed(
        os.path.join(directory, "inputs.npz"),
        **{k: np.asarray(v) for k, v in case.inputs.items()},
    )
    meta = {
        "name": case.name,
        "transformation": case.transformation,
        "symbols": {k: int(v) for k, v in case.symbols.items()},
        "system_state": list(case.system_state),
        "input_configuration": list(case.input_configuration),
        "verdict": case.verdict,
        "notes": case.notes,
    }
    with open(os.path.join(directory, "metadata.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)
    return directory


def load_test_case(directory: str) -> ReproducibleTestCase:
    """Load a test case previously stored with :func:`save_test_case`."""
    with open(os.path.join(directory, "metadata.json"), "r", encoding="utf-8") as f:
        meta = json.load(f)
    original = _load_program(os.path.join(directory, "cutout.json"))
    transformed_path = os.path.join(directory, "cutout_transformed.json")
    transformed = _load_program(transformed_path) if os.path.exists(transformed_path) else None
    with np.load(os.path.join(directory, "inputs.npz")) as data:
        inputs = {k: np.array(data[k]) for k in data.files}
    return ReproducibleTestCase(
        name=meta["name"],
        transformation=meta["transformation"],
        original_cutout=original,
        transformed_cutout=transformed,
        inputs=inputs,
        symbols={k: int(v) for k, v in meta.get("symbols", {}).items()},
        system_state=list(meta.get("system_state", [])),
        input_configuration=list(meta.get("input_configuration", [])),
        verdict=meta.get("verdict", ""),
        notes=meta.get("notes", ""),
    )
