"""FuzzyFlow core: cutout extraction, analyses and differential fuzzing.

High-level entry points:

* :func:`repro.core.verifier.verify_transformation` /
  :class:`repro.core.verifier.FuzzyFlowVerifier` -- the full workflow, one
  path (white-box ΔT, constraint-based sampling) with eight knobs,
* :func:`repro.core.cutout.extract_cutout` -- cutout extraction on its own,
  around a match's white-box ΔT or any explicit node/state set (such as
  :func:`repro.core.change_isolation.black_box_change_set`'s),
* :func:`repro.core.input_minimization.minimize_input_configuration` -- the
  minimum input-flow cut,
* :class:`repro.core.fuzzing.DifferentialFuzzer` -- the verifier's fuzzer.
"""

from repro.core.change_isolation import (
    black_box_change_set,
    graph_diff_nodes,
    white_box_change_set,
)
from repro.core.constraints import SymbolConstraint, derive_constraints
from repro.core.cutout import Cutout, extract_cutout, extract_state_cutout, transfer_match
from repro.core.fuzzing import DifferentialFuzzer, compare_system_states
from repro.core.input_minimization import MinimizationResult, minimize_input_configuration
from repro.core.mincut import SINK, SOURCE, FlowNetwork, prepare_input_flow_network
from repro.core.reporting import (
    FuzzingReport,
    TransformationTestReport,
    TrialResult,
    TrialStatus,
    Verdict,
)
from repro.core.requirements import REQUIREMENTS, REQUIREMENTS_TABLE, probe_parametric_dataflow
from repro.core.sampling import InputSample, InputSampler
from repro.core.side_effects import SideEffectAnalysis, analyze_side_effects
from repro.core.testcase import ReproducibleTestCase, load_test_case, save_test_case
from repro.core.verifier import FuzzyFlowVerifier, verify_transformation

__all__ = [
    "FuzzyFlowVerifier",
    "verify_transformation",
    "Cutout",
    "extract_cutout",
    "extract_state_cutout",
    "transfer_match",
    "analyze_side_effects",
    "SideEffectAnalysis",
    "white_box_change_set",
    "black_box_change_set",
    "graph_diff_nodes",
    "minimize_input_configuration",
    "MinimizationResult",
    "FlowNetwork",
    "prepare_input_flow_network",
    "SOURCE",
    "SINK",
    "derive_constraints",
    "SymbolConstraint",
    "InputSampler",
    "InputSample",
    "DifferentialFuzzer",
    "compare_system_states",
    "Verdict",
    "TrialStatus",
    "TrialResult",
    "FuzzingReport",
    "TransformationTestReport",
    "ReproducibleTestCase",
    "save_test_case",
    "load_test_case",
    "REQUIREMENTS",
    "REQUIREMENTS_TABLE",
    "probe_parametric_dataflow",
]
