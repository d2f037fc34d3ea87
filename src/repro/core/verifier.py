"""The top-level FuzzyFlow workflow (Fig. 1).

:class:`FuzzyFlowVerifier` ties the pieces together for one transformation
instance, along one path:

1. **change isolation** -- ΔT as the transformation reports it (white box,
   Sec. 3),
2. **cutout extraction** -- build a standalone test program around ΔT with its
   input configuration and system state,
3. **input minimization** -- optionally shrink the input configuration with
   the minimum input-flow cut (Sec. 4),
4. **transformation application** -- transfer the match onto the cutout and
   apply it; failures or invalid results are reported as "generates invalid
   code",
5. **gray-box differential fuzzing** -- sample inputs within the derived
   constraints and compare system states (Sec. 5), and
6. **test-case generation** -- persist the fault-inducing input together with
   both cutouts when a fault is found.

``verify_whole_program`` provides the baseline the paper compares against:
differential testing of the *entire* application instead of the cutout; it
shares the match pick and the fuzzing step with ``verify``.

The verifier takes eight knobs and no more (``tests/test_core_verifier.py``
pins them).  Black-box ΔT, the alternative the paper measures the white box
against, lives beside this path, not behind a switch:
:func:`repro.core.change_isolation.black_box_change_set`, whose result
``extract_cutout(sdfg, nodes=, states=)`` turns into a cutout.
"""

from __future__ import annotations

import os
from typing import List, Mapping, Optional, Sequence

from repro.backends import DEFAULT_BACKEND
from repro.core.constraints import derive_constraints
from repro.core.cutout import Cutout, extract_cutout, transfer_match
from repro.core.fuzzing import DifferentialFuzzer
from repro.core.input_minimization import minimize_input_configuration
from repro.core.reporting import TransformationTestReport, Verdict
from repro.core.sampling import InputSampler
from repro.core.testcase import ReproducibleTestCase, save_test_case
from repro.sdfg.sdfg import SDFG
from repro.sdfg.validation import InvalidSDFGError, validate_sdfg
from repro.telemetry import TRACER as _TRACER
from repro.telemetry import perf_counter as _perf_counter
from repro.transforms.base import Match, PatternTransformation

__all__ = ["FuzzyFlowVerifier", "verify_transformation"]


class FuzzyFlowVerifier:
    """Driver for testing transformation instances."""

    def __init__(
        self,
        num_trials: int = 50,
        minimize_inputs: bool = True,
        vary_sizes: bool = True,
        stop_on_failure: bool = True,
        size_max: int = 32,
        seed: int = 0,
        test_case_dir: Optional[str] = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.num_trials = num_trials
        self.minimize_inputs = minimize_inputs
        self.vary_sizes = vary_sizes
        self.stop_on_failure = stop_on_failure
        self.size_max = size_max
        self.seed = seed
        self.test_case_dir = test_case_dir
        #: Name of the execution backend for differential fuzzing (one of
        #: repro.backends.BACKEND_NAMES, or a ``cross:REF,CAND`` pair).
        self.backend = backend

    # ------------------------------------------------------------------ #
    def verify(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        match: Optional[Match] = None,
        symbol_values: Optional[Mapping[str, int]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
    ) -> TransformationTestReport:
        """Test one transformation instance on a program.

        ``sdfg`` is read-only here: it may be shared with other instances,
        tasks and threads of the process, so the transformation is only ever
        applied to a clone of the extracted cutout.  The cutout's program
        (``cutout.sdfg``) and that clone are private to this call; their
        ``transient`` flags are finalised in place once the transformation
        has been applied."""
        start = _perf_counter()
        symbol_values = dict(symbol_values or {})
        match = self._pick_match(sdfg, transformation, match)
        if match is None:
            return _no_match_report(transformation, start)

        report = TransformationTestReport(
            transformation=transformation.name,
            match_description=match.describe(),
            verdict=Verdict.UNTESTED,
        )

        # 1-2. Change isolation + cutout extraction.
        try:
            with _TRACER.span("verify.cutout", "verify"):
                cutout = extract_cutout(
                    sdfg,
                    transformation=transformation,
                    match=match,
                    symbol_values=symbol_values,
                )
        except Exception as exc:  # noqa: BLE001 - reported as a verdict
            return _invalid(report, f"cutout extraction failed: {exc}", start)

        # 3. Input-configuration minimization (dataflow cutouts only).
        if self.minimize_inputs and cutout.kind == "dataflow":
            try:
                with _TRACER.span("verify.minimize", "verify"):
                    original_state = sdfg.state_by_label(cutout.state_labels[0])
                    minimization = minimize_input_configuration(
                        sdfg, original_state, cutout, symbol_values
                    )
                cutout = minimization.cutout
                report.minimized = minimization.minimized
            except Exception as exc:  # noqa: BLE001 - minimization is best effort
                report.warnings.append(f"input minimization skipped: {exc}")

        report.cutout_containers = len(cutout.sdfg.arrays)
        report.cutout_nodes = cutout.num_nodes()
        report.cutout_states = len(cutout.sdfg.states())
        report.input_configuration = list(cutout.input_configuration)
        report.system_state = list(cutout.system_state)
        report.warnings.extend(cutout.warnings)
        try:
            report.input_volume_elements = cutout.input_volume(symbol_values)
        except Exception:
            report.input_volume_elements = None

        if not cutout.system_state:
            report.warnings.append(
                "cutout has an empty system state; the transformation cannot "
                "affect program semantics through data"
            )

        # 4. Apply the transformation to the cutout.
        with _TRACER.span("verify.clone", "verify"):
            transformed = cutout.sdfg.clone(new_name=f"{cutout.sdfg.name}_transformed")
        try:
            with _TRACER.span("verify.apply", "verify"):
                cutout_match = transfer_match(transformation, match, transformed)
                transformation.apply(transformed, cutout_match)
        except Exception as exc:  # noqa: BLE001 - reported as a verdict
            return _invalid(report, f"failed to apply transformation to the cutout: {exc}", start)

        # Only now, after the clone and the application (a transformation
        # may consult ``transient``), are the flags finalised -- in place.
        cutout.expose(cutout.sdfg)
        cutout.expose(transformed)

        # 5. Structural validation of the transformed cutout.
        try:
            validate_sdfg(transformed)
        except InvalidSDFGError as exc:
            _invalid(report, f"transformed program is invalid: {exc}", start)
            self._maybe_save_test_case(report, cutout, transformed, symbol_values)
            return report

        # 6. Gray-box differential fuzzing.
        self._fuzz(
            report, sdfg, cutout.sdfg, transformed, cutout.input_configuration,
            cutout.system_state, symbol_values, fixed_symbols, start,
        )
        if report.verdict.is_failure:
            self._maybe_save_test_case(report, cutout, transformed, symbol_values)
        return report

    # ------------------------------------------------------------------ #
    def _pick_match(
        self, sdfg: SDFG, transformation: PatternTransformation, match: Optional[Match]
    ) -> Optional[Match]:
        """``match``, or else the first applicable one (``None`` if none)."""
        if match is not None:
            return match
        matches = self.enumerate_instances(sdfg, transformation, max_instances=1)
        return matches[0] if matches else None

    def _fuzz(
        self,
        report: TransformationTestReport,
        sdfg: SDFG,
        original: SDFG,
        transformed: SDFG,
        input_configuration: Sequence[str],
        system_state: Sequence[str],
        symbol_values: Mapping[str, int],
        fixed_symbols: Optional[Mapping[str, int]],
        start: float,
    ) -> None:
        """Constraints -> sampler -> fuzzer -> verdict, into ``report``.

        ``original`` is the program under test (a cutout, or ``sdfg``
        itself for the whole-program baseline); ``sdfg`` is the program it
        was taken from, the context its constraints are derived in."""
        constraints = derive_constraints(
            original,
            original_sdfg=sdfg,
            symbol_values=symbol_values,
            size_max=self.size_max,
        )
        sampler = InputSampler(
            original,
            input_configuration,
            system_state,
            constraints=constraints,
            fixed_symbols=fixed_symbols,
            vary_sizes=self.vary_sizes,
            seed=self.seed,
        )
        fuzzer = DifferentialFuzzer(
            original, transformed, system_state, sampler, backend=self.backend
        )
        with _TRACER.span("verify.fuzz", "verify") as span:
            span.set("trials", self.num_trials)
            report.fuzzing = fuzzer.run(
                num_trials=self.num_trials, stop_on_failure=self.stop_on_failure
            )
        report.verdict = report.fuzzing.verdict()
        report.duration_seconds = _perf_counter() - start

    def _maybe_save_test_case(
        self,
        report: TransformationTestReport,
        cutout: Cutout,
        transformed: SDFG,
        symbol_values: Mapping[str, int],
    ) -> None:
        """Persist the failing input of ``report`` (none if the transformed
        cutout was invalid) with both cutouts, when ``test_case_dir`` is set."""
        if self.test_case_dir is None:
            return
        fuzzing = report.fuzzing
        failing_inputs = fuzzing.failing_inputs if fuzzing else None
        failing_symbols = fuzzing.failing_symbols if fuzzing else None
        case = ReproducibleTestCase(
            name=f"{report.transformation}_{len(os.listdir(self.test_case_dir)) if os.path.isdir(self.test_case_dir) else 0}",
            transformation=report.transformation,
            original_cutout=cutout.sdfg,
            transformed_cutout=transformed,
            inputs=failing_inputs or {},
            symbols=failing_symbols or {k: int(v) for k, v in symbol_values.items()},
            system_state=list(cutout.system_state),
            input_configuration=list(cutout.input_configuration),
            verdict=report.verdict.value,
        )
        path = os.path.join(self.test_case_dir, case.name)
        report.test_case_path = save_test_case(case, path)

    # ------------------------------------------------------------------ #
    def enumerate_instances(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        max_instances: Optional[int] = None,
    ) -> List[Match]:
        """Enumerate the applicable matches of a transformation on a program.

        Enumeration is separable from execution: the sweep pipeline uses it
        to fan (workload x transformation x match instance) tasks out to
        worker processes, which re-enumerate by index on a worker-side
        rebuild of the same program.  The order is deterministic for a given
        program construction."""
        matches = [
            m
            for m in transformation.find_matches(sdfg)
            if transformation.can_be_applied(sdfg, m)
        ]
        if max_instances is not None:
            matches = matches[:max_instances]
        return matches

    def verify_instance(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        instance_index: int,
        symbol_values: Optional[Mapping[str, int]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
    ) -> TransformationTestReport:
        """Test the ``instance_index``-th applicable match of a transformation."""
        with _TRACER.span("verify.enumerate", "verify"):
            matches = self.enumerate_instances(sdfg, transformation)
        if instance_index < 0 or instance_index >= len(matches):
            return TransformationTestReport(
                transformation=transformation.name,
                match_description=f"(instance {instance_index} out of range, "
                f"{len(matches)} available)",
                verdict=Verdict.UNTESTED,
                error_message=f"instance index {instance_index} out of range: "
                f"only {len(matches)} applicable match(es) on this program build",
            )
        return self.verify(
            sdfg,
            transformation,
            match=matches[instance_index],
            symbol_values=symbol_values,
            fixed_symbols=fixed_symbols,
        )

    # ------------------------------------------------------------------ #
    def verify_all_instances(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        symbol_values: Optional[Mapping[str, int]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
        max_instances: Optional[int] = None,
    ) -> List[TransformationTestReport]:
        """Test every applicable instance of a transformation on a program.

        All instances are tested against the one ``sdfg`` passed in, which
        ``verify`` only reads; they are independent (as in the paper's
        per-instance testing) because each applies the transformation to its
        own private cutout."""
        reports: List[TransformationTestReport] = []
        for m in self.enumerate_instances(sdfg, transformation, max_instances):
            reports.append(
                self.verify(
                    sdfg,
                    transformation,
                    match=m,
                    symbol_values=symbol_values,
                    fixed_symbols=fixed_symbols,
                )
            )
        return reports

    # ------------------------------------------------------------------ #
    def verify_whole_program(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        match: Optional[Match] = None,
        symbol_values: Optional[Mapping[str, int]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
    ) -> TransformationTestReport:
        """Baseline: differential testing of the entire application.

        This is the "traditional approach" the paper compares cutout-based
        testing against (e.g. the 528x headline of Sec. 6.1)."""
        start = _perf_counter()
        symbol_values = dict(symbol_values or {})
        match = self._pick_match(sdfg, transformation, match)
        if match is None:
            return _no_match_report(transformation, start)

        report = TransformationTestReport(
            transformation=transformation.name,
            match_description=f"whole-program: {match.describe()}",
            verdict=Verdict.UNTESTED,
        )
        transformed = sdfg.clone(new_name=f"{sdfg.name}_transformed")
        try:
            prog_match = transfer_match(transformation, match, transformed)
            transformation.apply(transformed, prog_match)
            validate_sdfg(transformed)
        except InvalidSDFGError as exc:
            return _invalid(report, str(exc), start)
        except Exception as exc:  # noqa: BLE001
            return _invalid(report, f"failed to apply transformation: {exc}", start)

        non_transient = [n for n, d in sdfg.arrays.items() if not d.transient]
        report.input_configuration = list(non_transient)
        report.system_state = list(non_transient)
        report.cutout_containers = len(sdfg.arrays)
        report.cutout_nodes = sum(len(s.nodes()) for s in sdfg.states())
        report.cutout_states = len(sdfg.states())

        self._fuzz(
            report, sdfg, sdfg, transformed, non_transient, non_transient,
            symbol_values, fixed_symbols, start,
        )
        return report


def _no_match_report(
    transformation: PatternTransformation, start: float
) -> TransformationTestReport:
    return TransformationTestReport(
        transformation=transformation.name,
        match_description="(no applicable match)",
        verdict=Verdict.UNTESTED,
        duration_seconds=_perf_counter() - start,
    )


def _invalid(
    report: TransformationTestReport, message: str, start: float
) -> TransformationTestReport:
    """Label ``report`` "generates invalid code" with ``message``."""
    report.verdict = Verdict.INVALID_CODE
    report.error_message = message
    report.duration_seconds = _perf_counter() - start
    return report


def verify_transformation(
    sdfg: SDFG,
    transformation: PatternTransformation,
    match: Optional[Match] = None,
    symbol_values: Optional[Mapping[str, int]] = None,
    **verifier_kwargs,
) -> TransformationTestReport:
    """One-shot convenience wrapper around :class:`FuzzyFlowVerifier`."""
    verifier = FuzzyFlowVerifier(**verifier_kwargs)
    return verifier.verify(sdfg, transformation, match=match, symbol_values=symbol_values)
