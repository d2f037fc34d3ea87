"""Tests for the plan IR of the four-stage lowering pipeline.

The **plan** stage (:mod:`repro.backends.plan`) is the typed contract
between analysis and codegen: a program's plan is the analysis output
itself -- chains, scope plans, fallback reasons and the flat domain each
scope was planned over -- and the same program always plans the same.
"""

import pytest

from repro.backends.analysis import analyze_program
from repro.backends.compiled import CompiledWholeProgram
from repro.backends.plan import ChainPlan
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.workloads import get_workload, get_workload_suite

NPBENCH = [spec.name for spec in get_workload_suite("npbench")]


def kernel_plan(name):
    spec = get_workload("npbench", name)
    program = CompiledWholeProgram(spec.build())
    return program.executor.program_plan


class TestProgramPlan:
    @pytest.mark.parametrize("name", NPBENCH)
    def test_the_bound_plan_is_the_analysis(self, name):
        """What the executor bound equals a fresh analysis of the program."""
        spec = get_workload("npbench", name)
        sdfg = spec.build()
        program = CompiledWholeProgram(sdfg)
        assert program.executor.program_plan == analyze_program(sdfg)

    @pytest.mark.parametrize("name", NPBENCH)
    def test_a_clone_plans_the_same(self, name):
        """Clones keep node guids, so their plans are equal, guid for guid."""
        sdfg = get_workload("npbench", name).build()
        assert analyze_program(sdfg.clone()) == analyze_program(sdfg)

    @pytest.mark.parametrize("name", NPBENCH)
    def test_a_json_roundtrip_plans_the_same(self, name):
        """The plan depends on the program's content only: a program read
        back from its own JSON plans exactly like the original."""
        sdfg = get_workload("npbench", name).build()
        roundtrip = sdfg_from_json(sdfg_to_json(sdfg))
        assert analyze_program(roundtrip) == analyze_program(sdfg)

    def test_plans_carry_analysis_results(self):
        """The plan is the analysis output, not a stub: kernels with fusable
        chains carry their chains, scoped kernels their scope plans."""
        plan = kernel_plan("axpy_pipeline")
        chains = [c for s in plan.states for c in s.chains]
        assert chains and all(isinstance(c, ChainPlan) for c in chains)
        plan = kernel_plan("gemm")
        assert any(s.scopes for s in plan.states)

    def test_plain_scopes_record_their_domain(self):
        """Every scope of an unnormalised kernel is planned over its own
        map's domain: one level, no densified axis."""
        for state in kernel_plan("gemm").states:
            for scope in filter(None, state.scopes.values()):
                assert scope.level_guids == (scope.entry_guid,)
                assert scope.domain and all(a.width == 0 for a in scope.domain)
