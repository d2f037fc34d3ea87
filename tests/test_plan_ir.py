"""Tests for the serializable plan IR of the four-stage lowering pipeline.

The **plan** stage (:mod:`repro.backends.plan`) is the typed, serializable
contract between analysis and codegen: ``ProgramPlan`` round-trips through
``to_dict``/``from_dict`` losslessly, its format version gates the disk
cache (a plan the current codegen cannot bind must be a *miss*, never a
crash), and artifact-seeded plans must produce bitwise-identical execution.
"""

import glob
import json

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.compiled import CompiledBackend, CompiledWholeProgram
from repro.backends.plan import (
    PLAN_FORMAT_VERSION,
    AxisPlan,
    ChainPlan,
    InputPlan,
    ProgramPlan,
    ScopePlan,
    StatePlan,
)
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.workloads import get_workload, get_workload_suite

NPBENCH = [spec.name for spec in get_workload_suite("npbench")]


def kernel_plan(name):
    spec = get_workload("npbench", name)
    program = CompiledWholeProgram(spec.build())
    return program.executor.program_plan


class TestRoundTrip:
    @pytest.mark.parametrize("name", NPBENCH)
    def test_round_trip_equality(self, name):
        plan = kernel_plan(name)
        assert plan.format == PLAN_FORMAT_VERSION
        # Through an actual JSON wire, not just dict identity.
        wire = json.dumps(plan.to_dict(), sort_keys=True)
        restored = ProgramPlan.from_dict(json.loads(wire))
        assert restored == plan
        assert json.dumps(restored.to_dict(), sort_keys=True) == wire

    def test_plans_carry_analysis_results(self):
        """The serialized plan is the analysis output, not a stub: kernels
        with fusable chains serialize their chains, scoped kernels their
        scope plans and fallback reasons."""
        plan = kernel_plan("axpy_pipeline")
        chains = [c for s in plan.states for c in s.chains]
        assert chains and all(isinstance(c, ChainPlan) for c in chains)
        plan = kernel_plan("gemm")
        assert any(s.scopes for s in plan.states)

    def test_input_dims_round_trip(self):
        """All three dimension classes survive the JSON wire typed."""
        spec = InputPlan(
            "x", "A", ["j + 1", "2*i", "N"], "A[j + 1, 2*i, N]",
            [("param", (1, 1)), ("expr", "2*i"), ("const", "N")],
        )
        restored = InputPlan.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.dims[0] == ("param", (1, 1))

    def test_scope_domain_round_trips(self):
        """A scope planned over a normalised domain -- a flattened nest with
        one tile-densified and one vector-block axis -- survives the JSON
        wire typed, and every kernel's plan records its (plain) domain."""
        plan = ScopePlan(
            entry_guid=7, entry_label="m_tiles", tasklet_guid=9, tasklet_label="t",
            code="o = a", inputs=[], outputs=[], setup_deps=("N",), needs_grids=False,
            level_guids=(7, 8),
            domain=[
                AxisPlan("i", 0, 0, width=8, clamp="N - 1"),
                AxisPlan("j", 1, 0, width=4, per_block=True),
                AxisPlan("k", 1, 1),
            ],
        )
        restored = ScopePlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored == plan
        assert restored.domain[0].clamp == "N - 1" and restored.domain[1].per_block
        assert isinstance(restored.level_guids, tuple)
        for state in kernel_plan("gemm").states:
            for scope in filter(None, state.scopes.values()):
                assert scope.level_guids == (scope.entry_guid,)
                assert scope.domain and all(a.width == 0 for a in scope.domain)

    def test_format_mismatch_raises(self):
        plan = kernel_plan("scaled_diff")
        doc = plan.to_dict()
        doc["format"] = PLAN_FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            ProgramPlan.from_dict(doc)


class TestDiskCacheGating:
    def prime(self, tmp_path, name="jacobi_1d"):
        blob = sdfg_to_json(get_workload("npbench", name).build())
        backend = CompiledBackend(cache_dir=str(tmp_path))
        backend.prepare(sdfg_from_json(blob))
        assert (backend.disk_hits, backend.disk_misses) == (0, 1)
        (path,) = glob.glob(str(tmp_path / "*.json"))
        return blob, path

    def test_artifact_persists_the_plan(self, tmp_path):
        _, path = self.prime(tmp_path)
        doc = json.load(open(path))
        assert doc["plan_format"] == PLAN_FORMAT_VERSION
        restored = ProgramPlan.from_dict(doc["plan"])
        assert all(isinstance(s, StatePlan) for s in restored.states)

    def test_plan_format_mismatch_is_a_miss(self, tmp_path):
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        doc["plan_format"] = PLAN_FORMAT_VERSION + 1
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert (backend.disk_hits, backend.disk_misses) == (0, 1)
        assert program.control_mode == "structured"
        # ... and the entry was rewritten at the current format.
        assert json.load(open(path))["plan_format"] == PLAN_FORMAT_VERSION

    def test_version_1_artifact_is_a_miss(self, tmp_path):
        """What format 1 wrote: inputs without ``dims``, scopes without
        ``needs_grids``.  A miss by the stamp -- and a body that no longer
        loads, should a stamp ever lie."""
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        doc["plan_format"] = doc["plan"]["format"] = 1
        for state in doc["plan"]["states"]:
            for scope in filter(None, state["scopes"].values()):
                del scope["needs_grids"]
                for spec in scope["inputs"]:
                    del spec["dims"]
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        backend.prepare(sdfg_from_json(blob))
        assert (backend.disk_hits, backend.disk_misses) == (0, 1)
        assert json.load(open(path))["plan_format"] == PLAN_FORMAT_VERSION == 3
        doc["plan"]["format"] = PLAN_FORMAT_VERSION
        with pytest.raises(KeyError):
            ProgramPlan.from_dict(doc["plan"])

    def test_missing_plan_format_is_a_miss(self, tmp_path):
        """Artifacts from before the plan split carry no plan at all."""
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        del doc["plan_format"]
        del doc["plan"]
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        backend.prepare(sdfg_from_json(blob))
        assert (backend.disk_hits, backend.disk_misses) == (0, 1)

    def test_corrupt_plan_degrades_to_reanalysis(self, tmp_path):
        """A loadable artifact whose *plan body* does not bind (stale GUIDs,
        mangled scopes) falls back to fresh analysis -- bitwise identically."""
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        for state in doc["plan"]["states"]:
            for scope in state.get("scopes", {}).values():
                scope["entry_guid"] = "no-such-guid"
            for chain in state.get("chains", []):
                chain["member_guids"] = ["no-such-guid"] * len(
                    chain["member_guids"]
                )
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert backend.disk_hits == 1  # stamp still matches: artifact loads

        sdfg = sdfg_from_json(blob)
        args = {
            name: np.random.default_rng(0).standard_normal(
                desc.concrete_shape({"N": 12, "T": 3})
            )
            for name, desc in sdfg.arrays.items()
            if not desc.transient
        }
        symbols = {"N": 12, "T": 3}
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        res = program.run(dict(args), symbols)
        for name in ref.outputs:
            assert np.array_equal(ref.outputs[name], res.outputs[name]), name
        assert ref.symbols == res.symbols and ref.transitions == res.transitions

    def test_seeded_plan_matches_fresh_compile_bitwise(self, tmp_path):
        blob, _ = self.prime(tmp_path, name="jacobi_2d")
        loaded = CompiledBackend(cache_dir=str(tmp_path)).prepare(
            sdfg_from_json(blob)
        )
        fresh = CompiledBackend().prepare(sdfg_from_json(blob))
        # The artifact-seeded executor binds the persisted plan instead of
        # re-running analysis; both must serialize to the identical plan.
        assert (
            loaded.executor.program_plan.to_dict()
            == fresh.executor.program_plan.to_dict()
        )
        sdfg = sdfg_from_json(blob)
        symbols = dict(get_workload("npbench", "jacobi_2d").symbols)
        args = {
            name: np.random.default_rng(1).standard_normal(
                desc.concrete_shape(symbols)
            )
            for name, desc in sdfg.arrays.items()
            if not desc.transient
        }
        r1 = loaded.run(dict(args), symbols)
        r2 = fresh.run(dict(args), symbols)
        for name in r1.outputs:
            a, b = r1.outputs[name], r2.outputs[name]
            assert a.tobytes() == b.tobytes(), name
