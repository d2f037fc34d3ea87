"""Tests for the workload programs and the simulated distributed substrate."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.interpreter import execute_sdfg
from repro.sdfg import MapEntry, validate_sdfg
from repro.sdfg.analysis import find_loops
from repro.transforms import (
    GPUKernelExtraction,
    LoopUnrolling,
    RedundantWriteElimination,
    Vectorization,
)
from repro.workloads import (
    BERT_TINY,
    CloudscConfig,
    build_attention_scores,
    build_cloudsc,
    build_encoder_layer,
    build_matmul_chain,
    build_sddmm,
    build_workload,
    get_workload,
    get_workload_suite,
    list_workload_suites,
    reference_matmul_chain,
    reference_sddmm,
)
from repro.workloads.bert_encoder import reference_attention_scores
from repro.workloads.npbench import all_kernels
from repro.distributed import DistributedSDDMM, SimulatedComm, run_distributed_sddmm


class TestMatmulChain:
    def test_matches_numpy(self, rng):
        sdfg = build_matmul_chain()
        validate_sdfg(sdfg)
        n = 6
        mats = {k: rng.standard_normal((n, n)) for k in "ABCD"}
        res = execute_sdfg(sdfg, {**mats, "R": np.zeros((n, n))}, {"N": n})
        np.testing.assert_allclose(
            res.outputs["R"], reference_matmul_chain(*(mats[k] for k in "ABCD")),
            rtol=1e-10,
        )


class TestBert:
    def test_attention_scores_match_numpy(self, rng):
        sdfg = build_attention_scores()
        validate_sdfg(sdfg)
        syms = dict(BERT_TINY)
        Q = rng.standard_normal((syms["B"], syms["H"], syms["SM"], syms["P"]))
        K_t = rng.standard_normal((syms["B"], syms["H"], syms["P"], syms["SM"]))
        res = execute_sdfg(
            sdfg,
            {"Q": Q, "K_t": K_t, "scale": 0.125,
             "att": np.zeros((syms["B"], syms["H"], syms["SM"], syms["SM"]))},
            syms,
        )
        np.testing.assert_allclose(
            res.outputs["att"], reference_attention_scores(Q, K_t, 0.125), rtol=1e-10
        )

    def test_encoder_layer_runs_and_has_vectorization_targets(self, rng):
        sdfg = build_encoder_layer()
        validate_sdfg(sdfg)
        syms = {"B": 1, "H": 2, "SM": 4, "P": 3}
        args = {
            "X": rng.standard_normal((1, 2, 4, 3)),
            "Wq": rng.standard_normal((3, 3)), "Wk": rng.standard_normal((3, 3)),
            "Wv": rng.standard_normal((3, 3)), "Wo": rng.standard_normal((3, 3)),
            "bq": rng.standard_normal(3), "bk": rng.standard_normal(3),
            "bv": rng.standard_normal(3), "bo": rng.standard_normal(3),
            "scale": 0.5, "out": np.zeros((1, 2, 4, 3)),
        }
        res = execute_sdfg(sdfg, args, syms)
        assert np.isfinite(res.outputs["out"]).all()
        xform = Vectorization(vector_size=4)
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        assert len(matches) >= 4  # bias adds + scaling loop nests


class TestSDDMM:
    def test_kernel_matches_numpy(self, rng):
        sdfg = build_sddmm()
        validate_sdfg(sdfg)
        A = rng.standard_normal((5, 3))
        B = rng.standard_normal((3, 4))
        S = (rng.random((5, 4)) < 0.5).astype(np.float64)
        res = execute_sdfg(
            sdfg, {"A": A, "B": B, "S": S, "out": np.zeros((5, 4))},
            {"NR": 5, "NK": 3, "NC": 4},
        )
        np.testing.assert_allclose(res.outputs["out"], reference_sddmm(A, B, S), rtol=1e-12)


class TestDistributed:
    def test_collectives(self):
        comm = SimulatedComm(4)
        blocks = comm.scatter_rows(np.arange(8.0).reshape(8, 1))
        assert len(blocks) == 4 and blocks[1][0, 0] == 2.0
        gathered = comm.gather_rows(blocks)
        np.testing.assert_array_equal(gathered[:, 0], np.arange(8.0))
        assert comm.num_collectives == 2

    def test_scatter_requires_even_split(self):
        with pytest.raises(ValueError):
            SimulatedComm(3).scatter_rows(np.zeros((4, 2)))

    def test_distributed_sddmm_matches_reference(self):
        result = run_distributed_sddmm(num_ranks=2, rows=8, cols=6, inner=4, seed=1)
        np.testing.assert_allclose(result["distributed"], result["reference"], rtol=1e-10)

    def test_cutout_of_local_kernel_excludes_communication(self):
        """The Fig. 6 argument: the per-rank kernel's cutout exposes the
        received data as plain inputs; no communication appears in it."""
        from repro.core import extract_cutout

        plan = DistributedSDDMM.create(2)
        sdfg = plan.local_kernel
        xform = Vectorization(vector_size=2)
        matches = [
            m for m in xform.find_matches(sdfg)
            if m.nodes["map_entry"].map.label == "sample"
            and xform.can_be_applied(sdfg, m)
        ]
        cutout = extract_cutout(sdfg, transformation=xform, match=matches[0])
        assert "S" in cutout.input_configuration
        assert "dense" in cutout.input_configuration
        assert "out" in cutout.system_state


class TestNPBenchSuite:
    def test_suite_size_and_domains(self):
        kernels = all_kernels()
        assert len(kernels) >= 12
        assert len({k.domain for k in kernels}) >= 5

    @pytest.mark.parametrize("spec", all_kernels(), ids=lambda s: s.name)
    def test_kernel_builds_validates_and_runs(self, spec, rng):
        sdfg = spec.build()
        validate_sdfg(sdfg)
        args = {}
        for name, desc in sdfg.arrays.items():
            if desc.transient:
                continue
            shape = desc.concrete_shape(spec.symbols)
            args[name] = rng.standard_normal(shape)
        res = execute_sdfg(sdfg, args, spec.symbols)
        assert all(np.isfinite(v).all() for v in res.outputs.values())

    def test_get_kernel(self):
        assert get_workload("npbench", "gemm").name == "gemm"
        with pytest.raises(KeyError):
            get_workload("npbench", "does_not_exist")


class TestCloudsc:
    def test_default_configuration_builds_and_runs(self, rng):
        cfg = CloudscConfig()
        sdfg = build_cloudsc(cfg)
        validate_sdfg(sdfg)
        args = {}
        for name, desc in sdfg.arrays.items():
            if desc.transient:
                continue
            args[name] = rng.standard_normal(desc.concrete_shape(cfg.symbols))
        res = execute_sdfg(sdfg, args, cfg.symbols)
        assert np.isfinite(res.outputs["cloud_fraction"]).all()

    def test_instance_counts_match_configuration(self):
        cfg = CloudscConfig(num_kernels=8, num_substep_loops=3, num_adjustment_chains=10)
        sdfg = build_cloudsc(cfg)
        gpu_matches = GPUKernelExtraction().find_matches(sdfg)
        assert len(gpu_matches) == 8
        loops = find_loops(sdfg)
        assert len(loops) == 3
        we = RedundantWriteElimination(inject_bug=True)
        chains = [m for m in we.find_matches(sdfg) if we.can_be_applied(sdfg, m)]
        assert len(chains) == 10

    def test_paper_scale_counts(self):
        cfg = CloudscConfig.paper_scale()
        assert cfg.num_kernels == 62
        assert cfg.num_partial_kernels() == 48
        assert cfg.num_substep_loops == 19
        assert cfg.num_adjustment_chains == 136

    def test_unroll_targets_include_one_descending_loop(self):
        cfg = CloudscConfig(num_substep_loops=4, descending_loop_index=2)
        sdfg = build_cloudsc(cfg)
        descending = [
            l for l in find_loops(sdfg) if l.iteration_values({}) == [4, 3, 2, 1]
        ]
        assert len(descending) == 1


REGISTERED = [
    (suite, spec.name)
    for suite in list_workload_suites()
    for spec in get_workload_suite(suite)
]


class TestSizeOne:
    """Every registered program runs on the all-ones size tuple, and with
    each of its symbols at 1 in turn, on every backend: an extent-1 region
    (``Q[0:B-1, ...]`` at ``B = 1``) stays a region."""

    @pytest.mark.parametrize("backend", ["interpreter", "compiled", "cross:compiled,interpreter"])
    @pytest.mark.parametrize("suite,name", REGISTERED, ids=[f"{s}:{n}" for s, n in REGISTERED])
    def test_runs_with_sizes_at_one(self, suite, name, backend):
        spec = get_workload(suite, name)
        sdfg = build_workload(suite, name)
        program = get_backend(backend).prepare(sdfg)
        tuples = [{s: 1 for s in spec.symbols}] + [{**spec.symbols, s: 1} for s in spec.symbols]
        rng = np.random.default_rng(0)
        for symbols in tuples:
            arguments = {
                container: rng.uniform(1.0, 2.0, desc.concrete_shape(symbols)).astype(
                    desc.dtype.as_numpy()
                )
                for container, desc in sdfg.arrays.items()
                if not desc.transient
            }
            program.run(arguments, symbols)
