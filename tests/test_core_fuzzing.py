"""Tests for constraints, sampling, differential fuzzing and test cases."""

import numpy as np
import pytest
from support import add_scale, apply_to_first

from repro.core import (
    DifferentialFuzzer,
    InputSampler,
    ReproducibleTestCase,
    TrialStatus,
    compare_system_states,
    derive_constraints,
    load_test_case,
    save_test_case,
)
from repro.sdfg import SDFG, Memlet, float64, int32
from repro.transforms import Vectorization


def scale_program():
    sdfg = SDFG("scale")
    sdfg.add_array("X", ["N"], float64)
    sdfg.add_array("Y", ["N"], float64)
    sdfg.add_scalar("factor", float64)
    state = sdfg.add_state("s")
    add_scale(sdfg, state, "X", "Y", "factor")
    return sdfg


class TestConstraints:
    def test_size_symbol(self):
        sdfg = scale_program()
        constraints = derive_constraints(sdfg, symbol_values={"N": 8})
        assert constraints["N"].role == "size"
        assert constraints["N"].low >= 1

    def test_index_symbol(self):
        sdfg = SDFG("index")
        sdfg.add_array("A", [16], float64)
        sdfg.add_array("out", [1], float64)
        sdfg.add_symbol("k")
        st = sdfg.add_state("s")
        a, o = st.add_access("A"), st.add_access("out")
        t = st.add_tasklet("pick", ["x"], ["y"], "y = x")
        st.add_edge(a, None, t, "x", Memlet.simple("A", "k"))
        st.add_edge(t, "y", o, None, Memlet.simple("out", "0"))
        constraints = derive_constraints(sdfg, symbol_values={})
        assert constraints["k"].role == "index"
        assert (constraints["k"].low, constraints["k"].high) == (0, 15)

    def test_custom_overrides(self):
        sdfg = scale_program()
        constraints = derive_constraints(
            sdfg, symbol_values={"N": 8}, custom={"N": (4, 6)}
        )
        assert constraints["N"].role == "custom"
        assert (constraints["N"].low, constraints["N"].high) == (4, 6)

    def test_clamp(self):
        sdfg = scale_program()
        constraints = derive_constraints(sdfg, symbol_values={"N": 8})
        c = constraints["N"]
        assert c.clamp(-100) == c.low
        assert c.clamp(10_000) == c.high


class TestSampling:
    def test_sample_shapes_and_types(self):
        sdfg = scale_program()
        constraints = derive_constraints(sdfg, symbol_values={"N": 8})
        sampler = InputSampler(sdfg, ["X", "factor"], ["Y"], constraints, seed=1)
        sample = sampler.sample()
        n = sample.symbols["N"]
        assert sample.arguments["X"].shape == (n,)
        assert sample.arguments["Y"].shape == (n,)
        assert np.all(sample.arguments["Y"] == 0)  # system-state only: zeroed
        assert sample.arguments["factor"].shape == (1,)

    def test_fixed_symbols(self):
        sdfg = scale_program()
        sampler = InputSampler(sdfg, ["X"], ["Y"], fixed_symbols={"N": 5}, seed=0)
        for _ in range(5):
            assert sampler.sample().symbols["N"] == 5

    def test_sampling_is_deterministic_per_seed(self):
        sdfg = scale_program()
        s1 = InputSampler(sdfg, ["X"], ["Y"], fixed_symbols={"N": 4}, seed=7).sample()
        s2 = InputSampler(sdfg, ["X"], ["Y"], fixed_symbols={"N": 4}, seed=7).sample()
        np.testing.assert_array_equal(s1.arguments["X"], s2.arguments["X"])

    def test_integer_containers(self):
        sdfg = SDFG("ints")
        sdfg.add_array("A", [4], int32)
        sampler = InputSampler(sdfg, ["A"], [], seed=0)
        sample = sampler.sample()
        assert sample.arguments["A"].dtype == np.int32

    def test_fixed_size_default_is_small(self):
        """With vary_sizes=False and no fixed value, size symbols default to
        the small DEFAULT_FIXED_SIZE clamped into the constraint -- not the
        constraint's upper bound (regression)."""
        from repro.core import SymbolConstraint

        sdfg = scale_program()
        constraints = {"N": SymbolConstraint("N", 1, 32, role="size")}
        sampler = InputSampler(sdfg, ["X"], ["Y"], constraints, vary_sizes=False, seed=0)
        for _ in range(3):
            assert sampler.sample().symbols["N"] == InputSampler.DEFAULT_FIXED_SIZE

    def test_fixed_size_default_clamped(self):
        from repro.core import SymbolConstraint

        sdfg = scale_program()
        constraints = {"N": SymbolConstraint("N", 1, 4, role="size")}
        sampler = InputSampler(sdfg, ["X"], ["Y"], constraints, vary_sizes=False, seed=0)
        assert sampler.sample().symbols["N"] == 4

    def test_fixed_symbols_beyond_free_symbols_kept(self):
        """fixed_symbols entries for symbols the program does not list as
        free still appear in the sampled symbols (regression)."""
        sdfg = scale_program()
        sampler = InputSampler(
            sdfg, ["X"], ["Y"], fixed_symbols={"N": 5, "OUTER": 7}, seed=0
        )
        symbols = sampler.sample_symbols()
        assert symbols["N"] == 5
        assert symbols["OUTER"] == 7


class TestCompare:
    def test_identical(self):
        a = {"x": np.arange(4.0)}
        mism, err = compare_system_states(a, {"x": np.arange(4.0)}, ["x"])
        assert not mism and err == 0

    def test_tolerance(self):
        a = {"x": np.zeros(4)}
        b = {"x": np.full(4, 1e-7)}
        mism, _ = compare_system_states(a, b, ["x"], tolerance=1e-5)
        assert not mism
        mism, _ = compare_system_states(a, b, ["x"], tolerance=0)
        assert mism

    def test_shape_mismatch(self):
        mism, err = compare_system_states(
            {"x": np.zeros(4)}, {"x": np.zeros(5)}, ["x"]
        )
        assert mism == ["x"] and err == float("inf")

    def test_missing_container(self):
        mism, _ = compare_system_states({"x": np.zeros(4)}, {}, ["x"])
        assert mism == ["x"]

    def test_nan_patterns_must_match(self):
        a = {"x": np.array([np.nan, 1.0])}
        b = {"x": np.array([0.0, 1.0])}
        mism, _ = compare_system_states(a, b, ["x"])
        assert mism == ["x"]
        mism, _ = compare_system_states(a, {"x": np.array([np.nan, 1.0])}, ["x"])
        assert not mism

    @pytest.mark.parametrize(
        "ref, cand, tolerance, mismatch, err",
        [
            # Equal arrays leave through the array_equal fast path, ...
            ([1.0, np.inf, -np.inf], [1.0, np.inf, -np.inf], 1e-5, False, 0.0),
            ([-0.0, 0.0], [0.0, -0.0], 1e-5, False, 0.0),
            ([-0.0, 0.0], [0.0, -0.0], 0, False, 0.0),
            # ... NaN-carrying or unequal ones through the full comparison.
            ([np.nan, 1.0], [np.nan, 1.0 + 1e-7], 1e-5, False, 1e-7),
            ([np.nan, 1.0], [np.nan, 1.0], 1e-5, False, 0.0),
            ([np.nan, 1.0], [np.nan, 1.0], 0, True, 0.0),  # bitwise: NaN != NaN
            ([np.nan, 1.0], [2.0, 1.0], 1e-5, True, np.inf),
            ([1.0, np.inf], [1.0, -np.inf], 1e-5, True, np.inf),
            ([1.0, np.inf], [1.0, 5.0], 1e-5, True, np.inf),
            ([1.0, 2.0], [1.0, 2.5], 1e-5, True, 0.5),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered")  # inf - (-inf), as before
    def test_special_values(self, ref, cand, tolerance, mismatch, err):
        mism, got = compare_system_states(
            {"x": np.array(ref)}, {"x": np.array(cand)}, ["x"], tolerance=tolerance
        )
        assert mism == (["x"] if mismatch else [])
        assert got == pytest.approx(err, abs=1e-12)

    def test_integer_exact(self):
        a = {"x": np.array([1, 2, 3])}
        b = {"x": np.array([1, 2, 4])}
        mism, _ = compare_system_states(a, b, ["x"])
        assert mism == ["x"]

    def test_integer_mismatch_reports_true_error(self):
        """Integer mismatches report the actual max abs diff, not inf, so
        failures can be ranked and thresholded (regression)."""
        a = {"x": np.array([1, 2, 3], dtype=np.int32)}
        b = {"x": np.array([1, 5, 2], dtype=np.int32)}
        mism, err = compare_system_states(a, b, ["x"])
        assert mism == ["x"]
        assert err == 3.0

    def test_bool_mismatch_reports_true_error(self):
        a = {"x": np.array([True, False])}
        b = {"x": np.array([True, True])}
        mism, err = compare_system_states(a, b, ["x"])
        assert mism == ["x"]
        assert err == 1.0

    def test_bitwise_mismatch_reports_true_error(self):
        a = {"x": np.array([0.0, 1.0])}
        b = {"x": np.array([0.0, 1.5])}
        mism, err = compare_system_states(a, b, ["x"], tolerance=0)
        assert mism == ["x"]
        assert err == 0.5

    def test_bitwise_nan_divergence_reports_inf(self):
        """A one-sided NaN is a structural (pattern) divergence even in
        bit-wise mode, not a zero-error mismatch."""
        a = {"x": np.array([np.nan])}
        b = {"x": np.array([1.0])}
        mism, err = compare_system_states(a, b, ["x"], tolerance=0)
        assert mism == ["x"] and err == float("inf")

    def test_large_integer_mismatch_exact(self):
        """Integer diffs are computed exactly: a float64 cast would round
        2**60 and 2**60 + 1 to the same value."""
        a = {"x": np.array([2**60], dtype=np.int64)}
        b = {"x": np.array([2**60 + 1], dtype=np.int64)}
        mism, err = compare_system_states(a, b, ["x"])
        assert mism == ["x"] and err == 1.0

    def test_inf_reserved_for_structural_mismatches(self):
        mism, err = compare_system_states(
            {"x": np.zeros(4, dtype=np.int64)}, {"x": np.zeros(5, dtype=np.int64)}, ["x"]
        )
        assert mism == ["x"] and err == float("inf")
        mism, err = compare_system_states({"x": np.zeros(4)}, {}, ["x"])
        assert mism == ["x"] and err == float("inf")


class TestDifferentialFuzzer:
    def _fuzzer(self, inject_bug, vary_sizes=True, seed=0):
        original = scale_program()
        transformed = original.clone()
        apply_to_first(Vectorization(vector_size=4, inject_bug=inject_bug), transformed)
        constraints = derive_constraints(original, symbol_values={"N": 8}, size_max=16)
        sampler = InputSampler(
            original, ["X", "factor"], ["Y"], constraints,
            vary_sizes=vary_sizes, seed=seed,
            fixed_symbols=None if vary_sizes else {"N": 8},
        )
        return DifferentialFuzzer(original, transformed, ["Y"], sampler)

    def test_correct_transformation_passes(self):
        report = self._fuzzer(inject_bug=False).run(num_trials=15)
        assert report.failures == 0
        assert report.verdict().value == "pass"

    def test_buggy_transformation_found_quickly(self):
        report = self._fuzzer(inject_bug=True).run(num_trials=30, stop_on_failure=True)
        assert report.failures >= 1
        assert report.first_failure_trial is not None
        assert report.first_failure_trial <= 10  # non-divisible N is likely
        assert report.failing_symbols is not None
        assert report.failing_inputs is not None

    def test_buggy_hidden_when_sizes_fixed_divisible(self):
        report = self._fuzzer(inject_bug=True, vary_sizes=False).run(num_trials=10)
        assert report.failures == 0

    def test_trial_statuses(self):
        fuzzer = self._fuzzer(inject_bug=True)
        sample = fuzzer.sampler.sample(symbols={"N": 10})
        trial = fuzzer.run_trial(sample)
        assert trial.status in (TrialStatus.CRASH_TRANSFORMED, TrialStatus.MISMATCH)
        sample_ok = fuzzer.sampler.sample(symbols={"N": 8})
        assert fuzzer.run_trial(sample_ok).status == TrialStatus.MATCH

    def test_report_rates(self):
        report = self._fuzzer(inject_bug=False).run(num_trials=5)
        assert report.trials_run == 5
        assert report.trials_per_second > 0

    def test_effective_trials_counted(self):
        report = self._fuzzer(inject_bug=False).run(num_trials=5)
        assert report.trials_attempted == 5
        assert report.trials_effective == 5
        assert report.trials_skipped == 0

    def test_skipped_trials_resampled(self):
        """SKIPPED_BOTH_CRASH trials no longer consume the trial budget: each
        skipped slot is resampled so the campaign still performs the requested
        number of real comparisons (regression)."""
        from repro.core.reporting import TrialResult

        fuzzer = self._fuzzer(inject_bug=False)
        real_run_trial = fuzzer.run_trial
        calls = {"n": 0}

        def flaky_run_trial(sample, index=0):
            calls["n"] += 1
            if calls["n"] <= 3:
                return TrialResult(index=index, status=TrialStatus.SKIPPED_BOTH_CRASH)
            return real_run_trial(sample, index=index)

        fuzzer.run_trial = flaky_run_trial
        report = fuzzer.run(num_trials=5)
        assert report.trials_effective == 5
        assert report.trials_skipped == 3
        assert report.trials_attempted == 8
        assert report.verdict().value == "pass"

    def test_skip_retries_bounded(self):
        from repro.core.reporting import TrialResult

        fuzzer = self._fuzzer(inject_bug=False)
        fuzzer.run_trial = lambda sample, index=0: TrialResult(
            index=index, status=TrialStatus.SKIPPED_BOTH_CRASH
        )
        report = fuzzer.run(num_trials=3, max_skip_retries=2)
        # Every slot retried at most twice: 3 slots x (1 + 2) attempts.
        assert report.trials_attempted == 9
        assert report.trials_effective == 0
        # A campaign with zero effective comparisons is inconclusive.
        assert report.verdict().value == "untested"


class TestReproducibleTestCases:
    def test_roundtrip_and_replay(self, tmp_path):
        original = scale_program()
        transformed = original.clone()
        apply_to_first(Vectorization(vector_size=4, inject_bug=True), transformed)
        inputs = {
            "X": np.arange(10.0), "Y": np.zeros(10), "factor": np.array([2.0]),
        }
        case = ReproducibleTestCase(
            name="vectorization_bug",
            transformation="Vectorization",
            original_cutout=original,
            transformed_cutout=transformed,
            inputs=inputs,
            symbols={"N": 10},
            system_state=["Y"],
            input_configuration=["X", "factor"],
            verdict="semantic_change",
        )
        path = save_test_case(case, str(tmp_path / "case"))
        loaded = load_test_case(path)
        assert loaded.transformation == "Vectorization"
        assert loaded.symbols == {"N": 10}
        result = loaded.replay()
        assert result["reproduced"]

    def test_replay_passing_case(self, tmp_path):
        original = scale_program()
        transformed = original.clone()
        apply_to_first(Vectorization(vector_size=4), transformed)
        inputs = {"X": np.arange(8.0), "Y": np.zeros(8), "factor": np.array([3.0])}
        case = ReproducibleTestCase(
            name="ok", transformation="Vectorization",
            original_cutout=original, transformed_cutout=transformed,
            inputs=inputs, symbols={"N": 8},
            system_state=["Y"], input_configuration=["X", "factor"],
        )
        path = save_test_case(case, str(tmp_path / "ok"))
        assert not load_test_case(path).replay()["reproduced"]
