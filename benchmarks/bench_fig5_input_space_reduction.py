"""Figure 5 / Sec. 6.1: input-space reduction and fuzzing rates on BERT MHA.

Regenerates, on the scaled-down BERT configuration (same shape relationships
as BERT-large: SM >> P):

* the input-space reduction obtained by the minimum input-flow cut on the
  attention-score scaling loop nest (the paper reports 75 %),
* the sampling / equivalence-checking speedup of the minimized cutout
  (paper: ~2x),
* the fuzzing-throughput advantage of cutout-based testing over running the
  whole application differentially (paper headline: up to 528x),
* trials-to-detection of the size-dependent vectorization bug under
  gray-box constrained size sampling (paper: ~1 trial, against ~157 for the
  AFL++ coverage-guided baseline, which this reproduction does not carry).
"""

import time

import numpy as np

from repro.core import (
    DifferentialFuzzer,
    FuzzyFlowVerifier,
    InputSampler,
    derive_constraints,
    extract_cutout,
    minimize_input_configuration,
    transfer_match,
)
from repro.transforms import Vectorization
from repro.workloads import BERT_TINY, build_attention_scores

SYMS = dict(BERT_TINY)


def _scale_match(xform, sdfg):
    for m in xform.find_matches(sdfg):
        if m.nodes["map_entry"].map.label == "scale_tmp" and xform.can_be_applied(sdfg, m):
            return m
    raise AssertionError("scale_tmp")


def test_fig5_input_space_reduction(benchmark, report_lines):
    xform = Vectorization(vector_size=4)

    def run():
        sdfg = build_attention_scores()
        match = _scale_match(xform, sdfg)
        cutout = extract_cutout(sdfg, transformation=xform, match=match, symbol_values=SYMS)
        return minimize_input_configuration(sdfg, sdfg.start_state, cutout, SYMS)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    reduction = 100.0 * result.reduction_ratio
    report_lines.append(f"initial input volume (elements)  : {result.original_input_volume}")
    report_lines.append(f"minimized input volume (elements): {result.minimized_input_volume}")
    report_lines.append(f"input-space reduction            : {reduction:.1f}% (paper: 75%)")
    report_lines.append(f"minimized inputs                 : {sorted(result.cutout.input_configuration)}")
    assert result.minimized
    assert "Q" in result.cutout.input_configuration
    assert "tmp" not in result.cutout.input_configuration
    assert reduction > 40.0


def test_fig5_sampling_and_check_speedup(benchmark, report_lines):
    """Sampling + equivalence checking on the minimized cutout vs. the
    original cutout (the paper reports a 2x speedup).

    A longer sequence length is used here so the per-element sampling cost
    (what the input-space reduction saves) dominates fixed per-container
    overheads, as it does at the paper's BERT-large sizes.
    """
    syms = dict(SYMS)
    syms["SM"] = 64
    xform = Vectorization(vector_size=4)
    sdfg = build_attention_scores()
    match = _scale_match(xform, sdfg)
    cutout = extract_cutout(sdfg, transformation=xform, match=match, symbol_values=syms)
    minimized = minimize_input_configuration(sdfg, sdfg.start_state, cutout, syms).cutout

    def sampling_rate(cut):
        exe = cut.executable()
        constraints = derive_constraints(exe, sdfg, syms, size_max=16)
        sampler = InputSampler(
            exe, cut.input_configuration, cut.system_state, constraints,
            fixed_symbols=syms, vary_sizes=False, seed=0,
        )
        start = time.perf_counter()
        trials = 20
        for _ in range(trials):
            sample = sampler.sample()
            # Equivalence-check cost model: one comparison over the sampled
            # input configuration (what each fuzzing trial pays for I/O).
            for name in cut.input_configuration:
                np.array_equal(sample.arguments[name], sample.arguments[name])
        return trials / (time.perf_counter() - start)

    rate_full = benchmark.pedantic(lambda: sampling_rate(cutout), rounds=1, iterations=1)
    rate_min = sampling_rate(minimized)
    speedup = rate_min / rate_full
    report_lines.append(f"sampling rate, original cutout   : {rate_full:10.1f} samples/s")
    report_lines.append(f"sampling rate, minimized cutout  : {rate_min:10.1f} samples/s")
    report_lines.append(f"speedup                          : {speedup:10.2f}x (paper: 2x)")
    assert speedup > 1.0


def test_fig5_cutout_vs_whole_application_rate(benchmark, report_lines):
    """Fuzzing-trial throughput: cutout vs. whole application (paper: 528x).

    The whole application here is the full encoder-layer forward pass (QKV
    projections, bias adds, scores, scaling, softmax, context and output
    projection); the cutout contains only the scaling loop nest being
    vectorized, mirroring the BERT case study where the application takes
    12.1 s per run while the cutout executes in milliseconds.
    """
    from repro.workloads import build_encoder_layer

    def scores_match(xform, sdfg):
        for m in xform.find_matches(sdfg):
            if (
                m.nodes["map_entry"].map.label == "scale_scores"
                and xform.can_be_applied(sdfg, m)
            ):
                return m
        raise AssertionError("scale_scores")

    xform = Vectorization(vector_size=4)
    verifier = FuzzyFlowVerifier(
        num_trials=5, seed=0, vary_sizes=False, stop_on_failure=False, minimize_inputs=False,
    )
    sdfg = build_encoder_layer()
    cut_report = benchmark.pedantic(
        lambda: verifier.verify(
            sdfg, xform, match=scores_match(xform, sdfg),
            symbol_values=SYMS, fixed_symbols=SYMS,
        ),
        rounds=1, iterations=1,
    )
    sdfg2 = build_encoder_layer()
    whole_report = verifier.verify_whole_program(
        sdfg2, xform, match=scores_match(xform, sdfg2),
        symbol_values=SYMS, fixed_symbols=SYMS,
    )
    cut_rate = cut_report.fuzzing.trials_per_second
    whole_rate = whole_report.fuzzing.trials_per_second
    speedup = cut_rate / whole_rate
    report_lines.append(f"cutout fuzzing rate              : {cut_rate:10.2f} trials/s")
    report_lines.append(f"whole-application fuzzing rate   : {whole_rate:10.2f} trials/s")
    report_lines.append(f"speedup                          : {speedup:10.1f}x (paper: up to 528x)")
    assert cut_report.verdict.value == "pass"
    assert speedup > 1.5


def test_fig5_graybox_trials_to_detection(benchmark, report_lines):
    """Trials needed to expose the size-dependent vectorization bug."""
    def build_fuzzer(seed):
        sdfg = build_attention_scores()
        xform = Vectorization(vector_size=4, inject_bug=True)
        match = _scale_match(xform, sdfg)
        cutout = extract_cutout(sdfg, transformation=xform, match=match, symbol_values=SYMS)
        transformed = cutout.sdfg.clone()
        xform.apply(transformed, transfer_match(xform, match, transformed))
        exe_o, exe_t = cutout.executable(), transformed.clone()
        for name in set(cutout.input_configuration) | set(cutout.system_state):
            if name in exe_t.arrays:
                exe_t.arrays[name].transient = False
        constraints = derive_constraints(exe_o, sdfg, SYMS, size_max=12)
        sampler = InputSampler(
            exe_o, cutout.input_configuration, cutout.system_state, constraints, seed=seed,
        )
        return DifferentialFuzzer(exe_o, exe_t, cutout.system_state, sampler)

    def campaign():
        gray = []
        for seed in range(3):
            rep = build_fuzzer(seed).run(num_trials=60, stop_on_failure=True)
            gray.append(rep.first_failure_trial or 60)
        return gray

    gray = benchmark.pedantic(campaign, rounds=1, iterations=1)

    gray_avg = sum(gray) / len(gray)
    report_lines.append(f"gray-box trials to detection     : {gray_avg:6.1f} (paper: ~1)")
    assert gray_avg <= 2
