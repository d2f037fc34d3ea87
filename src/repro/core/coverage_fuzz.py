"""Coverage-guided differential fuzzing (Sec. 5.1, "Coverage-Guided Fuzzing").

The paper turns cutouts back into C++ and hands them to AFL++; here, the same
feedback loop is built on the interpreter's coverage map:

* a corpus of interesting inputs is maintained, seeded from the provided
  default input configuration,
* each iteration mutates a corpus entry (value perturbations, occasional size
  changes),
* the mutated input is run differentially; any system-state divergence is a
  "crash" of the synthetic harness and ends the campaign,
* inputs that exercise previously unseen coverage features are added to the
  corpus.

The comparison with the gray-box constraint-based fuzzer (which samples sizes
uniformly within derived constraints) reproduces the Sec. 6.1 observation:
finding *input-size-dependent* bugs takes the coverage-guided loop many more
trials, because it starts from the (well-behaved) default sizes and only
drifts away slowly.  It is that baseline (``benchmarks/bench_fig5``), not a
mode of :class:`~repro.core.verifier.FuzzyFlowVerifier`: wrap a
:class:`~repro.core.fuzzing.DifferentialFuzzer` to use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.fuzzing import DifferentialFuzzer
from repro.core.reporting import FuzzingReport, TrialResult, TrialStatus
from repro.core.sampling import InputSample, InputSampler
from repro.interpreter.coverage import CoverageMap
from repro.telemetry import perf_counter as _perf_counter

__all__ = ["CoverageGuidedFuzzer"]


@dataclass
class CorpusEntry:
    sample: InputSample
    coverage: CoverageMap = field(default_factory=CoverageMap)
    executions: int = 0


class CoverageGuidedFuzzer:
    """An AFL-style mutational fuzzing loop over the differential harness."""

    def __init__(
        self,
        fuzzer: DifferentialFuzzer,
        sampler: InputSampler,
        seed: int = 0,
        mutate_sizes_probability: float = 0.2,
    ) -> None:
        self.fuzzer = fuzzer
        self.fuzzer.collect_coverage = True
        self.sampler = sampler
        self.rng = np.random.default_rng(seed)
        self.mutate_sizes_probability = mutate_sizes_probability
        self.global_coverage = CoverageMap()
        self.corpus: List[CorpusEntry] = []

    # ------------------------------------------------------------------ #
    def _seed_corpus(self, num_seeds: int, default_symbols: Optional[Dict[str, int]]) -> None:
        for i in range(num_seeds):
            if i == 0 and default_symbols is not None:
                sample = self.sampler.sample(symbols=default_symbols)
            else:
                sample = self.sampler.sample(
                    symbols=default_symbols if default_symbols is not None else None
                )
            self.corpus.append(CorpusEntry(sample=sample))

    def _pick(self) -> CorpusEntry:
        idx = int(self.rng.integers(0, len(self.corpus)))
        return self.corpus[idx]

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_trials: int = 500,
        default_symbols: Optional[Dict[str, int]] = None,
        num_seeds: int = 2,
        stop_on_failure: bool = True,
    ) -> FuzzingReport:
        """Run the coverage-guided campaign."""
        report = FuzzingReport()
        start = _perf_counter()
        self._seed_corpus(max(1, num_seeds), default_symbols)

        trial_index = 0
        # First execute the seeds themselves.
        pending: List[InputSample] = [e.sample for e in self.corpus]
        while trial_index < max_trials:
            if pending:
                sample = pending.pop(0)
            else:
                parent = self._pick()
                sample = self.sampler.mutate(
                    parent.sample, mutate_sizes_probability=self.mutate_sizes_probability
                )
            trial = self.fuzzer.run_trial(sample, index=trial_index)
            trial_index += 1
            report.trials.append(trial)
            report.trials_run += 1
            report.trials_attempted += 1
            if trial.status == TrialStatus.SKIPPED_BOTH_CRASH:
                report.trials_skipped += 1
            else:
                report.trials_effective += 1
            if trial.is_failure:
                report.failures += 1
                if report.first_failure_trial is None:
                    report.first_failure_trial = trial_index
                    report.failing_inputs = {
                        k: np.array(v, copy=True) for k, v in sample.arguments.items()
                    }
                    report.failing_symbols = dict(sample.symbols)
                if stop_on_failure:
                    break
                continue
            # Coverage feedback: keep inputs that explore new program paths.
            if trial.coverage is not None and self.global_coverage.has_new_coverage(trial.coverage):
                self.global_coverage.merge(trial.coverage)
                self.corpus.append(CorpusEntry(sample=sample, coverage=trial.coverage))
        report.duration_seconds = _perf_counter() - start
        return report
