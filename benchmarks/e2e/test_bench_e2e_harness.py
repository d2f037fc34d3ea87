"""Unit tests of the benchmark harness's own arithmetic (no sweep is run)."""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import interpose  # noqa: E402
import layers  # noqa: E402
import report  # noqa: E402
import sweeps  # noqa: E402


# ---------------------------------------------------------------------- #
# Percentile rule
# ---------------------------------------------------------------------- #
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert report.percentile(values, 0.50) == 50
    assert report.percentile(values, 0.95) == 95
    assert report.percentile(values, 1.0) == 100
    assert report.percentile([7.0], 0.95) == 7.0
    assert report.percentile([3, 1, 2], 0.5) == 2  # input need not be sorted
    with pytest.raises(ValueError):
        report.percentile([], 0.5)


def test_highest_percentile_needs_ten_samples_beyond():
    assert report.samples_beyond(200, 0.95) == 10
    assert report.samples_beyond(199, 0.95) == 9
    assert report.highest_percentile(1000) == 0.99
    assert report.highest_percentile(200) == 0.95
    assert report.highest_percentile(199) == 0.90
    assert report.highest_percentile(40) == 0.75
    assert report.highest_percentile(12) == 0.5


def test_spread_is_interquartile_share_of_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = report.quartiles(values)
    assert (q1, q2, q3) == (10.5, 12.0, 13.5)
    assert report.spread(values) == pytest.approx(0.25)


def test_judge_within_regressed_unresolved():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert report.judge(1.0, 1.05, steady, "lower", 0.10) == "within-bound"
    assert report.judge(1.0, 1.15, steady, "lower", 0.10) == "regressed"
    assert report.judge(1.0, 0.80, steady, "higher", 0.10) == "regressed"
    noisy = [0.8, 1.0, 1.2, 0.9, 1.3]
    assert report.judge(1.0, 1.5, noisy, "lower", 0.10) == "unresolved"
    # failed_share: the base is 0 and any rise is a regression.
    assert report.judge(0.0, 0.0, [0.0, 0.0], "lower", 0.0) == "within-bound"
    assert report.judge(0.0, 0.01, [0.0, 0.0], "lower", 0.0) == "regressed"


# ---------------------------------------------------------------------- #
# Span-stack arithmetic
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    ledger = interpose.Ledger(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    def root():
        clock.now += 0.25
        wrapped_middle()
        clock.now += 0.25

    wrapped_leaf = ledger.wrap("leaf", leaf)
    wrapped_middle = ledger.wrap("middle", middle)
    ledger.wrap("root", root)()
    got = ledger.snapshot()["layers"]
    assert got["leaf"] == {"self_s": 4.0, "total_s": 4.0, "calls": 2}
    assert got["middle"] == {"self_s": 1.5, "total_s": 5.5, "calls": 1}
    assert got["root"] == {"self_s": 0.5, "total_s": 6.0, "calls": 1}
    # Self times add up to the time under the outermost span.
    assert sum(layer["self_s"] for layer in got.values()) == 6.0


def test_reentrant_layer_counts_inclusive_time_once():
    clock = FakeClock()
    ledger = interpose.Ledger(clock)

    def run():
        clock.now += 1.0

    wrapped_run = ledger.wrap("backends.run", run)

    def run_batch():
        wrapped_run()
        wrapped_run()

    ledger.wrap("backends.run", run_batch)()
    got = ledger.snapshot()["layers"]["backends.run"]
    assert got == {"self_s": 2.0, "total_s": 2.0, "calls": 3}


def test_span_closes_when_the_call_raises_and_hooks_never_fail_it():
    clock = FakeClock()
    ledger = interpose.Ledger(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        ledger.wrap("boom", boom)()
    assert ledger.snapshot()["layers"]["boom"]["self_s"] == 1.0

    def bad_hook(ledger, args, kwargs, result):
        raise RuntimeError("hook")

    assert ledger.wrap("ok", lambda: 5, after=bad_hook)() == 5
    assert ledger.snapshot()["counters"]["harness.hook_errors"] == 1


def test_diff_snapshots():
    ledger = interpose.Ledger(FakeClock())
    work = ledger.wrap("a", lambda: None)
    work()
    before = ledger.snapshot()
    work()
    work()
    ledger.count("n", 3)
    delta = interpose.diff_snapshots(before, ledger.snapshot())
    assert delta["layers"]["a"]["calls"] == 2
    assert delta["counters"] == {"n": 3}


# ---------------------------------------------------------------------- #
# Interposition and restore, on a dummy package
# ---------------------------------------------------------------------- #
@pytest.fixture
def dummy_package():
    pkg = types.ModuleType("e2e_dummy")
    impl = types.ModuleType("e2e_dummy.impl")
    user = types.ModuleType("e2e_dummy.user")
    outsider = types.ModuleType("e2e_other")
    exec(
        "def work(x):\n    return x + 1\n"
        "class Base:\n"
        "    def apply(self):\n        raise NotImplementedError\n"
        "    def clone(self):\n        return 'clone'\n"
        "    @classmethod\n    def build(cls):\n        return cls.__name__\n"
        "class Sub(Base):\n    def apply(self):\n        return 'sub'\n"
        "class Other(Base):\n    pass\n",
        impl.__dict__,
    )
    user.work = impl.work  # what `from e2e_dummy.impl import work` does
    user.call = lambda x: user.work(x)
    outsider.work = impl.work
    modules = {m.__name__: m for m in (pkg, impl, user, outsider)}
    sys.modules.update(modules)
    yield impl, user, outsider
    for name in modules:
        del sys.modules[name]


def test_install_wraps_every_binding_and_restore_undoes_it(dummy_package):
    impl, user, outsider = dummy_package
    originals = (impl.work, vars(impl.Base)["clone"], vars(impl.Base)["build"])
    ledger = interpose.Ledger()
    installation = interpose.install(
        ledger,
        [
            interpose.Target("fn", "e2e_dummy.impl:work"),
            interpose.Target("clone", "e2e_dummy.impl:Base.clone"),
            interpose.Target("build", "e2e_dummy.impl:Base.build"),
            interpose.Target("apply", "e2e_dummy.impl:Base.apply*"),
            interpose.Target("gone", "e2e_dummy.impl:vanished"),
            interpose.Target("gone", "e2e_dummy.nowhere:f"),
            interpose.Target("gone", "e2e_dummy.impl:Base.vanished"),
        ],
        "e2e_dummy",
    )
    assert [path for _, path in installation.missing] == [
        "e2e_dummy.impl:vanished", "e2e_dummy.nowhere:f", "e2e_dummy.impl:Base.vanished",
    ]
    assert user.call(1) == 2 and impl.work(2) == 3
    assert outsider.work is originals[0]  # outside the package: left alone
    assert impl.Sub().clone() == "clone" and impl.Sub.build() == "Sub"
    assert impl.Sub().apply() == "sub"
    calls = {k: v["calls"] for k, v in ledger.snapshot()["layers"].items()}
    assert calls == {"fn": 2, "clone": 1, "build": 1, "apply": 1}
    assert "apply" in vars(impl.Sub) and "apply" not in vars(impl.Other)

    installation.restore()
    assert impl.work is originals[0] and user.work is originals[0]
    assert vars(impl.Base)["clone"] is originals[1]
    assert vars(impl.Base)["build"] is originals[2]
    assert user.call(1) == 2
    assert {k: v["calls"] for k, v in ledger.snapshot()["layers"].items()} == calls


def test_inherited_method_wrapped_on_a_subclass_is_deleted_on_restore(dummy_package):
    impl, _, _ = dummy_package
    installation = interpose.Installation(interpose.Ledger(), "e2e_dummy")
    installation.wrap_attribute(impl.Other, "clone", interpose.Target("clone", "clone"))
    assert "clone" in vars(impl.Other) and impl.Other().clone() == "clone"
    installation.restore()
    assert "clone" not in vars(impl.Other)


# ---------------------------------------------------------------------- #
# The definition files agree with the harness
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_harness():
    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert report.check_benchmark_json(doc, layers.PER_LAYER, sweeps.WORKLOADS) == []
    assert doc["paths"] == ["benchmarks/e2e"]
    whys = {w["name"]: w["why"] for w in doc["workloads"]}
    assert whys == {w.name: w.why for w in sweeps.WORKLOADS.values()}


def test_layer_metrics_null_for_missing_and_zero_off_service():
    snapshot = {
        "layers": {
            "pipeline.runner": {"self_s": 0.1, "total_s": 1.0, "calls": 4},
            "sdfg.clone": {"self_s": 0.5, "total_s": 0.5, "calls": 12},
        },
        "counters": {},
    }
    got = layers.layer_metrics(snapshot, 4, 1.2, 1.0, {"core.sampling"}, service=False)
    assert list(got) == [name for name, _, _ in layers.PER_LAYER]
    assert got["sdfg.clone.self_ms"] == 500.0 and got["sdfg.clone.calls_per_task"] == 3.0
    assert got["core.sampling.self_ms"] is None and got["core.sampling.calls"] is None
    assert got["pipeline.runner.attributed_share"] == pytest.approx(0.9)
    assert got["cluster.protocol.self_ms"] == 0.0 and got["cluster.journal.bytes"] == 0.0
    assert got["cluster.worker.overhead_ms_per_task"] == pytest.approx(50.0)
    assert got["harness.traced_over_untraced"] == pytest.approx(1.2)
    assert got["harness.layers_missing"] == 1
    assert got["core.mincut.minimized_share"] is None  # nothing to divide by


def test_every_task_has_its_own_reference_key():
    assert sweeps.task_key("bert", "w", "T", False, 0) != sweeps.task_key("bert", "w", "T", True, 0)
    for name, workload in sweeps.WORKLOADS.items():
        for seed in sweeps.FUZZ_SEEDS:
            assert os.path.exists(sweeps.expected_path(workload, seed)), (name, seed)
    shallow = sweeps.load_expected(sweeps.WORKLOADS["npbench_buggy_shallow"], 0)
    assert len(shallow) == sweeps.TABLE2[0]
    assert sum(v != "pass" for v in shallow.values()) == sweeps.TABLE2[1]
