"""Tests for the compiled whole-program backend (repro.backends.compiled).

The compiled backend code-generates one Python driver per SDFG (a
state-dispatch loop, for reducible and irreducible graphs alike) and must
stay bitwise identical to the reference interpreter: outputs, final symbols,
transition counts and the full error taxonomy.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

import repro.sdfg.serialize as serialize_module
from repro.backends import (
    Backend,
    BackendDivergenceError,
    CompiledExecutor,
    get_backend,
    sdfg_content_hash,
)
from repro.interpreter.errors import ExecutionError, HangError
from repro.interpreter.executor import _EVAL_GLOBALS
from repro.sdfg import SDFG, InterstateEdge, Memlet, float64
from repro.symbolic.codegen import INTERSTATE_GLOBAL_NAMES
from repro.workloads import get_workload, get_workload_suite, list_workload_suites

NPBENCH = [spec.name for spec in get_workload_suite("npbench")]
SUITE_PROGRAMS = [
    (suite, spec.name)
    for suite in list_workload_suites()
    for spec in get_workload_suite(suite)
]


def make_arguments(sdfg, symbols, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(desc.concrete_shape(symbols))
        for name, desc in sdfg.arrays.items()
        if not desc.transient
    }


def run_pair(sdfg, args, symbols):
    ref = get_backend("interpreter").prepare(sdfg)
    cand = get_backend("compiled").prepare(sdfg)
    r1 = ref.run(dict(args), symbols)
    r2 = cand.run(dict(args), symbols)
    return r1, r2, cand


def assert_identical(r1, r2):
    assert set(r1.outputs) == set(r2.outputs)
    for name in r1.outputs:
        a, b = r1.outputs[name], r2.outputs[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), (
            f"container '{name}' differs bitwise"
        )
    assert r1.symbols == r2.symbols
    assert r1.transitions == r2.transitions


def build_loop_nest(trip="T"):
    """Time-stepped smoother: the canonical guard/body/back-edge loop."""
    sdfg = SDFG("loop_nest")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_transient("B", ["N"], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("sweep")
    _, _, e1 = body.add_mapped_tasklet(
        "smooth", {"i": "1:N-2"},
        {"w": Memlet.simple("A", "i - 1"), "c": Memlet.simple("A", "i"),
         "e": Memlet.simple("A", "i + 1")},
        "o = (w + c + e) / 3.0", {"o": Memlet.simple("B", "i")},
    )
    b_node = next(e.dst for e in body.out_edges(e1))
    body.add_mapped_tasklet(
        "writeback", {"i": "1:N-2"},
        {"b": Memlet.simple("B", "i")}, "a = b",
        {"a": Memlet.simple("A", "i")},
        input_nodes={"B": b_node},
    )
    sdfg.add_loop(init, body, None, "t", "0", f"t < {trip}", "t + 1")
    return sdfg


def build_diamond():
    """If-diamond branching on a scalar container."""
    sdfg = SDFG("diamond")
    sdfg.add_array("X", [1], float64)
    sdfg.add_scalar("s", float64)
    entry = sdfg.add_state("entry", is_start_state=True)
    then_s = sdfg.add_state("then")
    else_s = sdfg.add_state("else")
    join = sdfg.add_state("join")
    then_s.add_mapped_tasklet(
        "plus", {"i": "0:0"}, {"x": Memlet.simple("X", "i")},
        "y = x + 1.0", {"y": Memlet.simple("X", "i")},
    )
    else_s.add_mapped_tasklet(
        "minus", {"i": "0:0"}, {"x": Memlet.simple("X", "i")},
        "y = x - 1.0", {"y": Memlet.simple("X", "i")},
    )
    sdfg.add_edge(entry, then_s, InterstateEdge(condition="s > 0"))
    sdfg.add_edge(entry, else_s, InterstateEdge(condition="s <= 0"))
    sdfg.add_edge(then_s, join, InterstateEdge(assignments={"taken": "1"}))
    sdfg.add_edge(else_s, join, InterstateEdge(assignments={"taken": "2"}))
    return sdfg


def build_irreducible():
    """A cycle without the guard pattern (conditions not textually negated),
    so only a state-dispatch loop can run it."""
    sdfg = SDFG("irreducible")
    sdfg.add_array("X", [1], float64)
    sdfg.add_symbol("x")
    a = sdfg.add_state("a", is_start_state=True)
    b = sdfg.add_state("b")
    c = sdfg.add_state("c")
    sdfg.add_edge(a, b, InterstateEdge(assignments={"x": "x + 1"}))
    sdfg.add_edge(b, a, InterstateEdge(condition="x < 3"))
    sdfg.add_edge(b, c, InterstateEdge(condition="x >= 3"))
    return sdfg


class TestSuiteLowering:
    @pytest.mark.parametrize("suite,name", SUITE_PROGRAMS)
    def test_suite_programs_prepare_to_dispatch(self, suite, name):
        """Every registered suite program gets the generated driver: none
        silently degrades to the interpreted control loop."""
        program = get_backend("compiled").prepare(get_workload(suite, name).build())
        assert program.control_mode == "dispatch"
        # On CPython 3.11 a 30th attribute unshares the instance dict's
        # keys and grows it from 296 to 1584 bytes; pinned at today's 17.
        assert len(vars(program)) <= 17


class TestControlFlowLowering:
    def test_driver_vocabulary_mirrors_the_interpreter(self):
        """The names the emitted expressions may resolve as builtins are
        exactly the interpreter's callable evaluation globals."""
        assert INTERSTATE_GLOBAL_NAMES == {
            name for name, value in _EVAL_GLOBALS.items() if callable(value)
        }

    def test_loop_nest_runs_dispatch_with_correct_transitions(self):
        sdfg = build_loop_nest()
        symbols = {"N": 10, "T": 5}
        args = make_arguments(sdfg, symbols)
        r1, r2, program = run_pair(sdfg, args, symbols)
        assert program.control_mode == "dispatch"
        assert "while __s >= 0:" in program.driver_source
        # init + T x (guard + body) + final guard check + after state
        assert r2.transitions == r1.transitions == 2 * 5 + 3
        assert r2.symbols["t"] == 5
        assert_identical(r1, r2)

    def test_diamond_both_paths(self):
        sdfg = build_diamond()
        program = get_backend("compiled").prepare(sdfg)
        assert program.control_mode == "dispatch"
        assert "while __s >= 0:" in program.driver_source
        for sval, taken in ((2.5, 1), (-2.5, 2)):
            args = {"X": np.zeros(1), "s": np.array([sval])}
            r1 = get_backend("interpreter").prepare(sdfg).run(dict(args), {})
            r2 = program.run(dict(args), {})
            assert_identical(r1, r2)
            assert r2.symbols["taken"] == taken

    def test_irreducible_graph_runs_dispatch(self):
        sdfg = build_irreducible()
        program = get_backend("compiled").prepare(sdfg)
        assert program.control_mode == "dispatch"
        r1, r2, _ = run_pair(sdfg, {"X": np.zeros(1)}, {"x": 0})
        assert_identical(r1, r2)
        assert r2.symbols["x"] == 3

    def test_hang_parity(self):
        sdfg = SDFG("spin")
        sdfg.add_array("X", [1], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        sdfg.add_edge(s0, s0, InterstateEdge())
        for name in ("interpreter", "compiled"):
            with pytest.raises(HangError):
                get_backend(name).prepare(sdfg, max_transitions=40).run(
                    {"X": np.zeros(1)}, {}
                )

    def test_failing_condition_raises_execution_error(self):
        """A condition referencing a (non-scalar) array resolves in neither
        backend's namespace; both must report ExecutionError, not NameError."""
        sdfg = SDFG("badcond")
        sdfg.add_array("X", [2], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        sdfg.add_edge(s0, s1, InterstateEdge(condition="X > 0"))
        for name in ("interpreter", "compiled"):
            with pytest.raises(ExecutionError):
                get_backend(name).prepare(sdfg).run({"X": np.zeros(2)}, {})

    @pytest.mark.parametrize(
        "edge",
        [
            InterstateEdge(condition="N >"),
            InterstateEdge(assignments={"M": "N +"}),
            InterstateEdge(assignments={"M": "X + 1"}),
        ],
        ids=["unparseable-condition", "unparseable-assignment", "failing-assignment"],
    )
    def test_bad_interstate_code_raises_execution_error(self, edge):
        """Code that does not parse is evaluated the interpreter's way; it,
        and an assignment that fails at runtime, raise ExecutionError on
        both backends."""
        sdfg = SDFG("badedge")
        sdfg.add_array("X", [2], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        sdfg.add_edge(s0, s1, edge)
        for name in ("interpreter", "compiled"):
            with pytest.raises(ExecutionError):
                get_backend(name).prepare(sdfg).run({"X": np.zeros(2)}, {"N": 3})

    def test_assignment_integral_float_becomes_int(self):
        """Interpreter parity: `N / 2` with even N must land as a Python
        int in the final symbols, not 2.0."""
        sdfg = SDFG("intconv")
        sdfg.add_array("X", [1], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        sdfg.add_edge(s0, s1, InterstateEdge(assignments={"half": "N / 2"}))
        sdfg.add_symbol("N")
        r1, r2, _ = run_pair(sdfg, {"X": np.zeros(1)}, {"N": 4})
        assert_identical(r1, r2)
        assert r2.symbols["half"] == 2 and type(r2.symbols["half"]) is int

    def test_no_true_out_edge_terminates(self):
        """When no condition holds the interpreter stops; so must the
        generated driver."""
        sdfg = SDFG("deadend")
        sdfg.add_array("X", [1], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        sdfg.add_edge(s0, s1, InterstateEdge(condition="False"))
        r1, r2, _ = run_pair(sdfg, {"X": np.zeros(1)}, {})
        assert_identical(r1, r2)
        assert r2.transitions == 1

    def test_assigned_symbol_sharing_an_array_name_resolves(self):
        """An interstate assignment may target a name that is also a
        (non-scalar) array; the interpreter resolves later reads through the
        symbol namespace, and so must the generated driver."""
        sdfg = SDFG("arrshadow")
        sdfg.add_array("A", [2], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        s2 = sdfg.add_state("s2")
        sdfg.add_edge(s0, s1, InterstateEdge(assignments={"A": "5"}))
        sdfg.add_edge(s1, s2, InterstateEdge(condition="A > 3"))
        r1, r2, _ = run_pair(sdfg, {"A": np.zeros(2)}, {})
        assert_identical(r1, r2)
        assert r2.transitions == 3 and r2.symbols["A"] == 5

    def test_runtime_symbol_named_after_builtin_resolves(self):
        """A symbol genuinely named `len` (or any builtin) is resolved from
        the symbol namespace by the interpreter; name routing must not leave
        it to the (empty) global vocabulary."""
        sdfg = SDFG("lensym")
        sdfg.add_array("X", [1], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        sdfg.add_edge(s0, s1, InterstateEdge(condition="len > 0"))
        r1, r2, _ = run_pair(sdfg, {"X": np.zeros(1)}, {"len": 1})
        assert_identical(r1, r2)
        assert r2.transitions == 2

    def test_symbol_shadowing_eval_vocabulary_wins_like_eval_locals(self):
        """`eval` resolves the symbol namespace (locals) before the
        `min`/`max`/`abs` vocabulary (globals); the emitted conditional
        lookup must preserve that, while unshadowed builtins keep working."""
        shadowed = SDFG("minshadow")
        shadowed.add_array("X", [1], float64)
        s0 = shadowed.add_state("s0", is_start_state=True)
        s1 = shadowed.add_state("s1")
        shadowed.add_edge(
            s0, s1, InterstateEdge(condition="min > 0", assignments={"k": "min + 1"})
        )
        r1, r2, _ = run_pair(shadowed, {"X": np.zeros(1)}, {"min": 2})
        assert_identical(r1, r2)
        assert r2.symbols["k"] == 3

        vocab = SDFG("minuse")
        vocab.add_array("X", [1], float64)
        t0 = vocab.add_state("t0", is_start_state=True)
        t1 = vocab.add_state("t1")
        vocab.add_edge(
            t0, t1,
            InterstateEdge(condition="min(N, 3) > 1", assignments={"k": "Max(N, 10)"}),
        )
        r1, r2, _ = run_pair(vocab, {"X": np.zeros(1)}, {"N": 5})
        assert_identical(r1, r2)
        assert r2.symbols["k"] == 10

    def test_scalar_shadowing_assignment_uses_interpreted_safety_net(self):
        """An interstate assignment to a name that is also a scalar container
        cannot be routed statically; the driver must degrade to the
        interpreted control loop and stay parity-exact."""
        sdfg = SDFG("shadow")
        sdfg.add_array("X", [1], float64)
        sdfg.add_scalar("s", float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        sdfg.add_edge(s0, s1, InterstateEdge(assignments={"s": "7"}))
        program = get_backend("compiled").prepare(sdfg)
        assert program.control_mode == "interpreted"
        args = {"X": np.zeros(1), "s": np.array([1.0])}
        r1 = get_backend("interpreter").prepare(sdfg).run(dict(args), {})
        r2 = program.run(dict(args), {})
        assert_identical(r1, r2)


class TestPreparationCache:
    """Nothing is kept between prepares: each returns a program of its own,
    and prepare never serialises (so never hashes) the program."""

    @pytest.fixture
    def no_hashing(self, monkeypatch):
        def refuse(sdfg):
            raise AssertionError("prepare serialised the program")

        monkeypatch.setattr(serialize_module, "sdfg_to_json", refuse)
        monkeypatch.setattr(serialize_module, "sdfg_to_dict", refuse)

    def test_the_no_hashing_fixture_bites(self, no_hashing):
        with pytest.raises(AssertionError, match="serialised"):
            sdfg_content_hash(build_loop_nest())

    def test_every_prepare_returns_a_private_program(self, no_hashing):
        backend = get_backend("compiled")
        sdfg = build_loop_nest()
        programs = [backend.prepare(sdfg), backend.prepare(sdfg.clone()), backend.prepare(sdfg)]
        assert len({id(p) for p in programs}) == 3
        assert not hasattr(backend, "cache_hits")

    def test_equal_driver_sources_share_code_not_functions(self, no_hashing):
        """Two independent builds (fresh guids, different names) emit the
        same driver text: it compiles once, and each program execs its own
        driver function from the shared code object."""
        one = build_loop_nest()
        two = build_loop_nest()
        two.name = "another_loop_nest"
        a = get_backend("compiled").prepare(one)
        b = get_backend("compiled").prepare(two)
        assert a.control_mode == b.control_mode == "dispatch"
        assert "while __s >= 0:" in a.driver_source
        assert a.driver_source == b.driver_source
        assert a._drive is not b._drive
        assert a._drive.__code__ is b._drive.__code__
        symbols = {"N": 9, "T": 3}
        args = make_arguments(one, symbols)
        assert_identical(
            get_backend("interpreter").prepare(two).run(dict(args), symbols),
            get_backend("compiled").prepare(two).run(dict(args), symbols),
        )

    def test_cached_program_reruns_identically(self):
        backend = get_backend("compiled")
        sdfg = build_loop_nest()
        symbols = {"N": 9, "T": 3}
        args = make_arguments(sdfg, symbols)
        first = backend.prepare(sdfg).run(dict(args), symbols)
        second = backend.prepare(sdfg.clone()).run(dict(args), symbols)
        assert np.array_equal(first.outputs["A"], second.outputs["A"])
        assert first.symbols == second.symbols


class TestCrossPairs:
    def test_cross_pair_name_resolves(self):
        backend = get_backend("cross:compiled,interpreter")
        assert backend == Backend(
            "cross:compiled,interpreter", ("compiled", "interpreter")
        )

    @pytest.mark.parametrize(
        "name", ["cross:compiled", "cross:compiled,nope", "cross:cross,interpreter",
                 "cross:a,b,c"]
    )
    def test_invalid_pairs_rejected(self, name):
        with pytest.raises(KeyError):
            get_backend(name)

    def test_cross_compiled_interpreter_agrees_on_loop_nest(self):
        sdfg = build_loop_nest()
        symbols = {"N": 10, "T": 4}
        args = make_arguments(sdfg, symbols)
        program = get_backend("cross:compiled,interpreter").prepare(sdfg)
        result = program.run(dict(args), symbols)
        assert program.checked_runs == 1
        reference = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        assert_identical(result, reference)

    @pytest.mark.parametrize("kernel", NPBENCH)
    def test_cross_compiled_interpreter_agrees_on_suite(self, kernel):
        spec = get_workload("npbench", kernel)
        sdfg = spec.build()
        symbols = dict(spec.symbols)
        args = make_arguments(sdfg, symbols)
        program = get_backend("cross:compiled,interpreter").prepare(sdfg)
        program.run(dict(args), symbols)
        assert program.checked_runs == 1


class TestDivergenceErrorContext:
    def test_pickle_roundtrip_preserves_context(self):
        err = BackendDivergenceError(
            "gemm",
            ["container 'C' differs bitwise"],
            reference="compiled",
            candidate="interpreter",
            sdfg_hash="abc123def4567890",
        )
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is BackendDivergenceError
        assert clone.program == "gemm"
        assert clone.details == ["container 'C' differs bitwise"]
        assert clone.reference == "compiled"
        assert clone.candidate == "interpreter"
        assert clone.sdfg_hash == "abc123def4567890"
        assert "compiled vs. interpreter" in str(clone)
        assert "abc123def456" in str(clone)

    def test_cross_program_attaches_pair_and_hash(self):
        from repro.backends.cross import CrossProgram

        sdfg = build_diamond()
        reference = get_backend("interpreter").prepare(sdfg)

        class Broken:
            def run(self, arguments=None, symbols=None):
                result = reference.run(arguments, symbols)
                result.outputs["X"] = result.outputs["X"] + 1.0
                return result

        program = CrossProgram(
            sdfg, reference, Broken(),
            reference_name="interpreter", candidate_name="broken",
        )
        args = {"X": np.zeros(1), "s": np.array([1.0])}
        with pytest.raises(BackendDivergenceError) as exc_info:
            program.run(dict(args), {})
        err = exc_info.value
        assert (err.reference, err.candidate) == ("interpreter", "broken")
        assert err.sdfg_hash == sdfg_content_hash(sdfg)
        # The reconstructed worker-side exception keeps the same context.
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.reference, clone.candidate, clone.sdfg_hash) == (
            err.reference, err.candidate, err.sdfg_hash
        )


class TestStateNamespaceReuse:
    """The per-transition fast path: prepared op lists, no symbol-dict copy."""

    def test_state_op_lists_built_at_prepare_time(self):
        sdfg = build_loop_nest()
        executor = CompiledExecutor(sdfg)
        assert list(executor._state_index) == list(sdfg.states())
        assert list(executor._state_index.values()) == list(range(len(sdfg.states())))
        assert len(executor._state_ops) == len(executor._state_index)
        # Every op list holds prebound closures taking only the symbol dict.
        assert all(
            callable(op) for ops in executor._state_ops for op in ops
        )

    def test_state_ops_receive_live_symbols_without_copy(self):
        sdfg = build_loop_nest()
        executor = CompiledExecutor(sdfg)
        seen = []

        def wrap(op):
            def spying(rt, symbols):
                # Identity must be checked at call time: the run contract
                # rebinds executor._symbols to a fresh dict after each run.
                seen.append(rt is executor and symbols is executor._symbols)
                return op(rt, symbols)

            return spying

        # Both the generated driver and _execute_state read the op lists
        # from executor._state_ops; patch them in place.
        for ops in executor._state_ops:
            ops[:] = [wrap(op) for op in ops]
        executor.run(make_arguments(sdfg, {"N": 6, "T": 3}), {"N": 6, "T": 3})
        assert seen, "no ops executed"
        assert all(seen), "a state execution copied the symbol namespace"

    def test_fast_path_stays_bitwise_identical(self):
        sdfg = build_loop_nest()
        symbols = {"N": 8, "T": 4}
        args = make_arguments(sdfg, symbols)
        r1, r2, program = run_pair(sdfg, args, symbols)
        assert program.control_mode == "dispatch"
        assert "while __s >= 0:" in program.driver_source
        assert_identical(r1, r2)


class TestProgramsDieByRefcount:
    """A sweep worker's peak memory must not depend on when the cyclic
    collector happens to run: everything a finished task prepared is freed
    by reference counting alone."""

    @pytest.fixture
    def no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_executor_and_its_ops_form_no_cycle(self, no_collector):
        """The op lists take the executor as an argument."""
        sdfg = build_loop_nest()
        program = get_backend("compiled").prepare(sdfg)
        symbols = {"N": 6, "T": 3}
        program.run(make_arguments(sdfg, symbols), symbols)
        executor = weakref.ref(program)
        del program
        assert executor() is None

    @pytest.mark.parametrize("backend", ["compiled", "cross:compiled,interpreter"])
    def test_a_caught_crash_leaves_no_cycle(self, no_collector, backend):
        """The traceback of a caught run error holds every frame of the run;
        none of them may name the error, or the program outlives it."""
        sdfg = SDFG("crash")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        sdfg.add_state("s", is_start_state=True).add_mapped_tasklet(
            "f", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = math.sqrt(x)", {"y": Memlet.simple("Out", "i")},
        )
        before = sum(isinstance(o, CompiledExecutor) for o in gc.get_objects())
        program = get_backend(backend).prepare(sdfg)
        try:
            program.run({"A": np.asarray([1.0, -1.0]), "Out": np.zeros(2)}, {"N": 2})
        except ExecutionError:
            pass
        else:
            pytest.fail("the run did not crash")
        del program
        assert sum(isinstance(o, CompiledExecutor) for o in gc.get_objects()) == before

    @pytest.mark.parametrize("backend", ["compiled", "cross:compiled,interpreter"])
    def test_crashing_trials_leave_nothing_behind(self, no_collector, backend):
        """A caught trial error's traceback reaches every frame up to the
        task; nothing on the way -- the fuzzer's trial loop, the ``cross``
        pairing -- may keep the error with it."""
        from repro.core.reporting import TrialStatus
        from repro.core.verifier import FuzzyFlowVerifier
        from repro.transforms import all_builtin_transformations

        def live_executors():
            return sum(isinstance(o, CompiledExecutor) for o in gc.get_objects())

        before = live_executors()
        spec = get_workload("npbench", "gemm")
        report = FuzzyFlowVerifier(
            num_trials=6, size_max=10, seed=0, minimize_inputs=False,
            backend=backend,
        ).verify_instance(
            spec.build(),
            all_builtin_transformations()["Vectorization"](inject_bug=True),
            0,
            symbol_values=spec.symbols,
        )
        assert TrialStatus.CRASH_TRANSFORMED in [t.status for t in report.fuzzing.trials]
        assert live_executors() == before


class TestWorkflowThreading:
    def test_verifier_verdict_matches_interpreter(self):
        from repro.core.verifier import FuzzyFlowVerifier
        from repro.transforms import all_builtin_transformations

        spec = get_workload("npbench", "iterative_smoother")
        xform = all_builtin_transformations()["MapTiling"](inject_bug=False)

        def verify(backend):
            verifier = FuzzyFlowVerifier(
                num_trials=3, seed=0, size_max=8, minimize_inputs=False,
                backend=backend,
            )
            return verifier.verify(spec.build(), xform, symbol_values=spec.symbols)

        reference = verify("interpreter")
        candidate = verify("compiled")
        crossed = verify("cross:compiled,interpreter")
        assert candidate.verdict == reference.verdict == crossed.verdict
        assert [t.status for t in candidate.fuzzing.trials] == [
            t.status for t in reference.fuzzing.trials
        ]
