"""Copy semantics of programs and the shared-workload contract.

Every IR copy -- ``SDFG.clone``, a cutout, an unrolled state -- goes
through the structural copier (``repro.sdfg.copier``): it copies every
mutable carrier (states, graphs, nodes, connector sets, maps, memlets, data
descriptors, interstate edges) and shares the immutable leaves
(expressions, ranges, subsets, element types).  The no-aliasing audit walks
the object graph of each copy to check exactly that, and that a copied map
entry and exit still share one map.  ``build_workload`` hands every caller
in the process the same program, which is only sound while everything
downstream of it -- enumeration, cutout extraction, ``verify`` -- reads and
never writes.  These tests pin both halves.
"""

import copy
import dataclasses
import enum
import gc
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.sdfg.copier as copier
import repro.workloads as workloads
from repro.backends import get_backend, sdfg_content_hash
from repro.core.cutout import extract_cutout, extract_state_cutout, transfer_match
from repro.core.verifier import FuzzyFlowVerifier
from repro.pipeline import SweepRunner, enumerate_sweep_tasks, execute_task
from repro.pipeline.tasks import default_transformation_specs
from repro.sdfg.data import Array
from repro.sdfg.dtypes import float64, typeclass
from repro.sdfg.nodes import MapEntry, MapExit
from repro.sdfg.sdfg import SDFG
from repro.symbolic.expressions import Expr, sympify
from repro.symbolic.ranges import Range, Subset
from repro.transforms.base import copy_state_into
from repro.workloads import build_workload, get_workload_suite

REGISTERED = [
    (suite, spec.name)
    for suite in ("npbench", "bert", "cloudsc")
    for spec in get_workload_suite(suite)
]
#: The Table-2 sweep configuration (the pipeline CLI's defaults).
SHALLOW = dict(num_trials=6, size_max=10, seed=0, minimize_inputs=False, backend="compiled")


def _mutable_parts(sdfg):
    """Every object of a program that a transformation may write to."""
    parts = list(sdfg.arrays.values()) + list(sdfg.states())
    parts += [e.data for e in sdfg.edges()]
    for state in sdfg.states():
        parts.append(state.graph)
        parts += state.nodes()
        parts += [n.map for n in state.nodes() if isinstance(n, MapEntry)]
        parts += [n.map.ranges for n in state.nodes() if isinstance(n, MapEntry)]
        parts += [e.data for e in state.edges() if e.data is not None]
    return parts


#: What a copy may share with its source: immutable leaves.
_LEAVES = (str, int, float, bool, type(None), enum.Enum, Expr, Range, Subset, typeclass)
#: Never walked into: they are reached through every instance's class.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def _is_leaf(obj):
    if isinstance(obj, (tuple, frozenset)):
        return all(_is_leaf(item) for item in obj)
    return isinstance(obj, _LEAVES)


def _reachable(root):
    """id -> object for everything ``gc.get_referents`` reaches from
    ``root``, without walking into leaves, classes, modules or functions."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen[id(obj)] = obj
        if not isinstance(obj, _LEAVES):
            stack.extend(gc.get_referents(obj))
    return seen


def _shared_carriers(source, copied):
    """Objects reachable from both programs that are not immutable leaves."""
    theirs = _reachable(source)
    return [obj for key, obj in _reachable(copied).items() if key in theirs and not _is_leaf(obj)]


def _unshared_map_exits(states):
    """Map exits in ``states`` whose map is not the map of an entry in the
    same state."""
    out = []
    for state in states:
        maps = {id(n.map) for n in state.nodes() if isinstance(n, MapEntry)}
        out += [n for n in state.nodes() if isinstance(n, MapExit) and id(n.map) not in maps]
    return out


def _first_instance(sdfg):
    for spec in default_transformation_specs(buggy=False):
        xform = spec.instantiate()
        matches = FuzzyFlowVerifier().enumerate_instances(sdfg, xform, max_instances=1)
        if matches:
            return xform, matches[0]
    raise AssertionError(f"no transformation applies to {sdfg.name}")


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty workload memo for one test; returns the list of real builds."""
    built = []
    lookup = workloads.get_workload

    def counting_lookup(suite, name):
        spec = lookup(suite, name)

        def build():
            built.append((suite, name))
            return spec.build()

        return dataclasses.replace(spec, build=build)

    monkeypatch.setattr(workloads, "_BUILT", {})
    monkeypatch.setattr(workloads, "get_workload", counting_lookup)
    return built


class TestImmutableLeaves:
    @pytest.mark.parametrize(
        "leaf",
        [
            sympify("N * (M + 1) // 2"),
            sympify("Min(N, i + 32)"),
            sympify(7),
            Range("i * 32", "Min(N, i * 32 + 32) - 1", 2),
            Subset.from_string("i, 0:N-1, 2:9:2"),
            Subset.from_string("i, j + 1"),
            float64,
            typeclass("float16", "float16"),
        ],
        ids=repr,
    )
    def test_copies_are_the_object_itself(self, leaf):
        assert copy.deepcopy(leaf) is leaf
        assert copy.copy(leaf) is leaf

    def test_carriers_are_copied_around_shared_leaves(self):
        desc = Array(float64, ["N", "M"])
        clone = desc.clone()
        assert clone is not desc and clone == desc
        assert clone.shape[0] is desc.shape[0] and clone.dtype is desc.dtype
        clone.transient = True
        assert [str(s) for s in desc.shape] == ["N", "M"] and not desc.transient

    def test_a_cloned_descriptor_starts_without_the_shape_cache(self):
        desc = Array(float64, ["N", "M"])
        assert desc.concrete_shape({"N": 3, "M": 4}) == (3, 4)
        assert "_shape_cache" in vars(desc)
        clone = desc.clone()
        assert "_shape_cache" not in vars(clone)
        for values in ({"N": 3, "M": 4}, {"N": 5, "M": 1}):
            assert clone.concrete_shape(values) == desc.concrete_shape(values)


def test_a_clone_names_its_next_state_like_the_original():
    """The default-label counter is a plain int the copier carries over (an
    ``itertools.count`` cannot be copied on every supported Python)."""
    program = SDFG("labels")
    program.add_state()
    program.add_state()
    clone = program.clone()
    assert clone.add_state().label == program.add_state().label == "state_2"
    for sdfg in (program, clone):
        assert not [
            name for name, value in vars(sdfg).items()
            if type(value).__module__ == "itertools"
        ]


@pytest.mark.parametrize("suite,name", REGISTERED, ids=[f"{s}/{n}" for s, n in REGISTERED])
class TestCloneIsolation:
    def test_clone_preserves_content_and_shares_no_carrier(self, suite, name):
        original = workloads.get_workload(suite, name).build()
        clone = original.clone()
        assert sdfg_content_hash(clone) == sdfg_content_hash(original)
        assert [n.guid for _, n in clone.all_nodes()] == [
            n.guid for _, n in original.all_nodes()
        ]
        shared = {id(p) for p in _mutable_parts(original)} & {
            id(p) for p in _mutable_parts(clone)
        }
        assert not shared

    def test_mutating_the_clone_leaves_the_original_alone(self, suite, name):
        original = workloads.get_workload(suite, name).build()
        before = sdfg_content_hash(original)
        xform, match = _first_instance(original)

        clone = original.clone()
        xform.apply(clone, transfer_match(xform, match, clone))
        assert sdfg_content_hash(clone) != before

        clone = original.clone()
        for name, desc in list(clone.arrays.items()):
            if isinstance(desc, Array):
                shape = [s + 1 for s in desc.shape]
                clone.arrays[name] = Array(desc.dtype, shape, transient=not desc.transient)
            else:
                desc.transient = not desc.transient
        assert sdfg_content_hash(clone) != before
        assert sdfg_content_hash(original) == before


@pytest.mark.parametrize("suite,name", REGISTERED, ids=[f"{s}/{n}" for s, n in REGISTERED])
class TestNoAliasing:
    """Walk each copy's object graph: whatever it shares with its source is
    an immutable leaf, and each copied map exit shares its entry's map."""

    def test_clone_cutout_and_transformed_cutout(self, suite, name):
        program = build_workload(suite, name)
        xform, match = _first_instance(program)
        cutout = extract_cutout(program, xform, match)
        transformed = cutout.sdfg.clone()
        xform.apply(transformed, transfer_match(xform, match, transformed))
        pairs = [(program, program.clone()), (program, cutout.sdfg), (cutout.sdfg, transformed)]
        for source, copied in pairs:
            assert _shared_carriers(source, copied) == []
            assert _unshared_map_exits(copied.states()) == []

    def test_copy_state_into_gives_fresh_guids(self, suite, name):
        program = workloads.get_workload(suite, name).build()
        state = max(program.states(), key=lambda s: len(s.nodes()))
        again = copy_state_into(program, state, "again")
        assert len(again.nodes()) == len(state.nodes())
        old = {n.guid for _, n in program.all_nodes() if n not in again.nodes()}
        assert not old & {n.guid for n in again.nodes()}
        assert _shared_carriers(state, again) == []
        assert _unshared_map_exits([again]) == []


def test_the_audit_catches_a_copier_that_shares_map_params(monkeypatch):
    def sharing_clone_map(m):
        out = type(m).__new__(type(m))
        out.__dict__ = {**m.__dict__, "ranges": list(m.ranges)}
        return out

    monkeypatch.setattr(copier, "_clone_map", sharing_clone_map)
    program = build_workload("npbench", "gemm")
    params = [n.map.params for _, n in program.all_nodes() if isinstance(n, MapEntry)]
    shared = _shared_carriers(program, program.clone())
    assert params and all(any(p is obj for obj in shared) for p in params)


def test_copying_states_never_copies_their_program(monkeypatch):
    """States hold no reference back to their program, so a state cutout or
    an unrolled loop body costs the states it copies, not the whole SDFG."""
    program = workloads.get_workload("npbench", "windowed_update").build()

    def no_program_copy(sdfg):
        raise AssertionError(f"whole-program copy of {sdfg.name}")

    monkeypatch.setattr(copier, "clone_sdfg", no_program_copy)
    cutout = extract_state_cutout(program, program.states()[:2], {})
    assert {s.label for s in program.states()[:2]} <= {s.label for s in cutout.sdfg.states()}
    copy_state_into(program, program.states()[0], "again")
    assert program.states()[-1].label == "again"


class TestSharedWorkloads:
    def test_one_build_per_workload_per_process(self, fresh_memo):
        tasks = enumerate_sweep_tasks(
            suite="npbench", buggy=True, max_instances=4, verifier_kwargs=SHALLOW
        )
        assert len(tasks) == 95
        assert len(fresh_memo) == 15
        assert all(execute_task(task)["error"] is None for task in tasks)
        assert len(fresh_memo) == 15
        assert tasks[0].build_sdfg() is build_workload("npbench", tasks[0].workload)

    def test_reregistering_a_suite_drops_its_programs(self, fresh_memo):
        first = build_workload("bert", "attention_scores")
        assert build_workload("bert", "attention_scores") is first
        workloads.register_workload_suite("bert", workloads._SUITE_LOADERS["bert"])
        assert build_workload("bert", "attention_scores") is not first

    def test_custom_programs_are_deserialised_per_task(self):
        program = workloads.get_workload("npbench", "jacobi_1d").build()
        (task, *_) = enumerate_sweep_tasks(
            suite="custom",
            custom_workloads=[("mine", program, {"N": 8, "TSTEPS": 2})],
            max_instances=1,
            verifier_kwargs=SHALLOW,
        )
        assert task.build_sdfg() is not task.build_sdfg()

    def test_full_sweeps_leave_the_shared_programs_untouched(self, fresh_memo):
        """Any transformation, analysis or backend that writes to the shared
        program -- or assigns to a slot of a shared leaf, which the program's
        serialisation shows just the same -- fails here.  (Hashes are taken
        before and after on the same instance: a second ``build()`` draws
        fresh node guids, so its hash differs by construction.)"""
        lists = [
            enumerate_sweep_tasks(
                suite="npbench", buggy=buggy, max_instances=4,
                verifier_kwargs=dict(SHALLOW, minimize_inputs=True),
            )
            for buggy in (True, False)
        ]
        before = {key: sdfg_content_hash(p) for key, p in workloads._BUILT.items()}
        assert len(before) == 15
        for tasks in lists:
            result = SweepRunner(workers=1).run(tasks)
            assert not result.errors()
        after = {key: sdfg_content_hash(p) for key, p in workloads._BUILT.items()}
        assert after == before


class TestSharedAcrossThreads:
    """With one build per process, every thread reads the same workload
    program (and its states' scope indexes).  A prepared program holds the
    state of the run in progress, so it must never reach a second caller."""

    def test_every_prepare_is_private_to_its_caller(self):
        program = build_workload("npbench", "gemm")
        prepare = get_backend("compiled").prepare
        mine = [prepare(program), prepare(program.clone())]
        with ThreadPoolExecutor(2) as pool:
            theirs = list(pool.map(prepare, [program, program]))
        programs = mine + theirs
        assert len({id(p) for p in programs}) == len(programs)

    def test_threaded_sweep_matches_the_serial_one(self):
        tasks = enumerate_sweep_tasks(
            suite="npbench", buggy=True, max_instances=4, verifier_kwargs=SHALLOW
        )
        serial = [execute_task(task)["verdict"] for task in tasks]
        for _ in range(2):
            with ThreadPoolExecutor(4) as pool:
                threaded = [o["verdict"] for o in pool.map(execute_task, tasks)]
            assert threaded == serial


class TestVerifyCopiesOnce:
    def test_one_clone_per_verification(self, monkeypatch):
        clones = []
        real_clone = SDFG.clone

        def counting_clone(self, new_name=None):
            clones.append(self.name)
            return real_clone(self, new_name)

        monkeypatch.setattr(SDFG, "clone", counting_clone)
        program = build_workload("npbench", "gemm")
        before = sdfg_content_hash(program)
        xform, match = _first_instance(program)
        report = FuzzyFlowVerifier(**SHALLOW).verify(
            program, xform, match=match, symbol_values={"NI": 6, "NJ": 5, "NK": 4}
        )
        assert report.fuzzing is not None and report.fuzzing.trials_run > 0
        assert clones == ["cutout_gemm"]
        assert sdfg_content_hash(program) == before
