"""The closed-form scope geometry against the materialised path it replaced.

``repro.backends.geometry`` derives bounds checks, gather indices and write
regions of ``param``/``const`` accesses from the map's integers.  The
reference below is what the runtime did before (and still does for ``expr``
dimensions): build ``np.arange`` axes, evaluate broadcast index arrays,
min/max-reduce them for the bounds check and gather with advanced indexing
(scatter through an ``np.ix_`` mesh).  Same block bit for bit, same written
region, same exception type and message.  ``expr`` dimensions keep the
materialised path; :class:`TestGatherGeometry` runs gathers of both kinds
end to end against the interpreter.
"""

import itertools
import random

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.analysis import analyze_state
from repro.backends.codegen.numpy_eager import BoundInput, BoundOutput
from repro.backends.compiled import CompiledExecutor
import repro.backends.execute as execute_module
from repro.backends.geometry import axis_triple
from repro.core.cutout import extract_cutout, transfer_match
from repro.interpreter.errors import MemoryViolation
from repro.interpreter.tasklet_exec import compile_expression
from repro.sdfg import SDFG, Memlet, float64
from repro.transforms import all_builtin_transformations
from repro.workloads import get_workload

BINDINGS = {"c": 1, "N": 4}


# ---------------------------------------------------------------------- #
# Case generation and the materialised reference
# ---------------------------------------------------------------------- #
def random_case(rng):
    """``(ranges, dims, shape)``: a map domain (positive / negative /
    non-unit steps, length-1 axes, ends off the sequence), an access using
    a random subset of the parameters once each in random dimension order
    (permuted, rank-deficient or all-constant) with offsets and constant
    dimensions, and a container shape that fits or misses by one."""
    nparams = rng.randint(1, 3)
    ranges = []
    for _ in range(nparams):
        step = rng.choice([1, 1, 2, 3, -1, -2])
        count = rng.choice([1, 2, 3, 5])
        begin = rng.randint(1, 5) + (-step * (count - 1) if step < 0 else 0)
        slack = rng.randint(0, abs(step) - 1)
        ranges.append((begin, begin + step * (count - 1) + (slack if step > 0 else -slack), step))
    axes = list(range(nparams))
    rng.shuffle(axes)
    dims = [("param", (a, rng.choice([-2, -1, 0, 0, 1, 2]))) for a in axes[: rng.randint(0, nparams)]]
    for _ in range(rng.randint(0 if dims else 1, 2)):
        dims.insert(rng.randint(0, len(dims)), ("const", rng.choice(["0", "2", "c", "N - 1"])))
    shape = []
    for kind, payload in dims:
        if kind == "param":
            b, e, s = ranges[payload[0]]
            hi = max(b, b + s * (len(range(b, e + 1 if s > 0 else e - 1, s)) - 1)) + payload[1]
        else:
            hi = int(eval(payload, {}, BINDINGS))
        shape.append(max(1, hi + rng.choice([1, 1, 1, 0])))
    return ranges, dims, tuple(shape)


def materialise(ranges, dims):
    """The index arrays of the old path: broadcast grids plus offsets for
    gathers, their 1-D forms for writes."""
    axes = [np.arange(b, e + 1 if s > 0 else e - 1, s, dtype=np.int64) for b, e, s in ranges]
    grids, flat = [], []
    for kind, payload in dims:
        if kind == "param":
            axis, offset = payload
            gshape = [1] * len(axes)
            gshape[axis] = len(axes[axis])
            flat.append(axes[axis] + offset)
            grids.append(flat[-1].reshape(gshape))
        else:
            c = int(eval(payload, {}, BINDINGS))
            flat.append(np.asarray([c], dtype=np.int64))
            grids.append(c)
    return grids, flat


def outcome(fn):
    try:
        return fn()
    except MemoryViolation as exc:
        return exc


def assert_same(ref, got):
    if isinstance(ref, MemoryViolation):
        assert type(got) is MemoryViolation and str(got) == str(ref)
        return
    assert not isinstance(got, Exception), got
    ref, got = np.asarray(ref), np.asarray(got)
    assert ref.shape == got.shape and ref.dtype == got.dtype
    assert ref.tobytes() == np.ascontiguousarray(got).tobytes()


def compiled(dims):
    """``dims`` as the analyzer records them: ``const`` indices compiled."""
    return [(kind, p if kind == "param" else compile_expression(p)) for kind, p in dims]


CASES = [random_case(random.Random(seed)) for seed in range(400)]


# ---------------------------------------------------------------------- #
class TestClosedFormAgainstMaterialised:
    def test_axis_triple_counts_like_arange(self):
        for b, e, s in itertools.product(range(-3, 4), range(-3, 4), (-3, -2, -1, 1, 2, 3)):
            ref = np.arange(b, e + 1 if s > 0 else e - 1, s)
            first, step, count = axis_triple(b, e, s)
            assert count == len(ref)
            if count:
                assert (first, first + step * (count - 1)) == (ref[0], ref[-1])

    def test_cases_cover_both_outcomes_and_shapes(self):
        kinds = set()
        for ranges, dims, shape in CASES:
            grids, _ = materialise(ranges, dims)
            ok = not isinstance(outcome(lambda: execute_module._check_vector_bounds(
                "A", "s", grids, shape)), MemoryViolation)
            used = [p[0] for k, p in dims if k == "param"]
            kinds.add((ok, "const" if not used else "permuted" if used != sorted(used)
                       else "deficient" if len(used) < len(ranges) else "aligned"))
        assert len(kinds) == 8

    def test_gather_fetches_the_same_block(self):
        for n, (ranges, dims, shape) in enumerate(CASES):
            arr = np.random.default_rng(n).standard_normal(shape)
            grids, _ = materialise(ranges, dims)

            def reference():
                execute_module._check_vector_bounds("A", "A[s]", grids, shape)
                return arr[tuple(grids)]

            spec = BoundInput("x", "A", compiled(dims), None, "A[s]")
            triples = [axis_triple(*r) for r in ranges]

            def closed():
                value = execute_module._resolve_gather({"A": arr}, spec, triples, BINDINGS)()
                assert not np.shares_memory(value, arr)
                return value

            ref, got = outcome(reference), outcome(closed)
            assert_same(ref, got)
            if not isinstance(ref, Exception):
                assert type(got) is type(ref)  # an all-constant gather stays a scalar

    def test_write_hits_the_same_region(self):
        for ranges, dims, shape in CASES:
            _, flat = materialise(ranges, dims)

            def reference():
                execute_module._check_vector_bounds("A", "A[s]", flat, shape)
                mask = np.zeros(shape)
                mask[np.ix_(*flat)] = 1.0
                return mask

            arr = np.zeros(shape)
            spec = BoundOutput("y", "A", compiled(dims), None, "A[s]")
            triples = [axis_triple(*r) for r in ranges]

            def closed():
                geom = execute_module._resolve_write({"A": arr}, spec, triples, BINDINGS)
                arr[geom.mesh] = 1.0
                return arr

            assert_same(outcome(reference), outcome(closed))

    def test_wcr_write_accumulates_like_the_iteration_loop(self):
        for n, (ranges, dims, shape) in enumerate(CASES[:150]):
            _, flat = materialise(ranges, dims)
            if isinstance(outcome(lambda: execute_module._check_vector_bounds(
                    "A", "s", flat, shape)), MemoryViolation):
                continue
            counts = [len(range(b, e + 1 if s > 0 else e - 1, s)) for b, e, s in ranges]
            value = np.random.default_rng(n).integers(-4, 5, size=counts).astype(np.float64)
            ref = np.ones(shape)
            for point in itertools.product(*(range(c) for c in counts)):
                where = tuple(
                    int(f[point[p[0]]]) if k == "param" else int(f[0])
                    for (k, p), f in zip(dims, flat)
                )
                ref[where] += value[point]
            arr = np.ones(shape)
            spec = BoundOutput("y", "A", compiled(dims), "sum", "A[s]")
            geom = execute_module._resolve_write(
                {"A": arr}, spec, [axis_triple(*r) for r in ranges], BINDINGS
            )
            execute_module._make_write(geom, value)()
            assert ref.tobytes() == arr.tobytes()

    def test_dimensionality_mismatch_message(self):
        spec = BoundInput("x", "A", [("param", (0, 0))], None, "A[i]")
        with pytest.raises(MemoryViolation) as got:
            execute_module._resolve_gather({"A": np.zeros((3, 3))}, spec, [(0, 1, 3)], {})
        with pytest.raises(MemoryViolation) as ref:
            execute_module._check_vector_bounds("A", "A[i]", [np.arange(3)], (3, 3))
        assert str(got.value) == str(ref.value) and "dimensionality" in str(ref.value)


# ---------------------------------------------------------------------- #
# Gathers of every geometry, end to end
# ---------------------------------------------------------------------- #
def make_arguments(sdfg, symbols, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(desc.concrete_shape(symbols))
        for name, desc in sdfg.arrays.items()
        if not desc.transient
    }


def permuted_gather_program():
    """Reads ``A[j, i]`` under an ``i, j`` map."""
    sdfg = SDFG("permuted")
    sdfg.add_array("A", ["M", "N"], float64)
    sdfg.add_array("Out", ["N", "M"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "t", {"i": "0:N-1", "j": "0:M-1"},
        {"x": Memlet.simple("A", ("j", "i"))},
        "y = x + 1.0", {"y": Memlet.simple("Out", ("i", "j"))},
    )
    return sdfg


# name -> (map ranges, read index of A, shape of A, numpy reference of the
# gathered block for A at the symbols of ``GATHER_SYMBOLS``)
GATHER_CASES = {
    "aligned": (
        {"i": "0:N-1", "j": "0:M-1"}, ("i", "j"), ["N", "M"], lambda a: a,
    ),
    "three-dim-rotation": (
        {"i": "0:N-1", "j": "0:M-1", "k": "0:K-1"}, ("k", "i", "j"), ["K", "N", "M"],
        lambda a: a.transpose(1, 2, 0),
    ),
    "strided-and-offset": (
        {"i": "0:N-1", "j": "0:M-1"}, ("2*i + 1", "3*j + 2"), ["2*N + 1", "3*M + 2"],
        lambda a: a[1::2, 2::3][:6, :9],
    ),
    "constant-dimension": (
        {"i": "0:N-1", "j": "0:M-1"}, ("3", "j"), ["N", "M"],
        lambda a: np.broadcast_to(a[3], (6, 9)),
    ),
    "diagonal": (
        {"i": "0:N-1", "j": "0:M-1"}, ("i", "i"), ["N", "N"],
        lambda a: np.broadcast_to(np.diag(a)[:, None], (6, 9)),
    ),
}
GATHER_SYMBOLS = {"N": 6, "M": 9, "K": 4}


def gather_program(name):
    ranges, index, shape, _ = GATHER_CASES[name]
    extent = {"i": "N", "j": "M", "k": "K"}
    sdfg = SDFG(name.replace("-", "_"))
    sdfg.add_array("A", shape, float64)
    sdfg.add_array("Out", [extent[p] for p in ranges], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "t", ranges, {"x": Memlet.simple("A", index)},
        "y = x + 1.0", {"y": Memlet.simple("Out", tuple(ranges))},
    )
    return sdfg


class TestGatherGeometry:
    """Gathers of every geometry -- aligned, permuted, strided, constant,
    diagonal -- run vectorized and match the interpreter bit for bit."""

    @pytest.mark.parametrize("name", sorted(GATHER_CASES))
    def test_gather_end_to_end(self, name):
        sdfg = gather_program(name)
        args = make_arguments(sdfg, GATHER_SYMBOLS)
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), GATHER_SYMBOLS)
        program = CompiledExecutor(sdfg)
        res = program.run(dict(args), GATHER_SYMBOLS)
        assert ref.outputs["Out"].tobytes() == res.outputs["Out"].tobytes()
        expected = GATHER_CASES[name][3](args["A"]) + 1.0
        np.testing.assert_array_equal(res.outputs["Out"], expected)
        assert program.stats["vectorized"] == 1 and program.stats["fallback"] == 0

    def test_permuted_program_end_to_end(self):
        sdfg = permuted_gather_program()
        symbols = {"N": 6, "M": 9}
        args = make_arguments(sdfg, symbols)
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        program = CompiledExecutor(sdfg)
        res = program.run(dict(args), symbols)
        assert ref.outputs["Out"].tobytes() == res.outputs["Out"].tobytes()
        assert program.stats["vectorized"] == 1 and program.stats["fallback"] == 0


# ---------------------------------------------------------------------- #
# Classification (analysis) and whole programs
# ---------------------------------------------------------------------- #
def classified_program():
    sdfg = SDFG("classified")
    for name in "ABCDE":
        sdfg.add_array(name, [20, 20], float64)
    sdfg.add_array("Out", ["N", "N"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "t", {"i": "0:N-1", "j": "0:N-1"},
        {
            "a": Memlet.simple("A", ("j", "i + 1")),
            "b": Memlet.simple("B", ("i", "i")),
            "c": Memlet.simple("C", ("2*i", "j")),
            "d": Memlet.simple("D", ("N", "j")),
            "e": Memlet.simple("E", ("i + j", "0")),
        },
        "y = a + b + c + d + e", {"y": Memlet.simple("Out", ("i", "j"))},
    )
    return sdfg


def scopes_of(sdfg):
    return [
        scope
        for state in sdfg.states()
        for scope in analyze_state(sdfg, state).scopes.values()
        if scope
    ]


class TestClassification:
    def test_input_dims(self):
        (scope,) = scopes_of(classified_program())
        dims = {spec.data: spec.dims for spec in scope.inputs}
        assert dims["A"] == [("param", (1, 0)), ("param", (0, 1))]
        # A parameter's second use stays on the general path.
        assert dims["B"] == [("param", (0, 0)), ("expr", compile_expression("i"))]
        assert dims["C"][0][0] == "expr" and dims["C"][1] == ("param", (1, 0))
        assert dims["D"] == [("const", compile_expression("N")), ("param", (1, 0))]
        assert dims["E"][0][0] == "expr" and dims["E"][1] == ("const", compile_expression("0"))
        # Only an input with an ``expr`` dimension evaluates index arrays.
        idx_code = {spec.data: spec.idx_code for spec in scope.inputs}
        assert idx_code["A"] is None and idx_code["D"] is None
        assert idx_code["B"] == [compile_expression("i"), compile_expression("i")]
        assert scope.needs_grids

    def test_grids_only_when_something_reads_them(self):
        def program(code, index):
            sdfg = SDFG("g")
            sdfg.add_array("A", ["N"], float64)
            sdfg.add_array("Out", ["N"], float64)
            sdfg.add_state("s", is_start_state=True).add_mapped_tasklet(
                "t", {"i": "0:N-1"}, {"x": Memlet.simple("A", index)},
                code, {"y": Memlet.simple("Out", "i")},
            )
            return sdfg

        assert not scopes_of(program("y = 2.0 * x", "i"))[0].needs_grids
        assert scopes_of(program("y = x + i", "i"))[0].needs_grids
        assert scopes_of(program("y = 2.0 * x", "N - 1 - i"))[0].needs_grids

    def test_mixed_program_matches_the_interpreter(self):
        sdfg = classified_program()
        rng = np.random.default_rng(0)
        args = {n: rng.standard_normal(d.concrete_shape({"N": 6}))
                for n, d in sdfg.arrays.items()}
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), {"N": 6})
        program = get_backend("compiled").prepare(sdfg)
        got = program.run(dict(args), {"N": 6})
        assert ref.outputs["Out"].tobytes() == got.outputs["Out"].tobytes()
        assert program.stats["fallback"] == 0
        # B[i, i] at N = 21 leaves the container: same error as the oracle.
        big = {n: np.zeros(d.concrete_shape({"N": 21})) for n, d in sdfg.arrays.items()}
        with pytest.raises(MemoryViolation) as want:
            get_backend("interpreter").prepare(sdfg).run(dict(big), {"N": 21})
        with pytest.raises(MemoryViolation) as have:
            program.run(dict(big), {"N": 21})
        assert type(have.value) is type(want.value)


# ---------------------------------------------------------------------- #
# Chain-internal outputs: checked (never written)
# ---------------------------------------------------------------------- #
def chain_program(domain):
    """``A -> B[i + 1] -> Out`` over ``domain``; ``B`` is internal to the
    fused chain."""
    sdfg = SDFG("chain")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_transient("B", ["N"], float64)
    sdfg.add_array("Out", ["N"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    _, _, mexit = state.add_mapped_tasklet(
        "p", {"i": domain}, {"x": Memlet.simple("A", "i")},
        "y = x + 1.0", {"y": Memlet.simple("B", "i + 1")},
    )
    state.add_mapped_tasklet(
        "c", {"i": domain}, {"x": Memlet.simple("B", "i + 1")},
        "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
        input_nodes={"B": next(e.dst for e in state.out_edges(mexit))},
    )
    return sdfg


class TestChainInternalOutputs:
    def test_fused_chain_checks_its_internal_output(self, monkeypatch):
        sdfg, symbols = chain_program("0:N-2"), {"N": 8}
        args = {"A": np.random.default_rng(0).standard_normal(8), "Out": np.zeros(8)}
        want = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        program = CompiledExecutor(sdfg)
        checked = []
        real = execute_module._check_write
        monkeypatch.setattr(
            execute_module, "_check_write",
            lambda arrays, spec, *a: checked.append(spec.data) or real(arrays, spec, *a),
        )
        got = program.run(dict(args), symbols)
        assert checked == ["B", "Out"]
        assert program.stats["fused"] == 1
        assert want.outputs["Out"].tobytes() == got.outputs["Out"].tobytes()

    def test_out_of_bounds_internal_output(self):
        sdfg = chain_program("0:N-1")  # B[N] is one past the end
        args = {"A": np.ones(8), "Out": np.zeros(8)}
        with pytest.raises(MemoryViolation) as want:
            get_backend("interpreter").prepare(sdfg).run(dict(args), {"N": 8})
        with pytest.raises(MemoryViolation) as have:
            get_backend("compiled").prepare(sdfg).run(dict(args), {"N": 8})
        assert type(have.value) is type(want.value) and "'B'" in str(have.value)


# ---------------------------------------------------------------------- #
# A transformed stencil runs without one index array
# ---------------------------------------------------------------------- #
class TestNoIndexArraysOnAffineScopes:
    @pytest.mark.parametrize(
        "name, options", [("MapTiling", {"tile_size": 2}), ("MapExpansion", {})]
    )
    def test_transformed_heat_3d_cutout(self, name, options, monkeypatch):
        spec = get_workload("npbench", "heat_3d")
        sdfg = spec.build()
        xform = all_builtin_transformations()[name](**options)
        match = xform.find_matches(sdfg)[0]
        cutout = extract_cutout(sdfg, transformation=xform, match=match,
                                symbol_values=spec.symbols)
        transformed = cutout.sdfg.clone(new_name="transformed")
        xform.apply(transformed, transfer_match(xform, match, transformed))
        cutout.expose(transformed)
        program = get_backend("compiled").prepare(transformed)
        symbols = dict(spec.symbols)
        args = {n: np.random.default_rng(1).standard_normal(d.concrete_shape(symbols))
                for n, d in transformed.arrays.items() if not d.transient}
        ref = get_backend("interpreter").prepare(transformed).run(dict(args), symbols)

        calls = []
        real_arange = np.arange
        monkeypatch.setattr(np, "arange", lambda *a, **k: calls.append("arange") or real_arange(*a, **k))
        monkeypatch.setattr(
            execute_module, "_check_vector_bounds", lambda *a: calls.append("check")
        )
        got = program.run(dict(args), symbols)
        monkeypatch.undo()

        assert calls == []
        # One flat scope since the nest is normalised, not one per outer point.
        assert program.stats == {"vectorized": 1, "fallback": 0, "fused": 0}
        for name_, value in ref.outputs.items():
            assert value.tobytes() == got.outputs[name_].tobytes()
