"""Seeded property suite for the iteration-domain normaliser.

``repro.backends.normalize`` rewrites nests of maps and strided maps over
blocks into a flat domain with point accesses before lowering.  Random
scopes below -- depth 1 to 3, rectangular / tiled / vector-block axes built
with the repo's own ``tile_map`` and ``MapExpansion``, offsets, plain and
WCR outputs, a transcendental tasklet, extents that do not divide by the
tile or vector width, empty ranges -- run on the interpreter and the
compiled backend: outputs bit for bit, the same error class for the
unclamped variants, and
the two shapes the normaliser must *refuse* refused by name.
"""

import random

import numpy as np
import pytest

from repro.backends.compiled import CompiledExecutor
from repro.interpreter.errors import ExecutionError
from repro.interpreter.executor import SDFGExecutor
from repro.sdfg import SDFG, Memlet, float64
from repro.sdfg.nodes import MapEntry
from repro.symbolic.expressions import Min, Symbol
from repro.symbolic.ranges import Range, Subset
from repro.transforms import MapExpansion
from repro.transforms.map_transforms import tile_map

BATCH = 3
SEEDS = range(120)
CODES = ["o = a + b", "o = a * 2.0 - b", "o = np.exp(a * 0.1) * b", "o = math.sin(a) + b"]


def widen(state, entry, tasklet, axis, width, clamp):
    """What Vectorization does, on any axis: stride it by ``width`` and turn
    its point accesses into (clamped or unclamped) width-``width`` blocks."""
    p = Symbol(entry.map.params[axis])
    rng = entry.map.ranges[axis]
    entry.map.ranges[axis] = Range(rng.begin, rng.end, width)
    for edge in state.in_edges(tasklet) + state.out_edges(tasklet):
        memlet = edge.data
        if memlet is None or memlet.is_empty:
            continue
        end = Min.make(p + (width - 1), rng.end) if clamp else p + (width - 1)
        memlet.subset = Subset(
            [
                Range(p, end, 1) if r.is_point() and r.begin == p else r
                for r in memlet.subset.ranges
            ]
        )


def build_case(seed):
    """``(sdfg, refusal)``: a random scope and the reason slug the analyzer
    must refuse it with (``None``: it must normalise and vectorize)."""
    rnd = random.Random(seed)
    depth = rnd.randint(1, 3)
    axes = list(range(depth))
    params = ["i", "j", "k"][:depth]
    lows = [rnd.randint(0, 1) for _ in axes]
    vec = rnd.choice([None, None] + axes)
    wcr = rnd.choice([None, None, "sum", "max"])

    def index(x):
        c = 0 if x == vec else rnd.randint(-lows[x], 2 - lows[x])
        return f"{params[x]} + {c}" if c else params[x]

    # With a vector axis the block must sit equally far from the last
    # dimension in every access that combines with another: keep axis order.
    a_dims = list(axes)
    b_dims = [x for x in axes if rnd.random() < 0.5]
    if vec is None:
        rnd.shuffle(a_dims)
    elif vec in b_dims:
        b_dims = list(axes)
    if wcr is None:
        o_dims = list(axes)
        if vec is None:
            rnd.shuffle(o_dims)
    else:
        o_dims = [x for x in axes if rnd.random() < 0.5 or (vec is not None and x >= vec)]

    sdfg = SDFG(f"normalize_{seed}")
    for x in axes:
        sdfg.add_symbol(f"N{x}")

    def add(name, dims):
        sdfg.add_array(name, [f"N{x} + 2" for x in dims] or [1], float64)
        return Memlet(name, ", ".join(index(x) for x in dims) or "0")

    code = rnd.choice(CODES[:3] if vec is not None else CODES)
    state = sdfg.add_state("s", is_start_state=True)
    tasklet, entry, _ = state.add_mapped_tasklet(
        "body",
        {params[x]: f"{lows[x]}:N{x} - 1 + {lows[x]}" for x in axes},
        {"a": add("A", a_dims), "b": add("B", b_dims)},
        code,
        {"o": add("Out", o_dims)},
    )
    state.out_edges(tasklet)[0].data.wcr = wcr

    refusal = None
    if vec is not None:
        widen(state, entry, tasklet, vec, rnd.choice([2, 3, 4]), clamp=rnd.random() < 0.7)
    tiled = [x for x in axes if x != vec and rnd.random() < 0.5]
    outer = None
    if tiled:
        kind = rnd.choice(["clamp", "clamp", "no_clamp", "truncate", "off_by_one"])
        outer, _ = tile_map(
            state, entry, rnd.choice([2, 3, 4]),
            clamp=kind != "no_clamp", off_by_one=kind == "off_by_one",
            truncate=kind == "truncate", dims=tiled,
        )
        if kind == "off_by_one":
            refusal = "dependent-inner-range"
        elif wcr is not None and depth - len(o_dims) > 1:
            refusal = "tile-reorders-reduction"
    for scope in (outer, entry):
        if scope is not None and len(scope.map.params) > 1 and rnd.random() < 0.5:
            matches = [m for m in MapExpansion().find_matches(sdfg) if m.nodes["map_entry"] is scope]
            MapExpansion().apply(sdfg, matches[0])
    return sdfg, refusal


def trials(sdfg, rnd):
    """Symbol values (small extents: empty, and rarely a multiple of a tile
    or vector width) and ``BATCH`` argument sets."""
    symbols = {name: rnd.choice([0, 1, 2, 3, 5, 6, 7, 9]) for name in sorted(sdfg.free_symbols)}
    gen = np.random.default_rng(rnd.randrange(1 << 30))
    arguments = [
        {
            name: gen.standard_normal(desc.concrete_shape(symbols))
            for name, desc in sdfg.arrays.items()
        }
        for _ in range(BATCH)
    ]
    return symbols, arguments


def outcome(run):
    try:
        return run()
    except ExecutionError as exc:
        return exc


def assert_same(want, got, where):
    if isinstance(want, ExecutionError) or isinstance(got, ExecutionError):
        assert type(got) is type(want), f"{where}: {want!r} vs {got!r}"
        return
    for name, value in want.outputs.items():
        assert value.tobytes() == got.outputs[name].tobytes(), f"{where}: '{name}' differs"


@pytest.mark.parametrize("seed", SEEDS)
def test_interpreter_and_compiled_agree(seed):
    sdfg, refusal = build_case(seed)
    oracle = SDFGExecutor(sdfg)
    program = CompiledExecutor(sdfg)
    reasons = [r for t in program.tables for r in t.fallback_reasons.values()]
    if refusal is not None:
        assert refusal in reasons
    else:
        assert reasons == []
    rnd = random.Random(seed + 1000)
    for round_ in range(4):
        symbols, arguments = trials(sdfg, rnd)
        for k, args in enumerate(arguments):
            where = f"seed {seed} round {round_} trial {k} symbols {symbols}"
            ref = outcome(lambda: oracle.run(dict(args), symbols))
            got = outcome(lambda: program.run(dict(args), symbols))
            assert_same(ref, got, where)
    if refusal is None:
        assert program.stats["fallback"] == 0
    else:
        assert program.stats["fallback"] > 0


def test_the_seeds_cover_every_shape():
    """The generator's corners all occur among the seeds: each refusal, vector
    blocks, flattened nests, WCR outputs and a crashing unclamped variant."""
    seen = set()
    for seed in SEEDS:
        sdfg, refusal = build_case(seed)
        seen.add(refusal)
        state = sdfg.start_state
        entries = [n for n in state.nodes() if isinstance(n, MapEntry)]
        if len(entries) > 1:
            seen.add("nest")
        if any(str(r.step) != "1" and not n.map.label.endswith("_tiles")
               for n in entries for r in n.map.ranges):
            seen.add("vector")
        if any(e.data is not None and e.data.wcr for e in state.edges()):
            seen.add("wcr")
        if any("math." in n.code or "np.exp" in n.code for n in state.nodes() if hasattr(n, "code")):
            seen.add("transcendental")
    assert {None, "dependent-inner-range", "tile-reorders-reduction",
            "nest", "vector", "wcr", "transcendental"} <= seen


# ---------------------------------------------------------------------- #
# Named shapes
# ---------------------------------------------------------------------- #
def vector_scope(clamp, block_input=None, point_input=None, code="o = a * 2.0"):
    """``Out[i, j] = f(A[i, j])`` with ``j`` widened to blocks of 4;
    ``block_input`` / ``point_input`` add a second input ``b`` from ``B``
    whose ``j`` is widened too / stays a point."""
    sdfg = SDFG("vector_scope")
    sdfg.add_symbol("N")
    for name in ("A", "B", "Out"):
        sdfg.add_array(name, ["N", "N"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    inputs = {"a": Memlet("A", "i, j")}
    if block_input or point_input:
        inputs["b"] = Memlet("B", block_input or point_input)
    tasklet, entry, _ = state.add_mapped_tasklet(
        "body", {"i": "0:N-1", "j": "0:N-1"}, inputs, code, {"o": Memlet("Out", "i, j")}
    )
    widen(state, entry, tasklet, 1, 4, clamp)
    if point_input:
        (edge,) = [e for e in state.in_edges(tasklet) if e.dst_conn == "b"]
        edge.data.subset = Subset.from_string(point_input)
    return sdfg


def table_of(sdfg):
    program = CompiledExecutor(sdfg)
    (table,) = program.tables
    return program, table


class TestVectorBlocks:
    def test_clamped_blocks_densify(self):
        program, table = table_of(vector_scope(clamp=True))
        (scope,) = table.scopes.values()
        axis = scope.domain[1]
        assert (axis.param, axis.width, axis.per_block) == ("j", 4, True)
        # Level 0, dim 1: the axis iterates the outer map's second range.
        assert axis.range is scope.levels[0].map.ranges[1]
        assert eval(axis.clamp, {"N": 6}) == 5  # the clamp is ``N - 1``
        args = {n: np.random.default_rng(0).standard_normal((6, 6)) for n in ("A", "B", "Out")}
        got = program.run(dict(args), {"N": 6})
        assert got.outputs["Out"].tobytes() == (args["A"] * 2.0).tobytes()

    def test_unclamped_blocks_keep_the_out_of_bounds_last_tile(self):
        sdfg = vector_scope(clamp=False)
        program, table = table_of(sdfg)
        assert not table.fallback_reasons
        args = {n: np.zeros((6, 6)) for n in ("A", "B", "Out")}
        for run in (SDFGExecutor(sdfg).run, program.run):
            with pytest.raises(ExecutionError) as caught:
                run(dict(args), {"N": 6})
            assert type(caught.value).__name__ == "MemoryViolation"
        args = {n: np.ones((8, 8)) for n in ("A", "B", "Out")}
        assert program.run(dict(args), {"N": 8}).outputs["Out"].sum() == 128.0
        assert program.stats["fallback"] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"point_input": "i, j"},  # a point use next to the blocks
            {"block_input": "j, i"},  # the block at another distance from the end
            {"code": "o = a * j"},  # the tasklet reads the strided parameter
            {"code": "o = math.sin(a)"},  # scalar-only where the tasklet sees a block
        ],
    )
    def test_non_block_uses_are_refused(self, kwargs):
        _, table = table_of(vector_scope(clamp=True, **kwargs))
        assert list(table.fallback_reasons.values()) == ["non-block-use-of-strided-axis"]

    def test_a_second_block_input_densifies(self):
        _, table = table_of(vector_scope(clamp=True, block_input="i, j", code="o = a + b"))
        assert not table.fallback_reasons


class TestRefusedTiles:
    def tiled(self, wcr_subset=None, **tile_options):
        sdfg = SDFG("tiled")
        sdfg.add_symbol("N")
        sdfg.add_array("A", ["N", "N"], float64)
        sdfg.add_array("Out", ["N", "N"] if wcr_subset is None else [1], float64)
        state = sdfg.add_state("s", is_start_state=True)
        out = Memlet("Out", "i, j") if wcr_subset is None else Memlet("Out", wcr_subset, wcr="sum")
        _, entry, _ = state.add_mapped_tasklet(
            "body", {"i": "0:N-1", "j": "0:N-1"}, {"a": Memlet("A", "i, j")}, "o = a + 1.0", {"o": out}
        )
        tile_map(state, entry, 4, **tile_options)
        return sdfg

    def test_off_by_one_tile_is_a_dependent_inner_range(self):
        program, table = table_of(self.tiled(off_by_one=True))
        assert "dependent-inner-range" in table.fallback_reasons.values()
        args = {"A": np.ones((6, 6)), "Out": np.zeros((6, 6))}
        program.run(args, {"N": 6})
        # The outer tile loop falls back to the interpreter, which hands each
        # of its four inner maps back to the compiled scope runner.
        assert program.stats == {"vectorized": 4, "fallback": 1, "fused": 0}

    def test_two_reduction_axes_under_a_tile_are_refused(self):
        _, table = table_of(self.tiled(wcr_subset="0"))
        assert "tile-reorders-reduction" in table.fallback_reasons.values()

    def test_clean_tile_flattens_to_the_original_domain(self):
        _, table = table_of(self.tiled())
        (scope,) = table.scopes.values()
        # ``i`` and ``j`` iterate the union of the blocks of the outer map's
        # two strided ranges (level 0, dims 0 and 1).
        assert [a.param for a in scope.domain] == ["i", "j"]
        outer = scope.levels[0].map
        assert all(a.range is r for a, r in zip(scope.domain, outer.ranges))
        assert all(a.width == 4 and not a.per_block for a in scope.domain)
        assert all(eval(a.clamp, {"N": 6}) == 5 for a in scope.domain)  # ``N - 1``
        assert len(scope.levels) == 2


# ---------------------------------------------------------------------- #
# Coverage ratchet: the paper's transformations stay out of the interpreter
# ---------------------------------------------------------------------- #
RATCHETED = ["MapExpansion", "Vectorization", "MapTiling", "BufferTiling"]
#: The instances whose transformed cutout may still interpret, by reason: a
#: tile over both axes of a two-axis reduction meets an output element in
#: another order than the flat domain.
STILL_INTERPRETED = {
    "sum_of_squares / MapTiling #2": "tile-reorders-reduction",
    "sum_of_squares / BufferTiling #0": "tile-reorders-reduction",
}


def transformed_cutout(task):
    """The exposed, transformed cutout of one sweep task and one sampled
    input, both as the verifier builds them."""
    from repro.core.constraints import derive_constraints
    from repro.core.cutout import extract_cutout, transfer_match
    from repro.core.sampling import InputSampler
    from repro.core.verifier import FuzzyFlowVerifier

    sdfg = task.build_sdfg()
    xform = task.transformation.instantiate()
    match = FuzzyFlowVerifier().enumerate_instances(sdfg, xform)[task.match_index]
    cutout = extract_cutout(sdfg, transformation=xform, match=match, symbol_values=task.symbols)
    transformed = cutout.sdfg.clone(new_name=f"{cutout.sdfg.name}_transformed")
    xform.apply(transformed, transfer_match(xform, match, transformed))
    cutout.expose(cutout.sdfg)
    cutout.expose(transformed)
    constraints = derive_constraints(
        cutout.sdfg, original_sdfg=sdfg, symbol_values=task.symbols, size_max=32
    )
    sample = InputSampler(
        cutout.sdfg, cutout.input_configuration, cutout.system_state,
        constraints=constraints, seed=0,
    ).sample()
    return transformed, sample.arguments, sample.symbols


def ratchet_tasks():
    from repro.pipeline.tasks import TransformationSpec, enumerate_sweep_tasks

    specs = [TransformationSpec(name, {"inject_bug": False}) for name in RATCHETED]
    return enumerate_sweep_tasks("npbench", transformations=specs)


class TestCoverageRatchet:
    @pytest.mark.parametrize("task", ratchet_tasks(), ids=lambda t: t.describe())
    def test_clean_transformed_cutouts_never_interpret(self, task):
        """A later transformation or analyzer edit that brings the
        interpreter back under T(c) fails here, not in a profile."""
        transformed, arguments, symbols = transformed_cutout(task)
        program = CompiledExecutor(transformed)
        program.run(arguments, symbols)
        reasons = {
            r for t in program.tables for r in t.fallback_reasons.values()
        }
        allowed = STILL_INTERPRETED.get(task.describe())
        if allowed is None:
            assert program.stats["fallback"] == 0, reasons
        else:
            assert reasons == {allowed} and program.stats["fallback"] > 0

    def test_off_by_one_tiling_still_interprets(self):
        from repro.pipeline.tasks import TransformationSpec, enumerate_sweep_tasks

        spec = TransformationSpec("MapTiling", {"inject_bug": True, "bug_kind": "off_by_one"})
        (task,) = enumerate_sweep_tasks(
            "npbench", workloads=["jacobi_1d"], transformations=[spec]
        )
        transformed, arguments, symbols = transformed_cutout(task)
        program = CompiledExecutor(transformed)
        program.run(arguments, symbols)
        assert program.stats["fallback"] > 0
