"""The tier-parity matrix: every optimising path against the interpreter.

``{compiled, cross:compiled,interpreter}`` x ``{in order, reversed}``,
four trials through one prepared program each, on every npbench kernel,
two bert cutouts (a tiled map, which normalises to one flat scope, and its
off-by-one twin, which is refused: the outer scope is expanded by the
interpreter, the inner one runs vectorized, once per tile) and one cloudsc
cutout (an expanded map, flattened).  Per trial the outputs, the final
symbols and the transition count must equal the oracle's bit for bit --
whether or not a single scope vectorized, fused or fell back.
"""

import functools

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.cutout import extract_cutout, transfer_match
from repro.interpreter.errors import ExecutionError
from repro.transforms import all_builtin_transformations
from repro.workloads import get_workload, get_workload_suite

TRIALS = 4
#: The optimiser alone, and the optimiser checked against the oracle by the
#: ``cross`` pair (which hands back the optimiser's outcomes when they agree).
TIERS = ["compiled", "cross:compiled,interpreter"]


def transformed_cutout(suite, name, transformation, **options):
    """The exposed cutout of the transformation's first match, transformed."""
    spec = get_workload(suite, name)
    sdfg = spec.build()
    xform = all_builtin_transformations()[transformation](**options)
    match = xform.find_matches(sdfg)[0]
    cutout = extract_cutout(
        sdfg, transformation=xform, match=match, symbol_values=spec.symbols
    )
    transformed = cutout.sdfg.clone(new_name=f"{name}_{transformation}")
    xform.apply(transformed, transfer_match(xform, match, transformed))
    cutout.expose(transformed)
    return transformed, dict(spec.symbols)


def npbench_kernel(name):
    spec = get_workload("npbench", name)
    return spec.build(), dict(spec.symbols)


PROGRAMS = {
    **{
        spec.name: functools.partial(npbench_kernel, spec.name)
        for spec in get_workload_suite("npbench")
    },
    "bert:tiled_cutout": functools.partial(
        transformed_cutout, "bert", "encoder_layer", "MapTiling", tile_size=2
    ),
    "bert:off_by_one_tiled_cutout": functools.partial(
        transformed_cutout, "bert", "encoder_layer", "MapTiling", tile_size=2,
        inject_bug=True, bug_kind="off_by_one",
    ),
    "cloudsc:expanded_cutout": functools.partial(
        transformed_cutout, "cloudsc", "cloudsc", "MapExpansion"
    ),
}


@functools.lru_cache(maxsize=None)
def case(name):
    """One build, one set of trial inputs and one oracle program per
    program, shared by every test that runs it."""
    sdfg, symbols = PROGRAMS[name]()
    trials = [
        {
            container: np.random.default_rng(seed).standard_normal(
                desc.concrete_shape(symbols)
            )
            for container, desc in sdfg.arrays.items()
            if not desc.transient
        }
        for seed in range(TRIALS)
    ]
    interpreter = get_backend("interpreter").prepare(sdfg)
    return sdfg, symbols, trials, interpreter


def oracle(name):
    sdfg, symbols, trials, interpreter = case(name)
    outcomes = []
    for arguments in trials:
        try:
            outcomes.append(interpreter.run(dict(arguments), symbols))
        except ExecutionError as exc:
            outcomes.append(exc)
    return outcomes


def assert_same_outcome(want, got):
    if isinstance(want, ExecutionError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, ExecutionError), got
    assert set(got.outputs) == set(want.outputs)
    for container, value in want.outputs.items():
        other = got.outputs[container]
        assert other.dtype == value.dtype and other.shape == value.shape, container
        assert np.ascontiguousarray(other).tobytes() == (
            np.ascontiguousarray(value).tobytes()
        ), f"container '{container}' differs bitwise"
    assert got.symbols == want.symbols
    assert got.transitions == want.transitions


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", PROGRAMS)
class TestTierParity:
    def check(self, name, tier, order):
        sdfg, symbols, trials, _ = case(name)
        program = get_backend(tier).prepare(sdfg)
        want = oracle(name)
        assert len(want) == TRIALS
        for index in order:
            try:
                got = program.run(dict(trials[index]), symbols)
            except ExecutionError as exc:
                got = exc
            assert_same_outcome(want[index], got)

    def test_run(self, name, tier):
        self.check(name, tier, range(TRIALS))

    def test_run_in_reverse_order(self, name, tier):
        """A prepared program keeps no state from one trial to the next:
        the same trials in the opposite order give the same outcomes."""
        self.check(name, tier, reversed(range(TRIALS)))


class TestTheMatrixExercisesEveryPath:
    """Parity of paths nobody took proves nothing."""

    def test_scopes_vectorize_fuse_and_fall_back(self):
        stats = {"vectorized": 0, "fused": 0, "fallback": 0}
        for name in PROGRAMS:
            sdfg, symbols, trials, _ = case(name)
            program = get_backend("compiled").prepare(sdfg)
            before = dict(program.stats)
            program.run(dict(trials[0]), symbols)
            for key in stats:
                stats[key] += program.stats[key] - before[key]
        assert all(stats.values()), stats
