"""Tests for the lowering records of the compiled backend.

The analyzer's output is what the runtime executes: one
:class:`~repro.backends.codegen.numpy_eager.StateTable` per state, holding
the bound scopes (live nodes, compiled code objects, the flat domain each
scope was lowered over), the fusion chains and the fallback reasons -- and
the same program always lowers the same.
"""

import dataclasses

import pytest

from repro.backends.analysis import analyze_state
from repro.backends.codegen.numpy_eager import BoundAxis, BoundChain, BoundScope
from repro.backends.compiled import CompiledExecutor
from repro.sdfg.nodes import Node
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.workloads import get_workload, get_workload_suite

NPBENCH = [spec.name for spec in get_workload_suite("npbench")]


def project(value):
    """A lowering record as plain, comparable data: nodes become their
    guids, a cast callable its bound dtype; code objects stay as they are
    (they compare by content, and ``compile_expression`` caches by text,
    so equal text gives equal objects)."""
    if isinstance(value, Node):
        return ("node", value.guid)
    if isinstance(value, BoundAxis):
        return tuple(project(getattr(value, slot)) for slot in BoundAxis.__slots__)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            project(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return {key: project(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(project(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if callable(value):
        return ("callable", value.__defaults__)
    return value


def tables_of(sdfg):
    return CompiledExecutor(sdfg).tables


def lowering(sdfg):
    return project(tables_of(sdfg))


class TestLowering:
    @pytest.mark.parametrize("name", NPBENCH)
    def test_each_prepare_holds_its_own_analysis(self, name):
        """What a prepared program holds is a fresh analysis of each state,
        and its records are its own: two programs prepared from the same
        SDFG share no scope or chain, so a ``usable`` flag cleared in one
        run never reaches another program."""
        sdfg = get_workload("npbench", name).build()
        first, second = tables_of(sdfg), tables_of(sdfg)
        fresh = [analyze_state(sdfg, state) for state in sdfg.states()]
        assert project(first) == project(fresh) == project(second)

        def records(tables):
            for table in tables:
                yield from (s for s in table.scopes.values() if isinstance(s, BoundScope))
                yield from table.heads.values()

        assert not {id(r) for r in records(first)} & {id(r) for r in records(second)}

    @pytest.mark.parametrize("name", NPBENCH)
    def test_a_clone_lowers_the_same(self, name):
        """Clones keep node guids, so their records are equal, guid for guid."""
        sdfg = get_workload("npbench", name).build()
        assert lowering(sdfg.clone()) == lowering(sdfg)

    @pytest.mark.parametrize("name", NPBENCH)
    def test_a_json_roundtrip_lowers_the_same(self, name):
        """The lowering depends on the program's content only: a program read
        back from its own JSON lowers exactly like the original."""
        sdfg = get_workload("npbench", name).build()
        roundtrip = sdfg_from_json(sdfg_to_json(sdfg))
        assert lowering(roundtrip) == lowering(sdfg)

    def test_the_projection_sees_a_changed_scope(self):
        """The comparison above is not vacuous: an edited memlet lowers
        differently."""
        sdfg = get_workload("npbench", "gemm").build()
        edited = sdfg.clone()
        state = edited.states()[0]
        edge = next(e for e in state.edges() if e.data is not None and e.data.wcr == "sum")
        edge.data.wcr = "max"
        assert lowering(edited) != lowering(sdfg)

    def test_tables_carry_analysis_results(self):
        """One table per state, in ``sdfg.states()`` order: kernels with
        fusable chains carry their chains, scoped kernels their scopes."""
        sdfg = get_workload("npbench", "axpy_pipeline").build()
        tables = tables_of(sdfg)
        assert len(tables) == len(sdfg.states())
        chains = [c for t in tables for c in t.heads.values()]
        assert chains and all(isinstance(c, BoundChain) for c in chains)
        for table in tables:
            for chain in table.heads.values():
                guids = [m.scope.entry.guid for m in chain.members]
                assert table.heads[guids[0]] is chain
                assert set(guids[1:]) <= table.members
        sdfg = get_workload("npbench", "gemm").build()
        tables = tables_of(sdfg)
        assert any(t.scopes for t in tables)
        for state, table in zip(sdfg.states(), tables):
            assert set(table.scopes) <= {n.guid for n in state.nodes()}

    def test_plain_scopes_record_their_domain(self):
        """Every scope of an unnormalised kernel is lowered over its own
        map's domain: one level, no densified axis, each axis bound to its
        map's range."""
        for table in tables_of(get_workload("npbench", "gemm").build()):
            for scope in filter(None, table.scopes.values()):
                assert scope.levels == [scope.entry]
                assert scope.domain and all(a.width == 0 for a in scope.domain)
                for dim, axis in enumerate(scope.domain):
                    assert axis.range is scope.entry.map.ranges[dim]
