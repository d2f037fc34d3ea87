"""The per-state scope index (repro.sdfg.state.SDFGState).

Every scope query of a state reads one index, built in one pass and rebuilt
on the first query after the graph's ``version`` moves.  The reference
implementations below are the quadratic per-call queries the index
replaced; every test compares the index against them.
"""

import copy
import pickle

import pytest

from repro.backends import sdfg_content_hash
from repro.core.cutout import extract_cutout, transfer_match
from repro.core.verifier import FuzzyFlowVerifier
from repro.pipeline import enumerate_sweep_tasks
from repro.sdfg import SDFG, Memlet, float64
from repro.sdfg.graph import GraphError
from repro.sdfg.nodes import MapEntry, MapExit, Tasklet
from repro.workloads import get_workload_suite, list_workload_suites


# ---------------------------------------------------------------------- #
# Reference: every query recomputed from the graph
# ---------------------------------------------------------------------- #
def ref_exit_node(state, entry):
    for n in state.graph.nodes():
        if isinstance(n, MapExit) and n.map is entry.map:
            return n
    raise GraphError(f"No matching MapExit for {entry!r}")


def ref_entry_node_for_exit(state, exit_):
    for n in state.graph.nodes():
        if isinstance(n, MapEntry) and n.map is exit_.map:
            return n
    raise GraphError(f"No matching MapEntry for {exit_!r}")


def ref_scope_dict(state):
    result = {}
    try:
        order = state.graph.topological_sort()
    except GraphError:
        order = state.graph.nodes()
    exit_to_entry = {}
    for n in state.graph.nodes():
        if isinstance(n, MapExit):
            exit_to_entry[n] = ref_entry_node_for_exit(state, n)
    for node in order:
        preds = state.graph.in_edges(node)
        if not preds:
            result[node] = None
            continue
        src = preds[0].src
        if isinstance(src, MapEntry):
            result[node] = src
        elif isinstance(src, MapExit):
            result[node] = result.get(exit_to_entry[src])
        else:
            result[node] = result.get(src)
    return result


def ref_scope_children(state):
    sdict = ref_scope_dict(state)
    children = {}
    for node in state.graph.topological_sort():
        if not isinstance(node, MapExit):
            children.setdefault(sdict[node], []).append(node)
    return {scope: tuple(nodes) for scope, nodes in children.items()}


def ref_scope_subgraph_nodes(state, entry, include_boundary=True):
    exit_ = ref_exit_node(state, entry)
    sdict = ref_scope_dict(state)
    inner = []
    for node in state.graph.nodes():
        if node is entry or node is exit_:
            continue
        scope = sdict.get(node)
        while scope is not None:
            if scope is entry:
                inner.append(node)
                break
            scope = sdict.get(scope)
    if include_boundary:
        return [entry] + inner + [exit_]
    return inner


def assert_index_matches_reference(state):
    assert tuple(state.topological_sort()) == tuple(state.graph.topological_sort())
    assert dict(state.scope_dict()) == ref_scope_dict(state)
    assert dict(state.scope_children()) == ref_scope_children(state)
    for node in state.nodes():
        if isinstance(node, MapEntry):
            assert state.exit_node(node) is ref_exit_node(state, node)
            for boundary in (True, False):
                assert state.scope_subgraph_nodes(node, boundary) == (
                    ref_scope_subgraph_nodes(state, node, boundary)
                )
        elif isinstance(node, MapExit):
            assert state.entry_node_for_exit(node) is ref_entry_node_for_exit(state, node)


def mapped_state():
    """Two top-level maps, the second one nested two deep."""
    sdfg = SDFG("scopes")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array("B", ["N"], float64)
    sdfg.add_array("C", ["N", "N"], float64)
    state = sdfg.add_state("s")
    state.add_mapped_tasklet(
        "copy", {"i": "0:N-1"}, {"a": Memlet.simple("A", "i")}, "b = a",
        {"b": Memlet.simple("B", "i")},
    )
    outer_entry, outer_exit = state.add_map("outer", {"i": "0:N-1"})
    inner_entry, inner_exit = state.add_map("inner", {"j": "0:N-1"})
    tasklet = state.add_tasklet("fill", ["b"], ["c"], "c = b")
    b = state.add_access("B")
    c = state.add_access("C")
    state.add_edge(b, None, outer_entry, "IN_B", Memlet.simple("B", "0:N-1"))
    state.add_edge(outer_entry, "OUT_B", inner_entry, "IN_B", Memlet.simple("B", "0:N-1"))
    state.add_edge(inner_entry, "OUT_B", tasklet, "b", Memlet.simple("B", "j"))
    state.add_edge(tasklet, "c", inner_exit, "IN_C", Memlet.simple("C", "i, j"))
    state.add_edge(inner_exit, "OUT_C", outer_exit, "IN_C", Memlet.simple("C", "i, 0:N-1"))
    state.add_edge(outer_exit, "OUT_C", c, None, Memlet.simple("C", "0:N-1, 0:N-1"))
    return sdfg, state


# ---------------------------------------------------------------------- #
class TestIndexEqualsReference:
    @pytest.mark.parametrize("suite", list_workload_suites())
    def test_every_registered_workload(self, suite):
        checked = 0
        for spec in get_workload_suite(suite):
            for state in spec.build().states():
                assert_index_matches_reference(state)
                checked += 1
        assert checked

    def test_every_cutout_and_transformed_program_of_the_buggy_list(self):
        verifier = FuzzyFlowVerifier()
        tasks = enumerate_sweep_tasks(suite="npbench", buggy=True)
        transformed_checked = 0
        for task in tasks:
            sdfg = task.build_sdfg()
            xform = task.transformation.instantiate()
            match = verifier.enumerate_instances(sdfg, xform)[task.match_index]
            cutout = extract_cutout(sdfg, xform, match, symbol_values=task.symbols)
            for state in cutout.sdfg.states():
                assert_index_matches_reference(state)
            transformed = cutout.sdfg.clone()
            for state in transformed.states():
                state.scope_dict()  # build the index before applying
            xform.apply(transformed, transfer_match(xform, match, transformed))
            for state in transformed.states():
                assert_index_matches_reference(state)
            transformed_checked += 1
        assert transformed_checked == len(tasks) > 90


class TestIndexFollowsMutations:
    def test_each_graph_mutation_is_seen_by_the_next_query(self):
        _, state = mapped_state()
        assert_index_matches_reference(state)
        version = state.graph.version

        lone = state.add_tasklet("lone", [], ["x"], "x = 1")
        assert state.graph.version > version
        assert state.scope_dict()[lone] is None
        assert_index_matches_reference(state)

        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        # Direct graph edits (as cutout extraction's subgraph copy does).
        edge = state.graph.add_edge(entry, lone, Memlet.empty())
        assert state.scope_dict()[lone] is entry
        assert lone in state.scope_subgraph_nodes(entry)
        assert_index_matches_reference(state)

        state.graph.remove_edge(edge)
        assert state.scope_dict()[lone] is None
        assert_index_matches_reference(state)

        state.remove_node(lone)
        assert lone not in state.scope_dict()
        assert_index_matches_reference(state)

        tasklet = next(n for n in state.scope_subgraph_nodes(entry) if isinstance(n, Tasklet))
        state.remove_node(tasklet)
        assert tasklet not in state.scope_subgraph_nodes(entry)
        assert_index_matches_reference(state)

    def test_adding_a_known_node_changes_nothing(self):
        _, state = mapped_state()
        index = state._scope_index()
        state.add_node(state.nodes()[0])
        assert state._scope_index() is index

    def test_queries_raise_like_the_reference(self):
        _, state = mapped_state()
        exit_ = next(n for n in state.nodes() if isinstance(n, MapExit))
        entry = state.entry_node_for_exit(exit_)
        state.remove_node(entry)
        with pytest.raises(GraphError, match="No matching MapEntry"):
            state.scope_dict()
        with pytest.raises(GraphError, match="No matching MapEntry"):
            state.entry_node_for_exit(exit_)
        state.topological_sort()  # still well defined

        sdfg, state = mapped_state()
        a, b = state.add_access("A"), state.add_access("B")
        state.add_nedge(a, b)
        state.add_nedge(b, a)
        with pytest.raises(GraphError, match="cycle"):
            state.topological_sort()
        with pytest.raises(GraphError, match="cycle"):
            state.scope_children()
        assert dict(state.scope_dict()) == ref_scope_dict(state)

    def test_views_are_read_only(self):
        _, state = mapped_state()
        with pytest.raises(TypeError):
            state.scope_dict()[state.nodes()[0]] = None
        with pytest.raises(TypeError):
            state.scope_children()[None] = ()
        assert isinstance(state.topological_sort(), tuple)
        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        nodes = state.scope_subgraph_nodes(entry)
        nodes.clear()  # a fresh list per call: the index is untouched
        assert state.scope_subgraph_nodes(entry)


class TestCopiesDoNotShareTheIndex:
    def test_mutating_a_clone_leaves_the_original_alone(self):
        sdfg, state = mapped_state()
        state.scope_dict()
        index, version = state._index, state.graph.version
        before = sdfg_content_hash(sdfg)

        clone = sdfg.clone()
        (cloned,) = clone.states()
        assert cloned._index is None
        entry = next(n for n in cloned.nodes() if isinstance(n, MapEntry))
        for node in cloned.scope_subgraph_nodes(entry):
            cloned.remove_node(node)
        cloned.add_tasklet("extra", [], ["x"], "x = 1")
        assert_index_matches_reference(cloned)

        assert state._index is index and state.graph.version == version
        assert state._scope_index() is index
        assert sdfg_content_hash(sdfg) == before
        assert_index_matches_reference(state)

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_state_copies_start_without_an_index(self, copier):
        _, state = mapped_state()
        state.scope_dict()
        copied = copier(state)
        assert copied._index is None
        assert_index_matches_reference(copied)
