"""The reach ledger's allowlist (``tools/reach_allow.txt``) stays honest.

Every exact entry names a function that exists under ``src/``, every
wildcard entry a module (and class) that exists, every entry gives a
reason, and every test a reason names exists.  No profiling: this reads
the allowlist, the source and the test files only.
"""

import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "tools", "reach.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()


def _test_exists(test_id):
    path, *names = test_id.split("::")
    try:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            source = f.read()
    except OSError:
        return False
    return all(re.search(rf"^\s*(class|def) {re.escape(n)}\b", source, re.M) for n in names)


def problems(entries, functions):
    """What is wrong with each entry: no reason, nothing it covers, or a
    test in its reason that does not exist."""
    out = []
    for entry in entries:
        where = f"line {entry.lineno}: {entry.path}:{entry.pattern}"
        if not entry.reason:
            out.append(f"{where} gives no reason")
        if not any(entry.covers(fn) for fn in functions):
            out.append(f"{where} names no function under src/")
        for test_id in re.findall(r"tests/\S+\.py(?:::\w+)+", entry.reason):
            if not _test_exists(test_id):
                out.append(f"{where} cites a missing test {test_id}")
    return out


@pytest.fixture(scope="module")
def functions():
    return list(reach.source_functions().values())


def test_every_entry_names_an_existing_function_and_a_reason(functions):
    assert problems(reach.load_allowlist(), functions) == []


@pytest.mark.parametrize(
    "line",
    [
        "repro/sdfg/state.py:SDFGState.no_such_method  error path: a missing method",
        "repro/sdfg/no_such_module.py:*  interface stub",
        "repro/sdfg/state.py:NoSuchClass.*  interface stub",
        "repro/sdfg/state.py:SDFGState.__repr__",
        "repro/sdfg/state.py:SDFGState.__repr__  error path: "
        "tests/test_sdfg_basic.py::TestGraph::test_no_such_test",
    ],
    ids=["missing-function", "missing-module", "missing-class", "no-reason", "missing-test"],
)
def test_a_bogus_entry_is_caught(functions, line):
    assert problems(reach.parse_allowlist(line), functions)


def test_a_malformed_line_is_rejected():
    with pytest.raises(ValueError):
        reach.parse_allowlist("repro/sdfg/state.py SDFGState.__repr__ no colon")
