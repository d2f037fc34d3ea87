"""Tests for the persistent on-disk compiled-program cache (``--cache-dir``).

The disk tier shares compile artifacts (the generated driver: mode, source,
marshaled code object) across *processes*, keyed by SDFG content hash,
codegen version and Python build.  Artifact-loaded programs must behave
bitwise identically to freshly compiled ones, stale or corrupt entries must
degrade to a recompile (and be rewritten), and the option must thread from
the CLIs through the environment into pool workers.
"""

import glob
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.backends import get_backend
from repro.backends.compiled import (
    CODEGEN_VERSION,
    CompiledBackend,
    CompiledWholeProgram,
)
from repro.backends.cache import CACHE_DIR_ENV
from repro.sdfg import SDFG, InterstateEdge, Memlet, float64
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json


def build_loop_program():
    sdfg = SDFG("cached_loop")
    sdfg.add_array("A", ["N"], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("body")
    body.add_mapped_tasklet(
        "bump", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
        "y = x * 0.5 + 1.0", {"y": Memlet.simple("A", "i")},
    )
    sdfg.add_loop(init, body, None, "t", "0", "t < T", "t + 1")
    return sdfg


def build_interpreted_mode_program():
    """An interstate assignment shadowing a scalar container forces the
    ``interpreted`` safety-net mode."""
    sdfg = SDFG("shadowed")
    sdfg.add_array("X", [1], float64)
    sdfg.add_scalar("s", float64)
    a = sdfg.add_state("a", is_start_state=True)
    b = sdfg.add_state("b")
    sdfg.add_edge(a, b, InterstateEdge(assignments={"s": "3"}))
    return sdfg


def run_args(n=16, seed=0):
    return {"A": np.random.default_rng(seed).standard_normal(n)}


class TestDiskRoundtrip:
    def test_store_then_fresh_instance_hits(self, tmp_path):
        blob = sdfg_to_json(build_loop_program())
        writer = CompiledBackend(cache_dir=str(tmp_path))
        p1 = writer.prepare(sdfg_from_json(blob))
        assert (writer.disk_hits, writer.disk_misses) == (0, 1)
        files = glob.glob(str(tmp_path / "*.json"))
        assert len(files) == 1

        reader = CompiledBackend(cache_dir=str(tmp_path))  # "sibling process"
        p2 = reader.prepare(sdfg_from_json(blob))
        assert (reader.disk_hits, reader.disk_misses) == (1, 0)
        assert p2.control_mode == p1.control_mode == "structured"
        assert p2.driver_source == p1.driver_source

        args, symbols = run_args(), {"N": 16, "T": 4}
        r1 = p1.run(dict(args), symbols, collect_coverage=True)
        r2 = p2.run(dict(args), symbols, collect_coverage=True)
        assert np.array_equal(r1.outputs["A"], r2.outputs["A"])
        assert r1.transitions == r2.transitions
        assert r1.coverage.features() == r2.coverage.features()

    def test_artifact_matches_interpreter_bitwise(self, tmp_path):
        blob = sdfg_to_json(build_loop_program())
        CompiledBackend(cache_dir=str(tmp_path)).prepare(sdfg_from_json(blob))
        program = CompiledBackend(cache_dir=str(tmp_path)).prepare(
            sdfg_from_json(blob)
        )
        sdfg = sdfg_from_json(blob)
        args, symbols = run_args(), {"N": 16, "T": 4}
        ref = get_backend("interpreter").prepare(sdfg).run(
            dict(args), symbols, collect_coverage=True
        )
        res = program.run(dict(args), symbols, collect_coverage=True)
        assert np.array_equal(ref.outputs["A"], res.outputs["A"])
        assert ref.symbols == res.symbols
        assert ref.transitions == res.transitions
        assert ref.coverage.features() == res.coverage.features()

    def test_interpreted_mode_artifact_roundtrip(self, tmp_path):
        blob = sdfg_to_json(build_interpreted_mode_program())
        writer = CompiledBackend(cache_dir=str(tmp_path))
        p1 = writer.prepare(sdfg_from_json(blob))
        assert p1.control_mode == "interpreted"
        reader = CompiledBackend(cache_dir=str(tmp_path))
        p2 = reader.prepare(sdfg_from_json(blob))
        assert reader.disk_hits == 1
        assert p2.control_mode == "interpreted"
        args = {"X": np.asarray([1.0]), "s": np.asarray([0.0])}
        r1 = p1.run(dict(args), {})
        r2 = p2.run(dict(args), {})
        assert r1.symbols == r2.symbols


class TestInvalidation:
    def prime(self, tmp_path):
        blob = sdfg_to_json(build_loop_program())
        CompiledBackend(cache_dir=str(tmp_path)).prepare(sdfg_from_json(blob))
        (path,) = glob.glob(str(tmp_path / "*.json"))
        return blob, path

    def test_stale_codegen_version_is_recompiled_and_rewritten(self, tmp_path):
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        doc["codegen_version"] = CODEGEN_VERSION - 1
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert (backend.disk_hits, backend.disk_misses) == (0, 1)
        assert program.control_mode == "structured"
        assert json.load(open(path))["codegen_version"] == CODEGEN_VERSION

    def test_format_2_artifact_is_a_miss_and_rewritten(self, tmp_path):
        """What plan format 2 wrote: scopes without the domain they were
        planned over.  The stamp makes it a miss; a stamp that lied would
        leave a plan body that no longer loads, and re-analysis."""
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        doc["plan_format"] = doc["plan"]["format"] = 2
        for state in doc["plan"]["states"]:
            for scope in filter(None, state["scopes"].values()):
                del scope["domain"], scope["level_guids"]
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert (backend.disk_hits, backend.disk_misses) == (0, 1)
        healed = json.load(open(path))
        assert healed["plan_format"] == 3
        assert all(
            scope["domain"] and scope["level_guids"]
            for state in healed["plan"]["states"]
            for scope in state["scopes"].values()
        )
        want = get_backend("interpreter").prepare(sdfg_from_json(blob)).run(run_args(), {"N": 16, "T": 3})
        got = program.run(run_args(), {"N": 16, "T": 3})
        assert got.outputs["A"].tobytes() == want.outputs["A"].tobytes()
        # The lying stamp: format says 3, the body is format 2.
        doc["plan_format"] = doc["plan"]["format"] = 3
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert backend.disk_hits == 1  # loaded, seed discarded, re-analysed
        assert program.run(run_args(), {"N": 16, "T": 3}).outputs["A"].tobytes() == (
            want.outputs["A"].tobytes()
        )

    def test_wrong_python_tag_is_a_miss(self, tmp_path):
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        doc["python"] = "cpython-0"
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        backend.prepare(sdfg_from_json(blob))
        assert backend.disk_hits == 0

    def test_corrupt_entry_is_tolerated(self, tmp_path):
        blob, path = self.prime(tmp_path)
        with open(path, "w") as f:
            f.write("{ this is not json")
        backend = CompiledBackend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert program.control_mode == "structured"
        assert backend.disk_hits == 0
        # ... and the entry was healed.
        assert json.load(open(path))["mode"] == "structured"

    def test_corrupt_marshal_blob_falls_back_to_source(self, tmp_path):
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        doc["code"] = "AAAA"  # valid base64, invalid marshal
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert backend.disk_hits == 1  # the source text still loads
        assert program.control_mode == "structured"
        args, symbols = run_args(), {"N": 16, "T": 4}
        ref = get_backend("interpreter").prepare(sdfg_from_json(blob)).run(
            dict(args), symbols
        )
        res = program.run(dict(args), symbols)
        assert np.array_equal(ref.outputs["A"], res.outputs["A"])

    def test_unwritable_cache_dir_degrades_silently(self, tmp_path):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("file, not a directory")
        backend = CompiledBackend(cache_dir=str(bogus))
        program = backend.prepare(build_loop_program())
        assert program.control_mode == "structured"  # compile still worked


class TestToolchainStamp:
    """Every artifact stamp carries a ``toolchain`` field: ``None`` for the
    pure-Python backends, a compiler fingerprint for the native backend's
    variant.  A stale or *missing* field is a miss, and the entry is
    rewritten with the current stamp."""

    def prime(self, tmp_path):
        blob = sdfg_to_json(build_loop_program())
        CompiledBackend(cache_dir=str(tmp_path)).prepare(sdfg_from_json(blob))
        (path,) = glob.glob(str(tmp_path / "*.json"))
        return blob, path

    def test_pure_python_artifacts_stamp_none(self, tmp_path):
        _, path = self.prime(tmp_path)
        doc = json.load(open(path))
        assert "toolchain" in doc
        assert doc["toolchain"] is None

    def test_missing_toolchain_field_is_a_miss_and_rewritten(self, tmp_path):
        """Entries predating the field must not match (``.get`` would have
        equated absent with ``None``); the rewrite heals them."""
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        del doc["toolchain"]
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert (backend.disk_hits, backend.disk_misses) == (0, 1)
        assert program.control_mode == "structured"
        healed = json.load(open(path))
        assert "toolchain" in healed and healed["toolchain"] is None

    def test_stale_toolchain_value_is_a_miss(self, tmp_path):
        blob, path = self.prime(tmp_path)
        doc = json.load(open(path))
        doc["toolchain"] = {"cc": "/usr/bin/ancient-cc", "version": "0.1",
                            "flags": []}
        json.dump(doc, open(path, "w"))
        backend = CompiledBackend(cache_dir=str(tmp_path))
        backend.prepare(sdfg_from_json(blob))
        assert backend.disk_hits == 0
        assert json.load(open(path))["toolchain"] is None


class TestEnvironmentThreading:
    def test_env_var_activates_the_tier_dynamically(self, tmp_path, monkeypatch):
        """Backends constructed *before* the variable is set still honor it
        (the CLI sets it after backend instances may already exist)."""
        backend = CompiledBackend()
        assert backend.cache_dir is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert backend.cache_dir == str(tmp_path)
        blob = sdfg_to_json(build_loop_program())
        backend.prepare(sdfg_from_json(blob))
        assert glob.glob(str(tmp_path / "*.json"))

    def test_explicit_dir_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        backend = CompiledBackend(cache_dir=str(tmp_path / "explicit"))
        assert backend.cache_dir == str(tmp_path / "explicit")

    def test_cross_process_reuse(self, tmp_path):
        """The actual promise: a fresh *process* skips recompilation."""
        blob_path = tmp_path / "program.json"
        blob_path.write_text(sdfg_to_json(build_loop_program()))
        cache_dir = tmp_path / "cache"
        script = textwrap.dedent(
            """
            import sys
            from repro.backends.compiled import CompiledBackend
            from repro.sdfg.serialize import sdfg_from_json
            blob = open(sys.argv[1]).read()
            backend = CompiledBackend(cache_dir=sys.argv[2])
            program = backend.prepare(sdfg_from_json(blob))
            print(backend.disk_hits, backend.disk_misses, program.control_mode)
            """
        )
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )

        def run_child():
            return subprocess.run(
                [sys.executable, "-c", script, str(blob_path), str(cache_dir)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            ).stdout.split()

        assert run_child() == ["0", "1", "structured"]  # cold: compiles+stores
        assert run_child() == ["1", "0", "structured"]  # sibling: disk hit


class TestCLIThreading:
    def test_pipeline_cache_dir_populates_and_sweeps(self, tmp_path, monkeypatch):
        from repro.pipeline.cli import main

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        cache_dir = tmp_path / "cache"
        rc = main([
            "--suite", "npbench", "--kernels", "scaled_diff",
            "--trials", "1", "--max-instances", "1",
            "--backend", "compiled", "--cache-dir", str(cache_dir), "--quiet",
        ])
        assert rc == 0
        assert glob.glob(str(cache_dir / "*.json")), "cache dir not populated"
        # A second sweep over the same kernel reuses the artifacts.
        rc = main([
            "--suite", "npbench", "--kernels", "scaled_diff",
            "--trials", "1", "--max-instances", "1",
            "--backend", "compiled", "--cache-dir", str(cache_dir), "--quiet",
        ])
        assert rc == 0

    def test_worker_parser_accepts_cache_dir_and_heartbeat(self):
        from repro.cluster.worker import build_parser

        args = build_parser().parse_args([
            "--connect", "127.0.0.1:1", "--cache-dir", "/tmp/x",
            "--heartbeat-seconds", "2.5",
        ])
        assert args.cache_dir == "/tmp/x"
        assert args.heartbeat_seconds == 2.5
