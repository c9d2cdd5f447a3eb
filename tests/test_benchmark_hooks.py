"""The benchmark's tracer still finds every library attribute it wraps.

`benchmark/tracing.py` records per-layer spans by replacing module
attributes by name, and drops a layer's metrics when one of them is gone.
A refactor that renames or removes a hooked function must fail here, not
silently empty a column of the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import maxplanar.planarize as planarize
from maxplanar.generate import GeneratorSpec
from maxplanar.heuristics import run_algorithm

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_is_bound():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    for module, attr, _, _ in tracing.HOOKS:
        assert not hasattr(getattr(importlib.import_module(module), attr), "__wrapped__")


def test_face_trace_hook_fires_once_per_trace(monkeypatch):
    # The `planarize.face_trace` hook wraps `planarize._trace_faces` by name;
    # it only measures anything if insertion calls the module global: once
    # for the first trace and once per deferred edge.
    g = GeneratorSpec("regular", 50, 3, 0).build()
    sub = run_algorithm(g, "cactus+", 0)
    expected = planarize.insert_edges_fixed(g, sub.kept, 0)
    calls = []
    inner = planarize._trace_faces

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(planarize, "_trace_faces", counting)
    got = planarize.insert_edges_fixed(g, sub.kept, 0)
    assert len(calls) == 1 + len(g.edges) - len(sub.kept)
    assert (got.host.edges, got.embedding.rotations, got.origin_map, got.dummy_count) == (
        expected.host.edges, expected.embedding.rotations, expected.origin_map, expected.dummy_count
    )
