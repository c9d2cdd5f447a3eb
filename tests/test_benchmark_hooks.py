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
