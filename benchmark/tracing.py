"""Spans recorded from outside the program, by wrapping layer entry points.

Each hook replaces one module attribute that a caller looks up at call time
(for example `maxplanar.heuristics.edge_addition_run`, which `grow_maximal`
reads from its module globals).  The wrapper records a span -- name, start,
end, parent span and a few numbers taken from the call's arguments and
result -- and hands the result back unchanged.  Spans stay in memory; the
per-layer metrics are computed from them after the run.

The program itself is not modified.  A hook whose attribute no longer exists
is skipped and reported as absent, so a later refactor that removes a
private function shows up as a missing metric, never as a zero.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    info: tuple = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _verdict_info(args, kwargs, result) -> tuple | None:
    """(edges, planar) for a strict-mode engine call; None in skip mode."""
    if kwargs.get("skip_unembeddable"):
        return None
    return (len(args[1]), result[0])


def _skip_info(args, kwargs, result) -> tuple:
    g = args[0]
    return (len(g.edges), len(result))  # (edges in, edges kept)


def _growth_info(args, kwargs, result) -> tuple:
    return (len(args[1]), len(result))  # (start size, kept size)


def _cactus_info(args, kwargs, result) -> tuple:
    return (len(args[0].edges),)


def _lr_info(args, kwargs, result) -> tuple:
    return (len(args[1]),)


def _planarize_info(args, kwargs, result) -> tuple:
    g, sub = args[0], args[1]
    kept = sub.kept if hasattr(sub, "kept") else sub
    return (len(g.edges) - len(kept), result.dummy_count)  # (insertions, crossings)


def _exact_info(args, kwargs, result) -> tuple:
    return (result.nodes_explored,)


# (module, attribute, span name, info function).  The span name is the layer
# the call belongs to; several call sites of one layer share a name.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("maxplanar.heuristics", "edge_addition_run", "engine.verdict", _verdict_info),
    ("maxplanar.exact", "edge_addition_run", "engine.verdict", _verdict_info),
    ("maxplanar.planarity.api", "edge_addition_run", "engine.verdict", _verdict_info),
    ("maxplanar.heuristics", "edge_addition_subgraph", "engine.skip", _skip_info),
    ("maxplanar.heuristics", "grow_maximal", "growth", _growth_info),
    ("maxplanar.heuristics", "build_cactus", "cactus", _cactus_info),
    ("maxplanar.planarize", "lr_embedding", "lr", _lr_info),
    ("maxplanar.planarity.api", "lr_embedding", "lr", _lr_info),
    ("maxplanar.planarize", "_trace_faces", "planarize.face_trace", None),
    ("maxplanar.bench", "insert_edges_fixed", "planarize", _planarize_info),
    ("maxplanar.bench", "exact_skewness", "exact", _exact_info),
    ("maxplanar.exact", "_extract_witness_ids", "exact.witness", None),
    ("maxplanar.exact", "_witness_packing_bound", "exact.bound", None),
    ("maxplanar.bench", "run_algorithm", "algorithm", None),
    ("maxplanar.bench", "cactus_plus", "exact.incumbent", None),
    ("maxplanar.generate", "gen_regular", "generate", None),
    ("maxplanar.generate", "gen_scale_free", "generate", None),
)

# Results handed back by these spans are kept for the output checks.
CAPTURED = {"algorithm": "sub", "planarize": "planarized", "exact": "exact",
            "exact.incumbent": "incumbent"}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    # Filled by the capturing spans of the cell that is running.
    captured: dict[str, Any] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named `name` (used for the root cell spans)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn: Callable, info_fn: Callable | None) -> Callable:
        spans, stack, captured = self.spans, self._stack, self.captured
        capture_key = CAPTURED.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = () if info_fn is None or result is None else info_fn(args, kwargs, result)
                if info is None:  # not this layer's call (engine in skip mode)
                    spans[index] = Span("", start, end, parent)
                else:
                    spans[index] = Span(name, start, end, parent, info)
                if capture_key is not None and result is not None:
                    captured[capture_key] = result

        wrapper.__wrapped__ = fn
        return wrapper

    def absent_layers(self) -> set[str]:
        """Span names with at least one hook that was not found."""
        return {name for module, attr, name, _ in HOOKS if f"{module}.{attr}" in self.absent}

    def install(self) -> None:
        for module_name, attr, name, info_fn in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, info_fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
