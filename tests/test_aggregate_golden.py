"""Golden aggregate-CSV and plot-file text.

`aggregate` turns records into relative-to-best rows, and
`emit_aggregate_csv` / `emit_plot_data` write them.  These values pin the
exact text of those files for one fixed set of `ok` and `timeout` records,
under every grouping and metric.  The records cover two set labels, two
seeds, crossings that are unset and set, cells whose best is 0 (so a 0
value reads 1.0 and any other value inf) and an n=0 instance.  Regenerate
the JSON only when the file format itself is meant to change:

    PYTHONPATH=src python tests/test_aggregate_golden.py > tests/aggregate_golden.json
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from maxplanar.bench import BenchmarkRecord, aggregate, emit_aggregate_csv, emit_plot_data

GOLDEN_PATH = Path(__file__).parent / "aggregate_golden.json"
GROUPINGS = ("vertex_bucket_10", "density_class")
METRICS = ("density", "runtime", "crossings")

# (set, instance, n, m, algorithm, seed, kept, runtime_ms, status, crossings)
RECORDS = [
    ("s", "g1", 12, 30, "bm", 0, 20, 1.5, "ok", None),
    ("s", "g1", 12, 30, "cactus+", 0, 22, 3.25, "ok", None),
    ("s", "g1", 12, 30, "naive", 0, 0, 40.0, "timeout", None),
    ("s", "g1", 12, 30, "planarize:bm", 0, 20, 4.0, "ok", 5),
    ("s", "g1", 12, 30, "planarize:cactus+", 0, 22, 6.5, "ok", 3),
    ("s", "g1", 12, 30, "bm", 1, 19, 1.25, "ok", None),
    ("s", "g1", 12, 30, "cactus+", 1, 23, 2.75, "ok", None),
    ("s", "g1", 12, 30, "naive", 1, 23, 30.0, "ok", None),
    ("s", "g1", 12, 30, "planarize:bm", 1, 19, 3.5, "ok", 6),
    ("s", "g1", 12, 30, "planarize:cactus+", 1, 23, 5.0, "ok", 4),
    ("s", "g2", 17, 60, "bm", 0, 25, 2.0, "ok", None),
    ("s", "g2", 17, 60, "cactus+", 0, 29, 3.0, "ok", None),
    ("s", "g2", 17, 60, "naive", 0, 31, 9.0, "ok", None),
    ("s", "g2", 17, 60, "planarize:bm", 0, 0, 12.0, "timeout", None),
    ("s", "g2", 17, 60, "planarize:cactus+", 0, 29, 7.0, "ok", 11),
    ("s", "e", 0, 0, "bm", 0, 0, 0.0, "ok", None),
    ("s", "e", 0, 0, "cactus+", 0, 0, 0.0, "ok", None),
    ("s", "e", 0, 0, "planarize:bm", 0, 0, 0.0, "ok", 0),
    ("t", "h", 25, 50, "bm", 0, 30, 0.0, "ok", None),
    ("t", "h", 25, 50, "cactus+", 0, 36, 2.0, "ok", None),
    ("t", "h", 25, 50, "naive", 0, 0, 50.0, "timeout", None),
    ("t", "h", 25, 50, "planarize:bm", 0, 30, 1.0, "ok", 0),
    ("t", "h", 25, 50, "planarize:cactus+", 0, 36, 3.0, "ok", 2),
    ("t", "k", 34, 120, "bm", 0, 0, 0.0, "timeout", None),
    ("t", "k", 34, 120, "cactus+", 0, 0, 0.0, "timeout", None),
]


def records() -> list[BenchmarkRecord]:
    return [
        BenchmarkRecord(inst, set_label, n, m, algo, seed, kept,
                        kept / n if n else 0.0, ms, status, cross)
        for set_label, inst, n, m, algo, seed, kept, ms, status, cross in RECORDS
    ]


def emitted(grouping: str, metric: str) -> dict[str, str]:
    """The aggregate CSV and every plot file, by file name."""
    rows = aggregate(records(), grouping, metric)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        emit_aggregate_csv(rows, out / "agg.csv")
        emit_plot_data(rows, out, "series")
        return {p.name: p.read_text() for p in sorted(out.iterdir())}


def compute_golden() -> dict[str, dict[str, str]]:
    return {f"{g}/{m}": emitted(g, m) for g in GROUPINGS for m in METRICS}


@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("metric", METRICS)
def test_aggregate_files_match_golden(grouping, metric):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert emitted(grouping, metric) == golden[f"{grouping}/{metric}"]


if __name__ == "__main__":
    print(json.dumps(compute_golden(), indent=1, sort_keys=True))
