from __future__ import annotations

import os
import signal
import time

import pytest

from conftest import complete_graph
from maxplanar import bench
from maxplanar.bench import (
    BenchmarkRecord,
    CSV_HEADER,
    InstanceRef,
    SuiteConfig,
    aggregate,
    emit_plot_data,
    emit_records_csv,
    read_records_csv,
    run_suite,
    vertex_bucket_10,
)
from maxplanar.cli import main
from maxplanar.generate import GeneratorSpec
from maxplanar.graphio import write_graph


def k5_ref() -> InstanceRef:
    return InstanceRef("k5", "named", graph=complete_graph(5))


def test_suite_k5_all_heuristics():
    config = SuiteConfig(
        instances=(k5_ref(),),
        algorithms=("naive", "bm", "bm+", "cactus", "cactus+"),
        seeds=(0,),
        restarts=3,
        workers=2,
    )
    records = run_suite(config)
    assert len(records) == 5
    by_algo = {r.algorithm: r for r in records}
    assert all(r.status == "ok" for r in records)
    for name in ("naive", "bm+", "cactus+"):
        assert by_algo[name].density == pytest.approx(9 / 5)
    assert 4 / 5 <= by_algo["bm"].density <= 9 / 5
    assert 6 / 5 <= by_algo["cactus"].density <= 9 / 5


def test_suite_timeout_enforced():
    spec = GeneratorSpec("regular", 2000, 5, 0)
    ref = InstanceRef("big", "regular", spec=spec)
    config = SuiteConfig(
        instances=(ref,),
        algorithms=("naive",),
        seeds=(0,),
        time_limit_ms=300.0,
        workers=1,
    )
    t0 = time.monotonic()
    records = run_suite(config)
    wall = time.monotonic() - t0
    assert len(records) == 1
    assert records[0].status == "timeout"
    # recorded within 2x the limit (plus process startup overhead)
    assert wall < 2 * 0.3 + 0.75
    # the killed cell keeps its instance size, so it lands in its size bucket
    assert (records[0].n, records[0].m) == (2000, 10000)
    groups = {row.group_key for row in aggregate(records)}
    assert groups == {"regular:2000"}


def test_suite_killed_worker_records_memory(monkeypatch):
    def killed(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(bench, "run_cell", killed)
    config = SuiteConfig(instances=(k5_ref(),), algorithms=("bm",), seeds=(0,), workers=1)
    (rec,) = run_suite(config)
    assert rec.status == "memory"


def test_suite_empty_algorithms():
    config = SuiteConfig(instances=(k5_ref(),), algorithms=(), seeds=(0,))
    assert run_suite(config) == []


def test_suite_missing_file_records_error(tmp_path):
    ref = InstanceRef("missing", "files", path=str(tmp_path / "nope.el"))
    config = SuiteConfig(
        instances=(ref, k5_ref()), algorithms=("cactus",), seeds=(0,), workers=1
    )
    records = run_suite(config)
    by_inst = {r.instance: r for r in records}
    assert by_inst["missing"].status == "error"
    assert by_inst["k5"].status == "ok"


def rec(instance="i", set_label="s", n=10, m=20, algorithm="a", seed=0,
        kept=9, runtime=1.0, status="ok", crossings=None):
    return BenchmarkRecord(
        instance, set_label, n, m, algorithm, seed, kept,
        kept / n if n else 0.0, runtime, status, crossings,
    )


def test_aggregate_relative_density_pair():
    records = [
        rec(algorithm="a", kept=9),
        rec(algorithm="b", kept=6),
    ]
    rows = aggregate(records, "vertex_bucket_10", "density")
    by_algo = {r.algorithm: r for r in rows}
    assert by_algo["a"].rel_avg == pytest.approx(1.0)
    assert by_algo["b"].rel_avg == pytest.approx(6 / 9)


def test_vertex_buckets():
    assert vertex_bucket_10(24) == 20
    assert vertex_bucket_10(26) == 30


def test_aggregate_all_equal_gives_ones():
    records = [rec(algorithm=a, kept=7) for a in "abc"]
    rows = aggregate(records)
    assert all(r.rel_min == r.rel_avg == r.rel_max == 1.0 for r in rows)


def test_aggregate_excludes_timeouts_but_counts():
    records = [
        rec(algorithm="a", kept=9),
        rec(algorithm="b", kept=0, status="timeout"),
    ]
    rows = aggregate(records)
    by_algo = {r.algorithm: r for r in rows}
    assert by_algo["a"].ok_count == 1
    assert by_algo["b"].empty and by_algo["b"].timeout_count == 1


def test_aggregate_relative_at_most_one_with_best_present():
    records = [
        rec(instance="g1", algorithm="a", kept=9),
        rec(instance="g1", algorithm="b", kept=8),
        rec(instance="g2", algorithm="a", kept=5),
        rec(instance="g2", algorithm="b", kept=6),
    ]
    rows = aggregate(records)
    assert all(r.rel_max <= 1.0 + 1e-12 for r in rows)
    assert any(r.rel_max == pytest.approx(1.0) for r in rows)


def test_emit_records_csv(tmp_path):
    p = tmp_path / "r.csv"
    emit_records_csv([], p)
    assert p.read_text() == CSV_HEADER + "\n"
    emit_records_csv([rec()], p)
    lines = p.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER


def test_records_csv_round_trip_quotes_only_when_needed(tmp_path):
    p = tmp_path / "r.csv"
    records = [rec(), rec(instance='a,"b"', set_label="s,t", crossings=3)]
    emit_records_csv(records, p)
    lines = p.read_text().splitlines()
    assert lines[1] == "i,s,10,20,a,0,9,0.900000,1.000,ok,"
    assert lines[2] == '"a,""b""","s,t",10,20,a,0,9,0.900000,1.000,ok,3'
    assert read_records_csv(p) == records


def test_cli_aggregate_reads_instance_ids_with_commas(tmp_path):
    write_graph(complete_graph(5), tmp_path / "a,b.el")
    out = tmp_path / "rec.csv"
    assert main([
        "run", "--instances", str(tmp_path / "a,b.el"),
        "--algorithms", "cactus", "--out", str(out),
    ]) == 0
    got = [(r.instance, r.set_label, r.n, r.m) for r in read_records_csv(out)]
    assert got == [("a,b", "files", 5, 10)]
    assert main(["aggregate", "--records", str(out), "--out", str(tmp_path / "agg.csv")]) == 0


def test_cli_aggregate_reports_malformed_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    emit_records_csv([rec()], bad)
    # An unquoted id with a comma, as written before ids were quoted.
    with open(bad, "a") as fh:
        fh.write("a,b,files,5,10,bm,0,9,1.800000,0.100,ok,\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: "):
        read_records_csv(bad)
    capsys.readouterr()
    assert main(["aggregate", "--records", str(bad), "--out", str(tmp_path / "agg.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3: " in err
    assert "Traceback" not in err


def test_emit_plot_series(tmp_path):
    rows = aggregate(
        [rec(algorithm="a", kept=9), rec(algorithm="b", kept=6)]
    )
    paths = emit_plot_data(rows, tmp_path, "trial")
    assert sorted(p.name for p in paths) == ["trial_a.csv", "trial_b.csv"]
    body = (tmp_path / "trial_a.csv").read_text().splitlines()
    assert body[0] == "x,rel_min,rel_avg,rel_max"
    assert len(body) == 2


def test_suite_deterministic_modulo_runtime():
    config = SuiteConfig(
        instances=(
            InstanceRef("r", "regular", spec=GeneratorSpec("regular", 30, 2, 1)),
            k5_ref(),
        ),
        algorithms=("naive", "cactus+", "bm"),
        seeds=(0, 1),
        restarts=2,
        workers=2,
    )
    a = run_suite(config)
    b = run_suite(config)

    def strip(recs):
        return [
            (r.instance, r.set_label, r.n, r.m, r.algorithm, r.seed,
             r.edges_kept, r.density, r.status, r.crossings)
            for r in recs
        ]

    assert strip(a) == strip(b)


def test_cli_exit_codes(tmp_path):
    # config error: no instances
    assert main(["run", "--algorithms", "naive", "--out", str(tmp_path / "x.csv")]) == 1
    # unknown algorithm
    write_graph(complete_graph(5), tmp_path / "k5.el")
    assert (
        main([
            "run", "--instances", str(tmp_path / "k5.el"),
            "--algorithms", "frobnicate", "--out", str(tmp_path / "x.csv"),
        ])
        == 1
    )
    # clean run
    assert (
        main([
            "run", "--instances", str(tmp_path / "k5.el"),
            "--algorithms", "cactus,bm", "--out", str(tmp_path / "ok.csv"),
        ])
        == 0
    )
    # partial: a missing instance produces an error record -> exit 2
    assert (
        main([
            "run", "--instances", str(tmp_path / "k5.el"), str(tmp_path / "gone.el"),
            "--algorithms", "cactus", "--out", str(tmp_path / "p.csv"),
        ])
        == 2
    )


def test_cli_aggregate_round_trip(tmp_path):
    write_graph(complete_graph(5), tmp_path / "k5.el")
    out = tmp_path / "rec.csv"
    assert main([
        "run", "--instances", str(tmp_path / "k5.el"),
        "--algorithms", "cactus,cactus+", "--seeds", "0,1", "--out", str(out),
    ]) == 0
    agg = tmp_path / "agg.csv"
    assert main([
        "aggregate", "--records", str(out), "--out", str(agg),
        "--plot-dir", str(tmp_path / "plots"),
    ]) == 0
    assert agg.read_text().startswith("group,algorithm")
    assert (tmp_path / "plots" / "series_cactusplus.csv").exists()


def test_cli_planarize_and_exact(tmp_path, capsys):
    write_graph(complete_graph(6), tmp_path / "k6.el")
    assert main(["exact", str(tmp_path / "k6.el"), "--time-limit-ms", "5000"]) == 0
    out = capsys.readouterr().out
    assert "skewness=3" in out
    assert main([
        "planarize", str(tmp_path / "k6.el"), "--algorithm", "cactus+",
    ]) == 0
    out = capsys.readouterr().out
    assert "crossings=3" in out


@pytest.mark.parametrize("field, value", [("restarts", 0), ("time_limit_ms", 0.0),
                                          ("time_limit_ms", -5.0)])
def test_suite_config_rejects_invalid_settings(field, value):
    with pytest.raises(ValueError, match=field):
        SuiteConfig(instances=(k5_ref(),), algorithms=("naive",), seeds=(0,), **{field: value})


@pytest.mark.parametrize("argv", [
    ["run", "--algorithms", "naive", "--restarts", "0"],
    ["run", "--algorithms", "cactus", "--time-limit-ms", "0"],
    ["exact", "--time-limit-ms", "0"],
    ["export-ilp", "--time-limit-ms", "0"],
    ["planarize", "--algorithm", "naive", "--restarts", "0"],
], ids=["run-restarts", "run-time-limit", "exact-time-limit", "export-ilp-time-limit",
        "planarize-restarts"])
def test_cli_rejects_invalid_settings_up_front(tmp_path, capsys, argv):
    # Before, `run --restarts 0` made an error record per naive cell and
    # exited 2, `run --time-limit-ms 0` ran with no limit at all, and the
    # other commands died with a traceback.
    write_graph(complete_graph(5), tmp_path / "k5.el")
    out = tmp_path / "out.txt"
    if argv[0] == "run":
        argv = argv + ["--instances", str(tmp_path / "k5.el")]
    else:
        argv = argv[:1] + [str(tmp_path / "k5.el")] + argv[1:]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err
    assert "Traceback" not in err
    assert not out.exists()
