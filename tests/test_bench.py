from __future__ import annotations

import csv
import gc
import io
import math
import os
import re
import signal
import sys
import time

import pytest

from conftest import complete_graph, leftover_child
from maxplanar import bench
from maxplanar.bench import (
    BenchmarkRecord,
    CSV_HEADER,
    InstanceRef,
    SuiteConfig,
    aggregate,
    emit_aggregate_csv,
    emit_plot_data,
    emit_records_csv,
    read_records_csv,
    run_suite,
    vertex_bucket_10,
)
from maxplanar.cli import main
from maxplanar.generate import GeneratorSpec
from maxplanar.graphio import read_graph, write_graph
from maxplanar.heuristics import run_algorithm
from maxplanar.planarity import is_planar
from maxplanar.planarize import insert_edges_fixed


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
    assert records[0].runtime_ms >= 300.0
    # recorded within 2x the limit (plus process startup overhead)
    assert wall < 2 * 0.3 + 0.75
    # the killed cell keeps its instance size, so it lands in its size bucket
    assert (records[0].n, records[0].m) == (2000, 10000)
    groups = {row.group_key for row in aggregate(records)}
    assert groups == {"regular:2000"}


@pytest.mark.parametrize("limit_ms", [3e9, 1e13])
def test_suite_waits_on_a_far_deadline(limit_ms):
    # Waiting on the kill deadline of a huge finite limit must not overflow
    # poll()'s int of milliseconds (3e9) or the C time type (1e13).
    config = SuiteConfig(instances=(k5_ref(),), algorithms=("cactus",), seeds=(0,),
                         time_limit_ms=limit_ms, workers=1)
    (rec,) = run_suite(config)
    assert rec.status == "ok"


def test_cli_run_with_a_huge_time_limit(tmp_path):
    assert main(["run", "--gen", "regular:n=20,density=2", "--algorithms", "cactus",
                 "--workers", "1", "--time-limit-ms", "1e13",
                 "--out", str(tmp_path / "r.csv")]) == 0


def test_suite_killed_worker_records_memory(monkeypatch):
    def killed(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(bench, "run_cell", killed)
    config = SuiteConfig(instances=(k5_ref(),), algorithms=("bm",), seeds=(0,), workers=1)
    (rec,) = run_suite(config)
    assert rec.status == "memory"


def test_suite_worker_exit_without_record_records_error(monkeypatch):
    def exits(ref, algorithm, seed, time_limit_ms, restarts, on_size):
        on_size(7, 9)
        os._exit(3)

    monkeypatch.setattr(bench, "run_cell", exits)
    config = SuiteConfig(instances=(k5_ref(),), algorithms=("bm",), seeds=(0,), workers=1)
    (rec,) = run_suite(config)
    assert (rec.status, rec.n, rec.m) == ("error", 7, 9)


@pytest.mark.parametrize("escape", [SystemExit, KeyboardInterrupt])
def test_suite_worker_never_returns_into_the_caller(monkeypatch, tmp_path, escape):
    def raises(ref, algorithm, seed, time_limit_ms, restarts, on_size):
        on_size(7, 9)
        raise escape

    monkeypatch.setattr(bench, "run_cell", raises)
    config = SuiteConfig(instances=(k5_ref(),), algorithms=("bm", "cactus"), seeds=(0,),
                         workers=2)
    pid = os.getpid()
    records = run_suite(config)
    # A worker that returned from run_suite would write the marker too.
    with open(tmp_path / "marker", "a") as fh:
        fh.write(f"{os.getpid()}\n")
    assert os.getpid() == pid
    assert [(r.status, r.n, r.m) for r in records] == [("error", 7, 9)] * 2
    assert (tmp_path / "marker").read_text() == f"{pid}\n"


def test_suite_worker_freezes_the_inherited_heap(monkeypatch, tmp_path):
    # Unfrozen, a collection in the worker walks and copies the parent's heap,
    # so a cell's time depended on what the harness allocated before the fork.
    def reports(ref, algorithm, seed, time_limit_ms, restarts, on_size):
        (tmp_path / "freeze_count").write_text(str(gc.get_freeze_count()))
        os._exit(0)

    monkeypatch.setattr(bench, "run_cell", reports)
    config = SuiteConfig(instances=(k5_ref(),), algorithms=("bm",), seeds=(0,), workers=1)
    run_suite(config)
    assert int((tmp_path / "freeze_count").read_text()) > 0
    assert gc.get_freeze_count() == 0  # the harness's own collector is untouched


def test_suite_output_buffered_before_the_run_appears_once(monkeypatch, capfd):
    real_run_cell = bench.run_cell

    def flushes(*args):
        sys.stdout.flush()  # a worker that writes sends what its copy of the buffer holds
        return real_run_cell(*args)

    monkeypatch.setattr(bench, "run_cell", flushes)
    config = SuiteConfig(instances=(k5_ref(),), algorithms=("cactus",), seeds=(0,), workers=1)
    # A buffered stdout on fd 1, as outside pytest: capfd's own writes through.
    with io.TextIOWrapper(open(os.dup(1), "wb"), encoding="utf-8") as out, \
            monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        out.write("written before the suite")
        (rec,) = run_suite(config)
    assert rec.status == "ok"
    assert capfd.readouterr().out.count("written before the suite") == 1


def test_suite_interrupt_stops_workers():
    class Interrupt(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupt

    spec = GeneratorSpec("regular", 2000, 5, 0)
    config = SuiteConfig(instances=(InstanceRef("big", "regular", spec=spec),),
                         algorithms=("naive",), seeds=(0,), workers=1)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(Interrupt):
            run_suite(config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert leftover_child() is None


def test_run_cell_records_memory_error_while_loading(monkeypatch):
    def load(self):
        raise MemoryError

    monkeypatch.setattr(InstanceRef, "load", load)
    rec = bench.run_cell(k5_ref(), "bm", 0, None, 1)
    assert (rec.status, rec.n, rec.m) == ("memory", 0, 0)


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
    # Halves round up, never to even.
    assert [vertex_bucket_10(n) for n in (5, 15, 25, 35)] == [10, 20, 30, 40]


def test_density_classes_round_halves_up():
    # m/n = 2.5 and 3.5 go up, as vertex buckets do, not to the even class.
    records = [rec(instance=str(m), n=2, m=m, kept=1) for m in (4, 5, 7)]
    groups = sorted(r.group_key for r in aggregate(records, "density_class", "density"))
    assert groups == ["s:2", "s:3", "s:4"]


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
    assert by_algo["b"].ok_count == 0 and by_algo["b"].timeout_count == 1


def test_aggregate_counts_only_timeouts():
    # Error and memory records used to be counted as timeouts.
    records = [rec(algorithm=s, status=s) for s in ("ok", "error", "memory", "timeout")]
    counts = {r.algorithm: (r.ok_count, r.timeout_count) for r in aggregate(records)}
    assert counts == {"ok": (1, 0), "error": (0, 0), "memory": (0, 0), "timeout": (0, 1)}


@pytest.mark.parametrize("grouping, metric", [("bogus", "density"), ("density_class", "bogus")])
def test_aggregate_refuses_unknown_names_before_any_record(grouping, metric):
    with pytest.raises(ValueError, match="unknown .* 'bogus'"):
        aggregate([], grouping, metric)


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


@pytest.mark.parametrize("row", [
    "a,b,files,5,10,bm,0,9,1.800000,0.100,ok,",  # an unquoted id with a comma
    # Values no run writes; one nan density would make its cell group's
    # best, and so every relative value of the group, nan in aggregate().
    "i,s,10,20,a,0,9,nan,1.000,ok,",
    "i,s,10,20,a,0,9,0.900000,-inf,ok,",
    "i,s,-10,20,a,0,9,0.900000,1.000,ok,",
    "i,s,10,20,a,0,-15,0.900000,1.000,ok,",
    "i,s,10,20,a,0,9,0.900000,1.000,ok,-3",
    # Random(-7) draws what Random(7) draws: seeds -7 and 7 are one run.
    "i,s,10,20,a,-7,9,0.900000,1.000,ok,",
    # Read by `int`, these were 10, 10, 9 and 3, although the graph readers
    # refuse such integers.
    "i,s,1_0,20,a,0,9,0.900000,1.000,ok,",
    "i,s,10,20,a,1_0,9,0.900000,1.000,ok,",
    "i,s,10,20,a,0,\u0669,0.900000,1.000,ok,",
    "i,s,10,20,a,0,9,0.900000,1.000,ok,\uff13",
], ids=["comma-in-id", "density-nan", "runtime-inf", "negative-n", "negative-kept",
        "negative-crossings", "negative-seed", "underscore-n", "underscore-seed",
        "arabic-indic-kept", "fullwidth-crossings"])
def test_cli_aggregate_reports_malformed_row(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    emit_records_csv([rec(instance="j")], bad)  # a cell no bad row repeats
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: "):
        read_records_csv(bad)
    capsys.readouterr()
    assert main(["aggregate", "--records", str(bad), "--out", str(tmp_path / "agg.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3: " in err
    assert "Traceback" not in err


def test_emit_plot_series(tmp_path):
    # Two sets in one vertex bucket give two rows, told apart by their set:
    # the x column alone used to repeat with nothing to tell them apart.
    rows = aggregate([
        rec(algorithm="a", kept=9), rec(algorithm="b", kept=6),
        rec(set_label="t:u", algorithm="a", kept=3), rec(set_label="t:u", algorithm="b", kept=6),
    ])
    paths = emit_plot_data(rows, tmp_path, "trial")
    assert sorted(p.name for p in paths) == ["trial_a.csv", "trial_b.csv"]
    assert (tmp_path / "trial_a.csv").read_text().splitlines() == [
        "set,x,rel_min,rel_avg,rel_max",
        "s,10,1.000000,1.000000,1.000000",
        "t:u,10,0.500000,0.500000,0.500000",
    ]


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


@pytest.mark.parametrize("argv", [
    ["run", "--gen", "regular:n=20,density=2,seed=0", "--algorithms", "cactus+",
     "--seeds", "-7,7"],
    ["exact"],
    ["run", "--gen", "regular:n=20,density=2,seed=0", "--algorithms", "naive",
     "--restarts", "x"],
], ids=["seeds-read-as-option", "exact-without-instance", "restarts-not-an-int"])
def test_cli_reports_usage_errors_on_one_line(tmp_path, capsys, argv):
    # argparse used to print its usage block and exit 2, the code of a suite
    # with failed cells.
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_cli_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: maxplanar")


def test_cli_run_set_label_names_the_records_set(tmp_path):
    write_graph(complete_graph(5), tmp_path / "k5.el")
    out = tmp_path / "rec.csv"
    assert main(["run", "--instances", str(tmp_path / "k5.el"), "--set-label", "mine",
                 "--algorithms", "cactus", "--workers", "1", "--out", str(out)]) == 0
    assert [r.set_label for r in read_records_csv(out)] == ["mine"]


def test_cli_aggregate_plot_prefix_names_the_series_files(tmp_path):
    write_graph(complete_graph(5), tmp_path / "k5.el")
    records = tmp_path / "rec.csv"
    assert main(["run", "--instances", str(tmp_path / "k5.el"), "--algorithms", "bm,cactus+",
                 "--workers", "1", "--out", str(records)]) == 0
    plots = tmp_path / "plots"
    assert main(["aggregate", "--records", str(records), "--out", str(tmp_path / "agg.csv"),
                 "--plot-dir", str(plots), "--prefix", "fig"]) == 0
    assert sorted(p.name for p in plots.iterdir()) == ["fig_bm.csv", "fig_cactusplus.csv"]


def test_cli_planarize_order_id_inserts_in_id_order(tmp_path, capsys):
    g = GeneratorSpec("regular", 30, 4, 3).build()
    write_graph(g, tmp_path / "g.el")
    kept = run_algorithm(g, "cactus+", 2).kept
    by_id = insert_edges_fixed(g, kept, 2, shuffle=False).dummy_count
    assert by_id != insert_edges_fixed(g, kept, 2).dummy_count  # the order matters here
    assert main(["planarize", str(tmp_path / "g.el"), "--seed", "2", "--order", "id"]) == 0
    assert f"crossings={by_id}\n" in capsys.readouterr().out


def test_cli_planarize_and_exact(tmp_path, capsys):
    write_graph(complete_graph(6), tmp_path / "k6.el")
    assert main(["exact", str(tmp_path / "k6.el"), "--time-limit-ms", "5000"]) == 0
    out = capsys.readouterr().out
    assert "skewness=3" in out and "nodes=0 bound=3 " in out
    assert main([
        "planarize", str(tmp_path / "k6.el"), "--algorithm", "cactus+",
    ]) == 0
    out = capsys.readouterr().out
    assert "crossings=3" in out


def test_cli_gen_files_feed_run(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen", "--family", "regular", "--n", "12", "--density", "2",
                 "--seeds", "0,1", "--out", str(out)]) == 0
    paths = sorted(out.iterdir())
    assert [p.name for p in paths] == ["regular_n12_d2_s0.el", "regular_n12_d2_s1.el"]
    assert f"wrote {paths[0]} (n=12, m=" in capsys.readouterr().out
    records_path = tmp_path / "rec.csv"
    assert main(["run", "--instances", *map(str, paths), "--algorithms", "bm",
                 "--workers", "1", "--out", str(records_path)]) == 0
    records = read_records_csv(records_path)
    assert [(r.instance, r.status, r.n) for r in records] == [
        ("regular_n12_d2_s0", "ok", 12), ("regular_n12_d2_s1", "ok", 12)]
    assert [r.m for r in records] == [len(read_graph(p).edges) for p in paths]


def test_cli_gen_refuses_negative_seeds(tmp_path, capsys):
    # Seed -1 used to write the graph of seed 1 a second time, as ..._s-1.el.
    out = tmp_path / "inst"
    assert main(["gen", "--family", "regular", "--n", "10", "--density", "2",
                 "--seeds=1,-1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["planarize", "exact", "export-ilp"])
def test_cli_refuses_negative_seed(tmp_path, capsys, command):
    # --seed -1 used to run seed 1 without a word.
    write_graph(complete_graph(5), tmp_path / "k5.el")
    out = tmp_path / "out.el"
    assert main([command, str(tmp_path / "k5.el"), "--seed", "-1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == "" and not out.exists()


def test_cli_exact_without_incumbent_writes_kept_edges(tmp_path, capsys):
    write_graph(complete_graph(5), tmp_path / "k5.el")
    out = tmp_path / "x.el"
    assert main(["exact", str(tmp_path / "k5.el"), "--no-incumbent", "--out", str(out)]) == 0
    assert "skewness=1 kept=9 status=optimal" in capsys.readouterr().out
    kept = read_graph(out)
    assert kept.vertex_count == 5 and len(kept.edges) == 9 and is_planar(kept)


def test_cli_planarize_writes_planar_host(tmp_path, capsys):
    write_graph(complete_graph(6), tmp_path / "k6.el")
    out = tmp_path / "h.el"
    assert main(["planarize", str(tmp_path / "k6.el"), "--out", str(out)]) == 0
    assert "crossings=3" in capsys.readouterr().out
    host = read_graph(out)
    # Each crossing is a degree-4 dummy vertex that splits two edges.
    assert (host.vertex_count, len(host.edges)) == (6 + 3, 15 + 2 * 3)
    assert is_planar(host)


def test_cli_export_ilp_writes_lp_model(tmp_path, capsys):
    write_graph(complete_graph(5), tmp_path / "k5.el")
    out = tmp_path / "m.lp"
    assert main(["export-ilp", str(tmp_path / "k5.el"), "--out", str(out)]) == 0
    assert "model with 10 binaries" in capsys.readouterr().out
    assert out.read_text().startswith("Maximize\n")


def test_cli_run_format_overrides_extension(tmp_path):
    write_graph(complete_graph(5), tmp_path / "k5.el")
    (tmp_path / "k5.el").rename(tmp_path / "k5.txt")
    argv = ["run", "--instances", str(tmp_path / "k5.txt"), "--algorithms", "bm",
            "--workers", "1", "--out", str(tmp_path / "rec.csv")]
    assert main(argv) == 2  # .txt names no format
    assert main(argv + ["--format", "edge_list"]) == 0
    [record] = read_records_csv(tmp_path / "rec.csv")
    assert (record.instance, record.n, record.m, record.status) == ("k5", 5, 10, "ok")


@pytest.mark.parametrize("field, value", [("restarts", 0), ("time_limit_ms", 0.0),
                                          ("time_limit_ms", -5.0), ("time_limit_ms", math.inf),
                                          ("workers", 0), ("workers", -3), ("seeds", (-7, 7)),
                                          ("restarts", 2.5), ("restarts", True),
                                          ("workers", 2.5), ("workers", True)])
def test_suite_config_rejects_invalid_settings(field, value):
    # Unchecked, restarts=2.5 turns every naive cell into an error record,
    # and workers=2.5 lets up to three workers start.
    with pytest.raises(ValueError, match=field):
        SuiteConfig(**{"instances": (k5_ref(),), "algorithms": ("naive",), "seeds": (0,),
                       field: value})


@pytest.mark.parametrize("seed", [1.5, True, "3"])
def test_non_int_seeds_are_refused(k5, seed):
    # A float seed used to run and be written as 1.5, which read_records_csv
    # then refused; True ran as seed 1.  Each entry point that refuses a
    # negative seed refuses these too.
    with pytest.raises(ValueError, match="seeds: .* is not an int"):
        SuiteConfig(instances=(k5_ref(),), algorithms=("bm",), seeds=(0, seed))
    with pytest.raises(ValueError, match="seed: .* is not an int"):
        run_algorithm(k5, "bm", seed)
    with pytest.raises(ValueError, match="seed: .* is not an int"):
        insert_edges_fixed(k5, run_algorithm(k5, "bm", 0).kept, seed)


@pytest.mark.parametrize("field, value, repeated", [
    ("instances", (k5_ref(), InstanceRef("k5", "named", graph=complete_graph(4))), "('named', 'k5')"),
    ("algorithms", ("bm", "cactus", "bm"), "'bm'"),
    ("seeds", (0, 1, 1), "1"),
])
def test_suite_config_rejects_repeated_keys(field, value, repeated):
    settings = {"instances": (k5_ref(),), "algorithms": ("bm",), "seeds": (0,), field: value}
    with pytest.raises(ValueError, match=re.escape(f" {repeated}")):
        SuiteConfig(**settings)
    # The same instance id in two sets names two cells.
    SuiteConfig(instances=(k5_ref(), InstanceRef("k5", "other", graph=complete_graph(4))),
                algorithms=("bm",), seeds=(0,))


def test_cli_run_refuses_two_files_with_one_stem(tmp_path, capsys):
    for sub, g in (("a", complete_graph(4)), ("b", complete_graph(5))):
        (tmp_path / sub).mkdir()
        write_graph(g, tmp_path / sub / "x.el")
    out = tmp_path / "rec.csv"
    argv = ["run", "--instances", str(tmp_path / "a" / "x.el"), str(tmp_path / "b" / "x.el"),
            "--algorithms", "cactus", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "('files', 'x')" in err and "Traceback" not in err
    assert not out.exists()  # refused before any cell runs


def test_read_records_csv_refuses_repeated_cell(tmp_path):
    p = tmp_path / "r.csv"
    emit_records_csv([rec(algorithm="a"), rec(algorithm="b"), rec(algorithm="a", kept=5)], p)
    with pytest.raises(ValueError, match=r"r\.csv:4: repeated .*'a', 0\)"):
        read_records_csv(p)
    emit_records_csv([rec(seed=0), rec(seed=1), rec(set_label="t"), rec(instance="j")], p)
    assert len(read_records_csv(p)) == 4


def test_read_records_csv_refuses_unknown_status(tmp_path):
    # An `okay` row used to be read, and aggregate() counted it as a timeout.
    p = tmp_path / "r.csv"
    emit_records_csv([rec(algorithm="a"), rec(algorithm="b", status="okay")], p)
    with pytest.raises(ValueError, match=r"r\.csv:3: unknown status 'okay'"):
        read_records_csv(p)
    statuses = ("ok", "timeout", "memory", "error")
    emit_records_csv([rec(algorithm=s, status=s) for s in statuses], p)
    assert [r.status for r in read_records_csv(p)] == list(statuses)


@pytest.mark.parametrize("argv", [
    ["run", "--algorithms", "naive", "--restarts", "0"],
    ["run", "--algorithms", "cactus", "--time-limit-ms", "0"],
    ["run", "--algorithms", "cactus", "--time-limit-ms", "inf"],
    ["run", "--algorithms", "cactus", "--time-limit-ms", "1e400"],
    ["exact", "--time-limit-ms", "0"],
    ["exact", "--time-limit-ms", "inf"],
    ["export-ilp", "--time-limit-ms", "0"],
    ["planarize", "--algorithm", "naive", "--restarts", "0"],
    ["planarize", "--algorithm", "cactus+", "--restarts", "0"],
    ["run", "--algorithms", "cactus", "--workers", "0"],
    ["run", "--algorithms", "cactus", "--seeds=-7,7"],
], ids=["run-restarts", "run-time-limit", "run-time-limit-inf", "run-time-limit-1e400",
        "exact-time-limit", "exact-time-limit-inf", "export-ilp-time-limit",
        "planarize-restarts", "planarize-restarts-cactus+", "run-workers", "run-negative-seed"])
def test_cli_rejects_invalid_settings_up_front(tmp_path, capsys, argv):
    # Before, `run --restarts 0` made an error record per naive cell and
    # exited 2, `run --time-limit-ms 0` ran with no limit at all, and the
    # other commands died with a traceback.  An infinite limit made `run` die
    # in the worker wait and `exact` run unbounded.  Seeds -7 and 7 ran one
    # computation as two cells, since Random(-7) draws what Random(7) draws.
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


@pytest.mark.parametrize("argv, message", [
    (["--algorithms", "planarize:exact"], "unknown algorithm 'planarize:exact'"),
    (["--algorithms", "cactus", "--gen", "foo:n=10,density=2"], "unknown family 'foo'"),
    (["--algorithms", ","], "no algorithms in ','"),
    (["--algorithms", "cactus", "--seeds", "0:5:2"], "bad seeds '0:5:2': invalid literal"),
    (["--algorithms", "cactus", "--gen", "regular:n=20,density=2,sed=5"],
     "bad generator spec 'regular:n=20,density=2,sed=5': unknown key 'sed'"),
    (["--algorithms", "cactus", "--gen", "regular:n=100,density=3,n=200"],
     "bad generator spec 'regular:n=100,density=3,n=200': repeated key 'n'"),
    (["--algorithms", "cactus", "--gen", "regular:n=20,density=2,seed=-1"],
     "bad generator spec 'regular:n=20,density=2,seed=-1': seed must be >= 0, got -1"),
    (["--algorithms", "cactus", "--seeds", "1_0"], "bad seeds '1_0': invalid literal"),
    (["--algorithms", "cactus", "--gen", "regular:n=2_0,density=2"],
     "bad generator spec 'regular:n=2_0,density=2': invalid literal"),
    (["--algorithms", "cactus", "--restarts", "1_0"],
     "argument --restarts: invalid ascii_int value: '1_0'"),
], ids=["label", "family", "no-algorithms", "seeds", "gen-unknown-key", "gen-repeated-key",
        "gen-negative-seed", "seeds-underscore", "gen-underscore", "restarts-underscore"])
def test_cli_run_refuses_bad_label_and_family(tmp_path, capsys, argv, message):
    # The label and family used to pass the CLI and come back as `error`
    # records (exit 2), the family one with n = m = 0; `--algorithms ,` ran
    # nothing and exited 0; a bad `--seeds` was reported without its text; a
    # misspelt --gen key ran with its default, a repeated one with its last value.
    # Integers read by `int` took `1_0` as 10: `--seeds 1_0` ran seed 10.
    write_graph(complete_graph(5), tmp_path / "k5.el")
    out = tmp_path / "rec.csv"
    argv = ["run", "--instances", str(tmp_path / "k5.el")] + argv + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


SELF_LOOP = ("3\n0 1\n1 1\n", 3)
DUPLICATE_EDGE = ("3\n0 1\n1 2\n1 0\n", 4)


@pytest.mark.parametrize("command, bad_file", [
    ("exact", SELF_LOOP), ("exact", DUPLICATE_EDGE),
    ("planarize", SELF_LOOP), ("planarize", DUPLICATE_EDGE),
    ("export-ilp", SELF_LOOP), ("export-ilp", DUPLICATE_EDGE),
    ("gen", None),
], ids=["exact-self-loop", "exact-duplicate-edge", "planarize-self-loop",
        "planarize-duplicate-edge", "export-ilp-self-loop", "export-ilp-duplicate-edge",
        "gen-seeds"])
def test_cli_reports_input_errors_without_traceback(tmp_path, capsys, command, bad_file):
    out = tmp_path / "out"
    if bad_file is None:
        argv = ["gen", "--family", "regular", "--n", "10", "--density", "2",
                "--seeds", "1-3"]
    else:
        body, line = bad_file
        path = tmp_path / "bad.el"
        path.write_text(body)
        argv = [command, str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if bad_file is not None:
        assert f"{path}:{line}: " in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["exact", "planarize"])
def test_cli_checks_output_format_before_the_work(tmp_path, capsys, monkeypatch, command):
    # A `.txt` --out used to be refused only after the search or planarization.
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} ran before its --out was checked")

    monkeypatch.setattr("maxplanar.cli.exact_from_cactus_plus", no_work)
    monkeypatch.setattr("maxplanar.cli.run_algorithm", no_work)
    write_graph(complete_graph(5), tmp_path / "k5.el")
    out = tmp_path / "out.txt"
    assert main([command, str(tmp_path / "k5.el"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot detect graph format") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["exact", "aggregate"])
def test_cli_reports_unreadable_input_without_traceback(tmp_path, capsys, command):
    # A directory where the input file should be used to end in an
    # IsADirectoryError traceback.
    path = tmp_path / ("d.el" if command == "exact" else "d.csv")
    path.mkdir()
    out = tmp_path / "out"
    if command == "exact":
        argv = ["exact", str(path)]
    else:
        argv = ["aggregate", "--records", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot read")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["exact", "planarize", "export-ilp", "run", "gen", "aggregate"])
def test_cli_reports_unwritable_output_without_traceback(tmp_path, capsys, monkeypatch, command):
    # Each used to end in an IsADirectoryError or FileExistsError traceback;
    # `run` only after the whole suite had run, and `exact`, `planarize` and
    # `export-ilp` after their search or planarization.  Now each fails
    # before any work.
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} worked with an unwritable --out")

    for name in ("run_suite", "exact_from_cactus_plus", "exact_skewness", "run_algorithm"):
        monkeypatch.setattr(f"maxplanar.cli.{name}", no_work)
    write_graph(complete_graph(5), tmp_path / "k5.el")
    k5 = str(tmp_path / "k5.el")
    if command in ("gen", "aggregate"):
        bad = tmp_path / "taken.txt"  # a file where a directory should go
        bad.write_text("")
    else:
        bad = tmp_path / {"run": "d.csv", "export-ilp": "d.lp"}.get(command, "d.el")
        bad.mkdir()
    if command == "gen":
        argv = ["gen", "--family", "regular", "--n", "10", "--density", "2", "--out", str(bad)]
    elif command == "aggregate":
        records = tmp_path / "rec.csv"
        emit_records_csv([rec()], records)
        argv = ["aggregate", "--records", str(records), "--out", str(tmp_path / "agg.csv"),
                "--plot-dir", str(bad)]
    elif command == "run":
        argv = ["run", "--instances", k5, "--algorithms", "bm", "--workers", "1",
                "--out", str(bad)]
    else:
        argv = [command, k5, "--out", str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: cannot ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "agg.csv").exists()  # aggregate used to write it, then fail


@pytest.mark.parametrize("command", ["run", "exact", "planarize", "export-ilp"])
def test_cli_failed_work_keeps_an_existing_output(tmp_path, capsys, monkeypatch, command):
    # Claiming --out used to truncate it, so a run that failed or was
    # interrupted mid-work destroyed the previous result.
    def failing_work(*args, **kwargs):
        raise ValueError("the work failed")

    for name in ("run_suite", "exact_from_cactus_plus", "run_algorithm"):
        monkeypatch.setattr(f"maxplanar.cli.{name}", failing_work)
    write_graph(complete_graph(5), tmp_path / "k5.el")
    k5 = str(tmp_path / "k5.el")
    out = tmp_path / {"run": "prev.csv", "export-ilp": "prev.lp"}.get(command, "prev.el")
    out.write_bytes(b"previous result\n")
    if command == "run":
        argv = ["run", "--instances", k5, "--algorithms", "bm", "--workers", "1"]
    else:
        argv = [command, k5]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: the work failed\n"
    assert out.read_bytes() == b"previous result\n"


def test_aggregate_and_plot_files_quote_labels(tmp_path):
    def emit(set_label: str) -> dict[str, str]:
        rows = aggregate([
            rec(set_label=set_label, algorithm="bm", kept=9),
            rec(set_label=set_label, algorithm="cactus+", kept=6),
            rec(set_label=set_label, algorithm="naive", status="timeout"),
        ])
        out = tmp_path / set_label
        out.mkdir()
        emit_aggregate_csv(rows, out / "agg.csv")
        emit_plot_data(rows, out, "series")
        return {p.name: p.read_text() for p in sorted(out.iterdir())}

    # A label with a comma is quoted, so every row parses to the header's width.
    for text in emit("a,b").values():
        rows = list(csv.reader(io.StringIO(text)))
        assert {len(row) for row in rows} == {len(rows[0])}
    # Without one, no field is quoted.
    assert emit("s") == {
        "agg.csv": (
            "group,algorithm,ok_count,timeout_count,rel_min,rel_avg,rel_max\n"
            "s:10,bm,1,0,1.000000,1.000000,1.000000\n"
            "s:10,cactus+,1,0,0.666667,0.666667,0.666667\n"
            "s:10,naive,0,1,,,\n"
        ),
        "series_bm.csv": "set,x,rel_min,rel_avg,rel_max\ns,10,1.000000,1.000000,1.000000\n",
        "series_cactusplus.csv": (
            "set,x,rel_min,rel_avg,rel_max\ns,10,0.666667,0.666667,0.666667\n"
        ),
        "series_naive.csv": "set,x,rel_min,rel_avg,rel_max\n",
    }
