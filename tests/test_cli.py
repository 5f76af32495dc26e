"""CLI surface: run, verify, sweep; exit codes and formats."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from ccclique.cli import main
from ccclique.graphs import Graph, gen_random_graph, save_graph
from ccclique.harness import run_algorithm, write_coloring


@pytest.fixture()
def runner():
    return CliRunner()


def test_run_reports_json(tmp_path, runner):
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["run", "--algo", "det", "--gen", "64,0.3",
                               "--seed", "7", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    for key in ("schema_version", "n", "delta", "algorithm", "config",
                "rng_seed", "rounds_total", "rounds_by_stage",
                "messages_total", "max_bits_per_pair_round", "colors_used",
                "proper", "assertion_log", "wall_time"):
        assert key in rep
    assert rep["proper"] is True and rep["n"] == 64


def test_run_reports_reproducible(tmp_path, runner):
    outs = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        res = runner.invoke(main, ["run", "--algo", "fast", "--gen",
                                   "128,0.4", "--seed", "5",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rep = json.loads(out.read_text())
        rep.pop("wall_time")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_run_graph_file_and_coloring_roundtrip(tmp_path, runner):
    g = gen_random_graph(40, 0.3, 3)
    gpath = tmp_path / "g.el"
    save_graph(g, str(gpath))
    cpath = tmp_path / "c.txt"
    res = runner.invoke(main, ["run", "--algo", "clp", "--graph",
                               str(gpath), "--seed", "1",
                               "--coloring-out", str(cpath)])
    assert res.exit_code == 0, res.output
    res2 = runner.invoke(main, ["verify", "--graph", str(gpath),
                                "--coloring", str(cpath)])
    assert res2.exit_code == 0
    assert "proper" in res2.output


def test_verify_rejects_improper(tmp_path, runner):
    g = gen_random_graph(10, 0.8, 1)
    gpath = tmp_path / "g.el"
    save_graph(g, str(gpath))
    bad = np.ones(10, dtype=np.int64)  # monochromatic everywhere
    cpath = tmp_path / "bad.txt"
    write_coloring(bad, str(cpath))
    res = runner.invoke(main, ["verify", "--graph", str(gpath),
                               "--coloring", str(cpath)])
    assert res.exit_code == 1
    assert "violation" in res.output.lower()


@pytest.mark.parametrize("text,message", [
    ("0 -5\n1 2\n2 -5\n", "line 1: negative color -5"),
    ("0 1\n1 2\n0 3\n2 1\n", "line 3: vertex 0 listed twice"),
    ("# colors\n0 1\n1 0\n1 2\n2 1\n", "line 4: vertex 1 listed twice"),
    ("0 x\n", "line 1: non-integer vertex or color"),
    ("0 1\n1.5 2\n", "line 2: non-integer vertex or color"),
])
def test_verify_rejects_malformed_coloring(tmp_path, runner, text, message):
    # the path 0-1-2; each file would read as proper if parsed leniently
    gpath = tmp_path / "g.el"
    gpath.write_text("# n=3\n0 1\n1 2\n")
    cpath = tmp_path / "c.txt"
    cpath.write_text(text)
    res = runner.invoke(main, ["verify", "--graph", str(gpath),
                               "--coloring", str(cpath)])
    assert res.exit_code == 2
    assert f"input error: {message}" in res.output


def test_graph_file_header_errors_exit_2(tmp_path, runner):
    gpath = tmp_path / "g.el"
    gpath.write_text("# n=2\n0 5\n")
    res = runner.invoke(main, ["run", "--algo", "det", "--graph", str(gpath)])
    assert res.exit_code == 2
    assert "vertex 5 at or above the pinned n=2" in res.output
    gpath.write_text("# run=300 of the sweep\n0 1\n")
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["run", "--algo", "det", "--graph", str(gpath),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["n"] == 2


@pytest.mark.parametrize("text", ["# n=0\n", "# no pin, no edge\n", ""])
def test_graph_file_without_vertices_exits_2(tmp_path, runner, text):
    # a graph file that names no vertex is rejected by run and by verify,
    # as --gen 0,p is, instead of reading as one isolated vertex
    gpath = tmp_path / "g.el"
    gpath.write_text(text)
    cpath = tmp_path / "c.txt"
    cpath.write_text("")
    res = runner.invoke(main, ["run", "--algo", "det", "--graph", str(gpath)])
    assert res.exit_code == 2
    assert "input error: the edge list names no vertex" in res.output
    res = runner.invoke(main, ["verify", "--graph", str(gpath),
                               "--coloring", str(cpath)])
    assert res.exit_code == 2


def test_sweep_grid_counts(tmp_path, runner):
    res = runner.invoke(main, [
        "sweep", "--algos", "det,detsq", "--n", "16,32,64",
        "--density", "0.1,0.5", "--seeds", "0"])
    assert res.exit_code == 0, res.output
    lines = [l for l in res.output.strip().splitlines() if l]
    assert len(lines) == 1 + 12  # header + 2 algos x 3 sizes x 2 densities


def test_sweep_writes_reports(tmp_path, runner):
    out = tmp_path / "reports"
    res = runner.invoke(main, [
        "sweep", "--algos", "det", "--n", "16", "--density", "0.5",
        "--out", str(out)])
    assert res.exit_code == 0
    assert (out / "summary.csv").exists()
    assert (out / "det_n16_p0.5_s0.json").exists()


def test_input_errors_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["run", "--algo", "det"])
    assert res.exit_code == 2
    res2 = runner.invoke(main, ["run", "--algo", "det", "--gen", "16,0.5",
                                "--set", "nonsense=4"])
    assert res2.exit_code == 2
    res3 = runner.invoke(main, ["sweep", "--algos", "bogus", "--n", "16",
                                "--density", "0.5"])
    assert res3.exit_code == 2
    res4 = runner.invoke(main, ["run", "--algo", "det", "--gen", "oops"])
    assert res4.exit_code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nonsense": 4}')
    res5 = runner.invoke(main, ["run", "--algo", "det", "--gen", "16,0.5",
                                "--config", str(cfg)])
    assert res5.exit_code == 2


@pytest.mark.parametrize("kv", ["lenzen_cost=-1", "seed_broadcast_cost=-1",
                                "c_fit=0", "c_word=0"])
def test_out_of_range_config_exits_2(runner, kv):
    # each value used to crash mid-run with exit 3, or run in a model
    # whose words carry no vertex id (c_word=0)
    res = runner.invoke(main, ["run", "--algo", "manycolors", "--gen",
                               "64,0.3", "--set", kv])
    assert res.exit_code == 2
    assert "input error" in res.output
    res2 = runner.invoke(main, ["sweep", "--algos", "det", "--n", "16",
                                "--density", "0.5", "--set", kv])
    assert res2.exit_code == 2


@pytest.mark.parametrize("key", ["c_phase", "chunk_bits", "const_deg_cap",
                                 "eval_budget", "big_k", "one_shot_iters",
                                 "dense_iters", "bidding_iters",
                                 "retry_budget", "d_independence"])
def test_removed_config_keys_exit_2(runner, key):
    # no code read the first three knobs; eval_budget let a host cost
    # estimate set the seed chunk width, which the model now fixes; the
    # last six are the method's O(1)s, now constants of the colorers
    res = runner.invoke(main, ["run", "--algo", "det", "--gen", "16,0.5",
                               "--set", f"{key}=4"])
    assert res.exit_code == 2
    assert f"unknown config key {key!r}" in res.output


def test_unexpected_crash_exits_3(runner, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr("ccclique.cli.run_algorithm", crash)
    res = runner.invoke(main, ["run", "--algo", "det", "--gen", "16,0.5"])
    assert res.exit_code == 3
    assert "internal error: RuntimeError: boom" in res.output
    assert "Traceback" not in res.output


def test_sweep_bad_input_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["sweep", "--algos", "det", "--n", "16",
                               "--density", "0.5", "--set", "nonsense=4"])
    assert res.exit_code == 2
    assert "input error" in res.output
    res2 = runner.invoke(main, ["sweep", "--algos", "det", "--n", "16",
                                "--density", "0.5", "--set", "c_word"])
    assert res2.exit_code == 2
    res3 = runner.invoke(main, ["sweep", "--algos", "det", "--n", "0",
                                "--density", "0.5"])
    assert res3.exit_code == 2
    assert "input error" in res3.output
    # a bad size later in the grid stops the sweep before any cell runs
    out = tmp_path / "reports"
    res4 = runner.invoke(main, ["sweep", "--algos", "det", "--n", "16,0",
                                "--density", "0.5", "--out", str(out)])
    assert res4.exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run", "--algo", "det", "--gen", "16,0.5",
     "--out", "{tmp}/missing/r.json"],
    # a directory cannot be opened for writing, whoever runs the test
    ["run", "--algo", "det", "--gen", "16,0.5", "--coloring-out", "{tmp}"],
    ["sweep", "--algos", "det", "--n", "16", "--density", "0.5",
     "--out", "{tmp}/file"],
], ids=["run-out-in-missing-dir", "run-coloring-out-onto-dir",
        "sweep-out-naming-a-file"])
def test_unwritable_output_path_exits_2(runner, tmp_path, args):
    (tmp_path / "file").write_text("kept\n")
    res = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert res.exit_code == 2, res.output
    assert "input error" in res.output and "Traceback" not in res.output
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("args", [
    ["--out", "{tmp}/missing/r.json"],
    ["--coloring-out", "{tmp}"],
    ["--out", "{tmp}/r.json", "--coloring-out", "{tmp}/missing/c.txt"],
], ids=["out-in-missing-dir", "coloring-out-onto-dir",
        "coloring-out-in-missing-dir"])
def test_run_checks_output_paths_before_running(runner, tmp_path,
                                                monkeypatch, args):
    def never(*_args, **_kwargs):
        raise AssertionError("run_algorithm called")
    monkeypatch.setattr("ccclique.cli.run_algorithm", never)
    res = runner.invoke(main, ["run", "--algo", "det", "--gen", "4096,0.8"]
                        + [a.format(tmp=tmp_path) for a in args])
    assert res.exit_code == 2, res.output
    assert res.output.count("input error:") == 1
    assert len(res.output.splitlines()) == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("eps", ["-1", "0", "1", "2", "1e308", "nan"])
def test_eps_outside_unit_interval_exits_2(runner, tmp_path, eps):
    # these used to reach many_colors_coloring and exit 3 as a crash
    res = runner.invoke(main, ["run", "--algo", "manycolors", "--gen",
                               "64,0.3", "--eps", eps])
    assert res.exit_code == 2
    assert "input error" in res.output and "--eps" in res.output
    # sweep rejects it before the first cell runs
    out = tmp_path / "reports"
    res2 = runner.invoke(main, ["sweep", "--algos", "manycolors", "--n",
                                "64", "--density", "0.3", "--eps", eps,
                                "--out", str(out)])
    assert res2.exit_code == 2
    assert "input error" in res2.output
    assert not out.exists()


def test_sweep_crash_exits_3(runner, tmp_path, monkeypatch):
    real = run_algorithm

    def crash_det(algo, *args, **kwargs):
        if algo == "det":
            raise RuntimeError("boom")
        return real(algo, *args, **kwargs)
    monkeypatch.setattr("ccclique.cli.run_algorithm", crash_det)
    res = runner.invoke(main, ["sweep", "--algos", "det,fast", "--n", "16",
                               "--density", "0.5", "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "cell (det,16,0.5,0) crashed: RuntimeError: boom" in res.output
    assert "Traceback" not in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["fast_n16_p0.5_s0.json", "summary.csv"]


def test_config_overrides_take_effect(tmp_path, runner):
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["run", "--algo", "det", "--gen", "32,0.3",
                               "--set", "lenzen_cost=5",
                               "--out", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["lenzen_cost"] == 5


@pytest.mark.parametrize("algo,instance,c_fit", [
    ("det", ["--gen", "300,0.9"], "0.5"),
    ("clp", ["--gen", "300,0.9"], "0.5"),
    ("det", None, "0.9")], ids=["det-G300", "clp-G300", "det-K1,16"])
def test_run_partition_part_above_n34_gate_exits_0(tmp_path, runner, algo,
                                                    instance, c_fit):
    """det and clp at c_fit < 1 on a graph whose partition parts miss the
    n^(3/4) gate (G(300, 0.9), or K_{1,16} as an edge list) color those
    parts centrally and exit 0 instead of 3."""
    if instance is None:
        path = tmp_path / "star.el"
        save_graph(Graph.from_edges(17, [(0, i) for i in range(1, 17)]),
                   str(path))
        instance = ["--graph", str(path)]
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["run", "--algo", algo, *instance, "--seed",
                               "1", "--set", f"c_fit={c_fit}",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["proper"] is True and rep["within_budget"] is True
    assert rep["bandwidth_ok"] is True
    assert any(e.get("note") == "fallback" and e["reason"] == "n34-bound"
               for e in rep["assertion_log"])


@pytest.mark.parametrize("algo,n,settings", [
    ("det", 2, ["c_fit=0.25"]), ("det", 3, ["c_fit=0.5"]),
    ("clp", 3, ["delta_min=1", "c_fit=0.5"])])
def test_run_partition_of_two_or_three_vertices_exits_0(tmp_path, runner,
                                                        algo, n, settings):
    """K_2 and K_3 below c_fit 1 miss the n^(3/4) gate, so det (and clp,
    which hands them to det) partitions them into two parts.  The second
    part cannot own leaders apart from the first's, so it seeds after it
    as instance 0, and the run exits 0 within Delta+1 colors."""
    out = tmp_path / "r.json"
    sets = [arg for kv in settings for arg in ("--set", kv)]
    res = runner.invoke(main, ["run", "--algo", algo, "--gen", f"{n},1",
                               *sets, "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["proper"] is True and rep["colors_used"] == n


def test_run_csv_format(runner):
    res = runner.invoke(main, ["run", "--algo", "detsq", "--gen", "32,0.4",
                               "--format", "csv"])
    assert res.exit_code == 0, res.output
    header, row = res.output.strip().splitlines()[:2]
    assert "rounds_total" in header and len(row.split(",")) == \
        len(header.split(","))


def test_sweep_has_no_format_option(runner):
    # sweep always writes JSON reports and a CSV summary
    res = runner.invoke(main, ["sweep", "--algos", "det", "--n", "16",
                               "--density", "0.5", "--format", "csv"])
    assert res.exit_code == 2
    assert "--format" in res.output


def test_debug_checks_mode(runner):
    res = runner.invoke(main, ["run", "--algo", "clp", "--gen", "48,0.2",
                               "--set", "debug_checks=true"])
    assert res.exit_code == 0, res.output


def test_selftest_is_no_command(runner):
    # the exhaustive oracles run under pytest (tests/oracles.py)
    res = runner.invoke(main, ["selftest"])
    assert res.exit_code == 2
    assert "No such command" in res.output
