"""CLI surface: run, verify, sweep, selftest; exit codes and formats."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from ccclique.cli import main
from ccclique.graphs import gen_random_graph, save_graph
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


@pytest.mark.parametrize("kv", ["big_k=1", "big_k=0", "retry_budget=-1",
                                "d_independence=0", "lenzen_cost=-1",
                                "seed_broadcast_cost=-1", "c_fit=0",
                                "c_word=0"])
def test_out_of_range_config_exits_2(runner, kv):
    # each value used to hang (big_k=1), crash mid-run with exit 3, or
    # run in a model whose words carry no vertex id (c_word=0)
    res = runner.invoke(main, ["run", "--algo", "manycolors", "--gen",
                               "64,0.3", "--set", kv])
    assert res.exit_code == 2
    assert "input error" in res.output
    res2 = runner.invoke(main, ["sweep", "--algos", "det", "--n", "16",
                                "--density", "0.5", "--set", kv])
    assert res2.exit_code == 2


@pytest.mark.parametrize("key", ["c_phase", "chunk_bits", "const_deg_cap",
                                 "eval_budget"])
def test_removed_config_keys_exit_2(runner, key):
    # no code read the first three knobs; eval_budget let a host cost
    # estimate set the seed chunk width, which the model now fixes
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


def test_run_csv_format(runner):
    res = runner.invoke(main, ["run", "--algo", "detsq", "--gen", "32,0.4",
                               "--format", "csv"])
    assert res.exit_code == 0, res.output
    header, row = res.output.strip().splitlines()[:2]
    assert "rounds_total" in header and len(row.split(",")) == \
        len(header.split(","))


def test_debug_checks_mode(runner):
    res = runner.invoke(main, ["run", "--algo", "clp", "--gen", "48,0.2",
                               "--set", "debug_checks=true"])
    assert res.exit_code == 0, res.output


def test_selftest_command(runner):
    res = runner.invoke(main, ["selftest"])
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output
    assert "selftests passed" in res.output
