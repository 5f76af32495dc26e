"""Command-line interface: run one instance, verify a coloring file, or
sweep a parameter grid.  The exhaustive tiny-scale oracles of the
derandomization run under pytest (tests/oracles.py), not here.

Exit codes: 0 success, 1 verification failure, 2 input error (an output
path that cannot be written included), 3 internal invariant violation or
any other crash of an algorithm run.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import sys
from itertools import product
from typing import NoReturn

import click
import numpy as np

from .config import Config, load_config, parse_override
from .coloring import is_proper
from .errors import CliqueError, InputError
from .graphs import check_random_graph_params, gen_random_graph, load_graph
from .harness import (ALGORITHMS, read_coloring, run_algorithm,
                      write_coloring)


def _input_error(exc: Exception) -> NoReturn:
    click.echo(f"input error: {exc}", err=True)
    sys.exit(2)


def _check_writable(path: str) -> None:
    """Raise the OSError that writing `path` would raise, without writing
    it: a directory, a missing parent directory or a path not writable."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _parse_gen(spec: str):
    try:
        n_s, p_s = spec.split(",")
        return int(n_s), float(p_s)
    except ValueError as exc:
        raise InputError(f"--gen expects 'n,p', got {spec!r}") from exc


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:  # also rejects nan
        raise InputError(f"--eps must lie in (0, 1), got {eps}")


def _load_instance(graph_path, gen, seed):
    if (graph_path is None) == (gen is None):
        raise InputError("exactly one of --graph or --gen is required")
    if graph_path:
        return load_graph(graph_path)
    n, p = _parse_gen(gen)
    return gen_random_graph(n, p, seed)


def _build_config(config_path, overrides, seed):
    kv = {}
    for item in overrides:
        if "=" not in item:
            raise InputError(f"override {item!r} is not key=value")
        k, v = item.split("=", 1)
        try:
            kv[k] = parse_override(k, v)
        except KeyError as exc:
            raise InputError(f"unknown config key {k!r}") from exc
    try:
        cfg = load_config(config_path, kv)
    except KeyError as exc:
        raise InputError(f"{config_path}: {exc.args[0]}") from exc
    if seed is not None:
        cfg = cfg.with_overrides(rng_seed=seed)
    return cfg


def _emit(report: dict, out, fmt: str):
    if fmt == "json":
        text = json.dumps(report, indent=2, default=str, sort_keys=True)
    else:
        flat = {k: v for k, v in report.items()
                if not isinstance(v, (dict, list))}
        text = ",".join(str(k) for k in flat) + "\n" + \
            ",".join(str(v) for v in flat.values())
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@click.group()
def main():
    """Congested-clique coloring simulator."""


@main.command("run")
@click.option("--algo", type=click.Choice(ALGORITHMS), required=True)
@click.option("--graph", "graph_path", type=click.Path(exists=True))
@click.option("--gen", help="generate a random instance: n,p")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--set", "overrides", multiple=True,
              help="config override key=value (repeatable)")
@click.option("--eps", type=float, default=0.25, show_default=True,
              help="epsilon in (0, 1) for the manycolors budget")
@click.option("--out", type=click.Path())
@click.option("--coloring-out", type=click.Path(),
              help="also write the coloring (vertex color per line)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def run_cmd(algo, graph_path, gen, seed, config_path, overrides, eps, out,
            coloring_out, fmt):
    """Run one algorithm on one instance and emit a report."""
    try:
        _check_eps(eps)
        for path in (out, coloring_out):
            if path:
                _check_writable(path)
        graph = _load_instance(graph_path, gen, seed)
        cfg = _build_config(config_path, overrides, seed)
    except (InputError, OSError, ValueError) as exc:
        _input_error(exc)
    try:
        coloring, report = run_algorithm(algo, graph, cfg, eps=eps)
    except (AssertionError, CliqueError) as exc:
        click.echo(f"internal invariant violation: {exc}", err=True)
        sys.exit(3)
    except Exception as exc:  # any other crash: exit 3, not a traceback
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)
    try:  # a path that became unwritable during the run
        if coloring_out:
            write_coloring(coloring, coloring_out)
        _emit(report, out, fmt)
    except OSError as exc:
        _input_error(exc)
    if not (report["proper"] and report["within_budget"]
            and report["bandwidth_ok"]):
        sys.exit(1)


@main.command("verify")
@click.option("--graph", "graph_path", type=click.Path(exists=True),
              required=True)
@click.option("--coloring", "coloring_path", type=click.Path(exists=True),
              required=True)
def verify_cmd(graph_path, coloring_path):
    """Check a coloring file against a graph file."""
    try:
        graph = load_graph(graph_path)
        coloring = read_coloring(coloring_path, graph.n)
    except (InputError, OSError, ValueError) as exc:
        _input_error(exc)
    verdict = is_proper(graph, coloring, None)
    if verdict is True:
        click.echo("proper")
        return
    click.echo(f"violation: {verdict}")
    sys.exit(1)


@main.command("sweep")
@click.option("--algos", required=True, help="comma-separated algorithms")
@click.option("--n", "ns", required=True, help="comma-separated sizes")
@click.option("--density", "densities", required=True,
              help="comma-separated edge probabilities")
@click.option("--seeds", default="0", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--set", "overrides", multiple=True)
@click.option("--eps", type=float, default=0.25, show_default=True,
              help="epsilon in (0, 1) for the manycolors budget")
@click.option("--out", type=click.Path(), help="directory for reports")
def sweep_cmd(algos, ns, densities, seeds, config_path, overrides, eps,
              out):
    """Run an (algorithm x n x density x seed) grid: a CSV summary on
    stdout and, with --out, one JSON report per cell plus summary.csv.

    Every size, density, config and eps is checked, the --out directory
    made and every report path in it checked, before the first cell runs;
    a report that cannot be written is an input error (exit 2).  A cell
    whose run crashes is reported and skipped, and the sweep then exits
    3; otherwise an improper or over-budget cell makes it exit 1."""
    try:
        _check_eps(eps)
        algo_list = [a.strip() for a in algos.split(",") if a.strip()]
        for a in algo_list:
            if a not in ALGORITHMS:
                raise InputError(f"unknown algorithm {a!r}")
        n_list = [int(x) for x in ns.split(",")]
        d_list = [float(x) for x in densities.split(",")]
        seed_list = [int(x) for x in seeds.split(",")]
        for n in n_list:
            for p in d_list:
                check_random_graph_params(n, p)
        cfgs = {s: _build_config(config_path, overrides, s)
                for s in seed_list}
        if out:  # last, so a rejected grid writes nothing
            os.makedirs(out, exist_ok=True)
            _check_writable(os.path.join(out, "summary.csv"))
            for n, p, s, algo in product(n_list, d_list, seed_list,
                                         algo_list):
                _check_writable(_cell_report(out, algo, n, p, s))
    except (InputError, OSError, ValueError) as exc:
        _input_error(exc)
    rows = []
    failed = crashed = False
    for n in n_list:
        for p in d_list:
            for s in seed_list:
                graph = gen_random_graph(n, p, s)
                for algo in algo_list:
                    try:
                        _, rep = run_algorithm(algo, graph, cfgs[s],
                                               eps=eps)
                    except Exception as exc:  # report the cell, go on
                        click.echo(f"cell ({algo},{n},{p},{s}) crashed: "
                                   f"{type(exc).__name__}: {exc}", err=True)
                        crashed = True
                        continue
                    rows.append(rep)
                    if not (rep["proper"] and rep["within_budget"]):
                        failed = True
                    if out:
                        try:
                            with open(_cell_report(out, algo, n, p, s),
                                      "w") as fh:
                                json.dump(rep, fh, indent=2, default=str,
                                          sort_keys=True)
                        except OSError as exc:
                            _input_error(exc)
    _write_summary(sys.stdout, rows)
    if out:
        try:
            with open(os.path.join(out, "summary.csv"), "w",
                      newline="") as fh:
                _write_summary(fh, rows)
        except OSError as exc:
            _input_error(exc)
    sys.exit(3 if crashed else 1 if failed else 0)


def _cell_report(out: str, algo: str, n: int, p: float, s: int) -> str:
    """The path of one sweep cell's JSON report under `out`."""
    return os.path.join(out, f"{algo}_n{n}_p{p}_s{s}.json")


_SUMMARY_COLS = ["algorithm", "n", "delta", "rng_seed", "proper",
                 "within_budget", "colors_used", "color_budget",
                 "rounds_total", "messages_total", "max_bits_per_pair_round"]


def _write_summary(fh, rows: list) -> None:
    """The sweep's CSV summary, one line per report in `rows`."""
    writer = csv.writer(fh)
    writer.writerow(_SUMMARY_COLS)
    for rep in rows:
        writer.writerow([rep.get(c) for c in _SUMMARY_COLS])


if __name__ == "__main__":
    main()
