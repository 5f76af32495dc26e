"""ccclique benchmark: host cost and model cost of fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload derand-n34 --seed 1 --seconds 20 \
        --trace 0

Each workload is a closed loop with a single client: one process, no
threads, iterations back to back.  An iteration runs every (entry point,
graph) pair of the workload through `ccclique.harness.run_algorithm` and
checks each report.  Graphs come from `gen_random_graph`, seeded from
`--seed`; the program receives only the generated graphs.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates traced
and untraced iterations and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A fuller record (context, samples,
failures, stage rounds) goes to `perfbench/results/`.  See
perfbench/README.md for every metric.
"""

from __future__ import annotations

import os

# one thread per process: pin native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Target, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_REPEATS = 5

# stages in which distributed_seed_agreement runs
SEED_STAGES = ("sqrt:seed", "deltasq:seed", "n34:bins", "n34:seed")


# ============================== workloads ============================== #

@dataclass(frozen=True)
class Cell:
    """Entry points run on `replicas` graphs G(n, p); replica j uses graph
    seed `seed + 1000 * j`.  The cell's runs together must charge rounds
    to each stage in `require` (its regime guard)."""

    algos: tuple
    n: int
    p: float
    replicas: int = 1
    require: tuple = ()


@dataclass(frozen=True)
class Workload:
    cells: tuple
    why: str
    forbid_seed_stages: bool = False


WORKLOADS = {
    "gather-dense": Workload(
        cells=(Cell(("fast", "manycolors", "det"), 4096, 0.8),),
        forbid_seed_stages=True,
        why="acceptance-grid cell G(4096, 0.8): every entry point ends in "
            "a charged central greedy, so graphs and coloring do the work "
            "and derand none"),
    "derand-sqrt": Workload(
        cells=(Cell(("detsq",), 1024, 0.0075, 4,
                    require=("deltasq:seed",)),
               Cell(("det",), 256, 0.015, 3, require=("sqrt:seed",))),
        why="det in the sqrt regime and detsq run real derandomized seed "
            "rounds on small graphs, so seed search (derand, gf2) "
            "dominates"),
    "derand-n34": Workload(
        cells=(Cell(("det",), 96, 0.12, 20,
                    require=("n34:bins", "n34:seed")),),
        why="det reaches the n^(3/4) bin colorer's A1 branch: many small "
            "objectives built term by term through gf2 inside "
            "classify_and_bin"),
}


# ============================== tracing ================================ #

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


TARGETS = [
    Target("graphs", "gen_random_graph"),
    Target("graphs", "Graph.neighbors"),
    Target("graphs", "Graph.degrees_within"),
    Target("graphs", "Graph.induced"),
    Target("graphs", "Graph.edge_array"),
    Target("coloring", "greedy_list_color",
           lambda a, k, r: {"vertices": int(r)}),
    Target("coloring", "free_colors"),
    Target("coloring", "is_proper"),
    Target("sim", "Simulator.run_parallel",
           lambda a, k, r: {"branches": len(_arg(a, k, 1, "branches"))}),
    Target("sim", "Simulator.central_solve_counts",
           lambda a, k, r: {"words": 2 * int(_arg(a, k, 1, "n_edges"))
                            + int(_arg(a, k, 2, "payload_words"))}),
    Target("sim", "Simulator.charge_route_counts",
           lambda a, k, r: {"words": int(np.sum(
               _arg(a, k, 1, "out_counts")))}),
    Target("sim", "Simulator.exchange_counts",
           lambda a, k, r: {"messages": len(_arg(a, k, 1, "src"))}),
    Target("sim", "Simulator.broadcast_seed"),
    Target("gf2", "solve_parity_rows"),
    Target("gf2", "EchelonTemplate.__init__"),
    Target("derand", "distributed_seed_agreement"),
    Target("derand", "AffineObjective.node_eval_block"),
    Target("derand", "AffineObjective.eval_block"),
    Target("derand", "AffineObjective.freeze"),
    Target("detcolor", "derand_color_round",
           lambda a, k, r: {"colored": int(r.colored)}),
    Target("detcolor", "classify_and_bin"),
    Target("detcolor", "det_list_color_sqrt"),
    Target("detcolor", "det_list_color_n34"),
    Target("detcolor", "det_delta_sq"),
    Target("randcolor", "recursive_coloring"),
    Target("randcolor", "partition_step"),
    Target("harness", "run_algorithm",
           lambda a, k, r: {"vertices": int(_arg(a, k, 1, "graph").n)}),
]


TIMED = ("calls", "s", "self_s")

# per-layer metric -> (traced callable, statistic, unit); the set-up
# metrics come from the set-up passes, the rest from timed iterations
SETUP_LAYER = {
    "graphs.gen_random_graph.calls": ("graphs.gen_random_graph", "calls",
                                      "count"),
    "graphs.gen_random_graph.s": ("graphs.gen_random_graph", "s", "s"),
}
ITERATION_LAYER = {}
for _name in ("graphs.Graph.neighbors", "graphs.Graph.degrees_within",
              "graphs.Graph.induced", "graphs.Graph.edge_array",
              "coloring.greedy_list_color", "coloring.free_colors",
              "coloring.is_proper", "sim.Simulator.run_parallel",
              "gf2.solve_parity_rows", "derand.distributed_seed_agreement",
              "derand.AffineObjective.node_eval_block",
              "derand.AffineObjective.eval_block",
              "derand.AffineObjective.freeze",
              "detcolor.derand_color_round", "detcolor.classify_and_bin",
              "detcolor.det_list_color_sqrt", "detcolor.det_list_color_n34",
              "detcolor.det_delta_sq", "randcolor.recursive_coloring",
              "randcolor.partition_step", "harness.run_algorithm"):
    for _stat in TIMED:
        ITERATION_LAYER[f"{_name}.{_stat}"] = (
            _name, _stat, "count" if _stat == "calls" else "s")
for _name, _stat in (("coloring.greedy_list_color", "vertices"),
                     ("detcolor.derand_color_round", "colored"),
                     ("sim.Simulator.run_parallel", "branches"),
                     ("sim.Simulator.central_solve_counts", "words"),
                     ("sim.Simulator.charge_route_counts", "words"),
                     ("sim.Simulator.exchange_counts", "messages"),
                     ("sim.Simulator.broadcast_seed", "calls"),
                     ("harness.run_algorithm", "vertices")):
    ITERATION_LAYER[f"{_name}.{_stat}"] = (_name, _stat, "count")
ITERATION_LAYER["gf2.EchelonTemplate.calls"] = (
    "gf2.EchelonTemplate.__init__", "calls", "count")

# stage.<name>.rounds for every stage the three workloads can charge
STAGES = (
    "det:n34", "det:sqrt", "deltasq:remainder", "deltasq:seed",
    "deltasq:tiny", "fallback", "fast:parts", "fast:recursive",
    "fast:sample", "fast:star-central", "fast:star-oneshot", "many:parts",
    "many:recursive", "many:sample", "n34:bins", "n34:central",
    "n34:guard", "n34:seed", "n34:ssets", "n34:stats", "n34:topup",
    "partition:measure", "partition:sample", "partition:split",
    "recursive", "sqrt:central", "sqrt:guard", "sqrt:palettes",
    "sqrt:seed", "sqrt:topup",
)


def stage_metric(stage: str) -> str:
    return f"stage.{stage.replace(':', '-')}.rounds"


# ============================== running ================================ #

class Bench:
    """Runs and checks one workload's calls.  `harness` is the module, so
    each call looks up `run_algorithm` afresh and sees the tracer's
    wrapper while it is installed."""

    def __init__(self, workload: Workload, seed: int, harness, cfg):
        self.workload = workload
        self.seed = seed
        self.harness = harness
        self.cfg = cfg
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.digest = hashlib.sha256()
        self.reference: dict = {}   # (algo, n, p, j) -> report key JSON

    def make_graphs(self, gen):
        return [(cell, j, gen(cell.n, cell.p, self.seed + 1000 * j))
                for cell in self.workload.cells
                for j in range(cell.replicas)]

    def call(self, cell, j, algo, graph):
        """Run one entry point; returns (seconds, report or None, ok)."""
        self.attempted += 1
        before = len(self.failures)
        where = {"algo": algo, "n": cell.n, "p": cell.p,
                 "graph_seed": self.seed + 1000 * j}
        t0 = time.perf_counter()
        try:
            _, report = self.harness.run_algorithm(algo, graph, self.cfg)
        except Exception as exc:  # a crash is a failed run, not an abort
            dt = time.perf_counter() - t0
            self.fail(where, f"raised {type(exc).__name__}: {exc}")
            return dt, None, False
        dt = time.perf_counter() - t0
        for flag in ("proper", "within_budget", "bandwidth_ok"):
            if report.get(flag) is not True:
                self.fail(where, f"{flag} is not true")
        if self.workload.forbid_seed_stages:
            hit = [s for s in SEED_STAGES
                   if report["rounds_by_stage"].get(s, 0) > 0]
            if hit:
                self.fail(where, f"regime guard: seed stages {hit} ran")
        key = json.dumps(self.harness.report_key(report), sort_keys=True,
                         default=str)
        ref = self.reference.get((algo, cell.n, cell.p, j))
        if ref is None:
            self.reference[(algo, cell.n, cell.p, j)] = key
            self.digest.update(key.encode())
        elif key != ref:
            self.fail(where, "report differs from the first iteration")
        return dt, report, len(self.failures) == before

    def fail(self, where, reason):
        self.failures.append(dict(where, reason=reason))

    def iteration(self, graphs):
        """One closed-loop iteration; returns (seconds, reports).

        A cell whose runs together charge no rounds to a required stage
        fails its regime guard, and all of its runs count as failed."""
        total, reports = 0.0, []
        for cell in self.workload.cells:
            oks, cell_reports = [], []
            for c, j, graph in graphs:
                if c is not cell:
                    continue
                for algo in cell.algos:
                    dt, report, ok = self.call(cell, j, algo, graph)
                    total += dt
                    oks.append(ok)
                    if report is not None:
                        cell_reports.append(report)
            stages = stage_rounds(cell_reports)
            missed = [s for s in cell.require if stages.get(s, 0) <= 0]
            if missed:
                self.fail({"algo": cell.algos, "n": cell.n, "p": cell.p,
                           "graph_seed": self.seed},
                          f"regime guard: stages {missed} charged no rounds")
                oks = [False] * len(oks)
            self.failed += oks.count(False)
            reports += cell_reports
        return total, reports


def model_metrics(reports) -> dict:
    """Model-cost metrics of one iteration's reports."""
    return {
        "rounds": sum(r["rounds_total"] for r in reports),
        "messages": sum(r["messages_total"] for r in reports),
        "max_bits_pair": max((r["max_bits_per_pair_round"]
                              for r in reports), default=0),
        "colors_used": sum(r["colors_used"] for r in reports),
    }


def stage_rounds(reports) -> dict:
    out: dict = {}
    for r in reports:
        for stage, rounds in r["rounds_by_stage"].items():
            out[stage] = out.get(stage, 0) + rounds
    return dict(sorted(out.items()))


def median_stat(buckets, name, stat):
    """Median over buckets; counts repeat exactly, so they stay ints."""
    values = [b.get(name, {}).get(stat, 0) for b in buckets]
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, with
    its value; None below 20 samples (only the median is supported)."""
    n = len(samples)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"percentile": pct, "value": cuts[pct - 1]}


def context(seed, workload_name, trace):
    lines = 0
    for base, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f)) as fh:
                    lines += sum(1 for _ in fh)
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30).stdout.split()
        commit = top[1] if len(top) == 2 and \
            os.path.samefile(top[0], ROOT) else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "workload": workload_name, "seed": seed, "trace": trace,
        "src_lines": lines, "git_commit": commit,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": cpus, "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ccclique", "harness.py")):
        print(f"error: no ccclique sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ccclique import graphs, harness
    from ccclique.config import Config
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        print(f"error: imported ccclique from {harness.__file__}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, harness, Config())
    tracer = Tracer(TARGETS) if args.trace else None

    # ---- set-up: graph generation plus one untimed warm-up call ---- #
    setup_s, setup_buckets = [], []
    for rep in range(SETUP_REPEATS):
        gc.collect()
        if tracer:
            setup_buckets.append(tracer.new_bucket(f"setup{rep}"))
            tracer.install()
        t0 = time.perf_counter()
        graph_list = bench.make_graphs(graphs.gen_random_graph)
        cell, j, graph = graph_list[0]
        _, _, ok = bench.call(cell, j, cell.algos[0], graph)
        bench.failed += not ok
        setup_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()

    # ---- timed closed loop ---- #
    walls = {False: [], True: []}
    iter_buckets = []
    first_reports = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(tracer) and i % 2 == 0
        gc.collect()
        if traced:
            iter_buckets.append(tracer.new_bucket(i))
            tracer.install()
        wall, reports = bench.iteration(graph_list)
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        if first_reports is None:
            first_reports = reports
        i += 1
        done = time.perf_counter() - start >= args.seconds
        if done and (not tracer or (walls[True] and walls[False])):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # ---- metrics ---- #
    model = model_metrics(first_reports)
    stages = stage_rounds(first_reports)
    plain = walls[False]
    if tracer:
        metrics = {}
        for name, (target, stat, unit) in SETUP_LAYER.items():
            metrics[name] = (median_stat(setup_buckets, target, stat), unit)
        for name, (target, stat, unit) in ITERATION_LAYER.items():
            metrics[name] = (median_stat(iter_buckets, target, stat), unit)
        vertices = metrics["harness.run_algorithm.vertices"][0] or 1
        metrics["coloring.central_share"] = (
            metrics["coloring.greedy_list_color.vertices"][0] / vertices,
            "share")
        metrics["detcolor.seed_colored_share"] = (
            metrics["detcolor.derand_color_round.colored"][0] / vertices,
            "share")
        metrics["harness.run_algorithm.max_bits_pair"] = (
            model["max_bits_pair"], "bit")
        for stage in STAGES:
            metrics[stage_metric(stage)] = (stages.get(stage, 0), "count")
        metrics["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(plain), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "rounds": (model["rounds"], "count"),
            "messages": (model["messages"], "count"),
            "colors_used": (model["colors_used"], "count"),
        }
    failed = bench.failed
    failure_rate = failed / bench.attempted
    tail = tail_percentile(plain)
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    # ---- record ---- #
    record = {
        "context": context(args.seed, args.workload, args.trace),
        "why": workload.why,
        "cells": [vars(c) for c in workload.cells],
        "samples": {"wall_s": plain, "traced_wall_s": walls[True],
                    "setup_s": setup_s},
        "wall_s_tail": tail,
        "failure_rate": failure_rate,
        "report_digest": bench.digest.hexdigest(),
        "failures": bench.failures[:50],
        "stage_rounds": stages,
        "metrics": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    if tracer:
        tracer.write_spans(stem + ".spans.tsv")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!r:>24} {unit}")
    print(f"{'failure_rate':48s} {failure_rate!r:>24} share "
          f"({failed} of {bench.attempted} runs)")
    print(f"{'samples':48s} {len(plain):>24} iterations")
    if tail:
        print(f"{'wall_s_tail':48s} {tail['value']!r:>24} s "
              f"(p{tail['percentile']})")
    else:
        print(f"{'wall_s_tail':48s} {'none':>24} (under 20 samples, only "
              "the median has ten samples above it)")
    for f in bench.failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
