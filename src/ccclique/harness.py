"""Algorithm dispatch and machine-readable run reports.

Every entry point must end in a proper coloring; entry points whose
admissibility preconditions fail at the instance's scale fall back along
the documented chains (one `fallback` note in the assertion log per
hand-off) rather than erroring out.  Reports are deterministic apart from
wall_time.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .config import Config
from .coloring import Palettes, is_proper
from .detcolor import det_coloring, det_delta_sq
from .errors import DegreeTooLarge, InputError, ParameterViolation
from .graphs import Graph
from .randcolor import (_recurse_whole, clp_list_coloring, fast_coloring,
                        many_colors_coloring)
from .sim import Simulator

SCHEMA_VERSION = 1

ALGORITHMS = ("fast", "recursive", "manycolors", "clp", "det", "detsq")


def color_budget(algo: str, delta: int, eps: float) -> int:
    if algo == "detsq":
        return max(2, delta) ** 2
    if algo == "manycolors":
        return delta + int(math.floor(max(1, delta) ** (0.5 + eps)))
    return delta + 1


def run_algorithm(algo: str, graph: Graph, cfg: Config,
                  eps: float = 0.25):
    """Run one entry point; returns (coloring, report dict).

    The coloring is allocated here and every colorer colors it in place.
    A graph without edges takes color 1 everywhere, in no rounds, for
    every entry point."""
    if algo not in ALGORITHMS:
        raise InputError(f"unknown algorithm {algo!r}")
    if algo == "manycolors" and not 0.0 < eps < 1.0:
        raise ParameterViolation("eps must lie in (0,1)")
    sim = Simulator(graph.n, cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    n, delta = graph.n, graph.max_degree
    coloring = np.zeros(n, dtype=np.int64)
    t0 = time.monotonic()
    if delta == 0:
        coloring[:] = 1
    elif algo == "fast":
        fast_coloring(sim, graph, rng, coloring)
    elif algo == "recursive":
        _recurse_whole(sim, graph, rng, coloring, "recursive")
    elif algo == "manycolors":
        many_colors_coloring(sim, graph, rng, coloring, eps)
    elif algo == "clp":
        pal = Palettes.uniform_range(n, 1, delta + 1)
        try:
            with sim.stage("clp"):
                clp_list_coloring(sim, graph, pal, rng, coloring)
        except DegreeTooLarge as exc:
            sim.log.fallback("sqrt-bound", n, cause=str(exc))
            det_coloring(sim, graph, coloring)
    elif algo == "det":
        det_coloring(sim, graph, coloring)
    else:  # detsq
        det_delta_sq(sim, graph, coloring)
    wall = time.monotonic() - t0

    budget = color_budget(algo, delta, eps)
    budget_pal = Palettes.uniform_range(n, 1, budget)
    verdict = is_proper(graph, coloring, budget_pal)
    colors_used = int(len(np.unique(coloring[coloring > 0])))
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "delta": delta,
        "algorithm": algo,
        "config": cfg.snapshot(),
        "rng_seed": cfg.rng_seed,
        "proper": verdict is True,
        "colors_used": colors_used,
        "color_budget": budget,
        "max_color": int(coloring.max(initial=0)),
        "within_budget": int(coloring.max(initial=0)) <= budget,
        "assertion_log": sim.log.entries,
        "wall_time": wall,
    }
    report.update(sim.ledger.snapshot())
    report["bandwidth_ok"] = report["max_bits_per_pair_round"] \
        <= sim.word_size
    if verdict is not True:
        report["violation"] = {
            "kind": verdict.kind, "vertex": verdict.vertex,
            "edge": verdict.edge, "color": verdict.color,
        }
    return coloring, report


def report_key(report: dict) -> dict:
    """Report minus the volatile wall_time, for byte-level comparisons."""
    out = dict(report)
    out.pop("wall_time", None)
    return out


# ----------------------------- coloring IO ----------------------------- #

def write_coloring(coloring: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        for v, c in enumerate(coloring):
            fh.write(f"{v} {int(c)}\n")


def read_coloring(path: str, n: int) -> np.ndarray:
    """Parse `vertex color` lines; a vertex not listed is uncolored (0).
    A non-integer token, a vertex out of range or listed twice, or a
    negative color, is an InputError naming the line."""
    out = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'vertex color'")
            try:
                v, c = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InputError(f"line {lineno}: non-integer vertex or "
                                 f"color") from exc
            if not 0 <= v < n:
                raise InputError(f"line {lineno}: vertex {v} out of range")
            if c < 0:
                raise InputError(f"line {lineno}: negative color {c}")
            if seen[v]:
                raise InputError(f"line {lineno}: vertex {v} listed twice")
            seen[v] = True
            out[v] = c
    return out
