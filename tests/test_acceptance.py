"""Acceptance criteria, one test per criterion, one printed verdict each.

Criterion 1 drives every algorithm entry point over the full instance
grid; later criteria reuse those reports.  All tolerances are pinned here.
"""

import time

import numpy as np
import pytest

from ccclique.config import Config
from ccclique.coloring import Palettes, concentration_bound, is_proper
from ccclique.derand import distributed_seed_agreement
from ccclique.detcolor import det_list_color_sqrt, phase_bound
from ccclique.errors import AllocationOverflow, PlanRejected
from ccclique.graphs import gen_random_graph
from ccclique.harness import ALGORITHMS, report_key, run_algorithm
from ccclique.randcolor import partition_step
from ccclique.runlog import FALLBACK_REASONS
from ccclique.sim import Simulator
from oracles import (TableObjective, cond_exp_search, hash_jointly_uniform,
                     make_corpus)

GRID_NS = (256, 1024, 4096, 16384)
GRID_DENSITIES = (0.05, 0.3, 0.8)
GRID_SEEDS = (1, 2, 3, 4, 5)
EPS_MANYCOLORS = 0.25

# log entry names under which hand-offs were recorded before every
# hand-off became one `fallback` note (plus any `*-split-overflow`)
OLD_HANDOFF_NAMES = ("palette-window", "fast-split-degenerate",
                     "clp-fallback", "partition-fallback", "central-phase",
                     "dense-gather")

# frozen observed round counts for randomized suites (criterion 7);
# runs are seed-deterministic, the +-20% tolerance absorbs refactors
ROUND_BASELINES = {
    ("fast", 1024, 0.3, 1): 2464,
    ("recursive", 1024, 0.3, 1): 2464,
    ("clp", 1024, 0.3, 1): 104,
    ("manycolors", 1024, 0.3, 1): 191,
    ("fast", 4096, 0.05, 1): 1644,
    ("recursive", 4096, 0.05, 1): 1644,
    ("clp", 4096, 0.05, 1): 1644,
    ("manycolors", 4096, 0.05, 1): 189,
    ("fast", 16384, 0.8, 1): 52851,
    ("recursive", 16384, 0.8, 1): 52851,
    ("clp", 16384, 0.8, 1): 866,
    ("manycolors", 16384, 0.8, 1): 1101,
}


@pytest.fixture(scope="module")
def suite_reports():
    """Run the 60-instance grid for every entry point once."""
    reports = []
    t0 = time.monotonic()
    for n in GRID_NS:
        for p in GRID_DENSITIES:
            for seed in GRID_SEEDS:
                graph = gen_random_graph(n, p, seed)
                cfg = Config(rng_seed=seed)
                for algo in ALGORITHMS:
                    _, rep = run_algorithm(algo, graph, cfg,
                                           eps=EPS_MANYCOLORS)
                    rep["_cell"] = (algo, n, p, seed)
                    reports.append(rep)
    elapsed = time.monotonic() - t0
    return reports, elapsed


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.mark.slow
def test_criterion_1_properness_suite(suite_reports):
    reports, elapsed = suite_reports
    assert len(reports) == len(GRID_NS) * len(GRID_DENSITIES) * \
        len(GRID_SEEDS) * len(ALGORITHMS)
    bad = [r["_cell"] for r in reports
           if not (r["proper"] and r["within_budget"])]
    _verdict(1, "properness and color budgets",
             not bad and elapsed < 900,
             f"{len(reports)} runs, 0 violations expected, got "
             f"{len(bad)} {bad[:3]}; runtime {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_2_derandomization_dominance(suite_reports):
    reports, _ = suite_reports
    watched = ("seed-round-dominance", "sqrt-quarter-progress",
               "deltasq-dominance", "deltasq-remainder",
               "bin-happy-dominance")
    failures = []
    seen = set()
    for rep in reports:
        for e in rep["assertion_log"]:
            c = e.get("check")
            if c in watched:
                seen.add(c)
                if not e["ok"]:
                    failures.append((rep["_cell"], e))
    # every detsq run certifies its remainder bound
    for rep in reports:
        if rep["_cell"][0] == "detsq":
            assert any(e.get("check") == "deltasq-remainder" and e["ok"]
                       for e in rep["assertion_log"]), rep["_cell"]
    # dedicated sqrt-regime battery: quarter progress on every phase
    for seed in GRID_SEEDS:
        g = gen_random_graph(400, 0.02, seed)
        assert g.max_degree ** 2 <= g.n
        sim = Simulator(g.n, Config())
        pal = Palettes.uniform_range(g.n, 1, g.max_degree + 1)
        coloring = np.zeros(g.n, dtype=np.int64)
        det_list_color_sqrt(sim, g, pal, coloring)
        assert is_proper(g, coloring, pal) is True
        entries = [e for e in sim.log.entries
                   if e.get("check") == "sqrt-quarter-progress"]
        assert entries and all(e["ok"] for e in entries)
        seen.add("sqrt-quarter-progress")
    _verdict(2, "derandomized progress dominance",
             not failures and {"deltasq-remainder",
                               "sqrt-quarter-progress"} <= seen,
             f"checks seen: {sorted(seen)}; failures: {failures[:3]}")


def test_criterion_3_exhaustive_tiny_oracles():
    uniform = [hash_jointly_uniform(gb, d) for gb in (2, 3) for d in (2, 3)]
    dom, agree = [], []
    for tables, length, z in make_corpus(50):
        off = TableObjective(tables, length)
        seed = cond_exp_search(off, length, z)
        dom.append(off.value_of(seed.bits) >= off.exhaustive_mean())
        dist = distributed_seed_agreement(
            Simulator(max(16, 1 << z), Config()),
            TableObjective(tables, length), length, z)
        agree.append(dist.bits == seed.bits)
    _verdict(3, "tiny-scale exhaustive oracles", all(uniform + dom + agree),
             f"{len(uniform)} uniformity + {len(dom)} dominance + "
             f"{len(agree)} agreement cases, all exact")


@pytest.mark.slow
def test_criterion_4_palette_budget_ledger(suite_reports):
    reports, _ = suite_reports
    hard = ("partition-ranges-disjoint", "partition-palette",
            "partition-budget")
    failures, accepted = [], 0
    for rep in reports:
        for e in rep["assertion_log"]:
            if e.get("check") in hard:
                accepted += 1
                if not e["ok"]:
                    failures.append((rep["_cell"], e))
    _verdict(4, "palette budget ledger", not failures and accepted > 0,
             f"{accepted} partition allocations verified, "
             f"{len(failures)} violations")


@pytest.mark.slow
def test_criterion_5_bandwidth_safety(suite_reports):
    reports, _ = suite_reports
    bad = [r["_cell"] for r in reports if not r["bandwidth_ok"]]
    _verdict(5, "bandwidth safety", not bad,
             f"max bits per pair per round within word size on "
             f"{len(reports)} runs; routing charged per call, "
             "ceil(peak/n) calls per transfer")


def test_criterion_6_partition_concentration():
    n = 2 ** 14
    graph = gen_random_graph(n, 0.5, 1000)
    scope = np.arange(n)
    delta = graph.max_degree
    t0 = time.monotonic()
    inside = total = 0
    window_ok = window_total = 0
    logged_failures = 0
    for seed in range(200):
        sim = Simulator(n, Config())
        rng = np.random.default_rng(10_000 + seed)
        try:
            plan, parts, _, _ = partition_step(sim, graph, scope, delta,
                                               1, delta + 1, 2, rng)
        except (PlanRejected, AllocationOverflow):
            logged_failures += 1
            continue
        star = parts[-1]
        for j, part in enumerate(parts[:-1]):
            if len(part) == 0:
                continue
            mask = graph.pack_vertex_mask(part)
            dj = int(graph.degrees_within(mask, rows=part)[part]
                     .max(initial=0))
            total += 1
            inside += int(concentration_bound(delta * plan.p_j, n)
                          .contains(dj))
        smask = graph.pack_vertex_mask(star)
        sdeg = graph.degrees_within(smask, rows=star)
        dstar = int(sdeg[star].max(initial=0))
        total += 1
        inside += int(concentration_bound(delta * plan.p_star, n)
                      .contains(dstar))
        # palette window: free colors after the children complete are at
        # least (Delta_i + 1) - (deg - deg_star) per left-over vertex
        floor = (delta + 1) - (graph.degrees[star] - sdeg[star])
        need = dstar - dstar ** 0.6
        window_ok += int(np.count_nonzero(floor >= need))
        window_total += len(star)
    elapsed = time.monotonic() - t0
    ok = (total > 0 and inside >= 0.99 * total
          and window_ok >= 0.99 * window_total and elapsed < 300)
    _verdict(6, "partition concentration spot-checks", ok,
             f"{inside}/{total} degree bounds, {window_ok}/{window_total} "
             f"palette windows, {logged_failures} logged failures, "
             f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_round_reporting(suite_reports):
    reports, _ = suite_reports
    problems = []
    for rep in reports:
        algo, n, p, seed = rep["_cell"]
        if algo == "det":
            info = [e for e in rep["assertion_log"]
                    if e.get("note") == "det-info"]
            if not info or info[0]["phases"] > phase_bound(n):
                problems.append((rep["_cell"], "phase cap"))
        # parallel instances charge every stage their longest branch, so
        # no stage can exceed the whole run
        over = {k: r for k, r in rep["rounds_by_stage"].items()
                if r > rep["rounds_total"]}
        if over:
            problems.append((rep["_cell"], f"stages above total: {over}"))
        key = (algo, n, p, seed)
        if key in ROUND_BASELINES:
            base = ROUND_BASELINES[key]
            got = rep["rounds_total"]
            if not (0.8 * base <= got <= 1.2 * base):
                problems.append((key, f"rounds {got} vs baseline {base}"))
    _verdict(7, "round-count reporting", not problems,
             f"{len(ROUND_BASELINES)} frozen baselines within 20%, "
             f"det phases capped, no stage above rounds_total; "
             f"problems: {problems[:3]}")


@pytest.mark.slow
def test_criterion_8_determinism(suite_reports):
    reports, _ = suite_reports
    by_cell = {r["_cell"]: r for r in reports}
    sample = [("fast", 1024, 0.3, 2), ("det", 4096, 0.05, 3),
              ("detsq", 256, 0.8, 1), ("manycolors", 1024, 0.05, 4),
              ("clp", 256, 0.3, 5), ("recursive", 4096, 0.3, 2)]
    mismatches = []
    for cell in sample:
        algo, n, p, seed = cell
        graph = gen_random_graph(n, p, seed)
        _, rep2 = run_algorithm(algo, graph, Config(rng_seed=seed),
                                eps=EPS_MANYCOLORS)
        rep1 = dict(by_cell[cell])
        rep1.pop("_cell")
        if report_key(rep1) != report_key(rep2):
            mismatches.append(cell)
    # deterministic algorithms ignore the seed entirely
    g = gen_random_graph(512, 0.3, 9)
    c_a, _ = run_algorithm("det", g, Config(rng_seed=1))
    c_b, _ = run_algorithm("det", g, Config(rng_seed=777))
    det_seedfree = np.array_equal(c_a, c_b)
    _verdict(8, "determinism", not mismatches and det_seedfree,
             f"{len(sample)} cells byte-identical apart from wall_time; "
             f"det output independent of rng_seed: {det_seedfree}")


@pytest.mark.slow
def test_criterion_9_handoff_records(suite_reports):
    reports, _ = suite_reports
    stale, unknown, reasons = [], [], set()
    for rep in reports:
        for e in rep["assertion_log"]:
            name = e.get("check") or e.get("note")
            if name in OLD_HANDOFF_NAMES or name.endswith("-split-overflow"):
                stale.append((rep["_cell"], name))
            if name == "fallback":
                reasons.add(e["reason"])
                if e["reason"] not in FALLBACK_REASONS:
                    unknown.append((rep["_cell"], e["reason"]))
    _verdict(9, "hand-off records",
             not stale and not unknown and bool(reasons),
             f"fallback reasons seen: {sorted(reasons)}; old-style entries: "
             f"{stale[:3]}; unknown reasons: {unknown[:3]}")
