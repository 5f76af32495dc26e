"""Simulator contract tests: delivery, bandwidth, charged primitives."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccclique.config import Config
from ccclique.errors import BandwidthViolation, CliqueError
from ccclique.sim import Simulator


def make(n, **kw):
    return Simulator(n, Config(**kw))


@pytest.mark.parametrize("kw", [
    {"lenzen_cost": -1}, {"connectivity_cost": -1}, {"rng_seed": -1},
    {"c_fit": 0.0}, {"c_word": 0}, {"seed_broadcast_cost": -1},
    {"c_fit": -1.0}, {"c_fit": float("nan")}])
def test_config_rejects_values_it_cannot_run(kw):
    with pytest.raises(ValueError):
        Config(**kw)
    with pytest.raises(ValueError):
        Config().with_overrides(**kw)


def test_config_accepts_range_floors():
    Config(lenzen_cost=0, connectivity_cost=0, seed_broadcast_cost=0,
           rng_seed=0, c_fit=1e-9, c_word=1)


def test_readme_range_table_lists_every_config_key_once():
    """The README's valid-range table names exactly the Config fields, so
    a removed knob cannot linger there and a new one must get a row."""
    text = (Path(__file__).resolve().parents[1]
            / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | valid range |\n", 1)[1].split("\n\n", 1)[0]
    keys = [k for row in table.splitlines()[1:]
            for k in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert len(keys) == len(set(keys)), keys
    assert sorted(keys) == sorted(f.name for f in fields(Config))


def test_single_message_delivery():
    sim = make(4)
    sim.exchange_counts(np.array([0]), np.array([3]))
    assert sim.ledger.rounds_total == 1
    assert sim.ledger.messages_total == 1
    assert sim.ledger.max_bits_pair_round == sim.word_size


def test_duplicate_pair_rejected():
    sim = make(4)
    with pytest.raises(BandwidthViolation) as exc:
        sim.exchange_counts(np.array([0, 1, 0]), np.array([3, 2, 3]))
    assert (exc.value.src, exc.value.dst) == (0, 3)
    assert sim.ledger.rounds_total == sim.ledger.messages_total == 0


def test_all_ordered_pairs_full_word():
    n = 8
    sim = make(n)
    u, v = np.nonzero(~np.eye(n, dtype=bool))
    sim.exchange_counts(u, v)
    assert sim.ledger.rounds_total == 1
    assert sim.ledger.messages_total == n * (n - 1)
    assert sim.ledger.max_bits_pair_round == sim.word_size


def test_oversized_word_rejected():
    sim = make(4)  # word size = 2 bits
    assert sim.word_size == 2
    with pytest.raises(BandwidthViolation) as exc:
        sim.exchange_counts(np.array([0]), np.array([1]), bits=4)
    assert exc.value.bits == 4
    assert sim.ledger.rounds_total == sim.ledger.messages_total == 0


def test_exchange_counts_duplicate_detection():
    sim = make(8)
    with pytest.raises(BandwidthViolation):
        sim.exchange_counts(np.array([1, 1]), np.array([2, 2]))


def test_lenzen_all_to_all_ok():
    n = 16
    sim = make(n)
    rounds = sim.charge_route_counts(np.full(n, n), np.full(n, n))
    assert rounds == sim.ledger.rounds_total == 2  # one call, lenzen_cost 2
    assert sim.ledger.messages_total == n * n


def test_lenzen_receiver_overload():
    # n^2 words into one node: charged as ceil(n^2 / n) = n routing calls
    n = 16
    sim = make(n)
    inbound = np.zeros(n, dtype=np.int64)
    inbound[0] = n * n
    sim.charge_route_counts(np.full(n, n), inbound)
    assert sim.ledger.rounds_total == 2 * n


def test_lenzen_source_overload_off_by_one():
    n = 8
    sim = make(n)
    out = np.zeros(n, dtype=np.int64)
    out[3] = n
    sim.charge_route_counts(out, np.ones(n))
    assert sim.ledger.rounds_total == 2
    out[3] = n + 1  # one word over the per-node bound: a second call
    sim.charge_route_counts(out, np.ones(n))
    assert sim.ledger.rounds_total == 2 + 4


def test_central_solve_round_accounting():
    n = 1024
    sim = make(n)
    sim.central_solve_counts(n, 0, lambda: None)  # n edges
    assert sim.ledger.rounds_total == 8  # 2 * ceil(2n/n) * 2

    sim2 = make(n)
    assert sim2.central_solve_counts(0, 0, lambda: "x") == "x"
    assert sim2.ledger.rounds_total == 0

    sim3 = make(n)
    sim3.central_solve_counts(3 * n, 0, lambda: None)
    assert sim3.ledger.rounds_total == 24  # 3x the single-n gather
    sim4 = make(n)
    sim4.central_solve_counts(n, 1, lambda: None)  # one payload word over
    assert sim4.ledger.rounds_total == 12


def test_broadcast_seed_costs():
    sim = Simulator(2 ** 20, Config())  # W = 20 bits
    assert sim.word_size == 20
    sim.broadcast_seed(20)
    assert sim.ledger.rounds_total == 1
    sim.broadcast_seed(41)
    assert sim.ledger.rounds_total == 1 + 3
    with pytest.raises(CliqueError):
        sim.broadcast_seed(0)


def test_parallel_branches_charge_max():
    # every branch starts from the same counters; afterwards rounds_total
    # and every stage stand at the most one branch added, and messages sum
    sim = make(8)

    def branch(cost, stage):
        def run():
            with sim.stage(stage):
                sim.ledger.advance(cost, messages=cost)
            return cost
        return run

    sim.ledger.advance(5)
    with sim.stage("outer"):
        sim.ledger.advance(2)
        out = sim.run_parallel([branch(3, "short"), branch(11, "long"),
                                branch(7, "short")])
    assert out == [3, 11, 7]
    assert sim.ledger.rounds_total == 5 + 2 + 11
    assert sim.ledger.messages_total == 3 + 11 + 7
    # the stage open around the call gets the longest branch; a stage
    # opened inside gets its largest per-branch value, also when only
    # shorter branches opened it
    assert sim.ledger.stage_rounds == {"outer": 2 + 11, "long": 11,
                                       "short": 7}


def test_component_labels_charged():
    sim = make(8)
    labels = sim.component_labels([(0, 1), (1, 2), (4, 5)],
                                  np.arange(6))
    assert sim.ledger.rounds_total == 1
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[3] == 3
    assert labels[4] == labels[5] == 4


def union_find_labels(edges, nodes):
    """Reference component labels: a dict union-find that roots every
    component at its smallest member."""
    parent = {int(v): int(v) for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.array([find(int(v)) for v in nodes], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(0, 120), st.integers(0, 2 ** 32 - 1))
def test_component_labels_match_union_find(size, m, seed):
    # nodes are a shuffled sample of ids below 4 * size; edges join them
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(rng.choice(4 * size, size, replace=False))
    edges = rng.choice(nodes, size=(m, 2)) if m else np.zeros((0, 2), int)
    sim = make(4 * size)
    labels = sim.component_labels(edges, nodes)
    assert np.array_equal(labels, union_find_labels(edges, nodes))
    assert sim.ledger.rounds_total == sim.config.connectivity_cost


def test_component_labels_long_path():
    # a path numbered in scrambled order needs many hook-and-jump rounds
    order = np.random.default_rng(3).permutation(5000)
    sim = make(5000)
    labels = sim.component_labels(np.stack([order[:-1], order[1:]], 1),
                                  order)
    assert (labels == 0).all()


def test_monotone_round_counter():
    sim = make(16)
    seen = [sim.ledger.rounds_total]
    sim.exchange_counts(np.array([0]), np.array([1]))
    seen.append(sim.ledger.rounds_total)
    sim.charge_route_counts(np.ones(16), np.ones(16))
    seen.append(sim.ledger.rounds_total)
    sim.broadcast_seed(8)
    seen.append(sim.ledger.rounds_total)
    assert seen == sorted(seen) and len(set(seen)) == len(seen)
    with pytest.raises(CliqueError):
        sim.ledger.advance(-1)
