"""Simulator contract tests: delivery, bandwidth, charged primitives."""

import numpy as np
import pytest

from ccclique.config import Config
from ccclique.errors import BandwidthViolation, CliqueError
from ccclique.sim import Simulator


def make(n, **kw):
    return Simulator(n, Config(**kw))


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
    sim = make(8)

    def branch(cost):
        def run():
            sim.ledger.advance(cost)
            return cost
        return run

    sim.ledger.advance(5)
    out = sim.run_parallel([branch(3), branch(11), branch(7)])
    assert out == [3, 11, 7]
    assert sim.ledger.rounds_total == 5 + 11


def test_component_labels_charged():
    sim = make(8)
    labels = sim.component_labels([(0, 1), (1, 2), (4, 5)],
                                  np.arange(6))
    assert sim.ledger.rounds_total == 1
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[3] == 3
    assert labels[4] == labels[5] == 4


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
