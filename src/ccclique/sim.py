"""Synchronous all-to-all message-passing simulator with round accounting.

Every ordered pair of the n nodes may exchange one word per round; a word
is c_word * ceil(log2 n) bits.  Heavier primitives (routing, central
solves, seed broadcast, component labeling) are trusted black boxes charged
at their configured round costs instead of being re-simulated message by
message.  A RoundLedger records rounds, message counts, and the maximum
bits any ordered pair carried in a single round; exceeding the word size
or reusing a pair within a round raises immediately.

Simulation state is owned by a single driver.  Node programs within one
round read only round-r inboxes and write only round-r outboxes, so their
evaluation order is unobservable; the engine may be handed between threads
across round boundaries, but the ledger must not be mutated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .config import Config
from .errors import BandwidthViolation, CliqueError, RoutingOverload

# A node program maps (round, state, inbox) -> (state, outbox, halted) where
# inbox is a list of (src, Word) and outbox a list of (dst, Word).
NodeProgram = Callable[[int, object, list], tuple[object, list, bool]]


@dataclass(frozen=True)
class Word:
    """A single message payload with its declared bit size."""

    payload: object
    bits: int

    @staticmethod
    def of_int(value: int, bits: int | None = None) -> "Word":
        if value < 0:
            raise ValueError("words encode non-negative integers")
        need = max(1, int(value).bit_length())
        if bits is None:
            bits = need
        elif bits < need:
            raise ValueError(f"{value} does not fit in {bits} bits")
        return Word(value, bits)


@dataclass
class RoundLedger:
    """Per-run cost accounting: rounds, messages, peak per-pair bits."""

    rounds_total: int = 0
    messages_total: int = 0
    max_bits_pair_round: int = 0
    stage_rounds: dict = field(default_factory=dict)
    stage_stack: list = field(default_factory=list)

    def advance(self, rounds: int) -> None:
        if rounds < 0:
            raise CliqueError("round counter is monotone")
        self.rounds_total += rounds
        for name in self.stage_stack:
            self.stage_rounds[name] = self.stage_rounds.get(name, 0) + rounds

    def snapshot(self) -> dict:
        return {
            "rounds_total": self.rounds_total,
            "messages_total": self.messages_total,
            "max_bits_per_pair_round": self.max_bits_pair_round,
            "rounds_by_stage": dict(sorted(self.stage_rounds.items())),
        }


class _Stage:
    def __init__(self, ledger: RoundLedger, name: str):
        self.ledger, self.name = ledger, name

    def __enter__(self):
        self.ledger.stage_stack.append(self.name)
        self.ledger.stage_rounds.setdefault(self.name, 0)
        return self

    def __exit__(self, *exc):
        self.ledger.stage_stack.pop()
        return False


@dataclass
class RoundRecord:
    """Summary of one delivery round (returned by exchanges)."""

    round_index: int
    pair_count: int
    max_bits: int


class Simulator:
    """Congested-clique engine for a fixed node count n."""

    def __init__(self, n: int, config: Config | None = None):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.config = config or Config()
        self.word_size = self.config.word_bits(n)
        self.ledger = RoundLedger()

    # ------------------------------------------------------------------ #
    # core round delivery
    # ------------------------------------------------------------------ #

    def stage(self, name: str) -> _Stage:
        return _Stage(self.ledger, name)

    def exchange(self, messages: Iterable[tuple[int, int, Word]]):
        """Deliver one round of point-to-point messages.

        `messages` holds (src, dst, Word) triples.  Each ordered pair may
        appear at most once and every word must fit in the word size.
        Returns (inboxes, RoundRecord) where inboxes maps dst -> list of
        (src, Word) sorted by src.
        """
        msgs = list(messages)
        seen = set()
        max_bits = 0
        inboxes: dict[int, list] = {}
        for src, dst, word in msgs:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise CliqueError(f"node id out of range: ({src},{dst})")
            if word.bits > self.word_size:
                raise BandwidthViolation(src, dst, word.bits)
            if (src, dst) in seen:
                raise BandwidthViolation(src, dst, 2 * word.bits)
            seen.add((src, dst))
            max_bits = max(max_bits, word.bits)
            inboxes.setdefault(dst, []).append((src, word))
        for dst in inboxes:
            inboxes[dst].sort(key=lambda t: t[0])
        self.ledger.messages_total += len(msgs)
        self.ledger.max_bits_pair_round = max(
            self.ledger.max_bits_pair_round, max_bits
        )
        self.ledger.advance(1)
        return inboxes, RoundRecord(self.ledger.rounds_total, len(msgs), max_bits)

    def exchange_counts(self, src: np.ndarray, dst: np.ndarray,
                        bits: int | None = None) -> RoundRecord:
        """Bulk one-round exchange given parallel (src, dst) index arrays.

        Used by vectorized algorithm steps that do not materialize message
        payloads; every message is charged `bits` (default one full word).
        Pair uniqueness is validated.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise CliqueError("src/dst length mismatch")
        bits = self.word_size if bits is None else bits
        if bits > self.word_size:
            raise BandwidthViolation(int(src[0]) if len(src) else -1,
                                     int(dst[0]) if len(dst) else -1, bits)
        m = len(src)
        if m:
            keys = src * self.n + dst
            if len(np.unique(keys)) != m:
                # locate one duplicate for the error message
                order = np.argsort(keys, kind="stable")
                ks = keys[order]
                j = int(np.nonzero(ks[1:] == ks[:-1])[0][0])
                s, d = divmod(int(ks[j]), self.n)
                raise BandwidthViolation(s, d, 2 * bits)
            self.ledger.messages_total += m
            self.ledger.max_bits_pair_round = max(
                self.ledger.max_bits_pair_round, bits)
        self.ledger.advance(1)
        return RoundRecord(self.ledger.rounds_total, m, bits if m else 0)

    def run_round(self, programs: list[NodeProgram], states: list,
                  inboxes: dict[int, list] | None = None):
        """Advance every node program by one synchronized round.

        Returns (new_states, next_inboxes, halted_flags).  Inboxes of round
        r+1 contain exactly the round-r outbox messages.
        """
        inboxes = inboxes or {}
        new_states = list(states)
        halted = [False] * self.n
        out_messages = []
        rnd = self.ledger.rounds_total
        for v in range(self.n):
            state, outbox, halt = programs[v](rnd, states[v], inboxes.get(v, []))
            new_states[v] = state
            halted[v] = halt
            for dst, word in outbox:
                out_messages.append((v, dst, word))
        next_inboxes, _ = self.exchange(out_messages)
        return new_states, next_inboxes, halted

    def run_programs(self, programs: list[NodeProgram], states: list,
                     max_rounds: int = 10_000):
        """Drive node programs until all halt; returns final states."""
        inboxes: dict[int, list] = {}
        for _ in range(max_rounds):
            states, inboxes, halted = self.run_round(programs, states, inboxes)
            if all(halted):
                return states
        raise CliqueError("programs did not halt within max_rounds")

    # ------------------------------------------------------------------ #
    # charged primitives
    # ------------------------------------------------------------------ #

    def lenzen_route(self, requests: list[tuple[int, int, Word]]):
        """Deliver an arbitrary message set with per-node in/out <= n.

        Charged `lenzen_cost` rounds per call; the ledger records the
        primitive invocation, not per-pair bits.
        """
        out_counts = np.zeros(self.n, dtype=np.int64)
        in_counts = np.zeros(self.n, dtype=np.int64)
        for src, dst, word in requests:
            if word.bits > self.word_size:
                raise BandwidthViolation(src, dst, word.bits)
            out_counts[src] += 1
            in_counts[dst] += 1
        self._check_route_bounds(out_counts, in_counts)
        delivery: dict[int, list] = {}
        for src, dst, word in requests:
            delivery.setdefault(dst, []).append((src, word))
        for dst in delivery:
            delivery[dst].sort(key=lambda t: t[0])
        self.ledger.messages_total += len(requests)
        self.ledger.advance(self.config.lenzen_cost)
        return delivery

    def charge_route_counts(self, out_counts: np.ndarray,
                            in_counts: np.ndarray) -> int:
        """Charge routing rounds for a bulk transfer described by per-node
        word counts, splitting into multiple calls when a node exceeds n.

        Returns the number of rounds charged.
        """
        out_counts = np.asarray(out_counts, dtype=np.int64)
        in_counts = np.asarray(in_counts, dtype=np.int64)
        total = int(out_counts.sum())
        if total == 0:
            return 0
        peak = max(1, int(out_counts.max(initial=0)),
                   int(in_counts.max(initial=0)))
        calls = -(-peak // self.n)
        rounds = calls * self.config.lenzen_cost
        self.ledger.messages_total += total
        self.ledger.advance(rounds)
        return rounds

    def _check_route_bounds(self, out_counts, in_counts) -> None:
        for counts in (out_counts, in_counts):
            bad = np.nonzero(counts > self.n)[0]
            if len(bad):
                v = int(bad[0])
                raise RoutingOverload(v, int(counts[v]))

    def central_solve(self, edges, payload_words: dict[int, int] | None,
                      solver: Callable[[], object]):
        """Gather a subgraph (plus per-vertex payloads) to a leader, run the
        callback there, and scatter results back.

        Each payload must fit in deg+1 words of its vertex within the
        gathered subgraph.  Rounds charged: 2 * ceil(total_words / n) *
        lenzen_cost; an empty gather is free.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        deg = np.zeros(self.n, dtype=np.int64)
        if len(edges):
            deg += np.bincount(edges[:, 0], minlength=self.n)
            deg += np.bincount(edges[:, 1], minlength=self.n)
        payload_total = 0
        if payload_words:
            for v, words in payload_words.items():
                if words > deg[v] + 1:
                    raise CliqueError(
                        f"payload of node {v} exceeds deg+1 words")
                payload_total += words
        total_words = 2 * len(edges) + payload_total
        if total_words:
            rounds = 2 * (-(-total_words // self.n)) * self.config.lenzen_cost
            self.ledger.messages_total += total_words
            self.ledger.advance(rounds)
        return solver()

    def central_solve_counts(self, n_edges: int, payload_words: int,
                             solver: Callable[[], object]):
        """central_solve cost rule driven by precomputed word counts (used
        by bulk callers that avoid materializing edge arrays)."""
        total_words = 2 * n_edges + payload_words
        if total_words:
            rounds = 2 * (-(-total_words // self.n)) * self.config.lenzen_cost
            self.ledger.messages_total += total_words
            self.ledger.advance(rounds)
        return solver()

    def broadcast_seed(self, bits: int) -> None:
        """Make a shared `bits`-long seed visible to all nodes."""
        if bits <= 0:
            raise CliqueError("seed must be non-empty")
        words = -(-bits // self.word_size)
        self.ledger.messages_total += words * self.n
        self.ledger.advance(words * self.config.seed_broadcast_cost)

    def component_labels(self, edges, nodes: np.ndarray) -> np.ndarray:
        """Label connected components of (nodes, edges) as a charged
        primitive (computed centrally; cost `connectivity_cost` rounds).

        Returns an array mapping each node in `nodes` to a component id
        (the smallest member id of its component).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        parent = {int(v): int(v) for v in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                if ru < rv:
                    parent[rv] = ru
                else:
                    parent[ru] = rv
        self.ledger.advance(self.config.connectivity_cost)
        return np.array([find(int(v)) for v in nodes], dtype=np.int64)

    # ------------------------------------------------------------------ #
    # parallel instances
    # ------------------------------------------------------------------ #

    def run_parallel(self, branches: list[Callable[[], object]]) -> list:
        """Run vertex-disjoint branches that share the clique's rounds.

        Branches execute sequentially in wall time but are charged as
        simultaneous instances: the round counter advances by the maximum
        branch cost, not the sum.  Message totals still sum.
        """
        start = self.ledger.rounds_total
        results, deltas = [], []
        for fn in branches:
            self.ledger.rounds_total = start
            results.append(fn())
            deltas.append(self.ledger.rounds_total - start)
        self.ledger.rounds_total = start + (max(deltas) if deltas else 0)
        return results
