"""Synchronous all-to-all message-passing simulator with round accounting.

Every ordered pair of the n nodes may exchange one word per round; a word
is c_word * ceil(log2 n) bits.  Heavier primitives (routing, central
solves, seed broadcast, component labeling) are trusted black boxes charged
at their configured round costs instead of being re-simulated message by
message.  A RoundLedger records rounds, message counts, and the maximum
bits any ordered pair carried in a single round; exceeding the word size
or reusing a pair within a round raises immediately.

Algorithm steps describe a round by per-message (src, dst) index arrays or
by per-node word counts; no payloads are materialized.

A Simulator is the one run object: besides the ledger it carries the run's
Config (`sim.config`) and its RunLog (`sim.log`), and every colorer reads
both from the `sim` it is given.  `run_parallel` hands each simultaneous
branch its share of `term_budget` by swapping `sim.config` for the
branch's split config while the branch runs.  Simulation state is owned by
a single driver, and the ledger must not be mutated concurrently.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import Config
from .errors import BandwidthViolation, CliqueError
from .runlog import RunLog


@dataclass
class RoundLedger:
    """Per-run cost accounting: rounds, messages, peak per-pair bits."""

    rounds_total: int = 0
    messages_total: int = 0
    max_bits_pair_round: int = 0
    stage_rounds: dict = field(default_factory=dict)
    stage_stack: list = field(default_factory=list)

    def advance(self, rounds: int, messages: int = 0) -> None:
        """Charge `rounds` rounds and `messages` messages; the rounds also
        go to every open stage.  The one place counters change."""
        if rounds < 0:
            raise CliqueError("round counter is monotone")
        self.rounds_total += rounds
        self.messages_total += messages
        for name in self.stage_stack:
            self.stage_rounds[name] = self.stage_rounds.get(name, 0) + rounds

    def snapshot(self) -> dict:
        return {
            "rounds_total": self.rounds_total,
            "messages_total": self.messages_total,
            "max_bits_per_pair_round": self.max_bits_pair_round,
            "rounds_by_stage": dict(sorted(self.stage_rounds.items())),
        }


class Simulator:
    """Congested-clique engine for a fixed node count n, carrying the
    run's config and assertion log."""

    def __init__(self, n: int, config: Config | None = None):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.config = config or Config()
        self.word_size = self.config.word_bits(n)
        self.ledger = RoundLedger()
        self.log = RunLog()

    # ------------------------------------------------------------------ #
    # core round delivery
    # ------------------------------------------------------------------ #

    @contextmanager
    def stage(self, name: str):
        """Charge the rounds advanced inside the block to stage `name` as
        well as to every stage already open."""
        self.ledger.stage_stack.append(name)
        self.ledger.stage_rounds.setdefault(name, 0)
        try:
            yield
        finally:
            self.ledger.stage_stack.pop()

    def exchange_counts(self, src: np.ndarray, dst: np.ndarray,
                        bits: int | None = None) -> None:
        """One round in which message i goes from src[i] to dst[i].

        Every message is charged `bits` (default one full word); a word
        above the word size or an ordered pair used twice raises
        BandwidthViolation.
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
            self.ledger.max_bits_pair_round = max(
                self.ledger.max_bits_pair_round, bits)
        self.ledger.advance(1, m)

    # ------------------------------------------------------------------ #
    # charged primitives
    # ------------------------------------------------------------------ #

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
        self.ledger.advance(rounds, total)
        return rounds

    def central_solve_counts(self, n_edges: int, payload_words: int,
                             solver: Callable[[], object]):
        """Gather a subgraph of `n_edges` edges plus `payload_words` words
        of per-vertex payload to a leader, run `solver` there and scatter
        the results back.  Rounds charged: 2 * ceil(total_words / n) *
        lenzen_cost; an empty gather is free."""
        total_words = 2 * n_edges + payload_words
        if total_words:
            rounds = 2 * (-(-total_words // self.n)) * self.config.lenzen_cost
            self.ledger.advance(rounds, total_words)
        return solver()

    def broadcast_seed(self, bits: int) -> None:
        """Make a shared `bits`-long seed visible to all nodes."""
        if bits <= 0:
            raise CliqueError("seed must be non-empty")
        words = -(-bits // self.word_size)
        self.ledger.advance(words * self.config.seed_broadcast_cost,
                            words * self.n)

    def component_labels(self, edges, nodes: np.ndarray) -> np.ndarray:
        """Label connected components of (nodes, edges) as a charged
        primitive (computed centrally; cost `connectivity_cost` rounds).

        Returns an array mapping each node in `nodes` to a component id
        (the smallest member id of its component).
        """
        ids, at = np.unique(np.asarray(nodes, dtype=np.int64),
                            return_inverse=True)
        u, v = np.searchsorted(ids, np.asarray(edges, dtype=np.int64)
                               .reshape(-1, 2)).T
        # min-label propagation: every root hooks under the smallest root
        # across its edges, then pointer jumping flattens the forest
        lab = np.arange(len(ids))
        while (lab[u] != lab[v]).any():
            np.minimum.at(lab, lab[u], lab[v])
            np.minimum.at(lab, lab[v], lab[u])
            while (lab[lab] != lab).any():
                lab = lab[lab]
        self.ledger.advance(self.config.connectivity_cost)
        return ids[lab[at]]

    # ------------------------------------------------------------------ #
    # parallel instances
    # ------------------------------------------------------------------ #

    def run_parallel(self, branches: list[Callable[[], object]]) -> list:
        """Run vertex-disjoint branches that share the clique's rounds.

        Branches execute sequentially in wall time but are charged as
        simultaneous instances: each starts from the same round counters,
        and afterwards `rounds_total` and every stage, including one that
        only some branches opened, stand at the most any one branch
        reached.  Message totals still sum.

        While a branch runs, `self.config` is the parent's config split
        over the branches (`Config.split_budgets`), so nested calls
        compound the split; the parent config is back afterwards.
        """
        led, parent = self.ledger, self.config
        total0, stages0 = led.rounds_total, led.stage_rounds
        results, total, stages = [], total0, dict(stages0)
        self.config = parent.split_budgets(len(branches))
        try:
            for fn in branches:
                led.rounds_total, led.stage_rounds = total0, dict(stages0)
                results.append(fn())
                total = max(total, led.rounds_total)
                for name, rounds in led.stage_rounds.items():
                    stages[name] = max(stages.get(name, 0), rounds)
        finally:
            self.config = parent
        led.rounds_total, led.stage_rounds = total, stages
        return results
