"""Run configuration: model cost constants and algorithm knobs.

All constants the underlying method leaves symbolic are exposed here with
the defaults documented in the README.  A single Config object is threaded
through the simulator and every algorithm entry point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace


@dataclass(frozen=True)
class Config:
    # --- simulator cost model ---
    c_word: int = 1            # word size = c_word * ceil(log2 n) bits
    lenzen_cost: int = 2       # rounds charged per routing-primitive call
    connectivity_cost: int = 1  # rounds charged per component-labeling call
    seed_broadcast_cost: int = 1  # rounds per word of broadcast seed
    rng_seed: int = 0          # master seed for all randomized algorithms

    # --- shared algorithm knobs ---
    c_fit: float = 1.0         # admissible degree: Delta^2 <= c_fit * n
    delta_min: int = 64        # below this, dense machinery falls back
    big_k: int = 100           # final sparsity constant (1/K threshold)
    one_shot_iters: int = 3    # "O(1) iterations" of the one-shot colorer
    dense_iters: int = 6       # dense-step applications per stratum
    bidding_iters: int = 6     # color-bidding iterations before cleanup
    retry_budget: int = 3      # fresh-randomness retries on overflow

    # --- derandomization knobs ---
    d_independence: int = 4    # independence order for "O(1)-wise" sites
    term_budget: int = 120_000  # max estimator terms for in-budget search
    debug_checks: bool = False  # per-commit properness assertions

    def __post_init__(self):
        """Reject values the algorithms cannot run (ValueError)."""
        for name, lo in (("c_word", 1), ("lenzen_cost", 0),
                         ("connectivity_cost", 0), ("seed_broadcast_cost", 0),
                         ("rng_seed", 0), ("big_k", 2), ("retry_budget", 0),
                         ("d_independence", 1)):
            if getattr(self, name) < lo:
                raise ValueError(f"{name}={getattr(self, name)} below {lo}")
        if not self.c_fit > 0:
            raise ValueError(f"c_fit={self.c_fit} must be positive")

    def word_bits(self, n: int) -> int:
        return self.c_word * (max(2, n) - 1).bit_length()

    def with_overrides(self, **kw) -> "Config":
        return replace(self, **kw)

    def split_budgets(self, instances: int) -> "Config":
        """The config of one of `instances` simultaneous instances: the
        term budget is shared out, down to a fixed floor."""
        return self.with_overrides(
            term_budget=max(2000, self.term_budget // max(1, instances)))

    def fits_sqrt(self, delta: int, n: int) -> bool:
        """Delta^2 <= c_fit * n: the degree regime of the sqrt colorers."""
        return delta * delta <= self.c_fit * n

    def fits_n34(self, delta: int, n: int) -> bool:
        """Delta^4 <= (c_fit * n)^3: the n^(3/4) bin colorer's regime."""
        return delta ** 4 <= (self.c_fit * n) ** 3

    def snapshot(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_INT_KEYS = {f.name for f in fields(Config) if f.type == "int"}
_FLOAT_KEYS = {f.name for f in fields(Config) if f.type == "float"}
_BOOL_KEYS = {f.name for f in fields(Config) if f.type == "bool"}


def parse_override(key: str, value: str):
    """Parse one key=value CLI override into the right field type."""
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _BOOL_KEYS:
        return value.lower() in ("1", "true", "yes", "on")
    raise KeyError(key)


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Build a Config from an optional JSON file plus key=value overrides."""
    data = {}
    if path:
        with open(path) as fh:
            data.update(json.load(fh))
    if overrides:
        data.update(overrides)
    known = {f.name for f in fields(Config)}
    unknown = set(data) - known
    if unknown:
        raise KeyError(f"unknown config keys: {sorted(unknown)}")
    typed = {}
    for k, v in data.items():
        typed[k] = parse_override(k, str(v)) if isinstance(v, str) else v
    return Config(**typed)
