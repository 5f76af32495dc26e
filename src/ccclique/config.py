"""Run configuration: model costs, desk-scale gates, host budget, seed.

`Config` holds the model costs, the gates that put a scope in a degree
regime, the host's derandomization term budget and the master seed, with
the defaults documented in the README; the method's fixed O(1)s are
constants of the colorers.  `run_algorithm` hands the run's Config to its
Simulator, and every colorer reads it as `sim.config`; inside a
`Simulator.run_parallel` branch that is the parent's config with its share
of `term_budget` (`split_budgets`).
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

    # --- desk-scale gates ---
    c_fit: float = 1.0         # admissible degree: Delta^2 <= c_fit * n
    delta_min: int = 64        # below this, dense machinery falls back

    # --- host budget and checks ---
    term_budget: int = 120_000  # max estimator terms for in-budget search
    debug_checks: bool = False  # per-commit properness assertions

    def __post_init__(self):
        """Reject values the algorithms cannot run (ValueError)."""
        for name, lo in (("c_word", 1), ("lenzen_cost", 0),
                         ("connectivity_cost", 0), ("seed_broadcast_cost", 0),
                         ("rng_seed", 0)):
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
        term budget is shared out, down to a fixed floor.  Applied by
        Simulator.run_parallel to each branch."""
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


def _typed(key: str, value):
    """A config file's `value` as `key`'s type: a string is parsed as a
    --set value; otherwise an int key takes an integer (not a bool), a
    float key a number, a bool key true or false.  ValueError on any
    other value."""
    if isinstance(value, str):
        return parse_override(key, value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if key in _BOOL_KEYS:
        ok, kind = isinstance(value, bool), "true or false"
    elif key in _FLOAT_KEYS:
        ok, kind = number, "a number"
    else:
        ok, kind = number and isinstance(value, int), "an integer"
    if not ok:
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")
    return float(value) if key in _FLOAT_KEYS else value


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Build a Config from an optional JSON file, which must hold one
    object, plus key=value overrides; an unknown key is a KeyError and a
    value of the wrong type a ValueError."""
    data = {}
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: config must be a JSON object, got "
                             f"{type(loaded).__name__}")
        data.update(loaded)
    if overrides:
        data.update(overrides)
    known = {f.name for f in fields(Config)}
    unknown = set(data) - known
    if unknown:
        raise KeyError(f"unknown config keys: {sorted(unknown)}")
    return Config(**{k: _typed(k, v) for k, v in data.items()})
