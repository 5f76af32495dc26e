"""Run-time assertion log shared by the coloring pipelines.

Hard invariants raise immediately; expected-to-mostly-hold events (the
"with high probability" claims) are recorded and trigger fallbacks without
aborting the run.  Every hand-off of a scope from one colorer to another
is one `fallback` note naming a reason from FALLBACK_REASONS.  Each
Simulator owns one RunLog (`sim.log`), which every colorer given that
`sim` writes to; harness reports embed it as `assertion_log`.
"""

from __future__ import annotations

FALLBACK_REASONS = frozenset({
    "plan-rejected", "delta-min", "palette-window", "sqrt-bound",
    "host-budget", "split-overflow", "dense-gather", "no-candidates"})


class RunLog:
    def __init__(self):
        self.entries: list[dict] = []

    def record(self, name: str, ok: bool, **info) -> bool:
        entry = {"check": name, "ok": bool(ok)}
        entry.update(info)
        self.entries.append(entry)
        return ok

    def require(self, name: str, ok: bool, **info) -> None:
        self.record(name, ok, **info)
        if not ok:
            raise AssertionError(f"invariant {name} failed: {info}")

    def note(self, name: str, **info) -> None:
        entry = {"note": name}
        entry.update(info)
        self.entries.append(entry)

    def fallback(self, reason: str, size: int, **detail) -> None:
        """One hand-off of `size` vertices to another colorer."""
        if reason not in FALLBACK_REASONS:
            raise ValueError(f"unknown fallback reason {reason!r}")
        self.note("fallback", reason=reason, size=int(size), **detail)
