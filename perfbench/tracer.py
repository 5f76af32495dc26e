"""Layer tracer that wraps the simulator's public callables from outside.

Nothing in `src/` is edited.  `install()` replaces every binding of each
traced callable -- the defining module's attribute, every other
`ccclique.*` module that imported it by name, or the class attribute for
methods -- with a wrapper that records one span per call and returns the
original's result unchanged.  `uninstall()` puts the originals back, so
untraced iterations run the unmodified code.

Spans stay in memory as tuples and are written once, by `write_spans`,
when the run ends.  Per-callable statistics accumulate into the current
bucket (`new_bucket()`), one bucket per timed iteration or set-up pass:

* `calls`  - number of calls;
* `s`      - inclusive seconds, counting only the outermost activation of
             a recursive callable;
* `self_s` - inclusive seconds minus the time covered by traced callees;
* extra counters named by the callable's `extract` hook (words, messages,
  vertices colored, ...).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable: `module` is the ccclique submodule that defines
    it, `qualname` is `func` or `Class.method`.  `extract(args, kwargs,
    result)` returns extra counters to add to the bucket."""

    module: str
    qualname: str
    extract: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple] = []     # (target, start, end, parent, tag)
        self.tag = None                  # iteration label stored per span
        self.bucket: dict = {}
        self._stack: list[list] = []     # [span index, start, child time]
        self._active: dict[str, int] = {}
        self._swaps: list[tuple] = []    # (owner, attr, original, wrapper)

    # -------------------------- patching -------------------------- #

    def install(self) -> None:
        if self._swaps:
            return
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ccclique" or name.startswith("ccclique.")}
        for target in self.targets:
            owner = mods[f"ccclique.{target.module}"]
            cls_name, _, attr = target.qualname.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(target, original)
                self._swaps.append((cls, attr, original, wrapper))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._swaps.append((mod, name, original, wrapper))
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)
        self._swaps = []

    def new_bucket(self, tag) -> dict:
        self.tag = tag
        self.bucket = {}
        return self.bucket

    # --------------------------- spans ---------------------------- #

    def _wrap(self, target: Target, original: Callable) -> Callable:
        name = target.name
        extract = target.extract
        clock = time.perf_counter
        stack, active, spans = self._stack, self._active, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            active[name] = active.get(name, 0) + 1
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                spans[index] = (name, frame[1], end, parent, self.tag)
                stat = self.bucket.get(name)
                if stat is None:
                    stat = self.bucket[name] = {"calls": 0, "s": 0.0,
                                                "self_s": 0.0}
                stat["calls"] += 1
                stat["self_s"] += dur - frame[2]
                if active[name] == 0:
                    stat["s"] += dur
            if extract is not None:
                for key, value in extract(args, kwargs, result).items():
                    stat[key] = stat.get(key, 0) + value
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", target.qualname)
        return traced

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: index, name, start and end in
        perf_counter seconds, parent index (-1 for a root), iteration."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\titeration\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, tag = span
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{parent}\t{tag}\n")
