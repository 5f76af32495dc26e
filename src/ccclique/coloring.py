"""Palettes, partial colorings, properness verification, concentration.

A coloring is an int64 array indexed by vertex; colors are 1-based and 0
means "uncolored".  Palettes support the two shapes the algorithms need:
contiguous per-vertex ranges (cheap at scale, used for budget allocation)
and explicit per-vertex lists (left-over windows, tests).  Violations are
values, not exceptions: verification is a reporting tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _unpack_rows

UNCOLORED = 0


def log2n(n: int) -> float:
    return math.log2(max(2, n))


# --------------------------------------------------------------------- #
# palettes
# --------------------------------------------------------------------- #

class Palettes:
    """Per-vertex allowed colors (1-based, positive integers).

    Backed either by inclusive ranges [lo[v], hi[v]] or by explicit sorted
    lists.  Vertices outside an algorithm's scope may carry empty ranges.
    """

    def __init__(self, n: int, lo=None, hi=None, lists=None):
        self.n = n
        if lists is not None:
            self._lists = {int(v): np.asarray(c, dtype=np.int64)
                           for v, c in lists.items()}
            self._lo = self._hi = None
        else:
            self._lists = None
            self._lo = np.asarray(lo, dtype=np.int64)
            self._hi = np.asarray(hi, dtype=np.int64)

    @staticmethod
    def uniform_range(n: int, lo: int, hi: int) -> "Palettes":
        return Palettes(n, np.full(n, lo, dtype=np.int64),
                        np.full(n, hi, dtype=np.int64))

    @staticmethod
    def from_lists(n: int, lists: dict) -> "Palettes":
        return Palettes(n, lists={v: np.unique(np.asarray(c, dtype=np.int64))
                                  for v, c in lists.items()})

    @property
    def is_range(self) -> bool:
        return self._lists is None

    def size(self, v: int) -> int:
        if self._lists is not None:
            return len(self._lists.get(v, ()))
        return max(0, int(self._hi[v] - self._lo[v] + 1))

    def sizes(self, vertices: np.ndarray) -> np.ndarray:
        if self._lists is not None:
            return np.array([self.size(int(v)) for v in vertices],
                            dtype=np.int64)
        lo, hi = self._lo[vertices], self._hi[vertices]
        return np.maximum(0, hi - lo + 1)

    def colors(self, v: int) -> np.ndarray:
        if self._lists is not None:
            return self._lists.get(v, np.zeros(0, dtype=np.int64))
        return np.arange(self._lo[v], self._hi[v] + 1, dtype=np.int64)

    def flat(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Palettes of `vertices` in CSR form (ptr, colors): vertices[i]
        owns colors[ptr[i]:ptr[i+1]], in ascending order."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if self._lists is not None:
            lists = [self.colors(int(v)) for v in vertices]
            sizes = np.array([len(a) for a in lists], dtype=np.int64)
            colors = np.concatenate(lists) if lists else \
                np.zeros(0, dtype=np.int64)
        else:
            sizes = self.sizes(vertices)
            starts = np.cumsum(sizes) - sizes
            colors = np.arange(int(sizes.sum()), dtype=np.int64) + \
                np.repeat(self._lo[vertices] - starts, sizes)
        return np.concatenate(([0], np.cumsum(sizes))), colors

    def contains(self, v: int, color: int) -> bool:
        if self._lists is not None:
            arr = self._lists.get(v)
            if arr is None or len(arr) == 0:
                return False
            i = int(np.searchsorted(arr, color))
            return i < len(arr) and arr[i] == color
        return bool(self._lo[v] <= color <= self._hi[v])

    def max_color(self) -> int:
        if self._lists is not None:
            return max((int(a[-1]) for a in self._lists.values() if len(a)),
                       default=0)
        sized = self._hi >= self._lo
        return int(self._hi[sized].max()) if sized.any() else 0

    def span(self, vertices: np.ndarray) -> tuple[int, int]:
        """Smallest and largest color available to any of `vertices`."""
        lo, hi = None, None
        if self._lists is not None:
            for v in vertices:
                arr = self._lists.get(int(v))
                if arr is None or len(arr) == 0:
                    continue
                lo = int(arr[0]) if lo is None else min(lo, int(arr[0]))
                hi = int(arr[-1]) if hi is None else max(hi, int(arr[-1]))
        else:
            vs = np.asarray(vertices, dtype=np.int64)
            sized = self._hi[vs] >= self._lo[vs]
            if sized.any():
                lo = int(self._lo[vs][sized].min())
                hi = int(self._hi[vs][sized].max())
        if lo is None:
            return 1, 1
        return lo, hi

    def restrict(self, vertices: np.ndarray) -> "Palettes":
        """Palettes valid only on `vertices` (others empty)."""
        if self._lists is not None:
            keep = set(int(v) for v in vertices)
            return Palettes(self.n, lists={v: a for v, a in
                                           self._lists.items() if v in keep})
        lo = np.full(self.n, 1, dtype=np.int64)
        hi = np.zeros(self.n, dtype=np.int64)
        lo[vertices] = self._lo[vertices]
        hi[vertices] = self._hi[vertices]
        return Palettes(self.n, lo, hi)


def palette_ranges(lo: int, sizes) -> list[tuple[int, int]]:
    """Disjoint contiguous color ranges [lo_j, hi_j] of the given sizes,
    packed upward from `lo` (one per part of a split)."""
    ends = lo - 1 + np.cumsum(np.asarray(sizes, dtype=np.int64))
    return [(int(e) - int(k) + 1, int(e)) for k, e in zip(sizes, ends)]


# --------------------------------------------------------------------- #
# free colors and properness
# --------------------------------------------------------------------- #

def free_colors(v: int, palettes: Palettes, coloring: np.ndarray,
                graph: Graph) -> np.ndarray:
    """Colors of v's palette not taken by any colored neighbor (sorted)."""
    nbr_colors = coloring[graph.neighbors(v)]
    taken = np.unique(nbr_colors[nbr_colors != UNCOLORED])
    mine = palettes.colors(v)
    if len(taken) == 0:
        return mine
    return np.setdiff1d(mine, taken, assume_unique=False)


@dataclass(frozen=True)
class Violation:
    """First properness violation found: an uncolored vertex, a color
    outside its palette, or a monochromatic edge."""

    kind: str                 # "uncolored" | "palette" | "edge"
    vertex: int | None = None
    edge: tuple[int, int] | None = None
    color: int | None = None

    def __bool__(self) -> bool:  # a violation is falsy as a "proper?" answer
        return False


def is_proper(graph: Graph, coloring: np.ndarray, palettes: Palettes | None):
    """True iff every vertex is colored from its own palette and no edge is
    monochromatic; otherwise the first Violation in scan order."""
    coloring = np.asarray(coloring)
    unc = np.nonzero(coloring == UNCOLORED)[0]
    if len(unc):
        return Violation("uncolored", vertex=int(unc[0]))
    if palettes is not None:
        if palettes.is_range:
            bad = np.nonzero((coloring < palettes._lo) |
                             (coloring > palettes._hi))[0]
            if len(bad):
                v = int(bad[0])
                return Violation("palette", vertex=v, color=int(coloring[v]))
        else:
            for v in range(graph.n):
                if not palettes.contains(v, int(coloring[v])):
                    return Violation("palette", vertex=v,
                                     color=int(coloring[v]))
    conflict = find_conflict(graph, coloring)
    if conflict is not None:
        u, v = conflict
        return Violation("edge", edge=(u, v), color=int(coloring[u]))
    return True


def find_conflict(graph: Graph, coloring: np.ndarray):
    """First monochromatic edge (u, v) with u < v among colored vertices,
    or None.  Vectorized row-chunk scan."""
    coloring = np.asarray(coloring)
    cols = np.arange(graph.n)
    for s in range(0, graph.n, 1024):
        e = min(graph.n, s + 1024)
        bits = _unpack_rows(graph.rows[s:e], graph.n).astype(bool)
        colored = (coloring[s:e] != UNCOLORED)[:, None]
        eq = coloring[None, :] == coloring[s:e, None]
        eq &= coloring[None, :] != UNCOLORED
        hit = bits & eq & colored & (cols[None, :] > (cols[s:e])[:, None])
        if hit.any():
            i, j = np.argwhere(hit)[0]
            return int(s + i), int(j)
    return None


def assert_no_conflict(graph: Graph, coloring: np.ndarray, where: str = ""):
    conflict = find_conflict(graph, coloring)
    if conflict is not None:
        u, v = conflict
        raise AssertionError(
            f"monochromatic edge ({u},{v}) color {coloring[u]} {where}")


# --------------------------------------------------------------------- #
# concentration corollary
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ConcentrationBound:
    mu: float
    n: int
    low: float
    high: float

    def contains(self, x: float) -> bool:
        return self.low <= x <= self.high


def concentration_bound(mu: float, n: int) -> ConcentrationBound:
    """Two-sided bound for sums of independent [0,1] variables: mu +-
    sqrt(5 mu log2 n) when mu >= 5 log2 n, else [0, mu + 5 log2 n].

    Logarithms are base 2 throughout the package.
    """
    if mu < 0 or n < 2:
        raise ValueError("need mu >= 0 and n >= 2")
    ln = 5.0 * log2n(n)
    if mu >= ln:
        w = math.sqrt(mu * ln)
        return ConcentrationBound(mu, n, mu - w, mu + w)
    return ConcentrationBound(mu, n, 0.0, mu + ln)


# --------------------------------------------------------------------- #
# central greedy (shared deterministic fallback)
# --------------------------------------------------------------------- #

def greedy_list_color(graph: Graph, palettes: Palettes,
                      coloring: np.ndarray, vertices) -> int:
    """Color `vertices` in ascending id order, each taking its smallest
    free color.  Succeeds whenever each palette has more colors than the
    vertex's colored-or-pending neighbors (the deg+1 slack invariant).

    Returns the number of vertices colored.  Mutates `coloring`.
    """
    count = 0
    order = np.sort(np.asarray(vertices, dtype=np.int64))
    if palettes.is_range:
        lo, hi = palettes._lo, palettes._hi
        scratch = np.zeros(int((hi - lo).max(initial=0)) + 2, dtype=bool)
        for v in order:
            v = int(v)
            if coloring[v] != UNCOLORED:
                continue
            size = int(hi[v] - lo[v] + 1)
            cols = coloring[graph.neighbors(v)] - lo[v]
            cols = cols[(cols >= 0) & (cols < size)]
            scratch[: size] = False
            scratch[cols] = True
            c = int(np.argmin(scratch[: size]))
            if scratch[c]:
                raise AssertionError(
                    f"greedy stuck at {v}: palette slack invariant violated")
            coloring[v] = int(lo[v]) + c
            count += 1
        return count
    for v in order:
        v = int(v)
        if coloring[v] != UNCOLORED:
            continue
        options = free_colors(v, palettes, coloring, graph)
        if len(options) == 0:
            raise AssertionError(
                f"greedy stuck at {v}: palette slack invariant violated")
        coloring[v] = int(options[0])
        count += 1
    return count
