"""Palettes, partial colorings, properness verification, concentration.

A coloring is an int64 array indexed by vertex; colors are 1-based and 0
means "uncolored".  Palettes support the two shapes the algorithms need:
contiguous per-vertex ranges (cheap at scale, used for budget allocation)
and explicit per-vertex lists in CSR form (`FreeSets`: left-over windows,
tests).  Free colors of a vertex set come from one pass over its edges into
the colored set (`free_sets`).  Violations are values, not exceptions:
verification is a reporting tool.

The central greedy and the properness check compute on the graph's packed
rows, with no per-vertex neighbour lists.  The greedy keeps a
forbidden-color table of n_words x W words, W = the largest (deg+1)-th
palette color - the smallest palette color + 1 over the vertices it
colors; `find_conflict` keeps one packed vertex set per color, at most
colors x n_words words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

UNCOLORED = 0

# _BIT[i] has bit i alone set: a vertex's bit in its packed word.  Its
# entries are 0-d arrays, which numpy ANDs into an array faster than a
# uint64 scalar
_BIT = tuple(np.array(1 << i, dtype=np.uint64) for i in range(64))


def log2n(n: int) -> float:
    return math.log2(max(2, n))


# --------------------------------------------------------------------- #
# palettes
# --------------------------------------------------------------------- #

@dataclass
class FreeSets:
    """Sorted color lists of `vertices` in CSR form: vertices[i] owns
    colors[ptr[i]:ptr[i+1]], in ascending order."""

    vertices: np.ndarray
    ptr: np.ndarray
    colors: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.ptr)

    @property
    def owner(self) -> np.ndarray:
        """Row index of every entry of `colors`."""
        return np.repeat(np.arange(len(self.vertices)), self.sizes)

    def expand(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(j, k) for every entry of the rows rows[j], in order: the entry
        is colors[ptr[rows[j]] + k]."""
        n_r = self.sizes[rows]
        j = np.repeat(np.arange(len(rows)), n_r)
        return j, np.arange(len(j)) - np.repeat(np.cumsum(n_r) - n_r, n_r)

    def select(self, keep_colors: np.ndarray | None = None,
               keep_rows: np.ndarray | None = None) -> "FreeSets":
        """The colors flagged in keep_colors on the rows flagged in
        keep_rows; None keeps all."""
        owner = self.owner
        keep = np.ones(len(owner), dtype=bool) if keep_colors is None \
            else keep_colors
        rows = slice(None) if keep_rows is None else keep_rows
        if keep_rows is not None:
            keep = keep & keep_rows[owner]
        counts = np.bincount(owner[keep], minlength=len(self.vertices))
        return FreeSets(self.vertices[rows],
                        np.concatenate(([0], np.cumsum(counts[rows]))),
                        self.colors[keep])


class Palettes:
    """Per-vertex allowed colors (1-based, positive integers).

    Backed either by inclusive ranges [lo[v], hi[v]] or by explicit sorted
    lists held as one FreeSets; in list form [lo[v], hi[v]] indexes the
    lists' `colors` instead, and a vertex without a list has an empty
    palette.  Vertices outside an algorithm's scope may carry empty ranges.
    """

    def __init__(self, n: int, lo=None, hi=None,
                 sets: FreeSets | None = None):
        self.n = n
        self._sets = sets
        if sets is not None:
            self._lo = np.zeros(n, dtype=np.int64)
            self._hi = np.full(n, -1, dtype=np.int64)
            self._lo[sets.vertices] = sets.ptr[:-1]
            self._hi[sets.vertices] = sets.ptr[1:] - 1
        else:
            self._lo = np.asarray(lo, dtype=np.int64)
            self._hi = np.asarray(hi, dtype=np.int64)

    @staticmethod
    def uniform_range(n: int, lo: int, hi: int) -> "Palettes":
        return Palettes(n, np.full(n, lo, dtype=np.int64),
                        np.full(n, hi, dtype=np.int64))

    @staticmethod
    def from_lists(n: int, lists: dict) -> "Palettes":
        vertices = np.array(sorted(int(v) for v in lists), dtype=np.int64)
        rows = [np.unique(np.asarray(lists[v], dtype=np.int64))
                for v in vertices.tolist()]
        sizes = [len(r) for r in rows]
        return Palettes(n, sets=FreeSets(
            vertices, np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)))

    @property
    def is_range(self) -> bool:
        return self._sets is None

    def _values(self, at: np.ndarray) -> np.ndarray:
        """Colors at positions `at` of the [lo, hi] ranges."""
        return at if self._sets is None else self._sets.colors[at]

    def size(self, v: int) -> int:
        return max(0, int(self._hi[v] - self._lo[v] + 1))

    def sizes(self, vertices: np.ndarray) -> np.ndarray:
        lo, hi = self._lo[vertices], self._hi[vertices]
        return np.maximum(0, hi - lo + 1)

    def colors(self, v: int) -> np.ndarray:
        return self.flat([v])[1]

    def flat(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Palettes of `vertices` in CSR form (ptr, colors): vertices[i]
        owns colors[ptr[i]:ptr[i+1]], in ascending order."""
        vertices = np.asarray(vertices, dtype=np.int64)
        sizes = self.sizes(vertices)
        starts = np.cumsum(sizes) - sizes
        at = np.arange(int(sizes.sum()), dtype=np.int64) + \
            np.repeat(self._lo[vertices] - starts, sizes)
        return np.concatenate(([0], np.cumsum(sizes))), self._values(at)

    def contains(self, vertices, colors):
        """Whether colors[i] lies in the palette of vertices[i],
        elementwise (scalars give a scalar)."""
        v = np.asarray(vertices, dtype=np.int64)
        c = np.asarray(colors, dtype=np.int64)
        if self._sets is None:
            return (self._lo[v] <= c) & (c <= self._hi[v])
        sets = self._sets
        span = int(max(sets.colors.max(initial=0), c.max(initial=0))) + 1
        return np.isin(v * span + c,
                       sets.vertices[sets.owner] * span + sets.colors)

    def span(self, vertices: np.ndarray) -> tuple[int, int]:
        """Smallest and largest color available to any of `vertices`."""
        vs = np.asarray(vertices, dtype=np.int64)
        lo, hi = self._lo[vs], self._hi[vs]
        sized = hi >= lo
        if not sized.any():
            return 1, 1
        return (int(self._values(lo[sized]).min()),
                int(self._values(hi[sized]).max()))

    def restrict(self, vertices: np.ndarray) -> "Palettes":
        """Palettes valid only on `vertices` (others empty)."""
        if self._sets is not None:
            keep = np.zeros(self.n, dtype=bool)
            keep[vertices] = True
            return Palettes(self.n, sets=self._sets.select(
                keep_rows=keep[self._sets.vertices]))
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

def free_sets(graph: Graph, palettes: Palettes, coloring: np.ndarray,
              vertices: np.ndarray) -> FreeSets:
    """Free colors of every vertex in `vertices` in one pass: palette
    entries minus the colors on edges into the colored set."""
    vertices = np.asarray(vertices, dtype=np.int64)
    ptr, colors = palettes.flat(vertices)
    free = FreeSets(vertices, ptr, colors)
    colored = np.flatnonzero(coloring != UNCOLORED)
    if len(colored) == 0 or len(colors) == 0:
        return free
    i, w = graph.edges_into(vertices, graph.pack_vertex_mask(colored))
    span = int(max(colors.max(), coloring.max())) + 1
    return free.select(~np.isin(free.owner * span + colors,
                                i * span + coloring[w]))


def free_colors(v: int, palettes: Palettes, coloring: np.ndarray,
                graph: Graph) -> np.ndarray:
    """Colors of v's palette not taken by any colored neighbor (sorted)."""
    return free_sets(graph, palettes, coloring, [v]).colors


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
        bad = np.flatnonzero(~palettes.contains(np.arange(graph.n), coloring))
        if len(bad):
            v = int(bad[0])
            return Violation("palette", vertex=v, color=int(coloring[v]))
    conflict = find_conflict(graph, coloring)
    if conflict is not None:
        u, v = conflict
        return Violation("edge", edge=(u, v), color=int(coloring[u]))
    return True


def find_conflict(graph: Graph, coloring: np.ndarray):
    """First monochromatic edge (u, v) with u < v among colored vertices,
    or None.

    Each color's vertices form one packed set; a colored row ANDed with
    its own color's set holds exactly its monochromatic neighbours.  The
    first row with a hit is u, and all its hits lie above it (a lower
    partner's row would have hit first), so v is its lowest hit.  Rows go
    in blocks of 2^15 words: each block's color sets are taken into one
    reused buffer and its rows ANDed in place, so the working set stays
    in cache and no block maps fresh pages.
    """
    coloring = np.asarray(coloring)
    colored = np.flatnonzero(coloring != UNCOLORED)
    if len(colored) == 0:
        return None
    _, cid = np.unique(coloring[colored], return_inverse=True)
    cls = np.zeros((int(cid.max()) + 1, graph.n_words), dtype=np.uint64)
    np.bitwise_or.at(cls, (cid, colored >> 6),
                     np.uint64(1) << (colored & 63).astype(np.uint64))
    step = max(1, (1 << 15) // graph.n_words)
    buf = np.empty((min(step, len(colored)), graph.n_words), dtype=np.uint64)
    for s in range(0, len(colored), step):
        idx = colored[s:s + step]
        hit = np.take(cls, cid[s:s + step], axis=0, out=buf[:len(idx)])
        hit &= graph.rows[idx]
        if hit.any():
            k = int(np.flatnonzero(hit.any(axis=1))[0])
            w = int(np.flatnonzero(hit[k])[0])
            x = int(hit[k, w])
            return int(idx[k]), 64 * w + (x & -x).bit_length() - 1
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

    Both palette forms run on the packed rows.  Bit v of ft[v >> 6, c]
    says "v has a neighbour colored base + c"; a vertex ANDs the cells it
    reads with its bit mask _BIT[v & 63], and the first zero cell (argmin)
    is its color.  No vertex picks past its (deg+1)-th palette color,
    which caps the table's width.  A range vertex takes its first clear
    column in [lo, hi]; columns at or above `used` are clear everywhere,
    so only [lo, max(used, lo)) is read.  A list vertex reads the columns
    of its first deg+1 colors.

    The picks are written to `coloring` once, after the loop; a stuck
    vertex first writes the picks made before it, then raises.  Returns
    the number of vertices colored.  Mutates `coloring`.
    """
    pending = np.unique(np.asarray(vertices, dtype=np.int64))
    pending = pending[coloring[pending] == UNCOLORED]
    if len(pending) == 0:
        return 0
    deg = graph.degrees[pending]
    lo_p, hi_p = palettes._lo[pending], palettes._hi[pending]
    is_range = palettes.is_range
    if is_range:
        base = int(lo_p.min())
        top = int(np.minimum(hi_p, lo_p + deg).max())
        lo_p, hi_p = lo_p - base, hi_p - base
    else:
        # list form: [lo, hi] index the colors; keep the first deg+1
        hi_p = np.minimum(hi_p, lo_p + deg)
        colors = palettes._sets.colors
        sized = hi_p >= lo_p
        base = int(colors[lo_p[sized]].min()) if sized.any() else 0
        top = int(colors[hi_p[sized]].max()) if sized.any() else -1
    width = max(0, top - base + 1)
    rows = graph.rows
    ft = np.zeros((graph.n_words, width), dtype=np.uint64)
    col = coloring - base
    src = np.flatnonzero((coloring != UNCOLORED) & (col >= 0) &
                         (col < width))
    src = src[np.argsort(col[src], kind="stable")]
    step = max(1, (1 << 20) // graph.n_words)
    for s in range(0, len(src), step):
        c = col[src[s:s + step]]
        starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        ft[:, c[starts]] |= np.bitwise_or.reduceat(
            rows[src[s:s + step]], starts, axis=0).T
    used = int(col[src].max()) + 1 if len(src) else 0
    picks = []
    buf = np.empty(width, dtype=np.uint64)
    w = -1
    try:
        for v, l, h in zip(pending.tolist(), lo_p.tolist(), hi_p.tolist()):
            if v >> 6 != w:
                w = v >> 6
                ftw = ft[w]
            b = _BIT[v & 63]
            if is_range:
                c = u = min(h + 1, used if used > l else l)
                if u > l:
                    taken = np.bitwise_and(ftw[l:u], b, out=buf[:u - l])
                    i = int(taken.argmin())
                    if not taken.item(i):
                        c = l + i
                if c > h:
                    raise _stuck(v)
            else:
                if h < l:
                    raise _stuck(v)
                cols = colors[l:h + 1] - base
                taken = ftw[cols] & b
                i = int(taken.argmin())
                if taken.item(i):
                    raise _stuck(v)
                c = cols.item(i)
            picks.append(c)
            col = ft[:, c]
            np.bitwise_or(col, rows[v], out=col)
            if c >= used:
                used = c + 1
    finally:
        coloring[pending[:len(picks)]] = \
            base + np.array(picks, dtype=np.int64)
    return len(pending)


def _stuck(v: int) -> AssertionError:
    return AssertionError(
        f"greedy stuck at {v}: palette slack invariant violated")
