"""Undirected simple graphs backed by a bit-packed adjacency matrix.

Rows are uint64 words, least-significant bit first, so dense instances at
n = 16384 cost ~33 MB and neighborhood intersections reduce to AND +
popcount.  Graphs are immutable after construction and safe to share.

Bulk passes over the adjacency (generation, symmetrization, degree and
common-neighbour counts, validation) work in blocks of rows or columns
sized so that one temporary holds about `BLOCK_BYTES` (1 MB): 2^17 raw
64-bit draws (2^18 uint32 cells) or 2^17 uint64 words.  So beyond the
O(n^2/64) words of the adjacency itself, their scratch memory does not
grow with n.

G(n, p) reads its seeded uint32 stream as raw 64-bit PCG64 words, each
the low and then the high uint32 of the stream, and thresholds only the
cells on or above each row block's diagonal square.  Symmetrization and
validation transpose the adjacency a strip of word columns at a time with
`_transpose_words`, which works on whole 64x64 bit blocks (Warren,
Hacker's Delight, 7-3): a word transpose and a byte shuffle move every
8x8 bit tile into one word, and three shift/mask rounds transpose the
bits inside it.  Generation is about 3x faster this way than with
per-element uint32 draws and an unpack/pack transpose (`gen_random_graph`
gives the times).

External format: edge-list text, one "u v" pair per line, 0-indexed,
whitespace-separated; lines starting with '#' are comments.
"""

from __future__ import annotations

import io
from typing import Iterator

import numpy as np

from .errors import InputError

#: Size in bytes of one temporary in a blocked pass over the adjacency.
BLOCK_BYTES = 1 << 20


def _block(width: int, itemsize: int) -> int:
    """Rows of `width` items of `itemsize` bytes in one block (>= 1)."""
    return max(1, BLOCK_BYTES // (itemsize * max(1, width)))


def _bit(cols: np.ndarray) -> np.ndarray:
    """Each column id's bit within its uint64 word."""
    return np.uint64(1) << (cols & 63).astype(np.uint64)


def _pack_bool(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Pack a (m, <=64*n_words) boolean matrix into (m, n_words) uint64."""
    m, width = bits.shape
    padded = width != n_words * 64
    if padded:
        full = np.zeros((m, n_words * 64), dtype=bool)
        full[:, :width] = bits
        bits = full
    packed = np.ascontiguousarray(np.packbits(bits, axis=1,
                                              bitorder="little"))
    return packed.view(np.uint64).reshape(m, n_words)


def _unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Unpack (m, n_words) uint64 rows into a (m, n) uint8 0/1 matrix."""
    return np.unpackbits(
        rows.view(np.uint8).reshape(rows.shape[0], -1),
        axis=1, bitorder="little", count=n,
    )


#: The delta swaps that transpose the 8x8 bit matrix in one word (bit
#: 8r + q is row r, column q): (shift, mask, 1 + 2^shift).  With t the
#: masked differences, x ^ t ^ (t << shift) is one multiply, as the two
#: terms share no bit.
_TILE_ROUNDS = tuple((np.uint64(sh), np.uint64(mask), np.uint64(1 + (1 << sh)))
                     for sh, mask in ((7, 0x00AA00AA00AA00AA),
                                      (14, 0x0000CCCC0000CCCC),
                                      (28, 0x00000000F0F0F0F0)))


def _transpose_words(block: np.ndarray) -> np.ndarray:
    """Bit transpose of an (m, w) uint64 matrix: the (64 * w, ceil(m/64))
    matrix whose row c holds column c of `block` (rows past m read 0).

    Each 8x8 bit tile is the byte of one word column in 8 consecutive rows.
    A word transpose and a byte shuffle gather every tile into one word,
    the rounds of `_TILE_ROUNDS` transpose it there, and a second byte
    shuffle lays the tiles out as the transposed rows.  Its three
    temporaries are the size of `block` padded to whole 64-row blocks."""
    m, w = block.shape
    r = (m + 63) // 64
    z = np.zeros((w, 64 * r), dtype=np.uint64)
    z[:, :m] = block.T
    # tile (J, B, g): byte B of word column J in rows 8g .. 8g + 7
    tiles = np.ascontiguousarray(
        z.view(np.uint8).reshape(w, 8 * r, 8, 8).transpose(0, 3, 1, 2))
    x = tiles.view(np.uint64).reshape(-1)
    t = np.empty_like(x)
    for shift, mask, mul in _TILE_ROUNDS:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        t *= mul
        x ^= t
    # byte q of tile (J, B, g) is now byte g of row 64J + 8B + q
    z.view(np.uint8).reshape(8 * w, 8, 8 * r)[...] = \
        tiles.reshape(8 * w, 8 * r, 8).transpose(0, 2, 1)
    return z.reshape(64 * w, r)


def _strips(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Strips of word columns [w0, w1) of an n-vertex adjacency, with
    their vertex range [s, e), narrow enough that the three temporaries of
    `_transpose_words` on all n rows hold about `BLOCK_BYTES` together."""
    nw = (n + 63) // 64
    w = _block(64 * nw, 3 * 8)
    for w0 in range(0, nw, w):
        w1 = min(nw, w0 + w)
        yield w0, w1, 64 * w0, min(n, 64 * w1)


class Graph:
    """Immutable simple undirected graph on vertices [0, n)."""

    def __init__(self, n: int, rows: np.ndarray):
        self.n = n
        self.n_words = (n + 63) // 64
        if rows.shape != (n, self.n_words):
            raise ValueError("adjacency shape mismatch")
        self.rows = rows
        self.degrees = self._popcounts()

    def _popcounts(self, mask: np.ndarray | None = None,
                   rows: np.ndarray | None = None) -> np.ndarray:
        """Set bits of each of `rows` (every row by default) ANDed with
        the packed `mask`, in row blocks."""
        m = self.n if rows is None else len(rows)
        out = np.empty(m, dtype=np.int64)
        step = _block(self.n_words, 8)
        for s in range(0, m, step):
            block = self.rows[s:s + step] if rows is None else \
                self.rows[rows[s:s + step]]
            if mask is not None:
                block = block & mask
            out[s:s + step] = np.bitwise_count(block).sum(axis=1)
        return out

    # ---------------------------- constructors ------------------------ #

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Graph from (u, v) pairs; duplicates are merged.  Raises
        InputError for the first self-loop or out-of-range pair in input
        order."""
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise InputError("edges must be (u, v) pairs")
        u, v = e[:, 0], e[:, 1]
        loop = u == v
        bad = loop | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            i = int(np.argmax(bad))
            if loop[i]:
                raise InputError(f"self-loop at {u[i]}")
            raise InputError(f"edge ({u[i]},{v[i]}) out of range for n={n}")
        nw = (n + 63) // 64
        rows = np.zeros((n, nw), dtype=np.uint64)
        flat = rows.reshape(-1)
        for a, b in ((u, v), (v, u)):
            np.bitwise_or.at(flat, a * nw + (b >> 6), _bit(b))
        return Graph(n, rows)

    @staticmethod
    def complete(n: int) -> "Graph":
        nw = (n + 63) // 64
        rows = np.full((n, nw), ~np.uint64(0))
        if n % 64:
            rows[:, -1] = (np.uint64(1) << np.uint64(n % 64)) - np.uint64(1)
        v = np.arange(n)
        rows[v, v >> 6] ^= _bit(v)
        return Graph(n, rows)

    # ------------------------------ queries --------------------------- #

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @property
    def n_edges(self) -> int:
        return int(self.degrees.sum()) // 2

    def row_bool(self, v: int) -> np.ndarray:
        return _unpack_rows(self.rows[v:v + 1], self.n)[0].astype(bool)

    def neighbors(self, v: int) -> np.ndarray:
        return np.nonzero(self.row_bool(v))[0].astype(np.int64)

    def common_neighbors(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Count |N(u) & N(v)| for parallel index arrays (vectorized)."""
        out = np.empty(len(us), dtype=np.int64)
        step = _block(self.n_words, 8)
        for s in range(0, len(us), step):
            e = min(len(us), s + step)
            both = self.rows[us[s:e]] & self.rows[vs[s:e]]
            out[s:e] = np.bitwise_count(both).sum(axis=1)
        return out

    def pack_vertex_mask(self, vertices: np.ndarray) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[np.asarray(vertices, dtype=np.int64)] = True
        return _pack_bool(mask[None, :], self.n_words)[0]

    def degrees_within(self, packed_mask: np.ndarray,
                       rows: np.ndarray | None = None) -> np.ndarray:
        """Degree counting only neighbors in the mask.

        With `rows` given, only those vertices' degrees are computed and
        the result is indexed by the full vertex range (zeros elsewhere).
        """
        if rows is None:
            return self._popcounts(packed_mask)
        rows = np.asarray(rows, dtype=np.int64)
        out = np.zeros(self.n, dtype=np.int64)
        out[rows] = self._popcounts(packed_mask, rows)
        return out

    def degrees_among(self, vertices: np.ndarray) -> np.ndarray:
        """Degree of each of `vertices` in the subgraph they induce,
        indexed by vertex id (zeros elsewhere)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            return np.zeros(self.n, dtype=np.int64)
        return self.degrees_within(self.pack_vertex_mask(vertices),
                                   rows=vertices)

    def edges_into(self, vertices: np.ndarray, packed_mask: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Every edge from vertices[i] to a vertex w in the mask, as index
        arrays (i, w) in lexicographic order.  Only the nonzero words of
        the masked rows are unpacked, in row chunks, so memory stays
        O(pairs) plus a few MB, whatever len(vertices) * n is."""
        vertices = np.asarray(vertices, dtype=np.int64)
        step = max(1, (1 << 22) // max(1, self.n))
        out_i, out_w = [np.zeros(0, dtype=np.int64)], \
            [np.zeros(0, dtype=np.int64)]
        for s in range(0, len(vertices), step):
            rows = self.rows[vertices[s:s + step]] & packed_mask[None, :]
            at = np.flatnonzero(rows)
            bit = np.flatnonzero(np.unpackbits(
                rows.ravel()[at].view(np.uint8), bitorder="little"))
            at = at[bit >> 6]
            out_i.append(at // self.n_words + s)
            out_w.append(64 * (at % self.n_words) + (bit & 63))
        return np.concatenate(out_i), np.concatenate(out_w)

    def edges_within(self, vertices: np.ndarray) -> np.ndarray:
        """Edges among `vertices` as an (m, 2) array of global ids with
        u < v, in lexicographic order.  The input may be unsorted or hold
        duplicates."""
        verts = np.unique(np.asarray(vertices, dtype=np.int64))
        i, w = self.edges_into(verts, self.pack_vertex_mask(verts))
        u = verts[i]
        keep = w > u
        return np.stack([u[keep], w[keep]], axis=1)

    def induced(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph; returns (graph, original-id array).

        Vertex i of the subgraph corresponds to vertices[i] (sorted).
        """
        verts = np.sort(np.asarray(vertices, dtype=np.int64))
        k = len(verts)
        nw = (k + 63) // 64
        if k == 0:
            return Graph(0, np.zeros((0, 0), dtype=np.uint64)), verts
        bits = _unpack_rows(self.rows[verts], self.n)[:, verts].astype(bool)
        return Graph(k, _pack_bool(bits, nw)), verts

    def edges_iter(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order, one row
        block at a time."""
        every = self.pack_vertex_mask(np.arange(self.n))
        step = _block(self.n, 8)
        for s in range(0, self.n, step):
            i, w = self.edges_into(np.arange(s, min(self.n, s + step)),
                                   every)
            keep = w > i + s
            yield from zip((i[keep] + s).tolist(), w[keep].tolist())

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v (small/medium graphs)."""
        return self.edges_within(np.arange(self.n))

    # ------------------------------- checks ---------------------------- #

    def validate(self) -> None:
        """Assert simplicity and symmetry (test/diagnostic helper)."""
        v = np.arange(self.n)
        loops = np.flatnonzero(self.rows[v, v >> 6] & _bit(v))
        if len(loops):
            raise InputError(f"self-loop at {loops[0]}")
        # rows [s, e) against the transposed strip of word columns [w0, w1)
        for w0, w1, s, e in _strips(self.n):
            back = _transpose_words(self.rows[:, w0:w1])[:e - s]
            if not np.array_equal(self.rows[s:e], back):
                raise InputError("adjacency not symmetric")


def check_random_graph_params(n: int, edge_probability: float) -> None:
    """Raise InputError unless G(n, p) is a valid instance."""
    if n < 1:
        raise InputError("n must be >= 1")
    if not (0.0 <= edge_probability <= 1.0):
        raise InputError("edge probability must lie in [0, 1]")


def gen_random_graph(n: int, edge_probability: float, rng_seed: int) -> Graph:
    """Erdos-Renyi G(n, p), reproducible from the seed.

    Cell (u, v), u < v, is an edge when the uint32 draw at position
    u * n + v of the seeded stream is below p * 2^32.  The stream is
    `default_rng(seed).integers(0, 2**32, dtype=np.uint32)`, which for
    PCG64 yields the low and then the high half of each raw 64-bit output,
    so it is read here as `random_raw` words viewed as little-endian
    uint32 pairs.  The stream does not depend on how it is cut into
    blocks, so the graph does not either.

    Rows are drawn in blocks of whole rows; only the columns from the
    block's first row on (rounded down to a byte) are thresholded, and
    only their diagonal square is masked to the strict upper triangle.
    The upper triangle is then mirrored with `_transpose_words`, a strip
    of word columns at a time.  p = 1 is the complete graph.

    Against per-element `integers` draws and an unpack/pack transpose,
    the same bytes come about 3x faster: G(96, 0.12) 0.090 -> 0.061 ms,
    G(256, 0.015) 0.47 -> 0.16 ms, G(1024, 0.0075) 7.8 -> 2.6 ms,
    G(4096, 0.8) 81 -> 29 ms, G(16384, 0.004) 1.40 -> 0.45 s (2-vCPU
    x86_64 VM, numpy 2.4)."""
    check_random_graph_params(n, edge_probability)
    if edge_probability == 1.0:
        return Graph.complete(n)
    thresh = np.uint32(min(2 ** 32 - 1, round(edge_probability * 2 ** 32)))
    rows = _upper_triangle(n, thresh,
                           np.random.default_rng(rng_seed).bit_generator)
    # rows |= rows^T a strip at a time: only rows above a strip's last
    # column hold upper-triangle bits in it, and the earlier strips have
    # written only words left of it.
    for w0, w1, s, e in _strips(n):
        back = _transpose_words(rows[:e, w0:w1])
        rows[s:e, :back.shape[1]] |= back[:e - s]
    return Graph(n, rows)


def _upper_triangle(n: int, thresh: np.uint32,
                    bitgen: np.random.BitGenerator) -> np.ndarray:
    """Packed rows holding the cells (u, v), u < v, whose draw is below
    `thresh`, drawn a block of whole rows at a time."""
    rows = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    rows8 = rows.view(np.uint8)
    step = _block(n, 4)
    for s in range(0, n, step):
        e = min(n, s + step)
        # A block that starts on an odd position finds its first draw,
        # cell (s, 0), in the high half of the previous block's last word.
        # Column 0 is never above the diagonal, so that half is not kept:
        # the words drawn here start at position s * n + off, and `cells`
        # views the block's columns from c on (from 1 when c < off).
        off = (s * n) & 1
        draw = bitgen.random_raw(((e - s) * n - off + 1) // 2).view("<u4")
        c = 8 * (s // 8)
        lead = max(0, off - c)
        cells = np.ndarray((e - s, n - c - lead), np.uint32, draw,
                           4 * (c + lead - off), (4 * n, 4))
        bits = np.zeros((e - s, n - c), dtype=bool)
        np.less(cells, thresh, out=bits[:, lead:])
        # the diagonal square [s, e) x [c, e) keeps column > row: row i of
        # `above` starts i cells earlier in a run of e - c False then True
        run = np.zeros(2 * e - s - c - 1, dtype=bool)
        run[e - c:] = True
        above = np.ndarray((e - s, e - c), bool, run, e - s - 1, (-1, 1))
        bits[:, :e - c] &= above
        rows8[s:e, c // 8:(n + 7) // 8] = np.packbits(bits, axis=1,
                                                      bitorder="little")
    return rows


# ------------------------------ edge-list IO ------------------------------ #

def write_edge_list(graph: Graph, fh) -> None:
    fh.write(f"# n={graph.n}\n")
    for u, v in graph.edges_iter():
        fh.write(f"{u} {v}\n")


def read_edge_list(fh) -> Graph:
    """Parse edge-list text.  A comment whose first token is `n=<int>`
    pins the vertex count, and every id must then lie below it; without
    one, n is max id + 1.  A list that names no vertex is an InputError."""
    edges, lines = [], []
    n_pin = None
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            head = (line[1:].split() or [""])[0]
            if head.startswith("n="):
                if not head[2:].isdecimal():
                    raise InputError(f"line {lineno}: bad vertex count "
                                     f"{head!r}")
                n_pin = int(head[2:])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"line {lineno}: non-integer vertex") from exc
        edges.append((u, v))
        lines.append(lineno)
    if n_pin is None:
        n_pin = max((max(e) + 1 for e in edges), default=0)
    for e, lineno in zip(edges, lines):
        if max(e) >= n_pin:
            raise InputError(f"line {lineno}: vertex {max(e)} at or above "
                             f"the pinned n={n_pin}")
    if n_pin == 0 and not edges:
        raise InputError("the edge list names no vertex")
    return Graph.from_edges(n_pin, edges)


def load_graph(path: str) -> Graph:
    with open(path) as fh:
        return read_edge_list(fh)


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w") as fh:
        write_edge_list(graph, fh)


def graph_from_text(text: str) -> Graph:
    return read_edge_list(io.StringIO(text))
