"""Undirected simple graphs backed by a bit-packed adjacency matrix.

Rows are uint64 words, least-significant bit first, so dense instances at
n = 16384 cost ~33 MB and neighborhood intersections reduce to AND +
popcount.  Graphs are immutable after construction and safe to share.

Bulk passes over the adjacency (generation, symmetrization, degree and
common-neighbour counts, validation) work in blocks of rows or columns
sized so that one temporary holds about `BLOCK_BYTES` (1 MB): 2^18 uint32
draws, 2^17 uint64 words or 2^20 unpacked bits.  So beyond the O(n^2/64)
words of the adjacency itself, their scratch memory does not grow with n.

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

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u, v >> 6] >> np.uint64(v & 63)) & np.uint64(1))

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
        # rows [s, e) against columns [s, e): the 64 * w rows unpacked, and
        # the same w word columns of every row unpacked and transposed
        w = _block(self.n, 64)
        for w0 in range(0, self.n_words, w):
            w1 = min(self.n_words, w0 + w)
            s, e = 64 * w0, min(self.n, 64 * w1)
            bits = _unpack_rows(self.rows[s:e], self.n)
            back = _unpack_rows(self.rows[:, w0:w1], e - s).T
            if not np.array_equal(bits, back):
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
    u * n + v of the seeded stream is below p * 2^32.  The stream does not
    depend on how it is cut into blocks, so the graph does not either."""
    check_random_graph_params(n, edge_probability)
    rng = np.random.default_rng(rng_seed)
    nw = (n + 63) // 64
    rows = np.zeros((n, nw), dtype=np.uint64)
    thresh = np.uint32(min(2 ** 32 - 1, round(edge_probability * 2 ** 32)))
    cols = np.arange(n)
    # strict upper triangle, in row blocks of whole rows of draws
    step = _block(n, 4)
    for s in range(0, n, step):
        e = min(n, s + step)
        draw = rng.integers(0, 2 ** 32, size=(e - s, n), dtype=np.uint32)
        block = (draw < thresh) if edge_probability < 1.0 else \
            np.ones((e - s, n), dtype=bool)
        block &= cols[None, :] > np.arange(s, e)[:, None]
        rows[s:e] = _pack_bool(block, nw)
    # symmetrize: rows |= rows^T over blocks of w word columns, each of n
    # rows unpacked to 64 bytes.  Only rows above a block's last column
    # hold upper-triangle bits in it, and the earlier blocks have written
    # only columns left of it.
    w = _block(n, 64)
    for w0 in range(0, nw, w):
        w1 = min(nw, w0 + w)
        cs, ce = 64 * w0, min(n, 64 * w1)
        sub = _unpack_rows(rows[:ce, w0:w1], ce - cs)
        tw = (ce + 63) // 64
        rows[cs:ce, :tw] |= _pack_bool(sub.T, tw)
    return Graph(n, rows)


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
