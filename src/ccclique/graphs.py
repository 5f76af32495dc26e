"""Undirected simple graphs backed by a bit-packed adjacency matrix.

Rows are uint64 words, least-significant bit first, so dense instances at
n = 16384 cost ~33 MB and neighborhood intersections reduce to AND +
popcount.  Graphs are immutable after construction and safe to share.

External format: edge-list text, one "u v" pair per line, 0-indexed,
whitespace-separated; lines starting with '#' are comments.
"""

from __future__ import annotations

import io
from typing import Iterator

import numpy as np

from .errors import InputError


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
        self.degrees = np.bitwise_count(rows).sum(axis=1).astype(np.int64)

    # ---------------------------- constructors ------------------------ #

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        nw = (n + 63) // 64
        rows = np.zeros((n, nw), dtype=np.uint64)
        one = np.uint64(1)
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InputError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            rows[u, v >> 6] |= one << np.uint64(v & 63)
            rows[v, u >> 6] |= one << np.uint64(u & 63)
        return Graph(n, rows)

    @staticmethod
    def complete(n: int) -> "Graph":
        nw = (n + 63) // 64
        bits = np.ones((n, n), dtype=bool)
        np.fill_diagonal(bits, False)
        return Graph(n, _pack_bool(bits, nw))

    # ------------------------------ queries --------------------------- #

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @property
    def n_edges(self) -> int:
        return int(self.degrees.sum()) // 2

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def row_bool(self, v: int) -> np.ndarray:
        return _unpack_rows(self.rows[v:v + 1], self.n)[0].astype(bool)

    def neighbors(self, v: int) -> np.ndarray:
        return np.nonzero(self.row_bool(v))[0].astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u, v >> 6] >> np.uint64(v & 63)) & np.uint64(1))

    def common_neighbors(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Count |N(u) & N(v)| for parallel index arrays (vectorized)."""
        out = np.empty(len(us), dtype=np.int64)
        step = max(1, 8_000_000 // max(1, self.n_words))
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
            return np.bitwise_count(self.rows & packed_mask[None, :]).sum(
                axis=1).astype(np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        out = np.zeros(self.n, dtype=np.int64)
        out[rows] = np.bitwise_count(
            self.rows[rows] & packed_mask[None, :]).sum(axis=1)
        return out

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

    def edges_iter(self, chunk: int = 2048) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for s in range(0, self.n, chunk):
            e = min(self.n, s + chunk)
            bits = _unpack_rows(self.rows[s:e], self.n).astype(bool)
            cols = np.arange(self.n)
            for i in range(e - s):
                u = s + i
                for v in np.nonzero(bits[i] & (cols > u))[0]:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v (small/medium graphs)."""
        us, vs = [], []
        for s in range(0, self.n, 2048):
            e = min(self.n, s + 2048)
            bits = _unpack_rows(self.rows[s:e], self.n).astype(bool)
            tri = np.nonzero(bits)
            keep = tri[1] > (tri[0] + s)
            us.append(tri[0][keep] + s)
            vs.append(tri[1][keep])
        if not us:
            return np.zeros((0, 2), dtype=np.int64)
        return np.stack([np.concatenate(us), np.concatenate(vs)],
                        axis=1).astype(np.int64)

    # ------------------------------- checks ---------------------------- #

    def validate(self) -> None:
        """Assert simplicity and symmetry (test/diagnostic helper)."""
        one = np.uint64(1)
        for v in range(self.n):
            if (self.rows[v, v >> 6] >> np.uint64(v & 63)) & one:
                raise InputError(f"self-loop at {v}")
        for s in range(0, self.n, 2048):
            e = min(self.n, s + 2048)
            bits = _unpack_rows(self.rows[s:e], self.n)
            back = _unpack_rows(self.rows, self.n)[:, s:e].T
            if not np.array_equal(bits, back):
                raise InputError("adjacency not symmetric")


def check_random_graph_params(n: int, edge_probability: float) -> None:
    """Raise InputError unless G(n, p) is a valid instance."""
    if n < 1:
        raise InputError("n must be >= 1")
    if not (0.0 <= edge_probability <= 1.0):
        raise InputError("edge probability must lie in [0, 1]")


def gen_random_graph(n: int, edge_probability: float, rng_seed: int) -> Graph:
    """Erdos-Renyi G(n, p), reproducible from the seed."""
    check_random_graph_params(n, edge_probability)
    rng = np.random.default_rng(rng_seed)
    nw = (n + 63) // 64
    rows = np.zeros((n, nw), dtype=np.uint64)
    chunk = max(1, min(n, 32_000_000 // max(1, n)))
    thresh = np.uint32(min(2 ** 32 - 1, round(edge_probability * 2 ** 32)))
    cols = np.arange(n)
    # strict upper triangle, row chunks
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        draw = rng.integers(0, 2 ** 32, size=(e - s, n), dtype=np.uint32)
        block = (draw < thresh) if edge_probability < 1.0 else \
            np.ones((e - s, n), dtype=bool)
        block &= cols[None, :] > np.arange(s, e)[:, None]
        rows[s:e] = _pack_bool(block, nw)
    # symmetrize: rows |= rows^T, column chunks of 64*words
    cchunk = max(64, (chunk // 64) * 64)
    for cs in range(0, n, cchunk):
        ce = min(n, cs + cchunk)
        w0, w1 = cs >> 6, (ce + 63) >> 6
        sub = _unpack_rows(rows[:, w0:w1], min(n - cs, (w1 - w0) * 64))
        subT = sub[:, : ce - cs].T.astype(bool)  # (ce-cs, n)
        rows[cs:ce] |= _pack_bool(subT, nw)
    return Graph(n, rows)


# ------------------------------ edge-list IO ------------------------------ #

def write_edge_list(graph: Graph, fh) -> None:
    fh.write(f"# n={graph.n}\n")
    for u, v in graph.edges_iter():
        fh.write(f"{u} {v}\n")


def read_edge_list(fh) -> Graph:
    """Parse edge-list text; n is max id + 1 unless a '# n=' header says
    otherwise."""
    edges = []
    n_hint = 0
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "n=" in line:
                try:
                    n_hint = int(line.split("n=")[1].split()[0])
                except (ValueError, IndexError):
                    pass
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"line {lineno}: non-integer vertex") from exc
        edges.append((u, v))
    n = max(n_hint, 1 + max((max(u, v) for u, v in edges), default=-1), 1)
    return Graph.from_edges(n, edges)


def load_graph(path: str) -> Graph:
    with open(path) as fh:
        return read_edge_list(fh)


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w") as fh:
        write_edge_list(graph, fh)


def graph_from_text(text: str) -> Graph:
    return read_edge_list(io.StringIO(text))
