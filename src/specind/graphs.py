"""Graph representation, graph6 I/O, named families; distances (from
``distances``, whose names are re-exported here).

Vertices are always 0..n-1.  Adjacency is a dense symmetric boolean matrix;
target instances stay below ~1000 vertices, so dense storage is fine.  Each
n x n pass here (the symmetry check, the graph6 codec, Kneser adjacency)
works a block of rows at a time (``distances.row_blocks``), and a matrix
the package builds itself is never copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

import numpy as np

from .distances import DistanceMatrix, distance_matrix, row_blocks  # noqa: F401
from .errors import DisconnectedGraph, InvalidFamilyParameters, MalformedGraph6

@dataclass(frozen=True)
class Graph:
    """Connected, simple, undirected graph.  ``automorphisms`` is a claimed
    generating set (vertex permutations p, u -> p[u]); only ``generate``
    fills it, and the exact oracle checks it before relying on it."""

    n: int
    adjacency: np.ndarray  # (n, n) bool, symmetric, zero diagonal
    label: str = ""
    automorphisms: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n, self.n) or a.dtype != bool:
            raise ValueError("adjacency must be an (n, n) boolean matrix")
        for lo, hi in row_blocks(self.n):
            if np.any(a[lo:hi] != a[:, lo:hi].T):
                raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise ValueError("no loops allowed")
        a.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    def neighbors(self, u: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[u])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and bool(np.array_equal(self.adjacency, other.adjacency))
        )

    def __hash__(self):
        return hash((self.n, self.adjacency.tobytes()))


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its integer parameters."""

    family: str
    parameters: tuple = field(default_factory=tuple)

    def __str__(self) -> str:
        if not self.parameters:
            return self.family
        return f"{self.family}:{','.join(map(str, self.parameters))}"

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        """Parse e.g. ``odd:5`` or ``circulant:10,1,2``."""
        name, _, rest = text.partition(":")
        name = name.strip().lower()
        if name not in FAMILIES:
            raise InvalidFamilyParameters(f"unknown family {name!r}")
        params = tuple(int(p) for p in rest.split(",") if p.strip()) if rest else ()
        return FamilySpec(name, params)

    def canonical(self) -> "FamilySpec":
        """The spec an alias in ``_ALIASES`` stands for (cycle:n is
        circulant:n,1, odd:ell is kneser:2ell-1,ell-1, ...); any other
        spec, known or not, as it is.  A wrong parameter count for an alias
        raises TypeError, which ``generate`` reports."""
        if self.family not in _ALIASES:
            return self
        least, message, target = _ALIASES[self.family]
        family, params = target(*self.parameters)
        if least is not None and self.parameters[0] < least:
            raise InvalidFamilyParameters(message)
        return FamilySpec(family, params)


def _check_connected(adj: np.ndarray, label: str = "") -> None:
    """Sweep frontiers out from vertex 0; each vertex joins exactly one
    frontier, so the rows gathered total n and the work is O(n^2)."""
    n = adj.shape[0]
    if n == 0:
        raise DisconnectedGraph("empty graph")
    seen = np.zeros(n, dtype=bool)
    frontier = np.arange(n) == 0
    while frontier.any():
        seen |= frontier
        frontier = adj[frontier].any(axis=0) & ~seen
    if not seen.all():
        raise DisconnectedGraph(f"graph {label!r} is not connected")


def _graph(adj: np.ndarray, label: str = "", automorphisms: tuple = ()) -> Graph:
    """A Graph on a boolean matrix the package built itself, kept as it is
    (symmetry and loops checked first), then its connectivity checked."""
    g = Graph(adj.shape[0], adj, label, automorphisms)
    _check_connected(adj, label)
    return g


def from_adjacency(adj: np.ndarray, label: str = "") -> Graph:
    """Build a Graph on a copy of ``adj``, which the Graph makes read-only
    (symmetry and loops checked first), then check connectivity."""
    return _graph(np.array(adj, dtype=bool), label)


def from_edges(n: int, edges, label: str = "") -> Graph:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise ValueError("loops are not allowed")
        adj[u, v] = adj[v, u] = True
    return _graph(adj, label)


# ---------------------------------------------------------------------------
# graph6 (McKay's format, header-less variant; an optional >>graph6<< header
# is accepted on input)

_G6_HEADER = ">>graph6<<"


def _triangle(n: int):
    """The strict lower triangle in graph6's bit order, a block of rows at a
    time: (lo, hi, the block's mask of entries below the diagonal, the slice
    of its bits).  graph6 lists column j's bits i = 0..j-1 in turn: row j of
    the strict lower triangle, so rows lo..hi-1 hold bits lo(lo-1)/2 up to
    hi(hi-1)/2.  A masked read or write indexes its entries, hence blocks
    of ROW_BLOCK / 16 pairs."""
    cols = np.arange(n)
    for lo, hi in row_blocks(n, 16 * n):
        yield (lo, hi, cols < np.arange(lo, hi)[:, None],
               slice(lo * (lo - 1) // 2, hi * (hi - 1) // 2))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a connected Graph, holding beside the
    adjacency it returns only the bit string (half a byte per vertex pair)
    and one block: the matrix is filled in place and not copied."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    # every byte of a non-ASCII character (a lone surrogate too) is >= 128
    raw = np.frombuffer(s.encode("utf-8", "surrogatepass"), np.uint8)
    if np.any((raw < 63) | (raw > 126)):
        raise MalformedGraph6("character out of graph6 range")
    data = raw - 63
    if data[0] < 63:
        n = int(data[0])
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (int(data[1]) << 12) | (int(data[2]) << 6) | int(data[3])
        body = data[4:]
    else:
        raise MalformedGraph6("unsupported graph6 size header")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise MalformedGraph6("graph6 body has wrong length")
    # each byte's six bits, most significant first, moved to the top of the
    # byte and unpacked in one contiguous bit string
    bits = np.unpackbits((body << 2)[:, None], axis=1, count=6).ravel()
    if bits[nbits:].any():
        raise MalformedGraph6("nonzero padding bits")
    # the strict lower triangle is placed a block of rows at a time, then
    # mirrored a row block at a time
    adj = np.zeros((n, n), dtype=bool)
    bits = bits.view(bool)
    for lo, hi, below, part in _triangle(n):
        adj[lo:hi][below] = bits[part]
    for lo, hi in row_blocks(n):
        adj[lo:hi] |= adj[:, lo:hi].T
    return _graph(adj)


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a header-less graph6 line, reading the strict lower
    triangle a block of rows at a time."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        raise ValueError("graph too large for this encoder")
    nbits = n * (n - 1) // 2
    bits = np.zeros((nbits + 5) // 6 * 6, dtype=np.uint8)
    for lo, hi, below, part in _triangle(n):
        bits[part] = g.adjacency[lo:hi][below]
    # packbits fills each 6-bit row out to a byte with two low zero bits
    body = np.packbits(bits.reshape(-1, 6), axis=1).ravel() >> 2
    data = np.concatenate([np.array(head, dtype=np.uint8), body]) + 63
    return data.tobytes().decode()


def parse_edge_list(text: str, label: str = "") -> Graph:
    """Parse the alternative input format: one ``u v`` pair per line, 0-indexed."""
    edges = []
    top = -1
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if min(u, v) < 0:
            raise ValueError(f"negative vertex id in {line!r}")
        top = max(top, u, v)
        edges.append((u, v))
    return from_edges(top + 1, edges, label)


# ---------------------------------------------------------------------------
# Named families.  Vertex orderings are fixed so serialized output is
# byte-stable: integers 0..n-1 for circulant-like families, binary counting
# order for hypercubes, colexicographic subsets for Kneser/Odd.  Each
# vertex-transitive family carries automorphisms that move 0 to every vertex.
# A constructor returns its boolean matrix, built with index arrays, its
# label and its claimed generators; ``generate`` alone makes the Graph.


def _rotation(n: int) -> tuple:
    return (np.arange(1, n + 1) % n,)  # i -> i + 1 mod n


def _two_parts(m: int) -> tuple:
    """Parts 0..m-1 and m..2m-1: rotate both, and swap i <-> i + m."""
    r = np.arange(1, m + 1) % m
    return (np.concatenate([r, r + m]), np.roll(np.arange(2 * m), m))


def _joined(n: int, u, v) -> np.ndarray:
    """The n x n matrix that joins u[i] and v[i] for every i."""
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = adj[v, u] = True
    return adj


def _complete(n: int) -> tuple:
    if n < 2:
        raise InvalidFamilyParameters("complete needs n >= 2")
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj, f"complete:{n}", _rotation(n)


def _complete_bipartite(a: int, b: int) -> tuple:
    if a < 1 or b < 1:
        raise InvalidFamilyParameters("complete_bipartite needs positive parts")
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = True
    adj[a:, :a] = True
    return adj, f"complete_bipartite:{a},{b}", _two_parts(a) if a == b else ()


def _hypercube(m: int) -> tuple:
    if m < 1:
        raise InvalidFamilyParameters("hypercube needs dimension >= 1")
    u = np.arange(1 << m)
    flips = tuple(u ^ (1 << b) for b in range(m))
    return (_joined(len(u), u[:, None], np.stack(flips, axis=1)),
            f"hypercube:{m}", flips)


def circulant_steps(n: int, steps) -> tuple:
    """The step set of C_n(steps), sorted: s and n - s join the same pairs,
    so each is min(s mod n, n - s mod n); step n/2 gives one neighbour."""
    return tuple(sorted({min(s % n, -s % n) for s in steps}))


def _circulant(n: int, *steps: int) -> tuple:
    if n < 3 or not steps:
        raise InvalidFamilyParameters("circulant needs n >= 3 and at least one step")
    steps = circulant_steps(n, steps)
    if steps[0] == 0:
        raise InvalidFamilyParameters("circulant steps must be nonzero mod n")
    if gcd(n, *steps) != 1:
        raise DisconnectedGraph("circulant with gcd(n, s_1, ..., s_m) > 1")
    u = np.arange(n)[:, None]
    return (_joined(n, u, (u + steps) % n),
            f"circulant:{n}," + ",".join(map(str, steps)), _rotation(n))


def kneser_vertices(n: int, k: int) -> list:
    """k-subsets of {0..n-1} in colexicographic order."""
    return sorted(combinations(range(n), k), key=lambda s: tuple(reversed(s)))


def _kneser(n: int, k: int) -> tuple:
    if k < 1 or n <= 2 * k:
        raise InvalidFamilyParameters("kneser needs n > 2k >= 2 for connectivity")
    # adjacent exactly when the subsets, as n-bit masks, are disjoint; the
    # smallest unsigned dtype that holds n bits (Python ints past 64),
    # compared a block of rows at a time
    masks = np.array([sum(1 << i for i in v) for v in kneser_vertices(n, k)],
                     dtype=np.min_scalar_type((1 << n) - 1))
    adj = np.empty((len(masks), len(masks)), dtype=bool)
    for lo, hi in row_blocks(len(masks), len(masks) * masks.itemsize):
        np.equal(masks[lo:hi, None] & masks[None, :], 0, out=adj[lo:hi])
    # the ground-set transposition (0 1) and n-cycle i -> i+1 act on the
    # masks; colex order is increasing mask order, so searchsorted indexes
    swap = ((masks ^ (masks >> 1)) & 1) * 3
    turn = ((masks << 1) | (masks >> (n - 1))) & ((1 << n) - 1)
    return adj, f"kneser:{n},{k}", tuple(np.searchsorted(masks, image)
                                         for image in (masks ^ swap, turn))


def _prism(m: int) -> tuple:
    # C_m square K_2 on 2m vertices; outer cycle 0..m-1, inner m..2m-1
    if m < 3:
        raise InvalidFamilyParameters("prism needs m >= 3")
    i = np.arange(m)
    j = (i + 1) % m
    return (_joined(2 * m, np.concatenate([i, i + m, i]),
                    np.concatenate([j, j + m, i + m])),
            f"prism:{m}", _two_parts(m))


_CONSTRUCTORS = {
    "complete": _complete,
    "complete_bipartite": _complete_bipartite,
    "hypercube": _hypercube,
    "circulant": _circulant,
    "kneser": _kneser,
    "prism": _prism,
}

# An alias names a graph of another family, under its own label: its least
# parameter (None for none), the message below it, and the canonical spec.
_ALIASES = {
    "cycle": (3, "cycle needs n >= 3", lambda n: ("circulant", (n, 1))),
    "moebius_ladder": (3, "moebius_ladder needs m >= 3",  # C_2m plus diagonals
                       lambda m: ("circulant", (2 * m, 1, m))),
    "odd": (2, "odd graph needs ell >= 2",
            lambda ell: ("kneser", (2 * ell - 1, ell - 1))),
    "petersen": (None, None, lambda: ("kneser", (5, 2))),
}
FAMILIES = (*_CONSTRUCTORS, *_ALIASES)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph of a family spec with its documented vertex ordering."""
    if spec.family not in FAMILIES:
        raise InvalidFamilyParameters(f"unknown family {spec.family!r}")
    try:
        base = spec.canonical()
        adj, label, gens = _CONSTRUCTORS[base.family](*base.parameters)
    except TypeError as exc:
        raise InvalidFamilyParameters(
            f"bad parameter count for {spec.family}: {spec.parameters}") from exc
    return _graph(adj, str(spec) if base is not spec else label, gens)
