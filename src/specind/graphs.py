"""Graph representation, graph6 I/O, named families, distances, power graphs.

Vertices are always 0..n-1.  Adjacency is a dense symmetric boolean matrix;
target instances stay below ~1000 vertices, so dense storage is fine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from math import gcd

import numpy as np

from .errors import DisconnectedGraph, InvalidFamilyParameters, MalformedGraph6

FAMILIES = (
    "cycle",
    "complete",
    "complete_bipartite",
    "hypercube",
    "circulant",
    "kneser",
    "odd",
    "prism",
    "moebius_ladder",
    "petersen",
)


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
        if np.any(a != a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise ValueError("no loops allowed")
        a.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    def is_regular(self) -> bool:
        deg = self.degrees()
        return bool(np.all(deg == deg[0]))

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
class DistanceMatrix:
    """All-pairs hop distances of a connected graph."""

    dist: np.ndarray  # (n, n) int
    diameter: int


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


def from_adjacency(adj: np.ndarray, label: str = "") -> Graph:
    """Build a Graph (symmetry and loops checked first), then check connectivity."""
    adj = np.asarray(adj, dtype=bool).copy()
    g = Graph(adj.shape[0], adj, label)
    _check_connected(adj, label)
    return g


def from_edges(n: int, edges, label: str = "") -> Graph:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise ValueError("loops are not allowed")
        adj[u, v] = adj[v, u] = True
    return from_adjacency(adj, label)


# ---------------------------------------------------------------------------
# graph6 (McKay's format, header-less variant; an optional >>graph6<< header
# is accepted on input)

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a connected Graph."""
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
    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise MalformedGraph6("nonzero padding bits")
    # row-major (j, i), i < j: graph6's order, column j's bits i = 0..j-1
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tril_indices(n, -1)] = bits[:nbits]
    return from_adjacency(adj | adj.T)


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a header-less graph6 line."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        raise ValueError("graph too large for this encoder")
    nbits = n * (n - 1) // 2
    bits = np.zeros((nbits + 5) // 6 * 6, dtype=np.uint8)
    bits[:nbits] = g.adjacency[np.tril_indices(n, -1)]
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


def _rotation(n: int) -> tuple:
    return (np.arange(1, n + 1) % n,)  # i -> i + 1 mod n


def _two_parts(m: int) -> tuple:
    """Parts 0..m-1 and m..2m-1: rotate both, and swap i <-> i + m."""
    r = np.arange(1, m + 1) % m
    return (np.concatenate([r, r + m]), np.roll(np.arange(2 * m), m))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidFamilyParameters("cycle needs n >= 3")
    g = from_edges(n, [(i, (i + 1) % n) for i in range(n)], f"cycle:{n}")
    return replace(g, automorphisms=_rotation(n))


def _complete(n: int) -> Graph:
    if n < 2:
        raise InvalidFamilyParameters("complete needs n >= 2")
    adj = ~np.eye(n, dtype=bool)
    return replace(from_adjacency(adj, f"complete:{n}"), automorphisms=_rotation(n))


def _complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidFamilyParameters("complete_bipartite needs positive parts")
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = True
    adj[a:, :a] = True
    g = from_adjacency(adj, f"complete_bipartite:{a},{b}")
    return replace(g, automorphisms=_two_parts(a)) if a == b else g


def _hypercube(m: int) -> Graph:
    if m < 1:
        raise InvalidFamilyParameters("hypercube needs dimension >= 1")
    n = 1 << m
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(m) if u < u ^ (1 << b)]
    u = np.arange(n)
    return replace(from_edges(n, edges, f"hypercube:{m}"),
                   automorphisms=tuple(u ^ (1 << b) for b in range(m)))


def _circulant(n: int, *steps: int) -> Graph:
    if n < 3 or not steps:
        raise InvalidFamilyParameters("circulant needs n >= 3 and at least one step")
    steps = tuple(sorted({s % n for s in steps}))
    if any(s == 0 for s in steps):
        raise InvalidFamilyParameters("circulant steps must be nonzero mod n")
    if gcd(n, *steps) != 1:
        raise DisconnectedGraph("circulant with gcd(n, s_1, ..., s_m) > 1")
    edges = [(u, (u + s) % n) for u in range(n) for s in steps]
    g = from_edges(n, [(u, v) for u, v in edges if u != v], f"circulant:{n}," + ",".join(map(str, steps)))
    return replace(g, automorphisms=_rotation(n))


def kneser_vertices(n: int, k: int) -> list:
    """k-subsets of {0..n-1} in colexicographic order."""
    return sorted(combinations(range(n), k), key=lambda s: tuple(reversed(s)))


def _kneser(n: int, k: int) -> Graph:
    if k < 1 or n <= 2 * k:
        raise InvalidFamilyParameters("kneser needs n > 2k >= 2 for connectivity")
    # adjacent exactly when the subsets, as n-bit masks, are disjoint; the
    # smallest unsigned dtype that holds n bits (Python ints past 64)
    masks = np.array([sum(1 << i for i in v) for v in kneser_vertices(n, k)],
                     dtype=np.min_scalar_type((1 << n) - 1))
    adj = (masks[:, None] & masks[None, :]) == 0
    # the ground-set transposition (0 1) and n-cycle i -> i+1 act on the
    # masks; colex order is increasing mask order, so searchsorted indexes
    swap = ((masks ^ (masks >> 1)) & 1) * 3
    turn = ((masks << 1) | (masks >> (n - 1))) & ((1 << n) - 1)
    return replace(from_adjacency(adj, f"kneser:{n},{k}"), automorphisms=tuple(
        np.searchsorted(masks, image) for image in (masks ^ swap, turn)))


def _odd(ell: int) -> Graph:
    if ell < 2:
        raise InvalidFamilyParameters("odd graph needs ell >= 2")
    return replace(_kneser(2 * ell - 1, ell - 1), label=f"odd:{ell}")


def _prism(m: int) -> Graph:
    # C_m square K_2 on 2m vertices; outer cycle 0..m-1, inner m..2m-1
    if m < 3:
        raise InvalidFamilyParameters("prism needs m >= 3")
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + (i + 1) % m) for i in range(m)]
    edges += [(i, m + i) for i in range(m)]
    return replace(from_edges(2 * m, edges, f"prism:{m}"), automorphisms=_two_parts(m))


def _moebius_ladder(m: int) -> Graph:
    # cycle C_{2m} plus the m main diagonals
    if m < 3:
        raise InvalidFamilyParameters("moebius_ladder needs m >= 3")
    n = 2 * m
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + m) for i in range(m)]
    return replace(from_edges(n, edges, f"moebius_ladder:{m}"), automorphisms=_rotation(n))


def generate(spec: FamilySpec) -> Graph:
    """Build the graph of a family spec with its documented vertex ordering."""
    fam, p = spec.family, spec.parameters
    try:
        if fam == "cycle":
            return _cycle(*p)
        if fam == "complete":
            return _complete(*p)
        if fam == "complete_bipartite":
            return _complete_bipartite(*p)
        if fam == "hypercube":
            return _hypercube(*p)
        if fam == "circulant":
            return _circulant(*p)
        if fam == "kneser":
            return _kneser(*p)
        if fam == "odd":
            return _odd(*p)
        if fam == "prism":
            return _prism(*p)
        if fam == "moebius_ladder":
            return _moebius_ladder(*p)
        if fam == "petersen":
            return replace(_kneser(5, 2), label="petersen")
    except TypeError as exc:
        raise InvalidFamilyParameters(f"bad parameter count for {fam}: {p}") from exc
    raise InvalidFamilyParameters(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------


def distance_matrix(g: Graph) -> DistanceMatrix:
    """Hop distances by a BFS from every source at once: row s of the 0/1
    frontier is the level of s, and the next level is (frontier @ A > 0) among
    the pairs not yet reached.  The product counts neighbours, at most n, so
    float32 is exact.  The graph is connected by construction."""
    n = g.n
    a = g.adjacency.astype(np.float32)
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(n, dtype=np.float32)
    d = 0
    while True:
        reached = (frontier @ a > 0) & (dist < 0)
        if not reached.any():
            break
        d += 1
        dist[reached] = d
        frontier = reached.astype(np.float32)
    return DistanceMatrix(dist, d)


def power_graph(g: Graph, k: int, dm: DistanceMatrix | None = None) -> Graph:
    """G^k: same vertices, edges between pairs at distance 1..k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if dm is None:
        dm = distance_matrix(g)
    adj = (dm.dist >= 1) & (dm.dist <= k)
    return Graph(g.n, adj, f"{g.label}^{k}" if g.label else f"power:{k}")
