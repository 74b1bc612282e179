"""Exact k-independence numbers: the ground-truth oracle.

alpha_k(G) equals the independence number of the power graph G^k, computed
here as a maximum clique of the complement of G^k.  For k close to the
diameter the power graph is dense and its complement sparse, which is
exactly the regime of the hardest instances (large Odd graphs), so the
complement-clique formulation keeps them tractable.

The clique search is a bitset branch and bound after San Segundo's BBMC and
Tomita's MCS: vertex i is the i-th of a degeneracy order, candidate sets are
Python ints, and each node colours its candidates class by class, taking the
lowest set bit over and over; only vertices whose colour could beat the
incumbent are branched on.

The searched graph joins the pairs at distance > k, formed a block of rows
at a time.  When automorphisms move vertex 0 to every vertex, some maximum
set contains 0, so only 0's far neighbourhood is searched.  A graph's
claimed automorphisms are checked edge by edge.  A graph that claims none
(one read from a file, or relabelled) with at least DISCOVERY_MIN_N
vertices gets them by individualization and refinement, each map checked
the same way, within a budget of steps: only the clique search reads the
clock.  The answer is kept on the graph's ``Analysis`` (from ``spectra``:
the oracle needs no bounds layer).  If no verified maps reach every
vertex, the whole graph is searched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .distances import adjacency_lists, row_blocks
from .errors import SearchTimeout, SizeLimitExceeded
from .graphs import DistanceMatrix, Graph, distance_matrix
from .spectra import Analysis

SIZE_LIMIT = 600
DEFAULT_TIMEOUT = 120.0


@dataclass(frozen=True)
class ExactResult:
    alpha_k: int
    witness: tuple
    k: int
    elapsed: float
    nodes: int = 0  # branch-and-bound nodes expanded


def _degeneracy_order(adj: np.ndarray) -> list:
    """Degeneracy ordering of a boolean adjacency matrix: repeatedly remove a
    vertex of least remaining degree, ties by vertex index."""
    n = len(adj)
    deg = adj.sum(axis=1)
    order = []
    for _ in range(n):
        v = int(np.argmin(deg))  # first minimum: the lowest index
        order.append(v)
        deg[v] = 2 * n  # above every live degree for the rest of the loop
        deg -= adj[v]
    return order


def _max_clique(adj: np.ndarray, deadline: float):
    """Maximum clique of a boolean adjacency matrix; (size, clique, nodes)."""
    order = _degeneracy_order(adj)
    packed = np.packbits(adj.take(order, axis=0).take(order, axis=1), axis=1,
                         bitorder="little")
    bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
    # a colour class takes the lowest v, then drops v and its neighbours
    rest = [~(row | (1 << v)) for v, row in enumerate(bits)]
    best = []
    best_size = 0
    nodes = 0

    def expand(clique, cand):
        nonlocal best, best_size, nodes
        nodes += 1
        if time.monotonic() > deadline:
            raise SearchTimeout("exact search exceeded its wall-clock budget")
        # keep the vertices whose colour could lift the clique above the
        # incumbent, and branch on them from the highest colour down
        depth = len(clique)
        floor = best_size - depth
        branch = []
        uncoloured = cand
        colour = 0
        while uncoloured:
            colour += 1
            q = uncoloured
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q &= rest[v]
                uncoloured ^= low
                if colour > floor:
                    branch.append((colour, v))
        for colour, v in reversed(branch):
            if depth + colour <= best_size:
                return
            clique.append(v)
            sub = cand & bits[v]
            if sub:
                expand(clique, sub)
            elif depth + 1 > best_size:
                best_size = depth + 1
                best = list(clique)
            clique.pop()
            cand ^= 1 << v

    expand([], (1 << len(order)) - 1)
    return best_size, [order[i] for i in best], nodes


def _is_automorphism(g: Graph, p: np.ndarray, edges: tuple) -> bool:
    """True iff p is a permutation of V that sends every edge (``edges``,
    each once) to an edge: O(n log n + m), no n x n gather."""
    p = np.asarray(p)
    return (p.shape == (g.n,) and np.array_equal(np.sort(p), np.arange(g.n))
            and bool(g.adjacency[p[edges[0]], p[edges[1]]].all()))


def _orbit_of_zero(gens: list, n: int) -> np.ndarray:
    """The orbit of 0 under the group the permutations generate, as a mask."""
    orbit = np.zeros(n, dtype=bool)
    orbit[0] = True
    while True:
        grown = orbit.copy()
        for p in gens:
            grown[p[orbit]] = True
        if np.array_equal(grown, orbit):
            return orbit
        orbit = grown


def _edges(g: Graph) -> tuple:
    """Each edge once, as index arrays (u, v) with u < v in row-major order
    (``np.nonzero(np.triu(adjacency))``'s), read off the flat nonzeros of
    the adjacency: no n x n copy."""
    u, v = np.divmod(np.flatnonzero(g.adjacency), g.n)
    upper = u < v
    return u[upper], v[upper]


def _transitive(g: Graph) -> bool:
    """True iff the claimed automorphisms move vertex 0 to every vertex.  A
    claim that is not an automorphism is a producer bug: RuntimeError."""
    gens = [np.asarray(p) for p in g.automorphisms]
    edges = _edges(g)
    if not all(_is_automorphism(g, p, edges) for p in gens):
        raise RuntimeError(f"claimed automorphism of {g.label!r} is not one")
    return bool(_orbit_of_zero(gens, g.n).all())


# Graphs that claim no automorphisms and have fewer vertices are searched in
# full.  Below 64 vertices a full search of one k takes 0.1-1 ms on the
# corpus against 1-4 ms for a discovery; at hypercube:6 one discovery about
# pays for itself over its five k, and at n = 126, 128 it saves 2-10x.
DISCOVERY_MIN_N = 64


def _cell_hash(cells: np.ndarray) -> np.ndarray:
    """A hash of each cell id below 2^20: an odd multiplier permutes the
    residues mod 2^20, so distinct cells hash apart, and a sum over fewer
    than 2^12 neighbours stays below 2^32."""
    return (cells * 2654435761) % (1 << 20)


class _OutOfSteps(Exception):
    """The discovery used up its step budget."""


def _individualize(dist: np.ndarray, starts: np.ndarray, cols: np.ndarray,
                   cells: np.ndarray, point: int, base=None):
    """Refine after individualizing ``point``: (signatures, cells).  A
    round's signature is its sorted (cell, label) keys and their counts,
    and cell ids are the keys' ranks, so partitions with equal signatures
    number their cells alike.  Given the base's signatures, it replays as
    many rounds and returns None at the first mismatch."""
    sigs = []
    labels = dist[point]
    while True:
        keys, cells, sizes = np.unique((cells << 32) | labels,
                                       return_inverse=True,
                                       return_counts=True)
        cells = cells.ravel()
        if base is not None and not (
                np.array_equal(keys, base[len(sigs)][0])
                and np.array_equal(sizes, base[len(sigs)][1])):
            return None
        sigs.append((keys, sizes))
        if base is None:  # stop after the first round that splits nothing
            done = len(sigs) > 1 and len(keys) == len(sigs[-2][0])
        else:
            done = len(sigs) == len(base)
        if done:
            return sigs, cells
        labels = np.add.reduceat(_cell_hash(cells)[cols], starts[:-1])


def _discover(g: Graph, dm: DistanceMatrix):
    """Verified automorphisms whose group moves 0 to every vertex, or None.

    Individualization and refinement (McKay-Piperno, Practical graph
    isomorphism II, 2014).  Individualizing a vertex splits every cell by
    the distance to it; the cells then split by a hash of their neighbours'
    cells until none splits.  The base sequence individualizes 0, then the
    first vertex of the smallest non-singleton cell, until every cell is a
    singleton.  For the first vertex v not yet in the orbit of 0, a
    depth-first search replays that sequence from v, trying the vertices of
    the matching cell at each level in order, and drops a branch whose
    partition differs from the base's in any cell's key or size.  A leaf is
    a bijection, accepted only if it sends every edge to an edge.

    A step is one individualization, of the base or of a search.  On the
    corpus the base takes at most 10 and the whole discovery at most 40;
    graphs whose cells split slowly, such as K_{m,m}, take n levels and n^2
    steps.  So the budget is 16 steps per bit of n, which bounds the cost
    at O(log n (n log n + m)) per refinement round.  None when the rows of
    ``dm.dist`` differ in distance profile (no vertex-transitive graph's
    do), when some v has no such map, or when the budget runs out.
    """
    n, width = g.n, dm.diameter + 1
    # each row's distance counts, a block of rows at a time (row r's
    # distances offset by r * width, so one bincount counts the block)
    first = np.bincount(dm.dist[0], minlength=width)
    for lo, hi in row_blocks(n, 8 * n):
        keys = dm.dist[lo:hi] + width * np.arange(hi - lo)[:, None]
        profile = np.bincount(keys.ravel(), minlength=(hi - lo) * width)
        if not (profile.reshape(hi - lo, width) == first).all():
            return None
    starts, cols = adjacency_lists(g.adjacency)
    edges = _edges(g)
    steps = 0

    def individualize(cells, point, base=None):
        """One step: ``_individualize``, or _OutOfSteps past the budget."""
        nonlocal steps
        steps += 1
        if steps > 16 * n.bit_length():
            raise _OutOfSteps
        return _individualize(dm.dist, starts, cols, cells, point, base)

    def search(level, cells, target):
        cell, sigs = levels[level]
        for c in [target] if level == 0 else np.flatnonzero(cells == cell):
            found = individualize(cells, c, sigs)
            if found is None:
                continue
            if level + 1 < len(levels):
                p = search(level + 1, found[1], target)
            else:  # image vertex w sits alone in cell found[1][w]
                p = np.argsort(found[1])[leaf]
                p = p if _is_automorphism(g, p, edges) else None
            if p is not None:
                return p
        return None

    levels = []  # the base: (the id of the point's cell before, signatures)
    cells = np.zeros(n, dtype=np.int64)
    point = 0
    gens = []
    orbit = _orbit_of_zero(gens, n)
    try:
        while True:
            sigs, after = individualize(cells, point)
            levels.append((cells[point], sigs))
            cells = after
            sizes = sigs[-1][1]
            if len(sizes) == n:
                break
            smallest = np.flatnonzero(sizes == sizes[sizes > 1].min())[0]
            point = int(np.flatnonzero(cells == smallest)[0])
        leaf = cells  # base vertex u sits alone in cell leaf[u]
        while not orbit.all():
            p = search(0, np.zeros(n, dtype=np.int64), int(np.argmin(orbit)))
            if p is None:
                return None
            gens.append(p)
            orbit = _orbit_of_zero(gens, n)
    except _OutOfSteps:
        return None
    return gens


def _rooted(a: Analysis) -> bool:
    """True iff verified automorphisms move vertex 0 to every vertex, so a
    maximum k-independent set may be taken through 0: the claimed ones, else
    discovered ones when n >= DISCOVERY_MIN_N.  Decided once per analysis."""
    rooted = a.__dict__.get("rooted")
    if rooted is None:
        g = a.g
        if g.automorphisms:
            rooted = _transitive(g)
        else:
            rooted = (g.n >= DISCOVERY_MIN_N
                      and _discover(g, a.dm) is not None)
        a.__dict__["rooted"] = rooted
    return rooted


def alpha_k_exact(g: Graph | Analysis, k: int, dm: DistanceMatrix | None = None,
                  timeout: float = DEFAULT_TIMEOUT) -> ExactResult:
    """Exact alpha_k with a checked witness set; deterministic size, witness
    canonical only up to the fixed search order.  ``g`` is a graph or its
    analysis, which keeps the symmetry found for every later k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = Analysis.of(g, dm=dm)
    if a.g.n > SIZE_LIMIT:
        raise SizeLimitExceeded(f"n={a.g.n} exceeds limit {SIZE_LIMIT}")
    start = time.monotonic()
    if k >= a.dm.diameter:
        return ExactResult(1, (0,), k, time.monotonic() - start)
    # clique in the complement of G^k == pairs at distance > k, among the
    # vertices nb: all of them, or, rooted at vertex 0, those far from it,
    # reading only dist[0] and dist[nb][:, nb]; a row block at a time
    dist = a.dm.dist
    root = [0] if _rooted(a) else []
    nb = np.flatnonzero(dist[0] > k) if root else np.arange(a.g.n)
    far = np.empty((len(nb), len(nb)), dtype=bool)
    for lo, hi in row_blocks(len(nb), len(dist)):
        np.greater(dist[nb[lo:hi]][:, nb], k, out=far[lo:hi])
    size, sub, nodes = _max_clique(far, start + timeout)
    size, witness = size + len(root), [*root, *nb[sub]]
    witness = tuple(sorted(int(v) for v in witness))
    if len(witness) != size or not verify_independent(a.g, k, witness, a.dm):
        # an oracle bug, not an inapplicable instance: no handler may catch it
        raise RuntimeError(f"exact witness {witness} is not {k}-independent")
    return ExactResult(size, witness, k, time.monotonic() - start, nodes)


def greedy_witness(g: Graph | Analysis, k: int) -> tuple:
    """A k-independent set by the dynamic min-degree greedy on G^k: take a
    vertex of least degree among those left (the lowest index on ties),
    drop it and every vertex within distance k of it, and lower the degrees
    of those left by the dropped vertices next to them in G^k.  It reads
    distance rows and builds no power graph; its size is a lower bound on
    alpha_k, checked by ``verify_independent`` (a failure is a bug:
    RuntimeError).  ``g`` is a graph or its analysis."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = Analysis.of(g)
    dist, n = a.dm.dist, a.g.n
    degree = np.empty(n, dtype=np.int64)
    for lo, hi in row_blocks(n):
        degree[lo:hi] = np.count_nonzero(dist[lo:hi] <= k, axis=1) - 1
    left = np.ones(n, dtype=bool)
    chosen = []
    while left.any():
        v = int(np.argmin(np.where(left, degree, n)))
        chosen.append(v)
        dropped = np.flatnonzero(left & (dist[v] <= k))
        left[dropped] = False
        for lo, hi in row_blocks(len(dropped), n):
            degree -= np.count_nonzero(dist[dropped[lo:hi]] <= k, axis=0)
    witness = tuple(sorted(chosen))
    if not verify_independent(a.g, k, witness, a.dm):
        raise RuntimeError(f"greedy witness {witness} is not {k}-independent")
    return witness


def verify_independent(g: Graph, k: int, vertices,
                       dm: DistanceMatrix | None = None) -> bool:
    """True iff the vertices are pairwise at distance > k."""
    if dm is None:
        dm = distance_matrix(g)
    w = np.asarray(list(vertices), dtype=np.intp)
    off_diagonal = ~np.eye(len(w), dtype=bool)
    return bool(np.all(dm.dist[np.ix_(w, w)][off_diagonal] > k))
