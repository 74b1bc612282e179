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

When the graph's claimed automorphisms check out and move vertex 0 to every
vertex, some maximum set contains 0, so only 0's far neighbourhood is searched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import SearchTimeout, SizeLimitExceeded
from .graphs import DistanceMatrix, Graph, distance_matrix

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
    packed = np.packbits(adj[np.ix_(order, order)], axis=1, bitorder="little")
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


def _transitive(g: Graph) -> bool:
    """True iff the claimed automorphisms move vertex 0 to every vertex.  A
    claim that is not an automorphism is a producer bug: RuntimeError."""
    gens = [np.asarray(p) for p in g.automorphisms]
    for p in gens:
        if not (np.array_equal(np.sort(p), np.arange(g.n))
                and np.array_equal(g.adjacency[np.ix_(p, p)], g.adjacency)):
            raise RuntimeError(f"claimed automorphism of {g.label!r} is not one")
    orbit = np.zeros(g.n, dtype=bool)
    orbit[0] = True
    while True:
        grown = orbit.copy()
        for p in gens:
            grown[p[orbit]] = True
        if np.array_equal(grown, orbit):
            return bool(orbit.all())
        orbit = grown


def alpha_k_exact(g: Graph, k: int, dm: DistanceMatrix | None = None,
                  timeout: float = DEFAULT_TIMEOUT) -> ExactResult:
    """Exact alpha_k with a checked witness set; deterministic size, witness
    canonical only up to the fixed search order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n > SIZE_LIMIT:
        raise SizeLimitExceeded(f"n={g.n} exceeds limit {SIZE_LIMIT}")
    start = time.monotonic()
    if dm is None:
        dm = distance_matrix(g)
    # clique in the complement of G^k == pairs at distance > k
    far = dm.dist > k
    if not far.any():  # k >= diameter
        return ExactResult(1, (0,), k, time.monotonic() - start)
    if _transitive(g):  # root the search at vertex 0
        nb = np.flatnonzero(far[0])
        size, sub, nodes = _max_clique(far[np.ix_(nb, nb)], start + timeout)
        size, witness = size + 1, [0, *nb[sub]]
    else:
        size, witness, nodes = _max_clique(far, start + timeout)
    witness = tuple(sorted(int(v) for v in witness))
    if len(witness) != size or not verify_independent(g, k, witness, dm):
        # an oracle bug, not an inapplicable instance: no handler may catch it
        raise RuntimeError(f"exact witness {witness} is not {k}-independent")
    return ExactResult(size, witness, k, time.monotonic() - start, nodes)


def verify_independent(g: Graph, k: int, vertices,
                       dm: DistanceMatrix | None = None) -> bool:
    """True iff the vertices are pairwise at distance > k."""
    if dm is None:
        dm = distance_matrix(g)
    w = np.asarray(list(vertices), dtype=np.intp)
    off_diagonal = ~np.eye(len(w), dtype=bool)
    return bool(np.all(dm.dist[np.ix_(w, w)][off_diagonal] > k))
