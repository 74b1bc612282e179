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
at a time.  When verified automorphisms move vertex 0 to every vertex
(``Analysis.rooted``, decided once per graph by ``symmetry``), some maximum
set contains 0, so only 0's far neighbourhood is searched; otherwise the
whole graph is.  Only the clique search reads the clock.  The analysis
comes from ``spectra``: the oracle needs no bounds layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .distances import row_blocks
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
    root = [0] if a.rooted else []
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
