"""Graph symmetry: whether verified automorphisms move vertex 0 to every
vertex.

A graph's claimed automorphisms are checked edge by edge (``transitive``).
A graph that claims none (one read from a file, or relabelled) with at
least DISCOVERY_MIN_N vertices gets them by individualization and
refinement (``discover``), each map checked the same way, within a budget
of steps; nothing here reads the clock.  ``Analysis.rooted`` (``spectra``)
keeps the verdict once per graph: the exact oracle then searches through
vertex 0, and a graph that is not distance-regular reads its spectrum and
closed walks off its equitable quotient around vertex 0, through the one
quotient path (``spectra.quotient_analysis``) that a distance-regular
graph's intersection matrix takes too; any other graph takes the
eigensolver and the walk ladder.
"""

from __future__ import annotations

import numpy as np

from .distances import adjacency_lists, row_blocks
from .graphs import DistanceMatrix, Graph

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


def transitive(g: Graph) -> bool:
    """True iff the claimed automorphisms move vertex 0 to every vertex.  A
    claim that is not an automorphism is a producer bug: RuntimeError."""
    gens = [np.asarray(p) for p in g.automorphisms]
    edges = _edges(g)
    if not all(_is_automorphism(g, p, edges) for p in gens):
        raise RuntimeError(f"claimed automorphism of {g.label!r} is not one")
    return bool(_orbit_of_zero(gens, g.n).all())


# Graphs that claim no automorphisms and have fewer vertices are searched in
# full, and take the eigensolver.  Below 64 vertices a full search of one k
# takes 0.1-1 ms on the corpus against 1-4 ms for a discovery; at
# hypercube:6 one discovery about pays for itself over its five k, and at
# n = 126, 128 it saves 2-10x.
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


def discover(g: Graph, dm: DistanceMatrix):
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

    def step(cells, point, base=None):
        """One step: ``_individualize``, or _OutOfSteps past the budget."""
        nonlocal steps
        steps += 1
        if steps > 16 * n.bit_length():
            raise _OutOfSteps
        return _individualize(dm.dist, starts, cols, cells, point, base)

    def search(level, cells, target):
        cell, sigs = levels[level]
        for c in [target] if level == 0 else np.flatnonzero(cells == cell):
            found = step(cells, c, sigs)
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
            sigs, after = step(cells, point)
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
