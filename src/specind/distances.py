"""All-pairs hop distances, and the row blocks that every n x n pass of
the graph layer works in.

``distance_matrix`` runs a breadth-first search from every source at once
on bit-packed frontiers and keeps one byte a vertex pair below diameter
256.  Its names are re-exported by ``graphs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DisconnectedGraph

if TYPE_CHECKING:
    from .graphs import Graph

# Bytes a row block of an n x n pass spans: about a third of odd:6's pairs.
ROW_BLOCK = 2 ** 16


def row_blocks(n: int, row_bytes: int | None = None):
    """(lo, hi) bounds of consecutive row blocks of about ROW_BLOCK bytes,
    for rows of ``row_bytes`` bytes (default n), at least one row each."""
    step = max(1, ROW_BLOCK // max(1, n if row_bytes is None else row_bytes))
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances of a connected graph."""

    dist: np.ndarray  # (n, n) unsigned: uint8 below diameter 256, wider beyond
    diameter: int


def adjacency_lists(adj: np.ndarray) -> tuple:
    """(starts, cols): vertex v's neighbours are cols[starts[v]:starts[v+1]],
    in increasing order, read off the flat nonzeros of the adjacency."""
    n = len(adj)
    flat = np.flatnonzero(adj)
    starts = np.searchsorted(flat, np.arange(n + 1) * n)
    return starts, np.remainder(flat, n, out=flat)


def _bit_rows(rows: np.ndarray) -> np.ndarray:
    """A boolean matrix as rows of little-endian 64-bit words."""
    n = rows.shape[1]
    out = np.zeros((rows.shape[0], (n + 63) // 64 * 8), dtype=np.uint8)
    out[:, :(n + 7) // 8] = np.packbits(rows, axis=1, bitorder="little")
    return out.view(np.uint64)


def distance_matrix(g: Graph) -> DistanceMatrix:
    """Hop distances by a BFS from every source at once.  Row v of the bit
    frontier holds the sources s whose level reaches v, so the next frontier
    at v is the OR of the frontier rows at v's neighbours, one ``reduceat``
    over the adjacency lists, among the pairs not yet reached: O(deg n^2 / 64)
    word operations a level.  A graph built without ``from_adjacency``'s
    check may be disconnected: an isolated vertex (whose empty adjacency
    list ``reduceat`` cannot read) or a level that reaches nothing while
    pairs are left raises DisconnectedGraph, so every off-diagonal entry of
    the zero-initialised matrix is written.  Distances are held in uint8,
    widened to the smallest unsigned type that holds the level when the
    search reaches level 256: one byte a pair below diameter 256.  Each
    level is formed and written a block of rows at a time, so beside the
    result and three n x n bit matrices the search holds a block."""
    n = g.n
    starts, cols = adjacency_lists(g.adjacency)
    if n > 1 and not (starts[1:] > starts[:-1]).all():
        raise DisconnectedGraph(f"graph {g.label!r} has an isolated vertex")
    frontier = _bit_rows(np.eye(n, dtype=bool))
    unseen = _bit_rows(np.ones((1, n), dtype=bool)) ^ frontier
    dist = np.zeros((n, n), dtype=np.uint8)
    top = 255  # the largest distance dist's type holds
    # per block of rows: the neighbours' rows it gathers, and where each
    # row's list starts among them
    row_bytes = n + len(cols) // max(n, 1) * frontier[:1].nbytes
    blocks = [(lo, hi, cols[starts[lo]:starts[hi]], starts[lo:hi] - starts[lo])
              for lo, hi in row_blocks(n, row_bytes)]
    d = 0
    while unseen.any():
        d += 1
        if d > top:
            dist = dist.astype(np.min_scalar_type(d))
            top = np.iinfo(dist.dtype).max
        reached = np.empty_like(frontier)
        for lo, hi, nbrs, heads in blocks:
            level = np.bitwise_or.reduceat(np.take(frontier, nbrs, axis=0),
                                           heads, axis=0, out=reached[lo:hi])
            level &= unseen[lo:hi]
            unseen[lo:hi] ^= level
            # each pair is reached at one level, so adding d times its 0/1
            # bit writes the level, with no boolean scatter
            bits = np.unpackbits(level.view(np.uint8), axis=1, count=n,
                                 bitorder="little")
            dist[lo:hi] += np.multiply(bits, d, dtype=dist.dtype)
        if not reached.any():
            raise DisconnectedGraph(f"graph {g.label!r} is not connected")
        frontier = reached
    return DistanceMatrix(dist, d)
