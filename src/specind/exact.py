"""Exact k-independence numbers: the ground-truth oracle.

alpha_k(G) equals the independence number of the power graph G^k, computed
here as a maximum clique of the complement of G^k.  For k close to the
diameter the power graph is dense and its complement sparse, which is
exactly the regime of the hardest instances (large Odd graphs), so the
complement-clique formulation keeps them tractable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import SearchTimeout, SizeLimitExceeded
from .graphs import DistanceMatrix, Graph, distance_matrix

DEFAULT_SIZE_LIMIT = 600
DEFAULT_TIMEOUT = 120.0


@dataclass(frozen=True)
class ExactResult:
    alpha_k: int
    witness: tuple
    k: int
    elapsed: float


def _degeneracy_order(adj_bits, n):
    """Degeneracy ordering, ties by vertex index; returns vertex list."""
    deg = [bin(adj_bits[v]).count("1") for v in range(n)]
    alive = set(range(n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        order.append(v)
        alive.remove(v)
        for u in range(n):
            if u in alive and (adj_bits[v] >> u) & 1:
                deg[u] -= 1
    return order


def _max_clique(adj_bits, n, deadline):
    """Branch-and-bound maximum clique with greedy-coloring upper bounds."""
    order = _degeneracy_order(adj_bits, n)
    # search vertices in reverse degeneracy order (high-degree core first)
    best = []
    best_size = 0

    def color_sort(cand_list):
        """Greedy coloring; returns vertices sorted by color with bounds."""
        colors = []  # list of bitmasks, one per color class
        colored = []
        for v in cand_list:
            for ci, mask in enumerate(colors):
                if not (mask & adj_bits[v]):
                    colors[ci] |= 1 << v
                    colored.append((ci + 1, v))
                    break
            else:
                colors.append(1 << v)
                colored.append((len(colors), v))
        colored.sort()
        return colored

    def expand(clique, cand_bits, cand_list):
        nonlocal best, best_size
        if time.monotonic() > deadline:
            raise SearchTimeout("exact search exceeded its wall-clock budget")
        colored = color_sort(cand_list)
        while colored:
            bound, v = colored.pop()
            if len(clique) + bound <= best_size:
                return
            clique.append(v)
            new_bits = cand_bits & adj_bits[v]
            if new_bits:
                new_list = [u for _, u in colored if (new_bits >> u) & 1]
                expand(clique, new_bits, new_list)
            elif len(clique) > best_size:
                best_size = len(clique)
                best = list(clique)
            clique.pop()
            cand_bits &= ~(1 << v)

    full = 0
    lst = []
    for v in reversed(order):
        full |= 1 << v
        lst.append(v)
    expand([], full, list(reversed(lst)))
    return best_size, best


def alpha_k_exact(g: Graph, k: int, dm: DistanceMatrix | None = None,
                  size_limit: int = DEFAULT_SIZE_LIMIT,
                  timeout: float = DEFAULT_TIMEOUT) -> ExactResult:
    """Exact alpha_k with a witness set; deterministic size, witness canonical
    only up to the fixed search order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n > size_limit:
        raise SizeLimitExceeded(f"n={g.n} exceeds limit {size_limit}")
    start = time.monotonic()
    if dm is None:
        dm = distance_matrix(g)
    n = g.n
    # clique in the complement of G^k == pairs at distance > k
    far = dm.dist > k
    bits = []
    for v in range(n):
        row = 0
        for u in np.flatnonzero(far[v]):
            row |= 1 << int(u)
        bits.append(row)
    if not any(bits):  # k >= diameter
        return ExactResult(1, (0,), k, time.monotonic() - start)
    size, witness = _max_clique(bits, n, start + timeout)
    return ExactResult(size, tuple(sorted(witness)), k, time.monotonic() - start)


def verify_independent(g: Graph, k: int, vertices,
                       dm: DistanceMatrix | None = None) -> bool:
    """True iff the vertices are pairwise at distance > k."""
    if dm is None:
        dm = distance_matrix(g)
    vs = list(vertices)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if dm.dist[vs[i], vs[j]] <= k:
                return False
    return True
