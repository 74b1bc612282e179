"""Adjacency spectra, multiplicity grouping, regularity classes, and the
``Analysis`` that holds a graph's distances, spectrum and regularity report.

A ``Spectrum`` is a mesh of distinct eigenvalues and their multiplicities,
with no list of all n eigenvalues; every such list, from the eigensolver or
a closed form, is grouped by one rule (``group_eigenvalues``).  It carries
what every layer derives from it: the order n, the
trace tr p(A) = sum_i m_i p(theta_i) of a polynomial by its mesh values,
pi_i = prod_{j != i} |theta_i - theta_j|, the top predistance polynomial p_d
read off pi (closer to exact than the top row of the recurrence), and the
table of predistance polynomials p_0..p_d, built whole on first use
(stopping below a degenerate row).

A graph takes one of two paths.  A graph with a quotient around vertex 0
reads its spectrum and closed walks off it (``quotient_analysis``), with no
n x n eigensolver, walk ladder or matrix product.  The quotient has two
producers: a distance-regular graph's intersection matrix
(``intersection_matrix``), its array read off two integer sums of distance
rows over each adjacency list (``intersection_array``), and else, for a
graph with n >= DISCOVERY_MIN_N whose verified automorphisms move vertex 0
to every vertex (``Analysis.rooted``, from ``symmetry``), the quotient of
the equitable partition around vertex 0 (``equitable_quotient``).  Every
other graph takes the eigensolver (``spectrum``) and the walk ladder
(``walk_ladder``).  ``Analysis`` decides each graph's path, once;
``classify_regularity`` reads its report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, cos, pi, sqrt

import numpy as np

from . import symmetry
from .distances import adjacency_lists, row_blocks
from .errors import (
    DegenerateInnerProduct,
    EigenFailure,
    GroupingAmbiguity,
    NoClosedForm,
)
from .graphs import DistanceMatrix, FamilySpec, Graph, circulant_steps, distance_matrix
from .polys import predistance_polynomials

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues theta_0 > ... > theta_d with multiplicities:
    a strictly decreasing mesh and positive multiplicities of its length,
    checked here (ValueError), since every layer reads them."""

    distinct: np.ndarray  # strictly decreasing
    mults: np.ndarray     # positive ints, same length

    def __post_init__(self):
        if len(self.distinct) != len(self.mults):
            raise ValueError("a mesh and its multiplicities differ in length")
        if np.any(np.diff(self.distinct) >= 0):
            raise ValueError("the mesh is not strictly decreasing")
        if np.any(self.mults < 1):
            raise ValueError("a multiplicity is below 1")
        for arr in (self.distinct, self.mults):
            arr.setflags(write=False)

    @cached_property
    def n(self) -> int:
        return int(self.mults.sum())

    @property
    def d(self) -> int:
        return len(self.distinct) - 1

    def trace(self, values) -> float:
        """tr p(A) = sum_i m_i p(theta_i) for p's values on the mesh."""
        return float(np.dot(self.mults, values))

    @cached_property
    def pi(self) -> np.ndarray:
        """pi_i = prod_{j != i} |theta_i - theta_j|, read-only."""
        if self.d < 1:
            raise ValueError("pi products need at least two distinct eigenvalues")
        diff = np.abs(self.distinct[:, None] - self.distinct[None, :])
        np.fill_diagonal(diff, 1.0)
        out = diff.prod(axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def p_d(self) -> np.ndarray:
        """The top predistance polynomial p_d on the mesh, from pi alone
        (Fiol and Garriga): p_d(theta_0) = n / sum_i pi_0^2 / (m_i pi_i^2) and
        p_d(theta_i) = (-1)^i p_d(theta_0) pi_0 / (m_i pi_i); read-only."""
        pi0 = self.pi[0]
        top = self.n / float(np.sum(pi0 ** 2 / (self.mults * self.pi ** 2)))
        signs = (-1.0) ** np.arange(self.d + 1)
        out = signs * top * (pi0 / (self.mults * self.pi))  # out[0] is top
        out.setflags(write=False)
        return out

    @cached_property
    def predistance(self) -> np.ndarray:
        """The predistance polynomials p_0..p_d on the mesh, one row each,
        read-only, stopping below the first degenerate row
        (``polys.predistance_polynomials``)."""
        return predistance_polynomials(self)

    def predistance_rows(self, k: int) -> np.ndarray:
        """Rows p_0..p_k of the predistance table; DegenerateInnerProduct
        when the table stops below row k."""
        if k >= len(self.predistance):
            raise DegenerateInnerProduct(
                f"degenerate spectral inner product at row {len(self.predistance)}")
        return self.predistance[:k + 1]

    def to_json_dict(self) -> dict:
        def num(x):
            r = round(float(x))
            return r if abs(x - r) < 1e-9 else float(x)
        return {
            "theta": [num(t) for t in self.distinct],
            "mult": [int(m) for m in self.mults],
            "n": self.n,
        }


@dataclass(frozen=True)
class RegularityReport:
    is_regular: bool
    degree: int | None
    pwr_level: int
    closed_walks: tuple  # the constant diag(A^l) for l = 1..pwr_level
    is_walk_regular: bool
    is_distance_regular: bool
    intersection_array: tuple | None


def _grouped(raw, weights) -> tuple:
    """The one grouping rule: sorted eigenvalues whose gap is at most
    DEFAULT_TOL max(1, theta_0) form one mesh point, their mean;
    GroupingAmbiguity when the gaps straddle that threshold.  (mesh, the
    sum of each point's eigenvalues' weights)."""
    raw = np.asarray(raw, dtype=float)
    order = np.argsort(raw)[::-1]
    raw, weights = raw[order], np.asarray(weights)[order]
    scale = DEFAULT_TOL * max(1.0, abs(float(raw[0])))
    gaps = raw[:-1] - raw[1:]
    merged = gaps <= scale
    # ambiguity: a merged and an unmerged gap within a factor 10 of each other
    small = gaps[merged]
    big = gaps[~merged]
    small = small[small > 0]
    if len(small) and len(big) and big.min() < 10 * max(small.max(), scale / 10) \
            and small.max() > big.min() / 10:
        raise GroupingAmbiguity(
            "eigenvalue gaps straddle the grouping threshold; "
            "supply an exact spectrum instead"
        )
    cuts = np.flatnonzero(~merged) + 1
    mesh = np.array([float(grp.sum()) / len(grp) for grp in np.split(raw, cuts)])
    return mesh, np.add.reduceat(weights, np.concatenate([[0], cuts]))


def group_eigenvalues(raw) -> Spectrum:
    """A list of all n eigenvalues as a Spectrum: by the one grouping rule
    (``_grouped``), each mesh point's multiplicity is its count."""
    return Spectrum(*_grouped(raw, np.ones(len(raw), dtype=int)))


def spectrum(g: Graph) -> Spectrum:
    """Eigenvalues of the adjacency matrix, grouped into the distinct mesh."""
    try:
        raw = np.linalg.eigvalsh(g.adjacency.astype(float))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return group_eigenvalues(raw)


def exact_family_spectrum(spec: FamilySpec) -> Spectrum:
    """Closed-form spectra: each (eigenvalue, multiplicity) pair listed once
    per multiplicity, then grouped by ``group_eigenvalues``, the
    eigensolver's rule, which merges equal values that cosines round apart.
    An alias's is its canonical spec's (``FamilySpec.canonical``), and a
    circulant's is read on the graph's step set (``circulant_steps``).
    """
    spec = spec.canonical()
    fam, p = spec.family, spec.parameters
    if fam == "kneser":
        n, k = p
        pairs = [((-1) ** j * comb(n - k - j, k - j),
                  comb(n, j) - comb(n, j - 1) if j else 1)
                 for j in range(k + 1)]
    elif fam == "complete":
        (n,) = p
        pairs = [(n - 1, 1), (-1, n - 1)]
    elif fam == "complete_bipartite":
        a, b = p
        pairs = [(sqrt(a * b), 1), (0, a + b - 2), (-sqrt(a * b), 1)]
    elif fam == "hypercube":
        (m,) = p
        pairs = [(m - 2 * i, comb(m, i)) for i in range(m + 1)]
    elif fam == "circulant":  # step n/2 contributes cos(pi j), one neighbour
        n, *steps = p
        steps = circulant_steps(n, steps)
        pairs = [(sum(2 * cos(2 * pi * j * s / n) if 2 * s < n else cos(pi * j)
                      for s in steps), 1) for j in range(n)]
    elif fam == "prism":
        (m,) = p
        pairs = [(2 * cos(2 * pi * j / m) + e, 1) for j in range(m) for e in (1, -1)]
    else:
        raise NoClosedForm(f"no closed-form spectrum for family {fam!r}")
    values, mults = zip(*pairs)
    return group_eigenvalues(np.repeat(values, mults))


def srg_raw_spectrum(n: int, k: int, lam: int, mu: int) -> np.ndarray:
    """Raw eigenvalue list of a strongly regular graph from its parameters."""
    disc = ((lam - mu) ** 2 + 4 * (k - mu)) ** 0.5
    r = ((lam - mu) + disc) / 2.0
    s = ((lam - mu) - disc) / 2.0
    mult_r = ((n - 1) * (-s) - k) / (r - s)
    mult_s = n - 1 - mult_r
    if abs(mult_r - round(mult_r)) > 1e-9 or mult_r < 0 or mult_s < 0:
        raise NoClosedForm(f"infeasible strongly regular parameters "
                           f"({n}, {k}, {lam}, {mu})")
    return np.concatenate([[float(k)],
                           np.full(round(mult_r), r),
                           np.full(round(mult_s), s)])


def _exact_float(bound: int):
    """The narrowest float type that holds every integer 0..bound exactly:
    float32 below 2^24, float64 below 2^53, None beyond."""
    if bound < 2 ** 24:
        return np.float32
    return np.float64 if bound < 2 ** 53 else None


def intersection_array(g: Graph, dm: DistanceMatrix) -> tuple | None:
    """The intersection array ((b_0..b_{D-1}), (c_1..c_D)) of a
    distance-regular graph, else None, from two neighbour sums.

    On a k-regular graph the neighbours w of v lie at distance i-1, i or
    i+1 from u, i = dist(u, v): c, a and b of them, c + a + b = k.  So the
    sum of dist(u, w) over them is i k + b - c, and the number of them at
    odd distance is a for odd i and b + c for even i: with i, the two sums
    give c, a and b.  Both are sums of the k distance rows dist[w] (dist is
    symmetric), gathered from v's adjacency list a row block of vertices v
    at a time, in the smallest unsigned types that hold them, and kept as
    one key s + M p, with M above every distance sum.  Every key must equal
    row 0's at its distance (the key (k + 1) M, which no sum gives, where
    row 0 lacks one); the sums stop at the first block with a key off row
    0's.  This is the product X A with X = dist and X = dist mod 2, formed
    by integer sums, so it holds no float copy of A and no matrix beside a
    block.  A graph that is not regular is not distance-regular: None."""
    n = g.n
    starts, nbrs = adjacency_lists(g.adjacency)  # v's: nbrs[k v:k (v + 1)]
    deg = np.diff(starts)
    k = int(deg[0])
    if not (deg == k).all():
        return None
    diameter, dist = dm.diameter, dm.dist
    scale = k * diameter + 1  # above every distance sum
    key_type = np.min_scalar_type((k + 1) * scale)
    sum_type = np.promote_types(dist.dtype, np.min_scalar_type(k * diameter))
    ref = np.full(diameter + 1, (k + 1) * scale, dtype=key_type)
    for lo, hi in row_blocks(n, k * n * dist.itemsize):
        rows = dist[nbrs[k * lo:k * hi]].reshape(hi - lo, k, n)
        key = rows.sum(axis=1, dtype=sum_type).astype(key_type, copy=False)
        odd = np.bitwise_and(rows, 1, out=rows).sum(axis=1, dtype=key_type)
        odd *= scale
        key += odd
        if lo == 0:
            ref[dist[0]] = key[0]
        if not (key == np.take(ref, dist[lo:hi])).all():
            return None
    numbers = []  # (b_i, c_i), i = 0..diameter
    for i, code in enumerate(ref.tolist()):
        total, parity = code % scale, code // scale
        between = parity if i % 2 else k - parity  # a_i
        numbers.append(((k - between + total - i * k) // 2,
                        (k - between - total + i * k) // 2))
    return (tuple(b for b, _ in numbers[:-1]),
            tuple(c for _, c in numbers[1:]))


def _integral_spectrum(theta: np.ndarray, mults: np.ndarray,
                       n: int) -> Spectrum | None:
    """The Spectrum of mesh theta and the multiplicities rounded, or None
    unless every one is within DEFAULT_TOL (relative) of a positive integer
    and they sum to n."""
    rounded = np.rint(mults)
    if (np.any(np.abs(mults - rounded) > DEFAULT_TOL * mults)
            or np.any(rounded < 1) or int(rounded.sum()) != n):
        return None
    return Spectrum(theta, rounded.astype(int))


def intersection_matrix(inter: tuple) -> np.ndarray:
    """The (D+1)-square tridiagonal intersection matrix L of an array
    ((b_0..b_{D-1}), (c_1..c_D)): row i is c_i, a_i = b_0 - b_i - c_i, b_i
    at columns i - 1, i, i + 1.  It is the quotient of the distance
    partition around any vertex."""
    b, c = np.array(inter[0] + (0,)), np.array((0,) + inter[1])
    return np.diag(b[0] - b - c) + np.diag(b[:-1], 1) + np.diag(c[1:], -1)


def equitable_quotient(g: Graph, dm: DistanceMatrix) -> np.ndarray | None:
    """The integer quotient Q of the equitable partition around vertex 0 of
    a regular graph, else None.

    The partition starts from the distances to vertex 0, and each cell
    splits by its vertices' sorted lists of neighbour cells until none
    splits: every vertex of a cell then has Q[X, Y] neighbours in cell Y,
    so it is equitable by construction.  Cell ids are ranks of keys that
    name no vertex, so Q does not depend on the labelling, and vertex 0 is
    cell 0, alone."""
    n = g.n
    starts, cols = adjacency_lists(g.adjacency)
    deg = np.diff(starts)
    k = int(deg[0])
    if not (deg == k).all():
        return None
    cells = dm.dist[0].astype(np.int64)
    while True:  # a vertex's key: its cell, then its neighbours' cells sorted
        keys = np.column_stack([cells, np.sort(cells[cols].reshape(n, k), axis=1)])
        order = np.lexsort(keys.T[::-1])  # the keys in order, cell first
        new = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
        if new.sum() == cells.max():  # no cell split: one key a cell
            break
        cells[order] = np.concatenate([[0], np.cumsum(new)])
    size = int(cells.max()) + 1
    near = keys[order[np.flatnonzero(np.concatenate([[True], new]))], 1:]
    return np.bincount((near + size * np.arange(size)[:, None]).ravel(),
                       minlength=size * size).reshape(size, size)


def quotient_analysis(q: np.ndarray, n: int,
                      inter: tuple | None = None) -> tuple:
    """(s, reg) of a walk-regular graph on n vertices read off the integer
    quotient q of an equitable partition around vertex 0, cell 0 = {0}: the
    intersection matrix of a distance-regular graph with array ``inter``
    (``intersection_matrix``), or a vertex-transitive graph's
    ``equitable_quotient``.  No n x n eigensolver or product runs.

    B = D^1/2 Q D^-1/2 = sqrt(Q o Q^T), D the cell sizes, is symmetric, and
    each of its eigenvalues is one of A's; on a walk-regular graph
    m(theta) = n (E_theta)_00 = n sum v_0^2 over B's unit eigenvectors v at
    theta (Fiol and Garriga's local multiplicities; Godsil, Algebraic
    Combinatorics, 1993, ch. 5).  On a tridiagonal q (a distance
    partition) each eigenvalue of B is simple and the mesh is
    ``eigvalsh(B)``; the eigenvector at theta is the cosine sequence v_0 =
    1, B_{i,i-1} v_{i-1} + B_ii v_i + B_{i,i+1} v_{i+1} = theta v_i, so
    m(theta) = n / sum_i v_i^2: Biggs' formula (Algebraic Graph Theory,
    1993, ch. 21).  On any other q, ``eigh(B)``'s weights n v_0^2 are summed
    over each mesh point's whole group, since a repeated eigenvalue of B
    splits its weight.  s is None unless the multiplicities pass
    ``_integral_spectrum``'s check.  The report is walk-regular at pwr
    level d (len(q) - 1 when s is None), with closed walks (Q^l)_00, l =
    1..d, in Python ints, summed over q's nonzero entries by row."""
    size = len(q)
    rows, cols = np.nonzero(q)
    b = np.sqrt(q * q.T)
    if (np.abs(rows - cols) <= 1).all():
        theta = np.linalg.eigvalsh(b)[::-1].copy()
        v = np.zeros((size, size))
        v[0] = 1.0
        for i in range(size - 1):  # v[i - 1] is the zero row v[-1] at i = 0
            v[i + 1] = ((theta - b[i, i]) * v[i] - b[i, i - 1] * v[i - 1]) / b[i, i + 1]
        s = _integral_spectrum(theta, n / (v ** 2).sum(axis=0), n)
    else:
        theta, vectors = np.linalg.eigh(b)
        s = _integral_spectrum(*_grouped(theta, n * vectors[0] ** 2), n)
    # every cell has a neighbour, so each row of q holds a nonzero entry,
    # and np.nonzero lists them row by row: row i's run starts at firsts[i]
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))
    entries = q[rows, cols].astype(object)  # Python ints: walks pass 2^63
    x, walks = np.zeros(size, dtype=object), []
    x[0] = 1
    for _ in range(size - 1 if s is None else s.d):
        x = np.add.reduceat(entries * x[cols], firsts)  # Q^l e_0
        walks.append(int(x[0]))
    return s, RegularityReport(
        is_regular=True,
        degree=int(q[0].sum()),
        pwr_level=len(walks),
        closed_walks=tuple(walks),
        is_walk_regular=True,
        is_distance_regular=inter is not None,
        intersection_array=inter,
    )


def walk_ladder(g: Graph, s: Spectrum) -> RegularityReport:
    """The regularity report of a graph that is not distance-regular, from
    the constant diagonals of its adjacency powers."""
    deg = g.degrees()
    is_reg = bool(np.all(deg == deg[0]))
    d = s.d
    top = int(deg.max())
    # pwr level: largest k <= d with diag(A^l) constant for all l <= k.
    # Checking beyond d is pointless: the minimal polynomial has degree d+1.
    # A is symmetric, so diag(A^l) is the row-wise dot of A^floor(l/2) and
    # A^ceil(l/2): one product every other level.  Every term and partial
    # sum is a non-negative integer at most max_deg^l, so the products and
    # dots are exact in any summation order in the narrowest float type
    # that holds max_deg^l: float32 for the whole ladder when max_deg^d <
    # 2^24, else float64 while max_deg^l < 2^53, and beyond that the walk
    # counts go on in Python ints, each column of a new power the sum of the
    # last power's columns at its neighbours.
    a = g.adjacency.astype(_exact_float(top ** d) or np.float64)
    half = up = a  # A^floor(l/2) and A^ceil(l/2)
    walks = [0]  # diag(A) = 0: every simple graph is 1-partially walk-regular
    for level in range(2, d + 1):
        exact = _exact_float(top ** level) is not None
        if not exact and up.dtype != object:
            half, up = (p.astype(np.int64).astype(object) for p in (half, up))
            starts, cols = adjacency_lists(g.adjacency)
            nbrs = np.split(cols, starts[1:-1])
        if level % 2 == 0:
            half = up
        else:
            up = up @ a if exact else np.column_stack(
                [up[:, nb].sum(axis=1) for nb in nbrs])
        # einsum forms no n x n product; numpy < 1.25 has no object einsum
        diag = (np.einsum("ij,ij->i", half, up) if exact
                else (half * up).sum(axis=1))
        if np.all(diag == diag[0]):
            walks.append(int(diag[0]))
        else:
            break
    return RegularityReport(
        is_regular=is_reg,
        degree=int(deg[0]) if is_reg else None,
        pwr_level=len(walks),
        closed_walks=tuple(walks),
        is_walk_regular=len(walks) == d,
        is_distance_regular=False,
        intersection_array=None,
    )


@dataclass(frozen=True)
class Analysis:
    """A graph and its distance matrix, spectrum and regularity ladder, each
    computed on first use and kept: one analysis serves every k and caller.
    The spectrum and report take one of two paths.  A graph with a quotient
    around vertex 0 reads both off it (``quotient``, ``quotient_analysis``):
    a distance-regular graph's intersection matrix, its array found from
    ``dm`` by two sums of distance rows, or else the equitable quotient of
    a graph with n >= DISCOVERY_MIN_N that is ``rooted`` (vertex-transitive,
    hence walk-regular).  Any other graph takes the eigensolver and the
    walk ladder.  Multiplicities that fail the quotient's check send a
    distance-regular graph's spectrum alone to the eigensolver, and a
    rooted graph's spectrum and report both."""

    g: Graph

    @classmethod
    def of(cls, g: Graph | Analysis, **known) -> Analysis:
        """``g`` if it is an analysis, else a new one with the ``known``
        values (s, dm, reg) not None in its dict, where each cached_property
        looks.  An existing analysis takes no values: every later caller
        reads the ones it holds, so a seed there is a ValueError."""
        known = {k: v for k, v in known.items() if v is not None}
        if isinstance(g, cls) and known:
            raise ValueError(f"an existing analysis takes no seeds: {sorted(known)}")
        a = g if isinstance(g, cls) else cls(g)
        a.__dict__.update(known)
        return a

    @cached_property
    def dm(self) -> DistanceMatrix:
        return distance_matrix(self.g)

    @cached_property
    def array(self) -> tuple | None:
        """The intersection array if the graph is distance-regular.  A
        distance-regular graph has d = diameter, so a seeded spectrum
        with another d gives None before the neighbour sums run."""
        s = self.__dict__.get("s")
        if s is not None and s.d != self.dm.diameter:
            return None
        return intersection_array(self.g, self.dm)

    @cached_property
    def rooted(self) -> bool:
        """True iff verified automorphisms move vertex 0 to every vertex: the
        claimed ones (``symmetry.transitive``), else discovered ones
        (``symmetry.discover``) when n >= DISCOVERY_MIN_N.  The exact oracle
        then searches through vertex 0, and the quotient path may run."""
        g = self.g
        if g.automorphisms:
            return symmetry.transitive(g)
        return (g.n >= symmetry.DISCOVERY_MIN_N
                and symmetry.discover(g, self.dm) is not None)

    @cached_property
    def quotient(self) -> tuple | None:
        """(s, reg) off the quotient around vertex 0 (``quotient_analysis``):
        the intersection matrix of a distance-regular graph, whose s is None
        when its multiplicities fail their check, else the equitable
        quotient of a rooted graph with n >= DISCOVERY_MIN_N; None off both,
        or when the rooted graph's multiplicities fail."""
        g = self.g
        if self.array is not None:
            return quotient_analysis(intersection_matrix(self.array), g.n, self.array)
        if g.n < symmetry.DISCOVERY_MIN_N or not self.rooted:
            return None
        q = equitable_quotient(g, self.dm)
        if q is None:
            return None
        s, reg = quotient_analysis(q, g.n)
        return None if s is None else (s, reg)

    @cached_property
    def s(self) -> Spectrum:
        return (self.quotient and self.quotient[0]) or spectrum(self.g)

    @cached_property
    def reg(self) -> RegularityReport:
        # the quotient's report holds at its own d: a seeded spectrum with
        # another d takes the ladder
        if self.quotient and self.quotient[1].pwr_level == self.s.d:
            return self.quotient[1]
        return walk_ladder(self.g, self.s)


def classify_regularity(g: Graph, s: Spectrum,
                        dm: DistanceMatrix) -> RegularityReport:
    """Regularity ladder: regular / k-partially walk-regular / walk- /
    distance-regular, as ``Analysis.reg`` decides it on ``s`` and ``dm``."""
    return Analysis.of(g, s=s, dm=dm).reg
