"""The two optimization programs, both decided on the facets of a cyclic
polytope, with no LP solver.

The facet program, for a mesh subset N anchored at its first point a:
minimize tr q(A) = sum_i m_i q(theta_i) over the polynomials q of degree
<= k with q >= 0 on theta_N and q(theta_a) = 1.  When |N| > k its vertices
are the products f_Z = prod_{z in Z} (x - theta_z) / (theta_a - theta_z)
over the k-subsets Z of N - {a} that meet Gale's evenness condition (each
point of N outside Z has an even number of members of Z before it), and
each vertex has k edges, one for each zero it drops: a single swap of Z,
or, where the edge is unbounded, a recession ray whose zeros are Z with a
in place of the dropped one.  The least trace is found by scoring every
vertex when there are at most k(|N|-1-k) + 1, one swap neighbourhood, and
otherwise by a walk along single swaps that lower the trace.

* The minor polynomial (least trace among the degree-<= k polynomials with
  f(theta_0) = 1 and f >= 0 elsewhere) is the facet program on the whole
  mesh, anchored at theta_0: its vertex is the lexicographic minimum of
  (trace, f(theta_1), ..., f(theta_{d-1})) over every vertex whose trace
  can tie with the least.
* The sign polynomial (least multiplicity-weighted count of non-negative
  mesh values of a trace-zero polynomial of degree <= k) is decided one
  candidate negative set N at a time: some trace-zero y of degree <= k is
  negative on N exactly when some q >= 0 on theta_N has tr q(A) < 0
  (Farkas), and then y = tr(q)/n - q is one.  The facet test
  (``_facet_test``) decides that with the facet program anchored at N[0]
  when |N| > k, and with the multiples of prod_{j in N} (x - theta_j) and
  N's Lagrange basis otherwise; on an unrealized N it leaves a positive
  quadrature of the trace with at most k+1 nodes in N, whose support no
  trace-zero polynomial is negative on (Gordan), and the search skips
  every later set that contains it; it gives up after SIGN_BUDGET sets,
  tested or skipped, and reads no clock.  At k <= 3 the negative set is
  read off the vertex rays of the sign arrangement (the hyperplanes
  c.P_j = 0 in R^k, P_j the column of predistance rows p_1..p_k at
  theta_j) in closed form, with no SVD, and the facet test on it gives the
  certificate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import NumericalInstability, SearchTimeout
from .polys import MeshPolynomial
from .spectra import Spectrum


# ---------------------------------------------------------------------------
# The facet program: the vertices f_Z of a mesh subset N anchored at N[0]


def _ratios(theta: np.ndarray, N: np.ndarray) -> np.ndarray:
    """(theta_i - theta_j) / (theta_a - theta_j), one row per mesh point i
    and one column per point j of N after its anchor a = N[0]."""
    return (theta[:, None] - theta[N[1:]]) / (theta[N[0]] - theta[N[1:]])


def _family_size(d: int, k: int) -> int:
    """N(d, k): how many zero sets ``_gale_even`` lists."""
    return sum(comb(max(d - t - 1 - (k - t) // 2, 0), (k - t) // 2)
               for t in range(k % 2, k + 1, 2))


def _gale_even(d: int, k: int) -> np.ndarray:
    """The k-subsets Z of positions 1..d of N (position 0 its anchor) in
    which each position outside Z has an even number of members below it,
    as sorted rows: a tail {d-t+1..d} and p = (k-t)/2 disjoint pairs
    {a, a+1} in 1..d-t-1, whose starts a_i = c_i + i + 1 run over the
    p-subsets c of range(d-t-1-p)."""
    rows = []
    for t in range(k % 2, k + 1, 2):
        p = (k - t) // 2
        for c in combinations(range(d - t - 1 - p), p):
            rows.append([j for i, a in enumerate(c) for j in (a + i + 1, a + i + 2)]
                        + list(range(d - t + 1, d + 1)))
    return np.array(rows, dtype=int).reshape(-1, k)


def _mesh_values(ratios: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """f_Z on the mesh, one column per row Z of ``zeros`` (columns of
    ``ratios``, position - 1): the product of the ratios over j in Z in
    increasing order, exactly zero on Z."""
    Y = ratios[:, zeros[:, 0]]
    for j in zeros[:, 1:].T:
        Y = Y * ratios[:, j]
    return Y


def _swaps(ratios: np.ndarray, mults: np.ndarray, z: np.ndarray):
    """The Gale-even sets one swap from z (member indicators over the
    columns of ``ratios``), and their traces."""
    m, k = len(z), int(z.sum())
    flip = np.eye(m, dtype=bool)
    w = (z ^ flip[np.repeat(np.flatnonzero(z), m - k)]
         ^ flip[np.tile(np.flatnonzero(~z), k)])
    w = w[~(np.logical_xor.accumulate(w, axis=1) & ~w).any(axis=1)]
    return w, mults @ _mesh_values(ratios, np.nonzero(w)[1].reshape(-1, k))


def _descend(ratios: np.ndarray, mults: np.ndarray, k: int):
    """(z, trace) of a vertex of least trace: from the tail, the walk takes
    the single swap of least trace while it lowers the trace.  A bounded
    edge from a vertex is a single swap, so the walk stops where no bounded
    edge lowers the trace."""
    m = ratios.shape[1]
    z = np.arange(m) >= m - k
    tr = mults @ _mesh_values(ratios, np.flatnonzero(z)[None])[:, 0]
    while True:
        w, t = _swaps(ratios, mults, z)
        if not len(t) or t.min() >= tr:  # no swap, or none lowers the trace
            return z, tr
        z, tr = w[t.argmin()], t.min()


def _facet(ratios: np.ndarray, mults: np.ndarray, k: int) -> np.ndarray:
    """The zero set (columns of ``ratios``) of a vertex of least trace:
    every vertex scored when there are at most k(m-k) + 1 of them, m the
    columns, the first of least trace winning; otherwise ``_descend``."""
    m = ratios.shape[1]
    if _family_size(m, k) <= k * (m - k) + 1:
        zeros = _gale_even(m, k) - 1
        return zeros[(mults @ _mesh_values(ratios, zeros)).argmin()]
    return np.flatnonzero(_descend(ratios, mults, k)[0])


# ---------------------------------------------------------------------------
# Minor polynomial: the lexicographic vertex over the whole mesh


def _lexmin(mults: np.ndarray, Y: np.ndarray) -> int:
    """The column of Y (mesh values) at the lexicographic minimum of
    (trace, y_1, ..., y_{d-1}), values within 1e-9 relative of a key's
    minimum tying with it, the first column winning a tie on every key.
    Each trace is summed in mesh order, whatever the other columns."""
    cand = np.arange(Y.shape[1])
    for key in ((mults[:, None] * Y).sum(axis=0), *Y[1:-1]):
        v = key[cand]
        cand = cand[v <= v.min() + 1e-9 * abs(v.min())]
        if len(cand) == 1:
            break
    return int(cand[0])


def _slab(ratios: np.ndarray, mults: np.ndarray, k: int) -> np.ndarray:
    """Member indicators of every vertex whose trace is within 2e-9
    relative of the least.  On the whole mesh every edge is bounded, so
    ``_descend`` ends at the least trace; the simplex reaches it from any
    vertex of the slab by swaps that lower the trace, so a search of the
    slab along swaps from it finds all of them."""
    z, tr = _descend(ratios, mults, k)
    slab, todo = {z.tobytes(): z}, [z]
    while todo:
        w, t = _swaps(ratios, mults, todo.pop())
        for v in w[t <= tr + 2e-9 * abs(tr)]:
            if slab.setdefault(v.tobytes(), v) is v:  # not seen before
                todo.append(v)
    return np.array(list(slab.values()))


def minor_polynomial(s: Spectrum, k: int) -> MeshPolynomial:
    """Optimal minor polynomial of degree <= k: the ``_lexmin`` of the facet
    program's vertices f_Z on the whole mesh, scored in increasing order of
    their members.  All are scored when there are at most k(d-k) + 1, one
    swap neighbourhood; otherwise those that can tie on the trace, which
    ``_slab`` finds along the polytope's edges, the single swaps."""
    d = s.d
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}")
    ratios = _ratios(s.distinct, np.arange(d + 1))
    if _family_size(d, k) <= k * (d - k) + 1:
        zeros = _gale_even(d, k) - 1
    else:
        zeros = np.nonzero(_slab(ratios, s.mults, k))[1].reshape(-1, k)
    Y = _mesh_values(ratios, zeros[np.lexsort(zeros.T[::-1])])
    return MeshPolynomial(s.distinct, Y[:, _lexmin(s.mults, Y)])


# ---------------------------------------------------------------------------
# Sign polynomial search


@dataclass(frozen=True)
class SignSolution:
    sign_mesh: MeshPolynomial
    b: tuple
    objective: int
    facet_tests: int  # candidate sets decided by the facet test
    skipped: int  # candidate sets pruned by a stored conflict


# relative to sum_i m_i |f(theta_i)|: a trace below -_NEGLIGIBLE times it is
# negative, a quadrature weight above +_NEGLIGIBLE times it positive
_NEGLIGIBLE = 1e-9


def _negative_sets(mults, k: int):
    """Yield every index set N, 0 < |N| < d+1, whose indicator changes value
    at most k times along the mesh: heaviest multiplicity weight first, ties
    in lexicographic order of the sorted indices.

    A nonzero polynomial of degree <= k has at most k roots counted with
    multiplicity, so its negative mesh points form such a set.  There are
    2 sum_{i<=k} C(d, i) of them, too many to list when d and k are large,
    so they are generated lazily: best-first over indicator prefixes ranked
    by an upper bound on their weight (the prefix's plus all weight after
    it), which makes complete sets leave the heap in order.
    """
    m = [int(v) for v in mults]
    d1 = len(m)
    after = [sum(m[j:]) for j in range(1, d1 + 1)]  # weight after position j
    # entries (-bound, key, weight, changes left); the key negates the
    # indicator prefix, so among equal weights lower indices enter N first
    heap = [(-(b * m[0] + after[0]), (-b,), b * m[0], k) for b in (0, 1)]
    heapq.heapify(heap)
    while heap:
        _, key, w, c = heapq.heappop(heap)
        j = len(key)
        if j == d1:
            if 0 < -sum(key) < d1:
                yield tuple(i for i, nb in enumerate(key) if nb)
            continue
        for nb in (0, 1):
            left = c - (nb != -key[-1])
            if left >= 0:
                nw = w + nb * m[j]
                heapq.heappush(heap, (-(nw + after[j]), key + (-nb,), nw, left))


def _lagrange(theta: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The Lagrange basis of the nodes on the mesh, one column per node x:
    prod_{y != x} (theta_i - theta_y) / (theta_x - theta_y), exactly 1 at x
    and 0 at the other nodes."""
    X = theta[nodes]
    r = len(X)
    off = ~np.eye(r, dtype=bool)
    others = np.broadcast_to(X, (r, r))[off].reshape(r, r - 1)
    return ((theta[:, None, None] - others) / (X[:, None] - others)).prod(axis=2)


def _facet_test(s: Spectrum, neg: tuple, k: int):
    """Decide whether some trace-zero polynomial of degree <= k is negative
    on the mesh points ``neg`` (N, r = |N|): (q, None) with q >= 0 on N and
    tr q(A) < 0 if one is, else (None, S), S the nodes of a positive
    quadrature tr q(A) = sum_{x in S} w_x q(theta_x) on degree <= k (None
    when the weights do not prove it).  A trace is negative below
    -_NEGLIGIBLE sum_i m_i |f(theta_i)|, a weight positive above
    _NEGLIGIBLE sum_i m_i |l_x(theta_i)|.

    r > k: the facet program anchored at a = N[0].  At its vertex f_Z* of
    least trace the Lagrange basis of {a} + Z* holds f_Z* (the column of a)
    and, for each z in Z*, the direction l_z of the edge that drops z, a
    recession ray when l_z >= 0 on N; their traces are the weights w.  N is
    realized by f_Z* or by such a ray of negative trace.  Otherwise no edge
    lowers the trace (the walk took every bounded one), so f_Z* is optimal
    with tr f_Z* = w_a >= 0 and w >= 0: the program's dual.

    r <= k: the multiples omega_N x^i (i <= k - r) of omega_N =
    prod_{j in N} (x - theta_j) vanish on N, and one of nonzero trace, sign
    chosen, realizes N.  When all have trace zero, tr q(A) is
    sum_{x in N} w_x q(theta_x), w the traces of N's Lagrange basis, which
    is >= 0 on N: a negative weight realizes N, and otherwise the weights
    are the quadrature."""
    theta, mults = s.distinct, s.mults
    N = np.array(neg)
    if len(N) > k:
        nodes = N[np.r_[0, _facet(_ratios(theta, N), mults, k) + 1]]
    else:
        Q = (np.prod(theta[:, None] - theta[N], axis=1)[:, None]
             * theta[:, None] ** np.arange(k - len(N) + 1))
        t = mults @ Q
        live = np.flatnonzero(np.abs(t) > _NEGLIGIBLE * (mults @ np.abs(Q)))
        if len(live):
            return -np.sign(t[live[0]]) * Q[:, live[0]], None
        nodes = N
    L = _lagrange(theta, nodes)
    w, tol = mults @ L, _NEGLIGIBLE * (mults @ np.abs(L))
    hit = np.flatnonzero((L[N] >= 0).all(axis=0) & (w < -tol))
    if len(hit):
        return L[:, hit[0]], None
    return None, (nodes[w > tol] if (w >= -tol).all() else None)


def _solution(s: Spectrum, q: np.ndarray, best: tuple, tests: int,
              skipped: int) -> SignSolution:
    """The solution whose certificate y = tr(q)/n - q realizes the negative
    set ``best``: y rescaled so that min_{i>=1} y_i = -1, b_j = 0 on
    ``best``, after the indicator and trace checks."""
    y = s.trace(q) / s.n - q
    low = y[1:].min()
    if low < -1e-12:
        y = y / abs(low)
    mesh = MeshPolynomial(s.distinct, y)
    bvec = tuple(0 if j in best else 1 for j in range(s.d + 1))
    # indicator consistency: y_j >= 0 must imply b_j = 1
    if (y[list(best)] >= -1e-9 * max(1.0, np.abs(y).max())).any():
        raise NumericalInstability("indicator constraint violated by certificate")
    tr = s.trace(y)
    if abs(tr) > 1e-7 * max(1.0, np.abs(y).max()):
        raise NumericalInstability("certificate trace is not zero")
    objective = int(sum(m for m, bj in zip(s.mults, bvec) if bj))
    return SignSolution(mesh, bvec, objective, tests, skipped)


# candidate sets tried, tested or skipped: 1.37 times cycle:101's 109,804 at
# k = 5, the largest search known to succeed (used up in about 25 s, 2-core x86)
SIGN_BUDGET = 150_000


def _sign_search(s: Spectrum, k: int) -> SignSolution:
    """The search over every candidate negative set, heaviest first: the
    first one the facet test realizes is optimal, and its q gives the
    certificate.  It gives up with SearchTimeout once it has tried
    SIGN_BUDGET sets, tested or skipped.  An unrealized set N leaves the
    conflict S, the nodes of a positive quadrature of the trace on degree
    <= k: a trace-zero polynomial is not negative on all of S, so every
    later N' that contains S is skipped without a test, and the first
    realized set is the one the unpruned search finds."""
    q = np.zeros(s.d + 1)  # s = 0 certificate: no negative mesh value
    best = ()
    conflicts, tests, tried = [], 0, 0  # conflicts: each S as a mesh bitmask
    for tried, neg in enumerate(_negative_sets(s.mults, k), 1):
        if tried > SIGN_BUDGET:
            raise SearchTimeout(f"sign-pattern search tried {SIGN_BUDGET} "
                                "candidate sets without an answer")
        outside = ~sum(1 << j for j in neg)
        if any(S & outside == 0 for S in conflicts):
            continue
        cand, S = _facet_test(s, neg, k)
        tests += 1
        if cand is not None:
            q, best = cand, neg
            break
        if S is not None:
            conflicts.append(sum(1 << int(j) for j in S))
    return _solution(s, q, best, tests, tried - tests)


_ZERO, _SURE = 1e-12, 1e-7  # a cosine |c| <= _ZERO is a zero, |c| > _SURE a sign
_BLOCK = 1 << 18  # entries of one (rays x mesh) work array, 2 MB of floats


def _decided(a: np.ndarray) -> bool:
    """No entry of ``a`` lies in the band (_ZERO, _SURE], where its sign is
    undecided."""
    a = np.abs(a)
    return not ((a > _ZERO) & (a <= _SURE)).any()


def _first(C: np.ndarray, mults: np.ndarray) -> int:
    """The row of C, negative-set indicators, that ``_negative_sets`` yields
    first: the heaviest, and among equal weights the one that holds the
    lowest index where they differ."""
    w = C @ mults
    top = np.flatnonzero(w == w.max())
    if len(top) > 1:
        top = top[np.lexsort(np.packbits(C[top], axis=1).T[::-1])[::-1]]
    return int(top[0])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross products of the 3-vectors in the last axis of u and v."""
    return u[..., [1, 2, 0]] * v[..., [2, 0, 1]] - u[..., [2, 0, 1]] * v[..., [1, 2, 0]]


def _plane_cells(T: np.ndarray, G: np.ndarray):
    """Negative sets of open cells of a rank-2 arrangement of unit columns,
    as indicator rows over the last axis, among them every one that no other
    cell's contains; None when a cosine in T is undecided.  T[..., l, m] is the cosine of column m with
    column l turned by a right angle in their plane (NaN: not a column of
    the arrangement, never negative), G[l, m] the cosine of columns l and m.

    Each open cell is a sector with a ray +-l^perp on its boundary.  Next to
    that ray the columns off it keep the ray's signs, and those on it take
    the signs of a perturbation +-l.  Perturbing by -l makes l and the
    columns along it negative; perturbing by +l makes the columns opposite
    l negative, which is the -l' perturbation of such a column l' at the
    same ray, or, with no column opposite l, a lighter set."""
    if not _decided(T):
        return None
    along = (np.abs(T) <= _ZERO) & (G > 0)
    return np.concatenate([(T < -_ZERO) | along, (T > _ZERO) | along])


def _space_cells(P: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Negative sets of open cells next to the vertex rays +-P_i x P_j of a
    rank-3 arrangement of unit columns P, as indicator rows, among them
    every one that no other cell's next to the same ray contains; None when
    a sign test is undecided.

    Where a ray's zero columns Z are the two that span it, every sign choice
    on Z is a cell, so the heaviest is neg(r) + Z.  Where Z is more, the
    cells next to r are those of Z's own planar arrangement in r^perp
    (``_plane_cells``), with the signs of r elsewhere; a zero set fixes its
    ray up to sign, so each is done once, in chunks of at most _BLOCK
    (ray, column, column) entries."""
    R = _cross(P[:, i].T, P[:, j].T)
    norm = np.sqrt((R * R).sum(axis=1))
    if not _decided(norm):
        return None
    ray = norm > _ZERO  # two parallel columns span no ray
    R = R[ray] / norm[ray, None]
    S = R @ P
    if not _decided(S):
        return None
    zero = np.abs(S) <= _ZERO
    neg, pos = S < -_ZERO, S > _ZERO
    generic = zero.sum(axis=1) == 2
    C = [neg[generic] | zero[generic], pos[generic] | zero[generic]]
    rays = {}  # zero set -> its first degenerate ray
    for r in np.flatnonzero(~generic):
        rays.setdefault(zero[r].tobytes(), r)
    D = np.fromiter(rays.values(), dtype=int, count=len(rays))
    m = P.shape[1]
    step = max(1, _BLOCK // (m * m))
    for lo in range(0, len(D), step):
        r = D[lo:lo + step]
        Z = zero[r]
        T = _cross(R[r][:, None], P.T) @ P  # (r x P_l) . P_m
        cells = _plane_cells(np.where(Z[:, :, None] & Z[:, None], T, np.nan),
                             P.T @ P)
        if cells is None:
            return None
        on = np.tile(Z, (2, 1))  # the rays of the planar arrangement
        for side in (neg[r], pos[r]):  # the rays r and -r
            C.append((np.tile(side, (2, 1))[:, None] | cells)[on])
    return np.vstack(C)


def _first_cell(P: np.ndarray, mults: np.ndarray):
    """The ``_first`` negative set among the open cells of the central
    arrangement of the hyperplanes c.P_j = 0 in R^k, k = len(P) <= 3, with P
    of rank k and unit columns: an indicator over the columns, or None when
    a sign test is undecided.

    Each open cell is a pointed cone, so its closure has an extreme ray:
    +-1 at k = 1, +-P_j^perp at k = 2 (``_plane_cells``) and +-P_i x P_j at
    k = 3 (``_space_cells``).  The rays are taken in blocks, so that each
    (rays x columns) array holds at most _BLOCK entries."""
    k, m = P.shape
    if k == 1:
        C = np.array([P[0] < 0, P[0] > 0])
        return C[_first(C, mults)]
    pairs = (np.arange(m),) if k == 2 else np.triu_indices(m, 1)
    step = max(1, _BLOCK // m)
    best = np.zeros((0, m), dtype=bool)
    for lo in range(0, len(pairs[0]), step):
        i = pairs[0][lo:lo + step]
        if k == 2:
            C = _plane_cells(np.outer(P[0, i], P[1]) - np.outer(P[1, i], P[0]),
                             P[:, i].T @ P)
        else:
            C = _space_cells(P, i, pairs[1][lo:lo + step])
        if C is None:
            return None
        C = np.vstack([best, C])
        if len(C):
            best = C[[_first(C, mults)]]
    return best[0] if len(best) else None


def _vertex_ray_set(P: np.ndarray, mults: np.ndarray):
    """The negative set that the search over P's span (k <= 3 rows) stops
    at, read off the vertex rays of its sign arrangement; None when a sign
    test is undecided.  A zero column is zero on the whole span, so it is
    never negative."""
    norm = np.sqrt((P * P).sum(axis=0))
    if not _decided(norm):
        return None
    live = norm > _ZERO
    cell = _first_cell(P[:, live] / norm[live], mults[live])
    return None if cell is None else tuple(np.flatnonzero(live)[cell].tolist())


def sign_polynomial(s: Spectrum, k: int) -> SignSolution:
    """Optimal sign polynomial: the trace-zero polynomial of degree <= k
    whose negative mesh points carry the most multiplicity.

    Its negative set is the first, in ``_negative_sets``' order, that the
    facet test realizes, and its certificate is y = tr(q)/n - q from that
    test's q, rescaled so that min_{i>=1} s(theta_i) = -1; b_j = 0 marks
    the negative set.

    Every realizable set lies inside the negative set of an open cell of
    the sign arrangement, and every such cell set is realizable, so that
    set is the first cell set.  At k <= 3 it is read off the arrangement's
    vertex rays (``_first_cell``, on the predistance rows p_1..p_k, each
    scaled to max 1), and the facet test on it gives the certificate, the
    search's byte for byte; ``facet_tests`` then reads 1 and ``skipped``
    0.  When that test leaves the set unrealized or a sign test on a ray
    falls in the undecided band (1e-12, 1e-7], and at every k >= 4,
    ``_sign_search`` answers, or raises SearchTimeout past SIGN_BUDGET
    candidate sets.  A predistance table that stops below row k raises
    DegenerateInnerProduct at k <= 3.
    """
    if not 1 <= k < s.d:
        raise ValueError(f"need 1 <= k < d, got k={k}")
    if k <= 3:
        P = s.predistance_rows(k)[1:]
        neg = _vertex_ray_set(P / np.abs(P).max(axis=1, keepdims=True), s.mults)
        if neg is not None:
            q, _ = _facet_test(s, neg, k)
            if q is not None:
                return _solution(s, q, neg, 1, 0)
    return _sign_search(s, k)
