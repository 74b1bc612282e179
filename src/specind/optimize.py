"""A deterministic dense simplex and the two optimization programs:

* the minor polynomial (least multiplicity-weighted trace among the
  degree-<= k polynomials with f(theta_0) = 1 and f >= 0 elsewhere), read
  off its zero set with no LP solver: each vertex of its LP is the product
  of k factors (x - theta_j) / (theta_0 - theta_j), one for each j in a
  Gale-even zero set;
* the sign polynomial (least multiplicity-weighted count of non-negative
  mesh values of a trace-zero polynomial of degree <= k): at k <= 3 its
  negative set is read off the vertex rays of its sign arrangement and one
  max-margin LP gives the certificate; at k >= 4, and wherever a sign test
  on a ray is undecided or that LP leaves the set unrealized, an exact
  enumeration of its sign patterns that skips proven conflicts answers.

The sign polynomial is written in the predistance basis, y = sum_i c_i
p_i(theta) with free c_i: since p_0 = 1 and the p_i are orthogonal under
the spectral inner product, "trace zero and degree <= k" is the span of
p_1..p_k (rows 1..k of the spectrum's predistance table), with no
constraint (divided-difference rows would be
ill-conditioned at large d, 30 for Tutte).  Its sign vectors are the cells
of the central arrangement of the d+1 hyperplanes c.P_j = 0 in R^k, P_j
the column of p_1..p_k at theta_j, and the optimum is the first cell in
the search's order.  At k <= 3 each open cell has an extreme ray among
+-1 (k = 1), +-P_j^perp (k = 2) and +-P_i x P_j (k = 3), read in closed
form, with no SVD.  Each max-margin LP is solved as
its dual in standard form min c.u, Au = b, u >= 0, one row per unknown (t
and c_1..c_k): the final basis gives the certificate; on an unrealized set
N the vertex's lambda is a Gordan certificate that no polynomial of the
span is negative on all of S = supp(lambda), so every later N' containing S
is skipped.  The dual rows and their phase-1 tableau are built once per
search, over all d+1 mesh points; each set solves a copy with the lambda
columns off N held at zero, which takes the pivots of its own, smaller
standard form.  The simplex keeps its reduced costs as the tableau's last
row, updated by every pivot.  The optima need not be unique, so the vertex,
and with it the certificate, depends on the path from the artificial basis.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import Infeasible, NumericalInstability, SearchTimeout, Unbounded
from .polys import MeshPolynomial
from .spectra import Spectrum

_TOL = 1e-9


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int):
    """Make column ``col`` basic in ``row``: scale the row to a unit pivot and
    subtract its multiples from the rows with a nonzero entry in ``col``, the
    reduced-cost row included; rows with a zero entry are left untouched,
    signed zeros included.

    The pivot entry becomes x / x = 1 and every other entry of the column
    y - y * 1 = 0, both exact in floating point, and later pivots leave such
    a column as it is.  So each basic column stays an exact unit vector: its
    reduced cost is exactly zero, and it is never a candidate to enter."""
    T[row] /= T[row, col]
    multiplier = T[:, col].copy()
    multiplier[row] = 0.0
    np.subtract(T, multiplier[:, None] * T[row], out=T,
                where=(multiplier != 0)[:, None])
    basis[row] = col


def _price(T: np.ndarray, basis: np.ndarray, cost: np.ndarray):
    """Write the reduced costs c - c_B T of ``cost`` into T's last row; the
    columns past ``len(cost)`` cost 0."""
    T[-1] = 0.0
    T[-1, :len(cost)] = cost
    T[-1] -= cost[basis] @ T[:-1]


def _bland(T: np.ndarray, basis: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Pivot the tableau T = [A | b; r | -z] to optimality over its first
    ``len(fixed)`` columns, the ``fixed`` ones excluded, by Bland's rule: the
    first improving column enters, the row of the minimum (ratio, basic
    index) leaves.  The last row r holds the reduced costs, which every
    pivot updates; returns them at the optimum."""
    ncols = len(fixed)
    reduced = T[-1, :ncols]
    free = ~fixed
    while True:
        improving = (reduced < -_TOL) & free
        enter = int(improving.argmax())
        if not improving[enter]:
            return reduced
        leave, least = -1, None
        for i, (a, rhs, j) in enumerate(zip(T[:-1, enter].tolist(),
                                            T[:-1, -1].tolist(),
                                            basis.tolist())):
            if a > _TOL and (least is None or (rhs / a, j) < least):
                leave, least = i, (rhs / a, j)
        if leave < 0:
            raise Unbounded("LP objective unbounded below")
        _pivot(T, basis, leave, enter)


def _tableau(A: np.ndarray, b: np.ndarray):
    """Phase-1 tableau (T, basis) of Ax = b, x >= 0: [A | I | b; r | -z]
    with b >= 0, each row scaled by its largest entry (which does not change
    the vertex Bland's rule reaches), one basic artificial column per row,
    and r the reduced costs of their sum."""
    m, n = A.shape
    Ab = np.hstack([A, b[:, None]])
    Ab[b < 0] *= -1.0
    scale = np.abs(Ab).max(axis=1)
    Ab /= np.where(scale == 0, 1.0, scale)[:, None]
    T = np.zeros((m + 1, n + m + 1))
    T[:m] = np.hstack([Ab[:, :n], np.eye(m), Ab[:, n:]])
    basis = np.arange(n, n + m)
    _price(T, basis, np.repeat([0.0, 1.0], [n, m]))
    return T, basis


def _solve(T: np.ndarray, basis: np.ndarray, c: np.ndarray, fixed: np.ndarray):
    """Minimize c.x on the tableau T = [A | I | b; r | -z], in place, over
    the n columns of A (c has n entries), the ``fixed`` ones held at zero.
    The I block holds the artificial columns; ``fixed`` spans A and I.
    Returns (x, basis): ``basis`` holds the final basic columns of A, one
    per row that is not redundant.

    While an artificial is basic, phase 1 minimizes their sum, priced in r.
    The artificials that ``fixed`` leaves free may enter again.  The ones
    still basic at its optimum are driven out where a column of A that is
    not fixed can replace them, the first such one; the rows where none can
    are redundant and dropped.  In phase 2 every artificial is fixed."""
    n = len(c)
    if (basis >= n).any():
        _bland(T, basis, fixed)
        artificial = basis >= n
        if T[:-1, -1][artificial].sum() > 1e-7:
            raise Infeasible("phase-1 optimum positive: empty feasible region")
        if artificial.any():
            active = (~fixed[:n]).nonzero()[0]
            for i in artificial.nonzero()[0]:
                cand = active[np.abs(T[i, active]) > _TOL]
                if len(cand):
                    _pivot(T, basis, i, cand[0])
            keep = basis < n
            T = T[np.append(keep, True)]  # the reduced-cost row stays last
            basis = basis[keep]
    _price(T, basis, c)
    _bland(T, basis, fixed | (np.arange(len(fixed)) >= n))
    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    return x, basis


# ---------------------------------------------------------------------------
# Minor polynomial: the lexicographic vertex over its zero sets


def _family_size(d: int, k: int) -> int:
    """N(d, k): how many zero sets ``_gale_even`` lists."""
    return sum(comb(max(d - t - 1 - (k - t) // 2, 0), (k - t) // 2)
               for t in range(k % 2, k + 1, 2))


def _gale_even(d: int, k: int) -> np.ndarray:
    """The k-subsets Z of 1..d in which each index outside Z has an even
    number of members below it, as sorted rows: a tail {d-t+1..d} and
    p = (k-t)/2 disjoint pairs {a, a+1} in 1..d-t-1, whose starts
    a_i = c_i + i + 1 run over the p-subsets c of range(d-t-1-p)."""
    rows = []
    for t in range(k % 2, k + 1, 2):
        p = (k - t) // 2
        for c in combinations(range(d - t - 1 - p), p):
            rows.append([j for i, a in enumerate(c) for j in (a + i + 1, a + i + 2)]
                        + list(range(d - t + 1, d + 1)))
    return np.array(rows, dtype=int).reshape(-1, k)


def _mesh_values(ratios: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """f_Z on the mesh, one column per row Z of ``zeros`` (mesh index - 1):
    the product of the ratios (theta_i - theta_j) / (theta_0 - theta_j)
    over j in Z in increasing order, exactly zero on Z."""
    Y = ratios[:, zeros[:, 0]]
    for j in zeros[:, 1:].T:
        Y = Y * ratios[:, j]
    return Y


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


def _swap_walk(ratios: np.ndarray, mults: np.ndarray, k: int) -> np.ndarray:
    """Member indicators (mesh index - 1) of every vertex whose trace is
    within 2e-9 relative of the least.  From the tail {d-k+1..d} the walk
    takes the single swap of least trace while it lowers the trace; a local
    minimum of a linear objective is global.  The simplex reaches that
    minimum from any vertex of the slab by swaps that lower the trace, so a
    search of the slab along swaps from the minimum finds all of them."""
    d = ratios.shape[1]
    flip = np.eye(d, dtype=bool)

    def swaps(z):  # the Gale-even sets one swap from z, and their traces
        w = (z ^ flip[np.repeat(np.flatnonzero(z), d - k)]
             ^ flip[np.tile(np.flatnonzero(~z), k)])
        w = w[~(np.logical_xor.accumulate(w, axis=1) & ~w).any(axis=1)]
        return w, mults @ _mesh_values(ratios, np.nonzero(w)[1].reshape(-1, k))

    z = np.arange(d) >= d - k
    tr = mults @ _mesh_values(ratios, np.flatnonzero(z)[None])[:, 0]
    while True:
        w, t = swaps(z)
        if not len(t) or t.min() >= tr:  # no swap, or none lowers the trace
            break
        z, tr = w[t.argmin()], t.min()
    slab, todo = {z.tobytes(): z}, [z]
    while todo:
        w, t = swaps(todo.pop())
        for v in w[t <= tr + 2e-9 * abs(tr)]:
            if slab.setdefault(v.tobytes(), v) is v:  # not seen before
                todo.append(v)
    return np.array(list(slab.values()))


def minor_polynomial(s: Spectrum, k: int) -> MeshPolynomial:
    """Optimal minor polynomial of degree <= k: the ``_lexmin`` of the LP's
    vertices f_Z, Z Gale-even, scored in increasing order of their members.
    All are scored when there are at most k(d-k) + 1, one swap
    neighbourhood; otherwise those that can tie on the trace, which
    ``_swap_walk`` finds along the polytope's edges, the single swaps."""
    d = s.d
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}")
    ratios = (s.distinct[:, None] - s.distinct[1:]) / (s.distinct[0] - s.distinct[1:])
    if _family_size(d, k) <= k * (d - k) + 1:
        zeros = _gale_even(d, k) - 1
    else:
        zeros = np.nonzero(_swap_walk(ratios, s.mults, k))[1].reshape(-1, k)
    Y = _mesh_values(ratios, zeros[np.lexsort(zeros.T[::-1])])
    return MeshPolynomial(s.distinct, Y[:, _lexmin(s.mults, Y)])


# ---------------------------------------------------------------------------
# Sign polynomial search


@dataclass(frozen=True)
class SignSolution:
    sign_mesh: MeshPolynomial
    b: tuple
    objective: int
    lps: int  # max-margin LPs solved
    skipped: int  # candidate sets pruned by a stored conflict


_MARGIN = 1e-7  # a negative set is realized when its max margin exceeds this


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


def _margin_rows(pd: np.ndarray, k: int):
    """P = p_1..p_k on the mesh, rows scaled to max 1, and the max-margin
    LPs' dual rows over all d+1 mesh points: [1, 0, 0; P, P, -P], whose
    column blocks are lambda, u and v.  Each row's largest |entry| is
    exactly 1.0 (x / x), so ``_tableau`` leaves the rows as they are."""
    P = pd[1:k + 1]
    P = P / np.abs(P).max(axis=1, keepdims=True)
    d1 = P.shape[1]
    total = np.repeat([1.0, 0.0], [d1, 2 * d1])  # sum(lambda) = 1
    return P, np.vstack([total, np.hstack([P, P, -P])])


def _max_margin(P: np.ndarray, A: np.ndarray, phase1: tuple, neg: tuple):
    """max t with y_j <= -t on ``neg``, |y| <= 1 and y = P^T c, with P and
    the dual rows A from ``_margin_rows`` and ``phase1`` = ``_tableau`` of
    A, which this solves on a copy; returns (y, t, lambda), y = None unless
    t > _MARGIN.

    Solved as its dual, k+1 rows in the unknowns (t, c): min sum(u + v)
    over lambda, u, v >= 0 with sum(lambda) = 1 and
    P_N lambda + P (u - v) = 0: A's lambda columns on N and all of its u
    and v columns, the other lambda columns held at zero.  It is feasible
    and bounded below by 0, its optimum is t, and (t, c) are its duals on
    the final basis.  The rows are independent (the p_i are), so none is
    dropped and that basis is square: at most k+1 entries of lambda are
    nonzero.
    """
    d1 = P.shape[1]
    T, basis = phase1
    fixed = np.zeros(T.shape[1] - 1, dtype=bool)
    fixed[:d1] = True
    fixed[list(neg)] = False  # lambda is held at zero off N
    cost = np.zeros(3 * d1)
    cost[d1:] = 1.0  # sum(u + v)
    x, basis = _solve(T.copy(), basis.copy(), cost, fixed)
    cols = np.concatenate([neg, np.arange(d1, 3 * d1)])  # the active columns
    t = cost[cols] @ x[cols]  # c.x summed as the set's own standard form sums it
    y = None
    if t > _MARGIN:
        y = P.T @ np.linalg.solve(A[:, basis].T, cost[basis])[1:]
    return y, t, x[cols[:len(neg)]]


def _margin(P: np.ndarray, A: np.ndarray, phase1: tuple, neg: tuple):
    """``_max_margin``, with an Unbounded raised as NumericalInstability: the
    dual is bounded below by 0, so an unbounded one is a numerical
    breakdown."""
    try:
        return _max_margin(P, A, phase1, neg)
    except Unbounded as exc:
        raise NumericalInstability(f"max-margin LP broke down numerically ({exc})") from exc


def _solution(s: Spectrum, y: np.ndarray, best: tuple, lps: int,
              skipped: int) -> SignSolution:
    """The solution whose certificate y realizes the negative set ``best``:
    y rescaled so that min_{i>=1} y_i = -1, b_j = 0 on ``best``, after the
    indicator and trace checks."""
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
    return SignSolution(mesh, bvec, objective, lps, skipped)


def _sign_search(s: Spectrum, k: int, time_budget: float) -> SignSolution:
    """The search over every candidate negative set, heaviest first: the
    first one a polynomial in span(p_1..p_k) realizes with margin t > 1e-7 is
    optimal, and that max-margin polynomial (in the box |y| <= 1) is the
    certificate.  It gives up with SearchTimeout after ``time_budget``
    wall-clock seconds.  An unrealized set N leaves the conflict
    S = supp(lambda) of its dual vertex.  For any later N' that contains S,
    that vertex is feasible in the dual for N' with objective t_N, so
    t_N' <= t_N <= 1e-7: N' is skipped without an LP, and the first realized
    set is the one the unpruned search finds."""
    P, A = _margin_rows(s.predistance, k)
    phase1 = _tableau(A, np.eye(len(A))[0])  # built once, each set solves a copy
    deadline = time.monotonic() + time_budget
    y = np.zeros(s.d + 1)  # s = 0 certificate: no negative mesh value
    best = ()
    conflicts, lps, tried = [], 0, 0  # conflicts: each S as a mesh bitmask
    for tried, neg in enumerate(_negative_sets(s.mults, k), 1):
        if time.monotonic() > deadline:
            raise SearchTimeout("sign-pattern search exceeded its time budget")
        outside = ~sum(1 << j for j in neg)
        if any(S & outside == 0 for S in conflicts):
            continue
        cand, t, lam = _margin(P, A, phase1, neg)
        lps += 1
        if t > _MARGIN:
            y, best = cand, neg
            break
        conflicts.append(sum(1 << j for j, w in zip(neg, lam) if w > 0))
    return _solution(s, y, best, lps, tried - lps)


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


def sign_polynomial(s: Spectrum, k: int,
                    time_budget: float = 30.0) -> SignSolution:
    """Optimal sign polynomial: the trace-zero polynomial of degree <= k
    whose negative mesh points carry the most multiplicity.

    Its certificate is the max-margin polynomial (in the box |y| <= 1) on
    the first negative set, in ``_negative_sets``' order, that a polynomial
    in span(p_1..p_k) realizes with margin t > 1e-7, rescaled so that
    min_{i>=1} s(theta_i) = -1; b_j = 0 marks the negative set.

    Every realizable set lies inside the negative set of an open cell of
    the sign arrangement, and every such cell set is realizable, so that
    set is the first cell set.  At k <= 3 it is read off the arrangement's
    vertex rays (``_first_cell``), and one max-margin LP on the search's
    phase-1 tableau gives its certificate, the search's byte for byte;
    ``lps`` then reads 1 and ``skipped`` 0.  When that LP leaves the set
    unrealized or a sign test falls in the undecided band (1e-12, 1e-7],
    and at every k >= 4, ``_sign_search`` answers.  The clock is read after
    the vertex rays: SearchTimeout once ``time_budget`` wall-clock seconds
    are spent, and the search gets what remains.  An Unbounded dual is
    raised as NumericalInstability.
    """
    if not 1 <= k < s.d:
        raise ValueError(f"need 1 <= k < d, got k={k}")
    deadline = time.monotonic() + time_budget
    if k <= 3:
        P, A = _margin_rows(s.predistance, k)
        neg = _vertex_ray_set(P, s.mults)
        if time.monotonic() > deadline:
            raise SearchTimeout("sign-pattern search exceeded its time budget")
        if neg is not None:
            y, t, _ = _margin(P, A, _tableau(A, np.eye(len(A))[0]), neg)
            if t > _MARGIN:
                return _solution(s, y, neg, 1, 0)
    return _sign_search(s, k, deadline - time.monotonic())
