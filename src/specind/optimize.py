"""A deterministic dense simplex and the two optimization programs:

* the minor-polynomial LP (minimize the multiplicity-weighted trace of a
  degree-<= k polynomial with f(theta_0) = 1 and f >= 0 elsewhere), and
* the sign-polynomial search (minimize the multiplicity-weighted count of
  non-negative mesh values of a trace-zero polynomial of degree <= k), an
  exact enumeration of its sign patterns that skips proven conflicts.

Both are written in the predistance basis: the mesh values are
y = sum_i c_i p_i(theta) with free coefficients c_i.  Since p_0 = 1 and the
p_i are orthogonal under the spectral inner product, "degree <= k" is the
span of p_0..p_k and "trace zero and degree <= k" the span of p_1..p_k, so
no constraint is needed for either.  Divided-difference rows, the other way
to impose the degree, are ill-conditioned when d is large (30 for Tutte).
Each program writes its LP in the standard form min c.u, Au = b, u >= 0
that ``_simplex_standard`` solves.  The sign search solves each max-margin
LP as its dual, one row per unknown (t and c_1..c_k): the final basis gives
the certificate; on an unrealized set N the vertex's lambda is a Gordan
certificate that no polynomial of the span is negative on all of
S = supp(lambda), so every later N' containing S is skipped.  Its dual rows
are built once per search, over all d+1 mesh points, and each set selects
its columns.

The simplex keeps its reduced costs as the tableau's last row, updated by
every pivot.  Only the sign LPs run phase 1.  Their optima need not be
unique, so the vertex, and with it the certificate, depends on the path
from the artificial basis.  The minor LP starts phase 2 at the feasible
f = 1 instead: its lexicographic vertex is unique, so any feasible start
reaches the same one.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    Infeasible,
    NormalizationViolation,
    NumericalInstability,
    SearchTimeout,
    Unbounded,
)
from .polys import MeshPolynomial, PredistanceFamily, predistance_polynomials
from .spectra import Spectrum

_TOL = 1e-9


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int):
    """Make column ``col`` basic in ``row``: scale the row to a unit pivot and
    subtract its multiples from the rows with a nonzero entry in ``col``, the
    reduced-cost row included.

    The pivot entry becomes x / x = 1 and every other entry of the column
    y - y * 1 = 0, both exact in floating point, and later pivots leave such
    a column as it is.  So each basic column stays an exact unit vector: its
    reduced cost is exactly zero, and it is never a candidate to enter."""
    T[row] /= T[row, col]
    rows = T[:, col] != 0
    rows[row] = False
    rows = rows.nonzero()[0]
    T[rows] -= T[rows, col, None] * T[row]
    basis[row] = col


def _price(T: np.ndarray, basis: np.ndarray, cost: np.ndarray):
    """Write the reduced costs c - c_B T of ``cost`` into T's last row."""
    T[-1, :-1] = cost
    T[-1, -1] = 0.0
    T[-1] -= cost[basis] @ T[:-1]


def _bland(T: np.ndarray, basis: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Pivot the tableau T = [A | b; r | -z] to optimality over its first
    ``len(fixed)`` columns, the ``fixed`` ones excluded, by Bland's rule: the
    first improving column enters, the row of the minimum (ratio, basic
    index) leaves.  The last row r holds the reduced costs, which every
    pivot updates; returns them at the optimum."""
    ncols = len(fixed)
    reduced = T[-1, :ncols]
    rhs = T[:-1, -1]
    free = ~fixed
    while True:
        improving = (reduced < -_TOL) & free
        enter = int(improving.argmax())
        if not improving[enter]:
            return reduced
        col = T[:-1, enter]
        rows = (col > _TOL).nonzero()[0]
        if not len(rows):
            raise Unbounded("LP objective unbounded below")
        ratios = rhs[rows] / col[rows]
        tied = rows[ratios == ratios.min()]
        _pivot(T, basis, tied[basis[tied].argmin()], enter)


def _simplex_standard(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                      start: np.ndarray | None = None):
    """Primal simplex with Bland's rule on min c.x, Ax=b, x>=0.
    Returns (x, c.x, basis): ``basis`` holds the final basic columns of A,
    one per row that is not redundant.

    Without ``start`` the run has two phases: phase 1 minimizes the sum of
    one artificial per row.  ``start`` names a feasible basis instead, the
    column basic in each row: the tableau is pivoted onto it and only
    phase 2 runs (Infeasible if that basis is not primal feasible).

    A stack of objectives c (shape (L, n)) is minimized lexicographically on
    one tableau: after each row's optimum, every non-basic column with a
    positive reduced cost is fixed at zero, which leaves exactly that row's
    optimal face for the next row.  Deterministic: repeated runs return
    bit-identical vertices."""
    m, n = A.shape
    # [A | b] with b >= 0, each row scaled by its largest entry for numerics
    # (does not affect the vertex chosen by Bland)
    Ab = np.hstack([A, b[:, None]])
    Ab[b < 0] *= -1.0
    s = np.abs(Ab).max(axis=1)
    s[s == 0] = 1.0
    Ab /= s[:, None]
    if start is None:
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = Ab[:, :n]
        T[:m, -1] = Ab[:, n]
        T[np.arange(m), np.arange(n, n + m)] = 1.0
        basis = np.arange(n, n + m)
        cost = np.repeat([0.0, 1.0], [n, m])
        _price(T, basis, cost)
        _bland(T, basis, np.zeros(n + m, dtype=bool))
        if cost[basis] @ T[:-1, -1] > 1e-7:
            raise Infeasible("phase-1 optimum positive: empty feasible region")
        # drive the artificials left in the basis out where a real column can
        # replace them (basic ones are 0 in their rows); the rows where none
        # can are redundant and dropped
        for i in (basis >= n).nonzero()[0]:
            cand = (np.abs(T[i, :n]) > _TOL).nonzero()[0]
            if len(cand):
                _pivot(T, basis, i, cand[0])
        keep = basis < n
        rows = np.append(keep, True)  # the reduced-cost row stays last
        T = np.hstack([T[rows, :n], T[rows, -1:]])
        basis = basis[keep]
    else:
        T = np.vstack([Ab, np.zeros(n + 1)])
        basis = np.array(start)
        for i, j in enumerate(basis):
            _pivot(T, basis, i, j)
        if T[:-1, -1].min() < -_TOL:
            raise Infeasible("start basis is not primal feasible")
    fixed = np.zeros(n, dtype=bool)  # columns held at zero: off the optimal face
    for row in np.atleast_2d(c):
        _price(T, basis, row)
        fixed |= _bland(T, basis, fixed) > _TOL
    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    return x, c @ x, basis


# ---------------------------------------------------------------------------
# Minor polynomial LP


def minor_polynomial(s: Spectrum, k: int,
                     pd: PredistanceFamily | None = None) -> MeshPolynomial:
    """Optimal minor polynomial of degree <= k for this spectrum.

    f = sum_{i<=k} c_i p_i with f(theta_0) = 1 and f(theta_1..theta_d) >= 0;
    the multiplicity-weighted trace is minimized.  ``pd`` is the spectrum's
    predistance family, built here when not given.
    """
    d = s.d
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}")
    if pd is None:
        pd = predistance_polynomials(s)
    # each p_i scaled to max |p_i(theta_j)| = 1: the c_i are free, so the
    # span is unchanged and the columns are comparable
    P = pd.mesh_values[:k + 1]
    P = P / np.abs(P).max(axis=1, keepdims=True)
    # columns u = y - e_0 >= 0, each c_i as two adjacent columns (+, -) and
    # one slack; rows u_j - sum_i c_i p_i(theta_j) = -[j = 0], then
    # u_0 + slack = 0, which holds y_0 at 1
    d1, nc = d + 1, 2 * (k + 1)
    A = np.zeros((d1 + 1, d1 + nc + 1))
    A[np.arange(d1), np.arange(d1)] = 1.0
    # -= and += onto zeros: 0.0 - v keeps -0.0 out of the LP's coefficients
    A[:d1, d1:-1:2] -= P.T
    A[:d1, d1 + 1:-1:2] += P.T
    A[d1, [0, -1]] = 1.0
    b = np.zeros(d1 + 1)
    b[0] = -1.0
    # the optimum can be degenerate: the canonical vertex minimizes the
    # trace, then y_1, ..., y_{d-1} in turn on each optimal face; that vertex
    # is unique, so phase 2 starts from the feasible f = 1: c_0^+ = 1 basic
    # in row 0, u_j = 1 in row j and the slack (at 0) in the last row
    objectives = np.vstack([s.mults.astype(float), np.eye(d1)[1:d]])
    start = np.r_[d1, 1:d1, d1 + nc]
    u = _simplex_standard(A, b, np.pad(objectives, ((0, 0), (0, nc + 1))),
                          start)[0]
    y = u[:d1]
    y[0] += 1.0
    y[np.abs(y) < 1e-11] = 0.0
    if y[1:].min() > 1e-7:
        raise NormalizationViolation("LP vertex has min_{i>=1} f(theta_i) > 0")
    return MeshPolynomial(s.distinct, y)


def minor_trace(s: Spectrum, f: MeshPolynomial) -> float:
    return float(np.dot(s.mults, f.values))


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


def _margin_rows(pd: PredistanceFamily, k: int):
    """P = p_1..p_k on the mesh, rows scaled to max 1, and the max-margin
    LPs' dual rows over all d+1 mesh points: [1, 0, 0; P, P, -P], whose
    column blocks are lambda, u and v."""
    P = pd.mesh_values[1:k + 1]
    P = P / np.abs(P).max(axis=1, keepdims=True)
    d1 = P.shape[1]
    total = np.repeat([1.0, 0.0], [d1, 2 * d1])  # sum(lambda) = 1
    return P, np.vstack([total, np.hstack([P, P, -P])])


def _max_margin(P: np.ndarray, A: np.ndarray, neg: tuple):
    """max t with y_j <= -t on ``neg``, |y| <= 1 and y = P^T c, with P and
    the dual rows A from ``_margin_rows``; returns (y, t, lambda).

    Solved as its dual, k+1 rows in the unknowns (t, c): min sum(u + v)
    over lambda, u, v >= 0 with sum(lambda) = 1 and
    P_N lambda + P (u - v) = 0: A's lambda columns on N and all of its u
    and v columns.  It is feasible and bounded below by 0, its
    optimum is t, and (t, c) are its duals on the final basis.  The rows
    are independent (the p_i are), so none is dropped and that basis is
    square: at most k+1 entries of lambda (x[:|N|]) are nonzero.
    """
    d1 = P.shape[1]
    cols = np.concatenate([neg, np.arange(d1, 3 * d1)])
    A = A[:, cols]
    cost = np.repeat([0.0, 1.0], [len(neg), 2 * d1])
    x, t, basis = _simplex_standard(A, np.eye(len(A))[0], cost)
    tc = np.linalg.solve(A[:, basis].T, cost[basis])
    return P.T @ tc[1:], t, x[:len(neg)]


def sign_polynomial(s: Spectrum, k: int, time_budget: float = 30.0,
                    pd: PredistanceFamily | None = None) -> SignSolution:
    """Optimal sign polynomial: the trace-zero polynomial of degree <= k
    whose negative mesh points carry the most multiplicity.

    The candidate negative sets are tried heaviest first; the first one a
    polynomial in span(p_1..p_k) realizes with margin t > 1e-7 is optimal,
    and that max-margin polynomial (in the box |y| <= 1) is the
    certificate, rescaled so that min_{i>=1} s(theta_i) = -1.  b_j = 0
    marks the negative set.  The search gives up with SearchTimeout after
    ``time_budget`` wall-clock seconds.  ``pd`` is the spectrum's predistance
    family, built here when not given.  An unrealized set N leaves the
    conflict S = supp(lambda) of its dual vertex.  For any later N' that
    contains S, that vertex is feasible in the dual for N' with objective
    t_N, so t_N' <= t_N <= 1e-7: N' is skipped without an LP, and the first
    realized set is the one the unpruned search finds.
    """
    d = s.d
    if not 1 <= k < d:
        raise ValueError(f"need 1 <= k < d, got k={k}")
    if pd is None:
        pd = predistance_polynomials(s)
    deadline = time.monotonic() + time_budget
    P, A = _margin_rows(pd, k)  # built once, each set selects its columns
    y = np.zeros(d + 1)  # s = 0 certificate: no negative mesh value
    best = ()
    conflicts, lps, tried = [], 0, 0  # conflicts: each S as a mesh bitmask
    for tried, neg in enumerate(_negative_sets(s.mults, k), 1):
        if time.monotonic() > deadline:
            raise SearchTimeout("sign-pattern search exceeded its time budget")
        outside = ~sum(1 << j for j in neg)
        if any(S & outside == 0 for S in conflicts):
            continue
        cand, t, lam = _max_margin(P, A, neg)
        lps += 1
        if t > _MARGIN:
            y, best = cand, neg
            break
        conflicts.append(sum(1 << j for j, w in zip(neg, lam) if w > 0))
    low = y[1:].min()
    if low < -1e-12:
        y = y / abs(low)
    mesh = MeshPolynomial(s.distinct, y)
    bvec = tuple(0 if j in best else 1 for j in range(d + 1))
    # indicator consistency: y_j >= 0 must imply b_j = 1
    if (y[list(best)] >= -1e-9 * max(1.0, np.abs(y).max())).any():
        raise NumericalInstability("indicator constraint violated by certificate")
    tr = float(np.dot(s.mults, y))
    if abs(tr) > 1e-7 * max(1.0, np.abs(y).max()):
        raise NumericalInstability("certificate trace is not zero")
    objective = int(sum(m for m, bj in zip(s.mults, bvec) if bj))
    return SignSolution(mesh, bvec, objective, lps, tried - lps)
