"""Desk-scale LP machinery and the two optimization programs:

* the minor-polynomial LP (minimize the multiplicity-weighted trace of a
  degree-<= k polynomial with f(theta_0) = 1 and f >= 0 elsewhere), and
* the sign-polynomial search (minimize the multiplicity-weighted count of
  non-negative mesh values of a trace-zero polynomial of degree <= k), an
  exact enumeration of the sign patterns such a polynomial can have.

Both are written in the predistance basis: the mesh values are
y = sum_i c_i p_i(theta) with free coefficients c_i.  Since p_0 = 1 and the
p_i are orthogonal under the spectral inner product, "degree <= k" is the
span of p_0..p_k and "trace zero and degree <= k" the span of p_1..p_k, so
no constraint is needed for either.  Divided-difference rows, the other way
to impose the degree, are ill-conditioned on spectra with many distinct
eigenvalues (d = 30 for the Tutte graph).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Infeasible,
    NormalizationViolation,
    NumericalInstability,
    SearchTimeout,
    Unbounded,
)
from .polys import (
    CoeffPolynomial,
    MeshPolynomial,
    PredistanceFamily,
    mesh_to_coeffs,
    predistance_polynomials,
)
from .spectra import Spectrum

_TOL = 1e-9


@dataclass
class LinearProgram:
    """min objective . x  subject to  eq_constraints, variable bounds.

    bounds[j] = (lo, hi); None means unbounded on that side.
    """

    objective: np.ndarray
    eq_constraints: list = field(default_factory=list)  # (row, rhs) pairs
    bounds: list = field(default_factory=list)          # (lo, hi) per variable

    def num_vars(self) -> int:
        return len(self.objective)


def _simplex_standard(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Two-phase primal simplex with Bland's rule on min c.x, Ax=b, x>=0."""
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1
    b[neg] *= -1

    # scale rows for numerics (does not affect the vertex chosen by Bland)
    for i in range(m):
        s = max(np.abs(A[i]).max(), abs(b[i]))
        if s > 0:
            A[i] /= s
            b[i] /= s

    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])

    def pivot(T, basis, cost, ncols):
        while True:
            cb = cost[basis]
            reduced = cost[:ncols] - cb @ T[:, :ncols]
            enter = -1
            for j in range(ncols):
                if j not in basis and reduced[j] < -_TOL:
                    enter = j
                    break  # Bland: smallest index
            if enter < 0:
                return
            col = T[:, enter]
            ratios = [(T[i, -1] / col[i], basis[i], i)
                      for i in range(len(basis)) if col[i] > _TOL]
            if not ratios:
                raise Unbounded("LP objective unbounded below")
            leave_row = min(ratios)[2]  # ties: smallest basic variable index
            T[leave_row] /= T[leave_row, enter]
            for i in range(T.shape[0]):
                if i != leave_row and abs(T[i, enter]) > 0:
                    T[i] -= T[i, enter] * T[leave_row]
            basis[leave_row] = enter

    pivot(T, basis, cost, n + m)
    if cost[basis] @ T[:, -1] > 1e-7:
        raise Infeasible("phase-1 optimum positive: empty feasible region")
    # drive any residual artificials out of the basis
    for i, bi in enumerate(basis):
        if bi >= n:
            for j in range(n):
                if j not in basis and abs(T[i, j]) > _TOL:
                    T[i] /= T[i, j]
                    for r in range(m):
                        if r != i:
                            T[r] -= T[r, j] * T[i]
                    basis[i] = j
                    break
    keep = [i for i, bi in enumerate(basis) if bi < n]
    if len(keep) < m:  # redundant rows left with artificial basics
        T = T[keep]
        basis = [basis[i] for i in keep]
        m = len(keep)
    T = np.hstack([T[:, :n], T[:, -1:]])
    pivot(T, basis, np.concatenate([c, [0.0]]), n)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    return x, float(c @ x)


def solve_lp(lp: LinearProgram):
    """Solve a bounded-variable LP; returns (values, objective, vertex_flag).

    Deterministic: Bland's anti-cycling pivot rule throughout, so repeated
    runs return bit-identical vertices.
    """
    nv = lp.num_vars()
    bounds = lp.bounds if lp.bounds else [(0.0, None)] * nv
    # substitute each variable into one or two nonnegative ones
    shift = np.zeros(nv)
    sign = np.ones(nv)
    split = []  # indices of free variables (x = u - v)
    ubrows = []  # (var index in transformed space, width)
    cols = []  # transformed column index per original variable
    ncols = 0
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            shift[j] = lo
            cols.append(ncols)
            ncols += 1
            if hi is not None:
                ubrows.append((j, hi - lo))
        elif hi is not None:
            shift[j] = hi
            sign[j] = -1.0
            cols.append(ncols)
            ncols += 1
        else:
            split.append(j)
            cols.append(ncols)
            ncols += 2
    rows = len(lp.eq_constraints) + len(ubrows)
    nstd = ncols + len(ubrows)  # plus one slack per upper bound
    A = np.zeros((rows, nstd))
    b = np.zeros(rows)
    c = np.zeros(nstd)

    def scatter(vec, row=None, target_c=False):
        for j in range(nv):
            cj = cols[j]
            val = vec[j] * sign[j]
            if target_c:
                c[cj] += val
                if j in split:
                    c[cj + 1] -= val
            else:
                A[row, cj] += val
                if j in split:
                    A[row, cj + 1] -= val

    scatter(np.asarray(lp.objective, dtype=float), target_c=True)
    for r, (row, rhs) in enumerate(lp.eq_constraints):
        row = np.asarray(row, dtype=float)
        scatter(row, row=r)
        b[r] = rhs - float(row @ shift)
    for idx, (j, width) in enumerate(ubrows):
        r = len(lp.eq_constraints) + idx
        A[r, cols[j]] = 1.0
        A[r, ncols + idx] = 1.0
        b[r] = width
    u, _ = _simplex_standard(A, b, c)
    x = np.zeros(nv)
    for j in range(nv):
        val = u[cols[j]]
        if j in split:
            val -= u[cols[j] + 1]
        x[j] = shift[j] + sign[j] * val
    return x, float(np.asarray(lp.objective) @ x), True


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text tableau dump for external cross-checking.

    Line 1: ``minimize`` followed by the objective coefficients.
    One ``eq`` line per equality constraint: coefficients then ``= rhs``.
    One ``bounds`` line per variable: ``lo hi`` with ``-inf``/``inf``.
    """
    out = ["minimize " + " ".join(f"{v:.12g}" for v in lp.objective)]
    for row, rhs in lp.eq_constraints:
        out.append("eq " + " ".join(f"{v:.12g}" for v in row) + f" = {rhs:.12g}")
    bounds = lp.bounds if lp.bounds else [(0.0, None)] * lp.num_vars()
    for lo, hi in bounds:
        lo_s = "-inf" if lo is None else f"{lo:.12g}"
        hi_s = "inf" if hi is None else f"{hi:.12g}"
        out.append(f"bounds {lo_s} {hi_s}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Programs in the predistance basis


def _predistance_lp(pd: PredistanceFamily, degrees: slice, objective,
                    bounds: list, rows: list = ()):
    """min objective . x over x = (y_0..y_d, extra...), where the mesh values
    are y = sum_{i in degrees} c_i p_i(theta) for free c_i.

    ``bounds`` covers x and ``rows`` are (row, rhs) equalities over x.  The
    c_i sit between y and the extra variables in the LP and are dropped
    from the returned (x, objective).
    """
    # each p_i scaled to max |p_i(theta_j)| = 1: the c_i are free, so the
    # span is unchanged and the columns are comparable
    basis = pd.mesh_values[degrees]
    basis = basis / np.abs(basis).max(axis=1, keepdims=True)
    nc, d1 = basis.shape
    nx = len(objective)

    def widen(row):
        row = np.asarray(row, dtype=float)
        return np.concatenate([row[:d1], np.zeros(nc), row[d1:]])

    eqs = []
    for j in range(d1):  # y_j - sum_i c_i p_i(theta_j) = 0
        row = np.zeros(nx + nc)
        row[j] = 1.0
        row[d1:d1 + nc] = -basis[:, j]
        eqs.append((row, 0.0))
    eqs += [(widen(row), rhs) for row, rhs in rows]
    lp = LinearProgram(widen(objective), eqs,
                       bounds[:d1] + [(None, None)] * nc + bounds[d1:])
    x, obj, _ = solve_lp(lp)
    return np.concatenate([x[:d1], x[d1 + nc:]]), obj


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
    degrees = slice(0, k + 1)
    bounds = [(1.0, 1.0)] + [(0.0, None)] * d
    trace = s.mults.astype(float)
    y, obj = _predistance_lp(pd, degrees, trace, bounds)
    # the optimum can be degenerate; pin down a canonical vertex by
    # lexicographically minimizing (y_1, ..., y_d) subject to optimality
    rows = [(trace / trace.max(), obj / trace.max())]
    for j in range(1, d):
        unit = np.zeros(d + 1)
        unit[j] = 1.0
        y, vj = _predistance_lp(pd, degrees, unit, bounds, rows)
        rows.append((unit, max(vj, 0.0)))
    y[np.abs(y) < 1e-11] = 0.0
    if y[1:].min() > 1e-7:
        raise NormalizationViolation("LP vertex has min_{i>=1} f(theta_i) > 0")
    return MeshPolynomial(s.distinct, y)


def minor_trace(s: Spectrum, f: MeshPolynomial) -> float:
    return float(np.dot(s.mults, f.values))


# ---------------------------------------------------------------------------
# Sign polynomial search


@dataclass(frozen=True)
class MilpConfig:
    time_budget: float = 30.0  # wall-clock seconds for the sign-pattern search


@dataclass(frozen=True)
class MilpSolution:
    sign_mesh: MeshPolynomial
    sign_poly: CoeffPolynomial
    b: tuple
    objective: int


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


def _max_margin(pd: PredistanceFamily, k: int, neg: tuple):
    """max t with y_j <= -t on ``neg``, |y| <= 1 and y in span(p_1..p_k);
    returns (y, t)."""
    d1 = len(pd.norms_sq)
    # variables: y_0..y_d, t, one slack per margin row
    nx = d1 + 1 + len(neg)
    obj = np.zeros(nx)
    obj[d1] = -1.0
    rows = []
    for idx, j in enumerate(neg):
        row = np.zeros(nx)
        row[j] = 1.0
        row[d1] = 1.0
        row[d1 + 1 + idx] = 1.0
        rows.append((row, 0.0))
    bounds = [(-1.0, 1.0)] * d1 + [(0.0, None)] * (1 + len(neg))
    x, _ = _predistance_lp(pd, slice(1, k + 1), obj, bounds, rows)
    return x[:d1], x[d1]


def sign_polynomial(s: Spectrum, k: int, cfg: MilpConfig = MilpConfig(),
                    pd: PredistanceFamily | None = None) -> MilpSolution:
    """Optimal sign polynomial: the trace-zero polynomial of degree <= k
    whose negative mesh points carry the most multiplicity.

    The candidate negative sets are tried heaviest first; the first one a
    polynomial in span(p_1..p_k) realizes with margin t > 1e-7 is optimal,
    and that max-margin polynomial (in the box |y| <= 1) is the
    certificate, rescaled so that min_{i>=1} s(theta_i) = -1.  b_j = 0
    marks the negative set.  ``pd`` is the spectrum's predistance family,
    built here when not given.
    """
    d = s.d
    if not 1 <= k < d:
        raise ValueError(f"need 1 <= k < d, got k={k}")
    if pd is None:
        pd = predistance_polynomials(s)
    deadline = time.monotonic() + cfg.time_budget
    y = np.zeros(d + 1)  # s = 0 certificate: no negative mesh value
    best = ()
    for neg in _negative_sets(s.mults, k):
        if time.monotonic() > deadline:
            raise SearchTimeout("sign-pattern search exceeded its time budget")
        cand, t = _max_margin(pd, k, neg)
        if t > _MARGIN:
            y, best = cand, neg
            break
    low = y[1:].min()
    if low < -1e-12:
        y = y / abs(low)
    mesh = MeshPolynomial(s.distinct, y)
    coeff = mesh_to_coeffs(mesh)
    bvec = tuple(0 if j in best else 1 for j in range(d + 1))
    # indicator consistency: y_j >= 0 must imply b_j = 1
    for j, bj in enumerate(bvec):
        if y[j] >= -1e-9 * max(1.0, np.abs(y).max()) and bj != 1:
            raise NumericalInstability("indicator constraint violated by certificate")
    tr = float(np.dot(s.mults, y))
    if abs(tr) > 1e-7 * max(1.0, np.abs(y).max()):
        raise NumericalInstability("certificate trace is not zero")
    objective = int(sum(m for m, bj in zip(s.mults, bvec) if bj))
    return MilpSolution(mesh, coeff, bvec, objective)
