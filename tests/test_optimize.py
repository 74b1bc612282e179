"""LP solver and the two programs: the standard-form simplex against an
independent solver and its former loop form, its final basis against LP
duality, the closed-form minor polynomial against scipy on the
predistance-basis LP, against the former lexicographic minor LP and its
pinned-row loop, and its zero-set family and swap walk against brute force,
the sign search's dual max-margin LP against its former primal, and the
sign-polynomial search against scipy solving the divided-difference mesh
formulation."""

from itertools import combinations, product
from types import SimpleNamespace
from math import comb

import numpy as np
import pytest
from conftest import relabelled

from specind.errors import (
    Infeasible,
    NumericalInstability,
    SearchTimeout,
    SpecindError,
    Unbounded,
)
from specind import optimize
from specind.bounds import Analysis, best_bounds, pwr_ratio
from specind.graphs import FamilySpec, generate
from specind.polys import MeshPolynomial, predistance_polynomials
from specind.optimize import (
    _MARGIN,
    _TOL,
    _bland,
    _family_size,
    _gale_even,
    _margin_rows,
    _max_margin,
    _negative_sets,
    _pivot,
    _price,
    _sign_search,
    _solve,
    _tableau,
    minor_polynomial,
    sign_polynomial,
)
from specind.spectra import exact_family_spectrum

scipy_opt = pytest.importorskip("scipy.optimize")


def odd_spectrum(ell):
    return exact_family_spectrum(FamilySpec.parse(f"odd:{ell}"))


def dd_coefficient_rows(mesh: np.ndarray) -> np.ndarray:
    """Row m gives f[theta_0..theta_m] as a linear functional of the values.

    f[theta_0..theta_m] = sum_{j<=m} x_j / prod_{l<=m, l!=j} (theta_j - theta_l).
    A polynomial has degree <= k exactly when rows k+1..d vanish on its mesh
    values: the oracles below impose the degree this way, independently of
    the predistance basis the package uses.
    """
    d1 = len(mesh)
    rows = np.zeros((d1, d1))
    rows[0, 0] = 1.0
    for m in range(1, d1):
        for j in range(m + 1):
            denom = 1.0
            for l in range(m + 1):
                if l != j:
                    denom *= mesh[j] - mesh[l]
            rows[m, j] = 1.0 / denom
    return rows


def simplex_standard(A, b, c):
    """The package's two-phase simplex on one LP, min c.x subject to
    Ax = b, x >= 0, from its phase-1 tableau; returns (x, c.x, basis), with
    ``basis`` the final basic columns, one per row that is not redundant."""
    T, basis = _tableau(A, b)
    x, basis = _solve(T, basis, c, np.zeros(T.shape[1] - 1, dtype=bool))
    return x, c @ x, basis


def assert_matches_scipy(A, b, c):
    """Our vertex is feasible and optimal: scipy's objective on the same
    standard form, min c.x subject to Ax = b, x >= 0."""
    ref = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                            method="highs")
    assert ref.status == 0
    x, obj, _ = simplex_standard(A, b, c)
    assert obj == pytest.approx(ref.fun, abs=1e-7)
    assert np.allclose(A @ x, b, atol=1e-8) and x.min() >= 0
    return x


def random_lps():
    """25 feasible, bounded LPs: 3 random rows over 6 variables, each
    variable at most 10 through one slack."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        nv, ne = 6, 3
        rows = rng.normal(size=(ne, nv))
        x0 = rng.uniform(0.5, 2.0, size=nv)  # feasible interior point
        A = np.block([[rows, np.zeros((ne, nv))],
                      [np.eye(nv), np.eye(nv)]])
        b = np.concatenate([rows @ x0, np.full(nv, 10.0)])
        yield A, b, np.concatenate([rng.normal(size=nv), np.zeros(nv)])


# Beale's example: cycles under the largest-coefficient rule.  Two of the six
# pivots Bland's rule takes tie in the ratio test, so the basic-index
# tie-break decides them.  Optimum -5/4.
BEALE = (np.array([[0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
                   [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]]),
         np.array([0.0, 0.0, 1.0]),
         np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0]))

# The third row is the sum of the first two.
_ROWS = np.array([[1.0, 1.0, 1.0, 0.0, 2.0], [1.0, 0.0, 2.0, 1.0, 0.0]])
REDUNDANT = [(np.vstack([_ROWS, _ROWS.sum(axis=0)]), np.array([2.0, 1.0, 3.0]),
              np.array(c)) for c in ([1.0, 2.0, -1.0, 0.5, 1.0],
                                     [-1.0, 0.0, 0.0, 1.0, -0.5])]

# Full rank, but the first two rows force x_0 = 0.
DRIVEN_OUT = (np.array([[0.0, -1.0, -1.0, -1.0],
                        [-1.0, 1.0, 1.0, 1.0],
                        [0.0, 1.0, 2.0, 0.0]]),
              np.array([-3.0, 3.0, 3.0]), np.array([-1.0, 1.0, 2.0, 1.0]))


# Phase 1 pivots an artificial out and later back in; with the artificials
# fixed in phase 1 the run takes another path to x = (0, 1), with +0.0
# where this one gives -0.0.  Two of the four rows are redundant.
REENTRY = (np.array([[-2.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
           np.array([0.0, 1.0, 0.0, 1.0]), np.array([-1.0, 1.0]))

# min -(x_0 + x_1) on x_0 + x_1 + x_2 = 1, x_1 + x_3 = 1: the optimal face is
# the segment x_0 + x_1 = 1, x_2 = 0, and a second objective on x_3 picks
# one of its ends.
FACE = (np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
        np.array([1.0, 1.0]), np.array([-1.0, -1.0, 0.0, 0.0]))


def scipy_lexicographic(A, b, objectives):
    """The lexicographic vertex by scipy: each objective minimized with every
    earlier one pinned at its optimum by an equality row."""
    rows, rhs = [], []
    for c in objectives:
        ref = scipy_opt.linprog(c, A_eq=np.vstack([A, *rows]),
                                b_eq=np.concatenate([b, rhs]),
                                bounds=(0, None), method="highs")
        assert ref.status == 0
        rows.append(c)
        rhs.append(ref.fun)
    return ref.x


def test_simplex_vs_scipy_random_lps():
    for A, b, c in random_lps():
        assert_matches_scipy(A, b, c)


def test_simplex_basis_gives_optimal_duals():
    """The final basis certifies optimality: the duals pi solving
    A_B^T pi = c_B are dual feasible, A^T pi <= c, tight on the basic
    columns, and b.pi equals the optimum.  On the redundant LPs one row is
    dropped and pi is one of the least-squares solutions, all of which give
    the same A^T pi and b.pi."""
    for A, b, c in [*random_lps(), BEALE, *REDUNDANT]:
        x, obj, basis = simplex_standard(A, b, c)
        assert len(basis) == np.linalg.matrix_rank(A)
        pi = np.linalg.lstsq(A[:, basis].T, c[basis], rcond=None)[0]
        assert b @ pi == pytest.approx(obj, abs=1e-9)
        assert (A.T @ pi <= c + 1e-9).all()
        assert np.allclose(A[:, basis].T @ pi, c[basis], atol=1e-9)
        assert np.all(x[np.setdiff1d(np.arange(len(c)), basis)] == 0.0)


def test_simplex_degenerate_tied_ratios():
    """Bland's rule does not cycle on Beale's example and reaches -5/4."""
    A, b, c = BEALE
    x = assert_matches_scipy(A, b, c)
    assert c @ x == pytest.approx(-1.25, abs=1e-12)
    assert simplex_standard(A, b, c)[0].tobytes() == x.tobytes()


def test_simplex_redundant_row():
    """An artificial stays basic after phase 1 and its row is dropped."""
    for A, b, c in REDUNDANT:
        assert_matches_scipy(A, b, c)


def test_simplex_artificial_driven_out():
    """Phase 1 ends with an artificial basic at level zero, and a real
    column replaces it."""
    x = assert_matches_scipy(*DRIVEN_OUT)
    assert x[0] == 0.0


def test_simplex_infeasible():
    with pytest.raises(Infeasible):
        simplex_standard(np.array([[1.0]]), np.array([-5.0]), np.array([1.0]))


def test_simplex_unbounded():
    with pytest.raises(Unbounded):
        simplex_standard(np.array([[0.0, 1.0]]), np.array([1.0]),
                         np.array([-1.0, 0.0]))


def lexicographic_reference(A, b, objectives, start):
    """Reference: the start-basis path and objective stack of the former
    ``optimize._simplex_standard``, which only the minor LP used.  The rows of
    [A | b], scaled as ``_tableau`` scales them, are pivoted onto the
    feasible basis ``start`` (the column basic in each row; Infeasible if it
    is not primal feasible), and each objective is then minimized in turn:
    after each one's optimum every column with a positive reduced cost is
    fixed at zero, which leaves that objective's optimal face for the next.
    Returns x."""
    n = A.shape[1]
    T = _tableau(A, b)[0]
    T = np.vstack([np.hstack([T[:-1, :n], T[:-1, -1:]]), np.zeros(n + 1)])
    basis = np.array(start)
    for i, j in enumerate(basis):
        _pivot(T, basis, i, j)
    if T[:-1, -1].min() < -_TOL:
        raise Infeasible("start basis is not primal feasible")
    fixed = np.zeros(n, dtype=bool)
    for row in np.atleast_2d(objectives):
        _price(T, basis, row)
        fixed |= _bland(T, basis, fixed) > _TOL
    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    return x


def test_simplex_lexicographic_degenerate_face():
    """The second objective chooses the vertex on the first one's optimal
    face, as scipy's pinned re-solves do."""
    A, b, c = FACE
    for second, want in (([0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]),
                         ([0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 1.0])):
        stack = np.array([c, second])
        x = lexicographic_reference(A, b, stack, [2, 3])
        assert np.allclose(x, want, atol=1e-12)
        assert np.allclose(x, scipy_lexicographic(A, b, stack), atol=1e-9)
        assert stack @ x == pytest.approx(stack @ want, abs=1e-12)


def loop_simplex(A, b, c, tol=1e-9):
    """Reference: the former per-row, per-column loop form of
    ``simplex_standard``, without its Infeasible and Unbounded checks."""
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1
    b[neg] *= -1
    for i in range(m):
        s = max(np.abs(A[i]).max(), abs(b[i]))
        if s > 0:
            A[i] /= s
            b[i] /= s
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))

    def pivot(T, basis, cost, ncols):
        while True:
            reduced = cost[:ncols] - cost[basis] @ T[:, :ncols]
            enter = next((j for j in range(ncols)
                          if j not in basis and reduced[j] < -tol), -1)
            if enter < 0:
                return
            col = T[:, enter]
            ratios = [(T[i, -1] / col[i], basis[i], i)
                      for i in range(len(basis)) if col[i] > tol]
            leave = min(ratios)[2]
            T[leave] /= T[leave, enter]
            for i in range(T.shape[0]):
                if i != leave and abs(T[i, enter]) > 0:
                    T[i] -= T[i, enter] * T[leave]
            basis[leave] = enter

    cost = np.concatenate([np.zeros(n), np.ones(m)])
    pivot(T, basis, cost, n + m)
    for i, bi in enumerate(basis):
        if bi >= n:
            for j in range(n):
                if j not in basis and abs(T[i, j]) > tol:
                    T[i] /= T[i, j]
                    for r in range(m):
                        if r != i:
                            T[r] -= T[r, j] * T[i]
                    basis[i] = j
                    break
    keep = [i for i, bi in enumerate(basis) if bi < n]
    T = np.hstack([T[keep, :n], T[keep, -1:]])
    basis = [basis[i] for i in keep]
    pivot(T, basis, np.concatenate([c, [0.0]]), n)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    return x


def sliced_form(A, neg):
    """The standard form a candidate set N stands for: the max-margin dual
    rows A sliced to the lambda columns on N and all u and v columns, with
    b = e_0 and cost sum(u + v); returns (A_N, b, c, the columns of A)."""
    d1 = A.shape[1] // 3
    cols = np.concatenate([neg, np.arange(d1, 3 * d1)])
    return (A[:, cols], np.eye(len(A))[0],
            np.repeat([0.0, 1.0], [len(neg), 2 * d1]), cols)


def test_simplex_matches_loop_reference(corpus_spectra, monkeypatch):
    """The array form takes the loop form's pivots: byte-identical vertices
    on the LPs above and on every LP the sign search solves on a few corpus
    spectra, flower-snark's hard searches included.  Each sign LP is solved
    on the search's shared tableau; its vertex on the set's columns is the
    loop form's on the sliced standard form the set stands for, its other
    lambda entries are zero, and ``simplex_standard`` on the sliced form
    takes the same pivots too.  It runs the search itself, whose LPs these
    are: at k <= 3 ``sign_polynomial`` solves one LP per call."""
    lps = [*random_lps(), BEALE, *REDUNDANT, DRIVEN_OUT, REENTRY]
    max_margin, solve = optimize._max_margin, optimize._solve
    vertices, sign = [], []

    def record_solve(T, basis, c, fixed):
        out = solve(T, basis, c, fixed)
        vertices.append(out[0])
        return out

    def record(P, A, phase1, neg):
        out = max_margin(P, A, phase1, neg)
        sign.append((A, neg, vertices[-1]))
        return out

    monkeypatch.setattr(optimize, "_solve", record_solve)
    monkeypatch.setattr(optimize, "_max_margin", record)
    for label in ("petersen", "odd:5", "hypercube:5", "frucht", "flower-snark"):
        s = corpus_spectra[label][1]
        for k in range(1, s.d):
            _sign_search(s, k, 30.0)
    monkeypatch.undo()
    assert len(sign) == 97
    for A, neg, x in sign:
        A_N, b, c, cols = sliced_form(A, neg)
        want = loop_simplex(A_N, b, c)
        assert x[cols].tobytes() == want.tobytes(), neg
        assert not np.delete(x, cols).any(), neg
        lps.append((A_N, b, c))
    for A, b, c in lps:
        x = simplex_standard(A, b, c)[0]
        assert x.tobytes() == loop_simplex(A, b, c).tobytes()


@pytest.mark.parametrize("ell,traces", [
    (5, {1: 56.0, 2: 13.5, 3: 8.5, 4: 1.0}),
    (6, {1: 210.0, 2: 66.0, 3: 21.0, 4: 11.0, 5: 1.0}),
])
def test_minor_polynomial_odd_traces(ell, traces):
    s = odd_spectrum(ell)
    for k, want in traces.items():
        f = minor_polynomial(s, k)
        assert s.trace(f.values) == pytest.approx(want, abs=1e-8), (ell, k)
        # normalization
        assert f.values[0] == pytest.approx(1.0, abs=1e-10)
        assert f.values[1:].min() == pytest.approx(0.0, abs=1e-9)
        assert f.values[1:].min() >= -1e-9


def test_minor_polynomial_vs_scipy_oracle(corpus_spectra):
    """Same LP solved by scipy: the optimal trace must agree.  On four odd
    graphs scipy imposes the degree by divided differences, independently of
    the predistance basis.  On every corpus spectrum and every k <= d,
    Tutte's d = 30 included, its variables are the coefficients c_i of
    f = sum_{i<=k} c_i p_i."""
    for ell, k in [(5, 2), (5, 3), (6, 2), (6, 4)]:
        s = odd_spectrum(ell)
        d = s.d
        rows = dd_coefficient_rows(s.distinct)
        A = [rows[m][1:] for m in range(k + 1, d + 1)]
        b = [-rows[m][0] for m in range(k + 1, d + 1)]
        res = scipy_opt.linprog(s.mults[1:].astype(float),
                                A_eq=np.array(A), b_eq=np.array(b),
                                bounds=[(0, None)] * d, method="highs")
        assert res.status == 0
        f = minor_polynomial(s, k)
        ours = float(np.dot(s.mults[1:], f.values[1:]))
        assert ours == pytest.approx(res.fun, abs=1e-7), (ell, k)
    checked = 0
    for label, (_, s, _, _) in corpus_spectra.items():
        pd = predistance_polynomials(s)
        for k in range(1, s.d + 1):
            P = pd[:k + 1]
            P = P / np.abs(P).max(axis=1, keepdims=True)
            res = scipy_opt.linprog(P @ s.mults, A_eq=P[:, :1].T, b_eq=[1.0],
                                    A_ub=-P[:, 1:].T, b_ub=np.zeros(s.d),
                                    bounds=(None, None), method="highs")
            assert res.status == 0, (label, k)
            f = minor_polynomial(s, k)
            assert s.trace(f.values) == pytest.approx(res.fun, abs=1e-6), (label, k)
            checked += 1
    assert checked == 269


def predistance_lp_reference(pd, degrees, objective, lo, hi, rows=(), rhs=()):
    """Reference: the former ``_predistance_lp``, the one LP builder both
    programs shared.  min objective . x over x = (y_0..y_d, extra...) with
    lo <= y <= hi (hi = inf: no upper bound), extra >= 0, rows . x = rhs,
    and mesh values y = sum_{i in degrees} c_i p_i(theta) for free c_i.

    Standard form: columns y - lo, then each c_i as two adjacent columns
    (+, -), then the extra variables, then one slack per finite upper bound;
    rows y_j - sum_i c_i p_i(theta_j) = 0, then ``rows``, then
    y_j + slack = hi_j.
    """
    basis = pd[degrees]
    basis = basis / np.abs(basis).max(axis=1, keepdims=True)
    nc, d1 = basis.shape
    objective = np.asarray(objective, dtype=float)
    nv = objective.shape[-1]
    R = np.asarray(rows, dtype=float).reshape(len(rhs), nv)
    ext = slice(d1 + 2 * nc, nv + 2 * nc)  # extra variables
    ub = np.flatnonzero(np.isfinite(hi))
    nr = d1 + len(R)
    A = np.zeros((nr + len(ub), ext.stop + len(ub)))
    b = np.zeros(len(A))
    c = np.zeros(objective.shape[:-1] + A.shape[1:])
    A[np.arange(d1), np.arange(d1)] = 1.0
    A[:d1, d1:ext.start:2] -= basis.T
    A[:d1, d1 + 1:ext.start:2] += basis.T
    b[:d1] -= lo
    A[d1:nr, :d1] += R[:, :d1]
    A[d1:nr, ext] += R[:, d1:]
    b[d1:nr] = rhs - R[:, :d1] @ lo
    r = np.arange(len(ub))
    A[nr + r, ub] = A[nr + r, ext.stop + r] = 1.0
    b[nr:] = hi[ub] - lo[ub]
    c[..., :d1] += objective[..., :d1]
    c[..., ext] += objective[..., d1:]
    u = simplex_standard(A, b, c)[0]
    return np.concatenate([lo + u[:d1], u[ext]])


def primal_max_margin(pd, k, neg):
    """Reference: the former primal ``_max_margin``, max t with y_j <= -t on
    ``neg``, |y| <= 1 and y in span(p_1..p_k), with d+1 definition rows,
    d+1 box rows and one margin row per element of ``neg``."""
    d1 = pd.shape[1]
    # variables: y_0..y_d, t, one slack per margin row y_j + t + slack = 0
    rows = np.hstack([np.eye(d1)[list(neg)], np.ones((len(neg), 1)),
                      np.eye(len(neg))])
    obj = np.zeros(rows.shape[1])
    obj[d1] = -1.0
    x = predistance_lp_reference(pd, slice(1, k + 1), obj, -np.ones(d1),
                                 np.ones(d1), rows, np.zeros(len(neg)))
    return x[:d1], x[d1]


def margin_lp(pd, k):
    """P, the dual rows A and their phase-1 tableau, as the search builds
    them once per (spectrum, k)."""
    P, A = _margin_rows(pd, k)
    return P, A, _tableau(A, np.eye(len(A))[0])


def test_max_margin_dual_matches_primal(corpus_spectra):
    """The (k+1)-row dual decides every candidate set the search visits as
    the former primal LP does, with t within 1e-9, and the realized
    certificate is the primal's vertex within 1e-9; an unrealized set
    gives no certificate (y is None)."""
    visited = realized = 0
    for label in ("petersen", "odd:5", "hypercube:5", "frucht", "flower-snark"):
        s = corpus_spectra[label][1]
        pd = predistance_polynomials(s)
        for k in range(1, s.d):
            P, A, phase1 = margin_lp(pd, k)
            for neg in _negative_sets(s.mults, k):
                y, t, _ = _max_margin(P, A, phase1, neg)
                want_y, want_t = primal_max_margin(pd, k, neg)
                assert (t > _MARGIN) == (want_t > _MARGIN), (label, k, neg)
                assert abs(t - want_t) <= 1e-9, (label, k, neg)
                visited += 1
                if want_t > _MARGIN:
                    assert len(y) == s.d + 1
                    assert np.abs(y - want_y).max() <= 1e-9, (label, k, neg)
                    realized += 1
                    break
                assert y is None, (label, k, neg)
    assert (realized, visited) == (28, 249)


def sliced_max_margin(P, A, neg):
    """Reference: the former ``_max_margin``, which solved the standard form
    sliced to the set's columns from scratch, and always derived the
    duals; returns (y, t, lambda)."""
    A_N, b, cost, _ = sliced_form(A, neg)
    x, t, basis = simplex_standard(A_N, b, cost)
    tc = np.linalg.solve(A_N[:, basis].T, cost[basis])
    return P.T @ tc[1:], t, x[:len(neg)]


def test_shared_tableau_matches_sliced_reference(corpus_spectra):
    """Every set the unpruned search visits on each corpus pair a report can
    reach (k < d, k <= pwr_level; Tutte k <= 3) gets the same decision,
    byte-equal t and lambda, and on realized sets byte-equal y, from the
    search's shared phase-1 tableau as from the sliced standard form.  The
    shared tableau skips the per-set row scaling, exactly: every row of the
    dual rows A has largest entry exactly 1.0."""
    pairs = visited = realized = 0
    for label, (_, s, _, reg) in corpus_spectra.items():
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            P, A, phase1 = margin_lp(s.predistance, k)
            assert (np.abs(A).max(axis=1) == 1.0).all(), (label, k)
            pairs += 1
            for neg in _negative_sets(s.mults, k):
                y, t, lam = _max_margin(P, A, phase1, neg)
                want_y, want_t, want_lam = sliced_max_margin(P, A, neg)
                assert (t > _MARGIN) == (want_t > _MARGIN), (label, k, neg)
                assert t.tobytes() == want_t.tobytes(), (label, k, neg)
                assert lam.tobytes() == want_lam.tobytes(), (label, k, neg)
                visited += 1
                if t > _MARGIN:
                    assert y.tobytes() == want_y.tobytes(), (label, k, neg)
                    realized += 1
                    break
    assert (pairs, realized, visited) == (163, 163, 2465)


def unpruned_sign_reference(s, k, pd):
    """Reference: the former ``sign_polynomial``, one max-margin LP for every
    candidate set until the first realized one, with the same rescaling and
    post-checks; returns (objective, b, certificate, LPs solved)."""
    P, A, phase1 = margin_lp(pd, k)
    y = np.zeros(s.d + 1)
    best = ()
    for lps, neg in enumerate(_negative_sets(s.mults, k), 1):
        cand, t, _ = _max_margin(P, A, phase1, neg)
        if t > _MARGIN:
            y, best = cand, neg
            break
    low = y[1:].min()
    if low < -1e-12:
        y = y / abs(low)
    b = tuple(0 if j in best else 1 for j in range(s.d + 1))
    if (y[list(best)] >= -1e-9 * max(1.0, np.abs(y).max())).any():
        raise NumericalInstability("indicator constraint violated by certificate")
    if abs(float(np.dot(s.mults, y))) > 1e-7 * max(1.0, np.abs(y).max()):
        raise NumericalInstability("certificate trace is not zero")
    return int(sum(m for m, bj in zip(s.mults, b) if bj)), b, y, lps


def outcome(fn, *args):
    """("ok", value) or ("raised", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except SpecindError as exc:
        return ("raised", type(exc), str(exc))


def test_pruned_search_matches_unpruned_reference(corpus_spectra):
    """Conflict pruning only skips sets the unpruned loop rejects: on every
    corpus pair a report can reach (k < d, k <= pwr_level; Tutte k <= 3)
    the objective, b, certificate bytes and outcome are the reference's,
    and every set the reference solves is either solved or skipped."""
    checked = lps = visited = 0
    for label, (_, s, _, reg) in corpus_spectra.items():
        pd = predistance_polynomials(s)
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            want = outcome(unpruned_sign_reference, s, k, pd)
            got = outcome(_sign_search, s, k, 30.0)
            if want[0] == "ok":
                sol = got[1]
                obj, b, y, ref_lps = want[1]
                assert (sol.objective, sol.b) == (obj, b), (label, k)
                assert sol.sign_mesh.values.tobytes() == y.tobytes(), (label, k)
                assert sol.lps + sol.skipped == ref_lps, (label, k)
                lps += sol.lps
                visited += ref_lps
            else:
                assert got == want, (label, k)
            checked += 1
    assert checked == 163
    assert (lps, visited) == (674, 2465)


def test_vertex_rays_match_search(corpus_spectra, monkeypatch):
    """At k <= 3 ``sign_polynomial`` reads its negative set off the vertex
    rays and returns the search's objective, b and certificate bytes, with
    no fallback to the search: on every corpus pair a report can reach
    (k <= pwr_level, k < d; Tutte included), on cycle:61, cycle:101 and
    prism:30 (d = 30..50), and on relabelled odd:5 and hypercube:7."""
    spectra = [(label, s, reg.pwr_level)
               for label, (_, s, _, reg) in corpus_spectra.items()]
    graphs = [generate(FamilySpec.parse(spec))
              for spec in ("cycle:61", "cycle:101", "prism:30")]
    graphs += [relabelled(spec, seed) for spec in ("odd:5", "hypercube:7")
               for seed in (1, 7)]
    for g in graphs:
        a = Analysis(g)
        spectra.append((g.label, a.s, a.reg.pwr_level))
    fallbacks = []

    def record(s, k, time_budget):
        fallbacks.append(k)
        return _sign_search(s, k, time_budget)

    monkeypatch.setattr(optimize, "_sign_search", record)
    pairs = 0
    for label, s, level in spectra:
        for k in range(1, min(s.d, level + 1, 4)):
            want = _sign_search(s, k, 30.0)
            sol = sign_polynomial(s, k)
            assert (sol.objective, sol.b) == (want.objective, want.b), (label, k)
            assert (sol.sign_mesh.values.tobytes()
                    == want.sign_mesh.values.tobytes()), (label, k)
            pairs += 1
    assert (pairs, len(fallbacks)) == (151, 0)


def test_vertex_rays_fall_back_to_search(corpus_spectra, monkeypatch):
    """The search answers, counters included, when a sign test on a ray is
    undecided (here every cosine, the band widened to (1e-12, 1]) and when
    the LP leaves the ray set unrealized (here the whole mesh, on which no
    trace-zero polynomial is negative)."""
    checked = 0
    for label in ("odd:5", "flower-snark"):
        _, s, _, reg = corpus_spectra[label]
        for k in range(1, min(s.d, reg.pwr_level + 1, 4)):
            want = _sign_search(s, k, 30.0)
            for name, value in (("_SURE", 1.0),
                                ("_vertex_ray_set",
                                 lambda P, mults: tuple(range(len(mults))))):
                monkeypatch.setattr(optimize, name, value)
                sol = sign_polynomial(s, k)
                monkeypatch.undo()
                assert (sol.objective, sol.b, sol.lps, sol.skipped) == (
                    want.objective, want.b, want.lps, want.skipped), (label, k, name)
                assert (sol.sign_mesh.values.tobytes()
                        == want.sign_mesh.values.tobytes()), (label, k, name)
                checked += 1
    assert checked == 12


def test_first_cell_matches_brute_force():
    """On arrangements with parallel, opposite and (k = 3) coplanar columns,
    ``_first_cell`` returns the first open cell in ``_negative_sets``' order
    (heaviest, then lexicographic) under random multiplicities: scipy's
    linprog finds the open cells among all sign vectors, each one feasible
    for sigma_j P_j.c >= 1.  Besides the two written out, the arrangements
    are small integer columns, so that many are parallel or coplanar."""
    rng = np.random.default_rng(3)
    arrangements = [
        [(1, 0), (2, 0), (-1, 0), (0, 1), (0, 3), (1, 1), (-3, -3)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
         (1, 1, 0), (-1, -1, 0)],  # every vertex ray degenerate
        # under mults 1, 2, 2, 1, 2 the first cell is found only at a
        # degenerate ray -r whose opposite r is P_i x P_j
        [(1, 1, 1), (1, -1, 0), (-1, -1, -1), (1, 0, 1), (-1, 0, -1)],
    ]
    while len(arrangements) < 9:
        k = 2 if len(arrangements) < 5 else 3
        cols = rng.integers(-2 if k == 2 else -1, 3 if k == 2 else 2, size=(7, k))
        if (cols != 0).any(axis=1).all() and np.linalg.matrix_rank(cols) == k:
            arrangements.append(cols)
    checked = 0
    for n, cols in enumerate(arrangements):
        P = np.array(cols, dtype=float).T
        P /= np.sqrt((P * P).sum(axis=0))
        k, m = P.shape
        cells = []
        for signs in product((-1.0, 1.0), repeat=m):
            res = scipy_opt.linprog(np.zeros(k), A_ub=-(np.array(signs) * P).T,
                                    b_ub=-np.ones(m), bounds=(None, None))
            if res.status == 0:
                cells.append(tuple(j for j in range(m) if signs[j] < 0))
        for i in range(10):
            mults = rng.integers(1, 4, size=m)
            if n == 2 and i == 0:
                mults = np.array([1, 2, 2, 1, 2])
            want = min(cells, key=lambda neg: (-mults[list(neg)].sum(), neg))
            got = optimize._first_cell(P, mults)
            assert tuple(np.flatnonzero(got)) == want, (cols, mults)
            checked += 1
    assert checked == 90


def test_conflicts_are_gordan_certificates(corpus_spectra, monkeypatch):
    """Each stored conflict S = supp(lambda) has at most k+1 elements, with
    lambda >= 0, sum(lambda) = 1 and P_S lambda_S = 0 (so no polynomial in
    span(p_1..p_k) is negative on all of S), and every set the search skips
    is unrealizable: the former primal LP gives it margin t <= 1e-7."""
    calls = []

    def record(P, A, phase1, neg):
        out = _max_margin(P, A, phase1, neg)
        calls.append((neg, out, P))
        return out

    monkeypatch.setattr(optimize, "_max_margin", record)
    conflicts = skipped = 0
    for label in ("petersen", "odd:5", "frucht", "flower-snark"):
        s = corpus_spectra[label][1]
        pd = predistance_polynomials(s)
        for k in range(1, s.d):
            calls.clear()
            sol = _sign_search(s, k, 30.0)
            solved = {neg for neg, _, _ in calls}
            assert len(calls) == len(solved) == sol.lps, (label, k)
            for neg, (_, t, lam), P in calls:
                if t > _MARGIN:
                    continue
                S = [j for j, w in zip(neg, lam) if w > 0]
                assert len(S) <= k + 1, (label, k, neg)
                assert lam.min() >= -1e-12, (label, k, neg)
                assert abs(lam.sum() - 1.0) <= 1e-9, (label, k, neg)
                assert np.abs(P[:, list(neg)] @ lam).max() <= 1e-9, (label, k, neg)
                conflicts += 1
            neg, (_, t, _), _ = calls[-1]
            realized = neg if t > _MARGIN else None
            skips = []
            for neg in _negative_sets(s.mults, k):
                if neg == realized:
                    break
                if neg not in solved:
                    skips.append(neg)
            assert len(skips) == sol.skipped, (label, k)
            for neg in skips:
                assert primal_max_margin(pd, k, neg)[1] <= 1e-7, (label, k, neg)
            skipped += len(skips)
    assert (conflicts, skipped) == (58, 145)


def test_skipped_sets_count_against_the_deadline(corpus_spectra, monkeypatch):
    """The search reads the deadline once per candidate, skipped ones
    included.  On Tutte k = 3 it solves 87 LPs and skips 1057 sets; a clock
    that advances 1 s per read runs out at the 1144th candidate, the
    realized one, long after the 87th LP.  A real budget of 1e-4 s times
    out too.  ``sign_polynomial`` reads the clock once more, after the
    vertex rays: a budget of 0.5 ticks times out there, and 1 tick is
    enough for its one LP."""
    s = corpus_spectra["tutte"][1]
    with pytest.raises(SearchTimeout):
        _sign_search(s, 3, 1e-4)
    # reads: one to set the deadline, then one per candidate (1144) for the
    # search, and one after the vertex rays for sign_polynomial
    for search, budget, reads, counts in (
            (_sign_search, 1143.5, 1145, None),
            (_sign_search, 1144.0, 1145, (87, 1057, 10)),
            (sign_polynomial, 0.5, 2, None),
            (sign_polynomial, 1.0, 2, (1, 0, 10))):
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(optimize, "time",
                            SimpleNamespace(monotonic=lambda: next(ticks)))
        if counts is None:
            with pytest.raises(SearchTimeout):
                search(s, 3, budget)
        else:
            sol = search(s, 3, budget)
            assert (sol.lps, sol.skipped, sol.objective) == counts
        assert next(ticks) == reads


def pinned_minor_reference(s, k):
    """Reference: the former ``minor_polynomial``, which fixed the canonical
    vertex with d - 1 further LPs, each pinning the previous float optimum as
    an equality row."""
    d = s.d
    pd = predistance_polynomials(s)
    degrees = slice(0, k + 1)
    lo = np.zeros(d + 1)
    hi = np.full(d + 1, np.inf)
    lo[0] = hi[0] = 1.0
    trace = s.mults.astype(float)
    y = predistance_lp_reference(pd, degrees, trace, lo, hi)
    rows, rhs = [trace / trace.max()], [trace @ y / trace.max()]
    for j in range(1, d):
        unit = np.zeros(d + 1)
        unit[j] = 1.0
        y = predistance_lp_reference(pd, degrees, unit, lo, hi, rows, rhs)
        rows.append(unit)
        rhs.append(max(y[j], 0.0))
    y[np.abs(y) < 1e-11] = 0.0
    return y


def test_minor_polynomial_matches_pinned_reference(corpus_spectra):
    """The closed-form vertex is the pinned-row loop's vertex on every corpus
    pair a report can reach (k <= pwr_level).  The loop fails on Tutte at
    k = 7 and 10..29, all beyond its pwr_level of 3."""
    checked = 0
    for label, (_, s, _, reg) in corpus_spectra.items():
        for k in range(1, min(reg.pwr_level, s.d) + 1):
            try:
                want = pinned_minor_reference(s, k)
            except Infeasible:
                continue
            got = minor_polynomial(s, k).values
            assert np.abs(got - want).max() <= 1e-9, (label, k)
            checked += 1
    assert checked == 210  # the reference solves every such pair


def lp_minor_reference(s, k):
    """Reference: the former ``minor_polynomial``, the lexicographic LP in
    the predistance basis, solved by phase 2 from the feasible f = 1;
    returns its mesh values.

    Columns u = y - e_0 >= 0, each c_i of f = sum_{i<=k} c_i p_i as two
    adjacent columns (+, -), and one slack; rows u_j - sum_i c_i p_i(theta_j)
    = -[j = 0], then u_0 + slack = 0, which holds y_0 at 1.  The objectives
    are the trace, then y_1, ..., y_{d-1}."""
    d = s.d
    P = s.predistance[:k + 1]
    P = P / np.abs(P).max(axis=1, keepdims=True)
    d1, nc = d + 1, 2 * (k + 1)
    A = np.zeros((d1 + 1, d1 + nc + 1))
    A[np.arange(d1), np.arange(d1)] = 1.0
    A[:d1, d1:-1:2] -= P.T
    A[:d1, d1 + 1:-1:2] += P.T
    A[d1, [0, -1]] = 1.0
    b = np.zeros(d1 + 1)
    b[0] = -1.0
    objectives = np.vstack([s.mults.astype(float), np.eye(d1)[1:d]])
    # f = 1: c_0^+ basic in row 0, u_j = 1 in row j, the slack in the last
    start = np.r_[d1, 1:d1, d1 + nc]
    u = lexicographic_reference(A, b, np.pad(objectives, ((0, 0), (0, nc + 1))),
                                start)
    y = u[:d1]
    y[0] += 1.0
    y[np.abs(y) < 1e-11] = 0.0
    return y


def test_minor_start_basis_matches_two_phase(corpus_spectra):
    """The closed form has the former LP's zero set, and its values within
    1e-9, on every corpus pair (k = 1..d, Tutte's 30 included) but Tutte's
    k = 26, 28 and 29.  Each LP vertex has exactly k zeros, so its zero set
    is well defined.  On those three pairs several vertices have traces
    within 1e-9 relative of the least, and the LP, which ties reduced costs
    within 1e-9, stops at another of them than ``_lexmin``, which ties
    values: its vertex is Gale-even, and ``_lexmin`` ranks the closed form
    first.  Everywhere the closed-form trace exceeds the LP's by at most
    1e-9 relative."""
    checked, ties = 0, []
    for label, (_, s, _, _) in corpus_spectra.items():
        for k in range(1, s.d + 1):
            got = minor_polynomial(s, k).values
            want = lp_minor_reference(s, k)
            assert (want[1:] == 0).sum() == k, (label, k)
            assert s.trace(got) <= s.trace(want) * (1 + 1e-9), (label, k)
            checked += 1
            if (got == 0).tolist() == (want == 0).tolist():
                assert np.abs(got - want).max() <= 1e-9, (label, k)
                continue
            ties.append((label, k))
            Z = np.flatnonzero(want[1:] == 0) + 1
            assert Z.tolist() in _gale_even(s.d, k).tolist(), (label, k)
            theta = s.distinct
            f_Z = np.prod([(theta - theta[j]) / (theta[0] - theta[j])
                           for j in Z], axis=0)
            assert optimize._lexmin(s.mults, np.column_stack([got, f_Z])) == 0
    assert checked == 269
    assert ties == [("tutte", 26), ("tutte", 28), ("tutte", 29)]


def test_simplex_start_basis():
    """The former start-basis path: a feasible start basis skips phase 1
    and reaches the two-phase run's vertex; an infeasible one raises
    Infeasible."""
    A, b, c = BEALE
    x = lexicographic_reference(A, b, c, [4, 5, 6])
    assert np.allclose(x, simplex_standard(A, b, c)[0], atol=1e-12)
    assert c @ x == pytest.approx(-1.25, abs=1e-12)
    with pytest.raises(Infeasible):
        lexicographic_reference(np.array([[1.0, -1.0]]), np.array([1.0]),
                                np.array([1.0, 1.0]), [1])


def brute_force_zero_sets(mesh, k):
    """Every k-subset Z of 1..d whose f_Z = prod_{j in Z} (x - theta_j) /
    (theta_0 - theta_j) is >= 0 on the mesh, sorted."""
    d = len(mesh) - 1
    out = []
    for Z in combinations(range(1, d + 1), k):
        values = np.prod([(mesh - mesh[j]) / (mesh[0] - mesh[j]) for j in Z],
                         axis=0)
        if values.min() >= 0:
            out.append(Z)
    return out


def test_gale_even_family_matches_brute_force():
    """For d <= 10 and every k <= d, the zero sets ``_gale_even`` lists, each
    once, are exactly the k-subsets whose f_Z is >= 0 on a random mesh, and
    N(d, k) counts them."""
    rng = np.random.default_rng(5)
    for d in range(1, 11):
        mesh = np.sort(rng.uniform(-3.0, 3.0, d + 1))[::-1]
        for k in range(1, d + 1):
            got = [tuple(Z) for Z in _gale_even(d, k).tolist()]
            assert len(set(got)) == len(got) == _family_size(d, k), (d, k)
            assert sorted(got) == brute_force_zero_sets(mesh, k), (d, k)


def test_swap_walk_reaches_family_optimum(corpus_spectra, monkeypatch):
    """The single-swap walk, forced on every corpus pair (k = 1..d), ends at
    the whole family's lexicographic vertex, byte for byte, wherever the
    family has at most 20000 members: all pairs but Tutte's k = 10..23,
    whose families (up to 319770 sets) are too large to score here."""
    size = optimize._family_size
    compared = 0
    for label, (_, s, _, _) in corpus_spectra.items():
        for k in range(1, s.d + 1):
            monkeypatch.setattr(optimize, "_family_size", lambda d, k: np.inf)
            walked = minor_polynomial(s, k).values
            if size(s.d, k) > 20000:
                monkeypatch.undo()
                continue
            monkeypatch.setattr(optimize, "_family_size", lambda d, k: 0)
            family = minor_polynomial(s, k).values
            monkeypatch.undo()
            assert walked.tobytes() == family.tobytes(), (label, k)
            compared += 1
    assert compared == 269 - 14


@pytest.fixture(scope="module")
def cycle_101():
    """C_101's spectrum, as ``bounds --family cycle:101`` computes it: d = 50,
    alpha_k = floor(101 / (k + 1)) for k < 50."""
    return Analysis(generate(FamilySpec.parse("cycle:101"))).s


def chebyshev_minor_trace(s, k):
    """The least trace of a minor polynomial by scipy, with f written in
    the Chebyshev basis T_i(x / 2), whose mesh values cos(i phi_j),
    theta_j = 2 cos(phi_j), are well conditioned at any degree: an oracle
    for cycles, whose spectrum lies in [-2, 2]."""
    T = np.cos(np.outer(np.arange(k + 1),
                        np.arccos(np.clip(s.distinct / 2, -1.0, 1.0))))
    res = scipy_opt.linprog(T @ s.mults, A_eq=T[:, :1].T, b_eq=[1.0],
                            A_ub=-T[:, 1:].T, b_ub=np.zeros(s.d),
                            bounds=(None, None), method="highs")
    assert res.status == 0
    return res.fun


def test_cycle_101_pwr_ratio_is_sound(cycle_101):
    """On C_101 at k = 40..49 the closed form's floor is >= alpha_k and its
    trace is scipy's optimum within 1e-9 relative.  The former LP, on the
    same degree-exact predistance rows, ends at the closed form's vertex:
    its values are within 1e-9 of it and its floor is >= alpha_k too.  On
    rows orthogonalized from the monomials x^i, whose rows past degree ~22
    were no longer of degree i, the LP's vertex at k = 41, 42, 45, 46, 49
    was off the polynomial of its own zero set, and at k = 49 its floor
    was 1 < alpha_49 = 2."""
    s = cycle_101
    for k in range(40, 50):
        f = minor_polynomial(s, k)
        rep = pwr_ratio(s, f, k)
        assert rep.floor_value >= 101 // (k + 1), k
        optimum = chebyshev_minor_trace(s, k)
        assert abs(rep.value - optimum) <= 1e-9 * optimum, k
        lp = MeshPolynomial(s.distinct, lp_minor_reference(s, k))
        assert np.abs(lp.values - f.values).max() <= 1e-9, k
        assert pwr_ratio(s, lp, k).floor_value >= 101 // (k + 1), k


def test_swap_walk_finishes_on_cycle_101(cycle_101):
    """On C_101 at k = 20..30 the families hold 10^8..10^9 sets, so the walk
    runs; it ends at scipy's optimum within 1e-9 relative, with k zeros."""
    s = cycle_101
    for k in range(20, 31):
        assert _family_size(s.d, k) > 10 ** 8
        f = minor_polynomial(s, k).values
        assert (f[1:] == 0).sum() == k
        optimum = chebyshev_minor_trace(s, k)
        assert abs(s.trace(f) - optimum) <= 1e-9 * optimum, k


def test_sign_unbounded_is_numerical_instability(cycle_101, corpus_spectra,
                                                 monkeypatch):
    """A max-margin dual is bounded below by 0, so an Unbounded from it is a
    numerical breakdown: on C_101 at k = 9 the search raises
    NumericalInstability, caused by the kernel's Unbounded, and the report's
    pwr_inertia row stays inapplicable with a reason that names it."""
    with pytest.raises(NumericalInstability,
                       match="broke down numerically") as info:
        sign_polynomial(cycle_101, 9)
    assert isinstance(info.value.__cause__, Unbounded)

    def unbounded(*args):
        raise Unbounded("LP objective unbounded below")

    monkeypatch.setattr(optimize, "_max_margin", unbounded)
    g = corpus_spectra["petersen"][0]
    rows = [r for r in best_bounds(g, 1) if r.method == "pwr_inertia"]
    assert [(r.applicable, r.reason) for r in rows] == [
        (False, "sign search failed: max-margin LP broke down numerically "
                "(LP objective unbounded below)")]


def test_fixed_columns_stay_at_zero():
    """Columns the ``fixed`` mask holds at zero never enter, in either phase
    or in the drive-out, and leave the other columns' pivots as they are:
    with a fixed, cheaper copy -A of A's columns in front, ``_solve`` takes
    the pivots of A alone, byte for byte, on every LP above (the redundant
    row's drop, DRIVEN_OUT's drive-out and REENTRY's artificial included)."""
    for A, b, c in [*random_lps(), BEALE, *REDUNDANT, DRIVEN_OUT, REENTRY]:
        n = A.shape[1]
        T, basis = _tableau(np.hstack([-A, A]), b)
        fixed = np.zeros(T.shape[1] - 1, dtype=bool)
        fixed[:n] = True
        x, basis = _solve(T, basis, np.concatenate([-c, c]), fixed)
        want, _, want_basis = simplex_standard(A, b, c)
        assert not x[:n].any()
        assert x[n:].tobytes() == want.tobytes()
        assert (basis == want_basis + n).all()


def test_carried_reduced_costs_match_recomputed(corpus_spectra, monkeypatch):
    """At every optimum the reduced-cost row that each pivot updates is
    within 1e-9 of c - c_B T recomputed from the tableau, its -z entry
    included: every phase of every LP the sign search solves on the corpus
    (each pair a report can reach, as in the pruned-search test).  A sign
    search prices its phase-1 row once, on the tableau every set solves a
    copy of, so each solve that starts from artificials records the
    phase-1 cost again."""
    price, bland, solve = optimize._price, optimize._bland, optimize._solve
    costs, optima, worst = [], 0, 0.0

    def record_price(T, basis, cost):
        costs.append(np.pad(cost, (0, T.shape[1] - len(cost))))
        price(T, basis, cost)

    def record_solve(T, basis, c, fixed):
        n = np.shape(c)[-1]
        if (basis >= n).any():
            costs.append(np.repeat([0.0, 1.0, 0.0], [n, len(fixed) - n, 1]))
        return solve(T, basis, c, fixed)

    def check_bland(T, basis, fixed):
        nonlocal optima, worst
        reduced = bland(T, basis, fixed)
        fresh = costs[-1] - costs[-1][basis] @ T[:-1]
        worst = max(worst, float(np.abs(T[-1] - fresh).max()))
        optima += 1
        return reduced

    monkeypatch.setattr(optimize, "_price", record_price)
    monkeypatch.setattr(optimize, "_solve", record_solve)
    monkeypatch.setattr(optimize, "_bland", check_bland)
    sign = 0
    for _, s, _, reg in corpus_spectra.values():
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            _sign_search(s, k, 30.0)
            sign += 1
    assert (sign, optima) == (163, 1348)
    assert worst <= 1e-9, worst  # 1.04e-10 when written


def test_minor_polynomial_monotone_in_k():
    s = odd_spectrum(6)
    prev = None
    for k in range(1, s.d + 1):
        tr = s.trace(minor_polynomial(s, k).values)
        if prev is not None:
            assert tr <= prev + 1e-9
        prev = tr


def test_minor_polynomial_k_equals_d_is_hoffman():
    s = odd_spectrum(5)
    f = minor_polynomial(s, s.d)
    assert s.trace(f.values) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(f.values, [1.0, 0, 0, 0, 0], atol=1e-9)


def test_minor_polynomial_deterministic():
    s = odd_spectrum(6)
    a = minor_polynomial(s, 3)
    b = minor_polynomial(s, 3)
    assert a.values.tobytes() == b.values.tobytes()


def test_sign_polynomial_odd6_k4():
    s = odd_spectrum(6)
    sol = sign_polynomial(s, 4)
    assert sol.objective == 11
    v = sol.sign_mesh.values
    want = np.array([41.0, -1, -1, -1, -1, 41])
    scale = v[0] / want[0]
    assert scale > 0
    assert np.allclose(v, want * scale, atol=1e-7 * abs(v).max())
    assert abs(float(np.dot(s.mults, v))) < 1e-7 * abs(v).max()
    assert sol.b == (1, 0, 0, 0, 0, 1)


def test_sign_polynomial_indicator_consistency():
    for ell, k in [(4, 2), (5, 2), (6, 3)]:
        s = odd_spectrum(ell)
        sol = sign_polynomial(s, k)
        for j, bj in enumerate(sol.b):
            if sol.sign_mesh.values[j] >= 0:
                assert bj == 1, (ell, k, j)
        # objective equals the multiplicity-weighted count of b_j = 1
        assert sol.objective == int(sum(m for m, bj in zip(s.mults, sol.b) if bj))


SIGN_ORACLE_GRAPHS = ("odd:4", "odd:5", "odd:6", "hypercube:4", "hypercube:5",
                      "hypercube:6", "petersen", "dodecahedron", "desargues",
                      "tutte")


def scipy_sign_milp(s, k, eps=1e-4):
    """Optimal sign-polynomial objective by scipy's MILP on the big-M mesh
    formulation: mesh values y in [-1, 1] with y = sum_{i<=k} c_i
    T_i(theta / theta_0) for free c_i, zero trace, and y_j <= -eps unless
    the binary b_j = 1; minimize sum m_j b_j.  M = 2 suffices inside the box.
    The degree goes through Chebyshev values, which are well conditioned on
    [-1, 1]; divided-difference rows are not when d is large (30 for Tutte,
    where they give 1 for k = 1..3)."""
    d1 = s.d + 1
    M = 2.0
    T = np.polynomial.chebyshev.chebvander(s.distinct / s.distinct[0], k)
    nc = T.shape[1]
    eq = list(np.hstack([np.eye(d1), np.zeros((d1, d1)), -T]))
    eq.append(np.concatenate([s.mults / s.mults.max(), np.zeros(d1 + nc)]))
    ind = np.hstack([np.eye(d1), -M * np.eye(d1), np.zeros((d1, nc))])
    res = scipy_opt.milp(
        np.concatenate([np.zeros(d1), s.mults.astype(float), np.zeros(nc)]),
        constraints=[scipy_opt.LinearConstraint(np.array(eq), 0.0, 0.0),
                     scipy_opt.LinearConstraint(ind, -np.inf, -eps)],
        integrality=np.concatenate([np.zeros(d1), np.ones(d1), np.zeros(nc)]),
        bounds=scipy_opt.Bounds(np.concatenate([-np.ones(d1), np.zeros(d1),
                                                np.full(nc, -np.inf)]),
                                np.concatenate([np.ones(2 * d1),
                                                np.full(nc, np.inf)])))
    assert res.status == 0, res.message
    return round(res.fun)


def test_sign_polynomial_vs_scipy_milp_oracle(corpus_spectra):
    """The sign-pattern search and scipy's branch and bound on the mesh
    formulation find the same optimum on every applicable k, Tutte's
    k = 1..3 (d = 30) included."""
    checked = 0
    for label in SIGN_ORACLE_GRAPHS:
        _, s, _, reg = corpus_spectra[label]
        for k in range(1, min(reg.pwr_level + 1, s.d)):
            assert sign_polynomial(s, k).objective == scipy_sign_milp(s, k), (label, k)
            checked += 1
    assert checked == 33


def test_negative_sets_enumeration():
    """Every set with at most k changes along the mesh, each once, heaviest
    first and lexicographic among equal weights."""
    mults = np.array([1, 3, 2, 3, 1, 2])
    d1 = len(mults)
    for k in range(1, d1):
        got = list(_negative_sets(mults, k))
        want = [tuple(i for i in range(d1) if bits[i])
                for bits in product((0, 1), repeat=d1)
                if 0 < sum(bits) < d1
                and sum(a != b for a, b in zip(bits, bits[1:])) <= k]
        want.sort(key=lambda neg: (-sum(mults[list(neg)]), neg))
        assert got == want, k
        assert len(got) == 2 * sum(comb(d1 - 1, i) for i in range(k + 1)) - 2


def test_sign_polynomial_deterministic():
    s = odd_spectrum(6)
    a = sign_polynomial(s, 4)
    b = sign_polynomial(s, 4)
    assert a.sign_mesh.values.tobytes() == b.sign_mesh.values.tobytes()
    assert a.b == b.b and a.objective == b.objective

