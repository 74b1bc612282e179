"""LP solver and the two programs: the standard-form simplex against an
independent solver and its former loop form, its final basis against LP
duality, the minor-polynomial LP against scipy on the predistance-basis LP
and against its former pinned-row lexicographic loop, the sign search's
dual max-margin LP against its former primal, and the sign-polynomial search
against scipy solving the divided-difference mesh formulation."""

from itertools import product
from types import SimpleNamespace
from math import comb

import numpy as np
import pytest

from specind.errors import (
    Infeasible,
    NumericalInstability,
    SearchTimeout,
    SpecindError,
    Unbounded,
)
from specind import optimize
from specind.graphs import FamilySpec
from specind.polys import predistance_polynomials
from specind.optimize import (
    _MARGIN,
    _margin_rows,
    _max_margin,
    _negative_sets,
    _simplex_standard,
    minor_polynomial,
    minor_trace,
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


def assert_matches_scipy(A, b, c):
    """Our vertex is feasible and optimal: scipy's objective on the same
    standard form, min c.x subject to Ax = b, x >= 0."""
    ref = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                            method="highs")
    assert ref.status == 0
    x, obj, _ = _simplex_standard(A, b, c)
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
        x, obj, basis = _simplex_standard(A, b, c)
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
    assert _simplex_standard(A, b, c)[0].tobytes() == x.tobytes()


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
        _simplex_standard(np.array([[1.0]]), np.array([-5.0]), np.array([1.0]))


def test_simplex_unbounded():
    with pytest.raises(Unbounded):
        _simplex_standard(np.array([[0.0, 1.0]]), np.array([1.0]),
                          np.array([-1.0, 0.0]))


def test_simplex_lexicographic_degenerate_face():
    """The second objective chooses the vertex on the first one's optimal
    face, as scipy's pinned re-solves do."""
    A, b, c = FACE
    for second, want in (([0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]),
                         ([0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 1.0])):
        stack = np.array([c, second])
        x, obj, _ = _simplex_standard(A, b, stack)
        assert np.allclose(x, want, atol=1e-12)
        assert np.allclose(x, scipy_lexicographic(A, b, stack), atol=1e-9)
        assert obj == pytest.approx(stack @ want, abs=1e-12)


def loop_simplex(A, b, c, tol=1e-9):
    """Reference: the former per-row, per-column loop form of
    ``_simplex_standard``, without its Infeasible and Unbounded checks."""
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


def test_simplex_matches_loop_reference(corpus_spectra, monkeypatch):
    """The array form takes the loop form's pivots: byte-identical vertices
    on the LPs above and on every LP the sign search solves on a few corpus
    spectra, flower-snark's hard searches included.  These all have one
    objective; the minor LP's objective stacks are checked against the
    pinned-row reference below."""
    lps = [*random_lps(), BEALE, *REDUNDANT, DRIVEN_OUT]

    def record(A, b, c):
        lps.append((A.copy(), b.copy(), c.copy()))
        return _simplex_standard(A, b, c)

    monkeypatch.setattr(optimize, "_simplex_standard", record)
    for label in ("petersen", "odd:5", "hypercube:5", "frucht", "flower-snark"):
        s = corpus_spectra[label][1]
        for k in range(1, s.d):
            sign_polynomial(s, k)
    monkeypatch.undo()
    for A, b, c in lps:
        x = _simplex_standard(A, b, c)[0]
        assert x.tobytes() == loop_simplex(A, b, c).tobytes()


@pytest.mark.parametrize("ell,traces", [
    (5, {1: 56.0, 2: 13.5, 3: 8.5, 4: 1.0}),
    (6, {1: 210.0, 2: 66.0, 3: 21.0, 4: 11.0, 5: 1.0}),
])
def test_minor_polynomial_odd_traces(ell, traces):
    s = odd_spectrum(ell)
    for k, want in traces.items():
        f = minor_polynomial(s, k)
        assert minor_trace(s, f) == pytest.approx(want, abs=1e-8), (ell, k)
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
            P = pd.mesh_values[:k + 1]
            P = P / np.abs(P).max(axis=1, keepdims=True)
            res = scipy_opt.linprog(P @ s.mults, A_eq=P[:, :1].T, b_eq=[1.0],
                                    A_ub=-P[:, 1:].T, b_ub=np.zeros(s.d),
                                    bounds=(None, None), method="highs")
            assert res.status == 0, (label, k)
            f = minor_polynomial(s, k, pd=pd)
            assert minor_trace(s, f) == pytest.approx(res.fun, abs=1e-6), (label, k)
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
    basis = pd.mesh_values[degrees]
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
    u = _simplex_standard(A, b, c)[0]
    return np.concatenate([lo + u[:d1], u[ext]])


def primal_max_margin(pd, k, neg):
    """Reference: the former primal ``_max_margin``, max t with y_j <= -t on
    ``neg``, |y| <= 1 and y in span(p_1..p_k), with d+1 definition rows,
    d+1 box rows and one margin row per element of ``neg``."""
    d1 = len(pd.norms_sq)
    # variables: y_0..y_d, t, one slack per margin row y_j + t + slack = 0
    rows = np.hstack([np.eye(d1)[list(neg)], np.ones((len(neg), 1)),
                      np.eye(len(neg))])
    obj = np.zeros(rows.shape[1])
    obj[d1] = -1.0
    x = predistance_lp_reference(pd, slice(1, k + 1), obj, -np.ones(d1),
                                 np.ones(d1), rows, np.zeros(len(neg)))
    return x[:d1], x[d1]


def test_max_margin_dual_matches_primal(corpus_spectra):
    """The (k+1)-row dual decides every candidate set the search visits as
    the former primal LP does, with t within 1e-9, and the realized
    certificate is the primal's vertex within 1e-9."""
    visited = realized = 0
    for label in ("petersen", "odd:5", "hypercube:5", "frucht", "flower-snark"):
        s = corpus_spectra[label][1]
        pd = predistance_polynomials(s)
        for k in range(1, s.d):
            P, A = _margin_rows(pd, k)
            for neg in _negative_sets(s.mults, k):
                y, t, _ = _max_margin(P, A, neg)
                assert len(y) == s.d + 1
                want_y, want_t = primal_max_margin(pd, k, neg)
                assert (t > _MARGIN) == (want_t > _MARGIN), (label, k, neg)
                assert abs(t - want_t) <= 1e-9, (label, k, neg)
                visited += 1
                if want_t > _MARGIN:
                    assert np.abs(y - want_y).max() <= 1e-9, (label, k, neg)
                    realized += 1
                    break
    assert (realized, visited) == (28, 249)


def unpruned_sign_reference(s, k, pd):
    """Reference: the former ``sign_polynomial``, one max-margin LP for every
    candidate set until the first realized one, with the same rescaling and
    post-checks; returns (objective, b, certificate, LPs solved)."""
    P, A = _margin_rows(pd, k)
    y = np.zeros(s.d + 1)
    best = ()
    for lps, neg in enumerate(_negative_sets(s.mults, k), 1):
        cand, t, _ = _max_margin(P, A, neg)
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
            got = outcome(sign_polynomial, s, k, 30.0, pd)
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
    assert (lps, visited) == (673, 2465)


def test_conflicts_are_gordan_certificates(corpus_spectra, monkeypatch):
    """Each stored conflict S = supp(lambda) has at most k+1 elements, with
    lambda >= 0, sum(lambda) = 1 and P_S lambda_S = 0 (so no polynomial in
    span(p_1..p_k) is negative on all of S), and every set the search skips
    is unrealizable: the former primal LP gives it margin t <= 1e-7."""
    calls = []

    def record(P, A, neg):
        out = _max_margin(P, A, neg)
        calls.append((neg, out, P))
        return out

    monkeypatch.setattr(optimize, "_max_margin", record)
    conflicts = skipped = 0
    for label in ("petersen", "odd:5", "frucht", "flower-snark"):
        s = corpus_spectra[label][1]
        pd = predistance_polynomials(s)
        for k in range(1, s.d):
            calls.clear()
            sol = sign_polynomial(s, k, pd=pd)
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
    """The deadline is read once per candidate, skipped ones included.  On
    Tutte k = 3 the search solves 87 LPs and skips 1057 sets; a clock that
    advances 1 s per read runs out at the 1144th candidate, the realized
    one, long after the 87th LP.  A real budget of 1e-4 s times out too."""
    s = corpus_spectra["tutte"][1]
    pd = predistance_polynomials(s)
    with pytest.raises(SearchTimeout):
        sign_polynomial(s, 3, time_budget=1e-4, pd=pd)
    for budget, times_out in ((1143.5, True), (1144.0, False)):
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(optimize, "time",
                            SimpleNamespace(monotonic=lambda: next(ticks)))
        if times_out:
            with pytest.raises(SearchTimeout):
                sign_polynomial(s, 3, time_budget=budget, pd=pd)
        else:
            sol = sign_polynomial(s, 3, time_budget=budget, pd=pd)
            assert (sol.lps, sol.skipped, sol.objective) == (87, 1057, 10)
        assert next(ticks) == 1145  # one read to set the deadline, then 1144


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
    """The one-tableau lexicographic vertex is the pinned-row loop's vertex on
    every corpus pair a report can reach (k <= pwr_level).  The loop fails
    on Tutte at k = 7 and 10..29, all beyond its pwr_level of 3."""
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


def test_minor_start_basis_matches_two_phase(corpus_spectra, monkeypatch):
    """Phase 2 from f = 1 reaches the two-phase run's vertex, byte for byte,
    on every corpus pair (k = 1..d, Tutte's 30 included), and f = 1 is
    accepted as a feasible start on each of them (no Infeasible)."""
    kernel = optimize._simplex_standard
    checked = 0
    for label, (_, s, _, _) in corpus_spectra.items():
        pd = predistance_polynomials(s)
        for k in range(1, s.d + 1):
            got = minor_polynomial(s, k, pd=pd).values
            monkeypatch.setattr(optimize, "_simplex_standard",
                                lambda A, b, c, start: kernel(A, b, c))
            want = minor_polynomial(s, k, pd=pd).values
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes(), (label, k)
            checked += 1
    assert checked == 269


def test_simplex_start_basis():
    """A feasible start basis skips phase 1 and reaches the same vertex;
    an infeasible one raises Infeasible."""
    A, b, c = BEALE
    x, obj, _ = _simplex_standard(A, b, c, start=np.array([4, 5, 6]))
    assert np.allclose(x, _simplex_standard(A, b, c)[0], atol=1e-12)
    assert obj == pytest.approx(-1.25, abs=1e-12)
    with pytest.raises(Infeasible):
        _simplex_standard(np.array([[1.0, -1.0]]), np.array([1.0]),
                          np.array([1.0, 1.0]), start=np.array([1]))


def test_carried_reduced_costs_match_recomputed(corpus_spectra, monkeypatch):
    """At every optimum the reduced-cost row that each pivot updates is
    within 1e-9 of c - c_B T recomputed from the tableau, its -z entry
    included: every phase of every LP the minor LP (k = 1..d, Tutte's 30
    included) and the sign search (each pair a report can reach, as in the
    pruned-search test) solve on the corpus."""
    price, bland = optimize._price, optimize._bland
    costs, optima, worst = [], 0, 0.0

    def record_price(T, basis, cost):
        costs.append(np.append(cost, 0.0))
        price(T, basis, cost)

    def check_bland(T, basis, fixed):
        nonlocal optima, worst
        reduced = bland(T, basis, fixed)
        fresh = costs[-1] - costs[-1][basis] @ T[:-1]
        worst = max(worst, float(np.abs(T[-1] - fresh).max()))
        optima += 1
        return reduced

    monkeypatch.setattr(optimize, "_price", record_price)
    monkeypatch.setattr(optimize, "_bland", check_bland)
    minor = sign = 0
    for _, s, _, reg in corpus_spectra.values():
        pd = predistance_polynomials(s)
        for k in range(1, s.d + 1):
            minor_polynomial(s, k, pd=pd)
            minor += 1
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            sign_polynomial(s, k, 30.0, pd)
            sign += 1
    assert (minor, sign, optima) == (269, 163, 3551)
    assert worst <= 1e-9, worst  # 1.04e-10 when written


def test_minor_polynomial_monotone_in_k():
    s = odd_spectrum(6)
    prev = None
    for k in range(1, s.d + 1):
        tr = minor_trace(s, minor_polynomial(s, k))
        if prev is not None:
            assert tr <= prev + 1e-9
        prev = tr


def test_minor_polynomial_k_equals_d_is_hoffman():
    s = odd_spectrum(5)
    f = minor_polynomial(s, s.d)
    assert minor_trace(s, f) == pytest.approx(1.0, abs=1e-9)
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
                      "hypercube:6", "petersen", "dodecahedron", "desargues")


def scipy_sign_milp(s, k, eps=1e-4):
    """Optimal sign-polynomial objective by scipy's MILP on the big-M mesh
    formulation: mesh values y in [-1, 1], divided differences of orders
    k+1..d and the trace vanish, and y_j <= -eps unless the binary b_j = 1;
    minimize sum m_j b_j.  M = 2 suffices inside the box."""
    d1 = s.d + 1
    M = 2.0
    rows = dd_coefficient_rows(s.distinct)
    eq = [np.concatenate([rows[m] / np.abs(rows[m]).max(), np.zeros(d1)])
          for m in range(k + 1, d1)]
    eq.append(np.concatenate([s.mults / s.mults.max(), np.zeros(d1)]))
    ind = np.hstack([np.eye(d1), -M * np.eye(d1)])
    res = scipy_opt.milp(
        np.concatenate([np.zeros(d1), s.mults.astype(float)]),
        constraints=[scipy_opt.LinearConstraint(np.array(eq), 0.0, 0.0),
                     scipy_opt.LinearConstraint(ind, -np.inf, -eps)],
        integrality=np.concatenate([np.zeros(d1), np.ones(d1)]),
        bounds=scipy_opt.Bounds(np.concatenate([-np.ones(d1), np.zeros(d1)]),
                                np.ones(2 * d1)))
    assert res.status == 0, res.message
    return round(res.fun)


def test_sign_polynomial_vs_scipy_milp_oracle(corpus_spectra):
    """The sign-pattern search and scipy's branch and bound on the mesh
    formulation find the same optimum on every applicable k."""
    checked = 0
    for label in SIGN_ORACLE_GRAPHS:
        _, s, _, reg = corpus_spectra[label]
        for k in range(1, min(reg.pwr_level + 1, s.d)):
            assert sign_polynomial(s, k).objective == scipy_sign_milp(s, k), (label, k)
            checked += 1
    assert checked == 30


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

