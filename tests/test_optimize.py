"""The two programs on the facet program: the closed-form minor polynomial
against scipy on the predistance-basis LP, against the former lexicographic
minor LP and its pinned-row loop (both solved by scipy), and its zero-set
family and swap walk against brute force; the sign search's facet test
against scipy's primal max-margin LP on every set the search visits and
every conflict it stores, its walk against the scored family, and the
sign-polynomial search against scipy solving the mesh formulation."""

import sys
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from conftest import relabelled

from specind.errors import NumericalInstability, SearchTimeout
from specind import optimize
from specind.bounds import Analysis, best_bounds, pwr_ratio
from specind.graphs import FamilySpec, generate
from specind.polys import MeshPolynomial, predistance_polynomials
from specind.optimize import (
    _facet_test,
    _family_size,
    _gale_even,
    _negative_sets,
    _sign_search,
    minor_polynomial,
    sign_polynomial,
)
from specind.spectra import Spectrum, exact_family_spectrum

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


# a candidate set is realized when scipy's max-margin LP gives it a margin
# above this, the threshold of the former max-margin LP kernel
MARGIN = 1e-7


def linprog_standard(A, b, c):
    """scipy's vertex of min c.x subject to Ax = b, x >= 0."""
    ref = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0, ref.message
    return ref.x


def scipy_lexicographic(A, b, objectives):
    """The lexicographic vertex by scipy's dual simplex, with no presolve
    and feasibility tolerances of 1e-10: each objective minimized with
    every earlier one pinned at its optimum by an equality row."""
    rows, rhs = [], []
    for c in objectives:
        ref = scipy_opt.linprog(c, A_eq=np.vstack([A, *rows]),
                                b_eq=np.concatenate([b, rhs]),
                                bounds=(0, None), method="highs-ds",
                                options={"presolve": False,
                                         "primal_feasibility_tolerance": 1e-10,
                                         "dual_feasibility_tolerance": 1e-10})
        assert ref.status == 0
        rows.append(c)
        rhs.append(ref.fun)
    return ref.x


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
    programs shared, solved by scipy.  min objective . x over
    x = (y_0..y_d, extra...) with lo <= y <= hi (hi = inf: no upper bound),
    extra >= 0, rows . x = rhs, and mesh values
    y = sum_{i in degrees} c_i p_i(theta) for free c_i.

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
    u = linprog_standard(A, b, c)
    return np.concatenate([lo + u[:d1], u[ext]])


def primal_max_margin(pd, k, neg):
    """Reference: the former primal max-margin LP, solved by scipy: max t
    with y_j <= -t on ``neg``, |y| <= 1 and y = P^T c in span(p_1..p_k),
    the rows of P scaled to max 1; returns (y, t).  ``neg`` is realized
    when t > MARGIN."""
    P = pd[1:k + 1]
    P = P / np.abs(P).max(axis=1, keepdims=True)
    box, margin = 2 * P.shape[1], len(neg)
    # rows over (c, t): y <= 1, -y <= 1, then y_j + t <= 0 on neg
    A = np.hstack([np.vstack([P.T, -P.T, P.T[list(neg)]]),
                   np.repeat([0.0, 1.0], [box, margin])[:, None]])
    res = scipy_opt.linprog(-np.eye(k + 1)[k], A_ub=A,
                            b_ub=np.repeat([1.0, 0.0], [box, margin]),
                            bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return P.T @ res.x[:k], res.x[k]


def unpruned_sign_reference(s, k, pd):
    """Reference: the search without conflicts, every candidate set decided
    by scipy's primal max-margin LP until the first realized one; returns
    (objective, b, sets visited)."""
    for visited, neg in enumerate(_negative_sets(s.mults, k), 1):
        if primal_max_margin(pd, k, neg)[1] > MARGIN:
            break
    else:
        neg = ()
    b = tuple(0 if j in neg else 1 for j in range(s.d + 1))
    return int(sum(m for m, bj in zip(s.mults, b) if bj)), b, visited


def test_pruned_search_matches_unpruned_reference(corpus_spectra):
    """Conflict pruning only skips sets the unpruned loop rejects, and the
    facet test decides every set it visits as scipy's max-margin LP does:
    on every corpus pair a report can reach (k < d, k <= pwr_level; Tutte
    k <= 3) the objective and b are the reference's, and every set the
    reference visits is either tested or skipped."""
    checked = tests = visited = 0
    for label, (_, s, _, reg) in corpus_spectra.items():
        pd = predistance_polynomials(s)
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            obj, b, ref_visited = unpruned_sign_reference(s, k, pd)
            sol = _sign_search(s, k)
            assert (sol.objective, sol.b) == (obj, b), (label, k)
            assert sol.facet_tests + sol.skipped == ref_visited, (label, k)
            tests += sol.facet_tests
            visited += ref_visited
            checked += 1
    assert checked == 163
    assert (tests, visited) == (739, 2465)


def test_vertex_rays_match_search(corpus_spectra, monkeypatch):
    """At k <= 3 ``sign_polynomial`` reads its negative set off the vertex
    rays, decides it with one facet test, and returns the search's
    objective, b and certificate bytes, with
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

    def record(s, k):
        fallbacks.append(k)
        return _sign_search(s, k)

    monkeypatch.setattr(optimize, "_sign_search", record)
    pairs = 0
    for label, s, level in spectra:
        for k in range(1, min(s.d, level + 1, 4)):
            want = _sign_search(s, k)
            sol = sign_polynomial(s, k)
            assert (sol.objective, sol.b) == (want.objective, want.b), (label, k)
            assert (sol.sign_mesh.values.tobytes()
                    == want.sign_mesh.values.tobytes()), (label, k)
            pairs += 1
    assert (pairs, len(fallbacks)) == (151, 0)


def test_vertex_rays_fall_back_to_search(corpus_spectra, monkeypatch):
    """The search answers, counters included, when a sign test on a ray is
    undecided (here every cosine, the band widened to (1e-12, 1]) and when
    the facet test leaves the ray set unrealized (here the whole mesh, on
    which no trace-zero polynomial is negative)."""
    checked = 0
    for label in ("odd:5", "flower-snark"):
        _, s, _, reg = corpus_spectra[label]
        for k in range(1, min(s.d, reg.pwr_level + 1, 4)):
            want = _sign_search(s, k)
            for name, value in (("_SURE", 1.0),
                                ("_vertex_ray_set",
                                 lambda P, mults: tuple(range(len(mults))))):
                monkeypatch.setattr(optimize, name, value)
                sol = sign_polynomial(s, k)
                monkeypatch.undo()
                assert (sol.objective, sol.b, sol.facet_tests, sol.skipped) == (
                    want.objective, want.b, want.facet_tests, want.skipped
                ), (label, k, name)
                assert (sol.sign_mesh.values.tobytes()
                        == want.sign_mesh.values.tobytes()), (label, k, name)
                checked += 1
    assert checked == 12


def test_undecided_band_at_each_sign_test_falls_back_to_search(
        corpus_spectra, monkeypatch):
    """A sign test that falls in the undecided band, wherever the vertex
    rays meet it (the norms of the cross products and their cosines at
    k = 3, a planar cosine at k = 2 or at a degenerate ray at k = 3),
    sends ``sign_polynomial`` to the search, whose answer it returns byte
    for byte, counters included: ``_decided`` answers False at its n-th
    call, n = 2, 3, 4, on gray, coxeter and nauru."""
    decided = optimize._decided
    sites = set()
    fired = 0
    for label in ("gray", "coxeter", "nauru"):
        s = corpus_spectra[label][1]
        for k in (2, 3):
            want = _sign_search(s, k)
            for n in (2, 3, 4):
                calls = []

                def undecided_at_n(a):
                    calls.append(None)
                    if len(calls) < n:
                        return decided(a)
                    caller = sys._getframe(1)
                    sites.add((caller.f_code.co_name, caller.f_lineno,
                               caller.f_back.f_code.co_name))
                    return False

                monkeypatch.setattr(optimize, "_decided", undecided_at_n)
                sol = sign_polynomial(s, k)
                monkeypatch.undo()
                assert (sol.objective, sol.b) == (want.objective, want.b), (label, k, n)
                assert (sol.sign_mesh.values.tobytes()
                        == want.sign_mesh.values.tobytes()), (label, k, n)
                if len(calls) >= n:
                    assert (sol.facet_tests, sol.skipped) == (
                        want.facet_tests, want.skipped), (label, k, n)
                    fired += 1
    assert fired == 12
    # both sign tests of _space_cells, and _plane_cells under _first_cell
    # (k = 2) and under _space_cells (a degenerate ray)
    assert len(sites) == 4
    assert {(name, up) for name, _, up in sites} == {
        ("_plane_cells", "_first_cell"), ("_plane_cells", "_space_cells"),
        ("_space_cells", "_first_cell")}


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


def recorded_facet_tests(monkeypatch):
    """A list that every ``_facet_test`` call appends (neg, (q, S)) to."""
    calls = []

    def record(s, neg, k):
        out = _facet_test(s, neg, k)
        calls.append((neg, out))
        return out

    monkeypatch.setattr(optimize, "_facet_test", record)
    return calls


def test_conflicts_are_gordan_certificates(corpus_spectra, monkeypatch):
    """Each stored conflict S has at most k+1 points, all in its set N, and
    carries positive weights w with sum_{x in S} w_x p_i(theta_x) =
    tr p_i(A) = n [i = 0] for i = 0..k, a quadrature of the trace on
    degree <= k (so no polynomial in span(p_1..p_k) is negative on all of
    S); every set the search skips is unrealizable: scipy's max-margin LP
    gives it margin <= 1e-7."""
    calls = recorded_facet_tests(monkeypatch)
    conflicts = skipped = 0
    worst = 0.0
    for label in ("petersen", "odd:5", "frucht", "flower-snark"):
        s = corpus_spectra[label][1]
        pd = predistance_polynomials(s)
        for k in range(1, s.d):
            calls.clear()
            sol = _sign_search(s, k)
            tested = {neg for neg, _ in calls}
            assert len(calls) == len(tested) == sol.facet_tests, (label, k)
            for neg, (q, S) in calls:
                if q is not None:
                    continue
                assert S is not None and 0 < len(S) <= k + 1, (label, k, neg)
                assert set(S.tolist()) <= set(neg), (label, k, neg)
                V = pd[:k + 1, S]
                w = np.linalg.lstsq(V, s.n * np.eye(k + 1)[0], rcond=None)[0]
                assert w.min() > 0, (label, k, neg)
                err = np.abs(V @ w - s.n * np.eye(k + 1)[0]).max() / s.n
                worst = max(worst, err)
                conflicts += 1
            neg, (q, _) = calls[-1]
            realized = neg if q is not None else None
            skips = []
            for neg in _negative_sets(s.mults, k):
                if neg == realized:
                    break
                if neg not in tested:
                    skips.append(neg)
            assert len(skips) == sol.skipped, (label, k)
            for neg in skips:
                assert primal_max_margin(pd, k, neg)[1] <= MARGIN, (label, k, neg)
            skipped += len(skips)
    assert (conflicts, skipped) == (75, 128)
    assert worst <= 1e-9, worst


def test_every_stored_conflict_is_unrealizable(corpus_spectra, monkeypatch):
    """On every corpus pair a report can reach (k < d, k <= pwr_level;
    Tutte k <= 3), no polynomial in span(p_1..p_k) is negative on all of
    any conflict S the search stores: scipy's max-margin LP gives each S
    margin <= 1e-7."""
    calls = recorded_facet_tests(monkeypatch)
    checked = 0
    for label, (_, s, _, reg) in corpus_spectra.items():
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            calls.clear()
            _sign_search(s, k)
            for neg, (q, S) in calls:
                if q is None:
                    assert S is not None, (label, k, neg)
                    t = primal_max_margin(s.predistance, k, S.tolist())[1]
                    assert t <= MARGIN, (label, k, neg, S)
                    checked += 1
    assert checked == 576


def test_facet_walk_matches_scored_family(corpus_spectra, monkeypatch):
    """The facet test gives the same verdict, conflict and certificate with
    the single-swap walk forced as with every vertex scored, on every set
    the search tests on the corpus pairs a report can reach (k < d,
    k <= pwr_level; Tutte k <= 3)."""
    calls = recorded_facet_tests(monkeypatch)
    sets = []
    for label, (_, s, _, reg) in corpus_spectra.items():
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            calls.clear()
            _sign_search(s, k)
            sets += [(label, s, k, neg) for neg, _ in calls if len(neg) > k]
    monkeypatch.undo()
    for label, s, k, neg in sets:
        out = []
        for size in (lambda d, k: np.inf, lambda d, k: 0):  # walk, then score all
            monkeypatch.setattr(optimize, "_family_size", size)
            out.append(_facet_test(s, neg, k))
            monkeypatch.undo()
        (q_walk, S_walk), (q_all, S_all) = out
        assert (q_walk is None) == (q_all is None), (label, k, neg)
        if q_walk is None:
            assert S_walk.tolist() == S_all.tolist(), (label, k, neg)
        else:
            assert q_walk.tobytes() == q_all.tobytes(), (label, k, neg)
    assert len(sets) == 717


def test_facet_test_on_few_points_with_trace_zero_omega():
    """|N| <= k with tr omega_N(A) = 0, omega_N = prod_{j in N} (x - theta_j),
    so the facet test reads N's Lagrange weights: on the first spectrum one
    is negative and its basis polynomial realizes N (q >= 0 on N,
    tr q(A) = -3; scipy's max-margin LP gives N a positive margin), on the
    second all are >= 0 and the nodes of positive weight, a positive
    quadrature of the trace on degree <= k, are the conflict (margin 0)."""
    N, k = (1, 3, 4), 3
    s = Spectrum(np.array([4.0, 2, 1, 0, -1]), np.array([1, 1, 20, 1, 1]))
    omega = np.prod(s.distinct[:, None] - s.distinct[list(N)], axis=1)
    assert s.trace(omega) == 0
    q, S = _facet_test(s, N, k)
    assert S is None and (q[list(N)] >= 0).all()
    assert s.trace(q) == pytest.approx(-3.0, abs=1e-12)
    assert primal_max_margin(predistance_polynomials(s), k, N)[1] > MARGIN

    s = Spectrum(np.array([6.0, 5, 4, 3, 2]), np.array([1, 1, 6, 1, 1]))
    omega = np.prod(s.distinct[:, None] - s.distinct[list(N)], axis=1)
    assert s.trace(omega) == 0
    q, S = _facet_test(s, N, k)
    assert q is None and S.tolist() == [1, 3]
    pd = predistance_polynomials(s)
    V = pd[:k + 1, S]
    w = np.linalg.lstsq(V, s.n * np.eye(k + 1)[0], rcond=None)[0]
    assert w.min() > 0
    assert np.abs(V @ w - s.n * np.eye(k + 1)[0]).max() <= 1e-9 * s.n
    assert primal_max_margin(pd, k, N)[1] <= MARGIN


def test_lagrange_basis_is_exact_at_its_nodes():
    """Each column of ``_lagrange`` is exactly 1 at its node and 0 at the
    other nodes, the columns sum to 1 on the mesh, and a single node's
    basis is the constant 1."""
    s = odd_spectrum(6)
    for nodes in ([0], [1, 4], [0, 2, 3, 5], list(range(6))):
        L = optimize._lagrange(s.distinct, np.array(nodes))
        assert (L[nodes] == np.eye(len(nodes))).all(), nodes
        assert np.abs(L.sum(axis=1) - 1.0).max() <= 1e-12, nodes


def test_sign_failure_is_an_inapplicable_row(corpus_spectra, monkeypatch):
    """A package error in the sign layer leaves the pwr_inertia row
    inapplicable with a reason that names it, and every other row as it
    is."""
    g = corpus_spectra["petersen"][0]

    def others(rows):
        return [(r.method, r.value, r.applicable, r.reason) for r in rows
                if r.method != "pwr_inertia"]

    want = others(best_bounds(g, 1))

    def unstable(*args):
        raise NumericalInstability("indicator constraint violated by certificate")

    monkeypatch.setattr(optimize, "_facet_test", unstable)
    rows = best_bounds(g, 1)
    inertia = [(r.applicable, r.reason) for r in rows if r.method == "pwr_inertia"]
    assert inertia == [(False, "sign search failed: indicator constraint "
                               "violated by certificate")]
    assert others(rows) == want


def test_skipped_sets_count_against_the_budget(corpus_spectra, monkeypatch):
    """The search counts every candidate against SIGN_BUDGET, skipped ones
    included.  On Tutte k = 3 it runs 60 facet tests and skips 1084 sets: a
    budget of 1143 sets runs out at the 1144th candidate, the realized one,
    long after the 60th test, and 1144 sets are enough.  The vertex rays of
    ``sign_polynomial`` count nothing: with no budget at all, its one facet
    test answers."""
    s = corpus_spectra["tutte"][1]
    for budget, counts in ((1143, None), (1144, (60, 1084, 10))):
        monkeypatch.setattr(optimize, "SIGN_BUDGET", budget)
        if counts is None:
            with pytest.raises(SearchTimeout, match="tried 1143 candidate sets"):
                _sign_search(s, 3)
        else:
            sol = _sign_search(s, 3)
            assert (sol.facet_tests, sol.skipped, sol.objective) == counts
    monkeypatch.setattr(optimize, "SIGN_BUDGET", 0)
    sol = sign_polynomial(s, 3)
    assert (sol.facet_tests, sol.skipped, sol.objective) == (1, 0, 10)


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
            want = pinned_minor_reference(s, k)
            got = minor_polynomial(s, k).values
            assert np.abs(got - want).max() <= 1e-9, (label, k)
            checked += 1
    assert checked == 210  # the reference solves every such pair


def lp_minor_reference(s, k):
    """Reference: the former ``minor_polynomial``, the lexicographic LP in
    the predistance basis, solved by scipy with each objective pinned at
    its optimum in turn; returns its mesh values.

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
    u = scipy_lexicographic(A, b, np.pad(objectives, ((0, 0), (0, nc + 1))))
    y = u[:d1]
    y[0] += 1.0
    y[np.abs(y) < 1e-11] = 0.0
    return y


def test_minor_closed_form_matches_scipy_lexicographic_lp(corpus_spectra):
    """The closed form has the zero set of the former lexicographic LP
    (``lp_minor_reference``, solved by scipy), and its values within 1e-9,
    on every corpus pair (k = 1..d, Tutte's 30 included) but Tutte's
    k = 26, 28 and 29; everywhere the closed-form trace exceeds the LP's by
    at most 1e-9 relative.  At k = 26 several vertices have traces within
    1e-9 relative of the least, and the LP stops at another of them than
    ``_lexmin``, which ties values: its vertex is Gale-even, and
    ``_lexmin`` ranks the closed form first.  At k = 28 and 29 the rows of
    degree 28 and 29 (d = 30) lie past the solver's tolerances: its
    vertex has 27 and 30 zeros, not k, so it has no zero set to compare."""
    checked, ties, off = 0, [], []
    for label, (_, s, _, _) in corpus_spectra.items():
        for k in range(1, s.d + 1):
            got = minor_polynomial(s, k).values
            want = lp_minor_reference(s, k)
            assert s.trace(got) <= s.trace(want) * (1 + 1e-9), (label, k)
            checked += 1
            if (want[1:] == 0).sum() != k:
                off.append((label, k))
                continue
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
    assert ties == [("tutte", 26)]
    assert off == [("tutte", 28), ("tutte", 29)]


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

