"""LP solver and the two programs: simplex correctness against an
independent solver, the minor-polynomial LP, and the sign-polynomial search,
each checked against scipy solving the divided-difference mesh formulation."""

from itertools import product
from math import comb

import numpy as np
import pytest

from specind.errors import Infeasible, Unbounded
from specind.graphs import FamilySpec
from specind.optimize import (
    LinearProgram,
    _negative_sets,
    dump_lp,
    minor_polynomial,
    minor_trace,
    sign_polynomial,
    solve_lp,
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


def scipy_solve(lp: LinearProgram):
    """Independent reference solution of the same LP via scipy."""
    A = np.array([row for row, _ in lp.eq_constraints], dtype=float)
    b = np.array([rhs for _, rhs in lp.eq_constraints], dtype=float)
    bounds = lp.bounds if lp.bounds else [(0.0, None)] * lp.num_vars()
    res = scipy_opt.linprog(lp.objective, A_eq=A, b_eq=b, bounds=bounds,
                            method="highs")
    return res


def test_simplex_vs_scipy_random_lps():
    rng = np.random.default_rng(11)
    for trial in range(25):
        nv, ne = 6, 3
        rows = rng.normal(size=(ne, nv))
        x0 = rng.uniform(0.5, 2.0, size=nv)  # feasible interior point
        lp = LinearProgram(
            objective=rng.normal(size=nv),
            eq_constraints=[(rows[i], float(rows[i] @ x0)) for i in range(ne)],
            bounds=[(0.0, 10.0)] * nv,
        )
        ref = scipy_solve(lp)
        assert ref.status == 0
        _, obj, _ = solve_lp(lp)
        assert obj == pytest.approx(ref.fun, abs=1e-7), trial


def test_simplex_free_variables():
    # min x + y  s.t.  x - y = 3, x free in [-10, 10], y free
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        eq_constraints=[(np.array([1.0, -1.0]), 3.0)],
        bounds=[(-10.0, 10.0), (None, None)],
    )
    x, obj, _ = solve_lp(lp)
    ref = scipy_solve(lp)
    assert obj == pytest.approx(ref.fun, abs=1e-8)


def test_simplex_infeasible():
    lp = LinearProgram(
        objective=np.array([1.0]),
        eq_constraints=[(np.array([1.0]), -5.0)],
        bounds=[(0.0, None)],
    )
    with pytest.raises(Infeasible):
        solve_lp(lp)


def test_simplex_unbounded():
    lp = LinearProgram(
        objective=np.array([-1.0, 0.0]),
        eq_constraints=[(np.array([0.0, 1.0]), 1.0)],
        bounds=[(0.0, None), (0.0, None)],
    )
    with pytest.raises(Unbounded):
        solve_lp(lp)


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


def test_minor_polynomial_vs_scipy_oracle():
    """Same LP solved by scipy: the optimal objective must agree."""
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


def test_dump_lp_format():
    lp = LinearProgram(
        objective=np.array([1.0, 2.0]),
        eq_constraints=[(np.array([1.0, -1.0]), 3.0)],
        bounds=[(0.0, None), (None, None)],
    )
    text = dump_lp(lp)
    lines = text.strip().splitlines()
    assert lines[0].startswith("minimize ")
    assert lines[1].startswith("eq ") and lines[1].endswith("= 3")
    assert lines[2] == "bounds 0 inf"
    assert lines[3] == "bounds -inf inf"
