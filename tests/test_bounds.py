"""Bound implementations: classic, general-polynomial, multiplicity-form,
(d-1) bounds, predistance-driven bounds, and the aggregator."""

import math

import numpy as np
import pytest
from conftest import circulant_classes, load_fixture

from specind import bounds, exact, spectra
from specind.bounds import (
    BoundReport,
    alpha2_bound,
    alpha3_bound,
    best_bounds,
    cvetkovic_bound,
    dminus1_bounds,
    hoffman_bound,
    minimum_floor,
    minor_to_sign,
    pd_ratio_bound,
    pwr_inertia,
    pwr_ratio,
    qk_bounds,
    reports_to_csv,
)
from specind.ch import ch_classify, spectral_excess
from specind.errors import BadNormalization, TraceNotZero
from specind.exact import alpha_k_exact
from specind.graphs import FamilySpec, distance_matrix, from_adjacency, generate
from specind.optimize import _sign_search, minor_polynomial, sign_polynomial
from specind.polys import MeshPolynomial, mesh_to_coeffs
from specind.spectra import (
    classify_regularity,
    exact_family_spectrum,
    group_eigenvalues,
    spectrum,
    srg_raw_spectrum,
)


def odd_spectrum(ell):
    return exact_family_spectrum(FamilySpec.parse(f"odd:{ell}"))


# ---------------------------------------------------------------------------
# Classic bounds


def test_cvetkovic_known():
    pet = group_eigenvalues([3.0] + [1.0] * 5 + [-2.0] * 4)
    assert cvetkovic_bound(pet).value == 4
    hs = group_eigenvalues(srg_raw_spectrum(50, 7, 0, 1))
    assert cvetkovic_bound(hs).value == 21
    kn = group_eigenvalues([5.0] + [-1.0] * 5)  # K_6
    assert cvetkovic_bound(kn).value == 1


def test_cvetkovic_zeros_count_both_sides():
    s = group_eigenvalues([2.0, 0.0, 0.0, -2.0])
    assert cvetkovic_bound(s).value == 3  # zeros join both counts


def test_hoffman_known():
    assert hoffman_bound(10, 3, -2).value == pytest.approx(4.0)
    assert hoffman_bound(16, 5, -3).value == pytest.approx(6.0)
    c5 = hoffman_bound(5, 2, 2 * math.cos(4 * math.pi / 5))
    assert c5.value == pytest.approx(2.236, abs=1e-3)
    assert c5.floor_value == 2


# ---------------------------------------------------------------------------
# General-polynomial bounds in coefficient form


def test_general_bounds_on_o6_milp_lp():
    """The O_6 k = 4 sign and minor certificates, in coefficient form, give
    11 through the general inertia and ratio bounds (Abiad, Coutinho and
    Fiol 2019), with w(p), W(p) the extreme entries of diag p(A), here a sum
    of matrix-power diagonals, and p on the eigenvalues by polyval."""
    g = generate(FamilySpec.parse("odd:6"))
    s = spectrum(g)
    a = g.adjacency.astype(float)
    eigenvalues = np.linalg.eigvalsh(a)[::-1]

    def diagonal_and_values(p):
        diag = sum(c * np.diag(np.linalg.matrix_power(a, i))
                   for i, c in enumerate(p))
        return diag, np.polynomial.polynomial.polyval(eigenvalues, p)

    diag, vals = diagonal_and_values(
        mesh_to_coeffs(sign_polynomial(s, 4).sign_mesh))
    tol = 1e-9 * max(1.0, np.abs(vals).max())
    assert min(np.sum(vals >= diag.min() - tol),
               np.sum(vals <= diag.max() + tol)) == 11
    diag, vals = diagonal_and_values(mesh_to_coeffs(minor_polynomial(s, 4)))
    lam = vals[1:].min()
    assert (g.n * (diag.max() - lam) / (vals[0] - lam)
            == pytest.approx(11.0, abs=1e-6))


def test_ratio_general_higman_sims_p_x():
    # strongly regular spectrum only; build any graph? use pwr-style check on
    # the raw spectrum via the hoffman form instead
    raw = srg_raw_spectrum(100, 22, 0, 6)
    rep = hoffman_bound(100, float(raw[0]), float(raw[-1]))
    assert rep.value == pytest.approx(800.0 / 30.0, abs=1e-9)
    assert rep.floor_value == 26


# ---------------------------------------------------------------------------
# Multiplicity-form bounds


def test_pwr_inertia_o6():
    s = odd_spectrum(6)
    sp = MeshPolynomial(s.distinct, np.array([41.0, -1, -1, -1, -1, 41]))
    assert pwr_inertia(s, sp, 4).value == 11


def test_pwr_inertia_sign_freedom_petersen():
    s = exact_family_spectrum(FamilySpec.parse("petersen"))
    # s = x shifted to trace zero: trace(m . theta) = 0 already for x
    sp = MeshPolynomial(s.distinct, s.distinct.copy())
    up = pwr_inertia(s, sp, 1).value
    sp_neg = MeshPolynomial(s.distinct, -s.distinct)
    down = pwr_inertia(s, sp_neg, 1).value
    assert {up, down} == {6.0, 4.0}
    assert min(up, down) == 4.0


def test_pwr_inertia_trace_check():
    s = exact_family_spectrum(FamilySpec.parse("petersen"))
    bad = MeshPolynomial(s.distinct, np.ones(3))
    with pytest.raises(TraceNotZero):
        pwr_inertia(s, bad, 1)


@pytest.mark.parametrize("label,k,want", [
    ("flower-snark", 1, 10), ("flower-snark", 2, 7), ("hypercube:7", 6, 2),
])
def test_pwr_inertia_applicable_on_large_mesh_spread(corpus_spectra, label, k, want):
    """Instances the big-M sign program lost to numerical trouble."""
    g, s, dm, reg = corpus_spectra[label]
    [rep] = [r for r in best_bounds(g, k, s=s, dm=dm, reg=reg)
             if r.method == "pwr_inertia"]
    assert rep.applicable, rep.reason
    assert rep.floor_value == want


def test_pwr_programs_on_tutte(corpus_spectra, soundness_results):
    """d = 30: both programs solve in the predistance basis, and each ratio
    floor and sign objective is at least alpha_k = 19, 10, 6 (Tutte graph,
    k = 1, 2, 3); the k = 3 sign search (1144 candidate sets, 1084 of them
    skipped by conflict pruning, 60 facet tests) is far inside SIGN_BUDGET,
    and the vertex rays give its answer with one facet test, so the sweep
    checks its floor."""
    _, s, _, _ = corpus_spectra["tutte"]
    for k, floor, sign, alpha, tests, skipped in [(1, 21, 21, 19, 27, 0),
                                                  (2, 11, 13, 10, 37, 231),
                                                  (3, 7, 10, 6, 60, 1084)]:
        rep = pwr_ratio(s, minor_polynomial(s, k), k)
        assert rep.applicable and rep.floor_value == floor >= alpha, k
        sol = sign_polynomial(s, k)
        assert (sol.objective, sol.facet_tests, sol.skipped) == (sign, 1, 0), k
        assert sign >= alpha, k
        ref = _sign_search(s, k)
        assert (ref.objective, ref.b) == (sol.objective, sol.b), k
        assert (ref.facet_tests, ref.skipped) == (tests, skipped), k
    checked, _ = soundness_results
    assert ("tutte", 3, "pwr_inertia", 10, 6) in checked


@pytest.mark.parametrize("seed", range(8))
def test_sign_polynomial_flower_snark_relabelled(seed):
    """The sign optimum is a graph invariant: the same under the vertex
    relabellings the benchmark applies (one default_rng(seed) permutation)."""
    g = load_fixture("flower-snark")
    perm = np.random.default_rng(seed).permutation(g.n)
    s = spectrum(from_adjacency(g.adjacency[np.ix_(perm, perm)]))
    assert [sign_polynomial(s, k).objective for k in (1, 2, 3)] == [10, 7, 3]


def test_pwr_ratio_known():
    s5 = odd_spectrum(5)
    assert pwr_ratio(s5, minor_polynomial(s5, 2), 2).value == pytest.approx(13.5)
    s6 = odd_spectrum(6)
    assert pwr_ratio(s6, minor_polynomial(s6, 4), 4).value == pytest.approx(11.0)


def test_pwr_ratio_hoffman_polynomial_returns_one():
    s = odd_spectrum(5)
    vals = np.zeros(s.d + 1)
    vals[0] = 1.0
    assert pwr_ratio(s, MeshPolynomial(s.distinct, vals), s.d).value == 1.0


def test_pwr_ratio_normalization_check():
    s = odd_spectrum(5)
    vals = np.full(s.d + 1, 0.5)
    with pytest.raises(BadNormalization):
        pwr_ratio(s, MeshPolynomial(s.distinct, vals), 2)


def test_bipartite_sign_x_gives_half():
    # regular bipartite graph with symmetric spectrum: s = x has zero trace
    # and the inertia count on either side is n/2
    s = spectrum(generate(FamilySpec.parse("hypercube:3")))
    sp = MeshPolynomial(s.distinct, s.distinct.copy())
    assert pwr_inertia(s, sp, 1).value == 4  # = n/2
    assert cvetkovic_bound(s).value == 4


# ---------------------------------------------------------------------------
# Sign <-> minor polynomial transforms


def test_transform_round_trip(corpus_spectra):
    for label in ["petersen", "odd:5", "hypercube:4"]:
        _, s, _, _ = corpus_spectra[label]
        f = minor_polynomial(s, min(2, s.d - 1) or 1)
        sp = minor_to_sign(f, s)
        # zero trace by construction
        assert abs(float(np.dot(s.mults, sp.values))) < 1e-9 * s.n
        # s = (n / tr f(A)) f - 1, so 1 + s(theta_0) = n / tr f(A)
        assert 1.0 + sp.values[0] == pytest.approx(s.n / s.trace(f.values),
                                                   rel=1e-9), label


# ---------------------------------------------------------------------------
# Closed-form alpha_2 / alpha_3


def test_alpha2_known():
    assert alpha2_bound(odd_spectrum(5)).value == pytest.approx(13.5)
    assert alpha2_bound(odd_spectrum(6)).value == pytest.approx(66.0)
    s = exact_family_spectrum(FamilySpec.parse("petersen"))
    assert alpha2_bound(s).value == pytest.approx(1.0)


def test_alpha3_known():
    assert alpha3_bound(odd_spectrum(5), 0.0).value == pytest.approx(8.5)
    assert alpha3_bound(odd_spectrum(6), 0.0).value == pytest.approx(21.0)


def test_alpha3_girth_delta_zero(corpus_spectra):
    """Triangle-free graphs have diag(A^3) = 0, so delta must be 0."""
    for label in ["petersen", "hypercube:4", "odd:5", "nauru"]:
        g, _, _, _ = corpus_spectra[label]
        a = g.adjacency.astype(float)
        assert not np.diag(np.linalg.matrix_power(a, 3)).any(), label


def test_minor_lp_beats_every_closed_form(corpus_spectra):
    """Each closed form is the trace of one feasible minor polynomial
    (Hoffman at k = 1, MP2 and MP3 at k = 2 and 3, the single-nonzero
    polynomial at k = d - 1), so the minor LP's trace is never larger."""
    compared = 0
    for label, (g, s, _, reg) in corpus_spectra.items():
        if not reg.is_regular:
            continue
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            lp = pwr_ratio(s, minor_polynomial(s, k), k).value
            closed = []
            if k == 1:
                closed.append(hoffman_bound(g.n, float(s.distinct[0]),
                                            float(s.distinct[-1])))
            if k == 2:
                closed.append(alpha2_bound(s))
            if k == 3:
                closed.append(alpha3_bound(s, float(reg.closed_walks[2])))
            if k == s.d - 1:
                closed += [r for r in dminus1_bounds(s)
                           if r.reason == "min over odd indices"]
            for rep in closed:
                if rep.applicable:
                    compared += 1
                    assert lp <= rep.value + 1e-9 * max(1.0, rep.value), (
                        label, k, rep.method, lp, rep.value)
    assert compared > 100


# ---------------------------------------------------------------------------
# (d-1) bounds


def test_dminus1_o6():
    s = odd_spectrum(6)
    reps = dminus1_bounds(s)
    best = min(r.floor_value for r in reps if r.applicable)
    assert best == 11


def test_dminus1_o5():
    s = odd_spectrum(5)
    reps = dminus1_bounds(s)
    best = min(r.floor_value for r in reps if r.applicable)
    assert best == 8  # m(theta_4) = 8 via the i=d specialization (d = 4 even)
    even_vals = [r.value for r in reps
                 if r.applicable and r.method == "dminus1_inertia_even"]
    assert 8.0 in even_vals


def test_dminus1_petersen():
    s = exact_family_spectrum(FamilySpec.parse("petersen"))
    reps = dminus1_bounds(s)
    best = min(r.floor_value for r in reps if r.applicable)
    assert best == 4


def test_odd_even_ell_coincidence():
    """For odd graphs with even ell the odd-index inertia and ratio bounds
    coincide at the index with pi_j = pi_0, and
    m(mu_1)/m(mu_2) = pi(mu_2)/pi_0."""
    for ell in (4, 6):
        s = odd_spectrum(ell)
        pi = s.pi
        # mu_1 = -(ell-1) is theta_d; mu_2 = ell-2 is theta_1
        assert pi[s.d] == pytest.approx(pi[0], rel=1e-9)
        lhs = s.mults[s.d] / s.mults[1]
        assert lhs == pytest.approx(pi[1] / pi[0], rel=1e-9)


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7, 8])
def test_prop_44_best_dminus1_on_odd(ell):
    """Best (d-1) bound on odd(ell): 2d for even d, 2d+1 for odd d."""
    s = odd_spectrum(ell)
    d = s.d
    reps = dminus1_bounds(s)
    best = min(r.value for r in reps if r.applicable)
    want = 2 * d if d % 2 == 0 else 2 * d + 1
    assert best == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("ell,want", [(5, 8.5), (6, 11.0)])
def test_prop_45_value(ell, want):
    """1 + m(mu_2) pi(mu_2)/pi_0 = 2d + (d-2)/d for even d, 2d+1 for odd d."""
    s = odd_spectrum(ell)
    pi = s.pi
    val = 1 + s.mults[1] * pi[1] / pi[0]  # mu_2 = theta_1
    assert val == pytest.approx(want, rel=1e-9)
    d = s.d
    formula = 2 * d + (d - 2) / d if d % 2 == 0 else 2 * d + 1
    assert val == pytest.approx(formula, rel=1e-9)


# ---------------------------------------------------------------------------
# Predistance-driven bounds


def test_qk_bounds_table_values(corpus_spectra):
    for label, k, want in [("hoffman", 2, 2), ("nauru", 2, 6),
                           ("frucht", 2, 3), ("durer", 2, 3),
                           ("moebius-kantor", 2, 4)]:
        g, s, _, _ = corpus_spectra[label]
        _, ratio = qk_bounds(s, k)
        assert ratio.applicable, label
        assert ratio.floor_value == want, label


def test_qk_k1_matches_classics_on_regular(corpus_spectra):
    """q'_1 = p_1 = x (up to scale) on regular graphs, so the q'_k bounds at
    k = 1 match the classic pair."""
    for label in ["petersen", "cycle:9", "hypercube:4"]:
        g, s, _, _ = corpus_spectra[label]
        rep_i, rep_r = qk_bounds(s, 1)
        assert rep_i.value == cvetkovic_bound(s).value
        want = hoffman_bound(g.n, float(s.distinct[0]), float(s.distinct[-1])).value
        assert rep_r.value == pytest.approx(want, rel=1e-9)


def test_qk_bounds_needs_k_from_1_to_d(corpus_spectra):
    """q'_k sums rows 1..k of the (d+1)-row table: k = 0 or k > d raises
    ValueError instead of summing fewer rows."""
    s = corpus_spectra["petersen"][1]
    for k in (-1, 0, s.d + 1):
        with pytest.raises(ValueError):
            qk_bounds(s, k)
    assert qk_bounds(s, s.d)[0].applicable


def test_qk_bounds_on_cycle_101_meshes():
    """On C_101 (d = 50, alpha_k = floor(101 / (k + 1))) the q'_k floors are
    the same on the closed-form mesh and on the intersection-array mesh that
    ``bounds --family cycle:101`` reads, for k = 1..49, and each is >=
    alpha_k; qk_inertia is 23, 23, 29, 31, 29, 35 at k = 20, 30, 40, 45, 48,
    49.  Rows orthogonalized from the monomials x^i gave floor 1 at k = 48
    and 49 on the closed-form mesh."""
    spec = FamilySpec.parse("cycle:101")
    meshes = (exact_family_spectrum(spec), bounds.Analysis(generate(spec)).s)
    for k in range(1, 50):
        floors = [[r.floor_value for r in qk_bounds(s, k)] for s in meshes]
        assert floors[0] == floors[1], k
        assert min(floors[0]) >= 101 // (k + 1), k
    inertia = [qk_bounds(meshes[1], k)[0].value for k in (20, 30, 40, 45, 48, 49)]
    assert inertia == [23, 23, 29, 31, 29, 35]


def test_pwr_inertia_on_cycle_61():
    """On C_61 (d = 30) the sign polynomial's inertia bound is alpha_k =
    floor(61 / (k + 1)) at every k = 8..29.  The former max-margin LP broke
    down at k = 25, 26 and 29, and on rows orthogonalized from the
    monomials also at k = 15, 16, 18 and 27."""
    a = bounds.Analysis(generate(FamilySpec.parse("cycle:61")))
    for k in range(8, 30):
        rep, = [r for r in best_bounds(a, k) if r.method == "pwr_inertia"]
        assert rep.applicable, (k, rep.reason)
        assert rep.floor_value == 61 // (k + 1), k


def test_pwr_inertia_on_cycle_101():
    """On C_101 (d = 50) the sign polynomial's inertia bound is alpha_k =
    floor(101 / (k + 1)) = 4, 2 and 2 at k = 20, 33 and 49, where the former
    max-margin LP broke down."""
    a = bounds.Analysis(generate(FamilySpec.parse("cycle:101")))
    for k, alpha in ((20, 4), (33, 2), (49, 2)):
        rep, = [r for r in best_bounds(a, k) if r.method == "pwr_inertia"]
        assert rep.applicable, (k, rep.reason)
        assert rep.floor_value == alpha == 101 // (k + 1), k


def test_pwr_inertia_k1_is_cvetkovic(corpus_analyses):
    """At k = 1, p_1 is a multiple of x (tr A = 0), so the sign polynomials
    are +-x and pwr_inertia is min(n_0 + n_+, n_0 + n_-), the Cvetkovic
    bound, on every corpus graph with diameter >= 2."""
    checked = 0
    for label, a in corpus_analyses.items():
        if a.dm.diameter < 2:
            continue
        value = {r.method: r.value for r in best_bounds(a, 1) if r.applicable}
        assert value["pwr_inertia"] == value["cvetkovic"], label
        checked += 1
    assert checked == 54


def test_certificates_rederive_their_values(corpus_analyses):
    """Every applicable pwr_inertia, qk_inertia and pwr_ratio row on the
    corpus carries its polynomial's values on s.distinct, and those values
    give the printed value exactly: the sign counts for the inertia rows,
    the trace for pwr_ratio.  The qk_inertia certificate is q'_k itself, and
    every certificate serializes as {"mesh", "values"} of one length."""
    checked = dict.fromkeys(("pwr_inertia", "qk_inertia", "pwr_ratio"), 0)
    for label, a in corpus_analyses.items():
        s = a.s
        for k in range(1, a.dm.diameter):
            for r in best_bounds(a, k):
                if not r.applicable or r.method not in checked:
                    continue
                p = r.certificate
                assert isinstance(p, MeshPolynomial), (label, k, r.method)
                assert p.mesh.tobytes() == s.distinct.tobytes(), (label, k)
                if r.method == "pwr_ratio":
                    assert r.value == s.trace(p.values), (label, k)
                else:
                    counts = bounds._sign_counts(s.mults, p.values)
                    want = counts[0] if r.method == "pwr_inertia" else min(counts)
                    assert r.value == float(want), (label, k, r.method)
                if r.method == "qk_inertia":
                    qk = s.predistance[1:k + 1].sum(axis=0)
                    assert p.values.tobytes() == qk.tobytes(), (label, k)
                cert = r.to_json_dict()["certificate"]
                assert set(cert) == {"mesh", "values"}, (label, k)
                assert len(cert["mesh"]) == len(cert["values"]), (label, k)
                checked[r.method] += 1
    assert checked == {"pwr_inertia": 132, "qk_inertia": 132, "pwr_ratio": 131}


def test_pd_ratio_examples(corpus_spectra):
    _, s, _, _ = corpus_spectra["hypercube:3"]
    rep = pd_ratio_bound(s)
    assert rep.value == pytest.approx(2.0, abs=1e-9)
    _, s, _, _ = corpus_spectra["petersen"]
    rep = pd_ratio_bound(s)
    assert rep.value >= 4.0  # upper bound on alpha_1 = 4


def test_pd_ratio_guard_d1():
    s = exact_family_spectrum(FamilySpec.parse("complete:3"))
    rep = pd_ratio_bound(s)
    assert not rep.applicable


def test_pd_from_pi_is_chebyshev_on_cycle_101():
    """Odd cycles have p_i = 2 T_i(x / 2) for i >= 1, so the p_d that
    ``Spectrum.p_d`` reads off pi is 2 T_50(x / 2) on C_101's mesh."""
    s = exact_family_spectrum(FamilySpec.parse("cycle:101"))
    want = 2 * np.polynomial.chebyshev.chebval(s.distinct / 2, np.eye(51)[50])
    assert np.abs(s.p_d - want).max() <= 1e-12


@pytest.mark.parametrize("spec,k", [("cycle:61", 29), ("cycle:101", 49)])
def test_pd_ratio_on_long_cycles(spec, k):
    """On the cycle C_{2d+1}, p_d(theta_0) = 2 and the p_d ratio bound is
    1 + p_d(theta_0) = 3, on the spectrum ``bounds`` computes; d = 30 and 50
    are past the degree (~22) where rows orthogonalized from the monomials
    lose their degree."""
    s = bounds.Analysis(generate(FamilySpec.parse(spec))).s
    rep = pd_ratio_bound(s)
    assert rep.k == k
    assert rep.value == pytest.approx(3.0, abs=1e-9)


def test_pd_ratio_is_one_plus_spectral_excess(corpus_spectra):
    """Where the reason says Lambda(p_d) = p_d(theta_0), the bound
    n (1 + Lambda) / (n + Lambda - p_d(theta_0)) is one more than the
    spectral excess p_d(theta_0)."""
    spectra = [s for _, s, _, _ in corpus_spectra.values() if s.d >= 2]
    spectra += [bounds.Analysis(generate(FamilySpec.parse(spec))).s
                for spec in ("cycle:61", "cycle:101")]
    attained = 0
    for s in spectra:
        rep = pd_ratio_bound(s)
        if rep.reason.startswith("bound = 1 + p_d(theta_0)"):
            assert rep.value == pytest.approx(1.0 + spectral_excess(s),
                                              rel=1e-9), s.distinct
            attained += 1
    assert attained == 37  # 35 corpus graphs and both cycles


# ---------------------------------------------------------------------------
# Aggregator


def test_best_bounds_petersen():
    g = generate(FamilySpec.parse("petersen"))
    reps = best_bounds(g, 1)
    assert minimum_floor(reps) == 4


def test_best_bounds_o6_k4():
    g = generate(FamilySpec.parse("odd:6"))
    reps = best_bounds(g, 4)
    assert minimum_floor(reps) == 11


def test_best_bounds_trivial_k_ge_diameter():
    # prism:5 has diameter 3 < d = 5: at k = d - 1 = 4 the (d-1) bounds do
    # not run, because best_bounds already answers trivially
    prism = generate(FamilySpec.parse("prism:5"))
    assert spectrum(prism).d == 5
    for g, k in [(generate(FamilySpec.parse("petersen")), 5), (prism, 4)]:
        reps = best_bounds(g, k)
        assert len(reps) == 1 and reps[0].method == "trivial", g.label
        assert minimum_floor(reps) == 1


def test_best_bounds_irregular_has_no_ratio():
    g = generate(FamilySpec.parse("complete_bipartite:3,4"))
    reps = best_bounds(g, 1)
    for r in reps:
        if r.method in ("hoffman", "pwr_ratio", "qk_ratio"):
            assert not r.applicable, r.method
    # k = 1 = d - 1, but the graph is not walk-regular
    assert not any(r.method.startswith("dminus1_") or r.method == "pd_ratio"
                   for r in reps)
    # inertia-type bounds still present and sound (alpha_1 = 4)
    assert minimum_floor(reps) >= 4


def test_best_bounds_deterministic():
    g = generate(FamilySpec.parse("odd:4"))
    a = reports_to_csv(best_bounds(g, 2))
    b = reports_to_csv(best_bounds(g, 2))
    assert a == b


def _seeded_only(*args, **kwargs):
    raise AssertionError("a keyword-seeded value was computed again")


@pytest.mark.parametrize("label", ["petersen", "odd:4", "frucht"])
def test_keyword_forms_match_analysis(corpus_analyses, monkeypatch, label):
    """The keyword forms benchmark code calls, best_bounds(g, k, s=, dm=,
    reg=), ch_classify(g, k, s=, timeout=) and alpha_k_exact(g, k, dm=,
    timeout=), use the values they are given and report what the graph's
    Analysis does."""
    a = corpus_analyses[label]
    g = a.g
    s = spectrum(g)
    dm = distance_matrix(g)
    reg = classify_regularity(g, s, dm)
    ks = range(1, dm.diameter + 1)
    ch_ks = range(1, min(reg.pwr_level, s.d - 1) + 1)
    want_bounds = [reports_to_csv(best_bounds(a, k)) for k in ks]
    want_exact = [alpha_k_exact(g, k) for k in ks]
    want_ch = [ch_classify(a, k) for k in ch_ks]
    assert ch_ks, label
    for name in ("spectrum", "distance_matrix", "intersection_array",
                 "walk_ladder"):
        monkeypatch.setattr(spectra, name, _seeded_only)
    monkeypatch.setattr(exact, "distance_matrix", _seeded_only)
    for k, want, want_x in zip(ks, want_bounds, want_exact):
        got = best_bounds(g, k, s=s, dm=dm, reg=reg)
        assert reports_to_csv(got) == want, (label, k)
        got_x = alpha_k_exact(g, k, dm=dm, timeout=60.0)
        assert (got_x.alpha_k, got_x.witness) == (want_x.alpha_k,
                                                  want_x.witness), (label, k)
    monkeypatch.undo()
    monkeypatch.setattr(spectra, "spectrum", _seeded_only)
    for k, want in zip(ch_ks, want_ch):
        assert ch_classify(g, k, s=s, timeout=60.0) == want, (label, k)


def test_reports_serialization():
    g = generate(FamilySpec.parse("petersen"))
    reps = best_bounds(g, 1)
    reps.append(BoundReport("exact", 1, float(alpha_k_exact(g, 1).alpha_k)))
    csv = reports_to_csv(reps)
    assert csv.splitlines()[0] == "method,k,value,floor,applicable,reason"
    for r in reps:
        d = r.to_json_dict()
        assert d["method"] in csv
        if r.applicable:
            assert d["floor"] == r.floor_value
    # exact excluded from the aggregate minimum
    assert minimum_floor(reps) == 4


def test_circulant_corpus_is_sound():
    """Every connected circulant with 5 <= n <= 22, one per multiplier
    class (1445 graphs), at every k below its diameter: ``best_bounds``
    raises no package error, both pwr rows apply (a circulant is
    vertex-transitive, so every bound of the paper applies), every floor is
    >= the exact alpha_k, and two checks that need no solver hold.

    * Ratio side: f = K_j(x, theta_0)^2 / K_j(theta_0, theta_0)^2, K_j the
      Christoffel-Darboux kernel and j = floor(k/2), is a feasible minor
      polynomial of trace n / s_j(theta_0), s_j = p_0 + ... + p_j; so
      ``pwr_ratio`` <= n / s_j(theta_0).
    * Inertia side: ``minor_to_sign`` of the optimal minor polynomial f* is
      a feasible sign polynomial, so ``pwr_inertia`` <= the multiplicity of
      {theta : f*(theta) >= tr f*(A) / n}.

    Before the predistance table stopped below its first degenerate row,
    circulant:22,1,2,3,4,5,6,7 (d = 11, diameter 2) raised
    DegenerateInnerProduct at row 11, which no bound at k = 1 reads."""
    graphs = pairs = 0
    for n in range(5, 23):
        for S in circulant_classes(n):
            spec = f"circulant:{n}," + ",".join(map(str, S))
            a = bounds.Analysis(generate(FamilySpec.parse(spec)))
            graphs += 1
            for k in range(1, a.dm.diameter):
                exact = alpha_k_exact(a, k).alpha_k
                rows = best_bounds(a, k)
                for rep in rows:
                    if rep.applicable:
                        assert rep.floor_value >= exact, (n, S, k, rep.method)
                pwr = {r.method: r for r in rows if r.method.startswith("pwr_")}
                assert len(pwr) == 2, (n, S, k)
                assert all(r.applicable for r in pwr.values()), (n, S, k)
                s = a.s
                ball = s.predistance_rows(k // 2)[:, 0].sum()
                assert pwr["pwr_ratio"].value <= s.n / ball * (1 + 1e-9), (n, S, k)
                f = minor_polynomial(s, k)
                feasible = bounds._sign_counts(s.mults, minor_to_sign(f, s).values)[0]
                assert pwr["pwr_inertia"].value <= feasible, (n, S, k)
                pairs += 1
    assert (graphs, pairs) == (1445, 1875)
