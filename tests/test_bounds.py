"""Bound implementations: classic, general-polynomial, multiplicity-form,
(d-1) bounds, predistance-driven bounds, and the aggregator."""

import math

import numpy as np
import pytest
from conftest import load_fixture

from specind.bounds import (
    BoundReport,
    alpha2_bound,
    alpha3_bound,
    best_bounds,
    cvetkovic_bound,
    dminus1_bounds,
    hoffman_bound,
    inertia_general,
    minimum_floor,
    minor_to_sign,
    pd_ratio_bound,
    pwr_inertia,
    pwr_ratio,
    qk_bounds,
    ratio_general,
    reports_to_csv,
    sign_to_minor,
)
from specind.errors import (
    BadNormalization,
    DegeneratePolynomial,
    NotRegular,
    TraceNotZero,
)
from specind.exact import alpha_k_exact
from specind.graphs import FamilySpec, from_adjacency, generate
from specind.optimize import minor_polynomial, sign_polynomial
from specind.polys import (
    CoeffPolynomial,
    MeshPolynomial,
    mesh_to_coeffs,
    predistance_polynomials,
)
from specind.spectra import (
    exact_family_spectrum,
    pi_products,
    spectrum,
    srg_raw_spectrum,
)


def odd_spectrum(ell):
    return exact_family_spectrum(FamilySpec.parse(f"odd:{ell}"))


# ---------------------------------------------------------------------------
# Classic bounds


def test_cvetkovic_known():
    pet = np.array([3.0] + [1.0] * 5 + [-2.0] * 4)
    assert cvetkovic_bound(pet).value == 4
    hs = srg_raw_spectrum(50, 7, 0, 1)
    assert cvetkovic_bound(hs).value == 21
    kn = np.array([5.0] + [-1.0] * 5)  # K_6
    assert cvetkovic_bound(kn).value == 1


def test_cvetkovic_zeros_count_both_sides():
    raw = np.array([2.0, 0.0, 0.0, -2.0])
    assert cvetkovic_bound(raw).value == 3  # zeros join both counts


def test_hoffman_known():
    assert hoffman_bound(10, 3, -2).value == pytest.approx(4.0)
    assert hoffman_bound(16, 5, -3).value == pytest.approx(6.0)
    c5 = hoffman_bound(5, 2, 2 * math.cos(4 * math.pi / 5))
    assert c5.value == pytest.approx(2.236, abs=1e-3)
    assert c5.floor_value == 2


# ---------------------------------------------------------------------------
# General-polynomial bounds and the p = x specialization


def test_general_bounds_specialize_to_classics(corpus_spectra):
    """inertia_general/ratio_general with p = x reproduce the classic
    inertia/ratio bounds exactly on regular graphs."""
    x = CoeffPolynomial(np.array([0.0, 1.0]))
    for label in ["petersen", "cycle:9", "hypercube:4", "kneser:7,2",
                  "prism:6", "odd:4"]:
        g, s, _, reg = corpus_spectra[label]
        assert inertia_general(g, x, 1, s).value == cvetkovic_bound(s.raw).value
        want = hoffman_bound(g.n, float(s.raw[0]), float(s.raw[-1])).value
        assert ratio_general(g, x, 1, s).value == pytest.approx(want, rel=1e-9)


def test_inertia_general_constant_poly_is_vacuous():
    g = generate(FamilySpec.parse("petersen"))
    one = CoeffPolynomial(np.array([1.0]))
    assert inertia_general(g, one, 1).value == g.n


def test_ratio_general_irregular_rejected():
    g = generate(FamilySpec.parse("complete_bipartite:3,4"))
    with pytest.raises(NotRegular):
        ratio_general(g, CoeffPolynomial(np.array([0.0, 1.0])), 1)


def test_ratio_general_degenerate_poly():
    g = generate(FamilySpec.parse("petersen"))
    with pytest.raises(DegeneratePolynomial):
        ratio_general(g, CoeffPolynomial(np.array([1.0])), 1)  # p constant


def test_general_bounds_on_o6_milp_lp():
    g = generate(FamilySpec.parse("odd:6"))
    s = spectrum(g)
    sol = sign_polynomial(s, 4)
    rep = inertia_general(g, mesh_to_coeffs(sol.sign_mesh), 4, s)
    assert rep.value == 11
    f = mesh_to_coeffs(minor_polynomial(s, 4))
    rep = ratio_general(g, f, 4, s)
    assert rep.value == pytest.approx(11.0, abs=1e-6)


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
    k = 1, 2, 3); the k = 3 sign search (1144 candidate sets, 1057 of them
    skipped by conflict pruning, 87 LPs) fits the soundness sweep's 5 s
    budget, so the sweep checks its floor."""
    _, s, _, _ = corpus_spectra["tutte"]
    pd = predistance_polynomials(s)
    for k, floor, sign, alpha, lps, skipped in [(1, 21, 21, 19, 2, 25),
                                                (2, 11, 13, 10, 37, 231),
                                                (3, 7, 10, 6, 87, 1057)]:
        rep = pwr_ratio(s, minor_polynomial(s, k, pd=pd), k)
        assert rep.applicable and rep.floor_value == floor >= alpha, k
        sol = sign_polynomial(s, k, time_budget=5.0, pd=pd)
        assert sol.objective == sign >= alpha, k
        assert (sol.lps, sol.skipped) == (lps, skipped), k
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
    assert cvetkovic_bound(s.raw).value == 4


# ---------------------------------------------------------------------------
# Sign <-> minor polynomial transforms


def test_transform_round_trip(corpus_spectra):
    for label in ["petersen", "odd:5", "hypercube:4"]:
        _, s, _, _ = corpus_spectra[label]
        f = minor_polynomial(s, min(2, s.d - 1) or 1)
        sp = minor_to_sign(f, s)
        # zero trace by construction
        assert abs(float(np.dot(s.mults, sp.values))) < 1e-9 * s.n
        back, factor = sign_to_minor(sp)
        assert np.allclose(back.values, f.values, atol=1e-9), label
        # the attached bound factor is n / (1 + s(theta_0)) = tr f(A)
        assert s.n / factor == pytest.approx(float(np.dot(s.mults, f.values)),
                                             rel=1e-9)


def test_transform_hoffman_case():
    s = exact_family_spectrum(FamilySpec.parse("petersen"))
    sp = MeshPolynomial(s.distinct, np.array([s.n - 1.0, -1.0, -1.0]))
    f, _ = sign_to_minor(sp)
    assert np.allclose(f.values, [1.0, 0.0, 0.0])


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
    from specind.spectra import diagonal_stats
    for label in ["petersen", "hypercube:4", "odd:5", "nauru"]:
        g, _, _, _ = corpus_spectra[label]
        w, W = diagonal_stats(g, [0.0, 0.0, 0.0, 1.0])
        assert w == W == 0.0, label


def test_minor_lp_beats_every_closed_form(corpus_spectra):
    """Each closed form is the trace of one feasible minor polynomial
    (Hoffman at k = 1, MP2 and MP3 at k = 2 and 3, the single-nonzero
    polynomial at k = d - 1), so the minor LP's trace is never larger."""
    compared = 0
    for label, (g, s, _, reg) in corpus_spectra.items():
        if not reg.is_regular:
            continue
        pi = pi_products(s)
        for k in range(1, min(s.d, reg.pwr_level + 1)):
            lp = pwr_ratio(s, minor_polynomial(s, k), k).value
            closed = []
            if k == 1:
                closed.append(hoffman_bound(g.n, float(s.raw[0]),
                                            float(s.raw[-1])))
            if k == 2:
                closed.append(alpha2_bound(s))
            if k == 3:
                closed.append(alpha3_bound(s, float(reg.closed_walks[2])))
            if k == s.d - 1:
                closed += [r for r in dminus1_bounds(s, pi)
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
    pi = pi_products(s)
    reps = dminus1_bounds(s, pi)
    best = min(r.floor_value for r in reps if r.applicable)
    assert best == 11


def test_dminus1_o5():
    s = odd_spectrum(5)
    pi = pi_products(s)
    reps = dminus1_bounds(s, pi)
    best = min(r.floor_value for r in reps if r.applicable)
    assert best == 8  # m(theta_4) = 8 via the i=d specialization (d = 4 even)
    even_vals = [r.value for r in reps
                 if r.applicable and r.method == "dminus1_inertia_even"]
    assert 8.0 in even_vals


def test_dminus1_petersen():
    s = exact_family_spectrum(FamilySpec.parse("petersen"))
    reps = dminus1_bounds(s, pi_products(s))
    best = min(r.floor_value for r in reps if r.applicable)
    assert best == 4


def test_odd_even_ell_coincidence():
    """For odd graphs with even ell the odd-index inertia and ratio bounds
    coincide at the index with pi_j = pi_0, and
    m(mu_1)/m(mu_2) = pi(mu_2)/pi_0."""
    for ell in (4, 6):
        s = odd_spectrum(ell)
        pi = pi_products(s)
        # mu_1 = -(ell-1) is theta_d; mu_2 = ell-2 is theta_1
        assert pi.pi[s.d] == pytest.approx(pi.pi[0], rel=1e-9)
        lhs = s.mults[s.d] / s.mults[1]
        assert lhs == pytest.approx(pi.pi[1] / pi.pi[0], rel=1e-9)


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7, 8])
def test_prop_44_best_dminus1_on_odd(ell):
    """Best (d-1) bound on odd(ell): 2d for even d, 2d+1 for odd d."""
    s = odd_spectrum(ell)
    d = s.d
    reps = dminus1_bounds(s, pi_products(s))
    best = min(r.value for r in reps if r.applicable)
    want = 2 * d if d % 2 == 0 else 2 * d + 1
    assert best == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("ell,want", [(5, 8.5), (6, 11.0)])
def test_prop_45_value(ell, want):
    """1 + m(mu_2) pi(mu_2)/pi_0 = 2d + (d-2)/d for even d, 2d+1 for odd d."""
    s = odd_spectrum(ell)
    pi = pi_products(s)
    val = 1 + s.mults[1] * pi.pi[1] / pi.pi[0]  # mu_2 = theta_1
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
        pd = predistance_polynomials(s)
        _, ratio = qk_bounds(g, s, pd, k)
        assert ratio.applicable, label
        assert ratio.floor_value == want, label


def test_qk_k1_matches_classics_on_regular(corpus_spectra):
    """q'_1 = p_1 = x (up to scale) on regular graphs, so the q'_k bounds at
    k = 1 match the classic pair."""
    for label in ["petersen", "cycle:9", "hypercube:4"]:
        g, s, _, _ = corpus_spectra[label]
        pd = predistance_polynomials(s)
        rep_i, rep_r = qk_bounds(g, s, pd, 1)
        assert rep_i.value == cvetkovic_bound(s.raw).value
        want = hoffman_bound(g.n, float(s.raw[0]), float(s.raw[-1])).value
        assert rep_r.value == pytest.approx(want, rel=1e-9)


def test_pd_ratio_examples(corpus_spectra):
    _, s, _, _ = corpus_spectra["hypercube:3"]
    rep = pd_ratio_bound(s, predistance_polynomials(s))
    assert rep.value == pytest.approx(2.0, abs=1e-9)
    _, s, _, _ = corpus_spectra["petersen"]
    rep = pd_ratio_bound(s, predistance_polynomials(s))
    assert rep.value >= 4.0  # upper bound on alpha_1 = 4


def test_pd_ratio_guard_d1():
    s = exact_family_spectrum(FamilySpec.parse("complete:3"))
    rep = pd_ratio_bound(s, predistance_polynomials(s))
    assert not rep.applicable


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
