"""Spectra, multiplicity grouping, pi products, regularity classification."""

import warnings
from math import comb

import numpy as np
import pytest
from conftest import relabelled

from specind import spectra
from specind.errors import NoClosedForm
from specind.graphs import FamilySpec, distance_matrix, generate
from specind.spectra import (
    _intersection_numbers,
    classify_regularity,
    diagonal_stats,
    exact_family_spectrum,
    pi_products,
    spectrum,
    srg_raw_spectrum,
)


def test_petersen_spectrum():
    s = spectrum(generate(FamilySpec.parse("petersen")))
    assert np.allclose(s.distinct, [3, 1, -2])
    assert list(s.mults) == [1, 5, 4]
    assert s.n == 10 and s.d == 2


def test_odd6_spectrum():
    s = exact_family_spectrum(FamilySpec.parse("odd:6"))
    assert np.allclose(s.distinct, [6, 4, 2, -1, -3, -5])
    assert list(s.mults) == [1, 44, 165, 132, 110, 10]
    assert s.n == 462


@pytest.mark.parametrize("spec", [
    "cycle:9", "complete:6", "complete_bipartite:3,4", "hypercube:5",
    "circulant:13,1,5", "kneser:7,3", "odd:5", "prism:6",
    "moebius_ladder:5", "petersen",
])
def test_closed_form_matches_numeric(spec):
    fs = FamilySpec.parse(spec)
    s_num = spectrum(generate(fs))
    s_cf = exact_family_spectrum(fs)
    assert s_num.d == s_cf.d
    assert np.allclose(s_num.distinct, s_cf.distinct, atol=1e-7)
    assert np.array_equal(s_num.mults, s_cf.mults)


def test_closed_form_large_family():
    # odd:6 has n = 462; numeric and closed-form agree up to n ~ 500
    fs = FamilySpec.parse("odd:6")
    s_num = spectrum(generate(fs))
    s_cf = exact_family_spectrum(fs)
    assert np.allclose(s_num.distinct, s_cf.distinct, atol=1e-7)
    assert np.array_equal(s_num.mults, s_cf.mults)


def test_no_closed_form():
    with pytest.raises(NoClosedForm):
        exact_family_spectrum(FamilySpec("kneser_like_unknown", ()))


def test_spectrum_invariants(corpus_spectra):
    for label, (g, s, _, _) in corpus_spectra.items():
        assert int(s.mults.sum()) == g.n
        # trace zero (no loops)
        assert abs(float(np.dot(s.mults, s.distinct))) <= 1e-6 * g.n
        assert np.all(np.diff(s.distinct) < 0)


def test_srg_raw_spectrum_known():
    raw = srg_raw_spectrum(16, 5, 0, 2)  # Clebsch
    s_vals, counts = np.unique(np.round(raw).astype(int), return_counts=True)
    assert dict(zip(s_vals.tolist(), counts.tolist())) == {5: 1, 1: 10, -3: 5}
    raw = srg_raw_spectrum(50, 7, 0, 1)  # Hoffman-Singleton
    s_vals, counts = np.unique(np.round(raw).astype(int), return_counts=True)
    assert dict(zip(s_vals.tolist(), counts.tolist())) == {7: 1, 2: 28, -3: 21}


def test_srg_raw_spectrum_infeasible():
    with pytest.raises(NoClosedForm):
        srg_raw_spectrum(77, 16, 0, 7)


def test_pi_products_positive(corpus_spectra):
    for label, (_, s, _, _) in corpus_spectra.items():
        if s.d < 1:
            continue
        pi = pi_products(s)
        assert np.all(pi.pi > 0)


def test_pi_even_odd_sum_identity(corpus_spectra):
    """sum over even i of pi_0/pi_i equals the sum over odd i."""
    for label, (_, s, _, _) in corpus_spectra.items():
        if s.d < 1:
            continue
        pi = pi_products(s)
        ratios = pi.pi[0] / pi.pi
        even = float(ratios[0::2].sum())
        odd = float(ratios[1::2].sum())
        assert even == pytest.approx(odd, rel=1e-8), label


def test_hypercube_pi_ratio_identity():
    """Q_m: pi_j/pi_0 = 1/C(m, j), so m_j pi_j/pi_0 = 1; m = 3, 4, 5."""
    from math import comb
    for m in (3, 4, 5):
        s = exact_family_spectrum(FamilySpec.parse(f"hypercube:{m}"))
        pi = pi_products(s)
        for j in range(m + 1):
            assert pi.pi[j] / pi.pi[0] == pytest.approx(1 / comb(m, j), rel=1e-9)
            assert s.mults[j] * pi.pi[j] / pi.pi[0] == pytest.approx(1.0, rel=1e-9)


def test_regularity_ladder():
    cases = {
        "petersen": dict(reg=True, wr=True, dr=True),
        "hypercube:4": dict(reg=True, wr=True, dr=True),
        "cycle:9": dict(reg=True, wr=True, dr=True),
        "prism:5": dict(reg=True, wr=True, dr=False),
    }
    for label, want in cases.items():
        g = generate(FamilySpec.parse(label))
        rep = classify_regularity(g, spectrum(g))
        assert rep.is_regular == want["reg"], label
        assert rep.is_walk_regular == want["wr"], label
        assert rep.is_distance_regular == want["dr"], label


@pytest.mark.parametrize("spec,d", [("prism:60", 58), ("moebius_ladder:60", 60),
                                    ("circulant:150,1,2", 73), ("cycle:150", 75)])
def test_walk_regular_beyond_float_exactness(spec, d):
    """Vertex-transitive, hence walk-regular, graphs whose closed-walk counts
    pass 2^53 before level d, where float matrix powers stop being exact."""
    g = generate(FamilySpec.parse(spec))
    s = spectrum(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify_regularity(g, s)
    assert s.d == d
    assert rep.pwr_level == d and rep.is_walk_regular


def test_closed_walks_match_diagonal_stats(corpus_spectra):
    """closed_walks holds the constant diag(A^l) for l = 1..pwr_level: the
    float Horner diagonal of diagonal_stats, exact at these sizes, agrees on
    every corpus graph."""
    for label, (g, _, _, reg) in corpus_spectra.items():
        assert len(reg.closed_walks) == reg.pwr_level, label
        for level, walks in enumerate(reg.closed_walks, 1):
            unit = np.eye(level + 1)[level]
            assert diagonal_stats(g, unit) == (walks, walks), (label, level)


def test_closed_walks_exact_past_float():
    """On a 150-cycle there are C(l, l/2) closed walks of even length l < 150
    and none of odd length; C(74, 37) is about 1.7e21, past 2^53."""
    g = generate(FamilySpec.parse("cycle:150"))
    rep = classify_regularity(g, spectrum(g))
    assert rep.closed_walks == tuple(0 if ell % 2 else comb(ell, ell // 2)
                                     for ell in range(1, 76))


def test_hoffman_graph_walk_regular_not_distance_regular(corpus_spectra):
    # cospectral mate of Q4: walk-regular (bipartite + regular) but not DR
    _, _, _, reg = corpus_spectra["hoffman"]
    assert reg.is_regular
    assert not reg.is_distance_regular


def test_irregular_graph_classified():
    g = generate(FamilySpec.parse("complete_bipartite:3,4"))
    rep = classify_regularity(g, spectrum(g))
    assert not rep.is_regular
    assert rep.degree is None
    assert rep.pwr_level >= 1


def test_petersen_intersection_array():
    g = generate(FamilySpec.parse("petersen"))
    rep = classify_regularity(g, spectrum(g))
    assert rep.intersection_array == ((3, 2), (1, 1))


def product_intersection_numbers(a, dm):
    """Reference: b_i, c_i from the 2(D+1) products [dist = i+-1] A read at
    the pairs at distance i, one distance at a time; None if not constant."""
    D = dm.diameter
    b, c = [], []
    for i in range(D + 1):
        at_i = dm.dist == i
        for j, out in ((i + 1, b), (i - 1, c)):
            counts = ((dm.dist == j).astype(float) @ a)[at_i]
            if np.any(counts != counts[0]):
                return None
            out.append(int(counts[0]))
    return tuple(b[:-1]), tuple(c[1:])


def test_intersection_numbers_match_loop(corpus_spectra):
    """Every corpus graph (odd:6 and the non-regular ones included),
    relabelled copies, complete:200 (B^3 = 8e6) and cycle:101 (D = 50)."""
    graphs = [g for g, _, _, _ in corpus_spectra.values()]
    graphs += [relabelled(spec, seed) for spec, seed in
               [("odd:6", 7), ("hypercube:7", 31), ("prism:6", 7),
                ("complete_bipartite:3,4", 7)]]
    graphs += [generate(FamilySpec.parse(spec)) for spec in
               ["complete_bipartite:1,9", "complete:200", "cycle:101"]]
    seen = set()
    for g in graphs:
        a, dm = g.adjacency.astype(float), distance_matrix(g)
        want = product_intersection_numbers(a, dm)
        assert _intersection_numbers(a, dm) == want, g.label
        seen.add(want is None)
    assert seen == {True, False}  # both outcomes are exercised


def test_intersection_array_skipped_when_diameter_below_d(monkeypatch):
    """kneser:8,3 is regular with diameter 2 < d = 3: not distance-regular,
    and the intersection product is never formed."""
    def _fail(*args):
        raise AssertionError("intersection numbers computed")

    g = generate(FamilySpec.parse("kneser:8,3"))
    monkeypatch.setattr(spectra, "_intersection_numbers", _fail)
    s = spectrum(g)
    dm = distance_matrix(g)
    rep = classify_regularity(g, s, dm)
    assert rep.is_regular and dm.diameter != s.d
    assert rep.intersection_array is None and not rep.is_distance_regular


def test_walk_regular_constant_poly_diagonal(corpus_spectra):
    """For walk-regular graphs diag p(A) is constant and equals (tr p(A))/n."""
    from specind.spectra import diagonal_stats
    for label in ["petersen", "hypercube:4", "odd:4", "hoffman"]:
        g, s, _, reg = corpus_spectra[label]
        assert reg.is_walk_regular
        coeffs = [0.5, -1.0, 2.0, 1.0]  # arbitrary cubic
        w, W = diagonal_stats(g, coeffs)
        vals = np.polynomial.polynomial.polyval(s.distinct, coeffs)
        mean = float(np.dot(s.mults, vals)) / s.n
        assert w == pytest.approx(W, abs=1e-8)
        assert w == pytest.approx(mean, rel=1e-9)
