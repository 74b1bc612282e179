"""CH classification, simplex geometry, multiplicity feasibility,
spectral excess, antipodality, and the strongly-regular tightness test."""

from dataclasses import replace

import numpy as np
import pytest

from specind import ch
from specind.bounds import Analysis, minor_to_sign, pwr_inertia
from specind.ch import (
    antipodal_check,
    ch_classify,
    linearly_related,
    mean_excess,
    multiplicity_feasibility,
    simplex_geometry,
    spectral_excess,
    srg_tightness_check,
)
from specind.errors import (
    NegativeRadicand,
    NotApplicable,
    NotRegular,
    NotSRG,
    NotWalkRegular,
)
from specind.exact import alpha_k_exact
from specind.graphs import FamilySpec, generate
from specind.optimize import minor_polynomial, sign_polynomial
from specind.polys import MeshPolynomial
from specind.spectra import exact_family_spectrum


def test_kneser62_k1_tight_ch():
    g = generate(FamilySpec.parse("kneser:6,2"))
    v = ch_classify(g, 1)
    assert v.inertia_value == 5 and v.ratio_value == 5
    assert v.bounds_equal and v.linearly_related and v.is_ch
    assert v.exact == 5 and v.is_tight_ch


def test_odd6_k4_tight_ch():
    g = generate(FamilySpec.parse("odd:6"))
    v = ch_classify(g, 4)
    assert v.inertia_value == 11 and v.ratio_value == 11
    assert v.is_ch and v.exact == 11 and v.is_tight_ch


def test_odd5_k3_not_tight():
    g = generate(FamilySpec.parse("odd:5"))
    v = ch_classify(g, 3)
    assert v.inertia_value == 8 and v.ratio_value == 8
    assert v.exact == 7
    assert not v.is_tight_ch


def test_classify_keeps_the_bounds_when_exact_times_out(corpus_analyses):
    """An oracle over its budget leaves the exact value and tightness
    unknown and says why; the two bounds are still compared."""
    v = ch_classify(corpus_analyses["petersen"], 1, timeout=0.0)
    assert v.inertia_value == v.ratio_value == 4 and v.is_ch
    assert v.exact is None and v.is_tight_ch is None
    assert v.exact_note.startswith("exact unavailable: ")


@pytest.mark.parametrize("spec", ["complete_bipartite:4,5",
                                  "complete_bipartite:1,3",
                                  "complete_bipartite:2,5"])
def test_classify_rejects_irregular(spec):
    """The ratio-type bound needs a regular graph: on these K_{a,b} the minor
    LP's trace falls below alpha_1 = max(a, b)."""
    g = generate(FamilySpec.parse(spec))
    with pytest.raises(NotRegular):
        ch_classify(g, 1, with_exact=False)


def test_verdict_json_serializable():
    import json
    g = generate(FamilySpec.parse("petersen"))
    v = ch_classify(g, 1)
    text = json.dumps(v.to_json_dict())
    assert '"k": 1' in text


def test_tight_implies_ch_and_exact(corpus_spectra):
    """Invariant: is_tight_ch implies is_ch and equal floors."""
    for label in ["petersen", "kneser:6,2", "hypercube:4", "cycle:6"]:
        g, s, dm, reg = corpus_spectra[label]
        for k in range(1, min(dm.diameter, s.d)):
            if reg.pwr_level < k:
                continue
            v = ch_classify(g, k, s=s)
            if v.is_tight_ch:
                assert v.is_ch
                assert v.inertia_value == v.exact
            if v.is_ch:
                assert v.bounds_equal and v.linearly_related


def signed_counts(s, f, k):
    """The inertia counts of s_f and of -s_f."""
    sf = minor_to_sign(f, s).values
    return [pwr_inertia(s, MeshPolynomial(s.distinct, v), k).value
            for v in (sf, -sf)]


def test_linearly_related_sign_freedom():
    """A negative multiple of s_f is related too: on kneser:6,2 at k = 1,
    -s_f attains the optimum 5 where s_f counts 10.  The verdict does not
    read the search's certificate, so negating it changes nothing."""
    s = exact_family_spectrum(FamilySpec.parse("kneser:6,2"))
    f = minor_polynomial(s, 1)
    sol = sign_polynomial(s, 1)
    assert sol.objective == 5 and signed_counts(s, f, 1) == [10, 5]
    assert linearly_related(sol, f, s)
    flipped = MeshPolynomial(s.distinct, -sol.sign_mesh.values)
    assert linearly_related(replace(sol, sign_mesh=flipped), f, s)


def lstsq_related(sp, f, s):
    """Reference: the former least-squares form of ``ch.linearly_related``,
    which fitted the search's certificate sp against s_f."""
    derived = minor_to_sign(f, s).values
    target = sp.values
    denom = float(np.dot(derived, derived))
    if denom < 1e-18:
        return False
    a = float(np.dot(derived, target)) / denom
    if abs(a) < 1e-12:
        return False
    resid = np.linalg.norm(target - a * derived)
    return bool(resid <= 1e-6 * max(1.0, float(np.linalg.norm(target))))


def ch_pairs(corpus_spectra):
    """(label, s, k) for the regular corpus graphs and k <= pwr level,
    k < d; Tutte only up to k = 3, odd:6 left out."""
    for label, (g, s, _, reg) in corpus_spectra.items():
        if not reg.is_regular or label == "odd:6":
            continue
        for k in range(1, min(reg.pwr_level, s.d - 1) + 1):
            if label != "tutte" or k <= 3:
                yield label, s, k


def test_linearly_related_contains_least_squares(corpus_spectra):
    """Every pair the least-squares fit of the certificate called related
    is related by the count test; 32 more are, and on each of those s_f
    or -s_f attains the optimum.  How many the fit calls related depends on
    the certificate (33 more with the former max-margin certificates)."""
    pairs = was = more = 0
    for label, s, k in ch_pairs(corpus_spectra):
        sol = sign_polynomial(s, k)
        f = minor_polynomial(s, k)
        old = lstsq_related(sol.sign_mesh, f, s)
        new = linearly_related(sol, f, s)
        assert new or not old, (label, k)
        assert new == (sol.objective in signed_counts(s, f, k)), (label, k)
        pairs += 1
        was += old
        more += new and not old
    assert (pairs, more) == (158, 32) and was > 0


@pytest.mark.parametrize("label,k", [("nauru", 2), ("tutte", 2), ("dyck", 3),
                                     ("prism:6", 2)])
def test_linearly_related_vs_scipy_sign_oracle(corpus_spectra, label, k):
    """Pairs the least-squares fit called unrelated: the smaller count of
    +-s_f is the optimum of scipy's MILP, which does not use the package's
    sign search (in the Chebyshev basis, which stays well conditioned at
    Tutte's d = 30)."""
    pytest.importorskip("scipy.optimize")
    from test_optimize import scipy_sign_milp

    _, s, _, _ = corpus_spectra[label]
    f = minor_polynomial(s, k)
    assert linearly_related(sign_polynomial(s, k), f, s)
    assert min(signed_counts(s, f, k)) == scipy_sign_milp(s, k)


# ---------------------------------------------------------------------------
# Simplex geometry


def test_simplex_q3_antipodal():
    s = exact_family_spectrum(FamilySpec.parse("hypercube:3"))
    # r = 2 at the top odd index: barycenter at the origin, positive length
    geo = simplex_geometry(s, 3, 2)
    assert geo.S == pytest.approx(0.0, abs=1e-9)
    assert geo.L > 0 and geo.R > 0


def test_simplex_r1_degenerate():
    s = exact_family_spectrum(FamilySpec.parse("petersen"))
    geo = simplex_geometry(s, 1, 1)
    assert geo.R == pytest.approx(0.0, abs=1e-12)


def test_simplex_invariant_l_vs_r():
    """L^2 = (2r/(r-1)) R^2 for every feasible (i, r)."""
    for spec in ["hypercube:3", "petersen", "odd:4"]:
        s = exact_family_spectrum(FamilySpec.parse(spec))
        for i in range(s.d + 1):
            for r in (2, 3):
                try:
                    geo = simplex_geometry(s, i, r)
                except NegativeRadicand:
                    continue
                assert geo.L ** 2 == pytest.approx(
                    2 * r / (r - 1) * geo.R ** 2, abs=1e-9), (spec, i, r)


def test_simplex_negative_radicand():
    # Q_3 is 2-antipodal: r = 3 cannot fit at the top odd index
    s = exact_family_spectrum(FamilySpec.parse("hypercube:3"))
    with pytest.raises(NegativeRadicand):
        simplex_geometry(s, 3, 3)


# ---------------------------------------------------------------------------
# Multiplicity feasibility


def test_multiplicity_feasibility_q3():
    s = exact_family_spectrum(FamilySpec.parse("hypercube:3"))
    rep = multiplicity_feasibility(s, 2)
    assert rep.all_hold
    assert rep.max_feasible_r == 2  # m_j pi_j / pi_0 = 1 for hypercubes


def test_multiplicity_feasibility_caps_r():
    s = exact_family_spectrum(FamilySpec.parse("hypercube:4"))
    rep3 = multiplicity_feasibility(s, 3)
    assert not rep3.all_hold
    assert rep3.max_feasible_r == 2


# ---------------------------------------------------------------------------
# Spectral excess and antipodality


def test_spectral_excess_petersen(corpus_spectra):
    g, s, dm, _ = corpus_spectra["petersen"]
    assert spectral_excess(s) == pytest.approx(6.0, rel=1e-9)
    assert mean_excess(dm) == pytest.approx(6.0)


def test_spectral_excess_theorem_both_directions(corpus_checks):
    """Regular + diameter d: mean excess equals spectral excess iff DR."""
    assert corpus_checks["check_spectral_excess_theorem"] is None


def test_antipodal_q3_and_c6(corpus_analyses):
    for label in ["hypercube:3", "cycle:6"]:
        verdict = antipodal_check(corpus_analyses[label])
        assert verdict.is_antipodal and verdict.r == 2, label


def test_antipodal_q4_and_prism():
    g = generate(FamilySpec.parse("hypercube:4"))
    v = antipodal_check(Analysis(g))
    assert v.is_antipodal and v.r == 2


def test_antipodal_check_needs_walk_regularity(corpus_analyses):
    a = corpus_analyses["frucht"]
    assert a.reg.pwr_level == 2 and not a.reg.is_walk_regular
    with pytest.raises(NotWalkRegular):
        antipodal_check(a)


def test_not_antipodal(corpus_analyses):
    for label in ["petersen", "odd:4"]:
        v = antipodal_check(corpus_analyses[label])
        assert not v.is_antipodal, label


def test_antipodal_guard_small_diameter():
    g = generate(FamilySpec.parse("prism:5"))  # D = 3 < d = 5
    with pytest.raises(NotApplicable):
        antipodal_check(Analysis(g))


def test_antipodal_odd_diameter_is_tight_ch(corpus_spectra):
    """Antipodal distance-regular graphs with odd diameter are tight
    (d-1)-CH graphs."""
    for label in ["hypercube:3", "cycle:6"]:
        g, s, _, _ = corpus_spectra[label]
        v = ch_classify(g, s.d - 1, s=s)
        assert v.is_tight_ch, label
        assert v.inertia_value == v.ratio_value == 2, label


def test_antipodal_implies_tight_pd_ratio(corpus_spectra):
    """For the 2-antipodal instances, alpha_{d-1} = 2 is attained and the
    predistance ratio bound returns exactly r."""
    from specind.bounds import pd_ratio_bound
    for label in ["hypercube:3", "cycle:6"]:
        g, s, dm, _ = corpus_spectra[label]
        rep = pd_ratio_bound(s)
        assert rep.value == pytest.approx(2.0, abs=1e-9)
        assert alpha_k_exact(g, s.d - 1, dm=dm).alpha_k == 2


# ---------------------------------------------------------------------------
# Strongly regular tightness


def test_srg_tightness_petersen():
    g = generate(FamilySpec.parse("petersen"))
    wit = alpha_k_exact(g, 1).witness
    assert len(wit) == 4
    # Petersen: both classic bounds are tight (4 = 4); the complement of a
    # maximum independent set induces a strongly regular subgraph
    assert srg_tightness_check(g, wit)


def test_srg_tightness_requires_srg():
    g = generate(FamilySpec.parse("cycle:6"))
    with pytest.raises(NotSRG):
        srg_tightness_check(g, [0])


def loop_srg_parameters(adj):
    """Reference: the former pair-loop form of ``ch._srg_parameters``."""
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    if n and not np.all(deg == deg[0]):
        return None
    common = adj.astype(int) @ adj.astype(int)
    lam = mu = None
    for u in range(n):
        for v in range(u + 1, n):
            c = int(common[u, v])
            if adj[u, v]:
                if lam is None:
                    lam = c
                elif lam != c:
                    return None
            else:
                if mu is None:
                    mu = c
                elif mu != c:
                    return None
    return (n, int(deg[0]) if n else 0,
            -1 if lam is None else lam, -1 if mu is None else mu)


def test_srg_parameters_match_loop_reference(corpus, monkeypatch):
    """The array form agrees with the pair loop on every corpus graph and on
    the subgraph srg_tightness_check induces off a maximum independent set of
    each strongly regular one."""
    results = []
    vectorized = ch._srg_parameters

    def checked(adj):
        got = loop_srg_parameters(adj)
        assert got == vectorized(adj)
        results.append(got)
        return got

    monkeypatch.setattr(ch, "_srg_parameters", checked)
    srgs = [g for g in corpus if checked(g.adjacency) is not None]
    for g in srgs:
        srg_tightness_check(g, alpha_k_exact(g, 1).witness)
    assert len(srgs) == 11
    assert len(results) == len(corpus) + 2 * len(srgs)
