"""Spectra, multiplicity grouping, pi products, regularity classification."""

import warnings
from dataclasses import fields
from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest
from conftest import (
    FAMILY_SPECS,
    check_hypercube_pi_ratios,
    circulant_classes,
    count_calls,
    relabelled,
    traced_peak,
)

from specind import bounds, distances, spectra, symmetry
from specind.bounds import Analysis
from specind.errors import NoClosedForm
from specind.graphs import FamilySpec, distance_matrix, from_adjacency, generate
from specind.spectra import (
    RegularityReport,
    classify_regularity,
    exact_family_spectrum,
    intersection_array,
    intersection_matrix,
    quotient_analysis,
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
    # K_2: its a + b - 2 = 0 zeros give no mesh point
    "complete_bipartite:1,1",
    # d = 19: cosines equal in exact arithmetic round up to 2e-14 apart
    "circulant:38,1,6,17", "circulant:38,1,9,16", "circulant:38,3,10,18",
    "circulant:38,3,13,18", "circulant:38,4,5,7", "circulant:38,11,14,15",
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


def test_closed_form_circulants_group_equal_eigenvalues():
    """Every connected circulant C_n(S) with 5 <= n <= 40 and |S| <= 3
    (12561 graphs): no two mesh points of the closed form lie within 1e-7.
    Cosine sums that are equal in exact arithmetic round apart by up to
    2e-14 (six circulants at n = 38), and the grouping merges them."""
    count = 0
    for n in range(5, 41):
        for size in (1, 2, 3):
            for steps in combinations(range(1, n // 2 + 1), size):
                if gcd(n, *steps) != 1:
                    continue
                s = exact_family_spectrum(FamilySpec("circulant", (n, *steps)))
                assert np.diff(s.distinct).max() < -1e-7, (n, steps)
                count += 1
    assert count == 12561



def test_closed_form_circulants_read_the_graphs_step_set():
    """The closed form works on the graph's step set, in which s and n - s
    are one step and step n/2 gives one neighbour: its d and multiplicities
    are the eigensolver's, and its mesh within 1e-9, on every connected
    circulant with n <= 24 that has step n/2 (4015 graphs), its first step
    written as n - s, and on every one with one or two steps and no step
    n/2, its first step written as s + n (481 graphs)."""
    count = 0
    for n in range(3, 25):
        for size in range(1, n // 2 + 1):
            for steps in combinations(range(1, n // 2 + 1), size):
                half = 2 * steps[-1] == n
                if gcd(n, *steps) != 1 or not (half or size <= 2):
                    continue
                first = n - steps[0] if half else steps[0] + n
                spec = FamilySpec("circulant", (n, first, *steps[1:]))
                want, s = spectrum(generate(spec)), exact_family_spectrum(spec)
                assert (s.d, s.mults.tolist()) == (want.d, want.mults.tolist()), spec
                assert np.abs(s.distinct - want.distinct).max() <= 1e-9, spec
                count += 1
    assert count == 4015 + 481

@pytest.mark.parametrize("distinct,mults,message", [
    ([3.0, 1.0, 1.0], [1, 5, 4], "strictly decreasing"),
    ([-2.0, 1.0, 3.0], [4, 5, 1], "strictly decreasing"),
    ([1.0, 0.0, -1.0], [1, 0, 1], "below 1"),
    ([3.0, 1.0, -2.0], [1, 5], "length"),
], ids=["repeated", "increasing", "empty-point", "short-mults"])
def test_spectrum_rejects_a_malformed_mesh(distinct, mults, message):
    with pytest.raises(ValueError, match=message):
        spectra.Spectrum(np.array(distinct), np.array(mults))


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
        assert np.all(s.pi > 0)


def test_pi_is_cached_read_only_and_needs_two_eigenvalues():
    s = exact_family_spectrum(FamilySpec.parse("petersen"))
    assert s.pi is s.pi
    with pytest.raises(ValueError):
        s.pi[0] = 1.0
    one = spectra.group_eigenvalues(np.zeros(3))  # the edgeless graph on 3 vertices
    with pytest.raises(ValueError, match="two distinct eigenvalues"):
        one.pi


def test_trace_of_one_and_of_x(corpus_spectra):
    for label, (_, s, _, _) in corpus_spectra.items():
        assert s.trace(np.ones(s.d + 1)) == s.n, label
        assert abs(s.trace(s.distinct)) <= 1e-6 * s.n, label  # tr A = 0


def test_pi_even_odd_sum_identity(corpus_checks):
    """sum over even i of pi_0/pi_i equals the sum over odd i."""
    assert corpus_checks["check_pi_sum_identity"] is None


def test_hypercube_pi_ratio_identity():
    """Q_m: pi_j/pi_0 = 1/C(m, j), so m_j pi_j/pi_0 = 1; m = 3, 4, 5."""
    check_hypercube_pi_ratios()


def test_regularity_ladder():
    cases = {
        "petersen": dict(reg=True, wr=True, dr=True),
        "hypercube:4": dict(reg=True, wr=True, dr=True),
        "cycle:9": dict(reg=True, wr=True, dr=True),
        "prism:5": dict(reg=True, wr=True, dr=False),
    }
    for label, want in cases.items():
        g = generate(FamilySpec.parse(label))
        rep = classify_regularity(g, spectrum(g), distance_matrix(g))
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
        rep = classify_regularity(g, s, distance_matrix(g))
    assert s.d == d
    assert rep.pwr_level == d and rep.is_walk_regular


def test_closed_walks_match_diagonal_stats(corpus_spectra):
    """closed_walks holds the constant diag(A^l) for l = 1..pwr_level: the
    diagonal of the float matrix power, exact at these sizes, agrees on
    every corpus graph."""
    for label, (g, _, _, reg) in corpus_spectra.items():
        assert len(reg.closed_walks) == reg.pwr_level, label
        a = g.adjacency.astype(float)
        for level, walks in enumerate(reg.closed_walks, 1):
            diag = np.diag(np.linalg.matrix_power(a, level))
            assert (diag.min(), diag.max()) == (walks, walks), (label, level)


def test_closed_walks_exact_past_float():
    """On a 150-cycle there are C(l, l/2) closed walks of even length l < 150
    and none of odd length; C(74, 37) is about 1.7e21, past 2^53."""
    g = generate(FamilySpec.parse("cycle:150"))
    rep = classify_regularity(g, spectrum(g), distance_matrix(g))
    assert rep.closed_walks == tuple(0 if ell % 2 else comb(ell, ell // 2)
                                     for ell in range(1, 76))


def full_ladder_reference(g, d):
    """Reference: diag(A^l) read off every power A^2..A^l, float products
    below 2^53 and neighbour-column sums in Python ints beyond (the former
    loop of ``classify_regularity``); the constant diagonals, in order."""
    deg = g.degrees()
    a = g.adjacency.astype(float)
    power = a
    walks = [0]
    for level in range(2, d + 1):
        if int(deg.max()) ** level < 2 ** 53:
            power = power @ a
        else:
            if power.dtype != object:
                power = power.astype(np.int64).astype(object)
                nbrs = [np.flatnonzero(col) for col in g.adjacency.T]
            power = np.column_stack([power[:, nb].sum(axis=1) for nb in nbrs])
        if np.all(np.diag(power) == power[0, 0]):
            walks.append(int(power[0, 0]))
        else:
            break
    return tuple(walks)


def test_half_ladder_matches_full_ladder(corpus_spectra):
    """Row-wise dots of A^floor(l/2) and A^ceil(l/2) give the full ladder's
    integers, of the same type, on the corpus, relabelled copies, cycle:101
    and two graphs past the 2^53 switch (cycle:150, prism:60)."""
    cases = [(g, s, dm) for g, s, dm, _ in corpus_spectra.values()]
    for g in [relabelled("odd:6", 7), relabelled("hypercube:7", 31)] + [
            generate(FamilySpec.parse(spec))
            for spec in ("cycle:101", "cycle:150", "prism:60")]:
        cases.append((g, spectrum(g), distance_matrix(g)))
    past_switch = 0
    for g, s, dm in cases:
        want = full_ladder_reference(g, s.d)
        got = classify_regularity(g, s, dm).closed_walks
        assert got == want, g.label
        assert [type(w) for w in got] == [int] * len(want), g.label
        past_switch += max(want) >= 2 ** 53
    assert past_switch == 2


def test_hoffman_graph_walk_regular_not_distance_regular(corpus_spectra):
    # cospectral mate of Q4: walk-regular (bipartite + regular) but not DR
    _, _, _, reg = corpus_spectra["hoffman"]
    assert reg.is_regular
    assert not reg.is_distance_regular


def test_irregular_graph_classified():
    g = generate(FamilySpec.parse("complete_bipartite:3,4"))
    rep = classify_regularity(g, spectrum(g), distance_matrix(g))
    assert not rep.is_regular
    assert rep.degree is None
    assert rep.pwr_level >= 1


def test_petersen_intersection_array():
    g = generate(FamilySpec.parse("petersen"))
    rep = classify_regularity(g, spectrum(g), distance_matrix(g))
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


def test_intersection_numbers_match_loop(corpus_spectra, monkeypatch):
    """Every corpus graph (odd:6 and the non-regular ones included),
    relabelled copies, complete:200 and complete:300 (every row a neighbour
    list of n - 1) and cycle:101 (D = 50), with the sums' vertex blocks at
    their size and one vertex long.  With one-vertex blocks a graph whose
    vertex 0 alone looks distance-regular is answered only by a later
    block: in complete_bipartite:4,5, gray, folkman and tietze vertex 0's
    distance partition is equitable, but not every vertex's is."""
    graphs = [g for g, _, _, _ in corpus_spectra.values()]
    graphs += [relabelled(spec, seed) for spec, seed in
               [("odd:6", 7), ("hypercube:7", 31), ("prism:6", 7),
                ("complete_bipartite:3,4", 7)]]
    graphs += [generate(FamilySpec.parse(spec)) for spec in
               ["complete_bipartite:1,9", "complete:200", "complete:300",
                "cycle:101"]]
    cases = [(g, distance_matrix(g)) for g in graphs]
    seen = set()
    for block in (distances.ROW_BLOCK, 1):
        monkeypatch.setattr(distances, "ROW_BLOCK", block)
        for g, dm in cases:
            want = product_intersection_numbers(g.adjacency.astype(float), dm)
            assert intersection_array(g, dm) == want, (g.label, block)
            seen.add(want is None)
    assert seen == {True, False}  # both outcomes are exercised


def float64_intersection_numbers(a, dm):
    """Reference: the float64 product X A with X[u, w] = B^(dist(u, w) mod 3)
    (the former ``_intersection_numbers``)."""
    base = int(a.sum(axis=1).max()) + 1
    code = np.array([1.0, base, base * base])[dm.dist % 3] @ a
    ref = np.full(dm.diameter + 1, np.nan)
    ref[dm.dist[0]] = code[0]
    if not np.array_equal(code, ref[dm.dist]):
        return None
    digits = [[int(v) // base ** r % base for r in range(3)] for v in ref]
    return (tuple(digits[i][(i + 1) % 3] for i in range(dm.diameter)),
            tuple(digits[i][(i - 1) % 3] for i in range(1, dm.diameter + 1)))


def float64_regularity(g, s, dm):
    """Reference: the half ladder in float64 products below 2^53 and Python
    ints beyond, then the float64 intersection product (the former
    ``classify_regularity``)."""
    deg = g.degrees()
    is_reg = bool(np.all(deg == deg[0]))
    a = g.adjacency.astype(float)
    half = up = a
    walks = [0]
    for level in range(2, s.d + 1):
        exact = int(deg.max()) ** level < 2 ** 53
        if not exact and up.dtype != object:
            half, up = (p.astype(np.int64).astype(object) for p in (half, up))
            nbrs = [np.flatnonzero(col) for col in g.adjacency.T]
        if level % 2 == 0:
            half = up
        else:
            up = up @ a if exact else np.column_stack(
                [up[:, nb].sum(axis=1) for nb in nbrs])
        diag = (np.einsum("ij,ij->i", half, up) if exact
                else (half * up).sum(axis=1))
        if np.all(diag == diag[0]):
            walks.append(int(diag[0]))
        else:
            break
    inter = (float64_intersection_numbers(a, dm)
             if is_reg and dm.diameter == s.d else None)
    return RegularityReport(
        is_regular=is_reg,
        degree=int(deg[0]) if is_reg else None,
        pwr_level=len(walks),
        closed_walks=tuple(walks),
        is_walk_regular=len(walks) == s.d,
        is_distance_regular=inter is not None,
        intersection_array=inter,
    )


def assert_same_report(g, s, dm):
    got, want = classify_regularity(g, s, dm), float64_regularity(g, s, dm)
    for f in fields(RegularityReport):
        assert getattr(got, f.name) == getattr(want, f.name), (g.label, f.name)
    assert [type(w) for w in got.closed_walks] == [int] * got.pwr_level, g.label
    return got


def test_regularity_tiers_match_float64_reference(corpus_spectra):
    """classify_regularity's narrowest-type ladder and intersection product
    give the float64 reference's report, field by field, on the corpus and
    relabelled copies of odd:6 and hypercube:7; on each of the 55 corpus
    graphs so does its analysis's report, read off the intersection array
    where the graph is distance-regular."""
    for g, s, dm, reg in corpus_spectra.values():
        assert assert_same_report(g, s, dm) == reg, g.label
    assert len(corpus_spectra) == 55
    for spec in ("odd:6", "hypercube:7"):
        for seed in (7, 31):
            g = relabelled(spec, seed)
            assert_same_report(g, spectrum(g), distance_matrix(g))


@pytest.mark.parametrize("spec,tier", [
    ("kneser:12,5", "ladder float32"),
    ("prism:30", "ladder float64"),
    ("cycle:101", "ladder float64"),
    ("prism:40", "ladder int"),
    ("cycle:121", "ladder int"),
])
def test_regularity_tier_switches_match_float64_reference(spec, tier, monkeypatch):
    """A graph on each side of each type switch: the ladder runs in float32
    when max_deg^d < 2^24, in float64 until max_deg^l reaches 2^53 and in
    Python ints beyond.  The tier is asserted both from the graph's
    invariants and from the types the ladder picked.  The cycles are
    distance-regular, so classify_regularity reads them off their
    intersection numbers, and kneser:12,5 and prism:40 are vertex-transitive
    with n >= DISCOVERY_MIN_N, so it reads them off their quotient; neither
    picks a float type, and the ladder run on them directly picks its tier
    and gives the same closed walks."""
    g = generate(FamilySpec.parse(spec))
    s, dm = spectrum(g), distance_matrix(g)
    top = int(g.degrees().max())
    exact_float, picked = spectra._exact_float, []

    def spy(bound):
        picked.append((bound, exact_float(bound)))
        return picked[-1][1]

    monkeypatch.setattr(spectra, "_exact_float", spy)
    rep = assert_same_report(g, s, dm)
    kind = tier.split()[1]
    if rep.is_distance_regular or g.n >= symmetry.DISCOVERY_MIN_N:
        assert picked == [], spec
        ladder = spectra.walk_ladder(g, s)
        assert ladder.closed_walks == rep.closed_walks, spec
    bound = top ** s.d
    assert (kind == "float32") == (bound < 2 ** 24), spec
    assert (kind == "int") == (bound >= 2 ** 53), spec
    want = {"float32": np.float32, "float64": np.float64, "int": None}
    assert (bound, want[kind]) in picked, spec
    assert any(t is None for _, t in picked) == (kind == "int"), spec
    assert rep.is_walk_regular, spec


def test_regularity_transient_memory():
    """On kneser:12,5 (n = 792, not distance-regular) the float32 ladder
    keeps its traced peak above its inputs within 14 bytes per vertex pair
    (12.02 measured); the float64 products took 25.  On odd:6 (n = 462,
    distance-regular) the intersection sums alone serve
    classify_regularity.  The analysis's spectrum and report together,
    taken after its distance matrix, stay within 1.5 bytes per pair on
    both: on odd:6 a block of gathered distance rows and its sums, no copy
    of A (0.98 measured; 4.95 with a float32 copy of A and a block of the
    product, 13.07 with the eigensolver, the ladder and the whole product),
    and on kneser:12,5 the adjacency lists, the refinement around vertex 0
    and its quotient (0.95 measured; 12.04 with the eigensolver and the
    ladder)."""
    g = generate(FamilySpec.parse("kneser:12,5"))
    s = spectrum(g)
    rep, peak = traced_peak(spectra.walk_ladder, g, s)
    assert rep.is_walk_regular and not rep.is_distance_regular
    assert peak <= 14 * g.n ** 2, peak / g.n ** 2
    g = generate(FamilySpec.parse("odd:6"))
    s, dm = spectrum(g), distance_matrix(g)
    rep, peak = traced_peak(classify_regularity, g, s, dm)
    assert rep.is_distance_regular
    assert peak <= 1.5 * g.n ** 2, peak / g.n ** 2
    for spec, dr in (("odd:6", True), ("kneser:12,5", False)):
        a = Analysis(generate(FamilySpec.parse(spec)))
        a.dm
        (s, rep), peak = traced_peak(lambda: (a.s, a.reg))
        assert rep.is_distance_regular == dr and rep.is_walk_regular, spec
        assert peak <= 1.5 * a.g.n ** 2, (spec, peak / a.g.n ** 2)


def test_intersection_array_skipped_when_diameter_below_d(monkeypatch):
    """kneser:8,3 and kneser:10,3 are regular with diameter 2 < d = 3: not
    distance-regular, and the intersection product is never formed, also
    on kneser:10,3 (n = 120), whose report comes off its quotient."""
    def _fail(*args):
        raise AssertionError("intersection numbers computed")

    monkeypatch.setattr(spectra, "intersection_array", _fail)
    for spec in ("kneser:8,3", "kneser:10,3"):
        g = generate(FamilySpec.parse(spec))
        s = spectrum(g)
        dm = distance_matrix(g)
        rep = classify_regularity(g, s, dm)
        assert rep.is_regular and dm.diameter != s.d, spec
        assert rep.intersection_array is None and not rep.is_distance_regular, spec


def test_walk_regular_constant_poly_diagonal(corpus_spectra):
    """For walk-regular graphs diag p(A) is constant and equals (tr p(A))/n."""
    for label in ["petersen", "hypercube:4", "odd:4", "hoffman"]:
        g, s, _, reg = corpus_spectra[label]
        assert reg.is_walk_regular
        coeffs = [0.5, -1.0, 2.0, 1.0]  # arbitrary cubic
        a = g.adjacency.astype(float)
        diag = sum(c * np.diag(np.linalg.matrix_power(a, i))
                   for i, c in enumerate(coeffs))
        w, W = diag.min(), diag.max()
        vals = np.polynomial.polynomial.polyval(s.distinct, coeffs)
        mean = float(np.dot(s.mults, vals)) / s.n
        assert w == pytest.approx(W, abs=1e-8)
        assert w == pytest.approx(mean, rel=1e-9)


def test_array_spectrum_matches_eigensolver(corpus_analyses):
    """On every distance-regular corpus graph, and on copies relabelled by
    one ``numpy.random.default_rng(seed)`` permutation at seeds 7 and 11,
    the spectrum off the intersection matrix has the eigensolver's multiplicities
    and its eigenvalues within 1e-12."""
    dr = [a.g for a in corpus_analyses.values() if a.array is not None]
    graphs = list(dr)
    for g in dr:
        for seed in (7, 11):
            perm = np.random.default_rng(seed).permutation(g.n)
            graphs.append(from_adjacency(g.adjacency[np.ix_(perm, perm)],
                                         f"{g.label}@{seed}"))
    for g in graphs:
        inter = intersection_array(g, distance_matrix(g))
        got, _ = quotient_analysis(intersection_matrix(inter), g.n, inter)
        want = spectrum(g)
        assert got.mults.tolist() == want.mults.tolist(), g.label
        assert np.abs(got.distinct - want.distinct).max() <= 1e-12, g.label
    assert len(dr) == 28


def test_array_spectrum_matches_closed_form():
    """The spectrum off the intersection matrix is the closed form's on
    odd, hypercube, Kneser, Petersen and cycle graphs (cycle:101 has d =
    50)."""
    for spec in ("odd:4", "odd:6", "hypercube:5", "hypercube:7", "kneser:7,2",
                 "kneser:9,2", "petersen", "cycle:9", "cycle:101"):
        g = generate(FamilySpec.parse(spec))
        inter = intersection_array(g, distance_matrix(g))
        got, _ = quotient_analysis(intersection_matrix(inter), g.n, inter)
        want = exact_family_spectrum(FamilySpec.parse(spec))
        assert got.mults.tolist() == want.mults.tolist(), spec
        assert np.abs(got.distinct - want.distinct).max() <= 1e-12, spec


def test_array_mesh_is_the_tridiagonal_eigvalsh(corpus_analyses):
    """On every distance-regular corpus graph, cycle:101 and cycle:1000,
    the analysis's mesh has the bytes of the reversed ``eigvalsh`` of the
    symmetric tridiagonal form of the intersection matrix (diagonal a_i,
    off-diagonal sqrt(b_i c_{i+1})), built apart from the quotient."""
    analyses = [a for a in corpus_analyses.values() if a.array is not None]
    analyses += [Analysis(generate(FamilySpec.parse(spec)))
                 for spec in ("cycle:101", "cycle:1000")]
    for a in analyses:
        b, c = a.array[0] + (0,), (0,) + a.array[1]
        diag = np.array([b[0] - bi - ci for bi, ci in zip(b, c)], dtype=float)
        off = np.sqrt(np.multiply(b[:-1], c[1:], dtype=float))
        tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        want = np.linalg.eigvalsh(tri)[::-1]
        assert a.s.distinct.tobytes() == want.tobytes(), a.g.label
    assert len(analyses) == 30


def test_cycle_closed_walks_are_central_binomials():
    """cycle:1000 has d = 500: its closed walks off the intersection matrix
    are C(l, l/2) at even l <= 500, past 2^63 from l = 68, and 0 at odd
    l."""
    reg = Analysis(generate(FamilySpec.parse("cycle:1000"))).reg
    assert reg.is_distance_regular and reg.pwr_level == 500
    assert reg.closed_walks == tuple(comb(l, l // 2) if l % 2 == 0 else 0
                                     for l in range(1, 501))
    assert reg.closed_walks[66] < 2 ** 63 < reg.closed_walks[67]


def test_analysis_takes_the_eigensolver_without_an_array(monkeypatch):
    """kneser:8,3 and kneser:10,3 are regular but not distance-regular: the
    product finds no array, and the analysis calls the eigensolver on
    kneser:8,3 (n = 56, below DISCOVERY_MIN_N) and reads kneser:10,3
    (n = 120, vertex-transitive) off its quotient.  When the multiplicity
    check fails (here a multiplicity off by 1/2 is patched in), the
    Petersen graph's analysis falls back to the eigensolver for its
    spectrum, and its report stays the one off its intersection matrix:
    distance-regular, with array ((3, 2), (1, 1))."""
    calls = []

    def counting(g):
        calls.append(g)
        return spectrum(g)

    monkeypatch.setattr(spectra, "spectrum", counting)
    for spec, solved in (("kneser:8,3", True), ("kneser:10,3", False)):
        a = Analysis(generate(FamilySpec.parse(spec)))
        assert a.array is None and a.reg.is_regular, spec
        assert not a.reg.is_distance_regular, spec
        assert calls == ([a.g] if solved else []), spec
        assert (a.quotient is None) == solved, spec
        calls.clear()
    want_reg = Analysis(generate(FamilySpec.parse("petersen"))).reg
    integral = spectra._integral_spectrum

    def off_by_half(theta, mults, n):
        return integral(theta, mults + np.eye(len(mults))[1] / 2, n)

    monkeypatch.setattr(spectra, "_integral_spectrum", off_by_half)
    a = Analysis(generate(FamilySpec.parse("petersen")))
    assert a.array == ((3, 2), (1, 1))
    want = spectrum(a.g)
    assert a.s.distinct.tobytes() == want.distinct.tobytes()
    assert a.s.mults.tolist() == want.mults.tolist()
    assert calls == [a.g]
    assert a.quotient[0] is None and a.reg == want_reg
    assert a.reg.is_distance_regular and a.reg.intersection_array == ((3, 2), (1, 1))
    assert a.reg == classify_regularity(a.g, want, a.dm)


def test_quotient_matches_eigensolver_and_ladder():
    """Called directly, with no gate: on every vertex-transitive corpus
    family, kneser:10,3, kneser:12,5, prism:40 and every connected
    circulant with 5 <= n <= 22 (one per multiplier class), the quotient
    around vertex 0 gives the eigensolver's multiplicities, its mesh within
    1e-12, and the walk ladder's report on the eigensolver's spectrum."""
    specs = FAMILY_SPECS + ["kneser:10,3", "kneser:12,5", "prism:40"] + [
        f"circulant:{n}," + ",".join(map(str, steps))
        for n in range(5, 23) for steps in circulant_classes(n)]
    checked = 0
    for spec in specs:
        g = generate(FamilySpec.parse(spec))
        if not symmetry.transitive(g):
            continue
        q = spectra.equitable_quotient(g, distance_matrix(g))
        s, reg = quotient_analysis(q, g.n)
        want = spectrum(g)
        assert s.mults.tolist() == want.mults.tolist(), spec
        assert np.abs(s.distinct - want.distinct).max() <= 1e-12, spec
        assert reg == spectra.walk_ladder(g, want), spec
        checked += 1
    assert checked == len(specs) - 1  # all but complete_bipartite:4,5


def test_quotient_falls_back_to_the_eigensolver(monkeypatch):
    """When kneser:10,3's multiplicities from the quotient fail the integer
    check (here one off by 1/2 is patched in), its analysis takes the
    eigensolver and the walk ladder, each once."""
    g = generate(FamilySpec.parse("kneser:10,3"))
    want = spectrum(g)
    ladder = spectra.walk_ladder(g, want)
    grouped = spectra._grouped

    def off_by_half(raw, weights):
        mesh, sums = grouped(raw, weights)
        if sums.dtype.kind == "f":  # the quotient's, not the eigensolver's
            sums = sums + np.eye(len(sums))[1] / 2
        return mesh, sums

    monkeypatch.setattr(spectra, "_grouped", off_by_half)
    calls = [count_calls(monkeypatch, spectra, name)
             for name in ("spectrum", "walk_ladder")]
    a = Analysis(g)
    assert a.rooted and a.array is None and a.quotient is None
    assert a.s.distinct.tobytes() == want.distinct.tobytes()
    assert a.s.mults.tolist() == want.mults.tolist()
    assert a.reg == ladder
    assert [len(c) for c in calls] == [1, 1]


def test_seeds_go_only_on_a_new_analysis():
    """A seed on an existing analysis would replace a value that every later
    caller of it reads: Analysis.of, and the keyword forms through it, raise
    ValueError and leave the analysis as it was."""
    g = generate(FamilySpec.parse("petersen"))
    a = Analysis(g)
    s, dm, reg = a.s, a.dm, a.reg
    other = spectrum(generate(FamilySpec.parse("cycle:5")))
    for seed in ({"s": other}, {"dm": dm}, {"reg": reg}, {"s": s, "dm": None}):
        with pytest.raises(ValueError):
            Analysis.of(a, **seed)
    with pytest.raises(ValueError):
        bounds.best_bounds(a, 1, s=other)
    assert (a.s, a.dm, a.reg) == (s, dm, reg)
    assert Analysis.of(a, s=None, dm=None, reg=None) is a
    seeded = Analysis.of(g, s=other)
    assert seeded is not a and seeded.s is other
