"""Corpus-wide property suites: soundness against the exact oracle,
predistance-family structure, the spectral excess theorem, determinism,
and the documented pi identities."""

import warnings

import numpy as np
import pytest

from specind.bounds import best_bounds, reports_to_csv
from specind.polys import predistance_polynomials, spectral_inner
from specind.spectra import pi_products


def test_corpus_size(corpus):
    assert len(corpus) >= 40


def test_soundness_master_property(soundness_results):
    """Every applicable bound floor >= exact alpha_k, corpus-wide."""
    checked, skipped = soundness_results
    assert len(checked) >= 200  # plenty of (graph, k, method) rows
    bad = [(lab, k, m, f, e) for lab, k, m, f, e in checked if f < e]
    assert not bad, f"unsound bounds: {bad[:10]}"


def test_soundness_coverage(soundness_results):
    """The sweep actually exercised >= 40 distinct (graph, k) instances."""
    checked, _ = soundness_results
    pairs = {(lab, k) for lab, k, *_ in checked}
    assert len(pairs) >= 40
    graphs = {lab for lab, _ in pairs}
    assert len(graphs) >= 25


def test_sweep_checks_a_fixed_set(soundness_results):
    """The oracle budget skips the same pairs on any host: odd:6 is over the
    size limit and odd:5 at k = 1 over the time budget; odd:5 k = 2 checks."""
    checked, skipped = soundness_results
    assert {(lab, k) for lab, k, _ in skipped} <= {("odd:6", None), ("odd:5", 1)}
    assert ("odd:5", 2) in {(lab, k) for lab, k, *_ in checked}


def test_second_bound_vs_first_logged_not_asserted(soundness_results):
    """Ratio-vs-inertia comparison is an empirical observation: log the
    exceptions as warnings, never fail on them."""
    checked, _ = soundness_results
    by_pair = {}
    for lab, k, method, floor, _ in checked:
        by_pair.setdefault((lab, k), {})[method] = floor
    worse = [(pair, m) for pair, m in by_pair.items()
             if "pwr_ratio" in m and "pwr_inertia" in m
             and m["pwr_ratio"] > m["pwr_inertia"]]
    if worse:
        warnings.warn(f"ratio bound worse than inertia on {len(worse)} "
                      f"instances (observation only): {worse[:5]}")


def test_predistance_structure_corpus(corpus_spectra):
    """Orthogonality, normalization, Hoffman telescoping, and q'_k maximum
    at theta_0, for every corpus graph."""
    for label, (_, s, _, _) in corpus_spectra.items():
        if s.d < 1:
            continue
        fam = predistance_polynomials(s)
        V = fam.mesh_values
        scale = max(1.0, float(np.abs(V).max()))
        for i in range(s.d + 1):
            assert V[i, 0] == pytest.approx(fam.norms_sq[i],
                                            rel=1e-8, abs=1e-8), label
            for j in range(i + 1, s.d + 1):
                ip = spectral_inner(s, V[i], V[j])
                assert abs(ip) < 1e-8 * scale, (label, i, j)
        total = V.sum(axis=0)
        assert total[0] == pytest.approx(s.n, rel=1e-8), label
        assert np.allclose(total[1:], 0.0, atol=1e-6 * s.n), label
        qk = np.zeros(s.d + 1)
        for k in range(1, s.d + 1):
            qk += V[k]
            assert qk[0] >= qk[1:].max() - 1e-8 * max(1.0, abs(qk[0])), (label, k)


def test_spectral_excess_theorem_corpus(corpus_spectra):
    """Instance-wise, both directions: for regular graphs with D = d, the
    spectral excess equals the mean excess iff distance-regular."""
    import math
    from specind.ch import mean_excess, spectral_excess
    tested_dr = tested_not = 0
    for label, (g, s, dm, reg) in corpus_spectra.items():
        if not reg.is_regular or dm.diameter != s.d:
            continue
        pe = spectral_excess(s, pi_products(s))
        me = mean_excess(g, dm)
        agree = math.isclose(pe, me, rel_tol=1e-7)
        assert agree == reg.is_distance_regular, (label, pe, me)
        tested_dr += reg.is_distance_regular
        tested_not += not reg.is_distance_regular
    assert tested_dr >= 5 and tested_not >= 5  # both directions exercised


def test_lp_milp_determinism_reports(corpus_spectra):
    """Bit-identical bound reports across two aggregator runs."""
    for label in ["petersen", "odd:4", "nauru", "hypercube:4"]:
        g, s, dm, reg = corpus_spectra[label]
        for k in (1, 2):
            if k >= dm.diameter:
                continue
            a = reports_to_csv(best_bounds(g, k, s=s, dm=dm, reg=reg))
            b = reports_to_csv(best_bounds(g, k, s=s, dm=dm, reg=reg))
            assert a == b, (label, k)


def test_pi_identities_corpus(corpus_spectra):
    """Even/odd pi-sum identity for every spectrum with d >= 1."""
    for label, (_, s, _, _) in corpus_spectra.items():
        if s.d < 1:
            continue
        pi = pi_products(s)
        ratios = pi.pi[0] / pi.pi
        assert float(ratios[0::2].sum()) == pytest.approx(
            float(ratios[1::2].sum()), rel=1e-8), label


def test_trivial_floor_at_least_one(soundness_results):
    checked, _ = soundness_results
    assert all(f >= 1 for _, _, _, f, _ in checked)
