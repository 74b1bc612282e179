"""Corpus-wide property suites: soundness against the exact oracle,
predistance-family structure, the spectral excess theorem, determinism,
and the documented pi identities."""

import warnings


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


def test_predistance_structure_corpus(corpus_checks):
    """Orthogonality, normalization, Hoffman telescoping, and q'_k maximum
    at theta_0, for every corpus graph."""
    assert corpus_checks["check_predistance_structure"] is None


def test_spectral_excess_theorem_corpus(corpus_checks):
    """Instance-wise, both directions: for regular graphs with D = d, the
    spectral excess equals the mean excess iff distance-regular."""
    assert corpus_checks["check_spectral_excess_theorem"] is None


def test_lp_milp_determinism_reports(corpus_checks):
    """Bit-identical bound reports and LP solutions across two runs."""
    assert corpus_checks["check_determinism"] is None


def test_pi_identities_corpus(corpus_checks):
    """Even/odd pi-sum identity for every spectrum with d >= 1."""
    assert corpus_checks["check_pi_sum_identity"] is None


def test_trivial_floor_at_least_one(soundness_results):
    checked, _ = soundness_results
    assert all(f >= 1 for _, _, _, f, _ in checked)
