"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion.  Every expected value here is cross-checked elsewhere in the
suite against independent oracles; this module is the single go/no-go list."""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import check_hypercube_pi_ratios

from specind.bounds import (
    cvetkovic_bound,
    hoffman_bound,
    pd_ratio_bound,
    qk_bounds,
)
from specind.ch import antipodal_check, ch_classify
from specind.exact import alpha_k_exact
from specind.graphs import FamilySpec, generate
from specind.optimize import minor_polynomial, sign_polynomial
from specind.polys import mesh_to_coeffs
from specind.spectra import (
    exact_family_spectrum,
    group_eigenvalues,
    spectrum,
    srg_raw_spectrum,
)

TABLES_DIR = Path(__file__).resolve().parents[1] / "src" / "specind" / "data" / "tables"


def timed(fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    return out, time.monotonic() - t0


def test_criterion_01_classic_bounds_table1_subset():
    cases = [
        ("petersen", 4, 4, 4),
        ("cycle:5", 2, 2, 2),
        ("hypercube:5", 16, 16, 16),
        ("circulant:10,1,2", 3, 4, 3),
    ]
    for spec, alpha, inertia, ratio_floor in cases:
        g = generate(FamilySpec.parse(spec))
        t0 = time.monotonic()
        s = spectrum(g)
        assert alpha_k_exact(g, 1).alpha_k == alpha, spec
        assert cvetkovic_bound(s).value == inertia, spec
        hb = hoffman_bound(g.n, float(s.distinct[0]), float(s.distinct[-1]))
        assert hb.floor_value == ratio_floor, spec
        assert time.monotonic() - t0 < 1.0, spec


def test_criterion_02_srg_spectra_table2_subset():
    cases = [
        ((16, 5, 0, 2), 5, 6),     # Clebsch
        ((50, 7, 0, 1), 21, 15),   # Hoffman-Singleton
        ((100, 22, 0, 6), 22, 26),  # Higman-Sims (no exact alpha required)
    ]
    for params, inertia, ratio_floor in cases:
        s = group_eigenvalues(srg_raw_spectrum(*params))
        assert cvetkovic_bound(s).value == inertia, params
        hb = hoffman_bound(s.n, float(s.distinct[0]), float(s.distinct[-1]))
        assert hb.floor_value == ratio_floor, params


def test_criterion_03_minor_lp_reproduces_odd_tables():
    rows = json.loads((TABLES_DIR / "minor-odd.json").read_text())["rows"]
    t0 = time.monotonic()
    traces = {("odd:5", 1): 56.0, ("odd:5", 2): 13.5, ("odd:5", 3): 8.5,
              ("odd:6", 1): 210.0, ("odd:6", 2): 66.0, ("odd:6", 3): 21.0,
              ("odd:6", 4): 11.0}
    seen = set()
    for row in rows:
        fam, k = row["family"], row["k"]
        s = exact_family_spectrum(FamilySpec.parse(fam))
        f = minor_polynomial(s, k)
        want = [float(Fraction(v)) for v in row["values"]]
        assert np.allclose(f.values, want, atol=1e-8), (fam, k)
        tr = s.trace(f.values)
        assert tr == pytest.approx(float(Fraction(row["trace"])), abs=1e-8)
        if (fam, k) in traces:
            assert tr == pytest.approx(traces[(fam, k)], abs=1e-8)
            seen.add((fam, k))
    assert seen == set(traces)
    assert time.monotonic() - t0 < 5.0


def test_criterion_04_sign_milp_o6_k4():
    s = exact_family_spectrum(FamilySpec.parse("odd:6"))
    sol, dt = timed(sign_polynomial, s, 4)
    assert sol.objective == 11
    v = sol.sign_mesh.values
    want = np.array([41.0, -1, -1, -1, -1, 41])
    scale = v[0] / want[0]
    assert scale > 0
    assert np.allclose(v, scale * want, atol=1e-7 * max(1.0, abs(v).max()))
    assert abs(float(np.dot(s.mults, v))) <= 1e-7 * max(1.0, abs(v).max())
    assert dt < 10.0


def test_criterion_05_o6_f4_coefficients():
    s = exact_family_spectrum(FamilySpec.parse("odd:6"))
    c = mesh_to_coeffs(minor_polynomial(s, 4))
    want = np.array([24.0, 14.0, -13.0, -2.0, 1.0, 0.0]) / 504.0
    assert np.allclose(c, want, atol=1e-9)


def test_criterion_06_exact_oracle_table4():
    cases = [("odd:3", 1, 4), ("odd:4", 2, 7), ("odd:5", 3, 7),
             ("odd:6", 4, 11)]
    for spec, k, want in cases:
        g = generate(FamilySpec.parse(spec))
        res = alpha_k_exact(g, k, timeout=120.0)
        assert res.alpha_k == want, spec
        assert res.elapsed < 120.0


def test_criterion_07_ch_classification():
    v = ch_classify(generate(FamilySpec.parse("odd:6")), 4)
    assert v.is_tight_ch and v.inertia_value == v.ratio_value == 11
    v = ch_classify(generate(FamilySpec.parse("odd:5")), 3)
    assert not v.is_tight_ch
    assert v.inertia_value == v.ratio_value == 8 and v.exact == 7
    v = ch_classify(generate(FamilySpec.parse("kneser:6,2")), 1)
    assert v.is_tight_ch and v.inertia_value == v.ratio_value == 5


def test_criterion_08_qk_ratio_table5_fixtures(corpus_spectra):
    table = json.loads((TABLES_DIR / "t5.json").read_text())
    want = {r["id"]: r["qk"] for r in table["rows"]}
    # minimum fixture coverage: Hoffman, Nauru, Frucht, and the generalized
    # Petersen (prism-like) cases Duerer and Moebius-Kantor
    musts = {"hoffman": 2, "nauru": 6, "frucht": 3,
             "durer": 3, "moebius-kantor": 4}
    for name, floor in musts.items():
        assert want[name] == floor  # table fixture sanity
        _, s, _, _ = corpus_spectra[name]
        _, ratio = qk_bounds(s, 2)
        assert ratio.applicable and ratio.floor_value == floor, name
    # every bundled Table-5 fixture matches its recorded value
    from conftest import fixture_names
    bundled = set(fixture_names())
    for name, floor in want.items():
        if name not in bundled or name not in corpus_spectra:
            continue
        _, s, _, _ = corpus_spectra[name]
        _, ratio = qk_bounds(s, 2)
        assert ratio.applicable and ratio.floor_value == floor, name


def test_criterion_09_property_suites(corpus, corpus_checks,
                                      soundness_results):
    # corpus size
    assert len(corpus) >= 40
    # soundness
    checked, _ = soundness_results
    assert checked and all(f >= e for _, _, _, f, e in checked)
    # predistance family structure and q'_k maximum
    assert corpus_checks["check_predistance_structure"] is None
    # spectral excess <-> distance-regular, both directions instance-wise
    assert corpus_checks["check_spectral_excess_theorem"] is None
    # LP/MILP determinism (bit-identical)
    assert corpus_checks["check_determinism"] is None
    # even/odd pi-sum identity and hypercube pi-ratio identity
    assert corpus_checks["check_pi_sum_identity"] is None
    check_hypercube_pi_ratios()


def test_criterion_10_antipodal_pipeline(corpus_analyses):
    for label in ["hypercube:3", "cycle:6"]:
        a = corpus_analyses[label]
        verdict = antipodal_check(a)
        assert verdict.is_antipodal and verdict.r == 2, label
        rep = pd_ratio_bound(a.s)
        assert rep.value == pytest.approx(2.0, abs=1e-9), label
