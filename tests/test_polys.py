"""Polynomial machinery: divided differences, conversions, predistance
polynomials, the MP2/MP4 index rules, and the closed-form minor polynomials
the LP reproduces."""

from fractions import Fraction

import numpy as np
import pytest

from specind.errors import NoValidTheta
from specind.graphs import FamilySpec, generate
from specind.optimize import minor_polynomial
from specind.polys import (
    MeshPolynomial,
    as_fraction_string,
    coeffs_to_mesh,
    divided_differences,
    mesh_to_coeffs,
    mp2_index,
    mp4_index,
    predistance_polynomials,
    spectral_inner,
)
from specind.spectra import exact_family_spectrum


def petersen_spectrum():
    return exact_family_spectrum(FamilySpec.parse("petersen"))


def test_identity_polynomial_round_trip():
    s = petersen_spectrum()
    p = MeshPolynomial(s.distinct, s.distinct.copy())
    c = mesh_to_coeffs(p)
    assert np.allclose(c.coeffs, [0.0, 1.0, 0.0])
    assert c.degree == 1
    back = coeffs_to_mesh(c, s.distinct)
    assert np.allclose(back.values, p.values)


def test_divided_differences_degree_detection():
    # values of x^2 on a 4-point mesh: order-3 difference vanishes
    mesh = np.array([5.0, 2.0, -1.0, -4.0])
    p = MeshPolynomial(mesh, mesh ** 2)
    dd = divided_differences(p)
    assert dd[2] == pytest.approx(1.0)
    assert dd[3] == pytest.approx(0.0, abs=1e-12)


def test_mesh_polynomial_validation():
    with pytest.raises(ValueError):
        MeshPolynomial(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        MeshPolynomial(np.array([2.0, 1.0]), np.array([0.0]))


def test_round_trip_random_polynomials():
    rng = np.random.default_rng(7)
    mesh = np.array([6.0, 4.0, 2.0, -1.0, -3.0, -5.0])
    for _ in range(20):
        vals = rng.normal(size=6)
        p = MeshPolynomial(mesh, vals)
        back = coeffs_to_mesh(mesh_to_coeffs(p), mesh)
        assert np.allclose(back.values, vals, atol=1e-9)


def test_predistance_family_properties(corpus_spectra):
    for label in ["petersen", "odd:4", "hypercube:5", "cycle:9",
                  "prism:6", "hoffman", "nauru", "frucht"]:
        _, s, _, _ = corpus_spectra[label]
        fam = predistance_polynomials(s)
        V = fam.mesh_values
        # orthogonality and normalization p_i(theta_0) = ||p_i||^2
        for i in range(s.d + 1):
            for j in range(i + 1, s.d + 1):
                assert abs(spectral_inner(s, V[i], V[j])) < 1e-8, (label, i, j)
            assert V[i, 0] == pytest.approx(fam.norms_sq[i], rel=1e-8)
        # sum p_i = Hoffman polynomial (mesh values (n, 0, ..., 0))
        total = V.sum(axis=0)
        assert total[0] == pytest.approx(s.n, rel=1e-8)
        assert np.allclose(total[1:], 0.0, atol=1e-6 * s.n)
        # degrees increase: p_i has exact degree i
        for i in range(s.d + 1):
            poly = mesh_to_coeffs(MeshPolynomial(s.distinct, V[i]))
            assert poly.degree == i, (label, i)


def per_pass_predistance_reference(s):
    """Reference: the former ``predistance_polynomials``, which recomputed
    <b_j, b_j> for every (i, pass) through ``spectral_inner``."""
    d = s.d
    basis = np.zeros((d + 1, d + 1))
    for i in range(d + 1):
        vec = s.distinct ** i
        for _ in range(2):
            for j in range(i):
                proj = (spectral_inner(s, vec, basis[j])
                        / spectral_inner(s, basis[j], basis[j]))
                vec = vec - proj * basis[j]
        basis[i] = vec
    values = np.zeros((d + 1, d + 1))
    norms = np.zeros(d + 1)
    for i in range(d + 1):
        q = basis[i]
        values[i] = q[0] / spectral_inner(s, q, q) * q
        norms[i] = spectral_inner(s, values[i], values[i])
    return values, norms


def test_predistance_matches_per_pass_reference(corpus_spectra):
    """Each <b_j, b_j> computed once gives the same bytes as the per-pass
    form on every corpus spectrum, Tutte's d = 30 included."""
    for label, (_, s, _, _) in corpus_spectra.items():
        fam = predistance_polynomials(s)
        values, norms = per_pass_predistance_reference(s)
        assert fam.mesh_values.tobytes() == values.tobytes(), label
        assert fam.norms_sq.tobytes() == norms.tobytes(), label


def test_predistance_qk_max_at_theta0(corpus_spectra):
    """q'_k = p_1 + ... + p_k attains its maximum at theta_0."""
    for label in ["petersen", "odd:4", "hypercube:4", "nauru", "gray"]:
        _, s, _, _ = corpus_spectra[label]
        fam = predistance_polynomials(s)
        for k in range(1, s.d + 1):
            qk = fam.mesh_values[1:k + 1].sum(axis=0)
            assert qk[0] >= qk[1:].max() - 1e-8 * abs(qk[0]), (label, k)


def test_predistance_equals_distance_polynomials_on_drg(corpus_spectra):
    """On a distance-regular graph p_i(A) is the distance-i adjacency
    matrix, so p_i(theta_0) equals the number of vertices at distance i."""
    for label in ["petersen", "hypercube:4", "odd:4", "dodecahedron"]:
        g, s, dm, reg = corpus_spectra[label]
        assert reg.is_distance_regular
        fam = predistance_polynomials(s)
        for i in range(s.d + 1):
            k_i = int(np.sum(dm.dist[0] == i))
            assert fam.mesh_values[i, 0] == pytest.approx(k_i, rel=1e-8)


def test_hoffman_polynomial_petersen():
    """H = n e_0 on the mesh; in coefficient form H(A) = J on a connected
    regular graph."""
    s = petersen_spectrum()
    vals = np.zeros(s.d + 1)
    vals[0] = s.n
    H = mesh_to_coeffs(MeshPolynomial(s.distinct, vals))
    a = generate(FamilySpec.parse("petersen")).adjacency.astype(float)
    HA = sum(c * np.linalg.matrix_power(a, i) for i, c in enumerate(H.coeffs))
    assert np.allclose(HA, np.ones((s.n, s.n)), atol=1e-9)


def test_mp2_index_selection():
    s5 = exact_family_spectrum(FamilySpec.parse("odd:5"))
    # mesh 5, 3, 1, -2, -4: smallest eigenvalue > -1 is 1 at index 2
    assert mp2_index(s5) == 2
    s6 = exact_family_spectrum(FamilySpec.parse("odd:6"))
    # mesh 6, 4, 2, -1, -3, -5: smallest eigenvalue > -1 is 2 at index 2
    assert mp2_index(s6) == 2


def test_mp4_index_selection():
    s5 = exact_family_spectrum(FamilySpec.parse("odd:5"))
    assert mp4_index(s5, 0.0) == 2  # zeros 1, -2 with theta_d = -4
    s6 = exact_family_spectrum(FamilySpec.parse("odd:6"))
    assert mp4_index(s6, 0.0) == 2  # zeros 2, -1 with theta_d = -5


def test_minor_closed_form_k0_k1():
    """At k = 1 the minor LP returns the closed form
    (x - theta_d)/(theta_0 - theta_d), here on the mesh (3, 1, -2)."""
    s = petersen_spectrum()
    f1 = minor_polynomial(s, 1)
    assert np.allclose(f1.values, [1.0, 0.6, 0.0])


def test_minor_closed_form_k_equals_d():
    """At k = d the minor LP returns the indicator of theta_0."""
    s = exact_family_spectrum(FamilySpec.parse("odd:5"))
    fd = minor_polynomial(s, s.d)
    assert fd.values[0] == 1.0 and np.allclose(fd.values[1:], 0.0)


def test_no_valid_theta():
    s = exact_family_spectrum(FamilySpec.parse("complete:5"))
    with pytest.raises(NoValidTheta):
        mp2_index(s)  # mesh (4, -1): no interior eigenvalue > -1


def test_as_fraction_string():
    assert as_fraction_string(0.5) == "1/2"
    assert as_fraction_string(13.5) == "27/2"
    assert as_fraction_string(float(Fraction(5, 14))) == "5/14"
    assert as_fraction_string(3.0) == "3"
