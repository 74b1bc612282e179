"""Polynomial machinery: divided differences, conversions, predistance
polynomials, Hoffman polynomial, closed-form minor polynomials."""

from fractions import Fraction

import numpy as np
import pytest

from specind.errors import MissingAux, NoValidTheta, UnsupportedK
from specind.graphs import FamilySpec
from specind.polys import (
    MeshPolynomial,
    as_fraction_string,
    coeffs_to_mesh,
    divided_differences,
    hoffman_polynomial,
    mesh_to_coeffs,
    minor_closed_form,
    mp2_index,
    mp3_approximation,
    mp4_index,
    predistance_polynomials,
    spectral_inner,
)
from specind.spectra import exact_family_spectrum, pi_products


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
    s = petersen_spectrum()
    H = hoffman_polynomial(s)
    # H(A) = J for connected regular graphs: H(3) = 10, H(1) = H(-2) = 0
    assert H(3.0) == pytest.approx(10.0, rel=1e-12)
    assert H(1.0) == pytest.approx(0.0, abs=1e-9)
    assert H(-2.0) == pytest.approx(0.0, abs=1e-9)


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
    s = petersen_spectrum()
    f0 = minor_closed_form(s, 0)
    assert np.allclose(f0.values, 1.0)
    f1 = minor_closed_form(s, 1)
    # (x - theta_d)/(theta_0 - theta_d) on mesh (3, 1, -2)
    assert np.allclose(f1.values, [1.0, 0.6, 0.0])


def test_minor_closed_form_k_equals_d():
    s = exact_family_spectrum(FamilySpec.parse("odd:5"))
    fd = minor_closed_form(s, s.d)
    assert fd.values[0] == 1.0 and np.allclose(fd.values[1:], 0.0)


def test_minor_closed_form_k3_requires_delta():
    # d must exceed 4 so that k = 3 is not the d-1 or d special case
    s = exact_family_spectrum(FamilySpec.parse("odd:6"))
    with pytest.raises(MissingAux):
        minor_closed_form(s, 3)


def test_minor_closed_form_unsupported_k():
    s = exact_family_spectrum(FamilySpec.parse("hypercube:7"))
    with pytest.raises(UnsupportedK):
        minor_closed_form(s, 4)  # d = 7: k = 4 has no closed form


def test_minor_closed_form_dminus1():
    s = exact_family_spectrum(FamilySpec.parse("odd:6"))
    pi = pi_products(s)
    f = minor_closed_form(s, s.d - 1, pi=pi)
    # single nonzero value at an odd index i with value pi_i/pi_0, chosen to
    # minimize the trace 1 + m_i pi_i/pi_0 (= 11 for O_6, ties allowed)
    assert f.values[0] == 1.0
    nz = np.flatnonzero(f.values[1:]) + 1
    assert len(nz) == 1 and nz[0] % 2 == 1
    i = int(nz[0])
    assert f.values[i] == pytest.approx(pi.pi[i] / pi.pi[0], rel=1e-9)
    assert float(np.dot(s.mults, f.values)) == pytest.approx(11.0, rel=1e-9)


def test_no_valid_theta():
    s = exact_family_spectrum(FamilySpec.parse("complete:5"))
    with pytest.raises(NoValidTheta):
        mp2_index(s)  # mesh (4, -1): no interior eigenvalue > -1


def test_mp3_approximation_consistency():
    s = exact_family_spectrum(FamilySpec.parse("odd:5"))
    p, i = mp3_approximation(s)
    assert i == mp2_index(s)
    assert p.values[0] == pytest.approx(1.0, rel=1e-9)


def test_as_fraction_string():
    assert as_fraction_string(0.5) == "1/2"
    assert as_fraction_string(13.5) == "27/2"
    assert as_fraction_string(float(Fraction(5, 14))) == "5/14"
    assert as_fraction_string(3.0) == "3"
