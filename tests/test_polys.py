"""Polynomial machinery: divided differences, conversions, predistance
polynomials, the MP2/MP4 index rules, and the closed-form minor polynomials
the LP reproduces."""

from fractions import Fraction

import numpy as np
import pytest

from specind.bounds import qk_bounds
from specind.errors import DegenerateInnerProduct, NoValidTheta
from specind.graphs import FamilySpec, generate
from specind.optimize import minor_polynomial, sign_polynomial
from specind.polys import (
    MeshPolynomial,
    as_fraction_string,
    divided_differences,
    mesh_to_coeffs,
    mp2_index,
    mp4_index,
    predistance_polynomials,
)
from specind.spectra import Spectrum, exact_family_spectrum


def coeffs_to_mesh(c: np.ndarray, mesh: np.ndarray) -> MeshPolynomial:
    """Reference: a coefficient vector's polynomial, valued on a mesh."""
    return MeshPolynomial(np.asarray(mesh, dtype=float),
                          np.polynomial.polynomial.polyval(mesh, c))


def degree(c: np.ndarray) -> int:
    """The index of the last nonzero coefficient (0 for the zero vector)."""
    nz = np.flatnonzero(np.abs(c) > 0)
    return int(nz[-1]) if len(nz) else 0


def petersen_spectrum():
    return exact_family_spectrum(FamilySpec.parse("petersen"))


def test_identity_polynomial_round_trip():
    s = petersen_spectrum()
    p = MeshPolynomial(s.distinct, s.distinct.copy())
    c = mesh_to_coeffs(p)
    assert np.allclose(c, [0.0, 1.0, 0.0])
    assert degree(c) == 1
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


def inner(s, u, v):
    """<p, q> = tr(p(A) q(A)) / n on mesh values."""
    return s.trace(u * v) / s.n


def test_predistance_family_properties(corpus_spectra):
    for label in ["petersen", "odd:4", "hypercube:5", "cycle:9",
                  "prism:6", "hoffman", "nauru", "frucht"]:
        _, s, _, _ = corpus_spectra[label]
        V = predistance_polynomials(s)
        # orthogonality and normalization p_i(theta_0) = ||p_i||^2
        for i in range(s.d + 1):
            for j in range(i + 1, s.d + 1):
                assert abs(inner(s, V[i], V[j])) < 1e-8, (label, i, j)
            assert V[i, 0] == pytest.approx(inner(s, V[i], V[i]), rel=1e-8)
        # sum p_i = Hoffman polynomial (mesh values (n, 0, ..., 0))
        total = V.sum(axis=0)
        assert total[0] == pytest.approx(s.n, rel=1e-8)
        assert np.allclose(total[1:], 0.0, atol=1e-6 * s.n)
        # degrees increase: p_i has exact degree i
        for i in range(s.d + 1):
            poly = mesh_to_coeffs(MeshPolynomial(s.distinct, V[i]))
            assert degree(poly) == i, (label, i)


def test_predistance_table_is_cached_and_read_only(corpus_spectra):
    """The whole (d+1)-square table is built at once, kept by the spectrum,
    and read-only; a rebuild gives its bytes."""
    for label, (_, s, _, _) in corpus_spectra.items():
        V = s.predistance
        assert V is s.predistance, label
        assert V.shape == (s.d + 1, s.d + 1), label
        assert not V.flags.writeable, label
        assert predistance_polynomials(s).tobytes() == V.tobytes(), label


def distance_polynomials(inter, theta):
    """Reference: the distance polynomials of a distance-regular graph on the
    mesh, from its intersection array ((b_0..b_{D-1}), (c_1..c_D)) by
    v_0 = 1, v_1 = x, v_{i+1} = ((x - a_i) v_i - b_{i-1} v_{i-1}) / c_{i+1}."""
    b = list(inter[0]) + [0]
    c = [0] + list(inter[1])
    a = [b[0] - b[i] - c[i] for i in range(len(b))]
    v = [np.ones_like(theta), theta.copy()]
    for i in range(1, len(b) - 1):
        v.append(((theta - a[i]) * v[i] - b[i - 1] * v[i - 1]) / c[i + 1])
    return np.array(v)


def test_predistance_matches_array_distance_polynomials(corpus_analyses):
    """On a distance-regular graph p_i is the distance-i polynomial: on every
    distance-regular corpus graph the rows equal the polynomials read off
    ``Analysis.array``, on the same mesh, to 1e-9 relative."""
    checked = 0
    for label, a in corpus_analyses.items():
        if a.array is None or a.s.d < 1:
            continue
        want = distance_polynomials(a.array, a.s.distinct)
        got = a.s.predistance
        assert got.shape == want.shape, label
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert (np.abs(got - want) <= 1e-9 * scale).all(), label
        checked += 1
    assert checked == 28


@pytest.mark.parametrize("spec", ["cycle:61", "cycle:101"])
def test_predistance_rows_are_chebyshev_on_odd_cycles(spec):
    """On an odd cycle p_i(x) = 2 T_i(x / 2) for i >= 1: on the closed-form
    mesh 2 cos(2 pi j / n) every row, d = 30 and 50 included, is that
    polynomial to 1e-12.  Rows orthogonalized from the monomials x^i were
    off it by up to 1.4e-6 (cycle:61) and 4.35 (cycle:101)."""
    s = exact_family_spectrum(FamilySpec.parse(spec))
    phi = np.arccos(np.clip(s.distinct / 2, -1.0, 1.0))
    cheb = 2 * np.cos(np.outer(np.arange(s.d + 1), phi))
    V = predistance_polynomials(s)
    assert np.abs(V[1:] - cheb[1:]).max() <= 1e-12
    assert (V[0] == 1.0).all()


def test_degenerate_row_raises():
    """A spectrum whose last two eigenvalues coincide to 1e-14 has a
    degenerate top row: its table stops below it, with rows 0 and 1, and a
    caller that reads row 2 (q'_2, the k = 2 vertex rays) gets
    DegenerateInnerProduct, while one that reads rows 0..1 does not."""
    s = Spectrum(np.array([3.0, 1.0, 1.0 - 1e-14]), np.array([1, 5, 4]))
    V = predistance_polynomials(s)
    assert V.shape == (2, 3) and not V.flags.writeable
    assert s.predistance_rows(1).tobytes() == V.tobytes()
    assert qk_bounds(s, 1)[0].applicable
    for read in (lambda: s.predistance_rows(2), lambda: qk_bounds(s, 2)):
        with pytest.raises(DegenerateInnerProduct):
            read()


def test_predistance_qk_max_at_theta0(corpus_spectra):
    """q'_k = p_1 + ... + p_k attains its maximum at theta_0."""
    for label in ["petersen", "odd:4", "hypercube:4", "nauru", "gray"]:
        _, s, _, _ = corpus_spectra[label]
        V = predistance_polynomials(s)
        for k in range(1, s.d + 1):
            qk = V[1:k + 1].sum(axis=0)
            assert qk[0] >= qk[1:].max() - 1e-8 * abs(qk[0]), (label, k)


def test_predistance_equals_distance_polynomials_on_drg(corpus_spectra):
    """On a distance-regular graph p_i(A) is the distance-i adjacency
    matrix, so p_i(theta_0) equals the number of vertices at distance i."""
    for label in ["petersen", "hypercube:4", "odd:4", "dodecahedron"]:
        g, s, dm, reg = corpus_spectra[label]
        assert reg.is_distance_regular
        V = predistance_polynomials(s)
        for i in range(s.d + 1):
            k_i = int(np.sum(dm.dist[0] == i))
            assert V[i, 0] == pytest.approx(k_i, rel=1e-8)


def polyadd_coeffs_reference(p: MeshPolynomial) -> np.ndarray:
    """Reference: the former ``mesh_to_coeffs``, the Newton expansion through
    numpy.polynomial's ``polyadd`` and ``polymul``."""
    dd = divided_differences(p)
    poly = np.polynomial.polynomial
    coeffs = np.zeros(1)
    basis = np.ones(1)
    for order, c in enumerate(dd):
        coeffs = poly.polyadd(coeffs, c * basis)
        basis = poly.polymul(basis, [-p.mesh[order], 1.0])
    out = np.zeros(len(p.mesh))
    out[: len(coeffs)] = coeffs
    out[np.abs(out) < 1e-12 * max(1.0, np.abs(out).max())] = 0.0
    return out


def test_mesh_to_coeffs_matches_polyadd_reference(corpus_spectra):
    """In-place adds and ``np.convolve`` give the reference's coefficient
    bytes on every corpus predistance row, every q'_k (k = 1..d), every
    minor polynomial (k = 1..d) and every sign certificate of a pair a
    report can reach (k < d, k <= pwr_level; Tutte k <= 3)."""
    checked = 0
    for label, (_, s, _, reg) in corpus_spectra.items():
        V = s.predistance
        meshes = [*V, *(V[1:k + 1].sum(axis=0) for k in range(1, s.d + 1))]
        meshes += [minor_polynomial(s, k).values for k in range(1, s.d + 1)]
        meshes += [sign_polynomial(s, k).sign_mesh.values
                   for k in range(1, min(s.d, reg.pwr_level + 1))]
        for values in meshes:
            p = MeshPolynomial(s.distinct, values.copy())
            got = mesh_to_coeffs(p)
            assert got.tobytes() == polyadd_coeffs_reference(p).tobytes(), label
            checked += 1
    assert checked == 1025  # 324 rows, 269 q'_k, 269 minor, 163 sign


def test_hoffman_polynomial_petersen():
    """H = n e_0 on the mesh; in coefficient form H(A) = J on a connected
    regular graph."""
    s = petersen_spectrum()
    vals = np.zeros(s.d + 1)
    vals[0] = s.n
    H = mesh_to_coeffs(MeshPolynomial(s.distinct, vals))
    a = generate(FamilySpec.parse("petersen")).adjacency.astype(float)
    HA = sum(c * np.linalg.matrix_power(a, i) for i, c in enumerate(H))
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


def _moved(s, i, steps):
    """s with theta_i moved by ``steps`` ulp of max(1, |theta_i|)."""
    theta = s.distinct.copy()
    theta[i] += steps * np.spacing(max(1.0, abs(theta[i])))
    return Spectrum(theta, s.mults.copy())


@pytest.mark.parametrize("steps", [-2, 2])
def test_index_rules_ignore_rounding_at_their_threshold(steps):
    """MP2's threshold -1 is an eigenvalue of odd:6 (mesh 6, 4, 2, -1, ...)
    and MP4's threshold 0 one of hypercube:6 (bipartite, delta = 0): moved
    2 ulp either way, as an eigensolver may round it, the eigenvalue still
    counts as equal to the threshold, and neither index moves."""
    odd6 = exact_family_spectrum(FamilySpec.parse("odd:6"))
    cube = exact_family_spectrum(FamilySpec.parse("hypercube:6"))
    assert mp2_index(_moved(odd6, 3, steps)) == mp2_index(odd6) == 2
    assert mp4_index(_moved(cube, 3, steps), 0.0) == mp4_index(cube, 0.0) == 3


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
