"""Polynomials on the spectral mesh.

The mesh-value representation (values at theta_0 > ... > theta_d) is primary:
every bound is linear in mesh values.  The predistance polynomials, orthogonal
under the spectral inner product, are the basis both optimization programs
build their polynomials in.  Coefficient form is derived on demand through
Newton expansion.  The closed-form alpha_2 and alpha_3 bounds in ``bounds``
pick their zeros with the MP2 and MP4 index rules kept here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateInnerProduct, NoValidTheta
from .spectra import Spectrum


@dataclass(frozen=True)
class MeshPolynomial:
    """A polynomial given by its values on the strictly decreasing mesh."""

    mesh: np.ndarray    # theta_0 > ... > theta_d
    values: np.ndarray  # p(theta_i)

    def __post_init__(self):
        if len(self.mesh) != len(self.values):
            raise ValueError("mesh and values must have equal length")
        if np.any(np.diff(self.mesh) >= 0):
            raise ValueError("mesh must be strictly decreasing")
        self.mesh.setflags(write=False)
        self.values.setflags(write=False)

    def to_json_dict(self) -> dict:
        return {"mesh": list(map(float, self.mesh)),
                "values": list(map(float, self.values))}


@dataclass(frozen=True)
class CoeffPolynomial:
    """Coefficients a_0, ..., a_deg in ascending degree."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        nz = np.flatnonzero(np.abs(self.coeffs) > 0)
        return int(nz[-1]) if len(nz) else 0

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def to_json_dict(self) -> dict:
        return {"coeffs": list(map(float, self.coeffs))}


@dataclass(frozen=True)
class PredistanceFamily:
    """Orthogonal polynomials p_0..p_d for the spectral inner product, by
    their values on the mesh."""

    norms_sq: np.ndarray    # ||p_i||^2 = p_i(theta_0)
    mesh_values: np.ndarray  # (d+1, d+1): row i holds p_i on the mesh

    def __post_init__(self):
        self.norms_sq.setflags(write=False)
        self.mesh_values.setflags(write=False)


def divided_differences(p: MeshPolynomial) -> np.ndarray:
    """Leading Newton divided differences f[theta_0..theta_m], m = 0..d."""
    x = p.mesh
    table = p.values.astype(float).copy()
    out = [table[0]]
    for order in range(1, len(x)):
        table = (table[1:] - table[:-1]) / (x[order:] - x[:-order])
        out.append(table[0])
    return np.array(out)


def mesh_to_coeffs(p: MeshPolynomial) -> CoeffPolynomial:
    """Unique interpolating polynomial of degree <= d, via Newton expansion."""
    dd = divided_differences(p)
    poly = np.polynomial.polynomial
    coeffs = np.zeros(1)
    basis = np.ones(1)  # prod_{l<order} (x - theta_l)
    for order, c in enumerate(dd):
        coeffs = poly.polyadd(coeffs, c * basis)
        basis = poly.polymul(basis, [-p.mesh[order], 1.0])
    out = np.zeros(len(p.mesh))
    out[: len(coeffs)] = coeffs
    # clip float fuzz in the leading terms
    out[np.abs(out) < 1e-12 * max(1.0, np.abs(out).max())] = 0.0
    return CoeffPolynomial(out)


def coeffs_to_mesh(c: CoeffPolynomial, mesh: np.ndarray) -> MeshPolynomial:
    return MeshPolynomial(np.asarray(mesh, dtype=float),
                          np.asarray(c(mesh), dtype=float))


def spectral_inner(s: Spectrum, u: np.ndarray, v: np.ndarray) -> float:
    """<p, q>_G = (1/n) sum m_i p(theta_i) q(theta_i) on mesh values."""
    return float(np.dot(s.mults, u * v)) / s.n


def predistance_polynomials(s: Spectrum) -> PredistanceFamily:
    """Gram-Schmidt on 1, x, x^2, ... under the spectral inner product,
    scaled so that p_i(theta_0) = ||p_i||^2."""
    d = s.d
    theta = s.distinct
    n = s.n

    def inner(u, v):  # spectral_inner with n read once
        return float(np.dot(s.mults, u * v)) / n

    # rows: orthogonal basis values on the mesh, built from monomials, and
    # each row's <b_j, b_j>, computed once
    basis = np.zeros((d + 1, d + 1))
    sq = np.zeros(d + 1)
    for i in range(d + 1):
        vec = theta ** i
        for _ in range(2):  # re-orthogonalize once for stability
            for j in range(i):
                vec = vec - inner(vec, basis[j]) / sq[j] * basis[j]
        basis[i] = vec
        sq[i] = inner(vec, vec)
    norms = np.zeros(d + 1)
    values = np.zeros((d + 1, d + 1))
    for i in range(d + 1):
        q = basis[i]
        if sq[i] <= 0 or abs(q[0]) < 1e-13 * np.abs(q).max():
            raise DegenerateInnerProduct("degenerate spectral inner product")
        p_vals = q[0] / sq[i] * q  # p(theta_0) = ||p||^2
        values[i] = p_vals
        norms[i] = inner(p_vals, p_vals)
    return PredistanceFamily(norms, values)


# ---------------------------------------------------------------------------
# Closed-form index rules (MP2, MP4)


def _theta_above(s: Spectrum, threshold: float, strict: bool) -> int:
    """Index of the smallest eigenvalue > threshold (or >= when not strict);
    must leave room for a successor on the mesh."""
    theta = s.distinct
    ok = [i for i in range(1, s.d) if (theta[i] > threshold if strict else theta[i] >= threshold)]
    if not ok:
        raise NoValidTheta(f"no mesh eigenvalue above {threshold}")
    return max(ok)  # smallest eigenvalue = largest index


def mp2_index(s: Spectrum) -> int:
    """MP2 selection: theta_i is the smallest eigenvalue greater than -1."""
    return _theta_above(s, -1.0, strict=True)


def mp4_index(s: Spectrum, delta: float) -> int:
    """MP4 selection rule for the first zero of the cubic minor polynomial."""
    theta = s.distinct
    t0, td = theta[0], theta[-1]
    threshold = -(t0 * t0 + t0 * td - delta) / (t0 * (1 + td))
    return _theta_above(s, threshold, strict=False)


def as_fraction_string(x: float, max_den: int = 10_000, tol: float = 1e-9) -> str:
    """Render a value as p/q when it is within tol of a small rational."""
    fr = Fraction(x).limit_denominator(max_den)
    if abs(float(fr) - x) < tol:
        return str(fr)
    return repr(x)
