"""Polynomials on the spectral mesh.

The mesh-value representation (values at theta_0 > ... > theta_d) is primary:
every bound is linear in mesh values.  The predistance polynomials, orthogonal
under the spectral inner product <p, q> = tr(p(A) q(A)) / n (``Spectrum.trace``
of the product of mesh values), span the sign arrangement whose vertex rays
give the sign polynomial's negative set at k <= 3, and q'_k sums them; each
spectrum keeps them as ``Spectrum.predistance``, one read-only table of up
to d+1 rows built whole by the discretized Stieltjes procedure.  Every
certificate a report carries is a ``MeshPolynomial``; coefficient form
(``mesh_to_coeffs``, by Newton expansion) is computed only for the
sign-odd6 table replay, which prints it.
The closed-form alpha_2 and alpha_3 bounds in ``bounds`` pick their zeros
with the MP2 and MP4 index rules kept here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import NoValidTheta

if TYPE_CHECKING:  # spectra imports this module for Spectrum.predistance
    from .spectra import Spectrum

FRACTION_MAX_DEN = 10_000  # as_fraction_string: the largest denominator
FRACTION_TOL = 1e-9        # and the distance within which p/q stands for x


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


def divided_differences(p: MeshPolynomial) -> np.ndarray:
    """Leading Newton divided differences f[theta_0..theta_m], m = 0..d."""
    x = p.mesh
    table = p.values.astype(float).copy()
    out = [table[0]]
    for order in range(1, len(x)):
        table = (table[1:] - table[:-1]) / (x[order:] - x[:-order])
        out.append(table[0])
    return np.array(out)


def mesh_to_coeffs(p: MeshPolynomial) -> np.ndarray:
    """Coefficients a_0..a_d, ascending, of the unique interpolating
    polynomial of degree <= d, via Newton expansion:
    sum_m f[theta_0..theta_m] prod_{l<m} (x - theta_l), each product one
    convolution with (x - theta_l) longer than the last."""
    out = np.zeros(len(p.mesh))
    basis = np.ones(1)  # prod_{l<order} (x - theta_l)
    for order, c in enumerate(divided_differences(p)):
        out[:order + 1] += c * basis
        basis = np.convolve(basis, [-p.mesh[order], 1.0])
    # clip float fuzz in the leading terms
    out[np.abs(out) < 1e-12 * max(1.0, np.abs(out).max())] = 0.0
    return out


def predistance_polynomials(s: Spectrum) -> np.ndarray:
    """p_0..p_d on the mesh, a (d+1, d+1) read-only array (fewer rows when
    one is degenerate, see below), orthogonal under
    <p, q> = tr(p(A) q(A)) / n and scaled so that p_i(theta_0) = ||p_i||^2;
    ``s.predistance`` keeps it.  Row i starts from theta p_{i-1} (the
    discretized Stieltjes procedure), so it has degree i by construction:
    the three-term step removes p_{i-1} and p_{i-2}, and one Gram-Schmidt
    pass against all lower rows removes what rounding left of them.  The
    table stops below the first degenerate row (norm <= 0, or
    |p_i(theta_0)| < 1e-13 max|p_i|): rows 0..i-1 are returned, and
    ``Spectrum.predistance_rows`` raises ``DegenerateInnerProduct`` for a
    caller that reads row i or above."""
    theta, w = s.distinct, s.mults / s.n
    P = np.ones((s.d + 1, s.d + 1))
    sq = np.ones(s.d + 1)  # ||p_i||^2
    for i in range(1, s.d + 1):
        vec = theta * P[i - 1]
        for lo in (max(i - 2, 0), 0):  # the three-term step, then all rows
            vec -= ((P[lo:i] * w) @ vec / sq[lo:i]) @ P[lo:i]
        norm = (w * vec) @ vec
        if norm <= 0 or abs(vec[0]) < 1e-13 * np.abs(vec).max():
            P = P[:i]
            break
        P[i] = vec[0] / norm * vec
        sq[i] = (w * P[i]) @ P[i]
    P.setflags(write=False)
    return P


# ---------------------------------------------------------------------------
# Closed-form index rules (MP2, MP4)


def _theta_above(s: Spectrum, threshold: float, strict: bool) -> int:
    """Index of the smallest eigenvalue > threshold (or >= when not strict);
    must leave room for a successor on the mesh.  An eigenvalue within
    1e-9 max(1, |threshold|) of the threshold counts as equal to it (the
    fuzz of ``bounds._SIGN_TOL``), so the index does not depend on how the
    eigenvalue was rounded."""
    theta = s.distinct
    tol = 1e-9 * max(1.0, abs(threshold))
    ok = [i for i in range(1, s.d)
          if (theta[i] > threshold + tol if strict else theta[i] >= threshold - tol)]
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


def as_fraction_string(x: float) -> str:
    """Render a value as p/q when it is within FRACTION_TOL of a rational
    with denominator at most FRACTION_MAX_DEN."""
    fr = Fraction(x).limit_denominator(FRACTION_MAX_DEN)
    if abs(float(fr) - x) < FRACTION_TOL:
        return str(fr)
    return repr(x)
