"""Classification machinery around equal inertia/ratio bounds.

A graph is a k-CH graph when its optimal sign and minor polynomials are
linearly related and both give the same bound on the k-independence number;
tight when that common bound is attained.  The rest of the module covers the
geometry behind the (d-1) bounds: simplex scalars for projected d-cliques,
multiplicity feasibility, spectral excess, and antipodality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optimize
from .bounds import dminus1_cap, minor_to_sign, pwr_inertia, pwr_ratio
from .errors import (
    NegativeRadicand,
    NotApplicable,
    NotPWR,
    NotRegular,
    NotSRG,
    NotWalkRegular,
    SpecindError,
)
from .exact import DEFAULT_TIMEOUT, alpha_k_exact
from .graphs import DistanceMatrix, Graph
from .polys import MeshPolynomial
from .spectra import Analysis, Spectrum

@dataclass(frozen=True)
class CHVerdict:
    k: int
    inertia_value: int
    ratio_value: int
    bounds_equal: bool
    linearly_related: bool
    is_ch: bool
    exact: int | None = None
    is_tight_ch: bool | None = None
    exact_note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "inertia": self.inertia_value,
            "ratio": self.ratio_value,
            "bounds_equal": self.bounds_equal,
            "linearly_related": self.linearly_related,
            "is_ch": self.is_ch,
            "exact": self.exact,
            "is_tight_ch": self.is_tight_ch,
            "exact_note": self.exact_note,
        }


@dataclass(frozen=True)
class SimplexGeometry:
    S: float
    R: float
    L: float
    i: int
    r: int


@dataclass(frozen=True)
class MultiplicityReport:
    r: int
    even_ok: tuple   # (index, holds, lhs, rhs) for indices 2, 4, ...
    odd_ok: tuple    # same for indices 1, 3, ...
    all_hold: bool
    max_feasible_r: int


@dataclass(frozen=True)
class AntipodalVerdict:
    is_antipodal: bool
    r: int | None
    mean_excess: float
    equalities_hold: bool
    order_identity_holds: bool
    distance_regular: bool


def linearly_related(sol: optimize.SignSolution, f: MeshPolynomial,
                     s: Spectrum) -> bool:
    """Whether a nonzero multiple of s_f = (n / tr f(A)) f - 1 is an optimal
    sign polynomial, ``sol`` being the sign search's optimum.

    s_f has trace zero and degree <= k, so s_f and -s_f are both feasible;
    a multiple a s_f has the inertia count of s_f when a > 0 and of -s_f
    when a < 0.  So one exists exactly when s_f or -s_f attains the optimum,
    whichever optimal certificate the search returned.
    """
    sf = minor_to_sign(f, s).values
    # pwr_inertia's count, with its zero tolerance and trace check; the k
    # that labels its report is not read
    counts = [pwr_inertia(s, MeshPolynomial(f.mesh, v), 0).value
              for v in (sf, -sf)]
    return sol.objective in counts


def ch_classify(g: Graph | Analysis, k: int, s: Spectrum | None = None,
                with_exact: bool = True,
                timeout: float = DEFAULT_TIMEOUT) -> CHVerdict:
    """Compare the bounds of the optimal sign and minor polynomials of ``g``."""
    a = Analysis.of(g, s=s)
    s, reg = a.s, a.reg
    if reg.pwr_level < k:
        raise NotPWR(f"graph is only {reg.pwr_level}-partially walk-regular")
    if not reg.is_regular:
        raise NotRegular("ratio-type bounds require a regular graph")
    sol = optimize.sign_polynomial(s, k)
    f = optimize.minor_polynomial(s, k)
    inertia = pwr_inertia(s, sol.sign_mesh, k).floor_value
    ratio = pwr_ratio(s, f, k).floor_value
    equal = inertia == ratio
    related = linearly_related(sol, f, s)
    is_ch = equal and related
    exact = None
    tight = None
    note = ""
    if with_exact:
        try:
            exact = alpha_k_exact(a, k, timeout=timeout).alpha_k
            tight = is_ch and inertia == exact
        except SpecindError as exc:
            note = f"exact unavailable: {exc}"
    return CHVerdict(k, inertia, ratio, equal, related, is_ch,
                     exact, tight, note)


def simplex_geometry(s: Spectrum, i: int, r: int) -> SimplexGeometry:
    """Barycenter distance S, circumradius R, and edge length L of the
    projected d-clique simplex in the theta_i eigenspace."""
    if not (0 <= i <= s.d):
        raise ValueError(f"eigenvalue index {i} out of range")
    if r < 1:
        raise ValueError("clique size r must be >= 1")
    n = s.n
    m_i = float(s.mults[i])
    ratio = s.pi[0] / s.pi[i]
    sgn = (-1) ** i
    # The cross term enters S with sign (-1)^i but R and L with the opposite
    # sign: at maximum distance (E_i)_{uv} = (-1)^i pi_0 / (n pi_i), so the
    # barycenter norm adds the cross terms while the radius and edge length
    # subtract them.  This also makes R, L >= 0 equivalent to the even-index
    # multiplicity condition m_i >= pi_0/pi_i.
    rad_s = (m_i + sgn * (r - 1) * ratio) / (r * n)
    rad_r = (r - 1) * (m_i - sgn * ratio) / (r * n)
    rad_l = 2.0 * (m_i - sgn * ratio) / n
    tol = 1e-12 * max(1.0, m_i, ratio)
    for name, rad in (("S", rad_s), ("R", rad_r), ("L", rad_l)):
        if rad < -tol:
            raise NegativeRadicand(
                f"{name}^2 = {rad} < 0: no d-clique of size {r} fits "
                f"in the theta_{i} eigenspace")
    return SimplexGeometry(math.sqrt(max(rad_s, 0.0)),
                           math.sqrt(max(rad_r, 0.0)),
                           math.sqrt(max(rad_l, 0.0)), i, r)


def multiplicity_feasibility(s: Spectrum, r: int) -> MultiplicityReport:
    """Necessary multiplicity conditions for a d-clique of size r, and the
    largest r the odd-index constraints permit."""
    tol = 1e-9
    pi = s.pi
    even, odd = [], []
    for j in range(2, s.d + 1, 2):
        rhs = pi[0] / pi[j]
        even.append((j, s.mults[j] >= rhs - tol, float(s.mults[j]), float(rhs)))
    for j in range(1, s.d + 1, 2):
        rhs = (r - 1) * pi[0] / pi[j]
        odd.append((j, s.mults[j] >= rhs - tol, float(s.mults[j]), float(rhs)))
    all_hold = all(ok for _, ok, _, _ in even + odd)
    return MultiplicityReport(r, tuple(even), tuple(odd), all_hold,
                              math.floor(dminus1_cap(s) + tol) if odd else s.n)


def spectral_excess(s: Spectrum) -> float:
    """p_d(theta_0) = n (sum_i pi_0^2 / (m_i pi_i^2))^{-1}."""
    return float(s.p_d[0])


def mean_excess(dm: DistanceMatrix) -> float:
    """Mean number of vertices at distance D, the diameter, from each vertex."""
    return float(np.mean(np.sum(dm.dist == dm.diameter, axis=1)))


def antipodal_check(a: Analysis) -> AntipodalVerdict:
    """Certify r-antipodality of the analysed graph: multiplicity equalities
    with r - 1 the mean excess, the order identity n = (r/2) sum pi_0/pi_i,
    and combinatorial distance-regularity."""
    s, reg = a.s, a.reg
    if not reg.is_walk_regular:
        raise NotWalkRegular("antipodality check requires walk-regularity")
    if a.dm.diameter < s.d:
        raise NotApplicable("diameter below spectral maximum: alpha_{d-1} = 1")
    me = mean_excess(a.dm)
    r_f = 1.0 + me
    r = round(r_f)
    is_integral = abs(r_f - r) < 1e-9 and r >= 2
    eq_ok = False
    order_ok = False
    if is_integral:
        # equality in each multiplicity condition: m_j = pi_0/pi_j, times
        # (r - 1) when j is odd
        rep = multiplicity_feasibility(s, r)
        eq_ok = all(abs(m - rhs) <= 1e-8 * max(1.0, rhs)
                    for _, _, m, rhs in rep.even_ok + rep.odd_ok)
        order = 0.5 * r * float(np.sum(s.pi[0] / s.pi))
        order_ok = abs(order - s.n) < 1e-8 * s.n
    is_dr = reg.is_distance_regular
    is_anti = is_integral and eq_ok and order_ok and is_dr
    return AntipodalVerdict(is_anti, r if is_anti else None, me,
                            eq_ok, order_ok, is_dr)


def _srg_parameters(adj: np.ndarray):
    """(n, k, lambda, mu) if the boolean adjacency matrix is strongly
    regular, else None.

    Degenerate cases with no adjacent (or no non-adjacent) pairs leave the
    corresponding parameter vacuous; they still count as strongly regular.
    """
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    if n and not np.all(deg == deg[0]):
        return None
    common = adj.astype(int) @ adj.astype(int)
    lam = np.unique(common[adj])
    mu = np.unique(common[~adj & ~np.eye(n, dtype=bool)])
    if len(lam) > 1 or len(mu) > 1:
        return None
    return (n, int(deg[0]) if n else 0,
            int(lam[0]) if len(lam) else -1, int(mu[0]) if len(mu) else -1)


def srg_tightness_check(g: Graph, witness) -> bool:
    """Haemers-Higman: for a strongly regular graph with maximum independent
    set U, both classic bounds are tight iff the subgraph induced by V - U is
    strongly regular."""
    if _srg_parameters(g.adjacency) is None:
        raise NotSRG("input graph is not strongly regular")
    keep = sorted(set(range(g.n)) - set(witness))
    sub = g.adjacency[np.ix_(keep, keep)]
    return _srg_parameters(sub) is not None
