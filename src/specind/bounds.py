"""Every upper bound on the k-independence number, plus the aggregator.

All public reports use decreasing theta-indexing.  Values are reported both
raw and floored; comparisons against exact values use floors, matching the
usual table convention.  ``best_bounds`` decides every hypothesis
(regularity, pwr level, walk-regularity); the bound functions assume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optimize
from .errors import (
    BadNormalization,
    DegeneratePolynomial,
    NotRegular,
    NoValidTheta,
    SpecindError,
    TraceNotZero,
)
from .graphs import DistanceMatrix, Graph, distance_matrix
from .polys import (
    CoeffPolynomial,
    MeshPolynomial,
    PredistanceFamily,
    mesh_to_coeffs,
    mp2_index,
    mp4_index,
    predistance_polynomials,
)
from .spectra import (
    PiProducts,
    RegularityReport,
    Spectrum,
    classify_regularity,
    diagonal_stats,
    pi_products,
    spectrum,
)

_SIGN_TOL = 1e-9

METHODS = (
    "trivial", "cvetkovic", "hoffman", "inertia_general", "ratio_general",
    "pwr_inertia", "pwr_ratio", "mp2", "mp3",
    "dminus1_inertia_even", "dminus1_inertia_odd", "dminus1_ratio_odd",
    "qk_inertia", "qk_ratio", "pd_ratio", "exact",
)


@dataclass(frozen=True)
class BoundReport:
    method: str
    k: int
    value: float
    certificate: object = None  # MeshPolynomial / CoeffPolynomial / None
    applicable: bool = True
    reason: str = ""

    @property
    def floor_value(self) -> int:
        return math.floor(self.value + _SIGN_TOL)

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method,
            "k": self.k,
            "value": float(self.value) if self.applicable else None,
            "floor": self.floor_value if self.applicable else None,
            "applicable": self.applicable,
            "reason": self.reason,
        }
        if self.certificate is not None and hasattr(self.certificate, "to_json_dict"):
            out["certificate"] = self.certificate.to_json_dict()
        return out


def _inapplicable(method: str, k: int, reason: str) -> BoundReport:
    return BoundReport(method, k, float("nan"), None, False, reason)


def _sign_counts(mults: np.ndarray, values: np.ndarray) -> tuple:
    """Multiplicity-weighted counts of values >= 0 and of values <= 0.  A fuzz
    of 1e-9 max(1, max|v|) around true zeros is forgiven, so zeros count on
    both sides."""
    tol = _SIGN_TOL * max(1.0, float(np.abs(values).max()))
    return int(mults[values >= -tol].sum()), int(mults[values <= tol].sum())


# ---------------------------------------------------------------------------
# Classic k=1 bounds


def cvetkovic_bound(raw: np.ndarray) -> BoundReport:
    """Inertia bound: zeros count on both sides."""
    raw = np.asarray(raw, dtype=float)
    return BoundReport("cvetkovic", 1,
                       float(min(_sign_counts(np.ones(len(raw), dtype=int), raw))))


def hoffman_bound(n: int, lam1: float, lamn: float) -> BoundReport:
    """Ratio bound n / (1 - lambda_1/lambda_n) for regular graphs."""
    return BoundReport("hoffman", 1, n / (1.0 - lam1 / lamn))


# ---------------------------------------------------------------------------
# General-polynomial bounds (arbitrary graphs)


def inertia_general(g: Graph, p: CoeffPolynomial, k: int,
                    s: Spectrum | None = None) -> BoundReport:
    if s is None:
        s = spectrum(g)
    w, W = diagonal_stats(g, p.coeffs)
    vals = p(s.raw)
    tol = _SIGN_TOL * max(1.0, np.abs(vals).max())
    side1 = int(np.sum(vals >= w - tol))
    side2 = int(np.sum(vals <= W + tol))
    return BoundReport("inertia_general", k, float(min(side1, side2)), p)


def ratio_general(g: Graph, p: CoeffPolynomial, k: int,
                  s: Spectrum | None = None) -> BoundReport:
    if not g.is_regular():
        raise NotRegular("ratio-type bound requires a regular graph")
    if s is None:
        s = spectrum(g)
    w, W = diagonal_stats(g, p.coeffs)
    vals = p(s.raw)
    lam = float(vals[1:].min())
    p1 = float(vals[0])
    if p1 <= lam + _SIGN_TOL * max(1.0, abs(p1)):
        raise DegeneratePolynomial("requires p(lambda_1) > lambda(p)")
    return BoundReport("ratio_general", k, g.n * (W - lam) / (p1 - lam), p)


# ---------------------------------------------------------------------------
# Multiplicity-form bounds for k-partially walk-regular graphs


def pwr_inertia(s: Spectrum, sp: MeshPolynomial, k: int) -> BoundReport:
    """Sum of multiplicities where the trace-zero sign polynomial is >= 0."""
    tr = float(np.dot(s.mults, sp.values))
    if abs(tr) > 1e-7 * max(1.0, float(np.abs(sp.values).max())):
        raise TraceNotZero(f"trace {tr} is not zero")
    return BoundReport("pwr_inertia", k,
                       float(_sign_counts(s.mults, sp.values)[0]), sp)


def pwr_ratio(s: Spectrum, f: MeshPolynomial, k: int) -> BoundReport:
    """Trace bound sum m_i f(theta_i) for a normalized minor polynomial."""
    vals = f.values
    scale = max(1.0, float(np.abs(vals).max()))
    if abs(vals[0] - 1.0) > 1e-7 or abs(float(vals[1:].min())) > 1e-7 * scale:
        raise BadNormalization("need f(theta_0)=1 and min_{i>=1} f(theta_i)=0")
    return BoundReport("pwr_ratio", k, float(np.dot(s.mults, vals)), f)


def sign_to_minor(sp: MeshPolynomial) -> tuple:
    """f = (1+s)/(1+s(theta_0)); returns (f, the n/(1+s(theta_0)) bound factor)."""
    s0 = float(sp.values[0])
    if abs(1.0 + s0) < 1e-12:
        raise ZeroDivisionError("s(theta_0) = -1 is degenerate")
    f = MeshPolynomial(sp.mesh, (1.0 + sp.values) / (1.0 + s0))
    return f, 1.0 + s0


def minor_to_sign(f: MeshPolynomial, s: Spectrum) -> MeshPolynomial:
    """s = (n / tr f(A)) * f - 1."""
    tr = float(np.dot(s.mults, f.values))
    if abs(tr) < 1e-12:
        raise ZeroDivisionError("tr f(A) = 0 is degenerate")
    return MeshPolynomial(f.mesh, (s.n / tr) * f.values - 1.0)


# ---------------------------------------------------------------------------
# Closed-form alpha_2 / alpha_3 bounds


def alpha2_bound(s: Spectrum) -> BoundReport:
    """n (theta_0 + theta_i theta_{i+1}) / ((theta_0-theta_i)(theta_0-theta_{i+1}))
    with theta_i the smallest eigenvalue greater than -1."""
    theta = s.distinct
    try:
        i = mp2_index(s)
    except NoValidTheta as exc:
        return _inapplicable("mp2", 2, str(exc))
    t0, ti, tj = theta[0], theta[i], theta[i + 1]
    val = s.n * (t0 + ti * tj) / ((t0 - ti) * (t0 - tj))
    return BoundReport("mp2", 2, float(val))


def alpha3_bound(s: Spectrum, delta: float) -> BoundReport:
    """Cubic closed-form bound; delta is the constant diagonal of A^3."""
    theta = s.distinct
    if s.d < 3:
        return _inapplicable("mp3", 3, "needs at least four distinct eigenvalues")
    try:
        i = mp4_index(s, delta)
    except NoValidTheta as exc:
        return _inapplicable("mp3", 3, str(exc))
    t0, ti, tj, td = theta[0], theta[i], theta[i + 1], theta[-1]
    num = delta - ti * tj * td - t0 * (ti + tj + td)
    val = s.n * num / ((t0 - ti) * (t0 - tj) * (t0 - td))
    try:
        same = i == mp2_index(s)
    except NoValidTheta:
        same = False
    reason = "" if same else "MP3 (theta_i > -1) selects a different index"
    return BoundReport("mp3", 3, float(val), reason=reason)


# ---------------------------------------------------------------------------
# k = d-1 bounds for walk-regular graphs


def dminus1_bounds(s: Spectrum, pi: PiProducts) -> list:
    """All alpha_{d-1} bounds for walk-regular graphs (even-index inertia,
    odd-index inertia and ratio forms, the i = d specialization, and the
    aggregate single-nonzero minor-polynomial bound)."""
    d = s.d
    k = d - 1
    out = []
    for i in range(1, d // 2 + 1):
        j = 2 * i
        if abs(s.mults[j] - pi.pi[0] / pi.pi[j]) < 1e-9 * s.mults[j]:
            out.append(_inapplicable(
                "dminus1_inertia_even", k,
                f"m_{j} = pi_0/pi_{j}: even-index inertia bound inapplicable"))
        else:
            out.append(BoundReport("dminus1_inertia_even", k, float(s.mults[j]),
                                   reason=f"i={j}"))
    for i in range(1, (d + 1) // 2 + 1):
        j = 2 * i - 1
        out.append(BoundReport("dminus1_inertia_odd", k, 1.0 + s.mults[j],
                               reason=f"i={j}"))
        out.append(BoundReport("dminus1_ratio_odd", k,
                               1.0 + s.mults[j] * pi.pi[j] / pi.pi[0],
                               reason=f"i={j}"))
    # the i = d specialization
    if d % 2 == 0:
        if abs(s.mults[d] - pi.pi[0] / pi.pi[d]) >= 1e-9 * s.mults[d]:
            out.append(BoundReport("dminus1_inertia_even", k, float(s.mults[d]),
                                   reason="i=d (even d)"))
    else:
        out.append(BoundReport(
            "dminus1_ratio_odd", k,
            1.0 + s.mults[d] * min(1.0, pi.pi[d] / pi.pi[0]),
            reason="i=d (odd d)"))
    # aggregate: best single-nonzero minor polynomial over odd indices
    best = min(1.0 + s.mults[j] * pi.pi[j] / pi.pi[0] for j in range(1, d + 1, 2))
    out.append(BoundReport("dminus1_ratio_odd", k, float(best),
                           reason="min over odd indices"))
    return out


# ---------------------------------------------------------------------------
# Predistance-polynomial bounds


def qk_bounds(g: Graph, s: Spectrum, pd: PredistanceFamily, k: int) -> tuple:
    """Inertia and ratio bounds driven by q'_k = p_1 + ... + p_k."""
    qk = pd.mesh_values[1:k + 1].sum(axis=0)
    rep_i = BoundReport("qk_inertia", k, float(min(_sign_counts(s.mults, qk))),
                        mesh_to_coeffs(MeshPolynomial(s.distinct, qk)))
    lam = float(qk[1:].min())
    if lam >= 0:
        rep_r = _inapplicable("qk_ratio", k, "lambda(q'_k) >= 0")
    else:
        rep_r = BoundReport("qk_ratio", k, g.n / (1.0 - qk[0] / lam))
    return rep_i, rep_r


def pd_ratio_bound(s: Spectrum, pd: PredistanceFamily) -> BoundReport:
    """alpha_{d-1} <= n (1 + Lambda(p_d)) / (n + Lambda(p_d) - p_d(theta_0));
    tight (= r) for r-antipodal distance-regular graphs."""
    if s.d < 2:
        return _inapplicable("pd_ratio", 0, "d - 1 = 0 is out of range")
    pdv = pd.mesh_values[-1]
    Lam = float(pdv.max())
    val = s.n * (1.0 + Lam) / (s.n + Lam - pdv[0])
    if abs(Lam - pdv[0]) < 1e-8 * max(1.0, abs(Lam)):
        reason = ("bound = 1 + p_d(theta_0); attained by r-antipodal "
                  "distance-regular graphs")
    else:
        reason = ""
    return BoundReport("pd_ratio", s.d - 1, float(val), reason=reason)


# ---------------------------------------------------------------------------
# Aggregator


def best_bounds(g: Graph, k: int, s: Spectrum | None = None,
                dm: DistanceMatrix | None = None,
                reg: RegularityReport | None = None,
                sign_budget: float = 30.0,
                pd: PredistanceFamily | None = None) -> list:
    """Run every applicable method for alpha_k and mark the minimum floor.
    ``sign_budget`` is the sign-pattern search's wall-clock budget in s;
    ``pd``, when given, is ``predistance_polynomials(s)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if dm is None:
        dm = distance_matrix(g)
    if k >= dm.diameter:
        return [BoundReport("trivial", k, 1.0, reason="k >= diameter")]
    if s is None:
        s = spectrum(g)
    if reg is None:
        reg = classify_regularity(g, s, dm)
    d = s.d
    out = []
    if k == 1:
        out.append(cvetkovic_bound(s.raw))
        if reg.is_regular:
            out.append(hoffman_bound(g.n, float(s.raw[0]), float(s.raw[-1])))
    if pd is None and reg.pwr_level >= k:
        pd = predistance_polynomials(s)
    if reg.pwr_level >= k and k < d:
        try:
            sol = optimize.sign_polynomial(s, k, sign_budget, pd=pd)
            out.append(pwr_inertia(s, sol.sign_mesh, k))
        except SpecindError as exc:
            out.append(_inapplicable("pwr_inertia", k,
                                     f"sign search failed: {exc}"))
        if reg.is_regular:
            try:
                f = optimize.minor_polynomial(s, k, pd=pd)
                out.append(pwr_ratio(s, f, k))
            except SpecindError as exc:
                out.append(_inapplicable("pwr_ratio", k, f"LP failed: {exc}"))
        else:
            out.append(_inapplicable("pwr_ratio", k,
                                     "ratio-type bounds require a regular graph"))
    if k == 2 and reg.pwr_level >= 2:
        out.append(alpha2_bound(s))
    if k == 3 and reg.pwr_level >= 3:
        out.append(alpha3_bound(s, float(reg.closed_walks[2])))
    if k == d - 1 and reg.is_walk_regular:
        out.extend(dminus1_bounds(s, pi_products(s)))
    if reg.pwr_level >= k:
        rep_i, rep_r = qk_bounds(g, s, pd, k)
        out.append(rep_i)
        if reg.is_regular:
            out.append(rep_r)
        else:
            out.append(_inapplicable("qk_ratio", k,
                                     "ratio-type bounds require a regular graph"))
        if k == d - 1 and reg.is_walk_regular:
            out.append(pd_ratio_bound(s, pd))
    return out


def minimum_floor(reports) -> int:
    vals = [r.floor_value for r in reports if r.applicable and r.method != "exact"]
    if not vals:
        raise ValueError("no applicable bound")
    return min(vals)


def reports_to_csv(reports) -> str:
    lines = ["method,k,value,floor,applicable,reason"]
    for r in reports:
        val = f"{r.value:.10g}" if r.applicable else ""
        flo = str(r.floor_value) if r.applicable else ""
        reason = '"%s"' % r.reason.replace('"', '""') if ("," in r.reason or '"' in r.reason) else r.reason
        lines.append(f"{r.method},{r.k},{val},{flo},{r.applicable},{reason}")
    return "\n".join(lines) + "\n"
