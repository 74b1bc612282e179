"""Adjacency spectra, multiplicity grouping, pi-products, regularity classes."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, cos, pi, sqrt

import numpy as np

from .errors import EigenFailure, GroupingAmbiguity, NoClosedForm
from .graphs import DistanceMatrix, FamilySpec, Graph, distance_matrix

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues theta_0 > ... > theta_d with multiplicities."""

    distinct: np.ndarray  # decreasing
    mults: np.ndarray     # positive ints, same length
    raw: np.ndarray       # all n eigenvalues, decreasing

    def __post_init__(self):
        for arr in (self.distinct, self.mults, self.raw):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.mults.sum())

    @property
    def d(self) -> int:
        return len(self.distinct) - 1

    def to_json_dict(self) -> dict:
        def num(x):
            r = round(float(x))
            return r if abs(x - r) < 1e-9 else float(x)
        return {
            "theta": [num(t) for t in self.distinct],
            "mult": [int(m) for m in self.mults],
            "n": self.n,
        }


@dataclass(frozen=True)
class PiProducts:
    """pi_i = prod_{j != i} |theta_i - theta_j|."""

    pi: np.ndarray

    def __post_init__(self):
        self.pi.setflags(write=False)


@dataclass(frozen=True)
class RegularityReport:
    is_regular: bool
    degree: int | None
    pwr_level: int
    closed_walks: tuple  # the constant diag(A^l) for l = 1..pwr_level
    is_walk_regular: bool
    is_distance_regular: bool
    intersection_array: tuple | None


def _spectrum_from_raw(raw: np.ndarray, tol: float) -> Spectrum:
    """Group sorted raw eigenvalues into distinct values + multiplicities."""
    raw = np.sort(raw)[::-1].copy()
    scale = tol * max(1.0, abs(float(raw[0])))
    gaps = raw[:-1] - raw[1:] if len(raw) > 1 else np.array([])
    merged = gaps <= scale
    # ambiguity: a merged and an unmerged gap within a factor 10 of each other
    if len(gaps):
        small = gaps[merged]
        big = gaps[~merged]
        small = small[small > 0]
        if len(small) and len(big) and big.min() < 10 * max(small.max(), scale / 10) \
                and small.max() > big.min() / 10:
            raise GroupingAmbiguity(
                "eigenvalue gaps straddle the grouping threshold; "
                "supply an exact spectrum instead"
            )
    distinct, mults = [], []
    start = 0
    for i in range(len(raw)):
        if i == len(raw) - 1 or not merged[i]:
            group = raw[start:i + 1]
            distinct.append(float(group.mean()))
            mults.append(len(group))
            start = i + 1
    return Spectrum(np.array(distinct), np.array(mults, dtype=int), raw)


def spectrum(g: Graph, tol: float = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues of the adjacency matrix, grouped into the distinct mesh."""
    try:
        raw = np.linalg.eigvalsh(g.adjacency.astype(float))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return _spectrum_from_raw(raw, tol)


def _from_pairs(pairs) -> Spectrum:
    """Build a Spectrum from (eigenvalue, multiplicity) pairs, merging equals."""
    agg: dict = {}
    for val, m in pairs:
        key = round(float(val), 9)
        if key not in agg:
            agg[key] = 0.0, float(val)
        cur, v = agg[key]
        agg[key] = cur + m, v
    items = sorted(((v, int(m)) for m, v in agg.values()), reverse=True)
    distinct = np.array([v for v, _ in items])
    mults = np.array([m for _, m in items], dtype=int)
    raw = np.concatenate([[v] * m for v, m in items])
    return Spectrum(distinct, mults, raw)


def exact_family_spectrum(spec: FamilySpec) -> Spectrum:
    """Closed-form spectra, bypassing numerical grouping.

    Kneser/Odd eigenvalues come in the classical mu-indexing, which is not
    decreasing; this routine re-sorts into decreasing theta-indexing.
    """
    fam, p = spec.family, spec.parameters
    if fam == "petersen":
        fam, p = "kneser", (5, 2)
    if fam == "odd":
        (ell,) = p
        fam, p = "kneser", (2 * ell - 1, ell - 1)
    if fam == "kneser":
        n, k = p
        pairs = [((-1) ** j * comb(n - k - j, k - j),
                  comb(n, j) - comb(n, j - 1) if j else 1)
                 for j in range(k + 1)]
        return _from_pairs(pairs)
    if fam == "complete":
        (n,) = p
        return _from_pairs([(n - 1, 1), (-1, n - 1)])
    if fam == "complete_bipartite":
        a, b = p
        return _from_pairs([(sqrt(a * b), 1), (0, a + b - 2), (-sqrt(a * b), 1)])
    if fam == "cycle":
        (n,) = p
        return _from_pairs([(2 * cos(2 * pi * j / n), 1) for j in range(n)])
    if fam == "hypercube":
        (m,) = p
        return _from_pairs([(m - 2 * i, comb(m, i)) for i in range(m + 1)])
    if fam == "circulant":
        n, *steps = p
        return _from_pairs(
            [(sum(2 * cos(2 * pi * j * s / n) for s in steps), 1) for j in range(n)]
        )
    if fam == "prism":
        (m,) = p
        pairs = [(2 * cos(2 * pi * j / m) + e, 1) for j in range(m) for e in (1, -1)]
        return _from_pairs(pairs)
    if fam == "moebius_ladder":
        (m,) = p
        n = 2 * m
        return _from_pairs(
            [(2 * cos(2 * pi * j / n) + cos(pi * j), 1) for j in range(n)]
        )
    raise NoClosedForm(f"no closed-form spectrum for family {fam!r}")


def srg_raw_spectrum(n: int, k: int, lam: int, mu: int) -> np.ndarray:
    """Raw eigenvalue list of a strongly regular graph from its parameters."""
    disc = ((lam - mu) ** 2 + 4 * (k - mu)) ** 0.5
    r = ((lam - mu) + disc) / 2.0
    s = ((lam - mu) - disc) / 2.0
    mult_r = ((n - 1) * (-s) - k) / (r - s)
    mult_s = n - 1 - mult_r
    if abs(mult_r - round(mult_r)) > 1e-9 or mult_r < 0 or mult_s < 0:
        raise NoClosedForm(f"infeasible strongly regular parameters "
                           f"({n}, {k}, {lam}, {mu})")
    return np.concatenate([[float(k)],
                           np.full(round(mult_r), r),
                           np.full(round(mult_s), s)])


def pi_products(s: Spectrum) -> PiProducts:
    theta = s.distinct
    if s.d < 1:
        raise ValueError("pi products need at least two distinct eigenvalues")
    diff = np.abs(theta[:, None] - theta[None, :])
    np.fill_diagonal(diff, 1.0)
    return PiProducts(diff.prod(axis=1))


def _poly_matrix(g: Graph, coeffs) -> np.ndarray:
    """p(A) by Horner; exact for the walk counts we need (< 2^53)."""
    a = g.adjacency.astype(float)
    n = g.n
    res = np.zeros((n, n))
    for c in reversed(list(coeffs)):
        res = res @ a + c * np.eye(n)
    return res


def diagonal_stats(g: Graph, coeffs) -> tuple:
    """(w, W): min and max diagonal entry of p(A), p in coefficient form."""
    diag = np.diag(_poly_matrix(g, coeffs))
    return float(diag.min()), float(diag.max())


def _intersection_numbers(a: np.ndarray, dm: DistanceMatrix):
    """Intersection numbers b_i, c_i from one product; None if not constant.

    With B = max degree + 1, (X A)[u, v] for X[u, w] = B^(dist(u, w) mod 3)
    sums B^(dist(u, w) mod 3) over the neighbours w of v.  At distance i from
    u these lie at i-1, i, i+1, three residues mod 3, so the entry holds c_i,
    a_i, b_i as base-B digits; it is below deg * B^2 < 2^53, exact in float64
    for degrees below 2^17.  Every entry must equal row 0's at its distance
    (NaN, never equal, where row 0 lacks one)."""
    base = int(a.sum(axis=1).max()) + 1
    code = np.array([1.0, base, base * base])[dm.dist % 3] @ a
    ref = np.full(dm.diameter + 1, np.nan)
    ref[dm.dist[0]] = code[0]
    if not np.array_equal(code, ref[dm.dist]):
        return None
    digits = [[int(v) // base ** r % base for r in range(3)] for v in ref]
    return (tuple(digits[i][(i + 1) % 3] for i in range(dm.diameter)),
            tuple(digits[i][(i - 1) % 3] for i in range(1, dm.diameter + 1)))


def classify_regularity(g: Graph, s: Spectrum,
                        dm: DistanceMatrix | None = None) -> RegularityReport:
    """Regularity ladder: regular / k-partially walk-regular / walk- / distance-."""
    deg = g.degrees()
    is_reg = bool(np.all(deg == deg[0]))
    d = s.d
    # pwr level: largest k <= d with diag(A^l) constant for all l <= k.
    # Checking beyond d is pointless: the minimal polynomial has degree d+1.
    # Entries of A^l are at most max_deg^l: float products are exact below
    # 2^53, and beyond that the walk counts go on in Python ints, each column
    # of A^l the sum of the A^(l-1) columns at its neighbours.
    a = g.adjacency.astype(float)
    power = a
    walks = [0]  # diag(A) = 0: every simple graph is 1-partially walk-regular
    for level in range(2, d + 1):
        if int(deg.max()) ** level < 2 ** 53:
            power = power @ a
        else:
            if power.dtype != object:
                power = power.astype(np.int64).astype(object)
                nbrs = [np.flatnonzero(col) for col in g.adjacency.T]
            power = np.column_stack([power[:, nb].sum(axis=1) for nb in nbrs])
        if np.all(np.diag(power) == power[0, 0]):
            walks.append(int(power[0, 0]))
        else:
            break
    del power  # freed before the n x n intersection product below
    pwr = len(walks)
    is_wr = pwr == d
    if dm is None:
        dm = distance_matrix(g)
    # is_dr needs both, and only then is the array reported
    inter = _intersection_numbers(a, dm) if is_reg and dm.diameter == d else None
    is_dr = inter is not None
    return RegularityReport(
        is_regular=is_reg,
        degree=int(deg[0]) if is_reg else None,
        pwr_level=pwr,
        closed_walks=tuple(walks),
        is_walk_regular=is_wr,
        is_distance_regular=is_dr,
        intersection_array=inter,
    )
