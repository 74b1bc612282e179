"""Shared corpus, heavy session-scoped sweeps, and the corpus-wide property
checks, run once per session in ``corpus_checks``, whose outcome the
property suite, the acceptance gate and the module tests assert on."""

from __future__ import annotations

import math
import time
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from specind.bounds import Analysis, best_bounds, reports_to_csv
from specind.ch import mean_excess, spectral_excess
from specind.errors import SearchTimeout
from specind.exact import alpha_k_exact, greedy_witness
from specind.graphs import (
    FamilySpec,
    Graph,
    distance_matrix,
    from_adjacency,
    generate,
    parse_graph6,
)
from specind.optimize import minor_polynomial, sign_polynomial
from specind.spectra import exact_family_spectrum

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "specind" / "data"

# Generated families: all constructors, sizes up to n ~ 500.
FAMILY_SPECS = [
    "cycle:5", "cycle:6", "cycle:7", "cycle:9", "cycle:12",
    "complete:6", "complete_bipartite:3,3", "complete_bipartite:4,5",
    "hypercube:3", "hypercube:4", "hypercube:5", "hypercube:6", "hypercube:7",
    "circulant:10,1,2", "circulant:13,1,5", "circulant:16,1,2,8",
    "kneser:6,2", "kneser:7,2", "kneser:7,3", "kneser:8,3", "kneser:9,2",
    "odd:3", "odd:4", "odd:5", "odd:6",
    "prism:5", "prism:6", "moebius_ladder:4", "moebius_ladder:6",
    "petersen",
]

# Per-instance wall-clock budget for the exact oracle inside the sweep; pairs
# whose search is slower (e.g. odd(5) at k = 1) are skipped, not failed.
SWEEP_EXACT_TIMEOUT = 10.0
SWEEP_MAX_N = 200


def load_fixture(name: str):
    path = FIXTURE_DIR / f"{name}.g6"
    g = parse_graph6(path.read_text())
    return type(g)(g.n, g.adjacency, name)


def relabelled(spec: str, seed: int):
    """A family graph under the benchmark's vertex relabelling: one
    ``numpy.random.default_rng(seed)`` permutation."""
    g = generate(FamilySpec.parse(spec))
    perm = np.random.default_rng(seed).permutation(g.n)
    return from_adjacency(g.adjacency[np.ix_(perm, perm)], f"{spec}@{seed}")


def circulant_classes(n: int) -> list:
    """One connection set S of {1..n/2} per connected circulant C_n(S) up to
    the multipliers u in Z_n^*: the least sorted {min(us, n - us) mod n}."""
    half = n // 2
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    seen = set()
    for r in range(1, half + 1):
        for S in combinations(range(1, half + 1), r):
            if math.gcd(n, *S) == 1:
                seen.add(min(tuple(sorted({min(u * s % n, n - u * s % n)
                                           for s in S})) for u in units))
    return sorted(seen)


def fixture_names():
    return sorted(p.stem for p in FIXTURE_DIR.glob("*.g6"))


def power_graph(g, k: int, dm=None):
    """Reference: G^k, same vertices, edges between pairs at distance 1..k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if dm is None:
        dm = distance_matrix(g)
    adj = (dm.dist >= 1) & (dm.dist <= k)
    return Graph(g.n, adj, f"{g.label}^{k}" if g.label else f"power:{k}")


@pytest.fixture(scope="session")
def corpus():
    """>= 40 graphs: every generator family plus all bundled fixtures."""
    graphs = [generate(FamilySpec.parse(s)) for s in FAMILY_SPECS]
    graphs += [load_fixture(name) for name in fixture_names()]
    assert len(graphs) >= 40
    return graphs


@pytest.fixture(scope="session")
def corpus_analyses(corpus):
    """label -> the graph's ``Analysis``, one per corpus graph."""
    return {g.label: Analysis(g) for g in corpus}


@pytest.fixture(scope="session")
def corpus_spectra(corpus_analyses):
    """label -> (graph, spectrum, distance matrix, regularity report), read
    from the graph's analysis."""
    return {label: (a.g, a.s, a.dm, a.reg)
            for label, a in corpus_analyses.items()}


def assert_floors_cover_witness(a, k: int) -> None:
    """Every applicable floor is at least the size of the greedy
    k-independent set: the check left on a pair the oracle skips."""
    size = len(greedy_witness(a, k))
    for rep in best_bounds(a, k):
        if rep.applicable:
            assert rep.floor_value >= size, (a.g.label, k, rep.method,
                                             rep.floor_value, size)


@pytest.fixture(scope="session")
def soundness_results(corpus_analyses):
    """Every applicable bound floor vs the exact oracle, corpus-wide.

    Returns (checked, skipped): checked rows are
    (label, k, method, floor, exact); skipped rows are (label, k, why).
    On every skipped pair (every k of a graph over the size limit, and a k
    whose oracle is over budget) each applicable floor is asserted to be at
    least the size of ``greedy_witness``'s k-independent set.
    """
    checked, skipped = [], []
    for label, a in corpus_analyses.items():
        g, dm = a.g, a.dm
        if g.n > SWEEP_MAX_N:
            skipped.append((label, None, f"n={g.n} > {SWEEP_MAX_N}"))
            for k in range(1, dm.diameter):
                assert_floors_cover_witness(a, k)
            continue
        for k in range(1, dm.diameter):
            try:
                exact = alpha_k_exact(g, k, dm=dm,
                                      timeout=SWEEP_EXACT_TIMEOUT).alpha_k
            except SearchTimeout:
                skipped.append((label, k, "exact oracle over budget"))
                assert_floors_cover_witness(a, k)
                continue
            for rep in best_bounds(a, k):
                if rep.applicable:
                    checked.append((label, k, rep.method,
                                    rep.floor_value, exact))
    return checked, skipped


def count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that records each call."""
    calls, fn = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc sees allocated during the call
    above what was allocated when it began); numpy reports its array data
    to tracemalloc, so this counts every array the call makes, its result
    included, but not the inputs made before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def elapsed(fn, *args, **kwargs):
    t0 = time.monotonic()
    res = fn(*args, **kwargs)
    return res, time.monotonic() - t0


# ---------------------------------------------------------------------------
# Corpus-wide property checks


def check_predistance_structure(corpus_spectra):
    """Orthogonality, p_i(theta_0) = ||p_i||^2, Hoffman telescoping, and the
    q'_k maximum at theta_0, for every corpus graph."""
    for label, (_, s, _, _) in corpus_spectra.items():
        if s.d < 1:
            continue
        V = s.predistance
        scale = max(1.0, float(np.abs(V).max()))
        for i in range(s.d + 1):
            assert V[i, 0] == pytest.approx(s.trace(V[i] * V[i]) / s.n,
                                            rel=1e-8, abs=1e-8), label
            for j in range(i + 1, s.d + 1):
                ip = s.trace(V[i] * V[j]) / s.n
                assert abs(ip) < 1e-8 * scale, (label, i, j)
        total = V.sum(axis=0)
        assert total[0] == pytest.approx(s.n, rel=1e-8), label
        assert np.allclose(total[1:], 0.0, atol=1e-6 * s.n), label
        qk = np.zeros(s.d + 1)
        for k in range(1, s.d + 1):
            qk += V[k]
            assert qk[0] >= qk[1:].max() - 1e-8 * max(1.0, abs(qk[0])), (label, k)


def check_spectral_excess_theorem(corpus_spectra):
    """Instance-wise, both directions: for regular graphs with D = d, the
    spectral excess equals the mean excess iff distance-regular."""
    tested_dr = tested_not = 0
    for label, (g, s, dm, reg) in corpus_spectra.items():
        if not reg.is_regular or dm.diameter != s.d:
            continue
        pe = spectral_excess(s)
        me = mean_excess(dm)
        agree = math.isclose(pe, me, rel_tol=1e-7)
        assert agree == reg.is_distance_regular, (label, pe, me)
        tested_dr += reg.is_distance_regular
        tested_not += not reg.is_distance_regular
    assert tested_dr >= 5 and tested_not >= 5  # both directions exercised


def check_determinism(corpus_spectra):
    """Bit-identical bound reports across two aggregator runs, and
    bit-identical minor and sign polynomials across two solves."""
    for label in ["petersen", "odd:4", "nauru", "hypercube:4"]:
        g, s, dm, reg = corpus_spectra[label]
        for k in (1, 2):
            if k >= dm.diameter:
                continue
            a = reports_to_csv(best_bounds(g, k, s=s, dm=dm, reg=reg))
            b = reports_to_csv(best_bounds(g, k, s=s, dm=dm, reg=reg))
            assert a == b, (label, k)
    s5 = exact_family_spectrum(FamilySpec.parse("odd:5"))
    assert (minor_polynomial(s5, 2).values.tobytes()
            == minor_polynomial(s5, 2).values.tobytes())
    a, b = sign_polynomial(s5, 2), sign_polynomial(s5, 2)
    assert a.sign_mesh.values.tobytes() == b.sign_mesh.values.tobytes()


def check_pi_sum_identity(corpus_spectra):
    """sum over even i of pi_0/pi_i equals the sum over odd i, for every
    spectrum with d >= 1."""
    for label, (_, s, _, _) in corpus_spectra.items():
        if s.d < 1:
            continue
        ratios = s.pi[0] / s.pi
        assert float(ratios[0::2].sum()) == pytest.approx(
            float(ratios[1::2].sum()), rel=1e-8), label


@pytest.fixture(scope="session")
def corpus_checks(corpus_spectra):
    """Each corpus-wide check above, run once per session: its name ->
    None when it passed, else its AssertionError.  Every test that stands
    for a check asserts on its entry."""
    out = {}
    for check in (check_predistance_structure, check_spectral_excess_theorem,
                  check_determinism, check_pi_sum_identity):
        try:
            check(corpus_spectra)
        except AssertionError as exc:
            out[check.__name__] = exc
        else:
            out[check.__name__] = None
    return out


def check_hypercube_pi_ratios():
    """Q_m: pi_j/pi_0 = 1/C(m, j), so m_j pi_j/pi_0 = 1; m = 3, 4, 5."""
    for m in (3, 4, 5):
        s = exact_family_spectrum(FamilySpec.parse(f"hypercube:{m}"))
        for j in range(m + 1):
            assert s.pi[j] / s.pi[0] == pytest.approx(1 / comb(m, j), rel=1e-9)
            assert s.mults[j] * s.pi[j] / s.pi[0] == pytest.approx(1.0, rel=1e-9)
