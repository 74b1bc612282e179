"""Shared corpus and heavy session-scoped sweeps for the test suite."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from specind.bounds import best_bounds
from specind.errors import SearchTimeout
from specind.exact import alpha_k_exact
from specind.graphs import (
    FamilySpec,
    distance_matrix,
    from_adjacency,
    generate,
    parse_graph6,
)
from specind.spectra import classify_regularity, spectrum

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


def fixture_names():
    return sorted(p.stem for p in FIXTURE_DIR.glob("*.g6"))


@pytest.fixture(scope="session")
def corpus():
    """>= 40 graphs: every generator family plus all bundled fixtures."""
    graphs = [generate(FamilySpec.parse(s)) for s in FAMILY_SPECS]
    graphs += [load_fixture(name) for name in fixture_names()]
    assert len(graphs) >= 40
    return graphs


@pytest.fixture(scope="session")
def corpus_spectra(corpus):
    """label -> (graph, spectrum, distance matrix, regularity report)."""
    out = {}
    for g in corpus:
        s = spectrum(g)
        dm = distance_matrix(g)
        out[g.label] = (g, s, dm, classify_regularity(g, s, dm))
    return out


@pytest.fixture(scope="session")
def soundness_results(corpus_spectra):
    """Every applicable bound floor vs the exact oracle, corpus-wide.

    Returns (checked, skipped): checked rows are
    (label, k, method, floor, exact); skipped rows are (label, k, why).
    """
    checked, skipped = [], []
    for label, (g, s, dm, reg) in corpus_spectra.items():
        if g.n > SWEEP_MAX_N:
            skipped.append((label, None, f"n={g.n} > {SWEEP_MAX_N}"))
            continue
        for k in range(1, dm.diameter):
            try:
                exact = alpha_k_exact(g, k, dm=dm,
                                      timeout=SWEEP_EXACT_TIMEOUT).alpha_k
            except SearchTimeout:
                skipped.append((label, k, "exact oracle over budget"))
                continue
            for rep in best_bounds(g, k, s=s, dm=dm, reg=reg,
                                   sign_budget=5.0):
                if rep.applicable:
                    checked.append((label, k, rep.method,
                                    rep.floor_value, exact))
    return checked, skipped


def elapsed(fn, *args, **kwargs):
    t0 = time.monotonic()
    res = fn(*args, **kwargs)
    return res, time.monotonic() - t0
