"""Exact oracle: correctness against an independent brute-force MIS,
known values, monotonicity, witnesses, guard rails."""

import numpy as np
import pytest

from specind.errors import SizeLimitExceeded
from specind.exact import alpha_k_exact, verify_independent
from specind.graphs import (
    FamilySpec,
    distance_matrix,
    generate,
    power_graph,
)


def brute_force_mis(adj: np.ndarray) -> int:
    """Independent exhaustive MIS (simple recursion, no coloring bounds)."""
    n = adj.shape[0]
    nbr = [int(sum(1 << int(u) for u in np.flatnonzero(adj[v])))
           for v in range(n)]

    def go(v, allowed, size, best):
        if v == n:
            return max(best, size)
        if size + bin(allowed >> v).count("1") <= best:
            return best
        best0 = best
        if (allowed >> v) & 1:
            best0 = go(v + 1, allowed & ~nbr[v], size + 1, best0)
        return go(v + 1, allowed, size, best0)

    return go(0, (1 << n) - 1, 0, 0)


@pytest.mark.parametrize("spec", [
    "petersen", "cycle:9", "cycle:12", "hypercube:4", "prism:5",
    "complete:6", "complete_bipartite:3,4", "circulant:13,1,5",
    "kneser:6,2", "moebius_ladder:4",
])
def test_oracle_vs_brute_force(spec):
    g = generate(FamilySpec.parse(spec))
    dm = distance_matrix(g)
    for k in range(1, dm.diameter + 1):
        want = brute_force_mis(power_graph(g, k, dm).adjacency)
        got = alpha_k_exact(g, k, dm=dm)
        assert got.alpha_k == want, (spec, k)
        assert len(got.witness) == want
        assert verify_independent(g, k, got.witness, dm)


def test_known_values():
    assert alpha_k_exact(generate(FamilySpec.parse("petersen")), 1).alpha_k == 4
    assert alpha_k_exact(generate(FamilySpec.parse("odd:5")), 3).alpha_k == 7
    assert alpha_k_exact(generate(FamilySpec.parse("odd:4")), 2).alpha_k == 7
    assert alpha_k_exact(generate(FamilySpec.parse("odd:3")), 1).alpha_k == 4


def test_odd6_alpha4():
    g = generate(FamilySpec.parse("odd:6"))
    res = alpha_k_exact(g, 4, size_limit=600)
    assert res.alpha_k == 11
    assert verify_independent(g, 4, res.witness)


def test_monotone_in_k():
    g = generate(FamilySpec.parse("hypercube:5"))
    dm = distance_matrix(g)
    vals = [alpha_k_exact(g, k, dm=dm).alpha_k
            for k in range(1, dm.diameter + 1)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == 1  # k = diameter


def test_k_at_least_diameter_is_one():
    g = generate(FamilySpec.parse("petersen"))
    assert alpha_k_exact(g, 2).alpha_k == 1
    assert alpha_k_exact(g, 99).alpha_k == 1


def test_size_limit():
    g = generate(FamilySpec.parse("petersen"))
    with pytest.raises(SizeLimitExceeded):
        alpha_k_exact(g, 1, size_limit=5)


def test_invalid_k():
    g = generate(FamilySpec.parse("petersen"))
    with pytest.raises(ValueError):
        alpha_k_exact(g, 0)


def test_independence_number_matches_alpha1():
    for spec in ["petersen", "cycle:9", "kneser:7,3"]:
        g = generate(FamilySpec.parse(spec))
        assert brute_force_mis(g.adjacency) == alpha_k_exact(g, 1).alpha_k


def test_verify_independent_basics():
    g = generate(FamilySpec.parse("petersen"))
    assert verify_independent(g, 1, [0])  # singleton
    u = 0
    v = int(g.neighbors(0)[0])
    assert not verify_independent(g, 1, [u, v])  # adjacent pair


def test_deterministic_result():
    g = generate(FamilySpec.parse("odd:4"))
    a = alpha_k_exact(g, 2)
    b = alpha_k_exact(g, 2)
    assert a.alpha_k == b.alpha_k
    assert a.witness == b.witness  # fixed search order
