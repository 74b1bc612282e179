"""Exact oracle: correctness against an independent brute-force MIS,
known values, monotonicity, witnesses, guard rails, and the search rooted
at vertex 0 on vertex-transitive families."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import FAMILY_SPECS, relabelled

from specind import exact
from specind.ch import ch_classify
from specind.errors import SizeLimitExceeded
from specind.exact import alpha_k_exact, verify_independent
from specind.graphs import (
    FamilySpec,
    distance_matrix,
    from_adjacency,
    generate,
    parse_graph6,
    power_graph,
    to_graph6,
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


def reference_degeneracy_order(adj_bits, n):
    """Degeneracy ordering on bit rows, ties by vertex index (the former
    implementation of ``exact._degeneracy_order``)."""
    deg = [bin(adj_bits[v]).count("1") for v in range(n)]
    alive = set(range(n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        order.append(v)
        alive.remove(v)
        for u in range(n):
            if u in alive and (adj_bits[v] >> u) & 1:
                deg[u] -= 1
    return order


def reference_max_clique(adj_bits, n):
    """Reference: branch and bound over per-node candidate lists with a
    list-based greedy colouring (the former implementation of
    ``exact._max_clique``)."""
    order = reference_degeneracy_order(adj_bits, n)
    best = []
    best_size = 0

    def color_sort(cand_list):
        colors = []
        colored = []
        for v in cand_list:
            for ci, mask in enumerate(colors):
                if not (mask & adj_bits[v]):
                    colors[ci] |= 1 << v
                    colored.append((ci + 1, v))
                    break
            else:
                colors.append(1 << v)
                colored.append((len(colors), v))
        colored.sort()
        return colored

    def expand(clique, cand_bits, cand_list):
        nonlocal best, best_size
        colored = color_sort(cand_list)
        while colored:
            bound, v = colored.pop()
            if len(clique) + bound <= best_size:
                return
            clique.append(v)
            new_bits = cand_bits & adj_bits[v]
            if new_bits:
                new_list = [u for _, u in colored if (new_bits >> u) & 1]
                expand(clique, new_bits, new_list)
            elif len(clique) > best_size:
                best_size = len(clique)
                best = list(clique)
            clique.pop()
            cand_bits &= ~(1 << v)

    full = 0
    for v in order:
        full |= 1 << v
    expand([], full, list(order))
    return best_size, best


def far_bits(dm, k):
    """Bit rows of the "distance > k" graph, one Python int per vertex."""
    return [sum(1 << int(u) for u in np.flatnonzero(row > k)) for row in dm.dist]


def test_oracle_vs_colour_sort_reference(corpus_spectra):
    for label, (g, _, dm, _) in corpus_spectra.items():
        if g.n > 64:
            continue
        for k in range(1, dm.diameter):
            want, _ = reference_max_clique(far_bits(dm, k), g.n)
            assert alpha_k_exact(g, k, dm=dm).alpha_k == want, (label, k)


@pytest.mark.parametrize("spec,k", [("odd:6", 4), ("hypercube:7", 2),
                                    ("kneser:10,3", 1), ("petersen", 1)])
def test_degeneracy_order_matches_reference(spec, k):
    for g in (generate(FamilySpec.parse(spec)), relabelled(spec, 7)):
        dm = distance_matrix(g)
        assert (exact._degeneracy_order(dm.dist > k)
                == reference_degeneracy_order(far_bits(dm, k), g.n))


@pytest.mark.parametrize("seed", [7, 31])
@pytest.mark.parametrize("spec,k,alpha", [("odd:6", 4, 11),
                                          ("hypercube:7", 2, 16),
                                          ("odd:5", 3, 7)])
def test_known_values_relabelled(spec, k, alpha, seed):
    g = relabelled(spec, seed)
    dm = distance_matrix(g)
    res = alpha_k_exact(g, k, dm=dm)
    assert res.alpha_k == len(res.witness) == alpha
    assert verify_independent(g, k, res.witness, dm)


def test_node_count_repeats():
    g = generate(FamilySpec.parse("odd:5"))
    a = alpha_k_exact(g, 3)
    b = alpha_k_exact(g, 3)
    assert a.nodes == b.nodes > 0
    assert alpha_k_exact(g, 4).nodes == 0  # k = diameter: no search


def test_bad_witness_is_an_oracle_bug(monkeypatch):
    """A witness that fails the post-check raises RuntimeError, which no
    SpecindError handler turns into an "exact unavailable" note."""
    g = generate(FamilySpec.parse("petersen"))
    neighbour = int(g.neighbors(0)[0])
    monkeypatch.setattr(exact, "_max_clique",
                        lambda adj, deadline: (2, [0, neighbour], 1))
    with pytest.raises(RuntimeError):
        alpha_k_exact(g, 1)
    with pytest.raises(RuntimeError):
        ch_classify(g, 1)


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
    assert verify_independent(g, 1, [])
    assert verify_independent(g, 1, [0])  # singleton
    u = 0
    v = int(g.neighbors(0)[0])
    assert not verify_independent(g, 1, [u, v])  # adjacent pair
    assert not verify_independent(g, 1, [u, u])  # repeated vertex
    far = [w for w in range(g.n) if w != u and w != v
           and not g.adjacency[u, w] and not g.adjacency[v, w]]
    assert verify_independent(g, 1, [u, far[0]])
    assert not verify_independent(g, 1, [u, far[0], v])


def test_deterministic_result():
    g = generate(FamilySpec.parse("odd:4"))
    a = alpha_k_exact(g, 2)
    b = alpha_k_exact(g, 2)
    assert a.alpha_k == b.alpha_k
    assert a.witness == b.witness  # fixed search order


# ---------------------------------------------------------------------------
# Vertex-transitive families: the search rooted at vertex 0


def test_family_automorphisms_move_zero_everywhere():
    for spec in FAMILY_SPECS:
        g = generate(FamilySpec.parse(spec))
        assert exact._transitive(g) == (spec != "complete_bipartite:4,5"), spec


def test_false_automorphism_is_a_producer_bug():
    """A claimed generator that is not an automorphism (or not even a
    permutation) raises RuntimeError, like a bad witness."""
    g = generate(FamilySpec.parse("petersen"))
    swap = np.arange(g.n)
    swap[[0, 1]] = [1, 0]
    assert not np.array_equal(g.adjacency[np.ix_(swap, swap)], g.adjacency)
    for bad in (swap, np.zeros(g.n, dtype=int), np.arange(g.n - 1)):
        h = replace(g, automorphisms=g.automorphisms + (bad,))
        with pytest.raises(RuntimeError):
            alpha_k_exact(h, 1)
        with pytest.raises(RuntimeError):
            ch_classify(h, 1)


@pytest.mark.parametrize("spec,keep", [("prism:6", 1), ("hypercube:4", 3)])
def test_small_orbit_falls_back_to_full_search(spec, keep, monkeypatch):
    """Generators whose orbit of 0 is not all of V (prism rotations keep the
    two cycles apart; three bit flips reach 8 of 16) leave the full search."""
    g = generate(FamilySpec.parse(spec))
    h = replace(g, automorphisms=g.automorphisms[:keep])
    assert exact._transitive(g) and not exact._transitive(h)
    sizes = []
    search = exact._max_clique
    monkeypatch.setattr(exact, "_max_clique",
                        lambda adj, deadline: sizes.append(len(adj))
                        or search(adj, deadline))
    dm = distance_matrix(g)
    for k in range(1, dm.diameter):
        full, rooted = alpha_k_exact(h, k, dm=dm), alpha_k_exact(g, k, dm=dm)
        assert full.alpha_k == rooted.alpha_k, k
        assert sizes[-2] == g.n > sizes[-1]
        assert verify_independent(g, k, full.witness, dm)


def rooted_vs_relabelled(spec, k):
    """alpha_k of a generated graph (rooted search) and of its relabelled
    copy (full search); both witnesses checked, the rooted one holds 0
    (complete_bipartite:4,5, with no generators, is searched in full)."""
    g, h = generate(FamilySpec.parse(spec)), relabelled(spec, 7)
    rooted, full = alpha_k_exact(g, k), alpha_k_exact(h, k)
    assert rooted.alpha_k == full.alpha_k, (spec, k)
    assert len(rooted.witness) == rooted.alpha_k
    assert 0 in rooted.witness or not g.automorphisms
    assert verify_independent(g, k, rooted.witness)
    assert verify_independent(h, k, full.witness)
    return rooted.alpha_k


def test_rooted_search_matches_relabelled_corpus():
    for spec in FAMILY_SPECS:
        g = generate(FamilySpec.parse(spec))
        if g.n <= 64:
            for k in range(1, distance_matrix(g).diameter + 1):
                rooted_vs_relabelled(spec, k)


@pytest.mark.parametrize("spec,k,alpha", [("odd:6", 4, 11),
                                          ("hypercube:7", 2, 16)])
def test_rooted_search_matches_relabelled_large(spec, k, alpha):
    assert rooted_vs_relabelled(spec, k) == alpha


def test_relabelled_graph_claims_no_automorphisms():
    """Only generated graphs carry generators; equality and hashing stay
    adjacency-only."""
    g = generate(FamilySpec.parse("odd:4"))
    h = relabelled("odd:4", 7)
    assert g.automorphisms and h.automorphisms == ()
    assert parse_graph6(to_graph6(g)).automorphisms == ()
    for x in (g, h):
        twin = from_adjacency(x.adjacency)
        assert twin.automorphisms == ()
        assert x == twin and hash(x) == hash(twin)
