"""Graph construction, graph6 I/O, families, distances, power graphs."""

import numpy as np
import pytest
from conftest import FAMILY_SPECS, relabelled

from specind.errors import (
    DisconnectedGraph,
    InvalidFamilyParameters,
    MalformedGraph6,
)
from specind.graphs import (
    FamilySpec,
    distance_matrix,
    from_edges,
    generate,
    kneser_vertices,
    parse_edge_list,
    parse_graph6,
    power_graph,
    to_graph6,
)


def test_petersen_is_kneser_5_2():
    p = generate(FamilySpec.parse("petersen"))
    k52 = generate(FamilySpec.parse("kneser:5,2"))
    assert p.n == 10 and p.num_edges == 15
    assert np.array_equal(p.adjacency, k52.adjacency)


def test_odd_equals_kneser():
    for ell in (3, 4, 5):
        o = generate(FamilySpec.parse(f"odd:{ell}"))
        k = generate(FamilySpec.parse(f"kneser:{2 * ell - 1},{ell - 1}"))
        assert np.array_equal(o.adjacency, k.adjacency)


@pytest.mark.parametrize("spec,n,deg", [
    ("cycle:7", 7, 2),
    ("complete:5", 5, 4),
    ("hypercube:4", 16, 4),
    ("circulant:10,1,2", 10, 4),
    ("kneser:7,3", 35, 4),
    ("prism:5", 10, 3),
    ("moebius_ladder:4", 8, 3),
])
def test_family_order_and_degree(spec, n, deg):
    g = generate(FamilySpec.parse(spec))
    assert g.n == n
    assert np.all(g.degrees() == deg)


def test_complete_bipartite_degrees():
    g = generate(FamilySpec.parse("complete_bipartite:3,4"))
    assert sorted(g.degrees()) == [3] * 4 + [4] * 3


@pytest.mark.parametrize("bad", [
    "cycle:2", "kneser:4,2", "kneser:6,3", "odd:1", "complete:1",
    "prism:2", "unknown:3",
])
def test_invalid_family_parameters(bad):
    with pytest.raises(InvalidFamilyParameters):
        generate(FamilySpec.parse(bad))


def test_disconnected_circulant_rejected():
    with pytest.raises(DisconnectedGraph):
        generate(FamilySpec.parse("circulant:10,2"))


def test_disconnected_edges_rejected():
    with pytest.raises(DisconnectedGraph):
        from_edges(4, [(0, 1), (2, 3)])


def test_graph6_round_trip_all_families():
    for spec in ["cycle:6", "complete:7", "hypercube:5", "kneser:7,2",
                 "odd:4", "prism:6", "moebius_ladder:5", "petersen",
                 "circulant:13,1,5", "complete_bipartite:4,4"]:
        g = generate(FamilySpec.parse(spec))
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_known_encoding():
    # C_5 in standard graph6 is "DqK" under the documented edge-bit order
    c5 = generate(FamilySpec.parse("cycle:5"))
    assert parse_graph6(to_graph6(c5)) == c5
    assert parse_graph6(">>graph6<<" + to_graph6(c5)) == c5


@pytest.mark.parametrize("bad", ["", "~~~~~", "D?", "D" + chr(30)])
def test_graph6_malformed(bad):
    with pytest.raises(MalformedGraph6):
        parse_graph6(bad)


def test_edge_list_parsing():
    g = parse_edge_list("0 1\n1 2 # comment\n\n2 0\n")
    assert g.n == 3 and g.num_edges == 3


def test_edge_list_negative_id_rejected():
    # numpy indexing would wrap -1 around to vertex 2 and close a triangle
    with pytest.raises(ValueError, match="negative vertex id"):
        parse_edge_list("0 1\n1 2\n0 -1\n")


def kneser_pairs(spec):
    """Reference: the disjoint pairs of k-subsets by a Python loop over
    frozenset intersections (the former construction of ``_kneser``)."""
    fam = FamilySpec.parse(spec)
    n, k = {"kneser": lambda n, k: (n, k), "odd": lambda l: (2 * l - 1, l - 1),
            "petersen": lambda: (5, 2)}[fam.family](*fam.parameters)
    sets = [frozenset(v) for v in kneser_vertices(n, k)]
    adj = np.zeros((len(sets), len(sets)), dtype=bool)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not (sets[i] & sets[j]):
                adj[i, j] = adj[j, i] = True
    return adj


@pytest.mark.parametrize("spec", [s for s in FAMILY_SPECS
                                  if s.split(":")[0] in ("kneser", "odd", "petersen")]
                         + ["kneser:64,1", "kneser:65,1"])
def test_kneser_matches_pair_loop(spec):
    assert np.array_equal(generate(FamilySpec.parse(spec)).adjacency,
                          kneser_pairs(spec))


def test_distance_matrix_petersen():
    g = generate(FamilySpec.parse("petersen"))
    dm = distance_matrix(g)
    assert dm.diameter == 2
    assert np.all(np.diag(dm.dist) == 0)
    assert np.array_equal(dm.dist, dm.dist.T)


def per_source_bfs(g):
    """Reference: a Python BFS from each source in turn (the former
    implementation of ``distance_matrix``)."""
    n = g.n
    nbrs = [np.flatnonzero(g.adjacency[u]) for u in range(n)]
    dist = np.full((n, n), -1, dtype=np.int32)
    for s in range(n):
        row = dist[s]
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if row[v] < 0:
                        row[v] = d
                        nxt.append(int(v))
            frontier = nxt
    return dist, int(dist.max())


def assert_matches_per_source_bfs(g):
    dm = distance_matrix(g)
    dist, diameter = per_source_bfs(g)
    assert dm.dist.dtype == dist.dtype == np.int32, g.label
    assert np.array_equal(dm.dist, dist), g.label
    assert dm.diameter == diameter, g.label


def test_distance_matrix_matches_per_source_bfs(corpus):
    for g in corpus:
        assert_matches_per_source_bfs(g)


@pytest.mark.parametrize("seed", [7, 31])
@pytest.mark.parametrize("spec", ["odd:6", "hypercube:7"])
def test_distance_matrix_matches_per_source_bfs_relabelled(spec, seed):
    assert_matches_per_source_bfs(relabelled(spec, seed))


def test_power_graph_identity_and_monotone():
    g = generate(FamilySpec.parse("odd:4"))
    dm = distance_matrix(g)
    p1 = power_graph(g, 1, dm)
    assert np.array_equal(p1.adjacency, g.adjacency)
    prev = p1
    for k in range(2, dm.diameter + 1):
        pk = power_graph(g, k, dm)
        assert np.all(pk.adjacency >= prev.adjacency)
        prev = pk
    # at k = diameter the power graph is complete
    assert prev.num_edges == g.n * (g.n - 1) // 2


def test_power_graph_vs_exact(corpus_spectra):
    """alpha_k(g) == independence number of g^k (cross-module oracle)."""
    from specind.exact import alpha_k_exact
    for label in ["cycle:9", "petersen", "hypercube:4", "prism:5"]:
        g, _, dm, _ = corpus_spectra[label]
        for k in range(1, dm.diameter):
            direct = alpha_k_exact(power_graph(g, k, dm), 1).alpha_k
            assert direct == alpha_k_exact(g, k, dm=dm).alpha_k
