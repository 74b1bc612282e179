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
    _check_connected,
    distance_matrix,
    from_adjacency,
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


def loop_parse_graph6(text):
    """Reference: the per-bit graph6 decoder (the former ``parse_graph6``),
    returning the adjacency matrix; raises what it raised."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise MalformedGraph6("character out of graph6 range")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise MalformedGraph6("unsupported graph6 size header")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise MalformedGraph6("graph6 body has wrong length")
    bits = []
    for b in body:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    adj = np.zeros((n, n), dtype=bool)
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i, j] = adj[j, i] = True
            idx += 1
    if any(bits[nbits:]):
        raise MalformedGraph6("nonzero padding bits")
    return adj


def loop_to_graph6(adj):
    """Reference: the per-bit graph6 encoder (the former ``to_graph6``)."""
    n = adj.shape[0]
    head = [n] if n <= 62 else [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if adj[i, j] else 0)
    while len(bits) % 6:
        bits.append(0)
    body = [
        (bits[i] << 5) | (bits[i + 1] << 4) | (bits[i + 2] << 3)
        | (bits[i + 3] << 2) | (bits[i + 4] << 1) | bits[i + 5]
        for i in range(0, len(bits), 6)
    ]
    return "".join(chr(b + 63) for b in head + body)


def dfs_connected(adj):
    """Reference: a stack DFS from vertex 0 (the former connectivity check)."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(adj[u]):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def random_connected(n, seed):
    """A random spanning tree plus random edges, vertices shuffled."""
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < rng.random() * 0.3
    for v in range(1, n):
        adj[v, rng.integers(v)] = True
    adj = np.tril(adj, -1)
    adj |= adj.T
    perm = rng.permutation(n)
    return from_adjacency(adj[np.ix_(perm, perm)], f"random:{n}@{seed}")


def assert_codec_matches_loops(g):
    text = to_graph6(g)
    assert text == loop_to_graph6(g.adjacency), g.label
    assert parse_graph6(text) == g, g.label
    assert np.array_equal(loop_parse_graph6(text), g.adjacency), g.label


def test_graph6_codec_matches_loops_corpus(corpus):
    for g in corpus:
        assert_codec_matches_loops(g)


@pytest.mark.parametrize("seed", [7, 31])
@pytest.mark.parametrize("spec", ["odd:6", "hypercube:7"])
def test_graph6_codec_matches_loops_relabelled(spec, seed):
    g = relabelled(spec, seed)
    assert g.n > 62  # the 4-byte size header
    assert_codec_matches_loops(g)


def test_graph6_codec_matches_loops_random():
    """n = 1..70 crosses the switch from the 1-byte to the 4-byte header."""
    for n in range(1, 71):
        assert_codec_matches_loops(random_connected(n, n))


@pytest.mark.parametrize("bad", [
    "", "~~~~~", "D?", "D" + chr(30),
    "Dq\u00e9",   # non-ASCII character
    "Dq\udcff",   # lone surrogate
    "DqL",         # C_5 with a padding bit set
    "~?A",         # 4-byte size header cut short
    "DqK?",        # C_5's body one character too long
])
def test_graph6_malformed(bad):
    with pytest.raises(MalformedGraph6) as want:
        loop_parse_graph6(bad)
    with pytest.raises(MalformedGraph6) as got:
        parse_graph6(bad)
    assert str(got.value) == str(want.value)


def test_connectivity_matches_dfs():
    """Random graphs, sparse enough that about half are disconnected."""
    outcomes = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        adj = np.tril(rng.random((n, n)) < 1.5 / n, -1)
        adj |= adj.T
        want = dfs_connected(adj)
        outcomes.add(want)
        if want:
            _check_connected(adj)
        else:
            with pytest.raises(DisconnectedGraph):
                _check_connected(adj)
    assert outcomes == {True, False}


@pytest.mark.parametrize("half", [np.triu, np.tril])
def test_asymmetric_adjacency_rejected_as_such(half):
    """Either triangle of a path's adjacency is reported as not symmetric,
    not as disconnected."""
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)]).adjacency
    with pytest.raises(ValueError, match="symmetric"):
        from_adjacency(half(path))


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
