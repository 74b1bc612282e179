"""Exact oracle: correctness against an independent brute-force MIS,
known values, monotonicity, witnesses, guard rails, and the search rooted
at vertex 0 on vertex-transitive families."""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    FAMILY_SPECS,
    load_fixture,
    power_graph,
    relabelled,
    traced_peak,
)

from specind import exact, symmetry
from specind.bounds import Analysis
from specind.ch import ch_classify
from specind.errors import SearchTimeout, SizeLimitExceeded
from specind.exact import alpha_k_exact, greedy_witness, verify_independent
from specind.graphs import (
    FamilySpec,
    distance_matrix,
    from_adjacency,
    generate,
    parse_graph6,
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
    res = alpha_k_exact(g, 4)
    assert res.alpha_k == 11
    assert verify_independent(g, 4, res.witness)


def test_rooted_search_transient_memory():
    """The rooted k = 4 search on odd:6 (n = 462), its symmetry check
    included, reads dist[0] and the 200 x 200 block dist[nb][:, nb] a row
    block at a time, and takes each edge once from the adjacency's flat
    nonzeros: within 1 byte per vertex pair above its analysis (0.65
    measured; 3.0 with the n x n far matrix and a triangle copy of A)."""
    a = Analysis(generate(FamilySpec.parse("odd:6")))
    a.dm
    res, peak = traced_peak(alpha_k_exact, a, 4)
    assert res.alpha_k == 11 and a.rooted
    assert peak <= a.g.n ** 2, peak / a.g.n ** 2


@pytest.mark.parametrize("spec,sizes", [("odd:6", (210, 48, 14, 11)),
                                        ("odd:5", (56, 11, 7))])
def test_greedy_witness_sizes(spec, sizes):
    """The min-degree greedy on G^k gives k-independent sets of these
    sizes on odd:6 and odd:5 (alpha_1 = 210 and 56, Erdos-Ko-Rado), under
    their family labels; ``greedy_witness`` checks each one."""
    a = Analysis(generate(FamilySpec.parse(spec)))
    for k, size in enumerate(sizes, start=1):
        witness = greedy_witness(a, k)
        assert len(witness) == size, k
        assert verify_independent(a.g, k, witness, a.dm), k


def test_greedy_witness_bounded_by_the_oracle(corpus_analyses):
    """On every corpus graph with n <= 64 and every k below the diameter,
    the greedy set is k-independent and no larger than exact alpha_k."""
    for label, a in corpus_analyses.items():
        if a.g.n > 64:
            continue
        for k in range(1, a.dm.diameter):
            witness = greedy_witness(a, k)
            assert verify_independent(a.g, k, witness, a.dm), (label, k)
            assert len(witness) <= alpha_k_exact(a, k).alpha_k, (label, k)


def test_bad_greedy_witness_is_a_bug(monkeypatch):
    """A greedy set that fails the independence check raises RuntimeError."""
    monkeypatch.setattr(exact, "verify_independent", lambda *args: False)
    with pytest.raises(RuntimeError):
        greedy_witness(generate(FamilySpec.parse("petersen")), 1)


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
    g = generate(FamilySpec.parse("cycle:601"))
    with pytest.raises(SizeLimitExceeded):
        alpha_k_exact(g, 1)


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
        assert symmetry.transitive(g) == (spec != "complete_bipartite:4,5"), spec


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
    assert symmetry.transitive(g) and not symmetry.transitive(h)
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
    copy (rooted too when discovery finds its automorphisms) against a full
    ``_max_clique`` on the copy's whole far graph; every witness checked,
    the generated graph's holds 0 (complete_bipartite:4,5, with no
    generators, is searched in full)."""
    g, h = generate(FamilySpec.parse(spec)), relabelled(spec, 7)
    dm = distance_matrix(h)
    full, _, _ = exact._max_clique(dm.dist > k, float("inf"))
    rooted, copy = alpha_k_exact(g, k), alpha_k_exact(h, k, dm=dm)
    assert rooted.alpha_k == copy.alpha_k == full, (spec, k)
    assert len(rooted.witness) == rooted.alpha_k
    assert 0 in rooted.witness or not g.automorphisms
    assert verify_independent(g, k, rooted.witness)
    assert verify_independent(h, k, copy.witness, dm)
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


# ---------------------------------------------------------------------------
# Graphs that claim no automorphisms: discovery by individualization

# corpus and fixture graphs that are not vertex-transitive; McGee's rows all
# share one distance profile, so only the search rejects it
NOT_VERTEX_TRANSITIVE = {"complete_bipartite:4,5", "bidiakis-cube", "durer",
                         "flower-snark", "folkman", "frucht", "gray", "hoffman",
                         "mcgee", "tietze", "tutte"}


def shuffled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    return from_adjacency(g.adjacency[np.ix_(perm, perm)], f"{g.label}@{seed}")


def is_automorphism_reference(g, p):
    p = np.asarray(p)
    return (np.array_equal(np.sort(p), np.arange(g.n))
            and np.array_equal(g.adjacency[np.ix_(p, p)], g.adjacency))


def test_discovery_finds_vertex_transitive_corpus(corpus):
    """Called directly, below DISCOVERY_MIN_N too: under three relabellings
    every vertex-transitive corpus and fixture graph gets automorphisms
    that move 0 to every vertex, and the others get None."""
    assert {g.label for g in corpus} >= NOT_VERTEX_TRANSITIVE
    for g in corpus:
        for seed in (7, 31, 101):
            h = shuffled(g, seed)
            gens = symmetry.discover(h, distance_matrix(h))
            if g.label in NOT_VERTEX_TRANSITIVE:
                assert gens is None, h.label
            else:
                assert gens is not None, h.label
                assert all(is_automorphism_reference(h, p) for p in gens)
                assert symmetry._orbit_of_zero(gens, h.n).all(), h.label


def test_discovery_transient_memory():
    """Discovery on odd:6 relabelled by default_rng(7) counts each row's
    distances a block of rows at a time and takes each edge once from the
    adjacency's flat nonzeros: within 1.5 bytes per vertex pair above its
    inputs (1.20 measured; 8.6 with an n x n int64 array of profile keys)."""
    h = shuffled(generate(FamilySpec.parse("odd:6")), 7)
    dm = distance_matrix(h)
    gens, peak = traced_peak(symmetry.discover, h, dm)
    assert gens is not None and symmetry._orbit_of_zero(gens, h.n).all()
    assert peak <= 1.5 * h.n ** 2, peak / h.n ** 2


def test_profile_test_passes_mcgee_and_fails_hoffman():
    """McGee's rows share one distance profile although it is not
    vertex-transitive; the Hoffman graph's rows do not."""
    for name, same in (("mcgee", True), ("hoffman", False)):
        dm = distance_matrix(load_fixture(name))
        profiles = {tuple(np.bincount(row)) for row in dm.dist}
        assert (len(profiles) == 1) == same, name


def test_decoy_maps_are_never_accepted(monkeypatch):
    """With the neighbour hash switched off, cells split by distance alone,
    so discovery's leaves offer bijections that are not automorphisms; the
    edge check turns every one of them down, and every map it accepts is an
    automorphism."""
    offered = []
    check = symmetry._is_automorphism
    monkeypatch.setattr(symmetry, "_cell_hash", np.zeros_like)
    monkeypatch.setattr(symmetry, "_is_automorphism",
                        lambda g, p, edges: offered.append((g, p, check(g, p, edges)))
                        or offered[-1][2])
    for g in (generate(FamilySpec.parse("prism:6")),
              generate(FamilySpec.parse("moebius_ladder:6")),
              load_fixture("hoffman-singleton"), load_fixture("mcgee")):
        h = shuffled(g, 7)
        gens = symmetry.discover(h, distance_matrix(h))
        # the two ladders are still found, past their decoys
        assert (gens is not None) == (g.n == 12), g.label
        assert gens is None or all(is_automorphism_reference(h, p) for p in gens)
    truth = [is_automorphism_reference(g, p) for g, p, _ in offered]
    assert [accepted for _, _, accepted in offered] == truth
    assert not all(truth)  # decoys were offered


def test_is_automorphism_rejects_non_maps():
    g = generate(FamilySpec.parse("petersen"))
    edges = np.nonzero(np.triu(g.adjacency))
    swap = np.arange(g.n)
    swap[[0, 1]] = [1, 0]
    for p in g.automorphisms:
        assert symmetry._is_automorphism(g, p, edges)
    for bad in (swap, np.zeros(g.n, dtype=int), np.arange(g.n - 1),
                np.arange(1, g.n + 1), np.arange(g.n)[::-1]):
        assert not symmetry._is_automorphism(g, bad, edges)
        assert not is_automorphism_reference(g, bad)


def test_discovery_outlives_a_clique_search_timeout():
    """Discovery reads no clock: with no time at all, the clique search
    raises SearchTimeout, and the analysis is rooted all the same, for a
    later call with time left."""
    a = Analysis(relabelled("hypercube:7", 7))
    with pytest.raises(SearchTimeout):
        alpha_k_exact(a, 2, timeout=0.0)
    assert a.__dict__["rooted"] is True
    assert alpha_k_exact(a, 2).alpha_k == 16


def test_search_honours_its_time_budget():
    """odd:5 k = 1 takes seconds to prove; with a 0.5 s budget the search
    raises SearchTimeout within 0.25 s of its deadline, since every node
    looks at the clock (about 0.1 ms over, measured on a 2-core x86-64
    host)."""
    a = Analysis(generate(FamilySpec.parse("odd:5")))
    assert a.dm.diameter == 4  # built before the clock starts
    t0 = time.monotonic()
    with pytest.raises(SearchTimeout):
        alpha_k_exact(a, 1, timeout=0.5)
    assert time.monotonic() - t0 - 0.5 < 0.25


def test_discovery_gives_up_at_its_step_budget(monkeypatch):
    """K_{40,40}'s cells split one vertex per individualization, so its
    discovery would take n^2 steps: it stops after 16 per bit of n, each
    step one individualization, and returns None."""
    steps = []
    individualize = symmetry._individualize
    monkeypatch.setattr(symmetry, "_individualize",
                        lambda *args: steps.append(0) or individualize(*args))
    h = relabelled("complete_bipartite:40,40", 7)
    assert symmetry.discover(h, distance_matrix(h)) is None
    assert len(steps) == 16 * h.n.bit_length()


@pytest.mark.parametrize("spec,rooted", [("hypercube:7", True),
                                         ("odd:5", True),
                                         ("petersen", False),
                                         ("hypercube:6", True)])
def test_read_in_graphs_are_rooted_from_the_size_gate(spec, rooted,
                                                      monkeypatch):
    """A relabelled copy with n >= DISCOVERY_MIN_N searches 0's far
    neighbourhood only; a smaller one is searched in full, without a
    discovery."""
    sizes, found = [], []
    search, discover = exact._max_clique, symmetry.discover
    monkeypatch.setattr(exact, "_max_clique", lambda adj, deadline:
                        sizes.append(len(adj)) or search(adj, deadline))
    monkeypatch.setattr(symmetry, "discover", lambda *args:
                        found.append(discover(*args)) or found[-1])
    h = relabelled(spec, 31)
    res = alpha_k_exact(h, 3 if spec == "odd:5" else 1)
    assert (h.n >= symmetry.DISCOVERY_MIN_N) == rooted == bool(found)
    assert (sizes[-1] < h.n) == rooted
    assert verify_independent(h, res.k, res.witness)


def test_one_discovery_per_analysis(monkeypatch):
    """An analysis keeps its symmetry for every k and every caller."""
    calls = []
    discover = symmetry.discover
    monkeypatch.setattr(symmetry, "discover",
                        lambda *args: calls.append(args) or discover(*args))
    a = Analysis(relabelled("hypercube:7", 7))
    alphas = [alpha_k_exact(a, k).alpha_k for k in range(1, 8)]
    assert alphas == [64, 16, 8, 2, 2, 2, 1]
    assert ch_classify(a, 2).exact == 16
    assert len(calls) == 1


def test_oracle_imports_no_bounds_layer():
    """The oracle reads its Analysis from spectra: a fresh import of
    specind.exact loads neither the bounds layer nor the optimizers."""
    res = subprocess.run(
        [sys.executable, "-c", "import sys, specind.exact; print(*(m for m "
         "in sys.modules if m.startswith('specind.')))"],
        capture_output=True, text=True, check=True)
    loaded = set(res.stdout.split())
    assert "specind.spectra" in loaded
    assert not loaded & {"specind.bounds", "specind.optimize"}, loaded
