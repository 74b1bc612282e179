"""Generate the bundled graph6 fixtures and validate them against known data.

Run from the repository root:

    python3 tools/make_fixtures.py

networkx is used only here, at generation time; the installed package reads
the resulting .g6 files and has no networkx dependency.  Every fixture is
validated before being written (order, regularity, and the published
2-independence number or independence number where applicable), so a wrong
construction fails loudly instead of shipping a bad file.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import networkx as nx
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from specind.exact import alpha_k_exact  # noqa: E402
from specind.graphs import from_adjacency, from_edges, to_graph6  # noqa: E402
from specind.spectra import classify_regularity, spectrum  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "specind" / "data"


def from_nx(h: nx.Graph, label: str) -> Graph:
    h = nx.convert_node_labels_to_integers(h, ordering="sorted")
    return from_edges(h.number_of_nodes(), list(h.edges()), label=label)


def generalized_petersen(n: int, k: int) -> nx.Graph:
    h = nx.Graph()
    for i in range(n):
        h.add_edge(("u", i), ("u", (i + 1) % n))
        h.add_edge(("u", i), ("v", i))
        h.add_edge(("v", i), ("v", (i + k) % n))
    return h


def middle_cube() -> nx.Graph:
    """Levels 2 and 3 of the 5-cube (the middle-layers graph MQ_3)."""
    h = nx.Graph()
    lower = [frozenset(c) for c in itertools.combinations(range(5), 2)]
    upper = [frozenset(c) for c in itertools.combinations(range(5), 3)]
    for a in lower:
        for b in upper:
            if a < b:
                h.add_edge(a, b)
    return h


def coxeter() -> nx.Graph:
    """Kneser graph K(7,3) restricted to triples that are not Fano lines."""
    lines = {frozenset({(0 + i) % 7, (1 + i) % 7, (3 + i) % 7}) for i in range(7)}
    verts = [frozenset(c) for c in itertools.combinations(range(7), 3)
             if frozenset(c) not in lines]
    h = nx.Graph()
    for a, b in itertools.combinations(verts, 2):
        if not (a & b):
            h.add_edge(a, b)
    return h


def shrikhande() -> nx.Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    h = nx.Graph()
    for x in range(4):
        for y in range(4):
            for dx, dy in steps:
                h.add_edge((x, y), ((x + dx) % 4, (y + dy) % 4))
    return h


def clebsch() -> nx.Graph:
    """Cayley graph on Z2^4 with connection set {e_1..e_4, 1111} (folded 5-cube)."""
    conn = [1, 2, 4, 8, 15]
    h = nx.Graph()
    for v in range(16):
        for c in conn:
            h.add_edge(v, v ^ c)
    return h


def frankl_rodl_4() -> nx.Graph:
    """FR_{1/2}^4: vertices of the 4-cube, adjacent at Hamming distance >= 2."""
    h = nx.Graph()
    for u in range(16):
        for v in range(u + 1, 16):
            if bin(u ^ v).count("1") >= 2:
                h.add_edge(u, v)
    return h


def hoffman_via_switching() -> nx.Graph:
    """The Hoffman graph: Godsil-McKay switching on the 4-cube.

    Search for a 4-subset C inducing a regular subgraph such that every
    outside vertex has 0, 2, or 4 neighbours in C; switching then yields a
    cospectral mate.  The first switch producing a connected bipartite graph
    that is not distance-regular is the Hoffman graph.
    """
    q4 = nx.hypercube_graph(4)
    q4 = nx.convert_node_labels_to_integers(q4, ordering="sorted")
    a = nx.to_numpy_array(q4, nodelist=range(16)).astype(bool)
    ref = np.sort(np.linalg.eigvalsh(a.astype(float)))
    for comb in itertools.combinations(range(16), 4):
        c = list(comb)
        sub_deg = a[np.ix_(c, c)].sum(axis=1)
        if not np.all(sub_deg == sub_deg[0]):
            continue
        outside = [v for v in range(16) if v not in comb]
        counts = a[np.ix_(outside, c)].sum(axis=1)
        if not np.all(np.isin(counts, (0, 2, 4))):
            continue
        b = a.copy()
        for v, cnt in zip(outside, counts):
            if cnt == 2:
                b[v, c] = ~b[v, c]
                b[c, v] = b[v, c]
        ev = np.sort(np.linalg.eigvalsh(b.astype(float)))
        if np.max(np.abs(ev - ref)) > 1e-8:
            continue
        h = nx.from_numpy_array(b)
        if not nx.is_connected(h) or not nx.is_bipartite(h):
            continue
        g = from_adjacency(b, label="hoffman")
        if classify_regularity(g, spectrum(g)).is_distance_regular:
            continue  # switched onto an isomorphic copy of Q4
        return h
    raise RuntimeError("no Godsil-McKay switch on Q4 produced the Hoffman graph")


def flower_snark() -> nx.Graph:
    """Isaacs snark J_5: five K_{1,3} stars, a 5-cycle, and a 10-cycle."""
    h = nx.Graph()
    for i in range(5):
        for branch in "uvw":
            h.add_edge(("t", i), (branch, i))
        h.add_edge(("u", i), ("u", (i + 1) % 5))
        if i < 4:
            h.add_edge(("v", i), ("v", i + 1))
            h.add_edge(("w", i), ("w", i + 1))
    h.add_edge(("v", 4), ("w", 0))
    h.add_edge(("w", 4), ("v", 0))
    return h


def tietze() -> nx.Graph:
    """Petersen with one vertex expanded into a triangle."""
    p = nx.petersen_graph()
    nbrs = sorted(p.neighbors(0))
    p.remove_node(0)
    for j, nb in enumerate(nbrs):
        p.add_edge(100 + j, nb)  # triangle vertices get fresh integer labels
    p.add_edges_from([(100, 101), (101, 102), (102, 100)])
    return p


def holt() -> nx.Graph:
    """The Holt graph on Z9 x Z3: (x, y) ~ (x +- 4^y, y + 1)."""
    h = nx.Graph()
    for x in range(9):
        for y in range(3):
            for sgn in (1, -1):
                h.add_edge((x, y), ((x + sgn * 4 ** y) % 9, (y + 1) % 3))
    return h


# name -> (builder, expected n, {"alpha": a} and/or {"alpha2": a2})
FIXTURES = {
    "frucht": (nx.frucht_graph, 12, {"alpha2": 3}),
    "moebius-kantor": (nx.moebius_kantor_graph, 16, {"alpha2": 4}),
    "nauru": (lambda: nx.LCF_graph(24, [5, -9, 7, -7, 9, -5], 4), 24, {"alpha2": 6}),
    "durer": (lambda: generalized_petersen(6, 2), 12, {"alpha2": 2}),
    "franklin": (lambda: nx.LCF_graph(12, [5, -5], 6), 12, {"alpha2": 2}),
    "mcgee": (lambda: nx.LCF_graph(24, [12, 7, -7], 8), 24, {"alpha2": 5}),
    "f26a": (lambda: nx.LCF_graph(26, [-7, 7], 13), 26, {"alpha2": 6}),
    "dyck": (lambda: nx.LCF_graph(32, [5, -5, 13, -13], 8), 32, {"alpha2": 8}),
    "folkman": (lambda: nx.LCF_graph(20, [5, -7, -7, 5], 5), 20, {"alpha2": 3}),
    "gray": (lambda: nx.LCF_graph(54, [-25, 7, -7, 13, -13, 25], 9), 54,
             {"alpha2": 11}),
    "tutte": (nx.tutte_graph, 46, {"alpha2": 10}),
    "truncated-tetrahedron": (nx.truncated_tetrahedron_graph, 12, {"alpha2": 3}),
    "hoffman": (hoffman_via_switching, 16, {"alpha2": 2, "alpha": 8}),
    "desargues": (nx.desargues_graph, 20, {"alpha": 10}),
    "middle-cube": (middle_cube, 20, {"alpha": 10}),
    "dodecahedron": (nx.dodecahedral_graph, 20, {"alpha": 8}),
    "coxeter": (coxeter, 28, {"alpha": 12}),
    "shrikhande": (shrikhande, 16, {"alpha": 4}),
    "clebsch": (clebsch, 16, {"alpha": 5}),
    "frankl-rodl-4": (frankl_rodl_4, 16, {"alpha": 2}),
    "hoffman-singleton": (nx.hoffman_singleton_graph, 50, {"alpha": 15}),
    "flower-snark": (flower_snark, 20, {"alpha2": 5}),
    "tietze": (tietze, 12, {"alpha2": 3}),
    "bidiakis-cube": (lambda: nx.LCF_graph(12, [-6, 4, -4], 4), 12, {"alpha2": 2}),
    "holt": (holt, 27, {"alpha2": 3}),
}


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for name, (builder, n, expect) in FIXTURES.items():
        g = from_nx(builder(), name)
        assert g.n == n, f"{name}: order {g.n} != {n}"
        if "alpha" in expect:
            a = alpha_k_exact(g, 1).alpha_k
            assert a == expect["alpha"], f"{name}: alpha {a} != {expect['alpha']}"
        if "alpha2" in expect:
            a2 = alpha_k_exact(g, 2).alpha_k
            assert a2 == expect["alpha2"], f"{name}: alpha_2 {a2} != {expect['alpha2']}"
        path = DATA / f"{name}.g6"
        path.write_text(to_graph6(g) + "\n")
        print(f"wrote {path.name}  n={g.n}  checks={expect}")


if __name__ == "__main__":
    main()
