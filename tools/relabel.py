"""Relabel a graph6 graph by a seeded random permutation of its vertices.

Run from the repository root:

    python3 tools/relabel.py IN SEED > OUT

It reads the graph6 file IN, applies the permutation
``numpy.random.default_rng(SEED).permutation(n)`` (vertex p[i] of IN becomes
vertex i) and prints the relabelled graph as one graph6 line.  A relabelled
copy must print the same bounds as the original.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from specind.graphs import from_adjacency, parse_graph6, to_graph6  # noqa: E402


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: relabel.py IN SEED", file=sys.stderr)
        return 2
    path, seed = argv
    g = parse_graph6(Path(path).read_text())
    p = np.random.default_rng(int(seed)).permutation(g.n)
    print(to_graph6(from_adjacency(g.adjacency[np.ix_(p, p)])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
