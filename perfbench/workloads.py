"""Workload definitions: the seeded graph6 inputs and the CLI call list.

Every workload is a closed loop of one client: the calls run one after
another and each starts only after the previous one returns.  The seed only
relabels vertices (one ``numpy.random.default_rng(seed)`` permutation per
graph, drawn in list order), so every bound is a graph invariant and only
work whose search order depends on labels (the exact oracle) varies by seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specind.cli import TABLES, fixtures_dir
from specind.graphs import FamilySpec, from_adjacency, generate, parse_graph6, to_graph6

# bounds-large: the graph and spectra layers dominate (odd:6 has n = 462).
# The exact-oracle calls below run in the same pass, after these: a third
# workload of their own would leave each run too short to be steady on a
# shared host within the benchmark's time limit.
BOUNDS_LARGE = ("family:odd:6", "family:odd:5", "family:hypercube:7",
                "family:kneser:9,2", "family:kneser:10,3")

# sign-heavy: every bundled fixture but tutte, whose sign search ends at the
# 30 s budget of the search and would measure the budget, not the code.
SIGN_HEAVY = tuple(f"fixture:{name}" for name in (
    "bidiakis-cube", "clebsch", "coxeter", "desargues", "dodecahedron", "durer",
    "dyck", "f26a", "flower-snark", "folkman", "frankl-rodl-4", "franklin",
    "frucht", "gray", "hoffman-singleton", "hoffman", "holt", "mcgee",
    "middle-cube", "moebius-kantor", "nauru", "shrikhande", "tietze",
    "truncated-tetrahedron"))

# Exact oracle, ch and table replays (on bounds-large): odd:5 with --exact
# is left out because its k = 1, 2 oracle searches take 41-53 s each.
EXACT_BOUNDS = ("family:hypercube:7", "fixture:gray")
EXACT_CLASSIFY = ("family:odd:5", "family:hypercube:7")
CLASSIFY_K = 3

# Untimed warm-up before the timed passes: the workload's commands on the
# Petersen graph (odd:3), which loads every module and LAPACK routine they use.
WARMUP_FAMILY = "odd:3"

WORKLOADS = ("bounds-large", "sign-heavy")


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, what kind of output it prints, and its input."""

    label: str
    kind: str          # "bounds", "classify", "table" or "warmup"
    argv: tuple
    graph: str = ""    # input name for bounds/classify
    path: Path | None = None
    exact: bool = False
    k: int | None = None  # classify only


def input_name(source: str) -> str:
    kind, _, rest = source.partition(":")
    return rest.replace(":", "-").replace(",", "-") if kind == "family" else rest


def sources(workload: str) -> tuple:
    """Graph sources whose relabelled graph6 files the workload reads."""
    if workload == "bounds-large":
        return tuple(dict.fromkeys(BOUNDS_LARGE + EXACT_BOUNDS + EXACT_CLASSIFY))
    if workload == "sign-heavy":
        return SIGN_HEAVY
    raise ValueError(f"unknown workload {workload!r}")


def load_source(source: str):
    kind, _, rest = source.partition(":")
    if kind == "family":
        return generate(FamilySpec.parse(rest))
    return parse_graph6((fixtures_dir() / f"{rest}.g6").read_text())


def relabel(g, perm: np.ndarray):
    return from_adjacency(g.adjacency[np.ix_(perm, perm)])


def write_inputs(workload: str, seed: int | None, workdir: Path) -> dict:
    """Write one graph6 file per source; seed None keeps the identity labelling."""
    rng = None if seed is None else np.random.default_rng(seed)
    paths = {}
    for source in sources(workload):
        g = load_source(source)
        if rng is not None:
            g = relabel(g, rng.permutation(g.n))
        path = workdir / f"{input_name(source)}.g6"
        path.write_text(to_graph6(g) + "\n")
        paths[input_name(source)] = path
    return paths


def calls(workload: str, paths: dict) -> list:
    """The workload's call list, in the order one pass runs it."""
    def bounds(name, exact=False):
        argv = ["bounds", "--in", str(paths[name]), "--k", "all"]
        argv += ["--exact"] if exact else []
        argv += ["--format", "csv"]
        label = f"bounds {name}" + (" --exact" if exact else "")
        return Call(label, "bounds", tuple(argv), name, paths[name], exact)

    if workload == "sign-heavy":
        return [bounds(input_name(s)) for s in SIGN_HEAVY]
    out = [bounds(input_name(s)) for s in BOUNDS_LARGE]
    out += [Call(f"table {t}", "table", ("table", t)) for t in TABLES]
    out += [bounds(input_name(s), exact=True) for s in EXACT_BOUNDS]
    for s in EXACT_CLASSIFY:
        name = input_name(s)
        out.append(Call(f"classify {name} k={CLASSIFY_K}", "classify",
                        ("classify", "--in", str(paths[name]), "--k", str(CLASSIFY_K)),
                        name, paths[name], k=CLASSIFY_K))
    return out


def warmup_calls(workload: str) -> list:
    """The workload's commands on a small graph, run once before timing."""
    argv = ["bounds", "--family", WARMUP_FAMILY, "--k", "all", "--format", "csv"]
    if workload == "sign-heavy":
        return [Call("warm-up bounds", "warmup", tuple(argv))]
    return [Call("warm-up bounds --exact", "warmup", tuple(argv + ["--exact"])),
            Call("warm-up classify", "warmup",
                 ("classify", "--family", WARMUP_FAMILY, "--k", "1")),
            Call("warm-up table t1", "warmup", ("table", "t1"))]
