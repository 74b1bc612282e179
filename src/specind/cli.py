"""Command-line surface: spectra, bounds, classification, and table replays.

Exit codes: 0 success (and, for ``table``, every computed row matches), 1 for
mismatches, internal failures or a search over its time budget, 2 for invalid
input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import optimize
from .ch import ch_classify
from .errors import SearchTimeout, SpecindError, UnknownTable
from .exact import alpha_k_exact
from .graphs import (
    FamilySpec,
    Graph,
    distance_matrix,
    generate,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .polys import as_fraction_string, predistance_polynomials
from .spectra import classify_regularity, spectrum, srg_raw_spectrum

TABLES = ("t1", "t2", "minor-odd", "sign-odd6", "t4", "t5")


def fixtures_dir() -> Path:
    env = os.environ.get("SPECIND_FIXTURES")
    return Path(env) if env else Path(__file__).parent / "data"


def _load_input(path: str) -> Graph:
    text = Path(path).read_text()
    # graph6 is one whitespace-free token; anything else is an edge list
    if path.endswith(".g6") or len(text.split()) == 1:
        return parse_graph6(text)
    return parse_edge_list(text, label=Path(path).stem)


def _graph_from_args(args) -> Graph:
    if getattr(args, "family", None):
        return generate(FamilySpec.parse(args.family))
    if getattr(args, "infile", None):
        return _load_input(args.infile)
    raise SystemExit("one of --family or --in is required")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_spectrum(args) -> int:
    g = _graph_from_args(args)
    s = spectrum(g, tol=args.tol)
    print(json.dumps(s.to_json_dict(), indent=2))
    return 0


def cmd_gen(args) -> int:
    g = generate(FamilySpec.parse(args.family))
    print(to_graph6(g))
    return 0


def cmd_bounds(args) -> int:
    g = _graph_from_args(args)
    dm = distance_matrix(g)
    ks = range(1, dm.diameter + 1) if args.k == "all" else [int(args.k)]
    # one spectrum, regularity report and predistance family serve every k;
    # k >= diameter needs none of them
    s = reg = pd = None
    if any(k < dm.diameter for k in ks):
        s = spectrum(g)
        reg = classify_regularity(g, s, dm)
        pd = predistance_polynomials(s)
    by_k, bare = {}, set()
    for k in ks:
        reps = bounds_mod.best_bounds(g, k, s=s, dm=dm, reg=reg, pd=pd)
        if not reps:  # every method needs pwr_level >= k
            bare.add(k)
        if args.exact:
            res = alpha_k_exact(g, k, dm=dm, timeout=args.timeout)
            reps.append(bounds_mod.BoundReport("exact", k, float(res.alpha_k)))
        by_k[k] = reps
    all_reports = [r for reps in by_k.values() for r in reps]
    if args.format == "csv":
        sys.stdout.write(bounds_mod.reports_to_csv(all_reports))
    elif args.format == "json":
        print(json.dumps([r.to_json_dict() for r in all_reports], indent=2))
    else:
        for k, reps in by_k.items():
            if k in bare:
                print(f"k={k}  no bound applies: pwr level {reg.pwr_level} < k")
            for r in reps:
                if r.applicable:
                    extra = f"  ({r.reason})" if r.reason else ""
                    print(f"k={r.k}  {r.method:24s} {r.value:12.6g}  floor {r.floor_value}{extra}")
                else:
                    print(f"k={r.k}  {r.method:24s} inapplicable: {r.reason}")
        best = [r for r in all_reports if r.applicable and r.method != "exact"]
        if best:
            print(f"best floor: {min(r.floor_value for r in best)}")
    return 0


def cmd_classify(args) -> int:
    g = _graph_from_args(args)
    verdict = ch_classify(g, int(args.k), with_exact=not args.no_exact,
                          timeout=args.timeout)
    print(json.dumps(verdict.to_json_dict(), indent=2))
    return 0


# ---------------------------------------------------------------------------
# Table replays


def _resolve_source(source: str):
    """Return a Graph for a row source, or None when the fixture is absent."""
    kind, _, rest = source.partition(":")
    if kind == "family":
        return generate(FamilySpec.parse(rest))
    if kind == "fixture":
        path = fixtures_dir() / rest
        if not path.exists():
            return None
        return parse_graph6(path.read_text())
    raise ValueError(f"unknown row source {source!r}")


def _row_result(row_id, computed, expected, note=""):
    status = "ok" if computed == expected else "mismatch"
    out = {"id": row_id, "status": status, "computed": computed, "expected": expected}
    if note:
        out["note"] = note
    return out


def _t1_row(row):
    g = _resolve_source(row["source"])
    if g is None:
        return {"id": row["id"], "status": "missing",
                "note": f"fixture {row['source']} not bundled"}
    s = spectrum(g)
    computed = {
        "alpha": alpha_k_exact(g, 1).alpha_k,
        "inertia": bounds_mod.cvetkovic_bound(s.raw).floor_value,
        "ratio_floor": bounds_mod.hoffman_bound(
            g.n, float(s.distinct[0]), float(s.distinct[-1])).floor_value,
    }
    expected = {c: row[c] for c in ("alpha", "inertia", "ratio_floor")}
    return _row_result(row["id"], computed, expected, row.get("note", ""))


def _t2_row(row):
    n, deg, lam, mu = row["params"]
    raw = srg_raw_spectrum(n, deg, lam, mu)
    computed = {
        "inertia": bounds_mod.cvetkovic_bound(raw).floor_value,
        "ratio_floor": bounds_mod.hoffman_bound(
            n, float(raw.max()), float(raw.min())).floor_value,
    }
    expected = {c: row[c] for c in ("inertia", "ratio_floor")}
    return _row_result(row["id"], computed, expected, row.get("note", ""))


def _minor_row(row):
    from .spectra import exact_family_spectrum

    s = exact_family_spectrum(FamilySpec.parse(row["family"]))
    f = optimize.minor_polynomial(s, row["k"])
    computed = {
        "values": [as_fraction_string(v) for v in f.values],
        "trace": as_fraction_string(float(np.dot(s.mults, f.values))),
    }
    expected = {"values": row["values"], "trace": row["trace"]}
    return _row_result(f"{row['family']}-k{row['k']}", computed, expected)


def _sign_odd6_rows(fix):
    from .polys import mesh_to_coeffs
    from .spectra import exact_family_spectrum

    s = exact_family_spectrum(FamilySpec.parse(fix["family"]))
    k = fix["k"]
    f = optimize.minor_polynomial(s, k)
    sol = optimize.sign_polynomial(s, k)
    rows = []
    computed_f = {
        "values": [as_fraction_string(v) for v in f.values],
        "coeffs": [as_fraction_string(c)
                   for c in mesh_to_coeffs(f).coeffs[:k + 1]],
        "trace": as_fraction_string(float(np.dot(s.mults, f.values))),
    }
    rows.append(_row_result("minor", computed_f, fix["minor"]))
    sp = sol.sign_mesh
    computed_s = {
        "values": [as_fraction_string(v) for v in sp.values],
        "coeffs": [as_fraction_string(c)
                   for c in mesh_to_coeffs(sp).coeffs[:k + 1]],
        "trace": as_fraction_string(float(np.dot(s.mults, sp.values))),
    }
    rows.append(_row_result("sign", computed_s, fix["sign"]))
    return rows


def _t4_row(row):
    from .spectra import pi_products

    g = generate(FamilySpec.parse(row["family"]))
    s = spectrum(g)
    pi = pi_products(s)
    reps = bounds_mod.dminus1_bounds(s, pi)
    computed = {
        "alpha": alpha_k_exact(g, row["k"]).alpha_k,
        "bound": min(r.floor_value for r in reps if r.applicable),
    }
    expected = {c: row[c] for c in ("alpha", "bound")}
    return _row_result(row["family"], computed, expected, row.get("bound_form", ""))


def _t5_row(row):
    g = _resolve_source(row["source"])
    if g is None:
        return {"id": row["id"], "status": "missing",
                "note": f"fixture {row['source']} not bundled"}
    s = spectrum(g)
    pd = predistance_polynomials(s)
    _, rr = bounds_mod.qk_bounds(g, s, pd, 2)
    computed = {
        "qk": rr.floor_value if rr.applicable else None,
        "alpha2": alpha_k_exact(g, 2).alpha_k,
    }
    expected = {c: row[c] for c in ("qk", "alpha2")}
    return _row_result(row["id"], computed, expected)


def run_table(table_id: str, rows_filter=None) -> list:
    if table_id not in TABLES:
        raise UnknownTable(f"unknown table {table_id!r}; choose from {TABLES}")
    path = fixtures_dir() / "tables" / f"{table_id}.json"
    fix = json.loads(path.read_text())
    if table_id == "sign-odd6":
        return _sign_odd6_rows(fix)
    handlers = {"t1": _t1_row, "t2": _t2_row, "minor-odd": _minor_row,
                "t4": _t4_row, "t5": _t5_row}
    handler = handlers[table_id]
    rows = fix["rows"]
    if rows_filter:
        wanted = {r.strip() for r in rows_filter.split(",")}
        rows = [r for r in rows
                if r.get("id", r.get("family", "")) in wanted
                or f"{r.get('family', '')}-k{r.get('k', '')}" in wanted]
    return [handler(r) for r in rows]


def cmd_table(args) -> int:
    results = run_table(args.table, args.rows)
    if args.format == "json":
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            line = f"{r['id']:28s} {r['status']}"
            if r["status"] == "mismatch":
                line += f"  computed={r['computed']} expected={r['expected']}"
            elif r["status"] == "missing":
                line += f"  ({r['note']})"
            print(line)
        counts = {s: sum(1 for r in results if r["status"] == s)
                  for s in ("ok", "mismatch", "missing")}
        print(f"ok {counts['ok']}  mismatch {counts['mismatch']}  "
              f"missing {counts['missing']}")
    return 0 if all(r["status"] != "mismatch" for r in results) else 1


# ---------------------------------------------------------------------------


@functools.cache  # one parse tree per process; parse_args does not mutate it
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specind",
        description="Spectral bounds on the k-independence number of graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("--family", help="family spec, e.g. odd:5 or circulant:10,1,2")
        sp.add_argument("--in", dest="infile", help="graph6 (.g6) or edge-list file")

    sp = sub.add_parser("spectrum", help="eigenvalues and multiplicities")
    add_input(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("gen", help="emit a named family as graph6")
    sp.add_argument("--family", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bounds", help="every applicable alpha_k bound")
    add_input(sp)
    sp.add_argument("--k", default="1", help="target distance, or 'all'")
    sp.add_argument("--exact", action="store_true", help="append the exact oracle value")
    sp.add_argument("--timeout", type=float, default=120.0)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("classify", help="equal-bounds classification")
    add_input(sp)
    sp.add_argument("--k", default="1")
    sp.add_argument("--no-exact", action="store_true", help="skip the exact oracle")
    sp.add_argument("--timeout", type=float, default=120.0)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("table", help="replay a published table against computed values")
    sp.add_argument("table", choices=TABLES)
    sp.add_argument("--rows", help="comma-separated row ids to restrict to")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_table)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecindError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SearchTimeout) else 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
