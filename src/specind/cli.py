"""Command-line surface: spectra, bounds, classification, and table replays.

Exit codes: 0 success (and, for ``table``, every computed row matches), 1 for
mismatches, internal failures or a search over its budget (``--timeout``,
the one clock, or a count of work), 2 for invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import optimize
from .ch import ch_classify
from .errors import SearchTimeout, SpecindError, UnknownTable
from .exact import DEFAULT_TIMEOUT, alpha_k_exact
from .graphs import (
    FamilySpec,
    Graph,
    generate,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .polys import as_fraction_string, mesh_to_coeffs
from .spectra import (
    Analysis,
    exact_family_spectrum,
    group_eigenvalues,
    srg_raw_spectrum,
)


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
    s = Analysis(_graph_from_args(args)).s  # the bounds' spectrum
    print(json.dumps(s.to_json_dict(), indent=2))
    return 0


def cmd_gen(args) -> int:
    g = generate(FamilySpec.parse(args.family))
    print(to_graph6(g))
    return 0


def cmd_bounds(args) -> int:
    a = Analysis(_graph_from_args(args))  # serves every k
    ks = range(1, a.dm.diameter + 1) if args.k == "all" else [int(args.k)]
    by_k, bare = {}, set()
    for k in ks:
        reps = bounds_mod.best_bounds(a, k)
        if not reps:  # every method needs pwr_level >= k
            bare.add(k)
        if args.exact:
            res = alpha_k_exact(a, k, timeout=args.timeout)
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
                print(f"k={k}  no bound applies: pwr level {a.reg.pwr_level} < k")
            for r in reps:
                if r.applicable:
                    extra = f"  ({r.reason})" if r.reason else ""
                    print(f"k={r.k}  {r.method:24s} {r.value:12.6g}  floor {r.floor_value}{extra}")
                else:
                    print(f"k={r.k}  {r.method:24s} inapplicable: {r.reason}")
        try:
            print(f"best floor: {bounds_mod.minimum_floor(all_reports)}")
        except ValueError:  # no applicable bound
            pass
    return 0


def cmd_classify(args) -> int:
    g = _graph_from_args(args)
    verdict = ch_classify(g, int(args.k), with_exact=not args.no_exact,
                          timeout=args.timeout)
    print(json.dumps(verdict.to_json_dict(), indent=2))
    return 0


# ---------------------------------------------------------------------------
# Table replays


def _resolve_source(source: str) -> Graph:
    kind, _, rest = source.partition(":")
    if kind == "family":
        return generate(FamilySpec.parse(rest))
    if kind == "fixture":
        return parse_graph6((fixtures_dir() / rest).read_text())
    raise ValueError(f"unknown row source {source!r}")


def _classic_columns(s) -> dict:
    """The Cvetkovic and Hoffman floors of a spectrum."""
    return {"inertia": bounds_mod.cvetkovic_bound(s).floor_value,
            "ratio_floor": bounds_mod.hoffman_bound(
                s.n, float(s.distinct[0]), float(s.distinct[-1])).floor_value}


def _t1_row(row):
    a = Analysis(_resolve_source(row["source"]))
    return {"alpha": alpha_k_exact(a, 1).alpha_k, **_classic_columns(a.s)}


def _t2_row(row):
    return _classic_columns(group_eigenvalues(srg_raw_spectrum(*row["params"])))


def _minor_row(row):
    s = exact_family_spectrum(FamilySpec.parse(row["family"]))
    f = optimize.minor_polynomial(s, row["k"])
    return {"values": [as_fraction_string(v) for v in f.values],
            "trace": as_fraction_string(s.trace(f.values))}


def _sign_odd6_row(row):
    """The optimal minor (id "minor") or sign (id "sign") polynomial."""
    s = exact_family_spectrum(FamilySpec.parse(row["family"]))
    k = row["k"]
    if row["id"] == "minor":
        p = optimize.minor_polynomial(s, k)
    else:
        p = optimize.sign_polynomial(s, k).sign_mesh
    return {"values": [as_fraction_string(v) for v in p.values],
            "coeffs": [as_fraction_string(c)
                       for c in mesh_to_coeffs(p)[:k + 1]],
            "trace": as_fraction_string(s.trace(p.values))}


def _t4_row(row):
    """The (d-1) bounds read the analysis's spectrum: an Odd graph's is
    read off its intersection matrix."""
    a = Analysis(generate(FamilySpec.parse(row["family"])))
    return {"alpha": alpha_k_exact(a, row["k"]).alpha_k,
            "bound": bounds_mod.minimum_floor(bounds_mod.dminus1_bounds(a.s))}


def _t5_row(row):
    a = Analysis(_resolve_source(row["source"]))
    _, rr = bounds_mod.qk_bounds(a.s, 2)
    return {"qk": rr.floor_value if rr.applicable else None,
            "alpha2": alpha_k_exact(a, 2).alpha_k}


# table -> (row handler, the row's printed id as a format of its fields);
# a handler returns the row's computed columns, and the replay compares them
# with the row's own values for those columns
_HANDLERS = {
    "t1": (_t1_row, "{id}"),
    "t2": (_t2_row, "{id}"),
    "minor-odd": (_minor_row, "{family}-k{k}"),
    "sign-odd6": (_sign_odd6_row, "{id}"),
    "t4": (_t4_row, "{family}"),
    "t5": (_t5_row, "{id}"),
}
TABLES = tuple(_HANDLERS)


def _replay(handler, row_id: str, row) -> dict:
    """One row's result: ok or mismatch, or missing when its fixture is
    not bundled."""
    kind, _, name = row.get("source", "").partition(":")
    if kind == "fixture" and not (fixtures_dir() / name).exists():
        return {"id": row_id, "status": "missing",
                "note": f"fixture {row['source']} not bundled"}
    computed = handler(row)
    expected = {c: row[c] for c in computed}
    out = {"id": row_id,
           "status": "ok" if computed == expected else "mismatch",
           "computed": computed, "expected": expected}
    note = row.get("note") or row.get("bound_form")
    if note:
        out["note"] = note
    return out


def _row_ids(row) -> set:
    """The ids ``--rows`` selects a row by: its id, else its family and
    family-kK."""
    if "id" in row:
        return {row["id"]}
    return {row["family"], f"{row['family']}-k{row['k']}"}


def run_table(table_id: str, rows_filter=None) -> list:
    """Replay a table, restricted to the comma-separated ids ``rows_filter``
    when given; an id that selects no row is a ValueError."""
    if table_id not in TABLES:
        raise UnknownTable(f"unknown table {table_id!r}; choose from {TABLES}")
    path = fixtures_dir() / "tables" / f"{table_id}.json"
    fix = json.loads(path.read_text())
    if table_id == "sign-odd6":  # one spectrum, a minor and a sign row
        rows = [{"id": part, "family": fix["family"], "k": fix["k"],
                 **fix[part]} for part in ("minor", "sign")]
    else:
        rows = fix["rows"]
    if rows_filter:
        wanted = {r.strip() for r in rows_filter.split(",")}
        unknown = wanted - set().union(*map(_row_ids, rows))
        if unknown:
            raise ValueError(f"no row of table {table_id} has id "
                             + ", ".join(map(repr, sorted(unknown))))
        rows = [r for r in rows if _row_ids(r) & wanted]
    handler, id_form = _HANDLERS[table_id]
    return [_replay(handler, id_form.format(**r), r) for r in rows]


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
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("gen", help="emit a named family as graph6")
    sp.add_argument("--family", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bounds", help="every applicable alpha_k bound")
    add_input(sp)
    sp.add_argument("--k", default="1", help="target distance, or 'all'")
    sp.add_argument("--exact", action="store_true", help="append the exact oracle value")
    sp.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("classify", help="equal-bounds classification")
    add_input(sp)
    sp.add_argument("--k", default="1")
    sp.add_argument("--no-exact", action="store_true", help="skip the exact oracle")
    sp.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
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
