"""Traced pass: each call's work redone through the modules' public functions.

Spans are recorded here, around the calls into each layer; nothing inside
``src/`` is instrumented.  Every span's parent is the root span of the CLI
call it stands for, so the spans of one call share that root.  Spans marked
``probe`` time an optimize or polys call separately on the same
(spectrum, k) that ``bounds.best_bounds`` then repeats internally: they give
the optimize and polys layer times and are left out of the one-pass layer
sum, so ``bounds.self_s`` (best_bounds minus its probes) is an estimate.
``cli.overhead_s`` is the untraced CLI pass minus that layer sum: the work a
command does beyond one pass of each layer, such as recomputation.  A layer
that a workload never calls reports 0 (exact and ch on sign-heavy).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from specind import optimize
from specind.bounds import best_bounds
from specind.ch import ch_classify
from specind.cli import fixtures_dir
from specind.errors import SearchTimeout, SpecindError
from specind.exact import alpha_k_exact
from specind.graphs import FamilySpec, distance_matrix, generate, parse_graph6
from specind.polys import predistance_polynomials
from specind.spectra import (
    classify_regularity,
    exact_family_spectrum,
    spectrum,
    srg_raw_spectrum,
)

CLI_TIMEOUT = 120.0  # the CLI's default --timeout, which the workloads keep

TIME_LAYERS = ("graphs.build", "graphs.distance_matrix", "spectra.spectrum",
               "spectra.regularity", "optimize.sign", "optimize.minor",
               "polys.predistance", "bounds.best_bounds", "exact.alpha",
               "ch.classify")


@dataclass
class Tracer:
    """Spans and counters of one traced pass, kept in memory until written."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str, probe: bool = False):
        rec = {"id": len(self.spans), "name": name, "probe": probe,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def busy(self, name: str, probe: bool | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and probe in (None, s["probe"]))

    def write(self, path) -> None:
        path.write_text(json.dumps(self.spans))


def _graph(tr: Tracer, build):
    with tr.span("graphs.build"):
        g = build()
    with tr.span("graphs.distance_matrix"):
        dm = distance_matrix(g)
    tr.counts["graphs.dist_bytes"] += g.n * g.n * 4  # int32 matrix, computed not measured
    return g, dm


def _spectrum(tr: Tracer, fn, *args):
    tr.counts["spectra.calls"] += 1
    with tr.span("spectra.spectrum"):
        return fn(*args)


def _sign(tr: Tracer, s, k, probe=False):
    tr.counts["optimize.sign_calls"] += 1
    with tr.span("optimize.sign", probe):
        try:
            optimize.sign_polynomial(s, k)
        except SpecindError:
            tr.counts["optimize.sign_failed"] += 1


def _minor(tr: Tracer, s, k, probe=False):
    with tr.span("optimize.minor", probe):
        try:
            optimize.minor_polynomial(s, k)
        except SpecindError:
            tr.counts["optimize.minor_failed"] += 1


def _exact(tr: Tracer, g, k, dm):
    tr.counts["exact.calls"] += 1
    with tr.span("exact.alpha"):
        try:
            alpha_k_exact(g, k, dm=dm, timeout=CLI_TIMEOUT)
        except SearchTimeout:
            tr.counts["exact.timeouts"] += 1


def _bounds(tr: Tracer, path, exact: bool) -> None:
    g, dm = _graph(tr, lambda: parse_graph6(path.read_text()))
    s = _spectrum(tr, spectrum, g)
    tr.counts["spectra.calls"] += 1
    with tr.span("spectra.regularity"):
        reg = classify_regularity(g, s, dm)
    for k in range(1, dm.diameter + 1):
        if k < dm.diameter and reg.pwr_level >= k:
            if k < s.d:
                _sign(tr, s, k, probe=True)
                if reg.is_regular:
                    _minor(tr, s, k, probe=True)
            with tr.span("polys.predistance", probe=True):
                predistance_polynomials(s)
        with tr.span("bounds.best_bounds"):
            reports = best_bounds(g, k, s=s, dm=dm, reg=reg)
        tr.counts["bounds.reports"] += len(reports)
        tr.counts["bounds.applicable"] += sum(r.applicable for r in reports)
        if exact:
            _exact(tr, g, k, dm)


def _classify(tr: Tracer, path, k: int) -> None:
    with tr.span("graphs.build"):
        g = parse_graph6(path.read_text())
    s = _spectrum(tr, spectrum, g)
    tr.counts["ch.calls"] += 1
    with tr.span("ch.classify"):
        ch_classify(g, k, s=s, timeout=CLI_TIMEOUT)


def _source_graph(source: str):
    """A table row's graph, or None when its fixture is not bundled."""
    kind, _, rest = source.partition(":")
    if kind == "family":
        return lambda: generate(FamilySpec.parse(rest))
    path = fixtures_dir() / rest
    return (lambda: parse_graph6(path.read_text())) if path.exists() else None


def _table(tr: Tracer, table_id: str) -> None:
    """The layer calls each table row makes, on the row's own inputs."""
    fix = json.loads((fixtures_dir() / "tables" / f"{table_id}.json").read_text())
    if table_id == "sign-odd6":
        s = _spectrum(tr, exact_family_spectrum, FamilySpec.parse(fix["family"]))
        _minor(tr, s, fix["k"])
        _sign(tr, s, fix["k"])
        return
    for row in fix["rows"]:
        if table_id == "t2":
            _spectrum(tr, srg_raw_spectrum, *row["params"])
        elif table_id == "minor-odd":
            s = _spectrum(tr, exact_family_spectrum, FamilySpec.parse(row["family"]))
            _minor(tr, s, row["k"])
        else:
            source = "family:" + row["family"] if table_id == "t4" else row["source"]
            build = _source_graph(source)
            if build is None:
                continue
            g, dm = _graph(tr, build)
            s = _spectrum(tr, spectrum, g)
            if table_id == "t5":
                with tr.span("polys.predistance"):
                    predistance_polynomials(s)
            k = {"t1": 1, "t4": row.get("k"), "t5": 2}[table_id]
            _exact(tr, g, k, dm)


def traced_pass(calls, tr: Tracer) -> float:
    """Run every call's layer work once; returns the traced wall seconds."""
    for call in calls:
        with tr.span("call"):
            tr.spans[-1]["label"] = call.label
            if call.kind == "bounds":
                _bounds(tr, call.path, call.exact)
            elif call.kind == "classify":
                _classify(tr, call.path, call.k)
            else:
                _table(tr, call.argv[1])
    return sum(s["end"] - s["start"] for s in tr.spans if s["name"] == "call")


def layer_metrics(tr: Tracer, cli_wall: float) -> dict:
    """Per-layer busy seconds and counts for one pass."""
    out = {f"{name}_s": tr.busy(name) for name in TIME_LAYERS}
    probes = sum(tr.busy(n, probe=True)
                 for n in ("optimize.sign", "optimize.minor", "polys.predistance"))
    out["bounds.self_s"] = out["bounds.best_bounds_s"] - probes
    layer_sum = sum(s["end"] - s["start"] for s in tr.spans
                    if s["name"] != "call" and not s["probe"])
    out["cli.overhead_s"] = cli_wall - layer_sum
    for name in ("graphs.dist_bytes", "spectra.calls", "optimize.sign_calls",
                 "optimize.sign_failed", "optimize.minor_failed", "bounds.reports",
                 "exact.calls", "exact.timeouts", "ch.calls"):
        out[name] = tr.counts[name]
    reports = tr.counts["bounds.reports"]
    out["bounds.applicable_frac"] = tr.counts["bounds.applicable"] / reports if reports else 0.0
    return out
