"""Correctness checks and failure accounting, run outside the timed region.

A run is correct when, for every call:

* a ``bounds`` call prints the same (k, method, applicable, floor) tuples as
  the identity labelling recorded in ``reference.json`` (reason text is not
  compared: eigenvalue rounding changes it under relabelling), except that a
  guaranteed bound which failed in either is counted as a failure instead;
* a ``classify`` call prints the same verdict as the identity labelling;
* a ``table`` replay exits 0 and reports ``mismatch 0``;
* every applicable floor is at least alpha_k wherever alpha_k is known, from
  the reference or from the run's own exact rows.

An operation has failed when a bound that the paper guarantees comes back
inapplicable, when an exact search times out, or when a call exits non-zero.
Guarantees come from ``spectra.classify_regularity`` on the identity
labelling, recorded in the reference (they are graph invariants):
``pwr_inertia`` exists when pwr_level >= k and k < d (k below the diameter),
and ``pwr_ratio`` also needs a regular graph.  No message text is read.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
GUARANTEED = ("pwr_inertia", "pwr_ratio")
_SUMMARY = re.compile(r"^ok (\d+)\s+mismatch (\d+)\s+missing (\d+)$")


@dataclass(frozen=True)
class Conditions:
    """Graph invariants that decide which bounds the paper guarantees."""

    diameter: int
    d: int
    pwr_level: int
    is_regular: bool

    def guaranteed(self, k: int) -> tuple:
        if not (k < self.diameter and k < self.d and self.pwr_level >= k):
            return ()
        return GUARANTEED if self.is_regular else GUARANTEED[:1]


def bound_tuples(csv_text: str) -> list:
    """(k, method, applicable, floor) per CSV row, floor None when inapplicable."""
    rows = csv.DictReader(io.StringIO(csv_text))
    return [(int(r["k"]), r["method"], r["applicable"] == "True",
             int(r["floor"]) if r["floor"] else None) for r in rows]


def verdict(json_text: str) -> dict:
    out = json.loads(json_text)
    out.pop("exact_note", None)
    return out


def table_counts(text: str):
    """(ok, mismatch, missing) from a table replay's summary line, or None."""
    lines = text.strip().splitlines()
    m = _SUMMARY.match(lines[-1].strip()) if lines else None
    return tuple(int(x) for x in m.groups()) if m else None


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


@dataclass
class Audit:
    """Counts checks, violations and failed operations for one run."""

    reference: dict
    checks: int = 0
    skipped: int = 0
    violations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    instances: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.violations.append(what)

    def op(self, failed: bool) -> None:
        self.attempted += 1
        self.failed += bool(failed)

    def known_alpha(self, graph: str) -> dict:
        return {int(k): a for k, a in self.reference["alpha"].get(graph, {}).items()}

    def audit(self, call, rc, stdout: str) -> None:
        self.op(rc != 0)
        if call.kind == "table":
            counts = table_counts(stdout)
            self.check(rc == 0 and counts is not None and counts[1] == 0,
                       f"{call.label}: exit {rc}, summary {counts}")
            self.instances += counts[0] + counts[1] if counts else 0
            return
        if rc != 0:
            self.skipped += 1
            return
        if call.kind == "bounds":
            self._audit_bounds(call, bound_tuples(stdout))
        else:
            self._audit_classify(call, verdict(stdout))

    def _audit_bounds(self, call, tuples: list) -> None:
        cond = Conditions(**self.reference["conditions"][call.graph])
        ref = [tuple(t) for t in self.reference["calls"][call.label]]
        guaranteed = {(k, m) for k in range(1, cond.diameter) for m in cond.guaranteed(k)}
        # a guaranteed bound that failed on either side is counted as a failed
        # operation below, not compared: a missing bound is not a wrong one
        failed = {(k, m) for k, m, a, _ in tuples + ref if not a and (k, m) in guaranteed}

        def comparable(ts):
            return Counter(t for t in ts if t[:2] not in failed)

        self.check(comparable(tuples) == comparable(ref),
                   f"{call.label}: tuples differ from the identity labelling")
        ks = {k for k, *_ in tuples}
        self.instances += len(ks)
        applicable = {(k, m) for k, m, a, _ in tuples if a}
        for key in guaranteed:
            self.op(key not in applicable)
        alpha = self.known_alpha(call.graph)
        alpha.update({k: f for k, m, a, f in tuples if m == "exact" and a})
        for k, m, a, f in tuples:
            if a and m != "exact" and k in alpha:
                self.check(f >= alpha[k],
                           f"{call.label}: {m} floor {f} < alpha_{k} = {alpha[k]}")

    def _audit_classify(self, call, v: dict) -> None:
        ref = dict(self.reference["calls"][call.label])
        if v["exact"] is None:  # a timed-out oracle is a failure, not a wrong answer
            ref.update(exact=None, is_tight_ch=None)
        self.check(v == ref, f"{call.label}: verdict differs from the identity labelling")
        self.instances += 1
        self.op(v["exact"] is None)
        alpha = self.known_alpha(call.graph).get(v["k"], v["exact"])
        if alpha is not None:
            for key in ("inertia", "ratio"):
                self.check(v[key] >= alpha,
                           f"{call.label}: {key} {v[key]} < alpha_{v['k']} = {alpha}")
