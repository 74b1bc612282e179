"""Regenerate reference.json: identity-labelled outputs and known alpha_k.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

It runs every bounds and classify call of every workload once on the
unrelabelled graphs and records the (k, method, applicable, floor) tuples
and classify verdicts that ``checks.py`` compares each run against.  For every
input graph it records the regularity conditions that decide which bounds
are guaranteed, and alpha_k for every k below the diameter whose exact
search finishes within ALPHA_TIMEOUT seconds; the rest stay unknown.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from run import SRC, run_call

sys.path.insert(0, str(SRC))

from specind import cli  # noqa: E402
from specind.errors import SearchTimeout  # noqa: E402
from specind.exact import alpha_k_exact  # noqa: E402
from specind.graphs import distance_matrix, parse_graph6  # noqa: E402
from specind.spectra import classify_regularity, spectrum  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ALPHA_TIMEOUT = 10.0


def main() -> int:
    ref = {"calls": {}, "alpha": {}, "conditions": {}}
    with tempfile.TemporaryDirectory(dir=SRC.parent) as tmp:
        for workload in workloads.WORKLOADS:
            paths = workloads.write_inputs(workload, None, Path(tmp))
            for call in workloads.calls(workload, paths):
                if call.kind == "table":
                    continue
                _, rc, out = run_call(cli, call)
                if rc != 0:
                    raise SystemExit(f"{call.label}: exit {rc}")
                ref["calls"][call.label] = (checks.bound_tuples(out) if call.kind == "bounds"
                                            else checks.verdict(out))
            for name, path in paths.items():
                if name in ref["alpha"]:
                    continue
                g = parse_graph6(path.read_text())
                dm = distance_matrix(g)
                s = spectrum(g)
                reg = classify_regularity(g, s, dm)
                ref["conditions"][name] = asdict(checks.Conditions(
                    dm.diameter, s.d, reg.pwr_level, reg.is_regular))
                known = {}
                for k in range(1, dm.diameter):
                    try:
                        known[str(k)] = alpha_k_exact(g, k, dm=dm, timeout=ALPHA_TIMEOUT).alpha_k
                    except SearchTimeout:
                        pass
                ref["alpha"][name] = known
                print(f"{name}: alpha_k known for k in {sorted(map(int, known))}", flush=True)
    checks.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
