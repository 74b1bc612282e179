"""CLI subcommands: spectrum, gen, bounds, classify, table."""

import json
import subprocess
import sys

import pytest

from specind import bounds, cli, polys, spectra
from specind.graphs import FamilySpec, distance_matrix, generate


def run_cli(*args, check=True):
    res = subprocess.run([sys.executable, "-m", "specind.cli", *args],
                         capture_output=True, text=True)
    if check:
        assert res.returncode == 0, res.stderr
    return res


def test_spectrum_family():
    res = run_cli("spectrum", "--family", "petersen")
    data = json.loads(res.stdout)
    assert data["theta"] == [3, 1, -2]
    assert data["mult"] == [1, 5, 4]
    assert data["n"] == 10


def test_gen_graph6_round_trip(tmp_path):
    res = run_cli("gen", "--family", "cycle:6")
    g6 = res.stdout.strip()
    path = tmp_path / "c6.g6"
    path.write_text(g6 + "\n")
    res = run_cli("spectrum", "--in", str(path))
    data = json.loads(res.stdout)
    assert data["n"] == 6 and data["theta"][0] == 2


def test_bounds_text_and_floor():
    res = run_cli("bounds", "--family", "odd:6", "--k", "4", "--exact")
    assert "11" in res.stdout


def test_bounds_json_format():
    res = run_cli("bounds", "--family", "petersen", "--k", "1",
                  "--format", "json")
    reports = json.loads(res.stdout)
    methods = {r["method"] for r in reports}
    assert "cvetkovic" in methods and "hoffman" in methods


def test_bounds_csv_format():
    res = run_cli("bounds", "--family", "petersen", "--k", "1",
                  "--format", "csv")
    assert res.stdout.splitlines()[0].startswith("method,k,value,floor")


def test_bounds_all_k():
    res = run_cli("bounds", "--family", "hypercube:4", "--k", "all")
    assert res.stdout.strip()


@pytest.mark.parametrize("fixture,k,level", [("tutte", 4, 3), ("durer", 3, 2),
                                              ("frucht", 3, 2)])
def test_bounds_text_states_why_no_bound_applies(fixture, k, level):
    """k below the diameter but above the pwr level: no method applies, and
    the text output says so instead of printing nothing; CSV stays a bare
    header."""
    path = str(cli.fixtures_dir() / f"{fixture}.g6")
    res = run_cli("bounds", "--in", path, "--k", str(k))
    assert res.stdout == f"k={k}  no bound applies: pwr level {level} < k\n"
    res = run_cli("bounds", "--in", path, "--k", str(k), "--format", "csv")
    assert res.stdout == "method,k,value,floor,applicable,reason\n"


def _fail(*args, **kwargs):
    raise AssertionError("the graph was analysed again")


def test_bounds_all_k_analyses_graph_once(monkeypatch, capsys):
    monkeypatch.setattr(bounds, "spectrum", _fail)
    monkeypatch.setattr(bounds, "classify_regularity", _fail)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return spectra.classify_regularity(*args, **kwargs)

    monkeypatch.setattr(cli, "classify_regularity", counting, raising=False)
    assert cli.main(["bounds", "--family", "hypercube:4", "--k", "all"]) == 0
    assert "best floor" in capsys.readouterr().out
    assert len(calls) == 1


def _csv_lines(capsys, *args):
    assert cli.main(["bounds", *args, "--format", "csv"]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("family", ["petersen", "hypercube:4"])
def test_bounds_all_k_matches_per_k_runs(family, capsys):
    diameter = distance_matrix(generate(FamilySpec.parse(family))).diameter
    all_k = _csv_lines(capsys, "--family", family, "--k", "all")
    per_k = [_csv_lines(capsys, "--family", family, "--k", str(k))
             for k in range(1, diameter + 1)]
    assert all_k == per_k[0][:1] + [row for out in per_k for row in out[1:]]


def test_bounds_k_at_least_diameter_skips_spectrum(monkeypatch, capsys):
    monkeypatch.setattr(cli, "spectrum", _fail)
    monkeypatch.setattr(bounds, "spectrum", _fail)
    lines = _csv_lines(capsys, "--family", "complete:5", "--k", "3")
    assert lines[1:] == ["trivial,3,1,1,True,k >= diameter"]


def test_one_parser_serves_every_call(capsys):
    """main reuses one parse tree per process; calls made one after another
    in one process print what separate processes print."""
    calls = [("bounds", "--family", "petersen", "--k", "all", "--exact",
              "--format", "csv"),
             ("classify", "--family", "petersen", "--k", "1"),
             ("bounds", "--family", "hypercube:4", "--k", "2")]
    in_process = []
    for argv in calls:
        assert cli.main(list(argv)) == 0
        in_process.append(capsys.readouterr().out)
    assert cli.build_parser() is cli.build_parser()
    assert in_process == [run_cli(*argv).stdout for argv in calls]


def test_bounds_all_k_builds_predistance_family_once(monkeypatch, capsys):
    built = []

    def counting(s):
        built.append(s)
        return polys.predistance_polynomials(s)

    monkeypatch.setattr(bounds, "predistance_polynomials", _fail)
    monkeypatch.setattr(cli, "predistance_polynomials", counting)
    assert cli.main(["bounds", "--family", "odd:5", "--k", "all"]) == 0
    assert "best floor" in capsys.readouterr().out
    assert len(built) == 1


def test_runtime_imports_numpy_only():
    """The installed package depends on numpy alone: scipy, the test suite's
    oracle, must not be imported by any solver on the CLI's paths."""
    code = "\n".join([
        "import contextlib, io, sys",
        "from specind.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['bounds', '--family', 'petersen', '--k', 'all', '--exact']) == 0",
        "    assert main(['classify', '--family', 'odd:4', '--k', '2']) == 0",
        "print('scipy' in sys.modules)",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_classify():
    res = run_cli("classify", "--family", "kneser:6,2", "--k", "1")
    data = json.loads(res.stdout)
    assert data["is_ch"] and data["is_tight_ch"]
    assert data["inertia"] == 5 and data["ratio"] == 5


def test_classify_no_exact():
    res = run_cli("classify", "--family", "odd:5", "--k", "3", "--no-exact")
    data = json.loads(res.stdout)
    assert data["inertia"] == 8 and data["exact"] is None


def test_error_exit_code():
    res = run_cli("spectrum", "--family", "unknown:1", check=False)
    assert res.returncode == 2
    res = run_cli("spectrum", "--in", "/nonexistent/file.g6", check=False)
    assert res.returncode == 2
    res = run_cli("classify", "--family", "complete_bipartite:4,5", "--k", "1",
                  "--no-exact", check=False)
    assert res.returncode == 2 and "NotRegular" in res.stderr


@pytest.mark.parametrize("text,message", [
    ("0 1\n1 2\n0 -1\n", "negative vertex id"),
    ("0 1\n1 1\n", "loop"),
])
def test_edge_list_errors_name_the_edge_list(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    res = run_cli("spectrum", "--in", str(path), check=False)
    assert res.returncode == 2
    assert message in res.stderr and "graph6" not in res.stderr


def test_graph6_line_in_txt_file_loads(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(run_cli("gen", "--family", "cycle:6").stdout)
    data = json.loads(run_cli("spectrum", "--in", str(path)).stdout)
    assert data["n"] == 6 and data["theta"][0] == 2


def test_exact_timeout_exit_code(capsys):
    """A search over its time budget is not invalid input: exit 1."""
    argv = ["bounds", "--family", "odd:5", "--k", "1", "--exact",
            "--timeout", "0.5"]
    assert cli.main(argv) == 1
    assert "SearchTimeout" in capsys.readouterr().err


def test_table_t1():
    res = run_cli("table", "t1")
    assert "mismatch 0" in res.stdout


def test_table_t2():
    res = run_cli("table", "t2")
    assert "mismatch 0" in res.stdout


def test_table_minor_odd():
    res = run_cli("table", "minor-odd")
    assert "mismatch 0" in res.stdout


def test_table_sign_odd6():
    res = run_cli("table", "sign-odd6")
    assert "mismatch 0" in res.stdout


def test_table_unknown():
    res = run_cli("table", "nonsense", check=False)
    assert res.returncode == 2


def test_table_row_filter():
    res = run_cli("table", "t5", "--rows", "frucht,nauru,hoffman")
    assert "mismatch 0" in res.stdout
    assert "ok 3" in res.stdout
