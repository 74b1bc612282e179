"""CLI subcommands: spectrum, gen, bounds, classify, table."""

import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import count_calls, load_fixture, relabelled, traced_peak

from specind import bounds, cli, spectra, symmetry
from specind.graphs import (
    FamilySpec,
    distance_matrix,
    from_adjacency,
    generate,
    to_graph6,
)


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
    """One Analysis serves every k: one distance matrix and at most one
    intersection product, eigensolver call and walk ladder per graph, each
    through the names the analysis calls, none by the CLI itself.  The
    distance-regular hypercube:4 is read off its intersection array, with
    no eigensolver or ladder; the regular prism:5 is not distance-regular,
    so its product finds no array and it takes both."""
    assert not hasattr(cli, "spectrum")  # the CLI runs no eigensolver itself
    calls = [count_calls(monkeypatch, spectra, name)
             for name in ("distance_matrix", "spectrum", "walk_ladder",
                          "intersection_array")]
    for family, want in (("hypercube:4", [1, 0, 0, 1]), ("prism:5", [1, 1, 1, 1])):
        assert cli.main(["bounds", "--family", family, "--k", "all"]) == 0
        assert "best floor" in capsys.readouterr().out
        assert [len(c) for c in calls] == want, family
        for c in calls:
            c.clear()


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
    monkeypatch.setattr(spectra, "spectrum", _fail)
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
    """Every k reads the one family its spectrum keeps."""
    built = count_calls(monkeypatch, spectra, "predistance_polynomials")
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


def test_t4_bound_reads_the_family_spectrum():
    """t4's bound column comes from the closed-form family spectrum; the
    numerical spectrum gives the same floors 4, 7, 8 and 11."""
    rows = json.loads((cli.fixtures_dir() / "tables" / "t4.json").read_text())["rows"]
    for row, want in zip(rows, (4, 7, 8, 11)):
        spec = FamilySpec.parse(row["family"])
        for s in (spectra.exact_family_spectrum(spec),
                  spectra.spectrum(generate(spec))):
            assert bounds.minimum_floor(bounds.dminus1_bounds(s)) == want
    assert [r["status"] for r in cli.run_table("t4")] == ["ok"] * 4


def test_bounds_in_discovers_symmetry_once(tmp_path, monkeypatch, capsys):
    """``bounds --in`` on a relabelled graph hands its analysis to the
    exact oracle: one automorphism discovery serves every k, and the output
    is the generated graph's."""
    path = tmp_path / "q7.g6"
    path.write_text(to_graph6(relabelled("hypercube:7", 7)) + "\n")
    found = count_calls(monkeypatch, symmetry, "discover")
    read_in = _csv_lines(capsys, "--in", str(path), "--k", "all", "--exact")
    assert len(found) == 1
    assert read_in == _csv_lines(capsys, "--family", "hypercube:7", "--k",
                                 "all", "--exact")


@pytest.mark.parametrize("seed", [7, 31])
def test_bounds_in_reads_a_vertex_transitive_graph_off_its_quotient(
        seed, tmp_path, monkeypatch, capsys):
    """``bounds --in`` on kneser:10,3 relabelled (n = 120, not
    distance-regular, no claimed automorphisms): one discovery serves the
    spectrum and every k of the exact oracle, no eigensolver or walk ladder
    runs, and the output is the generated graph's."""
    path = tmp_path / "k10-3.g6"
    path.write_text(to_graph6(relabelled("kneser:10,3", seed)) + "\n")
    found = count_calls(monkeypatch, symmetry, "discover")
    solved = [count_calls(monkeypatch, spectra, name)
              for name in ("spectrum", "walk_ladder")]
    read_in = _csv_lines(capsys, "--in", str(path), "--k", "all", "--exact")
    assert read_in == _csv_lines(capsys, "--family", "kneser:10,3", "--k",
                                 "all", "--exact")
    assert len(found) == 1 and solved == [[], []]


def test_bounds_in_transient_memory(tmp_path, capsys):
    """``bounds --in odd6.g6 --k all``: from the read to the last report the
    traced peak stays within 4 bytes per vertex pair (2.99 measured: the
    adjacency and the uint8 distances, one byte a pair each, plus the
    largest stage's blocks; 8.0 with uint16 distances and a float32 copy
    of A in the intersection product).  A Petersen run first makes the
    imports and caches of a first call."""
    g = generate(FamilySpec.parse("odd:6"))
    path = tmp_path / "odd6.g6"
    path.write_text(to_graph6(g) + "\n")
    warm = tmp_path / "petersen.g6"
    warm.write_text(to_graph6(generate(FamilySpec.parse("petersen"))) + "\n")
    assert cli.main(["bounds", "--in", str(warm), "--k", "all"]) == 0
    code, peak = traced_peak(cli.main, ["bounds", "--in", str(path), "--k", "all"])
    assert code == 0 and "best floor" in capsys.readouterr().out
    assert peak <= 4 * g.n ** 2, peak / g.n ** 2


def test_bounds_csv_does_not_depend_on_labelling(tmp_path, capsys):
    """hypercube:7 and middle-cube, each relabelled by one
    ``numpy.random.default_rng(seed)`` permutation at seeds 7, 11 and 16,
    print the identity labelling's CSV, MP3 reason text included.  The
    eigensolver rounds the eigenvalues at the MP2 and MP4 thresholds (-1
    and 0) to either side under these relabellings (hypercube:7 at 16,
    middle-cube at 7); the index rules forgive that rounding, and the
    hypercube's spectrum is read off its intersection array anyway."""
    path = tmp_path / "g.g6"
    for name, g in (("hypercube:7", generate(FamilySpec.parse("hypercube:7"))),
                    ("middle-cube", load_fixture("middle-cube"))):
        path.write_text(to_graph6(g) + "\n")
        want = _csv_lines(capsys, "--in", str(path), "--k", "all")
        for seed in (7, 11, 16):
            perm = np.random.default_rng(seed).permutation(g.n)
            path.write_text(to_graph6(from_adjacency(
                g.adjacency[np.ix_(perm, perm)])) + "\n")
            assert _csv_lines(capsys, "--in", str(path), "--k", "all") == want, (
                name, seed)


def test_spectrum_json_does_not_depend_on_labelling(tmp_path, capsys):
    """``spectrum`` prints the analysis's spectrum: on the distance-regular
    dodecahedron and Coxeter graph it is read off the intersection array,
    so the bundled file and its ``tools/relabel.py`` copy at seed 7 print
    the same JSON.  The eigensolver moved the last bits of theta with the
    labelling (2.2360679774997902 against 2.2360679774997894 on the
    dodecahedron)."""
    path = tmp_path / "g.g6"
    for name in ("dodecahedron", "coxeter"):
        g = load_fixture(name)
        perm = np.random.default_rng(7).permutation(g.n)
        out = []
        for h in (g, from_adjacency(g.adjacency[np.ix_(perm, perm)])):
            path.write_text(to_graph6(h) + "\n")
            assert cli.main(["spectrum", "--in", str(path)]) == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1], name


def test_table_unknown():
    res = run_cli("table", "nonsense", check=False)
    assert res.returncode == 2


def test_table_row_filter():
    res = run_cli("table", "t5", "--rows", "frucht,nauru,hoffman")
    assert "mismatch 0" in res.stdout
    assert "ok 3" in res.stdout


def test_table_row_filter_unknown_id_is_an_error(capsys):
    """An id that selects no row exits 2 and names the id; a known id next
    to it does not save the call."""
    assert cli.main(["table", "t1", "--rows", "nosuchrow"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "nosuchrow" in err
    assert cli.main(["table", "t5", "--rows", "frucht,nosuchrow"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "nosuchrow" in err and "frucht" not in err


def test_table_row_filter_every_table(capsys):
    """--rows restricts every table, sign-odd6's minor and sign rows
    included; t4 and minor-odd rows answer to family and family-kK."""
    for table, rows, ids in [("sign-odd6", "sign", ["sign"]),
                             ("sign-odd6", "minor", ["minor"]),
                             ("t2", "c5", ["c5"]),
                             ("t4", "odd:3", ["odd:3"]),
                             ("minor-odd", "odd:5-k2", ["odd:5-k2"])]:
        assert cli.main(["table", table, "--rows", rows,
                         "--format", "json"]) == 0, table
        got = json.loads(capsys.readouterr().out)
        assert [r["id"] for r in got] == ids, table
        assert all(r["status"] == "ok" for r in got), table
