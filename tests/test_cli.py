import json
import os

import pytest

from polygrid import PlanarEmbedding, cli, decide, fixtures, write_pgg
from polygrid.cli import main
from polygrid.oracle import gen_grid


@pytest.fixture
def pgg(tmp_path):
    def save(g):
        path = tmp_path / f"{g.name}.pgg"
        path.write_text(write_pgg(g))
        return str(path)
    return save


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(pgg, capsys):
    code, out, _ = run(capsys, "classify", pgg(fixtures.domino()))
    assert code == 0
    assert "|V|=6 |E|=7" in out
    assert "w=2" in out
    assert "case-i" in out


def test_classify_json(pgg, capsys):
    code, out, _ = run(capsys, "classify", pgg(fixtures.grid3()), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["edgeWeights"]) == 12
    assert sum(1 for v in payload["vertexClasses"]
               if v["class"] == "interior") == 1


def test_grinberg_feasible(pgg, capsys):
    code, out, _ = run(capsys, "grinberg", pgg(fixtures.square()))
    assert code == 0
    assert "4f4 - 2(f4 - 1) = 4" in out
    assert "solution 0" in out


def test_grinberg_infeasible_json(pgg, capsys):
    code, out, _ = run(capsys, "grinberg", pgg(fixtures.grid3()), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["partitions"] == []


def test_grinberg_all(pgg, capsys):
    code, out, _ = run(capsys, "grinberg", pgg(fixtures.grid4()), "--all",
                       "--json")
    assert code == 0
    assert len(json.loads(out)["partitions"]) == 36


def test_grinberg_all_past_63_faces(pgg, capsys):
    # 9x9 has 64 faces and odd order; the 2x66 strip has 65 faces, all
    # inside its one Hamilton cycle.
    code, out, _ = run(capsys, "grinberg", pgg(gen_grid(9, 9)), "--all")
    assert code == 0
    assert "no solution" in out
    code, out, _ = run(capsys, "grinberg", pgg(gen_grid(2, 66)), "--all",
                       "--json")
    assert code == 0
    partitions = json.loads(out)["partitions"]
    assert partitions == [{"inside": list(range(65)), "outside": []}]


def test_grinberg_bad_limit_exit_3(pgg, capsys):
    # decide checks the bound before any stage runs: grid3's infeasible
    # equation would otherwise decide first, and grid4 would reach the
    # certificate stage only after the whole hole search.
    square = pgg(fixtures.square())
    for argv in (("grinberg", square, "--limit", "0"),
                 ("grinberg", square, "--limit", "-2"),
                 ("decide", pgg(fixtures.grid3()), "--limit", "0"),
                 ("decide", pgg(fixtures.grid4()), "--limit", "-2")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "error: limit must be >= 1" in err


def test_decide_on_a_tree_exit_3(pgg, capsys):
    path = PlanarEmbedding({1: (0, 0), 2: (1, 0), 3: (2, 0)},
                           [(1, 2), (2, 3)], name="path3")
    code, out, err = run(capsys, "decide", pgg(path))
    assert code == 3
    assert out == ""
    assert err == "error: graph has no bounded face\n"


def test_bad_max_cx_exit_3(pgg, capsys):
    # A bound below 1 would search no C_x set, so the hole rule would be
    # skipped without a word.
    path = pgg(fixtures.grid4())
    for argv in (("decide", path, "--max-cx", "-2"),
                 ("decide", path, "--max-cx", "0", "--lenient-claw"),
                 ("holes", path, "--max-cx", "0"),
                 ("holes", path, "--max-cx", "-2", "--json")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "error: max_cx must be >= 1" in err


def test_holes_json(pgg, capsys):
    code, out, _ = run(capsys, "holes", pgg(fixtures.grid4()), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["anyGlobalHole"] is False
    assert payload["contexts"]


def test_holes_no_contexts(pgg, capsys):
    code, out, _ = run(capsys, "holes", pgg(fixtures.square()))
    assert code == 0
    assert "no hole contexts" in out


def test_holes_lists_the_contexts_decide_searches(pgg, capsys):
    # The 4x5 grid is Hamiltonian, yet the global-hole rule rejects it: the
    # first global hole `holes` lists is the one decide reports.  A context
    # holds exactly what the global-hole test reads: x, C_x and C_k.
    g = gen_grid(4, 5)
    path = pgg(g)
    code, out, _ = run(capsys, "holes", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["anyGlobalHole"] is True
    first = next(c for c in payload["contexts"] if c["globalHole"])
    hole = decide(g, claw_mode="lenient").hole
    assert first == {"x": hole.x, "cx": list(hole.cx), "ck": hole.ck,
                     "globalHole": True}
    code, out, _ = run(capsys, "holes", path)
    assert code == 0
    first = next(line for line in out.splitlines()
                 if line.endswith("globalHole=True"))
    assert first == "x=7 Cx=[1, 4, 9] Ck=6 globalHole=True"


def test_decide_exit_codes(pgg, capsys):
    assert run(capsys, "decide", pgg(fixtures.square()))[0] == 0
    assert run(capsys, "decide", pgg(fixtures.grid3()))[0] == 1
    assert run(capsys, "decide", pgg(fixtures.domino()))[0] == 1
    assert run(capsys, "decide", pgg(fixtures.domino()),
               "--lenient-claw")[0] == 0


def test_decide_json_certificate(pgg, capsys):
    code, out, _ = run(capsys, "decide", pgg(fixtures.grid4()), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Hamiltonian"
    assert len(payload["certificate"]) == 16


def test_subbases_reduce(pgg, capsys):
    code, out, _ = run(capsys, "subbases", pgg(fixtures.grid4()),
                       "--reduce", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gCount"] == 1
    assert payload["reduced"]["failedRecords"] == []


def test_oracle_json(pgg, capsys):
    code, out, _ = run(capsys, "oracle", pgg(fixtures.grid3()), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is False
    assert payload["timedOut"] is False


def test_oracle_text_outcomes(pgg, capsys):
    # One run for each outcome: a cycle found, none (the search ran to the
    # end) and a budget too small to tell.
    for argv, text in (
            ((pgg(fixtures.square()),),
             "graph square: Hamilton cycle found (4 nodes)\n"
             "  0-1 0-2 1-3 2-3\n"),
            ((pgg(fixtures.grid3()),),
             "graph grid3: no Hamilton cycle (11 nodes, exact)\n"),
            ((pgg(fixtures.grid4()), "--budget", "3"),
             "graph grid4: timed out after 4 nodes\n")):
        assert run(capsys, "oracle", *argv) == (0, text, ""), argv


def test_oracle_too_deep_exit_3(tmp_path, capsys):
    # The oracle recurses once per path vertex; a 1040-vertex strip is
    # past Python's default recursion limit.
    code, out, _ = run(capsys, "gen", "grid", "2", "520")
    assert code == 0
    path = tmp_path / "strip.pgg"
    path.write_text(out)
    code, out, err = run(capsys, "oracle", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_decide_long_strip_exit_0(pgg, capsys):
    # Solving the strip's 1099-face equation does not recurse per face.
    assert run(capsys, "decide", pgg(gen_grid(2, 1100)))[0] == 0


def test_gen_roundtrips_through_decide(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "grid", "4", "4")
    assert code == 0
    path = tmp_path / "gen.pgg"
    path.write_text(out)
    code, out, _ = run(capsys, "decide", str(path))
    assert code == 0


def test_gen_bad_hole_exit_3(capsys):
    code, _, err = run(capsys, "gen", "grid", "4", "4", "--holes", "0,0")
    assert code == 3
    assert "error:" in err


def test_gen_malformed_holes_name_the_cell(capsys):
    # Each chunk of --holes is one "x,y" cell; a chunk with another number
    # of values, or that is not a number, is named in the error.
    for holes, chunk in (("1", "'1'"), ("1,1;", "''"), ("1,1,1", "'1,1,1'"),
                         ("1,1;a,2", "'a,2'")):
        code, out, err = run(capsys, "gen", "grid", "6", "6",
                             "--holes", holes)
        assert code == 3, holes
        assert out == ""
        assert err == f"error: bad hole cell {chunk} (want x,y)\n"


def test_missing_file_exit_3(tmp_path, capsys):
    # A path that does not exist, or a directory where a file is read or
    # written, is an input error, not a traceback.
    for argv in (("decide", "/nonexistent/nope.pgg"),
                 ("decide", str(tmp_path)),
                 ("classify", str(tmp_path), "--json"),
                 ("compare", "--polyominoes", "1", "--out", str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_compare_unwritable_out_exits_before_the_audit(tmp_path, capsys,
                                                     monkeypatch):
    # `--out` is opened first, so a directory there fails at once, even
    # with the full 3792-graph corpus requested.
    def refuse(*args, **kwargs):
        raise AssertionError("the audit ran before --out was opened")

    monkeypatch.setattr(cli, "compare", refuse)
    code, out, err = run(capsys, "compare", "--polyominoes", "8",
                         "--out", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_compare_bad_budget_exits_before_building_polyominoes(capsys,
                                                              monkeypatch):
    def unbuilt(max_faces):
        raise AssertionError("a polyomino was built before the budget check")
        yield

    monkeypatch.setattr(cli, "enumerate_polyominoes", unbuilt)
    code, out, err = run(capsys, "compare", "--polyominoes", "8",
                         "--budget", "0")
    assert (code, out, err) == (3, "", "error: budget must be >= 1\n")


def test_compare_bad_size_exit_3_and_keeps_out(tmp_path, capsys):
    # The size is checked before `--out` is opened, so an existing report
    # is left as it was, and a size that would audit nothing is an error.
    report = tmp_path / "report.json"
    report.write_text("kept\n")
    for size in ("0", "-3", "11"):
        code, out, err = run(capsys, "compare", "--polyominoes", size,
                             "--out", str(report))
        assert code == 3, size
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, size
        assert report.read_text() == "kept\n", size


def test_compare_bad_budget_keeps_out(tmp_path, capsys):
    # `--out` is opened before `compare` checks the budget, but it is
    # emptied only once the report is ready, so an existing report is left
    # as it was.
    report = tmp_path / "report.json"
    report.write_text("kept\n")
    for budget in ("0", "-1"):
        code, out, err = run(capsys, "compare", "--polyominoes", "3",
                             "--budget", budget, "--out", str(report))
        assert (code, out, err) == (3, "", "error: budget must be >= 1\n")
        assert report.read_text() == "kept\n", budget


def test_compare_bad_budget_creates_no_out(tmp_path, capsys):
    # A failed run removes the `--out` file it created, and only that one.
    report = tmp_path / "nofile.json"
    code, out, err = run(capsys, "compare", "--polyominoes", "3",
                         "--budget", "0", "--out", str(report))
    assert (code, out, err) == (3, "", "error: budget must be >= 1\n")
    assert list(tmp_path.iterdir()) == []


def test_compare_replaces_a_longer_out(tmp_path, capsys):
    # A finished report takes the whole file, whatever was there before.
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    reused.write_text("x" * 10 ** 5)
    for path in (fresh, reused):
        assert run(capsys, "compare", "--polyominoes", "3",
                   "--out", str(path))[0] == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_compare_out_to_a_device(capsys):
    # A device cannot be truncated; the report is written to it as it is.
    assert run(capsys, "compare", "--polyominoes", "3",
               "--out", os.devnull)[0] == 0


def test_bad_budget_exit_3(pgg, capsys):
    path = pgg(fixtures.grid3())
    for argv in (("oracle", path, "--budget", "0"),
                 ("oracle", path, "--budget", "-1", "--json"),
                 ("compare", "--polyominoes", "3", "--budget", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err == "error: budget must be >= 1\n"


def test_compare_deterministic_output(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(capsys, "compare", "--polyominoes", "3",
               "--out", str(out_a))[0] == 0
    assert run(capsys, "compare", "--polyominoes", "3",
               "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["totals"]["graphs"] == 9
