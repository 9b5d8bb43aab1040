"""Pinned outputs: a speed-up or a simplification must not change any of
them.

The `compare` digests are of `report_json` over every polyomino of at most
6 cells, recorded before the hole search became incremental.  The
`decompose` digest is of the records' reprs over the same polyominoes and
a few holed grids and two-region shapes, recorded before face adjacency
was read from the face-incidence index.  The oracle digest is of
`(name, nodes_explored, timed_out, sorted found edge ids)` over the same
polyominoes and the odd rectangles 3x5..5x7, recorded before the oracle's
search state became bitsets.  The CLI digest is of the exit code and
`--json` output of `classify`, `subbases --reduce`, `holes` and `decide`
over the same polyominoes, the named fixtures, three holed grids, the
dumbbell and two blocks joined by a bridge.  It was re-recorded when hole
contexts were cut down to `x`, `C_x` and `C_k`: `holes --json` lost the
`cxe`, `ce` and `cv` keys of each context, which no verdict reads, and
the old stream with those keys dropped equals the new one byte for byte.
No verdict changed.  The CLI text digest is of the exit code, stdout and
stderr of all six report subcommands in text mode (`subbases` with and
without `--reduce`), and of `grinberg --json` and `oracle --json`, over
the same graphs; it was recorded before the subcommands shared one report
path.  The reduction digest is of `write_pgg` of the reduced embedding,
the substitutions and the failed records of `reduce_to_Gg` over the
lattices 2x2..9x9 and 200 seeded holed grids, recorded before the
reduction read the region's edge masks directly.
"""

import hashlib
import random

import pytest

from polygrid import fixtures, write_pgg
from polygrid.cli import main
from polygrid.holes import (GLOBAL_HOLE, HAMILTONIAN, NO_SOLUTION,
                            UNVERIFIED, HoleContext, decide)
from polygrid.oracle import (GridGenError, cells_to_embedding, compare,
                             enumerate_polyominoes, gen_grid, hamilton_oracle,
                             report_json)
from polygrid.subbases import decompose, reduce_to_Gg

COMPARE_6_SHA256 = {
    "strict": "520bd9cf2259ce1058b62631fdc60a4f2ed7ce4cc08acf66b8707438db3dc9c1",
    "lenient": "3412a2ef1a7ebe89ce5abe8aa8e46c08806b596c3a6df1bb10b9edd64d22f2d7",
}

DECOMPOSE_SHA256 = (
    "20aaa8fa31ff1bd7736c69ef9848f1810fb878aca1618cb1fffa54aa1993a1be")

CLI_JSON_SHA256 = (
    "8f8c2d0376563c51e3ddf3f31fc9af60480221120e29c5cc72035ba5045f011a")

CLI_TEXT_SHA256 = (
    "439de8ac916c294a4e648a25f53bc4b792de71132c93b96b2dd9777cb97616d5")

REDUCE_SHA256 = (
    "9e9e1ceed5209fc0c43012cf751fe6717b30218995276193b09a68e5dc772dba")

ORACLE_SHA256 = (
    "af2b8e13641a40a84f08b973bbc1941f4ac5410643a2dea23f14b83dec31b5c8")


@pytest.mark.parametrize("mode", sorted(COMPARE_6_SHA256))
def test_compare_report_digest(mode):
    report = report_json(compare(enumerate_polyominoes(6), claw_mode=mode))
    assert hashlib.sha256(report.encode()).hexdigest() == \
        COMPARE_6_SHA256[mode]


def test_decide_rectangles_pinned():
    hole_4x5 = HoleContext(x=7, cx=(1, 4, 9), ck=6)
    expected = {
        (4, 4): (HAMILTONIAN, None),
        (4, 5): (GLOBAL_HOLE, hole_4x5),
        (4, 6): (UNVERIFIED, None),
        (5, 5): (NO_SOLUTION, None),
        (5, 6): (UNVERIFIED, None),
    }
    for (m, n), (tag, hole) in expected.items():
        v = decide(gen_grid(m, n))
        assert (v.tag, v.hole) == (tag, hole), (m, n)


def _dumbbell():
    """Two 3x3 blocks joined by a one-cell-wide strip."""
    block = {(x, y) for x in range(3) for y in range(3)}
    return cells_to_embedding(block | {(3, 1), (4, 1), (5, 1)}
                              | {(x + 6, y) for x, y in block},
                              name="dumbbell")


def test_decompose_digest():
    block = {(x, y) for x in range(3) for y in range(3)}
    graphs = list(enumerate_polyominoes(6)) + [
        gen_grid(6, 7), gen_grid(5, 6, [(1, 1), (2, 1)]),
        gen_grid(6, 6, [(1, 1), (1, 2)]),
        gen_grid(7, 6, [(1, 1), (2, 1), (2, 2)]),
        gen_grid(7, 7, [(1, 1), (2, 1), (3, 3), (3, 4)]),
        # Two interior regions joined by a strip with a co-set face.
        _dumbbell(),
        # Two interior regions whose boundary sets overlap and merge.
        cells_to_embedding(block | {(x + 2, y + 2) for x, y in block},
                           name="corner-blocks")]
    text = "\n".join(repr(decompose(g)) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == DECOMPOSE_SHA256


def test_reduce_digest():
    graphs = [gen_grid(m, n) for m in range(2, 10) for n in range(2, 10)]
    rng = random.Random(30)
    while len(graphs) < 64 + 200:
        m, n = rng.randint(5, 9), rng.randint(5, 9)
        cells = [(x, y) for x in range(1, m - 2) for y in range(1, n - 2)]
        try:
            graphs.append(gen_grid(m, n, rng.sample(cells,
                                                    rng.choice((1, 1, 2, 3)))))
        except GridGenError:
            pass
    digest = hashlib.sha256()
    substituted = 0
    for g in graphs:
        r = reduce_to_Gg(g)
        substituted += bool(r.substitutions)
        digest.update(write_pgg(r.embedding).encode())
        digest.update(repr((r.substitutions, r.failed)).encode())
    assert substituted >= 50
    assert digest.hexdigest() == REDUCE_SHA256


def test_oracle_search_digest():
    graphs = list(enumerate_polyominoes(6)) + [
        gen_grid(m, n) for m, n in ((3, 5), (3, 7), (5, 5), (5, 7))]
    lines = []
    for g in graphs:
        r = hamilton_oracle(g)
        found = None if r.found is None else sorted(r.found)
        lines.append(repr((g.name, r.nodes_explored, r.timed_out, found)))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_SHA256


def _cli_digest(graphs, commands, tmp_path, capsys, suffix=()):
    """Digest of the exit code, stdout and stderr of `command FILE suffix`
    for each command on each graph."""
    path = tmp_path / "g.pgg"
    digest = hashlib.sha256()
    for g in graphs:
        path.write_text(write_pgg(g))
        for command in commands:
            code = main(command + [str(path), *suffix])
            digest.update(f"{g.name} {command} {code}\n".encode())
            captured = capsys.readouterr()
            digest.update(captured.out.encode())
            digest.update(captured.err.encode())
    return digest.hexdigest()


@pytest.fixture
def cli_graphs(bridged_blocks):
    return (list(enumerate_polyominoes(6))
            + [make() for make in fixtures.ALL.values()]
            + [gen_grid(5, 5, [(1, 1), (2, 1)]),
               gen_grid(5, 6, [(1, 1), (2, 1)]),
               gen_grid(6, 5, [(1, 1), (2, 1), (2, 2)]),
               _dumbbell(), bridged_blocks])


def test_cli_json_digest(cli_graphs, tmp_path, capsys):
    commands = (["classify"], ["subbases", "--reduce"], ["holes"], ["decide"])
    assert _cli_digest(cli_graphs, commands, tmp_path, capsys,
                       suffix=["--json"]) == CLI_JSON_SHA256


def test_cli_text_digest(cli_graphs, tmp_path, capsys):
    commands = [["classify"], ["grinberg"], ["holes"], ["decide"],
                ["subbases"], ["subbases", "--reduce"], ["oracle"],
                ["grinberg", "--json"], ["oracle", "--json"]]
    assert _cli_digest(cli_graphs, commands, tmp_path, capsys) == \
        CLI_TEXT_SHA256
