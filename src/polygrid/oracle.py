"""Ground truth and audit machinery.

The Hamilton oracle is an exact backtracking search (forced edges from
degree-2 vertices, reachability pruning) with a node budget so results are
reproducible across machines.  Its state is Python-int bitsets: bit i is
the i-th smallest vertex id, adjacency and forced partners are one mask per
vertex, and the unvisited set is one mask, so a step builds no list or set.
A step from the current vertex to w is pruned unless every other unvisited
vertex keeps two usable sides (unvisited neighbours, w or the start) and
the unvisited vertices and the start stay connected.  Neither test depends
on w, so each search node runs each at most once.  The side check is
incremental: only the current vertex's unvisited neighbours can have lost
a side, and a step must go to the one that is left with fewer than two.
The connectivity test runs only when a step survives the side check, and
asks whether the last step cut anything: the parent tested the set
together with the current vertex, so the set is connected exactly when the
current vertex's neighbours in it are joined inside it.  With one such
neighbour there is no flood; otherwise a flood from one neighbour stops as
soon as it reaches the others, which usually takes two steps around a
lattice cell, and goes on over the whole set only when they are not
joined there.  Candidates are tried in ascending id order (forced partners
first), which fixes the search tree and so `nodes_explored`; testing once
per node prunes exactly the steps that testing each step would.

A node's outcome depends only on its state, the current vertex and the
unvisited set (the end-vertex/visited-set state of Bellman's and Held and
Karp's Hamiltonian-path DP), so each search keeps a table of the states
whose subtree failed, with that subtree's node count.  A state met again
adds the recorded count and fails without expanding: `nodes_explored` and
the budget count the plain search tree, so both stay independent of the
machine and of the table, and only a failed subtree is ever skipped, so
the first cycle found is the same.  The table lives for one call.  The
search recurses once per path vertex, so a graph of about
`sys.getrecursionlimit()` vertices raises `RecursionError`.

Generators build holed grid graphs and all fixed polyominoes up to a size.
Both are sets of unit cells, planar by construction, so they take the
embedding's trusted lattice path, with no planarity scan and no angular
sort; `.pgg` input is still validated in full.  The polyominoes are
grown by Redelmeier's method (Discrete Math. 36 (1981) 191-203): depth
first from the anchor cell (0, 0), where a cell may join only if it
comes after the anchor bottom row first, left to right (y > 0, or
y == 0 and x > 0).  The anchor so stays the lowest-then-leftmost cell,
and each new cell's sides are offered only if no earlier cell offered
them, so every fixed polyomino is reached exactly once and nothing is
de-duplicated.  Each shape is shifted by its minimum x to its sorted cell
tuple; the shapes are yielded by size, each size in ascending tuple
order, as `poly{k}_{i}`.  One enumeration keeps one interning table, so
its graphs share each equal point, edge and rotation tuple and hold only
their own dicts.  `compare` runs the criterion and the oracle
side by side and persists any disagreement as a `.pgg` candidate file.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .embedding import (EdgeSet, PlanarEmbedding, is_hamilton_cycle,
                        trace_faces, write_pgg)
# Unused here, but the benchmark tracer wraps `oracle.solvable` by name.
from .grinberg import solvable
from .holes import HAMILTONIAN, NO_SOLUTION, UNVERIFIED, decide


class GridGenError(ValueError):
    """Invalid holed-grid request (boundary hole or disconnection)."""


@dataclass(frozen=True)
class OracleResult:
    found: Optional[EdgeSet]
    nodes_explored: int
    timed_out: bool


@dataclass(frozen=True)
class ComparisonRow:
    graph_id: str
    verdict: str
    oracle_found: bool
    oracle_timed_out: bool
    nodes_explored: int
    agree: Optional[bool]


@dataclass(frozen=True)
class AgreementReport:
    rows: Tuple[ComparisonRow, ...]
    candidates: Tuple[str, ...]        # graph ids persisted as .pgg files

    @property
    def totals(self) -> Dict[str, int]:
        agree = sum(1 for r in self.rows if r.agree is True)
        disagree = sum(1 for r in self.rows if r.agree is False)
        inconclusive = sum(1 for r in self.rows if r.agree is None)
        return {"graphs": len(self.rows), "agree": agree,
                "disagree": disagree, "inconclusive": inconclusive}

    def to_dict(self) -> Dict:
        return {
            "rows": [
                {
                    "graphId": r.graph_id,
                    "verdict": r.verdict,
                    "oracleFound": r.oracle_found,
                    "oracleTimedOut": r.oracle_timed_out,
                    "nodesExplored": r.nodes_explored,
                    "agree": r.agree,
                }
                for r in self.rows
            ],
            "totals": self.totals,
            "counterexampleCandidates": list(self.candidates),
        }


# -- exact solver ------------------------------------------------------------

class _Budget(Exception):
    pass


def hamilton_oracle(g: PlanarEmbedding, budget: int = 10 ** 6) -> OracleResult:
    """Exact Hamilton-cycle search; never returns a wrong answer.

    `budget` counts the nodes of the plain backtracking tree; when they
    exceed it the result is marked timed out, with `budget + 1` nodes and
    no claim either way.  A state already refuted in this call adds the
    node count its subtree took then, so `nodes_explored` and the cut-off
    are those of the search without the table.  A budget below 1 would
    search nothing and is a ValueError.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = g.order
    if n < 3:
        return OracleResult(None, 0, False)
    # Bit i of every mask stands for the i-th smallest vertex id, so
    # ascending bits are ascending ids and bit 0 is the start.
    rotation = g.rotation
    vertices = sorted(rotation)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    adj = []
    twos = 0
    for v in vertices:
        around = rotation[v]
        if len(around) < 2:
            return OracleResult(None, 0, False)
        mask = 0
        for w in around:
            mask |= bit[w]
        adj.append(mask)
        if len(around) == 2:
            twos |= bit[v]
    # Degree-2 vertices force both incident edges into any Hamilton cycle:
    # all of a degree-2 vertex's neighbours, and a vertex's degree-2 ones.
    forced = [a if twos >> i & 1 else a & twos for i, a in enumerate(adj)]
    if any(f.bit_count() > 2 for f in forced):
        return OracleResult(None, 0, False)
    nodes = 0
    path = []
    # Failed states: `unvisited << shift | current` -> the node count of
    # the subtree that refuted it.
    failed = {}
    shift = n.bit_length()

    def joined(targets: int, within: int) -> bool:
        # Flood over `within` from the lowest bit of `targets`, stopping as
        # soon as every target is reached.
        reached = frontier = targets & -targets
        while targets & ~reached:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & within & ~reached
            if not frontier:
                return False
            reached |= frontier
        return True

    def extend(current: int, unvisited: int) -> bool:
        nonlocal nodes
        key = unvisited << shift | current
        known = failed.get(key)
        if known is not None:
            # The plain search would expand the same subtree again and
            # fail after the same nodes.
            nodes += known
            if nodes > budget:
                nodes = budget + 1
                raise _Budget
            return False
        first = nodes
        nodes += 1
        if nodes > budget:
            raise _Budget
        if not unvisited:
            return bool(adj[current] & 1)
        candidates = forced[current] & unvisited or adj[current] & unvisited
        usable = unvisited | 1
        # After the step to w every unvisited vertex other than w needs two
        # usable sides: neighbours that are unvisited, w or the start.  The
        # parent's unvisited vertices all had two (at the root every vertex
        # has degree >= 2), and this node took only `current` out of the
        # usable set, so only its neighbours can be stranded.  A step must
        # go to the one stranded neighbour, if there is one.
        stranded = 0
        around = adj[current] & unvisited
        while around:
            low = around & -around
            around ^= low
            if (adj[low.bit_length() - 1] & usable).bit_count() < 2:
                stranded |= low
        if stranded & (stranded - 1):
            return False
        if stranded:
            candidates &= stranded
        # A step that leaves unvisited vertices must leave them and the
        # start connected; the set does not depend on w, so it is tested
        # once.  The parent tested that the set together with `current` is
        # connected, so it is connected exactly when `current`'s neighbours
        # in it are joined inside it.  The root has no parent and floods
        # the whole graph.
        if (candidates and unvisited & (unvisited - 1)
                and not joined(adj[current] & usable if current else usable,
                               usable)):
            return False
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            if extend(w, unvisited ^ low):
                path.append(w)
                return True
        failed[key] = nodes - first
        return False

    try:
        found = extend(0, (1 << n) - 2)
    except _Budget:
        return OracleResult(None, nodes, True)
    finally:
        # `extend` reaches itself through its closure; dropping the name
        # frees the table now instead of at the next cyclic collection.
        del extend
    if not found:
        return OracleResult(None, nodes, False)
    # `path` holds the cycle's vertices after the start, last first.
    path.append(0)
    masks = g.incident_edge_masks
    edges_at = [masks[vertices[i]] for i in path]
    cycle = frozenset(
        (edges_at[i - 1] & edges_at[i]).bit_length() - 1 for i in range(n))
    assert is_hamilton_cycle(cycle, g)
    return OracleResult(cycle, nodes, False)


# -- generators --------------------------------------------------------------

def cells_to_embedding(cells: Iterable[Tuple[int, int]],
                       name: str) -> PlanarEmbedding:
    """Lattice graph carried by a set of unit cells: vertices are the cell
    corners, edges the cell sides (shared sides deduplicated).  Built on
    the trusted path, without the planarity scan.

    Each coordinate must be an integer, or a type `operator.index` reads
    as one, and is stored as a plain int; any other is a ValueError that
    names the cell, since `.pgg` holds only integers.
    """
    checked = []
    for cell in cells:
        x, y = cell
        try:
            checked.append((operator.index(x), operator.index(y)))
        except TypeError:
            raise ValueError(
                f"cell {cell!r} has a non-integer coordinate") from None
    return PlanarEmbedding._from_unit_cells(checked, name)


def gen_grid(m: int, n: int,
             holes: Iterable[Tuple[int, int]] = ()) -> PlanarEmbedding:
    """m x n vertex lattice with the given unit cells deleted.

    A deleted cell removes only the edges and vertices used by no surviving
    cell, so a lone interior hole leaves the graph unchanged.  Holes must
    be strictly inside the cell rectangle and must not disconnect, and
    each coordinate must be an integer, or a type `operator.index` reads
    as one, as in `cells_to_embedding`.
    """
    if m < 2 or n < 2:
        raise GridGenError("need at least a 2x2 vertex grid")
    checked = set()
    for hole in holes:
        cx, cy = hole
        try:
            cx, cy = operator.index(cx), operator.index(cy)
        except TypeError:
            raise GridGenError(
                f"hole {hole!r} has a non-integer coordinate") from None
        if not (1 <= cx <= m - 3 and 1 <= cy <= n - 3):
            raise GridGenError(f"hole {(cx, cy)} is not strictly interior")
        checked.add((cx, cy))
    holes = checked
    cells = {(cx, cy) for cx in range(m - 1) for cy in range(n - 1)} - holes
    if not cells:
        raise GridGenError("no cells remain")
    name = f"grid{m}x{n}"
    if holes:
        tag = ";".join(f"{cx},{cy}" for cx, cy in sorted(holes))
        name += f"-holes[{tag}]"
    try:
        return cells_to_embedding(cells, name)
    except ValueError as exc:
        raise GridGenError(str(exc))


def enumerate_polyominoes(max_faces: int) -> Iterator[PlanarEmbedding]:
    """All fixed polyominoes with 1 to `max_faces` cells as lattice graphs.

    Each shape's cells are translated so its minimum x and y are 0 and
    sorted.  Shapes come by cell count, each count in ascending order of
    these cell tuples, and the i-th of k cells is named `poly{k}_{i}`.  A
    `max_faces` outside 1..10 is a ValueError here, at the call, not at
    the first graph.
    """
    if not 1 <= max_faces <= 10:
        raise ValueError("desk scale only: 1 <= max_faces <= 10")
    return _polyomino_graphs(max_faces)


def _polyomino_graphs(max_faces: int) -> Iterator[PlanarEmbedding]:
    # One interning table for the whole enumeration: every graph refers to
    # the one copy of each point, edge and rotation tuple it uses.  The
    # table goes with the generator.
    shared: Dict[tuple, tuple] = {}
    for k, shapes in enumerate(_fixed_polyominoes(max_faces), 1):
        for i, shape in enumerate(shapes):
            yield PlanarEmbedding._from_unit_cells(
                shape, f"poly{k}_{i}", shared)


# A polyomino's cells, translated to minimum x and y 0 and sorted.
Shape = Tuple[Tuple[int, int], ...]

# The steps from a square cell to the cells across its four sides.
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _after_anchor(x: int, y: int) -> bool:
    """Whether cell (x, y) comes after the anchor (0, 0), bottom row first
    and left to right: the only cells a growth from the anchor takes."""
    return y > 0 or (y == 0 and x > 0)


def _fixed_polyominoes(max_cells: int) -> List[List[Shape]]:
    """The sorted, translated cell tuples of every fixed polyomino of 1 to
    `max_cells` cells, one ascending list per cell count.

    Redelmeier's growth: `untried` holds the cells a shape may still take,
    and `seen` every cell that has been offered to the shape, taken or not.
    Taking a cell offers only its unseen neighbours after the anchor, so
    no cell is offered twice along one branch and each shape is reached
    once.  `cells`, the shape, and `seen` are undone on the way back.
    """
    by_size: List[List[Shape]] = [[] for _ in range(max_cells)]
    cells: List[Tuple[int, int]] = []
    seen = {(0, 0)}
    # column[x][y] is the translated cell (x, y): one tuple per cell that
    # every shape shares, a fifth of the memory of a tuple per shape cell.
    column = [[(x, y) for y in range(max_cells)] for x in range(max_cells)]

    def grow(untried: List[Tuple[int, int]]) -> None:
        while untried:
            cell = untried.pop()
            cells.append(cell)
            ordered = sorted(cells)
            min_x = ordered[0][0]
            by_size[len(cells) - 1].append(
                tuple([column[x - min_x][y] for x, y in ordered]))
            if len(cells) < max_cells:
                x, y = cell
                fresh = [nb for nb in [(x + dx, y + dy) for dx, dy in _STEPS]
                         if nb not in seen and _after_anchor(*nb)]
                seen.update(fresh)
                grow(untried + fresh)
                seen.difference_update(fresh)
            cells.pop()

    grow([(0, 0)])
    # `grow` reaches itself through its closure; dropping the name frees
    # it and the growth state now, not at the next cyclic collection.
    del grow
    for shapes in by_size:
        shapes.sort()
    return by_size


# -- criterion-vs-oracle audit ----------------------------------------------

def compare(graphs: Iterable[PlanarEmbedding], budget: int = 10 ** 6,
            save_dir: Optional[Path] = None,
            claw_mode: str = "strict") -> AgreementReport:
    """Run decide() and the oracle on every graph.

    A NoSolution verdict against an oracle cycle would falsify the trusted
    Grinberg necessity and is a hard assertion; disagreements on claw/hole
    logic are recorded and persisted, never asserted away.  A budget below
    1 is a ValueError before the first graph is decided.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rows: List[ComparisonRow] = []
    candidates: List[str] = []
    for g in graphs:
        basis = trace_faces(g)
        verdict = decide(g, basis=basis, claw_mode=claw_mode)
        oracle = hamilton_oracle(g, budget=budget)
        found = oracle.found is not None
        if verdict.tag == NO_SOLUTION and found:
            raise AssertionError(
                f"{g.name}: infeasible equation but the oracle found a "
                f"Hamilton cycle")
        if oracle.timed_out:
            agree: Optional[bool] = None
        elif verdict.tag == UNVERIFIED:
            agree = None
        elif verdict.tag == HAMILTONIAN:
            agree = found
        else:
            agree = not found
        rows.append(ComparisonRow(
            graph_id=g.name, verdict=verdict.tag, oracle_found=found,
            oracle_timed_out=oracle.timed_out,
            nodes_explored=oracle.nodes_explored, agree=agree))
        if agree is False:
            candidates.append(g.name)
            if save_dir is not None:
                if len(candidates) == 1:
                    save_dir = Path(save_dir)
                    save_dir.mkdir(parents=True, exist_ok=True)
                (save_dir / f"{g.name}.pgg").write_text(write_pgg(g))
    return AgreementReport(tuple(rows), tuple(candidates))


def report_json(report: AgreementReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
