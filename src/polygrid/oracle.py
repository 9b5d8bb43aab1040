"""Ground truth and audit machinery.

The Hamilton oracle is an exact backtracking search (forced edges from
degree-2 vertices, reachability pruning) with a node budget so results are
reproducible across machines.  Generators build holed grid graphs and all
fixed polyominoes up to a size; `compare` runs the criterion and the oracle
side by side and persists any disagreement as a `.pgg` candidate file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

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

    `budget` counts backtracking nodes; when exceeded the result is marked
    timed out with no claim either way.
    """
    n = g.order
    vertices = sorted(g.coords)
    if n < 3 or any(g.degree(v) < 2 for v in vertices):
        return OracleResult(None, 0, False)
    adj = {v: sorted(g.adjacency[v]) for v in vertices}
    # Degree-2 vertices force both incident edges into any Hamilton cycle.
    forced: Dict[int, Set[int]] = {v: set() for v in vertices}
    for v in vertices:
        if len(adj[v]) == 2:
            for w in adj[v]:
                forced[v].add(w)
                forced[w].add(v)
    if any(len(f) > 2 for f in forced.values()):
        return OracleResult(None, 0, False)
    start = vertices[0]
    nodes = 0

    def reachable_ok(current: int, visited: Set[int]) -> bool:
        # Every unvisited vertex must be reachable from the path head
        # without re-entering the path, and must keep two usable sides.
        unvisited = [v for v in vertices if v not in visited]
        if not unvisited:
            return True
        allowed = set(unvisited) | {current, start}
        seen = {current}
        stack = [current]
        while stack:
            for w in adj[stack.pop()]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if any(v not in seen for v in unvisited) or start not in seen:
            return False
        for v in unvisited:
            free = sum(1 for w in adj[v]
                       if w not in visited or w in (current, start))
            if free < 2:
                return False
        return True

    def extend(current: int, visited: Set[int],
               path: List[int]) -> Optional[List[int]]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Budget
        if len(path) == n:
            return path if start in adj[current] else None
        must = sorted(w for w in forced[current] if w not in visited)
        candidates = must if must else adj[current]
        for w in candidates:
            if w in visited:
                continue
            visited.add(w)
            path.append(w)
            if reachable_ok(w, visited):
                result = extend(w, visited, path)
                if result is not None:
                    return result
            path.pop()
            visited.remove(w)
        return None

    try:
        found = extend(start, {start}, [start])
    except _Budget:
        return OracleResult(None, nodes, True)
    if found is None:
        return OracleResult(None, nodes, False)
    cycle = frozenset(
        g.edge_id(found[i], found[(i + 1) % n]) for i in range(n))
    assert is_hamilton_cycle(cycle, g)
    return OracleResult(cycle, nodes, False)


# -- generators --------------------------------------------------------------

def cells_to_embedding(cells: Iterable[Tuple[int, int]],
                       name: str) -> PlanarEmbedding:
    """Lattice graph carried by a set of unit cells: vertices are the cell
    corners, edges the cell sides (shared sides deduplicated)."""
    cells = set(cells)
    corners: Set[Tuple[int, int]] = set()
    sides: Set[Tuple[Tuple[int, int], Tuple[int, int]]] = set()
    for cx, cy in cells:
        quad = [(cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)]
        corners.update(quad)
        for i in range(4):
            a, b = quad[i], quad[(i + 1) % 4]
            sides.add((min(a, b), max(a, b)))
    points = sorted(corners)
    ids = {p: i for i, p in enumerate(points)}
    coords = {i: p for p, i in ids.items()}
    edges = sorted((ids[a], ids[b]) for a, b in sides)
    return PlanarEmbedding(coords, edges, name=name)


def gen_grid(m: int, n: int,
             holes: Iterable[Tuple[int, int]] = ()) -> PlanarEmbedding:
    """m x n vertex lattice with the given unit cells deleted.

    A deleted cell removes only the edges and vertices used by no surviving
    cell, so a lone interior hole leaves the graph unchanged.  Holes must
    be strictly inside the cell rectangle and must not disconnect.
    """
    if m < 2 or n < 2:
        raise GridGenError("need at least a 2x2 vertex grid")
    holes = set(holes)
    for cx, cy in holes:
        if not (1 <= cx <= m - 3 and 1 <= cy <= n - 3):
            raise GridGenError(f"hole {(cx, cy)} is not strictly interior")
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
    """All fixed polyominoes with up to `max_faces` cells, canonical under
    translation, in deterministic order, as lattice graphs."""
    if max_faces > 10:
        raise ValueError("desk scale only: max_faces <= 10")
    shapes: List[Tuple[Tuple[int, int], ...]] = [((0, 0),)]
    for k in range(1, max_faces + 1):
        for i, shape in enumerate(sorted(shapes)):
            yield cells_to_embedding(shape, name=f"poly{k}_{i}")
        if k == max_faces:
            break
        grown: Set[Tuple[Tuple[int, int], ...]] = set()
        for shape in shapes:
            cells = set(shape)
            for cx, cy in cells:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    cell = (cx + dx, cy + dy)
                    if cell in cells:
                        continue
                    grown.add(_canonical(cells | {cell}))
        shapes = list(grown)


def _canonical(cells: Set[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    min_x = min(c[0] for c in cells)
    min_y = min(c[1] for c in cells)
    return tuple(sorted((x - min_x, y - min_y) for x, y in cells))


# -- criterion-vs-oracle audit ----------------------------------------------

def compare(graphs: Iterable[PlanarEmbedding], budget: int = 10 ** 6,
            save_dir: Optional[Path] = None,
            claw_mode: str = "strict", limit: int = 64,
            max_cx: int = 3) -> AgreementReport:
    """Run decide() and the oracle on every graph.

    A NoSolution verdict against an oracle cycle would falsify the trusted
    Grinberg necessity and is a hard assertion; disagreements on claw/hole
    logic are recorded and persisted, never asserted away.
    """
    rows: List[ComparisonRow] = []
    candidates: List[str] = []
    for g in graphs:
        basis = trace_faces(g)
        verdict = decide(g, basis=basis, limit=limit, claw_mode=claw_mode,
                         max_cx=max_cx)
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
                save_dir = Path(save_dir)
                save_dir.mkdir(parents=True, exist_ok=True)
                (save_dir / f"{g.name}.pgg").write_text(write_pgg(g))
    return AgreementReport(tuple(rows), tuple(candidates))


def report_json(report: AgreementReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
