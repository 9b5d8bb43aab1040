"""Seeded corpora and per-graph operations of the benchmark's workloads.

A workload builds its corpus from the seed in `build` (the timed set-up),
then `run` takes one graph through the workload's library calls and returns
the graph's outcome row (what the verdict digest hashes) and the Hamilton
cycles the program produced, which the harness re-checks outside the timed
region.  `check` adds workload-specific output checks on a row.

Library functions are looked up on their modules at call time, so the
tracer's wrappers are used when installed.  Every call goes through
`Calls`, which counts attempts and exceptions so that one failing call does
not end the run.  AssertionError is re-raised: it marks a broken soundness
invariant (such as compare's infeasible-equation-versus-oracle-cycle
assertion) and aborts the run rather than being counted.
"""

from __future__ import annotations

import random
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

from polygrid import embedding, grinberg, holes, oracle, structure, subbases

VERDICT_TAGS = (holes.HAMILTONIAN, holes.NO_SOLUTION, holes.GLOBAL_HOLE,
                holes.CLAW, holes.UNVERIFIED)

# Node budget of oracle-refute: far above the largest search in its corpus
# (about 17k nodes), so every search runs to the end.
ORACLE_BUDGET = 1_000_000


class Calls:
    """Counts library calls and the exceptions they raise.

    A call returns (result, None), or (None, "raised:<ExceptionName>") when
    it raised; outcome rows carry that string in place of the result.
    """

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()
        self.first_failure: Dict[str, str] = {}

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs), None
        except AssertionError:
            raise
        except Exception as exc:
            kind = type(exc).__name__
            self.failed[kind] += 1
            if kind not in self.first_failure:
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                self.first_failure[kind] = (
                    f"{getattr(fn, '__name__', fn)}: {exc!s:.80} "
                    f"(at {Path(frame.filename).name}:{frame.lineno})")
            return None, "raised:" + kind

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


def _graph_key(g) -> Tuple[str, int, int]:
    return (g.name, g.order, g.size)


def hole_clusters(m: int, n: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Every set of two or three edge-adjacent interior cells of the m x n
    grid.  Fewer than four cells never enclose a vertex, so each holed
    grid keeps all m * n vertices."""
    inner = {(x, y) for x in range(1, m - 2) for y in range(1, n - 2)}
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    out = set()
    for a in inner:
        for dx, dy in steps:
            b = (a[0] + dx, a[1] + dy)
            if b not in inner:
                continue
            out.add(tuple(sorted((a, b))))
            for x, y in (a, b):
                for ex, ey in steps:
                    c = (x + ex, y + ey)
                    if c in inner and c not in (a, b):
                        out.add(tuple(sorted((a, b, c))))
    return sorted(out)


class Workload:
    name = ""
    setup_repeats = 5
    speed = None        # the harness's speed.Speed in an untraced run

    def build(self, seed: int, tiny: bool = False) -> list:
        raise NotImplementedError

    def start(self, scratch: Path) -> None:
        """Called once before the first measured round."""

    def run(self, item, calls: Calls) -> Tuple[tuple, list]:
        raise NotImplementedError

    def check(self, item, row: tuple) -> List[str]:
        return []

    def finish(self) -> List[str]:
        """Called once after the last round; returns problems found."""
        return []

    def landmarks(self, corpus, best_ns: List[int]) -> List[str]:
        """Figures to set beside the ROADMAP's single-run timings."""
        return []


# -- audit-poly --------------------------------------------------------------

AUDIT_SAMPLE = 480


class _Tap:
    """Keeps the verdicts and oracle results compare produces, so their
    cycles can be re-checked; compare's report carries only flags."""

    def __init__(self):
        self.cycles: list = []
        self._originals = None

    def install(self) -> None:
        decide, hamilton_oracle = oracle.decide, oracle.hamilton_oracle
        cycles = self.cycles

        def tapped_decide(g, *args, **kwargs):
            verdict = decide(g, *args, **kwargs)
            if verdict.tag == holes.HAMILTONIAN:
                cycles.append((verdict.certificate, g))
            return verdict

        def tapped_oracle(g, *args, **kwargs):
            result = hamilton_oracle(g, *args, **kwargs)
            if result.found is not None:
                cycles.append((result.found, g))
            return result

        self._originals = (decide, hamilton_oracle)
        oracle.decide, oracle.hamilton_oracle = tapped_decide, tapped_oracle

    def uninstall(self) -> None:
        if self._originals is not None:
            oracle.decide, oracle.hamilton_oracle = self._originals
            self._originals = None

    def take(self) -> list:
        out = list(self.cycles)
        self.cycles.clear()
        return out


class AuditPoly(Workload):
    """compare([g]) in strict then lenient claw mode on a seeded sample of
    the fixed polyominoes with at most 8 cells, saving candidates."""

    name = "audit-poly"
    setup_repeats = 3

    def build(self, seed, tiny=False):
        polys = list(oracle.enumerate_polyominoes(4 if tiny else 8))
        self.population = len(polys)
        rng = random.Random(seed)
        if tiny:
            sample = polys
        else:
            # Stratified by cell count, so every seed gets the same size mix.
            strata: Dict[int, list] = {}
            for g in polys:
                strata.setdefault(g.size - g.order + 1, []).append(g)
            share = AUDIT_SAMPLE / len(polys)
            sample = []
            for cells in sorted(strata):
                group = strata[cells]
                sample.extend(rng.sample(group, max(1, round(share * len(group)))))
        rng.shuffle(sample)
        return sample

    def start(self, scratch):
        self.save_dir = scratch / "candidates"
        self.mode_ns = Counter()
        self.graphs_run = 0
        self.candidates: Dict[str, embedding.PlanarEmbedding] = {}
        self.tap = _Tap()
        self.tap.install()

    def run(self, g, calls):
        modes = []
        self.graphs_run += 1
        for mode in ("strict", "lenient"):
            start = time.perf_counter_ns()
            report, failure = calls(oracle.compare, [g], save_dir=self.save_dir,
                                    claw_mode=mode)
            self.mode_ns[mode] += time.perf_counter_ns() - start - (
                self.speed.busy_ns(start) if self.speed else 0)
            if failure is not None:
                modes.append((mode, failure))
                continue
            r = report.rows[0]
            modes.append((mode, r.verdict, r.oracle_found, r.oracle_timed_out,
                          r.nodes_explored, r.agree, bool(report.candidates)))
        return _graph_key(g) + tuple(modes), self.tap.take()

    def check(self, g, row):
        problems = []
        for mode in row[3:]:
            if len(mode) == 2:          # (mode, "raised:...")
                continue
            if mode[6]:
                self.candidates[g.name] = g
            if mode[1] not in VERDICT_TAGS:
                problems.append(f"{g.name}: unknown verdict {mode[1]!r}")
        return problems

    def landmarks(self, corpus, best_ns):
        scale = self.population / self.graphs_run / 1e9
        return [f"compare {mode} over all {self.population} polyominoes, "
                f"scaled from the sample: {ns * scale:.2f} s"
                for mode, ns in sorted(self.mode_ns.items())]

    def finish(self):
        self.tap.uninstall()
        problems = []
        for name, g in sorted(self.candidates.items()):
            path = self.save_dir / f"{name}.pgg"
            if not path.is_file():
                problems.append(f"{name}: candidate file {path.name} missing")
                continue
            text = path.read_text()
            if embedding.write_pgg(embedding.parse_pgg(text)) != text or \
                    text != embedding.write_pgg(g):
                problems.append(f"{name}: candidate file does not round-trip")
        return problems


# -- decide-grid -------------------------------------------------------------

DECIDE_RECTS = ((4, 4), (4, 5), (5, 5), (4, 6), (5, 6))
# Holed shapes per round, 20-35 vertices.  Even orders from 28 vertices up
# cost from 0.2 s to 30 s each depending on the holes, so one of them would
# make the round's cost depend on the seed; odd orders are settled by the
# equation at once.  The cheap 4x5 and 4x6 grids give the round the 40
# graphs a p75 tail needs.
DECIDE_HOLED = ((4, 5),) * 14 + ((4, 6),) * 12 + ((5, 5),) * 8 + \
    ((5, 7),) * 4


def balanced_holed_grids(rng: random.Random, shapes) -> list:
    """Holed grids for a list of shapes.  The i-th grid of a shape takes
    cluster (offset + i) of the shape's family and is transposed when i is
    odd, so each shape's clusters and orientations come in equal shares;
    the seed picks the offsets.  Orientation matters: decide on a holed 4x6
    grid and on its transpose can differ in cost and in verdict."""
    offsets: Dict[Tuple[int, int], int] = {}
    seen: Counter = Counter()
    out = []
    for m, n in shapes:
        family = hole_clusters(m, n)
        offset = offsets.setdefault((m, n), rng.randrange(len(family)))
        i = seen[(m, n)]
        seen[(m, n)] += 1
        cells = family[(offset + i) % len(family)]
        if i % 2:
            m, n, cells = n, m, [(y, x) for x, y in cells]
        out.append(oracle.gen_grid(m, n, cells))
    return out


class DecideGrid(Workload):
    """holes.decide in the default strict claw mode."""

    name = "decide-grid"

    def build(self, seed, tiny=False):
        rng = random.Random(seed)
        rects = DECIDE_RECTS[:3] if tiny else DECIDE_RECTS
        holed = ((4, 5), (5, 5)) if tiny else DECIDE_HOLED
        graphs = [oracle.gen_grid(m, n) for m, n in rects]
        graphs += balanced_holed_grids(rng, holed)
        rng.shuffle(graphs)
        return graphs

    def run(self, g, calls):
        verdict, failure = calls(holes.decide, g)
        if failure is not None:
            return _graph_key(g) + (failure,), []
        cycles = ([(verdict.certificate, g)]
                  if verdict.tag == holes.HAMILTONIAN else [])
        return _graph_key(g) + (verdict.tag,), cycles

    def landmarks(self, corpus, best_ns):
        return [f"decide {g.name} {ns / 1e6:.0f} ms"
                for g, ns in zip(corpus, best_ns) if g.name == "grid5x6"]

    def check(self, g, row):
        verdict = row[3]
        if verdict not in VERDICT_TAGS and not verdict.startswith("raised:"):
            return [f"{g.name}: unknown verdict {verdict!r}"]
        return []


# -- embed-large -------------------------------------------------------------

EMBED_BIG_STRIP = (505, 512)        # one 2 x n strip of 1010-1024 vertices
EMBED_LATTICE_SIDES = (6, 7, 8, 9, 10)


class EmbedLarge(Workload):
    """Load and inspect: parse, faces, classes, equation, oracle, identity
    check and subbasis decomposition on each graph."""

    name = "embed-large"
    # A set-up builds and validates a 1000-vertex strip (about 6 s).
    setup_repeats = 3

    def build(self, seed, tiny=False):
        rng = random.Random(seed)
        if tiny:
            shapes = [(2, 10), (4, 4), (4, 5)]
        else:
            # The lattices are fixed and the strip sizes stratified, so the
            # seed moves the order and sizes but hardly the total cost.
            shapes = [(2, rng.randint(*EMBED_BIG_STRIP))]
            shapes += [(2, rng.randint(20 + 6 * k, 25 + 6 * k))
                       for k in range(10)]
            shapes += [(2, rng.randint(8, 19)) for _ in range(10)]
            shapes += [(m, n) for m in EMBED_LATTICE_SIDES
                       for n in EMBED_LATTICE_SIDES if m * n % 2 == 0]
            rng.shuffle(shapes)
        return [embedding.write_pgg(oracle.gen_grid(m, n)) for m, n in shapes]

    def run(self, text, calls):
        loaded, failure = calls(_load, text)
        if failure is not None:
            return (_pgg_name(text), failure), []
        g, round_trips = loaded
        basis, failure = calls(embedding.trace_faces, g)
        if failure is not None:
            return (_graph_key(g), round_trips, failure), []
        bg = structure.BasisGraph(g, basis)
        classes, classes_failure = calls(_classify, g, bg)
        equation, equation_failure = calls(_grinberg, bg)
        result, oracle_failure = calls(oracle.hamilton_oracle, g)
        search = oracle_failure or (result.found is not None, result.timed_out,
                                    result.nodes_explored)
        identity, cycles = None, []
        if oracle_failure is None and result.found is not None:
            cycles.append((result.found, g))
            check, failure = calls(grinberg.verify_grinberg_identity,
                                   result.found, basis, g)
            identity = failure or (check.inside_residual, check.full_residual)
        decomposition, failure = calls(subbases.decompose, g, basis)
        records = failure or (decomposition.g_count, len(decomposition.coset),
                              len(decomposition.boundary_element_faces))
        return (_graph_key(g), round_trips, classes_failure or classes,
                equation_failure or equation, search, identity, records), cycles

    def check(self, text, row):
        name = _pgg_name(text)
        if len(row) < 7:
            return []
        _, round_trips, _, equation, search, identity, _ = row
        problems = []
        if not round_trips:
            problems.append(f"{name}: write_pgg does not reproduce the input")
        if isinstance(search, tuple):
            found, timed_out, _ = search
            # Every lattice with an even vertex count is Hamiltonian.
            if not found or timed_out:
                problems.append(f"{name}: oracle found no Hamilton cycle")
            elif identity != (0, 0):
                problems.append(f"{name}: Grinberg identity fails: {identity}")
            elif isinstance(equation, tuple) and not equation[0]:
                problems.append(f"{name}: infeasible equation with a cycle")
        return problems


def _pgg_name(text: str) -> str:
    return text.split("\n", 1)[0].split()[1]


def _load(text: str):
    g = embedding.parse_pgg(text)
    return g, embedding.write_pgg(g) == text


def _classify(g, bg) -> Tuple[int, ...]:
    claws = structure.claw_d2_scan(g)
    tags = Counter(bg.vertex_class(v).tag for v in sorted(g.coords))
    return (len(claws), tags["interior"], tags["boundary"], tags["other"])


def _grinberg(bg) -> Tuple[bool, int]:
    equation = grinberg.equation_of_graph(bg)
    feasible = grinberg.solvable(equation)
    return (feasible, len(grinberg.solve(equation)))


# -- oracle-refute -----------------------------------------------------------

REFUTE_RECTS = ((3, 9), (9, 3), (3, 11), (11, 3), (3, 13), (13, 3),
                (3, 15), (15, 3), (5, 5), (5, 7), (7, 5))
# Each hole cluster of these shapes once: the search cost varies fourfold
# between clusters, so a seeded subset would make the cost seed-dependent.
REFUTE_HOLED = ((5, 5),) * 8 + ((5, 7),) * 26


class OracleRefute(Workload):
    """hamilton_oracle alone on odd-order grids, which have no Hamilton
    cycle (a bipartite graph's cycles are even), so each search is
    exhaustive."""

    name = "oracle-refute"

    def build(self, seed, tiny=False):
        rng = random.Random(seed)
        rects = ((3, 5), (5, 5)) if tiny else REFUTE_RECTS
        holed = ((5, 5),) if tiny else REFUTE_HOLED
        graphs = [oracle.gen_grid(m, n) for m, n in rects]
        graphs += balanced_holed_grids(rng, holed)
        rng.shuffle(graphs)
        return graphs

    def run(self, g, calls):
        result, failure = calls(oracle.hamilton_oracle, g, budget=ORACLE_BUDGET)
        if failure is not None:
            return _graph_key(g) + (failure,), []
        cycles = [(result.found, g)] if result.found is not None else []
        return _graph_key(g) + (result.found is not None, result.timed_out,
                                result.nodes_explored), cycles

    def check(self, g, row):
        if g.order % 2 == 0:
            return [f"{g.name}: even order in the refutation corpus"]
        if len(row) == 6 and (row[3] or row[4]):
            return [f"{g.name}: search found a cycle or timed out: {row[3:]}"]
        return []


WORKLOADS = {w.name: w for w in (AuditPoly, DecideGrid, EmbedLarge, OracleRefute)}
