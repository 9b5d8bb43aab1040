"""Command-line interface.

Subcommands: classify, grinberg, holes, decide, subbases, oracle, gen,
compare.  `decide` exit codes: 0 Hamiltonian, 1 non-Hamiltonian,
2 criterion unverified, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .embedding import (PggParseError, PlanarEmbedding, parse_pgg,
                        trace_faces, write_pgg)
from .grinberg import equation_of_graph, format_equation, solve
from .holes import HAMILTONIAN, UNVERIFIED, decide, hole_contexts
from .oracle import (GridGenError, compare, enumerate_polyominoes, gen_grid,
                     hamilton_oracle, report_json)
from .structure import BasisGraph, claw_d2_scan
from .subbases import decompose, reduce_to_Gg


def _load(path: str) -> PlanarEmbedding:
    return parse_pgg(Path(path).read_text())


def _edge_pairs(g: PlanarEmbedding, edge_ids) -> List[List[int]]:
    return sorted([min(g.edges[e]), max(g.edges[e])] for e in edge_ids)


def cmd_classify(args) -> int:
    g = _load(args.file)
    basis = trace_faces(g)
    bg = BasisGraph(g, basis)
    weights = bg.weights
    classes = {v: (bg.vertex_class(v).tag, sorted(bg.faces_on_vertex(v)))
               for v in sorted(g.coords)}
    claws = claw_d2_scan(g)
    if args.json:
        payload = {
            "graph": g.name,
            "edgeWeights": [
                {"edge": [min(g.edges[e]), max(g.edges[e])], "w": w}
                for e, w in sorted(weights.items())],
            "vertexClasses": [
                {"vertex": v, "class": tag, "cyclesOn": faces}
                for v, (tag, faces) in classes.items()],
            "boundaryEdges": _edge_pairs(g, bg.boundary_edge_ids()),
            "clawReports": [
                {"vertex": r.vertex, "incident": r.incident_count,
                 "d2": r.d2_count, "severity": r.severity}
                for r in claws],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"graph {g.name}: |V|={g.order} |E|={g.size} "
          f"faces={len(basis.faces)}")
    print("edge weights:")
    for e, w in sorted(weights.items()):
        u, v = g.edges[e]
        print(f"  {u} {v}: w={w}")
    print("vertex classes:")
    for v, (tag, faces) in classes.items():
        print(f"  {v}: {tag} (on {len(faces)} faces)")
    print("boundary edges: "
          + " ".join(f"{a}-{b}" for a, b in _edge_pairs(g, bg.boundary_edge_ids())))
    if claws:
        print("claw(d2) reports:")
        for r in claws:
            print(f"  vertex {r.vertex}: |E|={r.incident_count} "
                  f"|d2|={r.d2_count} {r.severity}")
    else:
        print("claw(d2) reports: none")
    return 0


def cmd_grinberg(args) -> int:
    g = _load(args.file)
    basis = trace_faces(g)
    eq = equation_of_graph(BasisGraph(g, basis))
    limit = args.limit if not args.all else 1 << len(basis.faces)
    partitions = solve(eq, limit=limit)
    if args.json:
        payload = {
            "graph": g.name,
            "equation": format_equation(eq),
            "order": eq.order,
            "target": eq.target,
            "faceLengths": list(eq.lengths),
            "feasible": bool(partitions),
            "partitions": [
                {"inside": sorted(p.inside), "outside": sorted(p.outside)}
                for p in partitions],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"graph {g.name}")
    print(f"equation: {format_equation(eq)}")
    if not partitions:
        print("no solution")
        return 0
    for i, p in enumerate(partitions):
        inside = " ".join(str(f) for f in sorted(p.inside))
        print(f"solution {i}: inside faces [{inside}]")
    return 0


def cmd_holes(args) -> int:
    g = _load(args.file)
    contexts = list(
        hole_contexts(g, BasisGraph(g, trace_faces(g)), args.max_cx))
    if args.json:
        payload = {
            "graph": g.name,
            "contexts": [
                {"x": c.x, "cx": list(c.cx), "ck": c.ck, "globalHole": hole}
                for c, hole in contexts],
            "anyGlobalHole": any(h for _, h in contexts),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not contexts:
        print(f"graph {g.name}: no hole contexts (no qualifying C_x)")
        return 0
    for c, hole in contexts:
        print(f"x={c.x} Cx={list(c.cx)} Ck={c.ck} globalHole={hole}")
    return 0


def cmd_decide(args) -> int:
    g = _load(args.file)
    mode = "lenient" if args.lenient_claw else "strict"
    verdict = decide(g, limit=args.limit, claw_mode=mode, max_cx=args.max_cx)
    cert = None
    if verdict.certificate is not None:
        cert = _edge_pairs(g, verdict.certificate)
    if args.json:
        payload = {"graph": g.name, "verdict": verdict.tag,
                   "certificate": cert, "details": verdict.details}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"graph {g.name}: {verdict.tag}")
        if verdict.details:
            print(f"  {verdict.details}")
        if cert:
            print("  certificate: "
                  + " ".join(f"{a}-{b}" for a, b in cert))
    if verdict.tag == HAMILTONIAN:
        return 0
    if verdict.tag == UNVERIFIED:
        return 2
    return 1


def cmd_subbases(args) -> int:
    g = _load(args.file)
    basis = trace_faces(g)
    dec = decompose(g, basis)
    payload = {
        "graph": g.name,
        "boundaryElementFaces": list(dec.boundary_element_faces),
        "gCount": dec.g_count,
        "records": [
            {"interior": list(r.interior), "boundary": list(r.boundary)}
            for r in dec.records],
        "coset": list(dec.coset),
    }
    if args.reduce:
        reduced = reduce_to_Gg(g, dec, basis)
        payload["reduced"] = {
            "order": reduced.embedding.order,
            "size": reduced.embedding.size,
            "substitutions": [list(s) for s in reduced.substitutions],
            "failedRecords": list(reduced.failed),
        }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"graph {g.name}: |g|={dec.g_count}, "
          f"coset={list(dec.coset)}")
    for i, r in enumerate(dec.records):
        print(f"  g{i}: boundary={list(r.boundary)} interior={list(r.interior)}")
    if args.reduce:
        red = payload["reduced"]
        print(f"reduced: |V|={red['order']} |E|={red['size']} "
              f"substitutions={red['substitutions']} "
              f"failed={red['failedRecords']}")
    return 0


def cmd_oracle(args) -> int:
    g = _load(args.file)
    result = hamilton_oracle(g, budget=args.budget)
    cert = None
    if result.found is not None:
        cert = _edge_pairs(g, result.found)
    if args.json:
        payload = {"graph": g.name,
                   "found": result.found is not None,
                   "timedOut": result.timed_out,
                   "nodesExplored": result.nodes_explored,
                   "certificate": cert}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if result.timed_out:
        print(f"graph {g.name}: timed out after "
              f"{result.nodes_explored} nodes")
    elif cert:
        print(f"graph {g.name}: Hamilton cycle found "
              f"({result.nodes_explored} nodes)")
        print("  " + " ".join(f"{a}-{b}" for a, b in cert))
    else:
        print(f"graph {g.name}: no Hamilton cycle "
              f"({result.nodes_explored} nodes, exact)")
    return 0


def cmd_gen(args) -> int:
    holes = []
    for chunk in args.holes.split(";") if args.holes else ():
        try:
            cx, cy = map(int, chunk.split(","))
        except ValueError:
            raise ValueError(f"bad hole cell {chunk!r} (want x,y)") from None
        holes.append((cx, cy))
    g = gen_grid(args.m, args.n, holes)
    sys.stdout.write(write_pgg(g))
    return 0


def cmd_compare(args) -> int:
    graphs = list(enumerate_polyominoes(args.polyominoes))
    save = Path(args.save_candidates) if args.save_candidates else None
    report = compare(graphs, budget=args.budget, save_dir=save)
    text = report_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    totals = report.totals
    print(f"# graphs={totals['graphs']} agree={totals['agree']} "
          f"disagree={totals['disagree']} "
          f"inconclusive={totals['inconclusive']}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygrid",
        description="Hamiltonicity analysis of polygonal grid graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="edge weights, vertex classes, claws")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("grinberg", help="equation and its partitions")
    p.add_argument("file")
    p.add_argument("--all", action="store_true",
                   help="enumerate every partition")
    p.add_argument("--limit", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_grinberg)

    p = sub.add_parser("holes", help="hole contexts per vertex")
    p.add_argument("file")
    p.add_argument("--max-cx", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_holes)

    p = sub.add_parser("decide", help="Hamiltonicity verdict")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=64)
    p.add_argument("--max-cx", type=int, default=3)
    p.add_argument("--lenient-claw", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("subbases", help="independent subbases decomposition")
    p.add_argument("file")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_subbases)

    p = sub.add_parser("oracle", help="exact Hamilton cycle search")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a fixture graph")
    p.add_argument("kind", choices=["grid"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--holes", default="",
                   help='deleted cells as "x,y;x,y"')
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compare", help="criterion-vs-oracle audit")
    p.add_argument("--polyominoes", type=int, default=4)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--out", default="")
    p.add_argument("--save-candidates", default="")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PggParseError, GridGenError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # The oracle recurses once per path vertex, so a graph of about
        # sys.getrecursionlimit() vertices is beyond it.
        print(f"error: graph too deep for the recursive search (recursion "
              f"limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
