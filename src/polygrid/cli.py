"""Command-line interface.

Report subcommands, each reading one `.pgg` FILE and printing a text
report, or JSON with `--json`: classify, grinberg, holes, decide,
subbases, oracle.  `gen` writes a fixture graph as `.pgg`; `compare`
writes its audit as JSON.  `decide` exit codes: 0 Hamiltonian,
1 non-Hamiltonian, 2 criterion unverified, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .embedding import PlanarEmbedding, parse_pgg, trace_faces, write_pgg
from .grinberg import equation_of_graph, format_equation, solve
from .holes import HAMILTONIAN, UNVERIFIED, decide, hole_contexts
from .oracle import (compare, enumerate_polyominoes, gen_grid,
                     hamilton_oracle, report_json)
from .structure import BasisGraph, claw_d2_scan
from .subbases import decompose, reduce_to_Gg

# What a report subcommand returns: its JSON payload, its text lines and
# its exit code.
Report = Tuple[Dict, List[str], int]

DECIDE_EXIT = {HAMILTONIAN: 0, UNVERIFIED: 2}     # any other verdict: 1


def _edge_pairs(g: PlanarEmbedding, edge_ids) -> List[List[int]]:
    return sorted([min(g.edges[e]), max(g.edges[e])] for e in edge_ids)


def _dashed(pairs) -> str:
    return " ".join(f"{a}-{b}" for a, b in pairs)


def cmd_classify(g: PlanarEmbedding, args) -> Report:
    basis = trace_faces(g)
    bg = BasisGraph(g, basis)
    weights = sorted(bg.weights.items())
    classes = {v: (bg.vertex_class(v).tag, sorted(bg.faces_on_vertex(v)))
               for v in sorted(g.coords)}
    boundary = _edge_pairs(g, bg.boundary_edge_ids())
    claws = claw_d2_scan(g)
    payload = {
        "graph": g.name,
        "edgeWeights": [
            {"edge": [min(g.edges[e]), max(g.edges[e])], "w": w}
            for e, w in weights],
        "vertexClasses": [
            {"vertex": v, "class": tag, "cyclesOn": faces}
            for v, (tag, faces) in classes.items()],
        "boundaryEdges": boundary,
        "clawReports": [
            {"vertex": r.vertex, "incident": r.incident_count,
             "d2": r.d2_count, "severity": r.severity}
            for r in claws],
    }
    lines = [f"graph {g.name}: |V|={g.order} |E|={g.size} "
             f"faces={len(basis.faces)}", "edge weights:"]
    lines += [f"  {g.edges[e][0]} {g.edges[e][1]}: w={w}" for e, w in weights]
    lines.append("vertex classes:")
    lines += [f"  {v}: {tag} (on {len(faces)} faces)"
              for v, (tag, faces) in classes.items()]
    lines.append("boundary edges: " + _dashed(boundary))
    if claws:
        lines.append("claw(d2) reports:")
        lines += [f"  vertex {r.vertex}: |E|={r.incident_count} "
                  f"|d2|={r.d2_count} {r.severity}" for r in claws]
    else:
        lines.append("claw(d2) reports: none")
    return payload, lines, 0


def cmd_grinberg(g: PlanarEmbedding, args) -> Report:
    basis = trace_faces(g)
    eq = equation_of_graph(BasisGraph(g, basis))
    limit = args.limit if not args.all else 1 << len(basis.faces)
    partitions = solve(eq, limit=limit)
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
    lines = [f"graph {g.name}", f"equation: {format_equation(eq)}"]
    lines += [f"solution {i}: inside faces "
              f"[{' '.join(str(f) for f in sorted(p.inside))}]"
              for i, p in enumerate(partitions)] or ["no solution"]
    return payload, lines, 0


def cmd_holes(g: PlanarEmbedding, args) -> Report:
    contexts = list(
        hole_contexts(g, BasisGraph(g, trace_faces(g)), args.max_cx))
    payload = {
        "graph": g.name,
        "contexts": [
            {"x": c.x, "cx": list(c.cx), "ck": c.ck, "globalHole": hole}
            for c, hole in contexts],
        "anyGlobalHole": any(h for _, h in contexts),
    }
    lines = [f"x={c.x} Cx={list(c.cx)} Ck={c.ck} globalHole={hole}"
             for c, hole in contexts] or [
        f"graph {g.name}: no hole contexts (no qualifying C_x)"]
    return payload, lines, 0


def cmd_decide(g: PlanarEmbedding, args) -> Report:
    mode = "lenient" if args.lenient_claw else "strict"
    verdict = decide(g, limit=args.limit, claw_mode=mode, max_cx=args.max_cx)
    cert = None
    if verdict.certificate is not None:
        cert = _edge_pairs(g, verdict.certificate)
    payload = {"graph": g.name, "verdict": verdict.tag,
               "certificate": cert, "details": verdict.details}
    lines = [f"graph {g.name}: {verdict.tag}"]
    if verdict.details:
        lines.append(f"  {verdict.details}")
    if cert:
        lines.append("  certificate: " + _dashed(cert))
    return payload, lines, DECIDE_EXIT.get(verdict.tag, 1)


def cmd_subbases(g: PlanarEmbedding, args) -> Report:
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
    lines = [f"graph {g.name}: |g|={dec.g_count}, coset={list(dec.coset)}"]
    lines += [f"  g{i}: boundary={list(r.boundary)} interior={list(r.interior)}"
              for i, r in enumerate(dec.records)]
    if args.reduce:
        reduced = reduce_to_Gg(g, dec, basis)
        red = payload["reduced"] = {
            "order": reduced.embedding.order,
            "size": reduced.embedding.size,
            "substitutions": [list(s) for s in reduced.substitutions],
            "failedRecords": list(reduced.failed),
        }
        lines.append(f"reduced: |V|={red['order']} |E|={red['size']} "
                     f"substitutions={red['substitutions']} "
                     f"failed={red['failedRecords']}")
    return payload, lines, 0


def cmd_oracle(g: PlanarEmbedding, args) -> Report:
    result = hamilton_oracle(g, budget=args.budget)
    cert = None
    if result.found is not None:
        cert = _edge_pairs(g, result.found)
    payload = {"graph": g.name,
               "found": result.found is not None,
               "timedOut": result.timed_out,
               "nodesExplored": result.nodes_explored,
               "certificate": cert}
    if result.timed_out:
        lines = [f"graph {g.name}: timed out after "
                 f"{result.nodes_explored} nodes"]
    elif cert:
        lines = [f"graph {g.name}: Hamilton cycle found "
                 f"({result.nodes_explored} nodes)", "  " + _dashed(cert)]
    else:
        lines = [f"graph {g.name}: no Hamilton cycle "
                 f"({result.nodes_explored} nodes, exact)"]
    return payload, lines, 0


def _run_report(args) -> int:
    g = parse_pgg(Path(args.file).read_text())
    payload, lines, code = args.report(g, args)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


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
    # The polyomino size, the `--out` path and the budget are checked
    # before the first polyomino is built, so each error comes at once
    # rather than after the audit.  `--out` is opened to append and, if it
    # is a regular file, emptied only once the report is ready, so an error
    # leaves an existing file as it was, and removes one that this run
    # created; a device or pipe (`/dev/null`, `/dev/stdout`) cannot be
    # truncated and is written as it is.
    polyominoes = enumerate_polyominoes(args.polyominoes)
    save = Path(args.save_candidates) if args.save_candidates else None
    created = bool(args.out) and not os.path.lexists(args.out)
    with open(args.out, "a") if args.out else nullcontext(sys.stdout) as out:
        try:
            report = compare(polyominoes, budget=args.budget, save_dir=save)
        except BaseException:
            if created:
                os.unlink(args.out)
            raise
        if args.out and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(0)
        out.write(report_json(report))
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

    def report(name, help, fn, *options):
        # `options` are (flag, add_argument keywords) pairs, declared
        # between FILE and --json.
        p = sub.add_parser(name, help=help)
        p.add_argument("file")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_run_report, report=fn)

    limit = ("--limit", dict(type=int, default=64))
    max_cx = ("--max-cx", dict(type=int, default=3))
    report("classify", "edge weights, vertex classes, claws", cmd_classify)
    report("grinberg", "equation and its partitions", cmd_grinberg,
           ("--all", dict(action="store_true",
                          help="enumerate every partition")), limit)
    report("holes", "hole contexts per vertex", cmd_holes, max_cx)
    report("decide", "Hamiltonicity verdict", cmd_decide, limit, max_cx,
           ("--lenient-claw", dict(action="store_true")))
    report("subbases", "independent subbases decomposition", cmd_subbases,
           ("--reduce", dict(action="store_true")))
    report("oracle", "exact Hamilton cycle search", cmd_oracle,
           ("--budget", dict(type=int, default=10 ** 6)))

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
    # PggParseError and GridGenError are ValueErrors.
    except (OSError, ValueError) as exc:
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
