"""Command-line interface.

Graph arguments accept a generator spec (``petersen``, ``flower:5``,
``random:14:7``), a path to a graph6 file (first line is used), or a raw
graph6 literal.  Exit codes: 0 success, 1 check failure, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compositions import k4_composition, tau5odd_example, three_cut_join, two_cut_join
from .coverings import (
    analyze_graph,
    covering_number,
    fulkerson_covering,
    odd_covering_number,
)
from .errors import GraphError, CatalogError, CoveringError, InvalidParams, UnknownName
from .generators import (
    blanusa,
    flower_snark,
    generalized_blanusa,
    goldberg_graph,
    k4,
    k33,
    permutation_graph,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
)
from .graph6 import iter_graph6_file, parse_graph6, to_graph6
from .graphs import find_bridges
from .matchings import enumerate_perfect_matchings, matching_line
from .scan import run_scan
from .verify import run_all


# name -> (constructor, fewest parameters, most parameters); random's
# optional second parameter is its seed
GENERATORS = {
    "petersen": (petersen, 0, 0), "k4": (k4, 0, 0), "k33": (k33, 0, 0),
    "theta": (theta, 0, 0), "blanusa1": (lambda: blanusa(1), 0, 0),
    "blanusa2": (lambda: blanusa(2), 0, 0), "tau5odd": (tau5odd_example, 0, 0),
    "prism": (prism, 1, 1), "flower": (flower_snark, 1, 1),
    "goldberg": (goldberg_graph, 1, 1), "gblanusa": (generalized_blanusa, 2, 2),
    "perm": (lambda *sigma: permutation_graph(sigma), 1, 1),
    "random": (random_bridgeless_cubic, 1, 2),
}


def _generate(spec: str, seed: int | None = None):
    name, _, rest = spec.partition(":")
    args = [p for p in rest.split(":") if p] if rest else []
    if name not in GENERATORS:
        raise UnknownName(f"unknown generator spec {spec!r}")
    make, least, most = GENERATORS[name]
    if not least <= len(args) <= most:
        takes = most if least == most else f"{least} to {most}"
        raise InvalidParams(
            f"generator {name!r} takes {takes} "
            f"parameter{'' if most == 1 else 's'}, got {len(args)}"
        )

    def num(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise InvalidParams(
                f"generator {name!r}: parameter {text!r} is not an integer"
            ) from None

    # perm's one parameter is the comma-separated permutation
    values = [num(x) for x in (args[0].split(",") if name == "perm" else args)]
    if name == "random" and len(values) == 1:
        values.append(0 if seed is None else seed)
    return make(*values)


def _resolve(spec: str, seed: int | None = None):
    if Path(spec).is_file():
        line = next(iter_graph6_file(spec), None)
        if line is None:
            raise GraphError(f"no graph6 line in {spec}")
        return parse_graph6(line)
    try:
        return _generate(spec, seed)
    except UnknownName:
        if ":" in spec:  # never a graph6 character
            raise
    return parse_graph6(spec)


def _emit(g, as_g6: bool) -> None:
    if as_g6:
        print(to_graph6(g))
    else:
        pairs = " ".join(f"{u}-{v}" for u, v in g.edges)
        print(f"n={g.n} m={g.m}")
        print(pairs)


def _cmd_gen(args) -> int:
    spec = ":".join([args.name] + args.params)
    g = _generate(spec, args.seed)
    _emit(g, args.g6)
    return 0


def _cmd_analyze(args) -> int:
    g = _resolve(args.graph, args.seed)
    metrics, status = analyze_graph(
        g, cap=args.cap, odd_cap=args.odd_cap, max_matchings=args.max_pm
    )
    if args.json:
        print(json.dumps({"status": status, "metrics": metrics}))
    else:
        print(f"status: {status}")
        for key, value in metrics.items():
            print(f"{key}: {value}")
    return 0


def _cmd_tau(args) -> int:
    g = _resolve(args.graph, args.seed)
    catalog = enumerate_perfect_matchings(g, args.max_pm)
    result = covering_number(g, catalog, cap=args.cap)
    witness = list(result.witness.members) if result.witness else None
    if args.json:
        print(
            json.dumps(
                {"status": result.status, "tau": result.tau, "witness": witness}
            )
        )
    elif result.status == "ok":
        print(f"tau = {result.tau}  witness: {witness}")
    else:
        print(f"tau: {result.status} (cap {result.cap})")
    return 0


def _cmd_tau_odd(args) -> int:
    g = _resolve(args.graph, args.seed)
    catalog = enumerate_perfect_matchings(g, args.max_pm)
    result = odd_covering_number(g, catalog, cap=args.odd_cap)
    witness = list(result.witness.members) if result.witness else None
    if args.json:
        print(
            json.dumps(
                {
                    "status": result.status,
                    "tau_odd": result.size,
                    "count_minimum": result.count_minimum,
                    "witness": witness,
                }
            )
        )
    elif result.status == "ok":
        print(
            f"tau_odd = {result.size}  minimum-size coverings: "
            f"{result.count_minimum}  witness: {witness}"
        )
    else:
        print(f"tau_odd: {result.status} (cap {result.cap})")
    return 0


def _cmd_fulkerson(args) -> int:
    g = _resolve(args.graph, args.seed)
    catalog = enumerate_perfect_matchings(g, args.max_pm)
    cov = fulkerson_covering(g, catalog)
    if cov is None:
        # a bridged graph has an edge in no perfect matching, and the
        # double-cover conjecture is about bridgeless graphs
        bridges = len(find_bridges(g))
        if args.json:
            status = "infeasible" if bridges else "none_exists"
            print(json.dumps({"status": status, "bridges": bridges}))
        elif bridges:
            print(
                f"NO FULKERSON COVERING: {bridges} bridge(s), "
                "so some edge lies in no perfect matching"
            )
        else:
            print(
                "NO FULKERSON COVERING EXISTS for this graph - "
                "a counterexample to the double-cover conjecture; please re-check."
            )
        return 1
    if args.json:
        print(json.dumps({"members": list(cov.members)}))
    else:
        print(f"Fulkerson covering members: {list(cov.members)}")
        for pm in cov.matchings:
            print(matching_line(g, pm))
    return 0


def _cmd_enumerate(args) -> int:
    g = _resolve(args.graph, args.seed)
    catalog = enumerate_perfect_matchings(g, args.max_pm)
    if args.json:
        print(
            json.dumps(
                {
                    "count": catalog.count,
                    "matchings": [matching_line(g, pm) for pm in catalog.matchings],
                }
            )
        )
    else:
        for pm in catalog.matchings:
            print(matching_line(g, pm))
    return 0


def _cmd_compose(args) -> int:
    op, specs = args.operator, args.specs
    want = 8 if op == "k4" else 4
    if len(specs) != want:
        raise InvalidParams(
            f"compose {op} takes {want // 2} graph/index pairs "
            f"({want} arguments), got {len(specs)}"
        )

    def index(spec: str, g, text: str) -> int:
        # two-cut joins at an edge, three-cut and k4 at a vertex
        kind, size = ("edge", g.m) if op == "two-cut" else ("vertex", g.n)
        try:
            value = int(text)
        except ValueError:
            raise InvalidParams(
                f"compose {op}: index {text!r} is not an integer"
            ) from None
        if not 0 <= value < size:
            raise InvalidParams(
                f"compose {op}: {kind} {value} of {spec!r} is out of range "
                f"0..{size - 1}"
            )
        return value

    pairs = []
    for i in range(0, want, 2):
        g = _resolve(specs[i], args.seed)
        pairs.append((g, index(specs[i], g, specs[i + 1])))
    if op == "k4":
        g = k4_composition(pairs)
    else:
        join = two_cut_join if op == "two-cut" else three_cut_join
        g = join(*pairs[0], *pairs[1])
    _emit(g, args.g6)
    return 0


def _cmd_scan(args) -> int:
    summary = run_scan(
        args.input,
        args.output,
        cap=args.cap,
        odd_cap=args.odd_cap,
        timeout_s=args.timeout_s,
        jobs=args.jobs,
        max_matchings=args.max_pm,
    )
    print(summary.render())
    return 0


def _cmd_verify_paper(args) -> int:
    results = run_all()
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _add_graph_arg(sub) -> None:
    sub.add_argument("graph", help="generator spec, graph6 file, or graph6 literal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcover",
        description="Exact perfect-matching covering computations "
        "for bridgeless cubic graphs",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for random specs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named or family graph")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--g6", action="store_true", help="emit graph6")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="full covering report for one graph")
    _add_graph_arg(p)
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--odd-cap", type=int, default=7)
    p.add_argument("--max-pm", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tau", help="perfect matching index")
    _add_graph_arg(p)
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--max-pm", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("tau-odd", help="minimum odd covering size")
    _add_graph_arg(p)
    p.add_argument("--odd-cap", type=int, default=7)
    p.add_argument("--max-pm", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tau_odd)

    p = sub.add_parser("fulkerson", help="search for a Fulkerson covering")
    _add_graph_arg(p)
    p.add_argument("--max-pm", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fulkerson)

    p = sub.add_parser("enumerate-pm", help="list all perfect matchings")
    _add_graph_arg(p)
    p.add_argument("--max-pm", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("compose", help="apply a graph composition operator")
    p.add_argument("operator", choices=["two-cut", "three-cut", "k4"])
    p.add_argument("specs", nargs="+", help="alternating graph specs and indices")
    p.add_argument("--g6", action="store_true")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("scan", help="analyze a graph6 corpus into JSONL records")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--odd-cap", type=int, default=7)
    p.add_argument(
        "--timeout-s", type=float, default=60.0,
        help="time limit per graph in seconds; 0 means no limit",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--max-pm", type=int, default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, CatalogError, CoveringError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
