"""Command-line interface.

A graph argument is tried as a path to a graph6 file (first line is used),
then as a generator spec (``petersen``, ``flower:5``, ``random:14:7``), then
as a raw graph6 literal.  A directory is an I/O error, and so is a spec that
holds a character graph6 never uses and a "." or a path separator: a missing
file.  The graph commands
(``analyze``, ``tau``, ``tau-odd``, ``fulkerson``, ``enumerate-pm``) share
one loader and one printer: each prints a JSON payload with ``--json`` and
text lines without, and with ``--max-pm N`` a graph with more than N perfect
matchings is a usage error.  Every shared option is declared once, as an
argparse parent parser.  Exit codes: 0 success, 1 check failure, 2 usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .compositions import k4_composition, tau5odd_example, three_cut_join, two_cut_join
from .coverings import (
    DEFAULT_CAP,
    DEFAULT_ODD_CAP,
    analyze_graph,
    covering_number,
    fulkerson_covering,
    odd_covering_number,
)
from .errors import GraphError, InvalidParams, UnknownName
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
from .graph6 import could_be_graph6, iter_graph6_file, parse_graph6, to_graph6
from .graphs import find_bridges
from .matchings import enumerate_perfect_matchings, matching_line
from .scan import DEFAULT_TIMEOUT_S, run_scan
from .verify import run_all


# name -> (constructor, fewest parameters, most parameters); random's
# optional second parameter is its seed, 0 when left out
GENERATORS = {
    "petersen": (petersen, 0, 0), "k4": (k4, 0, 0), "k33": (k33, 0, 0),
    "theta": (theta, 0, 0), "blanusa1": (lambda: blanusa(1), 0, 0),
    "blanusa2": (lambda: blanusa(2), 0, 0), "tau5odd": (tau5odd_example, 0, 0),
    "prism": (prism, 1, 1), "flower": (flower_snark, 1, 1),
    "goldberg": (goldberg_graph, 1, 1), "gblanusa": (generalized_blanusa, 2, 2),
    "perm": (lambda *sigma: permutation_graph(sigma), 1, 1),
    "random": (random_bridgeless_cubic, 1, 2),
}


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParams(f"{what} {text!r} is not an integer") from None


def _generate(spec: str):
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
    # perm's one parameter is the comma-separated permutation
    params = args[0].split(",") if name == "perm" else args
    values = [_int(x, f"generator {name!r}: parameter") for x in params]
    return make(*values)


def _resolve(spec: str):
    if os.path.isfile(spec):
        line = next(iter_graph6_file(spec), None)
        if line is None:
            raise GraphError(f"no graph6 line in {spec}")
        return parse_graph6(line)
    try:
        return _generate(spec)
    except UnknownName as exc:
        if ":" in spec:  # never a graph6 character
            raise
        unknown = exc
    if os.path.isdir(spec):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), spec)
    if not could_be_graph6(spec):  # no literal: a missing file or a bad name
        if "." in spec or os.sep in spec:  # e.g. "nonexist.g6"
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), spec)
        raise unknown
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
    g = _generate(spec)
    _emit(g, args.g6)
    return 0


# The graph commands map (graph, catalog, args) to (exit code, JSON payload,
# text lines); _cmd_graph loads their input and prints their output.
def _analyze(g, catalog, args):
    metrics, status = analyze_graph(g, args.cap, args.odd_cap, args.max_pm)
    lines = [f"status: {status}"] + [f"{k}: {v}" for k, v in metrics.items()]
    return 0, {"status": status, "metrics": metrics}, lines


def _tau(g, catalog, args):
    result = covering_number(g, catalog, args.cap)
    witness = list(result.witness.members) if result.witness else None
    if result.status == "ok":
        line = f"tau = {result.tau}  witness: {witness}"
    else:
        line = f"tau: {result.status} (cap {result.cap})"
    payload = {"status": result.status, "tau": result.tau, "witness": witness}
    return 0, payload, [line]


def _tau_odd(g, catalog, args):
    result = odd_covering_number(g, catalog, args.odd_cap)
    witness = list(result.witness.members) if result.witness else None
    if result.status == "ok":
        line = (
            f"tau_odd = {result.size}  minimum-size coverings: "
            f"{result.count_minimum}  witness: {witness}"
        )
    else:
        line = f"tau_odd: {result.status} (cap {result.cap})"
    payload = {
        "status": result.status, "tau_odd": result.size,
        "count_minimum": result.count_minimum, "witness": witness,
    }
    return 0, payload, [line]


def _fulkerson(g, catalog, args):
    cov = fulkerson_covering(g, catalog)
    if cov is not None:
        members = list(cov.members)
        lines = [f"Fulkerson covering members: {members}"]
        lines += [matching_line(g, pm) for pm in cov.matchings]
        return 0, {"members": members}, lines
    # a bridged graph has an edge in no perfect matching, and the
    # double-cover conjecture is about bridgeless graphs
    bridges = len(find_bridges(g))
    if bridges:
        line = (
            f"NO FULKERSON COVERING: {bridges} bridge(s), "
            "so some edge lies in no perfect matching"
        )
    else:
        line = (
            "NO FULKERSON COVERING EXISTS for this graph - "
            "a counterexample to the double-cover conjecture; please re-check."
        )
    status = "infeasible" if bridges else "none_exists"
    return 1, {"status": status, "bridges": bridges}, [line]


def _enumerate(g, catalog, args):
    lines = [matching_line(g, pm) for pm in catalog.matchings]
    return 0, {"count": catalog.count, "matchings": lines}, lines


def _cmd_graph(args) -> int:
    """Load the graph and its catalog, run one graph command, print its report."""
    g = _resolve(args.graph)
    # analyze_graph builds the catalog itself, as one of its phases
    catalog = (
        None if args.report is _analyze
        else enumerate_perfect_matchings(g, args.max_pm)
    )
    code, payload, lines = args.report(g, catalog, args)
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return code


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
        value = _int(text, f"compose {op}: index")
        if not 0 <= value < size:
            raise InvalidParams(
                f"compose {op}: {kind} {value} of {spec!r} is out of range "
                f"0..{size - 1}"
            )
        return value

    pairs = []
    for i in range(0, want, 2):
        g = _resolve(specs[i])
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


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one option for every command that takes it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcover",
        description="Exact perfect-matching covering computations "
        "for bridgeless cubic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    graph = _option("graph", help="generator spec, graph6 file, or graph6 literal")
    cap = _option("--cap", type=int, default=DEFAULT_CAP)
    odd_cap = _option("--odd-cap", type=int, default=DEFAULT_ODD_CAP)
    max_pm = _option("--max-pm", type=int, default=None)
    as_json = _option("--json", action="store_true")

    p = sub.add_parser("gen", help="emit a named or family graph")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--g6", action="store_true", help="emit graph6")
    p.set_defaults(func=_cmd_gen)

    for name, text, report, caps in (
        ("analyze", "full covering report for one graph", _analyze, [cap, odd_cap]),
        ("tau", "perfect matching index", _tau, [cap]),
        ("tau-odd", "minimum odd covering size", _tau_odd, [odd_cap]),
        ("fulkerson", "search for a Fulkerson covering", _fulkerson, []),
        ("enumerate-pm", "list all perfect matchings", _enumerate, []),
    ):
        p = sub.add_parser(name, help=text, parents=[graph, *caps, max_pm, as_json])
        p.set_defaults(func=_cmd_graph, report=report)

    p = sub.add_parser("compose", help="apply a graph composition operator")
    p.add_argument("operator", choices=["two-cut", "three-cut", "k4"])
    p.add_argument("specs", nargs="+", help="alternating graph specs and indices")
    p.add_argument("--g6", action="store_true")
    p.set_defaults(func=_cmd_compose)

    # a parent too, as argparse lists a parser's own options after its parents'
    scan_args = argparse.ArgumentParser(add_help=False)
    scan_args.add_argument("input")
    scan_args.add_argument("output")
    scan_args.add_argument(
        "--timeout-s", type=float, default=DEFAULT_TIMEOUT_S,
        help="time limit per graph in seconds; 0 or inf means no limit",
    )
    scan_args.add_argument("--jobs", type=int, default=1, help="worker processes")
    p = sub.add_parser(
        "scan", help="analyze a graph6 corpus into JSONL records",
        parents=[cap, odd_cap, scan_args, max_pm],
    )
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # GraphError, CatalogError, CoveringError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
