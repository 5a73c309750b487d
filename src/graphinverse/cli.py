"""Command-line front door.

Subcommands: ``report`` (graph-side facts and predicates), ``equiv``
(decide a pair, optionally with a rewrite-chain certificate), ``nf``
(canonical class representative), ``enumerate`` / ``triples`` (triple
listings, optionally checked against brute force), and ``oracle``
(materialize an acyclic instance and enumerate its congruences).

Exit codes: 0 success, 1 invalid input, 2 inconclusive within bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .congruences import (
    INF,
    TripleFormatError,
    enumerate_triples,
    equiv,
    load_triple,
    normal_form,
    triple_to_json,
)
from .elements import ElementLiteralError, format_element, parse_element
from .graphs import (
    Graph,
    GraphFormatError,
    cycles_in,
    enumerate_hereditary,
    graph_to_dot,
    index_one_vertices,
    is_acyclic,
    is_congruence_free_graph,
    is_strongly_connected,
    load_graph,
    quotient,
)
from .oracle import (
    TransitionOracle,
    enumerate_congruences,
    materialize,
    triple_of_congruence,
)

# conservative defaults: the semigroup is usually infinite, so every
# search the CLI runs is explicitly truncated
DEFAULT_F_CAP = 4
DEFAULT_LEN_BOUND = 8
DEFAULT_STEP_BOUND = 100_000


@dataclass
class Invocation:
    """Validated flags shared by the subcommands."""

    format: str
    f_cap: int = DEFAULT_F_CAP
    len_bound: int = DEFAULT_LEN_BOUND
    step_bound: int = DEFAULT_STEP_BOUND


class _CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _invocation(args: argparse.Namespace) -> Invocation:
    inv = Invocation(
        format=args.format,
        f_cap=getattr(args, "f_cap", DEFAULT_F_CAP),
        len_bound=getattr(args, "len_bound", DEFAULT_LEN_BOUND),
        step_bound=getattr(args, "steps", DEFAULT_STEP_BOUND),
    )
    if inv.f_cap < 1:
        raise _CliError("--f-cap must be a positive integer")
    if inv.len_bound < 0 or inv.step_bound < 0:
        raise _CliError("bounds must be nonnegative")
    return inv


def _emit(inv: Invocation, payload: dict, text_lines: list[str]) -> None:
    if inv.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _vset(g: Graph, vs) -> str:
    inner = ", ".join(g.sort_vertices(vs))
    return "{" + inner + "}"


def cmd_report(args: argparse.Namespace) -> int:
    inv = _invocation(args)
    g = load_graph(args.graph)
    if args.dot:
        print(graph_to_dot(g))
        return 0
    hereditary = enumerate_hereditary(g)
    bar_v = index_one_vertices(g)
    per_h = []
    for h in hereditary:
        q = quotient(g, h)
        bar_h = index_one_vertices(q)
        per_h.append((h, bar_h, cycles_in(q, bar_h)))
    zero_simple = is_strongly_connected(g)
    rees_only = not any(bar_h for _, bar_h, _ in per_h)
    cong_free = is_congruence_free_graph(g) if g.vertices else False

    payload = {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
        "hereditary_subsets": [list(g.sort_vertices(h)) for h in hereditary],
        "index_one_vertices": list(g.sort_vertices(bar_v)),
        "per_hereditary": [
            {
                "H": list(g.sort_vertices(h)),
                "index_one": list(q_bar and g.sort_vertices(q_bar) or ()),
                "cycles": [list(c.path.edges) for c in cycles],
            }
            for h, q_bar, cycles in per_h
        ],
        "zero_simple": zero_simple,
        "rees_only": rees_only,
        "congruence_free": cong_free,
    }
    lines = [
        f"vertices: {', '.join(g.vertices)}",
        f"edges: {', '.join(f'{e.id}:{e.src}->{e.dst}' for e in g.edges)}",
        f"hereditary subsets ({len(hereditary)}): "
        + "  ".join(_vset(g, h) for h in hereditary),
        f"index-one vertices: {_vset(g, bar_v)}",
    ]
    for h, q_bar, cycles in per_h:
        cyc = (
            "  cycles: " + " ".join(".".join(c.path.edges) for c in cycles)
            if cycles
            else ""
        )
        lines.append(f"  H={_vset(g, h)}: index-one {_vset(g, q_bar)}{cyc}")
    lines += [
        f"0-simple (strongly connected): {'yes' if zero_simple else 'no'}"
        + ("" if zero_simple else "  [a proper nonempty hereditary subset exists]"),
        f"Rees congruences only: {'yes' if rees_only else 'no'}"
        + (
            ""
            if rees_only
            else "  [some quotient keeps an index-one vertex]"
        ),
        f"congruence-free: {'yes' if cong_free else 'no'}"
        + (
            ""
            if cong_free
            else "  [needs strong connectivity and no index-one vertex]"
        ),
    ]
    _emit(inv, payload, lines)
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    inv = _invocation(args)
    g = load_graph(args.graph)
    t = load_triple(g, args.triple)
    x = parse_element(g, args.x)
    y = parse_element(g, args.y)
    verdict = equiv(g, t, x, y)
    payload: dict = {"equivalent": verdict}
    lines = ["true" if verdict else "false"]
    code = 0
    if args.certify:
        result = TransitionOracle(g, t, inv.len_bound).search(x, y, inv.step_bound)
        if result.reached and result.chain is not None:
            chain = [format_element(z) for z in result.chain]
            payload["certificate"] = chain
            lines.append("certificate: " + " -> ".join(chain))
        else:
            payload["certificate"] = None
            lines.append(
                f"no certificate within bounds "
                f"(len {inv.len_bound}, steps {inv.step_bound})"
            )
            if verdict:
                code = 2
    _emit(inv, payload, lines)
    return code


def cmd_nf(args: argparse.Namespace) -> int:
    inv = _invocation(args)
    g = load_graph(args.graph)
    t = load_triple(g, args.triple)
    x = parse_element(g, args.element)
    rep = normal_form(g, t, x)
    _emit(inv, {"normal_form": format_element(rep)}, [format_element(rep)])
    return 0


def _triple_lines(g: Graph, enumeration) -> list[str]:
    lines = []
    for t in enumeration.triples:
        fs = ", ".join(
            f"{'.'.join(c.path.edges)}->{'inf' if v == INF else v}" for c, v in t.f
        )
        lines.append(f"H={_vset(g, t.h)} W={_vset(g, t.w)} f={{{fs}}}")
    return lines


def cmd_enumerate(args: argparse.Namespace) -> int:
    inv = _invocation(args)
    g = load_graph(args.graph)
    if args.brute:
        if not is_acyclic(g):
            raise _CliError(
                "--brute requires an acyclic graph: a cycle makes the semigroup "
                "infinite, so congruences cannot be enumerated explicitly"
            )
        s = materialize(g, args.max_elements)
    enumeration = enumerate_triples(g, inv.f_cap)
    payload: dict = {
        "f_cap": inv.f_cap,
        "count": len(enumeration.triples),
        "infinite_family": enumeration.unbounded,
        "triples": [triple_to_json(g, t) for t in enumeration.triples],
    }
    lines = _triple_lines(g, enumeration)
    lines.append(
        f"{len(enumeration.triples)} triples"
        + (
            f" (finite f-values capped at {inv.f_cap}; the full family is infinite)"
            if enumeration.unbounded
            else ""
        )
    )
    if args.brute:
        congruences = enumerate_congruences(s, max_elements=args.max_elements)
        match = len(congruences) == len(enumeration.triples)
        recovered = sorted(
            json.dumps(triple_to_json(g, triple_of_congruence(g, s, rho)))
            for rho in congruences
        )
        listed = sorted(json.dumps(triple_to_json(g, t)) for t in enumeration.triples)
        bijection = match and recovered == listed
        payload["brute"] = {
            "elements": len(s),
            "congruences": len(congruences),
            "bijection_verified": bijection,
        }
        lines.append(
            f"brute force: {len(s)} elements, {len(congruences)} congruences; "
            f"bijection {'verified' if bijection else 'FAILED'}"
        )
        if not bijection:
            _emit(inv, payload, lines)
            return 1
    _emit(inv, payload, lines)
    return 0


def cmd_triples(args: argparse.Namespace) -> int:
    inv = _invocation(args)
    g = load_graph(args.graph)
    enumeration = enumerate_triples(g, inv.f_cap)
    payload = {
        "f_cap": inv.f_cap,
        "infinite_family": enumeration.unbounded,
        "triples": [triple_to_json(g, t) for t in enumeration.triples],
    }
    if inv.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for t in enumeration.triples:
            print(json.dumps(triple_to_json(g, t)))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    inv = _invocation(args)
    g = load_graph(args.graph)
    if not is_acyclic(g):
        raise _CliError("the oracle materializes I(G), which needs an acyclic graph")
    s = materialize(g, args.max_elements)
    congruences = enumerate_congruences(s, max_elements=args.max_elements)
    entries = []
    for rho in congruences:
        t = triple_of_congruence(g, s, rho)
        entries.append(
            {
                "classes": [
                    [format_element(s.elements[i]) for i in cls] for cls in rho.classes
                ],
                "triple": triple_to_json(g, t),
            }
        )
    payload = {
        "elements": [format_element(x) for x in s.elements],
        "congruences": entries,
    }
    lines = [
        f"{len(s)} elements: " + " ".join(format_element(x) for x in s.elements),
        f"{len(congruences)} congruences:",
    ]
    for entry in entries:
        classes = " ".join("{" + ", ".join(cls) + "}" for cls in entry["classes"])
        lines.append(f"  {json.dumps(entry['triple'])}  {classes}")
    _emit(inv, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphinverse",
        description="Graph inverse semigroups and their congruence triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("report", help="graph-side facts and predicates")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--dot", action="store_true", help="emit the graph as DOT and exit")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("equiv", help="decide whether a triple relates two elements")
    p.add_argument("graph")
    p.add_argument("triple", help="triple JSON file")
    p.add_argument("x", help="element literal, e.g. 'e.e|@v'")
    p.add_argument("y")
    p.add_argument("--certify", action="store_true",
                   help="also search for a rewrite-chain certificate")
    p.add_argument("--len-bound", dest="len_bound", type=int,
                   default=DEFAULT_LEN_BOUND)
    p.add_argument("--steps", type=int, default=DEFAULT_STEP_BOUND)
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("nf", help="canonical representative of an element's class")
    p.add_argument("graph")
    p.add_argument("triple")
    p.add_argument("element")
    common(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("enumerate", help="list congruence triples")
    p.add_argument("graph")
    p.add_argument("--f-cap", dest="f_cap", type=int, default=DEFAULT_F_CAP)
    p.add_argument("--brute", action="store_true",
                   help="cross-check against brute-force congruence enumeration")
    p.add_argument("--max-elements", dest="max_elements", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("triples", help="machine-readable triple listing")
    p.add_argument("graph")
    p.add_argument("--f-cap", dest="f_cap", type=int, default=DEFAULT_F_CAP)
    common(p)
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("oracle", help="materialize an acyclic instance")
    p.add_argument("graph")
    p.add_argument("--max-elements", dest="max_elements", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (GraphFormatError, TripleFormatError, ElementLiteralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
