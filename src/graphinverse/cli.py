"""Command-line front door.

Subcommands: ``report`` (graph-side facts and predicates), ``equiv``
(decide a pair, optionally with a rewrite-chain certificate), ``nf``
(canonical class representative), ``enumerate`` (the triple listing,
optionally checked against brute force; ``triples`` is an alias), and
``oracle`` (materialize an acyclic instance and enumerate its
congruences).

``--format json`` prints one compact JSON document on one line;
``python -m json.tool`` indents it. The listings are written while the
triples are made, in chunks, so memory stays flat however many there
are; their count and infinite-family flag come first, from
:func:`~graphinverse.congruences.count_triples`, and every input error is
raised before the first byte.

Exit codes: 0 success, 1 invalid input (usage errors included), 2 a
pair decided equivalent but no certificate found within bounds.
The scripts in ``scripts/`` share this front end: the parser
:class:`Parser` and the exit path :func:`run`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import Counter
from functools import partial
from typing import Callable, Iterable, NoReturn

from .congruences import (
    count_triples,
    enumerate_triples,
    equiv,
    load_triple,
    normal_form,
    triple_to_json,
)
from .elements import format_element, parse_element
from .graphs import (
    graph_to_dot,
    graph_to_json,
    is_congruence_free_graph,
    is_strongly_connected,
    load_graph,
    quotients,
)

def _emit(args: argparse.Namespace, payload: dict, text_lines: Iterable[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _braces(items: Iterable[str]) -> str:
    return "{" + ", ".join(items) + "}"


def cmd_report(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    if args.dot:
        print(graph_to_dot(g))
        return 0
    per_h = [{"H": list(g.sort_vertices(h)), "index_one": list(bar_edges),
              "cycles": [list(c.path.edges) for c in cycles]}
             for h, bar_edges, cycles in quotients(g)]
    payload = {
        **graph_to_json(g),
        "hereditary_subsets": [d["H"] for d in per_h],
        "index_one_vertices": per_h[0]["index_one"],  # H = ∅ comes first
        "per_hereditary": per_h,
        "zero_simple": bool(g.vertices) and is_strongly_connected(g),  # I(∅) = {0}: not 0-simple
        "rees_only": not any(d["index_one"] for d in per_h),
        "congruence_free": bool(g.vertices) and is_congruence_free_graph(g),
    }
    lines = [
        f"vertices: {', '.join(payload['vertices'])}",
        "edges: " + ", ".join("{id}:{src}->{dst}".format_map(e) for e in payload["edges"]),
        f"hereditary subsets ({len(per_h)}): "
        + "  ".join(map(_braces, payload["hereditary_subsets"])),
        f"index-one vertices: {_braces(payload['index_one_vertices'])}",
    ]
    for d in payload["per_hereditary"]:
        cycles = " ".join(".".join(c) for c in d["cycles"])
        lines.append(f"  H={_braces(d['H'])}: index-one {_braces(d['index_one'])}"
                     + (f"  cycles: {cycles}" if cycles else ""))
    for key, label, reason in (
        ("zero_simple", "0-simple (strongly connected)",
         "a proper nonempty hereditary subset exists"),
        ("rees_only", "Rees congruences only", "some quotient keeps an index-one vertex"),
        ("congruence_free", "congruence-free",
         "needs strong connectivity and no index-one vertex"),
    ):
        reason = reason if g.vertices else "I(G) = {0}"
        lines.append(f"{label}: yes" if payload[key] else f"{label}: no  [{reason}]")
    _emit(args, payload, lines)
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    t = load_triple(g, args.triple)
    x = parse_element(g, args.x)
    y = parse_element(g, args.y)
    verdict = equiv(g, t, x, y)
    payload: dict = {"equivalent": verdict}
    lines = ["true" if verdict else "false"]
    code = 0
    if args.certify:
        from .oracle import TransitionOracle

        result = TransitionOracle(g, t, args.len_bound).search(x, y, args.steps)
        if result.reached and result.chain is not None:
            chain = [format_element(z) for z in result.chain]
            payload["certificate"] = chain
            lines.append("certificate: " + " -> ".join(chain))
        else:
            payload["certificate"] = None
            lines.append(
                f"no certificate within bounds "
                f"(len {args.len_bound}, steps {args.steps})"
            )
            if verdict:
                code = 2
    _emit(args, payload, lines)
    return code


def cmd_nf(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    t = load_triple(g, args.triple)
    x = parse_element(g, args.element)
    rep = normal_form(g, t, x)
    _emit(args, {"normal_form": format_element(rep)}, [format_element(rep)])
    return 0


LISTING_CHUNK = 256  # triples per write: an unbuffered stdout makes each write a syscall


def _emit_listing(args: argparse.Namespace, payload: dict, docs: Iterable[dict],
                  tail: list[str]) -> None:
    """Write a triple listing while it is made, LISTING_CHUNK triples per write.

    JSON mode writes the bytes of json.dumps(payload) with the docs in
    place of payload's empty "triples" list, encoding each chunk in one
    call; text mode writes one H= W= f= line per doc, then the tail lines.
    """
    docs = iter(docs)
    chunks = iter(lambda: list(itertools.islice(docs, LISTING_CHUNK)), [])
    if args.format == "json":
        head, _, end = json.dumps(payload).partition('"triples": []')
        sys.stdout.write(head + '"triples": [')
        for i, chunk in enumerate(chunks):
            sys.stdout.write((", " if i else "") + json.dumps(chunk)[1:-1])
        sys.stdout.write("]" + end + "\n")
    else:
        for chunk in chunks:
            sys.stdout.write("".join(_triple_line(d) + "\n" for d in chunk))
        sys.stdout.write("".join(t + "\n" for t in tail))


def _triple_line(d: dict) -> str:
    return (f"H={_braces(d['H'])} W={_braces(d['W'])} f="
            + _braces(f"{'.'.join(e['cycle'])}->{e['value']}" for e in d["f"]))


def cmd_enumerate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    if args.brute:
        from .oracle import brute_force

        s, congruences = brute_force(g, args.max_elements)
    triples = enumerate_triples(g, args.f_cap)
    count, infinite = count_triples(g, args.f_cap)
    payload = {"f_cap": args.f_cap, "count": count, "infinite_family": infinite, "triples": []}
    capped = f" (finite f-values capped at {args.f_cap}; the full family is infinite)"
    tail = [f"{count} triples" + (capped if infinite else "")]
    code = 0
    if args.brute:
        triples = tuple(triples)
        # the triples read off the congruences are the listed ones, each once
        bijection = Counter(t for _, t in congruences) == Counter(triples)
        payload["brute"] = {
            "elements": len(s),
            "congruences": len(congruences),
            "bijection_verified": bijection,
        }
        tail.append(
            f"brute force: {len(s)} elements, {len(congruences)} congruences; "
            f"bijection {'verified' if bijection else 'FAILED'}"
        )
        code = 0 if bijection else 1
    _emit_listing(args, payload, (triple_to_json(g, t) for t in triples), tail)
    return code


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import brute_force

    g = load_graph(args.graph)
    s, congruences = brute_force(g, args.max_elements)
    entries = [
        {
            "classes": [[format_element(s.elements[i]) for i in cls] for cls in rho.classes],
            "triple": triple_to_json(g, t),
        }
        for rho, t in congruences
    ]
    payload = {
        "elements": [format_element(x) for x in s.elements],
        "congruences": entries,
    }
    lines = [
        f"{len(s)} elements: " + " ".join(format_element(x) for x in s.elements),
        f"{len(congruences)} congruences:",
    ]
    for entry in entries:
        classes = " ".join(map(_braces, entry["classes"]))
        lines.append(f"  {json.dumps(entry['triple'])}  {classes}")
    _emit(args, payload, lines)
    return 0


class Parser(argparse.ArgumentParser):
    """The parser of every entry point. A usage error is invalid input:
    one error line and exit code 1.

    An int flag declared with ``least=`` states its least value there.
    Once the whole command line has parsed, a smaller value raises
    ValueError naming the flag, which :func:`run` prints as one line.
    """

    def __init__(self, *args, bounds: dict[str, tuple[int, str]] | None = None, **kwargs):
        # dest -> (least value, message); the subcommands share one table
        self.bounds = {} if bounds is None else bounds
        super().__init__(*args, **kwargs)

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"error: {message}\n")

    def add_subparsers(self, **kwargs):
        return super().add_subparsers(parser_class=partial(Parser, bounds=self.bounds), **kwargs)

    def add_argument(self, *args, least: int | None = None, **kwargs):
        if least is None:
            return super().add_argument(*args, **kwargs)
        action = super().add_argument(*args, type=int, **kwargs)
        rule = {0: "nonnegative", 1: "a positive integer"}[least]
        self.bounds[action.dest] = (least, f"{args[0]} must be {rule}")
        return action

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for dest, (least, message) in self.bounds.items():
            if dest in vars(parsed) and vars(parsed)[dest] < least:
                raise ValueError(message)
        return parsed


def build_parser() -> Parser:
    parser = Parser(
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

    # conservative defaults: the semigroup is usually infinite, so every
    # search the CLI runs is explicitly truncated
    p = sub.add_parser("equiv", help="decide whether a triple relates two elements")
    p.add_argument("graph")
    p.add_argument("triple", help="triple JSON file")
    p.add_argument("x", help="element literal, e.g. 'e.e|@v'")
    p.add_argument("y")
    p.add_argument("--certify", action="store_true",
                   help="also search for a rewrite-chain certificate")
    p.add_argument("--len-bound", dest="len_bound", least=0, default=8)
    p.add_argument("--steps", least=0, default=100_000)
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("nf", help="canonical representative of an element's class")
    p.add_argument("graph")
    p.add_argument("triple")
    p.add_argument("element")
    common(p)
    p.set_defaults(func=cmd_nf)

    # "triples" stays as an alias while perfbench's cli workload runs it
    p = sub.add_parser("enumerate", aliases=["triples"], help="list congruence triples")
    p.add_argument("graph")
    p.add_argument("--f-cap", dest="f_cap", least=1, default=4)
    p.add_argument("--brute", action="store_true",
                   help="cross-check against brute-force congruence enumeration")
    p.add_argument("--max-elements", dest="max_elements", least=0, default=64)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="materialize an acyclic instance")
    p.add_argument("graph")
    p.add_argument("--max-elements", dest="max_elements", least=0, default=64)
    common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def run(body: Callable[[], int | None]) -> int:
    """Run an entry point's body and flush stdout; the exit code is the
    body's, 0 for None. Invalid input, a failed read, a closed stdout and
    running out of memory end in one error line on stderr and exit code 1."""
    try:
        code = body()
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
        return code or 0
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        if isinstance(exc, BrokenPipeError):
            # stdout still holds the unwritten text: devnull takes it at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # str() quotes a KeyError's message; an OSError's args are (errno, text)
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    def body() -> int:
        args = build_parser().parse_args(argv)
        return args.func(args)

    return run(body)


def entry() -> None:
    sys.exit(main())
