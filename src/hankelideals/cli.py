"""Command-line front end.

Subcommands wrap one library operation each and share a common report
envelope: text by default, a fixed-shape JSON document with --json.  Exit
codes separate verified/true outcomes (0) from falsified claims (1), usage
and parse problems (2), and Groebner budget exhaustion (3).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ring import REVLEX, LEX, format_polynomial
from .groebner import (
    BudgetExhaustedError,
    buchberger,
    initial_ideal,
    pair_meter_reset,
    pair_meter_total,
)
from .graphs import (
    GraphFormatError,
    builtin_graph,
    classify_labeling,
    enumerate_rooted_labelings,
    is_closed_labeling,
    is_rooted_labeling,
    parse_graph_file,
)
from .hankel import (
    StructuredPrime,
    TAG_BOUNDS,
    hankel_edge_ideal,
    height_witness,
    minimal_prime_candidates,
    property_report,
    radical_verdict,
    verify_minimal_primes,
    verify_theorem,
)

_ORDERS = {"revlex": REVLEX, "lex": LEX}


def _add_graph_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="PATH", help="graph file to read")
    group.add_argument("--builtin", metavar="NAME", help="built-in fixture, e.g. fig2, t1-4, l5, c6, k4, k4-e")


def _add_order(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--order", choices=sorted(_ORDERS), default="revlex", help="monomial order (default revlex)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelideals",
        description="Hankel edge ideals of labeled graphs: generators, Groebner bases, heights, and minimal-prime certification.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report instead of text")
    parser.add_argument(
        "--budget",
        metavar="INT",
        help="cap on Groebner pair reductions per basis (default from HANKEL_BUDGET or 100000)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("gen", help="print the edge-ideal generators")
    _add_graph_source(sub)

    sub = commands.add_parser("gb", help="print the reduced Groebner basis")
    _add_graph_source(sub)
    _add_order(sub)

    sub = commands.add_parser("initial", help="print the initial ideal")
    _add_graph_source(sub)
    _add_order(sub)

    sub = commands.add_parser("height", help="print the height of the edge ideal")
    _add_graph_source(sub)

    sub = commands.add_parser("classify", help="report the labeling class of the graph")
    _add_graph_source(sub)

    sub = commands.add_parser("minprimes", help="verify a minimal-prime candidate list")
    _add_graph_source(sub)
    sub.add_argument(
        "--candidates",
        metavar="FILE",
        help="JSON candidate list overriding the built-in one: "
        '[{"variables": [1, 2], "minors": [3, 5]}, ...] with "minors" null for none',
    )

    sub = commands.add_parser("check", help="check one algebraic property")
    sub.add_argument("property", choices=["ci", "aci", "radical"], help="ci, aci (almost complete intersection), or radical")
    _add_graph_source(sub)

    sub = commands.add_parser("verify", help="replay a named claim over a range of n")
    sub.add_argument("--theorem", required=True, choices=sorted(TAG_BOUNDS), help="claim tag")
    sub.add_argument("--max-n", type=int, required=True, metavar="INT", help="largest n to include")
    sub.add_argument("--jobs", type=int, default=1, metavar="INT", help="worker processes (default 1, at most the CPU count)")

    sub = commands.add_parser("enum-rooted", help="list all rooted labelings of a tree shape")
    _add_graph_source(sub)

    return parser


def _load_graph(args):
    if args.builtin is not None:
        return builtin_graph(args.builtin)
    with open(args.graph, encoding="utf-8") as handle:
        return parse_graph_file(handle.read())


def _resolve_budget(args) -> int | None:
    text, source = args.budget, "--budget"
    if text is None:
        text, source = os.environ.get("HANKEL_BUDGET"), "HANKEL_BUDGET"
        if not text:
            return None
    # int() rejects some characters str.strip() removes, such as '\x1f'
    digits = text.strip()
    if not digits.isdecimal():
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return int(digits)


def _bool_word(value) -> str:
    return "true" if value else "false"


def _parse_candidates_file(path: str) -> list[StructuredPrime]:
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except RecursionError:
            raise GraphFormatError("candidate file nests too deeply") from None
    if not isinstance(raw, list):
        raise GraphFormatError("candidate file must hold a JSON array")
    out = []
    for k, entry in enumerate(raw, 1):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"candidate {k} must be a JSON object")
        variables, minors = entry.get("variables", []), entry.get("minors")
        # type() rather than isinstance(): JSON true/false load as bools, which are ints
        if not isinstance(variables, list) or not all(type(v) is int and v > 0 for v in variables):
            raise GraphFormatError(f'candidate {k}: "variables" must be a list of positive integers')
        if minors is not None and not (isinstance(minors, list) and list(map(type, minors)) == [int, int]):
            raise GraphFormatError(f'candidate {k}: "minors" must be null or two integers')
        out.append(StructuredPrime(frozenset(variables), None if minors is None else tuple(minors)))
    return out


class _Outcome:
    """What a subcommand hands back for the report envelope."""

    def __init__(self, code: int, lines: list, result, evidence: dict, graph=None, pairs: int | None = None):
        self.code = code
        self.lines = lines
        self.result = result
        self.evidence = evidence
        self.graph = graph
        self.pairs = pairs  # None: read the process meter


def _cmd_gen(args, budget):
    graph = _load_graph(args)
    hank = hankel_edge_ideal(graph)
    strings = [format_polynomial(g) for g in hank.ideal.generators]
    return _Outcome(0, strings, strings, {}, graph)


def _cmd_gb(args, budget):
    graph = _load_graph(args)
    hank = hankel_edge_ideal(graph)
    basis = buchberger(hank.ideal, _ORDERS[args.order], budget=budget)
    strings = [format_polynomial(g) for g in basis.elements]
    evidence = {"pairs_processed": basis.pairs_processed}
    return _Outcome(0, strings, {"elements": strings}, evidence, graph)


def _cmd_initial(args, budget):
    graph = _load_graph(args)
    hank = hankel_edge_ideal(graph)
    mono = initial_ideal(hank.ideal, _ORDERS[args.order], budget=budget)
    strings = mono.generator_strings()
    return _Outcome(0, strings, {"generators": strings}, {}, graph)


def _cmd_height(args, budget):
    # the height of the cheapest feasible support, with no Groebner work; the
    # support and the blocks of its prime P_T are the evidence
    graph = _load_graph(args)
    ht, support, blocks = height_witness(graph)
    evidence = {"support": sorted(support), "blocks": [list(c) for c in blocks]}
    return _Outcome(0, [f"height = {ht}"], {"height": ht}, evidence, graph)


def _cmd_classify(args, budget):
    graph = _load_graph(args)
    labels = classify_labeling(graph)
    rooted = None
    parents = None
    if labels.tree:
        certificate = is_rooted_labeling(graph)
        rooted = certificate is not None
        if certificate is not None:
            parents = list(certificate.parents)
    lines = [
        f"connected: {_bool_word(labels.connected)}",
        f"tree: {_bool_word(labels.tree)}",
        f"path: {_bool_word(labels.path)}",
        f"labeled Hamiltonian: {_bool_word(labels.labeled_hamiltonian)}",
        f"labeled semi-Hamiltonian: {_bool_word(labels.labeled_semi_hamiltonian)}",
        f"closed labeling: {_bool_word(labels.closed_labeling)}",
    ]
    if rooted is None:
        lines.append("rooted labeling: n/a (not a tree)")
    elif rooted:
        lines.append("rooted labeling: true (parents of 2..n: " + ", ".join(map(str, parents)) + ")")
    else:
        lines.append("rooted labeling: false")
    result = {
        "connected": labels.connected,
        "tree": labels.tree,
        "path": labels.path,
        "labeled_hamiltonian": labels.labeled_hamiltonian,
        "labeled_semi_hamiltonian": labels.labeled_semi_hamiltonian,
        "closed_labeling": labels.closed_labeling,
        "rooted_labeling": rooted,
        "parents": parents,
    }
    return _Outcome(0, lines, result, {}, graph)


def _cmd_minprimes(args, budget):
    graph = _load_graph(args)
    hank = hankel_edge_ideal(graph)
    if args.candidates is not None:
        candidates = _parse_candidates_file(args.candidates)
    else:
        candidates = minimal_prime_candidates(graph)
    report = verify_minimal_primes(hank, candidates, budget=budget)
    lines = []
    for k, cand in enumerate(report.candidates):
        lines.append(
            f"P{k + 1} = {cand.describe()}: contains ideal = "
            f"{_bool_word(report.contains_ideal[k])}, incomparable = "
            f"{_bool_word(report.incomparable[k])}"
        )
    lines.append(f"intersection is the radical: {_bool_word(report.intersection_is_radical)}")
    lines.append(f"verified: {_bool_word(report.verified)}")
    result = {
        "ok": report.verified,
        "candidates": [c.describe() for c in report.candidates],
        "contains_ideal": list(report.contains_ideal),
        "incomparable": list(report.incomparable),
        "intersection_is_radical": report.intersection_is_radical,
    }
    evidence = {
        "intersection_generators": [format_polynomial(g) for g in report.intersection.generators]
    }
    return _Outcome(0 if report.verified else 1, lines, result, evidence, graph)


def _cmd_check(args, budget):
    graph = _load_graph(args)
    notes = []
    if args.property == "radical":
        # decided first: an unknown verdict needs neither mu nor the height
        value, note = radical_verdict(graph, budget=budget)
        notes.append(note)
        if value is None:
            lines = ["radical: unknown (no verified minimal-prime list for this class)"]
            result = {"ok": False, "property": args.property, "value": "unknown"}
            return _Outcome(2, lines, result, {"checks": notes}, graph)
    report = property_report(graph)
    if args.property == "ci":
        value = report.is_complete_intersection
        label = "CI"
    elif args.property == "aci":
        value = report.is_almost_complete_intersection
        label = "almost CI"
    if args.property == "radical":
        lines = [f"radical: {_bool_word(value)}"]
    else:
        lines = [f"{label}: {_bool_word(value)} (mu={report.generator_count}, height={report.height})"]
    result = {
        "ok": bool(value),
        "property": args.property,
        "value": bool(value),
        "mu": report.generator_count,
        "height": report.height,
    }
    return _Outcome(0 if value else 1, lines, result, {"checks": [*report.checks, *notes]}, graph)


def _cmd_verify(args, budget):
    report = verify_theorem(args.theorem, args.max_n, jobs=args.jobs, budget=budget)
    lines = []
    for r in report.results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    passed = sum(1 for r in report.results if r.passed)
    lines.append(f"{args.theorem}: {passed}/{len(report.results)} instances passed")
    result = {
        "ok": report.all_passed,
        "tag": args.theorem,
        "instances": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in report.results
        ],
    }
    evidence = {"instance_count": len(report.results), "failures": [r.name for r in report.results if not r.passed]}
    return _Outcome(
        0 if report.all_passed else 1, lines, result, evidence, None, report.pairs_used
    )


def _cmd_enum_rooted(args, budget):
    graph = _load_graph(args)
    labelings = enumerate_rooted_labelings(graph)
    lines = [",".join(f"{i}-{j}" for i, j in lab.edge_list()) for lab in labelings]
    lines.append(f"{len(labelings)} rooted labelings")
    result = {
        "count": len(labelings),
        "labelings": [[[i, j] for i, j in lab.edge_list()] for lab in labelings],
    }
    return _Outcome(0, lines, result, {}, graph)


_HANDLERS = {
    "gen": _cmd_gen,
    "gb": _cmd_gb,
    "initial": _cmd_initial,
    "height": _cmd_height,
    "classify": _cmd_classify,
    "minprimes": _cmd_minprimes,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "enum-rooted": _cmd_enum_rooted,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    pair_meter_reset()
    try:
        budget = _resolve_budget(args)
        outcome = _HANDLERS[args.command](args, budget)
    except BudgetExhaustedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as err:
        print(f"error: bad candidate file: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.json:
        if outcome.graph is not None:
            source = {"n": outcome.graph.n, "edges": [[i, j] for i, j in outcome.graph.edge_list()]}
        else:
            source = {"n": args.max_n, "edges": None}
        payload = {
            "command": args.command,
            "input": source,
            "order": getattr(args, "order", "revlex"),
            "result": outcome.result,
            "evidence": outcome.evidence,
            "budget_used": outcome.pairs if outcome.pairs is not None else pair_meter_total(),
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in outcome.lines:
            print(line)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
