"""Writes `references.json`: the pinned reduced bases the `bases` workload
compares against.

Run from the repository root when a graph is added to the workload:

    PYTHONPATH=src python3 bench/pin_references.py

The file is written once and then reviewed; `test_bench.py` validates every
entry independently (Buchberger's criterion on all pairs, both ideal
containments, reducedness), so a reference never rests on the code that
produced it.
"""

from __future__ import annotations

import json
import random
import statistics

from hankelideals import LEX, REVLEX, buchberger, builtin_graph, format_polynomial, hankel_edge_ideal
from hankelideals.graphs import LabeledGraph

from workloads import REFERENCES, draw_chords, path_edges

POOL_SIZE = 8
# Candidates drawn per n; the POOL_SIZE whose pair counts lie closest to the
# candidates' median are kept, so the seed changes the graph but hardly the
# load.
POOL_CANDIDATES = 24
REVLEX_BUILTINS = ("k10", "c10", "c12", "k8-e", "fig2", "fig3", "fig4")
LEX_BUILTINS = ("c6", "l6", "t1-6", "t2-6", "fig2")


def _entry(label, graph, order, order_name, builtin=None):
    basis = buchberger(hankel_edge_ideal(graph).ideal, order)
    entry = {"label": label, "order": order_name, "n": graph.n, "edges": [list(e) for e in graph.edge_list()]}
    if builtin is not None:
        entry["builtin"] = builtin
    entry["basis"] = [format_polynomial(p) for p in basis.elements]
    return entry


def main() -> None:
    entries = [_entry(b, builtin_graph(b), REVLEX, "revlex", b) for b in REVLEX_BUILTINS]
    for n in (8, 9, 10):
        candidates = []
        for k in range(POOL_CANDIDATES):
            chords = draw_chords(random.Random(f"bases-pool-{n}-{k}"), n)
            graph = LabeledGraph.of(n, path_edges(n) + chords)
            candidates.append((buchberger(hankel_edge_ideal(graph).ideal, REVLEX).pairs_processed, k, graph))
        median = statistics.median(pairs for pairs, _, _ in candidates)
        kept = sorted(sorted(candidates, key=lambda c: (abs(c[0] - median), c[1]))[:POOL_SIZE], key=lambda c: c[1])
        for index, (_, _, graph) in enumerate(kept):
            entries.append(_entry(f"semi{n}-{index}", graph, REVLEX, "revlex"))
    entries += [_entry(f"{b} lex", builtin_graph(b), LEX, "lex", b) for b in LEX_BUILTINS]
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump({"pool_size": POOL_SIZE, "bases": entries}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
