"""The benchmark's three workloads: request lists and their known answers.

Each request is one `hankelideals` command line (run in-process with
`--json`) with the exit code and verdict it must produce.  Known answers
come from the paper's theorems or from the pinned, independently validated
bases in `references.json`; none is the live output of the code under test.
This module does not import `hankelideals`, so building a workload costs the
same whatever the package does.

Why each workload exists:

* `certify` -- `minprimes` on the covered classes.  Time goes to
  t-elimination intersections and Rabinowitsch radical tests; every other
  request passes `--budget 100000` (the documented default), so the budgeted
  half takes the cache-bypass path and the other half the cache path.
* `sweep` -- the Theorem 3.2 replay over every rooted labeled tree with
  n <= 7, plus `check ci` on fig4.  Time goes to
  `is_minimal_generating_set`, then `height`; the only workload where tree
  enumeration costs anything, and hundreds of short verdicts.
* `bases` -- `gb`, `height` and `initial` on the paper's families, and `gb`
  on a smaller lex part.  Plain Buchberger and the ring kernel: no
  elimination, no radical test, no cache reuse across requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

WORKLOADS = ("certify", "sweep", "bases")

# The documented default budget, passed explicitly on the budgeted half.
BUDGET = "100000"

# Number of rooted labelings of all trees with 2 <= n <= 7: the instance
# count of `verify --theorem thm3.2 --max-n 7`.
THM32_INSTANCES_MAX_N7 = 196


@dataclass(frozen=True)
class Request:
    """One CLI request and its known answer.

    `check` receives the decoded `--json` report (None when the command
    printed none) and returns a description of the problem, or None.
    """

    label: str
    argv: tuple[str, ...]
    expect_code: int
    check: Callable[[dict | None], str | None]
    budgeted: bool = False


# ---------------------------------------------------------------------------
# graphs, built here rather than by the package
# ---------------------------------------------------------------------------


def chord_pool(n: int) -> list[tuple[int, int]]:
    """Chords {i, j}, j >= i + 2, other than the closing edge {1, n}."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1) if (i, j) != (1, n)]


def draw_chords(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Half of the chord pool.  A fixed chord count keeps the cost of a
    seeded graph within a narrow band, so seeds change inputs, not load."""
    pool = chord_pool(n)
    return sorted(rng.sample(pool, len(pool) // 2))


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def write_graph(path: Path, n: int, edges) -> tuple[str, str]:
    """Writes a graph file and returns the CLI arguments that read it."""
    path.write_text("".join([f"n {n}\n"] + [f"e {i} {j}\n" for i, j in sorted(edges)]))
    return ("--graph", str(path))


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# known-answer checks
# ---------------------------------------------------------------------------


def _expect_verified(report):
    if report is None or report["result"].get("ok") is not True:
        return "minimal primes not verified"
    return None


def _expect_basis(elements):
    def check(report):
        if report is None or report["result"]["elements"] != elements:
            return "reduced basis differs from the pinned reference"
        return None

    return check


def _expect_height(want, at_most=False):
    def check(report):
        got = None if report is None else report["result"]["height"]
        if got is None or (got > want if at_most else got != want):
            return f"height {got}, want {'<= ' if at_most else ''}{want}"
        return None

    return check


def _expect_initial(generators):
    want = sorted(generators)

    def check(report):
        got = None if report is None else sorted(report["result"]["generators"])
        if got != want:
            return f"initial ideal {got}, want {want}"
        return None

    return check


def _square(v: int) -> str:
    return f"x{v}^2"


def t1_initial(n: int) -> list[str]:
    """Prop 3.5: revlex initial ideal of the path 2-1-3-4-...-n."""
    return ["x2*x3", "x1*x3^2", "x2^2"] + [_square(v) for v in range(4, n + 1)]


def t2_initial(n: int) -> list[str]:
    """Prop 3.5: revlex initial ideal of the path 3-1-2-4-5-...-n."""
    return ["x2*x3", "x3*x4", "x1*x3^2", "x1*x4^2", "x2^2"] + [
        _square(v) for v in range(5, n + 1)
    ]


def _expect_sweep(report):
    if report is None:
        return "no report"
    instances = report["result"]["instances"]
    failed = [i["name"] for i in instances if not i["passed"]]
    if failed or report["result"]["ok"] is not True:
        return f"instances failed: {failed[:3]}"
    if len(instances) != THM32_INSTANCES_MAX_N7:
        return f"{len(instances)} instances, want {THM32_INSTANCES_MAX_N7}"
    return None


def _expect_fig4_not_ci(report):
    # Thm 3.2: fig4 is a rooted tree that is not a path, so not CI; Thm 3.1
    # bounds its height by n - 2 = 8, and its 9 minors are minimal.
    result = None if report is None else report["result"]
    if result is None or result["value"] is not False:
        return "fig4 reported CI"
    if result["mu"] != 9 or result["height"] > 8:
        return f"mu={result['mu']} height={result['height']}, want mu=9 height<=8"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _certify(seed: int, inputs: Path) -> tuple[Request, ...]:
    rng = random.Random(f"certify-{seed}")
    sources: list[tuple[str, tuple[str, ...]]] = []
    for n in (5, 6, 7):
        sources.append((f"t1-{n}", ("--builtin", f"t1-{n}")))
        sources.append((f"t2-{n}", ("--builtin", f"t2-{n}")))
    # Seeded: labeled path plus chords (semi-Hamiltonian) and labeled cycle
    # plus chords (Hamiltonian), both covered by Thm 2.2.
    for kind, n in [("semi", 6), ("semi", 7), ("ham", 5), ("ham", 6), ("ham", 7)]:
        edges = path_edges(n) + ([(1, n)] if kind == "ham" else []) + draw_chords(rng, n)
        sources.append((f"{kind}{n}", write_graph(inputs / f"{kind}{n}.graph", n, edges)))
    requests = []
    for k, (label, source) in enumerate(sources):
        budgeted = k % 2 == 1
        argv = (("--budget", BUDGET) if budgeted else ()) + ("minprimes",) + source
        requests.append(Request(label, argv, 0, _expect_verified, budgeted))
    return tuple(requests)


def _sweep(seed: int, inputs: Path) -> tuple[Request, ...]:
    # Inputs are the theorem's own instance list and a paper figure, so the
    # seed does not change them.
    return (
        Request("verify thm3.2", ("verify", "--theorem", "thm3.2", "--max-n", "7"), 0, _expect_sweep),
        Request("check ci fig4", ("check", "ci", "--builtin", "fig4"), 1, _expect_fig4_not_ci),
    )


def _bases(seed: int, inputs: Path) -> tuple[Request, ...]:
    refs = load_references()
    rng = random.Random(f"bases-{seed}")
    entries = {e["label"]: e for e in refs["bases"]}
    revlex = [(label, ("--builtin", label)) for label in ("k10", "c10", "c12", "k8-e", "fig2", "fig3", "fig4")]
    # Seeded: one pinned semi-Hamiltonian graph per n, drawn from the pool.
    for n in (8, 9, 10):
        label = f"semi{n}-{rng.randrange(refs['pool_size'])}"
        entry = entries[label]
        revlex.append((label, write_graph(inputs / f"{label}.graph", n, entry["edges"])))

    requests = []
    for label, source in revlex:
        entry = entries[label]
        n = entry["n"]
        requests.append(Request(f"gb {label}", ("gb",) + source, 0, _expect_basis(entry["basis"])))
        # Thm 2.2: (semi-)Hamiltonian labelings have height n - 1; Thm 3.1:
        # fig4, a rooted non-path tree, has height at most n - 2.
        want = _expect_height(n - 2, at_most=True) if label == "fig4" else _expect_height(n - 1)
        requests.append(Request(f"height {label}", ("height",) + source, 0, want))
    for n in (8, 10):
        for name, closed_form in ((f"t1-{n}", t1_initial(n)), (f"t2-{n}", t2_initial(n))):
            requests.append(
                Request(f"initial {name}", ("initial", "--builtin", name), 0, _expect_initial(closed_form))
            )
    for label in ("c6", "l6", "t1-6", "t2-6", "fig2"):
        lex = ("--builtin", label, "--order", "lex")
        basis = entries[f"{label} lex"]["basis"]
        requests.append(Request(f"gb {label} lex", ("gb",) + lex, 0, _expect_basis(basis)))
    return tuple(requests)


_BUILDERS = {"certify": _certify, "sweep": _sweep, "bases": _bases}


def build(name: str, seed: int, inputs: Path) -> tuple[Request, ...]:
    """The workload's requests; graph files it needs are written to `inputs`."""
    return _BUILDERS[name](seed, inputs)
