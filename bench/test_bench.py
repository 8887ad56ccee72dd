"""The benchmark's own tests: pinned references, determinism, and the
contract between `BENCHMARK.json` and what the runs print.

    python3 -m pytest -q bench/test_bench.py

The determinism tests run each workload twice in fresh processes (about a
minute per workload on a 2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

from hankelideals import (  # noqa: E402
    LEX,
    REVLEX,
    LabeledGraph,
    builtin_graph,
    hankel_edge_ideal,
    ideal_member,
    is_groebner_basis,
    normal_form,
    parse_polynomial,
)
from hankelideals.hankel import expected_t1_initial, expected_t2_initial  # noqa: E402
from hankelideals.ring import mono_divides  # noqa: E402

ROOT = run.HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = workloads.load_references()["bases"]


@pytest.mark.parametrize("entry", REFERENCES, ids=[e["label"] for e in REFERENCES])
def test_pinned_basis_is_the_reduced_groebner_basis(entry):
    order = {"revlex": REVLEX, "lex": LEX}[entry["order"]]
    graph = LabeledGraph.of(entry["n"], entry["edges"])
    if "builtin" in entry:
        assert builtin_graph(entry["builtin"]) == graph
    ideal = hankel_edge_ideal(graph).ideal
    basis = [parse_polynomial(text, ideal.context) for text in entry["basis"]]
    # Buchberger's criterion on every pair, with no pair skipped.
    assert is_groebner_basis(basis, order)
    # Both containments: the basis generates exactly the edge ideal.
    assert all(normal_form(g, basis, order).is_zero for g in ideal.generators)
    assert all(ideal_member(b, ideal, order) for b in basis)
    # Reduced: monic, and no term of one element divisible by another's
    # leading monomial.  The reduced basis is unique, so this pins it.
    leads = [b.leading_monomial(order) for b in basis]
    for k, b in enumerate(basis):
        assert b.leading_coefficient(order) == 1
        for m, _ in b.terms:
            assert not any(mono_divides(lead, m) for j, lead in enumerate(leads) if j != k)


@pytest.mark.parametrize("n", [4, 8, 10])
def test_prop35_closed_forms_match_the_package(n):
    assert sorted(workloads.t1_initial(n)) == sorted(expected_t1_initial(n).generator_strings())
    assert sorted(workloads.t2_initial(n)) == sorted(expected_t2_initial(n).generator_strings())


def test_benchmark_json_names_what_the_runs_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_builds_the_same_requests(name, tmp_path):
    builds = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        builds.append(workloads.build(name, 7, tmp_path / sub))
    first, second = builds
    assert [q.label for q in first] == [q.label for q in second]
    for a, b in zip(first, second):
        assert a.budgeted == b.budgeted and a.expect_code == b.expect_code
        if "--graph" in a.argv:
            assert Path(a.argv[-1]).read_text() == Path(b.argv[-1]).read_text()


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_runs_repeat_counts_exactly(name):
    """Two processes, one seed: identical counts.  Each run also checks that
    its untraced and traced passes give identical pair counts."""
    args = ("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(ROOT, *args)), _result(_run(ROOT, *args))
    assert first["correct"] and second["correct"] and first["failed"] == 0
    counts = [m for m, unit, _ in tracer.PER_LAYER if unit != "s"]
    assert {m: first["metrics"][m] for m in counts} == {m: second["metrics"][m] for m in counts}

    value = {m: v["value"] for m, v in first["metrics"].items()}
    pairs = value["requests.budgeted.pairs"] + value["requests.unbudgeted.pairs"]
    assert value["groebner.buchberger.pairs"] == pairs
    if name == "certify":
        phases = ("intersect_ideals", "radical_member")
        accounted = value["groebner.ideal_member.pairs"] + sum(value[f"ideal_ops.{p}.pairs"] for p in phases)
        assert accounted == pairs
        assert value["requests.unbudgeted.cache_hits"] > 0
    if name == "sweep":
        phases = ("is_minimal_generating_set", "height")
        assert sum(value[f"ideal_ops.{p}.pairs"] for p in phases) == pairs


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".inputs"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
