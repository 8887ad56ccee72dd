"""Command line surface: text output, JSON envelopes, exit codes."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelideals import (
    StructuredPrime,
    builtin_graph,
    format_polynomial,
    hankel_edge_ideal,
    intersect_ideals,
    minimal_prime_candidates,
    parse_polynomial,
    path_graph,
)
from hankelideals import cli as cli_module
from hankelideals import groebner
from hankelideals import hankel as hankel_module
from hankelideals import ideal_ops
from hankelideals.cli import main
from hankelideals.groebner import basis_cache_clear
from hankelideals.ring import REVLEX, VariableContext


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- documented text outputs ------------------------------------------------------


def test_gen_path3(capsys):
    code, out, err = run(capsys, "gen", "--builtin", "l3")
    assert code == 0 and err == ""
    assert out == "x1*x3 - x2^2\nx2*x4 - x3^2\n"


def test_height_figure3(capsys):
    code, out, _ = run(capsys, "height", "--builtin", "fig3")
    assert code == 0
    assert out == "height = 4\n"


def test_check_ci_on_a_tree(capsys):
    code, out, _ = run(capsys, "check", "ci", "--builtin", "t1-4")
    assert code == 0
    assert out == "CI: true (mu=3, height=3)\n"


def test_check_ci_falsified_on_cycle(capsys):
    code, out, _ = run(capsys, "check", "ci", "--builtin", "c4")
    assert code == 1
    assert out == "CI: false (mu=4, height=3)\n"


def test_enum_rooted_path3(capsys):
    code, out, _ = run(capsys, "enum-rooted", "--builtin", "l3")
    assert code == 0
    assert out.splitlines() == ["1-2,1-3", "1-2,2-3", "2 rooted labelings"]


def test_gb_and_initial_share_the_same_leading_terms(capsys):
    _, gb_out, _ = run(capsys, "gb", "--builtin", "t1-3")
    _, ini_out, _ = run(capsys, "initial", "--builtin", "t1-3")
    assert "x1*x3^2" in ini_out
    assert len(gb_out.splitlines()) == len(ini_out.splitlines())


def test_minprimes_verified_text(capsys):
    code, out, _ = run(capsys, "minprimes", "--builtin", "t2-4")
    assert code == 0
    assert out.splitlines()[-1] == "verified: true"
    assert out.count("contains ideal = true") == 4


def test_classify_tree_mentions_rooted(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "fig4")
    assert code == 0
    assert "tree: true" in out
    assert "rooted labeling: true" in out


# -- graph sources -----------------------------------------------------------------


def test_graph_file_roundtrip(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("# a path on four vertices\nn 4\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _ = run(capsys, "gen", "--graph", str(p))
    assert code == 0
    gens = [parse_polynomial(line, VariableContext(5)) for line in out.splitlines()]
    assert gens == list(hankel_edge_ideal(path_graph(4)).ideal.generators)


def test_edgeless_graph_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bare.graph"
    p.write_text("n 3\n")
    code, _, err = run(capsys, "gen", "--graph", str(p))
    assert code == 2
    assert "edgeless graph" in err


def test_missing_file_and_unknown_builtin(capsys):
    code, _, err = run(capsys, "height", "--graph", "/nonexistent/g.graph")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "height", "--builtin", "z9")
    assert code == 2 and "unknown builtin" in err


def test_graph_source_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen"])
    assert exc.value.code == 2


# -- JSON envelopes -----------------------------------------------------------------


def test_gen_json_envelope(capsys):
    code, out, _ = run(capsys, "--json", "gen", "--builtin", "l3")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "input", "order", "result", "evidence", "budget_used"]
    assert payload["command"] == "gen"
    assert payload["input"] == {"n": 3, "edges": [[1, 2], [2, 3]]}
    assert payload["result"] == ["x1*x3 - x2^2", "x2*x4 - x3^2"]


def _fresh_json_twice(*argv):
    # fresh processes, so in-process basis caching cannot skew the budget count;
    # pytest's own `pythonpath` setting does not reach them
    cmd = [sys.executable, "-m", "hankelideals.cli", "--json", *argv]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return [subprocess.run(cmd, capture_output=True, text=True, check=True, env=env).stdout for _ in range(2)]


def test_json_output_is_byte_stable():
    first, second = _fresh_json_twice("minprimes", "--builtin", "t1-4")
    assert first == second
    payload = json.loads(first)
    assert payload["result"]["ok"] is True
    assert payload["budget_used"] > 0

    first, second = _fresh_json_twice("height", "--builtin", "fig4")
    assert first == second
    payload = json.loads(first)
    assert payload["result"] == {"height": 6}
    assert payload["evidence"] == {"support": [1, 2, 3, 5, 8, 9], "blocks": []}
    assert payload["budget_used"] == 0


def test_verify_json_reports_null_edges(capsys):
    code, out, _ = run(capsys, "--json", "verify", "--theorem", "thm2.2", "--max-n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == {"n": 3, "edges": None}
    assert payload["result"]["ok"] is True


# -- candidate overrides ---------------------------------------------------------------


def test_minprimes_with_wrong_candidates_falsifies(tmp_path, capsys):
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps([{"variables": [2, 3, 4], "minors": None}]))
    code, out, _ = run(capsys, "minprimes", "--builtin", "c4", "--candidates", str(cands))
    assert code == 1
    assert "verified: false" in out


def test_minprimes_with_malformed_candidates(tmp_path, capsys):
    cands = tmp_path / "cands.json"
    cands.write_text("{not json")
    code, _, err = run(capsys, "minprimes", "--builtin", "c4", "--candidates", str(cands))
    assert code == 2
    assert "bad candidate file" in err


def test_minprimes_rejects_ill_typed_candidates(tmp_path, capsys):
    cands = tmp_path / "cands.json"
    for bad in ([1], [{"variables": "ab"}], [{"variables": [1.5]}], [{"variables": [True]}],
                [{"variables": [2], "minors": [3]}]):
        cands.write_text(json.dumps(bad))
        code, _, err = run(capsys, "minprimes", "--builtin", "l4", "--candidates", str(cands))
        assert code == 2 and err.startswith("error: candidate"), bad
    cands.write_text("[" * 100_000)
    code, _, err = run(capsys, "minprimes", "--builtin", "l4", "--candidates", str(cands))
    assert code == 2 and "nests too deeply" in err


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_NOT_A_POSITIVE_INT = st.one_of(
    st.none(), st.booleans(), st.integers(max_value=0), st.floats(), st.text(max_size=3)
)
_GOOD_ENTRY = st.fixed_dictionaries({"variables": st.lists(st.integers(1, 5), min_size=1, max_size=3)})
_BAD_ENTRY = st.one_of(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3), st.lists(st.integers(1, 5))),
    st.fixed_dictionaries(
        {"variables": st.one_of(st.text(max_size=3), st.integers(), st.lists(_NOT_A_POSITIVE_INT, min_size=1))}
    ),
    st.fixed_dictionaries(
        {
            "variables": st.lists(st.integers(1, 5), max_size=3),
            "minors": st.one_of(
                st.text(max_size=3),
                st.integers(),
                st.lists(st.integers(1, 6)).filter(lambda m: len(m) != 2),
                st.lists(st.one_of(st.booleans(), st.floats(), st.text(max_size=2)), min_size=2, max_size=2),
            ),
        }
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.text(max_size=20),
        st.tuples(st.lists(_GOOD_ENTRY, max_size=2), _BAD_ENTRY).map(lambda p: json.dumps(p[0] + [p[1]])),
    )
)
def test_malformed_candidate_files_are_usage_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "malformed-candidates.json"
    path.write_text(text, encoding="utf-8")
    code, err = _quiet_main(["minprimes", "--builtin", "l4", "--candidates", str(path)])
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(-5, 5).map(str),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
    )
)
def test_budget_values_are_validated(text):
    want = 0 if text.strip().isdecimal() else 2
    code, err = _quiet_main([f"--budget={text}", "gen", "--builtin", "l3"])
    assert code == want and "Traceback" not in err
    with mock.patch.dict(os.environ, {"HANKEL_BUDGET": text}):
        code, err = _quiet_main(["gen", "--builtin", "l3"])
    assert code == (0 if not text else want) and "Traceback" not in err


_GRAPH_LINE = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12),
    st.tuples(
        st.sampled_from(["n", "e", "#", "N", "edge", ""]),
        st.lists(st.one_of(st.integers(-3, 9).map(str), st.sampled_from(["x", "1.5", "²", "0x3"])), max_size=3),
    ).map(lambda p: " ".join([p[0], *p[1]])),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_GRAPH_LINE, max_size=6).map("\n".join))
def test_malformed_graph_files_are_usage_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "malformed.graph"
    path.write_text(text, encoding="utf-8")
    for command in ("gen", "classify"):
        code, err = _quiet_main([command, "--graph", str(path)])
        assert code in (0, 2) and "Traceback" not in err


def test_minprimes_uncovered_class(capsys):
    code, _, err = run(capsys, "minprimes", "--builtin", "fig4")
    assert code == 2
    assert "no candidate list known" in err


# -- verify sweeps ---------------------------------------------------------------------


def test_verify_pass_and_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "prop3.5", "--max-n", "5")
    assert code == 0
    assert out.splitlines()[-1] == "prop3.5: 5/5 instances passed"
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])
    code, _, err = run(capsys, "verify", "--theorem", "prop3.5", "--max-n", "99")
    assert code == 2
    assert "too large" in err


def test_verify_jobs_do_not_change_output(capsys):
    _, seq, _ = run(capsys, "verify", "--theorem", "thm3.1", "--max-n", "5")
    _, par, _ = run(capsys, "verify", "--theorem", "thm3.1", "--max-n", "5", "--jobs", "2")
    assert seq == par


def test_verify_rejects_empty_ranges_and_bad_jobs(capsys):
    for argv in (
        ["--theorem", "thm2.2", "--max-n", "1"],
        ["--theorem", "thm2.2", "--max-n", "-4"],
        ["--theorem", "cor2.7", "--max-n", "3"],
        ["--theorem", "prop3.5", "--max-n", "5", "--jobs", "0"],
        ["--theorem", "prop3.5", "--max-n", "5", "--jobs", "-1"],
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv


# -- budgets -----------------------------------------------------------------------------


def test_budget_flag_exhausts(capsys):
    basis_cache_clear()
    code, _, err = run(capsys, "--budget", "3", "gb", "--builtin", "k4")
    assert code == 3
    assert "error: GB budget exhausted after 3 pair reductions" in err


def test_budget_env_variable(capsys, monkeypatch):
    basis_cache_clear()
    monkeypatch.setenv("HANKEL_BUDGET", "2")
    code, _, err = run(capsys, "gb", "--builtin", "k4")
    assert code == 3 and "budget exhausted" in err
    # explicit flag wins over the environment
    monkeypatch.setenv("HANKEL_BUDGET", "2")
    code, out, _ = run(capsys, "--budget", "100000", "gb", "--builtin", "k4")
    assert code == 0 and out


def test_budget_flag_does_not_change_pairs_used(capsys):
    used = []
    for extra in ([], ["--budget", "100000"]):
        basis_cache_clear()
        code, out, _ = run(capsys, "--json", *extra, "minprimes", "--builtin", "t2-7")
        assert code == 0
        used.append(json.loads(out)["budget_used"])
    assert used[0] == used[1]


# counts reached with power witnesses, the combinatorial meet of variable
# primes and containment decided by the structured rule; Rabinowitsch tests
# and eliminations chained over every candidate took 1843, 2506, 4689 and
# 3100, and containment by Groebner membership 441, 452, 571 and 1082.
# thm2.2 keeps its count though the height bracket replaced its height
# computations: the radical test needs the same revlex basis of I.
# prop2.8-radical compares radicals by feasible supports; power walks and
# Rabinowitsch tests took 571.
CERTIFICATE_PAIR_BOUNDS = [
    (("minprimes", "--builtin", "t1-7"), 351),
    (("minprimes", "--builtin", "t2-7"), 374),
    (("verify", "--theorem", "prop2.8-radical", "--max-n", "7"), 0),
    (("verify", "--theorem", "thm2.2", "--max-n", "6"), 807),
]


@pytest.mark.parametrize(
    "argv, bound", CERTIFICATE_PAIR_BOUNDS, ids=["t1-7", "t2-7", "prop2.8-radical", "thm2.2"]
)
def test_certificate_pair_counts_stay_within_the_witness_bounds(capsys, argv, bound):
    basis_cache_clear()
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert json.loads(out)["budget_used"] <= bound


PURE_VARIABLE_CANDIDATES = [[1, 3], [2, 4], [3, 5], [1, 5]]


@pytest.mark.parametrize(
    "builtin", ["t1-3", "t1-4", "t1-5", "t1-6", "t1-7", "t2-4", "t2-5", "t2-6", "t2-7", "c4"]
)
def test_minprimes_evidence_is_the_chained_intersection(tmp_path, capsys, builtin):
    # the reported meet must be the basis that eliminations chained over the
    # candidates, in their listed order, produce; c4 reads a file of
    # pure-variable primes
    graph = builtin_graph(builtin)
    argv = ["--json", "minprimes", "--builtin", builtin]
    if builtin == "c4":
        cands = [StructuredPrime(frozenset(v)) for v in PURE_VARIABLE_CANDIDATES]
        path = tmp_path / "cands.json"
        path.write_text(json.dumps([{"variables": v} for v in PURE_VARIABLE_CANDIDATES]))
        argv += ["--candidates", str(path)]
    else:
        cands = minimal_prime_candidates(graph)
    context = hankel_edge_ideal(graph).ideal.context
    chained = functools.reduce(intersect_ideals, [c.expand(context) for c in cands])
    _, out, _ = run(capsys, *argv)
    evidence = json.loads(out)["evidence"]["intersection_generators"]
    assert evidence == [format_polynomial(g) for g in chained.generators]


def test_check_radical_without_candidate_list(capsys):
    code, out, _ = run(capsys, "check", "radical", "--builtin", "fig4")
    assert code == 2
    assert out == "radical: unknown (no verified minimal-prime list for this class)\n"


def test_check_radical_unknown_needs_no_groebner_work(capsys):
    basis_cache_clear()
    code, out, _ = run(capsys, "--json", "check", "radical", "--builtin", "fig4")
    assert code == 2
    assert json.loads(out)["budget_used"] == 0


@pytest.mark.parametrize("builtin", ["t1-7", "t2-7", "fig2", "k5-e", "l4"])
def test_check_radical_costs_only_the_certificate(capsys, builtin):
    # the meet lies in I exactly when each of its generators reduces to zero
    # against the basis of I the certificate already computed
    used = []
    for argv in (["check", "radical"], ["minprimes"]):
        basis_cache_clear()
        _, out, _ = run(capsys, "--json", *argv, "--builtin", builtin)
        used.append(json.loads(out)["budget_used"])
    assert used[0] == used[1]


# the height bracket and the support search decide these sweeps; a revlex
# basis for every instance took 5789, 32904, 435 and 1486 pairs, and runs
# stopped once their leading monomials proved the bracket's upper bound
# 26, 29 and 1131
SWEEP_PAIR_BOUNDS = [
    (("thm3.2", "7"), 0),
    (("thm3.2", "8"), 0),
    (("thm3.1", "7"), 0),
    (("prop2.6", "6"), 0),
    (("cor2.7", "8"), 0),
]


@pytest.mark.parametrize(
    "sweep, bound", SWEEP_PAIR_BOUNDS, ids=["thm3.2-7", "thm3.2-8", "thm3.1-7", "prop2.6", "cor2.7"]
)
def test_sweep_pair_counts_stay_within_the_bracket_bounds(capsys, sweep, bound):
    tag, max_n = sweep
    code, out, _ = run(capsys, "--json", "verify", "--theorem", tag, "--max-n", max_n)
    assert code == 0
    assert json.loads(out)["budget_used"] <= bound


def test_height_verdicts_compute_no_groebner_basis(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a height verdict asked for a Groebner basis")

    for module in (groebner, ideal_ops, hankel_module, cli_module):
        if hasattr(module, "buchberger"):
            monkeypatch.setattr(module, "buchberger", refuse)
    for tag in ("thm3.1", "thm3.2", "prop2.6", "cor2.7", "prop2.8-radical"):
        code, out, _ = run(capsys, "verify", "--theorem", tag, "--max-n", "6")
        assert code == 0 and out.endswith("instances passed\n"), tag
    assert run(capsys, "check", "ci", "--builtin", "fig4")[:2] == (1, "CI: false (mu=9, height=6)\n")
    assert run(capsys, "check", "aci", "--builtin", "fig4")[:2] == (1, "almost CI: false (mu=9, height=6)\n")
    for builtin, ht in (("fig4", 6), ("c12", 11), ("k10", 9)):
        assert run(capsys, "height", "--builtin", builtin)[:2] == (0, f"height = {ht}\n")


def test_check_ci_reports_the_height_bracket(capsys, tmp_path):
    # the bracket line gave way to the support witness of the height
    _, out, _ = run(capsys, "--json", "check", "ci", "--builtin", "fig4")
    checks = json.loads(out)["evidence"]["checks"]
    assert "height=6: support {1, 2, 3, 5, 8, 9}" in checks
    assert checks[-1] == "height=6"
    _, out, _ = run(capsys, "--json", "check", "aci", "--builtin", "fig3")
    assert json.loads(out)["evidence"]["checks"][1:] == ["height=4: support {}, blocks 1..5", "height=4"]
    # a block that is not an interval is printed by its columns
    graph = tmp_path / "g.graph"
    graph.write_text("n 5\ne 1 2\ne 1 3\ne 1 4\ne 3 5\n")
    _, out, _ = run(capsys, "--json", "check", "ci", "--graph", str(graph))
    assert json.loads(out)["evidence"]["checks"][1] == "height=3: support {1, 2}, blocks {3, 5}"


def test_check_ci_costs_only_the_height(capsys):
    # the support search decides 6 with no Groebner work, for `height` too
    used = {}
    for argv in (["check", "ci"], ["check", "aci"], ["height"]):
        basis_cache_clear()
        _, out, _ = run(capsys, "--json", *argv, "--builtin", "fig4")
        payload = json.loads(out)
        assert payload["result"]["height"] == 6
        used[argv[-1]] = payload["budget_used"]
    assert used["ci"] == 0 and used["aci"] == 0
    assert used["height"] == 0


def _pinned_basis(label):
    refs = json.loads((Path(__file__).resolve().parent.parent / "bench" / "references.json").read_text())
    return next(ref["basis"] for ref in refs["bases"] if ref["label"] == label and ref["order"] == "revlex")


def test_check_ci_computes_no_basis(capsys):
    basis_cache_clear()
    assert run(capsys, "check", "ci", "--builtin", "fig4")[0] == 1
    ideal = hankel_edge_ideal(builtin_graph("fig4")).ideal
    assert (ideal.context, ideal.generators, REVLEX) not in groebner._GB_CACHE
    code, out, _ = run(capsys, "--json", "gb", "--builtin", "fig4")
    payload = json.loads(out)
    assert code == 0 and payload["budget_used"] == 370
    assert payload["result"]["elements"] == _pinned_basis("fig4")


def test_a_zero_budget_still_decides_the_height(capsys):
    basis_cache_clear()
    code, out, _ = run(capsys, "--budget", "0", "check", "ci", "--builtin", "fig4")
    assert code == 1 and out == "CI: false (mu=9, height=6)\n"
    assert run(capsys, "--budget", "0", "height", "--builtin", "c12") == (0, "height = 11\n", "")


def test_height_of_large_hamiltonian_graphs_costs_no_pairs(capsys):
    # Thm 2.2: height n - 1; a revlex basis of c20 alone took 2280 pairs
    for builtin, ht in (("c40", 39), ("k20", 19)):
        code, out, _ = run(capsys, "--json", "height", "--builtin", builtin)
        payload = json.loads(out)
        assert code == 0 and payload["result"] == {"height": ht}
        assert payload["budget_used"] == 0


def test_height_takes_no_order(capsys):
    # ht in(I) = ht I under every order, so `height` has nothing to select
    with pytest.raises(SystemExit) as exc:
        main(["height", "--builtin", "fig4", "--order", "lex"])
    assert exc.value.code == 2
    capsys.readouterr()
    _, out, _ = run(capsys, "--json", "height", "--builtin", "fig4")
    assert json.loads(out)["order"] == "revlex"
    _, out, _ = run(capsys, "--json", "initial", "--builtin", "l3", "--order", "lex")
    payload = json.loads(out)
    assert payload["order"] == "lex" and payload["result"]["generators"] == ["x2*x4", "x1*x3"]


def test_budget_accepts_every_whitespace_strip_removes(capsys):
    # '\x1f' is whitespace to str.strip() but not to int()
    for value in ("7\x1f", "\x1c7", " 7\t"):
        code, out, err = run(capsys, f"--budget={value}", "gen", "--builtin", "l3")
        assert code == 0 and err == "" and out, repr(value)


def test_budget_rejects_negative_and_non_integers(capsys, monkeypatch):
    for value in ("-5", "abc", "1.5"):
        code, _, err = run(capsys, f"--budget={value}", "gen", "--builtin", "l3")
        assert code == 2 and err.startswith("error: --budget"), value
    monkeypatch.setenv("HANKEL_BUDGET", "abc")
    code, _, err = run(capsys, "gen", "--builtin", "l3")
    assert code == 2 and err.startswith("error: HANKEL_BUDGET")
    # zero stays a real limit
    basis_cache_clear()
    code, _, err = run(capsys, "--budget", "0", "gb", "--builtin", "k4")
    assert code == 3 and "budget exhausted after 0" in err


def test_enum_rooted_rejects_non_tree(capsys):
    code, _, err = run(capsys, "enum-rooted", "--builtin", "c4")
    assert code == 2
    assert "tree" in err
