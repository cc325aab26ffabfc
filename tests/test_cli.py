"""Command-line behavior: exit codes, JSON reports, verification fragments,
the report layout and the parser a process reuses."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import popassign
from popassign import (
    Matching,
    MarginReport,
    delta,
    enumerate_matchings,
    parse_instance,
    parse_market,
    solve_penalty_matching,
    validate,
)
from popassign import cli
from popassign.cli import main
from popassign.generate import random_instance_document

from helpers import inst


K33 = {
    "agents": ["a1", "a2", "a3"],
    "objects": ["b1", "b2", "b3"],
    "edges": [[a, b] for a in ["a1", "a2", "a3"] for b in ["b1", "b2", "b3"]],
    "preferences": {
        a: {"tiers": [["b1"], ["b2"], ["b3"]]} for a in ["a1", "a2", "a3"]
    },
}

CHAIN = {
    "agents": ["a1", "a2", "a3"],
    "objects": ["b1", "b2", "b3"],
    "edges": [
        ["a1", "b1"], ["a1", "b2"],
        ["a2", "b1"], ["a2", "b2"],
        ["a3", "b1"], ["a3", "b2"], ["a3", "b3"],
    ],
    "preferences": {
        "a1": {"tiers": [["b1"], ["b2"]]},
        "a2": {"tiers": [["b1"], ["b2"]]},
        "a3": {"tiers": [["b1"], ["b2"], ["b3"]]},
    },
}

WIDE = {
    "agents": ["a1", "a2"],
    "objects": ["b1", "b2", "b3"],
    "edges": [
        ["a1", "b1"], ["a1", "b2"], ["a1", "b3"],
        ["a2", "b1"], ["a2", "b3"],
    ],
    "preferences": {
        "a1": {"tiers": [["b1"], ["b2"], ["b3"]]},
        "a2": {"tiers": [["b3"], ["b1"]]},
    },
}

SWAP_MARKET = {"agents": ["x", "y"], "arcs": [["x", "y"], ["y", "x"]]}

# a structured market where the full pairwise election has no winner: three
# unanimous buyers over three indifferent sellers replays the complete
# bipartite triple with a shared strict order, which no allocation survives
STUCK_MARKET = {
    "agents": ["u1", "u2", "u3", "v1", "v2", "v3"],
    "arcs": (
        [[u, v] for u in ["u1", "u2", "u3"] for v in ["v1", "v2", "v3"]]
        + [[v, u] for v in ["v1", "v2", "v3"] for u in ["u1", "u2", "u3"]]
    ),
    "preferences": {
        u: {"pairs": [[[u, "v1"], [u, "v2"]], [[u, "v2"], [u, "v3"]]]}
        for u in ["u1", "u2", "u3"]
    },
}

IDENTITY = [["a1", "b1"], ["a2", "b2"], ["a3", "b3"]]

# the unanimous triple plus a fourth object only a3 accepts: margin 1, and
# the padding adds one dummy agent
UNANIMOUS_WIDE = {
    "agents": ["a1", "a2", "a3"],
    "objects": ["b1", "b2", "b3", "b4"],
    "edges": [[a, b] for a in ["a1", "a2", "a3"] for b in ["b1", "b2", "b3"]]
    + [["a3", "b4"]],
    "preferences": {
        **{a: {"tiers": [["b1"], ["b2"], ["b3"]]} for a in ["a1", "a2"]},
        "a3": {"tiers": [["b1"], ["b2"], ["b3"], ["b4"]]},
    },
}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    if report is not None:  # the layout of json.dumps(report, indent=2)
        assert captured.out == json.dumps(report, indent=2) + "\n"
    return code, report, captured.err


# -- solve ------------------------------------------------------------------------


def test_solve_found_report(write, capsys):
    code, report, err = run(capsys, "solve", write("chain.json", CHAIN), "--verify")
    assert code == 0
    assert report["command"] == "solve"
    assert report["outcome"] == "found"
    assert sorted(report["assignment"]) == [["a1", "b1"], ["a2", "b2"], ["a3", "b3"]]
    assert report["certificate"]["total"] == 0
    assert set(report["levels"]) == {"b1", "b2", "b3"}
    assert report["iterations"] >= 1
    assert report["timing_ms"] >= 0
    assert report["verification"]["status"] == "passed"
    assert report["verification"]["certificate"]["ok"] is True
    assert report["verification"]["oracle_margin"] == 0
    assert report["verification"]["brute_force_margin"] == 0
    assert "found" in err


def test_solve_not_found(write, capsys):
    code, report, err = run(capsys, "solve", write("k33.json", K33))
    assert code == 1
    assert report["outcome"] == "not-found"
    assert report["reason"] == "level-overflow"
    assert "assignment" not in report


def test_solve_truncation_flag(write, capsys):
    code, report, _ = run(capsys, "solve", write("k33.json", K33), "--truncate", "1")
    assert code == 1
    assert report["reason"] == "truncation-cap"


def test_solve_reads_level_overflow_when_the_bound_stops_a_truncated_run(write, capsys):
    """Five agents rank five objects alike.  After three rounds the levels
    are 1, 1, 2, 3, 3: no object is left at level 0, so no feasible level
    function exists, and the run stops below the cap of 4 with the reason
    that proves more than the cap."""
    agents = [f"a{i}" for i in range(1, 6)]
    objects = [f"b{i}" for i in range(1, 6)]
    doc = {
        "agents": agents,
        "objects": objects,
        "edges": [[a, b] for a in agents for b in objects],
        "preferences": {a: {"tiers": [[b] for b in objects]} for a in agents},
    }
    code, report, _ = run(capsys, "solve", write("k55.json", doc), "--truncate", "4")
    assert code == 1
    assert (report["reason"], report["iterations"]) == ("level-overflow", 3)
    assert report["levels"] == {"b1": 1, "b2": 1, "b3": 2, "b4": 3, "b5": 3}


def test_solve_constraint_flags(write, capsys):
    path = write("chain.json", CHAIN)
    code, report, _ = run(capsys, "solve", path, "--forced", "a2,b1")
    assert code == 0
    assert ["a2", "b1"] in report["assignment"]
    code, report, _ = run(capsys, "solve", path, "--forbidden", "a3,b3")
    assert code == 1  # the only popular assignment used (a3, b3)
    code, report, _ = run(capsys, "solve", path, "--forced", "a1,zzz")
    assert code == 2 and "error" in report
    code, report, _ = run(capsys, "solve", path, "--forced", "a1b1")
    assert code == 2 and "edge flag" in report["error"]


def test_solve_pads_unbalanced_instances(write, capsys):
    code, report, _ = run(capsys, "solve", write("wide.json", WIDE), "--verify")
    assert code == 0
    assert len(report["assignment"]) == 2
    assert {a for a, _ in report["assignment"]} == {"a1", "a2"}
    aug = report["augmentation"]
    assert len(aug["dummy_agents"]) == 1
    assert aug["artificial_objects"] == []
    assert len(aug["full_assignment"]) == 3
    assert report["verification"]["status"] == "passed"


# -- matching ---------------------------------------------------------------------


def test_matching_exit_codes(write, capsys):
    code, report, _ = run(capsys, "matching", write("chain.json", CHAIN))
    assert code == 1
    assert report["penalty"] == 1 and report["outcome"] == "not-found"

    two = {
        "agents": ["a1", "a2"],
        "objects": ["b1", "b2"],
        "edges": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
        "preferences": {
            "a1": {"tiers": [["b1"], ["b2"]]},
            "a2": {"tiers": [["b1"], ["b2"]]},
        },
    }
    code, report, _ = run(capsys, "matching", write("two.json", two))
    assert code == 0
    assert report["size"] == len(report["matching"]) == 2


def test_matching_penalty_flag(write, capsys):
    expected = solve_penalty_matching(inst(CHAIN), 2)
    code, report, _ = run(capsys, "matching", write("chain.json", CHAIN), "--penalty", "2")
    assert code == (0 if expected.found else 1)
    if expected.found:
        assert sorted(map(tuple, report["matching"])) == sorted(expected.matching.pairs)
    code, report, _ = run(capsys, "matching", write("chain.json", CHAIN), "--penalty", "0")
    assert code == 2 and "penalty" in report["error"]


# -- margin -----------------------------------------------------------------------


def test_margin_search_and_verify(write, capsys):
    path = write("k33.json", K33)
    code, report, _ = run(capsys, "margin", path, "--k", "0")
    assert code == 1 and report["outcome"] == "not-found"

    code, report, _ = run(capsys, "margin", path, "--k", "1", "--verify")
    assert code == 0
    assert report["certified_margin_bound"] == 1
    assert report["certificate"]["total"] == 1
    assert report["loads"] == [{"agent": "a1", "object": "b1", "load": 1}]
    assert report["branches"] == 2
    assert report["verification"]["status"] == "passed"
    assert report["verification"]["oracle_margin"] <= 1

    code, report, _ = run(capsys, "margin", path, "--k", "-1")
    assert code == 2 and "error" in report


def test_margin_search_pads_unbalanced_instances(write, capsys):
    path = write("unanimous-wide.json", UNANIMOUS_WIDE)
    code, report, _ = run(capsys, "margin", path, "--k", "0")
    assert code == 1
    code, report, _ = run(capsys, "margin", path, "--k", "1")
    assert code == 0
    aug = report["augmentation"]
    assert len(aug["dummy_agents"]) == 1 and aug["artificial_objects"] == []
    restricted = Matching(map(tuple, report["assignment"]))
    assert set(restricted.pairs) == {
        (a, b) for a, b in aug["full_assignment"] if a not in aug["dummy_agents"]
    }
    instance = inst(UNANIMOUS_WIDE)
    rivals = [m for m in enumerate_matchings(instance) if len(m) == instance.n_agents]
    assert max(delta(instance, rival, restricted) for rival in rivals) <= 1


def test_margin_zero_agrees_with_solve(write, capsys):
    for seed in range(6):
        doc = random_instance_document(4, 4, 0.7, "weak", seed)
        path = write(f"g{seed}.json", doc)
        solve_code, solve_report, _ = run(capsys, "solve", path)
        margin_code, margin_report, _ = run(capsys, "margin", path, "--k", "0")
        assert (solve_code == 0) == (margin_code == 0)
        if solve_code == 0:
            assert margin_report["assignment"] == solve_report["assignment"]


# -- housing ----------------------------------------------------------------------


def test_housing_swap(write, capsys):
    code, report, _ = run(capsys, "housing", write("swap.json", SWAP_MARKET))
    assert code == 0
    assert report["cycles"] == [["x", "y"]]
    assert report["allocation"] == [["x", "y"], ["y", "x"]]
    assert report["trading_agents"] == ["x", "y"]


def test_housing_arcless(write, capsys):
    code, report, _ = run(
        capsys, "housing", write("idle.json", {"agents": ["x"], "arcs": []})
    )
    assert code == 0
    assert report["allocation"] == [] and report["cycles"] == []


def test_housing_without_popular_allocation(write, capsys):
    code, report, _ = run(capsys, "housing", write("stuck.json", STUCK_MARKET))
    assert code == 1
    assert report["outcome"] == "not-found"


def test_housing_rejects_bad_market(write, capsys):
    code, report, _ = run(
        capsys, "housing", write("bad.json", {"agents": ["x"], "arcs": [["x", "x"]]})
    )
    assert code == 2 and "self-arc" in report["error"]


@pytest.mark.parametrize(
    "market, message",
    [
        ({"agents": ["a", "b"], "arcs": [[["a"], "b"]]}, "references an unknown agent"),
        (
            {
                "agents": ["a", "b"],
                "arcs": [["a", "b"], ["b", "a"]],
                "preferences": {"a": {"pairs": [[[["a"], "b"], ["a", "b"]]]}},
            },
            "missing arc",
        ),
    ],
)
def test_housing_reports_list_endpoints_as_input_errors(write, capsys, market, message):
    code, report, _ = run(capsys, "housing", write("listy.json", market))
    assert code == 2 and message in report["error"]
    assert not report["error"].startswith("internal")


# -- verify -----------------------------------------------------------------------


def test_verify_thresholds(write, capsys):
    k33 = write("k33.json", K33)
    ident = write("ident.json", IDENTITY)
    code, report, _ = run(capsys, "verify", k33, ident)
    assert code == 1
    assert report["margin"] == 1 and report["within"] is False
    code, report, _ = run(capsys, "verify", k33, ident, "--k", "1")
    assert code == 0 and report["within"] is True
    code, report, _ = run(capsys, "verify", k33, ident, "--k", "-1")
    assert code == 2

    chain = write("chain.json", CHAIN)
    code, report, _ = run(capsys, "verify", chain, ident)
    assert code == 0 and report["margin"] == 0


def test_verify_margin_and_witness(write, capsys):
    chain = write("chain.json", CHAIN)
    ident = write("ident.json", IDENTITY)
    code, report, _ = run(capsys, "verify", chain, ident)
    assert code == 0
    assert report["margin"] == 0 and report["within"] is True

    code, report, _ = run(capsys, "verify", write("k33.json", K33), ident, "--k", "3")
    assert code == 0
    assert report["margin"] == 1 and report["within"] is True
    assert len(report["witness"]) == 3


def test_verify_rejects_non_assignments(write, capsys):
    chain = write("chain.json", CHAIN)
    partial = write("partial.json", [["a1", "b1"]])
    code, report, _ = run(capsys, "verify", chain, partial)
    assert code == 2 and "error" in report
    bad = write("bad.json", "{nope")
    code, report, _ = run(capsys, "verify", chain, bad)
    assert code == 2 and "invalid matching JSON" in report["error"]
    for doc, message in (
        ({"a1": "b1"}, "JSON list of [agent, object] pairs"),
        (["a1b1"], "is not an (agent, object) pair"),
        ([["a1", 1]], "must contain strings"),
    ):
        code, report, _ = run(capsys, "verify", chain, write("odd.json", doc))
        assert code == 2 and message in report["error"]


def test_deeply_nested_json_is_bad_input_not_a_crash(write, capsys):
    nested = write("nested.json", "[" * 200_000 + "]" * 200_000)
    code, report, _ = run(capsys, "verify", write("chain.json", CHAIN), nested)
    assert code == 2 and report["error"].startswith("invalid matching JSON")
    code, report, _ = run(capsys, "solve", nested)
    assert code == 2 and report["error"].startswith("invalid JSON")


# -- failed self-checks, closed output, synopsis ------------------------------------


def test_failed_margin_self_checks_exit_2(write, capsys, monkeypatch):
    exact = cli.unpopularity_margin
    monkeypatch.setattr(
        cli, "unpopularity_margin", lambda i, m: MarginReport(5, exact(i, m).witness)
    )
    for argv in (
        ("solve", write("chain.json", CHAIN), "--verify"),
        ("margin", write("k33.json", K33), "--k", "1", "--verify"),
    ):
        code, report, err = run(capsys, *argv)
        assert code == 2, argv
        assert report["verification"]["status"] == "failed"
        assert report["verification"]["oracle_margin"] == 5
        assert "verification FAILED" in err


def test_failed_certificate_check_exits_2(write, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_certificate", lambda *args: (False, ("forged",)))
    code, report, _ = run(capsys, "solve", write("chain.json", CHAIN), "--verify")
    assert code == 2
    checks = report["verification"]
    assert checks["certificate"] == {"ok": False, "problems": ["forged"]}
    assert checks["status"] == "failed"
    assert "note" not in checks
    # the certificate verdict counts at every budget
    code, report, _ = run(capsys, "margin", write("k33.json", K33), "--k", "1", "--verify")
    assert code == 2
    assert report["verification"]["status"] == "failed"
    assert "note" not in report["verification"]


def _run_with_closed_stdout(*argv):
    env = dict(os.environ)
    src = str(Path(popassign.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the child's stdout fails
    try:
        return subprocess.run(
            [sys.executable, "-m", "popassign.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)


def test_closed_stdout_exits_2(write):
    k33 = write("k33.json", K33)
    partial = write("partial.json", [["a1", "b1"]])
    for argv in (
        ("solve", write("chain.json", CHAIN)),
        ("margin", k33, "--k", "1"),
        ("verify", k33, partial),  # an input error reported to the closed stdout
    ):
        proc = _run_with_closed_stdout(*argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["error: standard output closed"]


def test_readme_synopsis_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    synopsis = {
        line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
        for line in block.splitlines()
        if line.startswith("popassign ")
    }
    commands = next(
        action.choices
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert synopsis.keys() == commands.keys()
    for name, sub in commands.items():
        flags = {
            option
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        assert synopsis[name] == flags - {"--help"}, name


def test_readme_json_examples_parse(write, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    kinds = []
    for text in blocks:
        doc = json.loads(text)
        if isinstance(doc, list):
            kinds.append("matching")
            Matching(doc)
        elif "arcs" in doc:
            kinds.append("market")
            parse_market(text)
            code, report, _ = run(capsys, "housing", write("market.json", text))
            assert code in (0, 1) and report["command"] == "housing"
        else:
            kinds.append("instance")
            parse_instance(text)
    assert sorted(kinds) == ["instance", "market", "matching"]


# -- gen --------------------------------------------------------------------------


def test_gen_is_deterministic_and_valid(write, capsys):
    args = ["gen", "--agents", "5", "--density", "0.6", "--seed", "9"]
    code1, doc1, _ = run(capsys, *args)
    code2, doc2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert len(doc1["agents"]) == len(doc1["objects"]) == 5  # objects default


@pytest.mark.parametrize("style", ["strict", "weak", "partial"])
def test_gen_styles_validate(capsys, style):
    for seed in range(4):
        code, doc, _ = run(
            capsys, "gen", "--agents", "4", "--objects", "3",
            "--pref-style", style, "--seed", str(seed),
        )
        assert code == 0
        report = validate(doc)
        assert report.ok, report.problems
        if style == "strict":
            instance = inst(doc)
            for a in instance.agents:
                assert all(len(t) == 1 for t in instance.tiers(a))


def test_gen_full_density_is_complete(capsys):
    code, doc, _ = run(capsys, "gen", "--agents", "3", "--density", "1.0")
    assert code == 0
    assert len(doc["edges"]) == 9


def test_gen_rejects_bad_arguments(capsys):
    code, report, _ = run(capsys, "gen", "--agents", "0")
    assert code == 2 and "error" in report
    code, report, _ = run(capsys, "gen", "--agents", "3", "--density", "1.5")
    assert code == 2


# -- plumbing ---------------------------------------------------------------------


def test_missing_files_exit_two(capsys, tmp_path):
    ghost = str(tmp_path / "ghost.json")
    for argv in (
        ["solve", ghost],
        ["matching", ghost],
        ["margin", ghost, "--k", "0"],
        ["housing", ghost],
        ["verify", ghost, ghost],
    ):
        code, report, err = run(capsys, *argv)
        assert code == 2
        assert "cannot read input" in report["error"]


def test_bad_arguments_are_reported_before_reading_input(capsys, tmp_path):
    ghost = str(tmp_path / "ghost.json")
    for argv, flag in (
        (["matching", ghost, "--penalty", "0"], "--penalty"),
        (["margin", ghost, "--k", "-1"], "--k"),
        (["verify", ghost, ghost, "--k", "-1"], "--k"),
        (["solve", ghost, "--truncate", "-1"], "--truncate"),
        (["solve", ghost, "--forced", "abc"], "--forced"),
    ):
        code, report, _ = run(capsys, *argv)
        assert code == 2
        assert report["error"].startswith(flag), report["error"]


def test_bad_instance_json_exits_two(write, capsys):
    code, report, _ = run(capsys, "solve", write("bad.json", "{"))
    assert code == 2 and "error" in report


def test_unhashable_endpoints_exit_two(write, capsys):
    docs = (
        {"agents": ["a"], "objects": ["x"], "edges": [[["a"], "x"]]},
        {
            "agents": ["a"],
            "objects": ["x", "y"],
            "edges": [["a", "x"], ["a", "y"]],
            "preferences": {"a": {"pairs": [[["x"], "y"]]}},
        },
    )
    for doc in docs:
        code, report, _ = run(capsys, "solve", write("bad.json", doc))
        assert code == 2 and "unknown" in report["error"]


def test_crash_exits_two_not_one(write, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("solver\nfell over")

    monkeypatch.setattr("popassign.cli.solve_with_constraints", crash)
    code, report, err = run(capsys, "solve", write("k33.json", K33))
    assert code == 2
    assert report == {
        "command": "solve", "error": "internal: RuntimeError: solver fell over"
    }
    assert err == "error: internal: RuntimeError: solver fell over\n"


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["margin", "x.json"]) == 2  # no --k
    assert main(["margin", "x.json", "--evaluate", "m.json"]) == 2  # no such flag
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call_in_a_process(write, capsys):
    """``main`` reuses one parser.  A run of calls in one process, a usage
    error and ``--help`` among them, answers each as the same call made
    alone, with a parser of its own: no list of ``--forced`` edges, no
    ``--verify`` and no ``--truncate`` carries over into the next call."""
    chain, k33 = write("chain.json", CHAIN), write("k33.json", K33)
    calls = [
        ["solve", chain, "--forced", "a2,b1"],
        ["solve", chain, "--verify", "--truncate", "2"],
        ["solve", chain, "--truncate"],  # a usage error
        ["--help"],
        ["solve", chain],
        ["margin", k33, "--k", "1"],
        ["verify", k33, write("ident.json", IDENTITY)],
    ]

    def answer(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        if out.startswith("{"):
            report = json.loads(out)
            report.pop("timing_ms")
            out = report
        return code, out, err

    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(answer(argv))
    # the cap of 2 stops the chain, which the plain solve then solves
    assert [code for code, _, _ in alone] == [0, 1, 2, 0, 0, 0, 1]
    assert alone[1][1]["reason"] == "truncation-cap"
    assert ["a2", "b1"] in alone[0][1]["assignment"]
    assert ["a2", "b1"] not in alone[4][1]["assignment"]
    assert "verification" not in alone[4][1]
    cli._build_parser.cache_clear()
    assert [answer(argv) for argv in calls] == alone
    assert cli._build_parser.cache_info().misses == 1


_STRINGS = st.text() | st.sampled_from(
    ["", "],\n  [", "\x00\x1f\"\\", "\u2028é\U0001f600"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf])
    | _STRINGS
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(st.lists(_SCALARS, max_size=3), max_size=4)
        | st.dictionaries(_STRINGS, children, max_size=4)
        | st.dictionaries(
            st.integers() | st.booleans() | st.none(), children, max_size=3
        )
    ),
    max_leaves=30,
)


@given(_JSON_VALUES)
def test_reports_are_laid_out_as_json_dumps_with_indent_2(value):
    """The report encoder writes ``json.dumps(value, indent=2)`` byte for
    byte: nested and empty containers, lists of lists, empty inner lists,
    strings holding the seam of two inner lists, control characters,
    non-ASCII text, every float, and keys that are not strings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli._emit(value, "summary")
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"
