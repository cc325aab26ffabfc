"""The benchmark's tracer finds what it wraps by module attribute
(``perfbench/spans.py``), so moving or renaming a traced function silently
empties its span.  These tests read the benchmark's span table as it is and
check that every entry still resolves and counts what it should."""

import importlib
import json
import sys
from pathlib import Path

import popassign.cli
from popassign import EdgeConstraints, NoPerfectMatchingError, popular, solve_with_constraints

from helpers import corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_span_resolves():
    for module_name, attr, _ in spans.SPANS:
        module = importlib.import_module(f"popassign.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_padded_solve_counts(tmp_path, capsys):
    # three agents, two objects: solving it needs one artificial object
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps(
            {
                "agents": ["a1", "a2", "a3"],
                "objects": ["b1", "b2"],
                "edges": [["a1", "b1"], ["a2", "b1"], ["a2", "b2"], ["a3", "b2"]],
            }
        )
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        code = popassign.cli.main(["solve", str(path)])
        tracer.recording = False
    finally:
        tracer.uninstall()
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["augmentation"]["artificial_objects"]
    assert tracer.calls["instance.augment"] == 1
    assert tracer.calls["matching.hk@instance"] == 1
    # the perfect-matchability check, then one matching per round
    assert tracer.count["popular.solve_hk_calls"] == report["iterations"] + 1


def test_a_solve_calls_popular_maximum_matching_iterations_plus_one_times(monkeypatch):
    """The traced self-check counts Hopcroft--Karp calls in a solve through
    ``popular.maximum_matching``: one perfect-matchability check, then one
    matching per round built, found and not-found runs alike."""
    calls = []
    matching = popular.maximum_matching

    def counting(*args, **kwargs):
        calls.append(None)
        return matching(*args, **kwargs)

    monkeypatch.setattr(popular, "maximum_matching", counting)
    solves = not_found = 0
    for instance in corpus(60, min_n=2, max_n=7, seed0=4400):
        a, b = instance.edges[0]
        for constraints in (
            EdgeConstraints(),
            EdgeConstraints.of(forced=[(a, b)]),
            EdgeConstraints.of(forbidden=[(a, b)]),
        ):
            calls.clear()
            try:
                outcome = solve_with_constraints(instance, constraints)
            except NoPerfectMatchingError:
                break
            assert len(calls) == outcome.iterations + 1
            solves += 1
            not_found += not outcome.found
    assert solves > 90 and not_found > 10
