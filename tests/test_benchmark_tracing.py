"""The benchmark's tracer finds what it wraps by module attribute
(``perfbench/spans.py``), so moving or renaming a traced function silently
empties its span.  These tests read the benchmark's span table as it is and
check that every entry still resolves and counts what it should."""

import importlib
import json
import sys
from pathlib import Path

import popassign.cli

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
