#!/usr/bin/env python3
"""One set-up of a benchmark run: write a workload's inputs, then warm up.

    python3 perfbench/prepare.py WORKLOAD SEED DIR

generates every input of WORKLOAD from SEED, writes the instance and
assignment files into DIR, imports ``popassign`` from the checkout's ``src/``
and runs the warm-up ``solve``.  ``run.py`` times this command, each time in a
fresh process, for ``setup_s``.  Generating the inputs in another process also
keeps the generators' memory out of the measured run's peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from gen import disguise
from workloads import WARMUP, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent


def instance_path(workdir: Path, op: Op) -> Path:
    return workdir / f"{op.name}.json"


def pairs_path(workdir: Path, op: Op) -> Path:
    """The planted assignment of ``op``, for ``verify`` and ``weak`` ops."""
    return workdir / f"{op.name}.pairs.json"


def write_inputs(name: str, seed: int, workdir: Path) -> None:
    """Write the disguised inputs of every op, probe and the warm-up."""
    rng = random.Random(f"{name}:{seed}")
    workload = WORKLOADS[name]
    for op in (*workload.ops, *workload.probes, WARMUP):
        doc, pairs = disguise(*op.build(), rng)
        instance_path(workdir, op).write_text(json.dumps(doc), encoding="utf-8")
        if pairs is not None:
            pairs_path(workdir, op).write_text(json.dumps(pairs), encoding="utf-8")


def import_program():
    """Import ``popassign`` from this checkout's ``src/`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import popassign
        import popassign.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import popassign from {src}: {exc}")
    if not Path(popassign.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: popassign was not imported from {src}")
    return popassign


def warm_up(program, workdir: Path) -> int:
    """Run the warm-up ``solve`` and return its exit code."""
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        return program.cli.main(["solve", str(instance_path(workdir, WARMUP))])


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    write_inputs(name, seed, workdir)
    code = warm_up(import_program(), workdir)
    if code != WARMUP.expect:
        print(f"perfbench: warm-up exited {code}, pinned verdict is {WARMUP.expect}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
