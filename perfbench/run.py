#!/usr/bin/env python3
"""Benchmark of the popassign CLI and library, end to end and per layer.

One workload, from the root of a checkout:

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with a table of every metric:

    python3 perfbench/run.py --seed 1

A run builds its inputs from ``--seed`` and writes them under
``.perfbench_work/`` in the checkout, several times over, each time in a fresh
process (``prepare.py``).  It then imports ``popassign`` from ``src/`` and
repeats passes over the workload's operations for ``--seconds`` seconds.
Every time is scaled to a reference machine's speed (``speed.py``).
A timed operation is one in-process call of ``popassign.cli.main`` on those
files, or one call of ``popassign.is_popular_weak``.  Every answer is checked,
untimed, by the package's independent oracles.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``BENCHMARK.json`` with ``--trace 1``.  What each metric
means is in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from prepare import ROOT, import_program, instance_path, pairs_path
from speed import Gauge
from workloads import OP_METRICS, WARMUP, WORKLOADS, Op

#: Set-ups per run, each in a fresh process; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Speed-gauge samples after each set-up, which scale ``setup_s`` alone.
SETUP_GAUGE_SAMPLES = 2
#: Timed passes a run makes even when they outlast ``--seconds``.
MIN_PASSES = 3
HERE = Path(__file__).resolve().parent
perf_counter = time.perf_counter


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Prepared:
    """One operation with its call ready on the files that set-up wrote."""

    def __init__(self, op: Op, workdir: Path, program) -> None:
        self.op = op
        self.path = instance_path(workdir, op)
        matching_path = pairs_path(workdir, op)
        self.pairs = (
            json.loads(matching_path.read_text("utf-8"))
            if matching_path.exists()
            else None
        )
        self.first: object = None  # the first answer, which later ones must equal
        if op.kind == "solve":
            self.argv = ["solve", str(self.path)]
        elif op.kind == "margin":
            self.argv = ["margin", str(self.path), "--k", str(op.k)]
        elif op.kind == "verify":
            self.argv = ["verify", str(self.path), str(matching_path)]
        else:
            self.argv = None
            self.instance = program.parse_instance(self.path.read_text("utf-8"))
            self.matching = program.Matching(tuple(p) for p in self.pairs)


@dataclass
class Outcome:
    """What one call returned: exit code (or verdict), report, or exception."""

    seconds: float
    code: int | bool | None = None
    stdout: str = ""
    error: Exception | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.code == 2


def call(program, prep: Prepared) -> Outcome:
    if prep.argv is None:
        t0 = perf_counter()
        try:
            verdict = program.is_popular_weak(prep.instance, prep.matching)
        except Exception as exc:  # recorded with its type and counted as failed
            return Outcome(perf_counter() - t0, error=exc)
        return Outcome(perf_counter() - t0, code=verdict)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = program.cli.main(prep.argv)
        except Exception as exc:  # recorded with its type and counted as failed
            return Outcome(perf_counter() - t0, error=exc)
        seconds = perf_counter() - t0
    return Outcome(seconds, code=code, stdout=out.getvalue())


# -- answer checks ---------------------------------------------------------------


def check(program, prep: Prepared, got: Outcome) -> list[str]:
    """Problems with one answer; empty when it is right.  The first answer
    of an operation is checked against the oracles, later ones must repeat
    it exactly (apart from the report's own timing)."""
    op = prep.op
    if got.failed:
        return [f"{op.name}: {_describe(got)}"]
    if got.code != op.expect:
        return [f"{op.name}: answered {got.code!r}, pinned verdict is {op.expect!r}"]
    if op.kind == "weak":
        answer = got.code
    else:
        answer = json.loads(got.stdout)
        answer.pop("timing_ms", None)
    if prep.first is not None:
        if answer != prep.first:
            return [f"{op.name}: answer differs from the first pass"]
        return []
    prep.first = answer
    try:
        return [f"{op.name}: {p}" for p in _oracle_problems(program, prep, answer)]
    except Exception as exc:  # a check that cannot run fails the answer
        return [f"{op.name}: check raised {type(exc).__name__}: {exc}"]


def _oracle_problems(program, prep: Prepared, answer) -> list[str]:
    op = prep.op
    instance = program.parse_instance(prep.path.read_text("utf-8"))
    if op.kind == "weak":
        margin = program.unpopularity_margin(instance, prep.matching).margin
        if answer != (margin == 0):
            return [f"is_popular_weak says {answer} but the exact margin is {margin}"]
        return []
    if op.kind == "verify":
        matching = program.Matching(tuple(p) for p in prep.pairs)
        witness = program.Matching(tuple(p) for p in answer["witness"])
        program.check_assignment(instance, witness)
        tally = program.delta(instance, witness, matching)
        if tally != answer["margin"]:
            return [f"witness re-tallies to {tally}, report says {answer['margin']}"]
        return []
    if answer["outcome"] != "found":
        return []
    target, _ = program.augment_to_perfect(instance)
    full = answer.get("augmentation", {}).get("full_assignment", answer["assignment"])
    assignment = program.Matching(tuple(p) for p in full)
    if op.kind == "solve":
        cert = answer["certificate"]
        ok, problems = program.verify_certificate(
            target,
            assignment,
            program.DualCertificate(cert["agents"], cert["objects"]),
            0,
        )
        return list(problems) if not ok else []
    margin = program.unpopularity_margin(target, assignment).margin
    return [] if margin <= op.k else [f"margin {margin} exceeds k = {op.k}"]


def _describe(got: Outcome) -> str:
    if got.error is not None:
        return f"raised {type(got.error).__name__}"
    return f"exited {got.code}"


# -- one workload ------------------------------------------------------------------


def set_up(name: str, seed: int, workdir: Path) -> float:
    """Run one set-up in a fresh process (``prepare.py``); return its seconds."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), name, str(seed), str(workdir)],
        cwd=ROOT, check=False,
    )
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up exited {proc.returncode}")
    return seconds


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    tracer = spans.Tracer()
    gauge = Gauge()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(set_up(name, seed, workdir))
            for _ in range(SETUP_GAUGE_SAMPLES):
                gauge.sample()
        # set-up comes first and is short, so it is scaled by the machine's
        # speed while it ran, not over the whole run
        setup_s = statistics.median(setups) * gauge.scale(stop=len(gauge.samples))
        first_pass_sample = len(gauge.samples)
        program = import_program()
        workload = WORKLOADS[name]
        ops = [Prepared(op, workdir, program) for op in workload.ops]
        probes = [Prepared(op, workdir, program) for op in workload.probes]
        warm = Prepared(WARMUP, workdir, program)
        problems = check(program, warm, call(program, warm))
        if traced:
            tracer.install()
        print("set-ups, unscaled: " + ", ".join(f"{t:.3f}" for t in setups) + " s",
              file=sys.stderr)
        return _measure(
            program, tracer, gauge, traced, ops, probes, problems, seconds, spec,
            setup_s=setup_s, first_sample=first_pass_sample,
        )
    finally:
        tracer.uninstall()
        gauge.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it


def _measure(program, tracer, gauge, traced, ops, probes, problems, seconds, spec,
             setup_s, first_sample):
    plain: list[dict[str, float]] = []  # per untraced pass: seconds by metric
    layers: list[dict[str, float]] = []  # per traced pass: per-layer figures
    totals = {"plain": [], "traced": []}
    attempted = failed = 0
    failed_ops: set[str] = set()  # ops that failed in at least one pass
    errors: dict[str, None] = {}  # failure messages, once each, in order
    peak_rss_mb = None
    t_start = perf_counter()
    while (
        len(plain) + len(layers) < MIN_PASSES * (2 if traced else 1)
        or perf_counter() - t_start < seconds
    ):
        # a traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured under the same conditions
        recording = traced and len(plain) > len(layers)
        tracer.reset()
        tracer.recording = recording
        outcomes = []
        for prep in ops:
            for _ in range(prep.op.times):
                outcomes.append((prep, call(program, prep)))
                gauge.sample()  # untimed, and outside every span
        tracer.recording = False
        if peak_rss_mb is None:
            # the high-water mark of set-up and one pass of timed ops, read
            # before any answer check or probe can raise it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        by_metric = dict.fromkeys(OP_METRICS, 0.0)
        expect_hk = expect_branches = report_bytes = 0
        for prep, got in outcomes:
            attempted += 1
            by_metric[prep.op.metric] += got.seconds
            if got.failed:
                failed += 1
                failed_ops.add(prep.op.name)
                errors[f"{prep.op.name}: {_describe(got)}"] = None
            problems += check(program, prep, got)
            if recording and prep.op.kind != "weak" and not got.failed:
                report = json.loads(got.stdout)
                report_bytes += len(got.stdout.encode("utf-8"))
                if prep.op.kind == "solve":
                    expect_hk += report["iterations"] + 1
                elif prep.op.kind == "margin":
                    expect_branches += report["branches"]
        (totals["traced"] if recording else totals["plain"]).append(
            sum(by_metric.values())
        )
        if not recording:
            plain.append(by_metric)
            continue
        figures = tracer.layer_metrics()
        figures["cli.report_bytes"] = report_bytes
        layers.append(figures)
        seen = (tracer.count["popular.solve_hk_calls"], figures["variants.branches"])
        if seen != (expect_hk, expect_branches):
            problems.append(
                f"trace self-check: HK calls in solves and branches seen {seen}, "
                f"reports say {(expect_hk, expect_branches)}"
            )

    for prep in probes:
        got = call(program, prep)
        if got.failed:
            failed_ops.add(prep.op.name)
            errors[f"{prep.op.name} (untimed probe): {_describe(got)}"] = None
        else:
            problems += check(program, prep, got)

    if traced:
        metrics = {
            key: statistics.median(figures[key] for figures in layers)
            for key in layers[0]
        }
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(totals["traced"]) / statistics.fmean(totals["plain"]) - 1.0
        )
        # over one pass's worth of ops, so that the ratio does not depend on
        # how many passes fit in --seconds
        metrics["ops_attempted"] = len(ops) + len(probes)
        metrics["fail_ratio"] = len(failed_ops) / metrics["ops_attempted"]
        wanted = spec["per_layer"]
    else:
        # the mean, not the median, of the passes: on a shared host the
        # machine's speed drifts for seconds, and the mean of a run repeats
        # best (see README.md)
        metrics = {key: statistics.fmean(p[key] for p in plain) for key in OP_METRICS}
        metrics["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
    # every time of the passes is scaled to the reference machine's speed
    # while they ran (see speed.py)
    scale = gauge.scale(start=first_sample)
    units = {m["name"]: m["unit"] for m in wanted}
    for key in metrics:
        if units.get(key) in ("s", "us"):
            metrics[key] *= scale
    if not traced:
        metrics["setup_s"] = setup_s  # scaled already
    metrics["machine.gauge_ms"] = statistics.fmean(gauge.samples[first_sample:]) * 1e3
    print(f"{len(plain)} untraced and {len(layers)} traced passes; times scaled "
          f"by {scale:.4f} to the reference machine", file=sys.stderr)
    for key in OP_METRICS:
        values = sorted(p[key] for p in plain)
        print(f"  {key}, unscaled: mean {statistics.fmean(values):.4f} s, median "
              f"{statistics.median(values):.4f}, min {values[0]:.4f}, "
              f"max {values[-1]:.4f}", file=sys.stderr)
    for line in errors:
        print(f"failed op: {line}", file=sys.stderr)
    for line in problems:
        print(f"WRONG: {line}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


# -- every workload ------------------------------------------------------------------


def run_all(seed: int, seconds: int) -> int:
    """Run each workload untraced and traced in a process of its own, and
    print every metric by name and unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exited {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            print(f"\n{name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
                combined["metrics"][f"{name}/{metric}"] = entry
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
