#!/usr/bin/env python3
"""A gauge of the machine's speed, against which a run's times are scaled.

On a shared virtual machine the processor's speed changes by a fifth or more
over minutes, for every program alike and in CPU time as well as wall time.
No aggregation of the program's own times inside one run removes that
between runs.  The gauge is a fixed pure-Python kernel (augmenting-path
matching on a fixed random graph, dictionary updates and a sort) that runs in
a process of its own whenever the benchmark asks, between its timed
operations.  Its mean time over a run says how fast the machine was during
that run, and the benchmark scales its times to a machine on which the kernel
takes :data:`NOMINAL_S`.

The kernel never calls ``popassign``, so no change to the program can move
it, and its own process keeps the program's heap and interpreter state out of
it.  The kernel is part of the benchmark's definition: changing it changes
every scaled time.

    python3 perfbench/speed.py    # for each line read, run the kernel, print its seconds
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

#: Seconds the kernel takes on the reference machine (a shared 2-core x86-64
#: virtual machine, Python 3.11, when it ran at its usual speed).
NOMINAL_S = 0.030


def make_graph(n: int = 300, degree: int = 6) -> list[list[int]]:
    rng = random.Random(5)
    return [sorted(rng.sample(range(n), degree)) for _ in range(n)]


def kernel(adj: list[list[int]]) -> int:
    n = len(adj)
    total = 0
    for _ in range(3):
        match_r = [-1] * n

        def augment(u: int, seen: set[int]) -> bool:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    if match_r[v] < 0 or augment(match_r[v], seen):
                        match_r[v] = u
                        return True
            return False

        for u in range(n):
            total += augment(u, set())
        table: dict[int, int] = {}
        for i in range(20000):
            key = (i * 31) % 1009
            table[key] = table.get(key, 0) ^ (i << 3)
        total += sorted(table.values())[5] & 1
    return total


class Gauge:
    """The kernel's process and the times it has reported."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[float] = []

    def sample(self) -> None:
        """Run the kernel once, and wait for it."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed gauge exited {self._proc.wait()}")
        self.samples.append(float(line))

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Factor from seconds measured while ``samples[start:stop]`` were
        taken to seconds on the reference machine."""
        return NOMINAL_S / statistics.fmean(self.samples[start:stop])

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> None:
    adj = make_graph()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel(adj)
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    main()
