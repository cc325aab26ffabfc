"""The benchmark's workloads: which operations run, on which inputs.

Each instance is drawn from one of the generators in :mod:`gen` with a fixed
structure seed, written here next to the verdict that the operation must
return on it.  The run's ``--seed`` then disguises every instance (fresh
names, shuffled edge and preference order; see :func:`gen.disguise`).

Why the structure is fixed: the solver's work on one instance depends on far
more than its family.  Random dense weak instances of one size took 296 to
989 rounds, and relabelled copies of one instance 296 to 494, because
Hopcroft-Karp breaks ties by index.  No bound a benchmark could keep would
absorb that, and a random instance has no verdict known in advance.  Fixing
the structure pins each verdict and gives every seed the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import gen

SOLVE_NOTFOUND = "solve_notfound_s"
SOLVE_FOUND = "solve_found_s"
MARGIN = "margin_s"
VERIFY = "verify_s"
WEAK_CHECK = "weak_check_s"
#: Every timed operation counts toward exactly one of these.
OP_METRICS = (SOLVE_NOTFOUND, SOLVE_FOUND, MARGIN, VERIFY, WEAK_CHECK)

Build = Callable[[], "tuple[dict, list[list[str]] | None]"]


@dataclass(frozen=True)
class Op:
    """One operation.  ``kind`` is ``solve``, ``margin`` (``--k k``) or
    ``verify`` -- a call of ``popassign.cli.main`` -- or ``weak``, a call of
    ``popassign.is_popular_weak``.  ``verify`` and ``weak`` check the
    assignment that ``build`` plants.  ``expect`` is the pinned exit code, or
    for ``weak`` the pinned verdict."""

    name: str
    kind: str
    build: Build
    expect: int | bool
    k: int = 0
    #: Calls per pass.  Short operations run several times, so that every
    #: end-to-end metric gets a comparable share of the run's time.
    times: int = 1

    @property
    def metric(self) -> str:
        if self.kind == "solve":
            return SOLVE_FOUND if self.expect == 0 else SOLVE_NOTFOUND
        return {"margin": MARGIN, "verify": VERIFY, "weak": WEAK_CHECK}[self.kind]


@dataclass(frozen=True)
class Workload:
    """A workload's timed operations; why each was chosen is recorded in
    ``BENCHMARK.json`` and ``README.md``."""

    ops: tuple[Op, ...]
    #: Untimed operations that run once after the timed passes; they count
    #: toward ``fail_ratio`` but toward no time.
    probes: tuple[Op, ...] = ()


def rand(seed: int, n: int, density: float, style: str) -> Build:
    return lambda: (gen.random_instance(random.Random(seed), n, density, style), None)


def planted(seed: int, n: int, density: float, style: str, top: bool = False) -> Build:
    return lambda: gen.planted_instance(random.Random(seed), n, density, style, top)


def master_list(n: int, swap_seed: int | None = None) -> Build:
    return lambda: (
        gen.master_list_instance(
            n, None if swap_seed is None else random.Random(swap_seed)
        ),
        None,
    )


def sparse_master_list(seed: int, n: int, density: float) -> Build:
    return lambda: (
        gen.sparse_master_list_instance(random.Random(seed), n, density), None
    )


def reversed_path(n: int) -> Build:
    return lambda: (gen.reversed_path_instance(n), None)


#: Run before the timed passes, once per set-up, and checked like the rest.
WARMUP = Op("warmup-weak-40", "solve", planted(1, 40, 0.2, "weak", top=True), 0)

WORKLOADS: dict[str, Workload] = {
    "solve-dense": Workload(
        ops=(
            Op("strict-100", "solve", rand(11, 100, 1.0, "strict"), 1),
            Op("weak-100", "solve", rand(12, 100, 1.0, "weak"), 1),
            Op("partial-100", "solve", rand(13, 100, 1.0, "partial"), 1),
            Op("top-strict-100", "solve", planted(14, 100, 1.0, "strict", top=True), 0,
               times=3),
            Op("unanimous-6-k2", "margin", master_list(6), 1, k=2, times=3),
            Op("verify-strict-100", "verify", planted(15, 100, 1.0, "strict"), 1,
               times=2),
            Op("weak-check-50", "weak", planted(16, 50, 1.0, "weak"), False, times=2),
        ),
    ),
    "solve-sparse": Workload(
        ops=(
            Op("weak-80", "solve", rand(70, 80, 0.06, "weak"), 1),
            Op("partial-100", "solve", rand(41, 100, 0.05, "partial"), 1),
            Op("padded-weak-200", "solve", rand(23, 200, 0.012, "weak"), 0, times=2),
            Op("padded-partial-200", "solve", rand(24, 200, 0.015, "partial"), 0,
               times=2),
            Op("master-10-k2", "margin", sparse_master_list(64, 10, 0.4), 0, k=2,
               times=2),
            Op("verify-strict-200", "verify", planted(26, 200, 0.05, "strict"), 1,
               times=2),
            Op("weak-check-200", "weak", planted(27, 200, 0.03, "weak"), False,
               times=2),
        ),
        probes=(Op("reversed-path-3000", "solve", reversed_path(3000), 0),),
    ),
    "margin-verify": Workload(
        ops=(
            Op("unanimous-6-k3", "margin", master_list(6), 1, k=3),
            Op("swapped-7-k3", "margin", master_list(7, swap_seed=31), 0, k=3),
            Op("verify-strict-200", "verify", planted(32, 200, 0.05, "strict"), 1),
            Op("verify-weak-200", "verify", planted(33, 200, 0.05, "weak"), 1),
            Op("verify-top-weak-150", "verify", planted(34, 150, 0.05, "weak", top=True), 0),
            Op("weak-check-60", "weak", planted(35, 60, 1.0, "weak"), False),
            Op("weak-check-top-250", "weak", planted(36, 250, 0.03, "weak", top=True), True),
            Op("strict-80", "solve", rand(37, 80, 1.0, "strict"), 1, times=2),
            Op("padded-weak-200", "solve", rand(38, 200, 0.012, "weak"), 0, times=2),
            Op("padded-partial-200", "solve", rand(39, 200, 0.015, "partial"), 0,
               times=2),
        ),
    ),
}
