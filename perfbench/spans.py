"""Per-layer tracing by wrapping ``popassign``'s functions at module boundaries.

:class:`Tracer` replaces a fixed set of functions, in every module namespace
that holds them, with wrappers that record a span per call.  Nothing in the
package changes on disk, and the wrappers only record while
:attr:`Tracer.recording` is set, so the benchmark's own untimed answer checks
pass straight through them.

A span's self time is its duration minus the extent of the spans it encloses.
A child's extent runs from entering to leaving its wrapper, so the cost of
the counting done in the wrappers is charged to no layer.  It only shows in
the traced end-to-end time, which is why end-to-end metrics come from
untraced passes.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Any, Callable

perf_counter = time.perf_counter

#: (namespace module, function name, span key).  A function is wrapped once
#: per namespace that calls it, so the key can tell call sites apart.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_instance", "instance.parse"),
    ("cli", "augment_to_perfect", "instance.augment"),
    ("cli", "solve_with_constraints", "popular.solve"),
    ("cli", "solve_k_margin", "variants.search"),
    # one call per load guess: solve_k_margin calls it by its global name
    ("variants", "_run_margin_branch", "variants.branch"),
    ("cli", "unpopularity_margin", "oracle.margin"),
    ("popular", "make_level_function", "popular.levels"),
    ("variants", "make_level_function", "popular.levels"),
    ("popular", "certificate_from_levels", "popular.certificate"),
    ("popular", "maximum_matching", "matching.hk@popular"),
    ("variants", "maximum_matching", "matching.hk@variants"),
    ("oracle", "maximum_matching", "matching.hk@oracle"),
    # augment_to_perfect imports maximum_matching when it runs
    ("matching", "maximum_matching", "matching.hk@instance"),
    ("oracle", "max_weight_perfect_matching", "matching.hungarian"),
    ("oracle", "characterize_weak_rankings", "oracle.characterize"),
)


class Tracer:
    """Span and counter collection for one pass of operations."""

    def __init__(self) -> None:
        self.recording = False
        self._stack: list[list[Any]] = []  # [key, child extent]
        self._installed: list[tuple[Any, str, Callable]] = []
        self._solve: dict | None = None
        self.reset()

    def reset(self) -> None:
        """Zero the totals; called at the start of every traced pass."""
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.count: Counter[str] = Counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "instance.parse": self._after_parse,
            "popular.solve": self._after_solve,
            "matching.hk@popular": self._after_hk_popular,
            "matching.hk@variants": self._after_hk_variants,
            "matching.hk@oracle": self._after_hk_oracle,
            "matching.hk@instance": lambda args, result: self._count_hk(args[0]),
        }
        for module_name, attr, key in SPANS:
            module = importlib.import_module(f"popassign.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(key, original, hooks.get(key)))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, key: str, fn: Callable, after: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            enter = perf_counter()
            stack = self._stack
            frame = [key, 0.0]
            stack.append(frame)
            if key == "popular.solve":
                self._solve = {"first": True, "adj": None, "match": None}
            try:
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    stack.pop()
                    self.calls[key] += 1
                    self.self_s[key] += elapsed - frame[1]
                if after is not None:
                    after(args, result)
                return result
            finally:
                if key == "popular.solve":
                    self._solve = None
                if stack:
                    stack[-1][1] += perf_counter() - enter

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ---------------------------------------------------------------

    def _inside(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def _after_parse(self, args, instance) -> None:
        closed = 0
        for ai in range(instance.n_agents):
            for bj in instance.adj_indices(ai):
                closed += instance.worse_mask(ai, bj).bit_count()
        self.count["instance.closed_pairs"] += closed

    def _after_solve(self, args, outcome) -> None:
        self.count["popular.rounds"] += outcome.iterations

    def _count_hk(self, graph) -> None:
        self.count["matching.hk_calls"] += 1
        self.count["matching.hk_edges"] += sum(map(len, graph.adjacency))

    def _after_hk_popular(self, args, result) -> None:
        graph = args[0]
        self._count_hk(graph)
        solve = self._solve
        if solve is None:  # a level loop of the k-margin search
            return
        self.count["popular.solve_hk_calls"] += 1
        if solve["first"]:  # the perfect-matchability check before the loop
            solve["first"] = False
            return
        match_l, match_r = result
        adj, prev_adj, prev_match = graph.adjacency, solve["adj"], solve["match"]
        if prev_adj is not None:
            self.count["popular.rows_rebuilt"] += len(adj)
            self.count["popular.rows_changed"] += sum(
                1 for row, prev in zip(adj, prev_adj) if row != prev
            )
            for ai, bj in enumerate(prev_match):
                if bj >= 0:
                    self.count["popular.prev_matched"] += 1
                    if bj in adj[ai]:
                        self.count["popular.matching_kept"] += 1
        if -1 in match_l:
            self.count["popular.objects_raised"] += match_r.count(-1)
        solve["adj"], solve["match"] = adj, match_l

    def _after_hk_variants(self, args, result) -> None:
        self._count_hk(args[0])
        if -1 in result[0]:
            self.count["variants.branches_pruned"] += 1

    def _after_hk_oracle(self, args, result) -> None:
        self._count_hk(args[0])
        if self._inside("oracle.characterize"):
            self.count["oracle.characterize_hk_calls"] += 1

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the current pass, by metric name."""
        s, c = self.self_s, self.count
        rounds = c["popular.rounds"]
        branches = self.calls["variants.branch"]
        return {
            "instance.parse_s": s["instance.parse"],
            "instance.closed_pairs": c["instance.closed_pairs"],
            "instance.augment_s": s["instance.augment"],
            "popular.self_s": s["popular.solve"],
            "popular.rounds": rounds,
            "popular.self_us_per_round": _ratio(s["popular.solve"], rounds) * 1e6,
            "popular.rows_changed_ratio": _ratio(
                c["popular.rows_changed"], c["popular.rows_rebuilt"]
            ),
            "popular.matching_kept_ratio": _ratio(
                c["popular.matching_kept"], c["popular.prev_matched"]
            ),
            "popular.objects_raised": c["popular.objects_raised"],
            "popular.certificate_s": s["popular.certificate"],
            "matching.hk_calls": c["matching.hk_calls"],
            "matching.hk_s": sum(
                v for k, v in s.items() if k.startswith("matching.hk@")
            ),
            "matching.hk_edges": c["matching.hk_edges"],
            "matching.hungarian_calls": self.calls["matching.hungarian"],
            "matching.hungarian_s": s["matching.hungarian"],
            "variants.branches": branches,
            "variants.branches_pruned": c["variants.branches_pruned"],
            "variants.branch_useful_ratio": _ratio(
                branches - c["variants.branches_pruned"], branches
            ),
            "variants.search_s": s["variants.search"] + s["variants.branch"],
            "oracle.margin_s": s["oracle.margin"],
            "oracle.characterize_s": s["oracle.characterize"],
            "oracle.characterize_hk_calls": c["oracle.characterize_hk_calls"],
            "cli.self_s": s["cli.main"],
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
