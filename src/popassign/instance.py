"""Bipartite assignment instances with one-sided partial-order preferences.

An instance has a set of agents, a set of objects, a set of acceptable
agent-object edges, and, for every agent, a strict partial order over her own
neighbors.  Two neighbors an agent does not order are *incomparable* (the
agent is indifferent between them); indifference is not required to be
transitive.

Preferences are stored transitively closed, as per-agent bitmasks over global
object indices ("which neighbors are strictly worse / strictly better than
this one").  That representation makes the edge tests performed by the
level-based solvers constant-time, which matters for dense instances with a
couple hundred nodes per side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping


class InstanceError(ValueError):
    """Raised for malformed instance documents or construction arguments."""


class MatchingError(ValueError):
    """Raised when a matching is inconsistent with the instance at hand."""


class PrefComparison(Enum):
    """Outcome of comparing two objects from one agent's point of view."""

    PREFERS = "prefers"
    DISPREFERRED = "dispreferred"
    INDIFFERENT = "indifferent"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Where the parser sends each problem it finds: :func:`_raise` stops at the
#: first, a collecting sink (as in :func:`validate`) lets parsing skip the
#: offending item and go on.
Report = Callable[[str], None]


def _raise(problem: str) -> None:
    raise InstanceError(problem)


def _valid_names(names: Iterable[Any], what: str, report: Report) -> list[str]:
    kept = []
    for name in names:
        if isinstance(name, str) and name:
            kept.append(name)
        else:
            report(f"{what} identifiers must be non-empty strings, got {name!r}")
    return kept


def _index_names(names: list[str], what: str, report: Report) -> dict[str, int]:
    index: dict[str, int] = {}
    for name in names:
        if name in index:
            report(f"duplicate {what} identifier")
        else:
            index[name] = len(index)
    return index


class Instance:
    """An immutable two-sided instance.

    Parameters
    ----------
    agents, objects:
        Identifier sequences; duplicates are rejected.  The two sides are
        independent namespaces.
    edges:
        Acceptable ``(agent, object)`` pairs; duplicates are rejected.
    preferences:
        Optional mapping from agent id to an iterable of ``(better, worse)``
        object pairs.  Pairs may only compare objects adjacent to that agent,
        and their transitive closure must be irreflexive (no preference
        cycles).  Agents absent from the mapping are indifferent among all
        their neighbors.
    """

    __slots__ = (
        "_agents",
        "_objects",
        "_agent_index",
        "_object_index",
        "_adj",
        "_object_adj",
        "_nbr_mask",
        "_edge_set",
        "_edges",
        "_worse",
        "_better",
    )

    def __init__(
        self,
        agents: Iterable[str],
        objects: Iterable[str],
        edges: Iterable[tuple[str, str]],
        preferences: Mapping[str, Iterable[tuple[str, str]]] | None = None,
    ) -> None:
        self._build(agents, objects, edges, preferences or {}, _raise)

    def _build(
        self,
        agents: Iterable[str],
        objects: Iterable[str],
        edges: Iterable[tuple[str, str]],
        preferences: Mapping[str, Iterable[tuple[str, str]]],
        report: Report,
    ) -> None:
        # Every check of the instance format below the document level; a
        # problem that ``report`` does not raise skips its name, edge,
        # preference pair or (for a cycle) the agent's whole order.
        agent_names = _valid_names(agents, "agent", report)
        object_names = _valid_names(objects, "object", report)
        self._agent_index = _index_names(agent_names, "agent", report)
        self._object_index = _index_names(object_names, "object", report)
        self._agents = tuple(self._agent_index)
        self._objects = tuple(self._object_index)

        adj_sets: list[set[int]] = [set() for _ in self._agents]
        object_adj_sets: list[set[int]] = [set() for _ in self._objects]
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):
                report(f"edge {edge!r} is not an (agent, object) pair")
                continue
            # names are strings; any other value, even an unhashable one such
            # as a list, is an unknown name
            ai = self._agent_index.get(a) if isinstance(a, str) else None
            bj = self._object_index.get(b) if isinstance(b, str) else None
            if ai is None:
                report(f"edge {edge!r} references unknown agent {a!r}")
            if bj is None:
                report(f"edge {edge!r} references unknown object {b!r}")
            if ai is None or bj is None:
                continue
            if bj in adj_sets[ai]:
                report(f"duplicate edge ({a!r}, {b!r})")
                continue
            adj_sets[ai].add(bj)
            object_adj_sets[bj].add(ai)
        self._adj = tuple(tuple(sorted(s)) for s in adj_sets)
        self._object_adj = tuple(tuple(sorted(s)) for s in object_adj_sets)
        self._nbr_mask = tuple(sum(1 << j for j in s) for s in self._adj)
        self._edges = tuple(
            (ai, bj) for ai in range(len(self._agents)) for bj in self._adj[ai]
        )
        self._edge_set = frozenset(self._edges)

        succ_by_agent: dict[int, dict[int, set[int]]] = {}
        for agent_name, pairs in preferences.items():
            ai = self._agent_index.get(agent_name)
            if ai is None:
                report(f"preferences reference unknown agent {agent_name!r}")
                continue
            succ: dict[int, set[int]] = {}
            for pair in pairs:
                try:
                    b, b2 = pair
                except (TypeError, ValueError):
                    report(
                        f"preference pair {pair!r} for agent {agent_name!r} is not a pair"
                    )
                    continue
                bj = self._object_index.get(b) if isinstance(b, str) else None
                cj = self._object_index.get(b2) if isinstance(b2, str) else None
                if bj is None or cj is None:
                    report(
                        f"preference pair ({b!r}, {b2!r}) for agent {agent_name!r} "
                        "references an unknown object"
                    )
                elif bj not in adj_sets[ai] or cj not in adj_sets[ai]:
                    report(
                        f"preference pair ({b!r}, {b2!r}) for agent {agent_name!r} "
                        "compares objects that are not both adjacent to the agent"
                    )
                elif bj == cj:
                    report(f"agent {agent_name!r} declares {b!r} better than itself")
                else:
                    succ.setdefault(bj, set()).add(cj)
            succ_by_agent[ai] = succ

        worse_by_agent: list[dict[int, int]] = []
        better_by_agent: list[dict[int, int]] = []
        for ai, agent_name in enumerate(self._agents):
            succ = succ_by_agent.get(ai, {})
            worse = self._close(succ)
            if worse is None:
                report(f"cyclic preferences for agent {agent_name!r}")
                worse, succ = {}, {}
            worse_by_agent.append(worse)
            # "better than" is the closure of the reversed relation, which
            # has no cycle since the relation itself has none
            reverse: dict[int, set[int]] = {}
            for b, below in succ.items():
                for c in below:
                    reverse.setdefault(c, set()).add(b)
            better_by_agent.append(self._close(reverse))
        self._worse = tuple(worse_by_agent)
        self._better = tuple(better_by_agent)

    @staticmethod
    def _close(succ: Mapping[int, set[int]]) -> dict[int, int] | None:
        """Transitive closure of the "strictly better than" relation ``succ``
        as a worse-set bitmask per node, or None if it has a cycle.  This is
        the package's one cycle check; it is iterative, so a long chain
        cannot exhaust the interpreter's recursion limit."""
        # Depth-first search in postorder; a back edge is a cycle.
        worse: dict[int, int] = {}
        color: dict[int, int] = {}  # 1 = on stack, 2 = finished
        for root in succ:
            if color.get(root) == 2:
                continue
            stack = [(root, iter(succ[root]))]
            color[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = color.get(nxt, 0)
                    if c == 1:
                        return None
                    if c == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(succ.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    color[node] = 2
                    mask = 0
                    for s in succ.get(node, ()):
                        mask |= (1 << s) | worse.get(s, 0)
                    if mask:
                        worse[node] = mask
        return worse

    # -- basic shape -------------------------------------------------------

    @property
    def agents(self) -> tuple[str, ...]:
        return self._agents

    @property
    def objects(self) -> tuple[str, ...]:
        return self._objects

    @property
    def n_agents(self) -> int:
        return len(self._agents)

    @property
    def n_objects(self) -> int:
        return len(self._objects)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges as name pairs, sorted by (agent index, object index)."""
        return tuple((self._agents[a], self._objects[b]) for a, b in self._edges)

    @property
    def edge_indices(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def agent_index(self, agent: str) -> int:
        try:
            return self._agent_index[agent]
        except KeyError:
            raise InstanceError(f"unknown agent {agent!r}") from None

    def object_index(self, obj: str) -> int:
        try:
            return self._object_index[obj]
        except KeyError:
            raise InstanceError(f"unknown object {obj!r}") from None

    def has_agent(self, agent: str) -> bool:
        return agent in self._agent_index

    def has_object(self, obj: str) -> bool:
        return obj in self._object_index

    def has_edge(self, agent: str, obj: str) -> bool:
        ai = self._agent_index.get(agent)
        bj = self._object_index.get(obj)
        return ai is not None and bj is not None and (ai, bj) in self._edge_set

    def neighbors(self, agent: str) -> tuple[str, ...]:
        """Objects adjacent to ``agent``, in object-index order."""
        return tuple(self._objects[j] for j in self._adj[self.agent_index(agent)])

    def neighbors_of_object(self, obj: str) -> tuple[str, ...]:
        return tuple(self._agents[i] for i in self._object_adj[self.object_index(obj)])

    # -- index-level accessors used by the solvers --------------------------

    def adj_indices(self, ai: int) -> tuple[int, ...]:
        return self._adj[ai]

    def object_adj_indices(self, bj: int) -> tuple[int, ...]:
        return self._object_adj[bj]

    def neighbor_mask(self, ai: int) -> int:
        return self._nbr_mask[ai]

    def worse_mask(self, ai: int, bj: int) -> int:
        """Bitmask of objects strictly worse than ``bj`` for agent ``ai``."""
        return self._worse[ai].get(bj, 0)

    def better_mask(self, ai: int, bj: int) -> int:
        """Bitmask of objects strictly better than ``bj`` for agent ``ai``."""
        return self._better[ai].get(bj, 0)

    # -- preference queries --------------------------------------------------

    def prefers(self, agent: str, obj: str, other: str) -> bool:
        """True iff ``agent`` strictly prefers ``obj`` to ``other``.

        Both objects must be adjacent to the agent.
        """
        ai = self.agent_index(agent)
        bj = self.object_index(obj)
        cj = self.object_index(other)
        for j, name in ((bj, obj), (cj, other)):
            if (ai, j) not in self._edge_set:
                raise InstanceError(f"object {name!r} is not adjacent to agent {agent!r}")
        return bool(self._worse[ai].get(bj, 0) >> cj & 1)

    def preference_pairs(self, agent: str) -> tuple[tuple[str, str], ...]:
        """The transitively closed strict pairs of ``agent``, sorted."""
        ai = self.agent_index(agent)
        out = []
        for b, mask in self._worse[ai].items():
            for c in iter_bits(mask):
                out.append((self._objects[b], self._objects[c]))
        return tuple(sorted(out))

    def is_weak_agent(self, agent: str) -> bool:
        """True iff ``agent``'s indifference is transitive (an ordered-tier
        ranking).  Holds iff every incomparable neighbor pair has identical
        worse-sets and better-sets."""
        ai = self.agent_index(agent)
        nbrs = self._adj[ai]
        worse = self._worse[ai]
        better = self._better[ai]
        for x, b in enumerate(nbrs):
            wb = worse.get(b, 0)
            bb = better.get(b, 0)
            for c in nbrs[x + 1:]:
                if wb >> c & 1 or better.get(b, 0) >> c & 1:
                    continue
                if wb != worse.get(c, 0) or bb != better.get(c, 0):
                    return False
        return True

    def has_weak_rankings(self) -> bool:
        return all(self.is_weak_agent(a) for a in self._agents)

    def tiers(self, agent: str) -> tuple[tuple[str, ...], ...]:
        """The agent's neighbors grouped into indifference tiers, best first.

        Only defined for agents with weak rankings.
        """
        if not self.is_weak_agent(agent):
            raise InstanceError(f"agent {agent!r} does not have a weak ranking")
        ai = self.agent_index(agent)
        groups: dict[tuple[int, int], list[int]] = {}
        for b in self._adj[ai]:
            key = (self._worse[ai].get(b, 0), self._better[ai].get(b, 0))
            groups.setdefault(key, []).append(b)
        ordered = sorted(groups.items(), key=lambda kv: -kv[0][0].bit_count())
        return tuple(tuple(self._objects[b] for b in sorted(g)) for _, g in ordered)

    # -- serialization -------------------------------------------------------

    def to_document(self) -> dict:
        """A JSON-ready document.  Weak rankings are emitted as tiers, other
        partial orders as the closed pair list."""
        prefs: dict[str, dict] = {}
        for a in self._agents:
            ai = self._agent_index[a]
            if not self._worse[ai]:
                continue
            if self.is_weak_agent(a):
                prefs[a] = {"tiers": [list(t) for t in self.tiers(a)]}
            else:
                prefs[a] = {"pairs": [list(p) for p in self.preference_pairs(a)]}
        doc: dict = {
            "agents": list(self._agents),
            "objects": list(self._objects),
            "edges": [[a, b] for a, b in self.edges],
        }
        if prefs:
            doc["preferences"] = prefs
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Instance({self.n_agents} agents, {self.n_objects} objects, "
            f"{len(self._edges)} edges)"
        )


class Matching:
    """A set of agent-object pairs in which no agent and no object repeats.

    Matchings are plain name-level containers; they carry no reference to an
    instance.  Use :func:`check_matching` / :func:`check_assignment` to test a
    matching against an instance.
    """

    __slots__ = ("_pairs", "_by_agent", "_by_object")

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()) -> None:
        by_agent: dict[str, str] = {}
        by_object: dict[str, str] = {}
        for pair in pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise MatchingError(f"{pair!r} is not an (agent, object) pair") from None
            if not isinstance(a, str) or not isinstance(b, str):
                raise MatchingError(f"matching pair {pair!r} must contain strings")
            if a in by_agent:
                raise MatchingError(f"agent {a!r} is matched more than once")
            if b in by_object:
                raise MatchingError(f"object {b!r} is matched more than once")
            by_agent[a] = b
            by_object[b] = a
        self._by_agent = by_agent
        self._by_object = by_object
        self._pairs = tuple(sorted(by_agent.items()))

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return self._pairs

    def object_for(self, agent: str) -> str | None:
        return self._by_agent.get(agent)

    def agent_for(self, obj: str) -> str | None:
        return self._by_object.get(obj)

    @property
    def matched_agents(self) -> frozenset[str]:
        return frozenset(self._by_agent)

    @property
    def matched_objects(self) -> frozenset[str]:
        return frozenset(self._by_object)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair: object) -> bool:
        return isinstance(pair, tuple) and len(pair) == 2 and \
            self._by_agent.get(pair[0]) == pair[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Matching({list(self._pairs)!r})"


def check_matching(instance: Instance, matching: Matching) -> None:
    """Raise :class:`MatchingError` unless every pair is an instance edge."""
    for a, b in matching:
        if not instance.has_edge(a, b):
            raise MatchingError(f"({a!r}, {b!r}) is not an edge of the instance")


def check_assignment(instance: Instance, matching: Matching) -> None:
    """Raise :class:`MatchingError` unless ``matching`` is a perfect matching
    of ``instance`` (every agent and every object matched along edges)."""
    check_matching(instance, matching)
    if len(matching) != instance.n_agents or len(matching) != instance.n_objects:
        raise MatchingError(
            f"matching of size {len(matching)} is not an assignment of an instance "
            f"with {instance.n_agents} agents and {instance.n_objects} objects"
        )


def compare(instance: Instance, agent: str, obj: str, other: str) -> PrefComparison:
    """Compare two of ``agent``'s neighbors from her point of view."""
    if instance.prefers(agent, obj, other):
        return PrefComparison.PREFERS
    if instance.prefers(agent, other, obj):
        return PrefComparison.DISPREFERRED
    return PrefComparison.INDIFFERENT


# -- documents ---------------------------------------------------------------


def _tier_pairs(agent: str, tiers: list, report: Report) -> list[tuple[str, str]] | None:
    """Expand a tier list into strict pairs between consecutive tiers (the
    transitive closure recovers the rest); None after a reported problem."""
    seen: set[str] = set()
    for tier in tiers:
        if not isinstance(tier, list) or not tier:
            report(f"tiers for agent {agent!r} must be non-empty lists")
            return None
        for b in tier:
            if not isinstance(b, str):
                report(f"tier entry {b!r} for agent {agent!r} is not a string")
                return None
            if b in seen:
                report(f"object {b!r} appears twice in tiers of agent {agent!r}")
                return None
            seen.add(b)
    pairs = []
    for hi, lo in zip(tiers, tiers[1:]):
        pairs.extend((b, c) for b in hi for c in lo)
    return pairs


def _from_document(doc: Any, report: Report) -> Instance | None:
    """The one parse-and-validate path: check the document's shape, then
    build the instance, sending every problem to ``report``.  Returns None
    only when ``report`` does not raise and the document lacks one of its
    three lists."""
    if not isinstance(doc, dict):
        report("instance document must be a JSON object")
        return None
    shaped = True
    for key in ("agents", "objects", "edges"):
        if key not in doc:
            report(f"instance document is missing {key!r}")
            shaped = False
        elif not isinstance(doc[key], list):
            report(f"{key!r} must be a list")
            shaped = False
    unknown = set(doc) - {"agents", "objects", "edges", "preferences"}
    if unknown:
        report(f"unknown top-level keys: {sorted(unknown)}")
    if not shaped:
        return None
    edges = []
    for e in doc["edges"]:
        if isinstance(e, list) and len(e) == 2:
            edges.append((e[0], e[1]))
        else:
            report(f"edge {e!r} must be a two-element list")
    preferences: dict[str, list[tuple[str, str]]] = {}
    raw_prefs = doc.get("preferences", {})
    if not isinstance(raw_prefs, dict):
        report("'preferences' must be an object keyed by agent")
        raw_prefs = {}
    for agent, spec in raw_prefs.items():
        if not isinstance(spec, dict) or len(spec) != 1 or \
                next(iter(spec)) not in ("pairs", "tiers"):
            report(
                f"preferences for agent {agent!r} must be exactly one of "
                "{'pairs': [...]} or {'tiers': [...]}"
            )
            continue
        kind, body = next(iter(spec.items()))
        if not isinstance(body, list):
            report(f"{kind!r} for agent {agent!r} must be a list")
            continue
        if kind == "tiers":
            pairs = _tier_pairs(agent, body, report)
            if pairs is None:
                continue
        else:
            pairs = []
            for p in body:
                if isinstance(p, list) and len(p) == 2:
                    pairs.append((p[0], p[1]))
                else:
                    report(
                        f"preference pair {p!r} for agent {agent!r} must be a "
                        "two-element list"
                    )
        preferences[agent] = pairs
    instance = Instance.__new__(Instance)
    instance._build(doc["agents"], doc["objects"], edges, preferences, report)
    return instance


def instance_from_document(doc: Any) -> Instance:
    """Build an :class:`Instance` from a parsed JSON document."""
    return _from_document(doc, _raise)


def _decode(source: str) -> Any:
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc


def parse_instance(source: str) -> Instance:
    """Parse a JSON instance document (see README for the schema)."""
    return instance_from_document(_decode(source))


def serialize_instance(instance: Instance) -> str:
    """Serialize to the JSON document format accepted by :func:`parse_instance`.

    Note that non-weak preferences are materialized as the full closed pair
    list, so this is intended for small and medium instances.
    """
    return json.dumps(instance.to_document(), indent=2)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: ``ok`` plus all collected problems."""

    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate(source: str | dict | Instance) -> ValidationReport:
    """Check an instance document, collecting every problem found rather
    than stopping at the first.

    The checks and their messages are the parser's own: the first problem is
    exactly the error :func:`instance_from_document` (or, for JSON text,
    :func:`parse_instance`) raises.  Each later one is found after skipping
    the name, edge, preference pair or agent order at fault; a document
    missing one of its three lists is checked no further.

    Accepts raw JSON text, a parsed document, or an already-built
    :class:`Instance` (which is valid by construction).
    """
    if isinstance(source, Instance):
        return ValidationReport(True, ())
    problems: list[str] = []
    if isinstance(source, str):
        try:
            source = _decode(source)
        except InstanceError as exc:
            return ValidationReport(False, (str(exc),))
    _from_document(source, problems.append)
    return ValidationReport(not problems, tuple(problems))

