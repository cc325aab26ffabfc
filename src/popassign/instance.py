"""Bipartite assignment instances with one-sided partial-order preferences.

An instance has a set of agents, a set of objects, a set of acceptable
agent-object edges, and, for every agent, a strict partial order over her own
neighbors.  Two neighbors an agent does not order are *incomparable* (the
agent is indifferent between them); indifference is not required to be
transitive.

Preferences are stored transitively closed, as per-agent bitmasks over global
object indices ("which neighbors are strictly worse than this one"), and edges
as per-agent neighbor bitmasks; dominance and tiers are read off those.  That
representation makes the edge tests performed by the level-based solvers
constant-time, which matters for dense instances with a couple hundred nodes
per side.

Parsing reads a row at a time -- the edge list, one agent's preference pairs,
one agent's tiers -- in bulk, with no check per item.  Only a row that the
bulk read refuses goes through the per-item checks, the one place that words
a problem; so a clean document pays for none of them, and a faulty one gets
the same problems, in the same order, as if every row were checked.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
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


def bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, in increasing order."""
    row = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        row.append(bit.bit_length() - 1)
    return tuple(row)


#: Where the parser sends each problem it finds: :func:`_raise` stops at the
#: first, a collecting sink (as in :func:`validate`) lets parsing skip the
#: offending item and go on.
Report = Callable[[str], None]


def _raise(problem: str) -> None:
    raise InstanceError(problem)


def _is_pair(x: Any) -> bool:
    """The one shape rule for edges, arcs and every kind of pair."""
    return isinstance(x, (list, tuple)) and len(x) == 2


def _find(index: Mapping[str, int], name: Any) -> int | None:
    """The index of ``name``, or None if it is unknown.  Names are strings;
    any other value, even an unhashable one such as a list, is unknown."""
    return index.get(name) if isinstance(name, str) else None


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
            report(f"duplicate {what} identifier {name!r}")
        else:
            index[name] = len(index)
    return index


# -- bulk reads ---------------------------------------------------------------
#
# Each returns None for a row it refuses.  It must accept exactly the rows
# that the per-item checks accept without a report, and build the same thing.

#: How a bulk read refuses a row: an unknown, non-string or unhashable name
#: fails its lookup, and an item that is not two long fails its unpacking.
_REFUSED = (KeyError, TypeError, ValueError)
_PAIR_TYPES = frozenset((list, tuple))


def _pair_typed(items: list | tuple) -> bool:
    """Whether every item is a list or a tuple, one check over the whole
    row.  With the unpacking into two names that follows it, a bulk read
    accepts only what :func:`_is_pair` accepts: a two-character string or
    a two-key object would unpack too, so it must be refused first.  (A
    subclass of either is refused too, and left to the checks.)"""
    return _PAIR_TYPES.issuperset(map(type, items))


def _edge_sets(
    edges: list | tuple, agent_index: dict[str, int], object_index: dict[str, int]
) -> list[set[int]] | None:
    """Each agent's neighbor indices, read from the whole edge list in bulk,
    or None if some edge is not an edge of known names or repeats one."""
    if not _pair_typed(edges):
        return None
    rows: list[list[int]] = [[] for _ in agent_index]
    try:
        for a, b in edges:
            rows[agent_index[a]].append(object_index[b])
    except _REFUSED:
        return None
    adj_sets = list(map(set, rows))
    # a repeated edge is read twice but kept once
    return adj_sets if sum(map(len, adj_sets)) == len(edges) else None


def _successor_masks(pairs: list | tuple, neighbors: dict[str, int]) -> dict[int, int] | None:
    """One agent's ``(better, worse)`` pairs read in bulk, as a successor
    mask per better object's index; ``neighbors`` maps each of the agent's
    neighbors to its bit.  None if some pair is not two neighbors, or
    compares an object with itself, which puts its own bit in its mask."""
    if not _pair_typed(pairs):
        return None
    by_name: dict[str, int] = {}
    below_of = by_name.get
    succ: dict[int, int] = {}
    try:
        for b, c in pairs:
            by_name[b] = below_of(b, 0) | neighbors[c]
        for b, below in by_name.items():
            bit = neighbors[b]
            if below & bit:
                return None
            succ[bit.bit_length() - 1] = below
    except _REFUSED:
        return None
    return succ


def _tiered_worse(tiers: list, object_index: dict[str, int], nbr: int) -> dict[int, int] | None:
    """One agent's tier list read in bulk, from the worst tier up, as a
    worse mask per object: the union of the tiers below its own.  None if
    some tier is not a non-empty list, or some entry is not a neighbor (a
    bit of ``nbr``) or repeats one."""
    worse: dict[int, int] = {}
    below = entries = 0
    try:
        for tier in reversed(tiers):
            if type(tier) is not list or not tier:
                return None
            mask = 0
            for b in tier:
                bj = object_index[b]
                if below:
                    worse[bj] = below
                mask |= 1 << bj
            below |= mask
            entries += len(tier)
    except _REFUSED:
        return None
    # a repeated entry sets no bit of its own
    return worse if below.bit_count() == entries and not (below & ~nbr) else None


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
        object pairs.  Each edge and each preference pair is a list or tuple
        of two names.  Pairs may only compare objects adjacent to that agent,
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
        "_edges",
        "_worse",
        "_twin_padding",
    )

    def __init__(
        self,
        agents: Iterable[str],
        objects: Iterable[str],
        edges: Iterable[tuple[str, str]],
        preferences: Mapping[str, Iterable[tuple[str, str]]] | None = None,
    ) -> None:
        self._build(agents, objects, edges, _raise)
        self._order(preferences or {}, _raise)

    def _build(
        self,
        agents: Iterable[str],
        objects: Iterable[str],
        edges: Iterable[tuple[str, str]],
        report: Report,
    ) -> None:
        """Names and edges.  With :meth:`_order` and :meth:`_tier_worse`,
        every check of the instance format below the document level; a
        problem that ``report`` does not raise skips its name, edge,
        preference pair or (for a cycle) the agent's whole order.

        The edge list is one row: it is read in bulk by :func:`_edge_sets`,
        and only a list that read refuses goes through the per-edge checks,
        which word each problem."""
        agent_names = _valid_names(agents, "agent", report)
        object_names = _valid_names(objects, "object", report)
        self._agent_index = agent_index = _index_names(agent_names, "agent", report)
        self._object_index = object_index = _index_names(object_names, "object", report)
        self._agents = tuple(agent_index)
        self._objects = tuple(object_index)

        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # a refused one-shot iterable is read twice
        adj_sets = _edge_sets(edges, agent_index, object_index)
        if adj_sets is None:
            adj_sets = self._checked_edges(edges, report)
        self._adj = adj = tuple(tuple(sorted(row)) for row in adj_sets)
        object_adj: list[list[int]] = [[] for _ in self._objects]
        for ai, row in enumerate(adj):
            for bj in row:
                object_adj[bj].append(ai)
        self._object_adj = tuple(map(tuple, object_adj))
        self._nbr_mask = tuple(sum(1 << j for j in row) for row in adj)
        self._edges = None
        self._twin_padding = (range(0), range(0))

    def _checked_edges(self, edges: list | tuple, report: Report) -> list[set[int]]:
        """Each agent's neighbor indices, from the edge list checked edge by
        edge: the read of a list that :func:`_edge_sets` refuses."""
        find_agent, find_object = self._agent_index.get, self._object_index.get
        adj_sets: list[set[int]] = [set() for _ in self._agents]
        for edge in edges:
            if not _is_pair(edge):
                report(f"edge {edge!r} is not an (agent, object) pair")
                continue
            a, b = edge
            ai = find_agent(a) if isinstance(a, str) else None
            bj = find_object(b) if isinstance(b, str) else None
            if ai is None:
                report(f"edge ({a!r}, {b!r}) references unknown agent {a!r}")
            if bj is None:
                report(f"edge ({a!r}, {b!r}) references unknown object {b!r}")
            if ai is None or bj is None:
                continue
            row = adj_sets[ai]
            if bj in row:
                report(f"duplicate edge ({a!r}, {b!r})")
                continue
            row.add(bj)
        return adj_sets

    @classmethod
    def _assemble(
        cls,
        agent_index: dict[str, int],
        object_index: dict[str, int],
        adj: tuple[tuple[int, ...], ...],
        object_adj: tuple[tuple[int, ...], ...],
        nbr_mask: tuple[int, ...],
        worse: tuple[dict[int, int], ...],
        twin_padding: tuple[range, range] = (range(0), range(0)),
    ) -> Instance:
        """An instance from index data that is already consistent and
        closed, as :func:`popassign.reductions._pad` derives it from a
        checked instance, with the padding's twin classes it records (see
        :attr:`twin_padding`).  Nothing is checked again."""
        instance = cls.__new__(cls)
        instance._agent_index = agent_index
        instance._object_index = object_index
        instance._agents = tuple(agent_index)
        instance._objects = tuple(object_index)
        instance._adj = adj
        instance._object_adj = object_adj
        instance._nbr_mask = nbr_mask
        instance._edges = None
        instance._worse = worse
        instance._twin_padding = twin_padding
        return instance

    def _order(
        self,
        preferences: Mapping[str, Iterable[tuple[str, str]]],
        report: Report,
        closed: Mapping[int, dict[int, int]] | None = None,
    ) -> None:
        """Resolve and close every agent's preferences.  Each agent's
        ``(better, worse)`` pairs are one row, read in bulk by
        :func:`_successor_masks` through a lookup of its own neighbors'
        bits, so that one probe per name both finds the object and checks
        that it is adjacent; an agent without pairs builds no lookup.  Only
        a row that read refuses goes through the per-pair checks, which
        word each problem and skip the pair at fault.  The successor masks
        are closed by :meth:`_close`.  Agents in ``closed`` (index to worse
        masks, as tiers give them) are taken as they are; their entry in
        ``preferences`` is only checked to name a known agent."""
        objects = self._objects
        succ_by_agent: dict[int, dict[int, int]] = {}
        for agent_name, pairs in preferences.items():
            ai = _find(self._agent_index, agent_name)
            if ai is None:
                report(f"preferences reference unknown agent {agent_name!r}")
                continue
            if not isinstance(pairs, (list, tuple)):
                pairs = list(pairs)  # a refused one-shot iterable is read twice
            if not pairs:
                continue
            succ = _successor_masks(pairs, {objects[j]: 1 << j for j in self._adj[ai]})
            if succ is None:
                succ = self._checked_pairs(ai, pairs, report)
            succ_by_agent[ai] = succ

        closed = closed or {}
        worse_by_agent: list[dict[int, int]] = []
        for ai, agent_name in enumerate(self._agents):
            worse = closed.get(ai)
            if worse is None:
                worse = self._close(succ_by_agent.get(ai, {}))
            if worse is None:
                report(f"cyclic preferences for agent {agent_name!r}")
                worse = {}
            worse_by_agent.append(worse)
        self._worse = tuple(worse_by_agent)

    def _checked_pairs(self, ai: int, pairs: list | tuple, report: Report) -> dict[int, int]:
        """Agent ``ai``'s successor masks, from her pairs checked pair by
        pair: the read of a row that :func:`_successor_masks` refuses."""
        agent_name, objects = self._agents[ai], self._objects
        find_neighbor = {objects[j]: j for j in self._adj[ai]}.get
        succ: dict[int, int] = {}
        successors = succ.get
        for pair in pairs:
            if not _is_pair(pair):
                report(f"preference pair {pair!r} for agent {agent_name!r} is not a pair")
                continue
            b, b2 = pair
            bj = find_neighbor(b) if isinstance(b, str) else None
            cj = find_neighbor(b2) if isinstance(b2, str) else None
            if bj is None or cj is None:
                if not (self.has_object(b) and self.has_object(b2)):
                    report(
                        f"preference pair ({b!r}, {b2!r}) for agent {agent_name!r} "
                        "references an unknown object"
                    )
                else:
                    report(
                        f"preference pair ({b!r}, {b2!r}) for agent {agent_name!r} "
                        "compares objects that are not both adjacent to the agent"
                    )
            elif bj == cj:
                report(f"agent {agent_name!r} declares {b!r} better than itself")
            else:
                succ[bj] = successors(bj, 0) | 1 << cj
        return succ

    @staticmethod
    def _close(succ: Mapping[int, int]) -> dict[int, int] | None:
        """Transitive closure of the "strictly better than" relation, given
        as a successor bitmask per node, as a worse-set bitmask per node (left
        out where empty), or None if it has a cycle.  This is the package's
        one cycle check.

        It is a depth-first search in postorder over the inner nodes, those
        with successors; a leaf has nothing to close and lies on no cycle.
        It keeps the nodes on its stack and the inner nodes not yet finished
        as two masks: a node's next successor to visit is the lowest bit of
        ``succ & pending``, and a successor on the stack is a back edge,
        hence a cycle.  A finished node's worse mask is its successors and
        the worse masks of its inner ones, skipping each that an earlier one
        already covers.  It is iterative, so a long chain cannot exhaust the
        interpreter's recursion limit."""
        inner = 0
        for node, below in succ.items():
            if below:
                inner |= 1 << node
        worse: dict[int, int] = {}
        pending = inner
        for root in succ:
            if not pending >> root & 1:
                continue
            on_stack = 1 << root
            stack = [root]
            while stack:
                node = stack[-1]
                below = succ[node]
                todo = below & pending
                if todo:
                    if todo & on_stack:
                        return None
                    bit = todo & -todo
                    on_stack |= bit
                    stack.append(bit.bit_length() - 1)
                    continue
                stack.pop()
                bit = 1 << node
                on_stack ^= bit
                pending ^= bit
                rest = below & inner
                while rest:
                    low = rest & -rest
                    deeper = worse[low.bit_length() - 1]
                    below |= deeper
                    rest &= ~(low | deeper)
                worse[node] = below
        return worse

    def _tier_worse(self, ai: int, tiers: list, report: Report) -> dict[int, int]:
        """Agent ``ai``'s worse masks from a tier list, best tier first: each
        object's is the union of the tiers below its own, so the order comes
        out closed.  Each entry that is not an object adjacent to the agent
        is reported and left out, and so is a tier left empty by that.
        Tiers that are not non-empty lists of distinct strings give one
        report and no order.

        The tier list is one row, read in bulk by :func:`_tiered_worse`;
        only a row that read refuses goes through the per-entry checks,
        which word each problem."""
        worse = _tiered_worse(tiers, self._object_index, self._nbr_mask[ai])
        return self._checked_tiers(ai, tiers, report) if worse is None else worse

    def _checked_tiers(self, ai: int, tiers: list, report: Report) -> dict[int, int]:
        """Agent ``ai``'s worse masks, from her tiers checked entry by
        entry: the read of a row that :func:`_tiered_worse` refuses."""
        agent = self._agents[ai]
        find_object = self._object_index.get
        nbr = self._nbr_mask[ai]
        seen: set[str] = set()
        kept: list[list[int]] = []
        for tier in tiers:
            if not isinstance(tier, list) or not tier:
                report(f"tiers for agent {agent!r} must be non-empty lists")
                return {}
            entries = []
            for b in tier:
                if not isinstance(b, str):
                    report(f"tier entry {b!r} for agent {agent!r} is not a string")
                    return {}
                if b in seen:
                    report(f"object {b!r} appears twice in tiers of agent {agent!r}")
                    return {}
                seen.add(b)
                bj = find_object(b)
                if bj is None:
                    report(f"tier entry {b!r} for agent {agent!r} references an unknown object")
                elif nbr >> bj & 1:
                    entries.append(bj)
                else:
                    report(f"tier entry {b!r} for agent {agent!r} is not adjacent to the agent")
            if entries:
                kept.append(entries)
        worse: dict[int, int] = {}
        below = 0
        for entries in reversed(kept):
            if below:
                for bj in entries:
                    worse[bj] = below
            for bj in entries:
                below |= 1 << bj
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
        agents, objects = self._agents, self._objects
        return tuple((agents[a], objects[b]) for a, b in self.edge_indices)

    @property
    def edge_indices(self) -> tuple[tuple[int, int], ...]:
        """All edges as index pairs, sorted.  Built on first read: the
        solvers walk the adjacency rows, and only the k-margin search and
        serialization need the edges listed one by one."""
        if self._edges is None:
            self._edges = tuple((ai, bj) for ai, row in enumerate(self._adj) for bj in row)
        return self._edges

    def agent_index(self, agent: str) -> int:
        ai = _find(self._agent_index, agent)
        if ai is None:
            raise InstanceError(f"unknown agent {agent!r}")
        return ai

    def object_index(self, obj: str) -> int:
        bj = _find(self._object_index, obj)
        if bj is None:
            raise InstanceError(f"unknown object {obj!r}")
        return bj

    def has_agent(self, agent: str) -> bool:
        return _find(self._agent_index, agent) is not None

    def has_object(self, obj: str) -> bool:
        return _find(self._object_index, obj) is not None

    def has_edge(self, agent: str, obj: str) -> bool:
        ai = _find(self._agent_index, agent)
        bj = _find(self._object_index, obj)
        return ai is not None and bj is not None and bool(self._nbr_mask[ai] >> bj & 1)

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

    @property
    def twin_padding(self) -> tuple[range, range]:
        """The padding's twin classes, as :func:`popassign.reductions._pad`
        records them: a range of agents with one neighbour mask and no
        preferences (the dummies), and a range of objects, the last ones,
        that every source agent ranks tied last and no added agent accepts
        (the artificial objects).  Each is empty where the padding has no
        such class of two or more, and both are on an instance that was not
        padded, a parsed one included.  The level loop matches each class
        as one capacitated vertex (see :mod:`popassign.popular`)."""
        return self._twin_padding

    def twin_classes(self) -> list[int]:
        """Each agent's twin class: the index of the first agent with the
        same neighbors and the same worse mask at each of them.  Every
        construction path stores only the non-empty worse masks, so the
        neighbor mask, the neighbors with a stored mask and their masks in
        index order are that key.  (Sorting those neighbors, plain ints, is
        cheaper than sorting the stored pairs.)"""
        first: dict[tuple, int] = {}
        classes = []
        for ai, (nbr, worse) in enumerate(zip(self._nbr_mask, self._worse)):
            ranked = tuple(sorted(worse))
            key = (nbr, ranked, tuple(map(worse.__getitem__, ranked)))
            classes.append(first.setdefault(key, ai))
        return classes

    def worse_mask(self, ai: int, bj: int) -> int:
        """Bitmask of objects strictly worse than ``bj`` for agent ``ai``."""
        return self._worse[ai].get(bj, 0)

    def dominated(self, ai: int, mask: int) -> int:
        """Bitmask of the objects that some member of ``mask`` beats in
        agent ``ai``'s order.  Worse masks lie inside the neighbor mask, so
        for neighbors ``S``, ``S & ~dominated(ai, S)`` is exactly the
        undominated members of ``S``.  Preferences are closed, so a member
        already in the union adds nothing and leaves the work list."""
        worse = self._worse[ai]
        union = 0
        todo = mask
        while todo:
            bit = todo & -todo
            todo ^= bit
            below = worse.get(bit.bit_length() - 1)
            if below:
                union |= below
                todo &= ~below
        return union

    # -- preference queries --------------------------------------------------

    def vote(self, ai: int, bj: int, cj: int) -> int:
        """Agent ``ai``'s vote for neighbor ``bj`` over neighbor ``cj``: +1
        if ``cj`` is in ``bj``'s worse mask, -1 if ``bj`` is in ``cj``'s,
        0 if they are the same object or incomparable.  The package's one
        comparison rule: :meth:`prefers` and :func:`compare` resolve names
        and call it, and so do the oracles' votes."""
        worse = self._worse[ai]
        if worse.get(bj, 0) >> cj & 1:
            return 1
        if worse.get(cj, 0) >> bj & 1:
            return -1
        return 0

    def pair_indices(self, agent: str, obj: str, other: str) -> tuple[int, int, int]:
        """The indices of ``agent`` and two of her neighbors, for
        :meth:`vote`; raises :class:`InstanceError` on an unknown name or an
        object that is not adjacent to the agent."""
        ai = self.agent_index(agent)
        bj = self.object_index(obj)
        cj = self.object_index(other)
        for j, name in ((bj, obj), (cj, other)):
            if not self._nbr_mask[ai] >> j & 1:
                raise InstanceError(f"object {name!r} is not adjacent to agent {agent!r}")
        return ai, bj, cj

    def prefers(self, agent: str, obj: str, other: str) -> bool:
        """True iff ``agent`` strictly prefers ``obj`` to ``other``.

        Both objects must be adjacent to the agent.
        """
        return self.vote(*self.pair_indices(agent, obj, other)) > 0

    def preference_pairs(self, agent: str) -> tuple[tuple[str, str], ...]:
        """The transitively closed strict pairs of ``agent``, sorted."""
        ai = self.agent_index(agent)
        out = []
        for b, mask in self._worse[ai].items():
            for c in bits(mask):
                out.append((self._objects[b], self._objects[c]))
        return tuple(sorted(out))

    def _tier_masks(self, ai: int) -> list[int] | None:
        """Agent ``ai``'s neighbors as indifference tiers, best first, one
        object mask per tier; None unless the order is a weak ranking.

        Neighbors are grouped by worse mask, smallest first; the order is
        weak iff each group's mask is the union of the groups before it.
        Such a chain is a tiering.  Conversely, in a weak ranking the
        incomparable neighbors share a worse set, so the groups are the
        tiers; and sharing is enough for transitive indifference: if x ~ y
        and y ~ z but x > z, then z is in worse(x) = worse(y), which
        contradicts y ~ z."""
        worse = self._worse[ai]
        groups: dict[int, int] = {}
        for b in self._adj[ai]:
            w = worse.get(b, 0)
            groups[w] = groups.get(w, 0) | (1 << b)
        below = 0
        tiers = []
        for w in sorted(groups, key=int.bit_count):
            if w != below:
                return None
            tiers.append(groups[w])
            below |= groups[w]
        tiers.reverse()
        return tiers

    def is_weak_agent(self, agent: str) -> bool:
        """True iff ``agent``'s indifference is transitive (an ordered-tier
        ranking)."""
        return self._tier_masks(self.agent_index(agent)) is not None

    def has_weak_rankings(self) -> bool:
        return all(self._tier_masks(ai) is not None for ai in range(self.n_agents))

    def _names(self, mask: int) -> tuple[str, ...]:
        return tuple(self._objects[b] for b in bits(mask))

    def tiers(self, agent: str) -> tuple[tuple[str, ...], ...]:
        """The agent's neighbors grouped into indifference tiers, best first.

        Only defined for agents with weak rankings.
        """
        masks = self._tier_masks(self.agent_index(agent))
        if masks is None:
            raise InstanceError(f"agent {agent!r} does not have a weak ranking")
        return tuple(self._names(m) for m in masks)

    # -- serialization -------------------------------------------------------

    def to_document(self) -> dict:
        """A JSON-ready document.  Weak rankings are emitted as tiers, other
        partial orders as the closed pair list."""
        prefs: dict[str, dict] = {}
        for ai, a in enumerate(self._agents):
            if not self._worse[ai]:
                continue
            masks = self._tier_masks(ai)
            if masks is not None:
                prefs[a] = {"tiers": [list(self._names(m)) for m in masks]}
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
            f"{len(self.edge_indices)} edges)"
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
            if not _is_pair(pair):
                raise MatchingError(f"matching pair {pair!r} is not an (agent, object) pair")
            a, b = pair
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

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair: object) -> bool:
        return _is_pair(pair) and isinstance(pair[0], str) and \
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


_COMPARISONS = {
    1: PrefComparison.PREFERS,
    -1: PrefComparison.DISPREFERRED,
    0: PrefComparison.INDIFFERENT,
}


def compare(instance: Instance, agent: str, obj: str, other: str) -> PrefComparison:
    """Compare two of ``agent``'s neighbors from her point of view, by
    :meth:`Instance.vote`."""
    return _COMPARISONS[instance.vote(*instance.pair_indices(agent, obj, other))]


# -- documents ---------------------------------------------------------------


def _document_shape(doc: Any, what: str, lists: tuple[str, ...], report: Report) -> bool:
    """Check the top level of an instance or market document: a JSON object
    with the named ``lists`` and no key but those and ``preferences``.
    Returns whether every list is there."""
    if not isinstance(doc, dict):
        report(f"{what} document must be a JSON object")
        return False
    shaped = True
    for key in lists:
        if key not in doc:
            report(f"{what} document is missing the {key!r} list")
            shaped = False
        elif not isinstance(doc[key], list):
            report(f"{key!r} must be a list")
            shaped = False
    unknown = set(doc) - {*lists, "preferences"}
    if unknown:
        report(f"unknown top-level keys: {sorted(unknown)}")
    return shaped


def _preference_specs(doc: dict, kinds: tuple[str, ...], report: Report) -> dict:
    """The document's preferences as ``{agent: (kind, body)}``: each spec
    is an object with one key, one of ``kinds``, whose value is a list.
    Agents are checked against the names later."""
    raw = doc.get("preferences", {})
    if not isinstance(raw, dict):
        report("'preferences' must be an object keyed by agent")
        return {}
    specs = {}
    for agent, spec in raw.items():
        if not isinstance(spec, dict) or len(spec) != 1 or next(iter(spec)) not in kinds:
            shapes = " or ".join(f"{{{kind!r}: [...]}}" for kind in kinds)
            report(f"preferences for agent {agent!r} must be exactly one of {shapes}")
            continue
        ((kind, body),) = spec.items()
        if not isinstance(body, list):
            report(f"{kind!r} for agent {agent!r} must be a list")
            continue
        specs[agent] = (kind, body)
    return specs


def _from_document(doc: Any, report: Report) -> Instance | None:
    """The one parse-and-validate path: check the document's shape, then
    build the instance, sending every problem to ``report``.  Returns None
    only when ``report`` does not raise and the document lacks one of its
    three lists."""
    if not _document_shape(doc, "instance", ("agents", "objects", "edges"), report):
        return None
    specs = _preference_specs(doc, ("pairs", "tiers"), report)
    instance = Instance.__new__(Instance)
    instance._build(doc["agents"], doc["objects"], doc["edges"], report)
    # tiers become worse masks once the graph is built, and their agents
    # give _order no pairs; _order reports an unknown agent, reading no pair
    closed: dict[int, dict[int, int]] = {}
    preferences = {}
    for agent, (kind, body) in specs.items():
        ai = _find(instance._agent_index, agent)
        if kind == "tiers" and ai is not None:
            closed[ai] = instance._tier_worse(ai, body, report)
            body = ()
        preferences[agent] = body
    instance._order(preferences, report, closed)
    return instance


def instance_from_document(doc: Any) -> Instance:
    """Build an :class:`Instance` from a parsed JSON document."""
    return _from_document(doc, _raise)


def _decode(source: str) -> Any:
    try:
        return json.loads(source)
    # text nested deeper than the recursion limit is bad input, not a crash
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector off, and turn it back
    on after only if it was on before.  A decoded document and the instance
    built from it hold no reference cycles, so the collector's passes over
    their many young objects would find nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_instance(source: str) -> Instance:
    """Parse a JSON instance document (see README for the schema)."""
    with _gc_paused():
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
    :func:`parse_instance`) raises.  Problems come in build order: the
    document's shape and its preference specs, then names, edges, tiers,
    preference pairs and cycles.  Each later one is found after skipping the
    name, edge, preference pair or agent order at fault; a document missing
    one of its three lists is checked no further.

    Accepts raw JSON text, a parsed document, or an already-built
    :class:`Instance` (which is valid by construction).
    """
    if isinstance(source, Instance):
        return ValidationReport(True, ())
    problems: list[str] = []
    with _gc_paused():
        if isinstance(source, str):
            try:
                source = _decode(source)
            except InstanceError as exc:
                return ValidationReport(False, (str(exc),))
        _from_document(source, problems.append)
    return ValidationReport(not problems, tuple(problems))

