"""Undirected multi-graphs with directed-edge bookkeeping and edge contraction.

Nodes carry ordered incidence lists of *directed edges* (the two orientations
of each undirected edge).  A normal edge contributes its positive orientation
to the tail node and its negative orientation to the head node; a self-edge
contributes both orientations to its single node.  The incidence order is
significant: factor tables and gauge polynomials downstream index their
variables by it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

NodeId = str
EdgeId = str


class DirectedEdge(NamedTuple):
    """One orientation of an undirected edge.

    ``positive`` selects between the two siblings; ``sibling`` is the
    reversal, an involution.  A tuple, so hashing and comparing a dart run
    in C; it equals the plain tuple ``(edge, positive)``.
    """

    edge: EdgeId
    positive: bool = True

    @property
    def sibling(self) -> "DirectedEdge":
        return DirectedEdge(self.edge, not self.positive)

    def __str__(self) -> str:
        return f"{self.edge}{'+' if self.positive else '-'}"

    @classmethod
    def parse(cls, name: str) -> "DirectedEdge":
        """Parse the ``<edge>+`` / ``<edge>-`` textual form."""
        if len(name) < 2 or name[-1] not in "+-":
            raise ValueError(f"not a directed-edge name: {name!r}")
        return cls(name[:-1], name[-1] == "+")


class GraphError(ValueError):
    """Malformed graph or reference to a missing node/edge."""


@dataclass(frozen=True)
class MultiGraph:
    """Immutable multi-graph: parallel edges and self-edges allowed.

    Attributes:
        nodes: node ids, in construction order.
        edges: undirected edge ids, in construction order.
        endpoints: edge id -> (tail, head); tail == head marks a self-edge.
        incidence: node id -> ordered tuple of incident directed edges.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[EdgeId, ...]
    endpoints: Mapping[EdgeId, tuple[NodeId, NodeId]]
    incidence: Mapping[NodeId, tuple[DirectedEdge, ...]]

    @classmethod
    def build(
        cls,
        nodes: Sequence[NodeId],
        edges: Iterable[tuple[EdgeId, NodeId, NodeId]],
    ) -> "MultiGraph":
        """Build a graph from node ids and ``(edge, tail, head)`` triples.

        The tail receives the positive orientation, the head the negative
        one; a self-edge places both, positive first, on its node.
        """
        node_tuple = tuple(nodes)
        if len(set(node_tuple)) != len(node_tuple):
            raise GraphError("duplicate node ids")
        incidence: dict[NodeId, list[DirectedEdge]] = {a: [] for a in node_tuple}
        endpoints: dict[EdgeId, tuple[NodeId, NodeId]] = {}
        edge_ids: list[EdgeId] = []
        for edge, tail, head in edges:
            if edge in endpoints:
                raise GraphError(f"duplicate edge id {edge!r}")
            for a in (tail, head):
                if a not in incidence:
                    raise GraphError(f"edge {edge!r} references unknown node {a!r}")
            endpoints[edge] = (tail, head)
            edge_ids.append(edge)
            incidence[tail].append(DirectedEdge(edge, True))
            incidence[head].append(DirectedEdge(edge, False))
        return cls(
            nodes=node_tuple,
            edges=tuple(edge_ids),
            endpoints=endpoints,
            incidence={a: tuple(ds) for a, ds in incidence.items()},
        )

    # -- queries ---------------------------------------------------------

    def is_self_edge(self, edge: EdgeId) -> bool:
        tail, head = self._endpoints_of(edge)
        return tail == head

    def sibling(self, d: DirectedEdge) -> DirectedEdge:
        """Reversal of ``d``; involutive."""
        self._endpoints_of(d.edge)
        return d.sibling

    def owner(self, d: DirectedEdge) -> NodeId:
        """Node whose incidence list holds ``d``."""
        tail, head = self._endpoints_of(d.edge)
        return tail if d.positive else head

    def directed_edges(self) -> tuple[DirectedEdge, ...]:
        """All directed edges in node-then-incidence order."""
        return tuple(d for a in self.nodes for d in self.incidence[a])

    def connected_components(self) -> int:
        """Number of connected components (isolated nodes count)."""
        parent = {a: a for a in self.nodes}

        def find(a: NodeId) -> NodeId:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for edge in self.edges:
            tail, head = self.endpoints[edge]
            parent[find(tail)] = find(head)
        return len({find(a) for a in self.nodes})

    def cycle_rank(self) -> int:
        """Self-edge count of the fully contracted graph: |E| - |V| + #components."""
        return len(self.edges) - len(self.nodes) + self.connected_components()

    def perfect_matchings(self) -> list[list[EdgeId]] | None:
        """The edges split into ``k`` perfect matchings, or ``None`` unless
        the graph is bipartite (so has no self-edge) and every node has the
        same number ``k >= 1`` of incident edges.

        By König's theorem such a multi-graph's edges take ``k`` colours with
        no colour twice at a node, and as every node has ``k`` edges each
        colour is a perfect matching.  Edges are coloured in sorted order:
        edge ``uv`` takes ``alpha``, the smallest colour free at ``u``; if
        ``alpha`` is taken at ``v``, the path from ``v`` whose edges alternate
        ``alpha`` and ``beta``, the smallest colour free at ``v``, first
        swaps the two (a Kempe chain: on a bipartite graph it cannot reach
        ``u``).  The matchings are listed by colour, each sorted.
        """
        degrees = {len(self.incidence[a]) for a in self.nodes}
        if len(degrees) != 1 or 0 in degrees:
            return None
        (k,) = degrees
        side: dict[NodeId, bool] = {}
        for root in self.nodes:  # two-colour each component, depth first
            if root in side:
                continue
            side[root], todo = False, [root]
            while todo:
                a = todo.pop()
                for d in self.incidence[a]:
                    b = self.endpoints[d.edge][d.positive]  # the other end
                    if b not in side:
                        side[b] = not side[a]
                        todo.append(b)
                    elif side[b] == side[a]:
                        return None
        at: dict[NodeId, list[EdgeId | None]] = {a: [None] * k for a in self.nodes}
        for e in sorted(self.edges):
            u, v = self.endpoints[e]
            alpha, beta = at[u].index(None), at[v].index(None)
            path, a, c = [], v, alpha
            while at[a][c] is not None:
                f = at[a][c]
                path.append((f, c))
                a = self.endpoints[f][self.endpoints[f][0] == a]
                c = alpha + beta - c
            for f, c in path:
                for b in self.endpoints[f]:
                    at[b][c] = None
            for f, c in path:
                for b in self.endpoints[f]:
                    at[b][alpha + beta - c] = f
            at[u][alpha] = at[v][alpha] = e
        sides = [a for a in self.nodes if not side[a]]
        return [sorted(at[a][c] for a in sides) for c in range(k)]

    def check_order(self, order: Sequence[EdgeId]) -> None:
        """Raise :class:`GraphError` unless ``order`` lists every edge once.

        The message names the edges the order misses, those it repeats and
        those the graph does not have.
        """
        seen = Counter(order)
        faults = {
            "missing": [e for e in self.edges if e not in seen],
            "repeated": [e for e, n in seen.items() if n > 1],
            "unknown": [e for e in seen if e not in self.endpoints],
        }
        detail = "; ".join(
            f"{what} {', '.join(map(repr, edges))}"
            for what, edges in faults.items()
            if edges
        )
        if detail:
            raise GraphError(f"order must list every edge exactly once: {detail}")

    def _endpoints_of(self, edge: EdgeId) -> tuple[NodeId, NodeId]:
        try:
            return self.endpoints[edge]
        except KeyError:
            raise GraphError(f"unknown edge {edge!r}") from None

    # -- contraction -----------------------------------------------------

    def contract_edge(self, edge: EdgeId) -> "MultiGraph":
        """Remove ``edge``, merging its endpoints if they are distinct.

        On a merge the smaller node id survives and inherits the remaining
        incident directed edges of both endpoints, its own first.  Edges
        that ran between the merged pair become self-edges of the survivor.
        A self-edge is simply deleted.
        """
        tail, head = self._endpoints_of(edge)
        if tail == head:
            incidence = dict(self.incidence)
            incidence[tail] = tuple(d for d in incidence[tail] if d.edge != edge)
            endpoints = {e: v for e, v in self.endpoints.items() if e != edge}
            return MultiGraph(
                nodes=self.nodes,
                edges=tuple(e for e in self.edges if e != edge),
                endpoints=endpoints,
                incidence=incidence,
            )
        survivor, absorbed = (tail, head) if tail <= head else (head, tail)
        merged = tuple(d for d in self.incidence[survivor] if d.edge != edge) + tuple(
            d for d in self.incidence[absorbed] if d.edge != edge
        )
        incidence = {a: ds for a, ds in self.incidence.items() if a != absorbed}
        incidence[survivor] = merged
        remap = lambda a: survivor if a == absorbed else a  # noqa: E731
        endpoints = {
            e: (remap(t), remap(h))
            for e, (t, h) in self.endpoints.items()
            if e != edge
        }
        return MultiGraph(
            nodes=tuple(a for a in self.nodes if a != absorbed),
            edges=tuple(e for e in self.edges if e != edge),
            endpoints=endpoints,
            incidence=incidence,
        )

    def normal_first_order(self) -> list[EdgeId]:
        """Greedy elimination order eliminating normal edges while any exist.

        At each step the smallest-id normal edge of the *current* graph is
        picked, falling back to the smallest-id self-edge (contraction keeps
        creating new self-edges, so the order is computed incrementally).
        """
        order: list[EdgeId] = []
        g = self
        while g.edges:
            normal = sorted(e for e in g.edges if not g.is_self_edge(e))
            pick = normal[0] if normal else sorted(g.edges)[0]
            order.append(pick)
            g = g.contract_edge(pick)
        return order
