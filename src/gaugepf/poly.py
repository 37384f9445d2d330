"""Factored multilinear polynomials over directed-edge variables.

The gauge function's numerator is a product of per-node multilinear
polynomials.  Contracting an edge applies the operator
``(1 + d/dx_plus d/dx_minus)((1 + x_plus x_minus) * .) | x=0`` which, on the
quadratic expansion ``H00 + H10 x_plus + H01 x_minus + H11 x_plus x_minus``,
keeps ``H00 + H11``.  For a normal edge this merges the two owning node
polynomials; for a self-edge it shrinks one.  Polynomials stay factored
throughout; only contraction merges factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import FactorTable, MultiGM
from .multigraph import DirectedEdge, EdgeId, GraphError, MultiGraph, NodeId

MAX_NODE_POLY_VARS = 20


class PolyError(ValueError):
    """Invalid polynomial operation."""


@dataclass(frozen=True)
class NodePoly:
    """Multilinear polynomial in a node's directed-edge variables.

    ``coeffs`` maps a variable-subset bitmask (bit i = ``variables[i]``) to
    its monomial coefficient; absent masks are zero.
    """

    node: NodeId
    variables: tuple[DirectedEdge, ...]
    coeffs: Mapping[int, float]

    def evaluate(self, values: Mapping[DirectedEdge, float]) -> float:
        total = 0.0
        for mask, c in self.coeffs.items():
            term = c
            for i, d in enumerate(self.variables):
                if mask >> i & 1:
                    term *= values[d]
            total += term
        return total

    def partial_evaluate(
        self, fixed: Mapping[DirectedEdge, float], free: tuple[DirectedEdge, ...]
    ) -> dict[int, float]:
        """Collapse all variables except ``free`` to numbers.

        Returns a coefficient map keyed by bitmask over ``free``.
        """
        slot = {d: j for j, d in enumerate(free)}
        out: dict[int, float] = {}
        for mask, c in self.coeffs.items():
            key = 0
            term = c
            for i, d in enumerate(self.variables):
                if mask >> i & 1:
                    if d in slot:
                        key |= 1 << slot[d]
                    else:
                        term *= fixed[d]
            out[key] = out.get(key, 0.0) + term
        return out


@dataclass(frozen=True)
class QuadCoeffs:
    """Coefficients of a polynomial viewed as quadratic in one edge's pair.

    ``h10`` multiplies the positive orientation, ``h01`` the negative one.
    """

    h00: float
    h10: float
    h01: float
    h11: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.h00, self.h10, self.h01, self.h11)


@dataclass(frozen=True)
class FactoredGaugePoly:
    """Product of node polynomials plus the set of live undirected edges."""

    factors: tuple[NodePoly, ...]
    edges: tuple[EdgeId, ...]

    def live_variables(self) -> tuple[DirectedEdge, ...]:
        return tuple(d for p in self.factors for d in p.variables)

    def factor_of(self, d: DirectedEdge) -> int:
        for i, p in enumerate(self.factors):
            if d in p.variables:
                return i
        raise GraphError(f"directed edge {d} not live in this polynomial")

    def evaluate(self, values: Mapping[DirectedEdge, float]) -> float:
        out = 1.0
        for p in self.factors:
            out *= p.evaluate(values)
        return out


def _check_node_size(node: NodeId, n_vars: int) -> None:
    if n_vars > MAX_NODE_POLY_VARS:
        raise PolyError(
            f"node {node!r} has {n_vars} variables; the factored-"
            f"polynomial layer caps at {MAX_NODE_POLY_VARS} - reduce the "
            "instance size"
        )


def _check_merge_size(edge: EdgeId, n_vars: int) -> None:
    if n_vars > MAX_NODE_POLY_VARS:
        raise PolyError(
            f"contracting {edge!r} would create a polynomial with "
            f"{n_vars} variables; the cap is "
            f"{MAX_NODE_POLY_VARS} - reduce the instance size"
        )


def check_contraction_sizes(g: MultiGraph, order: Sequence[EdgeId]) -> None:
    """Raise the ``PolyError`` that ``build`` followed by ``exact_contract_poly``
    along ``order`` would raise, from the graph's slot counts alone."""
    for a in g.nodes:
        _check_node_size(a, len(g.incidence[a]))
    for e in order:
        tail, head = g.endpoints[e]
        if tail != head:
            _check_merge_size(e, len(g.incidence[tail]) + len(g.incidence[head]) - 2)
        g = g.contract_edge(e)


def node_poly_from_factor(f: FactorTable) -> NodePoly:
    """Monomial map of a factor table: subset mask -> table entry (zeros dropped)."""
    _check_node_size(f.node, len(f.variables))
    coeffs = {i: float(v) for i, v in enumerate(f.table) if v != 0.0}
    return NodePoly(node=f.node, variables=f.variables, coeffs=coeffs)


def build(m: MultiGM) -> FactoredGaugePoly:
    """Factored numerator polynomial of the model's gauge function."""
    return FactoredGaugePoly(
        factors=tuple(node_poly_from_factor(m.factors[a]) for a in m.graph.nodes),
        edges=tuple(m.graph.edges),
    )


def quad_coeffs(
    h: FactoredGaugePoly, edge: EdgeId, x_rest: Mapping[DirectedEdge, float]
) -> QuadCoeffs:
    """Coefficients of ``h`` as quadratic in the edge's orientation pair.

    All other live variables are evaluated at ``x_rest``.  For a normal
    edge (orientations in different factors) ``h00*h11 == h10*h01`` up to
    rounding, since the dependence factorizes.
    """
    if edge not in h.edges:
        raise GraphError(f"edge {edge!r} not live in this polynomial")
    d_p, d_q = DirectedEdge(edge, True), DirectedEdge(edge, False)
    for d in h.live_variables():
        if d.edge != edge and d not in x_rest:
            raise PolyError(f"missing value for live variable {d}")
    i_p, i_q = h.factor_of(d_p), h.factor_of(d_q)
    rest = 1.0
    for j, p in enumerate(h.factors):
        if j not in (i_p, i_q):
            rest *= p.evaluate(x_rest)
    if i_p == i_q:
        quad = h.factors[i_p].partial_evaluate(x_rest, (d_p, d_q))
        return QuadCoeffs(
            h00=quad.get(0, 0.0) * rest,
            h10=quad.get(1, 0.0) * rest,
            h01=quad.get(2, 0.0) * rest,
            h11=quad.get(3, 0.0) * rest,
        )
    lin_p = h.factors[i_p].partial_evaluate(x_rest, (d_p,))
    lin_q = h.factors[i_q].partial_evaluate(x_rest, (d_q,))
    a0, a1 = lin_p.get(0, 0.0), lin_p.get(1, 0.0)
    b0, b1 = lin_q.get(0, 0.0), lin_q.get(1, 0.0)
    return QuadCoeffs(
        h00=a0 * b0 * rest, h10=a1 * b0 * rest, h01=a0 * b1 * rest, h11=a1 * b1 * rest
    )


def _merge_masks(
    p_parts: tuple[dict[int, float], dict[int, float]],
    q_parts: tuple[dict[int, float], dict[int, float]],
    shift: int,
) -> dict[int, float]:
    """Sparse product-and-add ``P0*Q0 + P1*Q1`` over disjoint variable sets."""
    out: dict[int, float] = {}
    for p_map, q_map in zip(p_parts, q_parts):
        for mp, cp in p_map.items():
            for mq, cq in q_map.items():
                key = mp | (mq << shift)
                out[key] = out.get(key, 0.0) + cp * cq
    return {k: v for k, v in out.items() if v != 0.0}


def _split_on(p: NodePoly, d: DirectedEdge) -> tuple[dict[int, float], dict[int, float]]:
    """Split coefficients by the bit of ``d``, re-keyed over the remaining variables."""
    keep = tuple(v for v in p.variables if v != d)
    slot = {v: j for j, v in enumerate(keep)}
    bit_d = p.variables.index(d)
    without: dict[int, float] = {}
    with_: dict[int, float] = {}
    for mask, c in p.coeffs.items():
        key = 0
        for i, v in enumerate(p.variables):
            if i != bit_d and mask >> i & 1:
                key |= 1 << slot[v]
        target = with_ if mask >> bit_d & 1 else without
        target[key] = c
    return without, with_


def exact_contract_poly(h: FactoredGaugePoly, edge: EdgeId) -> FactoredGaugePoly:
    """Apply the differentiate-and-marginalize operator for one edge.

    Keeps the ``H00 + H11`` part of the quadratic expansion symbolically:
    a normal edge merges its two node polynomials (survivor's variables
    first); a self-edge shrinks its single polynomial.  Matches the model-
    level table contraction coefficient for coefficient.
    """
    if edge not in h.edges:
        raise GraphError(f"edge {edge!r} not live in this polynomial")
    d_p, d_q = DirectedEdge(edge, True), DirectedEdge(edge, False)
    i_p, i_q = h.factor_of(d_p), h.factor_of(d_q)
    if i_p == i_q:
        p = h.factors[i_p]
        keep = tuple(v for v in p.variables if v.edge != edge)
        slot = {v: j for j, v in enumerate(keep)}
        bit_p, bit_q = p.variables.index(d_p), p.variables.index(d_q)
        coeffs: dict[int, float] = {}
        for mask, c in p.coeffs.items():
            if (mask >> bit_p & 1) != (mask >> bit_q & 1):
                continue
            key = 0
            for i, v in enumerate(p.variables):
                if i not in (bit_p, bit_q) and mask >> i & 1:
                    key |= 1 << slot[v]
            coeffs[key] = coeffs.get(key, 0.0) + c
        merged = NodePoly(node=p.node, variables=keep, coeffs=coeffs)
        factors = tuple(
            merged if j == i_p else q for j, q in enumerate(h.factors)
        )
    else:
        p, q = h.factors[i_p], h.factors[i_q]
        survivor, absorbed = (i_p, i_q) if p.node <= q.node else (i_q, i_p)
        p_s, p_a = h.factors[survivor], h.factors[absorbed]
        d_s = d_p if survivor == i_p else d_q
        d_a = d_q if survivor == i_p else d_p
        keep_s = tuple(v for v in p_s.variables if v != d_s)
        keep_a = tuple(v for v in p_a.variables if v != d_a)
        _check_merge_size(edge, len(keep_s) + len(keep_a))
        coeffs = _merge_masks(_split_on(p_s, d_s), _split_on(p_a, d_a), len(keep_s))
        merged = NodePoly(
            node=p_s.node, variables=keep_s + keep_a, coeffs=coeffs
        )
        factors = tuple(
            merged if j == survivor else q
            for j, q in enumerate(h.factors)
            if j != absorbed
        )
    return FactoredGaugePoly(
        factors=factors, edges=tuple(e for e in h.edges if e != edge)
    )


def zeta_eval(h: FactoredGaugePoly, values: Mapping[DirectedEdge, float]) -> float:
    """Gauge function of the (possibly contracted) polynomial at ``values``.

    ``h(x) / prod_live (1 + x_plus x_minus)``; with no live edges this is
    the fully contracted scalar, the partition function itself.
    """
    num = h.evaluate(values)
    den = 1.0
    for e in h.edges:
        den *= 1.0 + values[DirectedEdge(e, True)] * values[DirectedEdge(e, False)]
    return num / den


@dataclass(frozen=True)
class BistableSampleReport:
    """Sampled check of ``h01*h10 <= h00*h11`` at one edge.

    ``worst_ratio`` is the largest observed ``h01*h10 / (h00*h11)``; values
    at or below 1 (up to rounding slack) pass.
    """

    edge: EdgeId
    n_samples: int
    n_pass: int
    worst_ratio: float
    samples: tuple[QuadCoeffs, ...]

    @property
    def all_pass(self) -> bool:
        return self.n_pass == self.n_samples


def bistable_condition_sample(
    h: FactoredGaugePoly,
    edge: EdgeId,
    n_samples: int,
    rng_seed: int,
    rel_slack: float = 1e-9,
) -> BistableSampleReport:
    """Sample positive points for the other variables and test the product condition.

    Normal edges satisfy it with equality (the quadratic factorizes), so a
    small relative slack absorbs rounding.  Failures are informative, not
    errors: they mark edges where the BP reduction may overshoot.
    """
    if edge not in h.edges:
        raise GraphError(f"edge {edge!r} not live in this polynomial")
    rng = np.random.default_rng(rng_seed)
    rest_vars = sorted(
        (d for d in h.live_variables() if d.edge != edge), key=str
    )
    n_pass = 0
    worst = 0.0
    samples = []
    for _ in range(n_samples):
        x_rest = {
            d: float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            for d in rest_vars
        }
        c = quad_coeffs(h, edge, x_rest)
        samples.append(c)
        bound = c.h00 * c.h11
        ratio = c.h01 * c.h10 / bound if bound > 0 else (
            0.0 if c.h01 * c.h10 == 0 else np.inf
        )
        worst = max(worst, ratio)
        if ratio <= 1.0 + rel_slack:
            n_pass += 1
    return BistableSampleReport(
        edge=edge,
        n_samples=n_samples,
        n_pass=n_pass,
        worst_ratio=worst,
        samples=tuple(samples),
    )
