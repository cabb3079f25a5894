"""Exact marginals and partition functions for small graphs.

Everything runs in log space. `brute_force_marginal` enumerates the component
of the query, up to `MAX_BRUTE_NODES` nodes; `eliminate_marginal` and
`log_partition` run bucket elimination, always along `min_fill_order`, and
only cap the largest intermediate clique at `MAX_CLIQUE` variables, so they
handle long chains and narrow strips of any length. Both caps are constants
that no caller sets.

Every variable is binary, so summing one out is a two-term log-add-exp
(`marginalize`), bit-identical to `scipy.special.logsumexp` on two values.
Elimination keeps, per variable, the live factors that touch it, so no step
scans the whole factor list; products and the factors left keep list order.
`min_fill_order` pops nodes from a heap of (fill, id), keeps each node's count
of edges among its neighbours up to date, and rescores after each elimination
only the nodes whose fill can change, which gives the order a full rescan
would.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    IsingModel,
    LocalMRFError,
    ModelError,
    connected_component,
    connected_components,
)

MAX_BRUTE_NODES = 22
MAX_CLIQUE = 22


class GraphTooLargeError(LocalMRFError):
    """Component exceeds the brute-force enumeration cap."""


class CliqueTooLargeError(LocalMRFError):
    """Elimination produced a factor over too many variables."""


@dataclass
class Factor:
    """Log-space table over {-1,+1}^scope.

    scope is a tuple of distinct node ids in ascending order; table has shape
    (2,)*len(scope) with axis order matching scope and index 0 <-> spin -1,
    1 <-> spin +1. Flattened in C order this is the lexicographic order with
    -1 before +1.
    """

    scope: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        assert self.table.shape == (2,) * len(self.scope)
        assert list(self.scope) == sorted(self.scope)


def _embed(factor: Factor, scope: tuple[int, ...]) -> np.ndarray:
    """Return factor.table reshaped to broadcast over scope, an ascending
    superset of the factor's (ascending) scope."""
    return factor.table.reshape([2 if v in factor.scope else 1 for v in scope])


def multiply(factors: list[Factor]) -> Factor:
    scope = tuple(sorted(set().union(*(f.scope for f in factors))))
    if len(scope) > MAX_CLIQUE:
        raise CliqueTooLargeError(
            f"elimination clique has {len(scope)} variables (cap {MAX_CLIQUE})"
        )
    table = np.zeros((2,) * len(scope))
    for f in factors:
        table += _embed(f, scope)
    return Factor(scope, table)


def marginalize(factor: Factor, var: int) -> Factor:
    """Sum `var` out of the factor in log space.

    Every axis has length 2, so this is a binary log-add-exp,
    hi + log1p(exp(lo - hi)): the arithmetic `scipy.special.logsumexp` does
    for two values, bit for bit (a tie gives log1p(1) == log(2)), without its
    per-call dispatch.
    """
    axis = factor.scope.index(var)
    scope = factor.scope[:axis] + factor.scope[axis + 1 :]
    lead = (slice(None),) * axis
    a = factor.table[lead + (0,)]
    b = factor.table[lead + (1,)]
    hi = np.maximum(a, b)
    return Factor(scope, hi + np.log1p(np.exp(np.minimum(a, b) - hi)))


def _model_factors(model: IsingModel, nodes: tuple[int, ...]) -> list[Factor]:
    """One factor h_i x_i per node, then one J_uv x_u x_v per edge inside
    `nodes` in edge order; each kind's tables come from one outer product."""
    node_set = set(nodes)
    spin = np.array([-1.0, 1.0])
    unary = np.multiply.outer(model.h[list(nodes)], spin)
    factors = [Factor((i,), table) for i, table in zip(nodes, unary)]
    edges = [(e, j) for e, j in model.J.items() if e[0] in node_set and e[1] in node_set]
    pairs = np.multiply.outer([j for _, j in edges], np.outer(spin, spin))
    factors += [Factor(e, table) for (e, _), table in zip(edges, pairs)]
    return factors


def min_fill_order(model: IsingModel, nodes: tuple[int, ...], keep: tuple[int, ...] = ()) -> list[int]:
    """Min-fill elimination order over `nodes` minus `keep`, ties to lowest id.

    The fill of v is the number of non-adjacent pairs among its neighbours,
    C(d, 2) minus the edges among them; each node keeps that edge count.
    Eliminating x removes x, which takes |N(a) & N(x)| edges from the count
    of each neighbour a, and joins its neighbours pairwise. A new fill edge
    (a, b) adds |N(a) & N(b)| to the counts of a and b and 1 to the count of
    each of their common neighbours. So only x's neighbours and the common
    neighbours of each fill edge's ends change their fill, and only they are
    rescored. The next node is popped from a heap of (fill, id), skipping
    entries whose fill is stale.
    """
    import heapq

    node_set = set(nodes)
    adj: dict[int, set[int]] = {
        i: {v for v in model.adjacency[i] if v in node_set} for i in nodes
    }
    inner = {v: sum(len(adj[u] & nbrs) for u in nbrs) // 2 for v, nbrs in adj.items()}

    def fill(v: int) -> int:
        d = len(adj[v])
        return d * (d - 1) // 2 - inner[v]

    keep_set = set(keep)
    fills = {v: fill(v) for v in nodes if v not in keep_set}
    heap = [(f, v) for v, f in fills.items()]
    heapq.heapify(heap)
    order: list[int] = []
    while fills:
        f, best = heapq.heappop(heap)
        if fills.get(best) != f:
            continue
        del fills[best]
        order.append(best)
        nbrs = adj.pop(best)
        for a in nbrs:
            adj[a].discard(best)
            inner[a] -= len(adj[a] & nbrs)
        touched = set(nbrs)
        for a in nbrs:
            for b in nbrs:
                if a < b and b not in adj[a]:
                    common = adj[a] & adj[b]
                    inner[a] += len(common)
                    inner[b] += len(common)
                    for w in common:
                        inner[w] += 1
                    touched |= common
                    adj[a].add(b)
                    adj[b].add(a)
        for v in touched:
            if v in fills:
                f = fill(v)
                if f != fills[v]:
                    fills[v] = f
                    heapq.heappush(heap, (f, v))
    return order


def _eliminate(factors: list[Factor], order: list[int]) -> list[Factor]:
    """Sum each variable of `order` out in turn; returns the factors left.

    Factors are tagged with their position in the list, and a new factor is
    tagged after all others, so each product adds its factors, and the
    result lists them, in the order of a list that drops the factors it
    multiplies and appends their marginal. Each variable keeps the tags of
    the factors that touch it in ascending order; a tag whose factor was
    already multiplied into another is skipped.
    """
    live = dict(enumerate(factors))
    buckets: dict[int, list[int]] = {}
    for tag, f in live.items():
        for v in f.scope:
            buckets.setdefault(v, []).append(tag)
    tag = len(factors)
    for var in order:
        touching = [live.pop(t) for t in buckets.pop(var, ()) if t in live]
        marginal = marginalize(multiply(touching), var)
        live[tag] = marginal
        for v in marginal.scope:
            buckets[v].append(tag)
        tag += 1
    return list(live.values())


def _p_plus(log_minus: float, log_plus: float) -> float:
    """p(+1) = 1 / (1 + exp(l- - l+)) from the two unnormalised log masses.

    Past about 709 the exponential overflows to inf and the result is its
    limit 0.0; the overflow is expected, so numpy does not warn about it.
    """
    with np.errstate(over="ignore"):
        return float(1.0 / (1.0 + np.exp(log_minus - log_plus)))


def eliminate_marginal(model: IsingModel, node: int) -> float:
    """p(x_node = +1) by bucket elimination on the node's component, along
    the min-fill order with ascending-id tie breaks."""
    comp = connected_component(model, node)
    order = min_fill_order(model, comp, keep=(node,))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        factors = _eliminate(_model_factors(model, comp), order)
        log_p = np.zeros(2)
        for f in factors:
            if f.scope == (node,):
                log_p = log_p + f.table
            elif f.scope == ():
                log_p = log_p + f.table  # additive constant, cancels below
            else:  # pragma: no cover - elimination above makes this unreachable
                raise LocalMRFError(f"unexpected residual scope {f.scope}")
    if not np.all(np.isfinite(log_p)):
        raise ModelError(f"elimination overflows: log p(x_{node}) is {log_p.tolist()}")
    return _p_plus(log_p[0], log_p[1])


def log_partition(model: IsingModel) -> float:
    """log Z of the whole model (sums over components)."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for comp in connected_components(model):
            order = min_fill_order(model, comp)
            factors = _eliminate(_model_factors(model, comp), order)
            total += float(sum(f.table for f in factors))
    if not np.isfinite(total):
        raise ModelError(f"elimination overflows: log Z is {total}")
    return total


def brute_force_marginal(model: IsingModel, node: int) -> float:
    """p(x_node = +1) by enumerating the node's component.

    Raises:
        GraphTooLargeError: the component has more than MAX_BRUTE_NODES nodes.
        ModelError: a log mass overflows, as elimination reports it.
    """
    from scipy.special import logsumexp  # scipy.special takes most of the package's import time

    comp = connected_component(model, node)
    m = len(comp)
    if m > MAX_BRUTE_NODES:
        raise GraphTooLargeError(f"component has {m} nodes (cap {MAX_BRUTE_NODES})")
    pos = {g: i for i, g in enumerate(comp)}
    idx = np.arange(1 << m, dtype=np.int64)

    def spins(i: int) -> np.ndarray:
        return ((idx >> i) & 1).astype(np.float64) * 2.0 - 1.0

    energy = np.zeros(1 << m)
    mask = ((idx >> pos[node]) & 1) == 1
    comp_set = set(comp)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for g in comp:
            energy += model.h[g] * spins(pos[g])
        for (u, v), j in model.J.items():
            if u in comp_set and v in comp_set:
                energy += j * spins(pos[u]) * spins(pos[v])
        log_plus = logsumexp(energy[mask])
        log_minus = logsumexp(energy[~mask])
    if not (np.isfinite(log_plus) and np.isfinite(log_minus)):
        raise ModelError(
            f"enumeration overflows: log p(x_{node}) is {[float(log_minus), float(log_plus)]}"
        )
    return _p_plus(log_minus, log_plus)
