"""Exact marginals and partition functions for small graphs.

Everything runs in log space. `brute_force_marginal` enumerates the component
of the query, up to `MAX_BRUTE_NODES` nodes; `eliminate_marginal` and
`log_partition` run bucket elimination, always along `min_fill_order`, and
only cap the largest intermediate clique at `MAX_CLIQUE` variables, so they
handle long chains and narrow strips of any length. Both caps are constants
that no caller sets.

Every variable is binary, so summing one out is a two-term log-add-exp
(`marginalize`), bit-identical to `scipy.special.logsumexp` on two values.
`min_fill_order` rescores after each elimination only the nodes whose
neighbourhood changed, and gives the order a full rescan would.
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

    scope is a tuple of node ids; table has shape (2,)*len(scope) with axis
    order matching scope and index 0 <-> spin -1, 1 <-> spin +1. Flattened in C
    order this is the lexicographic order with -1 before +1.
    """

    scope: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        assert self.table.shape == (2,) * len(self.scope)


def _embed(factor: Factor, scope: tuple[int, ...]) -> np.ndarray:
    """Return factor.table transposed/reshaped to broadcast over scope."""
    perm = sorted(range(len(factor.scope)), key=lambda a: scope.index(factor.scope[a]))
    table = np.transpose(factor.table, perm)
    shape = tuple(2 if v in factor.scope else 1 for v in scope)
    return table.reshape(shape)


def multiply(factors: list[Factor]) -> Factor:
    scope = tuple(sorted(set().union(*(f.scope for f in factors))))
    if len(scope) > MAX_CLIQUE:
        raise CliqueTooLargeError(
            f"elimination clique has {len(scope)} variables (cap {MAX_CLIQUE})"
        )
    table = np.zeros((2,) * len(scope))
    for f in factors:
        table = table + _embed(f, scope)
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
    a = np.take(factor.table, 0, axis=axis)
    b = np.take(factor.table, 1, axis=axis)
    hi = np.maximum(a, b)
    return Factor(scope, hi + np.log1p(np.exp(np.minimum(a, b) - hi)))


def _model_factors(model: IsingModel, nodes: tuple[int, ...]) -> list[Factor]:
    node_set = set(nodes)
    spin = np.array([-1.0, 1.0])
    factors = [Factor((i,), model.h[i] * spin) for i in nodes]
    for (u, v), j in model.J.items():
        if u in node_set and v in node_set:
            factors.append(Factor((u, v), j * np.outer(spin, spin)))
    return factors


def min_fill_order(model: IsingModel, nodes: tuple[int, ...], keep: tuple[int, ...] = ()) -> list[int]:
    """Min-fill elimination order over `nodes` minus `keep`, ties to lowest id.

    The fill of v is the number of non-adjacent pairs among its neighbours,
    C(d, 2) minus the edges among them. Eliminating v changes the
    neighbourhoods of its neighbours and of their neighbours only, so only
    those are rescored.
    """
    node_set = set(nodes)
    keep_set = set(keep)
    adj: dict[int, set[int]] = {
        i: {v for v in model.adjacency[i] if v in node_set} for i in nodes
    }

    def fill(v: int) -> int:
        nbrs = adj[v]
        d = len(nbrs)
        return d * (d - 1) // 2 - sum(len(adj[u] & nbrs) for u in nbrs) // 2

    fills = {v: fill(v) for v in node_set - keep_set}
    order: list[int] = []
    while fills:
        best = min(fills, key=lambda v: (fills[v], v))
        del fills[best]
        nbrs = adj.pop(best)
        for a in nbrs:
            adj[a].discard(best)
            adj[a] |= nbrs - {a}
        touched = set(nbrs)
        for a in nbrs:
            touched |= adj[a]
        for v in touched:
            if v in fills:
                fills[v] = fill(v)
        order.append(best)
    return order


def _eliminate(factors: list[Factor], order: list[int]) -> list[Factor]:
    for var in order:
        touching = [f for f in factors if var in f.scope]
        rest = [f for f in factors if var not in f.scope]
        product = multiply(touching)
        rest.append(marginalize(product, var))
        factors = rest
    return factors


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
