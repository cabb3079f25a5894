"""Naive mean field: coordinate ascent on the product-distribution lower bound.

The update m_j <- tanh(h_j + sum_k J_jk m_k) is the exact coordinate maximiser
of the variational objective

    sum_(i,j) J_ij m_i m_j + sum_i h_i m_i + sum_i H((1+m_i)/2)

so every sweep is monotone. Sweeps visit nodes in ascending id order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import entr

from .model import IsingModel, Region, build_model


@dataclass
class MeanFieldState:
    m: np.ndarray
    iterations: int
    residual: float
    converged: bool


def variational_objective(model: IsingModel, m: np.ndarray) -> float:
    """Product-ansatz objective (higher is better, equals logZ - KL at optimum)."""
    m = np.asarray(m, dtype=np.float64)
    pair = sum(j * m[u] * m[v] for (u, v), j in model.J.items())
    p = (1.0 + m) / 2.0
    entropy = float(np.sum(entr(p) + entr(1.0 - p)))
    return float(pair + np.dot(model.h, m) + entropy)


def _sweeps(
    nbr_ids: list[list[int]],
    nbr_js: list[list[float]],
    h: np.ndarray,
    m: list[float],
    tol: float,
    max_iter: int,
) -> tuple[int, float, bool]:
    """Gauss-Seidel sweeps in place; returns (sweeps, last residual, converged)."""
    n = len(m)
    tanh = math.tanh
    residual = math.inf
    for it in range(1, max_iter + 1):
        residual = 0.0
        for j in range(n):
            s = h[j]
            ids = nbr_ids[j]
            js = nbr_js[j]
            for t in range(len(ids)):
                s += js[t] * m[ids[t]]
            new = tanh(s)
            diff = abs(new - m[j])
            if diff > residual:
                residual = diff
            m[j] = new
        if residual <= tol:
            return it, residual, True
    return max_iter, residual, False


def _neighbor_arrays(model: IsingModel) -> tuple[list[list[int]], list[list[float]]]:
    ids = [list(model.adjacency[i]) for i in range(model.n)]
    js = [[model.coupling(i, k) for k in ids[i]] for i in range(model.n)]
    return ids, js


def mean_field(
    model: IsingModel,
    init: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    restarts: int = 3,
    seed: int = 0,
) -> MeanFieldState:
    """Best-of-restarts mean-field solve.

    The first run starts from `init` (default tanh(h)); the remaining
    restarts-1 runs start from uniform [-1, 1] draws of a Philox stream keyed
    by `seed`. The state with the highest variational objective wins; with
    restarts=1 there is nothing to compare, so the objective is not computed
    and the output does not depend on the seed.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    nbr_ids, nbr_js = _neighbor_arrays(model)
    h = model.h
    inits: list[np.ndarray] = [np.tanh(h) if init is None else np.asarray(init, dtype=np.float64)]
    if restarts > 1:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        for _ in range(restarts - 1):
            inits.append(rng.uniform(-1.0, 1.0, size=model.n))
    best: MeanFieldState | None = None
    best_obj = -math.inf
    for start in inits:
        m = [float(x) for x in start]
        iters, residual, converged = _sweeps(nbr_ids, nbr_js, h, m, tol, max_iter)
        state = MeanFieldState(
            m=np.array(m), iterations=iters, residual=residual, converged=converged
        )
        if len(inits) == 1:
            return state
        obj = variational_objective(model, state.m)
        if obj > best_obj:
            best, best_obj = state, obj
    assert best is not None
    return best


def boundary_mean_field(
    model: IsingModel, region: Region
) -> tuple[dict[int, float], MeanFieldState]:
    """Mean-field means of the outside boundary spins.

    The subproblem holds the two boundary layers: variables are
    boundary_alpha + boundary_beta, edges are the cross edges plus the
    original edges inside each layer, fields are the original fields.

    When every node's couplings satisfy sum_k |J_jk| < 1 (strictly; summed
    with math.fsum, so the test is exact), the update m -> tanh(h + J m) is a
    contraction in the max norm, because |tanh'| <= 1. Its fixed point is then
    unique (Banach), so random restarts could only find it again, and one run
    from tanh(h) is used: `mean_field(sub, restarts=1)`. Otherwise uniqueness
    is not proven and `mean_field` runs with its default best-of-3 restarts.
    Either way the certificate stays sound, since b is computed against
    whatever means were used; the choice only decides how tight it is.

    Returns the means of the boundary_beta nodes and the underlying solver
    state.
    """
    nodes = sorted(set(region.boundary_alpha) | set(region.boundary_beta))
    index = {g: i for i, g in enumerate(nodes)}
    edges = [(index[j], index[k], jv) for j, k, jv in region.cross_edges]
    for side in (region.boundary_alpha, region.boundary_beta):
        side_set = set(side)
        for u in side:
            for v in model.adjacency[u]:
                if v in side_set and u < v:
                    edges.append((index[u], index[v], model.coupling(u, v)))
    sub = build_model(edges, [float(model.h[g]) for g in nodes])
    abs_j: list[list[float]] = [[] for _ in nodes]
    for j, k, jv in edges:
        abs_j[j].append(abs(jv))
        abs_j[k].append(abs(jv))
    if all(math.fsum(row) < 1.0 for row in abs_j):
        state = mean_field(sub, restarts=1)
    else:
        state = mean_field(sub)
    means = {k: float(state.m[index[k]]) for k in region.boundary_beta}
    return means, state
