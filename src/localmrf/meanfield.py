"""Naive mean field: coordinate ascent on the product-distribution lower bound.

The update m_j <- tanh(h_j + sum_k J_jk m_k) is the exact coordinate maximiser
of the variational objective

    sum_(i,j) J_ij m_i m_j + sum_i h_i m_i + sum_i H((1+m_i)/2)

so every sweep is monotone. Sweeps visit nodes in ascending id order.

The solver's limits are constants that no caller sets: a run stops when no
mean moves by more than `TOL` in a sweep, or after `MAX_SWEEPS` sweeps, and a
model that is not a max-norm contraction gets the best of `RESTARTS` starts.

`mean_field` and `boundary_mean_field` share one solve on rows of neighbour
slots. The boundary solve reads its rows off the frontier state of the
expansion (model.Frontier.layers) and builds the subproblem as a model only
when the variational objective must rank several starts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Candidate, IsingModel, Region, build_model

TOL = 1e-8
MAX_SWEEPS = 1000
RESTARTS = 3


@dataclass
class MeanFieldState:
    m: np.ndarray
    iterations: int
    residual: float
    converged: bool


def variational_objective(model: IsingModel, m: np.ndarray) -> float:
    """Product-ansatz objective (higher is better, equals logZ - KL at optimum).

    Couplings and fields near the float limit overflow the sums to inf; that
    is the objective's value there, so numpy does not warn about it.
    """
    from scipy.special import entr  # scipy.special takes most of the package's import time

    m = np.asarray(m, dtype=np.float64)
    p = (1.0 + m) / 2.0
    entropy = float(np.sum(entr(p) + entr(1.0 - p)))
    with np.errstate(over="ignore"):
        pair = sum(j * m[u] * m[v] for (u, v), j in model.J.items())
        return float(pair + np.dot(model.h, m) + entropy)


def _sweeps(rows: list[tuple], m: list[float], tol: float, max_iter: int):
    """Gauss-Seidel sweeps in place over rows, each (slot, [(slot, J), ...],
    h, mass), in order; m holds the means by slot. Returns (sweeps, last
    residual, converged). h is a Python float, so a field that overflows
    gives inf without numpy's overflow warning.
    """
    tanh = math.tanh
    residual = math.inf
    for it in range(1, max_iter + 1):
        residual = 0.0
        for j, row, s, _ in rows:
            for k, jv in row:
                s += jv * m[k]
            new = tanh(s)
            diff = abs(new - m[j])
            if diff > residual:
                residual = diff
            m[j] = new
        if residual <= tol:
            return it, residual, True
    return max_iter, residual, False


def _rows(model: IsingModel) -> list[tuple]:
    """The solve rows of a whole model, slot i for node i (see _sweeps)."""
    rows = []
    for i, nbrs in enumerate(model.adjacency):
        row = [(k, model.coupling(i, k)) for k in nbrs]
        rows.append((i, row, float(model.h[i]), math.fsum([abs(j) for _, j in row])))
    return rows


def mean_field(model: IsingModel, seed: int = 0) -> MeanFieldState:
    """Mean-field solve: one start, or the best of `RESTARTS`.

    When every node's couplings satisfy sum_k |J_jk| < 1 (strictly; summed
    with math.fsum, so the test is exact), the update m -> tanh(h + J m) is a
    contraction in the max norm, because |tanh'| <= 1. Its fixed point is then
    unique (Banach), so further starts could only find it again, and one run
    from tanh(h) is returned; the objective is not computed and the output
    does not depend on the seed. Otherwise the first run starts from tanh(h),
    the other RESTARTS - 1 from uniform [-1, 1] draws of a Philox stream
    keyed by `seed`, and the state with the highest variational objective
    wins. Each run sweeps until the largest change is at most `TOL`, or
    `MAX_SWEEPS` times.
    """
    states = _runs(_rows(model), model.n, model.h, seed)
    return states[0] if len(states) == 1 else _best(model, states)


def _runs(rows: list[tuple], size: int, h: np.ndarray, seed: int) -> list[MeanFieldState]:
    """The runs `mean_field` makes on solve rows (see _sweeps) with slots
    below size and fields h, in row order: one from tanh(h) when every row's
    |J| mass is below 1 (a contraction), else `RESTARTS`. Each state's m
    follows the row order."""
    inits: list[np.ndarray] = [np.tanh(h)]
    if not all(row[3] < 1.0 for row in rows):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        for _ in range(RESTARTS - 1):
            inits.append(rng.uniform(-1.0, 1.0, size=len(h)))
    states = []
    for start in inits:
        m = [0.0] * size
        for row, x in zip(rows, start.tolist()):
            m[row[0]] = x
        sweeps, residual, converged = _sweeps(rows, m, TOL, MAX_SWEEPS)
        m = np.array([m[row[0]] for row in rows])
        states.append(MeanFieldState(m, sweeps, residual, converged))
    return states


def _best(model: IsingModel, states: list[MeanFieldState]) -> MeanFieldState:
    """The first state with the highest variational objective on model."""
    best: MeanFieldState | None = None
    best_obj = -math.inf
    for state in states:
        obj = variational_objective(model, state.m)
        if obj > best_obj:
            best, best_obj = state, obj
    assert best is not None
    return best


def boundary_mean_field(
    model: IsingModel, region: Region | Candidate
) -> tuple[dict[int, float], MeanFieldState]:
    """Mean-field means of the outside boundary spins of a Region or a
    Candidate.

    The subproblem holds the two boundary layers: variables are
    boundary_alpha + boundary_beta in ascending id, edges are every edge of
    the model between two of them (the cross edges, then the edges inside
    each layer), fields are the original fields. It is solved as
    `mean_field` solves a model, on the rows that the frontier keeps for the
    layers (Frontier.layers; a Region is read through Candidate.of). The
    subproblem model itself, edges in the order above, is built only when
    the best of several starts is chosen by its objective. On a contraction
    one start runs. Either way the certificate stays sound, since b is
    computed against whatever means were used.

    Returns the means of the boundary_beta nodes and the underlying solver
    state.
    """
    candidate = Candidate.of(model, region)
    nodes, rows, size = candidate.frontier.layers(candidate.k)
    states = _runs(rows, size, model.h[nodes], 0)
    if len(states) == 1:
        state = states[0]
    else:
        region = candidate.frontier.region(candidate.k)
        index = {g: i for i, g in enumerate(nodes)}
        edges = [(index[j], index[k], jv) for j, k, jv in region.cross_edges]
        for side in (region.boundary_alpha, region.boundary_beta):
            side_set = set(side)
            for u in side:
                for v in model.adjacency[u]:
                    if v in side_set and u < v:
                        edges.append((index[u], index[v], model.J[(u, v)]))
        state = _best(build_model(edges, model.h[nodes]), states)
    inside, k = candidate.frontier.index, candidate.k
    means = {g: m for g, m in zip(nodes, state.m.tolist()) if g not in inside and g != k}
    return means, state
