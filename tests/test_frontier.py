"""The frontier state of an expansion against the code it replaced.

Each reference below rebuilds from the global adjacency what a Frontier
keeps: a region grown by one node, the neighbour lists of the boundary
mean-field solve, the compensated fields of a mean-field localization and
the maxnorm pick. The frontier must give the same bytes at every step of
greedy, random and maxnorm traces and along random growth orders.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from localmrf import (
    BoundaryMethod,
    GridSpec,
    MeanFieldDivergence,
    ModelError,
    Region,
    boundary_mean_field,
    build_model,
    gen_grid,
    greedy_expand,
    localize,
    make_region,
    maxnorm_expand,
    random_expand,
)
from localmrf import expansion, meanfield
from localmrf.model import Candidate, Frontier, LocalizedModel
import test_expansion
from conftest import random_connected_model
from test_expansion import wrap_scorer
from test_same_answers import CITATION_QUERIES, citation_model


def grown_reference(model, region, k):
    """Region.grow as it was: the region of alpha + (k,), its cross edges
    and both boundaries rebuilt in full."""
    alpha = region.alpha + (k,)
    inside = set(alpha)
    cross = [e for e in region.cross_edges if e[1] != k]
    cross += [(k, v, model.coupling(k, v)) for v in model.adjacency[k] if v not in inside]
    return Region(
        query=region.query,
        alpha=alpha,
        boundary_alpha=tuple(sorted({j for j, _, _ in cross})),
        boundary_beta=tuple(sorted({v for _, v, _ in cross})),
        cross_edges=tuple(cross),
    )


def region_reference(model, alpha, query):
    """make_region as it was: the empty region grown node by node."""
    region = Region(query, (), (), (), ())
    for a in alpha:
        region = grown_reference(model, region, a)
    return region


def boundary_mean_field_reference(model, region):
    """boundary_mean_field as it was: the neighbour lists of both layers
    rebuilt from the adjacency for every region, then the same runs."""
    nodes = sorted(set(region.boundary_alpha) | set(region.boundary_beta))
    index = {g: i for i, g in enumerate(nodes)}
    rows = []
    for i, g in enumerate(nodes):
        inside = [v for v in model.adjacency[g] if v in index]
        js = [model.J[(g, v) if g < v else (v, g)] for v in inside]
        rows.append((i, [(index[v], j) for v, j in zip(inside, js)], float(model.h[g]), math.fsum(map(abs, js))))
    states = meanfield._runs(rows, len(nodes), model.h[nodes], 0)
    state = states[0]
    if len(states) > 1:
        edges = [(index[j], index[k], jv) for j, k, jv in region.cross_edges]
        for side in (region.boundary_alpha, region.boundary_beta):
            for u in side:
                for v in model.adjacency[u]:
                    if v in side and u < v:
                        edges.append((index[u], index[v], model.coupling(u, v)))
        state = meanfield._best(build_model(edges, model.h[nodes]), states)
    return {k: float(state.m[index[k]]) for k in region.boundary_beta}, state


def localize_reference(model, region):
    """localize under MEAN_FIELD as it was: an index dict over alpha and one
    pass over the cross edges."""
    means, state = boundary_mean_field_reference(model, region)
    if not state.converged:
        raise MeanFieldDivergence("stalled", residual=state.residual)
    index = {g: i for i, g in enumerate(region.alpha)}
    fields = model.h[list(region.alpha)].tolist()
    for j, k, jv in region.cross_edges:
        fields[index[j]] += jv * means[k]
    h = np.array(fields)
    if not np.all(np.isfinite(h)):
        raise ModelError("non-finite field")
    return LocalizedModel(region.alpha, h, model)


def maxnorm_reference(model, alpha, candidates):
    """_maxnorm_choice as it was, with its own inside set."""
    inside = set(alpha)
    best, best_score = candidates[0], -1.0
    for k in candidates:
        try:
            score = sum(model.coupling(k, j) ** 2 for j in model.adjacency[k] if j in inside)
        except OverflowError:
            score = math.inf
        if score > best_score:
            best, best_score = k, score
    return best


def outcome(build):
    try:
        return build()
    except (MeanFieldDivergence, ModelError) as exc:
        return type(exc)


def assert_same_solve(got, want):
    if isinstance(want, type):
        assert got is want
        return
    (got_means, got_state), (want_means, want_state) = got, want
    assert [(k, v.hex()) for k, v in got_means.items()] == [
        (k, v.hex()) for k, v in want_means.items()
    ]
    assert got_state.m.tobytes() == want_state.m.tobytes()
    assert (got_state.iterations, got_state.residual.hex(), got_state.converged) == (
        want_state.iterations,
        want_state.residual.hex(),
        want_state.converged,
    )


def check_frontier(frontier, candidates, solve=True):
    """The frontier's region of alpha and, for every candidate k, of
    alpha + (k,), the boundary solve, the localized fields and the maxnorm
    pick, each against its reference, byte for byte."""
    model, query = frontier.model, frontier.query
    region = region_reference(model, frontier.alpha, query)
    assert frontier.region() == region
    assert tuple(sorted(frontier.beta)) == region.boundary_beta
    if candidates:
        assert expansion._maxnorm_choice(frontier, candidates) == maxnorm_reference(
            model, frontier.alpha, candidates
        )
    for k in candidates:
        grown = grown_reference(model, region, k)
        candidate = Candidate(frontier, k)
        assert frontier.region(k) == grown
        assert (candidate.boundary_alpha, candidate.cross_edges) == (
            grown.boundary_alpha,
            grown.cross_edges,
        )
        if not solve:
            continue
        assert_same_solve(
            outcome(lambda: boundary_mean_field(model, candidate)),
            outcome(lambda: boundary_mean_field_reference(model, grown)),
        )
        got = outcome(lambda: localize(model, candidate, BoundaryMethod.MEAN_FIELD))
        want = outcome(lambda: localize_reference(model, grown))
        if isinstance(want, type):
            assert got is want
        else:
            assert got.alpha == want.alpha and got.h.tobytes() == want.h.tobytes()


def hub_case():
    """A preferential-attachment graph with a hub at ENUMERATION_CAP."""
    model, hub, spokes = test_expansion.TestCertificateExtension.heavy_tailed(1)
    return [(model, (hub, spokes[0]))]


CASES = {
    "random": lambda: [(random_connected_model(14, seed, j_scale=0.8), (0, 7)) for seed in range(2)],
    "grid": lambda: [(gen_grid(GridSpec(10, 10, I1=1.0, I2=0.25, seed=3)), (GridSpec(10, 10).query, 0))],
    "citation": lambda: [(citation_model(), CITATION_QUERIES[:2])],
    "hub": hub_case,
}


def checked_traces(monkeypatch, model, query, K=8):
    """Greedy (both methods), random and maxnorm traces of query, with the
    frontier checked at every step; returns their to_jsonl, which the checks
    must not change."""
    steps = []

    def check(scorer, candidates, fields, batch):
        check_frontier(scorer.frontier, tuple(sorted(scorer.frontier.beta)))
        steps.append(len(scorer.alpha))
        return batch

    def traces():
        out = []
        for method in BoundaryMethod:
            try:
                out.append(greedy_expand(model, query, K=K, delta=-math.inf, method=method).to_jsonl())
            except MeanFieldDivergence:
                out.append(None)
        out.append(random_expand(model, query, K=K, seed=query).to_jsonl())
        out.append(maxnorm_expand(model, query, K=K).to_jsonl())
        return out

    plain = traces()
    with monkeypatch.context() as patch:
        wrap_scorer(patch, check)
        assert traces() == plain
    assert steps
    return plain


@pytest.mark.parametrize("case", sorted(CASES))
def test_frontier_equals_the_rebuild_at_every_step(monkeypatch, case):
    for model, queries in CASES[case]():
        for query in queries:
            checked_traces(monkeypatch, model, query)


def test_frontier_equals_the_rebuild_when_solves_stall(monkeypatch):
    # every solve gets two sweeps, so most regions stall: the stalled states,
    # the DROP_OUT fallbacks and the degraded traces match the references
    real = meanfield._sweeps
    monkeypatch.setattr(meanfield, "_sweeps", lambda rows, m, tol, max_iter: real(rows, m, tol, 2))
    model = random_connected_model(12, 4, j_scale=1.0)
    traces = checked_traces(monkeypatch, model, 0, K=6)
    assert traces[1] is not None and '"bounds": {' in traces[1]
    trace = greedy_expand(model, 0, K=6, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD)
    assert trace.degraded


@given(st.integers(3, 14), st.integers(0, 10**6), st.data())
def test_frontier_follows_any_growth_order(n, seed, data):
    """Any growth order, connected or not, starting at the query: the region
    and every candidate's solve match the rebuild after each accept."""
    model = random_connected_model(n, seed, j_scale=1.2)
    order = data.draw(st.permutations(range(n)))
    size = data.draw(st.integers(1, n))
    frontier = Frontier(model, order[0])
    for s, a in enumerate(order[:size]):
        solve = data.draw(st.booleans())  # a frontier whose layers were never asked too
        check_frontier(frontier, tuple(sorted(frontier.beta)), solve)
        if a not in frontier.beta and frontier.alpha:
            check_frontier(frontier, (a,), solve)  # a node off the boundary
        frontier.accept(a)
    check_frontier(frontier, tuple(sorted(frontier.beta)))
    assert make_region(model, order[:size], order[0]) == frontier.region()


def test_one_solve_per_candidate_and_one_certificate_per_expansion(monkeypatch):
    """What the benchmark's tracer counts: every scored mean-field candidate
    makes one boundary_mean_field call, and each expansion one
    local_certificate call."""
    solves, certs = [], []
    real_solve, real_cert = meanfield.boundary_mean_field, expansion.local_certificate
    monkeypatch.setattr(meanfield, "boundary_mean_field", lambda *a: solves.append(a) or real_solve(*a))
    monkeypatch.setattr(expansion, "local_certificate", lambda *a: certs.append(a) or real_cert(*a))
    for model, queries in CASES["grid"]() + CASES["random"]():
        for query in queries:
            for method in BoundaryMethod:
                del solves[:], certs[:]
                trace = greedy_expand(model, query, K=8, delta=-math.inf, method=method)
                scored = sum(len(s.bounds) for s in trace.steps)
                mf = method is BoundaryMethod.MEAN_FIELD
                assert len(solves) == (1 + scored if mf else 0)
                assert len(certs) == 1
            del certs[:]
            maxnorm_expand(model, query, K=8)
            assert len(certs) == 1
