"""Naive mean field and the boundary compensation subproblem."""
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from localmrf import (
    BoundaryMethod,
    GridSpec,
    boundary_mean_field,
    brute_force_marginal,
    build_model,
    eliminate_marginal,
    gen_grid,
    greedy_expand,
    make_region,
    mean_field,
    variational_objective,
)
from localmrf import meanfield
from conftest import chain_model, random_connected_model


def sweep(model, start, tol, max_iter):
    """The private sweep kernel from `start`: (means, sweeps, residual, converged)."""
    m = [float(x) for x in start]
    iters, residual, converged = meanfield._sweeps(meanfield._rows(model), m, tol, max_iter)
    return np.array(m), iters, residual, converged


def one_start(model):
    """The means of a single mean-field run from tanh(h)."""
    return sweep(model, np.tanh(model.h), meanfield.TOL, meanfield.MAX_SWEEPS)[0]


def boundary_subproblem(model, region):
    """The two boundary layers as their own model, built the way the
    docstring of boundary_mean_field describes. Returns (model, index)."""
    nodes = sorted(set(region.boundary_alpha) | set(region.boundary_beta))
    index = {g: i for i, g in enumerate(nodes)}
    edges = [(index[j], index[k], jv) for j, k, jv in region.cross_edges]
    for side in (region.boundary_alpha, region.boundary_beta):
        for u in side:
            for v in model.adjacency[u]:
                if v in side and u < v:
                    edges.append((index[u], index[v], model.coupling(u, v)))
    return build_model(edges, [float(model.h[g]) for g in nodes]), index


def max_row_sum(model):
    return max(
        math.fsum(abs(model.coupling(i, k)) for k in model.adjacency[i]) for i in range(model.n)
    )


def prefix_regions(model, seed):
    """The regions of every prefix of a random node order that starts at 0."""
    rng = np.random.Generator(np.random.Philox(seed))
    order = [0] + [int(v) for v in rng.permutation(np.arange(1, model.n))]
    return [make_region(model, order[:s], 0) for s in range(1, model.n + 1)]


def assert_matches_subproblem_model(model, region):
    """boundary_mean_field gives, byte for byte, what mean_field gives on the
    boundary subproblem built as a model; returns whether one start ran."""
    sub, index = boundary_subproblem(model, region)
    want = mean_field(sub)
    means, state = boundary_mean_field(model, region)
    assert state.m.tobytes() == want.m.tobytes()
    assert state.iterations == want.iterations
    assert state.residual.hex() == want.residual.hex()
    assert state.converged == want.converged
    assert [(k, v.hex()) for k, v in means.items()] == [
        (k, float(want.m[index[k]]).hex()) for k in region.boundary_beta
    ]
    return sub.n == 0 or max_row_sum(sub) < 1.0


class TestMeanField:
    def test_no_couplings_is_exact_tanh(self):
        m = build_model([], [0.3, -0.7, 0.0])
        state = mean_field(m)
        assert state.converged
        np.testing.assert_allclose(state.m, np.tanh(m.h), atol=1e-12)
        np.testing.assert_allclose((1.0 + state.m) / 2.0, (1.0 + np.tanh(m.h)) / 2.0, atol=1e-12)

    def test_weak_ferromagnet_zero_field(self):
        m = build_model([(0, 1, 0.1)], [0.0, 0.0])
        state = mean_field(m)
        assert state.converged
        np.testing.assert_allclose(state.m, 0.0, atol=1e-8)

    def test_fixed_point_frozen(self):
        m = build_model([(0, 1, 0.3)], [0.2, 0.0])
        state = mean_field(m)
        assert state.converged and state.residual <= 1e-8
        assert state.m[0] == pytest.approx(0.21595446158382584, abs=1e-7)
        assert state.m[1] == pytest.approx(0.06469584848566258, abs=1e-7)

    def test_objective_frozen_value(self):
        m = build_model([(0, 1, 0.3)], [0.2, 0.0])
        obj = variational_objective(m, np.array([0.4, -0.1]))
        assert obj == pytest.approx(1.3670031157684819, abs=1e-12)

    def test_objective_bounded_by_log_partition(self):
        from localmrf import log_partition

        m = random_connected_model(6, 9, j_scale=0.4)
        state = mean_field(m)
        assert variational_objective(m, state.m) <= log_partition(m) + 1e-9

    @given(st.integers(2, 9), st.integers(0, 10**6))
    def test_sweeps_monotone_in_objective(self, n, seed):
        m = random_connected_model(n, seed, j_scale=0.8)
        cur = np.tanh(m.h)
        prev_obj = variational_objective(m, cur)
        for _ in range(6):
            cur = sweep(m, cur, meanfield.TOL, 1)[0]
            obj = variational_objective(m, cur)
            assert obj >= prev_obj - 1e-12
            prev_obj = obj

    @given(st.integers(2, 9), st.integers(0, 10**6))
    def test_means_in_unit_interval(self, n, seed):
        m = random_connected_model(n, seed, j_scale=2.0, h_scale=2.0)
        means = sweep(m, np.tanh(m.h), meanfield.TOL, 50)[0]
        assert np.all(np.abs(means) <= 1.0)

    def test_restarts_deterministic(self):
        m = random_connected_model(8, 4, j_scale=1.5)
        assert max_row_sum(m) >= 1.0  # so the seeded starts run
        a = mean_field(m, seed=123)
        b = mean_field(m, seed=123)
        assert np.array_equal(a.m, b.m)

    def test_restarts_escape_symmetric_saddle(self):
        # tanh(h) = 0 is a stationary start; restarts find a broken solution
        m = build_model([(0, 1, 2.0)], [0.0, 0.0])
        stuck = one_start(m)
        assert np.allclose(stuck, 0.0)
        state = mean_field(m, seed=0)
        assert abs(state.m[0]) > 0.5
        assert variational_objective(m, state.m) > variational_objective(m, stuck)

    def test_relabel_invariance(self):
        m = build_model([(0, 1, 0.4), (1, 2, -0.2)], [0.3, -0.1, 0.2])
        perm = {0: 2, 1: 0, 2: 1}
        m2 = build_model(
            [(perm[u], perm[v], j) for u, v, j in m.edges()],
            [m.h[{v: k for k, v in perm.items()}[i]] for i in range(3)],
        )
        # sweep order follows node ids, so agreement is only up to tol
        a = sweep(m, np.tanh(m.h), 1e-13, meanfield.MAX_SWEEPS)[0]
        b = sweep(m2, np.tanh(m2.h), 1e-13, meanfield.MAX_SWEEPS)[0]
        for old, new in perm.items():
            assert a[old] == pytest.approx(b[new], abs=1e-10)

    def test_non_convergence_flagged(self):
        m = build_model([(0, 1, 0.5)], [0.4, 0.0])
        _, iterations, residual, converged = sweep(m, np.tanh(m.h), 1e-30, 2)
        assert not converged
        assert iterations == 2
        assert residual > 1e-30

    def test_overflowing_field_sum_is_silent(self):
        # h_j + J m_k overflows to inf in the sweep: tanh(inf) = 1, and the
        # objective that picks the best of three starts overflows to inf; no
        # warning from either
        m = build_model([(0, 1, 1e308)], [1.5e308, 1.5e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = mean_field(m)
            assert variational_objective(m, state.m) == math.inf
        assert state.m.tolist() == [1.0, 1.0]

    def test_solver_limits_are_not_settings(self):
        # the tolerance, the sweep cap and the start count are constants, and
        # the start count is read off the model: only the seed is a setting
        assert list(inspect.signature(mean_field).parameters) == ["model", "seed"]


class TestBoundaryMeanField:
    def test_chain_joint_solve_frozen(self, chain3_mf):
        # variables {1, 2}: m_1 = tanh(0.5 m_2), m_2 = tanh(1 + 0.5 m_1)
        region = make_region(chain3_mf, [0, 1], 0)
        means, state = boundary_mean_field(chain3_mf, region)
        assert state.converged
        assert set(means) == {2}
        assert means[2] == pytest.approx(0.8327154235150449, abs=1e-7)

    def test_symmetric_boundary_means_vanish(self):
        m = build_model([(0, 1, 0.2), (1, 2, 0.2), (2, 3, 0.2)], [0.0] * 4)
        region = make_region(m, [0, 1], 0)
        means, _ = boundary_mean_field(m, region)
        assert means[2] == pytest.approx(0.0, abs=1e-8)

    def test_subproblem_ignores_interior_and_far_nodes(self):
        # chain 0-1-2-3-4, alpha = {0,1,2}: subproblem is {2,3} only
        m = chain_model([0.3, 0.3, 0.5, 0.4], [0.0, 0.0, 0.0, 1.0, 0.0])
        m2 = chain_model([2.9, 0.3, 0.5, 0.4], [5.0, 0.0, 0.0, 1.0, -7.0])
        means, _ = boundary_mean_field(m, make_region(m, [0, 1, 2], 0))
        means2, _ = boundary_mean_field(m2, make_region(m2, [0, 1, 2], 0))
        assert means == means2
        assert set(means) == {3}

    def test_intra_layer_edges_included(self):
        # two cross pairs; the beta-side edge (2,3) couples the two means
        m = build_model(
            [(0, 1, 0.1), (0, 2, 0.4), (1, 3, 0.4), (2, 3, 0.6)],
            [0.0, 0.0, 0.8, 0.0],
        )
        region = make_region(m, [0, 1], 0)
        means, _ = boundary_mean_field(m, region)
        # the same layers with only the cross edges and zero fields
        cross_only = mean_field(build_model([(0, 2, 0.4), (1, 3, 0.4)], [0.0] * 4))
        # with the (2,3) edge and h_2 > 0 both means are pulled positive
        assert means[3] > cross_only.m[3] + 0.05
        assert means[2] > 0.3

    def test_contraction_runs_one_start(self):
        # every |J| row sum of the subproblem is below 1, so its fixed point is
        # unique and mean_field returns the tanh(h) start alone, whatever the
        # seed (the best of three differs from it in the ninth decimal here);
        # boundary_mean_field returns that solve
        m = gen_grid(GridSpec(6, 6, seed=3))
        region = make_region(m, [14, 15, 20, 21], 14)
        sub, index = boundary_subproblem(m, region)
        assert max_row_sum(sub) < 1.0
        want = one_start(sub)
        assert np.array_equal(mean_field(sub).m, want)
        assert np.array_equal(mean_field(sub, seed=7).m, want)
        means, state = boundary_mean_field(m, region)
        assert np.array_equal(state.m, want)
        assert means == {k: float(want[index[k]]) for k in region.boundary_beta}

    @pytest.mark.parametrize("row_sum", ["exactly_one", "above_one"])
    def test_unproven_uniqueness_keeps_restarts(self, row_sum):
        if row_sum == "exactly_one":
            # couplings of +-0.25 on a grid: each alpha-side node of the
            # subproblem has four of them, a row sum of exactly 1.0
            g = gen_grid(GridSpec(6, 6, seed=0))
            m = build_model([(u, v, math.copysign(0.25, j)) for u, v, j in g.edges()], g.h)
            region = make_region(m, [14, 15, 20, 21], 14)
            sub, _ = boundary_subproblem(m, region)
            assert max_row_sum(sub) == 1.0
        else:
            # the symmetric saddle: one start stays at 0, restarts break it
            m = build_model([(0, 1, 0.3), (1, 2, 2.0), (1, 3, 0.5)], [0.1, 0.0, 0.0, 0.0])
            region = make_region(m, [0, 1], 0)
            sub, _ = boundary_subproblem(m, region)
            assert max_row_sum(sub) > 1.0
        # mean_field runs more than the tanh(h) start: with a rule of
        # sum <= 1 the exactly-one case would return that start alone
        want = mean_field(sub)
        assert not np.array_equal(want.m, one_start(sub))
        _, state = boundary_mean_field(m, region)
        assert np.array_equal(state.m, want.m)

    @given(st.integers(2, 12), st.integers(0, 10**6), st.sampled_from([0.1, 1.0, 3.0]))
    def test_matches_mean_field_on_subproblem_model(self, n, seed, j_scale):
        # the solve on neighbour lists against mean_field on the subproblem
        # built as an IsingModel, for every prefix region of a random order
        m = random_connected_model(n, seed, j_scale=j_scale)
        for region in prefix_regions(m, seed):
            assert_matches_subproblem_model(m, region)

    def test_subproblem_corpus_reaches_both_start_counts(self):
        # the same comparison on a fixed corpus from the same space, which
        # runs both one start (a contraction) and the best of three
        one_start_seen = set()
        for seed in range(12):
            for j_scale in (0.1, 1.0, 3.0):
                m = random_connected_model(2 + seed % 11, seed, j_scale=j_scale)
                for region in prefix_regions(m, seed):
                    one_start_seen.add(assert_matches_subproblem_model(m, region))
        assert one_start_seen == {True, False}

    @given(st.integers(2, 12), st.integers(0, 10**6), st.sampled_from([0.1, 0.3, 1.0, 3.0]))
    def test_certificates_sound_against_enumeration(self, n, seed, j_scale):
        # j_scale 0.1 keeps every boundary subproblem a contraction (one
        # start); at 1.0 and 3.0 most have a row sum of 1 or more (best of three)
        m = random_connected_model(n, seed, j_scale=j_scale)
        p_true = brute_force_marginal(m, 0)
        trace = greedy_expand(m, 0, K=n, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD)
        for cert in trace.certificates:  # a stalled solve's is uncertified
            assert cert.valid or cert.bound == math.inf
            if cert.valid:
                loc = cert.localized
                err = abs(eliminate_marginal(loc.submodel, loc.index_of(0)) - p_true)
                assert err <= cert.bound + 1e-12
