"""Naive mean field and the boundary compensation subproblem."""
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
from conftest import chain_model, random_connected_model


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
            state = mean_field(m, init=cur, max_iter=1, restarts=1)
            obj = variational_objective(m, state.m)
            assert obj >= prev_obj - 1e-12
            prev_obj, cur = obj, state.m

    @given(st.integers(2, 9), st.integers(0, 10**6))
    def test_means_in_unit_interval(self, n, seed):
        m = random_connected_model(n, seed, j_scale=2.0, h_scale=2.0)
        state = mean_field(m, max_iter=50)
        assert np.all(np.abs(state.m) <= 1.0)

    def test_restarts_deterministic(self):
        m = random_connected_model(8, 4, j_scale=1.5)
        a = mean_field(m, restarts=4, seed=123)
        b = mean_field(m, restarts=4, seed=123)
        assert np.array_equal(a.m, b.m)

    def test_restarts_escape_symmetric_saddle(self):
        # tanh(h) = 0 is a stationary start; restarts find a broken solution
        m = build_model([(0, 1, 2.0)], [0.0, 0.0])
        stuck = mean_field(m, restarts=1)
        assert np.allclose(stuck.m, 0.0)
        state = mean_field(m, restarts=3, seed=0)
        assert abs(state.m[0]) > 0.5
        assert variational_objective(m, state.m) > variational_objective(m, stuck.m)

    def test_restart_count_validated(self):
        m = build_model([], [0.0])
        with pytest.raises(ValueError, match="restarts"):
            mean_field(m, restarts=0)

    def test_relabel_invariance(self):
        m = build_model([(0, 1, 0.4), (1, 2, -0.2)], [0.3, -0.1, 0.2])
        perm = {0: 2, 1: 0, 2: 1}
        m2 = build_model(
            [(perm[u], perm[v], j) for u, v, j in m.edges()],
            [m.h[{v: k for k, v in perm.items()}[i]] for i in range(3)],
        )
        # sweep order follows node ids, so agreement is only up to tol
        a = mean_field(m, tol=1e-13, restarts=1)
        b = mean_field(m2, tol=1e-13, restarts=1)
        for old, new in perm.items():
            assert a.m[old] == pytest.approx(b.m[new], abs=1e-10)

    def test_non_convergence_flagged(self):
        m = build_model([(0, 1, 0.5)], [0.4, 0.0])
        state = mean_field(m, tol=1e-30, max_iter=2, restarts=1)
        assert not state.converged
        assert state.iterations == 2
        assert state.residual > 1e-30

    def test_overflowing_field_sum_is_silent(self):
        # h_j + J m_k overflows to inf in the sweep: tanh(inf) = 1, no warning
        m = build_model([(0, 1, 1e308)], [1.5e308, 1.5e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = mean_field(m, restarts=1)
        assert state.m.tolist() == [1.0, 1.0]


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
        # unique and the tanh(h) start alone is returned; on this grid the
        # best-of-3 answer differs from it in the ninth decimal
        m = gen_grid(GridSpec(6, 6, seed=3))
        region = make_region(m, [14, 15, 20, 21], 14)
        sub, index = boundary_subproblem(m, region)
        assert max_row_sum(sub) < 1.0
        want = mean_field(sub, restarts=1)
        assert not np.array_equal(want.m, mean_field(sub).m)
        means, state = boundary_mean_field(m, region)
        assert np.array_equal(state.m, want.m)
        assert means == {k: float(want.m[index[k]]) for k in region.boundary_beta}

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
        want = mean_field(sub)
        assert not np.array_equal(want.m, mean_field(sub, restarts=1).m)
        _, state = boundary_mean_field(m, region)
        assert np.array_equal(state.m, want.m)

    @given(st.integers(2, 12), st.integers(0, 10**6), st.sampled_from([0.1, 0.3, 1.0, 3.0]))
    def test_certificates_sound_against_enumeration(self, n, seed, j_scale):
        # j_scale 0.1 keeps every boundary subproblem a contraction (one
        # start); at 1.0 and 3.0 most have a row sum of 1 or more (best of three)
        m = random_connected_model(n, seed, j_scale=j_scale)
        p_true = brute_force_marginal(m, 0)
        trace = greedy_expand(m, 0, K=n, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD)
        for step in trace.steps:
            cert = step.certificate
            if cert is None:  # the boundary solve stalled: a degraded step
                continue
            assert cert.valid or cert.bound == math.inf
            if cert.valid:
                loc = cert.localized
                err = abs(eliminate_marginal(loc.submodel, loc.index_of(0)) - p_true)
                assert err <= cert.bound + 1e-12
