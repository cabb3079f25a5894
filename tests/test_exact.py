"""Exact inference: bucket elimination vs enumeration, log partition."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import logsumexp

from localmrf import (
    CliqueTooLargeError,
    GraphTooLargeError,
    GridSpec,
    LocalMRFError,
    brute_force_marginal,
    build_model,
    eliminate_marginal,
    gen_citation_graph,
    gen_grid,
    grid_edges,
    log_partition,
    min_fill_order,
)
from localmrf import exact
from localmrf.exact import Factor, marginalize
from conftest import chain_model, random_connected_model, sigmoid

CHAIN3_P = (0.5456434105075804, 0.5000000000000001, 0.4543565894924198)


class TestMarginals:
    def test_isolated_node(self):
        m = build_model([], [0.0])
        assert brute_force_marginal(m, 0) == 0.5
        assert eliminate_marginal(m, 0) == 0.5

    def test_isolated_node_with_field(self):
        m = build_model([], [0.5])
        assert eliminate_marginal(m, 0) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_chain3_frozen(self, chain3):
        for node, want in enumerate(CHAIN3_P):
            assert brute_force_marginal(chain3, node) == pytest.approx(want, abs=1e-12)
            assert eliminate_marginal(chain3, node) == pytest.approx(want, abs=1e-12)

    def test_extreme_fields_give_the_limit_without_warning(self):
        # log masses 2e3 apart: exp overflows for h = -1e3 and underflows for
        # h = +1e3, and each readout is its limit with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h, want in ((1e3, 1.0), (-1e3, 0.0)):
                m = build_model([(0, 1, 0.5)], [h, 0.0])
                assert eliminate_marginal(m, 0) == want
                assert brute_force_marginal(m, 0) == want

    def test_readout_keeps_its_bits_below_overflow(self):
        # the readout as it was before the overflow became silent
        for diff in np.linspace(-750.0, 709.0, 997):
            want = float(1.0 / (1.0 + np.exp(diff)))
            assert exact._p_plus(float(diff), 0.0).hex() == want.hex()

    def test_two_node_with_fields(self):
        m = build_model([(0, 1, 0.4)], [0.3, -0.2])
        assert eliminate_marginal(m, 0) == pytest.approx(0.6105756993254832, abs=1e-12)

    @given(st.integers(2, 10), st.integers(0, 10**6))
    def test_elimination_matches_enumeration(self, n, seed):
        m = random_connected_model(n, seed)
        for node in range(n):
            assert eliminate_marginal(m, node) == pytest.approx(
                brute_force_marginal(m, node), abs=1e-10
            )

    @given(st.integers(3, 9), st.integers(0, 10**6))
    def test_order_invariance(self, n, seed):
        m = random_connected_model(n, seed)
        p_ref = eliminate_marginal(m, 0)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        rest = list(range(1, n))
        for _ in range(3):
            order = [int(v) for v in rng.permutation(rest)]
            assert eliminate_marginal(m, 0, order=order) == pytest.approx(p_ref, abs=1e-10)

    def test_order_must_cover_component(self, chain3):
        with pytest.raises(LocalMRFError, match="cover the component"):
            eliminate_marginal(chain3, 0, order=[1])

    def test_field_monotonicity(self):
        base = random_connected_model(6, 2, j_scale=0.5)
        p0 = eliminate_marginal(base, 0)
        h2 = base.h.copy()
        h2[0] += 0.5
        p1 = eliminate_marginal(build_model(list(base.edges()), h2), 0)
        assert p1 > p0

    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_spin_flip_mirror(self, n, seed):
        m = random_connected_model(n, seed)
        flipped = build_model(list(m.edges()), -m.h)
        assert eliminate_marginal(flipped, 0) == pytest.approx(
            1.0 - eliminate_marginal(m, 0), abs=1e-12
        )

    def test_other_components_ignored(self):
        m = build_model([(0, 1, 0.3), (2, 3, 0.9)], [0.1, 0.0, 5.0, -2.0])
        m2 = build_model([(0, 1, 0.3), (2, 3, -0.9)], [0.1, 0.0, -1.0, 0.5])
        assert eliminate_marginal(m, 0) == eliminate_marginal(m2, 0)

    def test_probability_pair_normalized(self, chain3):
        p = eliminate_marginal(chain3, 2)
        assert 0.0 <= p <= 1.0
        # chain3 maps to itself under spin flip + node reversal
        assert p == pytest.approx(1.0 - eliminate_marginal(chain3, 0), abs=1e-12)
        assert eliminate_marginal(chain3, 1) == pytest.approx(0.5, abs=1e-12)


class TestLogPartition:
    def test_single_node(self):
        assert log_partition(build_model([], [0.0])) == pytest.approx(math.log(2.0), abs=1e-12)
        assert log_partition(build_model([], [0.7])) == pytest.approx(
            math.log(2.0 * math.cosh(0.7)), abs=1e-12
        )

    def test_two_node_frozen(self):
        m = build_model([(0, 1, 0.7)], [0.0, 0.0])
        assert log_partition(m) == pytest.approx(1.6135645904783962, abs=1e-12)
        m2 = build_model([(0, 1, 0.4)], [0.3, -0.2])
        assert log_partition(m2) == pytest.approx(1.5063682498990145, abs=1e-12)

    def test_chain3_frozen(self, chain3):
        assert log_partition(chain3) == pytest.approx(2.1772630989076753, abs=1e-12)

    def test_sums_over_components(self):
        a = build_model([(0, 1, 0.7)], [0.0, 0.0])
        both = build_model([(0, 1, 0.7), (2, 3, 0.4)], [0.0, 0.0, 0.3, -0.2])
        assert log_partition(both) == pytest.approx(
            log_partition(a) + 1.5063682498990145, abs=1e-12
        )

    @given(st.integers(1, 8), st.integers(0, 10**6))
    def test_matches_enumeration(self, n, seed):
        m = random_connected_model(n, seed)
        spins = np.array([-1.0, 1.0])
        total = -math.inf
        for bits in range(1 << n):
            x = spins[[(bits >> i) & 1 for i in range(n)]]
            e = float(m.h @ x) + sum(j * x[u] * x[v] for (u, v), j in m.J.items())
            total = np.logaddexp(total, e)
        assert log_partition(m) == pytest.approx(float(total), abs=1e-10)


class TestCaps:
    def test_brute_force_cap(self):
        n = 23
        m = chain_model([0.1] * (n - 1), [0.0] * n)
        with pytest.raises(GraphTooLargeError, match="23 nodes"):
            brute_force_marginal(m, 0)
        # elimination only caps the clique, so long chains are fine
        assert eliminate_marginal(m, 0) == pytest.approx(0.5, abs=1e-12)

    def test_clique_cap(self):
        m = build_model([(u, v, 0.1) for u, v in grid_edges(3, 3)], [0.0] * 9)
        with pytest.raises(CliqueTooLargeError, match="cap 2"):
            eliminate_marginal(m, 4, max_clique=2)

    def test_long_strip_feasible(self):
        edges = [(u, v, 0.05) for u, v in grid_edges(4, 20)]
        m = build_model(edges, [0.0] * 80)
        assert eliminate_marginal(m, 40) == pytest.approx(0.5, abs=1e-12)


class TestMinFill:
    def test_ties_broken_by_lowest_id(self):
        m = chain_model([0.1, 0.1], [0.0, 0.0, 0.0])
        # all fills are zero on a chain: ascending id order wins ties
        assert min_fill_order(m, (0, 1, 2)) == [0, 1, 2]
        assert min_fill_order(m, (0, 1, 2), keep=(1,)) == [0, 2]

    @given(
        st.sampled_from(["random", "grid", "citation"]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 10**6),
        st.sampled_from([0, 1, 3]),
        st.booleans(),
    )
    def test_matches_rescan_reference(self, kind, a, b, seed, n_keep, subset):
        if kind == "random":
            m = random_connected_model(a * b // 2 + 1, seed)
        elif kind == "grid":
            m = gen_grid(GridSpec(a, b, seed=seed))
        else:
            n = a * b // 2 + 6
            edges, _ = gen_citation_graph(n, attach=1 + seed % 3, seed=seed)
            m = build_model([(u, v, 0.1) for u, v in edges], [0.0] * n)
        rng = np.random.Generator(np.random.Philox(seed))
        nodes = tuple(range(m.n))
        if subset and m.n > 1:
            size = int(rng.integers(1, m.n + 1))
            nodes = tuple(sorted(int(v) for v in rng.choice(m.n, size, replace=False)))
        keep = tuple(int(v) for v in rng.choice(nodes, min(n_keep, len(nodes)), replace=False))
        assert min_fill_order(m, nodes, keep) == rescan_min_fill_order(m, nodes, keep)


def rescan_min_fill_order(model, nodes, keep=()):
    """The full-rescan min-fill order: every step scores every remaining node."""
    keep_set = set(keep)
    adj = {i: {v for v in model.adjacency[i] if v in set(nodes)} for i in nodes}
    remaining = sorted(set(nodes) - keep_set)
    order = []
    while remaining:
        best = None
        best_fill = None
        for v in remaining:
            nbrs = [u for u in adj[v] if u != v]
            fill = 0
            for a_idx in range(len(nbrs)):
                for b_idx in range(a_idx + 1, len(nbrs)):
                    if nbrs[b_idx] not in adj[nbrs[a_idx]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        nbrs = [u for u in adj[best] if u != best]
        for a in nbrs:
            adj[a].discard(best)
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        del adj[best]
        remaining.remove(best)
        order.append(best)
    return order


def scipy_marginalize(factor, var):
    axis = factor.scope.index(var)
    scope = factor.scope[:axis] + factor.scope[axis + 1 :]
    return Factor(scope, logsumexp(factor.table, axis=axis))


class TestMarginalize:
    @given(
        st.integers(1, 12),
        st.integers(0, 10**6),
        st.sampled_from([1.0, 30.0, 1e3]),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_matches_scipy_logsumexp_bitwise(self, k, seed, scale, tie_share):
        rng = np.random.Generator(np.random.Philox(seed))
        table = rng.uniform(-scale, scale, size=(2,) * k)
        # a share of entries copied from their partner along a random axis:
        # exact ties on that axis
        tie_axis = int(rng.integers(k))
        flat = np.moveaxis(table, tie_axis, 0)
        ties = rng.random(flat.shape[1:]) < tie_share
        np.copyto(flat[1, ...], flat[0, ...], where=ties)
        scope = tuple(range(10, 10 + k))
        for axis in range(k):
            got = marginalize(Factor(scope, table), scope[axis])
            want = logsumexp(table, axis=axis)
            assert got.scope == scope[:axis] + scope[axis + 1 :]
            assert np.shape(got.table) == np.shape(want)
            assert np.asarray(got.table).tobytes() == np.asarray(want).tobytes()

    def test_tie_is_log_two(self):
        t = np.array([0.25, 0.25])
        assert float(marginalize(Factor((0,), t), 0).table) == float(logsumexp(t))

    def test_elimination_matches_scipy_path_bitwise(self, monkeypatch):
        corpus = [random_connected_model(2 + s % 13, s) for s in range(40)]
        corpus += [random_connected_model(9, s, j_scale=3.0, h_scale=1e3) for s in range(5)]
        corpus += [gen_grid(GridSpec(r, c, seed=r * c)) for r, c in ((1, 7), (3, 4), (6, 6))]

        def readouts():
            return [
                [eliminate_marginal(m, v).hex() for v in range(m.n)] + [log_partition(m).hex()]
                for m in corpus
            ]

        with monkeypatch.context() as mp:
            mp.setattr(exact, "marginalize", scipy_marginalize)
            want = readouts()
        assert readouts() == want
