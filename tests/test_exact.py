"""Exact inference: bucket elimination vs enumeration, log partition."""
import inspect
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
    ModelError,
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
from conftest import chain_model, overflowing_model, random_connected_model, sigmoid

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

    def test_overflow_is_a_model_error(self):
        # the elimination tables and the enumerated log masses overflow: a
        # named error, not nan and a warning
        m = overflowing_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for node in range(m.n):
                with pytest.raises(ModelError, match=rf"elimination overflows: log p\(x_{node}\)"):
                    eliminate_marginal(m, node)
                with pytest.raises(ModelError, match=rf"enumeration overflows: log p\(x_{node}\)"):
                    brute_force_marginal(m, node)
            with pytest.raises(ModelError, match="elimination overflows: log Z is inf"):
                log_partition(m)

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
        # the public functions always follow min-fill; the private kernel
        # gives the same log Z along any order
        m = random_connected_model(n, seed)
        z_ref = log_partition(m)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        for _ in range(3):
            order = [int(v) for v in rng.permutation(n)]
            factors = exact._eliminate(exact._model_factors(m, tuple(range(n))), order)
            assert all(f.scope == () for f in factors)
            assert float(sum(f.table for f in factors)) == pytest.approx(z_ref, abs=1e-10)

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
        # the first elimination on a complete graph of 23 nodes multiplies
        # factors over all 23 variables, one over MAX_CLIQUE
        n = 23
        m = build_model([(u, v, 0.01) for u in range(n) for v in range(u + 1, n)], [0.0] * n)
        with pytest.raises(CliqueTooLargeError, match="23 variables \\(cap 22\\)"):
            eliminate_marginal(m, 0)
        with pytest.raises(CliqueTooLargeError, match="cap 22"):
            log_partition(m)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("eliminate_marginal", ["model", "node"]),
            ("log_partition", ["model"]),
            ("brute_force_marginal", ["model", "node"]),
            ("multiply", ["factors"]),
        ],
        ids=["eliminate_marginal", "log_partition", "brute_force_marginal", "multiply"],
    )
    def test_limits_are_not_settings(self, name, params):
        # MAX_CLIQUE and MAX_BRUTE_NODES are constants and the order is
        # always min-fill: no parameter sets them
        assert list(inspect.signature(getattr(exact, name)).parameters) == params

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
        st.sampled_from(["random", "grid", "citation", "grid10", "hub"]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 10**6),
        st.sampled_from([0, 1, 3]),
        st.booleans(),
    )
    def test_matches_rescan_reference(self, kind, a, b, seed, n_keep, subset):
        rng = np.random.Generator(np.random.Philox(seed))
        if kind == "grid10":
            # the whole 10x10 grid with its centre kept, as the comparison
            # trial's global marginal eliminates it
            m = gen_grid(GridSpec(10, 10, seed=seed))
            nodes, keep = tuple(range(m.n)), (GridSpec(10, 10).query,)
            assert min_fill_order(m, nodes, keep) == rescan_min_fill_order(m, nodes, keep)
            return
        if kind == "random":
            m = random_connected_model(a * b // 2 + 1, seed)
        elif kind == "grid":
            m = gen_grid(GridSpec(a, b, seed=seed))
        elif kind == "citation":
            n = a * b // 2 + 6
            edges, _ = gen_citation_graph(n, attach=1 + seed % 3, seed=seed)
            m = build_model([(u, v, 0.1) for u, v in edges], [0.0] * n)
        else:
            m = hub_model(rng)
        nodes = tuple(range(m.n))
        if subset and m.n > 1:
            size = int(rng.integers(1, m.n + 1))
            nodes = tuple(sorted(int(v) for v in rng.choice(m.n, size, replace=False)))
        keep = tuple(int(v) for v in rng.choice(nodes, min(n_keep, len(nodes)), replace=False))
        assert min_fill_order(m, nodes, keep) == rescan_min_fill_order(m, nodes, keep)


def hub_model(rng):
    """Node 0 joined to 24 leaves on a ring, plus up to 8 random chords
    between leaves; couplings and fields uniform from rng."""
    edges = {(0, k) for k in range(1, 25)} | {(k, k % 24 + 1) for k in range(1, 25)}
    for _ in range(8):
        u, v = sorted(int(x) for x in rng.choice(np.arange(1, 25), 2, replace=False))
        edges.add((u, v))
    edges = sorted(edges)
    js = rng.uniform(-1.0, 1.0, size=len(edges))
    return build_model(
        [(u, v, float(j)) for (u, v), j in zip(edges, js)], rng.uniform(-1.0, 1.0, size=25)
    )


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


def transposing_multiply(factors):
    """`multiply` as it was: every factor transposed into the sorted scope."""
    scope = tuple(sorted(set().union(*(f.scope for f in factors))))
    if len(scope) > exact.MAX_CLIQUE:
        raise CliqueTooLargeError(f"elimination clique has {len(scope)} variables")
    table = np.zeros((2,) * len(scope))
    for f in factors:
        perm = sorted(range(len(f.scope)), key=lambda a: scope.index(f.scope[a]))
        shape = tuple(2 if v in f.scope else 1 for v in scope)
        table = table + np.transpose(f.table, perm).reshape(shape)
    return Factor(scope, table)


def take_marginalize(factor, var):
    """`marginalize` as it was, reading both halves with np.take."""
    axis = factor.scope.index(var)
    scope = factor.scope[:axis] + factor.scope[axis + 1 :]
    a = np.take(factor.table, 0, axis=axis)
    b = np.take(factor.table, 1, axis=axis)
    hi = np.maximum(a, b)
    return Factor(scope, hi + np.log1p(np.exp(np.minimum(a, b) - hi)))


def loop_model_factors(model, nodes):
    """`_model_factors` as it was: one multiplication per factor."""
    spin = np.array([-1.0, 1.0])
    factors = [Factor((i,), model.h[i] * spin) for i in nodes]
    for (u, v), j in model.J.items():
        if u in nodes and v in nodes:
            factors.append(Factor((u, v), j * np.outer(spin, spin)))
    return factors


def scan_eliminate(factors, order):
    """The list-scan elimination: each variable scans every factor twice,
    multiplies the ones touching it and appends their marginal."""
    for var in order:
        touching = [f for f in factors if var in f.scope]
        rest = [f for f in factors if var not in f.scope]
        rest.append(take_marginalize(transposing_multiply(touching), var))
        factors = rest
    return factors


def elimination_corpus(kind, seed):
    """A random model, a grid, or a citation subgraph, all small enough to
    eliminate under MAX_CLIQUE."""
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "random":
        return random_connected_model(2 + seed % 15, seed, j_scale=[0.3, 1.0, 3.0][seed % 3])
    if kind == "grid":
        return gen_grid(GridSpec(1 + seed % 6, 1 + (seed // 6) % 6, seed=seed))
    # the first n nodes of a preferential-attachment graph of 2n nodes
    n = 4 + seed % 17
    edges, _ = gen_citation_graph(2 * n, attach=1 + seed % 3, seed=seed)
    inside = [(u, v) for u, v in edges if u < n and v < n]
    js = rng.uniform(-1.0, 1.0, size=len(inside))
    return build_model(
        [(u, v, float(j)) for (u, v), j in zip(inside, js)], rng.uniform(-1.0, 1.0, size=n)
    )


class TestBucketElimination:
    def test_factor_scope_ascends(self):
        # `multiply` reshapes each table into the product's sorted scope
        # without a transpose, so a factor's scope must ascend
        with pytest.raises(AssertionError):
            Factor((7, 2, 5), np.zeros((2, 2, 2)))
        Factor((2, 5, 7), np.zeros((2, 2, 2)))

    @given(
        st.sampled_from(["random", "grid", "citation"]),
        st.integers(0, 10**6),
        st.sampled_from([0, 1, 3]),
    )
    def test_kernel_matches_list_scan(self, kind, seed, n_keep):
        # the factors left after eliminating all but `keep`, scope and bytes
        m = elimination_corpus(kind, seed)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        nodes = tuple(range(m.n))
        keep = tuple(int(v) for v in rng.choice(m.n, min(n_keep, m.n), replace=False))
        order = min_fill_order(m, nodes, keep)
        got = exact._eliminate(exact._model_factors(m, nodes), order)
        want = scan_eliminate(loop_model_factors(m, nodes), order)
        assert [(f.scope, np.asarray(f.table).tobytes()) for f in got] == [
            (f.scope, np.asarray(f.table).tobytes()) for f in want
        ]

    @given(st.sampled_from(["random", "grid", "citation"]), st.integers(0, 10**6))
    def test_readouts_match_list_scan(self, kind, seed):
        m = elimination_corpus(kind, seed)

        def readouts():
            return [eliminate_marginal(m, v).hex() for v in range(m.n)] + [log_partition(m).hex()]

        got = readouts()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_model_factors", loop_model_factors)
            mp.setattr(exact, "_eliminate", scan_eliminate)
            assert readouts() == got


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
