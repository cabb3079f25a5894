"""Interaction matrix C and perturbation vector b (both read through
local_certificate), the influence series, certificates and decay bounds."""
import bisect
import collections
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.special import expit

from localmrf import (
    BoundaryMethod,
    DobrushinConditionError,
    EnumerationCapError,
    LocalizedModel,
    MeanFieldDivergence,
    brute_force_marginal,
    build_model,
    conditional_gap,
    decay_bound,
    decay_radius,
    dobrushin_coefficient,
    eliminate_marginal,
    influence_matrix,
    local_certificate,
    localize,
    make_region,
    spectral_radius,
)
from localmrf import dobrushin
from localmrf.dobrushin import (
    _log_bound,
    _min_abs_offset_sum,
    _nearest_sums,
    _perturbation_entry,
    _sums,
)
from conftest import chain_model, random_connected_model, sigmoid


class TestConditionalGap:
    def test_zero_coupling(self):
        assert conditional_gap(0.7, 0.0) == 0.0

    def test_zero_offset_is_tanh(self):
        assert conditional_gap(0.0, 0.25) == pytest.approx(0.2449186624037092, abs=1e-15)
        assert conditional_gap(0.0, 0.25) == pytest.approx(math.tanh(0.25), abs=1e-15)

    def test_frozen_values(self):
        assert conditional_gap(1.0, 0.25) == pytest.approx(0.19511514499178906, abs=1e-15)
        assert conditional_gap(-0.6, 0.25) == pytest.approx(0.2252809181161778, abs=1e-15)

    @given(st.floats(-4, 4), st.floats(-2, 2))
    def test_even_in_offset_and_sign_of_j(self, m, j):
        assert conditional_gap(m, j) == pytest.approx(conditional_gap(-m, j), abs=1e-15)
        assert conditional_gap(m, j) == pytest.approx(conditional_gap(m, -j), abs=1e-15)

    @given(st.floats(0, 4), st.floats(0.1, 4), st.floats(-2, 2))
    def test_decreasing_in_offset_magnitude(self, m, dm, j):
        assert conditional_gap(m + dm, j) <= conditional_gap(m, j) + 1e-15


def whole_model_c(model):
    """The whole model's C: a region over range(n) with DROP_OUT has no
    boundary, and its local order is the global order."""
    region = make_region(model, range(model.n), 0)
    return local_certificate(model, region, localize(model, region)).C


def certificate_b(model, localized, region):
    """b of the certificate of `localized`, aligned with region.alpha."""
    return local_certificate(model, region, localized).b


def star(leaves, j=0.2):
    """Hub 0 joined to leaves 1..leaves by couplings j, all fields zero."""
    return build_model([(0, k, j) for k in range(1, leaves + 1)], [0.0] * (leaves + 1))


class TestInteractionMatrix:
    def test_non_adjacent_zero(self, chain3):
        assert whole_model_c(chain3)[0, 2] == 0.0

    def test_single_edge_rows(self):
        m = build_model([(0, 1, 0.25)], [0.0, 0.0])
        c = whole_model_c(m)
        want = math.tanh(0.25)
        np.testing.assert_allclose(c, [[0.0, want], [want, 0.0]], atol=1e-15)
        coeff, node = dobrushin_coefficient(m)
        assert coeff == pytest.approx(want, abs=1e-15)
        assert node == 0  # tie broken to the lowest id

    def test_field_offset_reduces_entry(self):
        m = build_model([(0, 1, 0.25)], [0.5, 0.0])
        # M* = 2 h_0 = 1.0
        assert whole_model_c(m)[0, 1] == pytest.approx(0.19511514499178906, abs=1e-15)

    def test_signed_neighbor_sum_offset(self):
        # entry(0,1): other neighbour contributes 2*0.4, field 2*0.1 -> M* = 0.6
        m = build_model([(0, 1, 0.25), (0, 2, 0.4)], [0.1, 0.0, 0.0])
        assert whole_model_c(m)[0, 1] == pytest.approx(0.2252809181161778, abs=1e-15)

    def test_edgeless_coefficient(self):
        m = build_model([], [0.3, -0.2])
        assert dobrushin_coefficient(m) == (0.0, 0)

    def test_enumeration_cap(self):
        # each entry of the hub's row searches its 26 other couplings
        with pytest.raises(EnumerationCapError, match="cap is 25"):
            whole_model_c(star(dobrushin.ENUMERATION_CAP + 2))

    @given(st.integers(2, 9), st.integers(0, 10**6))
    def test_entries_bounded_by_tanh(self, n, seed):
        m = random_connected_model(n, seed, j_scale=1.5)
        c = whole_model_c(m)
        assert np.all(c >= 0.0)
        for u, v, j in m.edges():
            cap = math.tanh(abs(j)) + 1e-12
            assert c[u, v] <= cap and c[v, u] <= cap

    @given(st.integers(0, 10**6), st.integers(dobrushin.SCALAR_MAX_K + 2, 14))
    def test_coefficient_reads_the_certificate_rows(self, seed, hub_degree):
        # hub 14 has more than SCALAR_MAX_K other couplings per entry, so its
        # row is searched in halves; every other row, of degree at most 5, is
        # listed in full
        tree = random_connected_model(14, seed, max_degree=4, j_scale=0.6)
        rng = np.random.Generator(np.random.Philox(seed))
        leaves = rng.choice(14, size=hub_degree, replace=False)
        js = rng.uniform(-0.6, 0.6, size=hub_degree)
        spokes = [(14, int(k), float(j)) for k, j in zip(leaves, js)]
        m = build_model(list(tree.edges()) + spokes, np.append(tree.h, rng.uniform(-1, 1)))
        coeff, node = dobrushin_coefficient(m)
        c = whole_model_c(m)
        assert coeff == pytest.approx(c.sum(axis=1).max(), abs=1e-12)
        # added left to right, as dobrushin_coefficient adds a row
        row_sums = np.cumsum(c, axis=1)[:, -1]
        assert node == int(np.argmax(row_sums))  # the lowest id at the max

    def test_grid_coefficient_below_one(self):
        from localmrf import GridSpec, gen_grid

        model = gen_grid(GridSpec(10, 10, I1=1.0, I2=0.25, seed=0))
        coeff, node = dobrushin_coefficient(model)
        assert 0.0 < coeff < 1.0
        assert 0 <= node < 100

    def test_coefficient_memo_keeps_rows_not_sums(self, monkeypatch):
        # the memo is shared by the whole model, and the sums of real-valued
        # couplings do not recur, so only rows are kept
        memos, real = [], dobrushin._memo_row

        def recording(h, js, memo, sums, node):
            memos.append(memo)
            return real(h, js, memo, sums, node)

        monkeypatch.setattr(dobrushin, "_memo_row", recording)
        dobrushin_coefficient(random_connected_model(40, 3, max_degree=5, j_scale=0.6))
        (memo,) = {id(memo): memo for memo in memos}.values()
        assert len(memo) == 40 and {key[0] for key in memo} == {"C"}


class TestMinAbsOffsetSum:
    def test_frozen_small_cases(self):
        assert _min_abs_offset_sum([0.4], 0.2) == pytest.approx(0.2, abs=1e-15)
        assert _min_abs_offset_sum([0.3, 0.5, 0.1], 0.05) == pytest.approx(0.05, abs=1e-15)
        assert _min_abs_offset_sum([], 0.7) == 0.7

    def test_frozen_meet_in_middle(self):
        vals = [0.11, 0.23, 0.05, 0.4, 0.17, 0.31, 0.02, 0.27, 0.19, 0.08, 0.36, 0.13, 0.29, 0.21]
        assert _min_abs_offset_sum(vals, 0.033) == pytest.approx(0.00699999999999984, abs=1e-12)

    def test_meet_in_middle_matches_enumeration(self):
        rng = np.random.Generator(np.random.Philox(7))
        vals = [float(v) for v in rng.uniform(0.01, 0.5, size=14)]
        offset = 0.123
        best = min(
            abs(offset + sum((1 if bits >> l & 1 else -1) * vals[l] for l in range(14)))
            for bits in range(1 << 14)
        )
        assert _min_abs_offset_sum(vals, offset) == pytest.approx(best, abs=1e-9)

    @given(
        st.lists(st.floats(-3, 3), min_size=0, max_size=10),
        st.floats(-3, 3),
    )
    def test_matches_enumeration(self, vals, offset):
        k = len(vals)
        best = min(
            abs(offset + sum((1 if bits >> l & 1 else -1) * vals[l] for l in range(k)))
            for bits in range(1 << k)
        )
        assert _min_abs_offset_sum(vals, offset) == pytest.approx(best, abs=1e-9)


def _enumerated_sums(values):
    """Every signed sum, added left to right: the full 2^k enumeration that C
    and b searched before the nearest-sum kernel, kept as the reference."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums - v, sums + v])
    return sums


def _enumerated_b(h_tilde, h, alpha_js, t):
    sums = _enumerated_sums(alpha_js)
    p_mu = expit(2.0 * h_tilde + sums)
    base = 2.0 * h + sums
    gap = np.maximum(np.abs(p_mu - expit(base + t)), np.abs(p_mu - expit(base - t)))
    return float(np.max(gap))


def perturbation_entry(h_tilde, h, vals, t):
    """b's readout on the sorted sums a scorer's memo would hold for vals."""
    vals = tuple(vals)
    return _perturbation_entry(h_tilde, h, vals, t, _sums(vals, {}))


def _rounding(vals, offset=0.0):
    """Bound on how far two left-to-right roundings of one exact signed sum
    (plus offset) can differ: the kernel and the enumeration may round a sum
    that two sign patterns reach exactly along different patterns."""
    return 2 * (len(vals) + 1) * 2.0**-53 * (abs(offset) + sum(abs(v) for v in vals))


class TestNearestSums:
    @given(
        st.lists(st.floats(-2, 2), max_size=16),
        st.floats(-6, 6),
        st.floats(-1, 1),
    )
    def test_c_entry_matches_full_enumeration(self, vals, offset, j):
        want = float(np.min(np.abs(offset + _enumerated_sums(vals))))
        got = _min_abs_offset_sum(vals, offset)
        assert conditional_gap(got, j) == pytest.approx(conditional_gap(want, j), abs=1e-15)
        assert got == pytest.approx(want, abs=_rounding(vals, offset))

    @given(
        st.lists(st.floats(-2, 2), max_size=16),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(0, 6),
    )
    def test_b_entry_matches_full_enumeration(self, vals, h_tilde, h, t):
        want = _enumerated_b(h_tilde, h, vals, t)
        assert perturbation_entry(h_tilde, h, vals, t) == pytest.approx(want, abs=1e-15)

    @given(st.lists(st.floats(-2, 2), max_size=12), st.floats(-30, 30))
    def test_nearest_from_each_side(self, vals, target):
        sums = _enumerated_sums(vals)
        below, above = sums[sums < target], sums[sums >= target]
        want = ([below.max()] if below.size else []) + ([above.min()] if above.size else [])
        got = sorted(_nearest_sums(vals, (target,)))
        assert got == pytest.approx(want, abs=_rounding(vals))

    def test_switch_point_changes_no_bit(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(11))
        cases = [
            (tuple(float(v) for v in rng.uniform(-1, 1, size=k)), float(rng.uniform(-3, 3)))
            for k in range(13)
            for _ in range(20)
        ]

        def run():  # the C and b readouts, on fresh sums
            return [
                (
                    dobrushin._interaction_row(o, v, dobrushin._row_sums(v, {})),
                    perturbation_entry(0.3 * o, -0.2, v, abs(o)),
                )
                for v, o in cases
            ]

        monkeypatch.setattr(dobrushin, "SCALAR_MAX_K", 0)
        halves = run()
        monkeypatch.setattr(dobrushin, "SCALAR_MAX_K", 16)
        assert run() == halves


def reference_nearest_sums(values, targets):
    """_nearest_sums as it was, enumerating the small sums on every call."""
    if len(values) <= dobrushin.SCALAR_MAX_K:
        sums = [0.0]
        for v in values:
            sums = [s - v for s in sums] + [s + v for s in sums]
        sums.sort()
        nearest = []
        for target in targets:
            i = bisect.bisect_left(sums, target)
            nearest += sums[max(i - 1, 0) : i + 1]
        return nearest
    return _nearest_sums(values, targets)  # the halves are unchanged


def reference_row(h, js):
    """A C row as it was built per call: every entry enumerates its sums."""
    row = []
    for p, j in enumerate(js):
        if j == 0.0:
            row.append(0.0)
            continue
        others = [2.0 * x for l, x in enumerate(js) if l != p]
        m = min([abs(2.0 * h + s) for s in reference_nearest_sums(others, (-(2.0 * h),))])
        row.append(abs(sigmoid(-(m + 2.0 * j)) - sigmoid(-(m - 2.0 * j))))
    return row


def reference_entry(h_tilde, h, inside_js, t):
    """A b entry as it was built per call."""
    alpha_js = [2.0 * x for x in inside_js]
    a, c = 2.0 * h_tilde, 2.0 * h
    best = 0.0
    for s in reference_nearest_sums(alpha_js, (-(a + c + t) / 2.0, -(a + c - t) / 2.0)):
        p_mu = sigmoid(a + s)
        best = max(best, abs(p_mu - sigmoid(c + s + t)), abs(p_mu - sigmoid(c + s - t)))
    return best


couplings = st.lists(
    st.one_of(st.just(0.0), st.floats(-50, 50)), max_size=dobrushin.SCALAR_MAX_K + 3
)


class TestKernelsAgainstReference:
    """The kernels read off cached sorted sums give the bits the per-call
    kernels gave, whatever the memo already holds, through both halves of
    _nearest_sums and at zero couplings."""

    @given(couplings, st.floats(-50, 50), st.floats(-50, 50))
    @example(js=[], h=0.3, h_tilde=-0.3)
    @example(js=[0.0, 0.0], h=0.1, h_tilde=0.2)
    def test_row_bits(self, js, h, h_tilde):
        js = tuple(js)
        memo: dict = {}
        for field in (h, h_tilde, h):  # the second read of each is off the memo
            want = [x.hex() for x in reference_row(field, js)]
            read = dobrushin._interaction_row(field, js, dobrushin._row_sums(js, memo))
            assert [x.hex() for x in read] == want
            assert [x.hex() for x in dobrushin._memo_row(field, js, memo, memo, 0)] == want
            assert [x.hex() for x in dobrushin._memo_row(field, js, None, memo, 0)] == want

    @given(
        couplings,
        st.lists(st.floats(-50, 50), min_size=1, max_size=3),
        st.floats(-50, 50),
        st.floats(-50, 50),
    )
    def test_entry_bits(self, inside, outside, h, h_tilde):
        inside = tuple(inside)
        t = 2.0 * sum(map(abs, outside))
        memo: dict = {}
        for field in (h_tilde, h, h_tilde):
            want = reference_entry(field, h, inside, t).hex()
            alpha_js = tuple([2.0 * x for x in inside])
            read = dobrushin._perturbation_entry(field, h, alpha_js, t, _sums(alpha_js, memo))
            assert read.hex() == want
            assert dobrushin._memo_entry(field, h, inside, t, 0, memo, memo).hex() == want
            assert dobrushin._memo_entry(field, h, inside, t, 0, None, memo).hex() == want


class TestAtTheCap:
    """The enumeration cap counts the couplings a search enumerates: a C
    row's other alpha neighbours, a boundary node's alpha neighbours. A search
    exactly at ENUMERATION_CAP builds a sound certificate; one more coupling
    raises, and couplings outside alpha do not count. The hub models are
    trees, too large for brute force, so eliminate_marginal is the oracle.
    """

    @staticmethod
    def hub_model(rng, leaves, outside_of_hub, outside_of_leaves, j_scale):
        """Hub 0 with `leaves` neighbours 1..leaves, the last `outside_of_hub`
        of them outside alpha; the first `outside_of_leaves` leaves in alpha
        get one outside neighbour each. Returns (model, alpha)."""
        n_in = leaves - outside_of_hub
        edges = [(0, k) for k in range(1, leaves + 1)]
        edges += [(k, leaves + k) for k in range(1, outside_of_leaves + 1)]
        n = leaves + outside_of_leaves + 1
        js = rng.uniform(-j_scale, j_scale, size=len(edges))
        model = build_model(
            [(u, v, float(j)) for (u, v), j in zip(edges, js)], rng.uniform(-1, 1, size=n)
        )
        return model, list(range(n_in + 1))

    @staticmethod
    def assert_sound(model, alpha):
        region = make_region(model, alpha, 0)
        p_true = eliminate_marginal(model, 0)
        for method in (BoundaryMethod.DROP_OUT, BoundaryMethod.MEAN_FIELD):
            try:
                loc = localize(model, region, method)
            except MeanFieldDivergence:
                continue
            cert = local_certificate(model, region, loc)
            assert cert.valid or cert.bound == math.inf
            if cert.valid:
                err = abs(eliminate_marginal(loc.submodel, loc.index_of(0)) - p_true)
                assert err <= cert.bound + 1e-12

    @given(st.integers(1, 3), st.integers(0, 10**6), st.sampled_from([0.1, 0.2, 0.3]))
    @example(outside=1, seed=0, j_scale=0.2)
    def test_boundary_degree_at_cap(self, outside, seed, j_scale):
        # b path: hub 0 is a boundary node with ENUMERATION_CAP alpha-side
        # couplings and `outside` more, so b_0 searches ENUMERATION_CAP sums
        cap = dobrushin.ENUMERATION_CAP
        rng = np.random.Generator(np.random.Philox(seed))
        model, alpha = self.hub_model(rng, cap + outside, outside, 0, j_scale)
        assert model.degree(0) == cap + outside
        self.assert_sound(model, alpha)
        model, alpha = self.hub_model(rng, cap + 1 + outside, outside, 0, j_scale)
        region = make_region(model, alpha, 0)
        with pytest.raises(EnumerationCapError, match=f"node 0 would enumerate {cap + 1} "):
            local_certificate(model, region, localize(model, region))

    @given(st.integers(1, 4), st.integers(0, 10**6), st.sampled_from([0.1, 0.2, 0.3]))
    @example(marked=4, seed=0, j_scale=0.2)
    def test_row_at_cap(self, marked, seed, j_scale):
        # C path: hub 0 is interior with ENUMERATION_CAP + 1 alpha neighbours,
        # so each entry of its row searches the sums of ENUMERATION_CAP other
        # couplings; `marked` leaves get an outside neighbour, so b is not zero
        cap = dobrushin.ENUMERATION_CAP
        rng = np.random.Generator(np.random.Philox(seed))
        model, alpha = self.hub_model(rng, cap + 1, 0, marked, j_scale)
        self.assert_sound(model, alpha)
        model, alpha = self.hub_model(rng, cap + 2, 0, marked, j_scale)
        region = make_region(model, alpha, 0)
        with pytest.raises(EnumerationCapError, match=f"node 0 would enumerate {cap + 1} "):
            local_certificate(model, region, localize(model, region))

    @given(
        st.integers(dobrushin.ENUMERATION_CAP + 1, 40),
        st.integers(0, 5),
        st.integers(0, 10**6),
        st.sampled_from([0.2, 0.5, 1.0]),
    )
    @example(degree=40, inside=5, seed=0, j_scale=1.0)
    def test_boundary_hub_over_degree_cap_is_sound(self, degree, inside, seed, j_scale):
        # hub 0 has more neighbours than ENUMERATION_CAP, but only `inside` of
        # them in alpha, so b_0 searches `inside` couplings and certifies
        rng = np.random.Generator(np.random.Philox(seed))
        model, alpha = self.hub_model(rng, degree, degree - inside, 0, j_scale)
        assert model.degree(0) > dobrushin.ENUMERATION_CAP and len(alpha) == inside + 1
        self.assert_sound(model, alpha)

    def test_degree_25_is_bounded_in_time_and_memory(self):
        # hub 0: 24 alpha leaves and one outside node, so b_0 searches 24
        # couplings; leaf 1 has 24 more alpha neighbours, so each entry of
        # its C row searches 24 others
        rng = np.random.Generator(np.random.Philox(25))
        edges = [(0, k) for k in range(1, 26)] + [(1, k) for k in range(26, 50)]
        js = rng.uniform(-0.3, 0.3, size=len(edges))
        model = build_model(
            [(u, v, float(j)) for (u, v), j in zip(edges, js)], rng.uniform(-0.5, 0.5, size=50)
        )
        region = make_region(model, [0] + list(range(1, 25)) + list(range(26, 50)), 0)
        loc = localize(model, region)
        assert model.degree(0) == 25 == dobrushin.ENUMERATION_CAP
        assert loc.submodel.degree(loc.index_of(1)) == 25
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            cert = local_certificate(model, region, loc)
            seconds.append(time.perf_counter() - start)
        assert cert.valid and 0.0 < cert.bound < 1.0
        tracemalloc.start()
        try:
            local_certificate(model, region, loc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert min(seconds) < 0.05


class TestInfluenceMatrix:
    """x = (I - C)^-1 b and the validity flag, against the rule influence_matrix
    had when it returned the whole inverse (one_matrix)."""

    @staticmethod
    def one_matrix(c, b):
        """(x, valid) by the earlier rule: D = inv(I - C), valid when D >= -1e-12
        entrywise and v = D 1 has C v < v; x = D b. Kept as the reference for
        every slice of a stack."""
        n = c.shape[0]
        try:
            d = np.linalg.inv(np.eye(n) - c)
        except np.linalg.LinAlgError:
            return np.full(n, np.nan), False
        v = d.sum(axis=1)
        return d @ b, float(d.min()) >= -1e-12 and bool((c @ v < v).all())

    @staticmethod
    def scaled_stack(rng, m, n, low, high):
        """m sparse nonnegative n x n slices, each scaled to a spectral radius
        drawn uniformly from [low, high] (a nilpotent slice stays at 0)."""
        c = rng.uniform(0, 1, size=(m, n, n)) * (rng.random((m, n, n)) < 0.6)
        for i in range(m):
            rho = spectral_radius(c[i])
            if rho > 0.0:
                c[i] *= rng.uniform(low, high) / rho
        return c

    def test_zero_matrix(self):
        b = np.array([0.25, 0.0, 3.0])
        x, valid = influence_matrix(np.zeros((3, 3)), b)
        assert valid
        np.testing.assert_array_equal(x, b)

    def test_one_by_one(self):
        x, valid = influence_matrix(np.array([[0.5]]), np.ones(1))
        assert valid and x[0] == pytest.approx(2.0, abs=1e-12)

    def test_two_by_two_frozen(self):
        # b = e_0, so x is column 0 of D: D_00 and D_10 (= D_01 by symmetry)
        c = np.array([[0.0, 0.3], [0.3, 0.0]])
        x, valid = influence_matrix(c, np.array([1.0, 0.0]))
        assert valid
        assert x[0] == pytest.approx(1.0989010989010988, abs=1e-12)
        assert x[1] == pytest.approx(0.32967032967032966, abs=1e-12)

    def test_invalid_when_radius_at_least_one(self):
        cases = [
            [[1.1]],
            [[1.0]],  # I - C singular
            [[0.5, 0.0], [0.0, 1.2]],  # reducible: one block valid, one not
            # row 0 reaches no node of the rho = 1.5 block {1, 2}: D's row 0 is
            # clean, so only the whole inverse shows the radius
            [[0.0, 0.0, 0.0], [0.2, 0.0, 1.5], [0.0, 1.5, 0.0]],
        ]
        for c in cases:
            _, valid = influence_matrix(np.array(c), np.ones(len(c)))
            assert not valid, c

    @given(st.integers(0, 10**6), st.floats(0.9, 1.1))
    def test_valid_iff_radius_below_one(self, seed, rho):
        rng = np.random.Generator(np.random.Philox(seed))
        c = rng.uniform(0, 1, size=(6, 6)) * (rng.random((6, 6)) < 0.6)
        rho0 = spectral_radius(c)
        assume(rho0 > 0.0)
        c *= rho / rho0
        actual = spectral_radius(c)
        assume(abs(actual - 1.0) >= 1e-9)
        assert influence_matrix(c, np.ones(6))[1] == (actual < 1.0)

    @given(st.integers(1, 8), st.integers(1, 16), st.integers(0, 10**6))
    def test_solution_matches_inverse_times_b(self, m, n, seed):
        # contracting slices and a positive b, so every entry of x is positive
        # and compares relatively
        rng = np.random.Generator(np.random.Philox(seed))
        c = self.scaled_stack(rng, m, n, 0.0, 0.9)
        b = rng.uniform(0.01, 1.0, size=(m, n))
        x, valid = influence_matrix(c, b)
        assert valid.all()
        for i in range(m):
            want = np.linalg.inv(np.eye(n) - c[i]) @ b[i]
            np.testing.assert_allclose(x[i], want, rtol=1e-12, atol=0.0)

    def test_matches_truncated_series(self):
        rng = np.random.Generator(np.random.Philox(3))
        c = rng.uniform(0, 0.2, size=(5, 5))
        np.fill_diagonal(c, 0.0)
        b = rng.uniform(0, 1, size=5)
        x, valid = influence_matrix(c, b)
        assert valid and np.all(x >= 0.0)
        series = b.copy()
        term = b.copy()
        for _ in range(200):
            term = c @ term
            series += term
        np.testing.assert_allclose(x, series, atol=1e-10)

    def test_row_sum_bound(self):
        # with b = 1, x = v = D 1 holds D's row sums
        rng = np.random.Generator(np.random.Philox(5))
        c = rng.uniform(0, 0.15, size=(6, 6))
        np.fill_diagonal(c, 0.0)
        x, valid = influence_matrix(c, np.ones(6))
        assert valid
        c_max = float(np.max(c.sum(axis=1)))
        assert np.all(x <= 1.0 / (1.0 - c_max) + 1e-9)

    @given(st.integers(1, 12), st.integers(1, 16), st.integers(0, 10**6))
    def test_stack_matches_one_call_per_slice(self, m, n, seed):
        # each slice is scaled to a spectral radius in [0.95, 1.05], where
        # the positivity of v and the Collatz-Wielandt test decide validity
        rng = np.random.Generator(np.random.Philox(seed))
        c = self.scaled_stack(rng, m, n, 0.95, 1.05)
        b = rng.uniform(0, 1, size=(m, n)) * (rng.random((m, n)) < 0.5)
        x, valid = influence_matrix(c, b)
        assert x.shape == b.shape and valid.shape == (m,)
        for i in range(m):
            one_x, one_valid = influence_matrix(c[i], b[i])
            assert x[i].tobytes() == one_x.tobytes()
            assert valid[i] == one_valid == self.one_matrix(c[i], b[i])[1]

    def test_singular_slice_in_a_stack(self):
        # I - C of the first slice is singular, so the stacked solve raises
        # and every slice is solved alone
        c = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.3], [0.3, 0.0]]])
        b = np.array([[1.0, 0.5], [1.0, 0.5]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(2) - c, b[..., None])
        x, valid = influence_matrix(c, b)
        assert np.isnan(x[0]).all() and not valid[0]
        one_x, one_valid = influence_matrix(c[1], b[1])
        assert x[1].tobytes() == one_x.tobytes() and valid[1] == one_valid
        want_x, want_valid = self.one_matrix(c[1], b[1])
        np.testing.assert_allclose(x[1], want_x, rtol=1e-12)
        assert valid[1] == want_valid

def rescan_extend_certificates(model, alpha, query, candidates, fields=None, *, base=None):
    """Reference for CandidateScorer.score: the stateless assembly it
    replaced, which rescans every redone node's adjacency and looks each
    coupling up in J for every candidate at every step. It keeps no patch:
    with base, it recomputes the rows and entries of k, of k's alpha
    neighbours and of the nodes whose field differs from base's, and copies
    the rest; without base, it computes every row and entry."""
    memo: dict = {}
    candidates = tuple(candidates)
    m, n = len(candidates), len(alpha) + 1
    if fields is None:
        h = np.empty((m, n))
        h[:, :-1] = model.h[list(alpha)]
        h[:, -1] = model.h[list(candidates)]
    else:
        h = np.array(fields, dtype=np.float64).reshape(m, n)
    index = {g: i for i, g in enumerate(alpha)}
    adjacency, couplings = model.adjacency, model.J
    c = np.zeros((m, n, n))
    b = np.zeros((m, n))
    moved = [[] for _ in candidates]
    if base is not None:
        if (base.localized.model, base.localized.alpha) != (model, alpha):
            raise ValueError("base must certify alpha of the same model")
        c[:, :-1, :-1] = base.C
        b[:, :-1] = base.b
        for ci, i in zip(*np.nonzero(h[:, :-1] != base.localized.h)):
            moved[ci].append(int(i))
    errors = {}
    for ci, (k, h_tilde) in enumerate(zip(candidates, h.tolist())):
        inside = {**index, k: n - 1}
        local = (*alpha, k)
        if base is None:
            redo = range(n)
        else:
            k_nbrs = (index[g] for g in adjacency[k] if g in index)
            redo = sorted({n - 1, *k_nbrs, *moved[ci]})
        c_k, b_k = c[ci], b[ci]
        try:
            split = []
            for i in redo:
                g = local[i]
                cols, inside_js, outside_js = [], [], []
                for x in adjacency[g]:
                    j = couplings[(g, x) if g < x else (x, g)]
                    if x in inside:
                        cols.append(inside[x])
                        inside_js.append(j)
                    else:
                        outside_js.append(j)
                split.append((i, g, inside_js, outside_js))
                row = sorted(zip(cols, inside_js))
                js = tuple(j for _, j in row)
                for (l, _), entry in zip(row, dobrushin._memo_row(h_tilde[i], js, memo, memo, g)):
                    c_k[i, l] = entry
            for i, g, inside_js, outside_js in split:
                b_k[i] = (
                    dobrushin._memo_entry(
                        h_tilde[i],
                        float(model.h[g]),
                        tuple(inside_js),
                        2.0 * sum(map(abs, outside_js)),
                        g,
                        memo,
                        memo,
                    )
                    if outside_js
                    else 0.0
                )
        except EnumerationCapError as exc:
            errors[k] = exc
    solved = [ci for ci, k in enumerate(candidates) if k not in errors]
    x, solved_valid = influence_matrix(c[solved], b[solved]) if errors else influence_matrix(c, b)
    valid = np.zeros(m, dtype=bool)
    valid[solved] = solved_valid
    bounds = np.full(m, math.inf)
    bounds[solved] = np.where(solved_valid, x[:, index.get(query, n - 1)], math.inf)
    return dobrushin.CertificateBatch(
        candidates=candidates, C=c, b=b, bounds=tuple(bounds.tolist()), valid=valid, errors=errors
    )


def assert_same_batch(got, want):
    """Two batches agree byte for byte: bounds, validity, errors, and the C
    and b slices of every candidate that was solved (an errored candidate's
    slices are documented as incomplete)."""
    assert got.candidates == want.candidates
    assert [x.hex() for x in got.bounds] == [x.hex() for x in want.bounds]
    assert got.valid.tolist() == want.valid.tolist()
    assert {k: (type(e), str(e)) for k, e in got.errors.items()} == {
        k: (type(e), str(e)) for k, e in want.errors.items()
    }
    for i, k in enumerate(got.candidates):
        if k not in got.errors:
            assert got.C[i].tobytes() == want.C[i].tobytes(), k
            assert got.b[i].tobytes() == want.b[i].tobytes(), k


def scored(model, alpha, query, candidates, fields=None, base=None):
    """One step of a fresh CandidateScorer, checked against the rescan."""
    batch = dobrushin.CandidateScorer(model, alpha, query, base=base).score(candidates, fields)
    want = rescan_extend_certificates(model, alpha, query, candidates, fields, base=base)
    assert_same_batch(batch, want)
    return batch


class TestExtendCertificates:
    """A step's candidates certified in one batch: each candidate's slices,
    bound and validity are those of the certificate of alpha + (k,) alone."""

    @staticmethod
    def start(model, alpha, query=0):
        region = make_region(model, alpha, query)
        return local_certificate(model, region, localize(model, region))

    def assert_fresh(self, model, alpha, batch, query=0):
        """Every candidate of batch against a fresh, memo-less certificate."""
        for i, k in enumerate(batch.candidates):
            region = make_region(model, alpha + (k,), query)
            loc = localize(model, region)
            if k in batch.errors:
                assert batch.bounds[i] == math.inf and not batch.valid[i]
                message = re.escape(str(batch.errors[k]))
                with pytest.raises(EnumerationCapError, match=message):
                    local_certificate(model, region, loc)
                with pytest.raises(EnumerationCapError, match=message):
                    batch.certificate(k, loc)
                continue
            want = local_certificate(model, region, loc)
            got = batch.certificate(k, loc)
            assert batch.C[i].tobytes() == got.C.tobytes() == want.C.tobytes()
            assert batch.b[i].tobytes() == got.b.tobytes() == want.b.tobytes()
            assert batch.bounds[i].hex() == got.bound.hex() == want.bound.hex()
            assert batch.valid[i] == got.valid == want.valid
            assert got.c_local == want.c_local

    def test_singular_candidate(self):
        # a coupling of 50 puts C_01 = C_10 = 1.0, so I - C of candidate 1 is
        # singular: it is invalid and candidate 2 is still certified
        model = build_model([(0, 1, 50.0), (0, 2, 0.1)], [0.0, 0.0, 0.0])
        for base in (None, self.start(model, (0,))):
            batch = scored(model, (0,), 0, (1, 2), base=base)
            assert batch.C[0, 0, 1] == batch.C[0, 1, 0] == 1.0
            assert batch.bounds[0] == math.inf and not batch.valid[0]
            assert batch.valid[1] and math.isfinite(batch.bounds[1])
            self.assert_fresh(model, (0,), batch)

    def test_over_cap_candidate(self):
        # hub 0 with 27 leaves, 25 of them in alpha, and node 28 hanging off
        # leaf 1: a 26th leaf puts the hub's b entry over the cap, node 28
        # does not
        model = build_model(
            [(0, k, 0.05) for k in range(1, 28)] + [(1, 28, 0.3)], [0.1] * 29
        )
        alpha = tuple(range(26))
        for base in (None, self.start(model, alpha)):
            batch = scored(model, alpha, 0, (26, 27, 28), base=base)
            assert set(batch.errors) == {26, 27}
            assert "node 0 would enumerate 26 couplings" in str(batch.errors[26])
            assert batch.valid[2] and math.isfinite(batch.bounds[2])
            self.assert_fresh(model, alpha, batch)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_slice_equals_a_batch_of_one(self, seed):
        model = random_connected_model(12, seed, j_scale=1.0)
        region = make_region(model, (0,), 0)
        while len(region.alpha) < 6:
            alpha, ks = region.alpha, region.boundary_beta
            base = self.start(model, alpha)
            for b in (None, base):
                batch = scored(model, alpha, 0, ks, base=b)
                self.assert_fresh(model, alpha, batch)
                for i, k in enumerate(ks):
                    one = scored(model, alpha, 0, (k,), base=b)
                    assert one.C[0].tobytes() == batch.C[i].tobytes()
                    assert one.b[0].tobytes() == batch.b[i].tobytes()
                    assert one.bounds[0].hex() == batch.bounds[i].hex()
                    assert one.valid[0] == batch.valid[i]
            region = make_region(model, alpha + (ks[0],), 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_model_fields_on_a_mean_field_base(self, seed):
        # scored without fields, the candidates take the model's fields;
        # base's compensated fields are not the model's, so base is dropped,
        # every row is built, and no patch is kept
        model = random_connected_model(12, seed, j_scale=1.0)
        region = make_region(model, (0, 1, 2, 3), 0)
        base = local_certificate(model, region, localize(model, region, BoundaryMethod.MEAN_FIELD))
        assert (base.localized.h != model.h[list(region.alpha)]).any()
        scorer = dobrushin.CandidateScorer(model, region.alpha, 0, base=base)
        batch = scorer.score(region.boundary_beta)
        want = rescan_extend_certificates(model, region.alpha, 0, region.boundary_beta, base=base)
        assert_same_batch(batch, want)
        assert scorer.base is None and scorer.patches == {}
        self.assert_fresh(model, region.alpha, batch)

    def test_patch_kept_unless_the_accepted_node_changes_it(self):
        # a 5x5 grid (node 5r + c) with alpha the middle of row 2; k* = 6
        # sits above alpha's first node 11, so candidate 8, two hops from k*
        # through 7, keeps its patch, while 16, below 11, gets a new one
        edges = [(5 * r + c, 5 * r + c + 1, 0.3) for r in range(5) for c in range(4)]
        edges += [(5 * r + c, 5 * r + c + 5, -0.2) for r in range(4) for c in range(5)]
        model = build_model(edges, [0.1 * (i % 7) - 0.3 for i in range(25)])
        alpha = (12, 11, 13)
        region = make_region(model, alpha, 12)
        scorer = dobrushin.CandidateScorer(model, alpha, 12, base=self.start(model, alpha, 12))
        batch = scorer.score(region.boundary_beta)
        before = dict(scorer.patches)
        assert set(before) == set(region.boundary_beta)
        region = make_region(model, alpha + (6,), 12)
        scorer.accept(6, batch.certificate(6, localize(model, region)))
        assert 6 not in scorer.patches and 7 not in scorer.patches  # k*, and k*'s neighbour
        assert 16 not in scorer.patches and 10 not in scorer.patches  # an alpha neighbour in N(6)
        assert scorer.patches[8] is before[8] and scorer.patches[18] is before[18]
        batch = scorer.score(region.boundary_beta)
        assert scorer.patches[8] is before[8]
        assert scorer.patches[16] is not before[16]
        want = rescan_extend_certificates(
            model, region.alpha, 12, region.boundary_beta, base=scorer.base
        )
        assert_same_batch(batch, want)

    def test_accept_checks_the_certificate(self, chain3):
        region = make_region(chain3, [0], 0)
        scorer = dobrushin.CandidateScorer(chain3, (0,), 0, base=self.start(chain3, (0,)))
        batch = scorer.score((1,))
        wrong = local_certificate(chain3, region, localize(chain3, region))
        with pytest.raises(ValueError, match="base must certify"):
            scorer.accept(1, wrong)
        assert scorer.alpha == (0,)
        grown = make_region(chain3, (0, 1), 0)
        scorer.accept(1, batch.certificate(1, localize(chain3, grown)))
        assert scorer.alpha == (0, 1) and scorer.index == {0: 0, 1: 1}
        assert_same_batch(
            scorer.score((2,)),
            rescan_extend_certificates(chain3, (0, 1), 0, (2,), base=scorer.base),
        )


class TestSpectralRadius:
    def test_small_cases(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0
        assert spectral_radius(np.zeros((2, 2))) == 0.0
        assert spectral_radius(np.array([[0.7]])) == pytest.approx(0.7, abs=1e-9)
        c = np.array([[0.0, 0.3], [0.3, 0.0]])
        assert spectral_radius(c) == pytest.approx(0.3, abs=1e-9)

    @given(st.integers(0, 10**6))
    def test_matches_eigvals(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        c = rng.uniform(0, 1, size=(6, 6))
        np.fill_diagonal(c, 0.0)
        want = float(np.max(np.abs(np.linalg.eigvals(c))))
        assert spectral_radius(c) == pytest.approx(want, abs=1e-6)


class TestPerturbationVector:
    def test_interior_nodes_zero(self):
        m = chain_model([0.3, 0.3, 0.3], [0.0] * 4)
        region = make_region(m, [0, 1, 2], 0)
        loc = localize(m, region, BoundaryMethod.DROP_OUT)
        b = certificate_b(m, loc, region)
        assert b[0] == 0.0 and b[1] == 0.0
        assert b[2] > 0.0

    def test_full_alpha_all_zero(self, chain3):
        region = make_region(chain3, [0, 1, 2], 0)
        loc = localize(chain3, region, BoundaryMethod.DROP_OUT)
        assert np.array_equal(certificate_b(chain3, loc, region), np.zeros(3))

    @pytest.mark.parametrize(
        "j,want",
        [(0.25, 0.1224593312018546), (0.7, 0.3021838885585817)],
    )
    def test_single_cross_edge_frozen(self, j, want):
        m = build_model([(0, 1, j)], [0.0, 0.0])
        region = make_region(m, [0], 0)
        loc = localize(m, region, BoundaryMethod.DROP_OUT)
        b = certificate_b(m, loc, region)
        assert b[0] == pytest.approx(want, abs=1e-15)

    def test_alignment_follows_alpha_order(self):
        m = chain_model([0.3, 0.5], [0.0, 0.0, 0.0])
        region = make_region(m, [1, 0], 1)  # node 1 first in alpha
        loc = localize(m, region, BoundaryMethod.DROP_OUT)
        b = certificate_b(m, loc, region)
        assert b[0] > 0.0 and b[1] == 0.0

    def test_meanfield_shift_on_chain(self, chain3_mf):
        region = make_region(chain3_mf, [0, 1], 0)
        b_drop = certificate_b(
            chain3_mf, localize(chain3_mf, region, BoundaryMethod.DROP_OUT), region
        )
        b_mf = certificate_b(
            chain3_mf, localize(chain3_mf, region, BoundaryMethod.MEAN_FIELD), region
        )
        m2 = 0.8327154235150449
        comp = 0.5 * m2

        def worst(shift):
            best = 0.0
            for x0 in (-1.0, 1.0):
                base = 2.0 * 0.3 * x0
                p_mu = sigmoid(base + 2.0 * shift)
                best = max(
                    best,
                    abs(p_mu - sigmoid(base + 1.0)),
                    abs(p_mu - sigmoid(base - 1.0)),
                )
            return best

        assert b_drop[1] == pytest.approx(worst(0.0), abs=1e-12)
        assert b_mf[1] == pytest.approx(worst(comp), abs=1e-7)
        # compensation moves the worst case further out, not closer
        assert b_mf[1] > b_drop[1]

    @given(st.integers(2, 9), st.integers(0, 10**6))
    def test_entries_in_unit_interval(self, n, seed):
        m = random_connected_model(n, seed, j_scale=1.2)
        alpha = [0] + [v for v in range(1, n) if v % 2 == 0]
        region = make_region(m, alpha, 0)
        loc = localize(m, region, BoundaryMethod.DROP_OUT)
        b = certificate_b(m, loc, region)
        assert np.all(b >= 0.0) and np.all(b <= 1.0)

    def test_cap_enforced(self):
        # the hub is a boundary node with 26 leaves inside alpha and one out
        model = star(dobrushin.ENUMERATION_CAP + 2)
        region = make_region(model, range(dobrushin.ENUMERATION_CAP + 2), 0)
        loc = localize(model, region, BoundaryMethod.DROP_OUT)
        with pytest.raises(EnumerationCapError, match="node 0 would enumerate 26 couplings"):
            certificate_b(model, loc, region)


class TestCertificate:
    def test_chain_frozen_end_to_end(self, chain3):
        region = make_region(chain3, [0, 1], 0)
        loc = localize(chain3, region, BoundaryMethod.DROP_OUT)
        cert = local_certificate(chain3, region, loc)
        assert cert.valid
        assert cert.C[0, 1] == pytest.approx(0.28866214124006445, abs=1e-12)
        assert cert.C[1, 0] == pytest.approx(0.29131261245159085, abs=1e-12)
        assert cert.b[0] == 0.0
        assert cert.b[1] == pytest.approx(0.14565630622579545, abs=1e-12)
        assert cert.c_local == pytest.approx(0.29131261245159085, abs=1e-12)
        assert cert.bound == pytest.approx(0.045905715176583234, abs=1e-12)
        p_mu = eliminate_marginal(loc.submodel, 0)
        assert p_mu == pytest.approx(0.5498339973124778, abs=1e-12)
        err = abs(p_mu - eliminate_marginal(chain3, 0))
        assert err == pytest.approx(0.004190586804897478, abs=1e-12)
        assert err <= cert.bound

    def test_full_component_bound_zero(self, chain3):
        region = make_region(chain3, [0, 1, 2], 1)
        loc = localize(chain3, region, BoundaryMethod.DROP_OUT)
        cert = local_certificate(chain3, region, loc)
        assert cert.valid and cert.bound == 0.0

    def test_json_payload(self, chain3):
        import json

        region = make_region(chain3, [0, 1], 0)
        loc = localize(chain3, region, BoundaryMethod.DROP_OUT)
        payload = json.loads(local_certificate(chain3, region, loc).to_json())
        assert set(payload) == {"alpha", "b", "bound", "c_local", "valid"}
        assert payload["alpha"] == [0, 1]
        assert payload["valid"] is True

    def test_invalid_certificate_reports_null_bound(self):
        import json

        # triangle with fields tuned so offsets vanish: rows sum to ~2 tanh(2)
        m = build_model(
            [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0), (0, 3, 0.1)],
            [-2.0, -2.0, -2.0, 0.0],
        )
        region = make_region(m, [0, 1, 2], 0)
        loc = localize(m, region, BoundaryMethod.DROP_OUT)
        cert = local_certificate(m, region, loc)
        assert not cert.valid
        assert cert.bound == math.inf
        assert json.loads(cert.to_json())["bound"] is None

    def test_cap_error_names_the_global_node(self):
        # hub 0 is last in alpha, so its local index is 27
        model = star(dobrushin.ENUMERATION_CAP + 2)
        region = make_region(model, [*range(1, model.n), 0], 1)
        with pytest.raises(EnumerationCapError, match="node 0 would enumerate 26 couplings"):
            local_certificate(model, region, localize(model, region))

    def test_base_must_certify_alpha_without_its_last_node(self, chain3):
        region = make_region(chain3, [0, 1], 0)
        base = local_certificate(chain3, region, localize(chain3, region))

        def c_of(model=chain3, alpha=(0, 1), k=2, base=None):
            return dobrushin.CandidateScorer(model, alpha, 0, base=base).score((k,)).C

        assert c_of(base=base).tobytes() == c_of().tobytes()
        other = chain_model([0.3, 0.3], [0.0] * 3)
        for wrong in ({"alpha": (0, 2), "k": 1}, {"model": other}):
            with pytest.raises(ValueError, match="base must certify"):
                c_of(base=base, **wrong)

    @given(st.integers(3, 9), st.integers(0, 10**6))
    def test_soundness_on_random_models(self, n, seed):
        model = random_connected_model(n, seed, j_scale=0.8)
        rng = np.random.Generator(np.random.Philox(seed + 17))
        size = int(rng.integers(1, n))
        alpha = [0] + [int(v) for v in rng.permutation(range(1, n))[: size - 1]]
        region = make_region(model, alpha, 0)
        p_true = eliminate_marginal(model, 0)
        for method in (BoundaryMethod.DROP_OUT, BoundaryMethod.MEAN_FIELD):
            try:
                loc = localize(model, region, method)
            except MeanFieldDivergence:
                continue
            cert = local_certificate(model, region, loc)
            if not cert.valid:
                continue
            err = abs(eliminate_marginal(loc.submodel, loc.index_of(0)) - p_true)
            assert err <= cert.bound + 1e-9


def certificate_on(memo, model, region, localized):
    """local_certificate, built by a scorer whose memo is `memo`."""
    alpha = region.alpha
    scorer = dobrushin.CandidateScorer(model, alpha[:-1], region.query)
    scorer.memo = memo
    return scorer.score(alpha[-1:], [localized.h]).certificate(alpha[-1], localized)


class TestCertificateMemo:
    """A memo shared between certificates that differ in one input of a C row
    or a b entry must not hand one certificate's row or entry to the other.

    A star: hub 0 with leaves 1 and 2 inside alpha and leaf 3 outside, so the
    hub is the one boundary node and its C row has two entries.
    """

    @staticmethod
    def star(j01=0.4, j03=0.3, h0=0.1, h_tilde0=None, alpha=(0, 1, 2)):
        model = build_model([(0, 1, j01), (0, 2, 0.2), (0, 3, j03)], [h0, -0.2, 0.3, 0.0])
        region = make_region(model, alpha, 0)
        loc = localize(model, region)
        if h_tilde0 is not None:  # a compensated hub field, as mean field gives
            h = loc.h.copy()
            h[loc.index_of(0)] = h_tilde0
            loc = LocalizedModel(loc.alpha, h, model)
        return model, region, loc

    @pytest.mark.parametrize(
        "changed",
        [
            {"alpha": (0, 2, 1)},  # the hub's couplings in another order
            {"h0": 0.6, "h_tilde0": 0.1},  # the global field only
            {"h_tilde0": 0.6},  # the compensated field only
            {"j03": 0.7},  # the outside coupling, so t
            {"j01": 0.5},  # an in-alpha coupling
        ],
        ids=["order", "h", "h_tilde", "t", "alpha_js"],
    )
    def test_one_input_changed_is_a_miss(self, changed):
        memo: dict = {}
        certificate_on(memo, *self.star())
        shared = certificate_on(memo, *self.star(**changed))
        fresh = local_certificate(*self.star(**changed))
        assert shared.C.tobytes() == fresh.C.tobytes()
        assert shared.b.tobytes() == fresh.b.tobytes()
        assert shared.bound == fresh.bound

    def test_same_inputs_are_looked_up(self):
        memo: dict = {}
        first = certificate_on(memo, *self.star())
        size = len(memo)
        again = certificate_on(memo, *self.star())
        assert len(memo) == size  # every row and entry was found
        assert again.C.tobytes() == first.C.tobytes() and again.bound == first.bound

    def test_cap_raises_whatever_the_memo_holds(self):
        # a memo that answers every lookup: with all 27 leaves in alpha the
        # hub's C row is over the cap, with 26 of them its b entry is
        class Planted(dict):
            def get(self, key, default=None):
                return [0.0] * len(key[2]) if key[0] == "C" else 0.0

        model = star(dobrushin.ENUMERATION_CAP + 2)
        for in_alpha in (27, 26):
            region = make_region(model, range(in_alpha + 1), 0)
            with pytest.raises(EnumerationCapError, match="node 0 would enumerate 26 couplings"):
                certificate_on(Planted(), model, region, localize(model, region))


class TestMeanFieldMemo:
    """A MEAN_FIELD greedy expansion on a 10x10 grid: every candidate's
    compensated fields are new, so its rows and entries are read off sorted
    sums the scorer builds once, and only rows and entries at the model's own
    fields are kept."""

    @staticmethod
    def expand(monkeypatch, scorer_class=None):
        from localmrf import GridSpec, gen_grid, greedy_expand
        import localmrf.expansion as expansion

        model = gen_grid(GridSpec(10, 10, I1=1.0, I2=0.25, seed=3))
        if scorer_class is not None:
            monkeypatch.setattr(expansion, "CandidateScorer", scorer_class)
        greedy_expand(model, 55, K=16, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD)
        return model

    def test_memo_keeps_only_the_models_fields(self, monkeypatch):
        scorers = []

        class Kept(dobrushin.CandidateScorer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                scorers.append(self)

        model = self.expand(monkeypatch, Kept)
        fields = set(model.h.tolist())
        (scorer,) = scorers
        rows = [key for key in scorer.memo if key[0] == "C"]
        entries = [key for key in scorer.memo if key[0] == "b"]
        assert rows  # the interior nodes'
        assert all(h in fields for _, h, _ in rows)
        assert all(h_tilde == h for _, h_tilde, h, _, _ in entries)

    def test_sums_are_built_once_per_expansion(self, monkeypatch):
        built, scoring = collections.Counter(), []
        real = dobrushin._signed_sums

        def counting(values):
            if scoring:  # the expansion's scorer, not the start certificate's
                built[tuple(values)] += 1
            return real(values)

        class Counted(dobrushin.CandidateScorer):
            def score(self, candidates, fields=None):
                scoring.append(True)
                try:
                    return super().score(candidates, fields)
                finally:
                    scoring.pop()

        monkeypatch.setattr(dobrushin, "_signed_sums", counting)
        self.expand(monkeypatch, Counted)
        assert len(built) > 100
        assert max(built.values()) == 1

    def test_every_slice_equals_a_fresh_certificate(self, monkeypatch):
        from test_expansion import wrap_scorer

        steps = []

        def check(scorer, candidates, fields, batch):
            frontier = scorer.frontier
            for i, k in enumerate(candidates):
                loc = LocalizedModel(frontier.alpha + (k,), np.asarray(fields[i]), scorer.model)
                region = make_region(scorer.model, loc.alpha, scorer.query)
                fresh = local_certificate(scorer.model, region, loc)
                assert batch.C[i].tobytes() == fresh.C.tobytes(), k
                assert batch.b[i].tobytes() == fresh.b.tobytes(), k
                assert batch.bounds[i] == fresh.bound or not fresh.valid
            steps.append(len(candidates))
            return batch

        wrap_scorer(monkeypatch, check)
        self.expand(monkeypatch)
        assert len(steps) == 15 and sum(steps) > 100


class TestDecayRadius:
    def test_frozen_optimum(self):
        assert decay_radius(0.5, 0.01) == 11
        r, t = decay_radius(0.5, 0.01, return_t=True)
        # t*(11) = 1 + 1 / (11 (1 - c) - c), and r is certified at it
        assert r == 11 and t == pytest.approx(1.2, rel=1e-15)
        assert 0.5 * t / ((t - 1) * 0.5) * ((1 + (t - 1) * 0.5) / (t * 0.5)) ** -11 <= 0.01

    def test_never_exceeds_t2_closed_form(self):
        for c in (0.2, 0.5, 0.8, 0.95):
            for eps in (0.2, 0.05, 0.01):
                closed = max(0, math.ceil(-math.log(eps * (1 - c)) / math.log((1 + c) / (2 * c))))
                assert decay_radius(c, eps) <= closed
        assert max(0, math.ceil(-math.log(0.01 * 0.5) / math.log(1.5))) == 14

    def test_clamped_at_zero(self):
        # d = 0 bound approaches 1 / (2 (1 - c)), already below a loose eps
        assert decay_radius(0.05, 0.9) == 0
        assert decay_bound(0.05, 0) <= 0.9

    def test_monotone_in_eps_and_c(self):
        radii = [decay_radius(0.5, eps) for eps in (0.5, 0.1, 0.02, 0.004)]
        assert radii == sorted(radii)
        by_c = [decay_radius(c, 0.01) for c in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert by_c == sorted(by_c)

    def test_domain_errors(self):
        with pytest.raises(DobrushinConditionError, match="not < 1"):
            decay_radius(1.0, 0.01)
        with pytest.raises(DobrushinConditionError, match="not > 0"):
            decay_radius(0.0, 0.01)
        with pytest.raises(ValueError, match="eps"):
            decay_radius(0.5, 0.0)

    @pytest.mark.parametrize("c", [0.5, 0.9999999999])
    @pytest.mark.parametrize("eps", [1e-300, 1e-320, 5e-324])
    def test_tiny_eps_gives_finite_radius(self, c, eps):
        r = decay_radius(c, eps)
        closed = math.ceil(-(math.log(eps) + math.log(1 - c)) / math.log((1 + c) / (2 * c)))
        assert decay_radius(c, 1e-20) < r <= closed

    def test_subnormal_c_overflows_without_warning(self):
        # (1 - c) / (t c) overflows to inf: one hop decays the bound to 0,
        # while at distance 0 it is 0.50005 > eps, so radius 1, and no numpy
        # overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (1e-310, 1e-320):
                assert decay_radius(c, 0.01) == 1
                assert decay_bound(c, 1) == 0.0 < 0.01 < decay_bound(c, 0)

    def test_non_finite_input_named(self):
        with pytest.raises(DobrushinConditionError, match="c=nan"):
            decay_radius(math.nan, 0.01)
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"got {eps}"):
                decay_radius(0.5, eps)

    @given(
        st.floats(min_value=5e-324, max_value=1 - 1e-9),
        st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
    )
    @example(1e-310, 0.01)
    @example(1e-320, 5e-324)
    @example(1 - 1e-9, 5e-324)
    def test_radius_is_certified_and_minimal(self, c, eps):
        # compared in logs: exp(log(eps)) need not round back to a subnormal eps
        r = decay_radius(c, eps)
        assert _log_bound(c, r)[0] <= math.log(eps)
        if r > 0:
            assert _log_bound(c, r - 1)[0] > math.log(eps)


class TestDecayBound:
    def test_frozen_values(self):
        assert decay_bound(0.5, 14) == pytest.approx(0.0012026145433322246, abs=1e-11)
        assert decay_bound(0.5, 11) == pytest.approx(0.0076294892930509365, abs=1e-11)

    def test_distance_zero_near_one(self):
        v = decay_bound(0.5, 0)
        assert 1.0 < v <= 1.0002

    def test_subnormal_c_at_distance_zero(self):
        # the per-hop decay overflows to inf, which at d = 0 must not turn
        # the bound into nan (and so inf): no decay, the same as c = 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decay_bound(1e-320, 0) == decay_bound(1e-300, 0) == pytest.approx(0.50005)
            assert decay_bound(1e-320, 1) == 0.0

    def test_strictly_decreasing_in_distance(self):
        vals = [decay_bound(0.4, d) for d in range(0, 20, 2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DobrushinConditionError):
            decay_bound(1.2, 3)
        with pytest.raises(ValueError, match="distance"):
            decay_bound(0.5, -1)

    def test_non_finite_input_named(self):
        with pytest.raises(DobrushinConditionError, match="c=nan"):
            decay_bound(math.nan, 3)
        with pytest.raises(ValueError, match="got nan"):
            decay_bound(0.5, math.nan)

    @given(st.floats(0.01, 0.99), st.floats(0.0, 100.0))
    def test_at_most_the_per_t_minimum(self, c, d):
        # the per-t formula, minimised over a dense log-grid of t - 1 spanning
        # the same [1e-6, 9999] the closed form is clamped to
        t = 1.0 + np.exp(np.linspace(math.log(1e-6), math.log(9999.0), 4001))
        per_t = 0.5 * t / ((t - 1) * (1 - c)) * ((1 + (t - 1) * c) / (t * c)) ** -d
        assert decay_bound(c, d) <= (1 + 1e-12) * per_t.min()

    def test_inverse_consistency_with_radius(self):
        for c in np.linspace(0.05, 0.95, 10):
            for eps in (0.2, 0.05, 0.01):
                r = decay_radius(float(c), eps)
                assert decay_bound(float(c), r) <= eps + 1e-12
