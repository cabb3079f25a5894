"""Interaction matrix C and perturbation vector b (both read through
local_certificate), the influence series, certificates and decay bounds."""
import math
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
    _min_abs_offset_sum,
    _nearest_sums,
    _perturbation_entry,
    _radius_objective,
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
        assert _perturbation_entry(h_tilde, h, tuple(vals), t) == pytest.approx(want, abs=1e-15)

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
            ([float(v) for v in rng.uniform(-1, 1, size=k)], float(rng.uniform(-3, 3)))
            for k in range(13)
            for _ in range(20)
        ]

        def run():
            return [
                (_min_abs_offset_sum(v, o), _perturbation_entry(0.3 * o, -0.2, tuple(v), abs(o)))
                for v, o in cases
            ]

        monkeypatch.setattr(dobrushin, "SCALAR_MAX_K", 0)
        halves = run()
        monkeypatch.setattr(dobrushin, "SCALAR_MAX_K", 16)
        assert run() == halves


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
    def test_zero_matrix(self):
        d, valid = influence_matrix(np.zeros((3, 3)))
        assert valid
        np.testing.assert_array_equal(d, np.eye(3))

    def test_one_by_one(self):
        d, valid = influence_matrix(np.array([[0.5]]))
        assert valid and d[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_two_by_two_frozen(self):
        c = np.array([[0.0, 0.3], [0.3, 0.0]])
        d, valid = influence_matrix(c)
        assert valid
        assert d[0, 0] == pytest.approx(1.0989010989010988, abs=1e-12)
        assert d[0, 1] == pytest.approx(0.32967032967032966, abs=1e-12)

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
            _, valid = influence_matrix(np.array(c))
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
        assert influence_matrix(c)[1] == (actual < 1.0)

    @given(st.integers(1, 16), st.integers(0, 10**6), st.floats(0.5, 3.0))
    def test_inverse_bits_equal_solve_against_identity(self, n, seed, scale):
        # the solve influence_matrix ran before np.linalg.inv, kept as the
        # reference: both are one LAPACK gesv against I
        rng = np.random.Generator(np.random.Philox(seed))
        c = rng.uniform(0, scale / n, size=(n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(c, 0.0)
        try:
            want = np.linalg.solve(np.eye(n) - c, np.eye(n))
        except np.linalg.LinAlgError:
            assert not influence_matrix(c)[1]
            return
        assert influence_matrix(c)[0].tobytes() == want.tobytes()

    def test_matches_truncated_series(self):
        rng = np.random.Generator(np.random.Philox(3))
        c = rng.uniform(0, 0.2, size=(5, 5))
        np.fill_diagonal(c, 0.0)
        d, valid = influence_matrix(c)
        assert valid and np.all(d >= 0.0)
        series = np.eye(5)
        power = np.eye(5)
        for _ in range(200):
            power = power @ c
            series += power
        np.testing.assert_allclose(d, series, atol=1e-10)

    def test_row_sum_bound(self):
        rng = np.random.Generator(np.random.Philox(5))
        c = rng.uniform(0, 0.15, size=(6, 6))
        np.fill_diagonal(c, 0.0)
        d, valid = influence_matrix(c)
        assert valid
        c_max = float(np.max(c.sum(axis=1)))
        assert np.all(d.sum(axis=1) <= 1.0 / (1.0 - c_max) + 1e-9)


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
        def cert(alpha, base=None, model=chain3):
            region = make_region(model, alpha, 0)
            return local_certificate(model, region, localize(model, region), base=base)

        base = cert([0, 1])
        assert cert([0, 1, 2], base=base).C.tobytes() == cert([0, 1, 2]).C.tobytes()
        other = chain_model([0.3, 0.3], [0.0] * 3)
        for wrong in ({"alpha": [0, 2, 1]}, {"model": other}):
            with pytest.raises(ValueError, match="base must certify"):
                cert(**{"alpha": [0, 1, 2], "base": base, **wrong})

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
        local_certificate(*self.star(), memo=memo)
        shared = local_certificate(*self.star(**changed), memo=memo)
        fresh = local_certificate(*self.star(**changed))
        assert shared.C.tobytes() == fresh.C.tobytes()
        assert shared.b.tobytes() == fresh.b.tobytes()
        assert shared.bound == fresh.bound

    def test_same_inputs_are_looked_up(self):
        memo: dict = {}
        first = local_certificate(*self.star(), memo=memo)
        size = len(memo)
        again = local_certificate(*self.star(), memo=memo)
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
                local_certificate(model, region, localize(model, region), memo=Planted())


class TestDecayRadius:
    def test_frozen_optimum(self):
        assert decay_radius(0.5, 0.01) == 11
        r, t = decay_radius(0.5, 0.01, return_t=True)
        assert r == 11 and t > 1.0
        assert math.ceil(_radius_objective(0.5, 0.01, t)) == 11

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
        # 2 eps (t - 1)(1 - c) leaves the normal range here, so the objective
        # is summed in logs; it must agree with the direct form on the shift
        for t in (1.000001, 2.0, 9999.0):
            shift = math.log(1e-20 / eps) / math.log((1.0 + (t - 1.0) * c) / (t * c))
            assert _radius_objective(c, eps, t) == pytest.approx(
                _radius_objective(c, 1e-20, t) + shift, rel=1e-12
            )
        r = decay_radius(c, eps)
        closed = math.ceil(-(math.log(eps) + math.log(1 - c)) / math.log((1 + c) / (2 * c)))
        assert decay_radius(c, 1e-20) < r <= closed

    def test_subnormal_c_overflows_without_warning(self):
        # (1 + (t-1) c) / (t c) overflows to inf: the per-hop decay is
        # infinite, so radius 0, and no numpy overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decay_radius(1e-320, 0.01) == 0

    def test_non_finite_input_named(self):
        with pytest.raises(DobrushinConditionError, match="c=nan"):
            decay_radius(math.nan, 0.01)
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"got {eps}"):
                decay_radius(0.5, eps)


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

    def test_inverse_consistency_with_radius(self):
        for c in np.linspace(0.05, 0.95, 10):
            for eps in (0.2, 0.05, 0.01):
                r = decay_radius(float(c), eps)
                assert decay_bound(float(c), r) <= eps + 1e-12
