"""Greedy bound-driven expansion, baselines, and end-to-end queries."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from localmrf import (
    BoundaryMethod,
    EnumerationCapError,
    GridSpec,
    InferenceMethod,
    MeanFieldDivergence,
    ModelError,
    StopReason,
    brute_force_marginal,
    build_model,
    eliminate_marginal,
    gen_citation_graph,
    gen_grid,
    graph_distance,
    greedy_expand,
    grid_node_id,
    local_certificate,
    localize,
    make_region,
    maxnorm_expand,
    query_marginal,
    random_expand,
)
from localmrf.dobrushin import ENUMERATION_CAP
from conftest import chain_model, random_connected_model, sigmoid
from test_same_answers import citation_model


@pytest.fixture
def frustrated_star():
    # strong triangle with matched negative fields: its interaction rows
    # exceed 1 once the whole triangle is inside alpha
    return build_model(
        [(0, 1, 0.1), (1, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0)],
        [0.0, -2.0, -2.0, -2.0],
    )


class TestGreedyExpand:
    def test_argument_validation(self, chain3):
        with pytest.raises(ValueError, match="query"):
            greedy_expand(chain3, 9)
        with pytest.raises(ValueError, match="K"):
            greedy_expand(chain3, 0, K=0)

    def test_k1_returns_query_only(self, chain3):
        trace = greedy_expand(chain3, 1, K=1)
        assert trace.final_alpha == (1,)
        assert trace.steps == []
        assert trace.stop_reason is StopReason.REACHED_K

    def test_absorbs_whole_component(self):
        m = chain_model([0.3] * 4, [0.1, 0.0, -0.2, 0.4, 0.0])
        trace = greedy_expand(m, 2, K=10, delta=0.0)
        assert trace.stop_reason is StopReason.BOUNDARY_EMPTY
        assert sorted(trace.final_alpha) == [0, 1, 2, 3, 4]
        assert trace.final_certificate.bound == 0.0
        assert trace.valid

    def test_steps_track_argmin_and_margin(self):
        model = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.25, seed=1))
        trace = greedy_expand(model, GridSpec(5, 5).query, K=8, delta=0.005)
        prev = 1.0
        for step in trace.steps:
            if step.chosen is None:
                continue
            assert step.chosen in step.candidates
            want = min(step.candidates, key=lambda k: (step.bounds[k], k))
            assert step.chosen == want
            assert step.bounds[step.chosen] < prev - 0.005
            assert step.best_bound == step.bounds[step.chosen]
            prev = step.best_bound

    def test_no_improvement_stop(self):
        model = gen_grid(GridSpec(4, 4, I1=1.0, I2=0.25, seed=2))
        trace = greedy_expand(model, GridSpec(4, 4).query, K=8, delta=0.3)
        assert trace.stop_reason is StopReason.NO_IMPROVEMENT
        assert len(trace.final_alpha) == 2
        last = trace.steps[-1]
        assert last.chosen is None
        assert min(last.bounds.values()) >= last.best_bound - 0.3

    def test_force_mode_reaches_k(self):
        model = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.25, seed=3))
        trace = greedy_expand(model, GridSpec(5, 5).query, K=12, delta=-math.inf)
        assert len(trace.final_alpha) == 12
        assert trace.stop_reason is StopReason.REACHED_K

    def test_invalid_candidates_degrade_to_maxnorm(self, frustrated_star):
        trace = greedy_expand(frustrated_star, 0, K=4, delta=-math.inf)
        assert trace.final_alpha == (0, 1, 2, 3)
        assert trace.degraded and not trace.valid
        assert trace.stop_reason is StopReason.REACHED_K
        assert trace.steps[2].bounds[3] == math.inf
        assert not trace.final_certificate.valid
        assert trace.final_certificate.bound == math.inf

    @pytest.mark.parametrize(
        "expand",
        [
            lambda m, q: greedy_expand(m, q, K=8, delta=-math.inf),
            lambda m, q: random_expand(m, q, K=8, seed=5),
            lambda m, q: maxnorm_expand(m, q, K=8),
        ],
        ids=["greedy", "random", "maxnorm"],
    )
    def test_final_certificate_is_last_scored(self, expand):
        model = gen_grid(GridSpec(4, 4, I1=1.0, I2=0.25, seed=5))
        trace = expand(model, GridSpec(4, 4).query)
        assert trace.stop_reason is StopReason.REACHED_K
        last = trace.steps[-1]
        assert trace.final_certificate.localized.alpha == trace.final_alpha
        assert trace.final_certificate.bound == last.bounds[last.chosen]

    @given(
        st.integers(2, 10),
        st.integers(0, 10**6),
        st.sampled_from([1.0, 2.0]),
        st.sampled_from(list(BoundaryMethod)),
    )
    def test_valid_certificate_covers_oracle_error(self, n, seed, j_scale, method):
        model = random_connected_model(n, seed, j_scale=j_scale)
        try:
            trace = greedy_expand(model, 0, K=n, delta=-math.inf, method=method)
            loc = localize(model, make_region(model, trace.final_alpha, 0), method)
        except MeanFieldDivergence:
            return
        cert = trace.final_certificate
        assert cert.valid or cert.bound == math.inf
        if cert.valid:
            p_loc = eliminate_marginal(loc.submodel, loc.index_of(0))
            assert abs(p_loc - brute_force_marginal(model, 0)) <= cert.bound + 1e-12

    @given(
        st.integers(2, 10),
        st.integers(0, 10**6),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from(["greedy_drop", "greedy_mf", "random", "maxnorm"]),
        st.booleans(),
    )
    def test_trace_certificates_match_fresh(self, n, seed, j_scale, strategy, coarse):
        """Every certificate a trace holds, built with the expansion's memo,
        equals bit for bit one built afresh on the same alpha without it.
        coarse rounds fields and couplings to multiples of 0.5, so different
        nodes share fields and couplings and their memo keys meet."""
        model = random_connected_model(n, seed, j_scale=j_scale)
        if coarse:
            model = build_model(
                [(u, v, round(2.0 * j) / 2.0) for u, v, j in model.edges()],
                np.round(2.0 * model.h) / 2.0,
            )
        expand = {
            "greedy_drop": lambda: greedy_expand(model, 0, K=n, delta=-math.inf),
            "greedy_mf": lambda: greedy_expand(
                model, 0, K=n, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD
            ),
            "random": lambda: random_expand(model, 0, K=n, seed=seed),
            "maxnorm": lambda: maxnorm_expand(model, 0, K=n),
        }[strategy]
        try:
            trace = expand()
        except MeanFieldDivergence:
            return
        accepted = [s for s in trace.steps if s.chosen is not None]
        held = [s.certificate for s in accepted if s.certificate is not None]
        for size, step in enumerate(accepted, start=2):
            if step.certificate is not None:
                assert step.certificate.localized.alpha == trace.final_alpha[:size]
                assert step.certificate.bound == step.bounds[step.chosen]
        for cert in held + [trace.final_certificate]:
            region = make_region(model, cert.localized.alpha, 0)
            fresh = local_certificate(model, region, localize(model, region, trace.method))
            assert cert.bound.hex() == fresh.bound.hex()
            assert cert.valid == fresh.valid
            assert cert.b.tobytes() == fresh.b.tobytes()
            assert cert.C.tobytes() == fresh.C.tobytes()

    def test_step_certificate_not_serialised(self):
        model = gen_grid(GridSpec(4, 4, I1=1.0, I2=0.25, seed=7))
        trace = greedy_expand(model, GridSpec(4, 4).query, K=5, delta=-math.inf)
        step = trace.steps[-1]
        assert step.certificate is trace.final_certificate
        assert "certificate" not in repr(step)
        assert "certificate" not in trace.to_jsonl()

    def test_alpha_prefix_clips(self, chain3):
        trace = greedy_expand(chain3, 0, K=3, delta=-math.inf)
        assert trace.alpha_prefix(1) == trace.final_alpha[:1]
        assert trace.alpha_prefix(99) == trace.final_alpha
        assert trace.alpha_prefix(0) == trace.final_alpha[:1]

    def test_jsonl_format(self):
        model = gen_grid(GridSpec(4, 4, I1=1.0, I2=0.25, seed=7))
        trace = greedy_expand(model, GridSpec(4, 4).query, K=5, delta=0.005)
        text = trace.to_jsonl()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == len(trace.steps)
        for line, step in zip(lines, trace.steps):
            obj = json.loads(line)
            assert set(obj) == {"best_bound", "bounds", "candidates", "chosen"}
            assert obj["candidates"] == list(step.candidates)
            assert obj["chosen"] == step.chosen

    def test_jsonl_inf_serialised_as_null(self, frustrated_star):
        trace = greedy_expand(frustrated_star, 0, K=4, delta=-math.inf)
        rows = [json.loads(l) for l in trace.to_jsonl().splitlines()]
        assert rows[2]["bounds"]["3"] is None

    def test_jsonl_empty_when_no_steps(self, chain3):
        assert greedy_expand(chain3, 0, K=1).to_jsonl() == ""


class TestHubQuery:
    """A query whose degree is over ENUMERATION_CAP: every search runs over
    couplings inside alpha, so its certificates stay within the cap."""

    @pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
    def test_query_over_degree_cap_certifies(self, method):
        model = citation_model()
        assert model.degree(4) == 40 > ENUMERATION_CAP
        trace = greedy_expand(model, 4, K=12, method=method)
        assert trace.valid and not trace.degraded
        assert 0.0 < trace.final_certificate.bound < 1.0


class TestBoundaryDivergence:
    """A stalled boundary mean-field solve scores a candidate +inf."""

    @pytest.fixture
    def star(self):
        return build_model(
            [(0, 1, 0.3), (0, 2, 0.5), (0, 3, 0.2)], [0.1, 0.0, 0.2, -0.1]
        )

    @staticmethod
    def _stall(monkeypatch, when):
        import localmrf.meanfield as meanfield

        real = meanfield.boundary_mean_field

        def stalled(model, region):
            means, state = real(model, region)
            if when(region.alpha):
                state.converged = False
            return means, state

        # localize imports boundary_mean_field from the meanfield module per call
        monkeypatch.setattr(meanfield, "boundary_mean_field", stalled)

    def test_diverging_candidate_loses_to_valid_one(self, star, monkeypatch):
        def expand():
            return greedy_expand(
                star, 0, K=2, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD
            )

        assert expand().steps[0].chosen == 2
        self._stall(monkeypatch, lambda alpha: 2 in alpha)
        trace = expand()
        step = trace.steps[0]
        assert step.bounds[2] == math.inf
        assert json.loads(trace.to_jsonl())["bounds"]["2"] is None
        assert step.chosen != 2 and math.isfinite(step.bounds[step.chosen])
        assert not trace.degraded and trace.valid

    def test_all_diverging_step_takes_maxnorm_pick(self, star, monkeypatch):
        self._stall(monkeypatch, lambda alpha: len(alpha) == 2)
        trace = greedy_expand(
            star, 0, K=3, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD
        )
        first, second = trace.steps
        assert first.bounds == {1: math.inf, 2: math.inf, 3: math.inf}
        assert first.chosen == maxnorm_expand(star, 0, K=2).final_alpha[1] == 2
        assert math.isfinite(second.bounds[second.chosen])
        assert trace.degraded and not trace.valid


class TestCertificateExtension:
    """Each candidate is certified by extending the certificate accepted at
    its step; that must be bit for bit the certificate built from scratch."""

    @staticmethod
    def heavy_tailed(seed):
        """A 60-node preferential-attachment graph plus node 60, a hub joined
        to ENUMERATION_CAP of its nodes, with seeded couplings and fields."""
        edges, _ = gen_citation_graph(n=60, attach=2, seed=seed)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        hub = 60
        spokes = sorted(int(v) for v in rng.choice(hub, size=ENUMERATION_CAP, replace=False))
        edges = list(edges) + [(v, hub) for v in spokes]
        js = rng.uniform(-0.6, 0.6, size=len(edges))
        h = rng.uniform(-0.5, 0.5, size=hub + 1)
        model = build_model([(u, v, float(j)) for (u, v), j in zip(edges, js)], h)
        return model, hub, spokes

    @staticmethod
    def record(monkeypatch):
        """Wrap the expansion's local_certificate: every call also builds the
        certificate from scratch, and both outcomes are kept for the test."""
        import localmrf.expansion as expansion

        real = expansion.local_certificate
        calls = []

        def outcome(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except EnumerationCapError as exc:
                return exc

        def checked(model, region, localized, *, memo=None, base=None):
            got = outcome(model, region, localized, memo=memo, base=base)
            calls.append((base, region, got, outcome(model, region, localized)))
            if isinstance(got, Exception):
                raise got
            return got

        monkeypatch.setattr(expansion, "local_certificate", checked)
        return calls

    @staticmethod
    def assert_same(calls):
        for base, region, got, want in calls:
            assert type(got) is type(want), region.alpha
            if isinstance(got, Exception):
                continue
            assert got.C.tobytes() == want.C.tobytes(), region.alpha
            assert got.b.tobytes() == want.b.tobytes(), region.alpha
            assert (got.bound, got.valid, got.c_local) == (want.bound, want.valid, want.c_local)

    @pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
    @pytest.mark.parametrize("seed", range(3))
    def test_every_candidate_equals_a_rebuild(self, monkeypatch, seed, method):
        model, hub, spokes = self.heavy_tailed(seed)
        calls = self.record(monkeypatch)
        for query in (hub, spokes[-1], 0):
            try:
                greedy_expand(model, query, K=8, delta=-math.inf, method=method)
            except MeanFieldDivergence:
                pass
        self.assert_same(calls)
        extended = [c for c in calls if c[0] is not None]
        assert len(extended) > len(calls) // 2
        # the hub, at the cap, sits on the boundary of extended certificates
        assert any(hub in region.boundary_alpha for _, region, _, _ in extended)

    @pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
    def test_step_after_raised_choice_has_no_base(self, monkeypatch, method):
        import localmrf.expansion as expansion

        model, hub, spokes = self.heavy_tailed(0)
        real = expansion.localize

        def stall_third(model, region, method):
            if len(region.alpha) == 3:  # every candidate of the second step
                raise MeanFieldDivergence("stalled", residual=1.0)
            return real(model, region, method)

        monkeypatch.setattr(expansion, "localize", stall_third)
        calls = self.record(monkeypatch)
        trace = greedy_expand(model, hub, K=6, delta=-math.inf, method=method)
        assert trace.degraded and trace.steps[1].certificate is None
        self.assert_same(calls)
        sizes = [(len(region.alpha), base is not None) for base, region, _, _ in calls]
        assert (4, False) in sizes and (4, True) not in sizes  # rebuilt after the raise
        assert (5, True) in sizes  # and extended again from there

    @pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
    def test_scored_candidates_build_no_model(self, monkeypatch, method):
        """The localized IsingModel is built when it is read, not when a
        candidate is scored: at most one per accepted step plus one."""
        import localmrf.model as model_module

        spec = GridSpec(20, 20, I1=1.0, I2=0.25, seed=2)
        model = gen_grid(spec)
        built = []
        real = model_module.build_model
        monkeypatch.setattr(
            model_module, "build_model", lambda *a, **kw: built.append(a) or real(*a, **kw)
        )
        trace = greedy_expand(model, spec.query, K=12, delta=-math.inf, method=method)
        accepted = sum(s.chosen is not None for s in trace.steps)
        scored = sum(len(s.bounds) for s in trace.steps)
        assert scored > 2 * (accepted + 1)  # one build per candidate would show
        assert len(built) <= accepted + 1
        before = len(built)
        sub = trace.final_certificate.localized.submodel
        assert trace.final_certificate.localized.submodel is sub
        assert len(built) == before + 1 and sub.n == len(trace.final_alpha)


class TestBaselines:
    def test_random_deterministic_per_seed(self):
        model = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.25, seed=4))
        q = GridSpec(5, 5).query
        a = random_expand(model, q, K=8, seed=11)
        b = random_expand(model, q, K=8, seed=11)
        assert a.final_alpha == b.final_alpha
        others = {random_expand(model, q, K=8, seed=s).final_alpha for s in range(5)}
        assert len(others) > 1

    def test_random_respects_boundary(self):
        model = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.25, seed=4))
        trace = random_expand(model, GridSpec(5, 5).query, K=10, seed=3)
        grown = [trace.final_alpha[0]]
        for step in trace.steps:
            assert set(step.candidates) == {
                k
                for a in grown
                for k in model.adjacency[a]
                if k not in set(grown)
            }
            assert step.chosen in step.candidates
            grown.append(step.chosen)

    def test_maxnorm_prefers_strong_couplings(self):
        star = build_model([(0, 1, 0.1), (0, 2, -0.5), (0, 3, 0.3)], [0.0] * 4)
        assert maxnorm_expand(star, 0, K=4).final_alpha == (0, 2, 3, 1)

    def test_maxnorm_tie_breaks_low_id(self):
        tie = build_model([(0, 1, 0.2), (0, 2, -0.2)], [0.0] * 3)
        assert maxnorm_expand(tie, 0, K=2).final_alpha == (0, 1)

    def test_degraded_step_keeps_incumbent_bound(self, frustrated_star):
        trace = maxnorm_expand(frustrated_star, 0, K=4)
        assert trace.final_alpha == (0, 1, 2, 3)
        assert trace.degraded and not trace.valid
        last, before = trace.steps[2], trace.steps[1]
        assert last.bounds == {3: math.inf}
        assert math.isfinite(before.best_bound)
        assert last.best_bound == before.best_bound

    def test_huge_couplings_give_a_trace_or_a_model_error(self):
        def edges(j):
            return [(0, 1, j), (1, 2, j), (0, 2, 0.1), (2, 3, j)]

        # at 1e308 node 1's sum of |J| overflows, so the build refuses the model
        with pytest.raises(ModelError, match="node 1 is not finite"):
            build_model(edges(1e308), [0.0] * 4)
        # at 1e200 every sum is finite, but a certificate holding a strong edge
        # is invalid, and a maxnorm pick squares 1e200 past the float range
        model = build_model(edges(1e200), [0.0] * 4)
        expansions = [
            lambda: greedy_expand(model, 0, K=3),
            lambda: greedy_expand(model, 0, K=3, method=BoundaryMethod.MEAN_FIELD),
            lambda: maxnorm_expand(model, 0, K=3),
            lambda: random_expand(model, 0, K=3),
        ]
        for expand in expansions:
            try:
                trace = expand()
            except ModelError:
                continue
            assert trace.valid or trace.final_certificate.bound == math.inf

    def test_baseline_validation(self, chain3):
        with pytest.raises(ValueError):
            random_expand(chain3, 5)
        with pytest.raises(ValueError):
            maxnorm_expand(chain3, 0, K=0)

    def test_greedy_no_worse_than_random_on_average(self):
        errs_g, errs_r = [], []
        for seed in range(10):
            model = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.25, seed=seed))
            q = GridSpec(5, 5).query
            p_true = eliminate_marginal(model, q)

            def final_err(trace):
                from localmrf import localize, make_region

                region = make_region(model, trace.final_alpha, q)
                loc = localize(model, region, BoundaryMethod.DROP_OUT)
                return abs(eliminate_marginal(loc.submodel, loc.index_of(q)) - p_true)

            errs_g.append(final_err(greedy_expand(model, q, K=8, delta=-math.inf)))
            errs_r.append(final_err(random_expand(model, q, K=8, seed=seed)))
        assert np.mean(errs_g) <= np.mean(errs_r) + 1e-12


class TestQueryMarginal:
    def test_isolated_node(self):
        m = build_model([], [0.5])
        res = query_marginal(m, 0, K=4)
        assert res.marginal == pytest.approx(0.7310585786300049, abs=1e-15)
        assert res.bound == 0.0 and res.valid
        assert res.alpha == (0,)

    def test_full_absorption_recovers_exact(self, chain3):
        res = query_marginal(chain3, 0, K=3, delta=-math.inf)
        assert res.bound == 0.0
        assert res.marginal == pytest.approx(eliminate_marginal(chain3, 0), abs=1e-14)

    def test_bound_sound_on_small_models(self):
        for seed in range(10):
            m = random_connected_model(10, seed, j_scale=0.5)
            p_true = eliminate_marginal(m, 0)
            res = query_marginal(m, 0, K=5, delta=0.005)
            if res.valid:
                assert abs(res.marginal - p_true) <= res.bound + 1e-9

    def test_meanfield_inference_readout(self, chain3):
        exact = query_marginal(chain3, 0, K=1)
        mf = query_marginal(chain3, 0, K=1, inference=InferenceMethod.MEAN_FIELD)
        # single-node region: the product ansatz is exact
        assert mf.marginal == pytest.approx(exact.marginal, abs=1e-12)
        assert 0.0 <= mf.marginal <= 1.0

    def test_meanfield_localization_runs(self, chain3_mf):
        res = query_marginal(chain3_mf, 0, K=2, method=BoundaryMethod.MEAN_FIELD)
        assert res.valid
        assert 0.0 <= res.marginal <= 1.0
        assert res.trace.method is BoundaryMethod.MEAN_FIELD

    def test_meanfield_answer_localizes_once_per_certificate(self, monkeypatch):
        import localmrf.expansion as expansion
        import localmrf.meanfield as meanfield

        calls = {"cert": 0, "boundary": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            expansion, "local_certificate", counting("cert", expansion.local_certificate)
        )
        # localize imports boundary_mean_field from the meanfield module per call
        monkeypatch.setattr(
            meanfield,
            "boundary_mean_field",
            counting("boundary", meanfield.boundary_mean_field),
        )
        model = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.25, seed=1))
        query_marginal(
            model, GridSpec(5, 5).query, K=6, delta=-math.inf,
            method=BoundaryMethod.MEAN_FIELD,
        )
        assert calls["cert"] > 0
        assert calls["boundary"] == calls["cert"]

    def test_invalid_region_reports_inf_bound(self, frustrated_star=None):
        m = build_model(
            [(0, 1, 0.1), (1, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0)],
            [0.0, -2.0, -2.0, -2.0],
        )
        res = query_marginal(m, 0, K=4, delta=-math.inf)
        assert not res.valid
        assert res.bound == math.inf
        assert 0.0 <= res.marginal <= 1.0

    def test_result_independent_of_far_parameters(self):
        spec = GridSpec(12, 12, I1=1.0, I2=0.25, seed=9)
        model = gen_grid(spec)
        q = spec.query
        K = 6
        dist = graph_distance(model, q)
        far = {i for i, d in dist.items() if d > K + 1}
        h2 = model.h.copy()
        edges2 = []
        for u, v, j in model.edges():
            if u in far and v in far:
                edges2.append((u, v, j - 0.9))
            else:
                edges2.append((u, v, j))
        for i in far:
            h2[i] += 2.5
        model2 = build_model(edges2, h2)
        a = query_marginal(model, q, K=K, delta=0.005)
        b = query_marginal(model2, q, K=K, delta=0.005)
        assert a.alpha == b.alpha
        assert a.marginal == b.marginal
        assert a.bound == b.bound
