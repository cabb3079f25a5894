"""Greedy bound-driven expansion, baselines, and end-to-end queries."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from localmrf import (
    BoundaryMethod,
    EnumerationCapError,
    GridSpec,
    LocalizedModel,
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
from localmrf import dobrushin
from localmrf.dobrushin import ENUMERATION_CAP
from conftest import chain_model, overflowing_model, random_connected_model, sigmoid
from test_dobrushin import assert_same_batch, rescan_extend_certificates
from test_same_answers import CITATION_QUERIES, citation_model


@pytest.fixture
def frustrated_star():
    # strong triangle with matched negative fields: its interaction rows
    # exceed 1 once the whole triangle is inside alpha
    return build_model(
        [(0, 1, 0.1), (1, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0)],
        [0.0, -2.0, -2.0, -2.0],
    )


def wrap_scorer(monkeypatch, *after):
    """Make the expansion's CandidateScorer pass every step's batch through
    after(scorer, candidates, fields, batch), in turn, and return the last
    batch. Wrappers stack, the first one innermost; local_certificate's own
    scorer is left as it is."""
    import localmrf.expansion as expansion

    class Wrapped(expansion.CandidateScorer):
        def score(self, candidates, fields=None):
            batch = super().score(candidates, fields)
            for then in after:
                batch = then(self, tuple(candidates), fields, batch)
            return batch

    monkeypatch.setattr(expansion, "CandidateScorer", Wrapped)


def against_rescan(monkeypatch):
    """Check every step's batch against rescan_extend_certificates on the
    scorer's alpha and base; returns, per step, whether it had a base."""
    bases = []

    def check(scorer, candidates, fields, batch):
        want = rescan_extend_certificates(
            scorer.model, scorer.alpha, scorer.query, candidates, fields, base=scorer.base
        )
        assert_same_batch(batch, want)
        bases.append(scorer.base is not None)
        return batch

    wrap_scorer(monkeypatch, check)
    return bases


class TestGreedyExpand:
    def test_argument_validation(self, chain3):
        with pytest.raises(ValueError, match="query"):
            greedy_expand(chain3, 9)
        with pytest.raises(ValueError, match="K"):
            greedy_expand(chain3, 0, K=0)
        for K in (16.5, 2.0, True):  # 16.5 grew 17 nodes, True read as 1
            with pytest.raises(ValueError, match="K must be an integer"):
                greedy_expand(chain3, 0, K=K)
        with pytest.raises(ValueError, match="delta must not be NaN"):
            greedy_expand(chain3, 0, delta=math.nan)
        assert greedy_expand(chain3, 0, K=np.int64(2), delta=-math.inf).final_alpha == (0, 1)
        for delta in (math.inf, -math.inf):
            greedy_expand(chain3, 0, K=3, delta=delta)

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

    def test_every_candidate_over_the_cap_degrades(self):
        # hub 0 with 30 leaves: once 25 leaves are in alpha, every candidate
        # puts the hub's b entry over ENUMERATION_CAP, so no pick from there
        # on has a certificate, the last one included
        model = build_model([(0, k, 0.05) for k in range(1, 31)], [0.0] * 31)
        for trace in (
            greedy_expand(model, 0, K=30, delta=-math.inf),
            maxnorm_expand(model, 0, K=30),
        ):
            assert len(trace.final_alpha) == 30
            assert trace.degraded and not trace.valid
            last = trace.steps[-1]
            assert math.isnan(trace.certificates[-1].c_local)  # none was built
            assert math.isinf(last.bounds[last.chosen])
            assert not trace.final_certificate.valid
            assert trace.final_certificate.bound == math.inf
            assert trace.final_certificate.localized.alpha == trace.final_alpha
        res = query_marginal(model, 0, K=30, delta=-math.inf)
        assert not res.valid and res.bound == math.inf
        assert res.marginal == pytest.approx(0.5, abs=1e-12)

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
        equals bit for bit one built afresh on the same alpha with a memo of
        its own.
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
        assert len(trace.certificates) == len(accepted) + 1
        for size, cert in enumerate(trace.certificates, start=1):
            assert cert.localized.alpha == trace.final_alpha[:size]
        for step, cert in zip(accepted, trace.certificates[1:]):
            assert cert.bound == step.bounds[step.chosen]
        # every certificate that was built; an uncertified final one fails
        held = [c for c in trace.certificates[:-1] if not math.isnan(c.c_local)]
        for cert in held + [trace.final_certificate]:
            region = make_region(model, cert.localized.alpha, 0)
            fresh = local_certificate(model, region, localize(model, region, trace.method))
            assert cert.bound.hex() == fresh.bound.hex()
            assert cert.valid == fresh.valid
            assert cert.b.tobytes() == fresh.b.tobytes()
            assert cert.C.tobytes() == fresh.C.tobytes()

    @given(
        st.integers(2, 12),
        st.integers(0, 10**6),
        st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        st.sampled_from(list(BoundaryMethod)),
    )
    def test_every_step_matches_fresh_certificates(self, n, seed, j_scale, method):
        """At every step each scored candidate's bound, and so its validity,
        is that of a fresh, memo-less certificate of alpha + (k,), and the
        chosen node's certificate has its C, b, bound and c_local."""
        model = random_connected_model(n, seed, j_scale=j_scale)
        try:
            trace = greedy_expand(model, 0, K=n, delta=-math.inf, method=method)
        except MeanFieldDivergence:
            return
        alpha = (0,)
        for i, step in enumerate(trace.steps):
            for k, bound in step.bounds.items():
                region = make_region(model, alpha + (k,), 0)
                try:
                    fresh = local_certificate(model, region, localize(model, region, method))
                except (MeanFieldDivergence, EnumerationCapError):
                    assert bound == math.inf
                    continue
                assert bound.hex() == fresh.bound.hex()
                assert math.isfinite(bound) == fresh.valid
                if k == step.chosen:
                    cert = trace.certificates[i + 1]
                    assert cert.C.tobytes() == fresh.C.tobytes()
                    assert cert.b.tobytes() == fresh.b.tobytes()
                    assert (cert.bound, cert.valid, cert.c_local) == (
                        fresh.bound, fresh.valid, fresh.c_local
                    )
            if step.chosen is not None:
                alpha += (step.chosen,)

    def test_step_certificate_not_serialised(self):
        model = gen_grid(GridSpec(4, 4, I1=1.0, I2=0.25, seed=7))
        trace = greedy_expand(model, GridSpec(4, 4).query, K=5, delta=-math.inf)
        step = trace.steps[-1]
        assert trace.certificates[-1] is trace.final_certificate
        assert "certificate" not in repr(step)
        assert "certificate" not in trace.to_jsonl()

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
        # the candidates whose solve converged are certified as if alone
        for k in (1, 3):
            region = make_region(star, (0, k), 0)
            loc = localize(star, region, BoundaryMethod.MEAN_FIELD)
            assert step.bounds[k] == local_certificate(star, region, loc).bound

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

    @pytest.mark.parametrize(
        "stalls, K",
        [("two-node regions", 2), ("every region", 1), ("every region", 2), ("every region", 3)],
    )
    def test_stalled_final_region_ends_uncertified(self, star, monkeypatch, stalls, K):
        # the final region cannot be localized with its boundary solve: the
        # trace ends invalid on the drop-out localization instead of raising
        when = {"two-node regions": lambda alpha: len(alpha) == 2, "every region": bool}
        self._stall(monkeypatch, when[stalls])
        trace = greedy_expand(star, 0, K=K, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD)
        res = query_marginal(star, 0, K=K, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD)
        monkeypatch.undo()
        assert len(trace.final_alpha) == K and trace.degraded == (K > 1)
        cert = trace.final_certificate
        assert not cert.valid and cert.bound == math.inf and not trace.valid
        assert (not trace.certificates[0].valid) == (stalls == "every region")
        loc = localize(star, make_region(star, trace.final_alpha, 0))
        assert cert.localized.h.tolist() == loc.h.tolist()
        assert not res.valid and res.bound == math.inf and res.alpha == trace.final_alpha
        assert res.marginal == eliminate_marginal(loc.submodel, loc.index_of(0))


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
    def record(monkeypatch, *then):
        """Wrap the expansion's scorer: every candidate of every step is also
        certified from scratch, and both outcomes are kept for the test as
        (base, region, batch outcome, fresh outcome). then goes on to wrap
        the batch, as wrap_scorer does."""
        calls = []

        def outcome(build):
            try:
                return build()
            except EnumerationCapError as exc:
                return exc

        def checked(scorer, candidates, fields, batch):
            model = scorer.model
            for i, k in enumerate(batch.candidates):
                region = make_region(model, scorer.alpha + (k,), scorer.query)
                h = model.h[list(region.alpha)] if fields is None else fields[i]
                loc = LocalizedModel(region.alpha, h, model)
                calls.append((
                    scorer.base,
                    region,
                    outcome(lambda: batch.certificate(k, loc)),
                    outcome(lambda: local_certificate(model, region, loc)),
                ))
            return batch

        wrap_scorer(monkeypatch, checked, *then)
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
        if method is BoundaryMethod.MEAN_FIELD:
            # mean-field fields are not the model's, so no step has a base
            assert not extended
            extended = calls
        else:
            assert len(extended) > len(calls) // 2
        # the hub, at the cap, sits on the boundary of scored certificates
        assert any(hub in region.boundary_alpha for _, region, _, _ in extended)

    @pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
    def test_step_after_raised_choice_has_no_base(self, monkeypatch, method):
        model, hub, spokes = self.heavy_tailed(0)

        def raise_third(scorer, candidates, fields, batch):
            if len(scorer.alpha) != 2:
                return batch
            # every candidate of the second step raises
            planted = EnumerationCapError("planted")
            return dataclasses.replace(
                batch,
                bounds=(math.inf,) * len(batch.candidates),
                errors=dict.fromkeys(batch.candidates, planted),
            )

        bases = against_rescan(monkeypatch)
        calls = self.record(monkeypatch, raise_third)
        trace = greedy_expand(model, hub, K=6, delta=-math.inf, method=method)
        assert trace.degraded and math.isnan(trace.certificates[2].c_local)
        self.assert_same(calls)
        sizes = [(len(region.alpha), base is not None) for base, region, _, _ in calls]
        assert (4, False) in sizes and (4, True) not in sizes  # rebuilt after the raise
        if method is BoundaryMethod.MEAN_FIELD:  # no mean-field step has a base
            assert bases == [False] * 5 and not any(has_base for _, has_base in sizes)
        else:
            assert (5, True) in sizes  # and extended again from there
            assert bases == [True, True, False, True, True]  # reset after the raise

    @pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
    def test_scorer_equals_the_rescan_at_every_step(self, monkeypatch, method):
        """Greedy, random and maxnorm traces on random models, a 10x10 grid,
        the citation hubs and a hub at the cap: every step's batch is the
        rescan's, byte for byte."""
        bases = against_rescan(monkeypatch)
        spec = GridSpec(10, 10, I1=1.0, I2=0.25, seed=3)
        heavy, hub, spokes = self.heavy_tailed(1)
        cases = [(random_connected_model(14, seed, j_scale=0.8), (0, 7)) for seed in range(3)]
        cases += [(gen_grid(spec), (spec.query, 0)), (citation_model(), CITATION_QUERIES)]
        cases += [(heavy, (hub, spokes[0]))]
        for model, queries in cases:
            for query in queries:
                try:
                    greedy_expand(model, query, K=8, delta=-math.inf, method=method)
                except MeanFieldDivergence:
                    pass
                if method is BoundaryMethod.DROP_OUT:
                    random_expand(model, query, K=8, seed=query)
                    maxnorm_expand(model, query, K=8)
        if method is BoundaryMethod.MEAN_FIELD:  # no mean-field step has a base
            assert bases and not any(bases)
        else:
            assert sum(bases) > len(bases) // 2

    def test_scorer_equals_the_rescan_over_the_cap(self, monkeypatch):
        # hub 0 with 27 leaves and node 28 hanging off leaf 1: once 25 leaves
        # are in alpha, every further leaf puts the hub over the cap
        model = build_model(
            [(0, k, 0.05) for k in range(1, 28)] + [(1, 28, 0.3)], [0.1] * 29
        )
        bases = against_rescan(monkeypatch)
        errors = []
        wrap_scorer(monkeypatch, lambda scorer, ks, fields, batch: errors.append(batch.errors) or batch)
        trace = greedy_expand(model, 0, K=29, delta=-math.inf)
        assert len(trace.final_alpha) == 29 and trace.degraded
        # the 26th leaf raises for every candidate, so the scorer resets
        assert [bool(e) for e in errors[25:]] == [True, True, True]
        assert bases == [True] * 26 + [False, False]

    def test_a_step_builds_only_the_patches_it_must(self, monkeypatch):
        """On a 20x20 grid, each greedy step builds a patch for exactly the
        new candidates and the candidates the accepted node changed: those
        in N(k*) and those with an alpha neighbour in N(k*)."""
        spec = GridSpec(20, 20, I1=1.0, I2=0.25, seed=1)
        model = gen_grid(spec)
        built = []
        real = dobrushin.CandidateScorer._patch

        def counting(scorer, k, h_tilde=None, every=False):
            if not every:  # a patch kept across steps
                built.append((len(scorer.alpha), k))
            return real(scorer, k, h_tilde, every)

        monkeypatch.setattr(dobrushin.CandidateScorer, "_patch", counting)
        trace = greedy_expand(model, spec.query, K=16, delta=-math.inf)
        assert all(cert.valid for cert in trace.certificates)
        alpha = trace.final_alpha
        for s, step in enumerate(trace.steps):
            got = [k for size, k in built if size == s + 1]
            if s == 0:
                want = set(step.candidates)
            else:
                before = trace.steps[s - 1].candidates
                near = set(model.adjacency[alpha[s]])  # N(k*)
                changed = {
                    k
                    for k in before
                    if k in near or any(x in near for x in model.adjacency[k] if x in alpha[:s])
                }
                want = set(step.candidates) - (set(before) - changed)
            assert len(got) == len(set(got)) and set(got) == want, s
        scored = sum(len(step.candidates) for step in trace.steps)
        assert len(built) < 0.7 * scored

    @pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
    def test_scored_candidates_build_no_model(self, monkeypatch, method):
        """The localized IsingModel is built when it is read, not when a
        candidate is scored: at most one per accepted step plus one."""
        import localmrf.model as model_module

        spec = GridSpec(20, 20, I1=1.0, I2=0.25, seed=2)
        model = gen_grid(spec)
        built = []

        class Counted(model_module.IsingModel):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(model_module, "IsingModel", Counted)
        trace = greedy_expand(model, spec.query, K=12, delta=-math.inf, method=method)
        accepted = sum(s.chosen is not None for s in trace.steps)
        scored = sum(len(s.bounds) for s in trace.steps)
        assert scored > 2 * (accepted + 1)  # one build per candidate would show
        assert len(built) <= accepted + 1
        before = len(built)
        sub = trace.final_certificate.localized.submodel
        assert trace.final_certificate.localized.submodel is sub
        assert len(built) == before + 1 and sub.n == len(trace.final_alpha)


class TestEdgeSoundness:
    """Every certificate on greedy traces, under both boundary methods, at
    the edges of the certificate: rho(C) near 1, fields near 1e3, and
    queries in disconnected models. A valid certificate covers the oracle
    error (plus 1e-12 of rounding slack, never as a ratio, since bounds can
    be subnormal), and an invalid one carries bound +inf."""

    @staticmethod
    def certificates(model, queries):
        """(valid certificate, query) pairs, the soundness of every
        certificate asserted on the way."""
        valid = []
        for q in queries:
            p_true = brute_force_marginal(model, q)
            for method in BoundaryMethod:
                trace = greedy_expand(model, q, K=model.n, delta=-math.inf, method=method)
                for cert in trace.certificates:
                    if not cert.valid:
                        assert cert.bound == math.inf
                        continue
                    loc = cert.localized
                    err = abs(eliminate_marginal(loc.submodel, loc.index_of(q)) - p_true)
                    assert err <= cert.bound + 1e-12, (q, method, loc.alpha)
                    valid.append(cert)
        return valid

    def test_spectral_radius_near_one(self):
        valid = []
        for n in (6, 9):
            for j_scale in (1.0, 2.0):
                for seed in range(25):
                    model = random_connected_model(n, seed, j_scale=j_scale)
                    valid += self.certificates(model, [0])
        rho = np.array([max(abs(np.linalg.eigvals(cert.C))) for cert in valid])
        assert np.count_nonzero((rho >= 0.95) & (rho < 1.0)) >= 20

    def test_fields_near_1e3(self):
        for seed in range(40):
            model = random_connected_model(6, seed, h_scale=1e3)
            assert self.certificates(model, [0])

    def test_disconnected_queries(self):
        # two components and an isolated node, queried in each
        for seed in range(20):
            a = random_connected_model(5, seed, j_scale=1.5)
            b = random_connected_model(4, seed + 10**6, j_scale=1.5)
            edges = list(a.edges()) + [(u + 5, v + 5, j) for u, v, j in b.edges()]
            model = build_model(edges, np.concatenate([a.h, b.h, [0.4]]))
            valid = self.certificates(model, [0, 6, 9])
            assert {cert.localized.alpha[0] for cert in valid} == {0, 6, 9}


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

    def test_overflowing_elimination_is_a_model_error(self):
        with pytest.raises(ModelError, match="elimination overflows"):
            query_marginal(overflowing_model(), 0, K=4)

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

    @pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
    def test_valid_answers_lie_within_their_bound(self, method):
        # on this model the mean-field readout of the region's marginal
        # answered p = 0.8173 with bound 0.01635 and valid=True for node 0,
        # where brute force gives 0.6058; the answer is now always the exact
        # marginal of the localized model, which the bound covers
        model = random_connected_model(10, 162, j_scale=1.0)
        for q in range(model.n):
            res = query_marginal(model, q, K=6, method=method)
            assert res.valid or res.bound == math.inf
            if res.valid:
                assert abs(res.marginal - brute_force_marginal(model, q)) <= res.bound + 1e-12

    def test_meanfield_localization_runs(self, chain3_mf):
        res = query_marginal(chain3_mf, 0, K=2, method=BoundaryMethod.MEAN_FIELD)
        assert res.valid
        assert 0.0 <= res.marginal <= 1.0
        assert res.trace.method is BoundaryMethod.MEAN_FIELD

    def test_meanfield_answer_localizes_once_per_certificate(self, monkeypatch):
        import localmrf.meanfield as meanfield

        solves = []
        real = meanfield.boundary_mean_field
        # localize imports boundary_mean_field from the meanfield module per call
        monkeypatch.setattr(
            meanfield, "boundary_mean_field", lambda *args: solves.append(args) or real(*args)
        )
        model = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.25, seed=1))
        res = query_marginal(
            model, GridSpec(5, 5).query, K=6, delta=-math.inf,
            method=BoundaryMethod.MEAN_FIELD,
        )
        # one solve for {query} and one per scored candidate: neither the
        # accepted certificates nor the answer localize again
        assert len(solves) == 1 + sum(len(s.bounds) for s in res.trace.steps)

    def test_degraded_answer_reports_inf_bound(self):
        # the last steps are maxnorm picks, and the final certificate is
        # valid with a finite bound; the answer is degraded, so it is not
        model = random_connected_model(12, 207, j_scale=4.0)
        res = query_marginal(model, 0, K=8, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD)
        assert res.trace.degraded and res.trace.final_certificate.valid
        assert math.isfinite(res.trace.final_certificate.bound)
        assert not res.valid and res.bound == math.inf

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
