"""Pinned answers: greedy traces, their certificates, and the exact and
mean-field solves under them, on seeded model sets.

A change that must leave answers alone keeps these digests. A change that
declares new answers updates the pins and records the old and new values in
CHANGES.md.
"""
import functools
import hashlib
import math

import numpy as np
import pytest

from localmrf import (
    BoundaryMethod,
    GridSpec,
    boundary_mean_field,
    build_model,
    eliminate_marginal,
    gen_citation_graph,
    gen_grid,
    greedy_expand,
    log_partition,
    make_region,
)

PINNED = {
    BoundaryMethod.DROP_OUT: "b05852626a3a07c56f09009c8a18ce08ccdb29604073fee7b5305f64c5c30740",
    BoundaryMethod.MEAN_FIELD: "419bf5005e65cec1c0e5f11d9be76a63d3ebb03435074faa85fb7691784f4d6c",
}
PINNED_CITATION = {
    BoundaryMethod.DROP_OUT: "14c68c935f45300486408bbe2f6bf3ed0dee7142d012ef93894fa87467a09d4c",
    BoundaryMethod.MEAN_FIELD: "89e1a733cac3826a2baa80410fcf42c49055102ff07566d41d4f6d17c993e174",
}
# sha256 over to_json() of every prefix certificate of the same traces
PINNED_PREFIXES = {
    ("grid", BoundaryMethod.DROP_OUT):
        "97baaa345b79f7ea491ed3c9acb472cb5be296b27913e8417f9c4443974a6214",
    ("grid", BoundaryMethod.MEAN_FIELD):
        "24bb831f2d7a36eeca25d1c4c5e8a87e220191a575cdf2b1baf5072e722a5d60",
    ("citation", BoundaryMethod.DROP_OUT):
        "57fa9c8352aa1b17b1835d7f2296f6bdae03090a41043a3c628dd75307b24c63",
    ("citation", BoundaryMethod.MEAN_FIELD):
        "ed0cae03b36ea73dc464f194de74444a8f734212cbadf05bd677b8c320cb30c4",
}
# sha256 over the float.hex() of: the eliminated query marginal of every
# certificate's localization and, for every mean-field prefix, its boundary
# means (in key order) and sweep count, on the traces above; then the global
# query marginal and log Z of each of the four 8x8 grids
PINNED_EXACT = "bb968c2244dcc1565d76700bb40cb3a32ec154d0fc3094e0327ef5d23ac7eb27"
# Hub 13 (degree 24) as the query; hubs 2 and 1 (degrees 23 and 16) join the
# regions of 62 and 299. Hubs 4, 0, 6 and 3 (degrees 40, 31, 30 and 30, over
# ENUMERATION_CAP) are scored as candidates, and hub 4 joins the mean-field
# region of 150 at delta = -inf.
CITATION_QUERIES = (13, 62, 150, 299)


def _digests(traces) -> tuple[str, str]:
    """Two sha256 digests of (model, query, trace) triples: one over
    to_jsonl() + final_certificate.to_json(), one over to_json() of every
    certificate in trace.certificates."""
    answers, prefixes = hashlib.sha256(), hashlib.sha256()
    for _, _, trace in traces:
        answers.update(trace.to_jsonl().encode())
        answers.update(trace.final_certificate.to_json().encode())
        for cert in trace.certificates:
            prefixes.update(cert.to_json().encode())
    return answers.hexdigest(), prefixes.hexdigest()


def grid_cases():
    """Four 8x8 grids, at the centre and at a corner."""
    cases = []
    for seed in range(4):
        spec = GridSpec(8, 8, I1=1.0, I2=0.25, seed=seed)
        model = gen_grid(spec)
        cases += [(model, spec.query), (model, 0)]
    return cases


def citation_model():
    """gen_citation_graph(n=300, attach=2, seed=0) with seeded couplings
    uniform in [-0.5, 0.5] and fields 0.3 * label + N(0, 0.5^2)."""
    edges, labels = gen_citation_graph(n=300, attach=2, seed=0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    js = rng.uniform(-0.5, 0.5, size=len(edges))
    h = 0.3 * labels + rng.normal(0.0, 0.5, size=labels.size)
    return build_model([(u, v, float(j)) for (u, v), j in zip(edges, js)], h)


@functools.cache
def case_traces(kind: str, method: BoundaryMethod) -> tuple:
    """(model, query, trace) for greedy traces to K=12 of each grid case, or
    of the heavy-tailed citation model at CITATION_QUERIES, with the default
    delta and with delta=-inf; computed once per session."""
    if kind == "grid":
        cases = grid_cases()
    else:
        model = citation_model()
        cases = [(model, q) for q in CITATION_QUERIES]
    return tuple(
        (model, query, greedy_expand(model, query, K=12, delta=delta, method=method))
        for model, query in cases
        for delta in (0.005, -math.inf)
    )


@functools.cache
def case_digests(kind: str, method: BoundaryMethod) -> tuple[str, str]:
    return _digests(case_traces(kind, method))


def exact_digest() -> str:
    """The PINNED_EXACT digest."""
    digest = hashlib.sha256()
    for kind in ("grid", "citation"):
        for method in BoundaryMethod:
            for model, query, trace in case_traces(kind, method):
                for cert in trace.certificates:
                    loc = cert.localized
                    p = eliminate_marginal(loc.submodel, loc.index_of(query))
                    digest.update(p.hex().encode())
                    if method is BoundaryMethod.MEAN_FIELD:
                        region = make_region(model, loc.alpha, query)
                        means, state = boundary_mean_field(model, region)
                        for k in means:
                            digest.update(means[k].hex().encode())
                        digest.update(str(state.iterations).encode())
    for model, query in grid_cases()[::2]:
        digest.update(eliminate_marginal(model, query).hex().encode())
        digest.update(log_partition(model).hex().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
def test_greedy_answers_match_pin(method):
    assert case_digests("grid", method)[0] == PINNED[method]


@pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
def test_citation_answers_match_pin(method):
    assert case_digests("citation", method)[0] == PINNED_CITATION[method]


@pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["grid", "citation"])
def test_prefix_certificates_match_pin(kind, method):
    assert case_digests(kind, method)[1] == PINNED_PREFIXES[kind, method]


def test_exact_and_boundary_solves_match_pin():
    assert exact_digest() == PINNED_EXACT
