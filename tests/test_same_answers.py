"""Pinned answers: greedy traces and final certificates on a seeded grid set.

A change that must leave answers alone keeps these digests. A change that
declares new answers updates the pins and records the old and new values in
CHANGES.md.
"""
import hashlib
import math

import pytest

from localmrf import BoundaryMethod, GridSpec, gen_grid, greedy_expand

PINNED = {
    BoundaryMethod.DROP_OUT: "fc74cad80c71eba2eed0f08e36a7b1c002ce33d6f9a909506fe6706dfca64d94",
    BoundaryMethod.MEAN_FIELD: "88291a7fb8ecefb4a52a475d8703fd0b2559d8b5572efc9c3935fce9b3698298",
}


def answers_digest(method: BoundaryMethod) -> str:
    """sha256 over to_jsonl() + final_certificate.to_json() of greedy traces
    on four 8x8 grids, at the centre and at a corner, with the default delta
    and with delta=-inf."""
    digest = hashlib.sha256()
    for seed in range(4):
        spec = GridSpec(8, 8, I1=1.0, I2=0.25, seed=seed)
        model = gen_grid(spec)
        for query in (spec.query, 0):
            for delta in (0.005, -math.inf):
                trace = greedy_expand(model, query, K=12, delta=delta, method=method)
                digest.update(trace.to_jsonl().encode())
                digest.update(trace.final_certificate.to_json().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
def test_greedy_answers_match_pin(method):
    assert answers_digest(method) == PINNED[method]
