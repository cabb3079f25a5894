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
    BoundaryMethod.DROP_OUT: "458df5222a5b1a91fc2c1e1b1b79634b4227b123bf5786c21d8116314fa07f32",
    BoundaryMethod.MEAN_FIELD: "ce3ce552867b87dd7fea77abeaec81d22bbc42799f096216326b8134aaabdb18",
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
