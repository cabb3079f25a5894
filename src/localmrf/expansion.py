"""Query-centred subgraph expansion with certified error bounds.

Starting from alpha = {query}, each step scores every outside boundary node by
the certificate bound of alpha plus that node and accepts the best one while
it improves the current bound by more than delta. Random and coupling-norm
baselines run the same loop but score only the node their rule picks, and
always detach alpha by dropping the cross edges, so all three strategies share
one trace format and one final-certificate rule.

A candidate k shares all of alpha with the certificate its step accepted, so
it is scored by extending that certificate: the region grows by k
(`Region.grow`), the localization keeps only alpha and its fields (the
alpha-only model is built when first read, so an unchosen candidate never
builds one), and `local_certificate(..., base=...)` recomputes only the rows
and entries that k can change. The result is bit-identical to a rebuild.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dobrushin import DobrushinCertificate, EnumerationCapError, local_certificate
from .exact import eliminate_marginal
from .meanfield import mean_field
from .model import (
    BoundaryMethod,
    IsingModel,
    MeanFieldDivergence,
    Region,
    localize,
    make_region,
)


class StopReason(Enum):
    REACHED_K = "ReachedK"
    NO_IMPROVEMENT = "NoImprovement"
    BOUNDARY_EMPTY = "BoundaryEmpty"


class InferenceMethod(Enum):
    EXACT = "exact"
    MEAN_FIELD = "meanfield"


@dataclass(frozen=True)
class ExpansionStep:
    """One accepted or rejected growth step.

    candidates is the outside boundary when the step ran; bounds maps the
    scored candidates to their certificate bounds (+inf for invalid ones);
    chosen is None when the step only established that no candidate improves.
    certificate is the one scored for the chosen node, None when there is no
    chosen node or its build raised; it is not serialised by to_jsonl.
    """

    candidates: tuple[int, ...]
    bounds: dict[int, float]
    chosen: int | None
    best_bound: float
    certificate: DobrushinCertificate | None = field(default=None, compare=False, repr=False)


@dataclass
class ExpansionTrace:
    query: int
    method: BoundaryMethod
    steps: list[ExpansionStep]
    final_alpha: tuple[int, ...]
    final_certificate: DobrushinCertificate
    stop_reason: StopReason
    degraded: bool = False

    @property
    def valid(self) -> bool:
        return self.final_certificate.valid and not self.degraded

    def alpha_prefix(self, size: int) -> tuple[int, ...]:
        """The first `size` nodes added (clipped to the final size)."""
        return self.final_alpha[: max(1, min(size, len(self.final_alpha)))]

    def to_jsonl(self) -> str:
        """One JSON object per step (inf bounds serialised as null)."""
        lines = []
        for s in self.steps:
            lines.append(
                json.dumps(
                    {
                        "candidates": list(s.candidates),
                        "bounds": {
                            str(k): (v if math.isfinite(v) else None)
                            for k, v in s.bounds.items()
                        },
                        "chosen": s.chosen,
                        "best_bound": s.best_bound if math.isfinite(s.best_bound) else None,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n" if lines else ""


def _certificate(
    model: IsingModel,
    region: Region,
    method: BoundaryMethod,
    memo: dict,
    base: DobrushinCertificate | None = None,
) -> DobrushinCertificate:
    loc = localize(model, region, method=method)
    return local_certificate(model, region, loc, memo=memo, base=base)


def _maxnorm_choice(model: IsingModel, alpha: list[int], candidates: tuple[int, ...]) -> int:
    """argmax over candidates of sum over alpha neighbours of J^2, ties low id.

    A square that overflows (|J| above about 1.3e154) scores the candidate
    +inf. `**` raises there where `x * x` would give inf, but the two round
    differently for some x, so `**` is kept for every other score.
    """
    inside = set(alpha)
    best, best_score = candidates[0], -1.0
    for k in candidates:
        try:
            score = sum(model.coupling(k, j) ** 2 for j in model.adjacency[k] if j in inside)
        except OverflowError:
            score = math.inf
        if score > best_score:
            best, best_score = k, score
    return best


def greedy_expand(
    model: IsingModel,
    query: int,
    K: int = 16,
    delta: float = 0.005,
    method: BoundaryMethod = BoundaryMethod.DROP_OUT,
) -> ExpansionTrace:
    """Bound-driven expansion.

    Each step scores alpha + {k} for every boundary candidate k and accepts the
    lowest bound if it beats the incumbent by more than delta (ties to the
    lowest node id). delta=-inf never stops early, which experiments use to
    build full size-1..K curves. A candidate whose certificate is invalid (or
    whose boundary solve fails) scores +inf and loses to any valid one; when
    every candidate is invalid the maxnorm rule picks the node instead and the
    trace is marked degraded.
    """
    return _expand(model, query, K, delta, method, lambda alpha, cands: cands)


def random_expand(
    model: IsingModel,
    query: int,
    K: int = 16,
    seed: int | np.random.Generator = 0,
) -> ExpansionTrace:
    """Uniform random boundary growth; bounds still computed for reporting."""
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    )
    return _expand(
        model, query, K, -math.inf, BoundaryMethod.DROP_OUT,
        lambda alpha, cands: [cands[int(rng.integers(len(cands)))]],
    )


def maxnorm_expand(model: IsingModel, query: int, K: int = 16) -> ExpansionTrace:
    """Strongest-coupling growth: argmax sum of squared couplings into alpha."""
    return _expand(
        model, query, K, -math.inf, BoundaryMethod.DROP_OUT,
        lambda alpha, cands: [_maxnorm_choice(model, alpha, cands)],
    )


def _expand(model, query, K, delta, method, to_score) -> ExpansionTrace:
    """The growth loop every strategy shares.

    to_score(alpha, candidates) names the candidates scored at a step: all of
    them for greedy, the one its pick rule names for a baseline, which runs
    with delta=-inf so any finite bound is accepted. When every scored node is
    invalid, the maxnorm rule picks among them and the trace is degraded. The
    final certificate is the one scored for the node appended last; it is only
    built afresh when alpha is still {query} or that node's build raised.

    Each candidate's region is the current one grown by it, and its
    certificate extends final_cert, the certificate of the current alpha;
    with no such certificate (the first step, or after a raised build) every
    row and entry is computed. One memo of C rows and b entries lives for the
    call, so a recomputed row or entry that an earlier candidate already
    needed is looked up, not computed again.
    """
    if not (0 <= query < model.n):
        raise ValueError(f"query {query} out of range")
    if K < 1:
        raise ValueError("K must be >= 1")
    alpha = [query]
    region = make_region(model, alpha, query)
    best_bound = 1.0
    steps: list[ExpansionStep] = []
    degraded = False
    stop = StopReason.REACHED_K
    final_cert: DobrushinCertificate | None = None
    memo: dict = {}
    while len(alpha) < K:
        candidates = region.boundary_beta
        if not candidates:
            stop = StopReason.BOUNDARY_EMPTY
            break
        bounds: dict[int, float] = {}
        regions: dict[int, Region] = {}
        certs: dict[int, DobrushinCertificate] = {}
        for k in to_score(alpha, candidates):
            regions[k] = region.grow(model, k)
            try:
                certs[k] = _certificate(model, regions[k], method, memo, final_cert)
                bounds[k] = certs[k].bound
            except (MeanFieldDivergence, EnumerationCapError):
                bounds[k] = math.inf
        chosen = min(bounds, key=lambda k: (bounds[k], k))
        if bounds[chosen] < best_bound - delta:
            best_bound = bounds[chosen]
        elif all(math.isinf(b) for b in bounds.values()):
            chosen = _maxnorm_choice(model, alpha, tuple(bounds))
            degraded = True
        else:
            steps.append(ExpansionStep(candidates, bounds, None, best_bound))
            stop = StopReason.NO_IMPROVEMENT
            break
        alpha.append(chosen)
        region = regions[chosen]
        final_cert = certs.get(chosen)
        steps.append(ExpansionStep(candidates, bounds, chosen, best_bound, final_cert))
    if final_cert is None:
        final_cert = _certificate(model, region, method, memo)
    return ExpansionTrace(
        query=query,
        method=method,
        steps=steps,
        final_alpha=tuple(alpha),
        final_certificate=final_cert,
        stop_reason=stop,
        degraded=degraded,
    )


@dataclass
class QueryResult:
    marginal: float  # p(x_query = +1) under the localized model
    bound: float  # certified gap to the global marginal (+inf if invalid)
    valid: bool
    alpha: tuple[int, ...]
    trace: ExpansionTrace


def query_marginal(
    model: IsingModel,
    query: int,
    K: int = 16,
    delta: float = 0.005,
    method: BoundaryMethod = BoundaryMethod.DROP_OUT,
    inference: InferenceMethod = InferenceMethod.EXACT,
) -> QueryResult:
    """Greedy-expand around the query and infer on alpha only.

    Inference runs on the localized model the final certificate was built
    on, so the region is localized once per answer. The answer never touches
    nodes beyond the expanded region, so its cost is independent of the
    global graph size.
    """
    trace = greedy_expand(model, query, K=K, delta=delta, method=method)
    loc = trace.final_certificate.localized
    qi = loc.index_of(query)
    if inference is InferenceMethod.EXACT:
        p = eliminate_marginal(loc.submodel, qi)
    else:
        state = mean_field(loc.submodel)
        p = (1.0 + float(state.m[qi])) / 2.0
    return QueryResult(
        marginal=p,
        bound=trace.final_certificate.bound,
        valid=trace.valid,
        alpha=trace.final_alpha,
        trace=trace,
    )
