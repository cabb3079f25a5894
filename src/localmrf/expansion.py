"""Query-centred subgraph expansion with certified error bounds.

Starting from alpha = {query}, each step scores every outside boundary node by
the certificate bound of alpha plus that node and accepts the best one while
it improves the current bound by more than delta. Random and coupling-norm
baselines run the same loop but score only the node their rule picks, and
always detach alpha by dropping the cross edges, so all three strategies share
one trace format and one final-certificate rule.

An expansion keeps one state: its `CandidateScorer` and the scorer's
`Frontier`, which holds alpha and splits each nearby node's couplings into
inside and outside alpha, updated as each node is accepted. Every step reads
its candidates, their C and b, their boundary solves and compensated fields
(MEAN_FIELD) and the maxnorm pick off that state, each candidate k as a
`Candidate` patched around k; no `Region` is built. Under drop-out each
candidate's C and b are the accepted certificate's with k's patch written
over them; under MEAN_FIELD every row and entry is built. Every bound is
bit-identical to a certificate built from scratch.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dobrushin import (
    CandidateScorer,
    DobrushinCertificate,
    EnumerationCapError,
    local_certificate,
)
from .exact import eliminate_marginal
from .model import (
    BoundaryMethod,
    Candidate,
    Frontier,
    IsingModel,
    LocalizedModel,
    MeanFieldDivergence,
    localize,
)


class StopReason(Enum):
    REACHED_K = "ReachedK"
    NO_IMPROVEMENT = "NoImprovement"
    BOUNDARY_EMPTY = "BoundaryEmpty"


@dataclass(frozen=True)
class ExpansionStep:
    """One accepted or rejected growth step.

    candidates is the outside boundary when the step ran; bounds maps the
    scored candidates to their certificate bounds (+inf for invalid ones);
    chosen is None when the step only established that no candidate improves.
    """

    candidates: tuple[int, ...]
    bounds: dict[int, float]
    chosen: int | None
    best_bound: float


@dataclass
class ExpansionTrace:
    """A growth run: its steps, the certificate of every prefix of alpha, and
    why it stopped. certificates[s - 1] certifies the first s nodes of alpha;
    a prefix whose build raised, or whose boundary solve stalled, holds an
    invalid certificate with bound +inf. Certificates are not serialised by
    to_jsonl."""

    query: int
    method: BoundaryMethod
    steps: list[ExpansionStep]
    certificates: list[DobrushinCertificate]
    stop_reason: StopReason
    degraded: bool = False

    @property
    def final_certificate(self) -> DobrushinCertificate:
        return self.certificates[-1]

    @property
    def final_alpha(self) -> tuple[int, ...]:
        return self.certificates[-1].localized.alpha

    @property
    def valid(self) -> bool:
        return self.final_certificate.valid and not self.degraded

    def to_jsonl(self) -> str:
        """One JSON object per step (inf bounds serialised as null)."""
        def finite(v: float) -> float | None:
            return v if math.isfinite(v) else None

        lines = [
            json.dumps(
                {
                    "candidates": list(s.candidates),
                    "bounds": {str(k): finite(v) for k, v in s.bounds.items()},
                    "chosen": s.chosen,
                    "best_bound": finite(s.best_bound),
                },
                sort_keys=True,
            )
            for s in self.steps
        ]
        return "\n".join(lines) + "\n" if lines else ""


def _maxnorm_choice(frontier: Frontier, candidates: tuple[int, ...]) -> int:
    """argmax over candidates of sum over alpha neighbours of J^2, ties low id.

    A square that overflows (|J| above about 1.3e154) scores the candidate
    +inf. `**` raises there where `x * x` would give inf, but the two round
    differently for some x, so `**` is kept for every other score.
    """
    best, best_score = candidates[0], -1.0
    for k in candidates:
        try:
            score = sum(j ** 2 for j in frontier.split(k)[3])
        except OverflowError:
            score = math.inf
        if score > best_score:
            best, best_score = k, score
    return best


def greedy_expand(
    model: IsingModel, query: int, K: int = 16, delta: float = 0.005,
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
    return _expand(model, query, K, delta, method, lambda frontier, cands: cands)


def random_expand(
    model: IsingModel, query: int, K: int = 16, seed: int | np.random.Generator = 0
) -> ExpansionTrace:
    """Uniform random boundary growth; bounds still computed for reporting."""
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    )
    return _expand(
        model, query, K, -math.inf, BoundaryMethod.DROP_OUT,
        lambda frontier, cands: [cands[int(rng.integers(len(cands)))]],
    )


def maxnorm_expand(model: IsingModel, query: int, K: int = 16) -> ExpansionTrace:
    """Strongest-coupling growth: argmax sum of squared couplings into alpha."""
    return _expand(
        model, query, K, -math.inf, BoundaryMethod.DROP_OUT,
        lambda frontier, cands: [_maxnorm_choice(frontier, cands)],
    )


def _expand(model, query, K, delta, method, to_score) -> ExpansionTrace:
    """The growth loop every strategy shares.

    to_score(frontier, candidates) names the candidates scored at a step:
    all of them for greedy, the one its pick rule names for a baseline, which
    runs with delta=-inf so any finite bound is accepted. When every scored
    node is invalid, the maxnorm rule picks among them and the trace is
    degraded.

    The loop starts from the certificate of {query}. One CandidateScorer
    scores every step's candidates on base, the last certificate built, and
    accepts the chosen node; only the chosen node gets a certificate. Under
    MEAN_FIELD every candidate is localized first, for its own boundary
    solve; one whose solve stalls scores +inf, and if chosen anyway its prefix
    is localized by DROP_OUT. A prefix whose build raises or whose solve
    stalled is recorded as _uncertified and leaves no base.

    Raises:
        ValueError: query out of range, K not an integer >= 1 (bools
            refused), or delta NaN.
    """
    if not (0 <= query < model.n):
        raise ValueError(f"query {query} out of range")
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError(f"K must be an integer >= 1, got {K!r}")
    if math.isnan(delta):
        raise ValueError("delta must not be NaN")
    scorer = CandidateScorer(model, (), query)
    frontier, start = scorer.frontier, Candidate(scorer.frontier, query)
    steps: list[ExpansionStep] = []
    best_bound, degraded, stop = 1.0, False, StopReason.REACHED_K
    try:
        base = local_certificate(model, start, localize(model, start, method))
    except MeanFieldDivergence:
        base = None
    certificates = [base or _uncertified(localize(model, start, BoundaryMethod.DROP_OUT))]
    scorer.accept(query, base)
    while len(frontier.alpha) < K:
        candidates = tuple(sorted(frontier.beta))
        if not candidates:
            stop = StopReason.BOUNDARY_EMPTY
            break
        scored = tuple(to_score(frontier, candidates))
        bounds = dict.fromkeys(scored, math.inf)
        locs: dict[int, LocalizedModel] = {}
        if method is BoundaryMethod.MEAN_FIELD:
            for k in scored:
                try:
                    locs[k] = localize(model, Candidate(frontier, k), method)
                except MeanFieldDivergence:
                    pass
            ks, fields = tuple(locs), [loc.h for loc in locs.values()]
        else:
            ks, fields = scored, None
        batch = scorer.score(ks, fields)
        bounds.update(zip(ks, batch.bounds))
        chosen = min(bounds, key=lambda k: (bounds[k], k))
        if bounds[chosen] < best_bound - delta:
            best_bound = bounds[chosen]
        elif all(math.isinf(b) for b in bounds.values()):
            chosen = _maxnorm_choice(frontier, scored)
            degraded = True
        else:
            steps.append(ExpansionStep(candidates, bounds, None, best_bound))
            stop = StopReason.NO_IMPROVEMENT
            break
        base = None
        if chosen in ks:
            grown = Candidate(frontier, chosen)
            loc = locs[chosen] if chosen in locs else localize(model, grown, method)
            try:
                base = batch.certificate(chosen, loc)
            except EnumerationCapError:
                pass
        else:  # its boundary solve stalled while it was scored
            loc = localize(model, Candidate(frontier, chosen), BoundaryMethod.DROP_OUT)
        certificates.append(base or _uncertified(loc))
        scorer.accept(chosen, base)
        steps.append(ExpansionStep(candidates, bounds, chosen, best_bound))
    return ExpansionTrace(
        query=query,
        method=method,
        steps=steps,
        certificates=certificates,
        stop_reason=stop,
        degraded=degraded,
    )


def _uncertified(localized: LocalizedModel) -> DobrushinCertificate:
    """The certificate of a region whose C or b is over ENUMERATION_CAP, or
    whose boundary solve stalled: invalid, with bound +inf, and C, b and
    c_local unknown (nan)."""
    n = len(localized.alpha)
    return DobrushinCertificate(
        C=np.full((n, n), np.nan),
        b=np.full(n, np.nan),
        bound=math.inf,
        valid=False,
        c_local=math.nan,
        localized=localized,
    )


@dataclass
class QueryResult:
    marginal: float  # p(x_query = +1) under the localized model
    bound: float  # certified gap to the global marginal (+inf if invalid)
    valid: bool
    alpha: tuple[int, ...]
    trace: ExpansionTrace


def query_marginal(
    model: IsingModel, query: int, K: int = 16, delta: float = 0.005,
    method: BoundaryMethod = BoundaryMethod.DROP_OUT,
) -> QueryResult:
    """Greedy-expand around the query and infer exactly on alpha only.

    The marginal is the exact marginal of the localized model the final
    certificate was built on, which is what the certificate's bound covers.
    The bound is +inf whenever the answer is not valid, a degraded trace's
    too. The answer never reads nodes beyond the expanded region, so its
    cost is independent of the global graph size.
    """
    trace = greedy_expand(model, query, K=K, delta=delta, method=method)
    loc = trace.final_certificate.localized
    return QueryResult(
        marginal=eliminate_marginal(loc.submodel, loc.index_of(query)),
        bound=trace.final_certificate.bound if trace.valid else math.inf,
        valid=trace.valid,
        alpha=trace.final_alpha,
        trace=trace,
    )
