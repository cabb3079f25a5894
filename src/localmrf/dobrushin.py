"""Dobrushin comparison certificates for localized models.

The interaction matrix C has one entry per ordered adjacent pair: C_ij is the
worst-case change of node i's conditional p(x_i = +1 | rest) when only
neighbour j flips. With 2a = the conditional's log odds split into the flip
term 2J_ij and the rest M, the entry is

    f(M, J) = | sigma(-(M + 2J)) - sigma(-(M - 2J)) |

f is even in M and decreasing in |M|, so the sup over assignments is f at the
achievable M closest to zero (a signed-sum search over the other neighbours).

When rho(C) < 1 the comparison series D = (I - C)^-1 = sum_k C^k converges
and, for a model nu and its localisation mu agreeing inside alpha,

    |mu(x_q = s) - nu(x_q = s)| <= sum_{j in boundary_alpha} D_qj b_j

where b_j is the worst-case conditional gap between the two models at j.
So a certificate reads x = D b and never D itself: one solve of
(I - C) [v x] = [1 b] gives x, and v = D 1 proves rho(C) < 1 when it is
positive with C v < v (Collatz-Wielandt, C being nonnegative). Influence
also decays like c^d with distance, so a radius certifies a target accuracy
from c alone; its bound has one free t > 1, minimised in closed form at
t* = 1 + 1/(d(1 - c) - c), and the radius is found by integer bisection.

Each search splits into a part that reads no field and a readout that does.
The first is the sorted list of all 2^k signed sums s = sum_l (+-v_l) of a
coupling tuple v_1..v_k, each added left to right from 0.0 (_signed_sums, the
one enumeration); a scorer builds it once per tuple and keeps it in its memo.
The readout bisects it for the sums nearest a target from below and from
above: a C entry is f at the one of the two sums around -2h_i that makes |M|
smallest (_interaction_row). b_j is the max over alpha-side sums s of
|sigma(a + s) - sigma(c + s +- t)| (a, c the two fields doubled, t the outside
coupling mass); each term has one sign and a single extremum in s, at
s* = -(a + c +- t)/2, so b_j is read off at most four sums
(_perturbation_entry). Both readouts write the sigmoids out with math.exp.
Beyond SCALAR_MAX_K couplings no list is kept: _nearest_sums meets in the
middle over two halves on every call (Horowitz & Sahni 1974), in
O(k 2^(k/2)) time and O(2^(k/2)) memory.

ENUMERATION_CAP is a constant, not a setting. It bounds the couplings one
search enumerates: a C entry of node i searches i's other couplings inside
alpha, and b_j searches j's couplings inside alpha (the outside ones enter
only through t). _check_enumeration is the one check, made before any memo
lookup, the sums' included, so a region of at most ENUMERATION_CAP + 1 nodes
never reaches it.

CandidateScorer is the one place C and b are assembled, and
dobrushin_coefficient reads the rows of C for a whole model; both go through
_memo_row at the model's own fields, so they read the same bits (the second
keeps the rows, not their sums, which do not recur across a model). Row i of C
reads only node i's field and couplings inside alpha, and b_j only j's
fields, inside couplings and t: the split the scorer's model.Frontier keeps
per node, patched for each candidate k. With the model's own fields only k's
patch (the rows and entries of k and of k's alpha neighbours) moves from the
certificate of alpha; with mean-field fields every row and entry is built,
and one at a compensated field, which no other candidate shares, is read off
the kept sums and never stored. A step's candidates stack into one solve, one
LAPACK gesv per slice, so a bound has the same bits in any batch.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Candidate, Frontier, IsingModel, LocalMRFError, LocalizedModel, Region

ENUMERATION_CAP = 25
SCALAR_MAX_K = 8  # all 2^k sums are listed up to here, split in halves beyond
_T_LOW = 1e-6  # the decay bound's t is clamped to [1 + _T_LOW, _T_HIGH]
_T_HIGH = 1e4


class EnumerationCapError(LocalMRFError):
    """Neighbourhood too large for exact worst-case enumeration."""


class DobrushinConditionError(LocalMRFError):
    """Contraction coefficient outside (0, 1)."""


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def conditional_gap(m: float, j: float) -> float:
    """f(M, J): worst single-probability gap when one neighbour flips."""
    return abs(_sigmoid(-(m + 2.0 * j)) - _sigmoid(-(m - 2.0 * j)))


def _signed_sums(values: Sequence[float]) -> list[float]:
    """All 2^k signed sums sum_l (+-values_l), each added left to right from
    0.0, sorted: the one full enumeration, for at most SCALAR_MAX_K values."""
    sums = [0.0]
    for v in values:
        sums = [s - v for s in sums] + [s + v for s in sums]
    sums.sort()
    return sums


def _nearest_sums(values: Sequence[float], targets: tuple[float, ...]) -> list[float]:
    """Achievable signed sums sum_l (+-values_l) nearest to each target,
    without listing all 2^k of them: the search beyond SCALAR_MAX_K.

    For every target it returns the largest sum below it and the smallest sum
    at or above it (one of them when the target lies outside the range). For
    each sum of the left half the sorted sums of the right half are searched
    for its nearest partners (Horowitz & Sahni 1974). Each pick is then added
    left to right from 0.0, so it carries the bits _signed_sums gives its sign
    pattern, and the readouts' bisection of that sorted list picks the same
    sums: SCALAR_MAX_K decides only the speed.
    """
    half = len(values) // 2
    left, right = np.zeros(1), np.zeros(1)
    for v in values[:half]:  # bit l of an index set means +values[l]
        left = np.concatenate([left - v, left + v])
    for v in values[half:]:
        right = np.concatenate([right - v, right + v])
    order = np.argsort(right)
    right = right[order]
    nearest = []
    for target in targets:
        pos = np.searchsorted(right, target - left)
        cols = np.concatenate([np.maximum(pos - 1, 0), np.minimum(pos, right.size - 1)])
        pairs = np.tile(left, 2) + right[cols]
        for side, pick in ((pairs < target, np.argmax), (pairs >= target, np.argmin)):
            idx = np.flatnonzero(side)
            if not idx.size:
                continue
            p = int(idx[pick(pairs[idx])])
            bits = p % left.size | int(order[cols[p]]) << half
            s = 0.0
            for l, v in enumerate(values):
                s = s + v if bits >> l & 1 else s - v
            nearest.append(s)
    return nearest


def _min_abs_offset_sum(values: list[float], offset: float) -> float:
    """min over signs s of |offset + sum_l s_l * values_l| (exact)."""
    return min([abs(offset + s) for s in _nearest_sums(values, (-offset,))])


def _sums(values: tuple[float, ...], memo: dict) -> list[float] | None:
    """The sorted _signed_sums of values, built once per memo; None beyond
    SCALAR_MAX_K, where each search meets in the middle instead."""
    if len(values) > SCALAR_MAX_K:
        return None
    key = ("S", values)
    sums = memo.get(key)
    if sums is None:
        sums = memo[key] = _signed_sums(values)
    return sums


def _row_sums(js: tuple[float, ...], memo: dict) -> list:
    """Per entry p of a C row with couplings js: (the other couplings
    doubled, their _sums), or None where js[p] is 0."""
    doubled = [2.0 * x for x in js]
    per_entry = []
    for p, j in enumerate(js):
        if j == 0.0:
            per_entry.append(None)
            continue
        others = tuple(doubled[:p] + doubled[p + 1 :])
        per_entry.append((others, _sums(others, memo)))
    return per_entry


def _interaction_row(h: float, js: tuple[float, ...], per_entry: list) -> list[float]:
    """Row of C, in adjacency order, for a node with field h and couplings
    js, read off their _row_sums: per nonzero entry, f(M, J) at the achievable
    M = 2h + s nearest to zero, both sigmoids inlined."""
    exp = math.exp
    offset = 2.0 * h
    target = -offset
    row = []
    for j, entry in zip(js, per_entry):
        if entry is None:
            row.append(0.0)
            continue
        sums = entry[1]
        if sums is None:
            m = _min_abs_offset_sum(entry[0], offset)
        else:  # the one or two sums around target, as _nearest_sums picks them
            i = bisect_left(sums, target)
            if i:
                m = abs(offset + sums[i - 1])
                if i < len(sums):
                    m2 = abs(offset + sums[i])
                    if m2 < m:
                        m = m2
            else:
                m = abs(offset + sums[0])
        # conditional_gap(m, j)
        x = -(m + 2.0 * j)
        if x >= 0.0:
            p = 1.0 / (1.0 + exp(-x))
        else:
            e = exp(x)
            p = e / (1.0 + e)
        x = -(m - 2.0 * j)
        if x >= 0.0:
            q = 1.0 / (1.0 + exp(-x))
        else:
            e = exp(x)
            q = e / (1.0 + e)
        row.append(abs(p - q))
    return row


def _check_enumeration(node: int, couplings: int) -> None:
    """Raise EnumerationCapError when a search at global node `node` would
    enumerate the signed sums of more than ENUMERATION_CAP couplings."""
    if couplings > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"node {node} would enumerate {couplings} couplings, "
            f"enumeration cap is {ENUMERATION_CAP}"
        )


def _memo_row(
    h: float, js: tuple[float, ...], memo: dict | None, sums: dict, node: int
) -> list[float]:
    """_interaction_row(h, js), read off the _sums kept in `sums`; looked up
    in memo under exactly those floats and stored on a miss, unless memo is
    None.

    Raises EnumerationCapError, whatever memo and sums hold, when a nonzero
    entry of the row would search the other len(js) - 1 couplings of `node`
    and they are over the cap. A row without a nonzero coupling searches
    nothing.
    """
    if any(js):
        _check_enumeration(node, len(js) - 1)
    if memo is None:
        return _interaction_row(h, js, _row_sums(js, sums))
    key = ("C", h, js)
    row = memo.get(key)
    if row is None:
        row = memo[key] = _interaction_row(h, js, _row_sums(js, sums))
    return row


def dobrushin_coefficient(model: IsingModel) -> tuple[float, int]:
    """(c, argmax node) where c = max_i sum_j C_ij, ties to the lowest id.

    Row i of C reads h_i and i's couplings in adjacency order, so nodes with
    equal inputs share one row through the memo. The sums of a row's search
    are dropped with it: with real-valued couplings they do not recur, and
    keeping them would hold up to 2^(d-1) floats per entry of a degree-d row.
    """
    best = 0.0
    best_node = 0
    memo: dict = {}
    for i, nbrs in enumerate(model.adjacency):
        js = tuple(model.coupling(i, j) for j in nbrs)
        row = 0.0
        for entry in _memo_row(float(model.h[i]), js, memo, {}, i):
            row += entry
        if row > best:
            best, best_node = row, i
    return best, best_node


def spectral_radius(c: np.ndarray) -> float:
    """rho(C) from the eigenvalues; 0.0 for an empty C.

    Not used for validity: influence_matrix decides rho(C) < 1 from its own
    solve. It is kept as the eigenvalue oracle that the influence_matrix
    tests check validity against, and as a layer name the benchmark's tracer
    test deletes to show that a missing layer is listed absent.
    """
    return float(np.max(np.abs(np.linalg.eigvals(c)))) if c.size else 0.0


def influence_matrix(c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, valid) with x = (I - C)^-1 b for every n x n slice of C (..., n, n)
    and its b (..., n), and one validity flag per slice (shape C.shape[:-2]).

    One stacked np.linalg.solve(I - C, [1 b]), one LAPACK gesv per slice,
    gives v = (I - C)^-1 1 next to x. A slice is valid when its solve
    succeeds, v > 0 and C v < v entrywise: for nonnegative C, such a v proves
    rho(C) < 1 (Collatz-Wielandt; Berman & Plemmons, Thm 6.2.3). Without
    v > 0, C = [[1.1]] would pass: v = -10 and C v = -11 < v.

    One singular slice makes the stacked call raise; the stack is then solved
    slice by slice, and a singular slice gets an x of nan and is invalid.
    Every slice's x and flag are the bits a call on that slice alone gives.
    """
    a = np.eye(c.shape[-1]) - c
    rhs = np.empty(b.shape + (2,))
    rhs[..., 0] = 1.0
    rhs[..., 1] = b
    try:
        y = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        y = np.empty(rhs.shape)
        for idx in np.ndindex(c.shape[:-2]):
            try:
                y[idx] = np.linalg.solve(a[idx], rhs[idx])
            except np.linalg.LinAlgError:
                y[idx] = np.nan
    v = y[..., :1]
    valid = ((v > 0.0) & (c @ v < v)).all(axis=(-2, -1))
    return y[..., 1], valid


def _perturbation_entry(
    h_tilde: float, h: float, alpha_js: tuple[float, ...], t: float, sums: list[float] | None
) -> float:
    """max over alpha-side sums s of |sigma(2h~ + s) - sigma(2h + s +- t)|,
    read at the sums nearest each term's peak -(2h~ + 2h +- t)/2, where
    sigma(x + d) - sigma(x) is extreme (x = -d/2); sums is _sums(alpha_js),
    and the sigmoids are inlined."""
    exp = math.exp
    a, c = 2.0 * h_tilde, 2.0 * h
    targets = (-(a + c + t) / 2.0, -(a + c - t) / 2.0)
    if sums is None:
        near = _nearest_sums(alpha_js, targets)
    else:  # _nearest_sums's picks, less a pick both targets share
        i = bisect_left(sums, targets[0])
        near = sums[max(i - 1, 0) : i + 1]
        j = bisect_left(sums, targets[1])
        if j != i:
            near += sums[j if j == i + 1 else max(j - 1, 0) : j + 1]
    best = 0.0
    for s in near:
        x = a + s
        if x >= 0.0:
            p_mu = 1.0 / (1.0 + exp(-x))
        else:
            e = exp(x)
            p_mu = e / (1.0 + e)
        x = c + s + t
        if x >= 0.0:
            gap = abs(p_mu - 1.0 / (1.0 + exp(-x)))
        else:
            e = exp(x)
            gap = abs(p_mu - e / (1.0 + e))
        if gap > best:
            best = gap
        x = c + s - t
        if x >= 0.0:
            gap = abs(p_mu - 1.0 / (1.0 + exp(-x)))
        else:
            e = exp(x)
            gap = abs(p_mu - e / (1.0 + e))
        if gap > best:
            best = gap
    return best


def _memo_entry(
    h_tilde: float,
    h: float,
    inside_js: tuple[float, ...],
    t: float,
    node: int,
    memo: dict | None,
    sums: dict,
) -> float:
    """b_j at boundary node j = `node`, whose localized field is h_tilde and
    global field h, with couplings inside_js to its alpha neighbours in
    adjacency order and t = 2 sum |J| over its other neighbours (both from
    j's split), read off the _sums kept in `sums` for inside_js doubled;
    looked up in memo under every float it reads and stored on a miss, unless
    memo is None.

    The localized conditional at j uses h_tilde and j's alpha neighbours only;
    the full model's also sums j's outside neighbours. An interior node has no
    outside neighbour, so both conditionals agree and its b entry is exactly
    zero. At a boundary node the full conditional is monotone in the outside
    cross sum, so the gap's sup over outside assignments is attained at the
    extreme cross sums +-t, and only the alpha-side sums are searched.

    Raises EnumerationCapError, before any lookup, when j has more couplings
    inside alpha, the ones searched, than ENUMERATION_CAP.
    """
    _check_enumeration(node, len(inside_js))
    if memo is not None:
        key = ("b", h_tilde, h, inside_js, t)
        entry = memo.get(key)
        if entry is not None:
            return entry
    alpha_js = tuple([2.0 * x for x in inside_js])
    entry = _perturbation_entry(h_tilde, h, alpha_js, t, _sums(alpha_js, sums))
    if memo is not None:
        memo[key] = entry
    return entry


@dataclass(frozen=True, eq=False)
class DobrushinCertificate:
    """Certified error bound for a localized marginal query.

    bound upper-bounds |p_local(x_query = s) - p_global(x_query = s)| for both
    spin values whenever valid is True. C and b are aligned with
    localized.alpha; localized is the model the certificate describes, on
    which the local marginal is computed.
    """

    C: np.ndarray
    b: np.ndarray
    bound: float
    valid: bool
    c_local: float
    localized: LocalizedModel

    def to_json(self) -> str:
        payload = {
            "alpha": list(self.localized.alpha),
            "bound": self.bound if self.valid else None,
            "valid": self.valid,
            "b": [float(x) for x in self.b],
            "c_local": self.c_local,
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True, eq=False)
class CertificateBatch:
    """Certificates of alpha + (k,) for each candidate k, stacked.

    Slice i of C (m, n, n) and b (m, n) is candidates[i]'s, in the local order
    alpha + (k,). bounds[i] is its bound, +inf when it is invalid or its
    assembly raised; valid[i] is its validity flag. errors maps each
    candidate whose assembly raised to the EnumerationCapError; its slices
    are incomplete, were solved with the others and are flagged invalid.
    """

    candidates: tuple[int, ...]
    C: np.ndarray
    b: np.ndarray
    bounds: tuple[float, ...]
    valid: np.ndarray
    errors: dict[int, EnumerationCapError]

    def certificate(self, k: int, localized: LocalizedModel) -> DobrushinCertificate:
        """Candidate k's certificate, on the localization of alpha + (k,)
        whose fields were certified.

        Raises:
            EnumerationCapError: k's assembly raised it.
        """
        if k in self.errors:
            raise self.errors[k]
        i = self.candidates.index(k)
        c = self.C[i].copy()
        return DobrushinCertificate(
            C=c,
            b=self.b[i].copy(),
            bound=self.bounds[i],
            valid=bool(self.valid[i]),
            c_local=float(c.sum(axis=1).max()),
            localized=localized,
        )


class CandidateScorer:
    """Certificates of alpha + (k,) for the candidates k of one expansion,
    step after step; the one place C and b are assembled.

    For each candidate, C is the interaction matrix of its localized model
    (localized fields, edges inside alpha + (k,) only), rows in local order,
    k last; b compares the two conditionals at the boundary (see
    _memo_entry); the bound is entry `query` of x = (I - C)^-1 b. Every row
    and entry reads its node's split off `frontier`, the expansion's one
    frontier state, so no region, localization or submodel is built.

    With the model's own fields and a base, the drop-out certificate of
    alpha, base is copied into every slice of one (m, n + 1, n) stack, b over
    C, and each candidate's *patch*, the rows and entries of k and of k's
    alpha neighbours as flat (row, col, value) lists with k's index -1, is
    written over it. A patch depends only on which neighbours of k and of
    k's alpha neighbours lie in alpha, so `patches` keeps it until accept(k*)
    drops it: for the candidates in N(k*) and those with an alpha neighbour
    in N(k*). Otherwise (mean-field fields, or no base on the model's fields)
    every row and entry is built.

    memo holds what can recur within the expansion, keyed on all it reads:
    the sorted signed sums of each coupling tuple (built once), and the rows
    and entries at the model's own fields (kept patches, interior nodes). A
    row or entry at a compensated field is read off those sums and not
    stored. No state changes a bit of any result.

    Raises:
        ValueError: base does not certify alpha of model.
    """

    def __init__(self, model: IsingModel, alpha: Sequence[int], query: int, *, base=None):
        self.model, self.query = model, query
        self.memo: dict = {}
        self.patches: dict[int, tuple | EnumerationCapError] = {}
        self.frontier = Frontier(model, query)
        self.index = self.frontier.index
        self._model_h: list[float] = []  # the model's fields of alpha, in local order
        self.base = self._own_base(tuple(alpha), base)
        for g in alpha:
            self.frontier.accept(g)

    @property
    def alpha(self) -> tuple[int, ...]:
        return self.frontier.alpha

    def _own_base(self, alpha: tuple[int, ...], base: DobrushinCertificate | None):
        """base, which must certify alpha, or None if it is None or its
        fields are not the model's."""
        if base is not None and (base.localized.model, base.localized.alpha) != (self.model, alpha):
            raise ValueError("base must certify alpha of the same model")
        self._model_h += [self.frontier.node(g)[0] for g in alpha[len(self._model_h) :]]
        return base if base is not None and base.localized.h.tolist() == self._model_h else None

    def _patch(self, k: int, h_tilde: list[float] | None = None, every: bool = False):
        """k's patch: the rows of C and entries of b of k's alpha neighbours
        (of every alpha node, with every) and of k, last, as (rows, cols,
        values) in a slice of the step's stack (see score), with k's index
        -1 (n - 1 with every); or the EnumerationCapError one of them raises.

        h_tilde holds the localized fields in local order, k's last; None
        takes the model's. A row or entry at the model's field goes through
        the memo; one at a compensated field is only read off the sums memo
        keeps (see the class docstring). Every row is computed before any
        entry, in local order, so the error raised is the one a rebuild
        raises.
        """
        frontier = self.frontier
        alpha = frontier.alpha
        if every:
            nodes = list(zip(range(len(alpha) + 1), alpha + (k,), frontier.local_splits(k)))
        else:  # a patch is built once, so its splits are not kept
            own = frontier.split(k)
            nodes = [(i, alpha[i], frontier.split_with(alpha[i], k)) for i in own[1]]
            nodes.append((-1, k, own))
        fields = h_tilde or [split[0] for _, _, split in nodes]
        memo, rows, cols, vals = self.memo, [], [], []
        try:  # a compensated field does not recur, so nothing read at one is stored
            for (i, g, (h_g, g_cols, js, _, _, _)), f in zip(nodes, fields):
                vals += _memo_row(f, js, memo if f == h_g else None, memo, g)
                rows += [i + 1 if i >= 0 else -1] * len(g_cols)
                cols += g_cols
            # a node that left the boundary had k as its last outside neighbour
            for (_, g, (h_g, _, _, inside, outside, t)), f in zip(nodes, fields):
                vals.append(
                    _memo_entry(f, h_g, inside, t, g, memo if f == h_g else None, memo)
                    if outside
                    else 0.0
                )
        except EnumerationCapError as exc:
            return exc
        rows += [0] * len(nodes)
        cols += [node[0] for node in nodes]
        return rows, cols, vals

    def score(
        self, candidates: Sequence[int], fields: Sequence[np.ndarray] | None = None
    ) -> CertificateBatch:
        """Certificates for the query marginal of alpha + (k,), k in candidates.

        fields[i] holds the localized fields of alpha + (candidates[i],) in
        local order; None takes the model's own fields, as DROP_OUT does. A
        slice that fails its validity test, or whose row or entry is over
        ENUMERATION_CAP (recorded in errors), is invalid and scores +inf.
        """
        candidates = tuple(candidates)
        m, n = len(candidates), len(self.frontier.alpha) + 1
        # slice i is b of candidate i over its C, so one store writes them
        stack = np.zeros((m, n + 1, n))
        c, b = stack[:, 1:], stack[:, 0]
        base = self.base
        if fields is None and base is not None:
            patches = []  # kept from step to step
            for k in candidates:
                patch = self.patches.get(k)
                if patch is None:
                    patch = self.patches[k] = self._patch(k)
                patches.append(patch)
            stack[:, 0, :-1] = base.b
            stack[:, 1:-1, :-1] = base.C
        else:
            h = [None] * m
            if fields is not None:
                h = np.array(fields, dtype=np.float64).reshape(m, n).tolist()
            patches = [self._patch(k, h[ci], every=True) for ci, k in enumerate(candidates)]
        slices, rows, cols, vals = [], [], [], []
        errors: dict[int, EnumerationCapError] = {}
        for ci, (k, patch) in enumerate(zip(candidates, patches)):
            if isinstance(patch, EnumerationCapError):
                errors[k] = patch
                continue
            p_rows, p_cols, p_vals = patch
            slices += [ci] * len(p_rows)
            rows += p_rows
            cols += p_cols
            vals += p_vals
        stack[slices, rows, cols] = vals
        x, valid = influence_matrix(c, b)
        for k in errors:
            valid[candidates.index(k)] = False
        bounds = np.where(valid, x[:, self.index.get(self.query, n - 1)], math.inf)
        return CertificateBatch(
            candidates=candidates, C=c, b=b, bounds=tuple(bounds.tolist()), valid=valid, errors=errors
        )

    def accept(self, k: int, certificate: DobrushinCertificate | None) -> None:
        """Accept k into the frontier, with certificate, that of alpha + (k,),
        as the next base (none if it is None or not on the model's fields),
        and drop the patches k changes.

        Raises:
            ValueError: certificate does not certify alpha + (k,) of model.
        """
        self.base = self._own_base(self.frontier.alpha + (k,), certificate)
        index, patches, node = self.index, self.patches, self.frontier.node
        if self.base is None:
            patches.clear()
        patches.pop(k, None)
        for x, _ in node(k)[1]:
            if x in index:  # x's row gains k in every patch that holds it
                for y, _ in node(x)[1]:
                    patches.pop(y, None)
            else:
                patches.pop(x, None)
        self.frontier.accept(k)


def local_certificate(
    model: IsingModel, region: Region | Candidate, localized: LocalizedModel
) -> DobrushinCertificate:
    """Certificate for the query marginal of a localized model, on a Region
    or a Candidate.

    A batch of one: a CandidateScorer on region.alpha[:-1], without base,
    scores its last node with localized.h as that node's fields, so it is
    assembled and solved as an expansion's candidates are. For a region over
    range(n) with DROP_OUT, C is the whole model's interaction matrix.

    Raises:
        EnumerationCapError: a row or entry computed here is over
            ENUMERATION_CAP.
    """
    alpha = region.alpha
    scorer = CandidateScorer(model, alpha[:-1], region.query)
    return scorer.score(alpha[-1:], [localized.h]).certificate(alpha[-1], localized)


def _log_bound(c: float, d: float) -> tuple[float, float]:
    """(log of the certified gap at distance d, the t > 1 attaining it).

    At t the gap is 0.5 t / ((t-1)(1-c)) times e^(-d rate), with the per-hop
    log decay rate = ln(1 + (1-c)/(tc)) (worst entry 1/2 times a geometric
    tail). Its log has one stationary point, the minimum
    t* = 1 + 1/(d(1-c) - c), when d(1-c) > c, and falls all the way to
    _T_HIGH otherwise. t* is clamped to the domain, and t = 2 is also tried,
    so the result is never above the t = 2 closed form.
    """
    slope = d * (1.0 - c) - c
    t_star = 1.0 + min(max(1.0 / slope, _T_LOW), _T_HIGH - 1.0) if slope > 0 else _T_HIGH
    best = (math.inf, 2.0)
    for t in (t_star, 2.0):
        log_gap = math.log(0.5 * t / ((t - 1.0) * (1.0 - c)))
        if d:  # at d = 0 there is no decay, and 0 * an overflowed rate would be nan
            log_gap -= d * math.log1p((1.0 - c) / (t * c))
        best = min(best, (log_gap, t))
    return best


def _check_c(c: float) -> None:
    if not c < 1.0:  # also catches NaN
        raise DobrushinConditionError(f"contraction coefficient c={c} is not < 1")
    if c <= 0.0:
        raise DobrushinConditionError(f"contraction coefficient c={c} is not > 0")


def decay_radius(c: float, eps: float, return_t: bool = False):
    """Smallest certified hop distance: matching a model on a radius-r ball
    around the query keeps the query marginal within eps.

    r is the smallest integer d >= 0 whose log bound (see _log_bound) is at
    most log(eps), found by integer bisection below the t = 2 closed form
    ceil(-ln(eps (1-c)) / ln((1+c)/(2c))), which is stepped up first if its
    own rounding fails it. With return_t, also reports the t at which r is
    certified, t*(r).
    """
    _check_c(c)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    log_eps = math.log(eps)
    # a subnormal c overflows the rate to inf, and the closed form reads 0
    hi = max(0, math.ceil(-(log_eps + math.log1p(-c)) / math.log1p((1.0 - c) / (2.0 * c))))
    step = 1  # doubled, so that a d past 2^53, where + 1 rounds away, still moves
    while _log_bound(c, hi)[0] > log_eps:
        hi, step = hi + step, 2 * step
    lo = -1  # lo fails (or is below 0), hi passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_bound(c, mid)[0] <= log_eps:
            hi = mid
        else:
            lo = mid
    return (hi, _log_bound(c, hi)[1]) if return_t else hi


def decay_bound(c: float, d: float) -> float:
    """Certified marginal gap at hop distance d >= 0 under coefficient c:
    the gap of _log_bound at its minimising t.

    Inverse-consistent with decay_radius: decay_bound(c, decay_radius(c, eps))
    is at most eps, up to the rounding of exp(log(eps)).
    """
    _check_c(c)
    if not d >= 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    return math.exp(_log_bound(c, d)[0])
