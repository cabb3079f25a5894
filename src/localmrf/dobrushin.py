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
Validity is decided by the solve that yields D: C is nonnegative, so
rho(C) < 1 exactly when I - C is nonsingular with a nonnegative inverse, and
a Collatz-Wielandt check on v = D 1 guards that test against rounding. The
same geometric-series shape yields a distance form: influence decays like
c^d, giving a radius that certifies a target accuracy from c alone.

Both searches run on one kernel, _nearest_sums: given couplings v_1..v_k and
a target, it returns the achievable sums s = sum_l (+-v_l) nearest to the
target from below and from above. A C entry is f at the one of the two sums
around -2h_i that makes |M| smallest. b_j is the max over alpha-side sums s of
|sigma(a + s) - sigma(c + s +- t)| (a, c the two fields doubled, t the outside
coupling mass); each term has one sign and a single extremum in s, at
s* = -(a + c +- t)/2, so its max over any set of sums lies at the nearest sum
on one side of s*, and b_j is read off at most four sums. Up to SCALAR_MAX_K
couplings the kernel lists all 2^k sums in pure Python and bisects them.
Beyond, it meets in the middle over two halves (Horowitz & Sahni 1974), in
O(k 2^(k/2)) time and O(2^(k/2)) memory, so a search at ENUMERATION_CAP
(k <= 25) holds two arrays of at most 8,192 sums instead of 2^25.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import IsingModel, LocalMRFError, LocalizedModel, Region

ENUMERATION_CAP = 25
SCALAR_MAX_K = 8  # _nearest_sums lists all 2^k sums up to here, splits in halves beyond
_T_LOW = 1e-6  # search domain is t in (1 + _T_LOW, _T_HIGH]
_T_HIGH = 1e4
NEG_TOL = 1e-12  # tolerated numerical negativity in D


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


def _nearest_sums(values: list[float], targets: tuple[float, ...]) -> list[float]:
    """Achievable signed sums sum_l (+-values_l) nearest to each target.

    For every target it returns the largest sum below it and the smallest sum
    at or above it (one of them when the target lies outside the range). Each
    sum is added left to right from 0.0, so it carries the bits a full
    enumeration gives its sign pattern, and SCALAR_MAX_K decides only the
    speed (up to which rounding is returned when two patterns reach one exact
    sum). Up to SCALAR_MAX_K values all 2^k sums are listed in pure Python
    and bisected.
    Beyond, the values are split in two halves whose 2^(k/2) sums are listed
    with numpy, and for each left sum the sorted right half is searched for
    its nearest partners (Horowitz & Sahni 1974): time O(k 2^(k/2)), memory
    O(2^(k/2)), not O(2^k).
    """
    if len(values) <= SCALAR_MAX_K:
        sums = [0.0]
        for v in values:
            sums = [s - v for s in sums] + [s + v for s in sums]
        sums.sort()
        nearest = []
        for target in targets:
            i = bisect_left(sums, target)
            nearest += sums[max(i - 1, 0) : i + 1]
        return nearest
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
    return min(abs(offset + s) for s in _nearest_sums(values, (-offset,)))


def _row_inputs(model: IsingModel, i: int, cap: int) -> tuple[float, tuple[float, ...]]:
    """(h_i, i's couplings in adjacency order): all that row i of C reads.

    Raises EnumerationCapError when some nonzero entry of the row would
    enumerate more than cap other neighbours.
    """
    adj = model.adjacency[i]
    js = tuple(model.coupling(i, j) for j in adj)
    if len(adj) - 1 > cap and any(js):
        raise EnumerationCapError(
            f"node {i} has {len(adj)} neighbours, enumeration cap is {cap}"
        )
    return float(model.h[i]), js


def _interaction_row(h: float, js: tuple[float, ...]) -> list[float]:
    """Row of C, in adjacency order, for a node with field h and couplings js."""
    row = []
    for p, j in enumerate(js):
        if j == 0.0:
            row.append(0.0)
            continue
        others = [2.0 * x for l, x in enumerate(js) if l != p]
        row.append(conditional_gap(_min_abs_offset_sum(others, 2.0 * h), j))
    return row


def interaction_matrix(
    model: IsingModel, cap: int = ENUMERATION_CAP, *, memo: dict | None = None
) -> np.ndarray:
    """Dense C for a (small) model; rows are conditioned nodes.

    Row i is a pure function of h_i and of i's couplings in adjacency order,
    so it is looked up in memo under exactly those floats and computed only
    on a miss; a cached row is bit-identical to a fresh one. The cap check
    runs before the lookup, so a row over the cap raises whatever memo holds.
    """
    memo = {} if memo is None else memo
    n = model.n
    c = np.zeros((n, n))
    for i in range(n):
        h, js = _row_inputs(model, i, cap)
        key = ("C", h, js)
        row = memo.get(key)
        if row is None:
            row = memo[key] = _interaction_row(h, js)
        for j, entry in zip(model.adjacency[i], row):
            c[i, j] = entry
    return c


def dobrushin_coefficient(model: IsingModel, cap: int = ENUMERATION_CAP) -> tuple[float, int]:
    """(c, argmax node) where c = max_i sum_j C_ij, ties to the lowest id."""
    best = 0.0
    best_node = 0
    for i in range(model.n):
        row = 0.0
        for entry in _interaction_row(*_row_inputs(model, i, cap)):
            row += entry
        if row > best:
            best, best_node = row, i
    return best, best_node


def spectral_radius(c: np.ndarray) -> float:
    """rho(C) from the eigenvalues; 0.0 for an empty C. Not used for validity."""
    return float(np.max(np.abs(np.linalg.eigvals(c)))) if c.size else 0.0


def influence_matrix(c: np.ndarray) -> tuple[np.ndarray, bool]:
    """(D, valid) with D = (I - C)^-1 from one direct solve.

    For entrywise nonnegative C, rho(C) < 1 holds exactly when I - C is
    nonsingular and its inverse is nonnegative (the M-matrix
    characterisation), so validity is read off the solve: it must succeed,
    D must be >= -NEG_TOL entrywise, and v = D 1 must satisfy C v < v
    entrywise. The last test is the Collatz-Wielandt certificate for
    rho(C) < 1 (in exact arithmetic C v = v - 1); it guards the sign test
    against rounding when rho(C) is close to 1.
    """
    n = c.shape[0]
    try:
        d = np.linalg.solve(np.eye(n) - c, np.eye(n))
    except np.linalg.LinAlgError:
        return np.full((n, n), np.nan), False
    v = d.sum(axis=1)
    valid = float(d.min()) >= -NEG_TOL and bool(np.all(c @ v < v))
    return d, valid


def _perturbation_entry(
    h_tilde: float, h: float, alpha_js: tuple[float, ...], t: float
) -> float:
    """max over alpha-side sums s of |sigma(2h~ + s) - sigma(2h + s +- t)|,
    read at the sums nearest each term's peak -(2h~ + 2h +- t)/2, where
    sigma(x + d) - sigma(x) is extreme (x = -d/2)."""
    a, c = 2.0 * h_tilde, 2.0 * h
    best = 0.0
    for s in _nearest_sums(alpha_js, (-(a + c + t) / 2.0, -(a + c - t) / 2.0)):
        p_mu = _sigmoid(a + s)
        best = max(best, abs(p_mu - _sigmoid(c + s + t)), abs(p_mu - _sigmoid(c + s - t)))
    return best


def perturbation_vector(
    model: IsingModel,
    localized: LocalizedModel,
    region: Region,
    cap: int = ENUMERATION_CAP,
    *,
    memo: dict | None = None,
) -> np.ndarray:
    """Worst-case conditional gaps b, aligned with the alpha order.

    Interior alpha nodes see identical conditionals in both models, so their
    entries are exactly zero. For a boundary node j the localized conditional
    uses the compensated field and alpha neighbours only, while the full
    model's also sums the outside neighbours; the sup over outside assignments
    is attained at the extreme cross sums, so only alpha-side assignments are
    enumerated.

    b_j is a pure function of the compensated field, the global field, the
    in-alpha couplings in global adjacency order and the cross sum t, so it
    is looked up in memo under exactly those floats and computed only on a
    miss. The cap check runs before the lookup.
    """
    memo = {} if memo is None else memo
    alpha = region.alpha
    index = {g: i for i, g in enumerate(alpha)}
    b = np.zeros(len(alpha))
    sub = localized.submodel
    for j in region.boundary_alpha:
        li = index[j]
        if model.degree(j) > cap:
            raise EnumerationCapError(
                f"node {j} has degree {model.degree(j)}, enumeration cap is {cap}"
            )
        alpha_js = tuple(
            2.0 * sub.coupling(li, index[k]) for k in model.adjacency[j] if k in index
        )
        t = 2.0 * sum(abs(model.coupling(j, k)) for k in model.adjacency[j] if k not in index)
        h_tilde, h = float(sub.h[li]), float(model.h[j])
        key = ("b", h_tilde, h, alpha_js, t)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = _perturbation_entry(h_tilde, h, alpha_js, t)
        b[li] = entry
    return b


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
    cap: int

    def to_json(self) -> str:
        payload = {
            "alpha": list(self.localized.alpha),
            "bound": self.bound if self.valid else None,
            "valid": self.valid,
            "b": [float(x) for x in self.b],
            "c_local": self.c_local,
        }
        return json.dumps(payload, sort_keys=True)


def local_certificate(
    model: IsingModel,
    region: Region,
    localized: LocalizedModel,
    cap: int = ENUMERATION_CAP,
    *,
    memo: dict | None = None,
) -> DobrushinCertificate:
    """Certificate for the query marginal of a localized model.

    C is computed on the localized submodel (compensated fields, alpha-internal
    edges only); b compares the two conditionals at the alpha boundary; the
    bound is row `query` of D against b. A solve that fails influence_matrix's
    validity test yields valid=False and bound=+inf. memo holds the rows of C
    and the entries of b computed so far, such as for one expansion's earlier
    candidates, each keyed on every input it reads; it saves work and never
    changes a bit of the result.
    """
    sub = localized.submodel
    c = interaction_matrix(sub, cap=cap, memo=memo)
    d, valid = influence_matrix(c)
    b = perturbation_vector(model, localized, region, cap=cap, memo=memo)
    c_local = float(np.max(c.sum(axis=1))) if c.size else 0.0
    qi = region.alpha.index(region.query)
    bound = float(d[qi] @ b) if valid else math.inf
    return DobrushinCertificate(
        C=c,
        b=b,
        bound=bound,
        valid=valid,
        c_local=c_local,
        localized=localized,
        cap=cap,
    )


def _decay_rate(c: float, t: float) -> float:
    """Per-hop log decay ln((1 + (t-1)c) / (tc)); positive for 0 < c < 1."""
    return math.log((1.0 + (t - 1.0) * c) / (t * c))


def _radius_objective(c: float, eps: float, t: float) -> float:
    denom = 2.0 * eps * (t - 1.0) * (1.0 - c)
    if 1e-300 < denom < math.inf:  # t <= _T_HIGH, so t / denom stays finite
        return math.log(t / denom) / _decay_rate(c, t)
    # the product under- or overflowed: add its logs instead
    log_denom = math.log(2.0) + math.log(eps) + math.log(t - 1.0) + math.log(1.0 - c)
    return (math.log(t) - log_denom) / _decay_rate(c, t)


def _bound_objective(c: float, d: float, t: float) -> float:
    # worst-entry factor 1/2 times the geometric tail e^(-d rate) * t/((t-1)(1-c))
    log_val = math.log(0.5 * t / ((t - 1.0) * (1.0 - c))) - d * _decay_rate(c, t)
    return math.exp(log_val)


def _golden_min(fun, lo: float, hi: float, iters: int = 120) -> float:
    """Golden-section minimiser on [lo, hi]; returns the argmin."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = fun(x2)
    return (a + b) / 2.0


def _candidate_ts(fun) -> list[float]:
    """Shared t-search: golden section in log(t-1) plus a fixed grid and t=2."""
    lo, hi = math.log(_T_LOW), math.log(_T_HIGH - 1.0)
    u_star = _golden_min(lambda u: fun(1.0 + math.exp(u)), lo, hi)
    grid = np.exp(np.linspace(lo, hi, 65))
    # Python floats, so an overflow in _decay_rate gives inf without numpy's warning
    return [1.0 + math.exp(u_star), 2.0] + [1.0 + float(g) for g in grid]


def _check_c(c: float) -> None:
    if not c < 1.0:  # also catches NaN
        raise DobrushinConditionError(f"contraction coefficient c={c} is not < 1")
    if c <= 0.0:
        raise DobrushinConditionError(f"contraction coefficient c={c} is not > 0")


def decay_radius(c: float, eps: float, return_t: bool = False):
    """Smallest certified hop distance: matching a model on a radius-r ball
    around the query keeps the query marginal within eps.

    Minimises the un-ceiled distance expression over t by golden section, then
    takes the best integer over the candidate set; the t=2 closed form
    ceil(-ln(eps (1-c)) / ln((1+c)/(2c))) is always a candidate, so the result
    never exceeds it. Clamped at zero. With return_t, also reports the t that
    attained the minimum.
    """
    _check_c(c)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    best, best_t = math.inf, 2.0
    for t in _candidate_ts(lambda t: _radius_objective(c, eps, t)):
        r = max(0, math.ceil(_radius_objective(c, eps, t)))
        if r < best:
            best, best_t = r, t
    return (int(best), best_t) if return_t else int(best)


def decay_bound(c: float, d: float) -> float:
    """Certified marginal gap at hop distance d >= 0 under coefficient c.

    Inverse-consistent with decay_radius: decay_bound(c, decay_radius(c, eps))
    is at most eps.
    """
    _check_c(c)
    if not d >= 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    best = math.inf
    for t in _candidate_ts(lambda t: _bound_objective(c, d, t)):
        best = min(best, _bound_objective(c, d, t))
    return best
