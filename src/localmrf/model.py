"""Ising models on sparse graphs, regions around a query node, and localisation.

A model is a pairwise binary MRF over spins x_i in {-1, +1}:

    p(x) proportional to exp( sum_{(i,j) in E} J_ij x_i x_j + sum_i h_i x_i )

`Region` splits the nodes into a small set alpha around a query node and the
rest (beta); `Region.grow` adds one node, and `make_region` is that growth from
the empty region. `localize` replaces the global model with a model on alpha
only, either by deleting the alpha-beta edges outright (DROP_OUT) or by
additionally folding a mean-field estimate of the boundary spins into the
fields of alpha's boundary nodes (MEAN_FIELD). It computes the fields; the
alpha-only `IsingModel` is built when it is first read.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from numbers import Integral, Real
from typing import Iterable, Mapping, Sequence

import numpy as np


class LocalMRFError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(LocalMRFError, ValueError):
    """Invalid model construction input."""


class RegionError(LocalMRFError, ValueError):
    """Invalid region arguments (bad alpha set or query node)."""


class MeanFieldDivergence(LocalMRFError, RuntimeError):
    """Mean-field solve did not reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class BoundaryMethod(Enum):
    """How alpha-beta cross edges are handled when localising."""

    DROP_OUT = "dropout"
    MEAN_FIELD = "meanfield"


def _canonical_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Immutable pairwise model. Do not mutate `J`, `h` or `adjacency`.

    Attributes:
        n: number of nodes, ids 0..n-1.
        adjacency: per-node tuple of neighbour ids, ascending.
        J: coupling per undirected edge, keyed by (min(u,v), max(u,v)).
        h: per-node field, float64 array of shape (n,).
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    J: Mapping[tuple[int, int], float]
    h: np.ndarray

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def coupling(self, u: int, v: int) -> float:
        return self.J.get(_canonical_edge(u, v), 0.0)

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Edges in construction order, canonical (u < v) endpoints."""
        for (u, v), j in self.J.items():
            yield u, v, j

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [[u, v, j] for u, v, j in self.edges()],
            "h": [float(x) for x in self.h],
        }

    @staticmethod
    def from_dict(payload: Mapping) -> "IsingModel":
        try:
            n, raw_edges, raw_h = payload["n"], payload["edges"], payload["h"]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"model payload missing field: {exc}") from exc
        try:
            n = _payload_number(n, Integral)
            h = [_payload_number(x, Real) for x in raw_h]
            edges = [
                (_payload_number(u, Integral), _payload_number(v, Integral), _payload_number(j, Real))
                for u, v, j in raw_edges
            ]
        except (TypeError, ValueError) as exc:
            raise ModelError(f"malformed model payload: {exc}") from exc
        if len(h) != n:
            raise ModelError(f"field vector has {len(h)} entries for n={n}")
        return build_model(edges, h)


def _payload_number(value, kind: type) -> int | float:
    """value as an int (kind Integral) or a float (kind Real), else TypeError.

    Bools and values of another type are refused rather than converted, so a
    node id 0.5 is not truncated to 0, a string is not read as a sequence of
    digits, and true is not taken for 1.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{value!r} is not {'an integer' if kind is Integral else 'a number'}")
    return int(value) if kind is Integral else float(value)


def build_model(edges: Iterable[tuple[int, int, float]], fields: Sequence[float]) -> IsingModel:
    """Validate and build an immutable model.

    Args:
        edges: iterable of (u, v, J) with u != v; one entry per undirected edge.
        fields: per-node field h, its length fixes n.

    Raises:
        ModelError: self loop, duplicate edge, out-of-range id, non-finite
            value, or a node whose sum of |J| is not finite, naming the
            offending entry or the lowest such node.
    """
    h = np.asarray(list(fields), dtype=np.float64)
    n = h.shape[0]
    if not np.all(np.isfinite(h)):
        bad = int(np.flatnonzero(~np.isfinite(h))[0])
        raise ModelError(f"non-finite field h[{bad}]={h[bad]}")
    coupling: dict[tuple[int, int], float] = {}
    nbrs: list[list[int]] = [[] for _ in range(n)]
    mass = [0.0] * n  # per node: sum of |J|
    for entry in edges:
        u, v, j = entry
        if not (0 <= u < n and 0 <= v < n):
            raise ModelError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ModelError(f"self loop on node {u}")
        if not math.isfinite(j):
            raise ModelError(f"non-finite coupling on edge ({u}, {v}): {j}")
        key = _canonical_edge(u, v)
        if key in coupling:
            raise ModelError(f"duplicate edge ({u}, {v})")
        coupling[key] = j = float(j)
        nbrs[u].append(v)
        nbrs[v].append(u)
        mass[u] += abs(j)
        mass[v] += abs(j)
    if math.inf in mass:
        raise ModelError(f"sum of |J| at node {mass.index(math.inf)} is not finite")
    adjacency = tuple(tuple(sorted(lst)) for lst in nbrs)
    return IsingModel(n=n, adjacency=adjacency, J=coupling, h=h)


def save_model(model: IsingModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_json(model))


def model_json(model: IsingModel) -> str:
    """Canonical JSON for a model (stable bytes for a given model)."""
    return json.dumps(model.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def load_model(path) -> IsingModel:
    with open(path, "r", encoding="utf-8") as fh:
        return IsingModel.from_dict(json.load(fh))


def read_edge_list(path) -> list[tuple[int, int, float | None]]:
    """Read tab-separated `u<TAB>v[<TAB>J]` lines; J is optional per line."""
    out: list[tuple[int, int, float | None]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise ModelError(f"{path}:{line_no}: expected 2 or 3 tab-separated fields")
            try:
                u, v = int(parts[0]), int(parts[1])
                j = float(parts[2]) if len(parts) == 3 else None
            except ValueError as exc:
                raise ModelError(f"{path}:{line_no}: {exc}") from None
            out.append((u, v, j))
    return out


def read_labels(path) -> dict[int, str]:
    """Read tab-separated `node<TAB>label` lines."""
    out: dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ModelError(f"{path}:{line_no}: expected 2 tab-separated fields")
            try:
                node = int(parts[0])
            except ValueError as exc:
                raise ModelError(f"{path}:{line_no}: {exc}") from None
            out[node] = parts[1]
    return out


def _bfs_distances(model: IsingModel, source: int) -> np.ndarray:
    dist = np.full(model.n, np.inf)
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in model.adjacency[u]:
            if not np.isfinite(dist[v]):
                dist[v] = du + 1.0
                queue.append(v)
    return dist


def graph_distance(model: IsingModel, source: int, targets: Iterable[int] | None = None) -> dict[int, float]:
    """Hop distance from source to each target (math.inf when unreachable).

    With targets=None, returns distances to every node.
    """
    if not (0 <= source < model.n):
        raise ModelError(f"source {source} out of range")
    dist = _bfs_distances(model, source)
    if targets is None:
        return {i: float(dist[i]) for i in range(model.n)}
    return {int(t): float(dist[int(t)]) for t in targets}


def connected_component(model: IsingModel, node: int) -> tuple[int, ...]:
    """Sorted node ids of the component containing node."""
    dist = _bfs_distances(model, node)
    return tuple(int(i) for i in np.flatnonzero(np.isfinite(dist)))


def connected_components(model: IsingModel) -> list[tuple[int, ...]]:
    """All components as sorted tuples, ordered by their smallest node id."""
    seen = np.zeros(model.n, dtype=bool)
    comps: list[tuple[int, ...]] = []
    for start in range(model.n):
        if seen[start]:
            continue
        comp = connected_component(model, start)
        for i in comp:
            seen[i] = True
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class Region:
    """A query-centred node split.

    alpha is an ordered node tuple containing the query. boundary_alpha are the
    alpha nodes with at least one neighbour outside alpha; boundary_beta are the
    outside nodes adjacent to alpha; cross_edges are the (alpha-node, outside-node,
    J) edges in deterministic order (alpha order, then ascending neighbour id).
    """

    query: int
    alpha: tuple[int, ...]
    boundary_alpha: tuple[int, ...]
    boundary_beta: tuple[int, ...]
    cross_edges: tuple[tuple[int, int, float], ...]

    def grow(self, model: IsingModel, k: int) -> "Region":
        """The region of alpha + (k,), k not in alpha.

        The cross edges that end at k go inside, k's edges to nodes outside the
        new alpha are appended in ascending neighbour id, and both boundaries
        are the sorted endpoint sets of the cross edges, so the result equals a
        region built from alpha + (k,) at once. k is not validated.
        """
        alpha = self.alpha + (k,)
        inside = set(alpha)
        cross = [e for e in self.cross_edges if e[1] != k]
        cross += [(k, v, model.coupling(k, v)) for v in model.adjacency[k] if v not in inside]
        return Region(
            query=self.query,
            alpha=alpha,
            boundary_alpha=tuple(sorted({j for j, _, _ in cross})),
            boundary_beta=tuple(sorted({v for _, v, _ in cross})),
            cross_edges=tuple(cross),
        )


def make_region(model: IsingModel, alpha: Sequence[int], query: int) -> Region:
    """Validate alpha and the query, then grow the empty region node by node."""
    alpha_t = tuple(int(a) for a in alpha)
    alpha_set = set(alpha_t)
    if len(alpha_set) != len(alpha_t):
        raise RegionError("alpha contains duplicate nodes")
    if query not in alpha_set:
        raise RegionError(f"query {query} not in alpha")
    for a in alpha_t:
        if not (0 <= a < model.n):
            raise RegionError(f"alpha node {a} out of range")
    region = Region(
        query=int(query), alpha=(), boundary_alpha=(), boundary_beta=(), cross_edges=()
    )
    for a in alpha_t:
        region = region.grow(model, a)
    return region


@dataclass(frozen=True, eq=False)
class LocalizedModel:
    """A model on alpha only, indices following the alpha order.

    Node i is global node alpha[i] and h[i] its (possibly compensated) field;
    cross edges are gone. The alpha-only IsingModel, submodel, is built from
    the global `model` the first time something reads it, so a localization
    that is only certified, never solved, builds none. Do not mutate h.
    """

    alpha: tuple[int, ...]
    h: np.ndarray
    model: IsingModel

    @cached_property
    def submodel(self) -> IsingModel:
        """alpha-internal edges in alpha order, then ascending neighbour id."""
        index = {g: i for i, g in enumerate(self.alpha)}
        adjacency, coupling = self.model.adjacency, self.model.coupling
        edges = [
            (index[gi], index[gj], coupling(gi, gj))
            for gi in self.alpha
            for gj in adjacency[gi]
            if gj in index and gi < gj
        ]
        return build_model(edges, self.h)

    def index_of(self, node: int) -> int:
        return self.alpha.index(node)


def localize(
    model: IsingModel,
    region: Region,
    method: BoundaryMethod = BoundaryMethod.DROP_OUT,
) -> LocalizedModel:
    """Localize a region: alpha and its fields (the submodel is built lazily).

    DROP_OUT deletes cross edges and keeps fields. MEAN_FIELD additionally adds
    sum_k J_jk m_k to each boundary node j, with m the boundary mean-field
    estimate of the adjacent outside spins.

    Raises:
        MeanFieldDivergence: the boundary solve missed its tolerance.
        ModelError: a compensated field is not finite.
    """
    h_tilde = model.h[list(region.alpha)]
    if method is BoundaryMethod.MEAN_FIELD:
        from .meanfield import boundary_mean_field

        means, state = boundary_mean_field(model, region)
        if not state.converged:
            raise MeanFieldDivergence(
                f"boundary mean field stalled at residual {state.residual:.3e}",
                residual=state.residual,
            )
        index = {g: i for i, g in enumerate(region.alpha)}
        for j, k, jv in region.cross_edges:
            h_tilde[index[j]] += jv * means[k]
        if not np.all(np.isfinite(h_tilde)):
            bad = int(np.flatnonzero(~np.isfinite(h_tilde))[0])
            raise ModelError(f"non-finite field h[{bad}]={h_tilde[bad]}")
    return LocalizedModel(alpha=region.alpha, h=h_tilde, model=model)
