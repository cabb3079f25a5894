"""Ising models on sparse graphs, regions around a query node, and localisation.

A model is a pairwise binary MRF over spins x_i in {-1, +1}:

    p(x) proportional to exp( sum_{(i,j) in E} J_ij x_i x_j + sum_i h_i x_i )

A `Frontier` holds one growing set alpha around a query node and splits each
nearby node's couplings into inside and outside alpha, once, updating the
split as nodes are accepted; a `Candidate` reads alpha + (k,) off it without
accepting k. `Region` is the value of a split (boundaries and cross edges),
and `make_region` grows a frontier to build one. `localize` replaces the
global model with a model on alpha only, either by deleting the alpha-beta
edges outright (DROP_OUT) or by additionally folding a mean-field estimate of
the boundary spins into the fields of alpha's boundary nodes (MEAN_FIELD). It
computes the fields; the alpha-only `IsingModel` is built when first read.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from numbers import Integral, Real
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def _bfs_distances(model: IsingModel, source: int) -> dict[int, int]:
    """{node: hops from source} for every node reachable from source."""
    dist = {source: 0}
    queue = deque([source])
    adjacency = model.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = du
                queue.append(v)
    return dist


def graph_distance(model: IsingModel, source: int, targets: Iterable[int] | None = None) -> dict[int, float]:
    """Hop distance from source to each target (math.inf when unreachable).

    With targets=None, returns distances to every node.

    Raises:
        ModelError: the source or a target is not a node id.
    """
    if not (0 <= source < model.n):
        raise ModelError(f"source {source} out of range")
    dist = _bfs_distances(model, source)
    out: dict[int, float] = {}
    for t in range(model.n) if targets is None else targets:
        t = int(t)
        if not (0 <= t < model.n):
            raise ModelError(f"target {t} out of range")
        out[t] = float(dist.get(t, math.inf))
    return out


def connected_component(model: IsingModel, node: int) -> tuple[int, ...]:
    """Sorted node ids of the component containing node."""
    return tuple(sorted(int(i) for i in _bfs_distances(model, node)))


def connected_components(model: IsingModel) -> list[tuple[int, ...]]:
    """All components as sorted tuples, ordered by their smallest node id."""
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in range(model.n):
        if start in seen:
            continue
        comp = connected_component(model, start)
        seen.update(comp)
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class Region:
    """A query-centred node split, as a value; `Frontier.region` builds it.

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


def make_region(model: IsingModel, alpha: Sequence[int], query: int) -> Region:
    """Validate alpha and the query, then grow a Frontier node by node."""
    alpha_t = tuple(int(a) for a in alpha)
    alpha_set = set(alpha_t)
    if len(alpha_set) != len(alpha_t):
        raise RegionError("alpha contains duplicate nodes")
    if query not in alpha_set:
        raise RegionError(f"query {query} not in alpha")
    for a in alpha_t:
        if not (0 <= a < model.n):
            raise RegionError(f"alpha node {a} out of range")
    frontier = Frontier(model, int(query))
    for a in alpha_t:
        frontier.accept(a)
    return frontier.region()


class Frontier:
    """One growing alpha, and the split of its nodes' couplings into inside
    and outside alpha: the one place that split is worked out.

    A node's split by alpha, or by alpha + (k,), is (h, cols, js, inside,
    outside, t): its field; the local indices of its neighbours inside,
    ascending with k's as -1 last, and js their couplings in that order; its
    couplings inside and its (neighbour, J) pairs outside, each in adjacency
    order; and t = 2 sum |J| over outside. split(g) keeps g's split by alpha,
    grown(k) the splits by alpha + (k,) of k and of k's alpha neighbours, the
    only ones k changes, and layers(k) patches the solve rows around k.
    accept(k) drops the splits of k's neighbours and rebuilds the rows next
    to the nodes k moves into or out of the layers. J is read once per node."""

    def __init__(self, model: IsingModel, query: int):
        self.model, self.query = model, query
        self.alpha: tuple[int, ...] = ()
        self.index: dict[int, int] = {}  # alpha node -> local index
        self.beta: set[int] = set()  # the outside nodes adjacent to alpha
        self._nodes: dict[int, tuple[float, tuple[tuple[int, float], ...]]] = {}
        self._splits: dict[int, tuple] = {}  # by alpha
        self._grown: dict[int, tuple[tuple, dict[int, tuple]]] = {}  # per candidate
        self._layer: set[int] | None = None  # alpha's two layers, once a solve asks
        self._rows: dict[int, tuple] = {}  # node of _layer -> its solve row
        self._slots: dict[int, int] = {}  # node -> its place in a solve's means

    def node(self, g: int) -> tuple[float, tuple[tuple[int, float], ...]]:
        """(h_g, the (neighbour, coupling) pairs of g in adjacency order)."""
        node = self._nodes.get(g)
        if node is None:
            J, adjacency = self.model.J, self.model.adjacency
            pairs = tuple((x, J[(g, x) if g < x else (x, g)]) for x in adjacency[g])
            node = self._nodes[g] = (float(self.model.h[g]), pairs)
        return node

    def split_with(self, g: int, k: int | None = None) -> tuple:
        """g's split by alpha + (k,), or by alpha when k is None, not kept."""
        index = self.index
        h, pairs = self.node(g)
        row, inside, outside, outside_js = [], [], [], []
        last = None
        for pair in pairs:
            x, j = pair
            col = index.get(x)
            if col is not None:
                row.append((col, j))
                inside.append(j)
            elif x == k:
                last = j
                inside.append(j)
            else:
                outside.append(pair)
                outside_js.append(j)
        row.sort()
        cols = [col for col, _ in row]
        js = [j for _, j in row]
        if last is not None:
            cols.append(-1)
            js.append(last)
        return h, cols, tuple(js), inside, outside, 2.0 * sum(map(abs, outside_js))

    def split(self, g: int) -> tuple:
        """g's split by alpha."""
        split = self._splits.get(g)
        if split is None:
            split = self._splits[g] = self.split_with(g)
        return split

    def grown(self, k: int) -> tuple[tuple, dict[int, tuple]]:
        """(k's split, {g: g's split by alpha + (k,)} over k's alpha
        neighbours g), for k outside alpha."""
        grown = self._grown.get(k)
        if grown is None:
            own, alpha = self._splits.get(k) or self.split(k), self.alpha
            grown = self._grown[k] = own, {alpha[i]: self.split_with(alpha[i], k) for i in own[1]}
        return grown

    def local_splits(self, k: int) -> list[tuple]:
        """The splits by alpha + (k,) of its nodes, in local order."""
        own, near = self.grown(k)
        return [near.get(g) or self.split(g) for g in self.alpha] + [own]

    def region(self, k: int | None = None) -> Region:
        """The Region of alpha + (k,), or of alpha when k is None."""
        alpha = self.alpha if k is None else self.alpha + (k,)
        splits = map(self.split, alpha) if k is None else self.local_splits(k)
        cross = tuple((g, x, j) for g, split in zip(alpha, splits) for x, j in split[4])
        return Region(
            query=self.query,
            alpha=alpha,
            boundary_alpha=tuple(sorted({g for g, _, _ in cross})),
            boundary_beta=tuple(sorted({x for _, x, _ in cross})),
            cross_edges=cross,
        )

    def _flips(self, k: int) -> list[int]:
        """The nodes that enter or leave the two boundary layers with k."""
        layer, (own, near) = self._layer, self.grown(k)
        flips = [g for g, split in near.items() if not split[4]]
        if bool(own[4]) != (k in layer):
            flips.append(k)
        return flips + [x for x, _ in own[4] if x not in layer]

    def _row(self, u: int, layer: set[int]) -> tuple:
        slots = self._slots
        h, pairs = self.node(u)
        nbrs = [(slots.setdefault(x, len(slots)), j) for x, j in pairs if x in layer]
        return slots.setdefault(u, len(slots)), nbrs, h, math.fsum([abs(j) for _, j in nbrs])

    def _touched(self, nodes: list[int]) -> set[int]:
        return set(nodes).union(*[[x for x, _ in self.node(u)[1]] for u in nodes])

    def layers(self, k: int) -> tuple[list[int], list[tuple], int]:
        """(nodes, rows, size) of the two boundary layers of alpha + (k,),
        for its mean-field solve: nodes ascend, and rows[i] is nodes[i]'s
        (slot, [(slot, J) of its layer neighbours, ascending], h, fsum of
        their |J|), every slot below size. Only rows next to a node that k
        moves in or out of alpha's layers are built for k."""
        if self._layer is None:
            self._layer = {g for g in self.alpha if self.split(g)[4]} | self.beta
            self._rows = {u: self._row(u, self._layer) for u in self._layer}
        flips = self._flips(k)
        new, rows = self._layer.symmetric_difference(flips), self._rows
        if flips:
            rows = {**rows, **{u: self._row(u, new) for u in self._touched(flips) if u in new}}
        nodes = sorted(new)
        return nodes, [rows[u] for u in nodes], len(self._slots)

    def accept(self, k: int) -> None:
        """Add k, not in alpha, to alpha."""
        if self._layer is not None:
            layer, flips = self._layer, self._flips(k)
            layer.symmetric_difference_update(flips)
            for u in self._touched(flips):
                if u in layer:
                    self._rows[u] = self._row(u, layer)
                else:
                    self._rows.pop(u, None)
        self.index[k] = len(self.alpha)
        self.alpha += (k,)
        self.beta.discard(k)
        for x, _ in self.node(k)[1]:
            self._splits.pop(x, None)  # split again when next asked
            if x not in self.index:
                self.beta.add(x)
        self._grown.clear()


class Candidate(NamedTuple):
    """alpha + (k,) of a frontier, read off its state; valid until the
    frontier accepts a node. It reads as a Region: query and alpha directly,
    the three boundary fields through frontier.region(k)."""

    frontier: Frontier
    k: int

    @property
    def query(self) -> int:
        return self.frontier.query

    @property
    def alpha(self) -> tuple[int, ...]:
        return self.frontier.alpha + (self.k,)

    def __getattr__(self, name: str):
        if name not in ("boundary_alpha", "boundary_beta", "cross_edges"):
            raise AttributeError(name)
        return getattr(self.frontier.region(self.k), name)

    @staticmethod
    def of(model: IsingModel, region: Region | Candidate) -> Candidate:
        """region itself, or a Region's last node on a frontier of the rest."""
        if isinstance(region, Candidate):
            return region
        frontier = Frontier(model, region.query)
        for g in region.alpha[:-1]:
            frontier.accept(g)
        return Candidate(frontier, region.alpha[-1])


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
        """alpha-internal edges in alpha order, then ascending neighbour id.

        Read straight off the global adjacency and J, which build_model
        validated when the global model was built, and h, whose finiteness
        localize checked, so nothing is validated again: it is the model
        build_model would give for those edges and h.
        """
        index = {g: i for i, g in enumerate(self.alpha)}
        adjacency, couplings = self.model.adjacency, self.model.J
        coupling: dict[tuple[int, int], float] = {}
        nbrs: list[list[int]] = [[] for _ in self.alpha]
        for i, gi in enumerate(self.alpha):
            for gj in adjacency[gi]:
                j = index.get(gj)
                if j is not None and gi < gj:
                    coupling[(i, j) if i < j else (j, i)] = couplings[(gi, gj)]
                    nbrs[i].append(j)
                    nbrs[j].append(i)
        return IsingModel(
            n=len(self.alpha),
            adjacency=tuple(tuple(sorted(lst)) for lst in nbrs),
            J=coupling,
            h=np.array(self.h, dtype=np.float64),
        )

    def index_of(self, node: int) -> int:
        return self.alpha.index(node)


def localize(
    model: IsingModel, region: Region | Candidate, method: BoundaryMethod = BoundaryMethod.DROP_OUT
) -> LocalizedModel:
    """Localize a region: alpha and its fields (the submodel is built lazily).

    DROP_OUT deletes cross edges and keeps fields. MEAN_FIELD additionally adds
    sum_k J_jk m_k to each boundary node j, over j's outside neighbours k in
    adjacency order (its split), with m the boundary mean-field estimate of
    the adjacent outside spins; a Region is read through Candidate.of.

    Raises:
        MeanFieldDivergence: the boundary solve missed its tolerance.
        ModelError: a compensated field is not finite.
    """
    alpha = region.alpha
    if method is not BoundaryMethod.MEAN_FIELD:
        return LocalizedModel(alpha=alpha, h=model.h[list(alpha)], model=model)
    from .meanfield import boundary_mean_field

    candidate = Candidate.of(model, region)
    means, state = boundary_mean_field(model, candidate)
    if not state.converged:
        raise MeanFieldDivergence(
            f"boundary mean field stalled at residual {state.residual:.3e}",
            residual=state.residual,
        )
    fields = []  # Python floats: an overflow is inf, named below
    for h, _, _, _, outside, _ in candidate.frontier.local_splits(candidate.k):
        for x, j in outside:
            h += j * means[x]
        fields.append(h)
    h_tilde = np.array(fields)
    if not np.all(np.isfinite(h_tilde)):
        bad = int(np.flatnonzero(~np.isfinite(h_tilde))[0])
        raise ModelError(f"non-finite field h[{bad}]={h_tilde[bad]}")
    return LocalizedModel(alpha=alpha, h=h_tilde, model=model)
