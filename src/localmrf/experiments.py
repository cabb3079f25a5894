"""Seeded experiment harness.

Generators (4-neighbour grids, preferential-attachment citation graphs), the
coefficient heatmap, the expansion-strategy comparison, the field-strength
sweep, and the citation-graph local-vs-global pipeline. Every run is driven by
a counter-based RNG with one named substream per trial, so outputs are
byte-identical regardless of scheduling; CSVs carry a header row and 12
significant digits, and each output directory gets a manifest JSON.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .dobrushin import ENUMERATION_CAP, dobrushin_coefficient, local_certificate
from .exact import eliminate_marginal
from .meanfield import mean_field
from .model import (
    BoundaryMethod,
    IsingModel,
    build_model,
    localize,
    make_region,
    read_edge_list,
    read_labels,
)
from .expansion import (
    ExpansionTrace,
    greedy_expand,
    maxnorm_expand,
    query_marginal,
    random_expand,
)

def substream(seed: int, *path: int) -> np.random.SeedSequence:
    """Named child stream: same (seed, path) always yields the same stream."""
    return np.random.SeedSequence(seed, spawn_key=tuple(path))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class GridSpec:
    """4-neighbour lattice with U[-I1,I1] fields and U[-I2,I2] couplings."""

    rows: int
    cols: int
    I1: float = 1.0
    I2: float = 0.25
    seed: object = 0  # int, or a SeedSequence for internal substreams

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if self.I1 < 0 or self.I2 < 0:
            raise ValueError("I1 and I2 must be non-negative")

    @property
    def n(self) -> int:
        return self.rows * self.cols

    @property
    def query(self) -> int:
        """Row-major id of the centre cell (ceil(rows/2), ceil(cols/2))."""
        r = min(math.ceil(self.rows / 2), self.rows - 1)
        c = min(math.ceil(self.cols / 2), self.cols - 1)
        return r * self.cols + c


def grid_node_id(r: int, c: int, cols: int) -> int:
    return r * cols + c


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Lattice edges in canonical order: per node row-major, right before down."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = grid_node_id(r, c, cols)
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return edges


def gen_grid(spec: GridSpec) -> IsingModel:
    """Fields drawn in row-major node order, then couplings in canonical edge
    order, all from one stream; identical seeds with different (I1, I2) share
    the underlying uniforms, so parameters scale linearly across settings."""
    rng = _rng(spec.seed)
    h = rng.uniform(-spec.I1, spec.I1, size=spec.n)
    pairs = grid_edges(spec.rows, spec.cols)
    J = rng.uniform(-spec.I2, spec.I2, size=len(pairs))
    return build_model([(u, v, float(j)) for (u, v), j in zip(pairs, J)], h)


def gen_citation_graph(
    n: int, attach: int = 2, seed=0, homophily: float = 0.0
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Preferential-attachment graph plus planted +-1 labels.

    Starts from a clique on attach+1 nodes; each new node links to `attach`
    distinct earlier nodes sampled proportionally to degree. Produces the
    heavy-tailed degrees a citation network shows, so degree capping has
    something to do. Labels are iid by default; with homophily > 0 each
    arriving node instead copies the label of its lowest-id link target with
    that probability, giving the same-topic clustering real citation data has.
    Edges and the iid label layer do not depend on the homophily value.
    """
    if attach < 1 or n < attach + 1:
        raise ValueError("need n >= attach + 1 >= 2")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must be in [0, 1]")
    rng = _rng(seed)
    edges: list[tuple[int, int]] = []
    endpoints: list[int] = []  # one entry per edge endpoint: degree-weighted urn
    first_target = {}
    for u in range(attach + 1):
        for v in range(u + 1, attach + 1):
            edges.append((u, v))
            endpoints += [u, v]
    for u in range(attach + 1, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(endpoints[int(rng.integers(len(endpoints)))])
        first_target[u] = min(targets)
        for v in sorted(targets):
            edges.append((v, u))
            endpoints += [u, v]
    labels = np.where(rng.random(n) < 0.5, -1, 1).astype(np.int64)
    copy = rng.random(n) < homophily
    for u in range(attach + 1, n):
        if copy[u]:
            labels[u] = labels[first_target[u]]
    return edges, labels


def write_edge_file(path, edges) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for u, v in edges:
            f.write(f"{u}\t{v}\n")


def write_label_file(path, labels) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for node, lab in enumerate(labels):
            f.write(f"{node}\t{lab}\n")


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def write_csv(path, header, rows) -> None:
    """Comma-separated, header row, floats at 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def write_manifest(out_dir, experiment: str, params: dict) -> None:
    """Records what produced the directory: experiment, parameters, version.

    Deliberately no timestamps or hostnames, so reruns are byte-identical.
    """
    from . import __version__

    payload = {"experiment": experiment, "version": __version__, "params": params}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _parallel_map(fn, items, threads: int):
    """Order-preserving map; serial when threads <= 1. Results are identical
    either way because each item carries its own named substream. At most one
    worker per item is started: under fork the pool starts every worker at
    the first submit."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# coefficient heatmap


def _heatmap_trial(args) -> list[list[float]]:
    rows, cols, i1_values, i2_values, seed, trial = args
    stream = substream(seed, trial)
    out = []
    for i1 in i1_values:
        line = []
        for i2 in i2_values:
            model = gen_grid(GridSpec(rows, cols, i1, i2, seed=stream))
            c, _ = dobrushin_coefficient(model)
            line.append(c)
        out.append(line)
    return out


def dobrushin_heatmap(
    i1_values,
    i2_values,
    rows: int = 10,
    cols: int = 10,
    trials: int = 100,
    seed: int = 0,
    out_dir=None,
    threads: int = 1,
):
    """Mean coefficient per (I1, I2) cell over seeded trials.

    Trial t uses the same parameter stream in every cell (common random
    numbers), so the I2 monotonicity of the mean is not blurred by sampling
    noise. Returns (header, rows); rows are [I1, mean c at each I2].
    """
    i1_values = [float(v) for v in i1_values]
    i2_values = [float(v) for v in i2_values]
    if trials < 1:
        raise ValueError("trials must be >= 1")
    args = [(rows, cols, i1_values, i2_values, seed, t) for t in range(trials)]
    acc = np.zeros((len(i1_values), len(i2_values)))
    for cell in _parallel_map(_heatmap_trial, args, threads):
        acc += np.asarray(cell)
    acc /= trials
    header = ["i1"] + [_fmt(v) for v in i2_values]
    table = [[i1] + list(acc[i]) for i, i1 in enumerate(i1_values)]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "heatmap.csv"), header, table)
        write_manifest(
            out_dir,
            "heatmap",
            {
                "rows": rows,
                "cols": cols,
                "i1_values": i1_values,
                "i2_values": i2_values,
                "trials": trials,
                "seed": seed,
            },
        )
    return header, table


# ---------------------------------------------------------------------------
# expansion-strategy comparison


def evaluate_prefixes(
    model: IsingModel,
    trace: ExpansionTrace,
    p_true: float,
    K: int,
) -> tuple[np.ndarray, np.ndarray]:
    """True error and certificate bound of the size-1..K prefixes of a trace.

    The size-s prefix (s >= 2) is read off the step that accepted its last
    node: its bound is step.bounds[step.chosen] and its error is eliminated
    on step.certificate.localized. Only the size-1 prefix is localized and
    certified here, with the trace's boundary method; so is the localization
    of a step whose certificate build raised. Sizes beyond the final region
    repeat its value, so curves over a fixed size axis stay well defined when
    expansion stopped early.
    """
    accepted = [s for s in trace.steps if s.chosen is not None]
    errors = np.empty(K)
    bounds = np.empty(K)
    query = trace.query
    sizes = min(K, len(trace.final_alpha))
    for s in range(1, sizes + 1):
        step = accepted[s - 2] if s >= 2 else None
        if step is None or step.certificate is None:
            region = make_region(model, trace.alpha_prefix(s), query)
            loc = localize(model, region, method=trace.method)
        else:
            loc = step.certificate.localized
        p_loc = eliminate_marginal(loc.submodel, loc.index_of(query))
        errors[s - 1] = abs(p_loc - p_true)
        if step is None:
            bounds[0] = local_certificate(model, region, loc).bound
        else:
            bounds[s - 1] = step.bounds[step.chosen]
    errors[sizes:] = errors[sizes - 1]
    bounds[sizes:] = trace.final_certificate.bound
    return errors, bounds


# How each comparison strategy grows its trace: (model, query, K, stream)
# -> trace, where stream is the trial's named substream for random choices.
_COMPARISON_EXPANDERS = {
    "greedy_drop": lambda model, query, K, stream: greedy_expand(
        model, query, K=K, delta=-math.inf, method=BoundaryMethod.DROP_OUT
    ),
    "greedy_mf": lambda model, query, K, stream: greedy_expand(
        model, query, K=K, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD
    ),
    "random": lambda model, query, K, stream: random_expand(
        model, query, K=K, seed=_rng(stream)
    ),
    "maxnorm": lambda model, query, K, stream: maxnorm_expand(model, query, K=K),
}
COMPARISON_METHODS = tuple(_COMPARISON_EXPANDERS)


def _comparison_trial(args) -> tuple[np.ndarray, np.ndarray]:
    rows, cols, i1, i2, K, methods, seed, trial = args
    model = gen_grid(GridSpec(rows, cols, i1, i2, seed=substream(seed, trial, 0)))
    query = GridSpec(rows, cols, i1, i2).query
    p_true = eliminate_marginal(model, query)
    errors = np.empty((len(methods), K))
    bounds = np.empty((len(methods), K))
    for m, name in enumerate(methods):
        expand = _COMPARISON_EXPANDERS[name]
        trace = expand(model, query, K, substream(seed, trial, 1))
        errors[m], bounds[m] = evaluate_prefixes(model, trace, p_true, K)
    return errors, bounds


def expansion_comparison(
    spec: GridSpec,
    K: int = 16,
    trials: int = 100,
    methods=COMPARISON_METHODS,
    out_dir=None,
    threads: int = 1,
):
    """Mean true error and mean bound per subgraph size for each strategy.

    Greedy strategies are forced to grow to K (no early stop) so every size
    has a real region; the true error compares the localized marginal with the
    full-model elimination oracle. Returns (header, rows) with one row per
    size: [size, err per method..., bound per method...].
    """
    methods = tuple(methods)
    unknown = set(methods) - set(COMPARISON_METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if trials < 1 or K < 1:
        raise ValueError("trials and K must be >= 1")
    args = [
        (spec.rows, spec.cols, spec.I1, spec.I2, K, methods, spec.seed, t)
        for t in range(trials)
    ]
    err_acc = np.zeros((len(methods), K))
    bound_acc = np.zeros((len(methods), K))
    for errors, bounds in _parallel_map(_comparison_trial, args, threads):
        err_acc += errors
        bound_acc += bounds
    err_acc /= trials
    bound_acc /= trials
    header = (
        ["size"]
        + [f"err_{m}" for m in methods]
        + [f"bound_{m}" for m in methods]
    )
    table = [
        [s + 1] + list(err_acc[:, s]) + list(bound_acc[:, s]) for s in range(K)
    ]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "comparison.csv"), header, table)
        write_manifest(
            out_dir,
            "compare-expansion",
            {
                "rows": spec.rows,
                "cols": spec.cols,
                "I1": spec.I1,
                "I2": spec.I2,
                "K": K,
                "trials": trials,
                "methods": list(methods),
                "cap": ENUMERATION_CAP,
                "seed": spec.seed,
            },
        )
    return header, table


# ---------------------------------------------------------------------------
# field-strength sweep


def _sweep_trial(args) -> tuple[float, float]:
    rows, cols, i1, i2, K, delta, seed, trial = args
    model = gen_grid(GridSpec(rows, cols, i1, i2, seed=substream(seed, trial)))
    query = GridSpec(rows, cols, i1, i2).query
    res = query_marginal(model, query, K=K, delta=delta, method=BoundaryMethod.DROP_OUT)
    return abs(res.marginal - eliminate_marginal(model, query)), res.bound


def i1_sweep(
    i1_values,
    rows: int = 10,
    cols: int = 10,
    I2: float = 0.25,
    K: int = 16,
    delta: float = 0.005,
    trials: int = 100,
    seed: int = 0,
    out_dir=None,
    threads: int = 1,
):
    """Mean greedy error and bound as the field strength I1 varies at fixed I2.

    Trial t reuses one parameter stream across all I1 values, so couplings are
    literally identical along a row and only the fields scale.
    """
    i1_values = [float(v) for v in i1_values]
    if trials < 1:
        raise ValueError("trials must be >= 1")
    table = []
    for i1 in i1_values:
        args = [(rows, cols, i1, I2, K, delta, seed, t) for t in range(trials)]
        res = _parallel_map(_sweep_trial, args, threads)
        errs = [e for e, _ in res]
        bnds = [b for _, b in res]
        table.append([i1, float(np.mean(errs)), float(np.mean(bnds))])
    header = ["i1", "mean_error", "mean_bound"]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "i1_sweep.csv"), header, table)
        write_manifest(
            out_dir,
            "i1-sweep",
            {
                "rows": rows,
                "cols": cols,
                "I2": I2,
                "K": K,
                "delta": delta,
                "trials": trials,
                "i1_values": i1_values,
                "cap": ENUMERATION_CAP,
                "seed": seed,
            },
        )
    return header, table


# ---------------------------------------------------------------------------
# citation pipeline


@dataclass(frozen=True)
class CoraSpec:
    """Inputs and potential scheme for the citation-graph pipeline.

    j_spread / the field sd of 1.0 are standard deviations when spread_is_sd
    (the default); set it False to read j_spread as a variance.
    """

    edge_file: str
    label_file: str
    positive_label: str
    degree_cap: int = 15
    I1: float = 1.0
    j_mean: float = 0.25
    j_spread: float = 0.05
    h_scale: float = 0.1
    seed: int = 0
    n_queries: int = 500
    K: int = 16
    delta: float = 0.005
    spread_is_sd: bool = True

    def __post_init__(self):
        if self.degree_cap < 1:
            raise ValueError("degree_cap must be >= 1")
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")


@dataclass
class CitationGraph:
    """Relabelled largest component after degree capping."""

    n: int
    edges: list[tuple[int, int]]
    labels: np.ndarray  # +-1 per node
    raw_ids: list[int]
    n_raw_nodes: int
    n_raw_edges: int


def load_citation_graph(spec: CoraSpec) -> CitationGraph:
    """Parse, binarize labels, cap degrees, keep the largest component.

    Over-cap nodes are processed in ascending id; each deletion removes a
    uniformly chosen incident edge and degrees are re-checked as they change.
    Duplicate and self edges in the raw file are dropped before capping.
    """
    raw_edges = read_edge_list(spec.edge_file)
    raw_labels = read_labels(spec.label_file)
    ids = sorted(raw_labels)
    index = {rid: i for i, rid in enumerate(ids)}
    labels = np.array(
        [1 if raw_labels[rid] == spec.positive_label else -1 for rid in ids],
        dtype=np.int64,
    )
    adj: dict[int, set[int]] = {i: set() for i in range(len(ids))}
    for u, v, _ in raw_edges:
        if u not in index or v not in index:
            missing = u if u not in index else v
            raise ValueError(f"edge endpoint {missing!r} has no label")
        a, b = index[u], index[v]
        if a == b:
            continue
        adj[a].add(b)
        adj[b].add(a)
    n_raw_edges = sum(len(s) for s in adj.values()) // 2
    rng = _rng(substream(spec.seed, 0))
    for u in range(len(ids)):
        while len(adj[u]) > spec.degree_cap:
            nbrs = sorted(adj[u])
            v = nbrs[int(rng.integers(len(nbrs)))]
            adj[u].discard(v)
            adj[v].discard(u)
    comp = _largest_component(adj)
    if not comp:
        raise ValueError("largest component is empty")
    sub_index = {node: i for i, node in enumerate(comp)}
    edges = sorted(
        (sub_index[u], sub_index[v])
        for u in comp
        for v in adj[u]
        if u < v and v in sub_index
    )
    return CitationGraph(
        n=len(comp),
        edges=edges,
        labels=labels[comp],
        raw_ids=[ids[node] for node in comp],
        n_raw_nodes=len(ids),
        n_raw_edges=n_raw_edges,
    )


def _largest_component(adj: dict[int, set[int]]) -> list[int]:
    seen: set[int] = set()
    best: list[int] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        if len(comp) > len(best):
            best = comp
    return sorted(best)


def _citation_model(graph: CitationGraph, spec: CoraSpec, i1: float) -> IsingModel:
    """Couplings and field noise come from streams that do not depend on i1,
    so sweeping i1 rescales the label signal against identical noise."""
    sd = spec.j_spread if spec.spread_is_sd else math.sqrt(spec.j_spread)
    J = _rng(substream(spec.seed, 1)).normal(spec.j_mean, sd, size=len(graph.edges))
    eps = _rng(substream(spec.seed, 2)).normal(0.0, 1.0, size=graph.n)
    h = spec.h_scale * i1 * graph.labels + eps
    edges = [(u, v, float(j)) for (u, v), j in zip(graph.edges, J)]
    return build_model(edges, h)


def _cora_query(args) -> int:
    model, q, K, delta = args
    res = query_marginal(model, q, K=K, delta=delta, method=BoundaryMethod.DROP_OUT)
    return 1 if res.marginal >= 0.5 else -1


def cora_pipeline(
    spec: CoraSpec,
    i1_values=None,
    out_dir=None,
    threads: int = 1,
):
    """Label recovery, locally vs globally, on a citation-style graph.

    Per I1: draw the potential scheme (J ~ N(j_mean, j_spread), h = h_scale *
    I1 * label + unit noise), run full-graph mean field for the global labels,
    answer n_queries node marginals with the local method, and score. Queries,
    couplings, and noise are shared across I1 values. Marginals >= 0.5 read as
    +1. Precision/recall/F1 compare local labels against global ones with +1
    as the positive class.
    """
    graph = load_citation_graph(spec)
    values = [float(v) for v in (i1_values if i1_values is not None else [spec.I1])]
    n_q = min(spec.n_queries, graph.n)
    queries = sorted(
        int(q)
        for q in _rng(substream(spec.seed, 3)).choice(graph.n, size=n_q, replace=False)
    )
    truth = graph.labels[queries]
    table = []
    for i1 in values:
        model = _citation_model(graph, spec, i1)
        state = mean_field(model, seed=int(substream(spec.seed, 4).generate_state(1)[0]))
        global_all = np.where(state.m >= 0.0, 1, -1)
        global_lab = global_all[queries]
        args = [(model, q, spec.K, spec.delta) for q in queries]
        local_lab = np.array(_parallel_map(_cora_query, args, threads))
        acc_gt = float(np.mean(global_lab == truth))
        acc_lt = float(np.mean(local_lab == truth))
        acc_lg = float(np.mean(local_lab == global_lab))
        tp = int(np.sum((local_lab == 1) & (global_lab == 1)))
        fp = int(np.sum((local_lab == 1) & (global_lab == -1)))
        fn = int(np.sum((local_lab == -1) & (global_lab == 1)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        table.append([i1, acc_gt, acc_lt, acc_lg, precision, recall, f1])
    header = [
        "i1",
        "acc_global_vs_true",
        "acc_local_vs_true",
        "acc_local_vs_global",
        "precision",
        "recall",
        "f1",
    ]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "cora_metrics.csv"), header, table)
        write_manifest(
            out_dir,
            "cora",
            {
                **{
                    k: v
                    for k, v in asdict(spec).items()
                    if k not in ("edge_file", "label_file")
                },
                "edge_file": os.path.basename(spec.edge_file),
                "label_file": os.path.basename(spec.label_file),
                "i1_values": values,
                "cap": ENUMERATION_CAP,
                "lcc_nodes": graph.n,
                "lcc_edges": len(graph.edges),
                "raw_nodes": graph.n_raw_nodes,
                "raw_edges": graph.n_raw_edges,
            },
        )
    return header, table
