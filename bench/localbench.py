"""Workloads, correctness gate and metrics of the localmrf benchmark.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Inputs come from the benchmark seed alone; the
package only ever sees the generated models and query nodes. See README.md in
this directory for the metric definitions and the layer table.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy

import localmrf as L
from tracer import Tracer

K = 16
DELTA = 0.005
SETUP_REPS = 3  # set-ups per run; setup_s reports their median
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
SOUNDNESS_SLACK = 1e-12
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Calls the traced run must never see on a workload: the query workloads do
# not reach mean field or the experiment harness, and compare_trial never
# answers a query through query_marginal.
_QUERY_BYPASS = (
    "meanfield.mean_field.calls",
    "meanfield.boundary_mean_field.calls",
    "experiments.expansion_comparison.calls",
    "experiments.evaluate_prefixes.calls",
    "expansion.random_expand.calls",
    "expansion.maxnorm_expand.calls",
)
PREDICTED_ZERO = {
    "grid_query": _QUERY_BYPASS,
    "citation_query": _QUERY_BYPASS,
    "compare_trial": ("expansion.query_marginal.calls",),
}


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(L.substream(seed, tag)))


@dataclass(frozen=True)
class Answer:
    """What one op returned, reduced to what the gate and the digest read."""

    certs: tuple[float, ...]  # certified bounds, +inf where invalid
    valid: tuple[bool, ...]
    digest: str


class GridQuery:
    """Random interior queries on a 100x100 grid with I1=1, I2=0.25.

    Regions grow to about 10 nodes of degree 4, so the certificate solve
    dominates; mean field and the experiment harness are never called.
    """

    name = "grid_query"
    quality_ops = 150

    def __init__(self, seed: int, workdir: str):
        self.model = L.gen_grid(L.GridSpec(100, 100, I1=1.0, I2=0.25, seed=seed))
        interior = [L.grid_node_id(r, c, 100) for r in range(1, 99) for c in range(1, 99)]
        self.items = [int(q) for q in _stream(seed, 1).permutation(interior)]

    def op(self, q: int):
        return L.query_marginal(self.model, q, K=K, delta=DELTA)

    def judge(self, q: int, res) -> tuple[Answer, list[str]]:
        """The query gate: marginal, validity against the bound, and alpha."""
        problems = []
        if not 0.0 <= res.marginal <= 1.0:
            problems.append(f"query {q}: marginal {res.marginal!r} outside [0, 1]")
        if res.valid != math.isfinite(res.bound):
            problems.append(f"query {q}: valid={res.valid} with bound {res.bound!r}")
        if res.bound < 0.0:
            problems.append(f"query {q}: negative bound {res.bound!r}")
        if q not in res.alpha:
            problems.append(f"query {q}: not in alpha {list(res.alpha)}")
        if len(res.alpha) > K or len(set(res.alpha)) != len(res.alpha):
            problems.append(f"query {q}: alpha {list(res.alpha)} not {K} distinct nodes or fewer")
        answer = Answer(
            certs=(res.bound,),
            valid=(res.valid,),
            digest=f"{q} {list(res.alpha)} {res.marginal:.12f} {res.bound:.12f}",
        )
        return answer, problems


class CitationQuery(GridQuery):
    """Random queries on a 2000-node preferential-attachment citation graph.

    The graph goes through the TSV files and the degree-capped loader, and
    gets CoraSpec potentials. Heavy-tailed degrees give wide boundaries and
    short regions: many candidates are scored per accepted node.
    """

    name = "citation_query"
    quality_ops = 400

    def __init__(self, seed: int, workdir: str):
        edges, labels = L.gen_citation_graph(n=2000, attach=2, seed=seed, homophily=0.5)
        os.makedirs(workdir, exist_ok=True)
        edge_file = os.path.join(workdir, "edges.tsv")
        label_file = os.path.join(workdir, "labels.tsv")
        L.write_edge_file(edge_file, edges)
        L.write_label_file(label_file, labels)
        spec = L.CoraSpec(edge_file, label_file, positive_label="1", degree_cap=15, seed=seed)
        graph = L.load_citation_graph(spec)
        sd = spec.j_spread if spec.spread_is_sd else math.sqrt(spec.j_spread)
        J = _stream(seed, 1).normal(spec.j_mean, sd, size=len(graph.edges))
        noise = _stream(seed, 2).normal(0.0, 1.0, size=graph.n)
        h = spec.h_scale * spec.I1 * graph.labels + noise
        self.model = L.build_model(
            [(u, v, float(j)) for (u, v), j in zip(graph.edges, J)], h
        )
        self.items = [int(q) for q in _stream(seed, 3).permutation(graph.n)]


class CompareTrial:
    """One single-trial expansion_comparison on a seeded 10x10 grid per op.

    The only workload that reaches exact elimination of a whole model, mean
    field, the random and maxnorm baselines and evaluate_prefixes, and the
    only one where the elimination oracle checks the certificates.
    """

    name = "compare_trial"
    quality_ops = 40

    def __init__(self, seed: int, workdir: str):
        self.items = [int(s) for s in L.substream(seed, 4).generate_state(512)]

    def op(self, s: int):
        return L.expansion_comparison(L.GridSpec(10, 10, 1.0, 0.25, seed=s), K=K, trials=1)

    def judge(self, s: int, result) -> tuple[Answer, list[str]]:
        """Soundness against the full-model elimination oracle, per size."""
        header, table = result
        table = np.asarray(table, dtype=np.float64)
        err_cols = [i for i, h in enumerate(header) if h.startswith("err_")]
        bound_cols = [i for i, h in enumerate(header) if h.startswith("bound_")]
        errs, bounds = table[:, err_cols], table[:, bound_cols]
        problems = []
        if table.shape[0] != K:
            problems.append(f"trial {s}: {table.shape[0]} sizes, expected {K}")
        if not np.all((errs >= 0.0) & (errs <= 1.0)):
            problems.append(f"trial {s}: error outside [0, 1]")
        finite = np.isfinite(bounds)
        if np.any(bounds[finite] < 0.0):
            problems.append(f"trial {s}: negative bound")
        unsound = finite & (errs > bounds + SOUNDNESS_SLACK)
        for size, m in zip(*np.nonzero(unsound)):
            problems.append(
                f"trial {s}: {header[bound_cols[m]]} at size {size + 1} is "
                f"{float(bounds[size, m])!r} < true error {float(errs[size, m])!r}"
            )
        last = tuple(float(b) for b in bounds[-1])
        answer = Answer(
            certs=last,
            valid=tuple(math.isfinite(b) for b in last),
            digest=f"{s} " + " ".join(f"{v:.12f}" for v in table.ravel()),
        )
        return answer, problems


WORKLOADS = {w.name: w for w in (GridQuery, CitationQuery, CompareTrial)}


@dataclass
class Tally:
    """Outcome of every op of a run, timed or not."""

    attempted: int = 0
    failed: int = 0  # ops that raised or failed a check
    errors: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def judge(self, workload, item, raw) -> Answer | None:
        self.attempted += 1
        if isinstance(raw, Exception):
            self.failed += 1
            trace = "".join(traceback.format_exception(raw)).rstrip()
            self.errors.append(f"item {item}: {trace}")
            return None
        answer, problems = workload.judge(item, raw)
        self.failed += bool(problems)
        self.problems += problems
        return answer


def attempt(workload, item):
    """The op's result, or the exception it raised: a failed op is counted
    against the run, which goes on."""
    try:
        return workload.op(item)
    except Exception as exc:
        return exc


@dataclass
class Phase:
    seconds: float = 0.0
    times: list[float] = field(default_factory=list)
    answers: list[Answer | None] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return len(self.times) / self.seconds


def run_phase(workload, seconds: float, tally: Tally, tracer: Tracer | None = None) -> Phase:
    """Closed loop over the workload's items, from the first, for `seconds`.
    Only the op is timed; its answer is checked after the clock stops."""
    phase = Phase()
    items = workload.items
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        item = items[i % len(items)]
        with tracer.op(i) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            raw = attempt(workload, item)
            t1 = time.perf_counter()
        phase.times.append(t1 - t0)
        phase.answers.append(tally.judge(workload, item, raw))
        i += 1
        if t1 >= deadline:
            break
    phase.seconds = t1 - start
    return phase


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def env_stamp(root: str, blas: dict) -> dict:
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: str,
        import_s: float, blas: dict) -> tuple[dict, list[str]]:
    """One benchmark run. Returns the result object and the report lines."""
    cls = WORKLOADS[name]
    workdir = os.path.join(OUT_DIR, f"{name}-{seed}")
    lines = [f"env {env_stamp(root, blas)}", f"workload {name} seed {seed} seconds {seconds}"]
    tally = Tally()
    setups = []
    for _ in range(1 if trace else SETUP_REPS):
        t0 = time.perf_counter()
        workload = cls(seed, workdir)
        raw = attempt(workload, workload.items[0])
        setups.append(time.perf_counter() - t0)
        tally.judge(workload, workload.items[0], raw)
    lines.append(f"setup imports {import_s:.4f} s, set-ups {[round(t, 4) for t in setups]} s")

    if trace:
        plain = run_phase(workload, seconds / 2, tally)
        tracer = Tracer()
        with tracer.installed():
            traced = run_phase(workload, seconds / 2, tally, tracer)
        for i, (a, b) in enumerate(zip(plain.answers, traced.answers)):
            if a is not None and b is not None and a.digest != b.digest:
                tally.problems.append(f"op {i}: traced answer differs from untraced")
                tally.failed += 1
        common = min(len(plain.times), len(traced.times))
        overhead = sum(traced.times[:common]) / sum(plain.times[:common]) - 1.0
        metrics = tracer.metrics(len(traced.times), overhead)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
        tracer.write(spans_path)
        lines.append(f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, root)}")
        lines.append(f"absent {tracer.absent}")
    else:
        phase = run_phase(workload, seconds, tally)
        # The quality set is the first quality_ops items: answered in the
        # timed phase when it gets that far, otherwise here, untimed.
        answered = phase.answers[: workload.quality_ops]
        for item in workload.items[len(answered): workload.quality_ops]:
            answered.append(tally.judge(workload, item, attempt(workload, item)))
        quality = [a for a in answered if a is not None]
        valid = [v for a in quality for v in a.valid]
        bounds = [b for a in quality for b, v in zip(a.certs, a.valid) if v]
        digest = hashlib.sha256("\n".join(a.digest for a in quality).encode()).hexdigest()
        lines.append(f"digest {name} {digest} over {len(quality)} ops")
        times_ms = [1e3 * t for t in phase.times]
        tail_ms, tail_pct, beyond = tail(times_ms)
        lines.append(f"tail p{tail_pct:.2f} of {len(times_ms)} samples, {beyond} beyond it")
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "latency_p50_ms": (statistics.median(times_ms), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "throughput_ops_s": (phase.throughput, "1/s"),
            "valid_frac": (len(bounds) / len(valid) if valid else 0.0, "share"),
            # with no valid certificate, the trivial bound on a probability gap
            "mean_bound": (statistics.fmean(bounds) if bounds else 1.0, "prob"),
            "completed_frac": (1.0 - len(tally.errors) / tally.attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    for key, (value, unit) in metrics.items():
        lines.append(f"metric {key} {value!r} {unit}")
    lines += [f"error {e}" for e in tally.errors] + [f"FAILED {p}" for p in tally.problems]
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines
