"""Per-layer tracing of localmrf from outside the package.

The tracer replaces the public layer functions in every ``localmrf`` module
namespace that holds them with wrappers that record one span per call: name,
start, end, parent span and op id. Spans stay in memory until the run ends.
Counters that describe the work a call did (enumeration terms, invalid
certificates, nodes eliminated, ...) are computed at the same boundary from
the call's inputs or result. ``uninstall`` puts the original functions back,
so the untraced phase and any other code in the process run unwrapped.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# Layer functions per package module. The cli module only parses arguments
# around these, so it is not a layer.
LAYERS = {
    "model": ("make_region", "localize"),
    "dobrushin": (
        "interaction_matrix",
        "influence_matrix",
        "spectral_radius",
        "perturbation_vector",
        "local_certificate",
    ),
    "meanfield": ("mean_field", "boundary_mean_field"),
    "exact": ("eliminate_marginal",),
    "expansion": ("greedy_expand", "random_expand", "maxnorm_expand", "query_marginal"),
    "experiments": ("expansion_comparison", "evaluate_prefixes"),
}

# Stop reasons as the expansion module names them; a reason not listed here
# is still reported, under its own name.
STOP_REASONS = ("ReachedK", "NoImprovement", "BoundaryEmpty")

# Counters reported per op, with their units.
PER_OP_COUNTS = {
    "dobrushin.perturbation_vector.enum_terms": "terms/op",
    "dobrushin.local_certificate.invalid": "certs/op",
    "meanfield.boundary_mean_field.unconverged": "solves/op",
    "exact.eliminate_marginal.nodes": "nodes/op",
    "expansion.degraded": "traces/op",
    **{f"expansion.stop.{reason}": "traces/op" for reason in STOP_REASONS},
}

ROOT = "op"
PACKAGE = "localmrf"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _enum_terms(counts, args, kwargs, result):
    """Sum over boundary nodes of 2^k, k = the node's neighbours in alpha:
    the signed sums perturbation_vector enumerates."""
    model = _arg(args, kwargs, 0, "model")
    region = _arg(args, kwargs, 2, "region")
    inside = set(region.alpha)
    terms = sum(
        1 << sum(1 for k in model.adjacency[j] if k in inside)
        for j in region.boundary_alpha
    )
    counts["dobrushin.perturbation_vector.enum_terms"] += terms


def _invalid_cert(counts, args, kwargs, result):
    counts["dobrushin.local_certificate.invalid"] += not result.valid


def _unconverged(counts, args, kwargs, result):
    counts["meanfield.boundary_mean_field.unconverged"] += not result[1].converged


def _elim_nodes(counts, args, kwargs, result):
    counts["exact.eliminate_marginal.nodes"] += _arg(args, kwargs, 0, "model").n


def _greedy_trace(counts, args, kwargs, result):
    counts["expansion.traces"] += 1
    counts["expansion.scored"] += sum(len(s.bounds) for s in result.steps)
    counts["expansion.accepted"] += sum(s.chosen is not None for s in result.steps)
    counts["expansion.region_nodes"] += len(result.final_alpha)
    counts["expansion.degraded"] += bool(result.degraded)
    counts[f"expansion.stop.{result.stop_reason.value}"] += 1


HOOKS = {
    "dobrushin.perturbation_vector": _enum_terms,
    "dobrushin.local_certificate": _invalid_cert,
    "meanfield.boundary_mean_field": _unconverged,
    "exact.eliminate_marginal": _elim_nodes,
    "expansion.greedy_expand": _greedy_trace,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op_id]
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self._op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every layer function wherever a localmrf module binds it."""
        self.counts = Counter()
        self.absent = []
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module, names in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{module}")
            for fname in names:
                name = f"{module}.{fname}"
                original = getattr(home, fname, None) if home is not None else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; layer spans inside it are its children."""
        self._op_id = op_id
        rec = [ROOT, perf_counter_ns(), 0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, ops: int, overhead: float) -> dict:
        """Per-op layer metrics over `ops` traced ops, as {name: (value, unit)}.
        `overhead` is the traced run's extra time on the same ops untraced."""
        own = self.self_ns()
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        recomputed = 0
        op_ns = covered_ns = 0
        for (name, start, end, parent, _), s in zip(self.spans, own):
            if name == ROOT:
                op_ns += end - start
                continue
            covered_ns += s
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + s
            if (
                name == "dobrushin.local_certificate"
                and parent >= 0
                and self.spans[parent][0] == "experiments.evaluate_prefixes"
            ):
                recomputed += 1
        per_op = 1.0 / max(ops, 1)
        out = {}
        for module, names in LAYERS.items():
            for fname in names:
                name = f"{module}.{fname}"
                out[f"{name}.calls"] = (calls.get(name, 0) * per_op, "calls/op")
                out[f"{name}.self_ms"] = (self_ns.get(name, 0) * 1e-6 * per_op, "ms/op")
        c = self.counts
        stops = {key: "traces/op" for key in c if key.startswith("expansion.stop.")}
        for key, unit in {**PER_OP_COUNTS, **stops}.items():
            out[key] = (c[key] * per_op, unit)
        out["experiments.evaluate_prefixes.recomputed_certs"] = (recomputed * per_op, "certs/op")
        out["expansion.scored_per_accepted"] = (
            c["expansion.scored"] / c["expansion.accepted"] if c["expansion.accepted"] else 0.0,
            "ratio",
        )
        out["expansion.region_size"] = (
            c["expansion.region_nodes"] / c["expansion.traces"] if c["expansion.traces"] else 0.0,
            "nodes",
        )
        out["trace.coverage"] = (covered_ns / op_ns if op_ns else 0.0, "share")
        out["trace.overhead"] = (overhead, "share")
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start_ns, end_ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
