"""Command-line entry point.

Subcommands cover model generation, certification, querying, and the four
experiment studies. Exit codes: 0 success, 1 computation error, 2 usage error.
`--json` mirrors numeric output as machine-readable JSON; `--config FILE`
supplies defaults that explicit flags override. `--threads` (or the
LOCALMRF_THREADS environment variable) sets trial-level parallelism and never
changes results.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .dobrushin import decay_radius, dobrushin_coefficient
from .expansion import greedy_expand, query_marginal
from .experiments import (
    COMPARISON_METHODS,
    CoraSpec,
    GridSpec,
    cora_pipeline,
    dobrushin_heatmap,
    expansion_comparison,
    gen_citation_graph,
    gen_grid,
    i1_sweep,
    write_edge_file,
    write_label_file,
)
from .model import BoundaryMethod, LocalMRFError, load_model, save_model

_METHODS = {m.value: m for m in BoundaryMethod}


def _default_threads() -> int:
    env = os.environ.get("LOCALMRF_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return os.cpu_count() or 1


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty float list: {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="localmrf",
        description="Certified local marginal inference for sparse Ising models.",
    )
    p.add_argument("--version", action="version", version=f"localmrf {__version__}")
    p.add_argument(
        "--config",
        help="JSON file of flag defaults for the subcommand (explicit flags win)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON to stdout")
        sp.add_argument(
            "--threads",
            type=int,
            default=None,
            help="trial-level parallelism (default: cores, or LOCALMRF_THREADS)",
        )

    sp = sub.add_parser("gen-grid", help="generate a seeded lattice model")
    sp.add_argument("--rows", type=int, default=10)
    sp.add_argument("--cols", type=int, default=10)
    sp.add_argument("--i1", type=float, default=1.0, help="field scale")
    sp.add_argument("--i2", type=float, default=0.25, help="coupling scale")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="model JSON path")
    common(sp)

    sp = sub.add_parser("gen-citation", help="generate a seeded citation-style graph")
    sp.add_argument("--n", type=int, required=True, help="node count")
    sp.add_argument("--attach", type=int, default=2, help="links per arriving node")
    sp.add_argument("--homophily", type=float, default=0.0, help="label copy probability")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True, help="gets edges.tsv and labels.tsv")
    common(sp)

    sp = sub.add_parser("check-dobrushin", help="coefficient c and its argmax node")
    sp.add_argument("--model", required=True)
    common(sp)

    sp = sub.add_parser("radius", help="contraction radius for a target accuracy")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    common(sp)

    sp = sub.add_parser("query", help="marginal of one node with certificate")
    sp.add_argument("--model", required=True)
    sp.add_argument("--node", type=int, required=True)
    sp.add_argument("--k", type=int, default=16)
    sp.add_argument("--delta", type=float, default=0.005)
    sp.add_argument("--method", choices=sorted(_METHODS), default="dropout")
    common(sp)

    sp = sub.add_parser("expand", help="greedy expansion trace only")
    sp.add_argument("--model", required=True)
    sp.add_argument("--node", type=int, required=True)
    sp.add_argument("--k", type=int, default=16)
    sp.add_argument("--delta", type=float, default=0.005)
    sp.add_argument("--method", choices=sorted(_METHODS), default="dropout")
    sp.add_argument("--out", help="write the JSONL trace here instead of stdout")
    common(sp)

    sp = sub.add_parser("heatmap", help="mean coefficient over an (I1, I2) grid")
    sp.add_argument("--i1", type=_float_list, required=True, help="comma list")
    sp.add_argument("--i2", type=_float_list, required=True, help="comma list")
    sp.add_argument("--rows", type=int, default=10)
    sp.add_argument("--cols", type=int, default=10)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)
    common(sp)

    sp = sub.add_parser("compare-expansion", help="strategy comparison curves")
    sp.add_argument("--rows", type=int, default=10)
    sp.add_argument("--cols", type=int, default=10)
    sp.add_argument("--i1", type=float, default=1.0)
    sp.add_argument("--i2", type=float, default=0.25)
    sp.add_argument("--k", type=int, default=16)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument(
        "--methods",
        default=",".join(COMPARISON_METHODS),
        help=f"comma list from {COMPARISON_METHODS}",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)
    common(sp)

    sp = sub.add_parser("i1-sweep", help="error/bound vs field strength")
    sp.add_argument("--i1", type=_float_list, required=True, help="comma list")
    sp.add_argument("--rows", type=int, default=10)
    sp.add_argument("--cols", type=int, default=10)
    sp.add_argument("--i2", type=float, default=0.25)
    sp.add_argument("--k", type=int, default=16)
    sp.add_argument("--delta", type=float, default=0.005)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)
    common(sp)

    sp = sub.add_parser("cora", help="citation-graph local-vs-global pipeline")
    sp.add_argument("--edges", required=True, help="tab-separated edge list")
    sp.add_argument("--labels", required=True, help="tab-separated node labels")
    sp.add_argument("--positive-label", required=True)
    sp.add_argument("--degree-cap", type=int, default=15)
    sp.add_argument("--i1", type=_float_list, default=[1.0], help="comma list")
    sp.add_argument("--j-mean", type=float, default=0.25)
    sp.add_argument("--j-spread", type=float, default=0.05)
    sp.add_argument(
        "--spread-is-var",
        action="store_true",
        help="read --j-spread as a variance instead of a standard deviation",
    )
    sp.add_argument("--h-scale", type=float, default=0.1)
    sp.add_argument("--n-queries", type=int, default=500)
    sp.add_argument("--k", type=int, default=16)
    sp.add_argument("--delta", type=float, default=0.005)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)
    common(sp)
    return p


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Pull --config PATH or --config=PATH, before or after the subcommand,
    out of argv and turn its entries into leading defaults.

    Injected flags go right after the subcommand so later explicit flags
    override them (argparse keeps the last occurrence).
    """
    at = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if at is None:
        return argv
    _, joined, path = argv[at].partition("=")
    if not joined:  # the path is the next argument
        path = argv[at + 1] if at + 1 < len(argv) else ""
    if not path:
        parser.error("--config needs a path")
    rest = argv[:at] + argv[at + (1 if joined else 2) :]
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"bad config {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"bad config {path}: expected a JSON object")
    injected: list[str] = []
    for key, value in sorted(cfg.items()):
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        elif isinstance(value, list):
            injected += [flag, ",".join(str(v) for v in value)]
        else:
            injected += [flag, str(value)]
    if not rest:
        parser.error("--config requires a subcommand")
    return rest[:1] + injected + rest[1:]


def _emit(ns, human: str, payload: dict) -> None:
    if ns.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _cmd_gen_grid(ns) -> int:
    spec = GridSpec(ns.rows, ns.cols, ns.i1, ns.i2, ns.seed)
    model = gen_grid(spec)
    save_model(model, ns.out)
    _emit(
        ns,
        f"wrote {ns.out}: {model.n} nodes, {len(model.J)} edges, query node {spec.query}",
        {"out": ns.out, "n": model.n, "edges": len(model.J), "query": spec.query},
    )
    return 0


def _cmd_gen_citation(ns) -> int:
    edges, labels = gen_citation_graph(
        ns.n, attach=ns.attach, seed=ns.seed, homophily=ns.homophily
    )
    os.makedirs(ns.out_dir, exist_ok=True)
    edge_file = os.path.join(ns.out_dir, "edges.tsv")
    label_file = os.path.join(ns.out_dir, "labels.tsv")
    write_edge_file(edge_file, edges)
    write_label_file(label_file, labels)
    _emit(
        ns,
        f"wrote {edge_file} ({len(edges)} edges) and {label_file} ({len(labels)} nodes)",
        {"edge_file": edge_file, "label_file": label_file, "n": len(labels), "edges": len(edges)},
    )
    return 0


def _cmd_check_dobrushin(ns) -> int:
    model = load_model(ns.model)
    c, node = dobrushin_coefficient(model)
    _emit(
        ns,
        f"c = {c:.12g} (max row at node {node}); "
        + ("contraction holds (c < 1)" if c < 1 else "no contraction (c >= 1)"),
        {"c": c, "argmax_node": node, "contraction": bool(c < 1)},
    )
    return 0


def _cmd_radius(ns) -> int:
    r, t = decay_radius(ns.c, ns.eps, return_t=True)
    _emit(
        ns,
        f"radius r = {r} at optimizing t = {t:.12g} (c = {ns.c:.12g}, eps = {ns.eps:.12g})",
        {"radius": r, "t": t, "c": ns.c, "eps": ns.eps},
    )
    return 0


def _cmd_query(ns) -> int:
    model = load_model(ns.model)
    res = query_marginal(model, ns.node, K=ns.k, delta=ns.delta, method=_METHODS[ns.method])
    bound_txt = f"{res.bound:.12g}" if math.isfinite(res.bound) else "unavailable"
    stop = res.trace.stop_reason.value
    _emit(
        ns,
        f"p(x_{ns.node} = +1) = {res.marginal:.12g}\ncertified error bound = {bound_txt}\n"
        f"region ({len(res.alpha)} nodes): {list(res.alpha)}\nstop reason: {stop}",
        {"node": ns.node, "marginal": res.marginal, "bound": _jsonable(res.bound),
         "valid": res.valid, "degraded": res.trace.degraded, "alpha": list(res.alpha),
         "stop_reason": stop},
    )
    return 0


def _cmd_expand(ns) -> int:
    model = load_model(ns.model)
    trace = greedy_expand(model, ns.node, K=ns.k, delta=ns.delta, method=_METHODS[ns.method])
    text = trace.to_jsonl()
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    summary = {
        "alpha": list(trace.final_alpha),
        "bound": _jsonable(trace.final_certificate.bound),
        "stop_reason": trace.stop_reason.value,
        "degraded": trace.degraded,
        "steps": len(trace.steps),
    }
    if ns.json:
        print(json.dumps(summary, sort_keys=True))
    elif ns.out:
        print(f"wrote {ns.out}: {summary}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_heatmap(ns) -> int:
    dobrushin_heatmap(
        ns.i1, ns.i2, rows=ns.rows, cols=ns.cols, trials=ns.trials, seed=ns.seed,
        out_dir=ns.out_dir, threads=ns.threads,
    )
    _emit(
        ns,
        f"wrote {os.path.join(ns.out_dir, 'heatmap.csv')}",
        {"out_dir": ns.out_dir, "cells": len(ns.i1) * len(ns.i2), "trials": ns.trials},
    )
    return 0


def _cmd_compare(ns) -> int:
    methods = tuple(m for m in ns.methods.split(",") if m)
    spec = GridSpec(ns.rows, ns.cols, ns.i1, ns.i2, ns.seed)
    expansion_comparison(
        spec, K=ns.k, trials=ns.trials, methods=methods, out_dir=ns.out_dir, threads=ns.threads
    )
    _emit(
        ns,
        f"wrote {os.path.join(ns.out_dir, 'comparison.csv')}",
        {"out_dir": ns.out_dir, "methods": list(methods), "trials": ns.trials, "K": ns.k},
    )
    return 0


def _cmd_i1_sweep(ns) -> int:
    i1_sweep(
        ns.i1, rows=ns.rows, cols=ns.cols, I2=ns.i2, K=ns.k, delta=ns.delta, trials=ns.trials,
        seed=ns.seed, out_dir=ns.out_dir, threads=ns.threads,
    )
    _emit(
        ns,
        f"wrote {os.path.join(ns.out_dir, 'i1_sweep.csv')}",
        {"out_dir": ns.out_dir, "i1_values": ns.i1, "trials": ns.trials},
    )
    return 0


def _cmd_cora(ns) -> int:
    spec = CoraSpec(
        edge_file=ns.edges, label_file=ns.labels, positive_label=ns.positive_label,
        degree_cap=ns.degree_cap, I1=ns.i1[0], j_mean=ns.j_mean, j_spread=ns.j_spread,
        h_scale=ns.h_scale, seed=ns.seed, n_queries=ns.n_queries, K=ns.k, delta=ns.delta,
        spread_is_sd=not ns.spread_is_var,
    )
    cora_pipeline(spec, i1_values=ns.i1, out_dir=ns.out_dir, threads=ns.threads)
    _emit(
        ns,
        f"wrote {os.path.join(ns.out_dir, 'cora_metrics.csv')}",
        {"out_dir": ns.out_dir, "i1_values": ns.i1, "n_queries": ns.n_queries},
    )
    return 0


_HANDLERS = {
    "gen-grid": _cmd_gen_grid,
    "gen-citation": _cmd_gen_citation,
    "check-dobrushin": _cmd_check_dobrushin,
    "radius": _cmd_radius,
    "query": _cmd_query,
    "expand": _cmd_expand,
    "heatmap": _cmd_heatmap,
    "compare-expansion": _cmd_compare,
    "i1-sweep": _cmd_i1_sweep,
    "cora": _cmd_cora,
}


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(parser, argv)
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; preserve both.
        return int(exc.code or 0)
    if getattr(ns, "threads", None) is None:
        ns.threads = _default_threads()
    try:
        return _HANDLERS[ns.command](ns)
    except (LocalMRFError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
