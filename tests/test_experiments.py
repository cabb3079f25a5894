"""Seeded experiment harnesses: grids, heatmap, comparison, sweep, citation."""
import hashlib
import json
import math
import os

import numpy as np
import pytest

from localmrf import (
    BoundaryMethod,
    CoraSpec,
    GridSpec,
    IsingModel,
    ModelError,
    build_model,
    cora_pipeline,
    dobrushin_heatmap,
    eliminate_marginal,
    evaluate_prefixes,
    expansion_comparison,
    gen_citation_graph,
    gen_grid,
    greedy_expand,
    grid_edges,
    i1_sweep,
    load_citation_graph,
    local_certificate,
    localize,
    maxnorm_expand,
    make_region,
    model_json,
    random_expand,
    substream,
    write_csv,
    write_edge_file,
    write_label_file,
)
from localmrf import experiments
from localmrf.experiments import _fmt, write_manifest


def record_pools(monkeypatch):
    """Replace the experiments' process pool by a serial one that records
    the max_workers of every pool started, and runs its initializer as each
    worker would; returns that list."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            started.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return started


GOLDEN_GRID_SHA = "6a3b8848f3d2727f2119f492c4f45a73b0d8571ececf31f5d1ac6402b2e52395"


class TestGridSpec:
    def test_query_positions(self):
        assert GridSpec(10, 10).query == 55
        assert GridSpec(5, 5).query == 18
        assert GridSpec(1, 1).query == 0
        assert GridSpec(1, 201).query == 101
        assert GridSpec(4, 20).query == 50

    def test_n(self):
        assert GridSpec(3, 7).n == 21

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 5)
        with pytest.raises(ValueError):
            GridSpec(5, 5, I1=-1.0)

    def test_grid_edges_order(self):
        assert grid_edges(2, 2) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert len(grid_edges(10, 10)) == 180


class TestGenGrid:
    def test_single_node(self):
        m = gen_grid(GridSpec(1, 1, I1=1.0, I2=0.25, seed=0))
        assert m.n == 1 and not m.J

    def test_zero_i2_means_zero_couplings(self):
        m = gen_grid(GridSpec(4, 4, I1=1.0, I2=0.0, seed=5))
        assert all(j == 0.0 for j in m.J.values())

    def test_parameter_ranges(self):
        m = gen_grid(GridSpec(6, 6, I1=2.0, I2=0.5, seed=1))
        assert np.all(np.abs(m.h) <= 2.0)
        assert all(abs(j) <= 0.5 for j in m.J.values())

    def test_deterministic_golden_hash(self):
        m = gen_grid(GridSpec(10, 10, I1=1.0, I2=0.25, seed=0))
        assert hashlib.sha256(model_json(m).encode()).hexdigest() == GOLDEN_GRID_SHA

    def test_common_random_numbers_across_scales(self):
        base = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.25, seed=7))
        j2 = gen_grid(GridSpec(5, 5, I1=1.0, I2=0.5, seed=7))
        h2 = gen_grid(GridSpec(5, 5, I1=2.0, I2=0.25, seed=7))
        assert np.array_equal(j2.h, base.h)
        for key, j in base.J.items():
            assert j2.J[key] == 2.0 * j
        assert h2.J == base.J
        assert np.array_equal(h2.h, 2.0 * base.h)


class TestWriters:
    def test_csv_format(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b", "c"], [[1, 1.0 / 3.0, "x"], [2, 0.25, "y"]])
        text = p.read_text()
        assert text == "a,b,c\n1,0.333333333333,x\n2,0.25,y\n"

    def test_fmt_non_finite(self):
        assert _fmt(math.inf) == "inf"
        assert _fmt(1) == "1"
        assert _fmt(True) == "True"

    def test_manifest(self, tmp_path):
        write_manifest(tmp_path, "demo", {"trials": 3, "seed": 0})
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert set(payload) == {"experiment", "params", "version"}
        assert payload["experiment"] == "demo"
        assert payload["params"] == {"trials": 3, "seed": 0}

    def test_edge_and_label_files(self, tmp_path):
        ep = tmp_path / "e.tsv"
        lp = tmp_path / "l.tsv"
        write_edge_file(ep, [(0, 1), (1, 2)])
        write_label_file(lp, [1, -1, 1])
        assert ep.read_text() == "0\t1\n1\t2\n"
        assert lp.read_text() == "0\t1\n1\t-1\n2\t1\n"


class TestSubstream:
    def test_deterministic_and_distinct(self):
        a = substream(3, 1, 2).generate_state(4)
        b = substream(3, 1, 2).generate_state(4)
        c = substream(3, 2, 1).generate_state(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestHeatmap:
    def test_shape_zero_column_and_determinism(self, tmp_path):
        header, table = dobrushin_heatmap(
            [0.0, 1.0], [0.0, 0.3], rows=3, cols=3, trials=5, seed=0,
            out_dir=tmp_path,
        )
        assert header == ["i1", "0", "0.3"]
        assert len(table) == 2
        for row in table:
            assert row[1] == 0.0  # I2 = 0 kills every coupling
            assert row[2] > 0.0
        again = dobrushin_heatmap([0.0, 1.0], [0.0, 0.3], rows=3, cols=3, trials=5, seed=0)
        assert again[1] == table
        assert (tmp_path / "heatmap.csv").exists()
        assert json.loads((tmp_path / "manifest.json").read_text())["experiment"] == "heatmap"

    def test_threads_do_not_change_results(self):
        serial = dobrushin_heatmap([0.5], [0.2, 0.4], rows=3, cols=3, trials=4, seed=1)
        pooled = dobrushin_heatmap(
            [0.5], [0.2, 0.4], rows=3, cols=3, trials=4, seed=1, threads=2
        )
        assert serial == pooled

    def test_validation(self):
        with pytest.raises(ValueError):
            dobrushin_heatmap([1.0], [0.1], trials=0)

    def test_workers_capped_at_item_count(self, monkeypatch):
        started = record_pools(monkeypatch)
        serial = dobrushin_heatmap([0.5], [0.2], rows=3, cols=3, trials=2, seed=1)
        pooled = dobrushin_heatmap([0.5], [0.2], rows=3, cols=3, trials=2, seed=1, threads=4096)
        assert started == [2]
        assert pooled == serial


class TestEvaluatePrefixes:
    def test_soundness_per_size(self):
        spec = GridSpec(5, 5, I1=1.0, I2=0.25, seed=11)
        model = gen_grid(spec)
        q = spec.query
        p_true = eliminate_marginal(model, q)
        drop, mf = BoundaryMethod.DROP_OUT, BoundaryMethod.MEAN_FIELD
        traces = [
            (greedy_expand(model, q, K=8, delta=-math.inf, method=drop), drop),
            (greedy_expand(model, q, K=8, delta=-math.inf, method=mf), mf),
            (random_expand(model, q, K=8, seed=5), drop),
            (maxnorm_expand(model, q, K=8), drop),
        ]
        for trace, method in traces:
            errors, bounds = evaluate_prefixes(trace, p_true, 8)
            assert errors.shape == (8,) and bounds.shape == (8,)
            assert np.all(errors <= bounds + 1e-9)
            for s in range(1, 9):
                region = make_region(model, trace.final_alpha[:s], q)
                loc = localize(model, region, method)
                # read off the trace, yet bit-identical to a fresh certificate
                assert bounds[s - 1] == local_certificate(model, region, loc).bound

    @pytest.mark.parametrize("K", [0, -1])
    def test_k_below_one_raises(self, K):
        spec = GridSpec(4, 4, I1=1.0, I2=0.25, seed=0)
        model = gen_grid(spec)
        trace = greedy_expand(model, spec.query, K=3)
        with pytest.raises(ValueError, match="K must be >= 1"):
            evaluate_prefixes(trace, eliminate_marginal(model, spec.query), K)

    @staticmethod
    def _fresh_errors(model, trace, p_true, methods):
        """The errors of the size-1..len(methods) prefixes, each localized
        afresh with its method."""
        out = []
        for s, method in enumerate(methods, start=1):
            region = make_region(model, trace.final_alpha[:s], trace.query)
            loc = localize(model, region, method)
            out.append(abs(eliminate_marginal(loc.submodel, loc.index_of(trace.query)) - p_true))
        return out

    @staticmethod
    def _count_localize(monkeypatch):
        """Count the calls of localize, through localmrf.model and through
        every module-level copy that evaluate_prefixes could reach."""
        import localmrf.expansion as expansion
        import localmrf.model as model_module

        calls = []
        real = model_module.localize

        def counted(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        for module in (model_module, expansion, experiments):
            if hasattr(module, "localize"):
                monkeypatch.setattr(module, "localize", counted)
        return calls

    @staticmethod
    def _stall(monkeypatch, when):
        """Mark the boundary solve of every region with when(region) as
        stalled; localize reads boundary_mean_field off meanfield per call."""
        import localmrf.meanfield as meanfield

        real = meanfield.boundary_mean_field

        def stalled(model, region):
            means, state = real(model, region)
            if when(region):
                state.converged = False
            return means, state

        monkeypatch.setattr(meanfield, "boundary_mean_field", stalled)

    def test_prefixes_localize_once_per_trace(self, monkeypatch):
        spec = GridSpec(5, 5, I1=1.0, I2=0.25, seed=11)
        model = gen_grid(spec)
        q = spec.query
        p_true = eliminate_marginal(model, q)
        traces = [
            greedy_expand(model, q, K=8, delta=-math.inf),
            greedy_expand(model, q, K=8, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD),
            greedy_expand(model, q, K=8, delta=0.005),
            random_expand(model, q, K=8, seed=5),
            maxnorm_expand(model, q, K=8),
        ]
        for trace in traces:
            assert not any(math.isnan(c.c_local) for c in trace.certificates)
            calls = self._count_localize(monkeypatch)
            errors, _ = evaluate_prefixes(trace, p_true, 10)
            monkeypatch.undo()
            assert len(calls) == 0  # every prefix, {query} too, is read off the trace
            fresh = self._fresh_errors(model, trace, p_true, [trace.method] * 10)
            assert [e.hex() for e in errors] == [e.hex() for e in fresh]

    def test_raised_step_is_read_off_the_trace(self, monkeypatch):
        # the boundary solve does not converge while hub 0 is on the boundary,
        # so every region that leaves it there stalls while localizing; once
        # all leaves are in, it does not
        drop, mf = BoundaryMethod.DROP_OUT, BoundaryMethod.MEAN_FIELD
        star = build_model(
            [(0, k, 0.1 * k) for k in range(1, 5)], [0.2, -0.1, 0.4, 0.0, -0.3]
        )
        with monkeypatch.context() as patch:
            self._stall(patch, lambda region: 0 in region.boundary_alpha)
            trace = greedy_expand(star, 1, K=5, delta=-math.inf, method=mf)
        assert trace.degraded and trace.final_certificate.valid
        uncertified = [math.isnan(c.c_local) for c in trace.certificates[1:]]
        assert uncertified == [True, True, True, False]
        p_true = eliminate_marginal(star, 1)
        calls = self._count_localize(monkeypatch)
        errors, bounds = evaluate_prefixes(trace, p_true, 6)
        monkeypatch.undo()
        assert len(calls) == 0  # the stalled prefixes too are read off the trace
        # the three stalled prefixes are scored on their drop-out localization
        fresh = self._fresh_errors(star, trace, p_true, [mf, drop, drop, drop, mf, mf])
        assert [e.hex() for e in errors] == [e.hex() for e in fresh]
        assert list(bounds[1:4]) == [math.inf] * 3

    def test_stalled_final_prefix_is_scored_on_drop_out(self, monkeypatch):
        # every two-node solve stalls, so greedy ends on an uncertified pair;
        # evaluate_prefixes used to localize that pair afresh and stall again
        star = build_model([(0, 1, 0.3), (0, 2, 0.5), (0, 3, 0.2)], [0.1, 0.0, 0.2, -0.1])
        p_true = eliminate_marginal(star, 0)
        self._stall(monkeypatch, lambda region: len(region.alpha) == 2)
        trace = greedy_expand(star, 0, K=2, delta=-math.inf, method=BoundaryMethod.MEAN_FIELD)
        calls = self._count_localize(monkeypatch)
        errors, bounds = evaluate_prefixes(trace, p_true, 3)
        monkeypatch.undo()
        assert len(calls) == 0
        assert trace.degraded and not trace.valid
        assert list(bounds[1:]) == [math.inf, math.inf]
        loc = localize(star, make_region(star, trace.final_alpha, 0), BoundaryMethod.DROP_OUT)
        want = abs(eliminate_marginal(loc.submodel, loc.index_of(0)) - p_true)
        assert errors[1] == errors[2] == want

    def test_short_trace_repeats_final_value(self, chain3):
        trace = greedy_expand(chain3, 0, K=3, delta=-math.inf)
        p_true = eliminate_marginal(chain3, 0)
        errors, bounds = evaluate_prefixes(trace, p_true, 5)
        assert errors[2] == errors[3] == errors[4]
        assert bounds[2] == bounds[3] == bounds[4] == 0.0


class TestComparison:
    def test_table_and_size1_identity(self, tmp_path):
        spec = GridSpec(4, 4, I1=1.0, I2=0.25, seed=3)
        header, table = expansion_comparison(
            spec, K=4, trials=3, out_dir=tmp_path
        )
        assert header == [
            "size",
            "err_greedy_drop", "err_greedy_mf", "err_random", "err_maxnorm",
            "bound_greedy_drop", "bound_greedy_mf", "bound_random", "bound_maxnorm",
        ]
        assert [row[0] for row in table] == [1, 2, 3, 4]
        first = table[0]
        # at size 1 every drop-localized strategy sees the bare query node
        assert first[1] == first[3] == first[4]
        assert first[5] == first[7] == first[8]
        assert (tmp_path / "comparison.csv").exists()
        again = expansion_comparison(spec, K=4, trials=3)
        assert again[1] == table

    def test_method_subset_and_validation(self):
        spec = GridSpec(3, 3, I1=1.0, I2=0.25, seed=1)
        header, table = expansion_comparison(spec, K=3, trials=2, methods=("greedy_drop",))
        assert header == ["size", "err_greedy_drop", "bound_greedy_drop"]
        assert len(table) == 3
        with pytest.raises(ValueError, match="unknown methods"):
            expansion_comparison(spec, K=3, trials=2, methods=("nope",))
        with pytest.raises(ValueError):
            expansion_comparison(spec, K=0, trials=2)
        with pytest.raises(ValueError, match="at least one strategy"):
            expansion_comparison(spec, K=3, trials=2, methods=())


class TestI1Sweep:
    def test_rows_and_soundness(self, tmp_path):
        header, table = i1_sweep(
            [0.0, 2.0], rows=4, cols=4, I2=0.25, K=4, delta=0.005,
            trials=3, seed=0, out_dir=tmp_path,
        )
        assert header == ["i1", "mean_error", "mean_bound"]
        assert [row[0] for row in table] == [0.0, 2.0]
        for _, err, bound in table:
            assert 0.0 <= err <= bound + 1e-9
        assert (tmp_path / "i1_sweep.csv").exists()
        again = i1_sweep([0.0, 2.0], rows=4, cols=4, I2=0.25, K=4, delta=0.005, trials=3, seed=0)
        assert again[1] == table

    def test_validation(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            i1_sweep([1.0], trials=0)

    def test_one_pool_per_sweep(self, monkeypatch):
        started = record_pools(monkeypatch)
        kwargs = dict(rows=3, cols=3, I2=0.25, K=3, delta=0.005, trials=2, seed=1)
        serial = i1_sweep([0.0, 1.0, 2.0], **kwargs)
        assert started == []
        pooled = i1_sweep([0.0, 1.0, 2.0], threads=2, **kwargs)
        assert started == [2]
        assert pooled == serial


class TestCitationGraph:
    def test_generator_shape(self):
        edges, labels = gen_citation_graph(200, attach=2, seed=0)
        # clique on 3 nodes, then 2 new edges per arriving node
        assert len(edges) == 3 + 2 * 197
        assert set(np.unique(labels)) == {-1, 1}
        assert all(u != v for u, v in edges)
        assert len(set(edges)) == len(edges)
        deg = np.zeros(200, dtype=int)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        assert deg.max() > 15  # hubs exist, so degree capping has work to do

    def test_generator_deterministic(self):
        e1, l1 = gen_citation_graph(50, 2, seed=4)
        e2, l2 = gen_citation_graph(50, 2, seed=4)
        assert e1 == e2
        assert np.array_equal(l1, l2)

    def _write_graph(self, tmp_path, n=200, seed=0):
        edges, labels = gen_citation_graph(n, attach=2, seed=seed)
        ep, lp = tmp_path / "edges.tsv", tmp_path / "labels.tsv"
        write_edge_file(ep, edges)
        write_label_file(lp, {i: int(l) for i, l in enumerate(labels)})
        return ep, lp, edges, labels

    def test_load_caps_degrees_and_keeps_lcc(self, tmp_path):
        ep, lp, edges, labels = self._write_graph(tmp_path)
        spec = CoraSpec(str(ep), str(lp), positive_label="1", degree_cap=15)
        graph = load_citation_graph(spec)
        assert graph.n_raw_nodes == 200 and graph.n_raw_edges == len(edges)
        assert graph.n <= 200
        deg = np.zeros(graph.n, dtype=int)
        for u, v in graph.edges:
            deg[u] += 1
            deg[v] += 1
        assert deg.max() <= 15
        assert len(graph.edges) < len(edges)  # capping removed something
        assert set(np.unique(graph.labels)) <= {-1, 1}
        # relabelled ids are dense and the raw ids map back onto the input
        assert sorted(set(u for e in graph.edges for u in e)) == list(range(graph.n))[: graph.n]
        assert all(0 <= rid < 200 for rid in graph.raw_ids)

    def test_load_binarizes_by_positive_label(self, tmp_path):
        ep, lp = tmp_path / "e.tsv", tmp_path / "l.tsv"
        write_edge_file(ep, [(10, 11), (11, 12)])
        lp.write_text("10\tA\n11\tB\n12\tA\n")
        spec = CoraSpec(str(ep), str(lp), positive_label="A", degree_cap=5)
        graph = load_citation_graph(spec)
        assert graph.n == 3
        assert list(graph.labels) == [1, -1, 1]
        assert graph.raw_ids == [10, 11, 12]

    def test_load_missing_label_raises(self, tmp_path):
        ep, lp = tmp_path / "e.tsv", tmp_path / "l.tsv"
        write_edge_file(ep, [(0, 1)])
        lp.write_text("0\t1\n")
        with pytest.raises(ValueError, match="has no label"):
            load_citation_graph(CoraSpec(str(ep), str(lp), positive_label="1"))

    def test_load_malformed_edge_names_line(self, tmp_path):
        ep, lp = tmp_path / "e.tsv", tmp_path / "l.tsv"
        ep.write_text("0\t1\nbad line here\n")
        lp.write_text("0\t1\n1\t1\n")
        with pytest.raises(ModelError, match=":2"):
            load_citation_graph(CoraSpec(str(ep), str(lp), positive_label="1"))

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CoraSpec("e", "l", positive_label="1", degree_cap=0)
        with pytest.raises(ValueError):
            CoraSpec("e", "l", positive_label="1", n_queries=0)


class TestCoraPipeline:
    def test_small_end_to_end(self, tmp_path, monkeypatch):
        edges, labels = gen_citation_graph(60, attach=2, seed=1)
        ep, lp = tmp_path / "edges.tsv", tmp_path / "labels.tsv"
        write_edge_file(ep, edges)
        write_label_file(lp, {i: int(l) for i, l in enumerate(labels)})
        spec = CoraSpec(
            str(ep), str(lp), positive_label="1", degree_cap=10,
            n_queries=12, K=4, delta=0.005, seed=0,
        )
        out = tmp_path / "out"
        header, table = cora_pipeline(spec, i1_values=[0.0, 4.0], out_dir=out)
        assert header == [
            "i1",
            "acc_global_vs_true",
            "acc_local_vs_true",
            "acc_local_vs_global",
            "precision",
            "recall",
            "f1",
        ]
        assert [row[0] for row in table] == [0.0, 4.0]
        for row in table:
            i1, acc_gt, acc_lt, acc_lg, precision, recall, f1 = row
            for v in row[1:]:
                assert 0.0 <= v <= 1.0
            if precision + recall:
                assert f1 == pytest.approx(
                    2 * precision * recall / (precision + recall), abs=1e-12
                )
            else:
                assert f1 == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        params = manifest["params"]
        assert {"lcc_nodes", "lcc_edges", "raw_nodes", "raw_edges"} <= set(params)
        assert (out / "cora_metrics.csv").exists()
        again = cora_pipeline(spec, i1_values=[0.0, 4.0])
        assert again[1] == table
        started = record_pools(monkeypatch)  # one pool for every I1 value
        assert cora_pipeline(spec, i1_values=[0.0, 4.0], threads=2)[1] == table
        assert started == [2]

    def test_pool_gets_each_model_once(self, tmp_path, monkeypatch):
        """Items name their model and query only; each worker receives the
        models once, and the CSV is byte-identical with two workers."""
        edges, labels = gen_citation_graph(60, attach=2, seed=2)
        ep, lp = tmp_path / "edges.tsv", tmp_path / "labels.tsv"
        write_edge_file(ep, edges)
        write_label_file(lp, {i: int(l) for i, l in enumerate(labels)})
        spec = CoraSpec(str(ep), str(lp), positive_label="1", n_queries=10, K=4, seed=0)
        real, mapped = experiments._parallel_map, []

        def recording(fn, items, threads, shared=()):
            items = list(items)
            mapped.append((items, shared))
            return real(fn, items, threads, shared)

        monkeypatch.setattr(experiments, "_parallel_map", recording)
        csv = {}
        for threads in (1, 2):
            cora_pipeline(spec, i1_values=[0.0, 2.0], out_dir=tmp_path / str(threads), threads=threads)
            csv[threads] = (tmp_path / str(threads) / "cora_metrics.csv").read_bytes()
        assert csv[1] == csv[2]
        for items, shared in mapped:
            assert len(items) == 20 and len(shared) == 2
            assert not any(isinstance(x, IsingModel) for item in items for x in item)
            assert all(isinstance(model, IsingModel) for model in shared)
        assert experiments._SHARED == ()  # the serial run lets the models go
