"""Model construction, regions, localisation, and file I/O."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from localmrf import (
    BoundaryMethod,
    IsingModel,
    MeanFieldDivergence,
    ModelError,
    RegionError,
    build_model,
    connected_component,
    connected_components,
    eliminate_marginal,
    graph_distance,
    grid_edges,
    grid_node_id,
    load_model,
    localize,
    make_region,
    model_json,
    read_edge_list,
    read_labels,
    save_model,
)
from test_frontier import grown_reference
from conftest import chain_model, random_connected_model, sigmoid


class TestBuildModel:
    def test_single_node(self):
        m = build_model([], [0.5])
        assert m.n == 1 and m.adjacency == ((),) and max(map(len, m.adjacency)) == 0

    def test_adjacency_sorted_and_symmetric(self):
        m = build_model([(2, 0, 0.1), (1, 2, -0.2)], [0.0, 0.0, 0.0])
        assert m.adjacency == ((2,), (2,), (0, 1))
        assert m.coupling(0, 2) == m.coupling(2, 0) == 0.1
        assert m.coupling(0, 1) == 0.0
        assert max(map(len, m.adjacency)) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError, match="self loop on node 1"):
            build_model([(1, 1, 0.3)], [0.0, 0.0])

    def test_duplicate_edge_rejected_either_order(self):
        with pytest.raises(ModelError, match="duplicate edge"):
            build_model([(0, 1, 0.3), (1, 0, 0.2)], [0.0, 0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ModelError, match=r"edge \(0, 5\) out of range"):
            build_model([(0, 5, 0.3)], [0.0, 0.0])

    def test_non_finite_field_named(self):
        with pytest.raises(ModelError, match=r"h\[1\]"):
            build_model([], [0.0, math.nan])

    def test_non_finite_coupling_named(self):
        with pytest.raises(ModelError, match=r"edge \(0, 1\)"):
            build_model([(0, 1, math.inf)], [0.0, 0.0])

    def test_grid_shape(self):
        # 10x10 lattice: 100 nodes, 2*10*9 = 180 edges
        edges = grid_edges(10, 10)
        assert len(edges) == 180
        m = build_model([(u, v, 0.1) for u, v in edges], [0.0] * 100)
        assert m.n == 100 and max(map(len, m.adjacency)) == 4

    def test_grid_node_id(self):
        assert grid_node_id(0, 0, 10) == 0
        assert grid_node_id(5, 5, 10) == 55


class TestSerialization:
    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_round_trip_bit_identical(self, n, seed):
        m = random_connected_model(n, seed)
        m2 = IsingModel.from_dict(json.loads(model_json(m)))
        assert m2.n == m.n
        assert m2.J == m.J
        assert np.array_equal(m2.h, m.h)
        assert m2.adjacency == m.adjacency

    def test_save_load_file(self, tmp_path):
        m = random_connected_model(7, 3)
        p = tmp_path / "model.json"
        save_model(m, p)
        m2 = load_model(p)
        assert m2.J == m.J and np.array_equal(m2.h, m.h)
        # canonical bytes: same model -> same file
        assert p.read_text() == model_json(m)
        assert p.read_text().endswith("\n")

    def test_payload_validation(self):
        with pytest.raises(ModelError, match="missing field"):
            IsingModel.from_dict({"n": 2, "edges": []})
        with pytest.raises(ModelError, match="2 entries for n=3"):
            IsingModel.from_dict({"n": 3, "edges": [], "h": [0.0, 0.0]})

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 2, "edges": [], "h": 5},
            {"n": 2, "edges": 5, "h": [0, 0]},
            {"n": 2, "edges": [[0, 1, None]], "h": [0, 0]},
            {"n": 2, "edges": [[0.5, 1, 1]], "h": [0, 0]},
            {"n": 2, "edges": [], "h": "12"},
            {"n": True, "edges": [], "h": [0]},
            {"n": 1.5, "edges": [], "h": [0]},
        ],
    )
    def test_wrong_shape_payload_is_model_error(self, payload):
        with pytest.raises(ModelError, match="malformed model payload"):
            IsingModel.from_dict(payload)


class TestDistances:
    def test_distance_to_self(self):
        m = chain_model([0.1], [0.0, 0.0])
        assert graph_distance(m, 0, [0]) == {0: 0.0}

    def test_chain_distance(self):
        m = chain_model([0.1, 0.1], [0.0, 0.0, 0.0])
        assert graph_distance(m, 0, [2]) == {2: 2.0}
        assert min(graph_distance(m, 0, [1, 2]).values()) == 1.0

    def test_unreachable_is_inf(self):
        m = build_model([], [0.0, 0.0])
        assert graph_distance(m, 0)[1] == math.inf
        assert min(graph_distance(m, 0, [1]).values()) == math.inf

    def test_grid_center_to_outer_ring(self):
        m = build_model([(u, v, 0.1) for u, v in grid_edges(10, 10)], [0.0] * 100)
        ring = [
            grid_node_id(r, c, 10)
            for r in range(10)
            for c in range(10)
            if r in (0, 9) or c in (0, 9)
        ]
        assert min(graph_distance(m, grid_node_id(5, 5, 10), ring).values()) == 4.0

    def test_source_validated(self):
        m = build_model([], [0.0])
        with pytest.raises(ModelError):
            graph_distance(m, 5)

    @pytest.mark.parametrize("target", [-1, 2])
    def test_targets_validated(self, target):
        # a negative id used to read the distance of node n + target
        m = chain_model([0.1], [0.0, 0.0])
        with pytest.raises(ModelError, match=f"target {target} out of range"):
            graph_distance(m, 0, [0, target])

    def test_components(self):
        m = build_model([(0, 1, 0.1), (3, 4, 0.1)], [0.0] * 5)
        assert connected_component(m, 4) == (3, 4)
        assert connected_components(m) == [(0, 1), (2,), (3, 4)]


class TestRegion:
    def test_alpha_all_nodes(self, chain3):
        r = make_region(chain3, [0, 1, 2], 1)
        assert r.boundary_alpha == () and r.boundary_beta == () and r.cross_edges == ()

    def test_chain_single_node_alpha(self, chain3):
        r = make_region(chain3, [0], 0)
        assert r.boundary_alpha == (0,)
        assert r.boundary_beta == (1,)
        assert r.cross_edges == ((0, 1, 0.3),)

    def test_grid_corner_block(self):
        m = build_model([(u, v, 0.1) for u, v in grid_edges(3, 3)], [0.0] * 9)
        r = make_region(m, [0, 1, 3, 4], 0)
        assert r.boundary_alpha == (1, 3, 4)
        assert len(r.cross_edges) == 4
        assert r.boundary_beta == (2, 5, 6, 7)

    def test_query_must_be_in_alpha(self, chain3):
        with pytest.raises(RegionError, match="query 2 not in alpha"):
            make_region(chain3, [0, 1], 2)

    def test_duplicates_rejected(self, chain3):
        with pytest.raises(RegionError, match="duplicate"):
            make_region(chain3, [0, 0], 0)

    def test_out_of_range_rejected(self, chain3):
        with pytest.raises(RegionError, match="out of range"):
            make_region(chain3, [0, 7], 0)

    @given(st.integers(2, 14), st.integers(0, 10**6), st.integers(1, 14))
    def test_growth_matches_direct_split(self, n, seed, size):
        """make_region grows node by node; the reference splits alpha in one
        pass: cross edges in alpha order, then ascending neighbour id."""
        m = random_connected_model(n, seed)
        rng = np.random.Generator(np.random.Philox(seed))
        alpha = tuple(int(a) for a in rng.permutation(n)[: min(size, n)])
        inside = set(alpha)
        cross = tuple(
            (j, k, m.coupling(j, k)) for j in alpha for k in m.adjacency[j] if k not in inside
        )
        r = make_region(m, alpha, alpha[0])
        assert (r.query, r.alpha, r.cross_edges) == (alpha[0], alpha, cross)
        assert r.boundary_alpha == tuple(sorted({j for j, _, _ in cross}))
        assert r.boundary_beta == tuple(sorted({k for _, k, _ in cross}))
        if len(alpha) > 1:
            assert grown_reference(m, make_region(m, alpha[:-1], alpha[0]), alpha[-1]) == r


class TestLocalize:
    def test_dropout_keeps_fields(self, chain3):
        r = make_region(chain3, [0, 1], 0)
        loc = localize(chain3, r, BoundaryMethod.DROP_OUT)
        assert loc.alpha == (0, 1) and loc.submodel.h.tolist() == [0.1, 0.0]
        assert {(loc.alpha[u], loc.alpha[v]): j for u, v, j in loc.submodel.edges()} == {(0, 1): 0.3}

    def test_meanfield_zero_cross_keeps_fields(self):
        m = chain_model([0.3, 0.0], [0.1, -0.2, 0.4])
        r = make_region(m, [0, 1], 0)
        loc = localize(m, r, BoundaryMethod.MEAN_FIELD)
        assert loc.alpha == (0, 1) and loc.submodel.h.tolist() == [0.1, -0.2]

    def test_meanfield_chain_compensation(self, chain3_mf):
        # boundary solve over {1, 2}: m_1 = tanh(0.5 m_2), m_2 = tanh(1 + 0.5 m_1)
        r = make_region(chain3_mf, [0, 1], 0)
        loc = localize(chain3_mf, r, BoundaryMethod.MEAN_FIELD)
        assert loc.submodel.h[loc.index_of(0)] == 0.1
        assert loc.submodel.h[loc.index_of(1)] == pytest.approx(0.41635771175752245, abs=1e-9)

    def test_meanfield_divergence_carries_residual(self, chain3_mf, monkeypatch):
        from localmrf import MeanFieldDivergence, meanfield

        # the sweep kernel is asked for a tolerance no run meets, in one sweep
        real = meanfield._sweeps
        monkeypatch.setattr(
            meanfield, "_sweeps",
            lambda rows, m, tol, max_iter: real(rows, m, 1e-30, 1),
        )
        r = make_region(chain3_mf, [0, 1], 0)
        with pytest.raises(MeanFieldDivergence) as exc:
            localize(chain3_mf, r, BoundaryMethod.MEAN_FIELD)
        assert exc.value.residual > 1e-30

    def test_meanfield_non_finite_field_named(self):
        # a near-max field plus a near-max cross coupling: the compensated
        # field of node 0 overflows, and localize says so
        m = build_model([(0, 1, 1e308)], [1.7e308, 1.0])
        with pytest.raises(ModelError, match=r"non-finite field h\[0\]=inf"):
            localize(m, make_region(m, [0], 0), BoundaryMethod.MEAN_FIELD)

    def test_meanfield_overflow_names_the_lowest_index(self):
        # nodes 1 and 2 each add 8e307 * m_3 (m_3 near +1) to a field of
        # 1.7e308: both overflow, and the error names the lower local index
        m = build_model(
            [(0, 1, 0.3), (0, 2, 0.2), (1, 3, 8e307), (2, 3, 8e307)],
            [0.1, 1.7e308, 1.7e308, 1.0],
        )
        with pytest.raises(ModelError, match=r"non-finite field h\[1\]=inf"):
            localize(m, make_region(m, [0, 2, 1], 0), BoundaryMethod.MEAN_FIELD)

    def test_dropout_equals_edge_deleted_global(self):
        m = random_connected_model(9, 11, j_scale=0.6)
        r = make_region(m, [0, 1, 2, 3], 2)
        loc = localize(m, r, BoundaryMethod.DROP_OUT)
        p_local = eliminate_marginal(loc.submodel, loc.index_of(2))
        cut = set((min(u, v), max(u, v)) for u, v, _ in r.cross_edges)
        kept = [(u, v, j) for u, v, j in m.edges() if (u, v) not in cut]
        p_global_cut = eliminate_marginal(build_model(kept, m.h), 2)
        assert p_local == pytest.approx(p_global_cut, abs=1e-12)

    @pytest.mark.parametrize("method", [BoundaryMethod.DROP_OUT, BoundaryMethod.MEAN_FIELD])
    def test_independent_of_far_parameters(self, method):
        # mutate everything >= 2 hops outside alpha: localisation is bit-identical
        m = random_connected_model(12, 5, j_scale=0.4)
        alpha = [0, 1]
        r = make_region(m, alpha, 0)
        near = set(alpha) | set(r.boundary_beta)
        h2 = m.h.copy()
        edges2 = []
        for u, v, j in m.edges():
            if u in near and v in near:
                edges2.append((u, v, j))
            else:
                edges2.append((u, v, j + 1.7))
        for i in range(m.n):
            if i not in near:
                h2[i] += 3.0
        m2 = build_model(edges2, h2)
        loc = localize(m, r, method)
        loc2 = localize(m2, make_region(m2, alpha, 0), method)
        assert loc.alpha == loc2.alpha
        assert loc.submodel.h.tolist() == loc2.submodel.h.tolist()
        assert list(loc.submodel.edges()) == list(loc2.submodel.edges())

    @pytest.mark.parametrize("method", [BoundaryMethod.DROP_OUT, BoundaryMethod.MEAN_FIELD])
    def test_submodel_built_on_first_read(self, method, monkeypatch):
        from localmrf import model as model_module

        m = random_connected_model(10, 3, j_scale=0.4)
        r = make_region(m, [4, 0, 7, 2], 4)
        built = []

        class Counted(model_module.IsingModel):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(model_module, "IsingModel", Counted)
        loc = localize(m, r, method)
        assert built == []
        sub = loc.submodel
        assert loc.submodel is sub and len(built) == 1
        index = {g: i for i, g in enumerate(r.alpha)}
        # alpha-internal edges in alpha order, then ascending neighbour id
        want = [
            (index[u], index[v], m.coupling(u, v))
            for u in r.alpha
            for v in m.adjacency[u]
            if v in index and u < v
        ]
        assert list(sub.edges()) == [(min(u, v), max(u, v), j) for u, v, j in want]
        assert sub.h.tobytes() == loc.h.tobytes() and sub.h is not loc.h

    def test_single_node_region_marginal_is_logistic(self):
        m = chain_model([0.4], [0.5, -0.3])
        r = make_region(m, [0], 0)
        loc = localize(m, r, BoundaryMethod.DROP_OUT)
        p = eliminate_marginal(loc.submodel, 0)
        assert p == pytest.approx(sigmoid(2 * 0.5), abs=1e-14)


class TestSubmodel:
    """The alpha-only model, read off the global model, is the model
    build_model builds from alpha's internal edges and the fields."""

    @staticmethod
    def assert_built(loc):
        index = {g: i for i, g in enumerate(loc.alpha)}
        edges = [
            (index[gi], index[gj], loc.model.coupling(gi, gj))
            for gi in loc.alpha
            for gj in loc.model.adjacency[gi]
            if gj in index and gi < gj
        ]
        want, got = build_model(edges, loc.h), loc.submodel
        assert type(got) is IsingModel and got.n == want.n
        assert got.adjacency == want.adjacency
        assert [(key, j.hex()) for key, j in got.J.items()] == [
            (key, j.hex()) for key, j in want.J.items()
        ]
        assert got.h.dtype == want.h.dtype and got.h.tobytes() == want.h.tobytes()
        assert got.h is not loc.h

    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_random_regions(self, n, seed):
        model = random_connected_model(n, seed)
        rng = np.random.Generator(np.random.Philox(seed))
        alpha = [int(v) for v in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        for method in BoundaryMethod:
            try:
                loc = localize(model, make_region(model, alpha, alpha[0]), method)
            except MeanFieldDivergence:
                continue
            self.assert_built(loc)

    def test_grid_and_hub_regions(self):
        from localmrf import GridSpec, gen_grid, greedy_expand
        from test_same_answers import CITATION_QUERIES, citation_model

        spec = GridSpec(10, 10, I1=1.0, I2=0.25, seed=0)
        citation = citation_model()
        assert citation.degree(CITATION_QUERIES[0]) == 24
        for model, query in [(gen_grid(spec), spec.query), (citation, CITATION_QUERIES[0])]:
            for method in BoundaryMethod:
                trace = greedy_expand(model, query, K=12, delta=-math.inf, method=method)
                for cert in trace.certificates:
                    self.assert_built(cert.localized)


class TestFileReaders:
    def test_edge_list_with_comments_and_optional_weight(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("# comment\n\n0\t1\n2\t3\t-0.25\n")
        assert read_edge_list(p) == [(0, 1, None), (2, 3, -0.25)]

    def test_edge_list_malformed_names_line(self, tmp_path):
        p = tmp_path / "edges.tsv"
        for bad in ("x\t2", "0.5\t2"):
            p.write_text(f"0\t1\n{bad}\n")
            with pytest.raises(ModelError, match=r"edges\.tsv:2"):
                read_edge_list(p)

    def test_edge_list_wrong_field_count(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("0\t1\t2\t3\n")
        with pytest.raises(ModelError, match=r":1: expected 2 or 3"):
            read_edge_list(p)

    def test_labels(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("# c\n3\tGenetic_Algorithms\n5\t1\n")
        assert read_labels(p) == {3: "Genetic_Algorithms", 5: "1"}

    def test_labels_malformed_names_line(self, tmp_path):
        p = tmp_path / "labels.tsv"
        for bad in ("nope", "0.5"):
            p.write_text(f"3\tA\n{bad}\tB\n")
            with pytest.raises(ModelError, match=r"labels\.tsv:2"):
                read_labels(p)
