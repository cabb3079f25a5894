"""CLI contract: exit codes, JSON mirroring, config merging, file outputs."""
import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import localmrf
from localmrf import (
    build_model,
    decay_radius,
    eliminate_marginal,
    gen_citation_graph,
    load_model,
    save_model,
    write_edge_file,
    write_label_file,
)
from localmrf.cli import _HANDLERS, run
from conftest import chain_model, overflowing_model, random_connected_model
from test_same_answers import citation_model


@pytest.fixture
def chain_file(tmp_path):
    model = chain_model([0.3, 0.3], [0.1, 0.0, -0.1])
    path = tmp_path / "chain.json"
    save_model(model, path)
    return str(path)


def _json_out(capsys):
    out = capsys.readouterr().out.strip()
    return json.loads(out.splitlines()[-1])


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["radius"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["query", "--help"]) == 0

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_every_handler_has_a_parser(self, command, capsys):
        assert run([command, "--help"]) == 0

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0

    def test_computation_error_exits_one(self, capsys):
        assert run(["radius", "--c", "1.5", "--eps", "0.01"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_model_file_exits_one(self, capsys):
        assert run(["check-dobrushin", "--model", "/nonexistent.json"]) == 1

    def test_bad_query_node_exits_one(self, chain_file, capsys):
        assert run(["query", "--model", chain_file, "--node", "99"]) == 1

    def test_malformed_model_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": [[0, 1, null]], "h": [0, 0]}')
        assert run(["query", "--model", str(path), "--node", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: malformed model payload")


class TestGenGrid:
    def test_writes_model_and_reports(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = run([
            "gen-grid", "--rows", "5", "--cols", "5", "--seed", "7",
            "--out", str(out), "--json",
        ])
        assert code == 0
        payload = _json_out(capsys)
        assert payload == {"out": str(out), "n": 25, "edges": 40, "query": 18}
        model = load_model(out)
        assert model.n == 25

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["gen-grid", "--rows", "4", "--cols", "4", "--seed", "3", "--out", str(a)]) == 0
        assert run(["gen-grid", "--rows", "4", "--cols", "4", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_human_output_mentions_query(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run(["gen-grid", "--rows", "5", "--cols", "5", "--out", str(out)])
        assert "query node 18" in capsys.readouterr().out


class TestGenCitation:
    @pytest.mark.parametrize(
        "flags, kwargs",
        [
            ([], {}),
            (
                ["--attach", "3", "--homophily", "0.7", "--seed", "4"],
                {"attach": 3, "homophily": 0.7, "seed": 4},
            ),
        ],
        ids=["defaults", "explicit"],
    )
    def test_files_match_library_writers(self, tmp_path, capsys, flags, kwargs):
        out = tmp_path / "cit"
        assert run(["gen-citation", "--n", "60", *flags, "--out-dir", str(out)]) == 0
        edges, labels = gen_citation_graph(60, **kwargs)
        write_edge_file(tmp_path / "e.tsv", edges)
        write_label_file(tmp_path / "l.tsv", labels)
        assert (out / "edges.tsv").read_bytes() == (tmp_path / "e.tsv").read_bytes()
        assert (out / "labels.tsv").read_bytes() == (tmp_path / "l.tsv").read_bytes()

    def test_json_reports_paths_and_counts(self, tmp_path, capsys):
        out = tmp_path / "cit"
        assert run(["gen-citation", "--n", "30", "--out-dir", str(out), "--json"]) == 0
        assert _json_out(capsys) == {
            "edge_file": str(out / "edges.tsv"),
            "label_file": str(out / "labels.tsv"),
            "n": 30,
            "edges": 3 + 27 * 2,  # a 3-clique, then 2 links per arriving node
        }

    def test_bad_size_exits_one_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "cit"
        assert run(["gen-citation", "--n", "2", "--attach", "2", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: need n >= attach + 1")
        assert not out.exists()


class TestCheckDobrushin:
    def test_reports_coefficient(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        run(["gen-grid", "--rows", "5", "--cols", "5", "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        assert run(["check-dobrushin", "--model", str(out), "--json"]) == 0
        payload = _json_out(capsys)
        assert set(payload) == {"c", "argmax_node", "contraction"}
        assert 0.0 < payload["c"] < 1.0 and payload["contraction"] is True

    def test_human_line(self, chain_file, capsys):
        assert run(["check-dobrushin", "--model", chain_file]) == 0
        text = capsys.readouterr().out
        assert "c = " in text and "contraction holds" in text


class TestRadius:
    def test_frozen_value_with_optimizing_t(self, capsys):
        assert run(["radius", "--c", "0.5", "--eps", "0.01", "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["radius"] == 11
        assert payload["t"] > 1.0
        assert payload["c"] == 0.5 and payload["eps"] == 0.01

    def test_human_output(self, capsys):
        assert run(["radius", "--c", "0.5", "--eps", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "r = 11" in out and "optimizing t" in out

    @pytest.mark.parametrize(
        "c, eps, named",
        [("nan", "0.01", "c=nan"), ("0.5", "inf", "got inf"), ("0.5", "nan", "got nan")],
    )
    def test_non_finite_input_exits_one_naming_it(self, c, eps, named, capsys):
        assert run(["radius", "--c", c, "--eps", eps]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_subnormal_eps_gives_finite_radius(self, capsys):
        assert run(["radius", "--c", "0.5", "--eps", "1e-320", "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["radius"] == decay_radius(0.5, 1e-320)

    def test_subnormal_c_prints_no_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["radius", "--c", "1e-320", "--eps", "0.01"]) == 0
        assert "r = 1 " in capsys.readouterr().out


class TestQuery:
    def test_exact_small_chain(self, chain_file, capsys):
        code = run(["query", "--model", chain_file, "--node", "0", "--k", "3", "--json"])
        assert code == 0
        payload = _json_out(capsys)
        assert payload["marginal"] == pytest.approx(0.5456434105075804, abs=1e-12)
        assert payload["bound"] == 0.0
        assert payload["valid"] is True
        assert sorted(payload["alpha"]) == [0, 1, 2]
        assert payload["stop_reason"] in {"ReachedK", "NoImprovement", "BoundaryEmpty"}

    def test_meanfield_flags(self, chain_file, capsys):
        code = run([
            "query", "--model", chain_file, "--node", "0", "--k", "2",
            "--method", "meanfield", "--json",
        ])
        assert code == 0
        payload = _json_out(capsys)
        assert 0.0 <= payload["marginal"] <= 1.0

    def test_no_uncertified_readout(self, chain_file, capsys):
        # the mean-field readout was reported with the exact marginal's bound
        code = run([
            "query", "--model", chain_file, "--node", "0", "--inference", "meanfield",
        ])
        assert code == 2

    def test_invalid_certificate_gives_null_bound(self, tmp_path, capsys):
        model = build_model(
            [(0, 1, 0.1), (1, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0)],
            [0.0, -2.0, -2.0, -2.0],
        )
        path = tmp_path / "bad.json"
        save_model(model, path)
        code = run([
            "query", "--model", str(path), "--node", "0", "--k", "4",
            "--delta=-inf", "--json",
        ])
        assert code == 0
        payload = _json_out(capsys)
        assert payload["bound"] is None and payload["valid"] is False

    def test_degraded_query_reports_no_bound(self, tmp_path, capsys):
        # a degraded trace whose final certificate is valid: the answer is
        # not, so neither output may show the certificate's finite bound
        path = tmp_path / "degraded.json"
        save_model(random_connected_model(12, 207, j_scale=4.0), path)
        args = ["query", "--model", str(path), "--node", "0", "--k", "8", "--delta=-inf"]
        assert run(args + ["--method", "meanfield", "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["degraded"] is True and payload["valid"] is False
        assert payload["bound"] is None
        assert run(args + ["--method", "meanfield"]) == 0
        assert "certified error bound = unavailable" in capsys.readouterr().out

    def test_nan_delta_exits_one(self, chain_file, capsys):
        # a NaN delta compares false with every bound, so growth stopped
        # at once with NoImprovement
        assert run(["query", "--model", chain_file, "--node", "0", "--delta", "nan"]) == 1
        assert capsys.readouterr().err.startswith("error: delta must not be NaN")

    def test_overflowing_elimination_exits_1(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        save_model(overflowing_model(), path)
        assert run(["query", "--model", str(path), "--node", "0", "--k", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: elimination overflows")

    def test_query_over_degree_cap(self, tmp_path, capsys):
        # node 4 has degree 40, over ENUMERATION_CAP; only couplings in alpha are searched
        path = tmp_path / "citation.json"
        save_model(citation_model(), path)
        assert run(["query", "--model", str(path), "--node", "4", "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["valid"] is True and 0.0 < payload["bound"] < 1.0


class TestExpand:
    def test_stdout_jsonl(self, chain_file, capsys):
        assert run(["expand", "--model", chain_file, "--node", "0", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"best_bound", "bounds", "candidates", "chosen"}

    def test_out_file_and_summary_json(self, chain_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = run([
            "expand", "--model", chain_file, "--node", "0", "--k", "3",
            "--out", str(trace), "--json",
        ])
        assert code == 0
        payload = _json_out(capsys)
        assert set(payload) == {"alpha", "bound", "stop_reason", "degraded", "steps"}
        content = trace.read_text()
        assert len(content.strip().splitlines()) == payload["steps"]


class TestExperimentCommands:
    def test_heatmap(self, tmp_path, capsys):
        out = tmp_path / "hm"
        code = run([
            "heatmap", "--i1", "0,1", "--i2", "0,0.3", "--rows", "3", "--cols", "3",
            "--trials", "2", "--out-dir", str(out), "--json",
        ])
        assert code == 0
        assert (out / "heatmap.csv").exists() and (out / "manifest.json").exists()
        assert _json_out(capsys)["cells"] == 4

    def test_compare_expansion(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run([
            "compare-expansion", "--rows", "3", "--cols", "3", "--k", "3",
            "--trials", "2", "--methods", "greedy_drop,maxnorm",
            "--out-dir", str(out),
        ])
        assert code == 0
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header == "size,err_greedy_drop,err_maxnorm,bound_greedy_drop,bound_maxnorm"

    def test_compare_expansion_empty_methods_exits_one(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run([
            "compare-expansion", "--rows", "3", "--cols", "3", "--k", "2",
            "--trials", "1", "--methods", ",", "--out-dir", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: methods must name at least one strategy\n"
        assert not (out / "comparison.csv").exists()

    def test_i1_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run([
            "i1-sweep", "--i1", "0,1", "--rows", "3", "--cols", "3", "--k", "3",
            "--trials", "2", "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "i1_sweep.csv").read_text().startswith("i1,mean_error,mean_bound\n")

    def test_i1_sweep_zero_trials_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run(["i1-sweep", "--i1", "1", "--trials", "0", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: trials must be >= 1\n"
        assert not (out / "i1_sweep.csv").exists()

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["cora", "--edges", "e", "--labels", "l", "--positive-label", "1", "--i1", ""], "''"),
            (["i1-sweep", "--i1", ","], "','"),
            (["heatmap", "--i1", ",", "--i2", "0.3"], "','"),
        ],
        ids=["cora", "i1-sweep", "heatmap"],
    )
    def test_empty_float_list_is_usage_error(self, argv, text, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["--out-dir", str(out)]) == 2
        assert f"argument --i1: empty float list: {text}" in capsys.readouterr().err
        assert not out.exists()

    def test_cora(self, tmp_path, capsys):
        from localmrf import gen_citation_graph, write_edge_file, write_label_file

        edges, labels = gen_citation_graph(40, attach=2, seed=2)
        ep, lp = tmp_path / "e.tsv", tmp_path / "l.tsv"
        write_edge_file(ep, edges)
        write_label_file(lp, {i: int(l) for i, l in enumerate(labels)})
        out = tmp_path / "cora"
        code = run([
            "cora", "--edges", str(ep), "--labels", str(lp),
            "--positive-label", "1", "--degree-cap", "8", "--i1", "0,2",
            "--n-queries", "5", "--k", "3", "--out-dir", str(out),
        ])
        assert code == 0
        text = (out / "cora_metrics.csv").read_text()
        assert text.startswith("i1,acc_global_vs_true,")
        assert len(text.strip().splitlines()) == 3


class TestConfig:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 4, "cols": 4, "seed": 9}))
        out = tmp_path / "m.json"
        code = run([
            "gen-grid", "--config", str(cfg), "--rows", "3",
            "--out", str(out), "--json",
        ])
        assert code == 0
        payload = _json_out(capsys)
        assert payload["n"] == 12  # explicit rows=3 beats config, config cols=4 holds

    def test_config_before_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 0.5, "eps": 0.01}))
        assert run(["--config", str(cfg), "radius", "--json"]) == 0
        assert _json_out(capsys)["radius"] == 11

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_config_equals_path_is_read(self, tmp_path, capsys, before):
        # --config=PATH reads the file as --config PATH does, in either position
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"json": True}))
        radius = ["radius", "--c", "0.5", "--eps", "0.01"]
        flag = [f"--config={cfg}"]
        assert run(flag + radius if before else radius + flag) == 0
        assert _json_out(capsys) == {"c": 0.5, "eps": 0.01, "radius": 11, "t": 1.2}

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_config_equals_empty_is_usage_error(self, capsys, before):
        radius = ["radius", "--c", "0.5", "--eps", "0.01"]
        assert run(["--config="] + radius if before else radius + ["--config="]) == 2
        assert "--config needs a path" in capsys.readouterr().err

    def test_config_missing_file_is_usage_error(self, capsys):
        assert run(["gen-grid", "--config", "/nope.json", "--out", "x"]) == 2

    def test_config_non_object_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1,2]")
        assert run(["gen-grid", "--config", str(cfg), "--out", "x"]) == 2

    def test_config_without_path_is_usage_error(self, capsys):
        assert run(["gen-grid", "--config"]) == 2

    def test_cap_is_not_a_setting(self, chain_file, tmp_path, capsys):
        # ENUMERATION_CAP is a constant: neither a flag nor a config key sets it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 3}))
        query = ["query", "--model", chain_file, "--node", "0"]
        assert run(query) == 0
        assert run(query + ["--cap", "3"]) == 2
        assert run([*query, "--config", str(cfg)]) == 2


class TestThreads:
    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LOCALMRF_THREADS", "2")
        out = tmp_path / "hm"
        code = run([
            "heatmap", "--i1", "0.5", "--i2", "0.2", "--rows", "3", "--cols", "3",
            "--trials", "2", "--out-dir", str(out),
        ])
        assert code == 0

    def test_env_var_garbage_tolerated(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LOCALMRF_THREADS", "many")
        assert run(["radius", "--c", "0.5", "--eps", "0.1"]) == 0


class TestConsoleScript:
    def test_module_entry_point(self):
        # run the package under test, whether or not a copy is installed
        src = os.path.dirname(os.path.dirname(localmrf.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "localmrf.cli"],
            capture_output=True,
            text=True,
            input="",
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2  # no subcommand: usage error via main()

    @pytest.mark.skipif(
        shutil.which("localmrf") is None,
        reason="no `localmrf` console script on PATH (package not pip-installed)",
    )
    def test_entry_point_installed(self):
        proc = subprocess.run(
            ["localmrf", "radius", "--c", "0.5", "--eps", "0.01"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "r = 11" in proc.stdout
