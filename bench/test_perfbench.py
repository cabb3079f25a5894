"""Short traced runs of every workload: the bypass predictions hold, the
trace covers the ops, and every per-layer metric BENCHMARK.json names is
reported."""
import json
import os

import pytest

import localbench
import localmrf
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"] for m in json.load(f)["per_layer"]}


@pytest.mark.parametrize("name", sorted(localbench.WORKLOADS))
def test_traced_run_meets_predictions(name):
    original = localmrf.query_marginal
    result, lines = localbench.run(name, 0, 1.0, True, ROOT, 0.0, {})
    assert result["correct"], lines
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == _per_layer_names()
    for key in localbench.PREDICTED_ZERO[name]:
        assert metrics[key] == 0, key
    assert metrics["dobrushin.local_certificate.calls"] > 0
    assert metrics["trace.coverage"] >= 0.9
    assert localmrf.query_marginal is original  # wrappers are gone after the run


def test_missing_layer_function_is_listed_absent(monkeypatch):
    monkeypatch.delattr(localmrf.dobrushin, "spectral_radius")
    tracer = Tracer()
    with tracer.installed():
        assert "dobrushin.spectral_radius" in tracer.absent
        metrics = tracer.metrics(1, 0.0)
    assert metrics["dobrushin.spectral_radius.calls"] == (0.0, "calls/op")
