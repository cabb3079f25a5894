"""Shared fixtures, hypothesis profile, and random-model generators."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from localmrf import IsingModel, build_model

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_connected_model(
    n: int,
    seed: int,
    max_degree: int | None = None,
    j_scale: float = 1.0,
    h_scale: float = 1.0,
    extra_edges: int | None = None,
) -> IsingModel:
    """Random spanning tree plus extra edges, optional degree cap."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    deg = [0] * n
    edges: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()

    def room(u: int) -> bool:
        return max_degree is None or deg[u] < max_degree

    for v in range(1, n):
        candidates = [u for u in range(v) if room(u)]
        u = int(candidates[rng.integers(len(candidates))])
        edges.append((u, v))
        present.add((u, v))
        deg[u] += 1
        deg[v] += 1
    want = int(rng.integers(0, n)) if extra_edges is None else extra_edges
    for _ in range(want):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present or not (room(u) and room(v)):
            continue
        present.add(key)
        edges.append(key)
        deg[u] += 1
        deg[v] += 1
    j = rng.uniform(-j_scale, j_scale, size=len(edges))
    h = rng.uniform(-h_scale, h_scale, size=n)
    return build_model([(u, v, float(jv)) for (u, v), jv in zip(edges, j)], h)


def chain_model(js: list[float], hs: list[float]) -> IsingModel:
    assert len(hs) == len(js) + 1
    return build_model([(i, i + 1, j) for i, j in enumerate(js)], hs)


def overflowing_model() -> IsingModel:
    """A model build_model accepts whose elimination tables overflow to inf."""
    return build_model(
        [(0, 1, 1e200), (0, 2, 1.5e154), (1, 2, 1e308)], [-1e200, -1e308, -0.1]
    )


@pytest.fixture
def chain3() -> IsingModel:
    # J = (0.3, 0.3), h = (0.1, 0, -0.1); flip+reverse symmetry pins p_1 = 1/2
    return chain_model([0.3, 0.3], [0.1, 0.0, -0.1])


@pytest.fixture
def chain3_mf() -> IsingModel:
    # J = (0.3, 0.5), h = (0.1, 0, 1.0); boundary solve over {1, 2} only
    return chain_model([0.3, 0.5], [0.1, 0.0, 1.0])


def sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)
