"""Shared fixtures: small graphs and model parameters."""

from __future__ import annotations

import pytest

from repro import ModelParams
from repro.graphs import (
    AdjacencyGraph,
    CompleteTree,
    GridGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)


@pytest.fixture
def path10() -> AdjacencyGraph:
    return path_graph(10)


@pytest.fixture
def cycle12() -> AdjacencyGraph:
    return cycle_graph(12)


@pytest.fixture
def grid7() -> GridGraph:
    return GridGraph((7, 7))


@pytest.fixture
def torus8() -> AdjacencyGraph:
    return torus_graph((8, 8))


@pytest.fixture
def binary_tree4() -> CompleteTree:
    return CompleteTree(2, 4)


@pytest.fixture
def ternary_tree3() -> CompleteTree:
    return CompleteTree(3, 3)


@pytest.fixture
def k6() -> AdjacencyGraph:
    return complete_graph(6)


@pytest.fixture
def star8() -> AdjacencyGraph:
    return star_graph(8)


@pytest.fixture
def regular64() -> AdjacencyGraph:
    return random_regular_graph(64, 3, seed=42)


@pytest.fixture
def small_params() -> ModelParams:
    return ModelParams(block_size=4, memory_size=8)
