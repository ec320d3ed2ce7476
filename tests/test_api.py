"""The public names of the package: each export resolves, and removed entry points stay gone."""

from __future__ import annotations

import dataclasses
import inspect

import lsimpute
from lsimpute import graph


def test_every_exported_name_resolves():
    assert len(set(lsimpute.__all__)) == len(lsimpute.__all__)
    assert [name for name in lsimpute.__all__ if not hasattr(lsimpute, name)] == []


def test_removed_entry_points_are_gone():
    removed = [
        (lsimpute, "connected_components"),
        (graph, "connected_components"),
        (graph, "Triple"),
        (lsimpute.NeighborGraph, "edges"),
        (lsimpute.NeighborGraph, "min_degree"),
        (lsimpute.WeightMatrix, "row_entries"),
        (lsimpute.EmbeddingMatrix, "subset"),
        (lsimpute.OrthogonalMap, "apply"),
    ]
    assert [f"{owner.__name__}.{name}" for owner, name in removed if hasattr(owner, name)] == []
    assert "connected_components" not in lsimpute.__all__
    fields = {f.name for f in dataclasses.fields(lsimpute.ImputationResult)}
    assert "unreachable_nodes" not in fields and "unreachable_tokens" in fields
    assert list(inspect.signature(lsimpute.align_baseline).parameters) == ["semantic", "domain"]


def test_evaluate_config_is_exported_with_its_defaults():
    cfg = lsimpute.EvaluateConfig()
    assert (cfg.resamples, cfg.seed, cfg.split_seed) == (1000, 0, 1)
