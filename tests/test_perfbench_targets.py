"""perfbench resolves the functions it traces by name; a rename breaks it."""

import importlib
from pathlib import Path

from handgeo import imaging

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    names = [name for name, _ in layers.targets().values()]
    assert "imaging.detect_edges_log" in names
    assert imaging.detect_edges_log is imaging.boundary_ring
