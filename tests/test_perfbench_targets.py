"""perfbench resolves the functions it traces by name; a rename breaks it."""

import importlib
from pathlib import Path

import pytest

from handgeo import imaging, pipeline, synthgen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    names = [name for name, _ in layers.targets().values()]
    assert "imaging.detect_edges_log" in names
    assert imaging.detect_edges_log is imaging.boundary_ring


@pytest.fixture
def tracer(monkeypatch):
    """A perfbench Tracer over perfbench's own targets."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    return importlib.import_module("tracer").Tracer(layers.targets())


def extract_stages(tracer, img):
    """Names of the spans directly under pipeline.extract, in call order."""
    with tracer.installed():
        pipeline.extract(img)
    (root,) = [i for i, s in enumerate(tracer.spans) if s.name == "pipeline.extract"]
    return [s.name for s in tracer.spans if s.parent == root]


def test_a_float_render_records_the_six_stage_spans(tracer):
    img, _ = synthgen.render(synthgen.canonical_params(0), noise_level=0.03)
    assert extract_stages(tracer, img) == [
        "imaging.lowpass_filter",
        "imaging.binarize",
        "imaging.detect_edges_log",
        "contour.trace_contour",
        "contour.find_landmarks",
        "features.measure",
    ]


def test_a_scan_records_no_filter_or_binarize_span(tracer, tmp_path):
    img, _ = synthgen.render(synthgen.canonical_params(0), noise_level=0.03)
    imaging.save_bmp(img, tmp_path / "hand.bmp")
    assert extract_stages(tracer, imaging.load_bmp(tmp_path / "hand.bmp")) == [
        "imaging.detect_edges_log",
        "contour.trace_contour",
        "contour.find_landmarks",
        "features.measure",
    ]
