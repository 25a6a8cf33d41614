"""Which handgeo functions the traced run wraps, and the per-layer metrics.

Each traced function becomes one span named ``<module>.<function>``. A few
spans also carry counts read from the call's arguments or result (pixels,
chain codes, training shapes, centres). Every metric is computed from the
spans of one traced run: the set-up plus the traced operations. A layer
that a workload never calls reads 0.
"""

from __future__ import annotations

import inspect
import statistics
from typing import Callable

from tracer import Span, Tracer


def _bind(fn: Callable, args: tuple, kwargs: dict) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def targets() -> dict[Callable, tuple[str, Callable | None]]:
    """Original function -> (span name, observer) for every traced function."""
    from handgeo import (
        classifiers,
        cli,
        contour,
        evaluation,
        features,
        imaging,
        pipeline,
        synthgen,
    )

    def pixels(args, kwargs, result, exc):
        return {"pixels": int(_bind(imaging.lowpass_filter, args, kwargs)["img"].pixels.size)}

    def codes(args, kwargs, chain, exc):
        return {} if exc else {"codes": len(chain.codes)}

    def lm_shapes(args, kwargs, model, exc):
        a = _bind(classifiers.mlp_train, args, kwargs)
        train, cfg, hidden = a["train"], a["cfg"], a["hidden"]
        n_in = len(train[0][1])
        n_out = len({int(p) for p, _ in train})
        cols = hidden * n_in + hidden + n_out * hidden + n_out
        rows = len(train) * n_out + (cols if cfg.loss == "msereg" and cfg.gamma < 1.0 else 0)
        out = {"loss": cfg.loss, "epochs": cfg.epochs, "rows": rows, "cols": cols}
        if model is not None:
            out["accepted"] = len(model.loss_history) - 1
        return out

    def centres(args, kwargs, model, exc):
        requested = _bind(classifiers.rbf_train, args, kwargs)["n_centres"]
        return {"requested": requested, "achieved": 0 if exc else len(model.centres)}

    def images(args, kwargs, corpus, exc):
        return {} if exc else {"images": sum(len(row) for row in corpus.images)}

    table = {
        imaging: {
            "load_bmp": None,
            "save_bmp": None,
            "lowpass_filter": pixels,
            "binarize": None,
            "detect_edges_log": None,
        },
        contour: {"trace_contour": codes, "find_landmarks": None},
        features: {"measure": None, "apply_scaler": None, "load_features": None},
        pipeline: {"extract": None},
        classifiers: {
            "mlp_train": lm_shapes,
            "multistart_select": None,
            "rbf_train": centres,
            "nn_identify": None,
            "mlp_identify": None,
            "committee_identify": None,
            "rbf_identify": None,
        },
        evaluation: {"evaluate_features": None, "run_identification": None, "emit_table": None},
        synthgen: {"render": None, "make_corpus": images, "save_corpus": None},
        cli: {"main": None},
    }
    out = {}
    for module, names in table.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name, observe in names.items():
            out[getattr(module, name)] = (f"{layer}.{name}", observe)
    return out


class _Spans:
    """Lookups over one traced run."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.own = tracer.self_times()
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            self.by_name.setdefault(s.name, []).append(i)

    def of(self, name: str, where: Callable[[Span], bool] | None = None) -> list[int]:
        idx = self.by_name.get(name, [])
        return [i for i in idx if where is None or where(self.spans[i])]

    def median(self, name: str, scale: float, where=None, self_time: bool = False) -> float:
        idx = self.of(name, where)
        values = [self.own[i] if self_time else self.spans[i].duration for i in idx]
        return statistics.median(values) * scale if values else 0.0

    def attrs(self, name: str) -> list[dict]:
        return [self.spans[i].attrs for i in self.of(name)]

    def total(self, name: str, key: str) -> float:
        return sum(a.get(key, 0) for a in self.attrs(name))

    def busy(self, name: str) -> float:
        return sum(self.spans[i].duration for i in self.of(name))

    def count(self, name: str, where=None) -> int:
        return len(self.of(name, where))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mse(s: Span) -> bool:
    return s.attrs.get("loss") == "mse"


def _msereg(s: Span) -> bool:
    return s.attrs.get("loss") == "msereg"


def _failed(s: Span) -> bool:
    return "error" in s.attrs


MS, US = 1e3, 1e6

#: (metric, unit, value from the run's spans). The order is BENCHMARK.json's.
METRICS: list[tuple[str, str, Callable[[_Spans], float]]] = [
    ("imaging.load_bmp.ms", "ms", lambda t: t.median("imaging.load_bmp", MS)),
    ("imaging.lowpass_filter.ms", "ms", lambda t: t.median("imaging.lowpass_filter", MS)),
    ("imaging.binarize.ms", "ms", lambda t: t.median("imaging.binarize", MS)),
    ("imaging.detect_edges_log.ms", "ms", lambda t: t.median("imaging.detect_edges_log", MS)),
    ("imaging.save_bmp.ms", "ms", lambda t: t.median("imaging.save_bmp", MS)),
    (
        "imaging.pixels_per_image",
        "count",
        lambda t: _ratio(t.total("imaging.lowpass_filter", "pixels"), t.count("imaging.lowpass_filter")),
    ),
    ("contour.trace_contour.ms", "ms", lambda t: t.median("contour.trace_contour", MS)),
    ("contour.trace_contour.calls", "count", lambda t: t.count("contour.trace_contour")),
    (
        "contour.chain_codes_per_image",
        "count",
        lambda t: _ratio(
            t.total("contour.trace_contour", "codes"),
            t.count("contour.trace_contour", lambda s: not _failed(s)),
        ),
    ),
    (
        "contour.trace_contour.us_per_code",
        "us",
        lambda t: _ratio(US * t.busy("contour.trace_contour"), t.total("contour.trace_contour", "codes")),
    ),
    ("contour.find_landmarks.ms", "ms", lambda t: t.median("contour.find_landmarks", MS)),
    ("contour.landmark_rejects", "count", lambda t: t.count("contour.find_landmarks", _failed)),
    ("features.measure.ms", "ms", lambda t: t.median("features.measure", MS)),
    ("features.apply_scaler.us", "us", lambda t: t.median("features.apply_scaler", US)),
    ("features.load_features.ms", "ms", lambda t: t.median("features.load_features", MS)),
    ("pipeline.extract.ms", "ms", lambda t: t.median("pipeline.extract", MS)),
    ("pipeline.extract.self_ms", "ms", lambda t: t.median("pipeline.extract", MS, self_time=True)),
    ("classifiers.mlp_train_mse.s", "s", lambda t: t.median("classifiers.mlp_train", 1.0, _mse)),
    (
        "classifiers.mlp_train_msereg.s",
        "s",
        lambda t: t.median("classifiers.mlp_train", 1.0, _msereg),
    ),
    ("classifiers.mlp_train.runs", "count", lambda t: t.count("classifiers.mlp_train")),
    (
        "classifiers.mlp_train.accepted_epoch_ratio",
        "ratio",
        lambda t: _ratio(
            t.total("classifiers.mlp_train", "accepted"), t.total("classifiers.mlp_train", "epochs")
        ),
    ),
    # J.T @ J once per epoch on a dense rows x cols float64 Jacobian.
    (
        "classifiers.mlp_train.gram_gflop_computed",
        "GFLOP",
        lambda t: sum(2e-9 * a["epochs"] * a["rows"] * a["cols"] ** 2 for a in t.attrs("classifiers.mlp_train")),
    ),
    (
        "classifiers.mlp_train.jacobian_mb_computed",
        "MB",
        lambda t: max((8e-6 * a["rows"] * a["cols"] for a in t.attrs("classifiers.mlp_train")), default=0.0),
    ),
    ("classifiers.multistart_select.ms", "ms", lambda t: t.median("classifiers.multistart_select", MS)),
    ("classifiers.rbf_train.ms", "ms", lambda t: t.median("classifiers.rbf_train", MS)),
    (
        "classifiers.rbf_train.centre_ratio",
        "ratio",
        lambda t: _ratio(
            t.total("classifiers.rbf_train", "achieved"), t.total("classifiers.rbf_train", "requested")
        ),
    ),
    ("classifiers.nn_identify.us", "us", lambda t: t.median("classifiers.nn_identify", US)),
    ("classifiers.mlp_identify.us", "us", lambda t: t.median("classifiers.mlp_identify", US)),
    (
        "classifiers.committee_identify.us",
        "us",
        lambda t: t.median("classifiers.committee_identify", US),
    ),
    ("classifiers.rbf_identify.us", "us", lambda t: t.median("classifiers.rbf_identify", US)),
    ("evaluation.evaluate_features.s", "s", lambda t: t.median("evaluation.evaluate_features", 1.0)),
    (
        "evaluation.evaluate_features.self_s",
        "s",
        lambda t: t.median("evaluation.evaluate_features", 1.0, self_time=True),
    ),
    ("evaluation.run_identification.ms", "ms", lambda t: t.median("evaluation.run_identification", MS)),
    ("evaluation.emit_table.ms", "ms", lambda t: t.median("evaluation.emit_table", MS)),
    ("synthgen.render.ms", "ms", lambda t: t.median("synthgen.render", MS)),
    ("synthgen.make_corpus.self_s", "s", lambda t: t.median("synthgen.make_corpus", 1.0, self_time=True)),
    ("synthgen.render.attempts", "count", lambda t: t.count("synthgen.render")),
    (
        "synthgen.render_accept_ratio",
        "ratio",
        lambda t: _ratio(t.total("synthgen.make_corpus", "images"), t.count("synthgen.render")),
    ),
    ("synthgen.save_corpus.s", "s", lambda t: t.median("synthgen.save_corpus", 1.0)),
    ("cli.main.self_ms", "ms", lambda t: t.median("cli.main", MS, self_time=True)),
]


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    spans = _Spans(tracer)
    return {name: {"value": float(fn(spans)), "unit": unit} for name, unit, fn in METRICS}
