"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They run each workload on a 4-person corpus, so they take seconds, not the
minutes a full-size run does.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import METRICS, layer_metrics, targets  # noqa: E402
from tracer import Tracer  # noqa: E402

PERSONS = 4


@pytest.fixture
def work():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def handgeo_attributes() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if name == "handgeo" or name.startswith("handgeo.")
        for attr, value in vars(module).items()
    }


def outcome_bytes(workload, outcome) -> bytes:
    """What an operation produced, in a form two operations can be compared by."""
    if isinstance(workload, workloads.Identify):
        key, vector, decisions, _ = outcome
        return repr((key, vector.tobytes(), decisions)).encode()
    rc, out = outcome
    if isinstance(workload, workloads.Enroll):
        return (out / "report.csv").read_bytes()
    return workloads.tree_digest(out)[0].encode()


@pytest.mark.parametrize("name", ["enroll", "identify", "gen"])
def test_traced_and_untraced_operations_agree(name, work):
    workload = workloads.WORKLOADS[name](0, work, persons=PERSONS)
    workload.setup()
    tracer = Tracer(targets())
    before = handgeo_attributes()
    produced = []
    for traced in (False, True):
        workload.next_probe = 0  # identify: probe the same image both times
        if traced:
            with tracer.installed():
                outcome = workload.op()
        else:
            outcome = workload.op()
        produced.append(outcome_bytes(workload, outcome))
        assert workload.check(outcome) == []
    assert produced[0] == produced[1]
    assert tracer.spans, "the traced operation recorded no span"
    assert handgeo_attributes() == before


def test_wrappers_are_removed_when_traced_code_raises():
    from handgeo import imaging

    before = handgeo_attributes()
    tracer = Tracer(targets())
    with pytest.raises(OSError), tracer.installed():
        imaging.load_bmp(HERE / "no_such_file.bmp")
    assert handgeo_attributes() == before
    assert tracer.spans[0].name == "imaging.load_bmp"
    assert tracer.spans[0].attrs["error"] == "FileNotFoundError"


def test_stage_self_times_add_up_to_the_extract_span(work):
    from handgeo import pipeline, synthgen

    img, _ = synthgen.render(synthgen.canonical_params(0), noise_level=0.03)
    tracer = Tracer(targets())
    with tracer.installed():
        pipeline.extract(img)
    own = tracer.self_times()
    (root,) = [i for i, s in enumerate(tracer.spans) if s.name == "pipeline.extract"]
    stages = [i for i, s in enumerate(tracer.spans) if s.parent == root]
    assert [tracer.spans[i].name for i in stages] == [
        "imaging.lowpass_filter",
        "imaging.binarize",
        "imaging.detect_edges_log",
        "contour.trace_contour",
        "contour.find_landmarks",
        "features.measure",
    ]
    total = sum(own[i] for i in stages) + own[root]
    assert math.isclose(total, tracer.spans[root].duration, rel_tol=1e-9)


def test_checks_catch_wrong_outputs(work):
    identify = workloads.Identify(0, work, persons=PERSONS)
    identify.setup()
    key, vector, decisions, exc = identify.op()
    wrong = ((decisions[0] + 1) % PERSONS,) + decisions[1:]
    assert identify.check((key, vector, wrong, exc))
    assert identify.check((key, vector + 1e-12, decisions, exc))

    gen = workloads.Gen(0, work, persons=PERSONS)
    gen.setup()
    rc, out = gen.op()
    (out / "person_00" / "sample_00.bmp").unlink()
    assert gen.check((rc, out))


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    fake = {"setup_s": 1.0, "plain": [0.01, 0.02], "traced": [0.02], "tracer": Tracer({})}
    workload = workloads.Identify(0, HERE)
    emitted = run.end_to_end(workload, fake)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, v["unit"]) for k, v in emitted.items()
    ]
    emitted = run.per_layer(workload, fake)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, v["unit"]) for k, v in emitted.items()
    ]
    assert list(layer_metrics(Tracer({}))) == [name for name, _, _ in METRICS]


def test_run_fails_without_the_program(work):
    checkout = work / "bare"
    shutil.copytree(HERE, checkout / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", checkout)
    argv = [sys.executable, "perfbench/run.py", "--workload", "gen", "--seed", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
