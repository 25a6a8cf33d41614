"""The three workloads: set-up, one timed operation, and its output check.

Every call into handgeo goes through a module attribute (``imaging.load_bmp``
and so on), so a traced run sees the benchmark's own calls as well as the
ones the package makes internally.

Why each workload exists is in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import handgeo
from handgeo import classifiers, cli, evaluation, features, imaging, pipeline
from handgeo.errors import HandGeoError

PERSONS = 22
SAMPLES = 10
REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text(encoding="utf-8"))


def stored_reference(seed: int, persons: int, key: str):
    """The committed reference for a full-size corpus of this seed, or None."""
    if persons != PERSONS:
        return None
    return REFERENCES.get(str(seed), {}).get(key)


def tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the BMP count."""
    h = hashlib.sha256()
    bmps = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
        bmps += rel.endswith(".bmp")
    return h.hexdigest(), bmps


def _quiet(argv: list[str]) -> int:
    """cli.main with its summary lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def handgeo_process(*argv: str) -> None:
    """Run ``handgeo <argv>`` as a separate process, the way a user would.

    Set-up makes its inputs this way so that the corpus never lives in the
    benchmark's process: peak RSS is then that of the timed operations.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(handgeo.__file__).parent.parent))
    subprocess.run(
        [sys.executable, "-m", "handgeo.cli", *argv],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=150,
    )


def gen_tree(seed: int, persons: int, root: Path) -> None:
    handgeo_process("gen", "--out", str(root), "--seed", str(seed), "--persons", str(persons))


def features_csv(seed: int, persons: int, tree: Path, csv: Path) -> None:
    """The seed's features CSV, extracted from its BMP tree; every image must pass."""
    gen_tree(seed, persons, tree)
    handgeo_process("extract", "--input", str(tree), "--out", str(csv))
    rows = len(csv.read_text(encoding="utf-8").splitlines()) - 1
    if rows != persons * SAMPLES:
        raise RuntimeError(f"set-up extracted {rows} of {persons * SAMPLES} images")


class Workload:
    name = ""
    #: Samples one operation handles; items_per_s counts these.
    items_per_op = 1
    #: Whether end-to-end times are scaled to reference speed (see speed.py).
    speed_scaled = True

    def __init__(self, seed: int, work: Path, persons: int = PERSONS):
        self.seed = seed
        self.work = work
        self.persons = persons
        self._fresh = 0

    def fresh_dir(self, stem: str) -> Path:
        self._fresh += 1
        return self.work / f"{stem}_{self._fresh}"

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        """One timed operation; returns what `check` needs."""
        raise NotImplementedError

    def check(self, outcome) -> list[str]:
        """Problems found in one operation's output (empty when correct)."""
        raise NotImplementedError


class Enroll(Workload):
    """One `handgeo eval` pass over the seed's features CSV."""

    name = "enroll"
    # An eval pass is mostly two-thread BLAS, which the single-thread kernel
    # does not follow: over ten runs, scaling widened the pass time's
    # quartile spread from 0.17 to 0.22 of its median. It reports wall time.
    speed_scaled = False

    def __init__(self, seed: int, work: Path, persons: int = PERSONS):
        super().__init__(seed, work, persons)
        self.items_per_op = persons * SAMPLES
        self.first_report: bytes | None = None

    def setup(self) -> None:
        tree = self.fresh_dir("corpus")
        self.features = self.fresh_dir("features").with_suffix(".csv")
        features_csv(self.seed, self.persons, tree, self.features)
        shutil.rmtree(tree)

    def op(self):
        out = self.fresh_dir("report")
        return _quiet(["eval", "--features", str(self.features), "--out", str(out)]), out

    def check(self, outcome) -> list[str]:
        rc, out = outcome
        report = (out / "report.csv").read_bytes() if rc == 0 else b""
        shutil.rmtree(out, ignore_errors=True)
        if rc != 0:
            return [f"eval exited {rc}"]
        problems = []
        rows = dict(line.split(",", 1) for line in report.decode().splitlines()[1:])
        n_test = len(evaluation.Split().test_indices)
        clients, impostors, total = evaluation.count_trials(self.persons, n_test)
        accounting = {
            "clients": clients,
            "impostors": impostors,
            "total": total,
            "exclusions": 0,
        }
        for key, want in accounting.items():
            if rows.get(key) != str(want):
                problems.append(f"{key} is {rows.get(key)}, expected {want}")
        correct = {}
        for key, _label in evaluation.ROW_LABELS:
            rate = float(rows.get(f"rate_{key}", "nan"))
            count = round(rate * clients / 100.0)
            if not abs(count * 100.0 / clients - rate) < 1e-9:
                problems.append(f"rate_{key} = {rate} is not a count out of {clients}")
            correct[key] = count
        stored = stored_reference(self.seed, self.persons, "enroll_correct")
        if stored is not None and correct != stored:
            problems.append(f"correct counts {correct} differ from the stored {stored}")
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            problems.append("report.csv differs from the first pass of this run")
        return problems


class Identify(Workload):
    """One probe scan: BMP -> features -> five identity decisions."""

    name = "identify"

    def setup(self) -> None:
        tree = self.fresh_dir("corpus")
        csv = self.fresh_dir("features").with_suffix(".csv")
        features_csv(self.seed, self.persons, tree, csv)
        entries = features.load_features(csv)
        split = evaluation.Split()
        self.vectors = {(p, j): v for p, j, v in entries}
        train = [(p, v) for p, j, v in entries if j in split.train_indices]
        self.scaler = features.fit_scaler(np.array([v for _, v in train]))
        pairs = [(p, features.apply_scaler(self.scaler, v)) for p, v in train]
        self.db = classifiers.TemplateDb(entries=pairs, scaler=self.scaler)
        members = classifiers.train_members(pairs, classifiers.TrainConfig(loss="mse"))
        self.mlp = classifiers.multistart_select(members, pairs)
        self.committee = members[: evaluation.COMMITTEE_SIZE]
        self.rbf = classifiers.rbf_train(pairs, min(evaluation.DEFAULT_RBF_CENTRES, len(pairs)))
        self.probes = [
            ((p, j), tree / f"person_{p:02d}" / f"sample_{j:02d}.bmp")
            for p in range(self.persons)
            for j in split.test_indices
        ]
        self.expected = {key: self.decide(self.vectors[key]) for key, _ in self.probes}
        self.next_probe = 0

    def decide(self, vector: np.ndarray) -> tuple[int, ...]:
        x = features.apply_scaler(self.scaler, vector)
        return (
            classifiers.nn_identify(x, self.db, "mad"),
            classifiers.nn_identify(x, self.db, "mse"),
            classifiers.mlp_identify(self.mlp, x),
            classifiers.committee_identify(self.committee, x),
            classifiers.rbf_identify(self.rbf, x),
        )

    def op(self):
        key, path = self.probes[self.next_probe % len(self.probes)]
        self.next_probe += 1
        try:
            vector = pipeline.extract(imaging.load_bmp(path)).vector
            return key, vector, self.decide(vector), None
        except HandGeoError as exc:
            return key, None, None, exc

    def check(self, outcome) -> list[str]:
        key, vector, decisions, exc = outcome
        if exc is not None:
            return [f"probe {key}: {exc.category}: {exc}"]
        problems = []
        reference = self.vectors[key]
        if vector.dtype != reference.dtype or vector.tobytes() != reference.tobytes():
            problems.append(f"probe {key}: vector differs from the set-up extraction")
        if decisions != self.expected[key]:
            problems.append(f"probe {key}: decisions {decisions} != {self.expected[key]}")
        return problems


class Gen(Workload):
    """One `handgeo gen` pass writing the seed's corpus to a fresh directory."""

    name = "gen"

    def __init__(self, seed: int, work: Path, persons: int = PERSONS):
        super().__init__(seed, work, persons)
        self.items_per_op = persons * SAMPLES

    def setup(self) -> None:
        # A first tree for this seed, made in its own process: every pass must match it.
        tree = self.fresh_dir("corpus")
        gen_tree(self.seed, self.persons, tree)
        self.expected = tree_digest(tree)
        shutil.rmtree(tree)

    def op(self):
        out = self.fresh_dir("gen")
        argv = ["gen", "--out", str(out), "--seed", str(self.seed), "--persons", str(self.persons)]
        return _quiet(argv), out

    def check(self, outcome) -> list[str]:
        rc, out = outcome
        digest, bmps = tree_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        if rc != 0:
            return [f"gen exited {rc}"]
        problems = []
        if bmps != self.items_per_op:
            problems.append(f"tree holds {bmps} BMPs, expected {self.items_per_op}")
        if digest != self.expected[0]:
            problems.append("tree differs from the set-up corpus of the same seed")
        stored = stored_reference(self.seed, self.persons, "gen_tree_sha256")
        if stored is not None and digest != stored:
            problems.append(f"tree hash {digest} differs from the stored {stored}")
        return problems


WORKLOADS = {w.name: w for w in (Enroll, Identify, Gen)}
