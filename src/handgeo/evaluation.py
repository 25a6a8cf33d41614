"""Identification protocol: fixed split, template database, rates, reports.

Per person, the first half of the samples enrolls the classifiers and the
second half is tested closed-set: every test vector is compared against all
models and the argmax (or minimum distance) names the person. The report
carries one row per classifier family plus the trial accounting and the
configuration echo, and is stable byte for byte for fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .classifiers import (
    DEFAULT_HIDDEN,
    TemplateDb,
    TrainConfig,
    committee_identify,
    mlp_identify,
    multistart_select,
    nn_identify,
    rbf_identify,
    rbf_train,
    train_populations,
)
from .errors import ConfigError, HandGeoError
from .features import apply_scaler, fit_scaler
from .imaging import GrayImage
from .pipeline import ExtractionSettings, extract
from .synthgen import CorpusSettings, render_person

COMMITTEE_SIZE = 3
DEFAULT_RBF_CENTRES = 50
DEFAULT_SWEEP_COUNTS = tuple(range(5, 111, 5))

#: Report rows in table order.
ROW_LABELS = (
    ("nn_mad", "NN-MAD"),
    ("nn_mse", "NN-MSE"),
    ("mlp_mse", "MLP-MSE"),
    ("mlp_msereg", "MLP-MSEREG"),
    ("committee_mse", "Committee-MSE"),
    ("committee_msereg", "Committee-MSEREG"),
    ("rbf", "RBF"),
)

#: Trial-count rows in table order: text label, CSV key.
_COUNT_ROWS = (
    ("Client trials", "clients"),
    ("Impostor trials", "impostors"),
    ("Total trials", "total"),
    ("Excluded extractions", "exclusions"),
)


@dataclass(frozen=True)
class Split:
    """Per-person sample indices used for enrollment and for testing."""

    train_indices: tuple[int, ...] = (0, 1, 2, 3, 4)
    test_indices: tuple[int, ...] = (5, 6, 7, 8, 9)

    def __post_init__(self) -> None:
        overlap = set(self.train_indices) & set(self.test_indices)
        if overlap:
            raise ConfigError(f"split halves overlap on sample indices {sorted(overlap)}")
        if not self.train_indices or not self.test_indices:
            raise ConfigError("both split halves need at least one sample index")


def count_trials(persons: int, n_test_per_person: int) -> tuple[int, int, int]:
    """(client trials, impostor trials, total) of the closed-set protocol
    when every person identifies n_test_per_person probes."""
    probes = persons * n_test_per_person
    return EvalReport(rates={}, persons=persons, probes=probes, exclusions=0).trials


Entry = tuple[int, int, np.ndarray]  # person, sample, feature vector


def extract_features(
    rows: Iterable[Iterable[GrayImage]], settings: ExtractionSettings | None = None
) -> tuple[list[Entry], list[tuple[int, int, str]]]:
    """Run the pipeline over every image of each person's row in turn; rows
    rendered or read one person at a time are dropped after extraction.

    Returns extracted entries and the failures as (person, sample,
    "category: message") records; failed images are simply absent from the
    entries.
    """
    entries: list[Entry] = []
    failures: list[tuple[int, int, str]] = []
    p = 0  # not enumerate(rows): its result tuple would hold a row until the next arrives
    for row in rows:
        for j, img in enumerate(row):
            try:
                entries.append((p, j, extract(img, settings).vector))
            except HandGeoError as exc:
                failures.append((p, j, f"{exc.category}: {exc}"))
        del row
        p += 1
    return entries, failures


def split_entries(entries: list[Entry], split: Split) -> tuple[list[Entry], list[Entry]]:
    train = [e for e in entries if e[1] in split.train_indices]
    test = [e for e in entries if e[1] in split.test_indices]
    return train, test


def outside_split(entries: list[Entry]) -> list[Entry]:
    """The entries the default split neither trains on nor tests."""
    split = Split()
    kept = set(split.train_indices + split.test_indices)
    return [e for e in entries if e[1] not in kept]


def enroll(entries: list[Entry]) -> tuple[list[tuple[int, np.ndarray]], list[Entry]]:
    """The default split's two halves, both scaled by the scaler fitted on the
    training half: the training half as (person, vector) pairs and the test
    half as entries."""
    for p, j, v in entries:
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            k = int(bad[0])
            raise ConfigError(f"person {p} sample {j}: feature {k} is {v[k]}, not a finite number")
    train_e, test_e = split_entries(entries, Split())
    if not train_e or not test_e:
        raise ConfigError("the split left one half of the corpus empty")
    scaler = fit_scaler(np.array([v for _, _, v in train_e]))
    train = [(p, apply_scaler(scaler, v)) for p, _, v in train_e]
    return train, [(p, j, apply_scaler(scaler, v)) for p, j, v in test_e]


def run_identification(decide: Callable[[np.ndarray], int], test: list[Entry]) -> float:
    """Percentage of test vectors whose decision names the true person."""
    if not test:
        raise ConfigError("no test samples to identify")
    correct = sum(decide(vec) == person for person, _, vec in test)
    return 100.0 * correct / len(test)


@dataclass
class EvalReport:
    rates: dict[str, float]
    persons: int  # persons with a row in the split
    probes: int  # test vectors identified
    exclusions: int
    config: dict[str, str] = field(default_factory=dict)

    @property
    def trials(self) -> tuple[int, int, int]:
        """(client, impostor, total) trials: each probe is one client trial
        and is implicitly an impostor against every other person."""
        impostors = self.probes * (self.persons - 1)
        return self.probes, impostors, self.probes + impostors


def corpus_echo(s: CorpusSettings) -> dict[str, str]:
    """Corpus settings echoed at the head of a report's configuration."""
    return {
        "corpus_seed": str(s.master_seed),
        "intra_sigma": f"{s.intra_sigma:.17g}",
        "noise_level": f"{s.noise_level:.17g}",
        "persons": str(s.persons),
        "samples_per_person": str(s.samples),
    }


def evaluate_all(settings: CorpusSettings) -> EvalReport:
    """The default protocol on the corpus settings names, rendered and
    extracted with the default ExtractionSettings one person at a time, as
    eval --corpus reads a tree."""
    rows = (render_person(settings, p)[0] for p in range(settings.persons))
    entries, failures = extract_features(rows)
    return evaluate_features(entries, exclusions=len(failures), extra_config=corpus_echo(settings))


def evaluate_features(
    entries: list[Entry],
    train: TrainConfig | None = None,
    *,
    exclusions: int = 0,
    extra_config: dict[str, str] | None = None,
    hidden: int = DEFAULT_HIDDEN,
    rbf_centres: int = DEFAULT_RBF_CENTRES,
    rbf_spread: float | None = None,
) -> EvalReport:
    """The classifier protocol on already-extracted feature entries; the
    networks take the seed, gamma and multistart of train (default TrainConfig()).
    The configuration echo starts with extra_config (the corpus echo, empty
    for a features CSV), then the split's sample indices."""
    train_pairs, test = enroll(entries)
    base = train or TrainConfig()
    losses = ("mse", "msereg")
    # epochs=None re-resolves the per-loss default instead of inheriting base's.
    cfgs = [replace(base, loss=loss, epochs=None) for loss in losses]

    db = TemplateDb(entries=train_pairs)
    decisions = {
        "nn_mad": partial(nn_identify, db=db, metric="mad"),
        "nn_mse": partial(nn_identify, db=db, metric="mse"),
    }
    rbf = rbf_train(train_pairs, rbf_centres, rbf_spread)
    members = dict(zip(losses, train_populations(train_pairs, cfgs, hidden)))
    for loss in losses:
        best = multistart_select(members[loss], train_pairs)
        decisions[f"mlp_{loss}"] = partial(mlp_identify, best)
        committee = members[loss][:COMMITTEE_SIZE]
        decisions[f"committee_{loss}"] = partial(committee_identify, committee)
    decisions["rbf"] = partial(rbf_identify, rbf)
    rates = {key: run_identification(decide, test) for key, decide in decisions.items()}

    split = Split()
    cfg_echo = {
        **(extra_config or {}),
        "train_indices": " ".join(str(i) for i in split.train_indices),
        "test_indices": " ".join(str(i) for i in split.test_indices),
        "train_seed": str(base.seed),
        "gamma": f"{base.gamma:.17g}",
        "epochs_mse": str(members["mse"][0].config.epochs),
        "epochs_msereg": str(members["msereg"][0].config.epochs),
        "multistart": str(base.multistart),
        "committee_size": str(len(committee)),
        "hidden": str(hidden),
        "rbf_centres": str(len(rbf.centres)),
        "rbf_spread": f"{rbf.spread:.17g}",
    }
    persons = len({p for p, _ in train_pairs} | {p for p, _, _ in test})
    return EvalReport(rates, persons, len(test), exclusions, cfg_echo)


def sweep_rbf_features(
    entries: list[Entry],
    centre_counts: tuple[int, ...] = DEFAULT_SWEEP_COUNTS,
    spread: float | None = None,
) -> list[tuple[int, float]]:
    """Identification rate per RBF centre count on extracted features."""
    train_pairs, test = enroll(entries)
    return [
        (k, run_identification(partial(rbf_identify, rbf_train(train_pairs, k, spread)), test))
        for k in centre_counts
    ]


def emit_table(report: EvalReport) -> tuple[str, str]:
    """(aligned text, CSV) renderings of the report. Each row is listed once
    as (text line, CSV key, CSV value): a rate of a ROW_LABELS row, a trial
    count or a config entry; headings have no CSV key."""
    rates = [(key, label, report.rates[key]) for key, label in ROW_LABELS if key in report.rates]
    counts = zip(_COUNT_ROWS, (*report.trials, report.exclusions))
    rule = ("-" * 38, None, None)
    rows = [
        ("Identification rate (%)", None, None),
        rule,
        *[(f"{label:<22}{rate:>12.2f}", f"rate_{key}", f"{rate:.17g}")
          for key, label, rate in rates],
        rule,
        *[(f"{label:<22}{n:>12}", key, n) for (label, key), n in counts],
        ("", None, None),
        ("Configuration:", None, None),
        *[(f"  {k} = {v}", k, v) for k, v in report.config.items()],
    ]
    text = "\n".join(line for line, _, _ in rows) + "\n"
    csv_rows = ["key,value"] + [f"{key},{value}" for _, key, value in rows if key is not None]
    return text, "\n".join(csv_rows) + "\n"
