"""Protocol accounting, the fixed split, rate computation, and reports."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from handgeo import classifiers
from handgeo.classifiers import TemplateDb, nn_identify
from handgeo.errors import ConfigError, LandmarkError
from handgeo.evaluation import (
    ROW_LABELS,
    EvalReport,
    Split,
    count_trials,
    emit_table,
    evaluate_all,
    evaluate_features,
    extract_features,
    run_identification,
    split_entries,
    sweep_rbf_features,
)
from handgeo.synthgen import CorpusSettings, make_corpus


def synthetic_entries(persons=4, samples=10, spread=0.05, seed=0):
    """Well-separated per-person clusters, samples 0..9 each."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1, 1, size=(persons, 9))
    return [
        (p, j, centres[p] + rng.normal(0, spread, 9))
        for p in range(persons)
        for j in range(samples)
    ]


class TestCountTrials:
    def test_twenty_two_persons_five_probes(self):
        assert count_trials(22, 5) == (110, 2310, 2420)

    def test_two_persons_one_probe(self):
        assert count_trials(2, 1) == (2, 2, 4)

    def test_single_person_has_no_impostors(self):
        assert count_trials(1, 5) == (5, 0, 5)

    @given(st.integers(1, 200), st.integers(1, 50))
    def test_clients_plus_impostors_equals_total(self, persons, probes):
        clients, impostors, total = count_trials(persons, probes)
        assert clients + impostors == total
        assert clients == persons * probes
        assert impostors == persons * (persons - 1) * probes


class TestSplit:
    def test_default_split_uses_the_first_five_for_training(self):
        split = Split()
        assert split.train_indices == (0, 1, 2, 3, 4)
        assert split.test_indices == (5, 6, 7, 8, 9)

    def test_overlapping_halves_are_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            Split(train_indices=(0, 1, 2), test_indices=(2, 3))

    def test_empty_half_is_rejected(self):
        with pytest.raises(ConfigError):
            Split(train_indices=(), test_indices=(1,))

    def test_split_entries_never_share_a_sample(self):
        entries = synthetic_entries()
        train, test = split_entries(entries, Split())
        train_keys = {(p, j) for p, j, _ in train}
        test_keys = {(p, j) for p, j, _ in test}
        assert not train_keys & test_keys
        assert len(train_keys) + len(test_keys) == len(entries)


class TestRunIdentification:
    def test_constant_guess_scores_one_over_persons(self):
        test = [(p, 0, np.zeros(2)) for p in range(22)]
        rate = run_identification(lambda v: 1, test)
        assert rate == pytest.approx(100 / 22)

    def test_templates_equal_to_probes_score_perfectly(self):
        entries = synthetic_entries()
        _, test = split_entries(entries, Split())
        db = TemplateDb(entries=[(p, v) for p, _, v in test])
        assert run_identification(lambda v: nn_identify(v, db, "mse"), test) == 100.0

    def test_empty_test_set_is_rejected(self):
        with pytest.raises(ConfigError, match="test"):
            run_identification(lambda v: 0, [])


@pytest.fixture(scope="module")
def report():
    return evaluate_features(synthetic_entries(), multistart=2, rbf_centres=10)


class TestEvaluateFeatures:
    def test_all_classifier_rows_are_present(self, report):
        assert set(report.rates) == {key for key, _ in ROW_LABELS}

    def test_rates_are_percentages(self, report):
        assert all(0.0 <= rate <= 100.0 for rate in report.rates.values())

    def test_trial_accounting_matches_the_person_count(self, report):
        assert report.persons == 4
        assert report.trials == count_trials(4, 5)

    def test_trials_count_the_test_vectors_actually_identified(self):
        # The third person enrolls but has no test samples: 10 probes, 3 persons.
        entries = [e for e in synthetic_entries(persons=3) if e[0] < 2 or e[1] < 5]
        report = evaluate_features(entries, multistart=1, rbf_centres=10)
        assert (report.persons, report.probes) == (3, 10)
        assert report.trials == (10, 20, 30)

    def test_full_corpus_trials_match_the_paper(self):
        report = EvalReport(rates={}, persons=22, probes=110, exclusions=0)
        assert report.trials == (110, 2310, 2420)

    def test_config_echo_names_the_training_settings(self, report):
        for key in ("gamma", "epochs_mse", "epochs_msereg", "hidden", "rbf_spread"):
            assert key in report.config
        assert (report.config["epochs_mse"], report.config["epochs_msereg"]) == ("10", "50")

    @pytest.mark.parametrize("multistart", [1, 2])
    def test_committee_size_echoes_the_members_averaged(self, multistart):
        report = evaluate_features(
            synthetic_entries(), multistart=multistart, hidden=4, rbf_centres=10
        )
        assert report.config["committee_size"] == str(multistart)

    def test_separable_clusters_are_identified_well(self, report):
        assert report.rates["nn_mse"] == 100.0

    def test_repeat_evaluation_is_byte_identical(self, report):
        again = evaluate_features(
            synthetic_entries(), multistart=2, rbf_centres=10
        )
        assert emit_table(again) == emit_table(report)

    def test_empty_half_is_rejected(self):
        entries = [(p, j, np.zeros(9)) for p in range(3) for j in range(5)]
        with pytest.raises(ConfigError, match="empty"):
            evaluate_features(entries)


def with_bad_cell(person=2, sample=7, feature=4, value=np.nan):
    """Seed-0 entries with one feature of one vector set to `value`."""
    entries = synthetic_entries(seed=0)
    for p, j, v in entries:
        if (p, j) == (person, sample):
            v[feature] = value
    return entries


class TestNonFiniteFeatures:
    """Both protocol runners share enroll's check for nan and inf."""

    def test_evaluate_names_the_person_and_sample(self):
        with pytest.raises(ConfigError, match="^person 2 sample 7: feature 4 is nan, not a finite number$"):
            evaluate_features(with_bad_cell(), multistart=1, rbf_centres=10)

    def test_sweep_names_the_person_and_sample(self):
        with pytest.raises(ConfigError, match="^person 2 sample 7: feature 4 is nan, not a finite number$"):
            sweep_rbf_features(with_bad_cell(), centre_counts=(5,))

    def test_an_infinite_training_vector_is_rejected(self):
        entries = with_bad_cell(person=0, sample=1, feature=0, value=np.inf)
        with pytest.raises(ConfigError, match="person 0 sample 1: feature 0 is inf"):
            sweep_rbf_features(entries, centre_counts=(5,))


class TestExtractFeatures:
    def test_failures_are_excluded_and_described(self):
        corpus = make_corpus(CorpusSettings(3, persons=2, samples=2))
        blank = corpus.images[0][0].pixels * 0.0
        corpus.images[0][0].pixels = blank
        entries, failures = extract_features(corpus.images)
        assert len(entries) == 3
        assert len(failures) == 1
        person, sample, message = failures[0]
        assert (person, sample) == (0, 0)
        assert message.startswith("contour_error")


class TestEvaluateAll:
    def test_peak_memory_does_not_grow_with_persons(self, monkeypatch):
        """evaluate_all holds one person's images at a time: a 10-sample
        person is about 3.3 MiB of float64 pixels. Both sides train in two
        worker processes, whatever the core count, so tracemalloc
        sees the same work in this process."""
        monkeypatch.setattr(classifiers, "_cores", lambda: 2)

        def traced_peak(persons):
            tracemalloc.start()
            try:
                evaluate_all(CorpusSettings(0, persons=persons))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        evaluate_all(CorpusSettings(0, persons=2))  # one-off allocations
        assert traced_peak(6) - traced_peak(2) < 2 * 2**20


class TestSweep:
    def test_each_requested_count_gets_a_rate(self):
        curve = sweep_rbf_features(synthetic_entries(), centre_counts=(2, 5, 9))
        assert [k for k, _ in curve] == [2, 5, 9]
        assert all(0.0 <= r <= 100.0 for _, r in curve)

    def test_counts_above_the_training_size_are_capped(self):
        curve = sweep_rbf_features(synthetic_entries(), centre_counts=(200,))
        assert curve[0][0] == 200
        assert 0.0 <= curve[0][1] <= 100.0


class TestEmitTable:
    def test_text_report_contains_every_row_label(self):
        report = evaluate_features(synthetic_entries(), multistart=2, rbf_centres=10)
        text, csv_text = emit_table(report)
        for _, label in ROW_LABELS:
            assert f"{label} " in text or label in text
        for key, _ in ROW_LABELS:
            assert f"rate_{key}," in csv_text
        for line in ("Client trials", "Impostor trials", "Total trials"):
            assert line in text
