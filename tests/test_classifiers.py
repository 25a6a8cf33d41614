"""Distance metrics, losses, MLP training, committees, and RBF networks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lm_reference import _jacobian, _residuals

from handgeo import classifiers
from handgeo.classifiers import (
    MlpModel,
    RbfModel,
    TemplateDb,
    TrainConfig,
    committee_identify,
    dist_mad,
    dist_mse,
    load_model,
    loss_mse,
    loss_msereg,
    median_pairwise_distance,
    mlp_identify,
    mlp_train,
    multistart_select,
    nn_identify,
    rbf_identify,
    rbf_train,
    save_model,
    train_members,
)
from handgeo.classifiers import _lm_step, _normal_blocks, _NormalBlocks
from handgeo.errors import ConfigError

vectors = st.lists(st.floats(-50, 50), min_size=1, max_size=9)


def toy_two_person_set():
    """Four linearly separable 9-D points, two per person."""
    rng = np.random.default_rng(42)
    base = rng.uniform(-0.2, 0.2, size=(4, 9))
    base[:2, 0] += 0.8
    base[2:, 0] -= 0.8
    return [(0, base[0]), (0, base[1]), (1, base[2]), (1, base[3])]


class TestDistances:
    def test_mse_of_identical_vectors_is_zero(self):
        assert dist_mse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_mse_sums_squared_differences(self):
        assert dist_mse([0, 0], [3, 4]) == 25.0

    def test_mse_of_opposite_units_is_four(self):
        assert dist_mse([1], [-1]) == 4.0

    def test_mad_sums_absolute_differences(self):
        assert dist_mad([0, 0], [3, 4]) == 7.0

    def test_mad_of_identical_vectors_is_zero(self):
        assert dist_mad([-2.5, 7.0], [-2.5, 7.0]) == 0.0

    def test_mad_of_sign_swapped_pair_is_four(self):
        assert dist_mad([-1, 1], [1, -1]) == 4.0

    @pytest.mark.parametrize("dist", [dist_mse, dist_mad])
    def test_dimension_mismatch_is_rejected(self, dist):
        with pytest.raises(ValueError, match="mismatch"):
            dist([1, 2], [1, 2, 3])

    @given(vectors, vectors)
    def test_metric_axioms_and_mse_mad_bound(self, xs, ys):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        assert dist_mse(x, y) >= 0 and dist_mad(x, y) >= 0
        assert dist_mse(x, y) == dist_mse(y, x)
        assert dist_mad(x, y) == dist_mad(y, x)
        assert dist_mse(x, x) == 0 and dist_mad(x, x) == 0
        assert dist_mse(x, y) <= dist_mad(x, y) ** 2 + 1e-9


class TestNearestNeighbour:
    db = TemplateDb(entries=[(0, np.zeros(2)), (1, np.full(2, 10.0))])

    def test_exact_template_match_wins(self):
        assert nn_identify(np.full(2, 10.0), self.db, "mse") == 1

    def test_nearer_template_wins_under_mse(self):
        assert nn_identify(np.array([1.0, 1.0]), self.db, "mse") == 0

    def test_equidistant_tie_breaks_to_lower_person(self):
        db = TemplateDb(entries=[(7, np.array([2.0])), (3, np.array([-2.0]))])
        assert nn_identify(np.array([0.0]), db, "mse") == 3
        assert nn_identify(np.array([0.0]), db, "mad") == 3

    def test_unknown_metric_is_rejected(self):
        with pytest.raises(ConfigError, match="metric"):
            nn_identify(np.zeros(2), self.db, "cosine")

    def test_empty_database_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nn_identify(np.zeros(2), TemplateDb(entries=[]), "mse")

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.lists(st.integers(0, 4), min_size=12, max_size=12),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_matrix_scan_matches_the_pairwise_loop(self, persons, picks, query_pick, seed):
        # Templates drawn from a pool of five vectors repeat, often under
        # different persons, so exact distance ties are common.
        pool = np.random.default_rng(seed).normal(size=(5, 9))
        entries = [(p, pool[k].copy()) for p, k in zip(persons, picks)]
        db = TemplateDb(entries=entries)
        query = pool[query_pick] + 0.5 * (query_pick % 2)
        for metric, dist in (("mse", dist_mse), ("mad", dist_mad)):
            expected = min(
                (dist(query, vec), person, idx) for idx, (person, vec) in enumerate(entries)
            )[1]
            assert nn_identify(query, db, metric) == expected

    def test_mismatched_dimensions_are_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            nn_identify(np.zeros(3), self.db, "mse")

    @given(st.floats(0.1, 100.0))
    def test_common_positive_scaling_never_changes_the_answer(self, factor):
        rng = np.random.default_rng(0)
        entries = [(p, rng.normal(size=3)) for p in range(5)]
        query = rng.normal(size=3)
        for metric in ("mse", "mad"):
            before = nn_identify(query, TemplateDb(entries=entries), metric)
            scaled = TemplateDb(entries=[(p, v * factor) for p, v in entries])
            assert nn_identify(query * factor, scaled, metric) == before


class TestLosses:
    def test_zero_error_means_zero_loss(self):
        t = np.array([[1.0, -1.0]])
        assert loss_mse(t, t) == 0.0

    def test_mse_averages_over_all_components(self):
        assert loss_mse(np.array([[1.0, -1.0]]), np.array([[0.0, 0.0]])) == 1.0

    def test_mse_averages_over_the_batch(self):
        t = np.array([[1.0, -1.0], [1.0, -1.0]])
        a = np.zeros((2, 2))
        assert loss_mse(t, a) == 1.0

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_mse(np.zeros((1, 2)), np.zeros((2, 1)))

    def test_gamma_one_reduces_to_mse(self):
        t, a = np.array([[1.0, 0.0]]), np.array([[0.5, 0.25]])
        w = np.array([3.0, -4.0])
        assert loss_msereg(t, a, w, 1.0) == loss_mse(t, a)

    def test_gamma_zero_is_the_mean_squared_weight(self):
        t = np.array([[1.0]])
        w = np.full(7, 0.37)
        assert loss_msereg(t, t, w, 0.0) == pytest.approx(0.37**2, abs=1e-15)

    def test_even_mix_combines_linearly(self):
        # mse 0.2 from a unit error over five components; weight term 0.1.
        t = np.array([[1.0, 0, 0, 0, 0]])
        a = np.zeros((1, 5))
        w = np.array([math.sqrt(0.1)])
        assert loss_msereg(t, a, w, 0.5) == pytest.approx(0.15, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        n_in=st.integers(1, 9),
        hidden=st.integers(1, 8),
        n_out=st.integers(1, 6),
        gamma=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reference_residuals_square_to_the_paper_loss(
        self, n, n_in, hidden, n_out, gamma, seed
    ):
        # The dense references in lm_reference (checked against finite
        # differences and against _normal_blocks) describe the loss training
        # minimises only if their r @ r is loss_msereg.
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(n, n_in))
        t = rng.choice([-1.0, 1.0], size=(n, n_out))
        n_params = hidden * n_in + hidden + n_out * hidden + n_out
        theta = rng.uniform(-2.0, 2.0, n_params)
        r = _residuals(theta, x, t, hidden, gamma, np.sqrt((1.0 - gamma) / n_params))
        out = classifiers._forward(theta, x, hidden, n_out)[0]
        assert r @ r == pytest.approx(loss_msereg(t, out, theta, gamma), rel=1e-14, abs=0)


class TestTrainConfig:
    def test_epoch_default_depends_on_loss(self):
        assert TrainConfig(loss="mse").epochs == 10
        assert TrainConfig(loss="msereg").epochs == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": "hinge"},
            {"epochs": 0},
            {"gamma": 1.5},
            {"gamma": -0.1},
            {"multistart": 0},
        ],
    )
    def test_invalid_settings_are_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestMlpTraining:
    def test_separable_toy_problem_is_learned_within_ten_epochs(self):
        train = toy_two_person_set()
        model = mlp_train(train, TrainConfig(loss="mse", seed=0))
        assert all(mlp_identify(model, v) == p for p, v in train)

    def test_same_seed_trains_bit_identical_models(self, tmp_path):
        train = toy_two_person_set()
        a = mlp_train(train, TrainConfig(seed=5))
        b = mlp_train(train, TrainConfig(seed=5))
        for left, right in ((a.w1, b.w1), (a.b1, b.b1), (a.w2, b.w2), (a.b2, b.b2)):
            np.testing.assert_array_equal(left, right)
        save_model(a, tmp_path / "a.model")
        save_model(b, tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()

    def test_accepted_losses_decrease_strictly(self):
        model = mlp_train(toy_two_person_set(), TrainConfig(seed=1))
        history = model.loss_history
        assert len(history) >= 2
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_regularized_loss_at_gamma_one_follows_the_mse_trajectory(self):
        train = toy_two_person_set()
        plain = mlp_train(train, TrainConfig(loss="mse", epochs=10, seed=3))
        mixed = mlp_train(
            train, TrainConfig(loss="msereg", gamma=1.0, epochs=10, seed=3)
        )
        assert len(plain.loss_history) == len(mixed.loss_history)
        for a, b in zip(plain.loss_history, mixed.loss_history):
            assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("loss", ["mse", "msereg"])
    def test_final_history_entry_is_the_public_loss(self, loss):
        train = toy_two_person_set()
        model = mlp_train(train, TrainConfig(loss=loss, epochs=5, seed=2), hidden=4)
        labels = np.array([p for p, _ in train])
        targets = np.where(labels[:, None] == np.array(model.person_ids), 1.0, -1.0)
        outputs = model.outputs(np.array([v for _, v in train]))
        if loss == "mse":
            expected = loss_mse(targets, outputs)
        else:
            theta = np.concatenate([a.ravel() for a in (model.w1, model.b1, model.w2, model.b2)])
            expected = loss_msereg(targets, outputs, theta, model.config.gamma)
        assert model.loss_history[-1] == expected

    def test_jacobian_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 9))
        t = rng.choice([-1.0, 1.0], size=(6, 2))
        theta = rng.uniform(-0.5, 0.5, size=9 * 3 + 3 + 3 * 2 + 2)
        analytic = _jacobian(theta, x, t, hidden=3, gamma=0.8, reg_scale=0.1)

        def residual_vector(params):
            return _residuals(params, x, t, hidden=3, gamma=0.8, reg_scale=0.1)

        step = 1e-5
        for k in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[k] += step
            down[k] -= step
            numeric = (residual_vector(up) - residual_vector(down)) / (2 * step)
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert (np.abs(analytic[:, k] - numeric) / denom).max() <= 1e-4

    @pytest.mark.parametrize("hidden", [0, -3, classifiers.MAX_HIDDEN + 1])
    def test_out_of_range_hidden_count_is_rejected(self, hidden):
        with pytest.raises(ConfigError, match=r"hidden units must be in \[1, "):
            mlp_train(toy_two_person_set(), TrainConfig(seed=0), hidden=hidden)

    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.integers(1, 6),
        n_out=st.integers(2, 4),
        gamma=st.sampled_from([1.0, 0.8]),
        log_lam=st.floats(-6.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blockwise_normal_equations_match_the_dense_jacobian(
        self, hidden, n_out, gamma, log_lam, seed
    ):
        rng = np.random.default_rng(seed)
        n, n_in = 3 * n_out, 9
        x = rng.uniform(-1.0, 1.0, size=(n, n_in))
        t = np.full((n, n_out), -1.0)
        t[np.arange(n), np.arange(n) % n_out] = 1.0
        n_params = hidden * n_in + hidden + n_out * hidden + n_out
        theta = rng.uniform(-0.5, 0.5, n_params)
        args = (theta, x, t, hidden, gamma, np.sqrt((1.0 - gamma) / n_params))
        j, r = _jacobian(*args), _residuals(*args)
        jtj, jtr = j.T @ j, j.T @ r
        blocks = _normal_blocks(*args)

        # Theta index of each blockwise parameter: [w1[h], b1[h]] per hidden
        # unit, then [w2[c], b2[c]] per class.
        n_hid = hidden * n_in + hidden
        w1_idx = np.arange(hidden * n_in).reshape(hidden, n_in)
        b1_idx = hidden * n_in + np.arange(hidden)
        hid_idx = np.concatenate([w1_idx, b1_idx[:, None]], axis=1).ravel()
        w2_idx = n_hid + np.arange(n_out * hidden).reshape(n_out, hidden)
        b2_idx = n_hid + n_out * hidden + np.arange(n_out)
        out_idx = np.concatenate([w2_idx, b2_idx[:, None]], axis=1)
        unit = np.repeat(np.arange(hidden), n_in + 1)
        gram = np.zeros((n_params, n_params))
        grad = np.zeros(n_params)
        gram[np.ix_(hid_idx, hid_idx)] = blocks.hid
        grad[hid_idx] = blocks.g_hid.ravel()
        for c in range(n_out):
            cross_c = blocks.w2[c, unit][:, None] * blocks.cross
            gram[np.ix_(hid_idx, out_idx[c])] = cross_c
            gram[np.ix_(out_idx[c], hid_idx)] = cross_c.T
            gram[np.ix_(out_idx[c], out_idx[c])] = blocks.out
            grad[out_idx[c]] = blocks.g_out[c]
        gram += blocks.reg * np.eye(n_params)
        assert np.linalg.norm(gram - jtj) <= 1e-10 * np.linalg.norm(jtj)
        assert np.linalg.norm(grad - jtr) <= 1e-10 * np.linalg.norm(jtr)

        lam = 10.0**log_lam
        damped = jtj + lam * np.eye(n_params)
        dense = np.linalg.solve(damped, -jtr)
        step = _lm_step(blocks, lam)
        # The step solves the dense damped system to working precision ...
        backward = np.linalg.norm(damped @ step + jtr) / (
            np.linalg.norm(damped, 2) * np.linalg.norm(step) + np.linalg.norm(jtr)
        )
        assert backward <= 1e-12
        # ... and agrees with the dense solve to 1e-10, or to what any two
        # backward-stable solvers can agree on (10 eps cond) when tiny damping
        # leaves the rank-deficient system worse conditioned than that.
        tol = max(1e-10, 10 * np.finfo(float).eps * np.linalg.cond(damped))
        assert np.linalg.norm(step - dense) <= tol * np.linalg.norm(dense)

    def test_failed_factorization_is_a_rejected_retry(self, monkeypatch):
        # Inputs of 1000 saturate both tanh units exactly: the first-layer
        # block is 0 and every entry of the output block is exactly 0.25, so
        # damping 1e-20 is lost to rounding and its Cholesky factorization fails.
        hidden, x = 2, np.full(9, 1000.0)
        train = [(p, x.copy()) for p in range(4)]
        theta = np.random.default_rng(0).uniform(-0.5, 0.5, hidden * 10 + 4 * (hidden + 1))
        t = np.where(np.eye(4) > 0, 1.0, -1.0)
        blocks = _normal_blocks(theta, np.array([x] * 4), t, hidden, 1.0, 0.0)
        assert not blocks.hid.any() and (blocks.out == 0.25).all()
        with pytest.raises(np.linalg.LinAlgError):
            _lm_step(blocks, 1e-20)

        monkeypatch.setattr(classifiers, "DAMPING_INIT", 1e-20)
        model = mlp_train(train, TrainConfig(loss="mse", epochs=10, seed=0), hidden=hidden)
        history = model.loss_history
        assert len(history) >= 2
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_singular_schur_matrix_is_a_rejected_retry(self):
        # hid = -lam I and cross = 0 cancel the damping exactly: the Schur
        # matrix is 0, while the output block I + lam I factorizes. mlp_train
        # retries on LinAlgError, as the test above shows.
        hidden, width, n_out, lam = 2, 10, 2, 1e-3
        p_h = hidden * width
        blocks = _NormalBlocks(
            hid=-lam * np.eye(p_h),
            out=np.eye(hidden + 1),
            cross=np.zeros((p_h, hidden + 1)),
            w2=np.ones((n_out, hidden)),
            unit_gram=np.ones((p_h, p_h)),
            g_hid=np.ones((hidden, width)),
            g_out=np.ones((n_out, hidden + 1)),
            reg=0.0,
        )
        with pytest.raises(np.linalg.LinAlgError):
            _lm_step(blocks, lam)

    def test_argmax_ties_resolve_to_the_first_person(self):
        model = MlpModel(
            person_ids=(2, 5),
            w1=np.zeros((4, 9)),
            b1=np.zeros(4),
            w2=np.zeros((2, 4)),
            b2=np.zeros(2),
            config=TrainConfig(),
            loss_history=(1.0,),
        )
        assert mlp_identify(model, np.zeros(9)) == 2


class TestMultistart:
    def test_members_use_consecutive_seeds(self):
        members = train_members(
            toy_two_person_set(), TrainConfig(seed=10, multistart=3), hidden=4
        )
        assert [m.config.seed for m in members] == [10, 11, 12]

    def test_rate_ties_keep_the_lowest_seed(self):
        members = train_members(
            toy_two_person_set(), TrainConfig(seed=7, multistart=3), hidden=4
        )
        best = multistart_select(members, toy_two_person_set())
        assert best.config.seed == 7


def constant_output_model(b2, person_ids=(0, 1)):
    """Zero-weight network whose outputs are exactly b2 for every input."""
    return MlpModel(
        person_ids=person_ids,
        w1=np.zeros((3, 9)),
        b1=np.zeros(3),
        w2=np.zeros((len(person_ids), 3)),
        b2=np.asarray(b2, dtype=float),
        config=TrainConfig(),
        loss_history=(1.0,),
    )


class TestCommittee:
    def test_identical_members_match_the_single_model(self):
        model = mlp_train(toy_two_person_set(), TrainConfig(seed=0))
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=9)
            assert committee_identify([model] * 3, x) == mlp_identify(model, x)

    def test_mean_output_decides_two_to_one_votes(self):
        members = [
            constant_output_model([1.0, -1.0]),
            constant_output_model([1.0, -1.0]),
            constant_output_model([-1.0, 1.0]),
        ]
        assert committee_identify(members, np.zeros(9)) == 0

    def test_committee_of_one_degenerates_to_the_member(self):
        model = mlp_train(toy_two_person_set(), TrainConfig(seed=4))
        x = np.full(9, 0.3)
        assert committee_identify([model], x) == mlp_identify(model, x)

    def test_mismatched_member_classes_are_rejected(self):
        members = [constant_output_model([1.0, -1.0]), constant_output_model(
            [1.0, -1.0, 0.0], person_ids=(0, 1, 2)
        )]
        with pytest.raises(ValueError, match="disagree"):
            committee_identify(members, np.zeros(9))

    def test_empty_committee_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            committee_identify([], np.zeros(9))


class TestRbf:
    def random_set(self, n=30, classes=3, seed=0):
        rng = np.random.default_rng(seed)
        return [(i % classes, rng.normal(size=9)) for i in range(n)]

    def test_full_centre_count_interpolates_the_training_set(self):
        train = self.random_set()
        model = rbf_train(train, n_centres=len(train))
        outputs = np.array([model.outputs(v) for _, v in train])
        targets = np.where(
            np.arange(3)[None, :] == np.array([p for p, _ in train])[:, None], 1.0, -1.0
        )
        assert np.abs(outputs - targets).max() <= 1e-6

    def test_training_is_deterministic(self):
        a = rbf_train(self.random_set(), 7)
        b = rbf_train(self.random_set(), 7)
        np.testing.assert_array_equal(a.centres, b.centres)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.spread == b.spread

    def test_default_spread_is_the_median_pairwise_distance(self):
        train = self.random_set(n=8)
        model = rbf_train(train, 3)
        x = np.array([v for _, v in train])
        assert model.spread == median_pairwise_distance(x)

    def test_single_centre_cannot_separate_interleaved_classes(self):
        pts = np.zeros((4, 9))
        pts[:, 0] = [0.0, 2.0, 1.0, 3.0]
        train = [(0, pts[0]), (0, pts[1]), (1, pts[2]), (1, pts[3])]
        model = rbf_train(train, n_centres=1)
        correct = sum(rbf_identify(model, v) == p for p, v in train)
        assert correct < 4

    def test_duplicate_points_reduce_the_achieved_centre_count(self):
        point = np.ones(9)
        train = [(0, point), (1, point), (0, point.copy()), (1, point.copy())]
        model = rbf_train(train, n_centres=4, spread=1.0)
        assert model.requested_centres == 4
        assert len(model.centres) < 4

    @pytest.mark.parametrize("spread", [0.0, -1.0])
    def test_non_positive_spread_is_a_config_error(self, spread):
        with pytest.raises(ConfigError, match="rbf spread must be positive"):
            rbf_train(self.random_set(n=5), 3, spread=spread)

    @pytest.mark.parametrize("spread", [1e155, 1e300, 1e-200, math.inf, math.nan])
    def test_a_spread_whose_kernel_scale_is_not_finite_and_nonzero_is_a_config_error(
        self, spread
    ):
        with pytest.raises(ConfigError, match=r"2 \* spread\*\*2 finite and nonzero"):
            rbf_train(self.random_set(n=5), 3, spread=spread)

    def test_centre_count_bounds_are_enforced(self):
        train = self.random_set(n=5)
        with pytest.raises(ConfigError, match="n_centres"):
            rbf_train(train, 0)
        with pytest.raises(ConfigError, match="n_centres"):
            rbf_train(train, 6)


@pytest.mark.parametrize(
    "train_model",
    [
        lambda train: mlp_train(train, TrainConfig(epochs=2, seed=0), hidden=4),
        lambda train: rbf_train(train, n_centres=3),
    ],
    ids=["mlp", "rbf"],
)
def test_a_batch_of_one_keeps_its_batch_axis(train_model):
    train = toy_two_person_set()
    model = train_model(train)
    x = np.array([v for _, v in train])
    assert model.outputs(x).shape == (4, 2)
    assert model.outputs(x[:1]).shape == (1, 2)
    assert model.outputs(x[0]).shape == (2,)
    np.testing.assert_array_equal(model.outputs(x[:1])[0], model.outputs(x[0]))


class TestModelSerialization:
    def test_mlp_round_trip_is_bit_exact(self, tmp_path):
        model = mlp_train(toy_two_person_set(), TrainConfig(seed=9))
        path = tmp_path / "net.model"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, MlpModel)
        np.testing.assert_array_equal(back.w1, model.w1)
        np.testing.assert_array_equal(back.b2, model.b2)
        assert back.config == model.config
        save_model(back, tmp_path / "again.model")
        assert path.read_bytes() == (tmp_path / "again.model").read_bytes()

    def test_rbf_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        train = [(i % 2, rng.normal(size=9)) for i in range(10)]
        model = rbf_train(train, 4)
        path = tmp_path / "rbf.model"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, RbfModel)
        np.testing.assert_array_equal(back.centres, model.centres)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.spread == model.spread
        save_model(back, tmp_path / "again.model")
        assert path.read_bytes() == (tmp_path / "again.model").read_bytes()

    def test_template_db_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        db = TemplateDb(entries=[(p, rng.normal(size=9)) for p in range(4)])
        path = tmp_path / "nn.model"
        save_model(db, path)
        back = load_model(path)
        assert isinstance(back, TemplateDb)
        for (pa, va), (pb, vb) in zip(db.entries, back.entries):
            assert pa == pb
            np.testing.assert_array_equal(va, vb)

    def test_damping_lines_of_older_files_are_ignored(self, tmp_path):
        model = mlp_train(toy_two_person_set(), TrainConfig(seed=9), hidden=4)
        path = tmp_path / "old.model"
        save_model(model, path)
        text = path.read_text()
        assert "damping" not in text
        path.write_text(text + "damping_init 0.001\ndamping_factor 10\n")
        assert load_model(path).config == model.config

    @pytest.mark.parametrize(
        "field,mutate",
        [
            ("person_ids", lambda lines: lines[:2]),
            ("epochs", lambda lines: [ln.replace("epochs ", "epochs ten") for ln in lines]),
            ("w1", lambda lines: [ln + " 0.5" if ln.startswith("w1 ") else ln for ln in lines]),
        ],
        ids=["missing", "non_numeric", "wrong_size"],
    )
    def test_missing_or_malformed_fields_name_the_file(self, tmp_path, field, mutate):
        path = tmp_path / "bad.model"
        save_model(mlp_train(toy_two_person_set(), TrainConfig(seed=9), hidden=4), path)
        path.write_text("\n".join(mutate(path.read_text().splitlines())) + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: .*{field}"):
            load_model(path)

    def test_non_model_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("not a model\n")
        with pytest.raises(ConfigError, match="model"):
            load_model(path)
