import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partfusion import (
    LinearModel,
    ModelGrid,
    TrainConfig,
    hinge_objective,
    hinge_subgradient,
    softmax,
    train_binary,
    train_multiclass,
)
from partfusion import svm
from partfusion.svm import (
    _BLOCK_MULTIPLY_ADDS,
    _GATHER_BLOCK_BATCHES,
    _MAX_BLOCK_ROWS,
    _NEWTON_MAX_STEPS,
    _row_blocked_scores,
    _row_blocks,
    _run_sgd,
    _signs,
)


def _predict(model, X):
    """Argmax label per row; ties resolve to the lowest class_index entry."""
    return model.class_index[np.argmax(model.scores(X), axis=1)]


def _separable_two_class(rng, n=40, d=5, gap=2.0):
    X = np.vstack([rng.normal(-gap, 0.3, (n, d)), rng.normal(gap, 0.3, (n, d))])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestTrainMulticlass:
    def test_separable_reaches_full_train_accuracy(self):
        rng = np.random.default_rng(0)
        X, y = _separable_two_class(rng)
        model = train_multiclass(X, y, TrainConfig(C=10.0, epochs=30, seed=3))
        assert np.mean(_predict(model, X) == y) == 1.0

    def test_class_index_is_sorted_distinct_labels(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        y = np.array([7, 3, 12] * 10)
        model = train_multiclass(X, y, TrainConfig(epochs=2, seed=0))
        assert model.class_index.tolist() == [3, 7, 12]

    def test_gaussian_blobs_beat_95_percent_heldout(self):
        rng = np.random.default_rng(4)
        k, d, n = 5, 8, 40
        protos = rng.normal(0, 1, (k, d)) * 3.0
        Xtr = np.vstack([protos[c] + rng.normal(0, 0.25, (n, d)) for c in range(k)])
        ytr = np.repeat(np.arange(k), n)
        Xte = np.vstack([protos[c] + rng.normal(0, 0.25, (n, d)) for c in range(k)])
        yte = np.repeat(np.arange(k), n)
        model = train_multiclass(Xtr, ytr, TrainConfig(C=10.0, epochs=30, seed=1))
        acc = np.mean(_predict(model, Xte) == yte)
        assert acc >= 0.95
        # sanity against a nearest-centroid oracle on the same data
        cents = np.vstack([Xtr[ytr == c].mean(axis=0) for c in range(k)])
        d2 = ((Xte[:, None, :] - cents[None]) ** 2).sum(axis=2)
        oracle = np.mean(np.argmin(d2, axis=1) == yte)
        assert acc >= oracle - 0.05

    def test_single_class_rejected(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError, match="degenerate"):
            train_multiclass(X, np.zeros(5, dtype=int), TrainConfig())

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 5))
        y = rng.integers(0, 3, 80)
        model = train_multiclass(X, y, TrainConfig(C=2.0, epochs=20, seed=2))
        H = np.asarray(model.objective_history)
        rel = (H[1:] - H[:-1]) / np.maximum(np.abs(H[:-1]), 1e-12)
        assert rel.max() <= 1e-6

    def test_argmax_tie_break_lowest_class(self):
        W = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.zeros(3)
        model = LinearModel(W, b, np.array([4, 9, 11]), [])
        # rows 0 and 1 are duplicates: the tie goes to class_index 4
        assert _predict(model, np.array([[1.0, 0.0]]))[0] == 4


class TestScoreSoftmax:
    def test_zero_model_scores(self):
        model = LinearModel(np.zeros((3, 2)), np.zeros(3), np.arange(3), [])
        np.testing.assert_array_equal(model.scores(np.array([[5.0, -1.0]]))[0], np.zeros(3))

    def test_identity_weights(self):
        model = LinearModel(np.eye(2), np.zeros(2), np.arange(2), [])
        np.testing.assert_array_equal(model.scores(np.array([[1.0, 0.0]]))[0], [1.0, 0.0])

    def test_score_matches_direct_dot(self):
        rng = np.random.default_rng(8)
        W = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        x = rng.normal(size=6)
        model = LinearModel(W, b, np.arange(4), [])
        np.testing.assert_allclose(model.scores(x[None])[0], W @ x + b, rtol=1e-12)

    def test_dimension_mismatch(self):
        model = LinearModel(np.eye(2), np.zeros(2), np.arange(2), [])
        with pytest.raises(ValueError):
            model.scores(np.zeros((1, 3)))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-12)

    def test_softmax_shift_invariance(self):
        s = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(softmax(s), softmax(s + 123.0), atol=1e-12)

    def test_softmax_hand_value(self):
        out = softmax(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_softmax_is_distribution_preserving_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            s = rng.normal(0, 5, rng.integers(1, 9))
            p = softmax(s)
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p >= 0).all()
            assert np.argmax(p) == np.argmax(s)

    def test_softmax_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_softmax_into_its_scores(self):
        # one pass over the caller's array gives the bits of the allocating call
        rng = np.random.default_rng(10)
        for temperature in (1.0, 0.7):
            s = rng.normal(0, 30, (50, 17))
            want = softmax(s, temperature)
            assert softmax(s, temperature, out=s) is s
            assert s.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,K", [(1, 3), (37, 5), (5000, 40), (18_160, 195)])
    def test_block_scores_are_the_scores(self, n, K):
        # one block of rows at a time, with the bits of one scores call over every
        # row (above about 130 classes a block rounds unlike one full product)
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 32))
        model = LinearModel(rng.normal(size=(K, 32)), rng.normal(size=K), np.arange(K))
        seen = []

        def rows(block):
            seen.append(block)
            return X[block].copy()

        got = np.empty((n, K))
        for block, scores in model.block_scores(n, rows):
            got[block] = scores
        assert got.tobytes() == model.scores(X).tobytes()
        assert seen == _row_blocks(n, 32 * K)


class TestHingePieces:
    def test_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        d, k, n = 6, 4, 50
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, n)
        W = rng.normal(0, 0.5, (k, d))
        b = rng.normal(0, 0.1, k)
        lam = 0.07
        gW, gb = hinge_subgradient(W, b, X, y, lam)
        eps = 1e-6
        checked = 0
        for _ in range(300):
            c = int(rng.integers(0, k))
            j = int(rng.integers(0, d))
            s = np.where(y == c, 1.0, -1.0)
            margins = s * (X @ W[c] + b[c])
            if np.any(np.abs(1.0 - margins) < 1e-4):
                continue
            for plus, minus, grad in [
                (_bump(W, c, j, eps), _bump(W, c, j, -eps), gW[c, j]),
            ]:
                fp = hinge_objective(plus, b, X, y, lam)[c]
                fm = hinge_objective(minus, b, X, y, lam)[c]
                num = (fp - fm) / (2 * eps)
                assert abs(num - grad) / max(abs(num), 1e-9) < 1e-3
            checked += 1
            if checked == 10:
                break
        assert checked == 10

    def test_objective_zero_at_origin_is_one(self):
        # all margins violated at W=0: hinge contributes exactly 1 per row
        X = np.ones((10, 3))
        y = np.zeros(10, dtype=int)
        obj = hinge_objective(np.zeros((2, 3)), np.zeros(2), X, y, 0.5)
        np.testing.assert_allclose(obj, [1.0, 1.0])

    @pytest.mark.parametrize("fn", [hinge_objective, hinge_subgradient])
    @pytest.mark.parametrize(
        "y_pos",
        [
            [0],  # would broadcast class 0 over every row
            7,  # would surface numpy's IndexError
            [0, 1],  # would surface numpy's broadcast error
            [0, 1, 7, 0, 1],  # would score row 2 as no class's positive
            [0, 1, -1, 0, 1],
            [0, 1, 0.5, 0, 1],  # would score row 2 as no class's positive
        ],
    )
    def test_y_pos_checked(self, fn, y_pos):
        X = np.ones((5, 3))
        with pytest.raises(ValueError, match=r"y_pos must hold one integer in \[0, 2\) per row of X \(5\)"):
            fn(np.zeros((2, 3)), np.zeros(2), X, y_pos, 0.5)


def _fit(X, y, C, init=None):
    """The one model of a one-C `train_binary` grid."""
    return train_binary(X, y, (C,), init=init).models[0]


class TestTrainBinary:
    def test_separation_direction(self):
        rng = np.random.default_rng(13)
        X = np.concatenate([rng.uniform(1, 2, 30), rng.uniform(-2, -1, 30)])[:, None]
        y = np.array([1] * 30 + [-1] * 30)
        model = _fit(X, y, 10.0)
        assert model.W[0, 0] > 0

    def test_duplicated_dataset_same_direction(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 3))
        y = np.where(X @ np.array([1.0, -2.0, 0.5]) > 0, 1, -1)
        w1 = _fit(X, y, 5.0).W[0]
        w2 = _fit(np.vstack([X, X]), np.concatenate([y, y]), 5.0).W[0]
        cos = w1 @ w2 / (np.linalg.norm(w1) * np.linalg.norm(w2))
        assert cos > 0.97

    def test_planted_rule_with_label_noise(self):
        rng = np.random.default_rng(15)
        d, n = 6, 400
        true_w = rng.normal(size=d)
        Xtr = rng.normal(size=(n, d))
        ytr = np.where(Xtr @ true_w > 0, 1, -1)
        flip = rng.random(n) < 0.05
        ytr[flip] *= -1
        Xte = rng.normal(size=(n, d))
        yte = np.where(Xte @ true_w > 0, 1, -1)
        model = _fit(Xtr, ytr, 1.0)
        acc = np.mean(np.where(Xte @ model.W[0] + model.b[0] > 0, 1, -1) == yte)
        assert acc >= 0.90

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_binary(np.ones((4, 2)), np.ones(4, dtype=int), (1.0,))

    def test_labels_must_be_plus_minus_one(self):
        with pytest.raises(ValueError):
            train_binary(np.ones((4, 2)), np.array([0, 1, 0, 1]), (1.0,))


def _example_weights(y_pm):
    """Inverse-frequency weights: both sides of the labels carry equal mass."""
    n = y_pm.shape[0]
    n_pos = np.sum(y_pm > 0)
    return np.where(y_pm > 0, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))


def _squared_hinge(w, b, X, y_pm, C):
    """The binary L2-loss SVM objective, written apart from the trainer."""
    n = y_pm.shape[0]
    slack = np.maximum(0.0, 1.0 - y_pm * (X @ w + b))
    return 0.5 / (C * n) * float(w @ w) + float(np.sum(_example_weights(y_pm) * slack * slack)) / n


def _squared_hinge_gradient(w, b, X, y_pm, C):
    """Gradient of `_squared_hinge` in (w, b), one sum per coordinate."""
    n, d = X.shape
    slack = np.maximum(0.0, 1.0 - y_pm * (X @ w + b))
    coef = -2.0 / n * _example_weights(y_pm) * slack * y_pm
    gw = np.array([w[j] / (C * n) + np.sum(coef * X[:, j]) for j in range(d)])
    return gw, float(np.sum(coef))


def _binary_problem(seed, n, d, duplicate=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.where(X @ rng.normal(size=d) + rng.normal(0, 0.5, n) > 0.3, 1, -1)
    y[:2] = (1, -1)
    if duplicate:
        X, y = np.vstack([X, X[: n // 2]]), np.concatenate([y, y[: n // 2]])
    return X, y


class TestTrainBinaryGrid:
    """Each model of a warm-started grid is the optimum a cold fit finds."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 150),
        d=st.integers(1, 8),
        log_cs=st.lists(st.integers(-8, 8), min_size=1, max_size=5),
    )
    def test_rows_equal_separate_fits(self, seed, n, d, log_cs):
        X, y = _binary_problem(seed, n, d)
        grid = [2.0**k for k in log_cs]
        fitted = train_binary(X, y, grid)
        assert isinstance(fitted, ModelGrid)
        assert len(fitted.models) == len(grid)
        for C, model in zip(grid, fitted.models):
            cold = _fit(X, y, C)
            got = _squared_hinge(model.W[0], model.b[0], X, y, C)
            want = _squared_hinge(cold.W[0], cold.b[0], X, y, C)
            assert got == pytest.approx(want, rel=1e-9)

    def test_grid_history_concatenates_models(self):
        X, y = _binary_problem(7, 101, 4)
        fitted = train_binary(X, y, (100.0, 0.01, 1.0))
        H = fitted.objective_history
        assert len(H) == sum(len(m.objective_history) for m in fitted.models)
        assert all(h.shape == (1,) for h in H)
        # the smallest C is fitted first, from zero: its history starts at the all-violated objective 1
        assert fitted.models[1].objective_history[0][0] == pytest.approx(1.0, rel=1e-12)
        assert fitted.models[0].objective_history[0][0] != pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize(
        "grid", [(), (float("nan"),), (float("inf"),), (0.25, float("nan")), (0.0,), (-1.0, 2.0), (1e-320,)]
    )
    def test_grid_needs_positive_finite_cs(self, grid):
        X, y = _binary_problem(8, 20, 2)
        with pytest.raises(ValueError, match="C must be a positive finite number" if grid else "empty C grid"):
            train_binary(X, y, grid)


class TestNewton:
    """The binary solver reaches the exact optimum of the squared-hinge objective."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 80),
        d=st.integers(1, 6),
        log_c=st.integers(-6, 8),
        duplicate=st.booleans(),
    )
    def test_first_order_optimal_and_unbeaten(self, seed, n, d, log_c, duplicate):
        from scipy.optimize import minimize

        X, y = _binary_problem(seed, n, d, duplicate)
        C = 2.0**log_c
        model = _fit(X, y, C)
        w, b = model.W[0], model.b[0]
        assert len(model.objective_history) - 1 < _NEWTON_MAX_STEPS
        gw, gb = _squared_hinge_gradient(w, b, X, y, C)
        scale = 1.0 + np.abs(w).max() / (C * X.shape[0])
        assert np.abs(gw).max() <= 1e-9 * scale
        assert abs(gb) <= 1e-9 * scale
        obj = _squared_hinge(w, b, X, y, C)
        assert obj == pytest.approx(float(model.objective_history[-1][0]), rel=1e-12, abs=1e-15)

        def f(z):
            return _squared_hinge(z[:d], z[d], X, y, C)

        def grad(z):
            return np.append(*_squared_hinge_gradient(z[:d], z[d], X, y, C))

        for start in (np.zeros(d + 1), np.append(w, b)):
            options = {"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12}
            res = minimize(f, start, jac=grad, method="L-BFGS-B", options=options)
            assert res.fun >= obj - 1e-12

    def test_objective_history_decreases(self):
        X, y = _binary_problem(21, 300, 5)
        model = _fit(X, y, 4.0)
        H = np.asarray(model.objective_history)[:, 0]
        assert H[0] == pytest.approx(1.0, rel=1e-12) and len(H) > 2
        assert np.all(np.diff(H) < 0.0)

    def _assert_converged(self, X, y, C, init=None):
        model = _fit(X, y, C, init=init)
        assert len(model.objective_history) - 1 < _NEWTON_MAX_STEPS
        gw, gb = _squared_hinge_gradient(model.W[0], model.b[0], X, y, C)
        assert np.abs(gw).max() <= 1e-9 and abs(gb) <= 1e-9
        return model

    def test_separable_duplicated_pairs(self):
        # every positive pair is one row and every negative another, far apart
        X = np.vstack([np.full((30, 1), 0.9996), np.full((90, 1), 1.2e-4)])
        y = np.array([1] * 30 + [-1] * 90)
        for C in (0.25, 1.0, 4.0, 256.0):
            model = self._assert_converged(X, y, C)
            assert np.all(np.sign(model.scores(X)[:, 0]) == y)

    def test_single_feature(self):
        X, y = _binary_problem(22, 60, 1)
        self._assert_converged(X, y, 16.0)

    def test_identical_feature_columns(self):
        X, y = _binary_problem(23, 60, 1)
        X = np.hstack([X, X, X])
        model = self._assert_converged(X, y, 16.0)
        # the regularizer splits the weight evenly over identical columns
        np.testing.assert_allclose(model.W[0], model.W[0, 0], rtol=1e-9)

    def test_step_with_no_row_inside_the_margin(self):
        X = np.array([[2.0], [1.0], [-1.0], [-2.0]])
        y = np.array([1, 1, -1, -1])
        init = LinearModel(np.array([[50.0]]), np.array([0.0]), np.array([1]))
        assert np.all(y * (X[:, 0] * 50.0) >= 1.0)
        model = self._assert_converged(X, y, 0.01, init=init)
        assert 0.0 < model.W[0, 0] < 50.0

    def test_memory_stays_near_the_feature_matrix(self):
        # the 80-identity refit shape: 1600 instances x 80 identities pairs, 10 parts
        rng = np.random.default_rng(24)
        n_inst, n_y, d = 1600, 80, 10
        truth = rng.integers(0, n_y, n_inst)
        P = rng.dirichlet(np.ones(n_y), size=(n_inst, d)).transpose(0, 2, 1)
        P[np.arange(n_inst), truth] += 0.3
        X = np.ascontiguousarray(P.reshape(-1, d))
        y = np.where(np.arange(n_y)[None, :] == truth[:, None], 1, -1).reshape(-1)
        assert X.shape == (128000, 10)
        tracemalloc.start()
        try:
            train_binary(X, y, (1.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes


class TestSgdStep:
    """The per-step oracle's update equals the one built from `hinge_subgradient`."""

    # a short batch is the epoch's last one, with fewer than `_BATCH_SIZE` rows
    @pytest.mark.parametrize("K,short", [(4, False), (4, True), (1, True), (3, False)])
    def test_step_matches_subgradient(self, K, short):
        rng = np.random.default_rng(10 + K)
        n, d = 40, 6
        B = 9 if short else svm._BATCH_SIZE
        X = rng.normal(size=(n, d))
        y_pos = rng.integers(0, K, n)
        S = _signs(y_pos, K)
        W = rng.normal(0, 0.3, (K, d))
        b = rng.normal(0, 0.1, K)
        lam = float(rng.uniform(1e-3, 1e-1))
        eta = rng.uniform(0.1, 2.0, K)
        idx = rng.permutation(n)[:B]

        gW, gb = hinge_subgradient(W, b, X[idx], y_pos[idx], lam)
        expected_W, expected_b = W - eta[:, None] * gW, b - eta * gb
        W, b = W[None].copy(), b[None].copy()
        _stacked_sgd_step(W, b, X[idx][None], S[idx][None], np.full((1, 1, 1), lam), eta[None])
        assert np.array_equal(W[0], expected_W)
        assert np.array_equal(b[0], expected_b)


def _unblocked_objective(W, b, X, y_pos, lam):
    """`hinge_objective` as one product over all rows."""
    S = _signs(y_pos, W.shape[0])
    hinge = np.maximum(0.0, 1.0 - S * (X @ W.T + b))
    return 0.5 * lam * np.sum(W * W, axis=1) + hinge.sum(axis=0) / X.shape[0]


def _stacked_sgd_step(W, b, Xb, Sb, lam, eta):
    """A step on a stack of G problems: W (G, K, d), b (G, K), Xb (G, B, d), eta (G, K)."""
    margins = Sb * (Xb @ W.transpose(0, 2, 1) + b[:, None, :])
    coef = (margins < 1.0) * Sb
    n = Xb.shape[1]
    W -= eta[:, :, None] * (lam * W - (coef.transpose(0, 2, 1) @ Xb) / n)
    b -= eta * (-coef.sum(axis=1) / n)


def _per_step_run_sgd(X, y_pos, n_classes, cfg, batch_size):
    """The trainer's loop on a one-problem stack, with one gather and one step size per mini-batch."""
    n, d = X.shape
    lam = np.asarray([1.0 / (cfg.C * n)])
    W = np.zeros((1, n_classes, d))
    b = np.zeros((1, n_classes))
    step_scale = np.ones((1, n_classes))
    S = _signs(y_pos, n_classes)

    def objective():
        return _unblocked_objective(W[0], b[0], X, y_pos, lam[0])[None]

    history = [objective()]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n, d, n_classes]))
    lam_rows, lam_steps = lam[:, None], lam[:, None, None]
    t = 0
    for _epoch in range(cfg.epochs):
        prev_W, prev_b = W.copy(), b.copy()
        prev_obj = history[-1]
        perm = rng.permutation(n)[None]
        for start in range(0, n, batch_size):
            idx = perm[:, start : start + batch_size]
            t += 1
            eta = step_scale / (lam_rows * t)
            Xb, Sb = np.take(X, idx, axis=0), np.take(S, idx, axis=0)
            _stacked_sgd_step(W, b, Xb, Sb, lam_steps, eta)
        obj = objective()
        worse = obj > prev_obj
        if np.any(worse):
            W[worse] = prev_W[worse]
            b[worse] = prev_b[worse]
            step_scale[worse] *= 0.5
            obj = np.where(worse, prev_obj, obj)
        history.append(obj)
    return W[0], b[0], [h[0] for h in history]


class TestBlockedLoop:
    """The block-gathered loop equals the per-step loop bit for bit."""

    def _case(self, seed, n, d, K, cfg, batch_size):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if K > 1:
            y_pos = np.argmax(X @ rng.normal(size=(d, K)) + rng.normal(0, 0.5, (n, K)), axis=1)
        else:  # one class row: y_pos 0 marks its positives
            y_pos = (X[:, 0] + rng.normal(0, 0.5, n) < 0.3).astype(np.int64)
        with mock.patch.object(svm, "_BATCH_SIZE", batch_size):
            got = _run_sgd(X, y_pos, K, cfg)
        ref = _per_step_run_sgd(X, y_pos, K, cfg, batch_size)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        assert len(got[2]) == len(ref[2])
        for h_got, h_ref in zip(got[2], ref[2]):
            assert np.array_equal(h_got, h_ref)
        return ref[2]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        K=st.integers(1, 3),
        d=st.integers(1, 6),
        batch_size=st.sampled_from([1, 3, 8]),
        blocks=st.integers(0, 2),
        extra=st.integers(1, 40),
        epochs=st.integers(1, 4),
        log_c=st.integers(-6, 6),
        row_seed=st.integers(0, 999),
    )
    def test_equals_per_step_loop(self, seed, K, d, batch_size, blocks, extra, epochs, log_c, row_seed):
        n = blocks * _GATHER_BLOCK_BATCHES * batch_size + extra
        cfg = TrainConfig(C=2.0**log_c, epochs=epochs, seed=row_seed)
        self._case(seed, n, d, K, cfg, batch_size)

    # the production batch size at the protocols' class counts: one-batch epochs of oneshot's one-shot
    # poselet fits (n = K = 20), and several batches with a short last one (n = 180, K = 60)
    @pytest.mark.parametrize("n,K", [(20, 20), (180, 60)])
    def test_production_batches(self, n, K):
        self._case(7, n, 32, K, TrainConfig(C=10.0, epochs=30, seed=4), svm._BATCH_SIZE)

    @pytest.mark.parametrize("K,short", [(1, True), (3, False)])
    def test_rolls_back_across_blocks(self, K, short):
        # batches of 8 over two gather blocks: short, the second block holds 17 rows and ends in a 1-row
        # batch; otherwise both blocks are whole
        n = _GATHER_BLOCK_BATCHES * 8 + 17 if short else 2 * _GATHER_BLOCK_BATCHES * 8
        history = self._case(5, n, 4, K, TrainConfig(C=100.0, epochs=8, seed=2), 8)
        assert sum(int(np.sum(b == a)) for a, b in zip(history, history[1:])) > 0


class TestBlockedObjective:
    """Scores over several row blocks equal the one-product scores row by row."""

    @pytest.mark.parametrize("K", [1, 4])
    def test_matches_unblocked_product(self, K):
        rng = np.random.default_rng(20 + K)
        n, d = 2 * _MAX_BLOCK_ROWS + 123, 10
        X = rng.normal(size=(n, d))
        W = rng.normal(size=(K, d))
        b = rng.normal(size=K)
        y_pos = rng.integers(0, K, n)
        assert np.array_equal(_row_blocked_scores(X, W, b), X @ W.T + b)
        expected = _unblocked_objective(W, b, X, y_pos, 0.01)
        assert np.array_equal(hinge_objective(W, b, X, y_pos, 0.01), expected)

    def test_blocks_sized_by_work(self):
        # a wide multiclass product takes short blocks, a binary one the row cap
        wide = [r.stop - r.start for r in _row_blocks(10**6, 32 * 60)]
        assert all(rows * 32 * 60 <= _BLOCK_MULTIPLY_ADDS for rows in wide[:-1])
        assert wide[-1] * 32 * 60 <= 1.5 * _BLOCK_MULTIPLY_ADDS
        assert [r.stop - r.start for r in _row_blocks(3 * _MAX_BLOCK_ROWS, 10)] == [_MAX_BLOCK_ROWS] * 3
        # blocks tile the rows in order; a short tail joins the block before it
        for n, work in ((0, 10), (5, 10), (2 * _MAX_BLOCK_ROWS + 17, 10), (999, 32 * 60), (10**4, 10**9)):
            blocks = _row_blocks(n, work)
            assert [r.start for r in blocks[1:]] == [r.stop for r in blocks[:-1]]
            assert (blocks[0].start, blocks[-1].stop) == (0, n) if n else blocks == []
            assert all(r.start % 8 == 0 for r in blocks)
            sizes = [r.stop - r.start for r in blocks]
            assert len(sizes) < 2 or sizes[-1] >= sizes[0] // 2

        rng = np.random.default_rng(25)
        K, d = 60, 32
        block = _row_blocks(10**6, d * K)[0].stop
        n = 2 * block + 17
        X = rng.normal(size=(n, d))
        W = rng.normal(size=(K, d))
        b = rng.normal(size=K)
        assert len(_row_blocks(n, d * K)) == 2
        assert np.array_equal(_row_blocked_scores(X, W, b), X @ W.T + b)
        model = LinearModel(W, b, np.arange(K))
        assert np.array_equal(model.scores(X), X @ W.T + b)


class TestTrainConfig:
    def test_validation(self):
        # 1e-320 is subnormal: positive and finite, but 1 / C overflows
        for C in (0.0, -1.0, float("nan"), float("inf"), float("-inf"), 1e-320):
            with pytest.raises(ValueError, match="C must be a positive finite number"):
                TrainConfig(C=C)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        assert [f.name for f in dataclasses.fields(TrainConfig)] == ["C", "epochs", "seed"]


def _bump(W, c, j, eps):
    out = W.copy()
    out[c, j] += eps
    return out
