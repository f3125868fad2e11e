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
    load_model,
    predict_classes,
    save_model,
    score,
    softmax,
    train_binary,
    train_multiclass,
)
from partfusion.svm import (
    _GATHER_BLOCK_BATCHES,
    _OBJECTIVE_BLOCK_ROWS,
    _row_blocked_scores,
    _run_sgd,
    _sgd_step,
    _signs,
    read_model_bytes,
    write_model_bytes,
)


def _separable_two_class(rng, n=40, d=5, gap=2.0):
    X = np.vstack([rng.normal(-gap, 0.3, (n, d)), rng.normal(gap, 0.3, (n, d))])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestTrainMulticlass:
    def test_separable_reaches_full_train_accuracy(self):
        rng = np.random.default_rng(0)
        X, y = _separable_two_class(rng)
        model = train_multiclass(X, y, TrainConfig(C=10.0, epochs=30, seed=3))
        assert np.mean(predict_classes(model, X) == y) == 1.0

    def test_class_index_is_sorted_distinct_labels(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        y = np.array([7, 3, 12] * 10)
        model = train_multiclass(X, y, TrainConfig(epochs=2, seed=0))
        assert model.class_index.tolist() == [3, 7, 12]

    def test_row_permutation_gives_identical_model(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 6))
        y = rng.integers(0, 4, 60)
        row_ids = np.arange(100, 160)
        cfg = TrainConfig(C=5.0, epochs=8, seed=9)
        m1 = train_multiclass(X, y, cfg, row_ids=row_ids)
        perm = rng.permutation(60)
        m2 = train_multiclass(X[perm], y[perm], cfg, row_ids=row_ids[perm])
        np.testing.assert_array_equal(m1.W, m2.W)
        np.testing.assert_array_equal(m1.b, m2.b)

    def test_gaussian_blobs_beat_95_percent_heldout(self):
        rng = np.random.default_rng(4)
        k, d, n = 5, 8, 40
        protos = rng.normal(0, 1, (k, d)) * 3.0
        Xtr = np.vstack([protos[c] + rng.normal(0, 0.25, (n, d)) for c in range(k)])
        ytr = np.repeat(np.arange(k), n)
        Xte = np.vstack([protos[c] + rng.normal(0, 0.25, (n, d)) for c in range(k)])
        yte = np.repeat(np.arange(k), n)
        model = train_multiclass(Xtr, ytr, TrainConfig(C=10.0, epochs=30, seed=1))
        acc = np.mean(predict_classes(model, Xte) == yte)
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
        assert predict_classes(model, np.array([[1.0, 0.0]]))[0] == 4


class TestScoreSoftmax:
    def test_zero_model_scores(self):
        model = LinearModel(np.zeros((3, 2)), np.zeros(3), np.arange(3), [])
        np.testing.assert_array_equal(score(model, np.array([5.0, -1.0])), np.zeros(3))

    def test_identity_weights(self):
        model = LinearModel(np.eye(2), np.zeros(2), np.arange(2), [])
        np.testing.assert_array_equal(score(model, np.array([1.0, 0.0])), [1.0, 0.0])

    def test_score_matches_direct_dot(self):
        rng = np.random.default_rng(8)
        W = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        x = rng.normal(size=6)
        model = LinearModel(W, b, np.arange(4), [])
        np.testing.assert_allclose(score(model, x), W @ x + b, rtol=1e-12)

    def test_dimension_mismatch(self):
        model = LinearModel(np.eye(2), np.zeros(2), np.arange(2), [])
        with pytest.raises(ValueError):
            score(model, np.zeros(3))

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


class TestTrainBinary:
    def test_separation_direction(self):
        rng = np.random.default_rng(13)
        X = np.concatenate([rng.uniform(1, 2, 30), rng.uniform(-2, -1, 30)])[:, None]
        y = np.array([1] * 30 + [-1] * 30)
        model = train_binary(X, y, TrainConfig(C=10.0, epochs=20, seed=0))
        assert model.W[0, 0] > 0

    def test_duplicated_dataset_same_direction(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 3))
        y = np.where(X @ np.array([1.0, -2.0, 0.5]) > 0, 1, -1)
        w1 = train_binary(X, y, TrainConfig(C=5.0, epochs=20, seed=1)).W[0]
        w2 = train_binary(
            np.vstack([X, X]), np.concatenate([y, y]), TrainConfig(C=5.0, epochs=20, seed=1)
        ).W[0]
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
        model = train_binary(Xtr, ytr, TrainConfig(C=1.0, epochs=30, seed=2))
        acc = np.mean(np.where(Xte @ model.W[0] + model.b[0] > 0, 1, -1) == yte)
        assert acc >= 0.90

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_binary(np.ones((4, 2)), np.ones(4, dtype=int), TrainConfig())

    def test_labels_must_be_plus_minus_one(self):
        with pytest.raises(ValueError):
            train_binary(np.ones((4, 2)), np.array([0, 1, 0, 1]), TrainConfig())


def _assert_same_fit(got: LinearModel, ref: LinearModel) -> None:
    assert np.array_equal(got.W, ref.W)
    assert np.array_equal(got.b, ref.b)
    assert len(got.objective_history) == len(ref.objective_history)
    for h_got, h_ref in zip(got.objective_history, ref.objective_history):
        assert np.array_equal(h_got, h_ref)


def _rolled_back(model: LinearModel) -> int:
    H = model.objective_history
    return sum(int(np.sum(b == a)) for a, b in zip(H, H[1:]))


class TestTrainBinaryGrid:
    """A grid fit must equal separate one-config fits bit for bit."""

    def _problem(self, seed, n, d):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = np.where(X @ rng.normal(size=d) + rng.normal(0, 0.5, n) > 0.3, 1, -1)
        y[:2] = (1, -1)
        return X, y

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 150),
        d=st.integers(1, 8),
        batch_size=st.sampled_from([1, 5, 32]),
        epochs=st.integers(1, 6),
        weighting=st.sampled_from(["uniform", "inverse-frequency"]),
        grid=st.lists(
            st.tuples(st.integers(-8, 8), st.integers(0, 999), st.sampled_from([1.0, 8.0])),
            min_size=1,
            max_size=4,
        ),
    )
    def test_rows_equal_separate_fits(self, seed, n, d, batch_size, epochs, weighting, grid):
        X, y = self._problem(seed, n, d)
        cfgs = [
            TrainConfig(
                C=2.0**log_c,
                epochs=epochs,
                batch_size=batch_size,
                seed=row_seed,
                class_weighting=weighting,
                step_scale=scale,
            )
            for log_c, row_seed, scale in grid
        ]
        fitted = train_binary(X, y, cfgs)
        assert isinstance(fitted, ModelGrid)
        assert len(fitted.models) == len(cfgs)
        for cfg, model in zip(cfgs, fitted.models):
            _assert_same_fit(model, train_binary(X, y, cfg))

    def test_ragged_last_batch_and_rollback(self):
        # 101 rows in batches of 32; a large step scale makes some row reject epochs
        X, y = self._problem(7, 101, 4)
        cfgs = [
            TrainConfig(C=C, epochs=12, seed=k, class_weighting="inverse-frequency", step_scale=30.0)
            for k, C in enumerate((0.01, 1.0, 100.0))
        ]
        assert X.shape[0] % cfgs[0].batch_size != 0
        fitted = train_binary(X, y, cfgs)
        singles = [train_binary(X, y, cfg) for cfg in cfgs]
        for model, single in zip(fitted.models, singles):
            _assert_same_fit(model, single)
        rolled = [_rolled_back(m) for m in singles]
        assert any(r > 0 for r in rolled) and not all(r == rolled[0] for r in rolled)
        # the grid's history stacks the rows, so trace counts add up
        H = fitted.objective_history
        assert all(h.shape == (3,) for h in H)
        assert sum(int(np.sum(b == a)) for a, b in zip(H, H[1:])) == sum(rolled)

    def test_configs_must_share_schedule(self):
        X, y = self._problem(8, 20, 2)
        with pytest.raises(ValueError, match="differ only"):
            train_binary(X, y, [TrainConfig(epochs=2), TrainConfig(epochs=3)])
        with pytest.raises(ValueError, match="no training configs"):
            train_binary(X, y, [])


class TestSgdStep:
    """One loop step equals the update built from `hinge_subgradient`."""

    @pytest.mark.parametrize("G,K,weighted", [(1, 4, False), (1, 4, True), (5, 1, True), (3, 3, False)])
    def test_step_matches_subgradient(self, G, K, weighted):
        rng = np.random.default_rng(G * 10 + K)
        n, d, B = 40, 6, 9
        X = rng.normal(size=(n, d))
        y_pos = rng.integers(0, K, n)
        cw = rng.uniform(0.5, 2.0, (n, K)) if weighted else None
        S = _signs(y_pos, K)
        CS = S if cw is None else cw * S
        W = rng.normal(0, 0.3, (G, K, d))
        b = rng.normal(0, 0.1, (G, K))
        lam = rng.uniform(1e-3, 1e-1, G)
        eta = rng.uniform(0.1, 2.0, (G, K))
        idx = np.stack([rng.permutation(n)[:B] for _ in range(G)])

        expected_W, expected_b = W.copy(), b.copy()
        for g in range(G):
            gW, gb = hinge_subgradient(
                W[g], b[g], X[idx[g]], y_pos[idx[g]], lam[g], None if cw is None else cw[idx[g]]
            )
            expected_W[g] -= eta[g][:, None] * gW
            expected_b[g] -= eta[g] * gb
        _sgd_step(W, b, X[idx], S[idx], CS[idx], lam[:, None, None], eta, True)
        assert np.array_equal(W, expected_W)
        assert np.array_equal(b, expected_b)


def _unblocked_objective(W, b, X, y_pos, lam, class_weights):
    """`hinge_objective` as one product over all rows."""
    S = _signs(y_pos, W.shape[0])
    hinge = np.maximum(0.0, 1.0 - S * (X @ W.T + b))
    if class_weights is not None:
        hinge = hinge * class_weights
    return 0.5 * lam * np.sum(W * W, axis=1) + hinge.sum(axis=0) / X.shape[0]


def _per_step_run_sgd(X, y_pos, n_classes, cfgs, class_weights):
    """The trainer's loop with one gather and one step size per mini-batch."""
    n, d = X.shape
    cfg = cfgs[0]
    G = len(cfgs)
    lam = np.asarray([1.0 / (c.C * n) for c in cfgs])
    W = np.zeros((G, n_classes, d))
    b = np.zeros((G, n_classes))
    step_scale = np.repeat([[c.step_scale] for c in cfgs], n_classes, axis=1)
    S = _signs(y_pos, n_classes)
    CS = S if class_weights is None else class_weights * S

    def objective():
        return np.stack([_unblocked_objective(W[g], b[g], X, y_pos, lam[g], class_weights) for g in range(G)])

    history = [objective()]
    rngs = [np.random.default_rng(np.random.SeedSequence([c.seed, n, d, n_classes])) for c in cfgs]
    perm = np.empty((G, n), dtype=np.int32)
    lam_rows, lam_steps = lam[:, None], lam[:, None, None]
    t = 0
    for _epoch in range(cfg.epochs):
        prev_W, prev_b = W.copy(), b.copy()
        prev_obj = history[-1]
        for g, rng in enumerate(rngs):
            perm[g] = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[:, start : start + cfg.batch_size]
            t += 1
            eta = step_scale / (lam_rows * t)
            Xb, Sb, CSb = np.take(X, idx, axis=0), np.take(S, idx, axis=0), np.take(CS, idx, axis=0)
            _sgd_step(W, b, Xb, Sb, CSb, lam_steps, eta, cfg.fit_bias)
        obj = objective()
        worse = obj > prev_obj
        if np.any(worse):
            W[worse] = prev_W[worse]
            b[worse] = prev_b[worse]
            step_scale[worse] *= 0.5
            obj = np.where(worse, prev_obj, obj)
        history.append(obj)
    return W, b, history


class TestBlockedLoop:
    """The block-gathered loop equals the per-step loop bit for bit."""

    def _case(self, seed, n, d, K, weighted, cfgs):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if K > 1:
            y_pos = np.argmax(X @ rng.normal(size=(d, K)) + rng.normal(0, 0.5, (n, K)), axis=1)
        else:  # binary: y_pos 0 marks the positives of the one class row
            y_pos = (X[:, 0] + rng.normal(0, 0.5, n) < 0.3).astype(np.int64)
        cw = rng.uniform(0.5, 2.0, (n, K)) if weighted else None
        got = _run_sgd(X, y_pos, K, cfgs, cw, None)
        ref = _per_step_run_sgd(X, y_pos, K, cfgs, cw)
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
        weighted=st.booleans(),
        grid=st.lists(
            st.tuples(st.integers(-6, 6), st.integers(0, 999), st.sampled_from([1.0, 30.0])),
            min_size=1,
            max_size=3,
        ),
    )
    def test_equals_per_step_loop(self, seed, K, d, batch_size, blocks, extra, epochs, weighted, grid):
        n = blocks * _GATHER_BLOCK_BATCHES * batch_size + extra
        cfgs = tuple(
            TrainConfig(C=2.0**log_c, epochs=epochs, batch_size=batch_size, seed=row_seed, step_scale=scale)
            for log_c, row_seed, scale in grid
        )
        self._case(seed, n, d, K, weighted, cfgs)

    @pytest.mark.parametrize("K,weighted", [(1, True), (3, False)])
    def test_rolls_back_across_blocks(self, K, weighted):
        # block + 17 rows in batches of 8: two gather blocks and a short last batch
        n = _GATHER_BLOCK_BATCHES * 8 + 17
        cfgs = tuple(
            TrainConfig(C=C, epochs=8, batch_size=8, seed=k, step_scale=30.0) for k, C in enumerate((0.01, 1.0, 100.0))
        )
        history = self._case(5, n, 4, K, weighted, cfgs)
        assert sum(int(np.sum(b == a)) for a, b in zip(history, history[1:])) > 0


class TestBlockedObjective:
    """Scores over several row blocks equal the one-product scores row by row."""

    @pytest.mark.parametrize("K", [1, 4])
    def test_matches_unblocked_product(self, K):
        rng = np.random.default_rng(20 + K)
        n, d = 2 * _OBJECTIVE_BLOCK_ROWS + 123, 10
        X = rng.normal(size=(n, d))
        W = rng.normal(size=(K, d))
        b = rng.normal(size=K)
        y_pos = rng.integers(0, K, n)
        cw = rng.uniform(0.5, 2.0, (n, K))
        assert np.array_equal(_row_blocked_scores(X, W, b), X @ W.T + b)
        for weights in (None, cw):
            expected = _unblocked_objective(W, b, X, y_pos, 0.01, weights)
            assert np.array_equal(hinge_objective(W, b, X, y_pos, 0.01, weights), expected)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(C=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(class_weighting="fancy")

    def test_weighting_modes_differ_on_imbalanced_data(self):
        rng = np.random.default_rng(16)
        X = np.vstack([rng.normal(-1, 0.8, (90, 3)), rng.normal(1, 0.8, (10, 3))])
        y = np.array([0] * 90 + [1] * 10)
        mu = train_multiclass(X, y, TrainConfig(C=1.0, epochs=10, seed=0))
        mi = train_multiclass(
            X, y, TrainConfig(C=1.0, epochs=10, seed=0, class_weighting="inverse-frequency")
        )
        assert not np.array_equal(mu.W, mi.W)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        model = LinearModel(
            rng.normal(size=(3, 5)), rng.normal(size=3), np.array([2, 5, 9]), []
        )
        path = tmp_path / "m.plm"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(back.W, model.W)
        np.testing.assert_array_equal(back.b, model.b)
        np.testing.assert_array_equal(back.class_index, model.class_index)

    def test_truncated_or_trailing_bytes_rejected(self, tmp_path):
        model = LinearModel(np.ones((2, 3)), np.zeros(2), np.arange(2), [])
        buf = write_model_bytes(model)
        with pytest.raises(ValueError, match=f"needs {len(buf)} bytes, got {len(buf) - 1}"):
            read_model_bytes(buf[:-1])
        with pytest.raises(ValueError, match=f"needs {len(buf)} bytes, got {len(buf) + 1}"):
            read_model_bytes(buf + b"\0")
        with pytest.raises(ValueError, match="header needs 12 bytes, got 6"):
            read_model_bytes(buf[:6])
        path = tmp_path / "short.plm"
        path.write_bytes(buf[:-1])
        with pytest.raises(ValueError, match="short.plm"):
            load_model(path)

    def test_write_is_deterministic(self, tmp_path):
        model = LinearModel(np.ones((2, 2)), np.zeros(2), np.arange(2), [])
        p1, p2 = tmp_path / "a.plm", tmp_path / "b.plm"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()


def _bump(W, c, j, eps):
    out = W.copy()
    out[c, j] += eps
    return out
