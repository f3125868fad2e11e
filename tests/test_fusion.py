import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from partfusion import (
    FusionWeights,
    ProbabilityTable,
    fill_sparsity,
    fill_sparsity_rows,
    fuse_matrix,
    learn_weights,
    read_prob_table,
    read_weights,
    write_prob_table,
    write_weights,
)
from partfusion.fusion import DEFAULT_C_GRID, WeightLearningInfo, _balanced_accuracy
from partfusion.svm import train_binary


class TestCoverageMass:
    """The global mass on F_i that `fill_sparsity_rows` blends with, read off activated rows."""

    def test_full_support(self):
        # mass 1: the part's row comes through unchanged
        p0 = np.array([[0.25, 0.25, 0.5]])
        p_hat = np.array([[0.1, 0.6, 0.3]])
        out = fill_sparsity_rows(p_hat, p0, np.array([0, 1, 2]), np.array([True]))
        np.testing.assert_allclose(out, p_hat, atol=1e-15)

    def test_empty_set(self):
        # mass 0: the global row comes through exactly
        p0 = np.array([[0.4, 0.6]])
        out = fill_sparsity_rows(np.zeros((1, 2)), p0, np.array([], dtype=int), np.array([True]))
        assert np.array_equal(out, p0)

    def test_hand_value(self):
        # mass 0.5 + 0.2 = 0.7 on F = {0, 2}
        p0 = np.array([[0.5, 0.3, 0.2]])
        p_hat = np.array([[1.0, 0.0, 0.0]])
        out = fill_sparsity_rows(p_hat, p0, np.array([0, 2]), np.array([True]))
        np.testing.assert_allclose(out, 0.7 * p_hat + 0.3 * p0, atol=1e-15)


class TestFillSparsity:
    def test_not_activated_returns_global_row(self):
        p0 = np.array([0.5, 0.3, 0.2])
        out = fill_sparsity(np.zeros(3), p0, np.array([0, 1]), activated=False)
        np.testing.assert_array_equal(out, p0)
        assert out is not p0

    def test_full_coverage_returns_p_hat(self):
        p0 = np.array([0.5, 0.3, 0.2])
        ph = np.array([0.1, 0.1, 0.8])
        out = fill_sparsity(ph, p0, np.array([0, 1, 2]), activated=True)
        np.testing.assert_allclose(out, ph, atol=1e-12)

    def test_hand_case(self):
        out = fill_sparsity(
            np.array([0.9, 0.1, 0.0]),
            np.array([0.5, 0.3, 0.2]),
            np.array([0, 1]),
            activated=True,
        )
        np.testing.assert_allclose(out, [0.82, 0.14, 0.04], atol=1e-12)

    def test_mass_outside_coverage_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            fill_sparsity(
                np.array([0.5, 0.0, 0.5]),
                np.array([0.4, 0.3, 0.3]),
                np.array([0]),
                activated=True,
            )

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            n = int(rng.integers(2, 12))
            p0 = rng.dirichlet(np.ones(n))
            k = int(rng.integers(1, n + 1))
            F = np.sort(rng.choice(n, size=k, replace=False))
            ph = np.zeros(n)
            ph[F] = rng.dirichlet(np.ones(k))
            out = fill_sparsity(ph, p0, F, activated=True)
            assert abs(out.sum() - 1.0) < 1e-9
            assert (out >= -1e-12).all()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        n_y=st.integers(1, 200),
        rows=st.integers(1, 16),
        coverage=st.floats(0.0, 1.0),
        p_active=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_vectorized_rows_match_scalar(self, seed, n_y, rows, coverage, p_active):
        # Each Dirichlet row of P0 and P_hat sums to 1 within n_y eps (one rounding per normalized entry, and
        # the normalizing sum's). The blend mass * P_hat + (1 - mass) * P0 adds 4 roundings per entry, about
        # 4 eps over a row of mass 1, and an error in mass only scales the difference of two sums near 1;
        # summing the n_y entries adds up to n_y eps. So a filled row sums to 1 within (2 n_y + 4) eps.
        mass_tol = (2 * n_y + 4) * np.finfo(np.float64).eps
        rng = np.random.default_rng(seed)
        P0 = rng.dirichlet(np.ones(n_y), size=rows)
        F = np.flatnonzero(rng.random(n_y) < coverage)  # may be empty
        P_hat = np.zeros((rows, n_y))
        if F.size:
            P_hat[:, F] = rng.dirichlet(np.ones(F.size), size=rows)
        activated = rng.random(rows) < p_active
        block = fill_sparsity_rows(P_hat, P0, F, activated)
        # the buffer path writes only the activated rows of out, which may be P_hat itself
        kept = P0.copy()
        assert fill_sparsity_rows(P_hat, P0, F, activated, out=kept) is kept
        in_place = np.where(activated[:, None], P_hat, P0)
        fill_sparsity_rows(in_place, P0, F, activated, out=in_place)
        assert kept.tobytes() == in_place.tobytes() == block.tobytes()
        # filling preserves probability mass on the row path
        assert np.all(np.abs(block.sum(axis=1) - 1.0) <= mass_tol), block.sum(axis=1) - 1.0
        for r in range(rows):
            act = bool(activated[r])
            expect = _scalar_fill(P_hat[r], P0[r], F, act)
            assert np.array_equal(fill_sparsity(P_hat[r] if act else None, P0[r], F, act), expect)
            one_row = fill_sparsity_rows(P_hat[r : r + 1], P0[r : r + 1], F, activated[r : r + 1])
            assert np.array_equal(one_row[0], expect)
            # over several rows numpy sums the coverage mass of a column
            # gather in sequence, not pairwise: the mass may move by an ulp
            # per covered identity, and the row by twice that
            np.testing.assert_allclose(block[r], expect, rtol=0.0, atol=2 * max(F.size, 1) * np.finfo(np.float64).eps)
            if not act:
                assert np.array_equal(block[r], P0[r])


    @pytest.mark.parametrize("seed", range(40))
    def test_blend_equals_the_gathered_blend_bit_for_bit(self, seed):
        # the fill sums the mass column by column and blends in row blocks; the
        # gathered reference sums numpy's (rows, F) gather and blends every row at once
        rng = np.random.default_rng(seed)
        rows, n_y = int(rng.integers(1, 400)), int(rng.integers(1, 120))
        P0 = rng.dirichlet(np.full(n_y, 0.05), size=rows)  # many entries underflow to zero
        P0[: rows // 3] *= 1.0 + 1e-15  # masses a little over 1: 1 - mass < 0, and -0.0 products
        F = np.flatnonzero(rng.random(n_y) < rng.random())
        P_hat = np.zeros((rows, n_y))
        if F.size:
            P_hat[:, F] = rng.dirichlet(np.ones(F.size), size=rows)
        activated = rng.random(rows) < rng.choice([0.003, 0.5, 1.0])
        want = P0.copy()
        if activated.any():
            P0_act = P0[activated]
            mass = P0_act[:, F].sum(axis=1) if F.size else np.zeros(P0_act.shape[0])
            blend = P_hat[activated] * mass[:, None]
            blend += P0_act * (1.0 - mass)[:, None]
            want[activated] = blend
        assert fill_sparsity_rows(P_hat, P0, F, activated).tobytes() == want.tobytes()


def _scalar_fill(p_hat, p0_row, F_i, activated):
    """The fill rule one instance at a time: the oracle for both fill routines."""
    if not activated:
        return p0_row.copy()
    mass = p0_row[F_i].sum()
    return mass * p_hat + (1.0 - mass) * p0_row


class TestFusePredict:
    def test_single_part_identity(self):
        s = fuse_matrix([(0, np.array([[0.2, 0.8]]))], FusionWeights(np.array([1.0])))
        np.testing.assert_allclose(s, [[0.2, 0.8]])

    def test_convexity_of_identical_tables(self):
        P = [(0, np.array([[0.3, 0.7]])), (1, np.array([[0.3, 0.7]]))]
        s = fuse_matrix(P, FusionWeights(np.array([0.5, 0.5])))
        np.testing.assert_allclose(s, [[0.3, 0.7]])

    def test_hand_fusion(self):
        P = [(0, np.array([[0.6, 0.4]])), (1, np.array([[0.2, 0.8]]))]
        s = fuse_matrix(P, FusionWeights(np.array([2.0, 1.0])))
        np.testing.assert_allclose(s, [[1.4, 1.6]])
        assert np.argmax(s, axis=1).tolist() == [1]

    def test_part_without_weight_rejected(self):
        P = [(0, np.full((2, 3), 1.0 / 3.0)), (2, np.full((2, 3), 1.0 / 3.0))]
        with pytest.raises(ValueError, match="no fusion weight for part 2"):
            fuse_matrix(P, FusionWeights(np.ones(2)))

    def test_fuse_linear_in_weights(self):
        rng = np.random.default_rng(23)
        P = [(0, rng.dirichlet(np.ones(4), size=6)), (1, rng.dirichlet(np.ones(4), size=6))]
        w = rng.normal(size=2)
        a = 3.7
        s1 = fuse_matrix(P, FusionWeights(w))
        s2 = fuse_matrix(P, FusionWeights(a * w))
        np.testing.assert_allclose(s2, a * s1, rtol=1e-12)
        assert np.array_equal(np.argmax(s1, axis=1), np.argmax(s2, axis=1))

    def test_parts_fuse_in_stream_order(self):
        # callers fuse each part as it is computed; the sum runs in the stream's ascending part order
        rng = np.random.default_rng(24)
        P = {pid: rng.dirichlet(np.ones(5), size=7) for pid in (0, 1, 3)}
        fw = FusionWeights(rng.normal(size=4))
        want = fw.w[0] * P[0] + fw.w[1] * P[1] + fw.w[3] * P[3]
        assert np.array_equal(fuse_matrix(iter(sorted(P.items())), fw), want)
        with pytest.raises(ValueError, match="no fusion weight for part 3"):
            fuse_matrix(iter(sorted(P.items())), FusionWeights(np.ones(3)))
        with pytest.raises(ValueError, match="at least one part"):
            fuse_matrix(iter(()), fw)


@st.composite
def _table_parts(draw):
    """(instance ids in any order, float64 or float32 distribution rows, activation flags)."""
    n, n_y = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n, unique=True))
    w = draw(hnp.arrays(np.float64, (n, n_y), elements=st.floats(0.0, 1.0)))
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    P = w / w.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        P = P.astype(np.float32)
    return np.asarray(ids, dtype=np.int64), P, draw(hnp.arrays(bool, n))


class TestProbabilityTable:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(parts=_table_parts())
    def test_file_round_trip_is_bit_identical(self, parts):
        ids, P, activated = parts
        t = ProbabilityTable(5, ids, P, activated)
        order = np.argsort(ids)
        assert t.P.dtype == np.float32 and t.P.tobytes() == P.astype(np.float32)[order].tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "part_005.ppt"
            write_prob_table(path, t)
            back = read_prob_table(path)
        assert back.part_id == 5
        assert back.instance_ids.tobytes() == ids[order].tobytes()
        assert back.activated.tobytes() == activated[order].tobytes()
        assert back.P.dtype == np.float32 and back.P.tobytes() == t.P.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(parts=_table_parts(), data=st.data())
    def test_a_file_cut_anywhere_names_its_path(self, parts, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "part_005.ppt"
            write_prob_table(path, ProbabilityTable(5, *parts))
            whole = path.read_bytes()
            path.write_bytes(whole[: data.draw(st.integers(0, len(whole) - 1), label="cut")])
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                read_prob_table(path)

    def test_row_sums_validated(self):
        with pytest.raises(ValueError):
            ProbabilityTable(
                0, np.array([1]), np.array([[0.5, 0.2]]), np.array([True])
            )

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            ProbabilityTable(
                0, np.array([1]), np.array([[1.5, -0.5]]), np.array([True])
            )
        with pytest.raises(ValueError, match="outside"):
            ProbabilityTable(0, np.array([1]), np.array([[np.nan, 1.0]]), np.array([True]))

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        P = rng.dirichlet(np.ones(5), size=8)
        t = ProbabilityTable(2, np.arange(1, 9), P, rng.random(8) < 0.5)
        path = tmp_path / "part_002.ppt"
        write_prob_table(path, t)
        back = read_prob_table(path)
        assert back.part_id == 2
        np.testing.assert_array_equal(back.instance_ids, t.instance_ids)
        np.testing.assert_array_equal(back.activated, t.activated)
        # the float32 rows come back bit for bit; each is its float64 row rounded once
        assert back.P.dtype == np.float32 and back.P.tobytes() == P.astype(np.float32).tobytes()
        np.testing.assert_allclose(back.P.sum(axis=1, dtype=np.float64), 1.0, rtol=0.0, atol=2.0**-24)

    def test_truncated_header_names_path_and_lengths(self, tmp_path):
        path = tmp_path / "part_000.ppt"
        t = ProbabilityTable(0, np.array([1]), np.array([[1.0]]), np.array([True]))
        write_prob_table(path, t)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: truncated header: 10 bytes, the header needs 16"):
            read_prob_table(path)

    def test_truncated_body_names_path_and_lengths(self, tmp_path):
        path = tmp_path / "part_000.ppt"
        t = ProbabilityTable(0, np.array([1, 2]), np.full((2, 3), 1.0 / 3.0), np.array([True, False]))
        write_prob_table(path, t)
        whole = path.read_bytes()
        record = 8 + 1 + 4 * 3
        for cut in range(1, record):
            path.write_bytes(whole[:-cut])
            message = f"{path}: truncated body: {2 * record - cut} bytes is not a whole number of {record}-byte records"
            with pytest.raises(ValueError, match=re.escape(message)):
                read_prob_table(path)
        path.write_bytes(whole[:-record])
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 2 records, found 1")):
            read_prob_table(path)

    def test_write_holds_only_the_record_array(self, tmp_path):
        # A 6,400 x 320 table: the float32 records are about half the float64 P.
        rng = np.random.default_rng(25)
        P = rng.random((6400, 320))
        P /= P.sum(axis=1, keepdims=True)
        t = ProbabilityTable(4, np.arange(6400) * 3 + 1, P, rng.random(6400) < 0.5)
        path = tmp_path / "part_004.ppt"
        write_prob_table(path, ProbabilityTable(0, np.array([1]), np.array([[1.0]]), np.array([True])))
        tracemalloc.start()
        try:
            write_prob_table(path, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * P.nbytes, f"peak {peak / P.nbytes:.2f} tables"
        rec = np.dtype([("id", "<u8"), ("act", "u1"), ("p", "<f4", (320,))])
        body = np.empty(6400, dtype=rec)
        body["id"], body["act"], body["p"] = t.instance_ids.astype(np.uint64), t.activated, P.astype(np.float32)
        assert path.read_bytes() == b"PPT1" + np.array([4, 320, 6400], dtype="<u4").tobytes() + body.tobytes()

    def test_read_holds_the_file_and_one_table(self, tmp_path):
        # The file's float32 records, about half a float64 table; the returned table's P is a view of them.
        rng = np.random.default_rng(26)
        P = rng.random((6400, 320))
        P /= P.sum(axis=1, keepdims=True)
        path = tmp_path / "part_004.ppt"
        write_prob_table(path, ProbabilityTable(4, np.arange(6400) * 3 + 1, P, rng.random(6400) < 0.5))
        tracemalloc.start()
        try:
            t = read_prob_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.53 * P.nbytes, f"peak {peak / P.nbytes:.2f} tables"
        rec = np.dtype([("id", "<u8"), ("act", "u1"), ("p", "<f4", (320,))])
        assert t.P.dtype == np.float32
        assert t.P.tobytes() == np.frombuffer(path.read_bytes(), dtype=rec, offset=16)["p"].tobytes()

    @pytest.mark.parametrize(
        "field,value,message",
        [("id", 1, "duplicate instance ids in table for part 0"), ("p", 0.25, "rows must sum to 1 within 1e-3")],
    )
    def test_a_broken_table_rule_names_the_path(self, tmp_path, field, value, message):
        path = tmp_path / "part_000.ppt"
        write_prob_table(path, ProbabilityTable(0, np.array([1, 2]), np.full((2, 2), 0.5), np.array([True, True])))
        whole = path.read_bytes()
        body = np.frombuffer(whole, dtype=[("id", "<u8"), ("act", "u1"), ("p", "<f4", (2,))], offset=16).copy()
        body[field][1] = value
        path.write_bytes(whole[:16] + body.tobytes())
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_prob_table(path)


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        fw = FusionWeights(np.array([0.5, -1.25, 3.0]), bias=0.125)
        path = tmp_path / "weights.tsv"
        write_weights(path, fw)
        back = read_weights(path)
        np.testing.assert_array_equal(back.w, fw.w)
        assert back.bias == fw.bias

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FusionWeights(np.array([1.0, np.inf]))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0\t1.0\n1\t2.0\t3\n", r"weights.tsv:2: expected 2 tab-separated fields, got 3"),
            ("0\t1.0\n\n1\tabc\n", r"weights.tsv:3: expected a part id or 'bias' and a number"),
            ("x\t1.0\n", r"weights.tsv:1: expected a part id"),
            ("0\t1.0\n1\t1.0\n0\t5.0\nbias\t0.0\n", r"weights.tsv:3: part 0 is listed twice"),
            ("0\t1.0\n1\t1.0\nbias\t0.0\nbias\t3.0\n", r"weights.tsv:4: bias is listed twice"),
            ("0\t1.0\n1\tnan\nbias\t0.0\n", r"weights.tsv:2: expected a finite number, got 'nan'"),
            ("0\t-inf\nbias\t0.0\n", r"weights.tsv:1: expected a finite number, got '-inf'"),
            ("0\t1.0\nbias\tinf\n", r"weights.tsv:2: expected a finite number, got 'inf'"),
        ],
    )
    def test_malformed_lines_name_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "weights.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_weights(path)


def _tables_from_scores(scores, labels, n_y):
    """Build per-part softmax-ish tables from raw per-part score matrices."""
    tables = {}
    for pid, S in scores.items():
        P = np.exp(S - S.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        ids = np.arange(1, len(labels) + 1)
        tables[pid] = ProbabilityTable(pid, ids, P, np.ones(len(ids), dtype=bool))
    return tables


def _renormalized(P):
    """A table's rows widened to float64 and divided by their sums."""
    P = P.astype(np.float64)
    return P / P.sum(axis=1, keepdims=True)


def _pair_dataset(tables, labels_of):
    """(pair features, +-1 labels, pair instance ids) in (instance, identity) order, by `np.stack`.

    The features are the renormalized float64 rows.
    """
    part_ids = sorted(tables)
    ids = tables[part_ids[0]].instance_ids
    n_y = tables[part_ids[0]].n_identities
    X = np.stack([_renormalized(tables[pid].P) for pid in part_ids], axis=2).reshape(-1, len(part_ids))
    truth = np.asarray([labels_of[i] for i in ids.tolist()], dtype=np.int64)
    y = np.where(np.arange(n_y)[None, :] == truth[:, None], 1, -1).reshape(-1)
    return X, y, np.repeat(ids, n_y)


def _learn_weights_oracle(tables, labels_of, halves, clamp_nonnegative=False):
    """Weight learning on one stacked pair matrix and fancy-indexed half copies of it."""
    X, y, owner = _pair_dataset(tables, labels_of)
    half = np.asarray([halves[i] for i in owner.tolist()], dtype=np.int64)
    fit_idx, held_idx = np.flatnonzero(half == 0), np.flatnonzero(half == 1)
    grid = train_binary(X[fit_idx], y[fit_idx], DEFAULT_C_GRID)
    X_held = X[held_idx]
    grid_scores, best, best_score = [], 0, -1.0
    for k, (C, model) in enumerate(zip(DEFAULT_C_GRID, grid.models)):
        acc = _balanced_accuracy(y[held_idx], np.where(model.scores(X_held)[:, 0] > 0.0, 1, -1))
        grid_scores.append((float(C), acc))
        if acc > best_score + 1e-12:
            best, best_score = k, acc
    final = train_binary(X, y, (DEFAULT_C_GRID[best],), init=grid.models[best]).models[0]
    w = np.maximum(final.W[0], 0.0) if clamp_nonnegative else final.W[0].copy()
    objectives = tuple(float(m.objective_history[-1][0]) for m in grid.models)
    info = WeightLearningInfo(float(DEFAULT_C_GRID[best]), tuple(grid_scores), int(X.shape[0]), objectives)
    return FusionWeights(w, float(final.b[0])), info


def _squared_hinge_objective(w, b, X, y, C):
    """The inverse-frequency weighted L2-loss SVM objective weight learning minimises."""
    n = y.shape[0]
    n_pos = np.sum(y > 0)
    c = np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    slack = np.maximum(0.0, 1.0 - y * (X @ w + b))
    return 0.5 / (C * n) * float(w @ w) + float(np.sum(c * slack**2)) / n


class TestLearnWeights:
    def _planted_setup(self, seed, n=60, n_y=6, parts=4, informative=2):
        rng = np.random.default_rng(seed)
        labels = {i + 1: int(rng.integers(0, n_y)) for i in range(n)}
        truth = np.array([labels[i + 1] for i in range(n)])
        scores = {}
        for pid in range(parts):
            S = rng.normal(0, 1, (n, n_y))
            if pid == informative:
                S[np.arange(n), truth] += 4.0
            scores[pid] = S
        tables = _tables_from_scores(scores, labels, n_y)
        halves = {i + 1: (i % 2) for i in range(n)}
        return tables, labels, halves

    @pytest.mark.parametrize(
        "seed,n,n_y,parts,clamp",
        [(40, 60, 6, 4, False), (41, 60, 6, 4, True), (42, 900, 30, 3, False)],
    )
    def test_equals_the_fancy_index_oracle(self, seed, n, n_y, parts, clamp):
        # the largest case (27k pairs) spans several Newton row blocks
        tables, labels, halves = self._planted_setup(seed, n=n, n_y=n_y, parts=parts)
        want_fw, want_info = _learn_weights_oracle(tables, labels, halves, clamp)
        fw, info = learn_weights(dict(tables), labels, halves, clamp_nonnegative=clamp)
        assert np.array_equal(fw.w, want_fw.w) and fw.bias == want_fw.bias
        assert info == want_info

    def test_peak_memory_within_two_and_a_half_pair_matrices(self):
        # 80 identities, 20 instances each, 10 parts: a 9.8 MB pair matrix.
        # The tables count until learn_weights drops them: half a pair matrix's worth of float32 bytes.
        learn_weights(*self._planted_setup(1, n=20, n_y=4))  # loads numpy's lazy parts
        n_y, per, parts = 80, 20, 10
        tracemalloc.start()
        try:
            tables, labels, halves = self._planted_setup(2, n=n_y * per, n_y=n_y, parts=parts)
            tracemalloc.reset_peak()
            fw, info = learn_weights(tables, labels, halves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pair_bytes = info.n_pairs * parts * 8
        assert info.n_pairs == n_y * per * n_y
        assert peak <= 2.5 * pair_bytes, f"peak {peak / pair_bytes:.2f} pair matrices"

    def test_empties_the_dict_and_leaves_the_tables(self):
        tables, labels, halves = self._planted_setup(30)
        held = dict(tables)
        stored = {pid: t.P.copy() for pid, t in tables.items()}
        with pytest.raises(ValueError, match="both halves"):
            learn_weights(tables, labels, dict.fromkeys(halves, 0))
        assert tables == held  # a rejected call takes no table
        learn_weights(tables, labels, halves)
        assert tables == {}
        for pid, t in held.items():
            assert t.P.dtype == np.float32 and t.P.tobytes() == stored[pid].tobytes()
        with pytest.raises(ValueError, match="no probability tables"):
            learn_weights(tables, labels, halves)

    def test_planted_informative_part_wins(self):
        tables, labels, halves = self._planted_setup(31)
        fw, info = learn_weights(tables, labels, halves)
        assert int(np.argmax(np.abs(fw.w))) == 2
        assert info.n_pairs == len(labels) * 6

    def test_deterministic_given_seed(self):
        # the solver is exact and draws no random numbers: two runs on the same tables agree bit for bit
        tables, labels, halves = self._planted_setup(32)
        fw1, _ = learn_weights(dict(tables), labels, halves)
        fw2, _ = learn_weights(dict(tables), labels, halves)
        np.testing.assert_array_equal(fw1.w, fw2.w)
        assert fw1.bias == fw2.bias

    def test_identical_tables_collapse(self):
        rng = np.random.default_rng(33)
        n, n_y = 40, 5
        labels = {i + 1: int(rng.integers(0, n_y)) for i in range(n)}
        truth = np.array([labels[i + 1] for i in range(n)])
        S = rng.normal(0, 1, (n, n_y))
        S[np.arange(n), truth] += 2.0
        tables = _tables_from_scores({0: S, 1: S.copy(), 2: S.copy()}, labels, n_y)
        halves = {i + 1: (i % 2) for i in range(n)}
        fw, _ = learn_weights(dict(tables), labels, halves)
        # s = (sum of w) * P: same argmax as one part whenever the sum is positive
        assert fw.w.sum() > 0
        base = np.argmax(tables[0].P, axis=1)
        fused = np.argmax(fuse_matrix(((p, t.P) for p, t in sorted(tables.items())), fw), axis=1)
        np.testing.assert_array_equal(fused, base)

    def test_clamp_flag(self):
        tables, labels, halves = self._planted_setup(34)
        fw, _ = learn_weights(tables, labels, halves, clamp_nonnegative=True)
        assert (fw.w >= 0).all()

    def test_grid_matches_one_fit_per_c(self):
        # oracle: a cold single fit per C, scored by an objective written here
        tables, labels, halves = self._planted_setup(37, n=50)
        grid = DEFAULT_C_GRID
        fw, info = learn_weights(dict(tables), labels, halves)

        X, y, owner = _pair_dataset(tables, labels)
        half = np.asarray([halves[i] for i in owner.tolist()])
        fit, held = half == 0, half == 1
        expected, objectives = [], []
        for C in grid:
            model = train_binary(X[fit], y[fit], (C,)).models[0]
            pred = np.where(model.scores(X[held])[:, 0] > 0.0, 1, -1)
            expected.append((C, _balanced_accuracy(y[held], pred)))
            objectives.append(_squared_hinge_objective(model.W[0], model.b[0], X[fit], y[fit], C))
        assert info.grid_scores == tuple(expected)
        for got, want, C in zip(info.grid_objectives, objectives, grid):
            assert got == pytest.approx(want, rel=1e-9)
            assert got <= _squared_hinge_objective(np.zeros(X.shape[1]), 0.0, X[fit], y[fit], C)
        final = train_binary(X, y, (info.best_C,)).models[0]
        got = _squared_hinge_objective(fw.w, fw.bias, X, y, info.best_C)
        want = _squared_hinge_objective(final.W[0], final.b[0], X, y, info.best_C)
        assert got == pytest.approx(want, rel=1e-9)

    def test_tie_prefers_smaller_c(self):
        # perfectly separable pairs: every C scores 1.0, so the smallest wins
        rng = np.random.default_rng(36)
        n, n_y = 30, 4
        labels = {i + 1: int(rng.integers(0, n_y)) for i in range(n)}
        truth = np.array([labels[i + 1] for i in range(n)])
        S = np.zeros((n, n_y))
        S[np.arange(n), truth] = 9.0
        tables = _tables_from_scores({0: S}, labels, n_y)
        halves = {i + 1: (i % 2) for i in range(n)}
        _, info = learn_weights(tables, labels, halves)
        scores = dict(info.grid_scores)
        top = max(scores.values())
        assert info.best_C == min(c for c, s in scores.items() if s >= top - 1e-12)
