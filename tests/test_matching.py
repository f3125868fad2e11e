import re
import tempfile
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_floats
from partfusion import matching
from partfusion import (
    Assignment,
    BBox,
    Detection,
    Instance,
    activations_per_instance,
    body_from_head,
    load_detections,
    match_bruteforce,
    match_detections,
    normalize_scores,
    write_detections,
)


def _truth(iid, x=0.0, y=0.0, w=10.0, h=10.0, photo=1):
    return Instance(iid, photo, 1, 1, BBox(x, y, w, h), 0, "test")


def _det_on(truth, det_id, score=0.8, jitter=0.0, activations=()):
    body = body_from_head(truth.head)
    box = BBox(body.x + jitter, body.y + jitter, body.w, body.h)
    return Detection(det_id, box, score, tuple(activations))


def _random_photo(rng, max_side=7):
    nt = int(rng.integers(0, max_side + 1))
    nd = int(rng.integers(0, max_side + 1))
    truths = [
        _truth(i + 1, x=float(rng.uniform(0, 300)), y=float(rng.uniform(0, 300)),
               w=float(rng.uniform(8, 40)), h=float(rng.uniform(8, 40)))
        for i in range(nt)
    ]
    dets = []
    for j in range(nd):
        if nt and rng.random() < 0.7:
            base = body_from_head(truths[int(rng.integers(0, nt))].head)
        else:
            base = BBox(float(rng.uniform(0, 300)), float(rng.uniform(0, 300)),
                        float(rng.uniform(10, 80)), float(rng.uniform(10, 80)))
        box = BBox(
            base.x + float(rng.uniform(-0.3, 0.3)) * base.w,
            base.y + float(rng.uniform(-0.3, 0.3)) * base.h,
            base.w * float(rng.uniform(0.7, 1.3)),
            base.h * float(rng.uniform(0.7, 1.3)),
        )
        dets.append(Detection(j + 1, box, float(rng.uniform(0, 1)), ()))
    return truths, dets


class TestMatchDetections:
    def test_forced_single_match(self):
        t = _truth(1)
        d = _det_on(t, 5)
        out = match_detections([t], [d])
        assert out.pairs == ((1, 5),)
        assert out.unmatched_truths == ()
        assert out.unmatched_detections == ()

    def test_no_detections(self):
        out = match_detections([_truth(1), _truth(2, x=100)], [])
        assert out.pairs == ()
        assert out.unmatched_truths == (1, 2)

    def test_empty_both(self):
        out = match_detections([], [])
        assert out == Assignment((), (), ())

    def test_inadmissible_pair_left_unmatched(self):
        t = _truth(1)
        d = Detection(9, BBox(500, 500, 10, 10), 0.9, ())
        out = match_detections([t], [d])
        assert out.pairs == ()
        assert out.unmatched_truths == (1,)
        assert out.unmatched_detections == (9,)

    def test_three_by_three_matches_bruteforce(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            truths = [_truth(i + 1, x=float(rng.uniform(0, 80))) for i in range(3)]
            dets = [
                _det_on(truths[int(rng.integers(0, 3))], j + 1,
                        score=float(rng.uniform(0, 1)),
                        jitter=float(rng.uniform(-5, 5)))
                for j in range(3)
            ]
            a = match_detections(truths, dets)
            b = match_bruteforce(truths, dets)
            assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)
            assert a.pairs == b.pairs

    def test_random_photos_match_bruteforce(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            truths, dets = _random_photo(rng)
            a = match_detections(truths, dets)
            b = match_bruteforce(truths, dets)
            assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)
            assert a.pairs == b.pairs

    def test_raising_tau_never_adds_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            truths, dets = _random_photo(rng, max_side=5)
            sizes = [
                len(match_detections(truths, dets, tau_iou=tau).pairs)
                for tau in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
            ]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_order_invariance(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            truths, dets = _random_photo(rng, max_side=6)
            a = match_detections(truths, dets)
            perm_t = [truths[i] for i in rng.permutation(len(truths))]
            perm_d = [dets[i] for i in rng.permutation(len(dets))]
            b = match_detections(perm_t, perm_d)
            assert a.pairs == b.pairs
            assert a.unmatched_truths == b.unmatched_truths
            assert a.unmatched_detections == b.unmatched_detections

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            match_detections([], [], tau_iou=1.5)
        with pytest.raises(ValueError):
            match_detections([], [], lam=-0.1)

    def test_prefers_higher_score_when_iou_equal(self):
        t = _truth(1)
        weak = _det_on(t, 1, score=0.1)
        strong = Detection(2, weak.person_box, 0.9, ())
        out = match_detections([t], [weak, strong])
        assert out.pairs == ((1, 2),)


def _enumerated_optimum(cost, maximize):
    """Best total (the largest with ``maximize``) over every assignment of min(n, m) pairs, by enumeration."""
    n, m = cost.shape
    if n <= m:
        totals = [sum(cost[i, j] for i, j in enumerate(cols)) for cols in permutations(range(m), n)]
    else:
        totals = [sum(cost[i, j] for j, i in enumerate(rows)) for rows in permutations(range(n), m)]
    return max(totals) if maximize else min(totals)


@st.composite
def _cost_matrices(draw):
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(st.sampled_from([
        st.integers(-3, 3).map(float),  # ties are common
        st.floats(-10.0, 10.0, allow_nan=False),
    ]))
    values = draw(st.lists(entries, min_size=n * m, max_size=n * m))
    return np.array(values, dtype=np.float64).reshape(n, m)


class TestLinearSumAssignment:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(cost=_cost_matrices(), maximize=st.booleans())
    def test_equals_enumeration(self, cost, maximize):
        # a maximum-weight assignment is the minimum-cost one of the negated matrix, as `_opt_value` asks for it
        rows, cols = matching.linear_sum_assignment(-cost if maximize else cost)
        n, m = cost.shape
        assert rows.shape == cols.shape == (min(n, m),)
        assert np.all(np.diff(rows) > 0)  # ascending, so each row at most once
        assert len(set(cols.tolist())) == cols.size
        assert np.all((0 <= rows) & (rows < n)) and np.all((0 <= cols) & (cols < m))
        got = float(cost[rows, cols].sum())
        assert abs(got - _enumerated_optimum(cost, maximize)) <= 1e-12

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_empty_shapes(self, shape):
        rows, cols = matching.linear_sum_assignment(np.zeros(shape))
        assert rows.shape == cols.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("maximize", [False, True])
    def test_non_finite_rejected(self, bad, maximize):
        cost = np.arange(9.0).reshape(3, 3)
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            matching.linear_sum_assignment(-cost if maximize else cost)

    @pytest.mark.parametrize("cost", [np.arange(3.0), np.float64(1.0), np.zeros((2, 2, 2))])
    def test_non_2d_rejected(self, cost):
        with pytest.raises(ValueError, match="2-D"):
            matching.linear_sum_assignment(cost)


_SCORES = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _photos(draw):
    """Up to 8 truths x 8 detections; about half the detections sit near a truth's body."""
    coord, side = st.floats(0.0, 120.0), st.floats(4.0, 40.0)
    n_truths, n_dets = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    truths = [
        _truth(i + 1, x=draw(coord), y=draw(coord), w=draw(side), h=draw(side))
        for i in range(n_truths)
    ]
    dets = []
    for j in range(n_dets):
        if truths and draw(st.booleans()):
            base = body_from_head(truths[draw(st.integers(0, n_truths - 1))].head)
            shift, scale = draw(st.floats(-0.3, 0.3)), draw(st.floats(0.7, 1.3))
            box = BBox(base.x + shift * base.w, base.y + shift * base.h, base.w * scale, base.h * scale)
        else:
            box = BBox(draw(coord), draw(coord), draw(st.floats(10.0, 80.0)), draw(st.floats(10.0, 80.0)))
        dets.append(Detection(j + 1, box, draw(_SCORES), ()))
    return truths, dets, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(photo=_photos())
def test_matcher_equals_bruteforce_property(photo):
    truths, dets, tau_iou, lam = photo
    a = match_detections(truths, dets, tau_iou=tau_iou, lam=lam)
    b = match_bruteforce(truths, dets, tau_iou=tau_iou, lam=lam)
    assert a == b
    assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)


class TestBruteforce:
    def test_equal_weights_tie_break_lexicographic(self):
        t1, t2 = _truth(1), _truth(2, x=100)
        d1 = _det_on(t1, 1, score=0.5)
        d2 = Detection(2, d1.person_box, 0.5, ())
        d3 = _det_on(t2, 3, score=0.5)
        d4 = Detection(4, d3.person_box, 0.5, ())
        out = match_bruteforce([t1, t2], [d1, d2, d3, d4])
        assert out.pairs == ((1, 1), (2, 3))

    def test_size_bound_enforced(self):
        truths = [_truth(i + 1, x=float(20 * i)) for i in range(9)]
        with pytest.raises(ValueError, match="bruteforce"):
            match_bruteforce(truths, [])

    def test_cardinality_beats_weight(self):
        # one heavy edge versus two lighter edges that cover everything
        t1, t2 = _truth(1), _truth(2, x=14.0)
        heavy = _det_on(t1, 1, score=1.0)
        other = _det_on(t2, 2, score=0.0, jitter=3.0)
        out = match_bruteforce([t1, t2], [heavy, other])
        assert len(out.pairs) == 2
        assert match_detections([t1, t2], [heavy, other]).pairs == out.pairs


class TestNormalizeScores:
    def test_min_max(self):
        np.testing.assert_allclose(
            normalize_scores(np.array([1.0, 3.0, 2.0])), [0.0, 1.0, 0.5]
        )

    def test_constant_scores_become_half(self):
        np.testing.assert_array_equal(normalize_scores(np.array([4.0, 4.0])), [0.5, 0.5])

    def test_empty_passthrough(self):
        assert normalize_scores(np.array([])).size == 0


class TestActivationsPerInstance:
    def test_unmatched_truth_gets_global_only(self):
        t = _truth(1)
        table = activations_per_instance(Assignment((), (1,), ()), [t], [])
        rows = table[1]
        assert [r[0] for r in rows] == [0]
        assert rows[0][1] == body_from_head(t.head)

    def test_matched_truth_unions_global_with_parts(self):
        t = _truth(1)
        acts = [
            (3, BBox(0, 0, 5, 5), 0.7),
            (17, BBox(5, 5, 5, 5), 0.9),
        ]
        d = _det_on(t, 2, activations=acts)
        assignment = match_detections([t], [d])
        table = activations_per_instance(assignment, [t], [d])
        assert [r[0] for r in table[1]] == [0, 3, 17]
        assert table[1][1][2] == 0.7

    def test_hand_computed_small_photo(self):
        t1, t2 = _truth(1), _truth(2, x=60.0)
        d1 = _det_on(t1, 1, score=0.9, activations=[(4, BBox(0, 0, 3, 3), 0.5)])
        d2 = _det_on(t2, 2, score=0.1)
        far = Detection(3, BBox(900, 900, 10, 10), 1.0, ())
        assignment = match_bruteforce([t1, t2], [d1, d2, far])
        table = activations_per_instance(assignment, [t1, t2], [d1, d2, far])
        assert [r[0] for r in table[1]] == [0, 4]
        assert [r[0] for r in table[2]] == [0]
        assert assignment.unmatched_detections == (3,)


_BOXES = st.builds(BBox, finite_floats(), finite_floats(), finite_floats(0.0), finite_floats(0.0))


@st.composite
def _detections_by_photo(draw):
    """Detection lists `load_detections` accepts: ids unique per photo, part ids from 1, each once per detection."""
    by_photo = {}
    for photo_id in draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4, unique=True)):
        dets = []
        for det_id in draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=3, unique=True)):
            part_ids = draw(st.lists(st.integers(1, 2**63 - 1), max_size=3, unique=True))
            acts = tuple((p, draw(_BOXES), draw(finite_floats())) for p in part_ids)
            dets.append(Detection(det_id, draw(_BOXES), draw(finite_floats()), acts))
        by_photo[photo_id] = dets
    return by_photo


class TestDetectionFile:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(by_photo=_detections_by_photo())
    def test_load_returns_what_write_wrote(self, by_photo):
        expected = {photo_id: sorted(dets, key=lambda d: d.detection_id) for photo_id, dets in by_photo.items()}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "detections.tsv"
            write_detections(path, by_photo)
            assert load_detections(path) == expected

    def test_round_trip(self, tmp_path):
        d1 = Detection(1, BBox(0, 0, 30, 60), 0.75, ((2, BBox(1, 2, 3, 4), 0.5),))
        d2 = Detection(2, BBox(50, 0, 30, 60), 0.25, ())
        path = tmp_path / "detections.tsv"
        write_detections(path, {7: [d1, d2]})
        back = load_detections(path)
        assert set(back) == {7}
        assert back[7][0] == d1
        assert back[7][1] == d2

    def test_malformed_group_rejected(self, tmp_path):
        path = tmp_path / "detections.tsv"
        path.write_text("1\t1\t0\t0\t10\t10\t0.5\t3\t1\t2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_detections(path)

    @pytest.mark.parametrize(
        "column,value,message",
        [
            (0, "x", "photo_id must be an integer, got 'x'"),
            (1, "2.5", "detection_id must be an integer, got '2.5'"),
            (4, "wide", "person w must be a finite number, got 'wide'"),
            (6, "nan", "score must be a finite number, got 'nan'"),
            (13, "", "activation 2 part_id must be an integer, got ''"),
            (18, "-inf", "activation 2 activation score must be a finite number, got '-inf'"),
        ],
    )
    def test_bad_field_names_location(self, tmp_path, column, value, message):
        d1 = Detection(1, BBox(0, 0, 30, 60), 0.75, ())
        d2 = Detection(2, BBox(5, 0, 30, 60), 0.25, ((2, BBox(1, 2, 3, 4), 0.5), (5, BBox(1, 2, 3, 4), 0.1)))
        path = tmp_path / "detections.tsv"
        write_detections(path, {7: [d1, d2]})
        lines = path.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[column] = value
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            load_detections(path)

    @pytest.mark.parametrize(
        "column,value,message",
        [
            (4, "-10", "person w must be positive, got '-10'"),
            (5, "0", "person h must be positive, got '0'"),
            (10, "-5", "activation 1 patch w must be positive, got '-5'"),
            (17, "0.0", "activation 2 patch h must be positive, got '0.0'"),
            (7, "0", "activation 1 part_id must be at least 1 (part 0 is the global part), got '0'"),
            (13, "-2", "activation 2 part_id must be at least 1 (part 0 is the global part), got '-2'"),
        ],
    )
    def test_bad_box_or_part_names_location(self, tmp_path, column, value, message):
        # match would otherwise fail on the box without a location, or write the row as read
        d1 = Detection(1, BBox(0, 0, 30, 60), 0.75, ())
        d2 = Detection(2, BBox(5, 0, 30, 60), 0.25, ((2, BBox(1, 2, 3, 4), 0.5), (5, BBox(1, 2, 3, 4), 0.1)))
        path = tmp_path / "detections.tsv"
        write_detections(path, {7: [d1, d2]})
        lines = path.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[column] = value
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            load_detections(path)

    @pytest.mark.parametrize(
        "person,activations,message",
        [
            (BBox(0, 0, -10, 60), (), "person w must be positive, got -10"),
            (BBox(0, 0, 30, 0.0), (), "person h must be positive, got 0.0"),
            (BBox(0, 0, 30, float("nan")), (), "person h must be positive, got nan"),
            (BBox(0, 0, 30, 60), ((2, BBox(1, 2, -5, 4), 0.5),), "activation 1 patch w must be positive, got -5"),
            (
                BBox(0, 0, 30, 60),
                ((2, BBox(1, 2, 3, 4), 0.5), (5, BBox(1, 2, 3, 0), 0.1)),
                "activation 2 patch h must be positive, got 0",
            ),
            (BBox(0, 0, 30, 60), ((0, BBox(1, 2, 3, 4), 0.5),), "activation 1 part_id must be at least 1"),
            (
                BBox(0, 0, 30, 60),
                ((2, BBox(1, 2, 3, 4), 0.5), (-2, BBox(1, 2, 3, 4), 0.1)),
                "activation 2 part_id must be at least 1 (part 0 is the global part), got -2",
            ),
        ],
    )
    def test_detection_holds_the_box_and_part_rules(self, tmp_path, person, activations, message):
        # so write_detections can never write a line that load_detections rejects
        with pytest.raises(ValueError, match=re.escape(message)):
            Detection(1, person, 0.5, activations)

    def test_repeated_detection_id_names_location(self, tmp_path):
        d1 = Detection(1, BBox(0, 0, 30, 60), 0.75, ())
        d2 = Detection(2, BBox(50, 0, 30, 60), 0.25, ())
        path = tmp_path / "detections.tsv"
        write_detections(path, {7: [d1], 8: [d1, d2]})
        assert [d.detection_id for d in load_detections(path)[8]] == [1, 2]  # ids repeat across photos
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("\t2\t", "\t1\t", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: detection 1 is listed twice in photo 8")):
            load_detections(path)

    def test_repeated_part_names_location(self, tmp_path):
        path = tmp_path / "detections.tsv"
        group = "\t3\t1\t2\t3\t4\t0.5"
        path.write_text("1\t1\t0\t0\t10\t10\t0.5" + group + group + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: a part may appear at most once")):
            load_detections(path)


def _forcing_assignment(truths, dets, tau_iou, lam):
    """match_detections through the general forcing path, whatever the photo's shape."""
    truths, dets = matching._sorted_inputs(truths, dets)
    adm, W = matching._edge_weights(truths, dets, tau_iou, lam)
    forced = matching._forced_pairs(adm, W)
    pairs = [(truths[i].instance_id, dets[j].detection_id) for i, j in forced]
    return matching._assignment_from_pairs(pairs, truths, dets, float(sum(W[i, j] for i, j in forced)))


def _matching_shaped_photo(rng):
    """Truths 400 apart; each has at most one detection near its body, and some detections sit far from all."""
    truths = [
        _truth(i + 1, x=400.0 * i + float(rng.uniform(0, 50)), y=float(rng.uniform(0, 50)),
               w=float(rng.uniform(8, 40)), h=float(rng.uniform(8, 40)))
        for i in range(int(rng.integers(1, 8)))
    ]
    boxes = []
    for t in truths:
        if rng.random() < 0.7:
            body = body_from_head(t.head)
            shift, scale = float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.7, 1.3))
            boxes.append(BBox(body.x + shift * body.w, body.y + shift * body.h, body.w * scale, body.h * scale))
    for _ in range(int(rng.integers(0, 3))):
        boxes.append(BBox(10_000.0 + float(rng.uniform(0, 300)), 0.0, 40.0, 80.0))
    det_ids = rng.permutation(len(boxes)) + 1
    dets = [Detection(int(k), box, float(rng.uniform(0, 1)), ()) for k, box in zip(det_ids, boxes)]
    return truths, dets


def _is_matching_shaped(truths, dets, tau_iou):
    truths, dets = matching._sorted_inputs(truths, dets)
    adm, _ = matching._edge_weights(truths, dets, tau_iou, 0.5)
    return adm.sum(axis=0).max() <= 1 and adm.sum(axis=1).max() <= 1


def test_matcher_fast_path_equals_both_oracles():
    rng = np.random.default_rng(19)
    photos = [(*_matching_shaped_photo(rng), 0.3) for _ in range(150)]
    photos += [(*_random_photo(rng), 0.3) for _ in range(150)]
    photos += [(*_random_photo(rng, max_side=6), 0.0) for _ in range(60)]
    shaped = 0
    for truths, dets, tau_iou in photos:
        if not truths or not dets:
            continue
        lam = float(rng.uniform(0, 1))
        a = match_detections(truths, dets, tau_iou=tau_iou, lam=lam)
        b = match_bruteforce(truths, dets, tau_iou=tau_iou, lam=lam)
        c = _forcing_assignment(truths, dets, tau_iou, lam)
        assert a == b == c
        assert a.total_weight == c.total_weight
        if _is_matching_shaped(truths, dets, tau_iou):
            shaped += 1
            assert a.total_weight == b.total_weight
        else:
            assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)
        if tau_iou == 0.0 and len(truths) * len(dets) > 1:
            assert not _is_matching_shaped(truths, dets, tau_iou)  # a complete graph
    assert 150 <= shaped < 300
