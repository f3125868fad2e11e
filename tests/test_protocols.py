"""Recognition, ablation, one-shot, and retrieval protocol behavior."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partfusion import protocols
from partfusion.data import BBox, Dataset, FeatureMatrix, Instance
from partfusion.fusion import FusionWeights
from partfusion.protocols import (
    DEFAULT_TRAIN_CFG,
    EvalReport,
    HalfSplit,
    ReferenceModels,
    build_identity_embedding,
    curve_csv,
    eval_ablation,
    eval_faces_split,
    eval_oneshot,
    eval_recognition,
    eval_retrieval,
    half_split_training,
    learn_fusion_weights,
    report_text,
    run_retrieval_protocol,
    stratified_half_split,
    train_reference_models,
    write_report,
)
from partfusion.svm import mix_seed, predict_classes, train_multiclass
from partfusion.synth import SynthConfig, generate, planted_config

SMALL = SynthConfig(
    n_identities=10,
    instances_min=6,
    instances_max=6,
    n_poselets=3,
    feature_dim=16,
    splits=("test",),
    seed=11,
)


@pytest.fixture(scope="module")
def small():
    return generate(SMALL)


@pytest.fixture(scope="module")
def small_fw(small):
    return FusionWeights(np.ones(len(small.registry.parts)))


def _instance(iid, identity, label, split="test"):
    return Instance(iid, iid, 1, 1, BBox(0.0, 0.0, 10.0, 10.0), identity, split, label)


def test_stratified_halves_cover_every_identity():
    instances = [_instance(i, i % 4, f"p{i % 4}") for i in range(1, 21)]
    halves = stratified_half_split(instances, seed=3)
    assert set(halves.assignment) == {i.instance_id for i in instances}
    for ident in range(4):
        ids = [i.instance_id for i in instances if i.identity == ident]
        sides = {halves.assignment[k] for k in ids}
        assert sides == {0, 1}
        n0 = sum(1 for k in ids if halves.assignment[k] == 0)
        assert abs(n0 - (len(ids) - n0)) <= 1


def test_stratified_halves_exclude_singletons_and_repeat():
    instances = [_instance(1, 0, "a"), _instance(2, 0, "a"), _instance(3, 1, "b")]
    halves = stratified_half_split(instances, seed=0)
    assert halves.excluded_identities == (1,)
    assert 3 not in halves.assignment
    again = stratified_half_split(instances, seed=0)
    assert again.assignment == halves.assignment
    other = stratified_half_split(instances * 4, seed=1)
    assert other.seed == 1


def test_masked_global_equals_plain_multiclass_baseline(small, small_fw):
    """Fusing only the global part must reproduce a vanilla per-half SVM."""
    seed = 5
    rep = eval_recognition(
        small.dataset, small.features, small.registry, small_fw,
        split="test", seed=seed, component_mask="global",
    )

    insts = small.dataset.split_instances("test")
    counts: dict[int, int] = {}
    for inst in insts:
        counts[inst.identity] = counts.get(inst.identity, 0) + 1
    keep = sorted(k for k, c in counts.items() if c >= 2)
    local = {k: j for j, k in enumerate(keep)}
    kept = [inst for inst in insts if inst.identity in local]
    halves = stratified_half_split(kept, seed)
    fm = small.features[0].normalized_copy()
    label_of = {inst.instance_id: local[inst.identity] for inst in kept}

    accs = []
    for eval_half in (0, 1):
        tr = np.asarray(
            sorted(i for i, h in halves.assignment.items() if h == 1 - eval_half), dtype=np.int64
        )
        ev = np.asarray(
            sorted(i for i, h in halves.assignment.items() if h == eval_half), dtype=np.int64
        )
        cfg = replace(DEFAULT_TRAIN_CFG, seed=mix_seed(seed, eval_half, 0, DEFAULT_TRAIN_CFG.seed))
        y = np.asarray([label_of[i] for i in tr.tolist()])
        model = train_multiclass(fm.rows(tr), y, cfg, row_ids=tr)
        pred = predict_classes(model, fm.rows(ev))
        truth = np.asarray([label_of[i] for i in ev.tolist()])
        accs.append(float(np.mean(pred == truth)))

    assert rep.half_accuracies == tuple(accs)
    assert rep.accuracy == float(np.mean(accs))


def test_full_part_coverage_makes_no_fill_exact(small_fw):
    data = generate(replace(SMALL, activation_prob=1.0, seed=12))
    filled = eval_recognition(data.dataset, data.features, data.registry, small_fw, split="test")
    sparse = eval_recognition(data.dataset, data.features, data.registry, small_fw, split="test", fill=False)
    assert filled.half_accuracies == sparse.half_accuracies
    assert filled.accuracy == sparse.accuracy


def test_never_active_parts_collapse_to_global(small_fw):
    data = generate(replace(SMALL, activation_prob=0.0, n_identities=6, seed=3))
    fw = FusionWeights(np.ones(len(data.registry.parts)))
    filled = eval_recognition(data.dataset, data.features, data.registry, fw, split="test")
    sparse = eval_recognition(data.dataset, data.features, data.registry, fw, split="test", fill=False)
    only_global = eval_recognition(
        data.dataset, data.features, data.registry, fw, split="test", component_mask="global"
    )
    assert filled.half_accuracies == sparse.half_accuracies == only_global.half_accuracies


def test_zero_noise_recognition_is_perfect(small_fw):
    data = generate(replace(SMALL, noise_sigma=0.0, activation_prob=1.0, seed=14))
    rep = eval_recognition(data.dataset, data.features, data.registry, small_fw, split="test")
    assert rep.accuracy == 1.0


def test_constant_features_score_at_chance(small_fw):
    data = generate(
        replace(
            SMALL,
            informativeness=0.0,
            noise_sigma=0.0,
            activation_prob=1.0,
            instances_min=4,
            instances_max=4,
            seed=18,
        )
    )
    rep = eval_recognition(data.dataset, data.features, data.registry, small_fw, split="test")
    assert rep.accuracy == 1.0 / rep.n_identities


def test_explicit_halves_restrict_and_flip(small, small_fw):
    full = stratified_half_split(small.dataset.split_instances("test"), 0)
    drop = dict(full.assignment)
    for k in sorted(drop)[:2]:
        del drop[k]
    sub = eval_recognition(
        small.dataset, small.features, small.registry, small_fw,
        split="test", halves=HalfSplit(drop, 0, ()),
    )
    assert sub.n_test == len(full.assignment) - 2

    data = generate(replace(SMALL, noise_sigma=0.0, activation_prob=1.0, seed=14))
    base = stratified_half_split(data.dataset.split_instances("test"), 0)
    flip = HalfSplit({k: 1 - v for k, v in base.assignment.items()}, 0, ())
    rep = eval_recognition(
        data.dataset, data.features, data.registry, small_fw, split="test", halves=flip
    )
    assert rep.accuracy == 1.0


def test_recognition_needs_two_usable_identities():
    instances = [_instance(i, i, f"p{i}") for i in range(1, 4)]
    dataset = Dataset(instances, {"test": ("p1", "p2", "p3")})
    fm = FeatureMatrix(0, np.arange(1, 4, dtype=np.int64), np.eye(3))
    fw = FusionWeights(np.ones(1))
    registry_data = generate(replace(SMALL, n_identities=2, instances_min=2, instances_max=2, seed=1))
    with pytest.raises(ValueError, match="usable identities"):
        eval_recognition(dataset, {0: fm}, registry_data.registry, fw, split="test")


def test_faces_split_separates_face_activated_instances():
    cfg = replace(SMALL, seed=13, noise_sigma=(2.5, 2.5, 2.5, 2.5, 0.1), face_activation=0.5)
    data = generate(cfg)
    fw = FusionWeights(np.ones(len(data.registry.parts)))
    faces, nonfaces = eval_faces_split(data.dataset, data.features, data.registry, fw, split="test")
    assert faces.protocol == "recognition-faces"
    assert nonfaces.protocol == "recognition-nonfaces"
    assert faces.n_test + nonfaces.n_test == faces.n_train
    # the face part carries far less noise, so face-activated instances win big
    assert faces.accuracy > nonfaces.accuracy + 0.2


def test_faces_split_mask_override(small, small_fw):
    all_face = {i.instance_id: True for i in small.dataset.split_instances("test")}
    faces, nonfaces = eval_faces_split(
        small.dataset, small.features, small.registry, small_fw, split="test", face_mask=all_face
    )
    overall = eval_recognition(small.dataset, small.features, small.registry, small_fw, split="test")
    assert faces.accuracy == overall.accuracy
    assert nonfaces.accuracy is None
    assert nonfaces.flags["empty_subset"] == "true"
    assert nonfaces.n_test == 0


def test_ablation_reports_equal_separate_recognition_runs(small, small_fw):
    reports = eval_ablation(small.dataset, small.features, small.registry, small_fw, split="test", seed=3)
    assert list(reports) == ["all", "global", "poselets", "face", "no-fill"]
    for mask in ("all", "global", "poselets", "face"):
        alone = eval_recognition(
            small.dataset, small.features, small.registry, small_fw,
            split="test", seed=3, component_mask=None if mask == "all" else mask,
        )
        assert report_text(reports[mask]) == report_text(alone), mask
    no_fill = eval_recognition(
        small.dataset, small.features, small.registry, small_fw, split="test", seed=3, fill=False
    )
    assert report_text(reports["no-fill"]) == report_text(no_fill)


def test_ablation_trains_each_half_and_part_once(small, small_fw, monkeypatch, tmp_path):
    # the halves may train in forked workers, so the fits are logged to a file
    log = tmp_path / "fits"

    def counting(X, y, cfg, row_ids=None):
        with open(log, "a") as f:
            f.write(f"{cfg.seed}\n")
        return train_multiclass(X, y, cfg, row_ids=row_ids)

    monkeypatch.setattr(protocols, "train_multiclass", counting)
    eval_ablation(small.dataset, small.features, small.registry, small_fw, split="test")
    fits = log.read_text().split()
    assert len(fits) == 2 * len(small.registry.parts)
    assert len(set(fits)) == len(fits)


def test_oneshot_zero_noise_is_perfect(small_fw):
    data = generate(replace(SMALL, noise_sigma=0.0, activation_prob=1.0, seed=14))
    rep = eval_oneshot(
        data.dataset, data.features, data.registry, small_fw,
        split="test", shots=(1,), repeats=2,
    )
    assert rep.curve == ((1.0, 1.0, 0.0),)


def test_oneshot_excludes_identities_without_enough_instances(small_fw):
    data = generate(replace(SMALL, seed=15, instances_min=3, instances_max=6))
    counts: dict[int, int] = {}
    for inst in data.dataset.split_instances("test"):
        counts[inst.identity] = counts.get(inst.identity, 0) + 1
    shot = 3
    manual = sum(1 for c in counts.values() if c < shot + 1)
    assert manual > 0
    rep = eval_oneshot(
        data.dataset, data.features, data.registry, small_fw,
        split="test", shots=(shot,), repeats=2,
    )
    assert rep.flags[f"excluded_identities_shot_{shot}"] == str(manual)


def test_oneshot_rejects_degenerate_settings(small, small_fw):
    with pytest.raises(ValueError, match="repeats"):
        eval_oneshot(small.dataset, small.features, small.registry, small_fw, repeats=1, split="test")
    for shots in ((), (0,), (2, -1)):
        with pytest.raises(ValueError, match="shot counts >= 1"):
            eval_oneshot(small.dataset, small.features, small.registry, small_fw, split="test", shots=shots)
    with pytest.raises(ValueError, match="usable identities"):
        eval_oneshot(
            small.dataset, small.features, small.registry, small_fw,
            split="test", shots=(50,), repeats=2,
        )


def test_oneshot_n_train_counts_the_largest_shot(small, small_fw):
    # every identity has 6 instances, so each shot count keeps all of them
    rep = eval_oneshot(
        small.dataset, small.features, small.registry, small_fw, split="test", shots=(3, 1), repeats=2
    )
    assert [pt[0] for pt in rep.curve] == [3.0, 1.0]
    assert rep.n_train == 3 * rep.n_identities == 3 * SMALL.n_identities


def _retrieval_triplet(swap=False):
    # query at the origin ties between two unit-distance neighbors
    emb = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    labels = np.array([0, 0, 1])
    ids = np.array([1, 3, 2]) if swap else np.array([1, 2, 3])
    return emb, labels, ids


def test_retrieval_distance_ties_break_to_lower_instance_id():
    emb, labels, ids = _retrieval_triplet()
    rep = eval_retrieval(emb, labels, ids, K_list=(1,))
    assert rep.curve[0][1] == 1.0
    emb, labels, ids = _retrieval_triplet(swap=True)
    rep = eval_retrieval(emb, labels, ids, K_list=(1,))
    # the same-identity neighbor now has the higher id and loses the tie
    assert rep.curve[0][1] == 0.5
    assert rep.flags["singleton_identities_instances"] == "1"


def test_retrieval_duplicate_embeddings_hit_at_rank_one():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(5, 4))
    emb = np.repeat(base, 2, axis=0)
    labels = np.repeat(np.arange(5), 2)
    ids = np.arange(10)
    rep = eval_retrieval(emb, labels, ids, K_list=(1, 2, 5))
    assert [pt[1] for pt in rep.curve] == [1.0, 1.0, 1.0]
    assert rep.n_test == 10


def test_retrieval_full_corpus_recall_and_clamping():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(8, 3))
    labels = np.repeat(np.arange(4), 2)
    ids = np.arange(8)
    rep = eval_retrieval(emb, labels, ids, K_list=(1, 2, 7, 50))
    recalls = [pt[1] for pt in rep.curve]
    assert recalls == sorted(recalls)
    assert recalls[2] == 1.0  # K = corpus size - 1 sees everything
    assert recalls[3] == 1.0
    assert rep.flags["k_clamped_50"] == "7"


def test_retrieval_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="at least 2"):
        eval_retrieval(np.zeros((1, 2)), np.zeros(1, dtype=int), np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="2 or more"):
        eval_retrieval(np.eye(3), np.arange(3), np.arange(3))
    with pytest.raises(ValueError, match="K >= 1"):
        eval_retrieval(np.eye(3), np.zeros(3, dtype=int), np.arange(3), K_list=(0, 1))


def _dense_retrieval(embeddings, labels, instance_ids, K_list):
    """The all-pairs difference tensor version: the oracle for eval_retrieval.

    Returns (curve, report flags, per-query same-identity flags over the
    whole ranking). It needs 2 * n^2 * |Y| * 8 bytes, so only run it on
    small inputs.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    uniq, counts = np.unique(labels, return_counts=True)
    count_of = dict(zip(uniq.tolist(), counts.tolist()))
    query_idx = [k for k in range(n) if count_of[int(labels[k])] >= 2]
    diffs = embeddings[:, None, :] - embeddings[None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=2))
    flags = {}
    if n - len(query_idx):
        flags["singleton_identities_instances"] = str(n - len(query_idx))
    neighbor_ranks = {}
    for q in query_idx:
        order = np.lexsort((instance_ids, dists[q]))
        order = order[order != q]
        neighbor_ranks[q] = labels[order] == labels[q]
    curve = []
    for K in K_list:
        k = min(int(K), n - 1)
        if k != K:
            flags[f"k_clamped_{K}"] = str(k)
        hits = sum(bool(np.any(neighbor_ranks[q][:k])) for q in query_idx)
        curve.append((float(K), hits / len(query_idx), 0.0))
    return tuple(curve), flags, neighbor_ranks


@st.composite
def _retrieval_inputs(draw):
    n_distinct = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    # coarse values and repeated rows make exact distance ties common; the
    # non-dyadic ones make ties that hold only up to rounding
    coords = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7])
    row = st.lists(coords, min_size=dim, max_size=dim)
    base = np.asarray(draw(st.lists(row, min_size=n_distinct, max_size=n_distinct)))
    picks = draw(st.lists(st.integers(0, n_distinct - 1), min_size=2, max_size=14))
    n = len(picks)
    # small label range: singletons and shared identities both occur
    labels = np.asarray(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.int64)
    labels[1] = labels[0]  # at least one identity has queries
    ids = np.asarray(draw(st.permutations(range(100, 100 + 3 * n)))[:n], dtype=np.int64)
    K_list = tuple(draw(st.lists(st.integers(1, n + 3), min_size=1, max_size=5)))
    return base[picks], labels, ids, K_list


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inputs=_retrieval_inputs())
def test_retrieval_equals_dense_oracle(inputs):
    emb, labels, ids, K_list = inputs
    curve, flags, neighbor_ranks = _dense_retrieval(emb, labels, ids, K_list)
    rep = eval_retrieval(emb, labels, ids, K_list)
    assert rep.curve == curve
    assert rep.flags == flags
    assert rep.n_test == len(neighbor_ranks)

    queries = sorted(neighbor_ranks)
    depth = min(max(K_list), emb.shape[0] - 1)
    kept = protocols._neighbor_identity_flags(emb, labels, ids, queries, depth)
    assert np.array_equal(kept, np.asarray([neighbor_ranks[q][:depth] for q in queries]))


@pytest.mark.parametrize("seed", range(4))
def test_neighbor_flags_keep_every_tie_at_the_depth_boundary(seed):
    # 120 rows on 4 lattice points: every query sees tie groups of ~30 rows,
    # so the depth cut falls inside a group and ids must break the ties
    rng = np.random.default_rng(seed)
    emb = rng.choice([0.0, 0.5, 1.0], size=(4, 3))[rng.integers(0, 4, size=120)]
    labels = rng.integers(0, 6, size=120)
    ids = rng.permutation(1000)[:120].astype(np.int64)
    _, _, neighbor_ranks = _dense_retrieval(emb, labels, ids, (1,))
    queries = sorted(neighbor_ranks)
    for depth in (1, 2, 29, 30, 31, 60, 119):
        kept = protocols._neighbor_identity_flags(emb, labels, ids, queries, depth)
        assert np.array_equal(kept, np.asarray([neighbor_ranks[q][:depth] for q in queries])), depth


def test_retrieval_memory_is_linear_in_instances():
    # the dense tensor would take 2 * 1000^2 * 40 * 8 bytes = 640 MB here
    rng = np.random.default_rng(5)
    n, n_y = 1000, 40
    emb = rng.dirichlet(np.ones(n_y), size=n)
    labels = np.repeat(np.arange(n // 4), 4)
    ids = rng.permutation(n).astype(np.int64)
    tracemalloc.start()
    try:
        rep = eval_retrieval(emb, labels, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert rep.n_test == n


def test_retrieval_protocol_zero_noise_recalls_everything(small_fw):
    data = generate(
        replace(SMALL, seed=16, noise_sigma=0.0, activation_prob=1.0, splits=("val", "test"))
    )
    rep = run_retrieval_protocol(
        data.dataset, data.features, data.registry, small_fw, K_list=(1, 2, 5)
    )
    assert [pt[1] for pt in rep.curve] == [1.0, 1.0, 1.0]
    assert rep.flags["embedding_dim"] == str(SMALL.n_identities)
    assert rep.n_train == len(data.dataset.split_instances("val"))


def test_embeddings_cluster_by_identity(small_fw):
    data = generate(replace(SMALL, seed=17, noise_sigma=0.3, splits=("val", "test")))
    ref = train_reference_models(data.dataset, data.features, data.registry, split="val")
    insts = sorted(data.dataset.split_instances("test"), key=lambda i: i.instance_id)[:30]
    embs = {
        inst.instance_id: build_identity_embedding(inst.instance_id, data.features, ref, small_fw)
        for inst in insts
    }
    intra, inter = [], []
    for a in insts:
        for b in insts:
            if a.instance_id < b.instance_id:
                d = float(np.linalg.norm(embs[a.instance_id] - embs[b.instance_id]))
                (intra if a.identity == b.identity else inter).append(d)
    assert np.mean(intra) < 0.6 * np.mean(inter)
    vec = embs[insts[0].instance_id]
    assert vec.shape == (ref.n_identities,)
    assert abs(float(vec.sum()) - float(small_fw.w.sum())) < 1e-9


def test_embedding_requires_global_model(small, small_fw):
    ref = ReferenceModels({0: None}, 10, "val", 0)
    with pytest.raises(ValueError, match="global model"):
        build_identity_embedding(1, small.features, ref, small_fw)


def test_half_split_training_artifacts(small):
    art = half_split_training(small.dataset, small.features, small.registry, split="test")
    kept = {i.instance_id for i in small.dataset.split_instances("test")}
    assert set(art.halves.assignment) == set(art.label_of) == kept
    assert art.excluded_identities == 0 and art.excluded_instances == 0
    assert set(art.models) == {0, 1}
    assert set(art.tables) == set(small.registry.part_ids)
    for pid, table in art.tables.items():
        assert set(table.instance_ids.tolist()) == kept
        np.testing.assert_allclose(table.P.sum(axis=1), 1.0, atol=1e-9)
        assert table.P.shape == (len(kept), art.n_identities)


def test_learn_fusion_weights_recovers_planted_part():
    cfg = planted_config(2, seed=0, n_identities=10, instances_min=8, instances_max=8)
    data = generate(cfg)
    fw, info = learn_fusion_weights(data.dataset, data.features, data.registry, split="val")
    assert int(np.argmax(np.abs(fw.w))) == 2
    assert info.best_C in dict(info.grid_scores)
    n_kept = len(data.dataset.split_instances("val"))
    assert info.n_pairs == n_kept * cfg.n_identities


def test_report_text_round_trip():
    rep = EvalReport(
        protocol="recognition",
        component_mask="all",
        seed=4,
        n_train=10,
        n_test=10,
        n_identities=5,
        accuracy=0.75,
        half_accuracies=(0.7, 0.8),
        flags={"b": "2", "a": "1"},
    )
    text = report_text(rep)
    rows = dict(line.split("\t") for line in text.strip().split("\n"))
    assert rows["protocol"] == "recognition"
    assert float(rows["accuracy"]) == 0.75
    assert float(rows["half_accuracy_1"]) == 0.8
    assert rows["a"] == "1" and rows["b"] == "2"
    keys = [line.split("\t")[0] for line in text.strip().split("\n")]
    assert keys.index("a") < keys.index("b")

    with pytest.raises(ValueError, match="accuracy"):
        EvalReport("r", "all", 0, 1, 1, 2, accuracy=1.5)
    with pytest.raises(ValueError, match="curve"):
        curve_csv(rep)


def test_write_report_emits_curve_csv(tmp_path):
    rep = EvalReport(
        protocol="oneshot",
        component_mask="all",
        seed=0,
        n_train=4,
        n_test=8,
        n_identities=4,
        curve=((1.0, 0.5, 0.1), (2.0, 0.75, 0.05)),
    )
    text_path = tmp_path / "report.txt"
    csv_path = tmp_path / "curve.csv"
    write_report(rep, text_path, csv_path)
    assert text_path.read_text().startswith("protocol\toneshot\n")
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "x,mean,sigma"
    assert [float(v) for v in lines[1].split(",")] == [1.0, 0.5, 0.1]
