"""Recognition, ablation, one-shot, and retrieval protocol behavior."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partfusion.data
from partfusion import protocols
from partfusion.data import BBox, Dataset, FeatureMatrix, Instance
from partfusion.fusion import FusionWeights
from partfusion.protocols import (
    DEFAULT_TRAIN_CFG,
    EvalReport,
    ReferenceModels,
    build_identity_embeddings,
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
from partfusion.svm import mix_seed, train_multiclass
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
    assert set(halves) == {i.instance_id for i in instances}
    for ident in range(4):
        ids = [i.instance_id for i in instances if i.identity == ident]
        sides = {halves[k] for k in ids}
        assert sides == {0, 1}
        n0 = sum(1 for k in ids if halves[k] == 0)
        assert abs(n0 - (len(ids) - n0)) <= 1


def test_stratified_halves_exclude_singletons_and_repeat():
    instances = [_instance(1, 0, "a"), _instance(2, 0, "a"), _instance(3, 1, "b")]
    halves = stratified_half_split(instances, seed=0)
    assert halves == {1: halves[1], 2: 1 - halves[1]}  # the singleton identity 1 gets no half
    assert stratified_half_split(instances, seed=0) == halves


def test_masked_global_equals_plain_multiclass_baseline(small, small_fw):
    """Fusing only the global part must reproduce a vanilla per-half SVM."""
    seed = 5
    rep = eval_recognition(
        small.dataset, small.features, small.registry, small_fw,
        seed=seed, component_mask="global",
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
            sorted(i for i, h in halves.items() if h == 1 - eval_half), dtype=np.int64
        )
        ev = np.asarray(
            sorted(i for i, h in halves.items() if h == eval_half), dtype=np.int64
        )
        cfg = replace(DEFAULT_TRAIN_CFG, seed=mix_seed(seed, eval_half, 0, DEFAULT_TRAIN_CFG.seed))
        y = np.asarray([label_of[i] for i in tr.tolist()])
        model = train_multiclass(fm.rows(tr), y, cfg)
        pred = model.class_index[np.argmax(model.scores(fm.rows(ev)), axis=1)]
        truth = np.asarray([label_of[i] for i in ev.tolist()])
        accs.append(float(np.mean(pred == truth)))

    assert rep.half_accuracies == tuple(accs)
    assert rep.accuracy == float(np.mean(accs))


def test_full_part_coverage_makes_no_fill_exact(small_fw):
    data = generate(replace(SMALL, activation_prob=1.0, seed=12))
    filled = eval_recognition(data.dataset, data.features, data.registry, small_fw)
    sparse = eval_recognition(data.dataset, data.features, data.registry, small_fw, fill=False)
    assert filled.half_accuracies == sparse.half_accuracies
    assert filled.accuracy == sparse.accuracy


def test_never_active_parts_collapse_to_global(small_fw):
    data = generate(replace(SMALL, activation_prob=0.0, n_identities=6, seed=3))
    fw = FusionWeights(np.ones(len(data.registry.parts)))
    filled = eval_recognition(data.dataset, data.features, data.registry, fw)
    sparse = eval_recognition(data.dataset, data.features, data.registry, fw, fill=False)
    only_global = eval_recognition(
        data.dataset, data.features, data.registry, fw, component_mask="global"
    )
    assert filled.half_accuracies == sparse.half_accuracies == only_global.half_accuracies


def test_zero_noise_recognition_is_perfect(small_fw):
    data = generate(replace(SMALL, noise_sigma=0.0, activation_prob=1.0, seed=14))
    rep = eval_recognition(data.dataset, data.features, data.registry, small_fw)
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
    rep = eval_recognition(data.dataset, data.features, data.registry, small_fw)
    assert rep.accuracy == 1.0 / rep.n_identities


def test_recognition_normalizes_raw_features(small, small_fw):
    # protocols._normalized is the one normalization point: raw rows score like their normalized copies
    rng = np.random.default_rng(19)
    raw = {
        pid: FeatureMatrix(pid, fm.instance_ids, fm.X * rng.uniform(0.5, 4.0, (len(fm), 1)))
        for pid, fm in small.features.items()
    }
    normalized = {pid: fm.normalized_copy() for pid, fm in raw.items()}
    got = eval_recognition(small.dataset, raw, small.registry, small_fw, seed=2)
    want = eval_recognition(small.dataset, normalized, small.registry, small_fw, seed=2)
    assert report_text(got) == report_text(want)


def test_recognition_needs_two_usable_identities():
    instances = [_instance(i, i, f"p{i}") for i in range(1, 4)]
    dataset = Dataset(instances, {"test": ("p1", "p2", "p3")})
    fm = FeatureMatrix(0, np.arange(1, 4, dtype=np.int64), np.eye(3))
    fw = FusionWeights(np.ones(1))
    registry_data = generate(replace(SMALL, n_identities=2, instances_min=2, instances_max=2, seed=1))
    with pytest.raises(ValueError, match="usable identities"):
        eval_recognition(dataset, {0: fm}, registry_data.registry, fw)


def _with_face_activation(cfg: SynthConfig, rate: float) -> SynthConfig:
    """``cfg`` with the face activating at ``rate`` in every pose and the poselet rates drawn as before."""
    A = cfg.activation_matrix()
    A[-1] = rate
    return replace(cfg, activation_prob=tuple(map(tuple, A.tolist())))


def test_faces_split_separates_face_activated_instances():
    data = generate(_with_face_activation(replace(SMALL, seed=13, noise_sigma=(2.5, 2.5, 2.5, 2.5, 0.1)), 0.5))
    fw = FusionWeights(np.ones(len(data.registry.parts)))
    faces, nonfaces = eval_faces_split(data.dataset, data.features, data.registry, fw)
    assert faces.protocol == "recognition-faces"
    assert nonfaces.protocol == "recognition-nonfaces"
    assert faces.n_test + nonfaces.n_test == faces.n_train
    # the face subset is the kept test instances with a row in the face part's features
    face_fm = data.features[data.registry.ids_of_kind("face")[0]]
    kept = np.asarray([inst.instance_id for inst in data.dataset.split_instances("test")], dtype=np.int64)
    assert faces.excluded_instances == 0
    assert 0 < faces.n_test == int(np.count_nonzero(face_fm.contains(kept))) < kept.size
    # the face part carries far less noise, so face-activated instances win big
    assert faces.accuracy > nonfaces.accuracy + 0.2


def test_faces_split_flags_an_empty_face_subset(small_fw):
    data = generate(_with_face_activation(replace(SMALL, seed=20), 0.0))
    assert len(data.features[data.registry.ids_of_kind("face")[0]]) == 0
    faces, nonfaces = eval_faces_split(data.dataset, data.features, data.registry, small_fw)
    overall = eval_recognition(data.dataset, data.features, data.registry, small_fw)
    assert faces.accuracy is None
    assert faces.flags["empty_subset"] == "true"
    assert faces.n_test == 0
    assert nonfaces.accuracy == overall.accuracy
    assert nonfaces.n_test == overall.n_test


def test_ablation_reports_equal_separate_recognition_runs(small, small_fw):
    reports = eval_ablation(small.dataset, small.features, small.registry, small_fw, seed=3)
    assert list(reports) == ["all", "global", "poselets", "face", "no-fill"]
    for mask in ("all", "global", "poselets", "face"):
        alone = eval_recognition(
            small.dataset, small.features, small.registry, small_fw,
            seed=3, component_mask=None if mask == "all" else mask,
        )
        assert report_text(reports[mask]) == report_text(alone), mask
    no_fill = eval_recognition(
        small.dataset, small.features, small.registry, small_fw, seed=3, fill=False
    )
    assert report_text(reports["no-fill"]) == report_text(no_fill)


def test_ablation_trains_each_half_and_part_once(small, small_fw, monkeypatch, tmp_path):
    # the halves may train in forked workers, so the fits are logged to a file
    log = tmp_path / "fits"

    def counting(X, y, cfg):
        with open(log, "a") as f:
            f.write(f"{cfg.seed}\n")
        return train_multiclass(X, y, cfg)

    monkeypatch.setattr(protocols, "train_multiclass", counting)
    eval_ablation(small.dataset, small.features, small.registry, small_fw)
    fits = log.read_text().split()
    assert len(fits) == 2 * len(small.registry.parts)
    assert len(set(fits)) == len(fits)


def test_oneshot_zero_noise_is_perfect(small_fw):
    data = generate(replace(SMALL, noise_sigma=0.0, activation_prob=1.0, seed=14))
    rep = eval_oneshot(
        data.dataset, data.features, data.registry, small_fw,
        shots=(1,),
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
        shots=(shot,),
    )
    assert rep.flags[f"excluded_identities_shot_{shot}"] == str(manual)


def test_oneshot_rejects_degenerate_settings(small, small_fw):
    for shots in ((), (0,), (2, -1)):
        with pytest.raises(ValueError, match="shot counts >= 1"):
            eval_oneshot(small.dataset, small.features, small.registry, small_fw, shots=shots)
    with pytest.raises(ValueError, match="usable identities"):
        eval_oneshot(
            small.dataset, small.features, small.registry, small_fw,
            shots=(50,),
        )


def test_oneshot_n_train_counts_the_largest_shot(small, small_fw):
    # every identity has 6 instances, so each shot count keeps all of them
    rep = eval_oneshot(
        small.dataset, small.features, small.registry, small_fw, shots=(3, 1)
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


def _lattice_retrieval_inputs(seed, n, dim, scale):
    """n rows on 5 lattice points, times ``scale``: tie groups of ~n/5 rows straddle every depth cut."""
    rng = np.random.default_rng(seed)
    points = rng.choice([0.0, 0.1, 0.3, 1.0 / 3.0, 0.7], size=(5, dim))
    emb = points[rng.integers(0, 5, size=n)] * scale
    labels = rng.integers(0, 8, size=n)
    ids = rng.permutation(10 * n)[:n].astype(np.int64)
    return emb, labels, ids


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_neighbor_flags_equal_the_oracle_at_large_norms_across_query_blocks(scale):
    # 400 queries span three query blocks; the Gram prefilter's bound grows
    # with the norms, so scaled ties and near-ties must still rank exactly
    n = 400
    assert protocols._QUERY_BLOCK_BYTES // (8 * n) < n // 2
    emb, labels, ids = _lattice_retrieval_inputs(7, n, 3, scale)
    emb[::7] += scale * 1e-9  # near-ties, inside some Gram rounding bounds
    _, _, neighbor_ranks = _dense_retrieval(emb, labels, ids, (1,))
    queries = sorted(neighbor_ranks)
    for depth in (1, 20, 79, 80, 81, 399):
        kept = protocols._neighbor_identity_flags(emb, labels, ids, queries, depth)
        assert np.array_equal(kept, np.asarray([neighbor_ranks[q][:depth] for q in queries])), depth

    rng = np.random.default_rng(8)
    emb = rng.dirichlet(np.full(20, 0.2), size=150) * scale
    labels = rng.integers(0, 30, size=150)
    ids = rng.permutation(150).astype(np.int64)
    curve, flags, _ = _dense_retrieval(emb, labels, ids, (1, 2, 5, 10, 20))
    rep = eval_retrieval(emb, labels, ids)
    assert (rep.curve, rep.flags) == (curve, flags)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_retrieval_rejects_non_finite_embeddings(bad):
    emb = np.eye(4)
    emb[2, 1] = bad
    with pytest.raises(ValueError, match="finite embeddings"):
        eval_retrieval(emb, np.array([0, 0, 1, 1]), np.arange(4))


def test_retrieval_query_blocks_bound_their_temporaries():
    # each (query block, corpus) array is about _QUERY_BLOCK_BYTES; the
    # embeddings themselves take 1200 * 60 * 8 bytes = 0.55 MB
    rng = np.random.default_rng(9)
    n, n_y = 1200, 60
    emb = rng.dirichlet(np.full(n_y, 0.1), size=n)
    labels = np.repeat(np.arange(n // 20), 20)
    ids = rng.permutation(n).astype(np.int64)
    tracemalloc.start()
    try:
        eval_retrieval(emb, labels, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * protocols._QUERY_BLOCK_BYTES, f"peak {peak / 2**20:.2f} MB"


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
    ref = train_reference_models(data.dataset, data.features, data.registry)
    insts = sorted(data.dataset.split_instances("test"), key=lambda i: i.instance_id)[:30]
    ids = np.asarray([inst.instance_id for inst in insts], dtype=np.int64)
    rows = build_identity_embeddings(ids, data.features, ref, small_fw, data.registry.part_ids)
    embs = dict(zip(ids.tolist(), rows))
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


def test_embedding_normalizes_raw_features(small_fw):
    data = generate(replace(SMALL, seed=18, splits=("val", "test")))
    rng = np.random.default_rng(18)
    raw = {
        pid: FeatureMatrix(pid, fm.instance_ids, fm.X * rng.uniform(0.5, 4.0, (len(fm), 1)))
        for pid, fm in data.features.items()
    }
    test_ids = np.asarray(sorted(i.instance_id for i in data.dataset.split_instances("test")), dtype=np.int64)
    normalized = protocols._normalized(raw)
    assert all(normalized[pid] is fm for pid, fm in protocols._normalized(normalized).items())

    ref = train_reference_models(data.dataset, data.features, data.registry)
    mask = tuple(sorted(ref.models))
    got = build_identity_embeddings(test_ids, raw, ref, small_fw, mask)
    want = build_identity_embeddings(test_ids, normalized, ref, small_fw, mask)
    assert np.array_equal(got, want)


def test_retrieval_protocol_normalizes_raw_features_once(small_fw, monkeypatch):
    data = generate(replace(SMALL, seed=18, splits=("val", "test")))
    rng = np.random.default_rng(20)
    raw = {
        pid: FeatureMatrix(pid, fm.instance_ids, fm.X * rng.uniform(0.5, 4.0, (len(fm), 1)))
        for pid, fm in data.features.items()
    }
    normalized = {pid: fm.normalized_copy() for pid, fm in raw.items()}
    want = run_retrieval_protocol(data.dataset, normalized, data.registry, small_fw, seed=3)

    normalize = partfusion.data.l2_normalize_rows
    rows: list[int] = []
    monkeypatch.setattr(partfusion.data, "l2_normalize_rows", lambda X: rows.append(len(X)) or normalize(X))
    got = run_retrieval_protocol(data.dataset, raw, data.registry, small_fw, seed=3)
    assert rows == [len(fm) for fm in raw.values()]  # once per part
    assert report_text(got) == report_text(want)


def test_embedding_requires_global_model(small_fw):
    data = generate(replace(SMALL, splits=("val",)))  # the reference models train on val
    trained = train_reference_models(data.dataset, data.features, data.registry)
    without_part_0 = {pid: model for pid, model in trained.models.items() if pid != 0}
    for models in ({0: None}, without_part_0):
        with pytest.raises(ValueError, match="global model"):
            build_identity_embeddings(np.asarray([1]), data.features, ReferenceModels(models, 10), small_fw, (0, 1))


def test_half_split_training_artifacts(small):
    art = half_split_training(small.dataset, small.features, small.registry.part_ids, split="test")
    kept = {i.instance_id for i in small.dataset.split_instances("test")}
    assert set(art.halves) == set(art.label_of) == kept
    assert art.excluded_identities == 0 and art.excluded_instances == 0
    assert set(art.models) == {0, 1}
    tables = {table.part_id: table for table in art.filled_tables()}
    assert list(tables) == list(small.registry.part_ids)
    for pid, table in tables.items():
        assert set(table.instance_ids.tolist()) == kept
        # float32 rows of distributions: rounding each entry moves a row's sum by at most 2^-24
        assert table.P.dtype == np.float32
        np.testing.assert_allclose(table.P.sum(axis=1, dtype=np.float64), 1.0, rtol=0.0, atol=1e-9 + 2.0**-24)
        assert table.P.shape == (len(kept), art.n_identities)


def test_learn_fusion_weights_recovers_planted_part():
    cfg = planted_config(2, seed=0, n_identities=10, instances_min=8, instances_max=8)
    data = generate(cfg)
    fw, info = learn_fusion_weights(data.dataset, data.features, data.registry)
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


@pytest.fixture(scope="module")
def trained_60():
    """60 identities per split: a table is 0.3-0.6 MB, so numpy's fixed-size buffers stay small beside it."""
    data = generate(SynthConfig(n_identities=60))
    return data, half_split_training(data.dataset, data.features, data.registry.part_ids, split="val")


def _peak_bytes(fn) -> int:
    """The tracemalloc peak of one call, counting only what it allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_filled_tables_hold_the_global_rows_and_one_table(trained_60):
    # a caller that drops each table holds about two tables' worth
    _, trained = trained_60
    table_bytes = len(trained.halves) * trained.n_identities * 8

    def write_each():
        for table in trained.filled_tables():
            del table

    peak = _peak_bytes(write_each)
    assert peak <= 2.5 * table_bytes, f"{peak / table_bytes:.2f} tables"


def test_scoring_holds_the_global_matrix_the_sum_and_one_part_buffer(trained_60):
    # plus one score block and one blend block of the part being filled
    data, trained = trained_60
    n_y, part_ids = trained.n_identities, data.registry.part_ids
    fw = FusionWeights(np.ones(len(part_ids)))
    models = trained.models[1]
    ids = trained.eval_ids(0)
    for fill in (True, False):
        peak = _peak_bytes(
            lambda: protocols._score_fold(models, trained.features, ids, trained.label_of, n_y, part_ids, fill, fw)
        )
        assert peak <= 4 * ids.size * n_y * 8, f"fill={fill}: {peak / (ids.size * n_y * 8):.2f} tables"
    test_ids = np.asarray(sorted(i.instance_id for i in data.dataset.split_instances("test")), dtype=np.int64)
    ref = ReferenceModels(models, n_y)
    peak = _peak_bytes(lambda: build_identity_embeddings(test_ids, trained.features, ref, fw, part_ids))
    assert peak <= 4 * test_ids.size * n_y * 8, f"{peak / (test_ids.size * n_y * 8):.2f} tables"
