import dataclasses
import gc
import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from partfusion import FusionWeights, SynthConfig, generate
from partfusion.data import GLOBAL_PART_ID, FeatureMatrix, dataset_from_records, l2_normalize_rows
from partfusion.geometry import BBox, body_from_head
from partfusion.matching import Detection
from partfusion import synth
from partfusion.protocols import eval_recognition
from partfusion.synth import SynthData, config_from_json, planted_config, write_synth


def _small(**over):
    base = dict(
        n_identities=6,
        instances_min=4,
        instances_max=4,
        n_poselets=3,
        feature_dim=8,
        splits=("test",),
        seed=7,
    )
    base.update(over)
    return SynthConfig(**base)


def _scalar_generate(cfg: SynthConfig) -> SynthData:
    """The generator as first written: one draw per instance, part and coordinate.

    Kept as the oracle for `generate`, whose whole-array draws must yield the
    same values from every stream.
    """
    registry = cfg.registry()
    sigma = cfg.sigma_vector()
    info = cfg.informativeness_vector()
    act_prob = cfg.activation_matrix()
    n_parts, d = cfg.n_parts, cfg.feature_dim

    records: list[tuple] = []
    poses: dict[int, int] = {}
    active: dict[int, np.ndarray] = {}  # instance_id -> bool per part
    feat_ids: dict[int, list[int]] = {p: [] for p in range(n_parts)}
    feat_rows: dict[int, list[np.ndarray]] = {p: [] for p in range(n_parts)}
    detections: dict[int, list[Detection]] = {}

    next_instance = 1
    next_photo = 1
    next_detection = 1

    for split_idx, split in enumerate(cfg.splits):
        rng_count = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, split_idx]))
        rng_pose = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3, split_idx]))
        rng_act = np.random.default_rng(np.random.SeedSequence([cfg.seed, 4, split_idx]))
        rng_photo = np.random.default_rng(np.random.SeedSequence([cfg.seed, 5, split_idx]))
        rng_det = np.random.default_rng(np.random.SeedSequence([cfg.seed, 6, split_idx]))
        rng_noise = {
            p: np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, split_idx, p]))
            for p in range(n_parts)
        }
        rng_proto = np.random.default_rng(np.random.SeedSequence([cfg.seed, 8, split_idx]))
        # prototypes per part: (n_identities, d), scaled by that part's informativeness
        protos = {
            p: rng_proto.normal(0.0, 1.0, (cfg.n_identities, d)) * info[p]
            for p in range(n_parts)
        }

        counts = rng_count.integers(cfg.instances_min, cfg.instances_max + 1, cfg.n_identities)
        split_instances: list[tuple[int, int, str]] = []  # (instance_id, identity idx, label)

        for ident in range(cfg.n_identities):
            label = f"{split}_{ident:04d}"
            for _k in range(int(counts[ident])):
                iid = next_instance
                next_instance += 1
                pose = int(rng_pose.integers(cfg.pose_states))
                poses[iid] = pose
                mask = rng_act.random(n_parts) < act_prob[:, pose]
                mask[GLOBAL_PART_ID] = True
                active[iid] = mask
                for p in range(n_parts):
                    if mask[p]:
                        row = protos[p][ident] + rng_noise[p].normal(0.0, sigma[p], d)
                        feat_ids[p].append(iid)
                        feat_rows[p].append(row)
                split_instances.append((iid, ident, label))

        # uploaders round-robin over the instance stream; photos group 1-3
        # same-uploader instances, never repeating an identity inside a photo
        uploader_base = split_idx * cfg.n_uploaders
        by_uploader: dict[int, list[tuple[int, int, str]]] = {}
        uploader_of: dict[int, int] = {}
        for pos, item in enumerate(split_instances):
            uid = uploader_base + (pos % cfg.n_uploaders)
            uploader_of[item[0]] = uid
            by_uploader.setdefault(uid, []).append(item)

        for uid in sorted(by_uploader):
            pool = by_uploader[uid]
            pos = 0
            while pos < len(pool):
                size = int(rng_photo.integers(1, 4))
                group: list[tuple[int, int, str]] = []
                seen_idents: set[int] = set()
                while pos < len(pool) and len(group) < size:
                    if pool[pos][1] in seen_idents:
                        break
                    group.append(pool[pos])
                    seen_idents.add(pool[pos][1])
                    pos += 1
                photo_id = next_photo
                next_photo += 1
                album_id = uid * 1000 + (photo_id % 7)
                dets: list[Detection] = []
                for slot, (iid, ident, label) in enumerate(group):
                    w = float(rng_photo.uniform(18.0, 30.0))
                    h = w * float(rng_photo.uniform(0.9, 1.2))
                    x = 10.0 + 70.0 * slot + float(rng_photo.uniform(-5.0, 5.0))
                    y = 15.0 + float(rng_photo.uniform(-5.0, 5.0))
                    head = BBox(x, y, w, h)
                    records.append((iid, photo_id, album_id, uid, head, label, split))
                    if rng_det.random() < cfg.detection_miss:
                        continue
                    body = body_from_head(head)
                    jx = float(rng_det.uniform(-0.05, 0.05)) * body.w
                    jy = float(rng_det.uniform(-0.05, 0.05)) * body.h
                    person = BBox(body.x + jx, body.y + jy, body.w, body.h)
                    acts = []
                    for p in range(1, n_parts):
                        if active[iid][p]:
                            patch = BBox(
                                person.x + (p % 3) * person.w / 3.0,
                                person.y + (p // 3) * person.h / 4.0,
                                person.w / 3.0,
                                person.h / 4.0,
                            )
                            acts.append((p, patch, float(rng_det.uniform(0.5, 1.0))))
                    dets.append(
                        Detection(
                            next_detection,
                            person,
                            float(rng_det.uniform(0.5, 1.0)),
                            tuple(acts),
                        )
                    )
                    next_detection += 1
                if dets:
                    detections[photo_id] = dets

    # rows normalized in float64, then stored as float32
    features = {
        p: FeatureMatrix(
            p,
            np.asarray(feat_ids[p], dtype=np.int64),
            l2_normalize_rows(np.asarray(feat_rows[p], dtype=np.float64).reshape(len(feat_rows[p]), d)),
            normalized=True,
        )
        for p in range(n_parts)
    }
    dataset = dataset_from_records(records)
    return SynthData(
        config=cfg,
        registry=registry,
        records=records,
        dataset=dataset,
        features=features,
        detections=detections,
        poses=poses,
        activation_prob=act_prob,
    )


class TestGenerate:
    def test_shapes_and_splits(self, bench):
        cfg = bench.config
        for split in ("val", "test"):
            assert len({inst.label for inst in bench.dataset.split_instances(split)}) == cfg.n_identities
        per_split = cfg.n_identities * cfg.instances_min
        assert len(bench.dataset.split_instances("val")) == per_split
        assert len(bench.dataset.split_instances("test")) == per_split
        assert set(bench.features) == set(range(cfg.n_parts))

    def test_global_part_covers_everything(self, bench):
        n = len(bench.dataset.instances)
        assert len(bench.features[0].instance_ids) == n

    def test_identities_stay_in_one_split(self, bench):
        seen: dict[str, str] = {}
        for inst in bench.dataset.instances:
            key = inst.label
            assert seen.setdefault(key, inst.split) == inst.split

    def test_uploaders_stay_in_one_split(self, bench):
        seen: dict[int, str] = {}
        for inst in bench.dataset.instances:
            assert seen.setdefault(inst.uploader_id, inst.split) == inst.split

    def test_photos_single_uploader_no_repeated_identity(self, bench):
        by_photo: dict[int, list] = {}
        for inst in bench.dataset.instances:
            by_photo.setdefault(inst.photo_id, []).append(inst)
        for group in by_photo.values():
            assert len({i.uploader_id for i in group}) == 1
            idents = [i.label for i in group]
            assert len(idents) == len(set(idents))
            assert 1 <= len(group) <= 3

    def test_activation_rate_tracks_configuration(self, bench):
        cfg = bench.config
        insts = bench.dataset.instances
        n = len(insts)
        pose_counts = np.bincount(
            [bench.poses[i.instance_id] for i in insts], minlength=cfg.pose_states
        )
        for pid in range(1, cfg.n_parts):
            emp = len(bench.features[pid].instance_ids) / n
            conf = float(bench.activation_prob[pid] @ (pose_counts / n))
            assert abs(emp - conf) <= 0.05

    def test_activation_independent_of_identity(self, bench):
        rows = bench.dataset.split_instances("val")
        for pid in range(1, bench.config.n_parts):
            have = set(bench.features[pid].instance_ids.tolist())
            table = np.zeros((len({inst.identity for inst in rows}), 2))
            for inst in rows:
                table[inst.identity, int(inst.instance_id in have)] += 1
            keep = table.min(axis=1) >= 0
            _, p, _, _ = stats.chi2_contingency(table[keep])
            assert p >= 0.01

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = _small()
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        files1 = write_synth(generate(cfg), d1)
        files2 = write_synth(generate(cfg), d2)
        assert [p.relative_to(d1) for p in files1] == [p.relative_to(d2) for p in files2]
        for p1, p2 in zip(files1, files2):
            assert hashlib.sha256(p1.read_bytes()).hexdigest() == hashlib.sha256(
                p2.read_bytes()
            ).hexdigest()

    def test_different_seed_different_features(self):
        a = generate(_small(seed=1))
        b = generate(_small(seed=2))
        assert not np.array_equal(a.features[0].X, b.features[0].X)

    def test_zero_noise_full_activation_is_perfect(self):
        cfg = _small(noise_sigma=0.0, activation_prob=1.0)
        data = generate(cfg)
        fw = FusionWeights(np.ones(len(data.registry.parts)))
        report = eval_recognition(data.dataset, data.features, data.registry, fw, 0)
        assert report.accuracy == 1.0

    def test_uninformative_prototypes_hit_chance(self):
        cfg = _small(informativeness=0.0, n_identities=8, instances_min=8, instances_max=8)
        data = generate(cfg)
        fw = FusionWeights(np.ones(len(data.registry.parts)))
        report = eval_recognition(data.dataset, data.features, data.registry, fw, 0)
        chance = 1.0 / 8
        sigma = np.sqrt(chance * (1 - chance) / report.n_test)
        assert abs(report.accuracy - chance) <= 3 * sigma

    def test_detections_reference_known_photos(self, bench):
        photos = {i.photo_id for i in bench.dataset.instances}
        assert set(bench.detections) <= photos
        miss_rate = 1 - sum(len(v) for v in bench.detections.values()) / len(
            bench.dataset.instances
        )
        assert abs(miss_rate - bench.config.detection_miss) < 0.03


class TestConfigValidation:
    def test_instance_floor(self):
        with pytest.raises(ValueError):
            SynthConfig(instances_min=1, instances_max=1)

    def test_identity_floor(self):
        with pytest.raises(ValueError):
            SynthConfig(n_identities=1)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match=r"detection_miss must lie in \[0, 1\], got 1.5"):
            SynthConfig(detection_miss=1.5)

    def test_config_json_round_trip(self, tmp_path):
        cfg = _small(noise_sigma=1.1, activation_prob=0.4)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
        back = config_from_json(path)
        assert back == cfg

    def test_config_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_identies": 4}', encoding="utf-8")
        with pytest.raises(ValueError):
            config_from_json(path)


class TestPlantedConfig:
    def test_one_hot_informativeness(self):
        cfg = planted_config(3, seed=0)
        info = cfg.informativeness_vector()
        assert info[3] > 0
        assert np.count_nonzero(info) == 1

    def test_planted_part_dominates_its_features(self):
        data = generate(planted_config(2, seed=1, splits=("test",)))  # the split recognition scores
        # identity must be decodable from the planted part alone
        fw = FusionWeights(np.ones(len(data.registry.parts)))
        report = eval_recognition(data.dataset, data.features, data.registry, fw, 0, "poselets")
        assert report.accuracy > 0.5


@pytest.mark.parametrize(
    "over",
    [
        {},
        dataclasses.asdict(SynthConfig(n_identities=6)),  # the defaults: 8 poselets, 32 dims, both splits
        dict(splits=("val", "test"), n_identities=12, instances_min=3, instances_max=9),
        dict(instances_min=2, instances_max=7, n_identities=9),
        dict(detection_miss=0.0),
        dict(detection_miss=1.0),
        dict(detection_miss=0.4, activation_prob=0.0),
        dict(activation_prob=1.0),
        dict(include_face=False),
        dict(pose_states=1),
        dict(pose_states=7, noise_sigma=0.0),
        dict(noise_sigma=(0.0, 1.0, 2.0, 3.0, 0.5), informativeness=0.0, seed=913),
    ],
)
def test_generate_matches_the_scalar_generator(tmp_path, over):
    cfg = _small(**over)
    got, want = generate(cfg), _scalar_generate(cfg)
    assert got.records == want.records
    assert got.poses == want.poses
    assert got.detections == want.detections
    assert set(got.features) == set(want.features)
    for p, fm in want.features.items():
        assert got.features[p].instance_ids.tobytes() == fm.instance_ids.tobytes()
        assert got.features[p].X.dtype == np.float32 and got.features[p].normalized
        assert got.features[p].X.tobytes() == fm.X.tobytes()
    files = write_synth(got, tmp_path / "got")
    oracle = write_synth(want, tmp_path / "want")
    assert [p.relative_to(tmp_path / "got") for p in files] == [p.relative_to(tmp_path / "want") for p in oracle]
    for a, b in zip(files, oracle):
        assert a.read_bytes() == b.read_bytes(), a.name


@pytest.mark.parametrize("collecting", [True, False])
def test_generate_pauses_the_collector_and_restores_it(monkeypatch, collecting):
    draw, seen = synth._draw, []
    monkeypatch.setattr(synth, "_draw", lambda cfg: seen.append(gc.isenabled()) or draw(cfg))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        generate(_small())
        assert seen == [False] and gc.isenabled() == collecting
        monkeypatch.setattr(synth, "_draw", lambda cfg: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            generate(_small())
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
