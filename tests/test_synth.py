import dataclasses
import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from partfusion import FusionWeights, SynthConfig, generate
from partfusion.protocols import eval_recognition
from partfusion.synth import config_from_json, planted_config, write_synth


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


class TestGenerate:
    def test_shapes_and_splits(self, bench):
        cfg = bench.config
        assert len(bench.dataset.identity_labels["val"]) == cfg.n_identities
        assert len(bench.dataset.identity_labels["test"]) == cfg.n_identities
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
            table = np.zeros((len(bench.dataset.identity_labels["val"]), 2))
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
        report = eval_recognition(data.dataset, data.features, data.registry, fw, "test", 0)
        assert report.accuracy == 1.0

    def test_uninformative_prototypes_hit_chance(self):
        cfg = _small(informativeness=0.0, n_identities=8, instances_min=8, instances_max=8)
        data = generate(cfg)
        fw = FusionWeights(np.ones(len(data.registry.parts)))
        report = eval_recognition(data.dataset, data.features, data.registry, fw, "test", 0)
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
        data = generate(planted_config(2, seed=1))
        # identity must be decodable from the planted part alone
        fw = FusionWeights(np.ones(len(data.registry.parts)))
        report = eval_recognition(
            data.dataset, data.features, data.registry, fw, "val", 0, "poselets"
        )
        assert report.accuracy > 0.5
