import os
import re
import struct

import numpy as np
import pytest

from partfusion import (
    BBox,
    FeatureMatrix,
    build_coverage,
    l2_normalize_rows,
    load_index,
    make_registry,
    read_features,
    write_features,
    write_index,
)
from partfusion.data import PartInfo, PartRegistry, atomic_write_bytes


def _records():
    head = lambda k: BBox(10.0 * k, 5.0, 8.0, 8.0)
    return [
        (1, 100, 7, 1, head(1), "alice", "val"),
        (2, 100, 7, 1, head(2), "bob", "val"),
        (3, 101, 7, 1, head(1), "alice", "val"),
        (4, 102, 8, 2, head(1), "carol", "test"),
        (5, 102, 8, 2, head(2), "dave", "test"),
        (6, 103, 8, 2, head(1), "carol", "test"),
    ]


class TestIndexFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "index.tsv"
        write_index(path, _records())
        ds = load_index(path)
        assert len(ds.instances) == 6
        assert [i.instance_id for i in ds.instances] == [1, 2, 3, 4, 5, 6]
        assert ds.by_id[1].photo_id == 100
        assert ds.by_id[1].head == BBox(10.0, 5.0, 8.0, 8.0)

    def test_dense_identity_reindex_per_split(self, tmp_path):
        path = tmp_path / "index.tsv"
        write_index(path, _records())
        ds = load_index(path)
        # labels sorted per split: alice=0, bob=1; carol=0, dave=1
        assert ds.by_id[1].identity == 0 and ds.by_id[1].label == "alice"
        assert ds.by_id[2].identity == 1 and ds.by_id[2].label == "bob"
        assert ds.by_id[4].identity == 0 and ds.by_id[4].label == "carol"
        assert ds.identity_labels["val"] == ("alice", "bob")
        assert ds.n_identities("val") == 2

    def test_duplicate_instance_id_rejected(self, tmp_path):
        recs = _records()
        recs.append((1, 200, 9, 3, BBox(0, 0, 4, 4), "eve", "train"))
        path = tmp_path / "index.tsv"
        write_index(path, recs)
        with pytest.raises(ValueError, match="duplicate instance id"):
            load_index(path)

    def test_identity_in_two_splits_rejected(self, tmp_path):
        recs = _records()
        recs.append((7, 200, 9, 3, BBox(0, 0, 4, 4), "alice", "test"))
        recs.append((8, 200, 9, 3, BBox(9, 0, 4, 4), "alice", "test"))
        path = tmp_path / "index.tsv"
        write_index(path, recs)
        with pytest.raises(ValueError, match="multiple splits"):
            load_index(path)

    def test_uploader_spanning_splits_rejected(self, tmp_path):
        recs = _records()
        recs.append((7, 200, 9, 1, BBox(0, 0, 4, 4), "eve", "test"))
        path = tmp_path / "index.tsv"
        write_index(path, recs)
        with pytest.raises(ValueError, match="uploader"):
            load_index(path)

    def test_duplicate_head_in_photo_rejected(self, tmp_path):
        recs = _records()
        recs.append((7, 100, 7, 1, BBox(10.0, 5.0, 8.0, 8.0), "eve", "val"))
        path = tmp_path / "index.tsv"
        write_index(path, recs)
        with pytest.raises(ValueError, match="duplicate head"):
            load_index(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("1\t2\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="fields"):
            load_index(path)

    @pytest.mark.parametrize(
        "column,value,message",
        [
            (0, "1.5", "instance_id must be an integer, got '1.5'"),
            (1, "x", "photo_id must be an integer, got 'x'"),
            (3, "", "uploader_id must be an integer, got ''"),
            (6, "wide", "head w must be a finite number, got 'wide'"),
            (4, "inf", "head x must be a finite number, got 'inf'"),
            (7, "0", "degenerate box: w=8.0, h=0.0"),
        ],
    )
    def test_bad_field_names_location(self, tmp_path, column, value, message):
        path = tmp_path / "index.tsv"
        write_index(path, _records())
        lines = path.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[column] = value
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            load_index(path)

    def test_unknown_split_rejected(self, tmp_path):
        recs = [(1, 1, 1, 1, BBox(0, 0, 4, 4), "a", "weird")]
        path = tmp_path / "index.tsv"
        write_index(path, recs)
        with pytest.raises(ValueError, match="split"):
            load_index(path)


class TestRegistry:
    def test_layout(self):
        reg = make_registry(3, include_face=True)
        assert reg.part_ids == (0, 1, 2, 3, 4)
        assert reg.parts[0].kind == "global"
        assert reg.ids_of_kind("poselet") == (1, 2, 3)
        assert reg.ids_of_kind("face") == (4,)
        assert reg.n_non_global == 4

    def test_no_face(self):
        reg = make_registry(2, include_face=False)
        assert reg.part_ids == (0, 1, 2)
        assert reg.ids_of_kind("face") == ()

    def test_resolve_mask(self):
        reg = make_registry(2, include_face=True)
        assert reg.resolve_mask(None) == (0, 1, 2, 3)
        assert reg.resolve_mask("all") == (0, 1, 2, 3)
        assert reg.resolve_mask("global") == (0,)
        assert reg.resolve_mask("poselets,face") == (1, 2, 3)
        with pytest.raises(ValueError):
            reg.resolve_mask("nonsense")

    def test_part_zero_must_be_global(self):
        with pytest.raises(ValueError):
            PartRegistry((PartInfo(0, "p", "poselet"),))

    def test_ids_must_be_contiguous(self):
        with pytest.raises(ValueError):
            PartRegistry((PartInfo(0, "global", "global"), PartInfo(2, "p", "poselet")))


class TestFeatureMatrix:
    def test_rows_sorted_and_lookup(self):
        fm = FeatureMatrix(1, np.array([30, 10, 20]), np.eye(3))
        assert fm.instance_ids.tolist() == [10, 20, 30]
        np.testing.assert_array_equal(fm.row(30), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(fm.contains(np.array([10, 99])), [True, False])

    def test_missing_row_raises(self):
        fm = FeatureMatrix(1, np.array([1]), np.ones((1, 2)))
        with pytest.raises(KeyError):
            fm.rows(np.array([1, 2]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            FeatureMatrix(1, np.array([1, 1]), np.ones((2, 2)))

    def test_non_finite_rejected(self):
        X = np.ones((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureMatrix(1, np.array([1, 2]), X)

    def test_l2_normalize_rows(self):
        X = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = l2_normalize_rows(X)
        np.testing.assert_allclose(out[0], [0.6, 0.8])
        np.testing.assert_array_equal(out[1], [0.0, 0.0])

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        fm = FeatureMatrix(3, np.arange(1, 8), rng.normal(size=(7, 4)))
        path = tmp_path / "part_003.pfv"
        write_features(path, fm)
        back = read_features(path, normalize=False)
        assert back.part_id == 3
        np.testing.assert_array_equal(back.instance_ids, fm.instance_ids)
        np.testing.assert_allclose(back.X, fm.X.astype(np.float32), rtol=1e-6)

    def test_read_normalizes_by_default(self, tmp_path):
        fm = FeatureMatrix(0, np.array([1, 2]), np.array([[3.0, 4.0], [1.0, 0.0]]))
        path = tmp_path / "part_000.pfv"
        write_features(path, fm)
        back = read_features(path)
        np.testing.assert_allclose(np.linalg.norm(back.X, axis=1), 1.0, atol=1e-6)
        assert back.normalized

    def test_binary_layout_little_endian(self, tmp_path):
        # hand-build a one-row file and confirm the reader decodes it
        d = 2
        header = b"PFV1" + struct.pack("<III B", 7, d, 1, 0)
        body = struct.pack("<Q", 42) + struct.pack("<2f", 1.5, -2.0)
        path = tmp_path / "hand.pfv"
        path.write_bytes(header + body)
        fm = read_features(path, normalize=False)
        assert fm.part_id == 7
        assert fm.instance_ids.tolist() == [42]
        np.testing.assert_allclose(fm.X[0], [1.5, -2.0])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pfv"
        path.write_bytes(b"XXXX" + b"\x00" * 13)
        with pytest.raises(ValueError, match="magic"):
            read_features(path)

    def test_truncated_header_names_path_and_lengths(self, tmp_path):
        path = tmp_path / "part_000.pfv"
        write_features(path, FeatureMatrix(0, np.array([1]), np.ones((1, 2))))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated header: 10 bytes, the header needs 17")):
            read_features(path)


class TestCoverage:
    def test_coverage_sets(self):
        feats = {
            0: FeatureMatrix(0, np.array([1, 2, 3, 4]), np.ones((4, 2))),
            1: FeatureMatrix(1, np.array([1, 4]), np.ones((2, 2))),
        }
        labels = {1: 0, 2: 0, 3: 1, 4: 2}
        cov = build_coverage(feats, labels, np.array([1, 2, 3, 4]))
        assert cov[0].tolist() == [0, 1, 2]
        assert cov[1].tolist() == [0, 2]

    def test_coverage_respects_train_subset(self):
        feats = {
            0: FeatureMatrix(0, np.array([1, 2]), np.ones((2, 2))),
            1: FeatureMatrix(1, np.array([1, 2]), np.ones((2, 2))),
        }
        labels = {1: 0, 2: 1}
        cov = build_coverage(feats, labels, np.array([1]))
        assert cov[1].tolist() == [0]


def test_atomic_rewrite_replaces_bytes_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    atomic_write_bytes(target, b"first")
    real_replace = os.replace

    def rename_onto_nothing(src, dst):
        # renaming over an existing file can wait on a flush (ext4 auto_da_alloc)
        assert not os.path.exists(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", rename_onto_nothing)
    atomic_write_bytes(target, b"second, longer")
    assert target.read_bytes() == b"second, longer"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
