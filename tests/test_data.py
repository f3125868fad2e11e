import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import finite_floats
from partfusion import (
    BBox,
    FeatureMatrix,
    l2_normalize_rows,
    load_index,
    make_registry,
    read_features,
    read_registry,
    write_features,
    write_index,
    write_registry,
)
from partfusion.data import SPLITS, PartInfo, PartRegistry, atomic_write_bytes, dataset_from_records
from partfusion.fusion import ProbabilityTable, read_prob_table, write_prob_table
from partfusion.protocols import _train_part_model


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


_LABELS = st.text(st.characters(blacklist_characters="\t"), max_size=6).filter(
    lambda label: "".join(label.splitlines()) == label
)


@st.composite
def _index_records(draw):
    """Records `load_index` accepts: unique ids, one photo per instance, one split per label and per uploader."""
    labels = draw(st.lists(_LABELS, min_size=1, max_size=5, unique=True))
    split_of = {label: draw(st.sampled_from(SPLITS)) for label in labels}
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=10, unique=True))
    records = []
    for iid in ids:
        label = draw(st.sampled_from(labels))
        head = BBox(draw(finite_floats()), draw(finite_floats()), draw(finite_floats(0.0)), draw(finite_floats(0.0)))
        album = draw(st.integers(-(2**63), 2**63 - 1))
        records.append((iid, iid, album, SPLITS.index(split_of[label]), head, label, split_of[label]))
    return records


class TestIndexFile:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(records=_index_records())
    def test_load_returns_what_write_wrote(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.tsv"
            write_index(path, records)
            assert load_index(path) == dataset_from_records(records)

    @pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\r", "a\u2028b", "\x85"])
    def test_label_that_would_split_the_line_rejected(self, tmp_path, label):
        recs = _records()
        recs[3] = (*recs[3][:5], label, recs[3][6])
        path = tmp_path / "index.tsv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: record 3 (instance 4): label {label!r} holds a tab")):
            write_index(path, recs)
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "index.tsv"
        write_index(path, _records())
        ds = load_index(path)
        assert len(ds.instances) == 6
        assert [i.instance_id for i in ds.instances] == [1, 2, 3, 4, 5, 6]
        assert ds.instances[0].photo_id == 100
        assert ds.instances[0].head == BBox(10.0, 5.0, 8.0, 8.0)

    def test_dense_identity_reindex_per_split(self, tmp_path):
        path = tmp_path / "index.tsv"
        write_index(path, _records())
        ds = load_index(path)
        by_id = {inst.instance_id: inst for inst in ds.instances}
        # labels sorted per split: alice=0, bob=1; carol=0, dave=1
        assert by_id[1].identity == 0 and by_id[1].label == "alice"
        assert by_id[2].identity == 1 and by_id[2].label == "bob"
        assert by_id[4].identity == 0 and by_id[4].label == "carol"
        assert sorted({(i.identity, i.label) for i in ds.split_instances("val")}) == [(0, "alice"), (1, "bob")]

    def test_loader_and_in_memory_builder_agree(self, tmp_path):
        path = tmp_path / "index.tsv"
        records = _records()[::-1]
        write_index(path, records)
        assert load_index(path) == dataset_from_records(records)

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

    def test_no_face(self):
        reg = make_registry(2, include_face=False)
        assert reg.part_ids == (0, 1, 2)
        assert reg.ids_of_kind("face") == ()
        with pytest.raises(ValueError, match="component mask selects no parts"):
            reg.resolve_mask("face")

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

    @pytest.mark.parametrize("include_face", [True, False])
    def test_parts_file_round_trip(self, tmp_path, include_face):
        reg = make_registry(3, include_face)
        path = tmp_path / "parts.tsv"
        write_registry(path, reg)
        assert path.read_text().splitlines()[:2] == ["0\tglobal\tglobal", "1\tposelet_000\tposelet"]
        assert read_registry(path) == reg

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0\tglobal\tglobal\n1\tposelet\n", r"parts.tsv:2: expected 3 tab-separated fields, got 2"),
            ("0\tglobal\tglobal\nx\tp\tposelet\n", r"parts.tsv:2: part_id must be an integer, got 'x'"),
            ("0\tglobal\tglobal\n2\tp\tposelet\n", r"parts.tsv: part ids must be contiguous from 0"),
            ("0\tglobal\tglobal\n1\tp\thand\n", r"parts.tsv: unknown part kind: hand"),
            ("0\tp\tposelet\n", r"parts.tsv: part 0 must be the global part"),
            ("", r"parts.tsv: registry needs at least the global part"),
        ],
    )
    def test_bad_parts_file_names_the_path(self, tmp_path, text, message):
        path = tmp_path / "parts.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(str(tmp_path)) + "/" + message):
            read_registry(path)

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\u2028b"])
    def test_name_the_parts_file_cannot_hold_is_rejected(self, name):
        with pytest.raises(ValueError, match="part 1: name .* holds a tab or a line break"):
            PartRegistry((PartInfo(0, "global", "global"), PartInfo(1, name, "poselet")))


_F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def _feature_parts(draw):
    """(instance ids in any order, finite float64 or float32 rows in float32 range, normalization flag)."""
    n, d = draw(st.integers(0, 8)), draw(st.integers(0, 5))
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n, unique=True))
    width = draw(st.sampled_from([32, 64]))
    elements = st.floats(-_F32_MAX, _F32_MAX, width=width)
    X = draw(hnp.arrays(np.float32 if width == 32 else np.float64, (n, d), elements=elements))
    return np.asarray(ids, dtype=np.int64), X, draw(st.booleans())


class TestFeatureMatrix:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(parts=_feature_parts())
    def test_file_round_trip_is_bit_identical(self, parts):
        ids, X, flag = parts
        fm = FeatureMatrix(5, ids, X, normalized=flag)
        order = np.argsort(ids)
        assert fm.X.dtype == np.float32 and fm.X.tobytes() == X.astype(np.float32)[order].tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "part_005.pfv"
            write_features(path, fm)
            back = read_features(path)
        assert back.part_id == 5 and back.normalized == flag
        assert back.instance_ids.tobytes() == ids[order].tobytes()
        assert back.X.dtype == np.float32 and back.X.tobytes() == fm.X.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(parts=_feature_parts(), data=st.data())
    def test_a_file_cut_anywhere_names_its_path(self, parts, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "part_005.pfv"
            write_features(path, FeatureMatrix(5, *parts[:2], normalized=parts[2]))
            whole = path.read_bytes()
            path.write_bytes(whole[: data.draw(st.integers(0, len(whole) - 1), label="cut")])
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                read_features(path)

    def test_rows_sorted_and_lookup(self):
        fm = FeatureMatrix(1, np.array([30, 10, 20]), np.eye(3))
        assert fm.instance_ids.tolist() == [10, 20, 30]
        np.testing.assert_array_equal(fm.rows(np.array([30, 10])), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
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
        back = read_features(path)
        assert back.part_id == 3
        np.testing.assert_array_equal(back.instance_ids, fm.instance_ids)
        np.testing.assert_allclose(back.X, fm.X.astype(np.float32), rtol=1e-6)

    def test_read_returns_rows_as_stored(self, tmp_path):
        fm = FeatureMatrix(0, np.array([1, 2]), np.array([[3.0, 4.0], [1.0, 0.0]]))
        path = tmp_path / "part_000.pfv"
        for stored in (fm, fm.normalized_copy()):
            write_features(path, stored)
            back = read_features(path)
            assert np.array_equal(back.X, stored.X.astype(np.float32))
            assert back.normalized == stored.normalized

    def test_read_keeps_float32_rows_and_widens_gathered_ones(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 5))
        fm = FeatureMatrix(2, np.arange(10, 30), X)
        # float64 input is held as the float32 rows a file stores
        assert fm.X.dtype == np.float32
        assert fm.X.tobytes() == X.astype(np.float32).tobytes()
        path = tmp_path / "part_002.pfv"
        write_features(path, fm)
        back = read_features(path)
        assert back.X.dtype == np.float32
        assert back.X.tobytes() == fm.X.tobytes()
        ids = np.array([29, 10, 17, 17])
        got = back.rows(ids)
        assert got.dtype == np.float64
        assert got.tobytes() == X.astype(np.float32).astype(np.float64)[ids - 10].tobytes()
        # normalizing widens first, then stores the normalized rows as float32
        normalized = back.normalized_copy()
        assert normalized.X.dtype == np.float32
        assert normalized.X.tobytes() == l2_normalize_rows(back.X.astype(np.float64)).astype(np.float32).tobytes()

    @pytest.mark.parametrize(
        "field,value,message",
        [("id", 1, "duplicate instance ids in part 0 features"), ("x", np.nan, "non-finite feature values in part 0")],
    )
    def test_a_broken_feature_rule_names_the_path(self, tmp_path, field, value, message):
        path = tmp_path / "part_000.pfv"
        write_features(path, FeatureMatrix(0, np.array([1, 2]), np.ones((2, 2))))
        whole = path.read_bytes()
        body = np.frombuffer(whole, dtype=[("id", "<u8"), ("x", "<f4", (2,))], offset=17).copy()
        body[field][1] = value
        path.write_bytes(whole[:17] + body.tobytes())
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_features(path)

    def test_binary_layout_little_endian(self, tmp_path):
        # hand-build a one-row file and confirm the reader decodes it
        d = 2
        header = b"PFV1" + struct.pack("<III B", 7, d, 1, 0)
        body = struct.pack("<Q", 42) + struct.pack("<2f", 1.5, -2.0)
        path = tmp_path / "hand.pfv"
        path.write_bytes(header + body)
        fm = read_features(path)
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

    def test_truncated_body_names_path_and_lengths(self, tmp_path):
        path = tmp_path / "part_000.pfv"
        write_features(path, FeatureMatrix(0, np.array([1, 2]), np.ones((2, 2))))
        whole = path.read_bytes()
        record = 8 + 4 * 2
        for cut in range(1, record):
            path.write_bytes(whole[:-cut])
            message = f"{path}: truncated body: {2 * record - cut} bytes is not a whole number of {record}-byte records"
            with pytest.raises(ValueError, match=re.escape(message)):
                read_features(path)
        path.write_bytes(whole[:-record])
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 2 records, found 1")):
            read_features(path)

    def test_read_holds_the_file_and_one_id_column(self, tmp_path):
        # A 40,000 x 32 part; the returned X is a read-only view of the file's float32 records.
        rng = np.random.default_rng(27)
        path = tmp_path / "part_004.pfv"
        write_features(path, FeatureMatrix(4, np.arange(40000) * 3 + 1, rng.normal(size=(40000, 32))))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            fm = read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * size, f"peak {peak / size:.2f} files"
        rec = np.dtype([("id", "<u8"), ("x", "<f4", (32,))])
        assert fm.X.dtype == np.float32 and not fm.X.flags.writeable
        assert fm.X.tobytes() == np.frombuffer(path.read_bytes(), dtype=rec, offset=17)["x"].tobytes()


# Each binary format: (write a two-record file of width 3, read, header bytes).
_BINARY_FORMATS = {
    "pfv": (lambda path: write_features(path, FeatureMatrix(3, np.array([1, 2]), np.ones((2, 3)))), read_features, 17),
    "ppt": (
        lambda path: write_prob_table(path, ProbabilityTable(3, [1, 2], np.full((2, 3), 1 / 3), [True, False])),
        read_prob_table,
        16,
    ),
}


def _empty_with_width(whole: bytes, header_bytes: int, width: int) -> bytes:
    """A binary file's header with ``width`` and n = 0, and no body."""
    return whole[:8] + struct.pack("<II", width, 0) + whole[16:header_bytes]


@pytest.mark.parametrize("suffix", sorted(_BINARY_FORMATS))
def test_every_header_bit_flip_reads_or_names_the_path(tmp_path, suffix):
    write, read, header_bytes = _BINARY_FORMATS[suffix]
    path = tmp_path / f"part_003.{suffix}"
    write(path)
    whole = path.read_bytes()
    cases = []
    for bit in range(8 * header_bytes):
        data = bytearray(whole)
        data[bit // 8] ^= 1 << bit % 8
        cases.append((f"bit {bit}", data))
    # n = 0 and width 2^29: the length is right, so only the record-size check catches it
    cases.append(("n = 0, width 2^29", _empty_with_width(whole, header_bytes, 2**29)))
    for case, data in cases:
        path.write_bytes(data)
        try:
            read(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), (case, str(exc))


@pytest.mark.parametrize("suffix", sorted(_BINARY_FORMATS))
def test_the_record_size_limit_is_numpys(tmp_path, suffix):
    # the widest record numpy can type, 2^29 - 3 float32 values, reads; one more value is rejected by name
    write, read, header_bytes = _BINARY_FORMATS[suffix]
    path = tmp_path / f"part_003.{suffix}"
    write(path)
    whole = path.read_bytes()
    path.write_bytes(_empty_with_width(whole, header_bytes, 2**29 - 3))
    assert read(path).part_id == 3
    path.write_bytes(_empty_with_width(whole, header_bytes, 2**29 - 2))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: width 536870910 makes 21474836"):
        read(path)


class TestCoverage:
    """A part's identity coverage F_i is its model's class index: the identities it fired on in training."""

    @staticmethod
    def _coverage(feats, labels, train_ids):
        ids = np.array(train_ids)
        return {pid: _train_part_model(pid, fm, ids, labels, (0,)).class_index.tolist() for pid, fm in feats.items()}

    def test_coverage_sets(self):
        rng = np.random.default_rng(2)
        feats = {
            0: FeatureMatrix(0, np.array([1, 2, 3, 4]), rng.normal(size=(4, 2))),
            1: FeatureMatrix(1, np.array([1, 4]), rng.normal(size=(2, 2))),
        }
        labels = {1: 0, 2: 0, 3: 1, 4: 2}
        assert self._coverage(feats, labels, [1, 2, 3, 4]) == {0: [0, 1, 2], 1: [0, 2]}

    def test_coverage_respects_train_subset(self):
        rng = np.random.default_rng(3)
        feats = {pid: FeatureMatrix(pid, np.array([1, 2, 3]), rng.normal(size=(3, 2))) for pid in (0, 1)}
        labels = {1: 0, 2: 1, 3: 2}
        assert self._coverage(feats, labels, [1, 3]) == {0: [0, 2], 1: [0, 2]}


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
