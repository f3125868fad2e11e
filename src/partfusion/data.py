"""Dataset index, part registry, and per-part feature storage.

File formats owned here:

* dataset index: one instance per line, tab-separated, no header, UTF-8;
  fields: instance_id, photo_id, album_id, uploader_id, head x, y, w, h
  (decimal), identity label (string), split name.
* feature file (binary): magic ``PFV1``, part_id (u32 LE), d (u32 LE),
  n (u32 LE), normalization flag (u8), then n records of
  (instance_id u64 LE, d little-endian IEEE-754 float32).
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import BBox, GeometryError

__all__ = [
    "GLOBAL_PART_ID",
    "SPLITS",
    "Dataset",
    "FeatureMatrix",
    "Instance",
    "PartInfo",
    "PartRegistry",
    "atomic_write_bytes",
    "atomic_write_text",
    "build_coverage",
    "format_num",
    "l2_normalize_rows",
    "load_index",
    "make_registry",
    "numeric_field_error",
    "read_features",
    "read_tsv_rows",
    "require_header",
    "write_features",
    "write_index",
]


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file and rename, so readers never see partial files.

    An existing target is unlinked before the rename: renaming over an
    existing file makes some filesystems (ext4's ``auto_da_alloc``) flush the
    new file first, which made reruns into an existing directory stall.
    Readers may therefore briefly see no file, but never a partial one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    path.unlink(missing_ok=True)
    os.replace(tmp, path)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_tsv_rows(path: str | Path, n_fields: int) -> Iterator[tuple[str, list[str]]]:
    """Yield (``path:line``, fields) for each non-empty line of a UTF-8 TSV file.

    A line with another field count raises ValueError naming its location,
    which callers also prefix to their own field errors.
    """
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ValueError(f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}")
        yield f"{path}:{lineno}", fields


SPLITS = ("train", "val", "test", "leftover")
GLOBAL_PART_ID = 0

_FEATURE_MAGIC = b"PFV1"
_FEATURE_HEADER_BYTES = 17  # magic, part_id, d, n, normalization flag


def require_header(path: str | Path, buf: bytes, n_bytes: int) -> None:
    """Reject a binary file too short to hold its fixed-size header."""
    if len(buf) < n_bytes:
        raise ValueError(f"{path}: truncated header: {len(buf)} bytes, the header needs {n_bytes}")


@dataclass(frozen=True)
class Instance:
    """One annotated person occurrence."""

    instance_id: int
    photo_id: int
    album_id: int
    uploader_id: int
    head: BBox
    identity: int  # dense id within this instance's split
    split: str
    label: str = ""  # original identity label from the index file


@dataclass(frozen=True)
class PartInfo:
    part_id: int
    name: str
    kind: str  # "global" | "poselet" | "face"


@dataclass(frozen=True)
class PartRegistry:
    """All cue channels: the global part (id 0), poselets, and optionally a face part."""

    parts: tuple[PartInfo, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("registry needs at least the global part")
        for i, p in enumerate(self.parts):
            if p.part_id != i:
                raise ValueError("part ids must be contiguous from 0")
        if self.parts[0].kind != "global":
            raise ValueError("part 0 must be the global part")
        for p in self.parts[1:]:
            if p.kind not in ("poselet", "face"):
                raise ValueError(f"unknown part kind: {p.kind}")

    @property
    def part_ids(self) -> tuple[int, ...]:
        return tuple(p.part_id for p in self.parts)

    @property
    def n_non_global(self) -> int:
        return len(self.parts) - 1

    def ids_of_kind(self, kind: str) -> tuple[int, ...]:
        return tuple(p.part_id for p in self.parts if p.kind == kind)

    def resolve_mask(self, mask: str | None) -> tuple[int, ...]:
        """Turn a component mask like ``"global,poselets"`` into part ids.

        Components are kind names (``global``, ``poselets``, ``face``) or
        ``all``/``None`` for every part.
        """
        if mask is None or mask == "all":
            return self.part_ids
        ids: list[int] = []
        for name in mask.split(","):
            name = name.strip()
            if name == "global":
                ids.extend(self.ids_of_kind("global"))
            elif name == "poselets":
                ids.extend(self.ids_of_kind("poselet"))
            elif name == "face":
                ids.extend(self.ids_of_kind("face"))
            else:
                raise ValueError(f"unknown mask component: {name!r}")
        if not ids:
            raise ValueError("component mask selects no parts")
        return tuple(sorted(set(ids)))


def make_registry(n_poselets: int, include_face: bool = True) -> PartRegistry:
    parts = [PartInfo(0, "global", "global")]
    parts += [PartInfo(i + 1, f"poselet_{i:03d}", "poselet") for i in range(n_poselets)]
    if include_face:
        parts.append(PartInfo(n_poselets + 1, "face", "face"))
    return PartRegistry(tuple(parts))


@dataclass
class Dataset:
    """Loaded dataset index with per-split dense identity ids."""

    instances: list[Instance]
    identity_labels: dict[str, tuple[str, ...]]  # split -> label per dense id
    by_id: dict[int, Instance] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.by_id:
            self.by_id = {inst.instance_id: inst for inst in self.instances}

    def split_instances(self, split: str) -> list[Instance]:
        return [inst for inst in self.instances if inst.split == split]

    def n_identities(self, split: str) -> int:
        return len(self.identity_labels.get(split, ()))


def format_num(v: float) -> str:
    # integral values print without a trailing .0 so ids stay readable
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_index(path: str | Path, records: list[tuple[int, int, int, int, BBox, str, str]]) -> None:
    """Write raw index records: (instance_id, photo_id, album_id, uploader_id, head, label, split)."""
    lines = []
    for iid, pid, aid, uid, head, label, split in records:
        fields = [
            str(iid),
            str(pid),
            str(aid),
            str(uid),
            format_num(head.x),
            format_num(head.y),
            format_num(head.w),
            format_num(head.h),
            label,
            split,
        ]
        lines.append("\t".join(fields))
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


_INDEX_NUMERIC_FIELDS = (
    ("instance_id", int),
    ("photo_id", int),
    ("album_id", int),
    ("uploader_id", int),
    ("head x", float),
    ("head y", float),
    ("head w", float),
    ("head h", float),
)


def numeric_field_error(where: str, fields: list[str], spec: Sequence[tuple[str, type]]) -> ValueError:
    """The error for the first field that does not parse or is not finite.

    ``spec`` gives each leading field's (name, int or float). Readers call
    it once their fast parse has failed; the message names ``where``
    (``path:line``), the field and the value.
    """
    for (name, kind), text in zip(spec, fields):
        try:
            value = kind(text)
            if kind is int or math.isfinite(value):
                continue
        except ValueError:
            pass
        expected = "an integer" if kind is int else "a finite number"
        return ValueError(f"{where}: {name} must be {expected}, got {text!r}")
    raise AssertionError("every numeric field parsed")


def load_index(path: str | Path) -> Dataset:
    """Load and validate a dataset index.

    Rejects malformed lines, non-numeric or non-finite numeric fields,
    degenerate head boxes, duplicate instance ids and duplicate head boxes
    within one photo, each named by ``path:line``; then identities appearing
    in more than one of {train, val, test}, and uploaders whose instances
    span splits.
    Identity ids are re-indexed densely per split (labels sorted); the
    original string labels are kept on each instance and in a side map.
    """
    raw: list[tuple[int, int, int, int, BBox, str, str]] = []
    seen_ids: set[int] = set()
    seen_heads: set[tuple[int, float, float, float, float]] = set()
    label_splits: dict[str, set[str]] = {}
    uploader_splits: dict[int, set[str]] = {}

    for where, parts in read_tsv_rows(path, 10):
        try:
            iid, pid, aid, uid = (int(parts[i]) for i in range(4))
            head = BBox(float(parts[4]), float(parts[5]), float(parts[6]), float(parts[7]))
        except ValueError:
            raise numeric_field_error(where, parts, _INDEX_NUMERIC_FIELDS) from None
        if not all(map(math.isfinite, (head.x, head.y, head.w, head.h))):
            raise numeric_field_error(where, parts, _INDEX_NUMERIC_FIELDS)
        try:
            head.require_valid()
        except GeometryError as exc:
            raise ValueError(f"{where}: {exc}") from None
        label, split = parts[8], parts[9]
        if split not in SPLITS:
            raise ValueError(f"{where}: unknown split {split!r}")
        if iid in seen_ids:
            raise ValueError(f"{where}: duplicate instance id {iid}")
        seen_ids.add(iid)
        head_key = (pid, head.x, head.y, head.w, head.h)
        if head_key in seen_heads:
            raise ValueError(f"{where}: duplicate head box in photo {pid}")
        seen_heads.add(head_key)
        label_splits.setdefault(label, set()).add(split)
        uploader_splits.setdefault(uid, set()).add(split)
        raw.append((iid, pid, aid, uid, head, label, split))

    for label, splits in label_splits.items():
        eval_splits = splits & {"train", "val", "test"}
        if len(eval_splits) > 1:
            raise ValueError(f"identity {label!r} appears in multiple splits: {sorted(eval_splits)}")
    for uid, splits in uploader_splits.items():
        if len(splits) > 1:
            raise ValueError(f"uploader {uid} spans splits {sorted(splits)}")

    label_maps: dict[str, dict[str, int]] = {}
    identity_labels: dict[str, tuple[str, ...]] = {}
    for split in SPLITS:
        labels = sorted({r[5] for r in raw if r[6] == split})
        if labels:
            label_maps[split] = {lab: i for i, lab in enumerate(labels)}
            identity_labels[split] = tuple(labels)

    instances = [
        Instance(iid, pid, aid, uid, head, label_maps[split][label], split, label)
        for iid, pid, aid, uid, head, label, split in raw
    ]
    instances.sort(key=lambda inst: inst.instance_id)
    return Dataset(instances, identity_labels)


def l2_normalize_rows(X: np.ndarray) -> np.ndarray:
    """L2-normalize rows; all-zero rows are left unchanged."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return X / norms


@dataclass
class FeatureMatrix:
    """Dense feature rows for one part, keyed by instance id.

    Rows exist only for instances on which the part activated; the global
    part carries a row for every instance. ``instance_ids`` is kept strictly
    increasing so lookups are binary searches.
    """

    part_id: int
    instance_ids: np.ndarray  # (n,) int64, strictly increasing
    X: np.ndarray  # (n, d) float64
    normalized: bool = False

    def __post_init__(self) -> None:
        self.instance_ids = np.asarray(self.instance_ids, dtype=np.int64)
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] != self.instance_ids.shape[0]:
            raise ValueError("instance_ids and X row counts differ")
        order = np.argsort(self.instance_ids, kind="stable")
        if not np.array_equal(order, np.arange(order.size)):
            self.instance_ids = self.instance_ids[order]
            self.X = self.X[order]
        if self.instance_ids.size and np.any(np.diff(self.instance_ids) == 0):
            raise ValueError(f"duplicate instance ids in part {self.part_id} features")
        if not np.all(np.isfinite(self.X)):
            raise ValueError(f"non-finite feature values in part {self.part_id}")

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.instance_ids.shape[0]

    def contains(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask of which of `ids` have a feature row."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.instance_ids, ids)
        pos = np.clip(pos, 0, max(len(self) - 1, 0))
        if len(self) == 0:
            return np.zeros(ids.shape, dtype=bool)
        return self.instance_ids[pos] == ids

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Feature rows for `ids`; every id must be present."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.instance_ids, ids)
        if np.any(pos >= len(self)) or not np.array_equal(self.instance_ids[np.minimum(pos, len(self) - 1)], ids):
            missing = ids[~self.contains(ids)]
            raise KeyError(f"part {self.part_id}: no feature row for instances {missing[:5].tolist()}")
        return self.X[pos]

    def row(self, instance_id: int) -> np.ndarray:
        return self.rows(np.asarray([instance_id]))[0]

    def normalized_copy(self) -> "FeatureMatrix":
        if self.normalized:
            return self
        return FeatureMatrix(self.part_id, self.instance_ids, l2_normalize_rows(self.X), normalized=True)


def write_features(path: str | Path, fm: FeatureMatrix) -> None:
    n, d = fm.X.shape
    header = _FEATURE_MAGIC + struct.pack("<III B", fm.part_id, d, n, 1 if fm.normalized else 0)
    rec = np.dtype([("id", "<u8"), ("x", "<f4", (d,))])
    body = np.empty(n, dtype=rec)
    body["id"] = fm.instance_ids.astype(np.uint64)
    body["x"] = fm.X.astype(np.float32)
    atomic_write_bytes(path, header + body.tobytes())


def read_features(path: str | Path, normalize: bool = True) -> FeatureMatrix:
    """Read a feature file; by default rows are L2-normalized at ingestion."""
    buf = Path(path).read_bytes()
    if buf[:4] != _FEATURE_MAGIC:
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    require_header(path, buf, _FEATURE_HEADER_BYTES)
    part_id, d, n, flag = struct.unpack("<III B", buf[4:_FEATURE_HEADER_BYTES])
    rec = np.dtype([("id", "<u8"), ("x", "<f4", (d,))])
    body = np.frombuffer(buf[_FEATURE_HEADER_BYTES:], dtype=rec)
    if body.shape[0] != n:
        raise ValueError(f"{path}: expected {n} records, found {body.shape[0]}")
    fm = FeatureMatrix(
        part_id,
        body["id"].astype(np.int64),
        body["x"].astype(np.float64),
        normalized=bool(flag),
    )
    if normalize:
        fm = fm.normalized_copy()
    return fm


def build_coverage(
    features: dict[int, FeatureMatrix],
    labels_of: dict[int, int],
    train_ids: np.ndarray,
) -> dict[int, np.ndarray]:
    """Identity coverage per part: identities with at least one training activation.

    The global part covers every identity present in `train_ids`.
    """
    train_ids = np.asarray(train_ids, dtype=np.int64)
    coverage: dict[int, np.ndarray] = {}
    for part_id, fm in features.items():
        present = fm.contains(train_ids)
        ids = train_ids[present]
        cov = np.unique(np.asarray([labels_of[i] for i in ids.tolist()], dtype=np.int64))
        coverage[part_id] = cov
    return coverage
