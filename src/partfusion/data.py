"""Dataset index, part registry, and per-part feature storage.

File formats owned here:

* dataset index: one instance per line, tab-separated, no header, UTF-8;
  fields: instance_id, photo_id, album_id, uploader_id, head x, y, w, h
  (decimal), identity label (string), split name.
* binary files (`RecordFormat`), little-endian: a magic, u32 part_id, width
  and n, then n records, each ending in ``width`` IEEE-754 float32 values.
  Feature file: ``PFV1``, the header ends in a normalization flag (u8), and
  a record is (instance_id u64, d float32). Probability table (`fusion`):
  ``PPT1``, and a record is (instance_id u64, activation flag u8, |Y| float32).
* parts file (``parts.tsv``, beside a directory's feature files): one part
  per line, in part order, tab-separated, no header, UTF-8; fields:
  part_id, name, kind (``global`` for part 0, then ``poselet`` or ``face``).
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

import numpy as np

from .geometry import BBox, GeometryError

__all__ = [
    "Dataset",
    "FeatureMatrix",
    "Instance",
    "PartInfo",
    "PartRegistry",
    "l2_normalize_rows",
    "load_index",
    "make_registry",
    "read_features",
    "read_registry",
    "write_features",
    "write_index",
    "write_registry",
]


def atomic_write_bytes(path: str | Path, *chunks: bytes | np.ndarray) -> None:
    """Write the buffers in order via a temp file and rename, so readers never see partial files.

    A chunk is any contiguous buffer (``bytes``, a numpy array), written as
    it is, with no joined copy.

    An existing target is unlinked before the rename: renaming over an
    existing file makes some filesystems (ext4's ``auto_da_alloc``) flush the
    new file first, which made reruns into an existing directory stall.
    Readers may therefore briefly see no file, but never a partial one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
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
# Each component a mask may name and the part kind it selects, in the order
# the ablation reports them; a mask is "all" or a comma list of these.
COMPONENT_KINDS = {"global": "global", "poselets": "poselet", "face": "face"}
_T = TypeVar("_T")


@dataclass(frozen=True)
class RecordFormat:
    """A binary file: a 4-byte ``magic``, a ``header`` opening with part_id, width and n, then n records."""

    magic: bytes
    header: struct.Struct
    fields: tuple[tuple[str, str], ...]  # each record's (name, type); the last one repeats width times

    def record(self, width: int) -> np.dtype:
        *fixed, (name, kind) = self.fields
        return np.dtype([*fixed, (name, kind, (width,))])


FEATURE_FILE = RecordFormat(b"PFV1", struct.Struct("<IIIB"), (("id", "<u8"), ("x", "<f4")))
TABLE_FILE = RecordFormat(b"PPT1", struct.Struct("<III"), (("id", "<u8"), ("act", "u1"), ("p", "<f4")))


def read_records(path: str | Path, fmt: RecordFormat, build: Callable[[tuple, np.ndarray], _T]) -> _T:
    """``build(header, records)`` of a ``fmt`` file, the records a read-only view of its bytes.

    Checks, in order: the magic, the header's length, the record size the
    header implies (below 2^31 bytes, before numpy builds the record type),
    and the body's n whole records. Each failure, and a ValueError from
    ``build``, names ``path``.
    """
    buf, start = Path(path).read_bytes(), 4 + fmt.header.size
    if buf[:4] != fmt.magic:
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    if len(buf) < start:
        raise ValueError(f"{path}: truncated header: {len(buf)} bytes, the header needs {start}")
    header = fmt.header.unpack_from(buf, 4)
    size = fmt.record(0).itemsize + np.dtype(fmt.fields[-1][1]).itemsize * header[1]
    if size >= 2**31:
        raise ValueError(f"{path}: width {header[1]} makes {size}-byte records, not below 2^31 bytes")
    body = len(buf) - start
    if body % size:
        raise ValueError(f"{path}: truncated body: {body} bytes is not a whole number of {size}-byte records")
    if body // size != header[2]:
        raise ValueError(f"{path}: expected {header[2]} records, found {body // size}")
    try:
        return build(header, np.frombuffer(buf, dtype=fmt.record(header[1]), offset=start))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_records(path: str | Path, fmt: RecordFormat, header: tuple, *columns: np.ndarray) -> None:
    """Write a ``fmt`` file: ``header``, then its n records, one field per column, cast once into one array."""
    body = np.empty(header[2], dtype=fmt.record(header[1]))
    for name, column in zip(body.dtype.names, columns):
        body[name] = column
    atomic_write_bytes(path, fmt.magic, fmt.header.pack(*header), body)


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
            if "\t" in p.name or "".join(p.name.splitlines()) != p.name:
                raise ValueError(f"part {i}: name {p.name!r} holds a tab or a line break")
        if self.parts[0].kind != "global":
            raise ValueError("part 0 must be the global part")
        for p in self.parts[1:]:
            if p.kind not in ("poselet", "face"):
                raise ValueError(f"unknown part kind: {p.kind}")

    @property
    def part_ids(self) -> tuple[int, ...]:
        return tuple(p.part_id for p in self.parts)

    def ids_of_kind(self, kind: str) -> tuple[int, ...]:
        return tuple(p.part_id for p in self.parts if p.kind == kind)

    def resolve_mask(self, mask: str | None) -> tuple[int, ...]:
        """Turn a component mask like ``"global,poselets"`` into part ids.

        Components are the names of `COMPONENT_KINDS`, or the whole mask is
        ``all``/``None`` for every part.
        """
        if mask is None or mask == "all":
            return self.part_ids
        ids: list[int] = []
        for name in (component.strip() for component in mask.split(",")):
            if name not in COMPONENT_KINDS:
                raise ValueError(f"unknown mask component: {name!r}")
            ids.extend(self.ids_of_kind(COMPONENT_KINDS[name]))
        if not ids:
            raise ValueError("component mask selects no parts")
        return tuple(sorted(set(ids)))


def make_registry(n_poselets: int, include_face: bool = True) -> PartRegistry:
    parts = [PartInfo(0, "global", "global")]
    parts += [PartInfo(i + 1, f"poselet_{i:03d}", "poselet") for i in range(n_poselets)]
    if include_face:
        parts.append(PartInfo(n_poselets + 1, "face", "face"))
    return PartRegistry(tuple(parts))


def write_registry(path: str | Path, registry: PartRegistry) -> None:
    """Write the parts file: one ``part_id<TAB>name<TAB>kind`` line per part, in part order."""
    atomic_write_text(path, "".join(f"{p.part_id}\t{p.name}\t{p.kind}\n" for p in registry.parts))


def read_registry(path: str | Path) -> PartRegistry:
    """Read a parts file; a malformed line fails with ``path:line``, a registry `PartRegistry` rejects with ``path``."""
    parts = []
    for where, (part_id, name, kind) in read_tsv_rows(path, 3):
        try:
            parts.append(PartInfo(int(part_id), name, kind))
        except ValueError:
            raise ValueError(f"{where}: part_id must be an integer, got {part_id!r}") from None
    try:
        return PartRegistry(tuple(parts))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class Dataset:
    """Loaded dataset index with per-split dense identity ids."""

    instances: list[Instance]

    def split_instances(self, split: str) -> list[Instance]:
        return [inst for inst in self.instances if inst.split == split]


def dataset_from_records(records: list[tuple[int, int, int, int, BBox, str, str]]) -> Dataset:
    """The Dataset of raw index records (see `write_index`), sorted by instance id.

    Identity ids are re-indexed densely per split, in sorted label order;
    the original string label is kept on each instance.
    """
    labels_of: dict[str, set[str]] = {}
    for record in records:
        labels_of.setdefault(record[6], set()).add(record[5])
    label_maps = {split: {lab: i for i, lab in enumerate(sorted(labels))} for split, labels in labels_of.items()}
    instances = [
        Instance(iid, pid, aid, uid, head, label_maps[split][label], split, label)
        for iid, pid, aid, uid, head, label, split in records
    ]
    instances.sort(key=lambda inst: inst.instance_id)
    return Dataset(instances)


def format_num(v: float) -> str:
    # integral values print without a trailing .0 so ids stay readable
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_index(path: str | Path, records: list[tuple[int, int, int, int, BBox, str, str]]) -> None:
    """Write raw index records: (instance_id, photo_id, album_id, uploader_id, head, label, split).

    A label holding a tab or a line break (any that `str.splitlines` splits
    at, U+2028 included) is rejected, naming its record, since `load_index`
    could not read the line back; nothing is written then.
    """
    lines = []
    for k, (iid, pid, aid, uid, head, label, split) in enumerate(records):
        if "\t" in label or "".join(label.splitlines()) != label:
            raise ValueError(f"{path}: record {k} (instance {iid}): label {label!r} holds a tab or a line break")
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
    span splits. The records then become a Dataset by
    `dataset_from_records`.
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
            raise ValueError(f"{path}: identity {label!r} appears in multiple splits: {sorted(eval_splits)}")
    for uid, splits in uploader_splits.items():
        if len(splits) > 1:
            raise ValueError(f"{path}: uploader {uid} spans splits {sorted(splits)}")
    return dataset_from_records(raw)


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
    increasing so lookups are binary searches. Rows are held as float32, the
    precision a feature file stores, whatever the input's precision, and
    `rows` widens only the rows it gathers.
    """

    part_id: int
    instance_ids: np.ndarray  # (n,) int64, strictly increasing
    X: np.ndarray  # (n, d) float32
    normalized: bool = False

    def __post_init__(self) -> None:
        self.instance_ids = np.asarray(self.instance_ids, dtype=np.int64)
        self.X = np.asarray(self.X, dtype=np.float32)
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
        """float64 feature rows for `ids`; every id must be present."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.instance_ids, ids)
        if np.any(pos >= len(self)) or not np.array_equal(self.instance_ids[np.minimum(pos, len(self) - 1)], ids):
            missing = ids[~self.contains(ids)]
            raise KeyError(f"part {self.part_id}: no feature row for instances {missing[:5].tolist()}")
        return self.X[pos].astype(np.float64, copy=False)

    def normalized_copy(self) -> "FeatureMatrix":
        """The rows L2-normalized in float64, then stored as float32; normalized rows pass through."""
        if self.normalized:
            return self
        return FeatureMatrix(self.part_id, self.instance_ids, l2_normalize_rows(self.X.astype(np.float64)), True)


def write_features(path: str | Path, fm: FeatureMatrix) -> None:
    write_records(path, FEATURE_FILE, (fm.part_id, fm.dim, len(fm), fm.normalized), fm.instance_ids, fm.X)


def read_features(path: str | Path) -> FeatureMatrix:
    """Read a feature file as stored, with its normalization flag; ``X`` is a read-only view of its records.

    A broken `FeatureMatrix` rule names ``path``.
    """
    return read_records(path, FEATURE_FILE, lambda h, rec: FeatureMatrix(h[0], rec["id"], rec["x"], bool(h[3])))
