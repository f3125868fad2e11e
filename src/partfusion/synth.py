"""Deterministic synthetic benchmark standing in for externally computed features.

The generative model is prototype-plus-noise: each (part, identity) pair gets
a Gaussian prototype, and an activated part observes the prototype plus
isotropic Gaussian noise. Whether a part activates on an instance depends
only on the instance's latent pose state (and a coin flip), never on its
identity, so the activation pattern is statistically independent of identity
by construction. The global part activates on every instance; the face part
activates at a fixed rate regardless of pose.

A fixed seed makes every derived quantity reproducible, and the writer emits
byte-identical files on reruns.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    FeatureMatrix,
    GLOBAL_PART_ID,
    SPLITS,
    PartRegistry,
    dataset_from_records,
    l2_normalize_rows,
    make_registry,
    write_features,
    write_index,
    write_registry,
)
from .geometry import BBox, body_from_head
from .matching import Detection, write_detections

__all__ = [
    "SynthConfig",
    "SynthData",
    "generate",
    "planted_config",
    "write_synth",
]

# The noise and activation model when `SynthConfig.noise_sigma` or
# `activation_prob` is None: per-kind sigmas, the range each (poselet, pose)
# activation rate is drawn from, and the face's pose-independent rate.
_GLOBAL_SIGMA, _POSELET_SIGMA, _FACE_SIGMA = 1.3, 0.8, 0.5
_POSELET_ACTIVATION = (0.05, 0.6)
_FACE_ACTIVATION = 0.52


def _is_numbers(value, depth: int) -> bool:
    """Whether ``value`` is a number (not a boolean), or a list or tuple of them nested ``depth`` deep."""
    if depth == 0:
        return isinstance(value, Real) and not isinstance(value, bool)
    return isinstance(value, (list, tuple)) and all(_is_numbers(v, depth - 1) for v in value)


@dataclass(frozen=True)
class SynthConfig:
    """Benchmark shape and noise model.

    ``n_identities`` applies to each split in ``splits`` separately, so the
    default emits disjoint validation and test identity sets of 40 each.
    Per-part sequences run in part_id order (global, poselets..., face);
    scalars broadcast. ``activation_prob`` of None draws each (poselet, pose)
    rate uniformly from [0.05, 0.6] under the seed and activates the face at
    0.52; ``noise_sigma`` of None gives the global part 1.3, each poselet 0.8
    and the face 0.5.
    """

    n_identities: int = 40
    instances_min: int = 20
    instances_max: int = 20
    n_poselets: int = 8
    include_face: bool = True
    feature_dim: int = 32
    pose_states: int = 4
    activation_prob: float | tuple[tuple[float, ...], ...] | None = None
    informativeness: float | tuple[float, ...] = 1.0
    noise_sigma: float | tuple[float, ...] | None = None
    detection_miss: float = 0.05
    n_uploaders: int = 10
    splits: tuple[str, ...] = ("val", "test")
    seed: int = 42

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
            if f.type == "float" and not _is_numbers(value, 0):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        if (
            isinstance(self.splits, str)
            or not self.splits
            or not all(split in SPLITS for split in self.splits)
            or len(set(self.splits)) != len(self.splits)
        ):
            raise ValueError(f"splits must be distinct names from {list(SPLITS)}, got {self.splits!r}")
        if self.n_uploaders < 1:
            raise ValueError("n_uploaders must be at least 1")
        if self.n_identities < 2:
            raise ValueError("need at least 2 identities per split")
        if self.instances_min < 2:
            raise ValueError("every identity needs at least 2 instances")
        if self.instances_max < self.instances_min:
            raise ValueError("instances_max below instances_min")
        if self.feature_dim < 1 or self.pose_states < 1 or self.n_poselets < 1:
            raise ValueError("dimensions and counts must be at least 1")
        if not (0.0 <= self.detection_miss <= 1.0):
            raise ValueError(f"detection_miss must lie in [0, 1], got {self.detection_miss!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        sigma = self.sigma_vector()
        if not np.all(np.isfinite(sigma) & (sigma >= 0.0)):
            raise ValueError("noise sigmas must be finite and non-negative")
        if not np.all(np.isfinite(self.informativeness_vector())):
            raise ValueError("informativeness must be finite")
        self.activation_matrix()  # rejects a misshapen or out-of-range activation_prob

    @property
    def n_parts(self) -> int:
        return 1 + self.n_poselets + (1 if self.include_face else 0)

    def registry(self) -> PartRegistry:
        return make_registry(self.n_poselets, self.include_face)

    def _per_part(self, value: float | tuple[float, ...], name: str) -> np.ndarray:
        if _is_numbers(value, 0):
            return np.full(self.n_parts, float(value))
        if not _is_numbers(value, 1):
            raise ValueError(f"{name} must be a number or a list of numbers, one per part, got {value!r}")
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != (self.n_parts,):
            raise ValueError(f"{name} must have one entry per part ({self.n_parts})")
        return arr

    def sigma_vector(self) -> np.ndarray:
        if self.noise_sigma is not None:
            return self._per_part(self.noise_sigma, "noise_sigma")
        sig = np.full(self.n_parts, _POSELET_SIGMA)
        sig[GLOBAL_PART_ID] = _GLOBAL_SIGMA
        if self.include_face:
            sig[-1] = _FACE_SIGMA
        return sig

    def informativeness_vector(self) -> np.ndarray:
        return self._per_part(self.informativeness, "informativeness")

    def activation_matrix(self) -> np.ndarray:
        """Per (part, pose) activation probability; global row is all ones."""
        A = np.empty((self.n_parts, self.pose_states))
        A[GLOBAL_PART_ID] = 1.0
        if self.activation_prob is None:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
            A[1 : 1 + self.n_poselets] = rng.uniform(*_POSELET_ACTIVATION, (self.n_poselets, self.pose_states))
            if self.include_face:
                A[-1] = _FACE_ACTIVATION
        elif _is_numbers(self.activation_prob, 0):
            A[1:] = float(self.activation_prob)
        elif not _is_numbers(self.activation_prob, 2):
            raise ValueError(f"activation_prob must be a number or a matrix of numbers, got {self.activation_prob!r}")
        else:
            rows = self.activation_prob
            if len(rows) != self.n_parts or any(len(row) != self.pose_states for row in rows):
                raise ValueError("activation_prob matrix must be (n_parts, pose_states)")
            A = np.array(rows, dtype=np.float64)
            A[GLOBAL_PART_ID] = 1.0
        if not np.all((A >= 0.0) & (A <= 1.0)):
            raise ValueError("activation probabilities must lie in [0, 1]")
        return A


def planted_config(informative_part: int, seed: int, **overrides) -> SynthConfig:
    """Config where exactly one part is informative and the rest are pure noise."""
    base = SynthConfig(seed=seed)
    n_parts = base.n_parts
    if not (0 <= informative_part < n_parts):
        raise ValueError("informative_part out of range")
    info = tuple(1.0 if i == informative_part else 0.0 for i in range(n_parts))
    defaults = dict(
        informativeness=info,
        noise_sigma=0.6,
        activation_prob=0.7,
        n_identities=16,
        instances_min=12,
        instances_max=12,
        splits=("val",),
    )
    defaults.update(overrides)
    return replace(base, **defaults)


@dataclass
class SynthData:
    """Everything the generator produced, in memory."""

    config: SynthConfig
    registry: PartRegistry
    records: list[tuple]  # write_index records
    dataset: Dataset
    features: dict[int, FeatureMatrix]
    detections: dict[int, list[Detection]]
    poses: dict[int, int]  # instance_id -> pose state
    activation_prob: np.ndarray


def _label(split: str, idx: int) -> str:
    return f"{split}_{idx:04d}"


class _Doubles:
    """``n`` doubles drawn at once from a generator, handed out in draw order.

    ``random()`` and ``uniform(lo, hi)`` return what the generator's own
    one-value calls would have returned at that point of its stream: numpy
    draws ``uniform`` as ``lo + (hi - lo) * u`` from one double ``u``.
    """

    def __init__(self, rng: np.random.Generator, n: int) -> None:
        self._next = iter(rng.random(n).tolist()).__next__

    def random(self) -> float:
        return self._next()

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._next()


def generate(cfg: SynthConfig) -> SynthData:
    """Draw the benchmark; everything follows from ``cfg``, seed included.

    Each split has one generator per stream: counts, poses, activation
    coins, photos (group sizes and head boxes), detections, prototypes, and
    each part's noise. Instances are numbered identity by identity, and the
    per-instance streams (poses, coins, each part's noise over the instances
    it activates on) are drawn as whole arrays in that order. The detection
    stream is drawn ahead as one array of doubles, and each photo's head
    boxes as one array after its group size, so every generator yields the
    values that one draw per instance, part and coordinate would.

    The draw builds hundreds of thousands of boxes, detections and records,
    which Python's cyclic garbage collector would scan again and again as
    they accumulate. So the collector is paused while the draw runs and is
    then left as the caller had it; reference counting still frees what the
    draw drops.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _draw(cfg)
    finally:
        if collecting:
            gc.enable()


def _draw(cfg: SynthConfig) -> SynthData:
    """`generate`'s draw, run with the garbage collector paused."""
    registry = cfg.registry()
    sigma = cfg.sigma_vector()
    info = cfg.informativeness_vector()
    act_prob = cfg.activation_matrix()
    n_parts, d = cfg.n_parts, cfg.feature_dim

    records: list[tuple] = []
    poses: dict[int, int] = {}
    feat_ids: dict[int, list[np.ndarray]] = {p: [] for p in range(n_parts)}
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
        ident = np.repeat(np.arange(cfg.n_identities), counts)  # row r is instance first_iid + r
        n = ident.size
        first_iid = next_instance
        next_instance += n
        iids = np.arange(first_iid, next_instance, dtype=np.int64)
        pose = rng_pose.integers(cfg.pose_states, size=n)
        poses.update(zip(iids.tolist(), pose.tolist()))
        active = rng_act.random((n, n_parts)) < act_prob[:, pose].T
        active[:, GLOBAL_PART_ID] = True
        for p in range(n_parts):
            rows = np.flatnonzero(active[:, p])
            feat_ids[p].append(iids[rows])
            feat_rows[p].append(protos[p][ident[rows]] + rng_noise[p].normal(0.0, sigma[p], (rows.size, d)))
        labels = [_label(split, i) for i in range(cfg.n_identities)]
        split_instances = [(iid, i, labels[i]) for iid, i in zip(iids.tolist(), ident.tolist())]
        # a detection takes a miss coin, then two jitters, a score per active
        # non-global part and its own score
        det = _Doubles(rng_det, 4 * n + int(active[:, 1:].sum()))

        # uploaders round-robin over the instance stream; photos group 1-3
        # same-uploader instances, never repeating an identity inside a photo
        uploader_base = split_idx * cfg.n_uploaders
        by_uploader: dict[int, list[tuple[int, int, str]]] = {}
        for pos, item in enumerate(split_instances):
            by_uploader.setdefault(uploader_base + (pos % cfg.n_uploaders), []).append(item)

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
                box = _Doubles(rng_photo, 4 * len(group))
                dets: list[Detection] = []
                for slot, (iid, _ident, label) in enumerate(group):
                    w = box.uniform(18.0, 30.0)
                    h = w * box.uniform(0.9, 1.2)
                    x = 10.0 + 70.0 * slot + box.uniform(-5.0, 5.0)
                    y = 15.0 + box.uniform(-5.0, 5.0)
                    head = BBox(x, y, w, h)
                    records.append((iid, photo_id, album_id, uid, head, label, split))
                    if det.random() < cfg.detection_miss:
                        continue
                    body = body_from_head(head)
                    jx = det.uniform(-0.05, 0.05) * body.w
                    jy = det.uniform(-0.05, 0.05) * body.h
                    person = BBox(body.x + jx, body.y + jy, body.w, body.h)
                    acts = []
                    row = active[iid - first_iid].tolist()
                    for p in range(1, n_parts):
                        if row[p]:
                            patch = BBox(
                                person.x + (p % 3) * person.w / 3.0,
                                person.y + (p // 3) * person.h / 4.0,
                                person.w / 3.0,
                                person.h / 4.0,
                            )
                            acts.append((p, patch, det.uniform(0.5, 1.0)))
                    dets.append(
                        Detection(
                            next_detection,
                            person,
                            det.uniform(0.5, 1.0),
                            tuple(acts),
                        )
                    )
                    next_detection += 1
                if dets:
                    detections[photo_id] = dets

    features = {
        p: FeatureMatrix(p, np.concatenate(feat_ids[p]), l2_normalize_rows(np.concatenate(feat_rows[p])), True)
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


def write_synth(data: SynthData, out_dir: str | Path) -> list[Path]:
    """Write the benchmark to disk in the library's file formats.

    Emits index.tsv, detections.tsv, and under features/ one feature file
    per part and the parts file that declares their kinds. Returns the
    written paths (sorted).
    """
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []

    index_path = out / "index.tsv"
    write_index(index_path, data.records)
    paths.append(index_path)

    det_path = out / "detections.tsv"
    write_detections(det_path, data.detections)
    paths.append(det_path)

    for pid in sorted(data.features):
        p = out / "features" / f"part_{pid:03d}.pfv"
        write_features(p, data.features[pid])
        paths.append(p)

    registry_path = out / "features" / "parts.tsv"
    write_registry(registry_path, data.registry)
    paths.append(registry_path)

    return sorted(paths)


def config_from_json(path: str | Path) -> SynthConfig:
    """Load a SynthConfig from a JSON object file; absent keys keep defaults.

    Every error, malformed JSON and invalid values included, starts with the path.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    kwargs = {}
    valid = {f.name for f in SynthConfig.__dataclass_fields__.values()}
    for key, value in raw.items():
        if key not in valid:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    try:
        return SynthConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
