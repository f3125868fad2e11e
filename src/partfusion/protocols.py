"""Evaluation protocols: half-split recognition, ablations, one-shot, retrieval.

Every protocol is one choice of training and evaluation ids around a single
core: `_train_part_models` fits one multiclass SVM per part, and
`_score_fold` sparsity-fills the part predictions against the global model,
fuses them with the mixing weights and scores the argmax. Recognition
splits a set into two stratified halves (`HalfModels`), trains on each and
scores the other, and averages the two accuracies; ``fill=False`` scores
the raw part predictions instead. The ablation trains each (half, part)
model once and scores every component mask from it. One-shot repeats the
core on sampled training sets, retrieval trains once on a reference split
and embeds with the fused scores, and `half_split_training` keeps the
filled per-part tables that weight learning reads.

Reports serialize as a flat key-value text file (``key<TAB>value`` lines)
plus, for protocols with a curve, a CSV with header ``x,mean,sigma``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    FeatureMatrix,
    GLOBAL_PART_ID,
    Instance,
    PartRegistry,
    atomic_write_text,
)
from .fusion import (
    FusionWeights,
    ProbabilityTable,
    WeightLearningInfo,
    fill_sparsity_rows,
    fuse_matrix,
    learn_weights,
)
from .svm import LinearModel, TrainConfig, mix_seed, softmax, train_multiclass
from .workers import _forked_map

__all__ = [
    "DEFAULT_TRAIN_CFG",
    "EvalReport",
    "HalfModels",
    "HalfSplit",
    "ReferenceModels",
    "build_identity_embedding",
    "curve_csv",
    "eval_ablation",
    "eval_faces_split",
    "eval_oneshot",
    "eval_recognition",
    "eval_retrieval",
    "half_split_training",
    "learn_fusion_weights",
    "report_text",
    "run_retrieval_protocol",
    "stratified_half_split",
    "train_reference_models",
    "write_report",
]

DEFAULT_TRAIN_CFG = TrainConfig(C=10.0, epochs=30)


@dataclass(frozen=True)
class HalfSplit:
    """Stratified two-way split of an evaluation set.

    Every identity with >= 2 instances lands in both halves; smaller
    identities are excluded and listed.
    """

    assignment: dict[int, int]  # instance_id -> 0 or 1
    seed: int
    excluded_identities: tuple[int, ...]


def stratified_half_split(instances: list[Instance], seed: int) -> HalfSplit:
    by_identity: dict[int, list[int]] = {}
    for inst in instances:
        by_identity.setdefault(inst.identity, []).append(inst.instance_id)
    assignment: dict[int, int] = {}
    excluded: list[int] = []
    for ident in sorted(by_identity):
        ids = sorted(by_identity[ident])
        if len(ids) < 2:
            excluded.append(ident)
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, ident]))
        for pos, idx in enumerate(rng.permutation(len(ids))):
            assignment[ids[idx]] = pos % 2
    return HalfSplit(assignment, seed, tuple(excluded))


@dataclass
class EvalReport:
    """Outcome of one protocol run; accuracy-style or curve-style."""

    protocol: str
    component_mask: str
    seed: int
    n_train: int
    n_test: int
    n_identities: int
    accuracy: float | None = None
    half_accuracies: tuple[float, float] | None = None
    curve: tuple[tuple[float, float, float], ...] | None = None  # (x, mean, sigma)
    excluded_identities: int = 0
    excluded_instances: int = 0
    flags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.accuracy is not None and not (0.0 <= self.accuracy <= 1.0):
            raise ValueError("accuracy must lie in [0, 1]")


def report_text(report: EvalReport) -> str:
    lines = [
        f"protocol\t{report.protocol}",
        f"component_mask\t{report.component_mask}",
        f"seed\t{report.seed}",
        f"n_train\t{report.n_train}",
        f"n_test\t{report.n_test}",
        f"n_identities\t{report.n_identities}",
    ]
    if report.accuracy is not None:
        lines.append(f"accuracy\t{report.accuracy!r}")
    if report.half_accuracies is not None:
        lines.append(f"half_accuracy_0\t{report.half_accuracies[0]!r}")
        lines.append(f"half_accuracy_1\t{report.half_accuracies[1]!r}")
    lines.append(f"excluded_identities\t{report.excluded_identities}")
    lines.append(f"excluded_instances\t{report.excluded_instances}")
    for key in sorted(report.flags):
        lines.append(f"{key}\t{report.flags[key]}")
    return "\n".join(lines) + "\n"


def curve_csv(report: EvalReport) -> str:
    if report.curve is None:
        raise ValueError("report has no curve")
    lines = ["x,mean,sigma"]
    for x, mean, sigma in report.curve:
        lines.append(f"{x!r},{mean!r},{sigma!r}")
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, text_path: str | Path, csv_path: str | Path | None = None) -> None:
    atomic_write_text(text_path, report_text(report))
    if csv_path is not None and report.curve is not None:
        atomic_write_text(csv_path, curve_csv(report))


def _kept_instances(
    instances: list[Instance], min_per_identity: int
) -> tuple[list[Instance], dict[int, int], int, int]:
    """Drop identities too small for the protocol; relabel the rest densely.

    Returns (kept instances, split-identity -> local id, excluded identity
    count, excluded instance count).
    """
    counts = Counter(inst.identity for inst in instances)
    keep = sorted(ident for ident, c in counts.items() if c >= min_per_identity)
    local_of = {ident: k for k, ident in enumerate(keep)}
    kept = [inst for inst in instances if inst.identity in local_of]
    return kept, local_of, len(counts) - len(keep), len(instances) - len(kept)


def _normalized(features: dict[int, FeatureMatrix]) -> dict[int, FeatureMatrix]:
    return {pid: fm.normalized_copy() for pid, fm in features.items()}


def _train_part_models(
    part_ids: tuple[int, ...],
    features: dict[int, FeatureMatrix],
    train_ids: np.ndarray,
    label_of: dict[int, int],
    cfg: TrainConfig,
    seed_parts: tuple[int, ...],
) -> dict[int, LinearModel | None]:
    """Train one multiclass SVM per part on its activated training rows.

    A part whose training activations cover fewer than 2 identities gets no
    model (treated downstream as never activating). The global part must
    cover every training instance by construction.
    """
    models: dict[int, LinearModel | None] = {}
    for pid in part_ids:
        fm = features[pid]
        present = fm.contains(train_ids)
        ids = train_ids[present]
        if pid == GLOBAL_PART_ID and ids.size != train_ids.size:
            raise ValueError("global part must carry a feature row for every instance")
        labels = np.asarray([label_of[i] for i in ids.tolist()], dtype=np.int64)
        if np.unique(labels).size < 2:
            models[pid] = None
            continue
        part_cfg = replace(cfg, seed=mix_seed(*seed_parts, pid, cfg.seed))
        models[pid] = train_multiclass(fm.rows(ids), labels, part_cfg, row_ids=ids)
    return models


def _part_probabilities(
    models: dict[int, LinearModel | None],
    features: dict[int, FeatureMatrix],
    eval_ids: np.ndarray,
    n_y: int,
    mask_ids: tuple[int, ...],
    fill: bool,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Per-part dense probability matrices over the evaluation rows.

    Returns (matrices keyed by part id, feature-level activation masks).
    With ``fill`` the matrices follow the sparsity-filling rule against the
    global row (uniform when the global part is masked out); without it,
    non-activated rows are all-zero and activated rows carry the raw part
    distribution embedded over the full identity set.
    """
    n_eval = eval_ids.shape[0]
    if GLOBAL_PART_ID in models and models[GLOBAL_PART_ID] is not None:
        global_model = models[GLOBAL_PART_ID]
        P0 = softmax(global_model.scores(features[GLOBAL_PART_ID].rows(eval_ids)))
        # embed in case the training half covered fewer identities than n_y
        if global_model.n_classes != n_y:
            full = np.zeros((n_eval, n_y))
            full[:, global_model.class_index] = P0
            P0 = full
    else:
        P0 = np.full((n_eval, n_y), 1.0 / n_y)

    matrices: dict[int, np.ndarray] = {}
    activations: dict[int, np.ndarray] = {}
    for pid in mask_ids:
        if pid == GLOBAL_PART_ID:
            matrices[pid] = P0.copy()
            activations[pid] = np.ones(n_eval, dtype=bool)
            continue
        fm = features[pid]
        act = fm.contains(eval_ids)
        activations[pid] = act
        model = models.get(pid)
        usable = act if model is not None else np.zeros(n_eval, dtype=bool)
        P_hat = np.zeros((n_eval, n_y))
        if model is not None and np.any(usable):
            probs = softmax(model.scores(fm.rows(eval_ids[usable])))
            P_hat[np.ix_(np.flatnonzero(usable), model.class_index)] = probs
        if fill:
            F_i = model.class_index if model is not None else np.zeros(0, dtype=np.int64)
            matrices[pid] = fill_sparsity_rows(P_hat, P0, F_i, usable)
        else:
            matrices[pid] = P_hat
    return matrices, activations


@dataclass
class HalfModels:
    """Part models trained on each stratified half of one split.

    Part SVMs depend only on the training half, the part and the seed, never
    on the component mask, ``fill`` or the fusion weights, so one training
    pass serves every scoring of the split. `half_split_training` also fills
    ``tables``: each part's filled rows for the whole split, every row from
    the opposite half's model.
    """

    features: dict[int, FeatureMatrix]  # L2-normalized
    halves: HalfSplit
    label_of: dict[int, int]  # instance_id -> local identity
    models: dict[int, dict[int, LinearModel | None]]  # train half -> part -> model
    n_identities: int
    excluded_identities: int
    excluded_instances: int
    tables: dict[int, ProbabilityTable] | None = None

    def eval_ids(self, eval_half: int) -> np.ndarray:
        return np.asarray(
            sorted(i for i, h in self.halves.assignment.items() if h == eval_half), dtype=np.int64
        )


def _split_halves(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    split: str,
    seed: int,
    halves: HalfSplit | None = None,
) -> HalfModels:
    """Normalized features, kept identities and stratified halves of a split; no models yet."""
    kept, local_of, excl_ids, excl_insts = _kept_instances(dataset.split_instances(split), 2)
    if len(local_of) < 2:
        raise ValueError(f"split {split!r} has fewer than 2 usable identities")
    if halves is None:
        halves = stratified_half_split(kept, seed)
    label_of = {
        inst.instance_id: local_of[inst.identity]
        for inst in kept
        if inst.instance_id in halves.assignment
    }
    return HalfModels(_normalized(features), halves, label_of, {}, len(local_of), excl_ids, excl_insts)


def _train_halves(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    split: str,
    seed: int,
    part_ids: tuple[int, ...],
    cfg: TrainConfig,
    halves: HalfSplit | None = None,
) -> HalfModels:
    """Train the given parts' SVMs on each half, seeded per (seed, eval half, part).

    The two halves train on separate workers (see `_forked_map`).
    """
    trained = _split_halves(dataset, features, split, seed, halves)
    train_ids = [trained.eval_ids(1 - eval_half) for eval_half in (0, 1)]

    def train(eval_half: int) -> dict[int, LinearModel | None]:
        return _train_part_models(
            part_ids, trained.features, train_ids[eval_half], trained.label_of, cfg, (seed, eval_half)
        )

    for eval_half, models in enumerate(_forked_map(train, (0, 1), [ids.size for ids in train_ids])):
        trained.models[1 - eval_half] = models
    return trained


def _score_fold(
    models: dict[int, LinearModel | None],
    features: dict[int, FeatureMatrix],
    eval_ids: np.ndarray,
    label_of: dict[int, int],
    n_y: int,
    mask_ids: tuple[int, ...],
    fill: bool,
    fw: FusionWeights,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Fill (or not) and fuse the masked parts; is each row's argmax its identity?

    Returns (per-row correctness, the parts' activation masks).
    """
    matrices, activations = _part_probabilities(models, features, eval_ids, n_y, mask_ids, fill)
    truth = np.asarray([label_of[i] for i in eval_ids.tolist()], dtype=np.int64)
    return np.argmax(fuse_matrix(matrices, fw), axis=1) == truth, activations


def _score_halves(
    trained: HalfModels, mask_ids: tuple[int, ...], fill: bool, fw: FusionWeights
) -> list[tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]]:
    """Score each half with the opposite half's models for the masked parts.

    Returns (eval ids, correctness, activations) per half. Only the masked
    parts' models reach ``_part_probabilities``, so a mask without the
    global part fills from the uniform row.
    """
    folds = []
    for eval_half in (0, 1):
        ids = trained.eval_ids(eval_half)
        models = {pid: trained.models[1 - eval_half][pid] for pid in mask_ids}
        correct, activations = _score_fold(
            models, trained.features, ids, trained.label_of, trained.n_identities, mask_ids, fill, fw
        )
        folds.append((ids, correct, activations))
    return folds


def _report(
    trained: HalfModels, protocol: str, component_mask: str | None, seed: int, n_test: int, **figures
) -> EvalReport:
    return EvalReport(
        protocol=protocol,
        component_mask=component_mask or "all",
        seed=seed,
        n_train=len(trained.label_of),
        n_test=n_test,
        n_identities=trained.n_identities,
        excluded_identities=trained.excluded_identities,
        excluded_instances=trained.excluded_instances,
        **figures,
    )


def _recognition(
    trained: HalfModels, registry: PartRegistry, fw: FusionWeights, component_mask: str | None, seed: int, fill: bool
) -> EvalReport:
    folds = _score_halves(trained, registry.resolve_mask(component_mask), fill, fw)
    accs = [float(np.mean(correct)) for _, correct, _ in folds]
    protocol = "recognition" if fill else "recognition-no-fill"
    return _report(
        trained, protocol, component_mask, seed, len(trained.label_of),
        accuracy=float(np.mean(accs)), half_accuracies=(accs[0], accs[1]),
    )


def eval_recognition(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    fw: FusionWeights,
    split: str = "test",
    seed: int = 0,
    component_mask: str | None = None,
    train_cfg: TrainConfig = DEFAULT_TRAIN_CFG,
    halves: HalfSplit | None = None,
    fill: bool = True,
) -> EvalReport:
    """Half-split recognition accuracy with sparsity filling and fusion.

    ``component_mask`` (e.g. ``"global"`` or ``"global,face"``) restricts the
    fused parts; a masked-out global part is replaced by the uniform
    distribution as the filling source. With ``fill=False`` sparse rows
    contribute zeros and the report's protocol is ``recognition-no-fill``.
    """
    mask_ids = registry.resolve_mask(component_mask)
    trained = _train_halves(dataset, features, split, seed, mask_ids, train_cfg, halves)
    return _recognition(trained, registry, fw, component_mask, seed, fill)


def eval_faces_split(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    fw: FusionWeights,
    split: str = "test",
    seed: int = 0,
    component_mask: str | None = None,
    train_cfg: TrainConfig = DEFAULT_TRAIN_CFG,
    face_mask: dict[int, bool] | None = None,
) -> tuple[EvalReport, EvalReport]:
    """Recognition accuracy restricted to face-activated instances and the rest.

    ``face_mask`` overrides which instances count as face-activated; by
    default an instance does when the face part carries a feature row for it.
    """
    mask_ids = registry.resolve_mask(component_mask)
    trained = _train_halves(dataset, features, split, seed, mask_ids, train_cfg)
    folds = _score_halves(trained, mask_ids, True, fw)
    face_parts = [p for p in registry.ids_of_kind("face") if p in mask_ids]

    def is_face(ids: np.ndarray, activations: dict[int, np.ndarray]) -> np.ndarray:
        if face_mask is not None:
            return np.asarray([bool(face_mask.get(i, False)) for i in ids.tolist()], dtype=bool)
        face = np.zeros(ids.shape[0], dtype=bool)
        for p in face_parts:
            face |= activations[p]
        return face

    correct = np.concatenate([c for _, c, _ in folds])
    face = np.concatenate([is_face(ids, activations) for ids, _, activations in folds])

    def subset_report(name: str, rows: np.ndarray) -> EvalReport:
        if not rows.any():
            return _report(trained, name, component_mask, seed, 0, flags={"empty_subset": "true"})
        return _report(trained, name, component_mask, seed, int(rows.sum()), accuracy=float(np.mean(correct[rows])))

    return subset_report("recognition-faces", face), subset_report("recognition-nonfaces", ~face)


def eval_ablation(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    fw: FusionWeights,
    masks: tuple[str, ...] = ("all", "global", "poselets", "face"),
    split: str = "test",
    seed: int = 0,
    train_cfg: TrainConfig = DEFAULT_TRAIN_CFG,
) -> dict[str, EvalReport]:
    """Recognition accuracy per component mask (plus the no-fill variant).

    Every part is trained once per half; each mask and the no-fill variant
    score those same models, so each report equals its own recognition run.
    """
    trained = _train_halves(dataset, features, split, seed, registry.part_ids, train_cfg)
    out = {mask: _recognition(trained, registry, fw, None if mask == "all" else mask, seed, True) for mask in masks}
    out["no-fill"] = _recognition(trained, registry, fw, None, seed, False)
    return out


def eval_oneshot(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    fw: FusionWeights,
    split: str = "test",
    shots: tuple[int, ...] = (1, 2, 3),
    repeats: int = 10,
    seed: int = 0,
    component_mask: str | None = None,
    train_cfg: TrainConfig = DEFAULT_TRAIN_CFG,
) -> EvalReport:
    """Few-shot recognition: sample `shots` training instances per identity.

    Per repeat, identities with at least shots+1 instances contribute; the
    sampled instances train the part SVMs and the rest are scored. The curve
    holds (shots, mean accuracy, sample sigma) per shot count. Every shot
    count must be at least 1. The (shot count, repeat) runs are independent
    and spread over workers (see `_forked_map`).
    """
    if repeats < 2:
        raise ValueError("need repeats >= 2 to report a sigma")
    if not shots or min(shots) < 1:
        raise ValueError(f"one-shot needs shot counts >= 1, got {list(shots)}")
    mask_ids = registry.resolve_mask(component_mask)
    features = _normalized(features)
    instances = dataset.split_instances(split)

    flags: dict[str, str] = {}
    max_kept = 0
    max_n_y = 0
    pools_of: dict[int, tuple[dict[int, int], np.ndarray, list[np.ndarray]]] = {}
    for s in shots:
        kept, local_of, excl_ids, _ = _kept_instances(instances, s + 1)
        if len(local_of) < 2:
            raise ValueError(f"shot count {s}: fewer than 2 usable identities")
        flags[f"excluded_identities_shot_{s}"] = str(excl_ids)
        max_kept = max(max_kept, len(kept))
        max_n_y = max(max_n_y, len(local_of))
        label_of = {inst.instance_id: local_of[inst.identity] for inst in kept}
        all_ids = np.asarray(sorted(label_of), dtype=np.int64)
        labels = np.asarray([label_of[i] for i in all_ids.tolist()], dtype=np.int64)
        pools_of[s] = (label_of, all_ids, [all_ids[labels == y] for y in range(len(local_of))])

    def accuracy(run: tuple[int, int]) -> float:
        s, r = run
        label_of, all_ids, pools = pools_of[s]
        rng = np.random.default_rng(np.random.SeedSequence([seed, s, r]))
        train_ids = np.sort(np.concatenate([rng.choice(pool, size=s, replace=False) for pool in pools]))
        eval_ids = np.setdiff1d(all_ids, train_ids)
        models = _train_part_models(mask_ids, features, train_ids, label_of, train_cfg, (seed, s, r))
        correct, _ = _score_fold(models, features, eval_ids, label_of, len(pools), mask_ids, True, fw)
        return float(np.mean(correct))

    runs = [(s, r) for s in shots for r in range(repeats)]
    accs = _forked_map(accuracy, runs, [s for s, _ in runs])
    curve = []
    for k, s in enumerate(shots):
        shot_accs = accs[k * repeats : (k + 1) * repeats]
        curve.append((float(s), float(np.mean(shot_accs)), float(np.std(shot_accs, ddof=1))))

    return EvalReport(
        protocol="oneshot",
        component_mask=component_mask or "all",
        seed=seed,
        n_train=int(max(shots)) * max_n_y,
        n_test=max_kept,
        n_identities=max_n_y,
        curve=tuple(curve),
        flags=flags,
    )


@dataclass
class ReferenceModels:
    """Part SVMs trained on half 0 of a reference split, for embeddings."""

    models: dict[int, LinearModel | None]
    n_identities: int
    split: str
    seed: int


def train_reference_models(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    split: str = "val",
    seed: int = 0,
    train_cfg: TrainConfig = DEFAULT_TRAIN_CFG,
) -> ReferenceModels:
    """Train all part SVMs on half 0 of the given split's stratified halves.

    The parts train on separate workers (see `_forked_map`).
    """
    split_set = _split_halves(dataset, features, split, seed)
    train_ids = split_set.eval_ids(0)

    def train(pid: int) -> LinearModel | None:
        return _train_part_models((pid,), split_set.features, train_ids, split_set.label_of, train_cfg, (seed, 7))[pid]

    rows = [int(np.count_nonzero(split_set.features[pid].contains(train_ids))) for pid in registry.part_ids]
    models = dict(zip(registry.part_ids, _forked_map(train, registry.part_ids, rows)))
    return ReferenceModels(models, split_set.n_identities, split, seed)


def build_identity_embedding(
    instance_id: int,
    features: dict[int, FeatureMatrix],
    ref: ReferenceModels,
    fw: FusionWeights,
    component_mask: str | None = None,
    registry: PartRegistry | None = None,
) -> np.ndarray:
    """Fused probability vector over the reference identities for one instance."""
    mask_ids = registry.resolve_mask(component_mask) if registry is not None else tuple(sorted(ref.models))
    return _build_embeddings(np.asarray([instance_id], dtype=np.int64), features, ref, fw, mask_ids)[0]


def _build_embeddings(
    ids: np.ndarray,
    features: dict[int, FeatureMatrix],
    ref: ReferenceModels,
    fw: FusionWeights,
    mask_ids: tuple[int, ...],
) -> np.ndarray:
    if ref.models.get(GLOBAL_PART_ID) is None:
        raise ValueError("reference models must include a trained global model")
    features = _normalized(features)
    matrices, _ = _part_probabilities(
        ref.models, features, ids, ref.n_identities, mask_ids, fill=True
    )
    return fuse_matrix(matrices, fw)


def _neighbor_identity_flags(
    embeddings: np.ndarray,
    labels: np.ndarray,
    instance_ids: np.ndarray,
    query_idx: list[int],
    depth: int,
) -> np.ndarray:
    """(queries, depth) flags: is each query's r-th nearest neighbor the same identity?

    One distance row per query keeps memory at O(n * |Y|). The row is the
    same element arithmetic and last-axis reduction as an all-pairs
    difference tensor, so every distance, and every tie, is bit-identical.
    Only the rows no farther than the (depth+1)-th smallest distance, the
    query itself included, can rank within ``depth``; those candidates,
    every tie at the boundary among them, are sorted by (distance,
    instance id).
    """
    flags = np.zeros((len(query_idx), depth), dtype=bool)
    for row, q in enumerate(query_idx):
        d = embeddings[q] - embeddings
        dist = np.sqrt(np.sum(d * d, axis=1))
        # ~(>) rather than <= keeps every row if the boundary distance is NaN
        candidates = np.flatnonzero(~(dist > np.partition(dist, depth)[depth]))
        order = candidates[np.lexsort((instance_ids[candidates], dist[candidates]))]
        order = order[order != q][:depth]
        flags[row] = labels[order] == labels[q]
    return flags


def eval_retrieval(
    embeddings: np.ndarray,
    labels: np.ndarray,
    instance_ids: np.ndarray,
    K_list: tuple[int, ...] = (1, 2, 5, 10, 20),
    seed: int = 0,
    component_mask: str = "all",
) -> EvalReport:
    """Recall@K of same-identity retrieval by Euclidean distance.

    Queries are the instances whose identity occurs at least twice; the
    corpus is every instance (a query never retrieves itself). Distance ties
    break toward the lower instance_id. Every K must be at least 1; K beyond
    the corpus is clamped and flagged.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    instance_ids = np.asarray(instance_ids, dtype=np.int64)
    n = embeddings.shape[0]
    if n < 2:
        raise ValueError("retrieval needs at least 2 instances")

    uniq, counts = np.unique(labels, return_counts=True)
    count_of = dict(zip(uniq.tolist(), counts.tolist()))
    query_idx = [k for k in range(n) if count_of[int(labels[k])] >= 2]
    n_singletons = n - len(query_idx)
    if not query_idx:
        raise ValueError("no identity has 2 or more instances")

    if any(int(K) < 1 for K in K_list):
        raise ValueError(f"recall@K needs every K >= 1, got {list(K_list)}")
    max_k = n - 1
    depth = min(max((int(K) for K in K_list), default=0), max_k)
    same_identity = _neighbor_identity_flags(embeddings, labels, instance_ids, query_idx, depth)

    flags: dict[str, str] = {}
    if n_singletons:
        flags["singleton_identities_instances"] = str(n_singletons)
    curve: list[tuple[float, float, float]] = []
    for K in K_list:
        k = min(int(K), max_k)
        if k != K:
            flags[f"k_clamped_{K}"] = str(k)
        hits = int(np.count_nonzero(np.any(same_identity[:, :k], axis=1)))
        curve.append((float(K), hits / len(query_idx), 0.0))

    return EvalReport(
        protocol="retrieval",
        component_mask=component_mask,
        seed=seed,
        n_train=0,
        n_test=len(query_idx),
        n_identities=len(count_of),
        curve=tuple(curve),
        flags=flags,
    )


def run_retrieval_protocol(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    fw: FusionWeights,
    val_split: str = "val",
    test_split: str = "test",
    seed: int = 0,
    K_list: tuple[int, ...] = (1, 2, 5, 10, 20),
    component_mask: str | None = None,
    train_cfg: TrainConfig = DEFAULT_TRAIN_CFG,
) -> EvalReport:
    """End-to-end retrieval: reference models on val, embeddings and recall on test."""
    ref = train_reference_models(dataset, features, registry, val_split, seed, train_cfg)
    mask_ids = registry.resolve_mask(component_mask)
    insts = sorted(dataset.split_instances(test_split), key=lambda i: i.instance_id)
    ids = np.asarray([i.instance_id for i in insts], dtype=np.int64)
    labels = np.asarray([i.identity for i in insts], dtype=np.int64)
    emb = _build_embeddings(ids, features, ref, fw, mask_ids)
    report = eval_retrieval(emb, labels, ids, K_list, seed, component_mask or "all")
    report.n_train = len(dataset.split_instances(val_split))
    report.flags["embedding_dim"] = str(ref.n_identities)
    return report


def half_split_training(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    split: str = "val",
    seed: int = 0,
    train_cfg: TrainConfig = DEFAULT_TRAIN_CFG,
) -> HalfModels:
    """Train per-part SVMs on both halves and tabulate filled probabilities.

    The result's ``tables`` are what weight learning reads: each instance's
    row comes from the model trained on the opposite half.
    """
    trained = _train_halves(dataset, features, split, seed, registry.part_ids, train_cfg)
    folds = []
    for eval_half in (0, 1):
        ids = trained.eval_ids(eval_half)
        matrices, activations = _part_probabilities(
            trained.models[1 - eval_half], trained.features, ids, trained.n_identities, registry.part_ids, True
        )
        folds.append((ids, matrices, activations))
    trained.tables = {
        pid: ProbabilityTable(
            pid,
            np.concatenate([ids for ids, _, _ in folds]),
            np.concatenate([matrices[pid] for _, matrices, _ in folds], axis=0),
            np.concatenate([activations[pid] for _, _, activations in folds]),
        )
        for pid in registry.part_ids
    }
    return trained


def learn_fusion_weights(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    split: str = "val",
    seed: int = 0,
    C_grid: tuple[float, ...] = tuple(2.0**k for k in range(-8, 9, 2)),
    train_cfg: TrainConfig = DEFAULT_TRAIN_CFG,
    clamp_nonnegative: bool = False,
) -> tuple[FusionWeights, WeightLearningInfo]:
    """Full weight-learning pipeline on a validation split."""
    trained = half_split_training(dataset, features, registry, split, seed, train_cfg)
    return learn_weights(
        trained.tables, trained.label_of, trained.halves.assignment, C_grid=C_grid, clamp_nonnegative=clamp_nonnegative
    )
