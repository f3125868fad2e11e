"""Evaluation protocols: half-split recognition, ablations, one-shot, retrieval.

Every protocol is one choice of training and evaluation ids around a single
core: `_train_part_model` fits one part's multiclass SVM, `_train_folds`
fits every (fold, part) model on forked workers, and `_score_fold`
sparsity-fills the part predictions against the global model, fuses them
with the mixing weights and scores the argmax. Recognition
splits a set into two stratified halves (`HalfModels`), trains on each and
scores the other, and averages the two accuracies; ``fill=False`` scores
the raw part predictions instead. The ablation trains each (half, part)
model once and scores every component mask from it. One-shot repeats the
core on sampled training sets, retrieval trains once on a reference split
and embeds with the fused scores, and `half_split_training` trains the
halves whose filled per-part tables weight learning reads.

Reports serialize as a flat key-value text file (``key<TAB>value`` lines)
plus, for protocols with a curve, a CSV with header ``x,mean,sigma``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
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
    "EvalReport",
    "ReferenceModels",
    "build_identity_embeddings",
    "eval_ablation",
    "eval_faces_split",
    "eval_oneshot",
    "eval_recognition",
    "eval_retrieval",
    "learn_fusion_weights",
    "run_retrieval_protocol",
    "stratified_half_split",
    "train_reference_models",
    "write_report",
]

# The evaluation settings of the paper, fixed here alone: every protocol
# scores the test split, and the fusion weights and retrieval's reference
# models train on val. One-shot draws 10 repeats per shot count; its shot
# counts and retrieval's K are the CLI's --shots and --k-list defaults.
EVAL_SPLIT = "test"
REFERENCE_SPLIT = "val"
ONESHOT_REPEATS = 10
DEFAULT_SHOTS = (1, 2, 3)
DEFAULT_K_LIST = (1, 2, 5, 10, 20)
# The one part-SVM setting. `train-parts` and every protocol train with it, so
# the weights learned on the training tables fit the models each protocol fuses.
DEFAULT_TRAIN_CFG = TrainConfig(C=10.0, epochs=30)
# Each ablation mask and the part kind it needs; "all" needs none.
_ABLATION_MASKS = {"all": None, "global": "global", "poselets": "poselet", "face": "face"}
# Bytes of one (query block, corpus) float64 array in `_neighbor_identity_flags`.
_QUERY_BLOCK_BYTES = 1 << 19


def stratified_half_split(instances: list[Instance], seed: int) -> dict[int, int]:
    """instance_id -> half (0 or 1): every identity with >= 2 instances lands in both halves.

    An identity with one instance gets no half.
    """
    members: dict[int, list[int]] = {}
    for inst in instances:
        members.setdefault(inst.identity, []).append(inst.instance_id)
    halves: dict[int, int] = {}
    for ident in sorted(members):
        ids = sorted(members[ident])
        if len(ids) < 2:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, ident]))
        for pos, idx in enumerate(rng.permutation(len(ids))):
            halves[ids[idx]] = pos % 2
    return halves


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
    """L2-normalized features; an already-normalized part passes through uncopied."""
    return {pid: fm.normalized_copy() for pid, fm in features.items()}


def _train_part_model(
    pid: int,
    fm: FeatureMatrix,
    train_ids: np.ndarray,
    label_of: dict[int, int],
    seed_parts: tuple[int, ...],
) -> LinearModel | None:
    """Train one part's multiclass SVM on its activated training rows, with `DEFAULT_TRAIN_CFG`.

    A part whose training activations cover fewer than 2 identities gets no
    model (treated downstream as never activating). The global part must
    cover every training instance; the error names the first it lacks.
    """
    has_row = fm.contains(train_ids)
    if pid == GLOBAL_PART_ID and not has_row.all():
        raise ValueError(f"global part {pid} has no feature row for training instance {train_ids[~has_row][0]}")
    ids = train_ids[has_row]
    labels = np.asarray([label_of[i] for i in ids.tolist()], dtype=np.int64)
    if labels.size == 0 or np.all(labels == labels[0]):  # fewer than 2 identities
        return None
    part_cfg = replace(DEFAULT_TRAIN_CFG, seed=mix_seed(*seed_parts, pid, DEFAULT_TRAIN_CFG.seed))
    return train_multiclass(fm.rows(ids), labels, part_cfg)


def _train_folds(
    part_ids: tuple[int, ...],
    features: dict[int, FeatureMatrix],
    label_of: dict[int, int],
    folds: list[tuple[np.ndarray, tuple[int, ...]]],
) -> list[dict[int, LinearModel | None]]:
    """Each fold's part models: a fold is (training ids, seed parts).

    Every (fold, part) model is one job on the forked workers (see
    `_forked_map`), costed by its activated training rows.
    """
    jobs = [(f, pid) for f in range(len(folds)) for pid in part_ids]

    def train(job: tuple[int, int]) -> LinearModel | None:
        f, pid = job
        train_ids, seed_parts = folds[f]
        return _train_part_model(pid, features[pid], train_ids, label_of, seed_parts)

    costs = [int(np.count_nonzero(features[pid].contains(folds[f][0]))) for f, pid in jobs]
    models: list[dict[int, LinearModel | None]] = [{} for _ in folds]
    for (f, pid), model in zip(jobs, _forked_map(train, jobs, costs)):
        models[f][pid] = model
    return models


def _write_probabilities(
    model: LinearModel, fm: FeatureMatrix, ids: np.ndarray, out: np.ndarray, rows: np.ndarray
) -> None:
    """Write the model's distributions for ``ids`` into ``out[rows]``, zero outside its classes.

    The rows are scored, normalized and written one `LinearModel.block_scores`
    block at a time, so only one block's features and scores are held.
    """
    for block, probs in model.block_scores(ids.size, lambda b: fm.rows(ids[b])):
        softmax(probs, out=probs)
        if model.n_classes == out.shape[1]:
            out[rows[block]] = probs
        else:
            embedded = np.zeros((probs.shape[0], out.shape[1]))
            embedded[:, model.class_index] = probs
            out[rows[block]] = embedded
            del embedded
        del probs  # before the next block is scored


def _write_global(
    models: dict[int, LinearModel | None], features: dict[int, FeatureMatrix], eval_ids: np.ndarray, out: np.ndarray
) -> None:
    """Write the global part's distributions for ``eval_ids`` into the rows of ``out``, in order.

    They are uniform when the models hold no global model.
    """
    global_model = models.get(GLOBAL_PART_ID)
    if global_model is None:
        out[:] = 1.0 / out.shape[1]
    else:
        _write_probabilities(global_model, features[GLOBAL_PART_ID], eval_ids, out, np.arange(eval_ids.size))


def _part_probabilities(
    models: dict[int, LinearModel | None],
    features: dict[int, FeatureMatrix],
    eval_ids: np.ndarray,
    n_y: int,
    mask_ids: tuple[int, ...],
    fill: bool,
) -> Iterator[tuple[int, np.ndarray]]:
    """Per-part dense probability matrices over the evaluation rows, one part at a time.

    Yields (part id, matrix) in ascending part order. The global matrix is
    computed once, before the first part, and is yielded as the global
    part's matrix itself: callers must not modify it. Every other part is
    built in one (n_eval, n_y) buffer that the next part overwrites, so a
    caller uses each part's matrix before asking for the next. With
    ``fill`` the matrices follow the sparsity-filling rule against the
    global row (uniform when the global part is masked out); without it,
    non-activated rows are all-zero and activated rows carry the raw part
    distribution embedded over the full identity set.
    """
    P0 = np.empty((eval_ids.size, n_y))
    _write_global(models, features, eval_ids, P0)
    part: np.ndarray | None = None
    for pid in sorted(mask_ids):
        if pid == GLOBAL_PART_ID:
            yield pid, P0
            continue
        if part is None:
            part = np.empty_like(P0)
        if fill:
            np.copyto(part, P0)
        else:
            part.fill(0.0)
        _part_matrix(models.get(pid), features[pid], eval_ids, P0, fill, part)
        yield pid, part


def _part_matrix(
    model: LinearModel | None,
    fm: FeatureMatrix,
    eval_ids: np.ndarray,
    P0: np.ndarray,
    fill: bool,
    out: np.ndarray,
) -> np.ndarray:
    """Write one non-global part's matrix rows (see `_part_probabilities`); return its activation mask.

    Row ``j`` of ``out`` and of ``P0`` belongs to ``eval_ids[j]``. ``out``
    must hold ``P0`` with ``fill`` and zeros without it; only the rows the
    part's model scores are written.
    """
    act = fm.contains(eval_ids)
    usable = act if model is not None else np.zeros(act.shape, dtype=bool)
    if usable.any():
        _write_probabilities(model, fm, eval_ids[usable], out, np.flatnonzero(usable))
    if fill:
        F_i = model.class_index if model is not None else np.zeros(0, dtype=np.int64)
        fill_sparsity_rows(out, P0, F_i, usable, out=out)
    return act


@dataclass
class HalfModels:
    """Part models trained on each stratified half of one split.

    Part SVMs depend only on the training half, the part and the seed, never
    on the component mask, ``fill`` or the fusion weights, so one training
    pass serves every scoring of the split. `filled_tables` yields each
    part's filled rows for the whole split, every row from the opposite
    half's model.
    """

    features: dict[int, FeatureMatrix]  # L2-normalized
    halves: dict[int, int]  # instance_id -> 0 or 1
    label_of: dict[int, int]  # instance_id -> local identity
    models: dict[int, dict[int, LinearModel | None]]  # train half -> part -> model
    n_identities: int
    excluded_identities: int
    excluded_instances: int

    def eval_ids(self, eval_half: int) -> np.ndarray:
        return np.asarray(
            sorted(i for i, h in self.halves.items() if h == eval_half), dtype=np.int64
        )

    def filled_tables(self) -> Iterator[ProbabilityTable]:
        """Each trained part's filled table over the whole split, in ascending part order.

        Each half's global rows are held in one array in that half's order.
        A part's rows for each half are filled in place in a copy of that
        array and stored into the part's float32 table, so a caller that
        drops each table before taking the next holds about two float64
        tables' worth.
        """
        ids = [self.eval_ids(eval_half) for eval_half in (0, 1)]
        models = [self.models[1 - eval_half] for eval_half in (0, 1)]
        all_ids = np.concatenate(ids)
        order = np.argsort(all_ids, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        rows = [position[: ids[0].size], position[ids[0].size :]]
        P0 = [np.empty((half.size, self.n_identities)) for half in ids]
        for h in (0, 1):
            _write_global(models[h], self.features, ids[h], P0[h])
        for pid in sorted(models[0]):
            P = np.empty((all_ids.size, self.n_identities), dtype=np.float32)
            act = np.ones(all_ids.size, dtype=bool)
            for h in (0, 1):
                part = P0[h].copy()
                if pid != GLOBAL_PART_ID:
                    act[rows[h]] = _part_matrix(models[h].get(pid), self.features[pid], ids[h], P0[h], True, part)
                P[rows[h]] = part
                del part
            yield ProbabilityTable(pid, all_ids[order], P, act)
            del P


def _split_halves(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    split: str,
    seed: int,
) -> HalfModels:
    """Normalized features, kept identities and stratified halves of a split; no models yet."""
    kept, local_of, excl_ids, excl_insts = _kept_instances(dataset.split_instances(split), 2)
    if len(local_of) < 2:
        raise ValueError(f"split {split!r} has fewer than 2 usable identities")
    halves = stratified_half_split(kept, seed)
    label_of = {inst.instance_id: local_of[inst.identity] for inst in kept}
    return HalfModels(_normalized(features), halves, label_of, {}, len(local_of), excl_ids, excl_insts)


def half_split_training(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    part_ids: tuple[int, ...],
    split: str = REFERENCE_SPLIT,
    seed: int = 0,
) -> HalfModels:
    """Train the given parts' SVMs on each half, seeded per (seed, eval half, part).

    Each instance's table row comes from the model trained on the opposite
    half. `HalfModels.filled_tables` yields the tables one part at a time.
    """
    trained = _split_halves(dataset, features, split, seed)
    folds = [(trained.eval_ids(1 - eval_half), (seed, eval_half)) for eval_half in (0, 1)]
    for eval_half, models in enumerate(_train_folds(part_ids, trained.features, trained.label_of, folds)):
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
) -> np.ndarray:
    """Fill (or not) and fuse the masked parts; is each row's argmax its identity?

    Each part is fused as it is computed.
    """
    s = fuse_matrix(_part_probabilities(models, features, eval_ids, n_y, mask_ids, fill), fw)
    truth = np.asarray([label_of[i] for i in eval_ids.tolist()], dtype=np.int64)
    return np.argmax(s, axis=1) == truth


def _score_halves(
    trained: HalfModels, mask_ids: tuple[int, ...], fill: bool, fw: FusionWeights
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Score each half with the opposite half's models for the masked parts.

    Returns (eval ids, correctness) per half. Only the masked parts' models
    reach ``_part_probabilities``, so a mask without the global part fills
    from the uniform row.
    """
    folds = []
    for eval_half in (0, 1):
        ids = trained.eval_ids(eval_half)
        models = {pid: trained.models[1 - eval_half][pid] for pid in mask_ids}
        correct = _score_fold(models, trained.features, ids, trained.label_of, trained.n_identities, mask_ids, fill, fw)
        folds.append((ids, correct))
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
    accs = [float(np.mean(correct)) for _, correct in folds]
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
    seed: int = 0,
    component_mask: str | None = None,
    fill: bool = True,
) -> EvalReport:
    """Half-split recognition accuracy on `EVAL_SPLIT` with sparsity filling and fusion.

    ``component_mask`` (e.g. ``"global"`` or ``"global,face"``) restricts the
    fused parts; a masked-out global part is replaced by the uniform
    distribution as the filling source. With ``fill=False`` sparse rows
    contribute zeros and the report's protocol is ``recognition-no-fill``.
    """
    mask_ids = registry.resolve_mask(component_mask)
    trained = half_split_training(dataset, features, mask_ids, EVAL_SPLIT, seed)
    return _recognition(trained, registry, fw, component_mask, seed, fill)


def eval_faces_split(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    fw: FusionWeights,
    seed: int = 0,
) -> tuple[EvalReport, EvalReport]:
    """Recognition accuracy on `EVAL_SPLIT`, every part fused, restricted to face-activated instances and the rest.

    An instance is face-activated when a face part carries a feature row
    for it. An empty subset's report has no accuracy and the flag
    ``empty_subset``.
    """
    trained = half_split_training(dataset, features, registry.part_ids, EVAL_SPLIT, seed)
    folds = _score_halves(trained, registry.part_ids, True, fw)
    ids = np.concatenate([ids for ids, _ in folds])
    correct = np.concatenate([c for _, c in folds])
    face = np.zeros(ids.size, dtype=bool)
    for pid in registry.ids_of_kind("face"):
        face |= trained.features[pid].contains(ids)

    def subset_report(name: str, rows: np.ndarray) -> EvalReport:
        if not rows.any():
            return _report(trained, name, None, seed, 0, flags={"empty_subset": "true"})
        return _report(trained, name, None, seed, int(rows.sum()), accuracy=float(np.mean(correct[rows])))

    return subset_report("recognition-faces", face), subset_report("recognition-nonfaces", ~face)


def eval_ablation(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    fw: FusionWeights,
    seed: int = 0,
) -> dict[str, EvalReport]:
    """Recognition accuracy on `EVAL_SPLIT` per component mask: all, global, poselets and face, then no-fill.

    A mask whose part kind the registry lacks is left out (no face part, no
    ``face`` report). Every part is trained once per half; each mask and the
    no-fill variant score those same models, so each report equals its own
    recognition run.
    """
    trained = half_split_training(dataset, features, registry.part_ids, EVAL_SPLIT, seed)
    out = {
        mask: _recognition(trained, registry, fw, None if kind is None else mask, seed, True)
        for mask, kind in _ABLATION_MASKS.items()
        if kind is None or registry.ids_of_kind(kind)
    }
    out["no-fill"] = _recognition(trained, registry, fw, None, seed, False)
    return out


def eval_oneshot(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    fw: FusionWeights,
    shots: tuple[int, ...] = DEFAULT_SHOTS,
    seed: int = 0,
) -> EvalReport:
    """Few-shot recognition on `EVAL_SPLIT`: sample `shots` training instances per identity.

    Per repeat (`ONESHOT_REPEATS` per shot count), identities with at least
    shots+1 instances contribute; the sampled instances train every part's
    SVM and the rest are scored. The curve holds (shots, mean accuracy,
    sample sigma) per shot count. Every shot count must be at least 1. The
    (shot count, repeat) runs are independent and spread over workers (see
    `_forked_map`).
    """
    if not shots or min(shots) < 1:
        raise ValueError(f"one-shot needs shot counts >= 1, got {list(shots)}")
    part_ids = registry.part_ids
    features = _normalized(features)
    instances = dataset.split_instances(EVAL_SPLIT)

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
        eval_ids = np.setdiff1d(all_ids, train_ids, assume_unique=True)
        models = {pid: _train_part_model(pid, features[pid], train_ids, label_of, (seed, s, r)) for pid in part_ids}
        return float(np.mean(_score_fold(models, features, eval_ids, label_of, len(pools), part_ids, True, fw)))

    runs = [(s, r) for s in shots for r in range(ONESHOT_REPEATS)]
    accs = _forked_map(accuracy, runs, [s for s, _ in runs])
    curve = []
    for k, s in enumerate(shots):
        shot_accs = accs[k * ONESHOT_REPEATS : (k + 1) * ONESHOT_REPEATS]
        curve.append((float(s), float(np.mean(shot_accs)), float(np.std(shot_accs, ddof=1))))

    return EvalReport(
        protocol="oneshot",
        component_mask="all",
        seed=seed,
        n_train=int(max(shots)) * max_n_y,
        n_test=max_kept,
        n_identities=max_n_y,
        curve=tuple(curve),
        flags=flags,
    )


@dataclass
class ReferenceModels:
    """Part SVMs trained on half 0 of `REFERENCE_SPLIT`, for embeddings."""

    models: dict[int, LinearModel | None]
    n_identities: int


def train_reference_models(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    seed: int = 0,
) -> ReferenceModels:
    """Train all part SVMs on half 0 of `REFERENCE_SPLIT`'s stratified halves."""
    split_set = _split_halves(dataset, features, REFERENCE_SPLIT, seed)
    fold = (split_set.eval_ids(0), (seed, 7))
    (models,) = _train_folds(registry.part_ids, split_set.features, split_set.label_of, [fold])
    return ReferenceModels(models, split_set.n_identities)


def build_identity_embeddings(
    ids: np.ndarray,
    features: dict[int, FeatureMatrix],
    ref: ReferenceModels,
    fw: FusionWeights,
    mask_ids: tuple[int, ...],
) -> np.ndarray:
    """(len(ids), reference identities) fused probability rows of the instances, from the masked parts.

    Raw features are L2-normalized first; the reference models must include
    a trained global model.
    """
    if ref.models.get(GLOBAL_PART_ID) is None:
        raise ValueError("reference models must include a trained global model")
    parts = _part_probabilities(ref.models, _normalized(features), ids, ref.n_identities, mask_ids, fill=True)
    return fuse_matrix(parts, fw)


def _neighbor_identity_flags(
    embeddings: np.ndarray,
    labels: np.ndarray,
    instance_ids: np.ndarray,
    query_idx: list[int],
    depth: int,
) -> np.ndarray:
    """(queries, depth) flags: is each query's r-th nearest neighbor the same identity?

    The embeddings must be finite. For each block of queries, Gram distances
    g = |a|^2 + |b|^2 - 2 a.b, one matrix product, only choose candidates.
    With e a bound on |g - d^2| for the distance d computed below, a row can
    rank within ``depth`` only if its g - e is at most the (depth+1)-th
    smallest g + e, the query itself included. So the rows whose g is at
    most that (depth+1)-th smallest g plus 2e are kept. Each query's candidates then get the
    distance of an all-pairs difference tensor, the same element arithmetic
    and last-axis reduction, so every distance, and every tie, is
    bit-identical to it. Only the candidates no farther than the (depth+1)-th
    smallest such distance can rank within ``depth``; those, every tie at
    the boundary among them, are sorted by (distance, instance id). A query
    block spans about `_QUERY_BLOCK_BYTES` per (block, corpus) array, so
    memory stays O(n * |Y|).

    The bound e: a dot product of |Y| terms is off by at most
    gamma_|Y| (|a|^2 + |b|^2) / 2 (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1). With the rounding of the squared
    norms, the Gram sum and the exact path's differences, squares, sum and
    square root, g is within (4 |Y| + 16) u (|a|^2 + |b|^2) of d^2, where
    u = 2^-53. e takes that at the largest norms, adds |Y| 2^-1000 for
    underflow, and is doubled to cover the rounding of the cut itself. Where
    the Gram terms could overflow, e is infinite and every row is a
    candidate.
    """
    n, dim = embeddings.shape
    sq = np.einsum("ij,ij->i", embeddings, embeddings)
    scale = 2.0 * float(sq.max())
    e = 2.0 * ((4 * dim + 16) * 2.0**-53 * scale + dim * 2.0**-1000)
    if not np.isfinite(4.0 * scale):
        e = np.inf
    queries = np.asarray(query_idx, dtype=np.int64)
    block = max(1, _QUERY_BLOCK_BYTES // (8 * n))
    flags = np.zeros((len(queries), depth), dtype=bool)
    for start in range(0, len(queries), block):
        qs = queries[start : start + block]
        gram = embeddings[qs] @ embeddings.T
        gram *= -2.0
        gram += sq
        gram += sq[qs, None]
        cut = np.partition(gram, depth, axis=1)[:, depth] + 2.0 * e
        # ~(>) rather than <= keeps a row whose overflowing Gram terms gave NaN
        near_rows = ~(gram > cut[:, None])
        for r, q in enumerate(qs.tolist()):
            near = np.flatnonzero(near_rows[r])
            d = embeddings[q] - embeddings[near]
            dist = np.sqrt(np.sum(d * d, axis=1))
            keep = dist <= np.partition(dist, depth)[depth]
            candidates, dist = near[keep], dist[keep]
            order = candidates[np.lexsort((instance_ids[candidates], dist))]
            order = order[order != q][:depth]
            flags[start + r] = labels[order] == labels[q]
    return flags


def eval_retrieval(
    embeddings: np.ndarray,
    labels: np.ndarray,
    instance_ids: np.ndarray,
    K_list: tuple[int, ...] = DEFAULT_K_LIST,
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
    if not np.all(np.isfinite(embeddings)):
        raise ValueError("retrieval needs finite embeddings")

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
    seed: int = 0,
    K_list: tuple[int, ...] = DEFAULT_K_LIST,
    component_mask: str | None = None,
) -> EvalReport:
    """End-to-end retrieval: reference models on `REFERENCE_SPLIT`, embeddings and recall on `EVAL_SPLIT`.

    Raw features are L2-normalized once, here, for both stages.
    """
    features = _normalized(features)
    ref = train_reference_models(dataset, features, registry, seed)
    mask_ids = registry.resolve_mask(component_mask)
    insts = sorted(dataset.split_instances(EVAL_SPLIT), key=lambda i: i.instance_id)
    ids = np.asarray([i.instance_id for i in insts], dtype=np.int64)
    labels = np.asarray([i.identity for i in insts], dtype=np.int64)
    emb = build_identity_embeddings(ids, features, ref, fw, mask_ids)
    report = eval_retrieval(emb, labels, ids, K_list, seed, component_mask or "all")
    report.n_train = len(dataset.split_instances(REFERENCE_SPLIT))
    report.flags["embedding_dim"] = str(ref.n_identities)
    return report


def learn_fusion_weights(
    dataset: Dataset,
    features: dict[int, FeatureMatrix],
    registry: PartRegistry,
    seed: int = 0,
    clamp_nonnegative: bool = False,
) -> tuple[FusionWeights, WeightLearningInfo]:
    """Full weight-learning pipeline on `REFERENCE_SPLIT`, over `fusion.DEFAULT_C_GRID`."""
    trained = half_split_training(dataset, features, registry.part_ids, REFERENCE_SPLIT, seed)
    tables = {table.part_id: table for table in trained.filled_tables()}
    return learn_weights(tables, trained.label_of, trained.halves, clamp_nonnegative=clamp_nonnegative)
