"""Globally optimal assignment of detected person boxes to ground-truth instances.

Semantics: among matchings over admissible (truth, detection) edges, take the
ones of maximum cardinality, among those the maximum total edge weight, and
among those the lexicographically smallest sorted pair list. An edge is
admissible iff IoU(body-from-head(truth), detection box) >= `TAU_IOU`; its
weight is `LAMBDA_SCORE` * normalized detection score + (1 - `LAMBDA_SCORE`)
* that IoU, with scores min-max normalized per photo (constant scores map to
0.5). Both are module constants that every call reads.

Maximizing cardinality first keeps the matching monotone under admissibility
tightening (raising `TAU_IOU` can only remove pairs, never add them), which a
pure maximum-weight objective does not guarantee.

The solver reduces to a rectangular linear sum assignment by adding a
constant bonus to every admissible edge large enough that one extra pair
always beats any redistribution of weights. The assignment itself is solved
in this module by shortest augmenting paths with dual potentials (the
Hungarian method of Kuhn 1955 in the rectangular form of Crouse 2016). A
brute-force enumerator with identical semantics serves as the test oracle
for small photos.

Detection file format: line-delimited, tab-separated, UTF-8; per detection:
photo_id, detection_id, person box x/y/w/h, score, then repeated groups of
(part_id, patch x/y/w/h, activation_score).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .data import GLOBAL_PART_ID, Instance, atomic_write_text, format_num, numeric_field_error
from .geometry import BBox, body_from_head, iou

__all__ = [
    "Assignment",
    "Detection",
    "activations_per_instance",
    "load_detections",
    "match_bruteforce",
    "match_detections",
    "normalize_scores",
    "write_detections",
]

# The least IoU of an admissible edge, and the weight of the normalized
# detection score in an edge weight; the IoU takes the rest.
TAU_IOU = 0.3
LAMBDA_SCORE = 0.5
_WEIGHT_EPS = 1e-9


@dataclass(frozen=True)
class Detection:
    """One detector proposal: a person box with part activations.

    Every box side is positive, every activation part id at least 1
    (`activations_per_instance` adds the global part 0 itself), and no part
    is listed twice, so `load_detections` reads back what `write_detections`
    writes.
    """

    detection_id: int
    person_box: BBox
    score: float
    activations: tuple[tuple[int, BBox, float], ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError("detection score must be finite")
        # every box side is positive, and every activation part id at least 1: part 0 is the global part
        values = [self.person_box.w, self.person_box.h]
        for part_id, patch, _ in self.activations:
            values += (part_id, patch.w, patch.h)
        k = next((k for k, v in enumerate(values) if not v > 0), None)
        if k is not None:
            raise _FieldRuleError(k, values[k])
        part_ids = [a[0] for a in self.activations]
        if len(part_ids) != len(set(part_ids)):
            raise ValueError("a part may appear at most once per detection")


class _FieldRuleError(ValueError):
    """The ``k``-th value `Detection` rules (person w and h, then each activation's part_id, patch w and h) is not above 0.

    Carries the field's ``name`` as `load_detections` names it, and its ``rule``.
    """

    def __init__(self, k: int, value: float) -> None:
        if k < 2:
            self.name = ("person w", "person h")[k]
        else:
            self.name = f"activation {(k + 1) // 3} {('part_id', 'patch w', 'patch h')[(k - 2) % 3]}"
        part_id = self.name.endswith("part_id")
        self.rule = "must be at least 1 (part 0 is the global part)" if part_id else "must be positive"
        super().__init__(f"{self.name} {self.rule}, got {value!r}")


@dataclass(frozen=True)
class Assignment:
    """Result of matching one photo; every id appears in at most one pair."""

    pairs: tuple[tuple[int, int], ...]  # (truth instance_id, detection_id), sorted
    unmatched_truths: tuple[int, ...]
    unmatched_detections: tuple[int, ...]
    total_weight: float = field(default=0.0, compare=False)


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Min-max normalize detection scores within a photo; constant maps to 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        return scores
    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo == 0.0:
        return np.full_like(scores, 0.5)
    return (scores - lo) / (hi - lo)


def _edge_weights(truths: list[Instance], detections: list[Detection]) -> tuple[np.ndarray, np.ndarray]:
    """(admissible mask, weight matrix) over truths x detections, id-sorted."""
    n, m = len(truths), len(detections)
    adm = np.zeros((n, m), dtype=bool)
    W = np.zeros((n, m))
    norm = normalize_scores(np.asarray([d.score for d in detections]))
    for i, t in enumerate(truths):
        body = body_from_head(t.head)
        for j, d in enumerate(detections):
            overlap = iou(body, d.person_box)
            if overlap >= TAU_IOU:
                adm[i, j] = True
                W[i, j] = LAMBDA_SCORE * norm[j] + (1.0 - LAMBDA_SCORE) * overlap
    return adm, W


def _sorted_inputs(
    truths: list[Instance], detections: list[Detection]
) -> tuple[list[Instance], list[Detection]]:
    return sorted(truths, key=lambda t: t.instance_id), sorted(detections, key=lambda d: d.detection_id)


def _assignment_from_pairs(
    pairs: list[tuple[int, int]],
    truths: list[Instance],
    detections: list[Detection],
    weight: float,
) -> Assignment:
    pairs = sorted(pairs)
    used_t = {p[0] for p in pairs}
    used_d = {p[1] for p in pairs}
    return Assignment(
        tuple(pairs),
        tuple(t.instance_id for t in truths if t.instance_id not in used_t),
        tuple(d.detection_id for d in detections if d.detection_id not in used_d),
        total_weight=weight,
    )


def _augmented(adm: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Admissible edges lifted by a bonus so cardinality dominates weight."""
    bonus = float(min(adm.shape)) + 1.0
    return np.where(adm, W + bonus, 0.0)


def _min_cost_columns(cost: list[list[float]], m: int) -> list[int]:
    """Column of each row in a minimum-cost assignment of len(cost) <= m rows.

    Each row joins by one shortest augmenting path in reduced costs, grown
    from the new row until it reaches a free column; the potentials u, v
    then absorb the path lengths so that reduced costs stay non-negative.
    Every step of a path adds a column, so a row takes at most m steps.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * m
    col_of, row_of = [-1] * n, [-1] * m
    for start in range(n):
        dist, path, reached = [math.inf] * m, [-1] * m, [False] * m
        tree_rows = [start]
        i, d, sink = start, 0.0, -1
        while sink < 0:
            ci, ui = cost[i], u[i]
            low, jl = math.inf, -1
            for j in range(m):
                if reached[j]:
                    continue
                r = d + ci[j] - ui - v[j]
                if r < dist[j]:
                    dist[j], path[j] = r, i
                if jl < 0 or dist[j] < low or (dist[j] == low and row_of[j] < 0):
                    low, jl = dist[j], j
            d = low
            reached[jl] = True
            if row_of[jl] < 0:
                sink = jl
            else:
                i = row_of[jl]
                tree_rows.append(i)
        u[start] += d
        for i in tree_rows[1:]:
            u[i] += d - dist[col_of[i]]
        for j in range(m):
            if reached[j]:
                v[j] -= d - dist[j]
        j = sink
        while True:  # flip the path's edges back to the start row
            i = path[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact rectangular linear sum assignment of a finite 2-D cost matrix.

    Returns (rows, cols): min(n, m) pairs, rows ascending, whose total cost
    is minimal. Solved on the orientation with no more rows than columns, in
    O(n^2 m).
    """
    a = np.asarray(cost, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if not np.isfinite(a).all():
        raise ValueError("cost matrix entries must be finite")
    transposed = a.shape[0] > a.shape[1]
    if transposed:
        a = a.T
    cols = np.array(_min_cost_columns(a.tolist(), a.shape[1]), dtype=np.intp)
    if not transposed:
        return np.arange(cols.size), cols
    order = np.argsort(cols)
    return cols[order], order


def _opt_value(aug: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    if rows.size == 0 or cols.size == 0:
        return 0.0
    sub = aug[np.ix_(rows, cols)]
    r, c = linear_sum_assignment(-sub)  # the maximum-weight assignment
    return float(sub[r, c].sum())


def _forced_pairs(adm: np.ndarray, W: np.ndarray) -> list[tuple[int, int]]:
    """(row, col) pairs of the lexicographically smallest optimal matching.

    Greedily forces, in row then column order, each admissible edge that
    keeps the optimal augmented total attainable over the rows and columns
    still free.
    """
    aug = _augmented(adm, W)
    n, m = aug.shape
    opt = _opt_value(aug, np.arange(n), np.arange(m))

    forced: list[tuple[int, int]] = []
    forced_sum = 0.0
    free_rows = np.ones(n, dtype=bool)
    free_cols = np.ones(m, dtype=bool)
    for i in range(n):
        if not free_rows[i]:
            continue
        for j in range(m):
            if not (free_cols[j] and adm[i, j]):
                continue
            rows = np.flatnonzero(free_rows & (np.arange(n) != i))
            cols = np.flatnonzero(free_cols & (np.arange(m) != j))
            total = forced_sum + aug[i, j] + _opt_value(aug, rows, cols)
            if total >= opt - _WEIGHT_EPS:
                forced.append((i, j))
                forced_sum += aug[i, j]
                free_rows[i] = False
                free_cols[j] = False
                break
    return forced


def match_detections(truths: list[Instance], detections: list[Detection]) -> Assignment:
    """Optimal truth-to-detection assignment for one photo.

    Deterministic: among optimal matchings, returns the one whose sorted
    (truth_id, detection_id) pair list is lexicographically smallest, found
    by greedily forcing the smallest pair that keeps optimality attainable.
    When no truth and no detection has more than one admissible edge, the
    edges are disjoint and together form the only optimal matching, which
    forcing would return edge by edge; it is returned without a solve.
    """
    truths, detections = _sorted_inputs(truths, detections)
    if not truths or not detections:
        return _assignment_from_pairs([], truths, detections, 0.0)

    adm, W = _edge_weights(truths, detections)
    if adm.sum(axis=0).max() <= 1 and adm.sum(axis=1).max() <= 1:
        forced = np.argwhere(adm).tolist()
    else:
        forced = _forced_pairs(adm, W)

    pairs = [(truths[i].instance_id, detections[j].detection_id) for i, j in forced]
    weight = float(sum(W[i, j] for i, j in forced))
    return _assignment_from_pairs(pairs, truths, detections, weight)


def match_bruteforce(truths: list[Instance], detections: list[Detection]) -> Assignment:
    """Exhaustive-enumeration oracle with the same semantics as match_detections.

    Refuses inputs larger than 8 truths or 8 detections.
    """
    if len(truths) > 8 or len(detections) > 8:
        raise ValueError("match_bruteforce is limited to 8 truths and 8 detections")
    truths, detections = _sorted_inputs(truths, detections)
    if not truths or not detections:
        return _assignment_from_pairs([], truths, detections, 0.0)

    adm, W = _edge_weights(truths, detections)
    n, m = adm.shape
    best: dict = {"card": -1, "weight": -1.0, "pairs": None}

    def id_pairs(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        return sorted((truths[i].instance_id, detections[j].detection_id) for i, j in pairs)

    def consider(pairs: list[tuple[int, int]], weight: float) -> None:
        card = len(pairs)
        if card < best["card"]:
            return
        if card == best["card"]:
            if weight < best["weight"] - _WEIGHT_EPS:
                return
            if weight <= best["weight"] + _WEIGHT_EPS:
                # weight tie: keep the lexicographically smaller pair list
                if id_pairs(pairs) >= id_pairs(best["pairs"]):
                    return
                weight = max(weight, best["weight"])
        best.update(card=card, weight=weight, pairs=list(pairs))

    def recurse(i: int, used_cols: list[bool], pairs: list[tuple[int, int]], weight: float) -> None:
        if i == n:
            consider(pairs, weight)
            return
        # bound: even matching every remaining truth cannot beat best's cardinality
        if len(pairs) + (n - i) < best["card"]:
            return
        for j in range(m):
            if adm[i, j] and not used_cols[j]:
                used_cols[j] = True
                pairs.append((i, j))
                recurse(i + 1, used_cols, pairs, weight + W[i, j])
                pairs.pop()
                used_cols[j] = False
        recurse(i + 1, used_cols, pairs, weight)

    recurse(0, [False] * m, [], 0.0)
    pairs = [(truths[i].instance_id, detections[j].detection_id) for i, j in best["pairs"]]
    return _assignment_from_pairs(pairs, truths, detections, best["weight"])


def activations_per_instance(
    assignment: Assignment,
    truths: list[Instance],
    detections: list[Detection],
) -> dict[int, list[tuple[int, BBox, float]]]:
    """Part activation table: instance_id -> [(part_id, patch box, score)].

    Every truth gets the global part (patch = extrapolated body box); matched
    truths additionally inherit their detection's part activations.
    """
    detection_of = {d.detection_id: d for d in detections}
    matched = dict(assignment.pairs)
    table: dict[int, list[tuple[int, BBox, float]]] = {}
    for t in sorted(truths, key=lambda t: t.instance_id):
        rows = [(GLOBAL_PART_ID, body_from_head(t.head), 1.0)]
        det_id = matched.get(t.instance_id)
        if det_id is not None:
            for part_id, patch, act_score in detection_of[det_id].activations:
                rows.append((part_id, patch, act_score))
        rows.sort(key=lambda r: r[0])
        table[t.instance_id] = rows
    return table


def write_detections(path: str | Path, by_photo: dict[int, list[Detection]]) -> None:
    lines = []
    for photo_id in sorted(by_photo):
        for d in sorted(by_photo[photo_id], key=lambda d: d.detection_id):
            fields = [
                str(photo_id),
                str(d.detection_id),
                format_num(d.person_box.x),
                format_num(d.person_box.y),
                format_num(d.person_box.w),
                format_num(d.person_box.h),
                repr(float(d.score)),
            ]
            for part_id, patch, act in d.activations:
                fields += [
                    str(part_id),
                    format_num(patch.x),
                    format_num(patch.y),
                    format_num(patch.w),
                    format_num(patch.h),
                    repr(float(act)),
                ]
            lines.append("\t".join(fields))
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


_DETECTION_FIELDS = (
    ("photo_id", int),
    ("detection_id", int),
    ("person x", float),
    ("person y", float),
    ("person w", float),
    ("person h", float),
    ("score", float),
)
_ACTIVATION_FIELDS = (
    ("part_id", int),
    ("patch x", float),
    ("patch y", float),
    ("patch w", float),
    ("patch h", float),
    ("activation score", float),
)


def _detection_field_spec(n_fields: int) -> list[tuple[str, type]]:
    """Field names and types of a detection line with ``n_fields`` fields."""
    spec = list(_DETECTION_FIELDS)
    for k in range(1, (n_fields - len(_DETECTION_FIELDS)) // len(_ACTIVATION_FIELDS) + 1):
        spec += [(f"activation {k} {name}", kind) for name, kind in _ACTIVATION_FIELDS]
    return spec


def load_detections(path: str | Path) -> dict[int, list[Detection]]:
    """Read a detection file into per-photo lists sorted by detection id.

    A line with a bad field count, a field that is not a number or not
    finite, a person or patch box whose width or height is not positive, an
    activation part id below 1 (the global part 0 is added to every instance
    by `activations_per_instance`), a part listed twice, or a detection id
    already used in its photo fails with ``path:line``; a field error also
    names the field and its value.
    """
    by_photo: dict[int, list[Detection]] = {}
    seen: set[tuple[int, int]] = set()  # (photo id, detection id)
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line:
            continue
        f = line.split("\t")
        where = f"{path}:{lineno}"
        if len(f) < 7 or (len(f) - 7) % 6 != 0:
            raise ValueError(f"{where}: malformed detection record")
        try:
            photo_id, det_id = int(f[0]), int(f[1])
            person = list(map(float, f[2:7]))
            part_ids = list(map(int, f[7::6]))
            groups = [list(map(float, f[k + 1 : k + 6])) for k in range(7, len(f), 6)]
        except ValueError:
            raise numeric_field_error(where, f, _detection_field_spec(len(f))) from None
        if not all(map(math.isfinite, chain(person, *groups))):
            raise numeric_field_error(where, f, _detection_field_spec(len(f)))
        acts = tuple((part_id, BBox(*g[:4]), g[4]) for part_id, g in zip(part_ids, groups))
        try:
            det = Detection(det_id, BBox(*person[:4]), person[4], acts)
        except _FieldRuleError as exc:  # named with the field's text, as the file holds it
            text = f[[name for name, _ in _detection_field_spec(len(f))].index(exc.name)]
            raise ValueError(f"{where}: {exc.name} {exc.rule}, got {text!r}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if (photo_id, det_id) in seen:
            raise ValueError(f"{where}: detection {det_id} is listed twice in photo {photo_id}")
        seen.add((photo_id, det_id))
        by_photo.setdefault(photo_id, []).append(det)
    for dets in by_photo.values():
        dets.sort(key=lambda d: d.detection_id)
    return by_photo
