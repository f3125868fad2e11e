"""Output checks for the partfusion benchmark.

Every check compares a program output against a value computed here, apart
from the program, or against a property the method must have. Index, feature
and table files are parsed from their documented layouts with plain numpy, so
a fault in the program's own readers cannot hide a fault in its writers.
Each check raises ``CheckFailed`` with the file and the disagreement.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A float32 row of up to a few hundred probabilities sums to 1 within this.
ROW_SUM_TOL = 1e-4
# Fused scores closer than this share of the weight sum count as a float32 tie.
TIE_TOL = 1e-5


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Split:
    """The instances of one split that the protocols keep, with dense labels."""

    ids: np.ndarray  # instance ids, ascending
    label_of: dict[int, int]  # instance id -> local identity
    n_identities: int


@dataclass(frozen=True)
class Table:
    part_id: int
    ids: np.ndarray
    activated: np.ndarray
    P: np.ndarray  # float32, as stored


def read_split(index_path: Path, split: str) -> Split:
    """Identities with at least two instances, relabelled densely by sorted label."""
    chosen = []
    for line in Path(index_path).read_text(encoding="utf-8").splitlines():
        f = line.split("\t")
        if line and f[9] == split:
            chosen.append((int(f[0]), f[8]))
    counts = Counter(label for _, label in chosen)
    kept = sorted(label for label, c in counts.items() if c >= 2)
    local = {label: k for k, label in enumerate(kept)}
    label_of = {iid: local[label] for iid, label in chosen if label in local}
    return Split(np.asarray(sorted(label_of), dtype=np.int64), label_of, len(kept))


def read_feature_ids(path: Path) -> np.ndarray:
    """Instance ids of a PFV1 file: 17-byte header, then (u64 id, f32[d]) records."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"PFV1":
        raise CheckFailed(f"{path}: bad magic")
    _part, d, n, _flag = struct.unpack("<IIIB", buf[4:17])
    rec = np.dtype([("id", "<u8"), ("x", "<f4", (d,))])
    body = np.frombuffer(buf, dtype=rec, offset=17)
    if body.shape[0] != n:
        raise CheckFailed(f"{path}: header says {n} records, file holds {body.shape[0]}")
    return body["id"].astype(np.int64)


def read_table(path: Path) -> Table:
    """A PPT1 file: 16-byte header, then (u64 id, u8 activated, f32[|Y|]) records."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"PPT1":
        raise CheckFailed(f"{path}: bad magic")
    part_id, n_y, n = struct.unpack("<III", buf[4:16])
    rec = np.dtype([("id", "<u8"), ("act", "u1"), ("p", "<f4", (n_y,))])
    body = np.frombuffer(buf, dtype=rec, offset=16)
    if body.shape[0] != n:
        raise CheckFailed(f"{path}: header says {n} rows, file holds {body.shape[0]}")
    return Table(part_id, body["id"].astype(np.int64), body["act"].astype(bool), body["p"])


def read_tables(tables_dir: Path) -> dict[int, Table]:
    tables = {}
    for path in sorted(Path(tables_dir).glob("part_*.ppt")):
        t = read_table(path)
        tables[t.part_id] = t
    if sorted(tables) != list(range(len(tables))) or len(tables) < 2:
        raise CheckFailed(f"{tables_dir}: tables must cover part ids 0..K, K >= 1")
    return tables


def read_report(path: Path) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in Path(path).read_text(encoding="utf-8").splitlines() if line)


def read_curve(path: Path) -> list[tuple[float, float]]:
    with open(path, encoding="utf-8", newline="") as f:
        return [(float(r["x"]), float(r["mean"])) for r in csv.DictReader(f)]


def read_weights(path: Path) -> np.ndarray:
    w: dict[int, float] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, value = line.split("\t")
        if key != "bias":
            w[int(key)] = float(value)
    if sorted(w) != list(range(len(w))):
        raise CheckFailed(f"{path}: part ids are not contiguous from 0")
    return np.asarray([w[i] for i in range(len(w))])


def check_manifest(out_dir: Path) -> None:
    """Every output the manifest lists exists with the digest it records."""
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
    if not manifest["outputs"]:
        raise CheckFailed(f"{out_dir}: manifest lists no outputs")
    for rel, digest in manifest["outputs"].items():
        if hashlib.sha256((Path(out_dir) / rel).read_bytes()).hexdigest() != digest:
            raise CheckFailed(f"{out_dir}/{rel}: digest differs from manifest")


def check_tables(tables_dir: Path, split: Split, features_dir: Path) -> None:
    """Rows are distributions, inactive rows are the global row, flags match the features."""
    tables = read_tables(tables_dir)
    P0 = tables[0].P
    for pid, t in tables.items():
        where = f"{tables_dir}/part_{pid:03d}.ppt"
        if not np.array_equal(t.ids, split.ids):
            raise CheckFailed(f"{where}: rows are not the split's kept instances")
        if t.P.shape[1] != split.n_identities:
            raise CheckFailed(f"{where}: {t.P.shape[1]} identity columns, split has {split.n_identities}")
        sums = t.P.astype(np.float64).sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            raise CheckFailed(f"{where}: row of instance {t.ids[bad[0]]} sums to {sums[bad[0]]!r}")
        expected = np.isin(t.ids, read_feature_ids(Path(features_dir) / f"part_{pid:03d}.pfv"))
        if not np.array_equal(t.activated, expected):
            k = int(np.flatnonzero(t.activated != expected)[0])
            raise CheckFailed(f"{where}: activation flag of instance {t.ids[k]} disagrees with the features")
        off = ~t.activated
        if not np.array_equal(t.P[off], P0[off]):
            k = int(np.flatnonzero(off & np.any(t.P != P0, axis=1))[0])
            raise CheckFailed(f"{where}: inactive row of instance {t.ids[k]} is not the global row")


def check_weights(weights_dir: Path, split: Split, n_parts: int) -> None:
    """One finite clamped weight per part, the pair count, and the grid's argmax."""
    w = read_weights(Path(weights_dir) / "weights.tsv")
    if w.shape[0] != n_parts:
        raise CheckFailed(f"{weights_dir}/weights.tsv: {w.shape[0]} weights for {n_parts} parts")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise CheckFailed(f"{weights_dir}/weights.tsv: weights not finite and >= 0 under --clamp: {w}")
    config = json.loads((Path(weights_dir) / "manifest.json").read_text(encoding="utf-8"))["config"]
    want_pairs = split.ids.shape[0] * split.n_identities
    if config["n_pairs"] != want_pairs:
        raise CheckFailed(f"{weights_dir}: n_pairs {config['n_pairs']} != {want_pairs} instances x identities")
    with open(Path(weights_dir) / "gridsearch.csv", encoding="utf-8", newline="") as f:
        grid = sorted((float(r["C"]), float(r["balanced_accuracy"])) for r in csv.DictReader(f))
    if not grid:
        raise CheckFailed(f"{weights_dir}/gridsearch.csv: empty grid")
    top = max(acc for _, acc in grid)
    want_C = next(C for C, acc in grid if acc >= top - 1e-12)
    if config["best_C"] != want_C:
        raise CheckFailed(f"{weights_dir}: best_C {config['best_C']!r}, grid argmax is {want_C!r}")


def check_accuracy(report_path: Path, tables_dir: Path, halves_path: Path, weights: np.ndarray, split: Split) -> None:
    """The eval accuracy equals the argmax accuracy of the fused test tables.

    Instances whose two best fused scores lie within the float32 tie tolerance
    may go either way; each one widens the allowed count difference by one.
    """
    tables = read_tables(tables_dir)
    if len(tables) != weights.shape[0]:
        raise CheckFailed(f"{tables_dir}: {len(tables)} tables for {weights.shape[0]} weights")
    fused = sum(w * tables[pid].P.astype(np.float64) for pid, w in enumerate(weights))
    ids = tables[0].ids
    truth = np.asarray([split.label_of[i] for i in ids.tolist()])
    top2 = np.sort(fused, axis=1)[:, -2:]
    tied = (top2[:, 1] - top2[:, 0]) <= TIE_TOL * float(np.sum(np.abs(weights)))
    hits = np.argmax(fused, axis=1) == truth
    half_of = dict(tuple(map(int, line.split("\t"))) for line in Path(halves_path).read_text(encoding="utf-8").splitlines())
    half = np.asarray([half_of[i] for i in ids.tolist()])
    report = read_report(report_path)
    if int(report["n_test"]) != ids.shape[0]:
        raise CheckFailed(f"{report_path}: n_test {report['n_test']} != {ids.shape[0]} kept instances")
    for h in (0, 1):
        n_h = int(np.sum(half == h))
        reported = float(report[f"half_accuracy_{h}"]) * n_h
        ours = int(np.sum(hits[half == h]))
        slack = int(np.sum(tied[half == h]))
        if abs(reported - ours) > slack + 1e-6:
            raise CheckFailed(
                f"{report_path}: half {h} has {reported:.3f} correct, fused tables give {ours} (ties {slack})"
            )


def check_matching(activations_path: Path, expected: list[tuple]) -> None:
    """The matcher's activation table equals the one implied by the oracle's assignment."""
    got = [
        (int(f[0]), int(f[1])) + tuple(float(v) for v in f[2:])
        for f in (line.split("\t") for line in Path(activations_path).read_text(encoding="utf-8").splitlines())
    ]
    if got != expected:
        k = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        raise CheckFailed(f"{activations_path}: row {k + 1} differs from the brute-force oracle")


def check_faces_split(faces_dir: Path, ablation_dir: Path, split: Split, face_features: Path) -> None:
    """Face count from the face features; faces and non-faces add up to ablation 'all'.

    The sum is exact because both protocols score the same half-split models
    with uniform weights, and with equal halves the mean of the half
    accuracies is the overall accuracy.
    """
    faces = read_report(Path(faces_dir) / "report_faces.txt")
    nonfaces = read_report(Path(faces_dir) / "report_nonfaces.txt")
    n_faces = int(np.sum(np.isin(split.ids, read_feature_ids(face_features))))
    if int(faces["n_test"]) != n_faces:
        raise CheckFailed(f"{faces_dir}: n_test {faces['n_test']} != {n_faces} face rows in {face_features.name}")
    n = split.ids.shape[0]
    if int(faces["n_test"]) + int(nonfaces["n_test"]) != n:
        raise CheckFailed(f"{faces_dir}: faces and non-faces do not cover the {n} kept instances")
    correct = [
        _whole(int(r["n_test"]) * float(r["accuracy"]), faces_dir)
        for r in (faces, nonfaces)
    ]
    all_correct = _whole(n * float(read_report(Path(ablation_dir) / "report_all.txt")["accuracy"]), ablation_dir)
    if sum(correct) != all_correct:
        raise CheckFailed(f"{faces_dir}: {correct[0]} + {correct[1]} correct, ablation 'all' has {all_correct}")


def _whole(x: float, where: Path) -> int:
    k = round(x)
    if abs(x - k) > 1e-6:
        raise CheckFailed(f"{where}: {x!r} is not a whole number of correct instances")
    return k


def check_oneshot(curve_path: Path, shots: tuple[int, ...]) -> None:
    curve = read_curve(curve_path)
    if [x for x, _ in curve] != [float(s) for s in shots]:
        raise CheckFailed(f"{curve_path}: curve x values {[x for x, _ in curve]} != shots {shots}")
    means = [m for _, m in curve]
    if any(b <= a for a, b in zip(means, means[1:])):
        raise CheckFailed(f"{curve_path}: mean accuracy does not rise strictly with shots: {means}")


def check_retrieval(curve_path: Path, ks: tuple[int, ...]) -> None:
    curve = read_curve(curve_path)
    if [x for x, _ in curve] != [float(k) for k in ks]:
        raise CheckFailed(f"{curve_path}: curve K values {[x for x, _ in curve]} != {ks}")
    recalls = [r for _, r in curve]
    if any(not (0.0 <= r <= 1.0) for r in recalls):
        raise CheckFailed(f"{curve_path}: recall@K outside [0, 1]: {recalls}")
    if any(b < a for a, b in zip(recalls, recalls[1:])):
        raise CheckFailed(f"{curve_path}: recall@K falls as K grows: {recalls}")
