"""Sparsity filling, linear late fusion, and mixing-weight learning.

The model: each part i yields a distribution P_i(y|X) over identities, dense
after sparsity filling. The fused score is s(X, y) = sum_i w_i P_i(y|X) and
the prediction is argmax_y s(X, y).

Sparsity filling replaces what a part cannot know with global-model mass:
a part that did not activate contributes the global row unchanged; a part
that activated but was trained on a subset F_i of identities contributes

    P_i(y|X) = P(y in F_i) * p_hat_i(y|X) + P(y not in F_i) * P_0(y|X)

with P(y in F_i) = sum_{y' in F_i} P_0(y'|X). Both branches preserve
normalization exactly.

File formats owned here:

* probability table (binary): magic ``PPT1``, part_id u32 LE, |Y| u32 LE,
  n u32 LE; then n rows of (instance_id u64 LE, activation flag u8,
  |Y| x float32 LE).
* fusion weights (text): one ``part_id<TAB>weight`` line per part in part_id
  order, then a trailing ``bias<TAB>value`` line. UTF-8, LF.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import atomic_write_bytes, atomic_write_text, read_records, read_tsv_rows, require_header
from .svm import train_binary

__all__ = [
    "FusionWeights",
    "ProbabilityTable",
    "WeightLearningInfo",
    "fill_sparsity",
    "fill_sparsity_rows",
    "fuse_matrix",
    "learn_weights",
    "read_prob_table",
    "read_weights",
    "write_prob_table",
    "write_weights",
]

# The C values weight learning searches: 2^-8, 2^-6, ..., 2^8.
DEFAULT_C_GRID = tuple(2.0**k for k in range(-8, 9, 2))

_TABLE_MAGIC = b"PPT1"
_TABLE_HEADER_BYTES = 16  # magic, part_id, n_y, n
# Rows per step of the elementwise work in `fill_sparsity_rows` and
# `fuse_matrix`: the step sets only the size of their temporaries.
_BLOCK_ROWS = 64


@dataclass
class ProbabilityTable:
    """Per-part identity distributions for a set of instances.

    ``P[j]`` is a distribution over the protocol's identity set for instance
    ``instance_ids[j]``; ``activated[j]`` records whether the part fired on
    that instance (pre-filling provenance; filled rows are dense either way).
    ``P`` is held as float32, the precision a table file stores, so each row
    sums to 1 only within the format's 1e-3; `learn_weights` renormalizes.
    """

    part_id: int
    instance_ids: np.ndarray  # (n,) int64, strictly increasing
    P: np.ndarray  # (n, |Y|) float32
    activated: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        self.instance_ids = np.asarray(self.instance_ids, dtype=np.int64)
        self.P = np.asarray(self.P, dtype=np.float32)
        self.activated = np.asarray(self.activated, dtype=bool)
        n = self.instance_ids.shape[0]
        if self.P.ndim != 2 or self.P.shape[0] != n or self.activated.shape != (n,):
            raise ValueError("instance_ids, P, activated disagree on row count")
        order = np.argsort(self.instance_ids, kind="stable")
        if not np.array_equal(order, np.arange(n)):
            self.instance_ids = self.instance_ids[order]
            self.P = self.P[order]
            self.activated = self.activated[order]
        if n and np.any(np.diff(self.instance_ids) == 0):
            raise ValueError(f"duplicate instance ids in table for part {self.part_id}")
        if self.P.size and not (self.P.min() >= -1e-9 and self.P.max() <= 1.0 + 1e-9):
            raise ValueError("probability entries outside [0, 1]")
        if n and np.max(np.abs(self.P.sum(axis=1, dtype=np.float64) - 1.0)) > 1e-3:
            raise ValueError("rows must sum to 1 within 1e-3")

    @property
    def n_identities(self) -> int:
        return self.P.shape[1]


def write_prob_table(path: str | Path, table: ProbabilityTable) -> None:
    n, n_y = table.P.shape
    header = _TABLE_MAGIC + struct.pack("<III", table.part_id, n_y, n)
    rec = np.dtype([("id", "<u8"), ("act", "u1"), ("p", "<f4", (n_y,))])
    body = np.empty(n, dtype=rec)
    body["id"] = table.instance_ids
    body["act"] = table.activated
    body["p"] = table.P
    atomic_write_bytes(path, header, body)


def read_prob_table(path: str | Path) -> ProbabilityTable:
    """Read a table file; a table that breaks a `ProbabilityTable` rule fails naming ``path``.

    ``P`` is a read-only view of the file's float32 records, so a read holds
    the file's bytes and no copy of them.
    """
    buf = Path(path).read_bytes()
    if buf[:4] != _TABLE_MAGIC:
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    require_header(path, buf, _TABLE_HEADER_BYTES)
    part_id, n_y, n = struct.unpack("<III", buf[4:_TABLE_HEADER_BYTES])
    rec = np.dtype([("id", "<u8"), ("act", "u1"), ("p", "<f4", (n_y,))])
    body = read_records(path, buf, _TABLE_HEADER_BYTES, rec, n)
    try:
        return ProbabilityTable(part_id, body["id"].astype(np.int64), body["p"], body["act"].astype(bool))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def fill_sparsity(
    p_hat: np.ndarray | None,
    p0_row: np.ndarray,
    F_i: np.ndarray,
    activated: bool,
) -> np.ndarray:
    """Densify one part's prediction for one instance.

    Not activated: the global row, exactly. Activated: blend p_hat (supported
    on F_i, zero elsewhere) with the global row, weighted by how much global
    mass sits on F_i. Raises if p_hat carries mass outside F_i. The blend is
    `fill_sparsity_rows` on one row.
    """
    p0_row = np.asarray(p0_row, dtype=np.float64)
    if activated:
        if p_hat is None:
            raise ValueError("activated fill needs a part prediction")
        p_hat = np.asarray(p_hat, dtype=np.float64)
        if p_hat.shape != p0_row.shape:
            raise ValueError("p_hat and p0_row must share the identity set")
        outside = np.ones(p_hat.shape[0], dtype=bool)
        outside[np.asarray(F_i, dtype=np.int64)] = False
        if np.any(p_hat[outside] != 0.0):
            raise ValueError("p_hat has mass outside the part's coverage set")
    else:
        p_hat = p0_row  # not consulted
    return fill_sparsity_rows(p_hat[None], p0_row[None], F_i, np.asarray([bool(activated)]))[0]


def fill_sparsity_rows(
    P_hat: np.ndarray,
    P0: np.ndarray,
    F_i: np.ndarray,
    activated: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sparsity filling over a block of instances, one row per instance.

    ``P_hat`` rows are consulted only where ``activated`` is set. Returns a
    new array whose inactive rows copy the global rows. Given ``out``, which
    may be ``P_hat`` itself, only the activated rows of ``out`` are written
    and its other rows are left as they are: a caller that keeps the global
    rows there, or fills several row sets of one table, makes no copy.

    The coverage masses of several activated rows are summed column by
    column over F_i, the order in which numpy sums their (rows, |F_i|)
    gather ``P0[activated][:, F_i]``, without making that gather; one row's
    mass is the pairwise sum numpy takes of a single row. The blend is
    elementwise and runs `_BLOCK_ROWS` activated rows at a time.
    """
    P0 = np.asarray(P0, dtype=np.float64)
    P_hat = np.asarray(P_hat, dtype=np.float64)
    if out is None:
        out = P0.copy()
    rows = np.flatnonzero(np.asarray(activated, dtype=bool))
    if rows.size == 0:
        return out
    F_i = np.asarray(F_i, dtype=np.int64)
    if F_i.size == 0:
        mass = np.zeros(rows.size)
    elif rows.size == 1:
        mass = P0[rows[0], F_i].sum(keepdims=True)  # pairwise, as numpy sums one row's gather
    else:
        mass = P0[rows, F_i[0]]
        for f in F_i[1:].tolist():
            mass += P0[rows, f]
    for start in range(0, rows.size, _BLOCK_ROWS):
        block, m = rows[start : start + _BLOCK_ROWS], mass[start : start + _BLOCK_ROWS, None]
        # mass * P_hat + (1 - mass) * P0, blended in the gathered copies
        blend = P_hat[block]
        blend *= m
        P0_block = P0[block]
        P0_block *= 1.0 - m
        blend += P0_block
        out[block] = blend
    return out


@dataclass(frozen=True)
class FusionWeights:
    """Per-part mixing weights, indexed by part_id; part 0 is the global part.

    The bias comes along from the trained SVM but plays no role in fused
    scoring (a constant shift cannot move an argmax over identities).
    """

    w: np.ndarray  # (K+1,) float64
    bias: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        if self.w.ndim != 1:
            raise ValueError("w must be a vector")
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.bias)):
            raise ValueError("non-finite fusion weights")

    def __len__(self) -> int:
        return self.w.shape[0]


def write_weights(path: str | Path, fw: FusionWeights) -> None:
    lines = [f"{i}\t{w!r}" for i, w in enumerate(fw.w.tolist())]
    lines.append(f"bias\t{float(fw.bias)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_weights(path: str | Path) -> FusionWeights:
    """Read a weights file; the bias is 0 when no ``bias`` line is present.

    A repeated part id or ``bias`` line, or a non-finite value, fails with
    ``path:line``.
    """
    w: dict[int, float] = {}
    bias: float | None = None
    for where, (key, value) in read_tsv_rows(path, 2):
        try:
            number = float(value)
            part_id = None if key == "bias" else int(key)
        except ValueError:
            raise ValueError(f"{where}: expected a part id or 'bias' and a number, got {key!r}, {value!r}") from None
        if not np.isfinite(number):
            raise ValueError(f"{where}: expected a finite number, got {value!r}")
        if part_id is None and bias is not None:
            raise ValueError(f"{where}: bias is listed twice")
        if part_id in w:
            raise ValueError(f"{where}: part {part_id} is listed twice")
        if part_id is None:
            bias = number
        else:
            w[part_id] = number
    if sorted(w) != list(range(len(w))):
        raise ValueError(f"{path}: part ids must be contiguous from 0")
    return FusionWeights(np.asarray([w[i] for i in range(len(w))]), 0.0 if bias is None else bias)


def fuse_matrix(prob: Iterable[tuple[int, np.ndarray]], fw: FusionWeights) -> np.ndarray:
    """Weighted sum of per-part probability matrices (rows aligned across parts).

    ``prob`` yields (part id, matrix) pairs in ascending part order, so each
    part can be fused as it is computed: s = w_0 P_0, then s = s + w_k P_k,
    added `_BLOCK_ROWS` rows at a time so that no full-size w_k P_k is made.
    """
    s: np.ndarray | None = None
    for part_id, P in prob:
        if part_id >= len(fw):
            raise ValueError(f"no fusion weight for part {part_id}")
        if s is None:
            s = fw.w[part_id] * P
            continue
        if np.shape(P) != s.shape:
            raise ValueError(f"part {part_id} matrix is {np.shape(P)}, the first part's is {s.shape}")
        for start in range(0, s.shape[0], _BLOCK_ROWS):
            s[start : start + _BLOCK_ROWS] += fw.w[part_id] * P[start : start + _BLOCK_ROWS]
    if s is None:
        raise ValueError("fuse needs at least one part")
    return s


@dataclass(frozen=True)
class WeightLearningInfo:
    """Bookkeeping from learn_weights: the grid search trace."""

    best_C: float
    grid_scores: tuple[tuple[float, float], ...]  # (C, balanced accuracy on held-out pairs)
    n_pairs: int
    grid_objectives: tuple[float, ...]  # final half-0 training objective per grid C, in grid order


def _balanced_accuracy(y_true_pm: np.ndarray, y_pred_pm: np.ndarray) -> float:
    pos = y_true_pm > 0
    tpr = float(np.mean(y_pred_pm[pos] > 0)) if np.any(pos) else 0.0
    tnr = float(np.mean(y_pred_pm[~pos] < 0)) if np.any(~pos) else 0.0
    return 0.5 * (tpr + tnr)


def learn_weights(
    tables: dict[int, ProbabilityTable],
    labels_of: dict[int, int],
    halves: dict[int, int],
    clamp_nonnegative: bool = False,
) -> tuple[FusionWeights, WeightLearningInfo]:
    """Learn per-part mixing weights from filled validation tables.

    The tables must already follow the half-split protocol (each instance's
    probabilities produced by models trained on the opposite half; ``halves``
    maps instance_id to 0 or 1). Weight learning classifies (instance,
    identity) pairs: one example per (instance j, identity y), feature vector
    [P_0(y|X_j), ..., P_K(y|X_j)], label +1 iff y is j's identity, in
    (instance, identity) order. The pair classifier is `train_binary`'s
    inverse-frequency weighted L2-loss (squared hinge) linear SVM with a
    fitted bias. One call fits `DEFAULT_C_GRID` on half-0 pairs, each C from
    the previous optimum, and balanced accuracy on half-1 pairs scores each C.
    The final weights come from a one-C call that refits all pairs at the best
    C (ties: smaller C), starting from that C's half-0 model.

    The pairs live in one (n, |Y|, K+1) float64 array. Each table's float32
    rows are widened into its column and divided there by their sums. The
    call empties ``tables`` as the array fills, so a table the caller holds
    no other reference to is freed; the tables themselves are left as they
    were, and a second call on the emptied dict is rejected. The half-0 and
    half-1 pair sets are gathered from the array by instance, one after the
    other.
    """
    if not tables:
        raise ValueError("no probability tables (learn_weights empties the dict it is given)")
    part_ids = sorted(tables)
    ids = tables[part_ids[0]].instance_ids
    n_y = tables[part_ids[0]].n_identities
    if n_y < 2:
        raise ValueError("need at least 2 identities to learn weights")
    # a generator, so no loop name keeps a table alive: the stack loop below frees each table it takes
    if any(not np.array_equal(t.instance_ids, ids) or t.n_identities != n_y for t in map(tables.get, part_ids[1:])):
        raise ValueError("tables disagree on instances or identity set")
    truth = np.asarray([labels_of[i] for i in ids.tolist()], dtype=np.int64)
    half = np.asarray([halves[i] for i in ids.tolist()], dtype=np.int64)
    fit_rows, held_rows = np.flatnonzero(half == 0), np.flatnonzero(half == 1)
    if fit_rows.size == 0 or held_rows.size == 0:
        raise ValueError("both halves must contribute pairs")

    stack = np.empty((ids.shape[0], n_y, len(part_ids)))
    for k, pid in enumerate(part_ids):
        P = stack[:, :, k]
        P[...] = tables.pop(pid).P
        # numpy sums each strided row in the order it sums a contiguous copy (the tests compare the bytes)
        P /= P.sum(axis=1, keepdims=True)

    def pairs(rows: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
        """The pair features and labels of these instances, in (instance, identity) order.

        Index rows gather a copy; a slice of every row gives a view of ``stack``.
        """
        y = np.where(np.arange(n_y)[None, :] == truth[rows][:, None], 1, -1)
        return stack[rows].reshape(-1, len(part_ids)), y.reshape(-1)

    grid = train_binary(*pairs(fit_rows), DEFAULT_C_GRID)
    X_held, y_held = pairs(held_rows)
    grid_scores: list[tuple[float, float]] = []
    best, best_score = 0, -1.0
    for k, (C, model) in enumerate(zip(DEFAULT_C_GRID, grid.models)):
        pred = np.where(model.scores(X_held)[:, 0] > 0.0, 1, -1)
        acc = _balanced_accuracy(y_held, pred)
        grid_scores.append((float(C), acc))
        if acc > best_score + 1e-12:
            best, best_score = k, acc
    del X_held, y_held

    X, y = pairs(slice(None))
    final = train_binary(X, y, (DEFAULT_C_GRID[best],), init=grid.models[best]).models[0]
    w = final.W[0].copy()
    if clamp_nonnegative:
        w = np.maximum(w, 0.0)
    fw = FusionWeights(w, float(final.b[0]))
    objectives = tuple(float(m.objective_history[-1][0]) for m in grid.models)
    return fw, WeightLearningInfo(float(DEFAULT_C_GRID[best]), tuple(grid_scores), int(X.shape[0]), objectives)
