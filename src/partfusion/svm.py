"""Linear SVMs trained by seeded mini-batch stochastic subgradient descent.

One loop fits a stack of independent problems. One-vs-rest multiclass
training is one problem vectorized over classes: every class row shares the
same mini-batch schedule, so a K-class model costs one pass over the data per
epoch regardless of K. A binary grid (``train_binary`` given several configs)
is one problem per config: each grid row has its own C, its own permutation
stream seeded from its own config seed, so its own batches, and its own step
scale and rollbacks, and equals a separate one-config fit bit for bit. The
rows share only the Python-level loop. The learning-rate schedule is
eta_t = step_scale / (lambda * t) with lambda = 1 / (C * n).

The loop gathers the rows of 128 mini-batches per problem with one
``np.take`` and computes their step sizes in one division, so each step
works on slice views of that block; the batches, their order and every
update stay those of a gather per step. The epoch objective computes its
scores in row blocks small enough that OpenBLAS keeps each product on one
thread; each row's dot product, and so the objective, is unchanged.

The recorded objective history is non-increasing per class by construction:
at each epoch boundary the full-data objective is evaluated, and any class
whose objective got worse is rolled back to its previous weights and retries
later epochs with a halved step scale. The history reflects the weights
actually kept, never an optimistic number.

Model file format (binary): magic ``PLM1``, n_classes u32 LE, d u32 LE,
class_index (n_classes x i64 LE), weights (n_classes x d float64 LE,
row-major), biases (n_classes float64 LE). No timestamps, so writes are
byte-stable. A file whose length disagrees with its header is rejected.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import atomic_write_bytes

__all__ = [
    "LinearModel",
    "ModelGrid",
    "TrainConfig",
    "hinge_objective",
    "hinge_subgradient",
    "load_model",
    "mix_seed",
    "predict_classes",
    "read_model_bytes",
    "save_model",
    "score",
    "softmax",
    "train_binary",
    "train_multiclass",
    "write_model_bytes",
]

_MODEL_MAGIC = b"PLM1"

# Mini-batches per problem gathered by one ``np.take`` in `_run_sgd`; a block
# spans whole batches, so no batch straddles two blocks.
_GATHER_BLOCK_BATCHES = 128
# Rows per product in `hinge_objective`. OpenBLAS runs a product this small on
# one thread; a threaded product leaves its idle thread spinning through the
# thousands of small steps that follow each epoch's objective.
_OBJECTIVE_BLOCK_ROWS = 8192


def mix_seed(*parts: int) -> int:
    """Fold integer components into one stable scalar seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0] % (2**31))


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the stochastic subgradient trainer."""

    C: float = 1.0
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    class_weighting: str = "uniform"  # "uniform" | "inverse-frequency"
    fit_bias: bool = True
    step_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.class_weighting not in ("uniform", "inverse-frequency"):
            raise ValueError(f"unknown class weighting {self.class_weighting!r}")


@dataclass
class LinearModel:
    """Per-class linear scorer: score(x)[k] = W[k] . x + b[k].

    ``class_index[k]`` is the external label of row k (distinct training
    labels, ascending). A binary model has one row scoring the positive class.
    """

    W: np.ndarray  # (n_classes, d) float64
    b: np.ndarray  # (n_classes,) float64
    class_index: np.ndarray  # (n_classes,) int64
    objective_history: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.class_index = np.asarray(self.class_index, dtype=np.int64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError("W must be (n_classes, d) with matching bias vector")
        if self.class_index.shape != (self.W.shape[0],):
            raise ValueError("class_index length must match W rows")
        if np.unique(self.class_index).size != self.class_index.size:
            raise ValueError("class_index has duplicates")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValueError("non-finite model parameters")

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.dim:
            raise ValueError(f"feature dim {X.shape[-1]} != model dim {self.dim}")
        return X @ self.W.T + self.b


def score(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """Raw class scores for one feature vector, in class_index order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("score takes a single feature vector")
    return model.scores(x[None, :])[0]


def softmax(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Exp-normalize scores along the last axis, max-subtracted for stability."""
    z = np.asarray(scores, dtype=np.float64)
    if z.shape[-1] == 0:
        raise ValueError("softmax of an empty score vector")
    z = z / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict_classes(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Argmax label per row; ties resolve to the lowest class_index entry."""
    return model.class_index[np.argmax(model.scores(X), axis=1)]


def _signs(y_pos: np.ndarray, n_classes: int) -> np.ndarray:
    """One-vs-rest sign matrix: (n, n_classes) of +-1; +1 where y_pos == class row."""
    return np.where(y_pos[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)


def _weight_columns(class_weights: np.ndarray) -> np.ndarray:
    """Lift an (n,) per-example weight vector to a broadcastable column."""
    w = np.asarray(class_weights, dtype=np.float64)
    return w[:, None] if w.ndim == 1 else w


def _row_blocked_scores(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``X @ W.T + b``, one product per `_OBJECTIVE_BLOCK_ROWS` rows.

    Each row's dot products are the unblocked ones, so the scores are
    bit-identical; a dataset of at most one block takes a single product.
    """
    out = np.empty((X.shape[0], W.shape[0]))
    for start in range(0, X.shape[0], _OBJECTIVE_BLOCK_ROWS):
        stop = start + _OBJECTIVE_BLOCK_ROWS
        np.matmul(X[start:stop], W.T, out=out[start:stop])
    out += b
    return out


def hinge_objective(
    W: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    y_pos: np.ndarray,
    lam: float,
    class_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-class regularized hinge objective.

    F_c = (lam/2) ||W_c||^2 + (1/n) sum_i cw_ic * max(0, 1 - s_ic (W_c.x_i + b_c))

    where s_ic is +1 when y_pos_i == c else -1, and y_pos holds class row
    positions (0-based). The bias is unregularized. ``class_weights`` is an
    (n, n_classes) per-example weight matrix, or an (n,) vector applied to
    every class column; omitted means all ones.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    S = _signs(np.asarray(y_pos), W.shape[0])
    margins = S * _row_blocked_scores(X, W, b)
    hinge = np.maximum(0.0, 1.0 - margins)
    if class_weights is not None:
        hinge = hinge * _weight_columns(class_weights)
    return 0.5 * lam * np.sum(W * W, axis=1) + hinge.sum(axis=0) / n


def hinge_subgradient(
    W: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    y_pos: np.ndarray,
    lam: float,
    class_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Subgradient of `hinge_objective` in (W, b); shapes match the inputs.

    At hinge kinks (margin exactly 1) the zero branch is taken, a valid
    subgradient choice.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    S = _signs(np.asarray(y_pos), W.shape[0])
    margins = S * (X @ W.T + b)
    active = (margins < 1.0).astype(np.float64)
    if class_weights is not None:
        active = active * _weight_columns(class_weights)
    coef = active * S  # (n, n_classes)
    gW = lam * W - (coef.T @ X) / n
    gb = -coef.sum(axis=0) / n
    return gW, gb


def _inverse_frequency_weights(y_pos: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-example OvR weights giving both sides of each class equal mass."""
    n = y_pos.shape[0]
    pos_counts = np.bincount(y_pos, minlength=n_classes).astype(np.float64)
    neg_counts = n - pos_counts
    if np.any(pos_counts == 0) or np.any(neg_counts == 0):
        raise ValueError("inverse-frequency weighting needs both sides of every class")
    is_pos = y_pos[:, None] == np.arange(n_classes)[None, :]
    return np.where(is_pos, n / (2.0 * pos_counts), n / (2.0 * neg_counts))


def _sgd_step(
    W: np.ndarray,
    b: np.ndarray,
    Xb: np.ndarray,
    Sb: np.ndarray,
    CSb: np.ndarray,
    lam: np.ndarray,
    eta: np.ndarray,
    fit_bias: bool,
) -> None:
    """One mini-batch step on a stack of G problems, updating W and b in place.

    Shapes: W (G, K, d), b (G, K), Xb (G, B, d) the batch rows, Sb (G, B, K)
    their signs, CSb (G, B, K) their signs times class weights, lam (G, 1, 1),
    eta (G, K). Per problem the arithmetic is `hinge_subgradient`'s, operation
    for operation, so each slice is bit-identical to a separate fit; batched
    ``matmul`` keeps that where ``einsum`` would reorder the sums.
    """
    margins = Sb * (Xb @ W.transpose(0, 2, 1) + b[:, None, :])
    coef = (margins < 1.0) * CSb
    n = Xb.shape[1]
    W -= eta[:, :, None] * (lam * W - (coef.transpose(0, 2, 1) @ Xb) / n)
    if fit_bias:
        b -= eta * (-coef.sum(axis=1) / n)


def _run_sgd(
    X: np.ndarray,
    y_pos: np.ndarray,
    n_classes: int,
    cfgs: tuple[TrainConfig, ...],
    class_weights: np.ndarray | None,
    row_ids: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Fit a stack of independent problems, one per config, in one loop.

    Problem g has ``n_classes`` rows sharing one mini-batch schedule, its own
    lambda = 1 / (C_g * n), its own permutation stream seeded from
    ``cfgs[g].seed`` and its own step scales and rollbacks. So problem g is
    bit-identical to fitting ``cfgs[g]`` alone. Returns W (G, K, d), b (G, K)
    and the per-epoch objectives, each (G, K).

    Each epoch walks its permutations in blocks of `_GATHER_BLOCK_BATCHES`
    batches: one ``np.take`` each for X, S and CS, and one division for the
    block's step sizes step_scale / (lambda * t), with t as float64. The
    block is a whole number of batches, so each step takes a slice of it
    holding exactly the rows a per-step gather would; only the epoch's last
    batch may be short.
    """
    X = np.asarray(X, dtype=np.float64)
    y_pos = np.asarray(y_pos, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y_pos.shape[0]:
        raise ValueError("features and labels disagree on row count")
    n, d = X.shape
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    shared = {replace(c, C=1.0, seed=0, step_scale=1.0) for c in cfgs}
    if len(shared) != 1:
        raise ValueError("stacked configs may differ only in C, seed and step_scale")
    cfg = cfgs[0]

    # canonical row order: the result must not depend on caller row order
    if row_ids is not None:
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.shape != (n,):
            raise ValueError("row_ids length must match rows")
        order = np.argsort(row_ids, kind="stable")
        X, y_pos = X[order], y_pos[order]
        if class_weights is not None:
            class_weights = class_weights[order]

    G = len(cfgs)
    lam = np.asarray([1.0 / (c.C * n) for c in cfgs])
    W = np.zeros((G, n_classes, d))
    b = np.zeros((G, n_classes))
    step_scale = np.repeat([[c.step_scale] for c in cfgs], n_classes, axis=1)
    S = _signs(y_pos, n_classes)
    CS = S if class_weights is None else _weight_columns(class_weights) * S

    def objective() -> np.ndarray:
        return np.stack([hinge_objective(W[g], b[g], X, y_pos, lam[g], class_weights) for g in range(G)])

    history = [objective()]
    rngs = [np.random.default_rng(np.random.SeedSequence([c.seed, n, d, n_classes])) for c in cfgs]
    perm = np.empty((G, n), dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)

    lam_rows, lam_steps = lam[:, None], lam[:, None, None]
    B = cfg.batch_size
    block = _GATHER_BLOCK_BATCHES * B
    t = 0
    for _epoch in range(cfg.epochs):
        prev_W, prev_b = W.copy(), b.copy()
        prev_obj = history[-1]
        for g, rng in enumerate(rngs):
            perm[g] = rng.permutation(n)
        for start in range(0, n, block):
            idx = perm[:, start : start + block]
            Xs, Ss, CSs = np.take(X, idx, axis=0), np.take(S, idx, axis=0), np.take(CS, idx, axis=0)
            steps = -(-idx.shape[1] // B)  # the epoch's last batch may be short
            ts = np.arange(t + 1, t + steps + 1, dtype=np.float64)
            etas = step_scale / (lam_rows * ts[:, None, None])
            t += steps
            for j in range(steps):
                rows = slice(j * B, (j + 1) * B)
                _sgd_step(W, b, Xs[:, rows], Ss[:, rows], CSs[:, rows], lam_steps, etas[j], cfg.fit_bias)
        obj = objective()
        worse = obj > prev_obj
        if np.any(worse):
            # reject the epoch for regressed rows and damp their step
            W[worse] = prev_W[worse]
            b[worse] = prev_b[worse]
            step_scale[worse] *= 0.5
            obj = np.where(worse, prev_obj, obj)
        history.append(obj)

    return W, b, history


def train_multiclass(
    X: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig = TrainConfig(),
    row_ids: np.ndarray | None = None,
) -> LinearModel:
    """One-vs-rest multiclass linear SVM.

    ``class_index`` of the result is the distinct labels present, ascending.
    ``row_ids`` (when given) defines a canonical row order, making the model
    invariant to permutations of the training rows.
    """
    labels = np.asarray(labels, dtype=np.int64)
    class_index = np.unique(labels)
    if class_index.size < 2:
        raise ValueError("degenerate problem: need at least 2 distinct labels")
    y_pos = np.searchsorted(class_index, labels)
    cw = None
    if cfg.class_weighting == "inverse-frequency":
        cw = _inverse_frequency_weights(y_pos, class_index.size)
    W, b, history = _run_sgd(X, y_pos, class_index.size, (cfg,), cw, row_ids)
    return LinearModel(W[0], b[0], class_index, objective_history=[h[0] for h in history])


@dataclass(frozen=True)
class ModelGrid:
    """Binary models fitted side by side on one dataset, one per config.

    ``models[k]`` is bit-identical to ``train_binary(X, y, cfgs[k])``.
    """

    models: tuple[LinearModel, ...]

    @property
    def objective_history(self) -> list[np.ndarray]:
        """Per epoch, every model's objective in config order."""
        return [np.concatenate(epoch) for epoch in zip(*(m.objective_history for m in self.models))]


def train_binary(
    X: np.ndarray,
    y_pm: np.ndarray,
    cfg: TrainConfig | Sequence[TrainConfig] = TrainConfig(class_weighting="inverse-frequency"),
    row_ids: np.ndarray | None = None,
) -> LinearModel | ModelGrid:
    """Binary linear SVM on +-1 labels; one weight row scoring the positive class.

    With ``class_weighting="inverse-frequency"`` each example is weighted by
    n / (2 * n_its_side), so both sides contribute equal total loss mass.
    Given a sequence of configs (differing only in C, seed and step_scale),
    fits one model per config in a single pass and returns a `ModelGrid`.
    """
    cfgs = (cfg,) if isinstance(cfg, TrainConfig) else tuple(cfg)
    if not cfgs:
        raise ValueError("no training configs")
    y_pm = np.asarray(y_pm, dtype=np.int64)
    if not np.all(np.isin(y_pm, (-1, 1))):
        raise ValueError("binary labels must be +-1")
    if np.unique(y_pm).size < 2:
        raise ValueError("degenerate problem: both classes must be present")
    # one class row (index 0); positives must satisfy y_pos == 0 to get sign +1
    y_pos = np.where(y_pm > 0, 0, 1)
    cw = None
    if cfgs[0].class_weighting == "inverse-frequency":
        n = y_pm.shape[0]
        n_pos = int(np.sum(y_pm > 0))
        per_example = np.where(y_pm > 0, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
        cw = per_example[:, None]
    W, b, history = _run_sgd(X, y_pos, 1, cfgs, cw, row_ids)
    models = tuple(
        LinearModel(W[g], b[g], np.asarray([1], dtype=np.int64), objective_history=[h[g] for h in history])
        for g in range(len(cfgs))
    )
    return models[0] if isinstance(cfg, TrainConfig) else ModelGrid(models)


def write_model_bytes(model: LinearModel) -> bytes:
    header = _MODEL_MAGIC + struct.pack("<II", model.n_classes, model.dim)
    return (
        header
        + model.class_index.astype("<i8").tobytes()
        + model.W.astype("<f8").tobytes()
        + model.b.astype("<f8").tobytes()
    )


def read_model_bytes(buf: bytes) -> LinearModel:
    if buf[:4] != _MODEL_MAGIC:
        raise ValueError(f"bad model magic {buf[:4]!r}")
    if len(buf) < 12:
        raise ValueError(f"model header needs 12 bytes, got {len(buf)}")
    n_classes, d = struct.unpack("<II", buf[4:12])
    expected = 12 + 8 * n_classes * (d + 2)
    if len(buf) != expected:
        raise ValueError(f"model of {n_classes} classes x {d} dims needs {expected} bytes, got {len(buf)}")
    off = 12
    class_index = np.frombuffer(buf[off : off + n_classes * 8], dtype="<i8")
    off += n_classes * 8
    W = np.frombuffer(buf[off : off + n_classes * d * 8], dtype="<f8").reshape(n_classes, d)
    off += n_classes * d * 8
    b = np.frombuffer(buf[off : off + n_classes * 8], dtype="<f8")
    return LinearModel(W.copy(), b.copy(), class_index.copy())


def save_model(path: str | Path, model: LinearModel) -> None:
    atomic_write_bytes(path, write_model_bytes(model))


def load_model(path: str | Path) -> LinearModel:
    try:
        return read_model_bytes(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
