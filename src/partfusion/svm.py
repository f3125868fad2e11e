"""Linear SVMs: multiclass by seeded mini-batch SGD, binary by primal Newton.

One-vs-rest multiclass training (`train_multiclass`) is stochastic
subgradient descent on the hinge loss, vectorized over classes: every class
row shares one schedule of `_BATCH_SIZE`-row mini-batches, so a K-class model
costs one pass over the data per epoch regardless of K. The learning-rate
schedule is eta_t = g_c / (lambda * t) with lambda = 1 / (C * n) and a gain
g_c per class that starts at 1. The loop gathers the rows of 128 mini-batches
with one ``np.take`` and computes their step sizes in one division, so each
step works on slice views of that block; the batches, their order and every
update stay those of a gather per step. Each step is `hinge_subgradient`'s
update on its batch, taken inline in work arrays allocated once per fit.

The recorded objective history is non-increasing per class by construction:
at each epoch boundary the full-data objective is evaluated, and any class
whose objective got worse is rolled back to its previous weights and retries
later epochs with a halved gain. The history reflects the weights actually
kept, never an optimistic number.

Binary training (`train_binary`) solves the L2-loss SVM exactly: it
minimises (lambda/2)||w||^2 + (1/n) sum_i c_i max(0, 1 - s_i(w.x_i + b))^2,
the squared hinge of LIBLINEAR's default loss, with inverse-frequency
example weights c_i and an unregularized bias, by primal Newton (Keerthi &
DeCoste, JMLR 2005; Chapelle, Neural Computation 2007). Each step builds the
gradient and the generalized Hessian over the rows inside the margin, solves
once, and takes the exact minimiser along the step; a fit stops when a full
step leaves that set of rows unchanged, which is the exact optimum, or after
`_NEWTON_MAX_STEPS`. A grid of C values is fitted in ascending C, each fit
starting from the previous optimum.

Products over a whole dataset, the scores and objectives
(`_row_blocked_scores`) and the Newton sums, run in the row blocks of
`_row_blocks`. The blocks fix the bits: they set the order of the Newton
sums, and with more than about 130 classes OpenBLAS can round a row's scores
differently in a block than in one product over every row. The SGD steps'
mini-batch products are not blocked. Imported before numpy, the package
runs OpenBLAS on one thread per process unless the caller set
``OPENBLAS_NUM_THREADS`` (see ``partfusion/__init__.py``), so none of these
products is threaded.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearModel",
    "ModelGrid",
    "TrainConfig",
    "hinge_objective",
    "hinge_subgradient",
    "softmax",
    "train_binary",
    "train_multiclass",
]

# Rows per SGD mini-batch; the epoch's last batch may be shorter.
_BATCH_SIZE = 32
# Mini-batches gathered by one ``np.take`` in `_run_sgd`; a block spans whole
# batches, so no batch straddles two blocks.
_GATHER_BLOCK_BATCHES = 128
# A row block's product with a weight matrix does about this many
# multiply-adds and spans at most `_MAX_BLOCK_ROWS` rows. The block boundaries
# set the order of the Newton sums and, above about 130 classes, the rounding
# of the scores, so other sizes would change the weights and the tables.
_BLOCK_MULTIPLY_ADDS = 200_000
_MAX_BLOCK_ROWS = 8192
# Newton steps per binary fit. A fit stops earlier, usually within ten steps,
# when a full step leaves the rows inside the margin unchanged.
_NEWTON_MAX_STEPS = 50
# Root-finding passes of the exact line search along one Newton step.
_LINE_SEARCH_MAX_STEPS = 60


def mix_seed(*parts: int) -> int:
    """Fold integer components into one stable scalar seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0] % (2**31))


def _check_C(C: float) -> None:
    # a subnormal C is positive and finite, but 1 / C, and so lambda = 1 / (C n), overflows
    if not (math.isfinite(C) and C > 0 and math.isfinite(1.0 / C)):
        raise ValueError(f"C must be a positive finite number, got {C!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Settings of `train_multiclass`: the regularization C, the epoch count and the seed."""

    C: float = 1.0
    epochs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        _check_C(self.C)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class LinearModel:
    """Per-class linear scorer: scores(X)[j, k] = W[k] . X[j] + b[k].

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
        if _distinct(self.class_index).size != self.class_index.size:
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
        """(n, n_classes) scores of the rows of an (n, d) feature matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"scores takes an (n, d) matrix, got {X.ndim} dims")
        if X.shape[1] != self.dim:
            raise ValueError(f"feature dim {X.shape[1]} != model dim {self.dim}")
        return _row_blocked_scores(X, self.W, self.b)

    def block_scores(
        self, n: int, features_of: Callable[[slice], np.ndarray]
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """`scores` of n feature rows, one `_row_blocks` block at a time.

        Yields (block, its scores), where ``features_of(block)`` gives the
        block's feature rows. Each block's product is the one `scores`
        computes for it over all n rows, so the scores are bit-identical,
        and only one block's rows and scores are held at a time.
        """
        for block in _row_blocks(n, self.dim * self.n_classes):
            scores = np.matmul(features_of(block), self.W.T)
            scores += self.b
            yield block, scores
            del scores  # before the next block's product


def softmax(scores: np.ndarray, temperature: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Exp-normalize scores along the last axis, max-subtracted for stability.

    The result goes into ``out`` when given, which may be ``scores`` itself,
    and otherwise into one new array.
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.shape[-1] == 0:
        raise ValueError("softmax of an empty score vector")
    z = np.divide(z, temperature, out=out)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending: ``np.unique``'s result without its ``numpy.ma`` import."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _signs(y_pos: np.ndarray, n_classes: int) -> np.ndarray:
    """One-vs-rest sign matrix: (n, n_classes) of +-1; +1 where y_pos == class row."""
    return np.where(y_pos[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)


def _checked_signs(X: np.ndarray, y_pos: np.ndarray, n_classes: int) -> np.ndarray:
    """`_signs` of a caller's ``y_pos``, which holds one class row position in [0, n_classes) per row of X."""
    y_pos = np.asarray(y_pos)
    if y_pos.shape != (X.shape[0],) or y_pos.dtype.kind not in "iu" or np.any((y_pos < 0) | (y_pos >= n_classes)):
        raise ValueError(f"y_pos must hold one integer in [0, {n_classes}) per row of X ({X.shape[0]})")
    return _signs(y_pos, n_classes)


def _row_blocks(n: int, multiply_adds_per_row: int) -> list[slice]:
    """Row blocks of about `_BLOCK_MULTIPLY_ADDS` for a product with a weight matrix.

    A block spans a multiple of 8 rows, at most `_MAX_BLOCK_ROWS`, and does
    about `_BLOCK_MULTIPLY_ADDS` multiply-adds. A last block shorter than
    half a block joins the one before it: OpenBLAS computes a product of a
    few rows with another kernel, whose sums can differ in the last bit.
    """
    rows = min(_MAX_BLOCK_ROWS, _BLOCK_MULTIPLY_ADDS // max(1, multiply_adds_per_row))
    step = max(8, rows // 8 * 8)
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] < step // 2:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _row_blocked_scores(
    X: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``X @ W.T + b``, one product per block of `_row_blocks`, into ``out`` when given.

    A dataset of at most one block takes a single product. For larger ones
    the blocks fix the bits: with more than about 130 classes, OpenBLAS may
    round a row's dot products differently in a block than in one product
    over every row, by up to a few units in the last place.
    """
    if out is None:
        out = np.empty((X.shape[0], W.shape[0]))
    for rows in _row_blocks(X.shape[0], X.shape[1] * W.shape[0]):
        np.matmul(X[rows], W.T, out=out[rows])
    out += b
    return out


def hinge_objective(
    W: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    y_pos: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Per-class regularized hinge objective.

    F_c = (lam/2) ||W_c||^2 + (1/n) sum_i max(0, 1 - s_ic (W_c.x_i + b_c))

    where s_ic is +1 when y_pos_i == c else -1, and y_pos holds class row
    positions (0-based). The bias is unregularized.
    """
    X = np.asarray(X, dtype=np.float64)
    return _signed_hinge_objective(W, b, X, _checked_signs(X, y_pos, W.shape[0]), lam)


def _signed_hinge_objective(
    W: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    S: np.ndarray,
    lam: float,
    scores: np.ndarray | None = None,
) -> np.ndarray:
    """`hinge_objective` on float64 X and its sign matrix S, (n, n_classes).

    ``scores``, when given, is an (n, n_classes) array the margins and hinges overwrite.
    """
    hinge = _row_blocked_scores(X, W, b, scores)
    np.multiply(S, hinge, out=hinge)
    np.subtract(1.0, hinge, out=hinge)
    np.maximum(0.0, hinge, out=hinge)
    return 0.5 * lam * (W * W).sum(axis=1) + hinge.sum(axis=0) / X.shape[0]


def hinge_subgradient(
    W: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    y_pos: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Subgradient of `hinge_objective` in (W, b); shapes match the inputs.

    At hinge kinks (margin exactly 1) the zero branch is taken, a valid
    subgradient choice.
    """
    X = np.asarray(X, dtype=np.float64)
    S = _checked_signs(X, y_pos, W.shape[0])
    coef = (S * (X @ W.T + b) < 1.0) * S
    n = X.shape[0]
    return lam * W - (coef.T @ X) / n, -coef.sum(axis=0) / n


def _run_sgd(
    X: np.ndarray,
    y_pos: np.ndarray,
    n_classes: int,
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Fit ``n_classes`` rows sharing one mini-batch schedule.

    Returns W (K, d), b (K,) and the per-epoch objectives, each (K,).

    Each epoch walks its permutation in blocks of `_GATHER_BLOCK_BATCHES`
    batches: one ``np.take`` each for X and S, and one division for the
    block's step sizes gain / (lambda * t), with t as float64. The
    block is a whole number of batches, so each step takes a slice of it
    holding exactly the rows a per-step gather would; only the epoch's last
    batch may be short. Each step takes `hinge_subgradient`'s update on its
    batch, in work arrays allocated once per fit.
    """
    X = np.asarray(X, dtype=np.float64)
    y_pos = np.asarray(y_pos, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y_pos.shape[0]:
        raise ValueError("features and labels disagree on row count")
    n, d = X.shape
    if n == 0:
        raise ValueError("cannot train on an empty dataset")

    lam = 1.0 / (cfg.C * n)
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    gain = np.ones(n_classes)
    S = _signs(y_pos, n_classes)
    scores = np.empty((n, n_classes))
    prev_W, prev_b = np.empty_like(W), np.empty_like(b)

    history = [_signed_hinge_objective(W, b, X, S, lam, scores)]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n, d, n_classes]))
    B = _BATCH_SIZE
    block = _GATHER_BLOCK_BATCHES * B
    margins = np.empty((min(B, n), n_classes))  # a step's margins, then its coef
    inside = np.empty(margins.shape, dtype=bool)
    coef_X, gW, gb = np.empty((n_classes, d)), np.empty((n_classes, d)), np.empty(n_classes)
    index_type = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    t = 0
    for _epoch in range(cfg.epochs):
        np.copyto(prev_W, W)
        np.copyto(prev_b, b)
        prev_obj = history[-1]
        perm = rng.permutation(n).astype(index_type)
        for start in range(0, n, block):
            idx = perm[start : start + block]
            Xs, Ss = X.take(idx, axis=0), S.take(idx, axis=0)
            steps = -(-idx.shape[0] // B)  # the epoch's last batch may be short
            ts = np.arange(t + 1, t + steps + 1, dtype=np.float64)
            etas = gain / (lam * ts[:, None])
            t += steps
            for j in range(steps):
                Xb, Sb = Xs[j * B : (j + 1) * B], Ss[j * B : (j + 1) * B]
                m, eta = Xb.shape[0], etas[j]
                coef, on = margins[:m], inside[:m]
                np.matmul(Xb, W.T, out=coef)
                coef += b
                coef *= Sb
                np.less(coef, 1.0, out=on)
                np.multiply(on, Sb, out=coef)
                np.matmul(coef.T, Xb, out=coef_X)
                coef_X /= m
                np.multiply(lam, W, out=gW)
                gW -= coef_X
                gW *= eta[:, None]
                W -= gW
                np.add.reduce(coef, axis=0, out=gb)
                gb /= m
                gb *= eta
                b += gb
        obj = _signed_hinge_objective(W, b, X, S, lam, scores)
        worse = obj > prev_obj
        if worse.any():
            # reject the epoch for regressed rows and damp their step
            W[worse] = prev_W[worse]
            b[worse] = prev_b[worse]
            gain[worse] *= 0.5
            obj = np.where(worse, prev_obj, obj)
        history.append(obj)

    return W, b, history


def train_multiclass(
    X: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig = TrainConfig(),
) -> LinearModel:
    """One-vs-rest multiclass linear SVM.

    ``class_index`` of the result is the distinct labels present, ascending.
    The mini-batch schedule follows the row order given.
    """
    labels = np.asarray(labels, dtype=np.int64)
    class_index = _distinct(labels)
    if class_index.size < 2:
        raise ValueError("degenerate problem: need at least 2 distinct labels")
    y_pos = np.searchsorted(class_index, labels)
    W, b, history = _run_sgd(X, y_pos, class_index.size, cfg)
    return LinearModel(W, b, class_index, objective_history=history)


def _squared_hinge(margins: np.ndarray, c: np.ndarray, lam: float, w: np.ndarray) -> float:
    """(lam/2)||w||^2 + (1/n) sum_i c_i max(0, 1 - margin_i)^2."""
    slack = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lam * (w @ w) + (c * slack * slack).sum() / margins.shape[0])


def _newton_system(
    X: np.ndarray, margins: np.ndarray, s: np.ndarray, c: np.ndarray, lam: float, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and generalized Hessian of the squared-hinge objective in (w, b).

    Only rows inside the margin contribute. They are gathered one row block
    at a time, so no (n, d + 1) copy of X is made. The bias is the last
    coordinate and is not regularized.
    """
    n, d = X.shape
    H = np.zeros((d + 1, d + 1))
    g = np.zeros(d + 1)
    for rows in _row_blocks(n, d * d):
        inside = margins[rows] < 1.0
        Xa = X[rows][inside]
        ca = c[rows][inside]
        ua = ca * s[rows][inside] * (1.0 - margins[rows][inside])
        Xc = Xa * ca[:, None]
        H[:d, :d] += Xc.T @ Xa
        H[:d, d] += Xc.sum(axis=0)
        H[d, d] += ca.sum()
        g[:d] -= ua @ Xa
        g[d] -= ua.sum()
    H *= 2.0 / n
    g *= 2.0 / n
    H[d, :d] = H[:d, d]
    H[np.arange(d), np.arange(d)] += lam
    g[:d] += lam * w
    return g, H


def _line_search(
    margins: np.ndarray, q: np.ndarray, c: np.ndarray, lam: float, w: np.ndarray, dw: np.ndarray
) -> float:
    """The t > 0 minimising phi(t) = (lam/2)||w + t dw||^2 + (1/n) sum c (1 - margins - t q)_+^2.

    phi' is continuous, non-decreasing and linear between the points where a
    row crosses the margin. A Newton step on phi' lands on the root of the
    piece it starts in; when the rows inside the margin there are those of
    that piece, the root is exact. Otherwise the search continues inside the
    bracket of the root, bisecting when a Newton step would leave it. Long
    dot products are written as sums; a ``dot`` would round them differently
    and move the weights.
    """
    n = margins.shape[0]
    a0, a1 = lam * (w @ dw), lam * (dw @ dw)
    lo, hi, t = 0.0, np.inf, 1.0
    root_of = None  # the rows inside the margin on the piece whose root t is
    for _ in range(_LINE_SEARCH_MAX_STEPS):
        slack = 1.0 - margins - t * q
        inside = slack > 0.0
        if root_of is not None and np.array_equal(inside, root_of):
            return t
        cq = c[inside] * q[inside]
        slope = a0 + a1 * t - 2.0 / n * (cq * slack[inside]).sum()
        if slope == 0.0:
            return t
        if slope < 0.0:
            lo = t
        else:
            hi = t
        curvature = a1 + 2.0 / n * (cq * q[inside]).sum()
        root = t - slope / curvature if curvature > 0.0 else np.inf
        if lo < root < hi:
            t, root_of = root, inside
        else:
            t, root_of = (2.0 * t if hi == np.inf else 0.5 * (lo + hi)), None
    return lo


def _newton(
    X: np.ndarray, s: np.ndarray, c: np.ndarray, lam: float, w: np.ndarray, b: float
) -> tuple[np.ndarray, float, list[np.ndarray]]:
    """Minimise the squared-hinge objective from (w, b) by primal Newton.

    Every step lowers the objective, so the returned history is strictly
    decreasing. The fit stops when a full step leaves the rows inside the
    margin unchanged: the step then minimised the objective's quadratic piece
    exactly, and that point is the optimum. It also stops when a step no
    longer lowers the objective, and after `_NEWTON_MAX_STEPS` steps.
    """
    d = X.shape[1]
    margins = s * _row_blocked_scores(X, w[None], np.asarray([b]))[:, 0]
    obj = _squared_hinge(margins, c, lam, w)
    history = [np.asarray([obj])]
    for _ in range(_NEWTON_MAX_STEPS):
        inside = margins < 1.0
        g, H = _newton_system(X, margins, s, c, lam, w)
        if H[d, d] == 0.0:
            H[d, d] = 1.0  # no row inside the margin: the bias has zero gradient and curvature
        step = np.linalg.solve(H, -g)
        dw, db = step[:d], float(step[d])
        q = s * _row_blocked_scores(X, dw[None], np.asarray([db]))[:, 0]
        full = margins + q
        converged = np.array_equal(full < 1.0, inside)
        t = 1.0 if converged else _line_search(margins, q, c, lam, w, dw)
        new_margins = full if converged else margins + t * q
        new_w = w + t * dw
        new_obj = _squared_hinge(new_margins, c, lam, new_w)
        if not new_obj < obj:
            break
        w, b, margins, obj = new_w, b + t * db, new_margins, new_obj
        history.append(np.asarray([obj]))
        if converged:
            break
    return w, b, history


@dataclass(frozen=True)
class ModelGrid:
    """Binary models fitted on one dataset, one per C, in grid order."""

    models: tuple[LinearModel, ...]

    @property
    def objective_history(self) -> list[np.ndarray]:
        """Every model's objective history, in grid order, one after another."""
        return [h for m in self.models for h in m.objective_history]


def train_binary(
    X: np.ndarray,
    y_pm: np.ndarray,
    C_grid: Sequence[float],
    init: LinearModel | None = None,
) -> ModelGrid:
    """Binary L2-loss linear SVMs on +-1 labels, one per C, each scoring the positive class.

    Minimises (lambda/2)||w||^2 + (1/n) sum_i c_i max(0, 1 - s_i(w.x_i + b))^2
    with lambda = 1 / (C * n) by primal Newton; the bias is unregularized.
    Each example is weighted by c_i = n / (2 * n_its_side), so both sides
    contribute equal total loss mass.

    Fits the C values in ascending order, each from the previous optimum, and
    returns a `ModelGrid` in ``C_grid`` order. The first fit starts from
    ``init`` when given, else from zero.
    """
    if len(C_grid) == 0:
        raise ValueError("empty C grid")
    for C in C_grid:
        _check_C(C)
    X = np.asarray(X, dtype=np.float64)
    y_pm = np.asarray(y_pm, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y_pm.shape[0]:
        raise ValueError("features and labels disagree on row count")
    if not np.all(np.isin(y_pm, (-1, 1))):
        raise ValueError("binary labels must be +-1")
    n, d = X.shape
    n_pos = int(np.sum(y_pm > 0))
    if n_pos in (0, n):
        raise ValueError("degenerate problem: both classes must be present")
    s = np.where(y_pm > 0, 1.0, -1.0)
    c = np.where(y_pm > 0, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    if init is None:
        w, b = np.zeros(d), 0.0
    else:
        if init.W.shape != (1, d):
            raise ValueError(f"initial model is {init.W.shape}, expected (1, {d})")
        w, b = init.W[0].copy(), float(init.b[0])

    models: list[LinearModel | None] = [None] * len(C_grid)
    for k in sorted(range(len(C_grid)), key=lambda k: C_grid[k]):
        w, b, history = _newton(X, s, c, 1.0 / (C_grid[k] * n), w, b)
        models[k] = LinearModel(w[None], np.asarray([b]), np.asarray([1]), objective_history=history)
    return ModelGrid(tuple(models))
