"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single verdict line, and
fails hard if the criterion does not hold at the stated tolerance.
"""

import hashlib
import time
from pathlib import Path

import numpy as np

from conftest import record_verdict
from partfusion.cli import main
from partfusion.fusion import FusionWeights, fill_sparsity
from partfusion.matching import match_bruteforce, match_detections
from partfusion.protocols import (
    eval_oneshot,
    eval_recognition,
    learn_fusion_weights,
    run_retrieval_protocol,
)
from partfusion.svm import TrainConfig, hinge_objective, hinge_subgradient, train_multiclass
from partfusion.synth import SynthConfig, generate, planted_config
from test_matching import _random_photo


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    record_verdict(line)
    assert ok, line


def test_criterion_01_fill_preserves_probability_mass():
    rng = np.random.default_rng(0)
    t0 = time.monotonic()
    worst = 0.0
    for k in range(10_000):
        n_y = int(rng.integers(3, 41))
        p0 = rng.dirichlet(np.ones(n_y))
        activated = bool(k % 2)
        size = int(rng.integers(1, n_y + 1))
        F = np.sort(rng.choice(n_y, size=size, replace=False))
        p_hat = None
        if activated:
            p_hat = np.zeros(n_y)
            p_hat[F] = rng.dirichlet(np.ones(size))
        out = fill_sparsity(p_hat, p0, F, activated)
        worst = max(worst, abs(float(out.sum()) - 1.0))
        if not activated:
            assert np.array_equal(out, p0)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict(1, ok, f"10000 fills, max |sum-1|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_fill_hand_case():
    p0 = np.array([0.5, 0.3, 0.2])
    p_hat = np.array([0.9, 0.1, 0.0])
    out = fill_sparsity(p_hat, p0, np.array([0, 1]), activated=True)
    err = float(np.max(np.abs(out - np.array([0.82, 0.14, 0.04]))))
    _verdict(2, err <= 1e-12, f"max deviation {err:.2e}")


def test_criterion_03_matcher_equals_bruteforce_on_500_photos():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(500):
        truths, dets = _random_photo(rng, max_side=7)
        fast = match_detections(truths, dets)
        slow = match_bruteforce(truths, dets)
        if fast.pairs != slow.pairs or abs(fast.total_weight - slow.total_weight) > 1e-9:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _verdict(3, ok, f"{mismatches} mismatches over 500 photos, {elapsed:.2f}s")


def test_criterion_04_svm_training_properties():
    rng = np.random.default_rng(3)
    centers = rng.normal(0.0, 4.0, (4, 6))
    X = np.vstack([c + rng.normal(0.0, 0.2, (25, 6)) for c in centers])
    y = np.repeat(np.arange(4), 25)
    model = train_multiclass(X, y, TrainConfig(C=10.0, epochs=30, seed=1))
    train_acc = float(np.mean(model.class_index[np.argmax(model.scores(X), axis=1)] == y))

    H = np.asarray(model.objective_history)
    rel = (H[1:] - H[:-1]) / np.maximum(np.abs(H[:-1]), 1e-12)
    max_rel_increase = float(rel.max())

    W = rng.normal(0.0, 0.5, (4, 6))
    b = rng.normal(0.0, 0.1, 4)
    lam = 0.05
    gW, _ = hinge_subgradient(W, b, X, y, lam)
    eps = 1e-6
    checked = 0
    worst_grad = 0.0
    for _ in range(500):
        c = int(rng.integers(0, 4))
        j = int(rng.integers(0, 6))
        s = np.where(y == c, 1.0, -1.0)
        margins = s * (X @ W[c] + b[c])
        if np.any(np.abs(1.0 - margins) < 1e-4):
            continue
        Wp, Wm = W.copy(), W.copy()
        Wp[c, j] += eps
        Wm[c, j] -= eps
        num = (hinge_objective(Wp, b, X, y, lam)[c] - hinge_objective(Wm, b, X, y, lam)[c]) / (2 * eps)
        worst_grad = max(worst_grad, abs(num - gW[c, j]))
        checked += 1
        if checked == 10:
            break

    ok = train_acc == 1.0 and max_rel_increase <= 1e-6 and checked == 10 and worst_grad <= 1e-3
    _verdict(
        4,
        ok,
        f"separable acc {train_acc:.3f}, max rel objective increase {max_rel_increase:.1e}, "
        f"subgradient max err {worst_grad:.1e} at {checked} coords",
    )


def test_criterion_05_filling_and_fusion_beat_the_baselines(bench, uniform_weights, learned_weights):
    t0 = time.monotonic()
    full = eval_recognition(
        bench.dataset, bench.features, bench.registry, learned_weights, seed=0
    ).accuracy
    nofill = eval_recognition(
        bench.dataset, bench.features, bench.registry, learned_weights, seed=0, fill=False
    ).accuracy
    glob = eval_recognition(
        bench.dataset, bench.features, bench.registry, uniform_weights,
        seed=0, component_mask="global",
    ).accuracy
    elapsed = time.monotonic() - t0
    ok = full >= nofill + 0.02 and nofill >= glob + 0.02 and elapsed < 300.0
    _verdict(5, ok, f"full={full:.4f} > no-fill={nofill:.4f} > global={glob:.4f}, {elapsed:.1f}s")


def test_criterion_06_fusion_never_trails_single_components(bench):
    worst_margin = 1.0
    details = []
    for seed in (42, 43, 44, 45, 46):
        data = bench if seed == 42 else generate(SynthConfig(seed=seed))
        fw = FusionWeights(np.ones(len(data.registry.parts)))
        accs = {}
        for mask in (None, "global", "poselets", "face"):
            accs[mask or "all"] = eval_recognition(
                data.dataset, data.features, data.registry, fw,
                seed=0, component_mask=mask,
            ).accuracy
        best_single = max(accs["global"], accs["poselets"], accs["face"])
        worst_margin = min(worst_margin, accs["all"] - best_single)
        details.append(f"s{seed}:{accs['all']:.3f}/{best_single:.3f}")
    ok = worst_margin >= -0.01
    _verdict(6, ok, f"min(full - best single) = {worst_margin:+.4f} [{'; '.join(details)}]")


def test_criterion_07_oneshot_improves_with_shots(bench, uniform_weights):
    rep = eval_oneshot(
        bench.dataset, bench.features, bench.registry, uniform_weights,
        shots=(1, 2, 3), seed=0,
    )
    means = [pt[1] for pt in rep.curve]
    ok = all(b > a for a, b in zip(means, means[1:]))
    _verdict(7, ok, "shots 1/2/3 -> " + "/".join(f"{m:.4f}" for m in means))


def test_criterion_08_retrieval_recall_behaves(bench, uniform_weights, learned_weights):
    fused = run_retrieval_protocol(
        bench.dataset, bench.features, bench.registry, learned_weights,
        seed=0, K_list=(1, 2, 5, 10, 20),
    )
    # the learned weights may zero out the global part, which would degenerate
    # a global-only embedding; the single-part baseline fuses uniformly
    glob = run_retrieval_protocol(
        bench.dataset, bench.features, bench.registry, uniform_weights,
        seed=0, K_list=(1,), component_mask="global",
    )
    recalls = [pt[1] for pt in fused.curve]
    ok = recalls == sorted(recalls) and recalls[0] > glob.curve[0][1]
    _verdict(
        8,
        ok,
        f"recall@K {'/'.join(f'{r:.4f}' for r in recalls)}, "
        f"fused r@1 {recalls[0]:.4f} > global r@1 {glob.curve[0][1]:.4f}",
    )


def _run_cli_chain(root: Path, monkeypatch) -> dict[str, str]:
    """Full pipeline with paths relative to root; returns relpath -> sha256."""
    monkeypatch.chdir(root)
    assert main(["synth", "--out", "data"]) == 0
    assert main(
        ["match", "--dataset", "data/index.tsv", "--detections", "data/detections.tsv",
         "--out", "match"]
    ) == 0
    assert main(
        ["train-parts", "--dataset", "data/index.tsv", "--features", "data/features",
         "--split", "val", "--out", "parts"]
    ) == 0
    assert main(["learn-weights", "--tables", "parts", "--clamp", "--out", "weights"]) == 0
    assert main(
        ["eval", "--protocol", "recognition", "--dataset", "data/index.tsv",
         "--features", "data/features", "--weights", "weights/weights.tsv", "--out", "eval"]
    ) == 0
    digests = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            digests[p.relative_to(root).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def test_criterion_09_cli_rerun_is_byte_identical(tmp_path, monkeypatch):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = _run_cli_chain(a, monkeypatch)
    second = _run_cli_chain(b, monkeypatch)
    differing = sorted(k for k in first if first[k] != second.get(k))
    ok = first == second
    _verdict(
        9,
        ok,
        f"{len(first)} files per run, "
        + ("all digests identical" if ok else f"differs: {differing[:5]}"),
    )


def test_criterion_10_weight_learning_recovers_planted_part():
    planted = 3
    hits = 0
    for seed in range(10):
        data = generate(planted_config(planted, seed=seed))
        fw, _ = learn_fusion_weights(
            data.dataset, data.features, data.registry, seed=0
        )
        if int(np.argmax(np.abs(fw.w))) == planted:
            hits += 1
    _verdict(10, hits >= 9, f"planted part recovered in {hits}/10 seeds")
