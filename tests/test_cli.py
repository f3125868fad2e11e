"""Command-line interface: outputs, manifests, determinism, error paths."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from partfusion.cli import main
from partfusion.data import load_index
from partfusion.fusion import read_weights

SMALL_CONFIG = {
    "n_identities": 8,
    "instances_min": 5,
    "instances_max": 5,
    "n_poselets": 3,
    "feature_dim": 12,
    "splits": ["val", "test"],
    "seed": 21,
}

CLEAN_CONFIG = dict(SMALL_CONFIG, noise_sigma=0.0, activation_prob=1.0, seed=22)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    cfg = _write_config(root, SMALL_CONFIG)
    out = root / "synth"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_clean")
    cfg = _write_config(root, CLEAN_CONFIG)
    out = root / "synth"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli_train") / "parts"
    rc = main(
        [
            "train-parts",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--split", "val",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_synth_writes_declared_outputs(data_dir):
    for name in ("index.tsv", "detections.tsv", "coverage.json", "manifest.json"):
        assert (data_dir / name).is_file()
    parts = sorted(p.name for p in (data_dir / "features").glob("part_*.pfv"))
    assert parts == [f"part_{k:03d}.pfv" for k in range(5)]

    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == SMALL_CONFIG["seed"]
    for rel, digest in manifest["outputs"].items():
        assert _sha256(data_dir / rel) == digest

    dataset = load_index(data_dir / "index.tsv")
    assert set(dataset.identity_labels) == {"val", "test"}


def test_synth_rerun_is_byte_identical(data_dir, tmp_path):
    cfg = _write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "again"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    first = json.loads((data_dir / "manifest.json").read_text())["outputs"]
    second = json.loads((out / "manifest.json").read_text())["outputs"]
    assert first == second


def test_outputs_do_not_depend_on_the_cpu_count(data_dir, tmp_path, monkeypatch):
    """The forked workers change where part SVMs train, never what they write."""
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(data_dir / "features")]
    commands = {
        "parts": ["train-parts", *data, "--split", "val"],
        "oneshot": ["eval", "--protocol", "oneshot", *data, "--shots", "1,2", "--repeats", "3"],
        "ablation": ["eval", "--protocol", "ablation", *data],
        "retrieval": ["eval", "--protocol", "retrieval", *data, "--k-list", "1,3"],
    }

    def run(root, n_cpus):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(n_cpus)))
        digests = {}
        for name, argv in commands.items():
            assert main([*argv, "--seed", "4", "--out", str(root / name)]) == 0
            digests[name] = json.loads((root / name / "manifest.json").read_text())["outputs"]
        return digests

    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr("os.fork", counting_fork)
    serial = run(tmp_path / "serial", 1)
    assert not forks
    assert run(tmp_path / "forked", 3) == serial
    assert forks


def test_synth_seed_override_changes_outputs(data_dir, tmp_path):
    cfg = _write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "reseeded"
    assert main(["synth", "--config", str(cfg), "--seed", "99", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    base = json.loads((data_dir / "manifest.json").read_text())["outputs"]
    assert manifest["outputs"]["index.tsv"] != base["index.tsv"]


def test_match_emits_activation_rows(data_dir, tmp_path):
    out = tmp_path / "match"
    rc = main(
        [
            "match",
            "--dataset", str(data_dir / "index.tsv"),
            "--detections", str(data_dir / "detections.tsv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = [line.split("\t") for line in (out / "activations.tsv").read_text().splitlines()]
    assert rows
    dataset = load_index(data_dir / "index.tsv")
    known = {inst.instance_id for inst in dataset.instances}
    seen_parts = set()
    for row in rows:
        assert len(row) == 7
        assert int(row[0]) in known
        seen_parts.add(int(row[1]))
        float(row[2]), float(row[6])
    # every matched instance carries at least the whole-body part
    assert 0 in seen_parts and len(seen_parts) > 1


def test_train_parts_outputs(trained_dir):
    tables = sorted(p.name for p in (trained_dir / "tables").glob("part_*.ppt"))
    assert tables == [f"part_{k:03d}.ppt" for k in range(5)]
    assert (trained_dir / "models" / "half0" / "part_000.plm").is_file()
    assert (trained_dir / "models" / "half1" / "part_000.plm").is_file()

    labels = dict(
        line.split("\t") for line in (trained_dir / "labels.tsv").read_text().splitlines()
    )
    halves = dict(
        line.split("\t") for line in (trained_dir / "halves.tsv").read_text().splitlines()
    )
    assert set(labels) == set(halves)
    assert set(map(int, halves.values())) == {0, 1}
    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert manifest["command"] == "train-parts"
    assert manifest["config"]["n_identities"] == SMALL_CONFIG["n_identities"]


def test_learn_weights_outputs(trained_dir, tmp_path):
    out = tmp_path / "weights"
    rc = main(
        [
            "learn-weights",
            "--tables", str(trained_dir),
            "--c-grid", "0.25,4.0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    fw = read_weights(out / "weights.tsv")
    assert fw.w.shape == (5,)
    lines = (out / "gridsearch.csv").read_text().strip().split("\n")
    assert lines[0] == "C,balanced_accuracy,objective"
    assert len(lines) == 3
    grid = [float(line.split(",")[0]) for line in lines[1:]]
    assert grid == [0.25, 4.0]
    # the regularizer weighs less at the larger C, so the optimum is lower
    objectives = [float(line.split(",")[2]) for line in lines[1:]]
    assert 0.0 < objectives[1] < objectives[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["best_C"] in grid
    assert manifest["config"]["loss"] == "squared_hinge"


def test_eval_recognition_on_clean_data(clean_dir, tmp_path):
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--protocol", "recognition",
            "--dataset", str(clean_dir / "index.tsv"),
            "--features", str(clean_dir / "features"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "protocol\trecognition\n" in report
    assert "accuracy\t1.0\n" in report

    rerun = tmp_path / "eval2"
    assert main(
        [
            "eval",
            "--protocol", "recognition",
            "--dataset", str(clean_dir / "index.tsv"),
            "--features", str(clean_dir / "features"),
            "--out", str(rerun),
        ]
    ) == 0
    assert _sha256(out / "report.txt") == _sha256(rerun / "report.txt")


def test_eval_ablation_summary(data_dir, tmp_path):
    out = tmp_path / "ablation"
    rc = main(
        [
            "eval",
            "--protocol", "ablation",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    for mask in ("all", "global", "poselets", "face", "no-fill"):
        assert (out / f"report_{mask}.txt").is_file()
    rows = dict(
        line.split("\t") for line in (out / "summary.tsv").read_text().strip().split("\n")
    )
    assert set(rows) == {"all", "global", "poselets", "face", "no-fill"}
    for value in rows.values():
        assert 0.0 <= float(value) <= 1.0


def test_eval_oneshot_curve(data_dir, tmp_path):
    out = tmp_path / "oneshot"
    rc = main(
        [
            "eval",
            "--protocol", "oneshot",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--shots", "1,2",
            "--repeats", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "curve.csv").read_text().strip().split("\n")
    assert lines[0] == "x,mean,sigma"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1.0, 2.0]


@pytest.mark.parametrize("shots", ["0", "2,0"])
def test_eval_oneshot_rejects_shot_counts_below_one(data_dir, tmp_path, capsys, shots):
    out = tmp_path / "oneshot"
    rc = main(
        [
            "eval",
            "--protocol", "oneshot",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--shots", shots,
            "--repeats", "2",
            "--out", str(out),
        ]
    )
    assert rc == 1
    assert "shot counts >= 1" in capsys.readouterr().err
    assert not (out / "report.txt").exists()


def test_eval_retrieval_curve_nondecreasing(data_dir, tmp_path):
    out = tmp_path / "retrieval"
    rc = main(
        [
            "eval",
            "--protocol", "retrieval",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--k-list", "1,2,5,10",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "protocol\tretrieval\n" in report
    recalls = [
        float(line.split(",")[1])
        for line in (out / "curve.csv").read_text().strip().split("\n")[1:]
    ]
    assert recalls == sorted(recalls)


def test_eval_faces_split_reports(data_dir, tmp_path):
    out = tmp_path / "faces"
    rc = main(
        [
            "eval",
            "--protocol", "faces-split",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "recognition-faces" in (out / "report_faces.txt").read_text()
    assert "recognition-nonfaces" in (out / "report_nonfaces.txt").read_text()


def test_errors_exit_nonzero(data_dir, tmp_path, capsys):
    rc = main(["synth", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    rc = main(
        [
            "match",
            "--dataset", str(data_dir / "index.tsv"),
            "--detections", str(data_dir / "detections.tsv"),
            "--tau-iou", "1.5",
            "--out", str(tmp_path / "m"),
        ]
    )
    assert rc == 1
    assert "tau_iou" in capsys.readouterr().err

    # masking the face part is an error once --no-face removed it
    rc = main(
        [
            "eval",
            "--protocol", "recognition",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--no-face",
            "--mask", "face",
            "--out", str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n_weights", [2, 6])
def test_eval_rejects_weights_not_matching_parts(data_dir, tmp_path, capsys, n_weights):
    weights = tmp_path / "weights.tsv"
    weights.write_text("".join(f"{i}\t1.0\n" for i in range(n_weights)) + "bias\t0.0\n")
    rc = main(
        [
            "eval",
            "--protocol", "recognition",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--weights", str(weights),
            "--out", str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    assert f"{weights}: {n_weights} weights for 5 parts" in capsys.readouterr().err


def test_eval_truncated_feature_header_names_the_file(data_dir, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(data_dir / "features", features)
    part = features / "part_000.pfv"
    part.write_bytes(part.read_bytes()[:10])
    rc = main(
        [
            "eval",
            "--protocol", "recognition",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(features),
            "--out", str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{part}: truncated header: 10 bytes, the header needs 17" in err


def test_match_bad_detection_field_names_the_line(data_dir, tmp_path, capsys):
    detections = tmp_path / "detections.tsv"
    lines = (data_dir / "detections.tsv").read_text().splitlines()
    lines[1] = "x" + lines[1][lines[1].index("\t") :]
    detections.write_text("\n".join(lines) + "\n")
    rc = main(
        [
            "match",
            "--dataset", str(data_dir / "index.tsv"),
            "--detections", str(detections),
            "--out", str(tmp_path / "m"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {detections}:2: photo_id must be an integer, got 'x'" in err


@pytest.mark.parametrize(
    "name,edit,message",
    [
        (
            "labels.tsv",
            lambda lines: lines[:1] + [lines[1] + "\t9"] + lines[2:],
            r"labels.tsv:2: expected 2 tab-separated fields, got 3",
        ),
        (
            "halves.tsv",
            lambda lines: lines[:2] + ["7\tone"] + lines[3:],
            r"halves.tsv:3: expected two integers, got '7', 'one'",
        ),
        ("halves.tsv", lambda lines: lines[1:], r"halves.tsv: no row for instance \d+ of part 0's table"),
        ("labels.tsv", lambda lines: lines[:-1], r"labels.tsv: no row for instance \d+ of part 0's table"),
    ],
)
def test_learn_weights_input_errors_name_the_file(trained_dir, tmp_path, capsys, name, edit, message):
    tables = tmp_path / "parts"
    shutil.copytree(trained_dir, tables)
    lines = (tables / name).read_text().splitlines()
    (tables / name).write_text("\n".join(edit(lines)) + "\n")
    rc = main(["learn-weights", "--tables", str(tables), "--c-grid", "1.0", "--out", str(tmp_path / "w")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(tables / name) in err
    assert re.search(message, err), err


def test_cli_match_leaves_scipy_out(data_dir, tmp_path):
    # the assignment solver is in-repo: matching, the one stage that solves
    # assignments, must run in a fresh interpreter without importing scipy
    argv = [
        "match",
        "--dataset", str(data_dir / "index.tsv"),
        "--detections", str(data_dir / "detections.tsv"),
        "--out", str(tmp_path / "match"),
    ]
    code = (
        "import sys; from partfusion.cli import main; "
        f"rc = main({argv!r}); "
        "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0 []", proc.stderr
    assert (tmp_path / "match" / "activations.tsv").is_file()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "partfusion.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0

    cfg = _write_config(tmp_path, dict(SMALL_CONFIG, n_identities=4, instances_min=3, instances_max=3))
    proc = subprocess.run(
        [
            sys.executable, "-m", "partfusion.cli",
            "synth", "--config", str(cfg), "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").is_file()
