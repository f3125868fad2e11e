"""Command-line interface: outputs, manifests, determinism, error paths."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from partfusion.cli import _build_parser, _load_parts, main
from partfusion.data import (
    FeatureMatrix,
    load_index,
    make_registry,
    read_features,
    read_registry,
    write_features,
    write_registry,
)
from partfusion.fusion import DEFAULT_C_GRID, FusionWeights, read_weights, write_prob_table, write_weights
from partfusion import protocols
from partfusion.protocols import eval_recognition, half_split_training, report_text

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
def wide_dir(tmp_path_factory):
    """A run like ``data_dir``'s with more identities: its instance ids run past the smaller index's."""
    root = tmp_path_factory.mktemp("cli_wide")
    cfg = _write_config(root, dict(SMALL_CONFIG, n_identities=12))
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
    for name in ("index.tsv", "detections.tsv", "manifest.json"):
        assert (data_dir / name).is_file()
    assert not (data_dir / "coverage.json").exists()
    parts = sorted(p.name for p in (data_dir / "features").glob("part_*.pfv"))
    assert parts == [f"part_{k:03d}.pfv" for k in range(5)]
    assert read_registry(data_dir / "features" / "parts.tsv") == make_registry(3)

    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == SMALL_CONFIG["seed"]
    for rel, digest in manifest["outputs"].items():
        assert _sha256(data_dir / rel) == digest

    dataset = load_index(data_dir / "index.tsv")
    assert {inst.split for inst in dataset.instances} == {"val", "test"}


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
        "oneshot": ["eval", "--protocol", "oneshot", *data, "--shots", "1,2"],
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
    # the half models are scored into the tables and never written
    assert not (trained_dir / "models").exists()

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
            "--out", str(out),
        ]
    )
    assert rc == 0
    fw = read_weights(out / "weights.tsv")
    assert fw.w.shape == (5,)
    lines = (out / "gridsearch.csv").read_text().strip().split("\n")
    assert lines[0] == "C,balanced_accuracy,objective"
    grid = [float(line.split(",")[0]) for line in lines[1:]]
    assert grid == list(DEFAULT_C_GRID)
    # the regularizer weighs less at each larger C, so each optimum is lower
    objectives = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(a > b for a, b in zip(objectives, objectives[1:])) and objectives[-1] > 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["c_grid"] == grid
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


def test_eval_ablation_without_a_face_part(data_dir, tmp_path):
    # a parts.tsv that declares the last part a poselet leaves no face mask to score
    features = tmp_path / "features"
    shutil.copytree(data_dir / "features", features)
    write_registry(features / "parts.tsv", make_registry(4, include_face=False))
    out = tmp_path / "ablation"
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(features)]
    assert main(["eval", "--protocol", "ablation", *data, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("report_*.txt")) == [
        "report_all.txt", "report_global.txt", "report_no-fill.txt", "report_poselets.txt"
    ]
    summary = [line.split("\t")[0] for line in (out / "summary.tsv").read_text().splitlines()]
    assert summary == ["all", "global", "poselets", "no-fill"]

    dataset = load_index(data_dir / "index.tsv")
    features, _ = _load_parts(features, "part_*.pfv", read_features)
    registry = read_registry(tmp_path / "features" / "parts.tsv")
    assert not registry.ids_of_kind("face")
    uniform = FusionWeights(np.ones(len(registry.parts)))
    for mask, component_mask, fill in [
        ("all", None, True), ("global", "global", True), ("poselets", "poselets", True), ("no-fill", None, False)
    ]:
        expected = eval_recognition(dataset, features, registry, uniform, 0, component_mask, fill=fill)
        assert (out / f"report_{mask}.txt").read_text() == report_text(expected), mask


def test_eval_oneshot_curve(data_dir, tmp_path):
    out = tmp_path / "oneshot"
    rc = main(
        [
            "eval",
            "--protocol", "oneshot",
            "--dataset", str(data_dir / "index.tsv"),
            "--features", str(data_dir / "features"),
            "--shots", "1,2",
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
            "--detections", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "m"),
        ]
    )
    assert rc == 1
    assert "missing.tsv" in capsys.readouterr().err
    assert not (tmp_path / "m" / "manifest.json").exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"n_identities": "abc"}', "n_identities must be an integer, got 'abc'"),
        ('{"n_identities": 3.5}', "n_identities must be an integer, got 3.5"),
        ('{"n_poselets": true}', "n_poselets must be an integer, got True"),
        ('{"n_uploaders": 0}', "n_uploaders must be at least 1"),
        ('{"splits": "val"}', "splits must be distinct names from"),
        ('{"splits": ["val", "val"], "n_identities": 4}', "splits must be distinct names from"),
        ('{"splits": ["val", "dev"]}', "splits must be distinct names from"),
        ('{"n_identities": 4', "Expecting ',' delimiter"),
        ('{"noise_sigma_global": -1}', "unknown config key 'noise_sigma_global'"),
        ('{"noise_sigma": Infinity}', "noise sigmas must be finite and non-negative"),
        ('{"noise_sigma": "x"}', "noise_sigma must be a number or a list of numbers, one per part, got 'x'"),
        ('{"noise_sigma": [1, 2]}', "noise_sigma must have one entry per part (10)"),
        ('{"informativeness": "abc"}', "informativeness must be a number or a list of numbers, one per part, got 'abc'"),
        (
            '{"informativeness": [[1, 2], [3]]}',
            "informativeness must be a number or a list of numbers, one per part, got ((1, 2), (3,))",
        ),
        ('{"informativeness": true}', "informativeness must be a number or a list of numbers, one per part, got True"),
        ('{"detection_miss": "x"}', "detection_miss must be a number, got 'x'"),
        ('{"detection_miss": true}', "detection_miss must be a number, got True"),
        ('{"activation_prob": "x"}', "activation_prob must be a number or a matrix of numbers, got 'x'"),
        ('{"activation_prob": [[0.5, 0.5], [0.5]]}', "activation_prob matrix must be (n_parts, pose_states)"),
        ('{"informativeness": NaN}', "informativeness must be finite"),
        ('{"activation_prob": [[0.5]]}', "activation_prob matrix must be (n_parts, pose_states)"),
        ('{"activation_prob": 2}', "activation probabilities must lie in [0, 1]"),
        ('{"activation_prob": NaN}', "activation probabilities must lie in [0, 1]"),
        ('{"seed": -1}', "seed must be non-negative, got -1"),
        ('{"include_face": "no"}', "include_face must be true or false, got 'no'"),
        ('{"include_face": 0}', "include_face must be true or false, got 0"),
    ],
)
def test_synth_config_errors_name_the_file(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text + "\n", encoding="utf-8")
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}: {message}")
    assert not (out / "index.tsv").exists()


def test_synth_out_of_memory_is_an_error(tmp_path, capsys, monkeypatch):
    # a config too large for memory, without allocating it
    def out_of_memory(cfg):
        raise MemoryError(f"Unable to allocate an array with shape (40, {cfg.feature_dim})")

    monkeypatch.setattr("partfusion.cli.generate", out_of_memory)
    config = _write_config(tmp_path, {"feature_dim": 100_000_000})
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "synth")]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate an array with shape (40, 100000000)\n"


def _command_argv(command, data_dir, trained_dir, tmp_path):
    """The argv of one command (an eval protocol by its name) on the module's data, without --out."""
    data = ["--dataset", str(data_dir / "index.tsv")]
    features = [*data, "--features", str(data_dir / "features")]
    return {
        "synth": ["synth", "--config", str(_write_config(tmp_path, SMALL_CONFIG))],
        "match": ["match", *data, "--detections", str(data_dir / "detections.tsv")],
        "train-parts": ["train-parts", *features],
        "learn-weights": ["learn-weights", "--tables", str(trained_dir), "--clamp"],
        "oneshot": ["eval", "--protocol", "oneshot", *features, "--shots", "1,2"],
        "retrieval": ["eval", "--protocol", "retrieval", *features, "--k-list", "1,3"],
    }.get(command, ["eval", "--protocol", command, *features])


@pytest.mark.parametrize(
    "command",
    ["synth", "match", "train-parts", "learn-weights", "recognition", "recognition-no-fill",
     "oneshot", "retrieval", "ablation", "faces-split"],
)
def test_command_writes_only_its_manifest_outputs(data_dir, trained_dir, tmp_path, command):
    """The output directory holds the manifest and the files it lists: nothing undeclared, no temporary file."""
    argv = _command_argv(command, data_dir, trained_dir, tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == sorted([*listed, "manifest.json"])


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


@pytest.mark.parametrize("n_weights", [1, 5])
def test_eval_ablation_rejects_weights(data_dir, tmp_path, capsys, n_weights):
    # ablation fuses uniformly, so any --weights file, matching the parts or not, is a mistake
    weights = tmp_path / "weights.tsv"
    weights.write_text("".join(f"{i}\t1.0\n" for i in range(n_weights)) + "bias\t0.0\n")
    out = tmp_path / "e"
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(data_dir / "features")]
    assert main(["eval", "--protocol", "ablation", *data, "--weights", str(weights), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --weights does not apply to --protocol ablation: ablation always fuses uniformly\n"
    )
    assert not out.exists()


# settings fixed for every protocol (all parts fused, reference split val, 10
# shot draws): eval has no flag for them, so argparse refuses each one
_FIXED_EVAL_FLAGS = {"--mask", "--val-split", "--repeats"}


@pytest.mark.parametrize(
    "protocol,flag,value,message",
    [
        ("ablation", "--mask", "face", "ablation scores every component mask"),
        ("ablation", "--mask", "global,face", "ablation scores every component mask"),
        *[
            (protocol, "--val-split", "test", "only retrieval trains on a reference split")
            for protocol in ("recognition", "recognition-no-fill", "oneshot", "ablation", "faces-split")
        ],
        *[
            (protocol, flag, value, message)
            for protocol in ("recognition", "recognition-no-fill", "retrieval", "ablation", "faces-split")
            for flag, value, message in (
                ("--shots", "9", "only oneshot trains on a few shots per identity"),
                ("--repeats", "3", "only oneshot repeats its shot draws"),
            )
        ],
        *[
            (protocol, "--k-list", "5", "only retrieval reports recall at K")
            for protocol in ("recognition", "recognition-no-fill", "oneshot", "ablation", "faces-split")
        ],
    ],
)
def test_eval_rejects_flags_its_protocol_never_reads(data_dir, tmp_path, capsys, protocol, flag, value, message):
    # the manifest would record a setting the reports do not reflect
    out = tmp_path / "e"
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(data_dir / "features")]
    argv = ["eval", "--protocol", protocol, *data, flag, value, "--out", str(out)]
    if flag in _FIXED_EVAL_FLAGS:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"partfusion: error: unrecognized arguments: {flag} {value}\n")
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag} does not apply to --protocol {protocol}: {message}\n"
    assert not out.exists()


def _feature_commands(index, features):
    data = ["--dataset", str(index), "--features", str(features)]
    return [["train-parts", *data], ["eval", "--protocol", "recognition", *data]]


def test_feature_directory_without_a_parts_file_fails_naming_it(data_dir, tmp_path, capsys):
    # the part kinds come only from parts.tsv: no guess from the file count
    features = tmp_path / "features"
    shutil.copytree(data_dir / "features", features)
    (features / "parts.tsv").unlink()
    for argv in _feature_commands(data_dir / "index.tsv", features):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(features / "parts.tsv") in err and "Traceback" not in err
        assert not (out / "manifest.json").exists()


def test_parts_file_disagreeing_with_the_feature_files_names_both(data_dir, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(data_dir / "features", features)
    write_registry(features / "parts.tsv", make_registry(2))
    for argv in _feature_commands(data_dir / "index.tsv", features):
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 1
        assert capsys.readouterr().err == (
            f"error: {features / 'parts.tsv'} declares 4 parts, but {features} holds 5 part_*.pfv files\n"
        )


def _first_id_missing_from(ids, instances):
    missing = sorted(set(ids) - {inst.instance_id for inst in instances})
    assert missing, "the two runs share every instance id"
    return missing[0]


def test_train_parts_rejects_feature_rows_the_index_lacks(data_dir, wide_dir, tmp_path, capsys):
    # another run's features: the wider run's instance ids go past this index's
    argv = _feature_commands(data_dir / "index.tsv", wide_dir / "features")[0]
    assert main([*argv, "--out", str(tmp_path / "p")]) == 1
    part = wide_dir / "features" / "part_000.pfv"
    iid = _first_id_missing_from(read_features(part).instance_ids.tolist(), load_index(data_dir / "index.tsv").instances)
    assert capsys.readouterr().err == f"error: {part}: instance {iid} is not in the index\n"
    assert not (tmp_path / "p" / "manifest.json").exists()


def test_eval_rejects_one_feature_file_from_another_run(data_dir, wide_dir, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(data_dir / "features", features)
    shutil.copy(wide_dir / "features" / "part_004.pfv", features / "part_004.pfv")
    argv = _feature_commands(data_dir / "index.tsv", features)[1]
    assert main([*argv, "--out", str(tmp_path / "e")]) == 1
    part = features / "part_004.pfv"
    iid = _first_id_missing_from(read_features(part).instance_ids.tolist(), load_index(data_dir / "index.tsv").instances)
    assert capsys.readouterr().err == f"error: {part}: instance {iid} is not in the index\n"


def test_global_part_missing_rows_name_the_instance(data_dir, wide_dir, tmp_path, capsys):
    # the smaller run's instance ids all lie in the wider index, but its global part lacks the wider run's rest:
    # the load fails naming the file before any training starts
    part = data_dir / "features" / "part_000.pfv"
    index_ids = {inst.instance_id for inst in load_index(wide_dir / "index.tsv").instances}
    iid = min(index_ids - set(read_features(part).instance_ids.tolist()))
    for argv in _feature_commands(wide_dir / "index.tsv", data_dir / "features"):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {part}: the global part has no row for index instance {iid}\n"
        assert not (out / "manifest.json").exists()


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


def test_match_rejects_detections_of_photos_the_index_lacks(data_dir, tmp_path, capsys):
    # a copy of the first detection under a photo id past every indexed photo, on line 3
    detections = tmp_path / "detections.tsv"
    lines = (data_dir / "detections.tsv").read_text().splitlines()
    photo_id = max(inst.photo_id for inst in load_index(data_dir / "index.tsv").instances) + 1
    fields = lines[0].split("\t")
    lines.insert(2, "\t".join([str(photo_id), *fields[1:]]))
    detections.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m"
    data = ["--dataset", str(data_dir / "index.tsv"), "--detections", str(detections)]
    assert main(["match", *data, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {detections}:3: detection {fields[1]} is of photo {photo_id}, which the index lacks\n"
    )
    assert not out.exists()


# eval flag values that its protocol rejects: a shot count below 1, a shot count not an int, more shots
# than any identity has instances beside the scored one, and a K below 1
_FAILING_EVAL_FLAGS = {
    "eval-shots-0": ("oneshot", "--shots", "0"),
    "eval-shots-1,x": ("oneshot", "--shots", "1,x"),
    "eval-shots-50": ("oneshot", "--shots", "50"),
    "eval-k-list-0": ("retrieval", "--k-list", "0"),
}


def _failing_argv(case, data_dir, tmp_path):
    """``case``'s command with one input that fails its check: a missing directory, weights for two parts,
    or a flag of `_FAILING_EVAL_FLAGS`."""
    if case == "train-parts":
        return ["train-parts", "--dataset", str(data_dir / "index.tsv"), "--features", str(tmp_path / "missing")]
    if case == "learn-weights":
        return ["learn-weights", "--tables", str(tmp_path / "missing")]
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(data_dir / "features")]
    if case in _FAILING_EVAL_FLAGS:
        protocol, flag, value = _FAILING_EVAL_FLAGS[case]
        return ["eval", "--protocol", protocol, *data, flag, value]
    weights = tmp_path / "weights.tsv"
    weights.write_text("0\t1.0\n1\t1.0\nbias\t0.0\n")
    return ["eval", "--protocol", "recognition", *data, "--weights", str(weights)]


# match's case is test_match_rejects_detections_of_photos_the_index_lacks
@pytest.mark.parametrize("case", ["train-parts", "learn-weights", "eval", *_FAILING_EVAL_FLAGS])
def test_failed_command_leaves_no_out_directory(data_dir, tmp_path, capsys, case):
    out = tmp_path / "out"
    assert main([*_failing_argv(case, data_dir, tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "match", "train-parts", "learn-weights", "eval"])
def test_seed_must_be_non_negative(data_dir, trained_dir, tmp_path, capsys, command):
    data = ["--dataset", str(data_dir / "index.tsv")]
    argv = {
        "synth": ["synth"],
        "match": ["match", *data, "--detections", str(data_dir / "detections.tsv")],
        "train-parts": ["train-parts", *data, "--features", str(data_dir / "features")],
        "learn-weights": ["learn-weights", "--tables", str(trained_dir)],
        "eval": ["eval", "--protocol", "recognition", *data, "--features", str(data_dir / "features")],
    }[command]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "-1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"partfusion {command}: error: argument --seed: must be a non-negative integer, got '-1'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [("--shots", "2,1,2", "shot count 2 is given more than once in [2, 1, 2]"),
     ("--k-list", "5,1,5", "K 5 is given more than once in [5, 1, 5]")],
)
def test_eval_rejects_a_repeated_list_value(data_dir, tmp_path, capsys, flag, value, message):
    protocol = "oneshot" if flag == "--shots" else "retrieval"
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(data_dir / "features")]
    out = tmp_path / "o"
    assert main(["eval", "--protocol", protocol, *data, flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_killed_worker_ends_the_command_with_an_error_line(data_dir, tmp_path, capsys, monkeypatch, deadline):
    # three forced workers, so every training job, the killed one too, runs in a forked child
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
    parent = os.getpid()
    train = protocols._train_part_model

    def train_or_die(pid, *args):
        if pid == 1:
            assert os.getpid() != parent, "the job ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)
        return train(pid, *args)

    monkeypatch.setattr(protocols, "_train_part_model", train_or_die)
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(data_dir / "features")]
    out = tmp_path / "o"
    assert main(["eval", "--protocol", "recognition", *data, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: worker process \d+ exited without a result \(exit status -9\)\n", err), err
    assert "Traceback" not in err
    assert not out.exists()


def test_train_parts_rejects_an_unknown_split(data_dir, tmp_path, capsys):
    out = tmp_path / "parts"
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(data_dir / "features")]
    assert main(["train-parts", *data, "--split", "nosuch", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown split 'nosuch'; the splits are train, val, test, leftover\n"
    assert not out.exists()


def test_match_degenerate_person_box_names_the_line(data_dir, tmp_path, capsys):
    detections = tmp_path / "detections.tsv"
    lines = (data_dir / "detections.tsv").read_text().splitlines()
    fields = lines[2].split("\t")
    fields[4] = "-10"
    lines[2] = "\t".join(fields)
    detections.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m"
    data = ["--dataset", str(data_dir / "index.tsv"), "--detections", str(detections)]
    assert main(["match", *data, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {detections}:3: person w must be positive, got '-10'\n"
    assert not (out / "activations.tsv").exists()


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
    rc = main(["learn-weights", "--tables", str(tables), "--out", str(tmp_path / "w")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(tables / name) in err
    assert re.search(message, err), err


def test_a_table_instance_without_a_labels_row_names_the_table(trained_dir, tmp_path, capsys):
    tables = tmp_path / "parts"
    shutil.copytree(trained_dir, tables)
    table = tables / "tables" / "part_002.ppt"
    data = bytearray(table.read_bytes())
    data[16 + 4] ^= 1  # bit 32 of the first record's instance id
    table.write_bytes(data)
    iid = int.from_bytes(data[16:24], "little")
    out = tmp_path / "w"
    assert main(["learn-weights", "--tables", str(tables), "--out", str(out)]) == 1
    labels = tables / "labels.tsv"
    assert capsys.readouterr().err == f"error: {labels}: no row for instance {iid} of part 2's table {table}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "edit,message",
    [
        (
            lambda d: shutil.copy(d / "part_001.ppt", d / "part_002.ppt"),
            "{d}/part_002.ppt: part id 1 was already read from {d}/part_001.ppt",
        ),
        (
            lambda d: (d / "part_002.ppt").unlink(),
            "{d}: part_*.ppt files must cover contiguous part ids from 0, got [0, 1, 3, 4]",
        ),
    ],
    ids=["duplicate", "missing"],
)
def test_learn_weights_checks_the_table_set(trained_dir, tmp_path, capsys, edit, message):
    tables = tmp_path / "parts"
    shutil.copytree(trained_dir, tables)
    edit(tables / "tables")
    out = tmp_path / "w"
    rc = main(["learn-weights", "--tables", str(tables), "--out", str(out)])
    assert rc == 1
    assert f"error: {message.format(d=tables / 'tables')}" in capsys.readouterr().err
    assert not (out / "weights.tsv").exists()


def _replace_value(lines, k, value):
    key = lines[k].split("\t")[0]
    return lines[:k] + [f"{key}\t{value}"] + lines[k + 1 :]


@pytest.mark.parametrize(
    "name,edit,message",
    [
        ("halves.tsv", lambda lines: _replace_value(lines, 2, 2), r"halves.tsv:3: half must lie in \[0, 2\), got 2"),
        ("halves.tsv", lambda lines: _replace_value(lines, 0, -1), r"halves.tsv:1: half must lie in \[0, 2\), got -1"),
        (
            "labels.tsv",
            lambda lines: _replace_value(lines, 1, 999),
            r"labels.tsv:2: label must lie in \[0, 8\), got 999",
        ),
        ("labels.tsv", lambda lines: _replace_value(lines, 1, 8), r"labels.tsv:2: label must lie in \[0, 8\), got 8"),
        ("labels.tsv", lambda lines: lines + lines[:1], r"labels.tsv:\d+: instance \d+ is listed twice"),
        ("halves.tsv", lambda lines: lines[:1] + lines, r"halves.tsv:2: instance \d+ is listed twice"),
    ],
    ids=["half-2", "half-negative", "label-999", "label-n-y", "label-repeated-id", "half-repeated-id"],
)
def test_learn_weights_checks_label_and_half_values(trained_dir, tmp_path, capsys, name, edit, message):
    tables = tmp_path / "parts"
    shutil.copytree(trained_dir, tables)
    lines = (tables / name).read_text().splitlines()
    (tables / name).write_text("\n".join(edit(lines)) + "\n")
    out = tmp_path / "w"
    rc = main(["learn-weights", "--tables", str(tables), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(tables / name) in err
    assert re.search(message, err), err
    assert not (out / "weights.tsv").exists()


@pytest.mark.parametrize(
    "command,target,cut,record",
    [("learn-weights", "tables/part_001.ppt", 5, 8 + 1 + 4 * 8), ("eval", "features/part_001.pfv", 3, 8 + 4 * 12)],
    ids=["table", "features"],
)
def test_truncated_binary_body_names_the_file(data_dir, trained_dir, tmp_path, capsys, command, target, cut, record):
    copy = tmp_path / "in"
    shutil.copytree(trained_dir if command == "learn-weights" else data_dir, copy)
    path = copy / target
    path.write_bytes(path.read_bytes()[:-cut])
    out = tmp_path / "out"
    if command == "learn-weights":
        argv = ["learn-weights", "--tables", str(copy)]
    else:
        argv = ["eval", "--protocol", "recognition", "--dataset", str(copy / "index.tsv")]
        argv += ["--features", str(copy / "features")]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    message = rf"error: {re.escape(str(path))}: truncated body: \d+ bytes is not a whole number of {record}-byte"
    assert re.search(message, err), err
    assert not any(out.glob("*"))


def test_train_parts_tables_equal_the_library_tables(data_dir, trained_dir, tmp_path):
    # the command writes each table as it is built; here the library's tables are all held at once
    dataset = load_index(data_dir / "index.tsv")
    features, _ = _load_parts(data_dir / "features", "part_*.pfv", read_features)
    registry = read_registry(data_dir / "features" / "parts.tsv")
    trained = half_split_training(dataset, features, registry.part_ids, "val", 0)
    tables = {table.part_id: table for table in trained.filled_tables()}
    written = sorted((trained_dir / "tables").glob("part_*.ppt"))
    assert [p.name for p in written] == [f"part_{pid:03d}.ppt" for pid in sorted(tables)]
    for path in written:
        expected = tmp_path / path.name
        write_prob_table(expected, tables[int(path.stem.split("_")[1])])
        assert path.read_bytes() == expected.read_bytes(), path.name


def test_raw_features_score_as_their_float32_normalized_rows(data_dir, tmp_path):
    # rows stored unnormalized (flag 0) are L2-normalized in float64 and held as float32, so
    # they train and score as the flag-1 file that stores those float32 rows
    rng = np.random.default_rng(8)
    raw, unit = tmp_path / "raw", tmp_path / "unit"
    for root in (raw, unit):
        (root / "features").mkdir(parents=True)
        shutil.copy(data_dir / "index.tsv", root / "index.tsv")
        shutil.copy(data_dir / "features" / "parts.tsv", root / "features" / "parts.tsv")
    parts = sorted((data_dir / "features").glob("part_*.pfv"))
    for path in parts:
        fm = read_features(path)
        scaled = FeatureMatrix(fm.part_id, fm.instance_ids, fm.X * rng.uniform(0.5, 4.0, (len(fm), 1)))
        write_features(raw / "features" / path.name, scaled)
        write_features(unit / "features" / path.name, scaled.normalized_copy())
    weights = tmp_path / "weights.tsv"
    write_weights(weights, FusionWeights(np.linspace(0.5, 1.5, len(parts)), 0.0))
    for root in (raw, unit):
        files = ["--dataset", str(root / "index.tsv"), "--features", str(root / "features")]
        assert main(["train-parts", *files, "--split", "val", "--out", str(root / "parts")]) == 0
        rec = ["--weights", str(weights), "--out", str(root / "rec")]
        assert main(["eval", "--protocol", "recognition", *files, *rec]) == 0
    outputs = [path.relative_to(unit) for path in sorted((unit / "parts").rglob("*.ppt"))]
    assert len(outputs) == len(parts)
    for rel in [*outputs, Path("parts/labels.tsv"), Path("parts/halves.tsv"), Path("rec/report.txt")]:
        assert (raw / rel).read_bytes() == (unit / rel).read_bytes(), rel


@pytest.mark.parametrize("flag,value", [("--shots", "1,,2"), ("--k-list", "a")])
def test_list_flags_name_the_flag_and_the_value(data_dir, tmp_path, capsys, flag, value):
    protocol = "oneshot" if flag == "--shots" else "retrieval"
    data = ["--dataset", str(data_dir / "index.tsv"), "--features", str(data_dir / "features")]
    out = tmp_path / "o"
    assert main(["eval", "--protocol", protocol, *data, flag, value, "--out", str(out)]) == 1
    assert f"error: {flag} takes comma-separated int values, got {value!r}\n" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("match", "--tau-iou", "0.5"),
        ("learn-weights", "--c-grid", "1.0"),
        ("eval", "--split", "val"),
        ("eval", "--val-split", "test"),
        ("eval", "--mask", "face"),
        ("eval", "--repeats", "3"),
    ],
)
def test_fixed_settings_take_no_flag(data_dir, trained_dir, tmp_path, capsys, command, flag, value):
    # tau_iou, the C grid, the splits, the component mask and the repeat count are constants
    data = ["--dataset", str(data_dir / "index.tsv")]
    argv = {
        "match": ["match", *data, "--detections", str(data_dir / "detections.tsv")],
        "learn-weights": ["learn-weights", "--tables", str(trained_dir)],
        "eval": ["eval", "--protocol", "oneshot", *data, "--features", str(data_dir / "features")],
    }[command]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, value, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: partfusion ")
    assert err.endswith(f"partfusion: error: unrecognized arguments: {flag} {value}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["match", "train-parts", "learn-weights", "recognition", "recognition-no-fill",
     "ablation", "faces-split", "oneshot", "retrieval"],
)
def test_cli_commands_leave_scipy_and_numpy_ma_out(data_dir, trained_dir, tmp_path, child_env, command):
    # the assignment solver is in-repo, and no command calls a numpy set
    # routine that imports numpy.ma: each runs in a fresh interpreter without
    # importing scipy or numpy.ma
    argv = [*_command_argv(command, data_dir, trained_dir, tmp_path), "--out", str(tmp_path / "out")]
    code = (
        "import sys; from partfusion.cli import main; "
        f"rc = main({argv!r}); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0 []", proc.stderr
    assert (tmp_path / "out" / "manifest.json").is_file()


_BLAS_THREADS = (
    "import os; {imports}; a = np.ones((1500, 1500)); a @ a; "
    "print(len(os.listdir('/proc/self/task')))"
)


def _child_threads(child_env, imports, setting=None):
    """Threads of a fresh interpreter after a 1500 x 1500 product, with OPENBLAS_NUM_THREADS as given."""
    env = {k: v for k, v in child_env.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    code = _BLAS_THREADS.format(imports=imports)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return int(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_cli_runs_one_blas_thread_unless_the_caller_sets_a_count(child_env):
    assert _child_threads(child_env, "import partfusion.cli; import numpy as np") == 1
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts one thread per CPU, and this process may use one")
    assert _child_threads(child_env, "import partfusion.cli; import numpy as np", "2") == 2
    # numpy imported first has started its threads before the package could set the count
    default = _child_threads(child_env, "import numpy as np")
    assert default > 1
    assert _child_threads(child_env, "import numpy as np; import partfusion.cli") == default


def test_module_entry_point(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "partfusion.cli", "--version"],
        env=child_env,
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
        env=child_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_readme_names_exactly_the_parser_flags():
    """Every option of the command and its subcommands is documented, and README names no other flag."""
    parser = _build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        flag
        for p in [parser, *subcommands.choices.values()]
        for action in p._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert sorted(flags - named) == [], "flags README does not document"
    assert sorted(named - flags) == [], "flags README names that the parser lacks"


FUZZ_CONFIG = dict(SMALL_CONFIG, n_identities=6, instances_min=4, instances_max=4, feature_dim=4, seed=23)

# Each command the fuzz runs: its arguments but --out, with {root} for the chain's directory, and the
# files it reads, as globs under {root}.
_FUZZ_DATA = ["--dataset", "{root}/synth/index.tsv", "--features", "{root}/synth/features"]
_FUZZ_COMMANDS = {
    "match": (
        ["match", "--dataset", "{root}/synth/index.tsv", "--detections", "{root}/synth/detections.tsv"],
        ["synth/index.tsv", "synth/detections.tsv"],
    ),
    "train-parts": (["train-parts", *_FUZZ_DATA, "--split", "val"], ["synth/index.tsv", "synth/features/*"]),
    "learn-weights": (
        ["learn-weights", "--tables", "{root}/parts"],
        ["parts/tables/*", "parts/labels.tsv", "parts/halves.tsv"],
    ),
    "eval": (
        ["eval", "--protocol", "recognition", *_FUZZ_DATA, "--weights", "{root}/weights/weights.tsv"],
        ["synth/index.tsv", "synth/features/*", "weights/weights.tsv"],
    ),
}
_FIELD_VALUES = ["", "x", "-1", "0", "1", "2", "0.5", "nan", "inf", "1e400", str(2**64), "val", "test", "face", "bias"]


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A tiny chain: synth's files, train-parts' tables on val and the weights learn-weights fits on them."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    cfg = _write_config(root, FUZZ_CONFIG)
    assert main(["synth", "--config", str(cfg), "--out", str(root / "synth")]) == 0
    for name in ("train-parts", "learn-weights"):
        args = [arg.format(root=root) for arg in _FUZZ_COMMANDS[name][0]]
        assert main([*args, "--out", str(root / ("parts" if name == "train-parts" else "weights"))]) == 0
    return root


@st.composite
def _mutation(draw, data: bytes, binary_header: int | None):
    """One mutation of a file's bytes: a cut, a flipped header bit, or a dropped, doubled or edited line."""
    kinds = ["truncate", "flip"] if binary_header else ["truncate", "drop", "duplicate", "replace", "swap"]
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        bit = draw(st.integers(0, 8 * binary_header - 1))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        return bytes(flipped)
    lines = data.decode("utf-8").splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    else:
        fields = lines[k].split("\t")
        i, j = draw(st.integers(0, len(fields) - 1)), draw(st.integers(0, len(fields) - 1))
        if kind == "replace":
            other = lines[draw(st.integers(0, len(lines) - 1))].split("\t")
            fields[i] = draw(st.sampled_from([*_FIELD_VALUES, *other[i : i + 1]]))
        else:
            fields[i], fields[j] = fields[j], fields[i]
        lines[k] = "\t".join(fields)
    return "".join(line + "\n" for line in lines).encode("utf-8")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(_FUZZ_COMMANDS)), data=st.data())
def test_a_mutated_input_fails_in_one_line_that_names_an_input(fuzz_root, command, data):
    """A command given one mutated input file exits 0, or exits 1 with one ``error:`` line and no --out.

    The line names one of the command's input files or directories.
    """
    argv, globs = _FUZZ_COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "chain"
        shutil.copytree(fuzz_root, root)
        inputs = sorted(path for pattern in globs for path in root.glob(pattern))
        target = data.draw(st.sampled_from(inputs), label="file")
        header = {".pfv": 17, ".ppt": 16}.get(target.suffix)
        target.write_bytes(data.draw(_mutation(target.read_bytes(), header), label="mutated"))
        out = root / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main([*(arg.format(root=root) for arg in argv), "--out", str(out)])
        if rc == 0:
            return
        err = stderr.getvalue()
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        named = [*inputs, *(Path(arg.format(root=root)) for arg in argv if arg.startswith("{root}"))]
        assert any(str(path) in err for path in named), err
        assert not out.exists()
