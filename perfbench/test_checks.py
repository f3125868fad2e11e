"""Tests of the benchmark itself: each check passes on real outputs and fails on corrupted ones.

Run from the checkout root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

sys.path.insert(0, str(run.SRC))
from partfusion import cli  # noqa: E402

SEED = 5
TINY = {"n_identities": 6, "instances_min": 6, "instances_max": 6, "n_poselets": 3, "feature_dim": 8}


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> tuple[Path, dict]:
    """A tiny dataset with every chain and protocol output, made in-process."""
    work = tmp_path_factory.mktemp("clean")
    (work / "synth.json").write_text(json.dumps(TINY))
    cwd = Path.cwd()
    try:
        os.chdir(work)
        for _, argv in [("synth", run.SYNTH), *run.CHAIN, ("eval_ablation", run.PROTOCOLS[0][1]), ("eval_faces_split", run.PROTOCOLS[1][1])]:
            assert cli.main(run.with_seed(argv, SEED)) == 0
    finally:
        os.chdir(cwd)
    return work, run.chain_reference(work, SEED)


@pytest.fixture
def work(clean, tmp_path) -> tuple[Path, dict]:
    """A private copy of the clean outputs to corrupt."""
    src, ref = clean
    dst = tmp_path / "work"
    shutil.copytree(src, dst)
    ref = dict(ref, tables=dst / "reference/tables", halves=dst / "reference/halves.tsv")
    return dst, ref


def edit_table(path: Path, edit) -> None:
    buf = bytearray(path.read_bytes())
    _, n_y, n = struct.unpack("<III", buf[4:16])
    rec = np.dtype([("id", "<u8"), ("act", "u1"), ("p", "<f4", (n_y,))])
    body = np.frombuffer(bytes(buf[16:]), dtype=rec).copy()
    edit(body)
    path.write_bytes(bytes(buf[:16]) + body.tobytes())


def test_clean_outputs_pass(work):
    w, ref = work
    run.check_chain(w, ref, {name for name, _ in run.CHAIN})
    checks.check_faces_split(w / "faces", w / "ablation", ref["test"], sorted((w / "data/features").glob("*.pfv"))[-1])


def test_table_row_scaled_off_one_fails(work):
    w, ref = work

    def scale(body):
        body["p"][0] *= 1.01

    edit_table(w / "parts/tables/part_001.ppt", scale)
    with pytest.raises(checks.CheckFailed, match="sums to"):
        checks.check_tables(w / "parts/tables", ref["val"], w / "data/features")


def test_inactive_row_that_is_not_the_global_row_fails(work):
    w, ref = work

    def swap(body):
        k = int(np.flatnonzero(body["act"] == 0)[0])
        body["p"][k] = body["p"][k][::-1].copy()

    edit_table(w / "parts/tables/part_001.ppt", swap)
    with pytest.raises(checks.CheckFailed, match="not the global row"):
        checks.check_tables(w / "parts/tables", ref["val"], w / "data/features")


def test_activation_flag_flipped_fails(work):
    w, ref = work

    def flip(body):
        body["act"][0] ^= 1

    edit_table(w / "parts/tables/part_002.ppt", flip)
    with pytest.raises(checks.CheckFailed, match="activation flag"):
        checks.check_tables(w / "parts/tables", ref["val"], w / "data/features")


def test_negative_weight_fails(work):
    w, ref = work
    path = w / "weights/weights.tsv"
    lines = path.read_text().splitlines()
    lines[1] = "1\t-0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match=">= 0"):
        checks.check_weights(w / "weights", ref["val"], ref["n_parts"])


@pytest.mark.parametrize("key,delta,message", [("n_pairs", 1, "n_pairs"), ("best_C", None, "best_C")])
def test_weight_learning_bookkeeping_fails(work, key, delta, message):
    w, ref = work
    path = w / "weights/manifest.json"
    manifest = json.loads(path.read_text())
    config = manifest["config"]
    if delta is None:
        config[key] = next(c for c in config["c_grid"] if c != config[key])
    else:
        config[key] += delta
    path.write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_weights(w / "weights", ref["val"], ref["n_parts"])


def test_accuracy_off_by_two_instances_fails(work):
    w, ref = work
    path = w / "recognition/report.txt"
    report = checks.read_report(path)
    n_half = ref["test"].ids.shape[0] // 2
    report["half_accuracy_0"] = repr(float(report["half_accuracy_0"]) + (-2 if float(report["half_accuracy_0"]) > 0.5 else 2) / n_half)
    path.write_text("".join(f"{k}\t{v}\n" for k, v in report.items()))
    weights = checks.read_weights(w / "weights/weights.tsv")
    with pytest.raises(checks.CheckFailed, match="half 0"):
        checks.check_accuracy(path, ref["tables"], ref["halves"], weights, ref["test"])


@pytest.mark.parametrize("corrupt", ["coordinate", "dropped"])
def test_matching_that_differs_from_the_oracle_fails(work, corrupt):
    w, ref = work
    path = w / "match/activations.tsv"
    lines = path.read_text().splitlines()
    if corrupt == "dropped":
        del lines[-1]
    else:
        fields = lines[0].split("\t")
        fields[2] = repr(float(fields[2]) + 1.0)
        lines[0] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="brute-force oracle"):
        checks.check_matching(path, ref["activations"])


def test_output_that_differs_from_its_manifest_fails(work):
    w, _ = work
    (w / "weights/gridsearch.csv").write_text("C,balanced_accuracy\n1.0,0.5\n")
    with pytest.raises(checks.CheckFailed, match="digest"):
        checks.check_manifest(w / "weights")


@pytest.mark.parametrize("report,delta", [("report_faces.txt", 1), ("report_nonfaces.txt", -1)])
def test_faces_count_off_by_one_fails(work, report, delta):
    w, ref = work
    path = w / "faces" / report
    fields = checks.read_report(path)
    fields["n_test"] = str(int(fields["n_test"]) + delta)
    path.write_text("".join(f"{k}\t{v}\n" for k, v in fields.items()))
    face = sorted((w / "data/features").glob("*.pfv"))[-1]
    with pytest.raises(checks.CheckFailed):
        checks.check_faces_split(w / "faces", w / "ablation", ref["test"], face)


def write_curve(path: Path, rows) -> Path:
    path.write_text("x,mean,sigma\n" + "".join(f"{x!r},{m!r},0.0\n" for x, m in rows))
    return path


def test_retrieval_curve_checks(tmp_path):
    ks = (1, 2, 5)
    checks.check_retrieval(write_curve(tmp_path / "ok.csv", [(1.0, 0.5), (2.0, 0.5), (5.0, 0.9)]), ks)
    with pytest.raises(checks.CheckFailed, match="falls"):
        checks.check_retrieval(write_curve(tmp_path / "fall.csv", [(1.0, 0.5), (2.0, 0.4), (5.0, 0.9)]), ks)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_retrieval(write_curve(tmp_path / "range.csv", [(1.0, 0.5), (2.0, 0.9), (5.0, 1.2)]), ks)


def test_oneshot_curve_checks(tmp_path):
    shots = (1, 2, 3)
    checks.check_oneshot(write_curve(tmp_path / "ok.csv", [(1.0, 0.5), (2.0, 0.6), (3.0, 0.7)]), shots)
    with pytest.raises(checks.CheckFailed, match="strictly"):
        checks.check_oneshot(write_curve(tmp_path / "flat.csv", [(1.0, 0.5), (2.0, 0.6), (3.0, 0.6)]), shots)


def test_failed_command_is_counted_and_the_round_goes_on(monkeypatch, tmp_path, capsys):
    broken = ("broken", ["learn-weights", "--tables", "missing", "--out", "weights"])
    workload = run.Workload(6, (broken, run.CHAIN[0]), lambda work, seed: {}, lambda work, ref, ok: None)
    monkeypatch.setitem(run.WORKLOADS, "broken", workload)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    assert run.main(["--workload", "broken", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = set(run.cli_metrics([], 1.0, 1.0)) | set(run.Tracer().layer_metrics())
    assert names == {m["name"] for m in spec["per_layer"]}
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"] + spec["end_to_end"])


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-40", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
