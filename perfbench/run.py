"""Benchmark for the partfusion CLI.

Run from the root of a partfusion checkout:

    python3 perfbench/run.py --workload chain-40 --seed 1 --seconds 35 --trace 0

The benchmark writes its workload's inputs with ``partfusion synth`` from the
seed (set-up, timed three times), then runs the workload's CLI commands as
sequential subprocesses, in whole rounds, while one more round still fits in
``--seconds`` of command time. Every round's outputs are checked (see checks.py). With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` one subprocess round gives the per-command times, and the same
steps then run again in this process through ``partfusion.cli.main`` with
spans around each layer (see tracing.py); its last line holds the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "runs"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0
SHOTS = (1, 2, 3)
K_LIST = (1, 2, 5, 10, 20)

DATA = ["--dataset", "data/index.tsv", "--features", "data/features"]
SYNTH = ["synth", "--config", "synth.json", "--out", "data"]
CHAIN = (
    ("match", ["match", "--dataset", "data/index.tsv", "--detections", "data/detections.tsv", "--out", "match"]),
    ("train_parts", ["train-parts", *DATA, "--split", "val", "--out", "parts"]),
    ("learn_weights", ["learn-weights", "--tables", "parts", "--clamp", "--out", "weights"]),
    ("eval_recognition", ["eval", "--protocol", "recognition", *DATA, "--weights", "weights/weights.tsv", "--out", "recognition"]),
)
PROTOCOLS = (
    ("eval_ablation", ["eval", "--protocol", "ablation", *DATA, "--out", "ablation"]),
    ("eval_faces_split", ["eval", "--protocol", "faces-split", *DATA, "--out", "faces"]),
    ("eval_oneshot", ["eval", "--protocol", "oneshot", *DATA, "--shots", ",".join(map(str, SHOTS)), "--out", "oneshot"]),
    ("eval_retrieval", ["eval", "--protocol", "retrieval", *DATA, "--k-list", ",".join(map(str, K_LIST)), "--out", "retrieval"]),
)
# The test-split tables the accuracy check fuses itself; untimed.
REFERENCE_TABLES = ["train-parts", *DATA, "--split", "test", "--out", "reference"]


@dataclass
class Outcome:
    name: str
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float


def with_seed(argv: list[str], seed: int) -> list[str]:
    return [*argv, "--seed", str(seed)]


def out_dir(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def run_command(name: str, argv: list[str], cwd: Path) -> Outcome:
    """One CLI command in a fresh interpreter; wall, CPU and max-RSS of that child alone."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "partfusion.cli", *argv], cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL
    )
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"command {name} failed with exit code {proc.returncode}", file=sys.stderr)
    return Outcome(name, proc.returncode == 0, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_round(commands, seed: int, cwd: Path) -> list[Outcome]:
    """Every command of the round is attempted, even after one fails."""
    for _, argv in commands:
        shutil.rmtree(cwd / out_dir(argv), ignore_errors=True)
    return [run_command(name, with_seed(argv, seed), cwd) for name, argv in commands]


def import_seconds() -> float:
    """Time to import partfusion.cli in a fresh interpreter, interpreter start excluded."""
    code = "import time; t = time.perf_counter(); import partfusion.cli; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


# ---------------------------------------------------------------- checks


def chain_reference(work: Path, seed: int) -> dict:
    """Values the chain's outputs are checked against, computed once per run."""
    from partfusion.matching import activations_per_instance, load_detections, match_bruteforce
    from partfusion.data import load_index

    if not run_command("reference_tables", with_seed(REFERENCE_TABLES, seed), work).ok:
        raise RuntimeError("train-parts --split test, needed by the accuracy check, failed")
    test = checks.read_split(work / "data/index.tsv", "test")
    dataset = load_index(work / "data/index.tsv")
    dets = load_detections(work / "data/detections.tsv")
    by_photo: dict[int, list] = {}
    for inst in dataset.instances:
        by_photo.setdefault(inst.photo_id, []).append(inst)
    rows = []
    for photo_id in sorted(by_photo):
        truths, photo_dets = by_photo[photo_id], dets.get(photo_id, [])
        table = activations_per_instance(match_bruteforce(truths, photo_dets), truths, photo_dets)
        for iid in sorted(table):
            rows += [(iid, pid, float(b.x), float(b.y), float(b.w), float(b.h), float(a)) for pid, b, a in table[iid]]
    return {
        "val": checks.read_split(work / "data/index.tsv", "val"),
        "test": test,
        "tables": work / "reference/tables",
        "halves": work / "reference/halves.tsv",
        "activations": rows,
        "n_parts": len(list((work / "data/features").glob("part_*.pfv"))),
    }


def check_chain(work: Path, ref: dict, ok: set[str]) -> None:
    for name, argv in CHAIN:
        if name in ok:
            checks.check_manifest(work / out_dir(argv))
    if "match" in ok:
        checks.check_matching(work / "match/activations.tsv", ref["activations"])
    if "train_parts" in ok:
        checks.check_tables(work / "parts/tables", ref["val"], work / "data/features")
    if "learn_weights" in ok:
        checks.check_weights(work / "weights", ref["val"], ref["n_parts"])
    if "eval_recognition" in ok:
        checks.check_tables(ref["tables"], ref["test"], work / "data/features")
        weights = checks.read_weights(work / "weights/weights.tsv")
        checks.check_accuracy(work / "recognition/report.txt", ref["tables"], ref["halves"], weights, ref["test"])


def protocols_reference(work: Path, seed: int) -> dict:
    features = sorted((work / "data/features").glob("part_*.pfv"))
    return {"test": checks.read_split(work / "data/index.tsv", "test"), "face": features[-1]}


def check_protocols(work: Path, ref: dict, ok: set[str]) -> None:
    for name, argv in PROTOCOLS:
        if name in ok:
            checks.check_manifest(work / out_dir(argv))
    if {"eval_ablation", "eval_faces_split"} <= ok:
        checks.check_faces_split(work / "faces", work / "ablation", ref["test"], ref["face"])
    if "eval_oneshot" in ok:
        checks.check_oneshot(work / "oneshot/curve.csv", SHOTS)
    if "eval_retrieval" in ok:
        checks.check_retrieval(work / "retrieval/curve.csv", K_LIST)


@dataclass(frozen=True)
class Workload:
    n_identities: int
    commands: tuple
    reference: Callable[[Path, int], dict]
    check: Callable[[Path, dict, set[str]], None]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "chain-40": Workload(40, CHAIN, chain_reference, check_chain),
    "chain-80": Workload(80, CHAIN, chain_reference, check_chain),
    "protocols-60": Workload(60, PROTOCOLS, protocols_reference, check_protocols),
}
ALL_COMMANDS = ["synth"] + [name for name, _ in CHAIN + PROTOCOLS]


# ---------------------------------------------------------------- runs


def traced_round(workload: Workload, seed: int, work: Path) -> tuple[Tracer, list[Outcome]]:
    """The set-up and the round again, in this process, with spans around each layer."""
    from partfusion import cli

    work.mkdir()
    shutil.copy(work.parent / "synth.json", work / "synth.json")
    tracer = Tracer()
    outcomes = []
    cwd = Path.cwd()
    os.chdir(work)
    try:
        with tracer.traced():
            for name, argv in [("synth", SYNTH), *workload.commands]:
                start = time.perf_counter()
                try:
                    ok = cli.main(with_seed(argv, seed)) == 0
                except Exception as exc:  # a crash in one command must not hide the rest
                    print(f"traced command {name} raised {exc!r}", file=sys.stderr)
                    ok = False
                outcomes.append(Outcome(name, ok, time.perf_counter() - start, 0.0, 0.0))
    finally:
        os.chdir(cwd)
    return tracer, outcomes


def same_outputs(a: Path, b: Path, commands) -> None:
    """Tracing must not change a single output byte."""
    for name, argv in commands:
        digests = [json.loads((d / out_dir(argv) / "manifest.json").read_text())["outputs"] for d in (a, b)]
        if digests[0] != digests[1]:
            raise checks.CheckFailed(f"{name}: traced outputs differ from untraced outputs")


def cli_metrics(round_: list[Outcome], setup_s: float, import_s: float) -> dict[str, float]:
    """Per-command figures of one untraced round; a command the workload does not run reads 0."""
    by_name = {o.name: o for o in round_}
    metrics = {f"cli.{name}_s": by_name[name].wall_s if name in by_name else 0.0 for name in ALL_COMMANDS}
    metrics["cli.synth_s"] = setup_s
    metrics["cli.import_s"] = import_s
    metrics["cli.eval_retrieval_rss_mb"] = by_name["eval_retrieval"].rss_mb if "eval_retrieval" in by_name else 0.0
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "ratio" if metric.endswith("_per_detection") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "partfusion" / "cli.py").is_file():
        print(f"error: no partfusion sources under {SRC}; run from a partfusion checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "synth.json").write_text(json.dumps({"n_identities": workload.n_identities}) + "\n")

    setup = [run_command("synth", with_seed(SYNTH, args.seed), work) for _ in range(SETUP_REPEATS)]
    if not all(o.ok for o in setup):
        print("error: set-up (partfusion synth) failed", file=sys.stderr)
        return 1
    setup_s = statistics.median(o.wall_s for o in setup)
    ref = workload.reference(work, args.seed)

    rounds: list[list[Outcome]] = []
    correct = True
    # Start another round only if one more of the last round's length still fits.
    while not rounds or sum(o.wall_s for r in rounds for o in r) + sum(o.wall_s for o in rounds[-1]) <= args.seconds:
        rounds.append(run_round(workload.commands, args.seed, work))
        print("round " + " ".join(f"{o.name}={o.wall_s:.3f}s/{o.cpu_s:.3f}cpu" for o in rounds[-1]), file=sys.stderr)
        try:
            workload.check(work, ref, {o.name for o in rounds[-1] if o.ok})
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        if args.trace:
            break
    outcomes = [o for r in rounds for o in r]

    if args.trace:
        tracer, traced = traced_round(workload, args.seed, work / "traced")
        outcomes += traced[1:]  # the traced set-up is not a round command
        try:
            workload.check(work / "traced", ref, {o.name for o in traced if o.ok})
            same_outputs(work, work / "traced", workload.commands)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            print(f"check failed on the traced round: {exc}", file=sys.stderr)
            correct = False
        metrics = cli_metrics(rounds[0], setup_s, import_seconds())
        metrics.update(tracer.layer_metrics())
        (RUNS / f"{args.workload}-seed{args.seed}.spans.json").write_text(json.dumps(tracer.spans) + "\n")
    else:
        metrics = {
            "wall_s": statistics.median(sum(o.wall_s for o in r) for r in rounds),
            "cpu_s": statistics.median(sum(o.cpu_s for o in r) for r in rounds),
            "peak_rss_mb": max(o.rss_mb for o in outcomes),
            "setup_s": setup_s,
        }

    if correct:
        shutil.rmtree(work)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
