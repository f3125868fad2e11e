"""Command-line frontend: synth, match, train-parts, learn-weights, eval.

Every command takes a single --seed, derives all sub-seeds deterministically,
and writes a manifest.json into the output directory recording the command,
its configuration, and SHA-256 digests of inputs and outputs. Reruns with
identical inputs and seed produce byte-identical outputs, digests included.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    FeatureMatrix,
    GLOBAL_PART_ID,
    PartRegistry,
    atomic_write_text,
    load_index,
    read_features,
    read_registry,
    read_tsv_rows,
)
from .fusion import (
    DEFAULT_C_GRID,
    FusionWeights,
    learn_weights,
    read_prob_table,
    read_weights,
    write_prob_table,
    write_weights,
)
from .matching import LAMBDA_SCORE, TAU_IOU, activations_per_instance, load_detections, match_detections
from .protocols import (
    DEFAULT_K_LIST,
    DEFAULT_SHOTS,
    DEFAULT_TRAIN_CFG,
    EVAL_SPLIT,
    ONESHOT_REPEATS,
    REFERENCE_SPLIT,
    curve_csv,
    eval_ablation,
    eval_faces_split,
    eval_oneshot,
    eval_recognition,
    half_split_training,
    report_text,
    run_retrieval_protocol,
)
from .synth import SynthConfig, config_from_json, generate, write_synth

__all__ = ["main"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: list[Path],
    seed: int,
) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in sorted(inputs)},
        "outputs": {p.relative_to(out_dir).as_posix(): _sha256(p) for p in sorted(outputs)},
        "seed": seed,
        "version": __version__,
    }
    path = out_dir / "manifest.json"
    atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_parts(directory: str | Path, pattern: str, read) -> tuple[dict, list[Path]]:
    """Read a directory's ``pattern`` files into {header part id: part}, and return the files too, by part id.

    Rejects a part id read twice, naming both files, and ids other than 0, 1, ..., n - 1.
    """
    files = sorted(Path(directory).glob(pattern))
    if not files:
        raise ValueError(f"no {pattern} files under {directory}")
    parts, source = {}, {}
    for f in files:
        part = read(f)
        if part.part_id in parts:
            raise ValueError(f"{f}: part id {part.part_id} was already read from {source[part.part_id]}")
        parts[part.part_id], source[part.part_id] = part, f
    if sorted(parts) != list(range(len(parts))):
        raise ValueError(f"{directory}: {pattern} files must cover contiguous part ids from 0, got {sorted(parts)}")
    return parts, [source[pid] for pid in range(len(parts))]


def _load_features(directory: str, dataset: Dataset) -> tuple[dict[int, FeatureMatrix], PartRegistry, list[Path]]:
    """A feature directory's part_*.pfv files, the registry its parts.tsv declares, and the files read.

    Fails when the two disagree on the part ids, when a feature row's instance is not in ``dataset``, or
    when the global part lacks a row for one of its instances.
    """
    features, files = _load_parts(directory, "part_*.pfv", read_features)
    registry_path = Path(directory) / "parts.tsv"
    registry = read_registry(registry_path)
    if len(registry.parts) != len(features):
        raise ValueError(
            f"{registry_path} declares {len(registry.parts)} parts, but {directory} holds {len(features)} part_*.pfv files"
        )
    known = {inst.instance_id for inst in dataset.instances}
    for pid, path in enumerate(files):
        unknown = set(features[pid].instance_ids.tolist()) - known
        if unknown:
            raise ValueError(f"{path}: instance {min(unknown)} is not in the index")
    missing = known - set(features[GLOBAL_PART_ID].instance_ids.tolist())
    if missing:
        raise ValueError(f"{files[GLOBAL_PART_ID]}: the global part has no row for index instance {min(missing)}")
    return features, registry, [*files, registry_path]


def _ints_text(values: tuple[int, ...]) -> str:
    """The comma-separated flag value of ``values``."""
    return ",".join(map(str, values))


def _parse_ints(flag: str, text: str) -> tuple[int, ...]:
    """A comma-separated flag value of integers."""
    try:
        return tuple(int(item) for item in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated int values, got {text!r}") from None


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative integer, as every seeded generator needs."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _weights_for(args, registry) -> tuple[FusionWeights, list[Path]]:
    if args.weights:
        fw = read_weights(args.weights)
        if len(fw) != len(registry.parts):
            raise ValueError(f"{args.weights}: {len(fw)} weights for {len(registry.parts)} parts")
        return fw, [Path(args.weights)]
    return FusionWeights(np.ones(len(registry.parts))), []


def cmd_synth(args) -> int:
    cfg = config_from_json(args.config) if args.config else SynthConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    data = generate(cfg)
    out = _out_dir(args)
    outputs = write_synth(data, out)
    config = dataclasses.asdict(cfg)
    inputs = [Path(args.config)] if args.config else []
    _write_manifest(out, "synth", config, inputs, outputs, cfg.seed)
    return 0


def cmd_match(args) -> int:
    dataset = load_index(args.dataset)
    by_photo_dets = load_detections(args.detections)
    by_photo_truths: dict[int, list] = {}
    for inst in dataset.instances:
        by_photo_truths.setdefault(inst.photo_id, []).append(inst)
    unknown = sorted(set(by_photo_dets) - set(by_photo_truths))
    if unknown:
        photo_id = unknown[0]
        det_id = by_photo_dets[photo_id][0].detection_id
        # the line is looked up here, on the error path, so loading keeps no line numbers
        text = Path(args.detections).read_text(encoding="utf-8").splitlines()
        key = (photo_id, det_id)
        lineno = next(k for k, line in enumerate(text, 1) if line and tuple(map(int, line.split("\t", 2)[:2])) == key)
        raise ValueError(f"{args.detections}:{lineno}: detection {det_id} is of photo {photo_id}, which the index lacks")

    lines = []
    for photo_id in sorted(by_photo_truths):
        truths = by_photo_truths[photo_id]
        dets = by_photo_dets.get(photo_id, [])
        assignment = match_detections(truths, dets)
        table = activations_per_instance(assignment, truths, dets)
        for iid in sorted(table):
            for part_id, patch, act in table[iid]:
                lines.append(
                    "\t".join(
                        [
                            str(iid),
                            str(part_id),
                            repr(float(patch.x)),
                            repr(float(patch.y)),
                            repr(float(patch.w)),
                            repr(float(patch.h)),
                            repr(float(act)),
                        ]
                    )
                )
    out = _out_dir(args)
    act_path = out / "activations.tsv"
    atomic_write_text(act_path, "\n".join(lines) + ("\n" if lines else ""))

    config = {
        "dataset": args.dataset,
        "detections": args.detections,
        "tau_iou": TAU_IOU,
        "lambda_score": LAMBDA_SCORE,
    }
    _write_manifest(
        out, "match", config, [Path(args.dataset), Path(args.detections)], [act_path], args.seed
    )
    return 0


def cmd_train_parts(args) -> int:
    dataset = load_index(args.dataset)
    features, registry, feature_files = _load_features(args.features, dataset)
    trained = half_split_training(dataset, features, registry.part_ids, args.split, args.seed)
    out = _out_dir(args)

    outputs: list[Path] = []
    tables_dir = out / "tables"
    tables_dir.mkdir(exist_ok=True)
    # one part's table at a time: each is written before the next is built
    for table in trained.filled_tables():
        p = tables_dir / f"part_{table.part_id:03d}.ppt"
        write_prob_table(p, table)
        outputs.append(p)
        del table

    labels_path = out / "labels.tsv"
    atomic_write_text(
        labels_path,
        "".join(f"{iid}\t{lab}\n" for iid, lab in sorted(trained.label_of.items())),
    )
    outputs.append(labels_path)
    halves_path = out / "halves.tsv"
    atomic_write_text(
        halves_path,
        "".join(f"{iid}\t{h}\n" for iid, h in sorted(trained.halves.items())),
    )
    outputs.append(halves_path)

    config = {
        "dataset": args.dataset,
        "features": args.features,
        "split": args.split,
        "svm_c": DEFAULT_TRAIN_CFG.C,
        "epochs": DEFAULT_TRAIN_CFG.epochs,
        "n_identities": trained.n_identities,
        "excluded_identities": trained.excluded_identities,
        "excluded_instances": trained.excluded_instances,
    }
    inputs = [Path(args.dataset)] + feature_files
    _write_manifest(out, "train-parts", config, inputs, outputs, args.seed)
    return 0


def _read_id_map(path: Path, tables: dict, table_files: list[Path], name: str, n_values: int) -> dict[int, int]:
    """An ``instance_id<TAB>integer`` file that must cover every instance of ``tables``.

    Each instance is listed once, with its ``name`` (label or half) in
    [0, ``n_values``). An instance it lacks is reported with its table's
    file, ``table_files[part id]``.
    """
    mapping = {}
    for where, (key, value) in read_tsv_rows(path, 2):
        try:
            iid, v = int(key), int(value)
        except ValueError:
            raise ValueError(f"{where}: expected two integers, got {key!r}, {value!r}") from None
        if iid in mapping:
            raise ValueError(f"{where}: instance {iid} is listed twice")
        if not 0 <= v < n_values:
            raise ValueError(f"{where}: {name} must lie in [0, {n_values}), got {v}")
        mapping[iid] = v
    for pid, table_path in enumerate(table_files):
        missing = [i for i in tables[pid].instance_ids.tolist() if i not in mapping]
        if missing:
            raise ValueError(f"{path}: no row for instance {missing[0]} of part {pid}'s table {table_path}")
    return mapping


def cmd_learn_weights(args) -> int:
    tables_dir = Path(args.tables)
    tables, table_files = _load_parts(tables_dir / "tables", "part_*.ppt", read_prob_table)
    labels_of = _read_id_map(tables_dir / "labels.tsv", tables, table_files, "label", tables[0].n_identities)
    halves = _read_id_map(tables_dir / "halves.tsv", tables, table_files, "half", 2)
    fw, info = learn_weights(tables, labels_of, halves, clamp_nonnegative=args.clamp)
    out = _out_dir(args)

    weights_path = out / "weights.tsv"
    write_weights(weights_path, fw)
    grid_path = out / "gridsearch.csv"
    atomic_write_text(
        grid_path,
        "C,balanced_accuracy,objective\n"
        + "".join(f"{c!r},{acc!r},{o!r}\n" for (c, acc), o in zip(info.grid_scores, info.grid_objectives)),
    )

    config = {
        "tables": args.tables,
        "c_grid": [float(c) for c in DEFAULT_C_GRID],
        "clamp": args.clamp,
        "loss": "squared_hinge",
        "best_C": info.best_C,
        "n_pairs": info.n_pairs,
    }
    inputs = table_files + [tables_dir / "labels.tsv", tables_dir / "halves.tsv"]
    _write_manifest(out, "learn-weights", config, inputs, [weights_path, grid_path], args.seed)
    return 0


def _protocol_texts(args, dataset, features, registry, fw) -> dict[str, str]:
    """Run the ``--protocol`` of ``args``; {output file name: its text}."""
    if args.protocol in ("recognition", "recognition-no-fill"):
        fill = args.protocol == "recognition"
        return {"report.txt": report_text(eval_recognition(dataset, features, registry, fw, args.seed, fill=fill))}
    if args.protocol == "oneshot":
        shots = _parse_ints("--shots", args.shots)
        report = eval_oneshot(dataset, features, registry, fw, shots, args.seed)
        return {"report.txt": report_text(report), "curve.csv": curve_csv(report)}
    if args.protocol == "retrieval":
        K_list = _parse_ints("--k-list", args.k_list)
        report = run_retrieval_protocol(dataset, features, registry, fw, args.seed, K_list)
        return {"report.txt": report_text(report), "curve.csv": curve_csv(report)}
    if args.protocol == "ablation":
        reports = eval_ablation(dataset, features, registry, fw, args.seed)
        texts = {f"report_{mask}.txt": report_text(report) for mask, report in reports.items()}
        texts["summary.tsv"] = "".join(f"{mask}\t{report.accuracy!r}\n" for mask, report in reports.items())
        return texts
    if args.protocol == "faces-split":
        faces, nonfaces = eval_faces_split(dataset, features, registry, fw, args.seed)
        return {"report_faces.txt": report_text(faces), "report_nonfaces.txt": report_text(nonfaces)}
    raise ValueError(f"unknown protocol {args.protocol!r}")


def cmd_eval(args) -> int:
    if args.protocol == "ablation" and args.weights:
        raise ValueError("--weights does not apply to --protocol ablation: ablation always fuses uniformly")
    for flag, value, default, owner, reason in (
        ("--shots", args.shots, DEFAULT_SHOTS, "oneshot", "only oneshot trains on a few shots per identity"),
        ("--k-list", args.k_list, DEFAULT_K_LIST, "retrieval", "only retrieval reports recall at K"),
    ):
        if args.protocol != owner and value != _ints_text(default):
            raise ValueError(f"{flag} does not apply to --protocol {args.protocol}: {reason}")
    dataset = load_index(args.dataset)
    features, registry, feature_files = _load_features(args.features, dataset)
    fw, weight_inputs = _weights_for(args, registry)
    texts = _protocol_texts(args, dataset, features, registry, fw)
    out = _out_dir(args)
    for name, text in texts.items():
        atomic_write_text(out / name, text)

    config = {
        "protocol": args.protocol,
        "dataset": args.dataset,
        "features": args.features,
        "weights": args.weights,
        "split": EVAL_SPLIT,
        "val_split": REFERENCE_SPLIT,
        "mask": "all",
        "shots": args.shots,
        "repeats": ONESHOT_REPEATS,
        "k_list": args.k_list,
        "svm_c": DEFAULT_TRAIN_CFG.C,
        "epochs": DEFAULT_TRAIN_CFG.epochs,
    }
    inputs = [Path(args.dataset)] + feature_files + weight_inputs
    _write_manifest(out, "eval", config, inputs, [out / name for name in texts], args.seed)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partfusion",
        description="Pose-invariant identity recognition by part-classifier fusion.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    p.add_argument("--config", default=None, help="JSON config; defaults when omitted")
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("match", help="assign detections to ground-truth instances")
    p.add_argument("--dataset", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("train-parts", help="train per-part SVMs on half splits")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True, help="directory of part_*.pfv files and their parts.tsv")
    p.add_argument("--split", default=REFERENCE_SPLIT)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_parts)

    p = sub.add_parser("learn-weights", help="learn fusion weights from tables")
    p.add_argument("--tables", required=True, help="train-parts output directory")
    p.add_argument("--clamp", action="store_true", help="clamp weights at zero")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn_weights)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    p.add_argument(
        "--protocol",
        required=True,
        choices=[
            "recognition",
            "recognition-no-fill",
            "oneshot",
            "retrieval",
            "ablation",
            "faces-split",
        ],
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True)
    p.add_argument(
        "--weights",
        default=None,
        help="weights file; uniform when omitted; not taken by ablation, which always fuses uniformly",
    )
    p.add_argument(
        "--shots", default=_ints_text(DEFAULT_SHOTS), help="comma-separated shot counts; taken by oneshot only"
    )
    p.add_argument(
        "--k-list", default=_ints_text(DEFAULT_K_LIST), help="comma-separated K of recall@K; taken by retrieval only"
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
