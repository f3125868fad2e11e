"""Digest every file the command-line chain writes, to show that a change keeps every output byte.

In a temporary directory, runs ``partfusion`` synth, match, train-parts on
the val and the test split, learn-weights --clamp, and eval with each of the
six protocols (learned weights, apart from ablation, which fuses uniformly),
every command with the same ``--seed``. Then the library path writes its
twins of `LIBRARY_TWINS` under ``library/``: the clamped weights of
`learn_fusion_weights` and an output of each eval protocol's library call,
with the library's defaults, all from `synth.generate`'s in-memory data.
Each should equal its command twin byte for byte, so a library default that
drifts from the command's shows. Prints ``{relative path: sha256}`` for
every file written, as JSON. The package is imported from the ``src``
directory beside this script, so a copy of the script in another checkout
digests that checkout's code:

    python tools/output_digests.py --n-identities 60 --seed 1 > after.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from partfusion import FusionWeights, SynthConfig, generate, learn_fusion_weights, write_weights  # noqa: E402
from partfusion.protocols import (  # noqa: E402
    curve_csv,
    eval_ablation,
    eval_faces_split,
    eval_oneshot,
    eval_recognition,
    report_text,
    run_retrieval_protocol,
)
from partfusion.cli import main as cli_main  # noqa: E402

DATA = ["--dataset", "data/index.tsv", "--features", "data/features"]
WEIGHTS = ["--weights", "weights/weights.tsv"]
COMMANDS = [
    ["synth", "--config", "synth.json", "--out", "data"],
    ["match", "--dataset", "data/index.tsv", "--detections", "data/detections.tsv", "--out", "match"],
    ["train-parts", *DATA, "--split", "val", "--out", "parts-val"],
    ["train-parts", *DATA, "--split", "test", "--out", "parts-test"],
    ["learn-weights", "--tables", "parts-val", "--clamp", "--out", "weights"],
    *(
        ["eval", "--protocol", protocol, *DATA, *([] if protocol == "ablation" else WEIGHTS), "--out", protocol]
        for protocol in ("recognition", "recognition-no-fill", "ablation", "faces-split", "oneshot", "retrieval")
    ),
]
# The command outputs the library path writes again under library/.
LIBRARY_TWINS = (
    "weights/weights.tsv",
    "recognition/report.txt",
    "ablation/summary.tsv",
    "faces-split/report_faces.txt",
    "faces-split/report_nonfaces.txt",
    "oneshot/curve.csv",
    "retrieval/curve.csv",
)


def write_library_twins(n_identities: int, seed: int) -> None:
    """Write `LIBRARY_TWINS` under ``library/`` in the working directory, from the library calls."""
    data = generate(SynthConfig(n_identities=n_identities, seed=seed))
    args = (data.dataset, data.features, data.registry)
    fw, _ = learn_fusion_weights(*args, seed, clamp_nonnegative=True)
    uniform = FusionWeights(np.ones(len(data.registry.parts)))
    faces, nonfaces = eval_faces_split(*args, fw, seed)
    ablation = eval_ablation(*args, uniform, seed)
    texts = {
        "recognition/report.txt": report_text(eval_recognition(*args, fw, seed)),
        "ablation/summary.tsv": "".join(f"{mask}\t{report.accuracy!r}\n" for mask, report in ablation.items()),
        "faces-split/report_faces.txt": report_text(faces),
        "faces-split/report_nonfaces.txt": report_text(nonfaces),
        "oneshot/curve.csv": curve_csv(eval_oneshot(*args, fw, seed=seed)),
        "retrieval/curve.csv": curve_csv(run_retrieval_protocol(*args, fw, seed)),
    }
    library = Path("library")
    for twin in LIBRARY_TWINS:
        (library / twin).parent.mkdir(parents=True, exist_ok=True)
    write_weights(library / "weights/weights.tsv", fw)
    for twin, text in texts.items():
        (library / twin).write_text(text)


def output_digests(n_identities: int, seed: int) -> dict[str, str]:
    """Run the chain and the library twins in a fresh directory; sha256 of each output, by path relative to it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "synth.json").write_text(json.dumps({"n_identities": n_identities}) + "\n")
        os.chdir(work)
        try:
            for argv in COMMANDS:
                if cli_main([*argv, "--seed", str(seed)]) != 0:
                    raise RuntimeError(f"partfusion {' '.join(argv)} failed")
            write_library_twins(n_identities, seed)
        finally:
            os.chdir(cwd)
        return {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name != "synth.json"
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-identities", type=int, required=True, help="identities per split")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(output_digests(args.n_identities, args.seed), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
