"""`tools/output_digests.py` runs the whole command chain and digests every output."""

import importlib.util
import json
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def test_digests_cover_every_command(capsys):
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for n_identities, seed in ((8, 3), (12, 913)):
        assert tool.main(["--n-identities", str(n_identities), "--seed", str(seed)]) == 0
        digests = json.loads(capsys.readouterr().out)
        out_dirs = {argv[argv.index("--out") + 1] for argv in tool.COMMANDS}
        assert len(out_dirs) == 11
        assert {path.split("/")[0] for path in digests} == out_dirs | {"library"}
        # the library path writes its twins of the command outputs byte for byte
        assert {path for path in digests if path.startswith("library/")} == {f"library/{t}" for t in tool.LIBRARY_TWINS}
        for twin in tool.LIBRARY_TWINS:
            assert digests[f"library/{twin}"] == digests[twin], twin
        assert {f"{d}/manifest.json" for d in out_dirs} <= set(digests)
        assert {"parts-val/tables/part_000.ppt", "weights/weights.tsv", "retrieval/curve.csv"} <= set(digests)
        # the registry train-parts and eval read the part kinds from
        assert "data/features/parts.tsv" in digests
        assert all(re.fullmatch("[0-9a-f]{64}", value) for value in digests.values())
