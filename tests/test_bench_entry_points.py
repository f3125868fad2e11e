"""What the benchmark runner imports from partfusion and the commands it runs must exist.

`perfbench/run.py` imports a few library functions for its reference values
and runs fixed CLI argument lists, each with ``--seed`` appended. A deleted
name or option would otherwise show only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from partfusion import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN = PERFBENCH / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling modules
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module


def _partfusion_imports() -> list[tuple[str, str]]:
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "partfusion"
        for alias in node.names
    ]


def test_every_imported_name_resolves():
    imports = _partfusion_imports()
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        found = hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}") is not None
        assert found, f"from {module_name} import {name}"


def test_every_command_parses(run):
    argvs = [run.SYNTH, run.REFERENCE_TABLES] + [argv for _, argv in run.CHAIN + run.PROTOCOLS]
    assert len(argvs) == 10
    parser = cli._build_parser()
    for argv in argvs:
        args = parser.parse_args(run.with_seed(argv, 0))
        assert args.seed == 0, argv
