"""The paper scripts' command lines parse under the current CLI.

Each script is loaded by path with its `main` replaced by a recorder,
so the check takes milliseconds instead of a full benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from gradcodec import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def recorded_argvs(name, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argvs = []
    module.main = lambda argv: argvs.append(argv) or 0
    assert module.run(*args) == 0
    return module, argvs


@pytest.mark.parametrize("name,args,runs", [
    ("run_bench", (["run_bench.py"],), lambda module: len(module.DEFAULTS)),
    ("run_bench", (["run_bench.py", "data.svm", "logistic"],), lambda module: 1),
    ("run_sweeps", (), lambda module: len(module.SWEEPS)),
], ids=["run_bench", "run_bench-dataset", "run_sweeps"])
def test_script_command_lines_parse(name, args, runs):
    module, argvs = recorded_argvs(name, *args)
    assert len(argvs) == runs(module)
    for argv in argvs:
        parsed = cli.build_parser().parse_args(argv)
        assert parsed.func is getattr(cli, f"cmd_{argv[0]}")
