"""The paper scripts' command lines parse under the current CLI, and
the binomial, direct-bits, SC block and subset block grid scripts run.

Each paper script is loaded by path with its `main` replaced by a
recorder, so the check takes milliseconds instead of a full benchmark
run; each grid script times one small cell.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from gradcodec import bitio, cli, compressors

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recorded_argvs(name, *args):
    module = load(name)
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


def test_binom_grid_cell(capsys):
    assert load("binom_grid").main([(300, 150)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3
    assert rows[2].startswith("| 300 | 150 | 296 | 0.987 | ")
    assert rows[2].endswith(" | math.comb |")


def test_direct_bits_grid_cell():
    # one cell of the grid: it reaches into bitio._rank and _unrank by keyword
    module = load("direct_bits_grid")
    d, n0 = 1024, 32
    positions = sorted(np.random.default_rng(0).choice(d, size=n0, replace=False).tolist())
    times = module.cell_ms(positions, d, n0, number=1, rounds=1)
    assert len(times) == len(module.THRESHOLDS)
    assert all(math.isfinite(t) and t > 0.0 for t in times)


def test_sc_block_grid_cell():
    # one cell of each table; the grid sets bitio.BLOCK and puts it back
    module = load("sc_block_grid")
    default, block = bitio.BLOCK, compressors.sc_code(0.01, 200)[2]
    times = module.cell_ms(0.5, 3, messages=4, rounds=1)
    encode_ns, decode_ns = module.scan_ns(200, rounds=1)
    for row in (times, encode_ns, decode_ns):
        assert len(row) == len(module.CAPS)
        assert all(math.isfinite(t) and t > 0.0 for t in row)
    assert (bitio.BLOCK, compressors.sc_code(0.01, 200)[2]) == (default, block)


def test_subset_block_grid_cell():
    # one cell at d = 3B: every block size in the grid, then the single rank;
    # the grid sets bitio.SUBSET_BLOCK and puts it back
    module = load("subset_block_grid")
    default = bitio.SUBSET_BLOCK
    d = 3 * default
    positions = sorted(np.random.default_rng(0).choice(d, size=40, replace=False).tolist())
    times, extra = module.cell(positions, d, rounds=1)
    assert len(times) == len(extra) == len(module.BLOCKS)
    assert all(math.isfinite(t) and t > 0.0 for t in times)
    assert module.cell(positions, d, rounds=1, blocks=(d,))[1] == [0]
    assert bitio.SUBSET_BLOCK == default
