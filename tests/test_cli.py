import os
import sys
import time
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gradcodec import bitio, optim
from gradcodec.bitio import BitString
from gradcodec.cli import _parse_ops_list, build_parser, main
from gradcodec.compressors import (CODECS, OPERATOR_TAGS, PARAMS, OperatorConfig,
                                   make_operator)
from gradcodec.geometry import CapParams, cap_probability
from gradcodec.optim import SWEEP_FAMILIES


def run(args):
    return main(list(args))


# a value for every operator parameter, as its CLI flag
PARAM_VALUES = {"nu": "0.25", "alpha": "0.5", "k": "2", "levels": "3"}


def flags(names):
    return [arg for name in names for arg in (f"--{name}", PARAM_VALUES[name])]


# (first bit, width, value) of a payload field no encoder writes: an
# inf or NaN scale or value, or natural's exponent field 255 (2^128)
NON_FINITE_FIELDS = {
    "dsd": (0, 31, 0x7F800000),
    "rsd": (0, 31, 0x7FC00000),
    "sc": (0, 31, 0x7F800000),
    "dither": (0, 31, 0x7FC00000),
    "ternary": (0, 31, 0x7FFFFFFF),
    "topk": (0, 32, 0xFF800000),
    "randsparse": (32, 32, 0x7FC00000),
    "identity": (32, 32, 0x7F800000),
    "natural": (1, 8, 0xFF),
}


def compress_file(tmp_path, kind, x, seed=0):
    """Compress x with `kind` through the CLI; returns the container path."""
    vec, msg = tmp_path / "vec.txt", tmp_path / f"{kind}.gcv"
    vec.write_text(" ".join(repr(float(v)) for v in x))
    assert run(["compress", "--op", kind, *flags(CODECS[kind].params), "--seed", str(seed),
                "--in", str(vec), "--out", str(msg)]) == 0
    return msg


class TestCompressDecompress:
    def test_dsd_round_trip(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("3 4\n")
        msg = tmp_path / "msg.gcv"
        out = tmp_path / "out.txt"
        assert run(["compress", "--op", "dsd", "--nu", "0.1",
                    "--in", str(vec), "--out", str(msg)]) == 0
        stdout = capsys.readouterr().out
        assert "bits=38" in stdout
        assert run(["decompress", "--in", str(msg), "--out", str(out)]) == 0
        values = [float(t) for t in out.read_text().split()]
        assert values == pytest.approx([2.2, 4.4], abs=1e-6)

    def test_sc_needs_matching_seed(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text(" ".join(str(v) for v in np.arange(1.0, 9.0)))
        msg = tmp_path / "m.gcv"
        assert run(["compress", "--op", "sc", "--alpha", "0.5", "--seed", "3",
                    "--in", str(vec), "--out", str(msg)]) == 0
        capsys.readouterr()
        assert run(["decompress", "--in", str(msg), "--alpha", "0.5",
                    "--seed", "3"]) == 0
        rec = [float(t) for t in capsys.readouterr().out.split()]
        x = np.arange(1.0, 9.0)
        err = np.asarray(rec) - x
        assert np.dot(err, err) <= 0.5 * np.dot(x, x)

    def test_stability_over_random_files(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for i in range(10):
            vec = tmp_path / f"v{i}.txt"
            vec.write_text(" ".join(repr(float(v))
                                    for v in rng.standard_normal(6)))
            msg = tmp_path / f"m{i}.gcv"
            assert run(["compress", "--op", "rsd", "--nu", "0.25", "--seed", "9",
                        "--in", str(vec), "--out", str(msg)]) == 0
            capsys.readouterr()
            assert run(["decompress", "--in", str(msg)]) == 0
            first = capsys.readouterr().out
            assert run(["decompress", "--in", str(msg)]) == 0
            assert capsys.readouterr().out == first

    def test_stats(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("1 2 3")
        msg = tmp_path / "m.gcv"
        run(["compress", "--op", "topk", "--k", "2", "--in", str(vec),
             "--out", str(msg)])
        capsys.readouterr()
        assert run(["stats", "--in", str(msg)]) == 0
        out = capsys.readouterr().out
        assert "operator=topk" in out and "d=3" in out

    def test_topk_decode_needs_k(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("1 2 3")
        msg = tmp_path / "m.gcv"
        run(["compress", "--op", "topk", "--k", "2", "--in", str(vec),
             "--out", str(msg)])
        assert run(["decompress", "--in", str(msg)]) == 1
        assert "decoding a topk message requires --k" in capsys.readouterr().err
        assert run(["decompress", "--in", str(msg), "--k", "2"]) == 0

    def test_wrap_on_decode_needs_unbiased_container(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("3 4\n")
        for op, flags, code in (("dsd", ["--nu", "0.1"], 3),
                                ("identity", [], 0)):
            msg = tmp_path / f"{op}.gcv"
            assert run(["compress", "--op", op, *flags, "--in", str(vec),
                        "--out", str(msg)]) == 0
            capsys.readouterr()
            assert run(["decompress", "--in", str(msg), "--wrap-omega", "1.0"]) == code
        assert capsys.readouterr().out.split() == ["1.5", "2.0"]

    @pytest.mark.parametrize("command,listed", [
        ("compress", [f"--{name}" for name in PARAMS]
         + [f.metadata["help"] for f in PARAMS.values()]),
        ("sweep", ["{" + ",".join(SWEEP_FAMILIES) + "}"]),
    ])
    def test_help_lists_generated_flags(self, capsys, command, listed):
        # argparse %-formats help text, so a bad help string fails only here
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for item in listed:
            assert item in text

    @pytest.mark.parametrize("kind", CODECS)
    def test_decodes_with_only_the_decode_flags(self, tmp_path, capsys, kind):
        x = np.array([3.0, -4.0, 0.5, 1.25])
        msg = compress_file(tmp_path, kind, x, seed=7)
        capsys.readouterr()
        assert run(["decompress", "--in", str(msg), "--seed", "7",
                    *flags(CODECS[kind].decode_params)]) == 0
        rec = np.array([float(t) for t in capsys.readouterr().out.split()])
        config = OperatorConfig(kind, seed=7, **{
            name: PARAMS[name].type(PARAM_VALUES[name]) for name in CODECS[kind].params})
        _, out = make_operator(config).compress_at(x, 0)
        assert rec.tobytes() == out.reconstructed.tobytes()

    @pytest.mark.parametrize("kind", CODECS)
    def test_codec_params_are_operator_flags(self, kind):
        parser = build_parser()
        for name in CODECS[kind].params + CODECS[kind].decode_params:
            assert PARAMS[name].metadata["domain"]
            for command in ("compress", "decompress"):
                args = parser.parse_args([command, "--op", kind, f"--{name}", "1",
                                          "--in", "v", "--out", "o"])
                assert getattr(args, name) == 1


class TestErrorPaths:
    def test_unknown_tag_is_decode_error(self, tmp_path):
        blob = bitio.pack_container(250, 3, bitio.BitString([1, 0]))
        bad = tmp_path / "bad.gcv"
        bad.write_bytes(blob)
        assert run(["decompress", "--in", str(bad)]) == 2

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.gcv"
        bad.write_bytes(b"NOPE" + bytes(20))
        assert run(["decompress", "--in", str(bad)]) == 2

    def test_out_of_range_rank_exits_2(self, tmp_path, capsys):
        # dsd at d=10 with n0=5: the 8-bit rank field holds 255 > C(10, 5) - 1
        payload = BitString.concat([
            bitio.write_float_magnitude(1.0), bitio.write_fixed(5, 4),
            bitio.write_fixed(255, 8), BitString([0] * 5),
            bitio.write_unary_block([1] * 5),
        ])
        bad = tmp_path / "bad.gcv"
        bad.write_bytes(bitio.pack_container(OPERATOR_TAGS["dsd"], 10, payload))
        assert run(["decompress", "--in", str(bad)]) == 2
        assert "subset rank 255 out of range" in capsys.readouterr().err

    def test_short_rank_field_rejected_in_bounded_time(self, tmp_path, capsys):
        # dsd at d=10^6 declaring n0=5*10^5 zeros, the first block holding
        # half its coordinates: the 100 bits left cannot hold that block's
        # rank over C(B, B/2), which is rejected before it is computed
        d, block = 10**6, bitio.SUBSET_BLOCK
        payload = BitString.concat([
            bitio.write_float_magnitude(1.0), bitio.write_fixed(d // 2, d.bit_length()),
            bitio.write_fixed(block // 2, block.bit_length()), BitString([1] * 100),
        ])
        bad = tmp_path / "bad.gcv"
        bad.write_bytes(bitio.pack_container(OPERATOR_TAGS["dsd"], d, payload))
        start = time.perf_counter()
        assert run(["decompress", "--in", str(bad)]) == 2
        assert time.perf_counter() - start < 0.5
        assert f"subset rank over C({block},{block // 2})" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["trailing byte", "padding bit"])
    def test_noncanonical_container_exits_2(self, tmp_path, capsys, edit):
        blob = bitio.pack_container(OPERATOR_TAGS["dsd"], 2, BitString([1] * 38))
        bad = tmp_path / "bad.gcv"
        if edit == "trailing byte":
            bad.write_bytes(blob + b"\x00")
        else:
            bad.write_bytes(blob[:-1] + bytes([blob[-1] | 1]))
        assert run(["decompress", "--in", str(bad)]) == 2
        assert "payload bits" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", NON_FINITE_FIELDS)
    def test_non_finite_field_exits_2(self, tmp_path, capsys, kind):
        start, width, word = NON_FINITE_FIELDS[kind]
        msg = compress_file(tmp_path, kind, [3.0, -4.0, 0.5, 1.25])
        tag, d, payload = bitio.unpack_container(msg.read_bytes())
        bits = payload.to01()
        bits = bits[:start] + format(word, f"0{width}b") + bits[start + width:]
        msg.write_bytes(bitio.pack_container(tag, d, BitString([int(b) for b in bits])))
        capsys.readouterr()
        assert run(["decompress", "--in", str(msg), *flags(CODECS[kind].decode_params)]) == 2
        assert "binary32" in capsys.readouterr().err

    @pytest.mark.parametrize("word", [0x7F800001, 0xFF800001], ids=hex)
    def test_signalling_nan_value_exits_2_without_warning(self, tmp_path, capsys, word):
        msg = tmp_path / "m.gcv"
        payload = bitio.write_float32_block([1.0]) + bitio.write_fixed(word, 32)
        msg.write_bytes(bitio.pack_container(OPERATOR_TAGS["identity"], 2, payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["decompress", "--in", str(msg)]) == 2
        assert "binary32" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["topk", "randsparse"])
    def test_more_kept_than_coordinates_exits_2(self, tmp_path, capsys, kind):
        # a k=2 message of d=2 in a d=1 container, read with --k 2
        msg = compress_file(tmp_path, kind, [1.0, -2.0])
        tag, _, payload = bitio.unpack_container(msg.read_bytes())
        msg.write_bytes(bitio.pack_container(tag, 1, payload))
        capsys.readouterr()
        assert run(["decompress", "--in", str(msg), "--k", "2"]) == 2
        assert "subset size 2 exceeds dimension 1" in capsys.readouterr().err

    def test_nonzero_sc_norm_below_d2_exits_2(self, tmp_path, capsys):
        msg = tmp_path / "m.gcv"
        payload = bitio.write_float_magnitude(1.0) + bitio.golomb_rice_encode(1, 1)
        msg.write_bytes(bitio.pack_container(OPERATOR_TAGS["sc"], 1, payload))
        assert run(["decompress", "--in", str(msg), "--alpha", "0.5"]) == 2
        assert "nonzero SC norm at d=1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dsd", "rsd", "dither", "ternary", "sc"])
    def test_scale_below_binary32_exits_3(self, tmp_path, capsys, kind):
        vec = tmp_path / "v.txt"
        vec.write_text("1e-100 -2e-100 3e-100")
        assert run(["compress", "--op", kind, *flags(CODECS[kind].params), "--in", str(vec),
                    "--out", str(tmp_path / "o")]) == 3
        assert "smallest subnormal" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", CODECS)
    def test_negative_message_index_exits_3(self, tmp_path, capsys, kind):
        msg = compress_file(tmp_path, kind, [3.0, -4.0, 1.0], seed=1)
        capsys.readouterr()
        assert run(["compress", "--op", kind, *flags(CODECS[kind].params),
                    "--message-index", "-1", "--in", str(tmp_path / "vec.txt"),
                    "--out", str(tmp_path / "o")]) == 3
        assert run(["decompress", "--in", str(msg), *flags(CODECS[kind].decode_params),
                    "--seed", "1", "--message-index", "-5"]) == 3
        assert capsys.readouterr().err.count("message_index must be >= 0") == 2

    def test_dimension_above_max_d_exits_2(self, tmp_path, capsys):
        # 21 bytes: a dsd header near d = 2^32 over a zero scale and a
        # zero count, which would decode to d float64 zeros
        payload = bitio.write_float_magnitude(0.0) + bitio.write_fixed(0, 32)
        bad = tmp_path / "big.gcv"
        bad.write_bytes(b"GCV1" + bytes([OPERATOR_TAGS["dsd"]])
                        + (2**32 - 1).to_bytes(4, "little")
                        + len(payload).to_bytes(4, "little") + payload.to_bytes())
        assert bad.stat().st_size == 21
        assert run(["decompress", "--in", str(bad)]) == 2
        assert "exceeds MAX_D" in capsys.readouterr().err

    def test_missing_file(self):
        assert run(["decompress", "--in", "/no/such/file.gcv"]) == 2

    def test_missing_op_is_usage_error(self, tmp_path):
        vec = tmp_path / "v.txt"
        vec.write_text("1 2")
        assert run(["compress", "--in", str(vec), "--out", str(tmp_path / "o")]) == 1

    def test_bad_vector_file(self, tmp_path):
        vec = tmp_path / "v.txt"
        vec.write_text("1 two 3")
        assert run(["compress", "--op", "dsd", "--nu", "0.1", "--in", str(vec),
                    "--out", str(tmp_path / "o")]) == 2

    def test_invalid_parameter_value(self, tmp_path):
        vec = tmp_path / "v.txt"
        vec.write_text("1 2")
        assert run(["compress", "--op", "dsd", "--nu", "-1", "--in", str(vec),
                    "--out", str(tmp_path / "o")]) == 3

    def test_unknown_flag(self):
        assert run(["bounds", "--what"]) == 1

    @pytest.mark.parametrize("kind,flag,good,bad,message", [
        ("topk", "--k", "2", "-1", "k must be >= 1, got -1"),
        ("dither", "--levels", "3", "0", "levels must be >= 1, got 0"),
    ], ids=["topk", "dither"])
    def test_decode_parameter_rejected_as_in_compress(self, tmp_path, capsys,
                                                      kind, flag, good, bad, message):
        vec = tmp_path / "v.txt"
        vec.write_text("1 -2 3")
        msg = tmp_path / "m.gcv"
        assert run(["compress", "--op", kind, flag, good, "--in", str(vec),
                    "--out", str(msg)]) == 0
        assert run(["compress", "--op", kind, flag, bad, "--in", str(vec),
                    "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err
        assert run(["decompress", "--in", str(msg), flag, bad]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind,argv,message", [
        ("topk", ["--k", "2", "--levels", "7", "--alpha", "0.5", "--nu", "-3"],
         "topk does not take nu"),
        ("dsd", ["--nu", "-1"], "nu must be > 0, got -1.0"),
        ("dsd", ["--op", "dsd", "--k", "3"], "dsd does not take k"),
    ], ids=["foreign-flags", "encoder-only-domain", "foreign-k"])
    def test_decode_flags_follow_the_compress_rule(self, tmp_path, capsys, kind, argv,
                                                   message):
        msg = compress_file(tmp_path, kind, [1.0, -2.0, 3.0])
        vec = tmp_path / "vec.txt"
        capsys.readouterr()
        assert run(["compress", "--op", kind, *argv, "--in", str(vec),
                    "--out", str(tmp_path / "o")]) == 3
        capsys.readouterr()
        assert run(["decompress", "--in", str(msg), *argv]) == 3
        assert message in capsys.readouterr().err

    def test_encoder_only_flag_in_its_domain_decodes(self, tmp_path, capsys):
        msg = compress_file(tmp_path, "dsd", [1.0, -2.0, 3.0])
        capsys.readouterr()
        assert run(["decompress", "--in", str(msg)]) == 0
        decoded = capsys.readouterr().out
        assert run(["decompress", "--in", str(msg), "--nu", "0.1"]) == 0
        assert capsys.readouterr().out == decoded

    def test_subnormal_cap_probability_exits_3(self, tmp_path, capsys):
        # P(0.01, 312) is about 2e-313: 1/P overflows a float
        d, alpha = 312, 0.01
        p = cap_probability(CapParams(alpha, d))
        assert 0.0 < p < sys.float_info.min
        vec = tmp_path / "v.txt"
        vec.write_text(" ".join(["1"] * d))
        assert run(["compress", "--op", "sc", "--alpha", str(alpha),
                    "--in", str(vec), "--out", str(tmp_path / "o")]) == 3
        # the Rice parameter is worked out here, not by compressors.sc_code,
        # because sc_code rejects this cell
        payload = bitio.write_float_magnitude(1.0) + bitio.golomb_rice_encode(
            1, bitio.golomb_rice_params(p))
        msg = tmp_path / "m.gcv"
        msg.write_bytes(bitio.pack_container(OPERATOR_TAGS["sc"], d, payload))
        assert run(["decompress", "--in", str(msg), "--alpha", str(alpha)]) == 3
        assert "no trial budget" in capsys.readouterr().err


class TestBoundsCommand:
    def test_table_contents(self, capsys):
        assert run(["bounds", "--alpha", "0.25,0.5", "--d", "100,1000"]) == 0
        out = capsys.readouterr().out
        assert "eq1_lower" in out
        assert "randomized sparse dithering (omega=1/4)" in out
        assert "9.90" in out       # table savings for the omega=1/4 row
        assert "5.71" in out       # standard dithering row
        assert "3.16" in out       # natural compression row

    def test_csv_output_to_file(self, tmp_path):
        dest = tmp_path / "bounds.csv"
        assert run(["bounds", "--alpha", "0.5", "--d", "64", "--format", "csv",
                    "--out", str(dest)]) == 0
        text = dest.read_text()
        assert text.splitlines()[0].startswith("# gradcodec")
        assert "alpha,d,eq1_lower" in text

    def test_empty_grid_is_usage_error(self):
        assert run(["bounds", "--alpha", "", "--d", "10"]) == 1

    @pytest.mark.parametrize("grid", ["2.5,10", "10,inf"])
    def test_non_integer_d_is_usage_error(self, capsys, grid):
        assert run(["bounds", "--d", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "non-integer" in captured.err

    @pytest.mark.parametrize("grid,value", [("0", "0"), ("100,-3", "-3")])
    def test_d_below_one_is_usage_error(self, capsys, grid, value):
        assert run(["bounds", "--d", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"d must be >= 1, got {value}" in captured.err


class TestSelftest:
    def test_fast_passes_every_gate(self, capsys):
        assert run(["selftest", "--fast"]) == 0
        numbers = {int(line.split()[1]) for line in capsys.readouterr().out.splitlines()
                   if line.startswith("criterion")}
        assert numbers == set(range(1, 11))


class TestBenchAndSweep:
    def test_bench_writes_csv_and_svg(self, tmp_path, capsys):
        outdir = tmp_path / "bench"
        assert run([
            "bench", "--dataset", "synth:ridge:d=10,n=40,seed=3",
            "--ops", "identity;dsd:nu=0.1;sc:alpha=0.8", "--eps", "1e-3",
            "--seed", "1", "--out", str(outdir),
        ]) == 0
        files = os.listdir(outdir)
        csvs = [f for f in files if f.endswith(".csv")]
        assert len(csvs) == 3
        text = (outdir / csvs[0]).read_text()
        assert text.splitlines()[0].startswith("#")
        assert "t,bits,rel_err,distortion" in text
        svg = outdir / "bench.svg"
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        stdout = capsys.readouterr().out
        assert "basic:" in stdout

    def test_bench_best_topk(self, tmp_path, capsys):
        outdir = tmp_path / "bench2"
        assert run([
            "bench", "--dataset", "synth:ridge:d=6,n=24,seed=3",
            "--ops", "identity", "--best-topk", "--eps", "1e-3",
            "--out", str(outdir),
        ]) == 0
        assert any("best_top-k" in f or "best_top" in f
                   for f in os.listdir(outdir))

    def test_sweep_writes_fit(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        assert run([
            "sweep", "--family", "rsd-wrapped", "--grid", "0.1,0.5",
            "--dataset", "synth:ridge:d=10,n=40,seed=3", "--eps", "1e-3",
            "--seed", "2", "--repeats", "1", "--out", str(outdir),
        ]) == 0
        text = (outdir / "sweep_rsd-wrapped.csv").read_text()
        assert "param,iterations,ratio" in text
        assert "r_squared=" in text
        assert (outdir / "sweep_rsd-wrapped.svg").exists()

    def test_sweep_empty_grid(self, tmp_path):
        assert run(["sweep", "--family", "topk", "--grid", ",",
                    "--dataset", "synth:ridge:d=6,n=12,seed=1",
                    "--out", str(tmp_path)]) == 1

    def test_ops_identity_honours_wrap(self):
        assert _parse_ops_list("identity", 5) == [("basic", OperatorConfig("identity"))]
        [(label, config)] = _parse_ops_list("identity:wrap_omega=0.5", 5)
        assert config == OperatorConfig("identity", wrap_omega=0.5)
        assert label != "basic"

    def test_ops_identity_rejects_k(self, tmp_path):
        assert run(["bench", "--dataset", "synth:ridge:d=6,n=24,seed=3",
                    "--ops", "identity:k=3", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("ops,code", [
        ("foo", 1), ("dsd:nu=abc", 1), ("topk:k=2.5", 1), ("dsd:nu", 1), ("dsd:nu=-1", 3),
    ])
    def test_ops_exit_codes_match_compress(self, tmp_path, capsys, ops, code):
        # what compress's flag parser rejects is a usage error; a value
        # outside its domain is a validation failure, as in compress
        assert run(["bench", "--dataset", "synth:ridge:d=6,n=24,seed=3",
                    "--ops", ops, "--out", str(tmp_path)]) == code
        assert ("usage error:" if code == 1 else "error:") in capsys.readouterr().err

    def test_ops_parsed_before_the_dataset_loads(self, tmp_path, capsys):
        assert run(["bench", "--dataset", str(tmp_path / "missing.svm"),
                    "--ops", "foo", "--out", str(tmp_path)]) == 1
        assert "unknown operator kind 'foo'" in capsys.readouterr().err

    def test_eps_one_terminates_immediately(self, tmp_path, capsys):
        outdir = tmp_path / "b"
        assert run([
            "bench", "--dataset", "synth:ridge:d=6,n=24,seed=3",
            "--ops", "identity;dsd:nu=0.1", "--eps", "1.0", "--out", str(outdir),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("iterations=0") == 2


class TestRejectedSettings:
    @pytest.mark.parametrize("flags", [
        ["--op", "rsd", "--nu", "nan"],
        ["--op", "identity", "--wrap-omega", "nan"],
    ], ids=["nu", "wrap-omega"])
    def test_nan_operator_parameter_exits_3(self, tmp_path, capsys, flags):
        vec = tmp_path / "v.txt"
        vec.write_text("1 -2 3")
        assert run(["compress", *flags, "--in", str(vec),
                    "--out", str(tmp_path / "o")]) == 3
        assert "must be" in capsys.readouterr().err

    def test_decompress_nan_wrap_exits_3(self, tmp_path, capsys):
        vec = tmp_path / "v.txt"
        vec.write_text("1 -2 3")
        msg = tmp_path / "m.gcv"
        assert run(["compress", "--op", "identity", "--in", str(vec),
                    "--out", str(msg)]) == 0
        capsys.readouterr()
        assert run(["decompress", "--in", str(msg), "--wrap-omega", "nan"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("eps", ["nan", "0", "-1"])
    def test_bench_eps_must_be_positive(self, tmp_path, eps):
        start = time.perf_counter()
        assert run(["bench", "--dataset", "synth:ridge:d=6,n=24,seed=3",
                    "--ops", "identity", f"--eps={eps}", "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("family,grid,eps,zero_labels", [
        ("rsd", "0.1", "1", False),  # the baseline meets eps at step 0
        ("rsd", "0.1", "1e-4", True),  # x* = 0, so it does at any eps
        ("topk", "0.5,1", "1e-4", False),  # 1/(1 - alpha) at alpha = 1
        ("dsd", "1", "1e-4", False),
    ], ids=["eps-1", "zero-minimizer", "topk-alpha-1", "dsd-alpha-1"])
    def test_sweep_without_a_ratio_exits_3(self, tmp_path, capsys, family, grid, eps,
                                           zero_labels):
        dataset = "synth:ridge:d=6,n=24,seed=3"
        if zero_labels:  # ridge on labels 0 has the minimizer x* = 0
            dataset = tmp_path / "zero.svm"
            dataset.write_text("0 1:1.0 2:2.0\n0 1:-1 2:0.5\n0 1:0.3 2:-1.5\n")
        outdir = tmp_path / "out"
        assert run(["sweep", "--family", family, "--grid", grid, "--eps", eps,
                    "--dataset", str(dataset), "--out", str(outdir)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()

    def test_sweep_grid_is_checked_before_the_baseline(self, tmp_path, monkeypatch, capsys):
        # nu = -1 is no rsd config, so no CGD run starts, the baseline included
        runs = []
        monkeypatch.setattr(optim, "cgd_run", lambda *a, **k: runs.append(a))
        assert run(["sweep", "--family", "rsd", "--grid", "0.1,0.25,-1",
                    "--dataset", "synth:ridge:d=50,n=200,seed=7", "--out", str(tmp_path)]) == 3
        assert "nu must be > 0, got -1.0" in capsys.readouterr().err
        assert runs == []

    def test_sweep_needs_a_repeat(self, tmp_path):
        start = time.perf_counter()
        assert run(["sweep", "--family", "rsd", "--grid", "0.1",
                    "--dataset", "synth:ridge:d=6,n=24,seed=3", "--repeats", "0",
                    "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 5.0
        assert not os.listdir(tmp_path)


class TestSeedEnvironment:
    def test_env_seed_acts_as_the_flag(self, tmp_path, monkeypatch, capsys):
        vec = tmp_path / "v.txt"
        vec.write_text("0.5 -1.25 2 0.125 -3 0.75")
        compress = ["compress", "--op", "rsd", "--nu", "0.25", "--in", str(vec)]
        flag, env, default = (tmp_path / name for name in ("flag", "env", "default"))
        assert run([*compress, "--seed", "5", "--out", str(flag)]) == 0
        assert run([*compress, "--out", str(default)]) == 0
        monkeypatch.setenv("GRADCODEC_SEED", "5")
        assert run([*compress, "--out", str(env)]) == 0
        assert env.read_bytes() == flag.read_bytes() != default.read_bytes()
        capsys.readouterr()
        assert run(["decompress", "--in", str(env)]) == 0
        decoded = capsys.readouterr().out
        monkeypatch.delenv("GRADCODEC_SEED")
        assert run(["decompress", "--in", str(flag), "--seed", "5"]) == 0
        assert capsys.readouterr().out == decoded

    @pytest.mark.parametrize("command,code", [("compress", 3), ("bounds", 0)])
    def test_bad_env_seed_only_fails_seeded_commands(self, tmp_path, monkeypatch,
                                                     command, code):
        vec = tmp_path / "v.txt"
        vec.write_text("1 -2 3")
        argv = {
            "compress": ["compress", "--op", "dsd", "--nu", "0.1", "--in", str(vec),
                         "--out", str(tmp_path / "o")],
            "bounds": ["bounds", "--alpha", "0.5", "--d", "10"],
        }[command]
        monkeypatch.setenv("GRADCODEC_SEED", "x")
        assert run(argv) == code
