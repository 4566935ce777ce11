"""Golden digests: the wire bytes, the decoder output and the CGD traces
are frozen, so a refactor that claims "same behaviour" can prove it.

Regenerate (only for an intended wire or trace change) with
    PYTHONPATH=src python tests/test_golden.py
and paste the printed dictionaries over the ones below.
"""

import dataclasses
import hashlib

import numpy as np

from gradcodec import bitio
from gradcodec.cli import main
from gradcodec.compressors import make_operator
from gradcodec.rng import message_stream
from gradcodec.selftest import roundtrip_configs

DIMS = (2, 17, 1000)
SEEDS = (3, 4)
MESSAGES = 5
BENCH_DATASETS = ("synth:ridge:d=50,n=200,seed=7", "synth:logistic:d=50,n=200,seed=7")

# sha256 over (container bytes, decoder output bytes) of every message, per (kind, d)
WIRE_DIGESTS = {
    "dither/1000":
        "d9cbaf89a4b697cbc03862de72cdc81f76fcbe87608db09b2423e3c1fb01d05e",
    "dither/17":
        "aba64a3d8c0dc02e6b4d687fd7c3f0cb3f02ede16875dee20a716c6229d21983",
    "dither/2":
        "32f30a74aacbea1c2cf0781e5552a8082abaf3a49f00a31a4ed7118200fa093a",
    "dsd/1000":
        "d655ff464b8e130660afb37b69e0912ee827f6b06b21bfecbea92c0cf71d9fdb",
    "dsd/17":
        "7dda0a7691f47116135eb77b980d2d8abc9d97f7c1a75b49c3985a15745d8e2f",
    "dsd/2":
        "388e0762a0a3b30a6b935bc7822f8e6711f919505103fea29b79a5df838b685f",
    "identity/1000":
        "6e63e22e60a8601666a6c9e94280b22cfd7709a589954619c251ea696d5bd3b7",
    "identity/17":
        "f39c471c960530bf905ea2c71c575012db1cc688dbb6fb256b80e4ad0a78d7fb",
    "identity/2":
        "9fdb327431eda26f26a41b8c5a6f713362f678caa5846e52993290588d63dfaf",
    "natural/1000":
        "4d28c90fb418274ad7be3cf20abbaad9e351dc24762b3773cf996e067065e056",
    "natural/17":
        "5d7d95033ab0337536a57b1e31a315069f2ce6f9f36c36f949a5cbdb0fef6c68",
    "natural/2":
        "5169ad2fa5d8c2e5bc8125212db954597bda888839fa9047970223c31dd6fe78",
    "randsparse/1000":
        "5f822f1782018345b50422b7482aedd62b85d9828af15828f2c0f5790df2dffe",
    "randsparse/17":
        "a05e7d6954046d04d6ad05b7d7e3d351de42bf2c7fe3ac3ebd42ae5cde6609f5",
    "randsparse/2":
        "1ec62dd1d2be1a901a575f9a7d761394e72fe863244c4d521ed6b757976f6066",
    "rsd/1000":
        "ee9e5c668c3411a913bea36081b9d3e26b4d69a1b659af874d2e2d3e4ad02a02",
    "rsd/17":
        "09d3aab57193e290321c7b3b022a36397bf585606b9174d9a4f549d340229831",
    "rsd/2":
        "761b9ef1291c19c1c4dfac92e0c4c04e6a00656c40f2a0f503d670cfe89d614e",
    "sc/1000":
        "66d495b260d188f5996150a770fb05ec64c0be871986c2b2d8bc0a8bca06025d",
    "sc/17":
        "dfcae38f72bc5258ef10a57e28d97d8dcd60dc22c47261835409ba118b8e69bf",
    "sc/2":
        "d81458c15e0d7c4dc639e304454cbba30e2805520e53725b7febe39103a71df5",
    "ternary/1000":
        "2a5ef43c67ac5540adac3422f7dafbe4875371d23fe90adccc79607755a8607c",
    "ternary/17":
        "d81de67306b0d44e22dcab5816ed1322dc6f59bc01a25430443be9cb815ac737",
    "ternary/2":
        "6541632aa395b4b3eaaa0e933b1af0105096c4aea7a663dcd121e0e4435d8e0f",
    "topk/1000":
        "7e7cfeee0707a3e974e145575bd96acfddf0fb419c91f038618b76c4b52f1ca8",
    "topk/17":
        "0c2552900002c7640d992a23c529f24f40d4aa739e398c8d50dddd2d385344fa",
    "topk/2":
        "f2618ce01bf4a32366e2c5b02e4b03fd22ba3915eb88e79d992aac951ac38e1a",
}

# sha256 of each default `bench` trace CSV, without its `# version=` line
TRACE_DIGESTS = {
    "logistic/trace_basic.csv":
        "a29dc2d98421d92f11b1a96f83767f7aa18d07df6c557e4e7b2982eaf2b5a87d",
    "logistic/trace_dither_s=7_.csv":
        "b0b0e2e527c352f2764fc037e4dc70bcbe852f68ce6ffef589de0ef411ea2499",
    "logistic/trace_dsd_nu=0.1_.csv":
        "4d99018d6c6180ab05f1fd2db3965138f31473a7c64e32525c97b7bfac9aa291",
    "logistic/trace_natural.csv":
        "d966c891e6c4d1be45e1adc87b8933a1b0b37a241fae79b78c17271f54326a83",
    "logistic/trace_rsd_nu=0.25_.csv":
        "ac649a08c33fa3bf993873051d2dacb2a169dd65a839b34b1f546071c1baa8c1",
    "logistic/trace_sc_alpha=0.9_.csv":
        "ecea971821a8a684a08708c3e14df8c070f9fdc1688dc3a94bef8a8db5bf35cf",
    "ridge/trace_basic.csv":
        "298b1033b35d408295526282f37c446b15dfd8aa0b58322da0c4efc2cae99531",
    "ridge/trace_dither_s=7_.csv":
        "a2578a6b39b243d05549c328502f3ea11719ee8afd69b0c5f3372bc758da85a2",
    "ridge/trace_dsd_nu=0.1_.csv":
        "359608817df5a24544905301601b69e054dda79f1498e9aff5242d7b9f27a1fd",
    "ridge/trace_natural.csv":
        "a6be28b95cb9ba95ef1bade3954e0d7e9b96365a022067721a23072fe46b5f40",
    "ridge/trace_rsd_nu=0.25_.csv":
        "330e1707b24292d8c2f80a40b4de4a2a229c385329d40465408b58de9b00467a",
    "ridge/trace_sc_alpha=0.9_.csv":
        "23b4d8bf559fc8cc1b5c21fdf165b31fecc15175f6d794b29e234b1261fd9eec",
}


def wire_digests():
    out = {}
    for d in DIMS:
        for base in roundtrip_configs(d):
            h = hashlib.sha256()
            for seed in SEEDS:
                config = dataclasses.replace(base, seed=base.seed + seed)
                gen = message_stream(seed, 7000 + d)
                xs = gen.standard_normal((MESSAGES, d)) * np.exp(gen.standard_normal((MESSAGES, 1)))
                op = make_operator(config)
                for i in range(MESSAGES):
                    payload, _ = op.compress_at(xs[i], i)
                    blob = bitio.pack_container(op.tag, d, payload)
                    tag, dd, got = bitio.unpack_container(blob)
                    rec = op.decompress(got, dd, message_index=i)
                    h.update(blob)
                    h.update(np.ascontiguousarray(rec, dtype=np.float64).tobytes())
            out[f"{base.kind}/{d}"] = h.hexdigest()
    return out


def trace_digests(outdir):
    out = {}
    for spec in BENCH_DATASETS:
        loss = spec.split(":")[1]
        dest = outdir / loss
        assert main(["bench", "--dataset", spec, "--loss", loss, "--seed", "0",
                     "--out", str(dest)]) == 0
        for path in sorted(dest.glob("trace_*.csv")):
            text = "".join(line for line in path.read_text().splitlines(keepends=True)
                           if not line.startswith("# version="))
            out[f"{loss}/{path.name}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_wire_digests():
    assert wire_digests() == WIRE_DIGESTS


def test_trace_digests(tmp_path, capsys):
    assert trace_digests(tmp_path) == TRACE_DIGESTS


if __name__ == "__main__":
    import pathlib
    import pprint
    import tempfile

    pprint.pprint(wire_digests(), width=100)
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(trace_digests(pathlib.Path(tmp)), width=100)
