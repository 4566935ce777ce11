"""Tests of the benchmark itself: the correctness gate, the spans, and
that every named metric is emitted.  Run with

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gradcodec.compressors import OPERATOR_TAGS, OperatorConfig, make_operator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _vector(d, j=1):
    return workloads.gradient_like(np.random.default_rng(3), d, j)


def _sent(config, d=300):
    op = make_operator(config)
    x = _vector(d)
    payload, out, blob = workloads.send(op, x, 0)
    return op, x, payload, out, blob


def _gate(op, x, payload, out, blob):
    return workloads.check(op, x, payload, out, workloads.receive(op, blob, 0))


CONFIGS = [
    OperatorConfig("dsd", nu=0.1),
    OperatorConfig("rsd", nu=0.25, seed=2),
    OperatorConfig("topk", k=3),
    OperatorConfig("randsparse", k=3, seed=2),
    OperatorConfig("dither", levels=17, seed=2),
    OperatorConfig("ternary", seed=2),
    OperatorConfig("natural", seed=2),
    OperatorConfig("identity"),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.kind)
def test_gate_passes_a_clean_round_trip(config):
    m, _, rec = workloads.round_trip(make_operator(config), _vector(300), 4, msg=0)
    assert m.failure == ""
    assert rec.shape == (300,)


def test_gate_passes_spherical_compression():
    op = make_operator(OperatorConfig("sc", alpha=0.5, seed=1))
    m, _, _ = workloads.round_trip(op, _vector(5), 0, msg=0)
    assert m.failure == ""


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.kind)
def test_gate_fires_on_a_corrupted_payload(config):
    op, x, payload, out, blob = _sent(config)
    corrupted = bytearray(blob)
    corrupted[13] ^= 0x40  # second bit of the payload
    assert _gate(op, x, payload, out, bytes(corrupted)) != ""


@pytest.mark.parametrize("field,offset,delta", [("tag", 4, 1), ("d", 5, 1), ("bits", 9, -1),
                                                 ("bits", 9, 64)])
def test_gate_fires_on_a_tampered_container(field, offset, delta):
    op, x, payload, out, blob = _sent(OperatorConfig("dsd", nu=0.1))
    assert _gate(op, x, payload, out, blob) == ""
    tampered = bytearray(blob)
    width = 1 if field == "tag" else 4
    value = int.from_bytes(tampered[offset:offset + width], "little") + delta
    tampered[offset:offset + width] = value.to_bytes(width, "little")
    assert _gate(op, x, payload, out, bytes(tampered)) != ""


def test_gate_fires_when_outcome_bits_disagree_with_the_payload():
    op, x, payload, out, blob = _sent(OperatorConfig("identity"))
    wrong = dataclasses.replace(out, bits=out.bits + 1)
    assert "outcome.bits" in _gate(op, x, payload, wrong, blob)


def test_gate_fires_when_spherical_contraction_breaks():
    op = make_operator(OperatorConfig("sc", alpha=0.5, seed=1))
    x = _vector(5)
    payload, out, blob = workloads.send(op, x, 0)
    far = -x
    received = (op.tag, x.size, payload, far)
    assert "alpha" in workloads.check(op, x, payload,
                                      dataclasses.replace(out, reconstructed=far), received)


def test_cgd_gate_matches_cgd_run_and_fires_on_a_mismatch(monkeypatch):
    monkeypatch.setattr(workloads, "CGD_DATASETS", 1)
    wl = workloads.CgdWorkload()
    state = wl.setup(7, workloads.NULL)
    job = wl.run_job(state)
    assert all(m.failure == "" for m in job.messages)
    assert wl.verify(state, [job]) == []
    job.runs[1] = dataclasses.replace(job.runs[1], bits=job.runs[1].bits + 1)
    assert len(wl.verify(state, [job])) == 1


def test_spans_nest_and_inherit_the_message_id():
    tr = spans.Tracer()
    with tr.span("outer", 5):
        with tr.span("inner"):
            pass
    with tr.span("inner", 6):
        pass
    dump = tr.dump()
    names = dump["names"]
    assert [(names[r[0]], r[1], r[4]) for r in dump["rows"]] == [
        ("outer", 5, None), ("inner", 5, 0), ("inner", 6, None)]
    assert set(tr.totals()["inner"]) == {5, 6}
    assert all(r[3] >= r[2] >= 0 for r in dump["rows"])


def test_benchmark_json_names_the_metrics_the_run_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.KINDS == tuple(OPERATOR_TAGS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture
def small_workloads(monkeypatch):
    """The real workloads at a size a test can afford."""
    real = workloads.make_workload

    def small(name):
        wl = real(name)
        if name == "wire-sparse":
            wl.d = 5000
        elif name == "wire-dense":
            wl.d = 20000
        elif name == "sc-sample":
            wl.n_inputs = 30
        return wl

    monkeypatch.setattr(workloads, "make_workload", small)
    monkeypatch.setattr(workloads, "CGD_DATASETS", 1)


# Per-layer metrics that must be non-zero on each workload, i.e. where
# the layer is exercised.
EXERCISED = {
    "wire-sparse": ["bitio.subset_rank_ms", "bitio.subset_unrank_ms", "bitio.rank_share",
                    "bitio.unary_block_ms", "bitio.float32_block_ms",
                    "compressors.encode_ms.dsd", "compressors.decode_ms.topk",
                    "compressors.encode_peak_mb.randsparse", "rng.message_stream_us",
                    "bounds.dsd_bits_over_predicted", "trace.overhead_base_s"],
    "wire-dense": ["bitio.unary_block_ms", "bitio.float32_block_ms", "bitio.container_ms",
                   "compressors.decode_ms.natural", "compressors.encode_peak_mb.identity",
                   "rng.message_stream_us"],
    "sc-sample": ["compressors.sc_trials_mean", "compressors.sc_trials_times_p",
                  "rng.replay_ms", "geometry.cap_probability_us",
                  "compressors.encode_ms.sc"],
    "cgd-desk": ["optim.gradient_us", "optim.smoothness_s", "optim.minimizer_s",
                 "data.load_dataset_s", "optim.iterations_to_eps", "optim.bits_to_eps",
                 "bitio.subset_rank_ms", "bitio.container_overhead_bits"],
}
# Layers a workload does not reach report zero.
ABSENT = {
    "wire-sparse": ["rng.replay_ms", "optim.gradient_us"],
    "wire-dense": ["bitio.subset_rank_ms", "bitio.rank_share", "compressors.encode_ms.dsd"],
    "sc-sample": ["bitio.subset_rank_ms", "optim.iterations_to_eps"],
    "cgd-desk": ["rng.replay_ms", "compressors.encode_ms.sc"],
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_named_metric_is_emitted(name, small_workloads, capsys):
    for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
        code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.01",
                         "--trace", str(trace)])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        result = json.loads(last)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if trace:
            assert all(values[k] > 0 for k in EXERCISED[name]), values
            assert all(values[k] == 0 for k in ABSENT[name]), values
        else:
            assert all(v > 0 for v in values.values()), values


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "sc-sample", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
