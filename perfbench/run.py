#!/usr/bin/env python3
"""gradcodec benchmark: wire-true workloads with a correctness gate.

    python3 perfbench/run.py --workload wire-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 [--trace 1]

One workload runs per process.  Every message goes encode ->
pack_container -> unpack_container -> decode and is checked against
the encoder's reconstruction.  --trace 0 measures the end-to-end
metrics with tracing off; --trace 1 adds one traced job plus the
per-layer probes and reports the per-layer metrics.  The last line of
standard output is a JSON object with keys correct, attempted, failed
and metrics; the full report, machine description and spans go to
perfbench/results/.  --all runs every workload in a fresh process and
prints one table.  Exit status: 0 when every gate passed, 1 when one
failed, 2 when gradcodec cannot be imported from this checkout's src/.
"""

import os

# One single-threaded process: BLAS may not add threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("wire-sparse", "wire-dense", "sc-sample", "cgd-desk")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900

KINDS = ("dsd", "rsd", "sc", "topk", "randsparse", "dither", "ternary", "natural",
         "identity")

END_TO_END_UNITS = {
    "setup_s": "s",
    "coords_per_s": "coord/s",
    "msg_ms_p50": "ms",
    "msg_ms_p90": "ms",
    "job_s": "s",
    "bits_per_coord": "bit/coord",
    "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    "bitio.subset_rank_ms": "ms",
    "bitio.subset_unrank_ms": "ms",
    "bitio.subset_code_width_ms": "ms",
    "bitio.rank_share": "ratio",
    "bitio.rank_share_base_ms": "ms",
    "bitio.unary_block_ms": "ms",
    "bitio.float32_block_ms": "ms",
    "bitio.container_ms": "ms",
    "bitio.container_overhead_bits": "bit",
    **{f"compressors.{metric}.{kind}": unit
       for metric, unit in (("encode_ms", "ms"), ("decode_ms", "ms"),
                            ("encode_self_ms", "ms"), ("encode_peak_mb", "MB"))
       for kind in KINDS},
    "compressors.sc_trials_mean": "count",
    "compressors.sc_trials_times_p": "ratio",
    "compressors.signed_zero_msgs": "count",
    "rng.replay_ms": "ms",
    "rng.message_stream_us": "us",
    "geometry.cap_probability_us": "us",
    "optim.gradient_us": "us",
    "optim.smoothness_s": "s",
    "optim.minimizer_s": "s",
    "data.load_dataset_s": "s",
    "optim.iterations_to_eps": "count",
    "optim.bits_to_eps": "bit",
    "bounds.dsd_bits_over_predicted": "ratio",
    "trace.overhead_pct": "%",
    "trace.overhead_base_s": "s",
}


def machine():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


@dataclass
class Timing:
    """One job reduced to what the report and the gate need, so that the
    message records of a job are freed before the next job runs."""

    seconds: float
    rt: dict            # kind -> round-trip seconds per message
    per_coord: dict     # kind -> round-trip seconds per coordinate, per message
    bits: int
    coords: int
    kinds: dict         # per-kind rows of the report
    failures: list
    runs: list

    @classmethod
    def of(cls, job):
        rt, per_coord = {}, {}
        for m in job.messages:
            rt.setdefault(m.kind, []).append(m.seconds)
            per_coord.setdefault(m.kind, []).append(m.seconds / m.d)
        return cls(
            seconds=job.seconds,
            rt={k: np.array(v) for k, v in rt.items()},
            per_coord={k: np.array(v) for k, v in per_coord.items()},
            bits=sum(m.bits for m in job.messages),
            coords=sum(m.d for m in job.messages),
            kinds=per_kind(job.messages),
            failures=[m.failure for m in job.messages if m.failure],
            runs=job.runs,
        )

    @property
    def messages(self):
        return sum(v.size for v in self.rt.values())


def measure(wl, state, seconds, null):
    """Repeat the job while another one still fits in `seconds` of wall time
    (at least once)."""
    timings = []
    start = time.perf_counter()
    while True:
        timings.append(Timing.of(wl.run_job(state, null)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(timings) + 1) / len(timings) > seconds:
            return timings


def end_to_end(timings, setup_s):
    # Every operator kind counts once, whatever its share of the messages:
    # on cgd-desk the seed sets how many steps each kind takes.
    kinds = timings[0].rt
    rt = {k: np.concatenate([t.rt[k] for t in timings]) for k in kinds}
    per_coord = {k: np.concatenate([t.per_coord[k] for t in timings]) for k in kinds}

    def over_kinds(q):
        return 1e3 * statistics.fmean(float(np.percentile(v, q)) for v in rt.values())

    return {
        "setup_s": setup_s,
        "coords_per_s": len(kinds) / sum(float(v.mean()) for v in per_coord.values()),
        "msg_ms_p50": over_kinds(50),
        "msg_ms_p90": over_kinds(90),
        "job_s": statistics.median(t.seconds for t in timings),
        "bits_per_coord": timings[0].bits / timings[0].coords,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_kind(messages):
    """Per operator kind: round-trip median and computed bytes per message."""
    rows = {}
    for m in messages:
        rows.setdefault(m.kind, []).append(m)
    return {
        kind: {
            "messages": len(ms),
            "rt_ms_p50": 1e3 * statistics.median(m.seconds for m in ms),
            "bits_per_coord": sum(m.bits for m in ms) / sum(m.d for m in ms),
            "input_bytes": 8 * ms[0].d,
            "container_bytes": statistics.median(m.container_bytes for m in ms),
            # BitString holds one byte per payload bit
            "bitstring_bytes": statistics.median(m.bits for m in ms),
        }
        for kind, ms in rows.items()
    }


def layer_metrics(workloads, tr, setup_tr, job, prober, base_rt_s):
    """Per-layer metrics from the traced job's spans and probes."""
    spans = tr.totals()
    setup = setup_tr.totals()

    def per_msg(name):
        return spans.get(name, {})

    def med(values, scale):
        values = list(values)
        return scale * statistics.median(values) if values else 0.0

    def mean(values, scale):
        values = list(values)
        return scale * statistics.fmean(values) if values else 0.0

    def paired(a, b, scale):
        pa, pb = per_msg(a), per_msg(b)
        return mean((pa[i] + pb[i] for i in pa if i in pb), scale)

    msgs = [m for m in job.messages if not m.failure]
    enc, dec = per_msg("compressors.encode"), per_msg("compressors.decode")
    rank, unrank = per_msg("bitio.subset_rank"), per_msg("bitio.subset_unrank")
    coded = sum(enc.values()) + sum(dec.values())
    # bitio, rng, geometry and optim: mean per message that reaches the layer
    out = {
        "bitio.subset_rank_ms": mean(rank.values(), 1e3),
        "bitio.subset_unrank_ms": mean(unrank.values(), 1e3),
        "bitio.subset_code_width_ms": mean(per_msg("bitio.subset_code_width").values(), 1e3),
        "bitio.rank_share": (sum(rank.values()) + sum(unrank.values())) / coded if coded else 0.0,
        "bitio.rank_share_base_ms": 1e3 * coded / len(msgs) if msgs else 0.0,
        "bitio.unary_block_ms": paired("bitio.write_unary_block", "bitio.read_unary_block", 1e3),
        "bitio.float32_block_ms": paired("bitio.write_float32_block",
                                         "bitio.read_float32_block", 1e3),
        "bitio.container_ms": paired("bitio.pack_container", "bitio.unpack_container", 1e3),
        "bitio.container_overhead_bits": mean((8 * m.container_bytes - m.bits for m in msgs), 1),
    }
    inner = [per_msg(name) for name in workloads.ENCODE_INNER]
    for kind in KINDS:
        ids = [m.id for m in msgs if m.kind == kind]
        out[f"compressors.encode_ms.{kind}"] = med((enc[i] for i in ids), 1e3)
        out[f"compressors.decode_ms.{kind}"] = med((dec[i] for i in ids), 1e3)
        out[f"compressors.encode_self_ms.{kind}"] = med(
            (enc[i] - sum(p.get(i, 0.0) for p in inner) for i in ids), 1e3)
        out[f"compressors.encode_peak_mb.{kind}"] = prober.peak_mb.get(kind, 0.0)
    trials = prober.sc_trials
    out["compressors.sc_trials_mean"] = float(np.mean(trials)) if trials else 0.0
    out["compressors.sc_trials_times_p"] = out["compressors.sc_trials_mean"] * (prober.sc_p or 0.0)
    out["compressors.signed_zero_msgs"] = sum(m.signed_zeros for m in msgs)
    out["rng.replay_ms"] = mean(per_msg("rng.replay").values(), 1e3)
    out["rng.message_stream_us"] = mean(per_msg("rng.message_stream").values(), 1e6)
    out["geometry.cap_probability_us"] = mean(per_msg("geometry.cap_probability").values(), 1e6)
    out["optim.gradient_us"] = mean(per_msg("optim.gradient").values(), 1e6)
    for name in ("optim.smoothness", "optim.minimizer", "data.load_dataset"):
        out[f"{name}_s"] = sum(setup.get(name, {}).values())
    out["optim.iterations_to_eps"] = sum(r.iterations for r in job.runs)
    out["optim.bits_to_eps"] = sum(r.bits for r in job.runs)
    out["bounds.dsd_bits_over_predicted"] = (
        prober.dsd_bits / prober.dsd_predicted if prober.dsd_predicted else 0.0)
    traced_rt = sum(m.seconds for m in job.messages)
    out["trace.overhead_pct"] = 100.0 * (traced_rt - base_rt_s) / base_rt_s
    out["trace.overhead_base_s"] = base_rt_s
    return out


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import spans
    t0 = spans.clock()
    try:
        import gradcodec
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import gradcodec from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = spans.clock() - t0
    if Path(gradcodec.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: gradcodec came from {gradcodec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.make_workload(args.workload)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_tr = spans.Tracer() if args.trace else workloads.NULL
        t0 = spans.clock()
        state = wl.setup(args.seed, setup_tr)
        setup_times.append(spans.clock() - t0)
    setup_s = import_s + statistics.median(setup_times)

    timings = measure(wl, state, args.seconds, workloads.NULL)
    report = end_to_end(timings, setup_s)
    failures = [f for t in timings for f in t.failures]
    attempted = sum(t.messages + len(t.runs) for t in timings)
    failures += wl.verify(state, timings)

    layers, span_dump = {}, None
    if args.trace:
        tr = spans.Tracer()
        prober = workloads.Prober(tr)
        traced = wl.run_job(state, tr, prober)
        base = statistics.median(sum(float(v.sum()) for v in t.rt.values()) for t in timings)
        layers = layer_metrics(workloads, tr, setup_tr, traced, prober, base)
        failures += [m.failure for m in traced.messages if m.failure]
        attempted += len(traced.messages)
        span_dump = tr.dump()

    runs = timings[0].runs
    extras = {
        "jobs": len(timings),
        "messages": sum(t.messages for t in timings),
        "fail_frac": len(failures) / attempted,
        "gradcodec_import_s": import_s,
        "setup_s_each": setup_times,
    }
    if runs:
        extras.update({
            "time_to_eps_s": report["job_s"],
            "iterations_to_eps": sum(r.iterations for r in runs),
            "bits_to_eps": sum(r.bits for r in runs),
            "cgd_runs": len(runs),
        })
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "end_to_end": report,
        "extras": extras, "per_kind": timings[0].kinds, "per_layer": layers,
        "failures": failures[:20],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(result))
    if span_dump is not None:
        with gzip.open(RESULTS / f"{stem}.spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(span_dump, fh)

    print_report(result, path)
    metrics = layers if args.trace else report
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not failures else 1


def print_report(result, path):
    m = result["machine"]
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("machine " + " ".join(f"{k}={v}" for k, v in m.items()))
    for name, value in result["end_to_end"].items():
        print(f"  {name:<34} {value:>16.6g} {END_TO_END_UNITS[name]}")
    for name, value in result["extras"].items():
        if not isinstance(value, list):
            print(f"  {name:<34} {value:>16.6g}")
    print("  per kind: messages, rt_ms_p50, bits/coord, bytes per message "
          "(input, container, BitString)")
    for kind, row in result["per_kind"].items():
        print(f"    {kind:<11} {row['messages']:>6} {row['rt_ms_p50']:>12.4g} "
              f"{row['bits_per_coord']:>10.4g} {row['input_bytes']:>10} "
              f"{row['container_bytes']:>10.0f} {row['bitstring_bytes']:>10.0f}")
    for name, value in result["per_layer"].items():
        note = " (estimate)" if ".encode_self_ms." in name else ""
        print(f"  {name:<42} {value:>14.6g} {PER_LAYER_UNITS[name]}{note}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  result file {path.relative_to(HERE.parent)}")


def run_all(args):
    """Every workload in a fresh process, then one table of every metric."""
    tables, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.unlink(missing_ok=True)  # a child that crashes must not leave an old table
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if proc.returncode in (0, 1) and path.exists():
            tables[name] = json.loads(path.read_text())
    rows = {}
    for name, res in tables.items():
        metrics = res["per_layer"] if args.trace else {**res["end_to_end"], **res["extras"]}
        for key, value in metrics.items():
            if not isinstance(value, list):
                rows.setdefault(key, {})[name] = value
    print("\n" + f"{'metric':<42}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for key, per in rows.items():
        unit = (PER_LAYER_UNITS if args.trace else END_TO_END_UNITS).get(key, "")
        cells = "".join(f"{per[w]:>14.5g}" if w in per else f"{'-':>14}" for w in WORKLOADS)
        print(f"{key:<42}{cells}  {unit}")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
