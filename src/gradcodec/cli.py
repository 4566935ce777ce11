"""Command-line interface.

Subcommands: compress, decompress, stats, bounds, bench, sweep,
selftest.  Exit codes: 0 success, 1 usage error, 2 I/O or parse error,
3 numerical/validation failure.
"""

import argparse
import dataclasses
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__, bitio, bounds, selftest
from .compressors import (CODECS, PARAMS, GiveUpError, OperatorConfig, check_fields,
                          decode_payload, kind_for_tag, make_operator)
from .data import ParseError, load_dataset
from .optim import (SWEEP_FAMILIES, cgd_run, make_problem, minimizer, smoothness,
                    iteration_ratio_sweep, r_squared, sweep_config)
from .rng import default_seed
from .svg import line_plot

# the uncompressed baseline that `bench` labels "basic"
BASIC = OperatorConfig("identity")
# OperatorConfig field -> value type, for `bench --ops` items
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(OperatorConfig)
                if f.name != "kind"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_operator_flags(p):
    p.add_argument("--op", choices=sorted(CODECS),
                   help="operator kind")
    for name, f in PARAMS.items():
        p.add_argument(f"--{name}", type=f.type, help=f.metadata["help"])
    p.add_argument("--wrap-omega", type=float, dest="wrap_omega",
                   help="embed the unbiased operator into B(omega/(1+omega))")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default: GRADCODEC_SEED or 0)")


def _operator_config(args):
    if args.op is None:
        raise UsageError("--op is required")
    return OperatorConfig(kind=args.op, wrap_omega=args.wrap_omega, seed=args.seed,
                          **{name: getattr(args, name) for name in PARAMS})


def _read_vector(path):
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ParseError(1, f"no values in {path}")
    try:
        return np.asarray([float(t) for t in tokens])
    except ValueError as exc:
        raise ParseError(1, f"bad value in {path}: {exc}") from None


def _print_bound_context(config, d, out):
    dist = max(out.distortion, 2.0 ** -64)
    floor = bounds.up_lower_bound(dist, d) if dist < 1.0 else 0.0
    cols = [
        ("bits", f"{out.bits}"),
        ("distortion", f"{out.distortion:.6g}"),
        ("eq1_floor_at_measured", f"{floor:.1f}"),
    ]
    predicted = CODECS[config.kind].predicted
    if predicted is not None:
        cols.append(predicted(config, d))
    print("  ".join(f"{k}={v}" for k, v in cols))


def cmd_compress(args):
    config = _operator_config(args)
    x = _read_vector(args.infile)
    op = make_operator(config)
    payload, out = op.compress_at(x, args.message_index)
    blob = bitio.pack_container(op.tag, x.size, payload)
    with open(args.outfile, "wb") as fh:
        fh.write(blob)
    _print_bound_context(config, x.size, out)
    return 0


def cmd_decompress(args):
    with open(args.infile, "rb") as fh:
        blob = fh.read()
    tag, d, payload = bitio.unpack_container(blob)
    kind = kind_for_tag(tag)
    if kind is None:
        raise bitio.DecodeError(f"unknown operator tag {tag}")
    if args.op is not None and args.op != kind:
        raise UsageError(f"container holds a {kind} message, not {args.op}")
    needed = CODECS[kind].decode_params
    for name in needed:
        if getattr(args, name) is None:
            raise UsageError(f"decoding a {kind} message requires --{name}")
    check_fields(kind, args, needed)  # exit 3 for what compress rejects
    params = SimpleNamespace(
        kind=kind, wrap_omega=args.wrap_omega, seed=args.seed,
        **{name: getattr(args, name) for name in needed},
    )
    rec = decode_payload(params, payload, d, args.message_index)
    text = " ".join(repr(float(v)) for v in rec)
    if args.outfile == "-":
        print(text)
    else:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def cmd_stats(args):
    with open(args.infile, "rb") as fh:
        blob = fh.read()
    tag, d, payload = bitio.unpack_container(blob)
    kind = kind_for_tag(tag) or f"unknown({tag})"
    print(f"operator={kind} d={d} payload_bits={len(payload)} "
          f"container_bytes={len(blob)}")
    return 0


def _parse_grid(text, name):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad {name} grid {text!r}") from None
    if not values:
        raise UsageError(f"empty {name} grid")
    return values


def cmd_bounds(args):
    alphas = _parse_grid(args.alpha_grid, "alpha")
    ds = _parse_grid(args.d_grid, "d")
    if not all(v.is_integer() for v in ds):
        raise UsageError(f"d grid {args.d_grid!r} holds a non-integer")
    ds = [int(v) for v in ds]
    if min(ds) < 1:
        raise UsageError(f"d must be >= 1, got {min(ds)}")
    sep = "\t" if args.format == "table" else ","
    header = sep.join([
        "alpha", "d", "eq1_lower", "avg_lower", "bstar", "bstar_band",
        "predicted_dsd_bits", "predicted_rsd_bits", "savings",
    ])
    lines = [f"# gradcodec {__version__} bounds table", header]
    for d in ds:
        for alpha in alphas:
            # the predicted codec bits and savings take nu = omega = alpha,
            # as the sweep harness labels its axes
            try:
                bstar, band = bounds.bstar_estimate(alpha, d)
                rsd_bits = bounds.rsd_predicted_bits(alpha, d)
                row = [
                    f"{alpha:g}", f"{d}", f"{bounds.up_lower_bound(alpha, d):.2f}",
                    f"{bounds.avg_lower_bound(alpha, d):.2f}", f"{bstar:.2f}", f"{band:.2f}",
                    f"{bounds.dsd_predicted_bits(alpha, d):.1f}", f"{rsd_bits:.1f}",
                    f"{bounds.savings_factor(alpha, rsd_bits, d):.2f}",
                ]
            except ValueError as exc:
                row = [f"{alpha:g}", f"{d}", f"error: {exc}"]
            lines.append(sep.join(row))

    lines.append("")
    lines.append("# nominal per-method savings (d = %d)" % ds[0])
    lines.append(sep.join(["method", "bits", "omega", "bits_over_32d", "savings"]))
    for method, nbits, omega, beta, savings in bounds.savings_table(ds[0]):
        lines.append(sep.join([
            method, f"{nbits:.1f}", f"{omega:g}", f"{beta:.4f}", f"{savings:.2f}",
        ]))
    text = "\n".join(lines) + "\n"
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _parse_ops_list(text, seed):
    configs = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        name, _, params = item.partition(":")
        if name not in CODECS:
            raise UsageError(f"unknown operator kind {name!r} in {item!r}")
        kwargs = {"seed": seed}
        if params:
            for kv in params.split(","):
                key, _, value = kv.partition("=")
                key = key.strip()
                if key not in _FIELD_TYPES:
                    raise UsageError(f"unknown operator field {key!r} in {item!r}")
                try:
                    kwargs[key] = _FIELD_TYPES[key](value)
                except ValueError:
                    raise UsageError(f"bad {key} value {value!r} in {item!r}") from None
        if not CODECS[name].randomized:
            del kwargs["seed"]  # no stream to key: record the default seed
        config = OperatorConfig(name, **kwargs)
        configs.append(("basic" if config == BASIC else item, config))
    if not configs:
        raise UsageError("empty operator list")
    return configs


def _write_text(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _safe_name(label):
    return "".join(ch if ch.isalnum() or ch in "-_=." else "_" for ch in label)


def cmd_bench(args):
    # --ops is checked before the dataset's set-up, which can take seconds
    configs = _parse_ops_list(args.ops, args.seed) if args.ops else None
    dataset = load_dataset(args.dataset)
    problem = make_problem(dataset, args.loss)
    L = smoothness(problem)
    x_star = minimizer(problem)
    d = problem.d

    if configs is None:
        configs = [("basic", BASIC)] + [(c.label(), c) for c in (
            OperatorConfig("dsd", nu=0.1),
            OperatorConfig("rsd", nu=0.25, seed=args.seed),
            OperatorConfig("sc", alpha=0.9, seed=args.seed),
            OperatorConfig("dither", levels=max(1, round(math.sqrt(d))), seed=args.seed),
            OperatorConfig("natural", seed=args.seed),
        )]

    traces = []
    for label, config in configs:
        trace = cgd_run(problem, config, eps=args.eps, x_star=x_star, L=L)
        traces.append((label, trace))

    if args.best_topk:
        best = None
        for k in range(1, d + 1):
            trace = cgd_run(problem, OperatorConfig("topk", k=k),
                            eps=args.eps, x_star=x_star, L=L)
            if trace.status == "converged" and (
                best is None or trace.total_bits < best[1].total_bits
            ):
                best = (f"best top-k (k={k})", trace)
        if best is not None:
            traces.append(best)

    os.makedirs(args.outdir, exist_ok=True)
    series = []
    for label, trace in traces:
        trace.metadata["version"] = __version__
        trace.metadata["label"] = label
        _write_text(os.path.join(args.outdir, f"trace_{_safe_name(label)}.csv"),
                    trace.to_csv())
        series.append((f"{label} [{trace.status}]",
                       trace.bits / 8.0, np.maximum(trace.rel_err, 1e-300)))
        print(f"{label}: iterations={trace.total_iterations} "
              f"bits={trace.total_bits} status={trace.status}")

    svg = line_plot(
        series,
        title=f"CGD on {problem.name} ({problem.loss_kind})",
        xlabel="cumulative bytes",
        ylabel="relative error",
        ylog=True,
        metadata={"dataset": args.dataset, "loss": args.loss,
                  "eps": args.eps, "seed": args.seed, "version": __version__},
    )
    _write_text(os.path.join(args.outdir, "bench.svg"), svg)
    return 0


def cmd_sweep(args):
    dataset = load_dataset(args.dataset)
    problem = make_problem(dataset, args.loss)
    grid = _parse_grid(args.grid, "sweep")
    rows, gd_iters = iteration_ratio_sweep(
        problem, args.family, grid, eps=args.eps, seed=args.seed,
        repeats=args.repeats,
    )
    measured = [r["ratio"] for r in rows]
    predicted = [r["predicted_ratio"] for r in rows]
    fit = r_squared(measured, predicted)

    lines = [
        f"# gradcodec {__version__} sweep family={args.family} "
        f"dataset={args.dataset} loss={args.loss} eps={args.eps} seed={args.seed}",
        f"# gd_iterations={gd_iters} r_squared={fit:.4f}",
        "param,iterations,ratio,predicted_ratio,total_bits,status",
    ]
    for r in rows:
        lines.append(
            f"{r['param']:g},{r['iterations']:g},{r['ratio']:g},"
            f"{r['predicted_ratio']:g},{r['total_bits']:g},{r['status']}"
        )
    os.makedirs(args.outdir, exist_ok=True)
    _write_text(os.path.join(args.outdir, f"sweep_{args.family}.csv"),
                "\n".join(lines) + "\n")

    # the unwrapped kind's class names the axis, so a wrapped rsd sweeps omega
    kind = sweep_config(args.family, grid[0], problem.d).kind
    axis, label = ("omega", "1+X") if CODECS[kind].claim[0] == "unbiased" else ("alpha", "1/(1-X)")
    svg = line_plot(
        [
            ("measured ratio", [r["param"] for r in rows], measured),
            (f"theory {label}", [r["param"] for r in rows], predicted),
            ("total bits / GD bits",
             [r["param"] for r in rows],
             [r["total_bits"] / max(gd_iters * 32.0 * problem.d, 1.0) for r in rows]),
        ],
        title=f"{args.family} sweep on {problem.name}",
        xlabel=axis,
        ylabel="iterations / GD iterations",
        metadata={"family": args.family, "dataset": args.dataset,
                  "eps": args.eps, "seed": args.seed, "version": __version__},
    )
    _write_text(os.path.join(args.outdir, f"sweep_{args.family}.svg"), svg)
    print(f"gd_iterations={gd_iters} r_squared={fit:.4f}")
    return 0


def cmd_selftest(args):
    budget = selftest.FAST if args.fast else selftest.FULL
    gates_ok = True
    notes = {}  # reason -> the first check that failed by design with it
    for name, check in selftest.CHECKS.items():
        ok, detail = check.run(budget)
        if check.reason is None:
            gates_ok &= ok
            mark = "PASS" if ok else "FAIL"
        else:
            mark = "PASS" if ok else "FAIL by design"
            if not ok:
                notes.setdefault(check.reason, name)
        print(f"criterion {check.number:>2} [{mark}] {name}: {detail}")
    for reason, name in notes.items():
        print(f"NOTE: {name} fails by design: {reason}")
    return 0 if gates_ok else 3


def build_parser():
    parser = _Parser(prog="gradcodec",
                     description="gradient compression codecs and benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a vector file to a GCV1 container")
    _add_operator_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--message-index", type=int, default=0)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decode a GCV1 container to text")
    _add_operator_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default="-")
    p.add_argument("--message-index", type=int, default=0)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("stats", help="inspect a GCV1 container header")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bounds", help="closed-form bound tables")
    p.add_argument("--alpha", dest="alpha_grid", default="0.1,0.25,0.5,0.75,0.9")
    p.add_argument("--d", dest="d_grid", default="100,1000,10000")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out", dest="outfile", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bench", help="CGD error-vs-bytes benchmark")
    p.add_argument("--dataset", required=True,
                   help="LIBSVM path or synth:ridge:...|synth:logistic:...")
    p.add_argument("--loss", choices=("ridge", "logistic"), default="ridge")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ops", default=None,
                   help="semicolon list, e.g. 'dsd:nu=0.1;sc:alpha=0.9;identity'")
    p.add_argument("--best-topk", dest="best_topk", action="store_true",
                   help="sweep k in [1,d] and include the best run")
    p.add_argument("--out", dest="outdir", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="iteration ratio vs compression parameter")
    p.add_argument("--family", choices=tuple(SWEEP_FAMILIES), required=True)
    p.add_argument("--grid", required=True, help="comma-separated parameter values")
    p.add_argument("--dataset", required=True)
    p.add_argument("--loss", choices=("ridge", "logistic"), default="ridge")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", dest="outdir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="acceptance battery (--fast: reduced budgets)")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) is None:  # only subcommands with --seed
            args.seed = default_seed()
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ParseError, bitio.DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, GiveUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
