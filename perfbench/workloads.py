"""The four benchmark workloads, the wire round trip with its
correctness gate, and the per-layer probes of the traced run.

Each workload builds one fixed job from the seed: a list of messages,
or for cgd-desk a list of CGD runs.  A run repeats the job unchanged,
with the same message indices, so every repetition measures the same
work.  gradcodec sees only the generated vectors and datasets.
"""

import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from gradcodec import bitio, bounds, compressors, optim
from gradcodec.bitio import BitCursor
from gradcodec.compressors import OperatorConfig, make_operator
from gradcodec.data import load_dataset
from gradcodec.geometry import CapParams, cap_probability
from gradcodec.rng import message_stream

from spans import NullTracer, clock

RANDOMIZED = {"rsd", "sc", "randsparse", "dither", "ternary", "natural"}
SUBSET_KINDS = {"dsd", "rsd", "topk", "randsparse"}
UNARY_KINDS = {"dsd", "rsd", "dither", "ternary"}
FLOAT32_KINDS = {"topk", "randsparse", "identity"}
# Probes of calls the encoder makes internally; encode minus these is
# the encoder's estimated self time.
ENCODE_INNER = ("bitio.subset_rank", "bitio.subset_code_width", "bitio.write_unary_block",
                "bitio.write_float32_block", "rng.message_stream",
                "geometry.cap_probability", "rng.replay")
NULL = NullTracer()


def gradient_like(rng, d, j):
    """Input j: a standard normal vector for even j; for odd j a heavy-tailed
    one, a standard normal times exp of a standard normal."""
    x = rng.standard_normal(d)
    if j % 2:
        x *= np.exp(rng.standard_normal(d))
    return x


# --- the wire round trip and its gate ---------------------------------------

@dataclass(slots=True)
class Message:
    """One round trip: encode -> pack_container -> unpack_container -> decode."""

    id: int
    kind: str
    d: int
    bits: int
    container_bytes: int
    seconds: float
    failure: str = ""
    signed_zeros: bool = False  # equal values, but some zero's sign differs


def send(op, x, index, tr=NULL, msg=None):
    """Encode one message and pack it; returns (payload, outcome, container)."""
    with tr.span("compressors.encode", msg):
        payload, out = op.compress_at(x, index)
    with tr.span("bitio.pack_container", msg):
        blob = bitio.pack_container(op.tag, x.size, payload)
    return payload, out, blob


def receive(op, blob, index, tr=NULL, msg=None):
    """Unpack and decode a container: (tag, d, payload, vector) or the decode error."""
    try:
        with tr.span("bitio.unpack_container", msg):
            tag, d, payload = bitio.unpack_container(blob)
        with tr.span("compressors.decode", msg):
            rec = op.decompress(payload, d, index)
    except (bitio.DecodeError, ValueError) as exc:
        return exc
    return tag, d, payload, rec


def check(op, x, payload, out, received):
    """The correctness gate of one round trip: '' if it passed, else why not."""
    if out.bits != len(payload):
        return f"outcome.bits {out.bits} != payload length {len(payload)}"
    if isinstance(received, Exception):
        return f"decode failed: {type(received).__name__}: {received}"
    tag, d, got, rec = received
    if (tag, d, len(got)) != (op.tag, x.size, len(payload)):
        return (f"container header (tag, d, bits) = {(tag, d, len(got))}, "
                f"packed {(op.tag, x.size, len(payload))}")
    if rec.shape != out.reconstructed.shape or not np.array_equal(rec, out.reconstructed):
        return "decoded vector differs from the encoder's reconstruction"
    if op.config.kind == "sc":
        err = rec - x
        if float(err @ err) > op.config.alpha * float(x @ x):
            return "spherical compression broke ||C(x)-x||^2 <= alpha ||x||^2"
    return ""


def round_trip(op, x, index, msg, tr=NULL):
    """Time one round trip, then gate it; returns (Message, payload, decoded vector)."""
    t0 = clock()
    with tr.span("message", msg):
        payload, out, blob = send(op, x, index, tr, msg)
        received = receive(op, blob, index, tr, msg)
    seconds = clock() - t0
    failure = check(op, x, payload, out, received)
    rec = None if isinstance(received, Exception) else received[3]
    m = Message(id=msg, kind=op.config.kind, d=x.size, bits=out.bits,
                container_bytes=len(blob), seconds=seconds, failure=failure)
    if not failure:
        m.signed_zeros = rec.tobytes() != out.reconstructed.tobytes()
    return m, payload, rec


# --- workloads -----------------------------------------------------------------

@dataclass(slots=True)
class CgdRun:
    problem: str
    operator: str
    iterations: int
    bits: int
    status: str


@dataclass
class Job:
    messages: list
    seconds: float
    runs: list = field(default_factory=list)


class MessageWorkload:
    """Independent messages: every input through every operator once per job."""

    def __init__(self, d, n_inputs, configs):
        self.d = d
        self.n_inputs = n_inputs
        self.configs = configs  # seed -> list of OperatorConfig

    def setup(self, seed, tr):
        rng = np.random.default_rng(seed)
        inputs = [gradient_like(rng, self.d, j) for j in range(self.n_inputs)]
        ops = [make_operator(c) for c in self.configs(seed)]
        warm = gradient_like(rng, min(self.d, 1000), 1)
        for op in ops:
            round_trip(op, warm, self.n_inputs, -1)
        return {"inputs": inputs, "ops": ops}

    def run_job(self, state, tr=NULL, probe=None):
        messages = []
        for j, x in enumerate(state["inputs"]):
            for op in state["ops"]:
                m, payload, rec = round_trip(op, x, j, len(messages), tr)
                messages.append(m)
                if probe is not None:
                    probe(op, x, j, m, payload, rec)
        return Job(messages, sum(m.seconds for m in messages))

    def verify(self, state, timings):
        return []


CGD_EPS = 1e-4
CGD_MAX_ITER = 1_000_000
CGD_DATASETS = 24  # dataset seeds per job, each giving a ridge and a logistic problem


def cgd_configs(seed):
    return [
        OperatorConfig("identity"),
        OperatorConfig("dsd", nu=0.1),
        OperatorConfig("rsd", nu=0.25, seed=seed),
        OperatorConfig("dither", levels=7, seed=seed),
        OperatorConfig("natural", seed=seed),
        OperatorConfig("topk", k=5),
    ]


class CgdWorkload:
    """Wire-true CGD to eps on the desk problems, with cgd_run's stopping rule."""

    def setup(self, seed, tr):
        rng = np.random.default_rng(seed)
        problems = []
        for s in rng.integers(1, 2**31 - 1, size=CGD_DATASETS):
            for loss in ("ridge", "logistic"):
                with tr.span("data.load_dataset"):
                    ds = load_dataset(f"synth:{loss}:d=50,n=200,seed={s}")
                problem = optim.make_problem(ds, loss)
                with tr.span("optim.smoothness"):
                    L = optim.smoothness(problem)
                with tr.span("optim.minimizer"):
                    x_star = optim.minimizer(problem)
                problems.append((problem, L, x_star))
        configs = cgd_configs(seed)
        problem, L, x_star = problems[0]
        for c in configs:
            round_trip(make_operator(c), optim.gradient(problem, np.zeros(problem.d)), 0, -1)
        return {"problems": problems, "configs": configs}

    def run_job(self, state, tr=NULL, probe=None):
        messages, runs = [], []
        seconds = 0.0  # gradient, round trip, update and stopping rule; not the gate
        for problem, L, x_star in state["problems"]:
            for config in state["configs"]:
                op = make_operator(config)
                x = np.zeros(problem.d)
                denom = float(np.dot(x - x_star, x - x_star))
                status, t, bits = "max-iterations", 0, 0
                if denom == 0.0:
                    status = "converged"
                while status == "max-iterations" and t < CGD_MAX_ITER:
                    t += 1
                    msg = len(messages)
                    with tr.span("cgd.step", msg):
                        t0 = clock()
                        with tr.span("optim.gradient"):
                            g = optim.gradient(problem, x)
                        seconds += clock() - t0
                        m, payload, rec = round_trip(op, g, t - 1, msg, tr)
                        seconds += m.seconds
                        messages.append(m)
                        if m.failure:
                            status = "gate failed"
                            break
                        t0 = clock()
                        with tr.span("optim.update"):
                            x = x - rec / L
                        diff = x - x_star
                        r = float(np.dot(diff, diff)) / denom
                        seconds += clock() - t0
                    if probe is not None:
                        probe(op, g, t - 1, m, payload, rec)
                    bits += m.bits
                    if r <= CGD_EPS:
                        status = "converged"
                    elif r > optim.DIVERGENCE_GUARD:
                        status = "diverged"
                runs.append(CgdRun(problem.name, config.label(), t, bits, status))
        return Job(messages, seconds, runs)

    def verify(self, state, timings):
        """Every run converged, repeats agree, and optim.cgd_run took the same
        number of iterations and bits for the same config."""
        failures = []
        first = timings[0].runs
        for timing in timings:
            for run, ref in zip(timing.runs, first):
                where = f"{run.problem} {run.operator}"
                if run.status != "converged":
                    failures.append(f"{where}: {run.status}")
                elif (run.iterations, run.bits) != (ref.iterations, ref.bits):
                    failures.append(f"{where}: repeat differs from the first job")
        pairs = [(p, c) for p in state["problems"] for c in state["configs"]]
        for ((problem, L, x_star), config), run in zip(pairs, first):
            ref = optim.cgd_run(problem, config, eps=CGD_EPS, max_iter=CGD_MAX_ITER,
                                x_star=x_star, L=L)
            if (run.iterations, run.bits) != (ref.total_iterations, ref.total_bits):
                failures.append(
                    f"{run.problem} {run.operator}: wire loop took "
                    f"{run.iterations} steps / {run.bits} bits, cgd_run "
                    f"{ref.total_iterations} / {ref.total_bits}")
        return failures


SC_ALPHA = 0.5
SC_D = 20
SC_MESSAGES = 1600
# The SC encoder draws candidate blocks of 8, 32, ... rows up to 65536 rows
# at d=20; that last block is reached only when T > 43688, which about 62%
# of 1600-message jobs contain.  Set-up draws it once, with an acceptance
# region too small to hit (alpha=0.01, P near 1e-20) and a cap that ends the
# loop inside that block, so peak RSS includes it on every seed.
SC_UNREACHABLE_ALPHA = 0.01
SC_LARGEST_BLOCK_TRIALS = 43688 + 65536


class ScWorkload(MessageWorkload):
    """Spherical messages at message indices 0..N-1."""

    def setup(self, seed, tr):
        state = super().setup(seed, tr)
        try:
            compressors.sc_compress(state["inputs"][0], SC_UNREACHABLE_ALPHA, seed,
                                    trial_cap=SC_LARGEST_BLOCK_TRIALS)
        except compressors.GiveUpError:
            pass
        return state


def make_workload(name):
    if name == "wire-sparse":
        d = 10**5
        return MessageWorkload(d, 2, lambda seed: [
            OperatorConfig("dsd", nu=0.1),
            OperatorConfig("rsd", nu=0.25, seed=seed),
            OperatorConfig("topk", k=d // 100),
            OperatorConfig("randsparse", k=d // 100, seed=seed),
        ])
    if name == "wire-dense":
        d = 10**6
        return MessageWorkload(d, 2, lambda seed: [
            OperatorConfig("dither", levels=max(1, round(math.sqrt(d))), seed=seed),
            OperatorConfig("ternary", seed=seed),
            OperatorConfig("natural", seed=seed),
            OperatorConfig("identity"),
        ])
    if name == "sc-sample":
        return ScWorkload(SC_D, SC_MESSAGES, lambda seed: [
            OperatorConfig("sc", alpha=SC_ALPHA, seed=seed),
        ])
    if name == "cgd-desk":
        return CgdWorkload()
    raise ValueError(f"unknown workload {name!r}")


# --- probes of the traced run ---------------------------------------------------

class Prober:
    """Times again, on the same inputs, the layer functions that a round trip
    reaches only inside encode or decode.  Each call gets a span named after
    the function, tagged with the message id."""

    def __init__(self, tr):
        self.tr = tr
        self.peak_mb = {}      # kind -> tracemalloc peak of its first compress
        self.sc_trials = []    # T per spherical message
        self.sc_p = None
        self.dsd_bits = 0      # dsd payload bits, and bounds' prediction for them
        self.dsd_predicted = 0.0

    def _timed(self, name, msg, fn, *args):
        with self.tr.span(name, msg):
            return fn(*args)

    def __call__(self, op, x, index, m, payload, rec):
        if m.failure:
            return
        c, d, msg = op.config, m.d, m.id
        if c.kind == "dsd":
            self.dsd_bits += m.bits
            self.dsd_predicted += bounds.dsd_predicted_bits(c.nu, d)
        if c.kind in RANDOMIZED:
            self._timed("rng.message_stream", msg, message_stream, c.seed, index)
        if c.kind in SUBSET_KINDS:
            self._subset(c, d, msg, rec)
        if c.kind in UNARY_KINDS:
            self._unary(c, msg, payload, rec)
        if c.kind in FLOAT32_KINDS:
            vals = rec if c.kind == "identity" else rec[rec != 0.0]
            block = self._timed("bitio.write_float32_block", msg, bitio.write_float32_block, vals)
            back = self._timed("bitio.read_float32_block", msg, bitio.read_float32_block,
                               BitCursor(block), vals.size)
            _expect(np.array_equal(back, vals), "float32 block probe")
        if c.kind == "sc":
            self._sc(c, d, msg, index, payload)
        if c.kind not in self.peak_mb:
            tracemalloc.start()
            try:
                op.compress_at(x, index)
                self.peak_mb[c.kind] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

    def _subset(self, c, d, msg, rec):
        # dsd/rsd send the zero set, topk/randsparse the kept positions
        pos = np.flatnonzero(rec == 0.0 if c.kind in ("dsd", "rsd") else rec != 0.0)
        positions = pos.tolist()
        self._timed("bitio.subset_code_width", msg, bitio.subset_code_width, d, pos.size)
        rank = self._timed("bitio.subset_rank", msg, bitio.subset_rank, positions, d, pos.size)
        back = self._timed("bitio.subset_unrank", msg, bitio.subset_unrank, rank, d, pos.size)
        _expect(back == positions, "subset rank probe")

    def _unary(self, c, msg, payload, rec):
        # the payload starts with the 31-bit scale; levels follow from the vector
        scale = bitio.read_float_magnitude(BitCursor(payload))
        if scale == 0.0:
            return
        if c.kind in ("dsd", "rsd"):
            values = np.rint(np.abs(rec[rec != 0.0]) / scale).astype(np.int64)
        else:
            s = c.levels if c.kind == "dither" else 1
            values = np.rint(np.abs(rec) * s / scale).astype(np.int64) + 1
        block = self._timed("bitio.write_unary_block", msg, bitio.write_unary_block, values)
        back = self._timed("bitio.read_unary_block", msg, bitio.read_unary_block,
                           BitCursor(block), values.size)
        _expect(np.array_equal(back, values), "unary block probe")

    def _sc(self, c, d, msg, index, payload):
        cursor = BitCursor(payload)
        if bitio.read_float_magnitude(cursor) == 0.0:
            return
        p = self._timed("geometry.cap_probability", msg, cap_probability, CapParams(c.alpha, d))
        trials = bitio.golomb_rice_decode(cursor, bitio.golomb_rice_params(p))
        self._timed("rng.replay", msg, replay, c.seed, index, trials, d)
        self.sc_trials.append(trials)
        self.sc_p = p


def replay(seed, index, trials, d):
    """The decoder's draws: `trials` Gaussian rows of length d, in its chunks."""
    stream = message_stream(seed, index)
    while trials > 0:
        n = min(trials, 1 << 16)
        stream.standard_normal((n, d))
        trials -= n


def _expect(ok, what):
    if not ok:
        raise AssertionError(f"{what} did not reproduce the message")
