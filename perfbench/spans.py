"""In-memory spans for the traced benchmark run, and the benchmark's clock.

A span records (name, start, end, parent, message id) around one call
into a gradcodec layer.  Spans stay in memory until the run ends and
are written out with the result file.  Untraced runs use NullTracer,
whose spans record nothing.
"""

import contextlib
import time

# Every time the benchmark reports is CPU time of its one thread.  The work
# is single-threaded and CPU-bound, so on an idle machine this equals wall
# time.  On a shared virtual machine it leaves out the time the hypervisor
# gives to other guests: on a 2-vCPU guest, wall-clock medians of the same
# workload moved by about 20% between runs a few minutes apart.
clock = time.process_time


class _Span:
    __slots__ = ("tracer", "row")

    def __init__(self, tracer, row):
        self.tracer = tracer
        self.row = row

    def __enter__(self):
        self.tracer._stack.append(self.row)
        self.row[2] = clock()
        return self.row

    def __exit__(self, *exc):
        self.row[3] = clock()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans as rows [name, message id, start, end, parent, index]."""

    def __init__(self):
        self.rows = []
        self._stack = []

    def span(self, name, msg=None):
        parent = self._stack[-1] if self._stack else None
        if msg is None and parent is not None:
            msg = parent[1]
        row = [name, msg, 0.0, 0.0, None if parent is None else parent[5], len(self.rows)]
        self.rows.append(row)
        return _Span(self, row)

    def totals(self):
        """{span name: {message id: summed seconds}}."""
        out = {}
        for name, msg, start, end, _, _ in self.rows:
            per_msg = out.setdefault(name, {})
            per_msg[msg] = per_msg.get(msg, 0.0) + (end - start)
        return out

    def dump(self):
        """Spans in a compact form for the result file: one row per span,
        [name index, message id, start us, end us, parent row], with times
        relative to the first span."""
        names = sorted({r[0] for r in self.rows})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.rows[0][2] if self.rows else 0.0
        return {
            "names": names,
            "columns": ["name", "msg", "start_us", "end_us", "parent"],
            "rows": [[index[r[0]], r[1], round((r[2] - t0) * 1e6, 1),
                      round((r[3] - t0) * 1e6, 1), r[4]] for r in self.rows],
        }


class NullTracer:
    """Tracer stand-in for untraced runs: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name, msg=None):
        return self._null
