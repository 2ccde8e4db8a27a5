"""In-memory span timers wrapped around library functions.

The library is not changed: the tracer replaces module attributes with
timing wrappers for the duration of a `with tracer.installed(...)` block
and restores them afterwards. Callers that look a function up through the
patched module attribute at call time are traced; census does so for every
layer it uses, and graphs for its own recursive generator.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Per-span call counts, inclusive and self nanoseconds, and extra
    counters fed by hooks. Self time is a span's duration minus the time of
    the traced spans it caused."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.extra = Counter()
        self._child_ns = []  # one accumulator per open span

    def wrap(self, name, fn, hook=None):
        """Timed stand-in for fn; name is a span name, or a function of the
        call's positional arguments that returns one."""
        child_ns = self._child_ns

        def traced(*args, **kwargs):
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                inner = child_ns.pop()
                if child_ns:
                    child_ns[-1] += dt
                span = name(args) if callable(name) else name
                self.calls[span] += 1
                self.total_ns[span] += dt
                self.self_ns[span] += dt - inner
            if hook is not None:
                hook(self.extra, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch each (module, attribute, name[, hook]) target while the
        block runs."""
        saved = []
        try:
            for module, attr, name, *hook in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, *hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def mean_us(self, span):
        calls = self.calls[span]
        return self.total_ns[span] / calls / 1e3 if calls else 0.0

    def mean_self_s(self, span):
        calls = self.calls[span]
        return self.self_ns[span] / calls / 1e9 if calls else 0.0

    def share(self, span, of):
        whole = self.total_ns[of]
        return self.total_ns[span] / whole if whole else 0.0

    def dump(self):
        return {
            span: {
                "calls": self.calls[span],
                "total_s": self.total_ns[span] / 1e9,
                "self_s": self.self_ns[span] / 1e9,
            }
            for span in sorted(self.calls)
        }


def _count_key(extra, args, key):
    extra["key_bytes"] += len(key)
    extra["blocks_requested"] += len(args[2])


def library_targets(census, graphs):
    """Every layer boundary the benchmark times, named module.layer."""
    return [
        (census, "parse_graph6", "graphs.parse"),
        (census, "distance_data", "graphs.bfs"),
        (census, "complement", "graphs.complement"),
        (census, "build_matrix", "matrices.build"),
        (census, "charpoly_coeffs", "intlinalg.charpoly"),
        (census, "snf_diagonal", "intlinalg.snf"),
        (census, "cof_coeffs", "intlinalg.cof"),
        (census, "compose_key", "invariants.key", _count_key),
        (census, "source_lines", "census.read"),
        (census, "sweep", "census.sweep"),
        (graphs, "parse_graph6", "graphs.parse"),
        (graphs, "connected_graph6_lines", lambda args: f"graphs.gen_n{args[0]}"),
        (graphs, "canonical_key", "graphs.canonical"),
    ]
