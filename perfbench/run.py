"""cospec benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload paper-n8 --seed 1 --seconds 35 --trace 0

Run from the repository root; the library is imported from ./src. Load is
batch and closed-loop: the process hands the library a whole input, waits
for the result, checks it, and repeats with the next input until the time
is up. Each workload times one fixed-size unit of work at a time and
reports medians over the units of the run:

  generate    a cold connected_graph6_lines(7): every level n = 1..7 is
              built by vertex extension and canonical-form dedup.
  paper-n8    the 33 Table 1-4 tasks at n = 8 swept with jobs=1 over a
              seeded 250-line sample of the stored n = 8 generator output,
              read through CensusSpec(source=...) and source_lines.
  stream-n10  the same 33-task mix at n = 10 swept with jobs=2 over 500
              seeded G(10, 1/2) lines, about 1 in 10 a relabelled copy.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same units with
timers wrapped around the library's layer functions (jobs=1, because
wrappers in forked workers lose their counts), prints the per-layer metrics
and writes them with the raw span counts to out/trace-<workload>-<seed>.json.
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
attempted counts output checks made and failed those that did not hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from checks import (  # noqa: E402
    check_canonical,
    check_levels,
    check_reference,
    check_rows,
    check_stored_input,
    check_stream,
)
from inputs import (  # noqa: E402
    N8_FILE,
    STREAM_N,
    class_ids,
    expected_subset,
    load_reference,
    mate_lower_bounds,
    n8_lines,
    paper_tasks,
    parse_g6,
    relabel,
    sha256_file,
    stream_graphs,
    task_label,
    write_g6,
)
from tracer import Tracer, library_targets  # noqa: E402

GEN_N = 7  # a cold n = 8 build takes about 40 s, longer than one run
# Lines per sweep unit: small enough for a dozen or more units per run, so
# the median of a run rides out short slow phases of the machine.
PAPER_LINES = 250
STREAM_LINES = 500
CANONICAL_SAMPLES = 200
SETUP_PROBES = 15

SETUP_PROBE = """\
import sys, time
import inputs
t0 = time.perf_counter()
import cospec
inputs.paper_tasks(int(sys.argv[1]))
print(time.perf_counter() - t0)
"""


def load_library():
    """Import cospec from the checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import cospec
        from cospec import census, graphs
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cospec from {SRC}: {exc}")
    if not Path(cospec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: cospec imported from {cospec.__file__}, not {SRC}")
    return cospec, census, graphs


def cpu_seconds():
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed(fn):
    """(result, wall seconds, cpu seconds) of one call."""
    c0 = cpu_seconds()
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    return result, wall, cpu_seconds() - c0


def setup_probe(n):
    """Seconds a fresh interpreter takes to import cospec and build the
    task list for n."""
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}")
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(n)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(probe.stdout)


def summarize(results, sizes):
    """(sizes, rows) of a sweep, keyed by tokens (see checks)."""
    return (
        {d.value: v for d, v in sizes.items()},
        {task_label(r.task): (r.with_mate, len(r.buckets)) for r in results},
    )


class Run:
    """What one benchmark run collects."""

    def __init__(self, lib, workload, n, seed, seconds, trace):
        self.cospec, self.census, self.graphs = lib
        self.workload = workload
        self.n = n
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.targets = library_targets(self.census, self.graphs)
        self.checks = []
        self.plain = []  # (wall, cpu, graphs, jobs) of untraced units
        self.traced = []  # (wall, cpu) of traced units
        self.distinct_keys = []
        self.setup_times = []
        self.input_hash = hashlib.sha256()
        self.workdir = None

    def check(self, results):
        self.checks.extend(results)

    def repeat(self, step):
        """Call step(0), step(1), ... while the next call is expected to end
        within the run's seconds; always at least once. Untraced runs probe
        set-up time between steps, so the probes are spread over the run as
        the units are."""
        start = perf_counter()
        durations = []
        i = 0
        while True:
            t0 = perf_counter()
            step(i)
            durations.append(perf_counter() - t0)
            i += 1
            elapsed = perf_counter() - start
            self.probe_setup(math.ceil(SETUP_PROBES * elapsed / self.seconds))
            if perf_counter() - start + statistics.median(durations) > self.seconds:
                break
        self.probe_setup(SETUP_PROBES)

    def probe_setup(self, count):
        while not self.trace and len(self.setup_times) < min(count, SETUP_PROBES):
            self.setup_times.append(setup_probe(self.n))

    def modes(self, i):
        """Whether to trace each run of unit i: once untraced, and when
        tracing once traced too, alternating which goes first."""
        if not self.trace:
            return (False,)
        return (False, True) if i % 2 == 0 else (True, False)

    def unit(self, fn, jobs, traced=False, graphs=None):
        """Time fn; graphs is the number of graphs it handles, by default
        the length of its result."""
        with self.tracer.installed(self.targets) if traced else nullcontext():
            result, wall, cpu = timed(fn)
        if traced:
            self.traced.append((wall, cpu))
        else:
            self.plain.append((wall, cpu, len(result) if graphs is None else graphs, jobs))
        return result

    # -- workloads --------------------------------------------------------

    def generate(self):
        ref = load_reference()
        lines8 = n8_lines()
        self.input_hash.update(N8_FILE.read_bytes())
        self.check(check_stored_input(lines8, sha256_file(N8_FILE), ref))
        graphs = self.graphs
        build = graphs.connected_graph6_lines  # the cached original

        def step(i):
            for traced in self.modes(i):
                build.cache_clear()
                self.unit(lambda: graphs.connected_graph6_lines(GEN_N), 1, traced)
                self.check(check_levels({n: build(n) for n in range(1, GEN_N + 1)}, ref["n7_sha256"]))

        self.repeat(step)
        rng = random.Random(f"canonical-{self.seed}")
        pairs = []
        with self.tracer.installed(self.targets) if self.trace else nullcontext():
            for line in rng.sample(lines8, CANONICAL_SAMPLES):
                n, rows = parse_g6(line)
                perm = list(range(n))
                rng.shuffle(perm)
                g = graphs.Graph(n, tuple(relabel(n, rows, perm)))
                pairs.append((line, graphs.canonical_key(g)))
        self.check(check_canonical(pairs))

    def paper_n8(self):
        ref = load_reference()
        lines8 = n8_lines()
        self.input_hash.update(N8_FILE.read_bytes())
        tasks = paper_tasks(8)
        self.check(check_stored_input(lines8, sha256_file(N8_FILE), ref))
        self.check(check_reference(ref, [task_label(t) for t in tasks]))
        ids = class_ids(ref, len(lines8))
        order = list(range(len(lines8)))
        random.Random(f"paper-{self.seed}").shuffle(order)
        slices = len(order) // PAPER_LINES

        def step(i):
            subset = order[(i % slices) * PAPER_LINES : (i % slices + 1) * PAPER_LINES]
            path = self.write_input(f"paper-{i}.g6", [lines8[j] for j in subset])
            want = expected_subset(ref, ids, subset)
            for traced in self.modes(i):
                got = self.unit(lambda: self.sweep(8, tasks, path, 1), 1, traced, len(subset))
                self.check(check_rows(*got, *want))

        self.repeat(step)

    def stream_n10(self):
        n = STREAM_N
        tasks = paper_tasks(n)

        def step(i):
            graphs, groups = stream_graphs(f"{self.seed}-{i}", STREAM_LINES)
            path = self.write_input(f"stream-{i}.g6", [write_g6(n, g) for g in graphs])
            oracle, bounds = mate_lower_bounds(n, graphs, groups)
            got = self.unit(lambda: self.sweep(n, tasks, path, 2), 2, graphs=len(graphs))
            self.check(check_stream(*got, oracle, bounds))
            if self.trace:
                serial = self.unit(lambda: self.sweep(n, tasks, path, 1), 1, True)
                self.check(check_rows(*got, *serial))

        self.repeat(step)

    # -- helpers ----------------------------------------------------------

    def write_input(self, name, lines):
        data = ("\n".join(lines) + "\n").encode("ascii")
        self.input_hash.update(data)
        path = Path(self.workdir) / name
        path.write_bytes(data)
        return path

    def sweep(self, n, tasks, path, jobs):
        """Read a graph6 file through the public census API and sweep it."""
        cospec, census = self.cospec, self.census
        spec = cospec.CensusSpec(
            n=n,
            domain=cospec.Domain.CONNECTED,
            kinds=(cospec.MatrixKind.ADJACENCY,),
            flavor=cospec.Flavor.GEN_SPECTRAL,
            source=str(path),
        )
        results, sizes = census.sweep(n, tasks, census.source_lines(spec), jobs=jobs)
        self.distinct_keys.append(sum(len(r.buckets) for r in results))
        return summarize(results, sizes)

    # -- metrics ----------------------------------------------------------

    def end_to_end(self):
        walls = [p[0] for p in self.plain]
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "graphs_per_s": (statistics.median(p[2] / p[0] for p in self.plain), "1/s"),
            "cpu_s": (statistics.median(p[1] for p in self.plain), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }

    def per_layer(self):
        tr = self.tracer
        sweep = "census.sweep"
        computed = sum(tr.calls[s] for s in ("intlinalg.charpoly", "intlinalg.snf", "intlinalg.cof"))
        requested = tr.extra["blocks_requested"]
        keys = tr.calls["invariants.key"]
        sweep_ns = tr.total_ns[sweep]
        plain_cpu = statistics.median(p[1] for p in self.plain)
        traced_cpu = statistics.median(t[1] for t in self.traced) if self.traced else plain_cpu
        jobs = self.plain[0][3]
        kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
        return {
            "graphs.parse_us": (tr.mean_us("graphs.parse"), "us"),
            "graphs.bfs_us": (tr.mean_us("graphs.bfs"), "us"),
            "graphs.complement_us": (tr.mean_us("graphs.complement"), "us"),
            "graphs.canonical_us": (tr.mean_us("graphs.canonical"), "us"),
            "graphs.gen_n6_s": (tr.mean_self_s("graphs.gen_n6"), "s"),
            "graphs.gen_n7_s": (tr.mean_self_s("graphs.gen_n7"), "s"),
            "matrices.build_us": (tr.mean_us("matrices.build"), "us"),
            "matrices.build_calls": (tr.calls["matrices.build"], "count"),
            "intlinalg.charpoly_us": (tr.mean_us("intlinalg.charpoly"), "us"),
            "intlinalg.charpoly_calls": (tr.calls["intlinalg.charpoly"], "count"),
            "intlinalg.charpoly_share": (tr.share("intlinalg.charpoly", sweep), "ratio"),
            "intlinalg.snf_us": (tr.mean_us("intlinalg.snf"), "us"),
            "intlinalg.snf_calls": (tr.calls["intlinalg.snf"], "count"),
            "intlinalg.snf_share": (tr.share("intlinalg.snf", sweep), "ratio"),
            "invariants.key_us": (tr.mean_us("invariants.key"), "us"),
            "invariants.key_calls": (keys, "count"),
            "invariants.key_bytes_mean": (tr.extra["key_bytes"] / keys if keys else 0.0, "B"),
            "census.read_s": (tr.mean_us("census.read") / 1e6, "s"),
            "census.self_share": (tr.self_ns[sweep] / sweep_ns if sweep_ns else 0.0, "ratio"),
            "census.block_reuse": (1 - computed / requested if requested else 0.0, "ratio"),
            "census.distinct_keys": (
                statistics.mean(self.distinct_keys) if self.distinct_keys else 0.0, "count"),
            "census.worker_rss_mb": (kids_kb / 1024, "MB"),
            "census.parallel_eff": (
                statistics.median(p[1] / (p[0] * p[3]) for p in self.plain), "ratio"),
            "trace.overhead": (traced_cpu / plain_cpu, "ratio"),
        }

    def facts(self):
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cospec_version": self.cospec.__version__,
            "git_commit": git_commit(),
            "input_sha256": self.input_hash.hexdigest(),
            "unit_walls_s": [round(p[0], 4) for p in self.plain],
            "traced_unit_walls_s": [round(t[0], 4) for t in self.traced],
        }


WORKLOADS = {
    "generate": (Run.generate, 0),
    "paper-n8": (Run.paper_n8, 8),
    "stream-n10": (Run.stream_n10, STREAM_N),
}


def git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    body, n = WORKLOADS[args.workload]
    run = Run(lib, args.workload, n, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        run.workdir = workdir
        body(run)
    if args.trace:
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end()
    facts = run.facts()
    failed = [name for name, ok in run.checks if not ok]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if args.trace:
        report = OUT / f"trace-{args.workload}-{args.seed}.json"
        report.write_text(json.dumps(
            {"facts": facts, "metrics": metrics, "spans": run.tracer.dump(),
             "extra": dict(run.tracer.extra)}, indent=1) + "\n")
    print(json.dumps({"facts": facts, "failed_checks": failed[:20]}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(run.checks),
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
