"""The benchmark's tracer patches named library attributes; a change that
drops one, or that stops looking one up at call time, silently zeroes a
per-layer metric. This test installs the tracer's own target list (read
from perfbench/tracer.py, which it does not change) around one small sweep
and asserts that every layer is seen and every attribute restored."""

import types
from pathlib import Path

from cospec import census, graphs
from cospec.census import CensusSpec, CensusTask, Domain
from cospec.graphs import connected_graph6_lines, parse_graph6
from cospec.invariants import Flavor
from cospec.matrices import MatrixKind

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    # exec the source, so that no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_targets_exist_and_see_every_layer(tmp_path):
    tracer = load_tracer()
    targets = tracer.library_targets(census, graphs)
    before = [getattr(module, attr) for module, attr, *_ in targets]
    src = tmp_path / "graphs5.g6"
    src.write_text("\n".join(connected_graph6_lines(5)) + "\n", encoding="ascii")
    kind = MatrixKind.ADJACENCY
    spec = CensusSpec(5, Domain.CONNECTED, (kind,), Flavor.GEN_SPECTRAL, source=str(src))
    tasks = [
        CensusTask(kind, Flavor.GEN_SPECTRAL, Domain.CONNECTED),
        CensusTask(kind, Flavor.GEN_INVARIANT, Domain.CONNECTED),
    ]
    t = tracer.Tracer()
    with t.installed(targets):
        rows, sizes = census.sweep(5, tasks, census.source_lines(spec), jobs=1)
        graphs.canonical_key(parse_graph6("Ch"))
    assert sizes[Domain.CONNECTED] == 21 and [r.domain_size for r in rows] == [21, 21]
    for span in (
        "graphs.parse", "graphs.bfs", "graphs.complement", "graphs.canonical",
        "matrices.build", "intlinalg.charpoly", "intlinalg.snf", "invariants.key",
        "census.read", "census.sweep",
    ):
        assert t.calls[span] > 0, span
    assert [getattr(module, attr) for module, attr, *_ in targets] == before
