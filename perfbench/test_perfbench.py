"""Self-tests of the benchmark: deterministic inputs, an oracle that agrees
with the library, and checks that fail on corrupted results.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    check_canonical,
    check_levels,
    check_reference,
    check_rows,
    check_stored_input,
    check_stream,
)
from inputs import (  # noqa: E402
    DOMAINS,
    N8_FILE,
    PUBLISHED_N8,
    bfs_distances,
    class_ids,
    domains_of,
    expected_subset,
    load_reference,
    mate_lower_bounds,
    n8_lines,
    parse_g6,
    sha256_file,
    stream_graphs,
    write_g6,
)
from tracer import Tracer  # noqa: E402

import cospec  # noqa: E402
from cospec import census, graphs  # noqa: E402


def failed(results):
    return [name for name, ok in results if not ok]


def test_stream_is_deterministic_per_seed():
    a = stream_graphs(5, 300)
    assert a == stream_graphs(5, 300)
    assert a != stream_graphs(6, 300)
    rows, groups = a
    assert len(set(groups)) < len(groups)  # relabelled copies are planted
    for i, g in enumerate(groups):
        if g != i:  # a copy has the degree multiset of its original
            deg = sorted(bin(r).count("1") for r in rows[i])
            assert deg == sorted(bin(r).count("1") for r in rows[g])


def test_bfs_oracle_agrees_with_distance_data():
    rows, _ = stream_graphs(1, 40)
    samples = [(10, r) for r in rows] + [parse_g6(line) for line in n8_lines()[::997]]
    samples.append((6, [0b10, 0b01, 0b1000, 0b0100, 0, 0]))  # disconnected
    for n, r in samples:
        line = write_g6(n, r)
        g = cospec.parse_graph6(line)
        assert line == graphs.write_graph6(g)
        assert parse_g6(line) == (n, list(g.rows))
        dd = graphs.distance_data(g)
        cdd = graphs.distance_data(graphs.complement(g))
        assert tuple(map(tuple, bfs_distances(n, r))) == dd.dist
        held = domains_of(n, r)
        assert (DOMAINS[0] in held) == dd.connected
        assert (DOMAINS[1] in held) == (dd.connected and cdd.connected)
        assert (DOMAINS[2] in held) == (
            dd.connected and cdd.connected and dd.diameter == 2 and cdd.diameter == 2
        )


def test_generate_checks_fail_on_corrupted_levels():
    ref = load_reference()
    levels = {n: graphs.connected_graph6_lines(n) for n in range(1, 8)}
    assert failed(check_levels(levels, ref["n7_sha256"])) == []
    short = {**levels, 5: levels[5][1:]}
    assert failed(check_levels(short, ref["n7_sha256"])) == ["count n=5"]
    l6 = list(levels[6])
    l6[3], l6[4] = l6[4], l6[3]
    assert failed(check_levels({**levels, 6: tuple(l6)}, ref["n7_sha256"])) == ["sorted n=6"]
    l7 = levels[7][:-1] + ("F~~~~",)
    assert "sha256 n=7" in failed(check_levels({**levels, 7: l7}, ref["n7_sha256"]))
    line = n8_lines()[100]
    good = graphs.canonical_key(cospec.parse_graph6(line))
    assert failed(check_canonical([(line, good)])) == []
    assert failed(check_canonical([(line, good[:-1] + b"?")])) == [f"canonical {line}"]


def test_stored_input_and_reference_checks():
    ref = load_reference()
    lines = n8_lines()
    sha = sha256_file(N8_FILE)
    assert failed(check_stored_input(lines, sha, ref)) == []
    assert failed(check_stored_input(lines[:-1], sha, ref)) == ["n8 input count"]
    assert failed(check_stored_input(lines[::-1], "0" * 64, ref)) == [
        "n8 input sha256", "n8 input sorted"]
    labels = list(PUBLISHED_N8)
    assert failed(check_reference(ref, labels)) == []
    assert failed(check_reference(ref, labels[1:])) == ["n8 task list"]
    label = ("l", "gen-spectral", "connected")
    broken = {**ref, "classes": dict(ref["classes"])}
    broken["classes"][label] = [c[:-1] for c in ref["classes"][label]]
    assert failed(check_reference(broken, labels)) == ["reference l;gen-spectral;connected"]
    codes = ref["domains"].replace("2", "1", 1)
    assert failed(check_reference({**ref, "domains": codes}, labels)) == [
        "reference size diam2-pair"]


def test_reference_subset_matches_a_library_sweep():
    ref = load_reference()
    lines = n8_lines()
    ids = class_ids(ref, len(lines))
    sizes, rows = expected_subset(ref, ids, range(len(lines)))
    assert {label: mates for label, (mates, _) in rows.items()} == PUBLISHED_N8
    subset = list(range(40)) + [i for i, c in enumerate(ref["domains"]) if c == "2" and i >= 40][:40]
    tasks = [census.CensusTask(cospec.MatrixKind(k), cospec.Flavor(f), cospec.Domain(d))
             for k, f, d in PUBLISHED_N8]
    results, got_sizes = census.sweep(8, tasks, [lines[i] for i in subset], jobs=1)
    got = ({d.value: v for d, v in got_sizes.items()},
           {(r.task.kind.value, r.task.flavor.value, r.task.domain.value):
            (r.with_mate, len(r.buckets)) for r in results})
    want = expected_subset(ref, ids, subset)
    assert failed(check_rows(*got, *want)) == []
    assert got[0]["diam2-pair"] >= 40 and any(m for m, _ in got[1].values())
    label = ("a", "gen-invariant", "diam2-pair")
    off = {**got[1], label: (got[1][label][0] + 1, got[1][label][1])}
    assert failed(check_rows(got[0], off, *want)) == ["row a;gen-invariant;diam2-pair"]
    small = {**got[0], "connected": got[0]["connected"] - 1}
    assert failed(check_rows(small, got[1], *want)) == ["size connected"]


def test_stream_checks_fail_on_corrupted_results():
    rows_in, groups = stream_graphs(3, 120)
    oracle, bounds = mate_lower_bounds(10, rows_in, groups)
    assert bounds[DOMAINS[0]] > 0
    tasks = [census.CensusTask(cospec.MatrixKind(k), cospec.Flavor(f), cospec.Domain(d))
             for k, f, d in PUBLISHED_N8]
    results, sizes = census.sweep(10, tasks, [write_g6(10, r) for r in rows_in], jobs=1)
    got_sizes = {d.value: v for d, v in sizes.items()}
    got_rows = {(r.task.kind.value, r.task.flavor.value, r.task.domain.value):
                (r.with_mate, len(r.buckets)) for r in results}
    assert failed(check_stream(got_sizes, got_rows, oracle, bounds)) == []
    label = ("d", "gen-spectral", "connected-with-connected-complement")
    low = {**got_rows, label: (bounds[label[2]] - 1, 0)}
    assert failed(check_stream(got_sizes, low, oracle, bounds)) == [
        "mates d;gen-spectral;connected-with-connected-complement"]
    off = {**got_sizes, "diam2-pair": got_sizes["diam2-pair"] + 1}
    assert "size diam2-pair" in failed(check_stream(off, got_rows, oracle, bounds))


def test_tracer_self_time_and_restore():
    class Mod:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Mod.inner(x) * 2

    original = Mod.inner
    tracer = Tracer()
    with tracer.installed([(Mod, "inner", "inner"), (Mod, "outer", lambda a: f"outer{a[0]}")]):
        assert Mod.outer(1) == 4
        assert Mod.outer(2) == 6
    assert Mod.inner is original
    assert tracer.calls["inner"] == 2 and tracer.calls["outer1"] == 1
    spans = tracer.dump()
    assert spans["outer1"]["self_s"] < spans["outer1"]["total_s"]
    assert spans["inner"]["self_s"] == spans["inner"]["total_s"]
