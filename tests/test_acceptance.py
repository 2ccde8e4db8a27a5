"""Acceptance suite: each numbered criterion runs at its stated tolerance
(everything here is exact integer/rational arithmetic) and prints one
PASS/FAIL line. Criteria needing n = 9 input run only when the environment
variable COSPEC_GRAPHS9 points to a graph6 file of all 9-vertex graphs.

Run with: pytest tests/test_acceptance.py -v -s
"""

import os
from functools import cache
from math import prod

import pytest

from cospec.census import CensusTask, Domain, _source_lines, expected_tables, sweep
from cospec.closed_forms import TreeData, multipartite_snf, star_snf, tree_delta_n, tree_snf
from cospec.graphs import (
    complement,
    complete,
    complete_multipartite,
    connected_graph6_lines,
    distance_data,
    from_edges,
    generate_trees,
    parse_graph6,
    star,
    write_graph6,
)
from cospec.intlinalg import charpoly_coeffs, cof_coeffs, smith_normal_form, snf_diagonal
from cospec.invariants import Flavor, compose_key, fingerprint, is_codeterminantal_Qx
from cospec.matrices import (
    ALL_KINDS,
    MatrixKind,
    build_matrix,
    complement_shift,
)
from kernel_reference import apply_shift

K = MatrixKind
F = Flavor
D = Domain

TABLE_NS = (4, 5, 6, 7, 8)
ADJ_KINDS = (K.ADJACENCY, K.LAPLACIAN, K.SIGNLESS_LAPLACIAN)
ACC11_KINDS = (
    K.DISTANCE,
    K.TRANSMISSION_ADJACENCY,
    K.SIGNLESS_DISTANCE_LAPLACIAN,
    K.DEGREE_DISTANCE,
)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@cache
def graphs_for(n):
    return tuple(parse_graph6(line) for line in connected_graph6_lines(n))


@cache
def paper_sweep(n):
    """One shared fingerprint sweep per n covering every task needed by
    criteria 1, 2, 3, 5 and 11."""
    tasks = []
    for kind in ALL_KINDS:
        domain = D.CONNECTED if kind in ADJ_KINDS else D.CONNECTED_COMPLEMENT
        tasks.append(CensusTask(kind, F.GEN_INVARIANT, domain))
        tasks.append(CensusTask(kind, F.GEN_SPECTRAL, domain))
    if n >= 6:
        for kind in ALL_KINDS:
            tasks.append(CensusTask(kind, F.GEN_SPECTRAL, D.DIAM2_PAIR))
            tasks.append(CensusTask(kind, F.GEN_INVARIANT, D.DIAM2_PAIR))
    for kind in (K.TRANSMISSION_ADJACENCY, K.SIGNLESS_TRANSMISSION_ADJACENCY):
        tasks.append(CensusTask(kind, F.INVARIANT, D.CONNECTED))
    for kind in ACC11_KINDS:
        tasks.append(CensusTask(kind, F.SPECTRAL, D.CONNECTED))
        tasks.append(CensusTask(kind, F.R_SPECTRAL, D.CONNECTED))
    results, sizes = sweep(n, tasks, connected_graph6_lines(n))
    return {t: r for t, r in zip(tasks, results)}, sizes


def _check_cells(table):
    checked = 0
    failures = []
    for cell in expected_tables():
        if cell.table != table or cell.n > 8:
            continue
        by_task, sizes = paper_sweep(cell.n)
        if cell.row == "domain-size":
            actual = sizes[cell.domain]
        else:
            actual = by_task[CensusTask(cell.kind, cell.flavor, cell.domain)].with_mate
        checked += 1
        if actual != cell.value:
            failures.append((cell, actual))
    return checked, failures


def test_criterion_01_table1_reproduction():
    checked, failures = _check_cells(1)
    report(1, not failures, f"Table 1 n=4..8: {checked} cells exact {failures or ''}")


def test_criterion_02_table2_reproduction():
    checked, failures = _check_cells(2)
    report(2, not failures, f"Table 2 n=4..8: {checked} cells exact {failures or ''}")


def test_criterion_03_tables34_reproduction():
    checked, failures = _check_cells(3)
    c4, f4 = _check_cells(4)
    checked += c4
    failures += f4
    # diam-2 gen-spectral counts must coincide across the kind groups
    # whose spectra determine one another on this domain
    groups = [
        (K.ADJACENCY, (K.DISTANCE,)),
        (K.LAPLACIAN, (K.DISTANCE_LAPLACIAN, K.SIGNLESS_DEGREE_DISTANCE,
                       K.SIGNLESS_TRANSMISSION_ADJACENCY)),
        (K.SIGNLESS_LAPLACIAN, (K.SIGNLESS_DISTANCE_LAPLACIAN, K.DEGREE_DISTANCE,
                                K.TRANSMISSION_ADJACENCY)),
    ]
    for n in (6, 7, 8):
        by_task, _ = paper_sweep(n)
        for base, others in groups:
            want = by_task[CensusTask(base, F.GEN_SPECTRAL, D.DIAM2_PAIR)].with_mate
            for other in others:
                got = by_task[CensusTask(other, F.GEN_SPECTRAL, D.DIAM2_PAIR)].with_mate
                checked += 1
                if got != want:
                    failures.append((f"gsp-diam2 {other.value} vs {base.value} n={n}", got))
    report(3, not failures,
           f"Tables 3-4 n=6..8 plus diam-2 kind-group count coincidences: {checked} checks exact {failures or ''}")


def test_criterion_03_diam2_n9_external():
    pathname = os.environ.get("COSPEC_GRAPHS9")
    if not pathname:
        print("ACCEPTANCE 3 (n=9): SKIP - set COSPEC_GRAPHS9 to a graph6 file "
              "of all 9-vertex graphs to enable")
        pytest.skip("no external 9-vertex graph6 file supplied")
    cells = [c for c in expected_tables() if c.n == 9 and c.domain is D.DIAM2_PAIR]
    tasks = [CensusTask(c.kind, c.flavor, c.domain) for c in cells if c.row != "domain-size"]
    results, sizes = sweep(9, tasks, _source_lines(9, pathname))
    by_task = dict(zip(tasks, results))
    failures = []
    for cell in cells:
        if cell.row == "domain-size":
            actual = sizes[cell.domain]
        else:
            actual = by_task[CensusTask(cell.kind, cell.flavor, cell.domain)].with_mate
        if actual != cell.value:
            failures.append((cell.row, cell.kind, cell.value, actual))
    report("3 (n=9)", not failures, f"{len(cells)} diam-2 cells at n=9 {failures or ''}")


def test_criterion_04_star_closed_form():
    failures = []
    for k in range(2, 31):
        want = star_snf(k)
        g = star(k)
        for kind in (K.TRANSMISSION_ADJACENCY, K.SIGNLESS_TRANSMISSION_ADJACENCY):
            got = smith_normal_form(build_matrix(g, kind))
            if got != want:
                failures.append((k, kind.value, got))
    ok = not failures and star_snf(3) == (1, 1, 5, 60)
    report(4, ok, f"star chains k=2..30 match direct SNF both kinds {failures or ''}")


def test_criterion_05_star_determination(monkeypatch):
    # the paper sweep keys a graph that is alone in its charpoly prefix
    # class by that prefix; with the prefix forced to a constant, the same
    # deferred tasks key every graph by its full SNF fingerprint
    import cospec.census as census

    monkeypatch.setattr(census, "snf_prefix", lambda kind, charpolys: b"P")
    kinds = (K.TRANSMISSION_ADJACENCY, K.SIGNLESS_TRANSMISSION_ADJACENCY)
    failures = []
    for n in range(5, 9):
        by_task, _ = paper_sweep(n)
        tasks = [CensusTask(kind, flavor, D.CONNECTED)
                 for kind in kinds for flavor in (F.SPECTRAL, F.INVARIANT)]
        forced = dict(zip(tasks, sweep(n, tasks, connected_graph6_lines(n))[0]))
        for kind in kinds:
            task = CensusTask(kind, F.INVARIANT, D.CONNECTED)
            res = forced[task]
            paper = by_task[task]
            if (paper.with_mate, len(paper.buckets)) != (res.with_mate, len(res.buckets)):
                failures.append((n, kind.value, "paper sweep differs"))
            key = fingerprint(star(n - 1), kind, F.INVARIANT)
            if key != compose_key(kind, F.INVARIANT, [star_snf(n - 1)]):
                failures.append((n, kind.value, "star key is not the closed form"))
                continue
            count = res.buckets.get(key, 0)
            if count != 1:
                failures.append((n, kind.value, "count", count))
    report(5, not failures,
           f"star uniquely attains its SNF chain for n=5..8, both kinds {failures or ''}")


def test_criterion_06_tree_theorem():
    trees = 0
    failures = []
    for n in range(3, 10):
        for t in generate_trees(n):
            td = TreeData.from_graph(t)
            chain = tree_snf(td)
            direct = snf_diagonal(build_matrix(t, K.TRANSMISSION_ADJACENCY))
            direct_plus = snf_diagonal(
                build_matrix(t, K.SIGNLESS_TRANSMISSION_ADJACENCY)
            )
            delta = tree_delta_n(td)  # raises ConsistencyError on route disagreement
            trees += 1
            if not (chain == direct == direct_plus) or delta != prod(direct):
                failures.append((n, write_graph6(t)))
    report(6, not failures, f"{trees} trees n=3..9: 2-matching chain = direct SNF "
                            f"(both kinds), Delta_n routes agree {failures or ''}")


def test_criterion_07_multipartite_sweep():
    failures = []
    cases = 0
    for m in range(2, 7):
        for s in range(2, 7):
            if m * s > 12:
                continue
            g = complete_multipartite(m, s)
            for signless, kind in (
                (False, K.TRANSMISSION_ADJACENCY),
                (True, K.SIGNLESS_TRANSMISSION_ADJACENCY),
            ):
                cases += 1
                formula = multipartite_snf(m, s, signless)
                direct = snf_diagonal(build_matrix(g, kind))
                if formula != direct:
                    failures.append((m, s, signless))
    chain22 = multipartite_snf(2, 2)
    ok = not failures and chain22 == (1, 1, 8, 24) and prod(chain22) == 192
    report(7, ok, f"multipartite formula = direct SNF for {cases} (m,s,±) cases, "
                  f"(2,2) chain (1,1,8,24) {failures or ''}")


def _partitions_equal(keys_a, keys_b):
    forward = {}
    backward = {}
    for ka, kb in zip(keys_a, keys_b):
        if forward.setdefault(ka, kb) != kb:
            return False
        if backward.setdefault(kb, ka) != ka:
            return False
    return True


def _diam2_graphs(n):
    out = []
    for g in graphs_for(n):
        cg = complement(g)
        if (
            cg.is_connected()
            and distance_data(g).diameter == 2
            and distance_data(cg).diameter == 2
        ):
            out.append(g)
    return out


def test_criterion_08_shift_and_two_point_suite():
    failures = []
    # (p, c) pair equality must match two-point yJ-M cospectrality
    for n in range(4, 8):
        graphs = graphs_for(n)
        for kind in ALL_KINDS:
            pair_keys = []
            twopoint_keys = []
            for g in graphs:
                m = build_matrix(g, kind)
                pair_keys.append((charpoly_coeffs(m), cof_coeffs(m)))
                y1 = charpoly_coeffs(apply_shift(m, 0, 1))  # yJ - M at y = 1
                y2 = charpoly_coeffs(apply_shift(m, 0, 2))
                twopoint_keys.append((y1, y2))
            if not _partitions_equal(pair_keys, twopoint_keys):
                failures.append(("two-point", kind.value, n))
    # generalized cospectrality = r-spectral equality on its valid domains
    for n in range(4, 8):
        graphs = [g for g in graphs_for(n)]
        for kind in ADJ_KINDS:
            gen_keys = []
            r_keys = []
            for g in graphs:
                m = build_matrix(g, kind)
                mbar = build_matrix(complement(g), kind)
                gen_keys.append((charpoly_coeffs(m), charpoly_coeffs(mbar)))
                r_keys.append((charpoly_coeffs(m), cof_coeffs(m)))
            if not _partitions_equal(gen_keys, r_keys):
                failures.append(("gen=r adj kinds", kind.value, n))
    diam2_8 = _diam2_graphs(8)
    for kind in ALL_KINDS:
        gen_keys = []
        r_keys = []
        for g in diam2_8:
            m = build_matrix(g, kind)
            mbar = build_matrix(complement(g), kind)
            gen_keys.append((charpoly_coeffs(m), charpoly_coeffs(mbar)))
            r_keys.append((charpoly_coeffs(m), cof_coeffs(m)))
        if not _partitions_equal(gen_keys, r_keys):
            failures.append(("gen=r diam2 n=8", kind.value))
    # complement-shift identity, exhaustive on stated domains
    for n in range(4, 8):
        for g in graphs_for(n):
            cg = complement(g)
            if not cg.is_connected():
                continue
            for kind in ADJ_KINDS:
                x, y = complement_shift(kind, n)
                if build_matrix(cg, kind) != apply_shift(build_matrix(g, kind), x, y):
                    failures.append(("shift", kind.value, n))
    for g in diam2_8:
        cg = complement(g)
        for kind in ALL_KINDS:
            x, y = complement_shift(kind, 8)
            if build_matrix(cg, kind) != apply_shift(build_matrix(g, kind), x, y):
                failures.append(("shift diam2", kind.value, write_graph6(g)))
    report(8, not failures,
           f"two-point equivalence (10 kinds, n<=7), gen/r-spectral equivalences, and "
           f"complement shifts all exact {failures or ''}")


def test_criterion_09_codeterminantal():
    checked = 0
    failures = []
    for n in range(4, 8):
        buckets = {}
        for g in graphs_for(n):
            buckets.setdefault(charpoly_coeffs(build_matrix(g, K.ADJACENCY)), []).append(g)
        mates = [group for group in buckets.values() if len(group) >= 2]
        for group in mates:
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    checked += 1
                    if not is_codeterminantal_Qx(group[i], group[j], K.ADJACENCY):
                        failures.append((n, write_graph6(group[i]), write_graph6(group[j])))
        # sampled non-cospectral pairs must not be codeterminantal
        reps = [group[0] for group in list(buckets.values())[:6]]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                checked += 1
                if is_codeterminantal_Qx(reps[i], reps[j], K.ADJACENCY):
                    failures.append(("non-cospectral", n, i, j))
    report(9, not failures,
           f"{checked} pairs: A-cospectral <=> Q[x]-codeterminantal {failures or ''}")


def test_criterion_10_anchors():
    butterfly = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    k5 = smith_normal_form(build_matrix(complete(5), K.ADJACENCY))
    bf = smith_normal_form(build_matrix(butterfly, K.ADJACENCY))
    g1 = from_edges(7, [(5, 6), (0, 3), (1, 3), (2, 3), (2, 4), (1, 4), (0, 4),
                        (1, 6), (2, 6), (0, 5), (1, 5), (2, 5), (0, 6)])
    g2 = from_edges(7, [(0, 4), (0, 3), (0, 1), (0, 2), (3, 5), (4, 5), (1, 6),
                        (2, 6), (1, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
    s1 = smith_normal_form(build_matrix(g1, K.LAPLACIAN))
    s2 = smith_normal_form(build_matrix(g2, K.LAPLACIAN))
    ok = (
        k5 == bf == (1, 1, 1, 1, 4)
        and s1 == s2 == (1, 1, 1, 1, 12, 60, 0)
        and g1.edge_count == 13
        and g2.edge_count == 14
    )
    report(10, ok, f"SNF(A(K5)) = SNF(A(butterfly)) = {k5}; Laplacian pair both {s1} "
                   f"with edges {g1.edge_count} vs {g2.edge_count}")


def test_criterion_11_spectral_vs_r_spectral_gap_empty():
    failures = []
    for n in TABLE_NS:
        by_task, _ = paper_sweep(n)
        for kind in ACC11_KINDS:
            plain = by_task[CensusTask(kind, F.SPECTRAL, D.CONNECTED)].with_mate
            refined = by_task[CensusTask(kind, F.R_SPECTRAL, D.CONNECTED)].with_mate
            # the r-spectral key refines the spectral key, so equality of the
            # counts means no graph has a spectral mate without an r-mate
            if plain != refined:
                failures.append((kind.value, n, plain, refined))
    report(11, not failures,
           f"n<=8: every graph with a cospectral mate has an (M,R)-cospectral mate "
           f"for kinds d/atrs/dq/ddeg {failures or ''}")
