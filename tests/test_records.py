"""The library's records: typing.NamedTuples, validated in __new__ where
they check their fields, and the immutable Graph; and what a fresh
`import cospec` loads."""

import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cospec
from cospec.census import CensusRow, CensusSpec, CensusTask, Domain, diff_paper, expected_tables
from cospec.closed_forms import TreeData, minimal_two_matchings
from cospec.graphs import Graph, distance_data, path
from cospec.invariants import Flavor, cokernel_group
from cospec.matrices import MatrixKind

K = MatrixKind
F = Flavor
D = Domain

SRC = Path(cospec.__file__).resolve().parents[1]


def _fresh(code):
    """stdout of code run by a fresh interpreter that imports cospec from SRC."""
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()


def test_import_loads_no_pool_fractions_or_dataclasses():
    # a fresh import loads none of these, nor the closed forms; a serial
    # sweep loads neither the Pool nor fractions; reading an uncertainty
    # loads fractions
    code = """\
import sys
import cospec
from cospec import census
print(*sorted({"multiprocessing", "fractions", "dataclasses", "cospec.closed_forms"}
              & sys.modules.keys()), "|")
spec = cospec.CensusSpec(4, census.Domain.CONNECTED, (cospec.MatrixKind.ADJACENCY,),
                         cospec.Flavor.SPECTRAL)
row, = cospec.run_census(spec, jobs=1)
print(*sorted({"multiprocessing", "fractions"} & sys.modules.keys()), "|")
row.uncertainty
print(*sorted({"multiprocessing", "fractions"} & sys.modules.keys()))
"""
    assert _fresh(code) == ["|", "|", "fractions"]


def test_closed_forms_load_on_first_use():
    code = """\
import sys
import cospec
print("cospec.closed_forms" in sys.modules)
from cospec import star_snf
print("cospec.closed_forms" in sys.modules)
from cospec import closed_forms
names = ("TreeData", "TwoMatching", "minimal_two_matchings", "multipartite_snf", "rho",
         "star_snf", "tree_delta_n", "tree_snf")
print(star_snf is closed_forms.star_snf,
      all(getattr(cospec, name) is getattr(closed_forms, name) for name in names))
"""
    assert _fresh(code) == ["False", "True", "True", "True"]
    with pytest.raises(AttributeError, match="has no attribute 'tree_snfs'"):
        cospec.tree_snfs


def _records():
    g = path(4)
    task = CensusTask(K.LAPLACIAN, F.GEN_SPECTRAL, D.CONNECTED)
    spec = CensusSpec(5, D.CONNECTED, [K.ADJACENCY, K.LAPLACIAN], F.SPECTRAL)
    row = CensusRow(task, 5, 3, Counter({b"1": 2, b"2": 1}))
    tree = TreeData.from_graph(g)
    return [
        g, task, spec, row, distance_data(g), tree, minimal_two_matchings(tree, 2)[0],
        cokernel_group(g, K.LAPLACIAN), expected_tables()[0], diff_paper(4, jobs=1)[0],
    ]


def test_records_refuse_assignment_and_deletion():
    g, task, spec, row = _records()[:4]
    for record, field in ((g, "n"), (task, "kind"), (spec, "n"), (row, "buckets")):
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert (g.n, task.kind, spec.n, row.buckets) == (4, K.LAPLACIAN, 5, Counter({b"1": 2, b"2": 1}))


def test_replace_and_make_validate():
    spec = CensusSpec(5, D.CONNECTED, (K.DISTANCE,), F.SPECTRAL)
    with pytest.raises(ValueError, match=r"^census needs 2 <= n <= 64 \(got 1\)$"):
        spec._replace(n=1)
    with pytest.raises(ValueError, match="need connected complements"):
        spec._replace(flavor=F.GEN_SPECTRAL)
    with pytest.raises(ValueError, match="more than once"):
        CensusSpec._make((5, D.CONNECTED, (K.ADJACENCY, K.ADJACENCY), F.SPECTRAL))
    assert spec._replace(kinds=[K.ADJACENCY]).kinds == (K.ADJACENCY,)
    task = CensusTask(K.ADJACENCY, F.GEN_SPECTRAL, D.CONNECTED)
    with pytest.raises(ValueError, match="need connected complements"):
        task._replace(kind=K.DISTANCE)
    with pytest.raises(ValueError, match="need connected complements"):
        CensusTask._make((K.DISTANCE, F.GEN_INVARIANT, D.CONNECTED))
    assert task._replace(kind=K.DISTANCE, domain=D.DIAM2_PAIR).kind is K.DISTANCE


def test_records_pickle_to_equal_objects():
    # the workers receive their tasks by pickle
    for record in _records():
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
        if not isinstance(record, CensusRow):  # a Counter is unhashable
            assert hash(back) == hash(record)


def test_unpickling_validates():
    # an instance forged past __new__ pickles, but does not unpickle
    bad = tuple.__new__(CensusTask, (K.DISTANCE, F.GEN_SPECTRAL, D.CONNECTED))
    with pytest.raises(ValueError, match="need connected complements"):
        pickle.loads(pickle.dumps(bad))
    bad = tuple.__new__(CensusSpec, (1, D.CONNECTED, (K.ADJACENCY,), F.SPECTRAL, None))
    with pytest.raises(ValueError, match=r"^census needs 2 <= n <= 64 \(got 1\)$"):
        pickle.loads(pickle.dumps(bad))


def test_records_are_tuples_but_a_graph_is_not():
    task = CensusTask(K.ADJACENCY, F.SPECTRAL, D.CONNECTED)
    kind, flavor, domain = task
    assert task == (kind, flavor, domain) and hash(task) == hash((kind, flavor, domain))
    assert Graph(2, (2, 1)) != (2, (2, 1))
    assert Graph(2, [2, 1]) == Graph(n=2, rows=(2, 1)) and Graph(2, [2, 1]).rows == (2, 1)
    assert repr(Graph(2, [2, 1])) == "Graph(n=2, rows=(2, 1))"
