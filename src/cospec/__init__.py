"""Exact spectral and Smith-normal-form invariants of graph matrices."""

from .census import (
    CensusRow,
    CensusSpec,
    Domain,
    ExpectedCell,
    diff_paper,
    expected_tables,
    run_census,
)
from .errors import (
    CensusInputError,
    ConnectivityError,
    ConsistencyError,
    CospecError,
    Graph6ParseError,
    UnsupportedSizeError,
)
from .graphs import (
    Graph,
    canonical_key,
    complement,
    distance_data,
    generate_connected,
    generate_trees,
    parse_graph6,
    write_graph6,
)
from .intlinalg import (
    charpoly_coeffs,
    cof_coeffs,
    determinant,
    determinantal_gcds_Qx,
    smith_normal_form,
)
from .invariants import (
    CokernelGroup,
    Flavor,
    cokernel_group,
    describe_fingerprint,
    fingerprint,
    is_codeterminantal_Qx,
    related,
)
from .matrices import MatrixKind, ShiftParams, build_matrix, complement_shift

__version__ = "0.1.0"

# no sweep uses the closed forms, so they load on first use
_CLOSED_FORMS = frozenset({
    "TreeData",
    "TwoMatching",
    "minimal_two_matchings",
    "multipartite_snf",
    "rho",
    "star_snf",
    "tree_delta_n",
    "tree_snf",
})


def __getattr__(name):
    if name in _CLOSED_FORMS:
        from . import closed_forms

        return getattr(closed_forms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
