"""The ten graph matrices, the complement-shift parameters, and the token
rule of the enums that name kinds, flavors and domains.

Every matrix is materialized densely with exact integer entries. The
distance-derived kinds require a connected graph; building them for a
disconnected one raises ConnectivityError.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .errors import ConnectivityError
from .graphs import distance_data


class TokenEnum(Enum):
    """An enum read from its value in any letter case; the error names the
    class in words (MatrixKind -> "matrix kind") and every accepted token."""

    @classmethod
    def from_token(cls, token):
        try:
            return cls(token.lower())
        except ValueError:
            noun = re.sub(r"\B([A-Z])", r" \1", cls.__name__).lower()
            raise ValueError(
                f"unknown {noun} {token!r}; expected one of "
                + ", ".join(m.value for m in cls)
            ) from None


class MatrixKind(TokenEnum):
    ADJACENCY = "a"
    LAPLACIAN = "l"
    SIGNLESS_LAPLACIAN = "q"
    DISTANCE = "d"
    DISTANCE_LAPLACIAN = "dl"
    SIGNLESS_DISTANCE_LAPLACIAN = "dq"
    TRANSMISSION_ADJACENCY = "atrs"
    SIGNLESS_TRANSMISSION_ADJACENCY = "atrs+"
    DEGREE_DISTANCE = "ddeg"
    SIGNLESS_DEGREE_DISTANCE = "ddeg+"

    @property
    def requires_connected(self):
        diagonal, _, base = _FORMULAS[self]
        return base == "dist" or diagonal == "trs"


# M = diag(diagonal) + sign * base, with diagonal None (zero), "deg" or
# "trs" and base "adj" (adjacency A) or "dist" (distance D). Both bases have
# a zero diagonal, so M's diagonal is the diagonal vector alone.
_FORMULAS = {
    MatrixKind.ADJACENCY: (None, 1, "adj"),
    MatrixKind.LAPLACIAN: ("deg", -1, "adj"),
    MatrixKind.SIGNLESS_LAPLACIAN: ("deg", 1, "adj"),
    MatrixKind.DISTANCE: (None, 1, "dist"),
    MatrixKind.DISTANCE_LAPLACIAN: ("trs", -1, "dist"),
    MatrixKind.SIGNLESS_DISTANCE_LAPLACIAN: ("trs", 1, "dist"),
    MatrixKind.TRANSMISSION_ADJACENCY: ("trs", -1, "adj"),
    MatrixKind.SIGNLESS_TRANSMISSION_ADJACENCY: ("trs", 1, "adj"),
    MatrixKind.DEGREE_DISTANCE: ("deg", -1, "dist"),
    MatrixKind.SIGNLESS_DEGREE_DISTANCE: ("deg", 1, "dist"),
}

ALL_KINDS = tuple(MatrixKind)
DISTANCE_KINDS = tuple(k for k in MatrixKind if k.requires_connected)


class ShiftParams(NamedTuple):
    """(x, y) with M(complement) = x*I + y*J - M(graph).

    Unconditional for the adjacency and (signless) Laplacian kinds; for the
    seven distance-derived kinds valid exactly when the graph and its
    complement both have diameter at most 2.
    """

    x: int
    y: int


def build_matrix(g, kind, data=None):
    """Exact integer matrix of the requested kind for g.

    data may carry a precomputed DistanceData for g to avoid repeating the
    BFS; it is required to be g's own.
    """
    diagonal, sign, base = _FORMULAS[kind]
    n = g.n
    if kind.requires_connected:
        if data is None:
            data = distance_data(g)
        if not data.connected:
            raise ConnectivityError(
                f"matrix kind {kind.value!r} needs a connected graph"
            )
    if diagonal is None:
        diag = (0,) * n
    else:
        diag = data.trs if diagonal == "trs" else g.degrees()
    if base == "dist":
        return [
            [diag[i] if i == j else sign * v for j, v in enumerate(row)]
            for i, row in enumerate(data.dist)
        ]
    return [
        [diag[i] if i == j else sign * (r >> j & 1) for j in range(n)]
        for i, r in enumerate(g.rows)
    ]


def complement_shift(kind, n):
    """Shift parameters (x, y) taking M(G) to M(complement of G)."""
    if n < 2:
        raise ValueError(f"complement shift needs n >= 2 (got {n})")
    diagonal, sign, base = _FORMULAS[kind]
    # Complementing maps A to J - I - A, and D to 3(J - I) - D when G and
    # its complement have diameter <= 2 (distances 1 and 2 swap); degrees
    # become n - 1 - deg and transmissions 3(n - 1) - trs.
    c = {None: 0, "deg": n - 1, "trs": 3 * (n - 1)}[diagonal]
    k = 1 if base == "adj" else 3
    return ShiftParams(c - sign * k, sign * k)


def apply_shift(m, x, y):
    """x*I + y*J - m."""
    n = len(m)
    return [
        [(x if i == j else 0) + y - m[i][j] for j in range(n)] for i in range(n)
    ]
