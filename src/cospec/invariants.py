"""Canonical fingerprints and pairwise predicates.

A fingerprint is an opaque byte key; two graphs get equal keys for a given
(kind, flavor) exactly when they stand in the corresponding relation:

  spectral        equal characteristic polynomial of M
  gen-spectral    spectral, and complements spectral
  r-spectral      equal (charpoly, cofactor-polynomial) pair, i.e.
                  (yJ - M)-cospectral for every real y
  invariant       equal Smith normal form of M
  gen-invariant   invariant, and complements invariant

A key is ASCII decimal text: each block's ints joined by ",", the blocks
joined by ";". The K3 adjacency spectral key is b"-2,-3,0,1" (charpoly
x^3 - 3x - 2, ascending). Kind and flavor are not encoded, since keys are
only compared within one (kind, flavor), whose flavor fixes the block
count. With that count fixed the text decodes uniquely, so distinct block
lists never share a key; no hashing is involved. Every coefficient of a
graph matrix on at most 64 vertices has fewer than 215 digits, far below
CPython's 4,300-digit limit on str(int).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConnectivityError
from .graphs import complement, distance_data
from .intlinalg import charpoly_coeffs, determinantal_gcds_Qx, snf_diagonal
from .matrices import TokenEnum, build_matrix
from .polynomials import pstr, psub


class Flavor(TokenEnum):
    SPECTRAL = "spectral"
    GEN_SPECTRAL = "gen-spectral"
    R_SPECTRAL = "r-spectral"
    INVARIANT = "invariant"
    GEN_INVARIANT = "gen-invariant"

    @property
    def components(self):
        """The fingerprint's blocks in key order, as (op, side) pairs."""
        return _COMPONENTS[self]

    @property
    def uses_complement(self):
        return any(side for _, side in self.components)


# op is the computation on a graph matrix; side 0 is the graph and side 1
# its complement.
_COMPONENTS = {
    Flavor.SPECTRAL: (("charpoly", 0),),
    Flavor.GEN_SPECTRAL: (("charpoly", 0), ("charpoly", 1)),
    Flavor.R_SPECTRAL: (("charpoly", 0), ("cof", 0)),
    Flavor.INVARIANT: (("snf", 0),),
    Flavor.GEN_INVARIANT: (("snf", 0), ("snf", 1)),
}


def _factors(ints):
    return " ".join(str(v) for v in ints)


# op -> (description label, rendering of its result)
_OPS = {
    "charpoly": ("charpoly", pstr),
    "cof": ("cof polynomial", pstr),
    "snf": ("invariant factors", _factors),
}


class _Blocks:
    """Lazy per-graph memo, the one map from a graph's sides to fingerprint
    blocks. Side 0 is the graph and side 1 its complement, each given as
    (graph, DistanceData). Each matrix is built once per (kind, side) and
    each block computed once per (op, kind, side), so blocks shared by
    several (kind, flavor) keys are computed once. The caller passes the
    matrix, charpoly and SNF functions, and so chooses the names they are
    called through."""

    __slots__ = ("sides", "build", "charpoly", "snf", "mats", "memo")

    def __init__(self, sides, build, charpoly, snf):
        self.sides = sides
        self.build = build
        self.charpoly = charpoly
        self.snf = snf
        self.mats = {}
        self.memo = {}

    def block(self, op, kind, side):
        key = (op, kind, side)
        ints = self.memo.get(key)
        if ints is None:
            m = self.mats.get((kind, side))
            if m is None:
                g, data = self.sides[side]
                m = self.mats[kind, side] = self.build(g, kind, data=data)
            if op == "snf":
                ints = self.snf(m)
            elif op == "charpoly":
                ints = self.charpoly(m)
            else:
                # cof_coeffs(m) = charpoly(m - J) - charpoly(m), with the
                # charpoly of m taken from its own block
                shifted = [[v - 1 for v in row] for row in m]
                ints = psub(self.charpoly(shifted), self.block("charpoly", kind, side))
            self.memo[key] = ints
        return ints


def compose_key(kind, flavor, blocks):
    """Assemble the byte key from already computed component int lists.

    Kind and flavor are not encoded: keys are only ever compared within one
    (kind, flavor). An empty block (a zero cof polynomial) is the empty
    string between separators.
    """
    return ";".join(",".join(map(str, ints)) for ints in blocks).encode("ascii")


def fingerprint_blocks(g, kind, flavor):
    """The component int lists of g's fingerprint, in flavor.components order."""
    data = distance_data(g)
    if kind.requires_connected and not data.connected:
        raise ConnectivityError(
            f"kind {kind.value!r} needs a connected graph"
        )
    sides = [(g, data)]
    if flavor.uses_complement:
        cg = complement(g)
        cdata = distance_data(cg)
        if kind.requires_connected and not cdata.connected:
            raise ConnectivityError(
                f"generalized {kind.value!r} fingerprints need a connected complement"
            )
        sides.append((cg, cdata))
    blocks = _Blocks(sides, build_matrix, charpoly_coeffs, snf_diagonal)
    return [blocks.block(op, kind, side) for op, side in flavor.components]


def fingerprint(g, kind, flavor):
    """Byte-comparable key for the (kind, flavor) equivalence class of g."""
    return compose_key(kind, flavor, fingerprint_blocks(g, kind, flavor))


def describe_fingerprint(g, kind, flavor):
    """Human-readable rendering of what the fingerprint encodes."""
    rendered = []
    for (op, side), ints in zip(flavor.components, fingerprint_blocks(g, kind, flavor)):
        label, render = _OPS[op]
        if side:
            label += " of complement"
        rendered.append(f"{label}: {render(ints)}")
    return f"kind {kind.value}, flavor {flavor.value}; " + "; ".join(rendered)


def related(g, h, kind, flavor):
    """True exactly when g and h stand in the (kind, flavor) relation."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ ({g.n} vs {h.n})")
    return fingerprint(g, kind, flavor) == fingerprint(h, kind, flavor)


def is_codeterminantal_Qx(g, h, kind):
    """True when the Q[x] determinantal gcd chains of xI - M agree at
    every order for M of the given kind."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ ({g.n} vs {h.n})")
    mg = build_matrix(g, kind)
    mh = build_matrix(h, kind)
    return determinantal_gcds_Qx(mg) == determinantal_gcds_Qx(mh)


@dataclass(frozen=True)
class CokernelGroup:
    """Z^n / Im M as torsion invariant factors (> 1) plus free rank."""

    torsion: tuple
    free_rank: int

    def __str__(self):
        parts = [f"Z_{d}" for d in self.torsion]
        parts.extend(["Z"] * self.free_rank)
        return " + ".join(parts) if parts else "0"


def cokernel_group(g, kind):
    """Torsion/free decomposition of the cokernel, read off the SNF."""
    factors = snf_diagonal(build_matrix(g, kind))
    return CokernelGroup(
        torsion=tuple(d for d in factors if d > 1),
        free_rank=sum(1 for d in factors if d == 0),
    )
