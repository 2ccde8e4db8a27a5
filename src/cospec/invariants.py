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

This module builds every key byte, also the census's snf_prefix keys:
b"P" and then the same encoding of each SNF side's rank and top
determinantal divisor, as b"P4,1;4,1" for the adjacency gen-invariant
prefix of P_4. A full key holds no "P", so it never equals a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import ConnectivityError, pair_map
from .graphs import complement, distance_data
from .intlinalg import charpoly_coeffs, determinantal_gcds_Qx, format_factors, snf_diagonal
from .matrices import MatrixKind, TokenEnum, build_matrix
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


# op -> (description label, rendering of its result)
_OPS = {
    "charpoly": ("charpoly", pstr),
    "cof": ("cof polynomial", pstr),
    "snf": ("invariant factors", format_factors),
}


class _Blocks:
    """Lazy per-graph memo, the one map from a graph's sides to fingerprint
    blocks. Side 0 is the graph and side 1 its complement, each given as
    a plain Graph. Each matrix is built once per (kind, side) and
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
                m = self.mats[kind, side] = self.build(self.sides[side], kind)
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


def _encode(blocks):
    """Each block's ints joined by ",", the blocks by ";", as ASCII."""
    return ";".join(",".join(map(str, ints)) for ints in blocks).encode("ascii")


def compose_key(kind, flavor, blocks):
    """Assemble the byte key from already computed component int lists.

    Kind and flavor are not encoded: keys are only ever compared within one
    (kind, flavor). An empty block (a zero cof polynomial) is the empty
    string between separators.
    """
    return _encode(blocks)


_COFACTOR_KINDS = (MatrixKind.LAPLACIAN, MatrixKind.DISTANCE_LAPLACIAN)


def snf_prefix(kind, sides):
    """Prefix key of an SNF fingerprint: b"P", then the key encoding of each
    side's rank and, where a charpoly gives it, top = d_rank: at full rank,
    and for an l or dl matrix of rank n - 1 (its adjugate is a multiple of
    J). sides holds (size, rank, top) as _charpoly_side or _snf_side reads
    it. Both are functions of the SNF, so equal SNF keys share a prefix."""
    return b"P" + _encode(
        (rank, top) if rank == n or rank == n - 1 and kind in _COFACTOR_KINDS else (rank,)
        for n, rank, top in sides
    )


def _charpoly_side(c):
    """(size, rank, top) of a symmetric matrix from its charpoly c
    (ascending): the rank is n less the multiplicity of the root 0, and top
    is |c_0| at full rank and |c_1| / n at rank n - 1, which snf_prefix
    keeps for l and dl only."""
    n = len(c) - 1
    zeros = next(k for k, v in enumerate(c) if v)  # c is monic
    top = abs(c[0]) if zeros == 0 else abs(c[1]) // n if zeros == 1 else None
    return n, n - zeros, top


def _snf_side(d):
    """(size, rank, top) of a matrix from its invariant factors d: the count
    and the product of the nonzero ones."""
    nonzero = [v for v in d if v]
    return len(d), len(nonzero), prod(nonzero)


def fingerprint_blocks(g, kind, flavor):
    """The component int lists of g's fingerprint, in flavor.components order."""
    cg = complement(g)
    if flavor.uses_complement and kind.requires_connected and not distance_data(cg).connected:
        raise ConnectivityError(
            f"generalized {kind.value!r} fingerprints need a connected complement"
        )
    blocks = _Blocks((g, cg), build_matrix, charpoly_coeffs, snf_diagonal)
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


def _equal_values(value, g, h):
    """Whether value(g) == value(h), the one pair rule: vertex counts that
    differ are a ValueError before any value is computed, and an error
    that value raises names its graph (errors.pair_map)."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ ({g.n} vs {h.n})")
    a, b = pair_map(value, g, h)
    return a == b


def related(g, h, kind, flavor):
    """True exactly when g and h stand in the (kind, flavor) relation."""
    return _equal_values(lambda x: fingerprint(x, kind, flavor), g, h)


def is_codeterminantal_Qx(g, h, kind):
    """True when the Q[x] determinantal gcd chains of xI - M agree at
    every order for M of the given kind."""
    return _equal_values(lambda x: determinantal_gcds_Qx(build_matrix(x, kind)), g, h)


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
