"""Closed-form Smith normal forms: stars, trees via minimal 2-matchings,
and transmission-regular complete multipartite graphs.

The tree route computes each Delta_k as a gcd of principal minors of the
transmission-adjacency matrix indexed by the looped vertices of minimal
2-matchings; the top value Delta_n has three independent routes that are
always cross-checked.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from math import gcd, prod
from operator import or_
from typing import NamedTuple

from .errors import ConsistencyError, UnsupportedSizeError
from .graphs import MAX_VERTICES, Graph, check_tree, distance_data
from .intlinalg import checked_chain, determinant, snf_diagonal
from .matrices import MatrixKind, build_matrix

TWO_MATCHING_MAX_N = 12


class _TreeFields(NamedTuple):
    tree: Graph
    c: tuple


class TreeData(_TreeFields):
    """A tree together with c(u) = trs(u) - deg(u) per vertex. Without
    __slots__, so that the cached _edge_sides has a __dict__ to live in."""

    @classmethod
    def from_graph(cls, g):
        check_tree(g)
        trs = distance_data(g).trs
        return cls(g, tuple(t - d for t, d in zip(trs, g.degrees())))

    @cached_property
    def _edge_sides(self):
        """For each tree edge (u, v), the bitset of vertices nearer to v than
        to u, read from the tree's distance matrix: the side of v once the
        edge is cut. Kept on this instance, outside eq, hash and repr."""
        tree = self.tree
        dist = distance_data(tree).dist
        return tuple(
            sum(1 << w for w in range(tree.n) if dist[v][w] < dist[u][w])
            for u, v in tree.edges()
        )


class TwoMatching(NamedTuple):
    """Edge/loop subset with at most two incidences per vertex (a loop
    counts as two); loops is the set of looped vertices."""

    edges: frozenset
    loops: frozenset

    @property
    def size(self):
        return len(self.edges) + len(self.loops)


def star_snf(leaves):
    """Invariant factors of the transmission-adjacency matrix (plain and
    signless alike) of the star with the given number of leaves."""
    k = leaves
    if k < 2:
        raise ValueError(f"star closed form needs at least 2 leaves (got {k})")
    _check_vertex_count(k + 1)
    w = 2 * k - 1
    return checked_chain((1, 1) + (w,) * (k - 2) + (2 * k * (k - 1) * w,))


def _check_vertex_count(n):
    """The size rule of every graph: at most MAX_VERTICES vertices, checked
    before a closed form allocates its chain."""
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(
            f"closed forms cover graphs of at most {MAX_VERTICES} vertices (got {n})"
        )


def _check_tree_size(t):
    if t.tree.n > TWO_MATCHING_MAX_N:
        raise UnsupportedSizeError(
            f"2-matching enumeration is brute force, supported up to "
            f"n = {TWO_MATCHING_MAX_N} (got {t.tree.n})"
        )


def _two_matchings(g):
    """Every 2-matching of the looped graph g as (edges, loops): each edge
    set with at most two edges at any vertex, built edge by edge with the
    bitsets of the vertices covered once and twice, together with every
    subset of its uncovered vertices as the loops."""
    edges = list(g.edges())

    def walk(i, chosen, once, twice):
        if i == len(edges):
            free = [v for v in range(g.n) if not (once | twice) >> v & 1]
            for r in range(len(free) + 1):
                for loops in combinations(free, r):
                    yield chosen, loops
            return
        yield from walk(i + 1, chosen, once, twice)
        u, v = edges[i]
        ends = 1 << u | 1 << v
        if not ends & twice:
            yield from walk(i + 1, chosen + (edges[i],), once ^ ends, twice | once & ends)

    return walk(0, (), 0, 0)


def minimal_two_matchings(t, k):
    """All size-k 2-matchings of the looped tree achieving the minimum loop
    count among size-k 2-matchings."""
    _check_tree_size(t)
    sized = [(e, loops) for e, loops in _two_matchings(t.tree) if len(e) + len(loops) == k]
    fewest = min((len(loops) for _, loops in sized), default=0)
    return [
        TwoMatching(frozenset(e), frozenset(loops)) for e, loops in sized if len(loops) == fewest
    ]


def _loop_sets_by_size(g):
    """size -> set of looped-vertex frozensets over all 2-matchings."""
    table = {}
    for edges, loops in _two_matchings(g):
        table.setdefault(len(edges) + len(loops), set()).add(frozenset(loops))
    return table


def _inclusion_minimal(sets):
    return [s for s in sets if not any(o < s for o in sets)]


def _principal_minor(m, subset):
    idx = sorted(subset)
    return determinant([[m[i][j] for j in idx] for i in idx])


def tree_snf(t):
    """Invariant factors of the transmission-adjacency matrix of a tree
    (the signless variant has the same SNF), via 2-matching minor gcds.

    Delta_k is the gcd of the principal minors indexed by the
    inclusion-minimal loop sets of size-k 2-matchings of the looped tree.
    Minimality by loop count alone is not enough: on the 5-vertex chair the
    count-minimal loop sets give 8 at k = 4 while the true gcd is 1,
    witnessed by the loop set of a 2-matching whose edges form a longer
    path. The acceptance suite pins this route against the direct SNF for
    every tree up to 9 vertices.
    """
    n = t.tree.n
    if n < 3:
        raise ValueError(f"tree closed form needs n >= 3 (got {n})")
    _check_tree_size(t)
    m = build_matrix(t.tree, MatrixKind.TRANSMISSION_ADJACENCY)
    loop_sets = _loop_sets_by_size(t.tree)
    deltas = [1]  # Delta_2
    for k in range(3, n + 1):
        if k not in loop_sets:
            raise ConsistencyError(f"no 2-matching of size {k} in a tree on {n} vertices")
        g = 0
        for subset in _inclusion_minimal(loop_sets[k]):
            g = gcd(g, abs(_principal_minor(m, subset)))
            if g == 1:
                break
        deltas.append(g)
    d = [1, 1]
    for prev, cur in zip(deltas, deltas[1:]):
        d.append(cur // prev)
    return checked_chain(d)


def rho(t, U):
    """Number of (|U|-1)-subsets of tree edges meeting every path between
    distinct vertices of U. Brute force over edge subsets.

    An edge lies on the u-v path exactly when u and v lie on different sides
    of it, so each edge gets the bitset of the pairs of U that it separates,
    and a subset counts when the union of its bitsets holds every pair.
    """
    verts = sorted(set(U))
    if not verts:
        raise ValueError("rho needs a nonempty vertex set")
    for v in verts:
        if not 0 <= v < t.tree.n:
            raise ValueError(f"rho: vertex {v} is not in the tree (n = {t.tree.n})")
    _check_tree_size(t)
    pairs = list(combinations(verts, 2))
    cuts = []
    for side in t._edge_sides:
        cut = 0
        for i, (u, v) in enumerate(pairs):
            if ((side >> u) ^ (side >> v)) & 1:
                cut |= 1 << i
        cuts.append(cut)
    every = (1 << len(pairs)) - 1
    return sum(
        reduce(or_, subset, 0) == every
        for subset in combinations(cuts, len(verts) - 1)
    )


def tree_delta_n(t):
    """Full-size minor gcd Delta_n of the transmission-adjacency matrix,
    computed by (a) the rho-weighted sum over vertex subsets, (b) the
    absolute determinant, and (c) the invariant-factor product, asserting
    that all routes agree."""
    n = t.tree.n
    m = build_matrix(t.tree, MatrixKind.TRANSMISSION_ADJACENCY)
    by_det = abs(determinant(m))
    by_snf = prod(snf_diagonal(m))
    routes = {"determinant": by_det, "invariant factor product": by_snf}
    if n <= TWO_MATCHING_MAX_N:
        c = t.c
        total = 0
        for a in range(1, n + 1):
            for U in combinations(range(n), a):
                weight = 1
                for u in U:
                    weight *= c[u]
                    if weight == 0:
                        break
                if weight == 0:
                    continue
                total += rho(t, U) * weight
        routes["rho sum"] = total
    values = set(routes.values())
    if len(values) != 1:
        raise ConsistencyError(
            "Delta_n routes disagree: "
            + ", ".join(f"{k} = {v}" for k, v in sorted(routes.items()))
        )
    return by_det


def multipartite_snf(m, s, signless=False):
    """Invariant factors of the (signless) transmission-adjacency matrix of
    the complete multipartite graph with m parts of size s (transmission
    regular by construction)."""
    if m < 2 or s < 2:
        raise ValueError(f"need m >= 2 and s >= 2 (got m = {m}, s = {s})")
    _check_vertex_count(m * s)
    t = m * s + s - 2
    a = gcd(m - 1, 2 * (s - 1))
    both_even = m % 2 == 0 and s % 2 == 0
    if signless:
        block = t * (t - s)
        last_num = (m * s - 1) * t * (t - s)
    else:
        block = t * (t + s)
        last_num = (s - 1) * t * (t + s)
    if both_even:
        middle = 2 * t
        last = last_num // a
        exact = last_num % a == 0
    else:
        middle = t
        last = 2 * last_num // a
        exact = (2 * last_num) % a == 0
    if not exact:
        raise ConsistencyError("closed-form last invariant factor is not integral")
    chain = (1,) * (m - 1) + (a,) + (t,) * (m * s - 2 * m) + (middle,) + (block,) * (
        m - 2
    ) + (last,)
    return checked_chain(chain)
