"""Graphs as immutable adjacency bitsets, graph6 I/O, BFS metric data,
canonical keys, and self-contained generators for small vertex counts.

graph6 here is the size, one byte n+63 for n <= 62 and '~' plus three
bytes for 63 <= n <= 64, then the upper triangle in column-major pair order
(0,1),(0,2),(1,2),(0,3),... packed big-endian into 6-bit groups, each
offset by 63.
"""

from __future__ import annotations

import io
import string
import sys
from contextlib import nullcontext
from functools import lru_cache
from typing import NamedTuple

from .errors import Graph6ParseError, UnsupportedSizeError, at_line

MAX_VERTICES = 64  # representable
MAX_SHORT_GRAPH6_VERTICES = 62  # one size byte; header 126 starts the long form
GENERATOR_MAX_N = 9
TREE_MAX_N = 12

UNREACHABLE = -1


class Graph:
    """Simple undirected graph; rows[v] is the neighbor bitmask of v.

    Immutable: equality and hash read (n, rows) only, and assigning or
    deleting an attribute raises AttributeError. n and rows live in the
    instance __dict__, next to the distance_data(g) memo, which stays
    outside the compared fields."""

    def __init__(self, n, rows):
        rows = tuple(rows)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [1, {MAX_VERTICES}]")
        if len(rows) != n:
            raise ValueError("adjacency rows do not match the vertex count")
        for u in range(n):
            r = rows[u]
            if r >> n:
                raise ValueError(f"row {u} has bits beyond vertex {n - 1}")
            if (r >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
        for u in range(n):
            ru = rows[u]
            for v in range(u + 1, n):
                if ((ru >> v) ^ (rows[v] >> u)) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.__dict__.update(n=n, rows=rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Graph is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n!r}, rows={self.rows!r})"

    def has_edge(self, u, v):
        return bool((self.rows[u] >> v) & 1)

    def degrees(self):
        return tuple(r.bit_count() for r in self.rows)

    @property
    def edge_count(self):
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        n, rows = self.n, self.rows
        return ((u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1)

    def is_connected(self):
        return _connected(self.rows, (1 << self.n) - 1)


def _graph(n, rows):
    """Graph(n, rows) without the checks of Graph.__init__, for a rows tuple
    that is loop-free, symmetric and within n by construction; it fills the
    instance __dict__ directly."""
    g = object.__new__(Graph)
    g.__dict__.update(n=n, rows=rows)
    return g


def _connected(rows, mask):
    """Whether the vertices of the nonzero bitset mask induce a connected
    subgraph of the graph with adjacency rows."""
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= rows[low.bit_length() - 1]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


def from_edges(n, edges):
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has a vertex outside [0, {n - 1}]")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def complete(n):
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def empty(n):
    return Graph(n, (0,) * n)


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    """Star with the given number of leaves; the hub is the last vertex."""
    n = leaves + 1
    return from_edges(n, [(i, leaves) for i in range(leaves)])


def complete_multipartite(m, s):
    """Complete multipartite graph with m parts of equal size s."""
    n = m * s
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u // s != v // s:
                edges.append((u, v))
    return from_edges(n, edges)


def disjoint_union(g, h):
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(g.n + h.n, tuple(rows))


def complement(g):
    """Off-diagonal negation; complement(complement(g)) == g."""
    full = (1 << g.n) - 1
    return _graph(g.n, tuple((full ^ r ^ (1 << v)) for v, r in enumerate(g.rows)))


# ---------------------------------------------------------------------------
# graph6


def parse_graph6(s):
    """Parse one canonical graph6 line into a Graph.

    The size is one header byte n+63 for n <= 62, or '~' followed by three
    bytes holding n in big-endian 6-bit groups for 63 <= n <= 64 (the long
    form; larger sizes exceed MAX_VERTICES). Rejects bytes outside
    [63, 126], a long form for n <= 62, truncated input, trailing garbage
    and nonzero padding bits, naming the offending byte offset.
    """
    s = s.rstrip("\n")
    if not s:
        raise Graph6ParseError("empty graph6 string")
    b0 = ord(s[0])
    if not 63 <= b0 <= 126:
        raise Graph6ParseError(f"header byte {b0} outside [63, 126]", offset=0)
    n = b0 - 63
    start = 1
    if b0 == 126:
        start = 4
        if len(s) < start:
            raise Graph6ParseError("truncated graph6 long-form size", offset=len(s))
        n = 0
        for k in range(1, start):
            b = ord(s[k])
            if not 63 <= b <= 126:
                raise Graph6ParseError(f"size byte {b} outside [63, 126]", offset=k)
            n = (n << 6) | (b - 63)
        if n > MAX_VERTICES:
            raise Graph6ParseError(
                f"graph6 size exceeds {MAX_VERTICES} vertices", offset=1
            )
        if n <= MAX_SHORT_GRAPH6_VERTICES:
            raise Graph6ParseError(
                f"long-form size {n} must use the one-byte form", offset=1
            )
    if n == 0:
        raise Graph6ParseError("graph6 encodes an empty vertex set", offset=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - start < nbytes:
        raise Graph6ParseError(
            f"need {nbytes} data bytes for n = {n}, got {len(s) - start}",
            offset=len(s),
        )
    if len(s) - start > nbytes:
        raise Graph6ParseError(
            "trailing garbage after graph6 data", offset=start + nbytes
        )
    acc = 0
    for k in range(start, start + nbytes):
        b = ord(s[k])
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"data byte {b} outside [63, 126]", offset=k)
        acc = (acc << 6) | (b - 63)
    pad = 6 * nbytes - nbits  # the padding bits all sit in the last byte
    if acc & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bit", offset=start + nbytes - 1)
    acc >>= pad
    # the columns of _graph6, last first: column v holds the pairs
    # (0, v), ..., (v - 1, v), the first one most significant
    rows = [0] * n
    for v in range(n - 1, 0, -1):
        c = acc & ((1 << v) - 1)
        acc >>= v
        while c:
            low = c & -c
            c ^= low
            u = v - low.bit_length()
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return _graph(n, tuple(rows))


def write_graph6(g):
    """Canonical graph6 line; inverse of parse_graph6."""
    rows = g.rows
    cols = []
    for v in range(1, g.n):
        c = 0
        for u in range(v):
            c = (c << 1) | ((rows[u] >> v) & 1)
        cols.append(c)
    return _graph6(g.n, cols)


def _graph6(n, cols):
    """graph6 line of an n-vertex graph from its column codes: cols[v - 1]
    holds the pairs (0, v), ..., (v - 1, v), the first one most significant."""
    if n <= MAX_SHORT_GRAPH6_VERTICES:
        size = chr(n + 63)
    else:
        size = "~" + "".join(chr((n >> k & 63) + 63) for k in (12, 6, 0))
    acc = 0
    nbits = 0
    for v, c in enumerate(cols, start=1):
        acc = (acc << v) | c
        nbits += v
    pad = (-nbits) % 6
    acc <<= pad
    nbits += pad
    chars = [size]
    for k in range(nbits - 6, -1, -6):
        chars.append(chr(((acc >> k) & 63) + 63))
    return "".join(chars)


def _data_lines(lines):
    """Yield (lineno, line) for the data lines of an iterable of text lines:
    each line is stripped and loses a leading >>graph6<< header, then blank
    and '>'-prefixed header/comment lines are skipped.

    The format lets the header run straight into the first graph with no
    line end, as networkx writes it, so the rest of such a line is data.
    Only ASCII whitespace is stripped: bytes such as 0xa0, which _read_lines
    decodes to characters str.strip() would remove, must reach
    parse_graph6's byte range check.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip(string.whitespace).removeprefix(">>graph6<<")
        if line and not line.startswith(">"):
            yield lineno, line


def _open_source(pathname):
    """Context manager for the binary stream of a graph6 source: the file,
    or stdin for '-', which is left open."""
    if pathname == "-":
        return nullcontext(sys.stdin.buffer)
    return open(pathname, "rb")


def _read_lines(pathname):
    """All lines of a graph6 file, or of stdin for '-', without their line
    ends; stdin is left open.

    Decoding is byte-transparent (latin-1), so a non-ASCII byte becomes one
    character that parse_graph6 reports with its value and offset. Line
    ends are those of text mode: \\n, \\r\\n and \\r.
    """
    with _open_source(pathname) as stream:
        text = io.TextIOWrapper(stream, encoding="latin-1")
        try:
            return [line.rstrip("\n") for line in text]
        finally:
            text.detach()


def iter_graph6_lines(lines):
    """Yield (lineno, Graph) from an iterable of text lines.

    Lines are stripped and lose a leading >>graph6<< header, then blank
    lines and '>'-prefixed header/comment lines are skipped.
    """
    for lineno, line in _data_lines(lines):
        try:
            yield lineno, parse_graph6(line)
        except Graph6ParseError as exc:
            raise at_line(exc, lineno) from exc


# ---------------------------------------------------------------------------
# BFS metric data


class DistanceData(NamedTuple):
    """Per-pair hop counts plus the derived transmission vector.

    Unreachable pairs hold UNREACHABLE (-1); trs and diameter are None for
    disconnected graphs rather than pretending a value.
    """

    dist: tuple
    trs: tuple
    diameter: int
    connected: bool


def distance_data(g):
    """g's DistanceData, from one BFS per Graph instance, kept on it."""
    data = g.__dict__.get("_distance_data")
    if data is None:
        data = g.__dict__["_distance_data"] = _bfs(g)
    return data


def _bfs(g):
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    dist = []
    connected = True
    for s in range(n):
        drow = [UNREACHABLE] * n
        seen = frontier = 1 << s
        d = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                v = low.bit_length() - 1
                drow[v] = d
                nxt |= rows[v]
            frontier = nxt & ~seen
            seen |= frontier
            d += 1
        connected = connected and seen == full
        dist.append(tuple(drow))
    trs = diameter = None
    if connected:
        trs = tuple(sum(row) for row in dist)
        diameter = max(max(row) for row in dist)
    return DistanceData(tuple(dist), trs, diameter, connected)


# ---------------------------------------------------------------------------
# canonical keys (exact minimum graph6 form over all relabelings)


def _twin_classes(rows):
    """twins[v] is the bitset of vertices twin to v, v included.

    u and v are twins when N(u) - {v} = N(v) - {u}: false twins share their
    open neighbourhood rows[v], true twins their closed one rows[v] | 1 << v,
    so each kind is one dict lookup per vertex. No vertex has twins of both
    kinds: a false twin u of v and a true twin w of v give w in N(v) = N(u),
    so u in N[w] = N[v], so u ~ v, which a false twin is not. So twins[v] is
    the OR of v's two classes, being twins is an equivalence relation, and
    swapping two twins is an automorphism, so permuting a class is one too.
    """
    false_twins = {}
    true_twins = {}
    for v, r in enumerate(rows):
        bit = 1 << v
        false_twins[r] = false_twins.get(r, 0) | bit
        true_twins[r | bit] = true_twins.get(r | bit, 0) | bit
    return [false_twins[r] | true_twins[r | 1 << v] for v, r in enumerate(rows)]


def _canonical_columns(n, rows):
    """Column codes of the lexicographically minimal graph6 labeling.

    Greedy level search: the minimal bit stream must route through a
    minimal column at every position, so only tied extensions survive.
    Each level extends the chosen partial labelings by the vertices of
    their frontiers, once per twin class (twins are swappable by a
    transposition automorphism), and keeps the extensions with the least
    next column. The frontier of a labeling p is the set of unplaced
    vertices that give p its least next column. A scan finds both, one
    neighbourhood test per labeled vertex u, most significant bit first:
    from the set X of unplaced vertices, the bit is 0 and X shrinks to
    X - N(u) when that is nonempty, and the bit is 1 otherwise.

    Every labeling chosen at a level has the same least next column c.
    Let p be one of them with frontier s; every set of p's scan contains
    s. Extend p by v in s. If s - v is nonempty, the scan of p + (v,)
    starts from X - v, so at each of p's vertices X - v - N(u) is empty
    exactly when X - N(u) is, and it takes p's bits and ends on s - v.
    The last vertex v adds one bit b, so the next column is 2c + b, with
    b = 0 and frontier (s - v) - N(v) when that is nonempty, and b = 1 and
    frontier s - v otherwise: each extension costs O(1) bit operations.
    If s = {v}, take the first step of p's scan after which v is the only
    vertex left (p leaves two or more vertices unplaced, so there is one):
    there p's bit is 0, and the same prefix of the scan of
    p + (v,) gives 1. So that extension's column exceeds 2c + 1, and it is
    never chosen while some labeling has a frontier of two or more
    vertices. Only when every frontier is one vertex does the level scan
    each p + (v,) in full. Zeros beat ones: the extensions with b = 0 are
    kept when there are any.
    """
    full = (1 << n) - 1
    twins = _twin_classes(rows)
    chosen = [((), 0, full)]
    cols = []
    c = 0
    for _ in range(n - 1):
        zeros = []
        ones = []
        for p, used, s in chosen:
            if not s & (s - 1):
                continue
            rest = s
            while rest:
                bit = rest & -rest
                v = bit.bit_length() - 1
                rest &= ~twins[v]
                s_v = s ^ bit
                t = s_v & ~rows[v]
                if t:
                    zeros.append((p + (v,), used | bit, t))
                elif not zeros:
                    ones.append((p + (v,), used | bit, s_v))
        if zeros:
            c <<= 1
            chosen = zeros
        elif ones:
            c = c << 1 | 1
            chosen = ones
        else:  # every frontier is one vertex
            best = None
            for p, used, v_bit in chosen:
                q = p + (v_bit.bit_length() - 1,)
                qused = used | v_bit
                s = full ^ qused
                col = 0
                for u in q:
                    t = s & ~rows[u]
                    if t:
                        s = t
                        col <<= 1
                    else:
                        col = col << 1 | 1
                if best is None or col < best:
                    best = col
                    extended = [(q, qused, s)]
                elif col == best:
                    extended.append((q, qused, s))
            c = best
            chosen = extended
        cols.append(c)
    return cols


def _canonical_g6(n, rows):
    return _graph6(n, _canonical_columns(n, rows))


def canonical_key(g):
    """Minimum graph6 string over all vertex relabelings, as bytes.

    Equal keys hold exactly for isomorphic graphs. Twin-pruned level search
    (_canonical_columns), bounded at n = GENERATOR_MAX_N, where the bundled
    generator runs the same search; n = 8 is where the tests compare it
    with a brute-force minimum.
    """
    if g.n > GENERATOR_MAX_N:
        raise UnsupportedSizeError(
            f"canonical keys use the twin-pruned level search, supported up to "
            f"n = {GENERATOR_MAX_N} (got {g.n})"
        )
    return _canonical_g6(g.n, g.rows).encode("ascii")


# ---------------------------------------------------------------------------
# generators


def _sorted_masks(n, rows):
    """One nonzero neighbourhood mask per orbit of the twin-class
    symmetries of a graph.

    Permuting a class of twins is an automorphism; the kept masks are those
    whose bits inside each class form a prefix of the class in vertex order.
    """
    masks = [0]
    for v, cls in enumerate(_twin_classes(rows)):
        if cls & -cls == 1 << v:  # v is the first vertex of its class
            prefixes = [0]
            while cls:
                low = cls & -cls
                cls ^= low
                prefixes.append(prefixes[-1] | low)
            masks = [a | p for a in masks for p in prefixes]
    return masks[1:]  # masks[0] is the empty neighbourhood


def _neighbour_degrees(deg, row):
    return sorted(d for u, d in enumerate(deg) if (row >> u) & 1)


@lru_cache(maxsize=None)
def connected_graph6_lines(n):
    """Canonical graph6 lines, sorted, one per isomorphism class of
    connected graphs on n vertices, for 1 <= n <= GENERATOR_MAX_N.

    Built by vertex extension: every connected graph on n - 1 vertices gets
    a new vertex m = n - 1 with each nonzero neighbourhood mask, and the
    set of canonical forms dedups the results. Two exact prunes skip most
    canonical forms. Masks in one orbit of the parent's twin-class
    symmetries give isomorphic graphs, so one mask per orbit is tried
    (_sorted_masks). And with inv(v) = (degree, sorted neighbour degrees),
    an extension is kept only if no non-cut vertex has a smaller inv than
    m: every connected graph has a non-cut vertex of least inv among its
    non-cut vertices, and deleting it leaves a connected parent whose
    extension by that vertex is kept.

    A degree prefilter skips, before any rows are copied, masks that the
    inv rule would reject. Let delta be the least degree of a non-cut
    vertex of the parent and R its non-cut vertices of degree delta. For a
    parent with two or more vertices delta >= 1, so a mask of d >= delta + 1
    bits has d >= 2; then every non-cut vertex of the parent stays non-cut
    in the child, as m keeps a neighbour when it is deleted, and gains a
    degree only if it is in the mask. So when d > delta + 1, or d =
    delta + 1 and some vertex of R is not in the mask, a non-cut vertex of
    degree less than d has a smaller inv than m.
    """
    if not 1 <= n <= GENERATOR_MAX_N:
        raise UnsupportedSizeError(
            f"bundled generator covers 1 <= n <= {GENERATOR_MAX_N} (got {n}); "
            "supply an external graph6 file for other sizes"
        )
    if n == 1:
        return ("@",)
    prev = connected_graph6_lines(n - 1)
    keys = set()
    m = n - 1
    bit = 1 << m
    full = (1 << n) - 1
    for line in prev:
        brows = parse_graph6(line).rows
        bdeg = [r.bit_count() for r in brows]
        # delta, the least degree of a non-cut vertex of the parent, and
        # least, the bitset of its non-cut vertices of that degree
        noncut = [v for v in range(m) if _connected(brows, (bit - 1) ^ (1 << v))]
        delta = min(bdeg[v] for v in noncut)
        least = sum(1 << v for v in noncut if bdeg[v] == delta)
        for mask in _sorted_masks(m, brows):
            d = mask.bit_count()
            if d > delta + 1 or d == delta + 1 and least & ~mask:
                continue
            rows = list(brows)
            deg = list(bdeg)
            rest = mask
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                rows[u] |= bit
                deg[u] += 1
            rows.append(mask)
            deg.append(d)
            inv = None
            for v in range(m):
                if deg[v] > d:
                    continue
                if deg[v] == d:
                    if inv is None:
                        inv = _neighbour_degrees(deg, mask)
                    if _neighbour_degrees(deg, rows[v]) >= inv:
                        continue
                if _connected(rows, full ^ (1 << v)):  # v is not a cut vertex
                    break
            else:
                keys.add(_canonical_g6(n, rows))
    return tuple(sorted(keys))


def generate_connected(n):
    """Iterator over one representative per isomorphism class of connected
    graphs on n vertices, in sorted canonical-key order, for
    2 <= n <= GENERATOR_MAX_N; a size outside that range raises here."""
    if n < 2:
        raise UnsupportedSizeError(f"generate_connected needs n >= 2 (got {n})")
    return map(parse_graph6, connected_graph6_lines(n))


def check_tree(g):
    """Raise ValueError unless g is a tree: n - 1 edges and connected."""
    if g.edge_count != g.n - 1:
        raise ValueError("not a tree: edge count differs from n - 1")
    if not g.is_connected():
        raise ValueError("not a tree: graph is disconnected")


def _tree_center(n, rows):
    """The one or two centers of a tree, by peeling its leaves."""
    deg = [r.bit_count() for r in rows]
    alive = list(range(n))
    removed = [False] * n
    while len(alive) > 2:
        leaves = [v for v in alive if deg[v] == 1]
        for v in leaves:
            removed[v] = True
            r = rows[v]
            while r:
                u = (r & -r).bit_length() - 1
                r &= r - 1
                if not removed[u]:
                    deg[u] -= 1
        alive = [v for v in alive if not removed[v]]
    return alive


def _ahu(rows, v, parent):
    parts = []
    r = rows[v]
    while r:
        u = (r & -r).bit_length() - 1
        r &= r - 1
        if u != parent:
            parts.append(_ahu(rows, u, v))
    parts.sort()
    return "(" + "".join(parts) + ")"


def tree_key(g):
    """Canonical string for a tree of any supported size, via center-rooted
    AHU encoding (min over the one or two centers). Raises ValueError for
    a graph that is not a tree."""
    check_tree(g)
    centers = _tree_center(g.n, g.rows)
    return min(_ahu(g.rows, c, -1) for c in centers)


@lru_cache(maxsize=None)
def _tree_rows(n):
    if n == 1:
        return ((0,),)
    out = {}
    for rows in _tree_rows(n - 1):
        for v in range(n - 1):
            new_rows = [r for r in rows]
            new_rows[v] |= 1 << (n - 1)
            new_rows.append(1 << v)
            t = Graph(n, tuple(new_rows))
            out.setdefault(tree_key(t), t.rows)
    return tuple(rows for _, rows in sorted(out.items()))


def generate_trees(n):
    """All trees on n vertices up to isomorphism, deterministic order."""
    if not 1 <= n <= TREE_MAX_N:
        raise UnsupportedSizeError(f"tree generator covers n <= {TREE_MAX_N} (got {n})")
    return [Graph(n, rows) for rows in _tree_rows(n)]
