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
from dataclasses import dataclass
from functools import lru_cache

from .errors import Graph6ParseError, UnsupportedSizeError

MAX_VERTICES = 64  # representable
MAX_SHORT_GRAPH6_VERTICES = 62  # one size byte; header 126 starts the long form
CANONICAL_MAX_N = 8
GENERATOR_MAX_N = 9
TREE_MAX_N = 12

UNREACHABLE = -1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; rows[v] is the neighbor bitmask of v."""

    n: int
    rows: tuple

    def __post_init__(self):
        n = self.n
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
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

    def has_edge(self, u, v):
        return bool((self.rows[u] >> v) & 1)

    def degrees(self):
        return tuple(bin(r).count("1") for r in self.rows)

    @property
    def edge_count(self):
        return sum(bin(r).count("1") for r in self.rows) // 2

    def edges(self):
        for u in range(self.n):
            r = self.rows[u] >> (u + 1)
            v = u + 1
            while r:
                if r & 1:
                    yield (u, v)
                r >>= 1
                v += 1

    def is_connected(self):
        return _connected(self.rows, (1 << self.n) - 1)


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
    return Graph(g.n, tuple((full ^ r ^ (1 << v)) for v, r in enumerate(g.rows)))


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
    rows = [0] * n
    pairs = _PAIR_CACHE(n)
    bitpos = 0
    for k in range(start, start + nbytes):
        b = ord(s[k])
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"data byte {b} outside [63, 126]", offset=k)
        group = b - 63
        for t in range(5, -1, -1):
            bit = (group >> t) & 1
            if bitpos < nbits:
                if bit:
                    # column-major order: bit index -> pair (u, v)
                    u, v = pairs[bitpos]
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            elif bit:
                raise Graph6ParseError("nonzero padding bit", offset=k)
            bitpos += 1
    return Graph(n, tuple(rows))


@lru_cache(maxsize=None)
def _PAIR_CACHE(n):
    pairs = []
    for v in range(1, n):
        for u in range(v):
            pairs.append((u, v))
    return tuple(pairs)


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
            raise exc.at_line(lineno) from exc


# ---------------------------------------------------------------------------
# BFS metric data


@dataclass(frozen=True)
class DistanceData:
    """Per-pair hop counts plus the derived transmission/degree vectors.

    Unreachable pairs hold UNREACHABLE (-1); trs and diameter are None for
    disconnected graphs rather than pretending a value.
    """

    dist: tuple
    trs: tuple
    deg: tuple
    diameter: int
    connected: bool


def distance_data(g):
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    dist = []
    connected = True
    for s in range(n):
        drow = [UNREACHABLE] * n
        drow[s] = 0
        seen = 1 << s
        frontier = 1 << s
        d = 0
        while frontier:
            d += 1
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= rows[v]
            frontier = nxt & ~seen
            seen |= frontier
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                drow[v] = d
        if seen != full:
            connected = False
        dist.append(tuple(drow))
    deg = tuple(bin(r).count("1") for r in rows)
    if connected:
        trs = tuple(sum(row) for row in dist)
        diameter = max(max(row) for row in dist)
    else:
        trs = None
        diameter = None
    return DistanceData(tuple(dist), trs, deg, diameter, connected)


# ---------------------------------------------------------------------------
# canonical keys (brute-force bound, exact minimum over all relabelings)


def _is_twin(rows, u, v):
    mask = ~((1 << u) | (1 << v))
    return (rows[u] & mask) == (rows[v] & mask)


def _twin_classes(n, rows):
    """twins[v] is the bitset of vertices twin to v, v included.

    Being twins is an equivalence relation, and swapping two twins is an
    automorphism, so permuting a class is one too.
    """
    twins = [0] * n
    for v in range(n):
        if not twins[v]:
            cls = 1 << v
            for w in range(v + 1, n):
                if _is_twin(rows, v, w):
                    cls |= 1 << w
            rest = cls
            while rest:
                low = rest & -rest
                rest ^= low
                twins[low.bit_length() - 1] = cls
    return twins


def _canonical_columns(n, rows):
    """Column codes of the lexicographically minimal graph6 labeling.

    Greedy level search: the minimal bit stream must route through a
    minimal column at every position, so only tied extensions survive.
    The vertices giving a partial labeling its least next column are found
    as a bitset, one neighbourhood test per labeled vertex, most
    significant bit first. Twin vertices (swappable by a transposition
    automorphism) are explored once per frontier entry.
    """
    full = (1 << n) - 1
    twins = _twin_classes(n, rows)
    partials = []
    s = full
    while s:
        v = (s & -s).bit_length() - 1
        partials.append(((v,), 1 << v))
        s &= ~twins[v]
    cols = []
    for level in range(1, n):
        best = None
        chosen = []
        for p, used in partials:
            s = full ^ used
            c = 0
            for u in p:
                t = s & ~rows[u]
                if t:
                    s = t
                    c <<= 1
                else:
                    c = (c << 1) | 1
            if best is None or c < best:
                best = c
                chosen = [(p, used, s)]
            elif c == best:
                chosen.append((p, used, s))
        cols.append(best)
        if level == n - 1:
            break
        partials = []
        for p, used, s in chosen:
            while s:
                v = (s & -s).bit_length() - 1
                partials.append((p + (v,), used | (1 << v)))
                s &= ~twins[v]
    return cols


def _canonical_g6(n, rows):
    return _graph6(n, _canonical_columns(n, rows))


def canonical_key(g):
    """Minimum graph6 string over all vertex relabelings, as bytes.

    Equal keys hold exactly for isomorphic graphs. Brute-force search,
    bounded at n = CANONICAL_MAX_N.
    """
    if g.n > CANONICAL_MAX_N:
        raise UnsupportedSizeError(
            f"canonical keys use brute-force search, supported up to "
            f"n = {CANONICAL_MAX_N} (got {g.n})"
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
    for v, cls in enumerate(_twin_classes(n, rows)):
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
        bdeg = [bin(r).count("1") for r in brows]
        for mask in _sorted_masks(m, brows):
            rows = list(brows)
            deg = list(bdeg)
            rest = mask
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                rows[u] |= bit
                deg[u] += 1
            rows.append(mask)
            d = bin(mask).count("1")
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


def _tree_center(n, rows):
    deg = [bin(r).count("1") for r in rows]
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
    AHU encoding (min over the one or two centers)."""
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
