"""Benchmark inputs and oracles, independent of the cospec library.

Graphs here are (n, rows) pairs with rows[v] the neighbour bitmask of v.
The graph6 codec, the BFS domain oracle and the stream generator are
written out again on purpose: the benchmark must not trust the code it
measures to produce its own inputs or expected values.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
N8_FILE = DATA / "n8.g6"
REFERENCE_FILE = DATA / "n8_reference.json"

DOMAINS = ("connected", "connected-with-connected-complement", "diam2-pair")

# Published n = 8 cells of Tables 1-4 (kind, flavor, domain) -> with_mate,
# and the three n = 8 domain sizes; copied from the paper, not from cospec.
_C, _CC, _D2 = DOMAINS
PUBLISHED_N8_SIZES = {_C: 11117, _CC: 9888, _D2: 218}
PUBLISHED_N8 = {
    # Table 1, generalized invariant (SNF of M and of the complement's M)
    ("a", "gen-invariant", _C): 11079,
    ("l", "gen-invariant", _C): 886,
    ("q", "gen-invariant", _C): 1000,
    ("d", "gen-invariant", _CC): 7467,
    ("dl", "gen-invariant", _CC): 45,
    ("dq", "gen-invariant", _CC): 18,
    ("atrs", "gen-invariant", _CC): 32,
    ("atrs+", "gen-invariant", _CC): 36,
    ("ddeg", "gen-invariant", _CC): 48,
    ("ddeg+", "gen-invariant", _CC): 500,
    # Table 2, generalized spectral
    ("a", "gen-spectral", _C): 1042,
    ("l", "gen-spectral", _C): 1611,
    ("q", "gen-spectral", _C): 998,
    ("d", "gen-spectral", _CC): 48,
    ("dl", "gen-spectral", _CC): 105,
    ("dq", "gen-spectral", _CC): 86,
    ("atrs", "gen-spectral", _CC): 56,
    ("atrs+", "gen-spectral", _CC): 105,
    ("ddeg", "gen-spectral", _CC): 76,
    ("ddeg+", "gen-spectral", _CC): 413,
    # Table 3, diameter-2 pairs
    ("a", "gen-spectral", _D2): 0,
    ("l", "gen-spectral", _D2): 23,
    ("q", "gen-spectral", _D2): 2,
    ("a", "gen-invariant", _D2): 163,
    ("l", "gen-invariant", _D2): 9,
    ("q", "gen-invariant", _D2): 0,
    # Table 4, diameter-2 pairs
    ("d", "gen-invariant", _D2): 126,
    ("dl", "gen-invariant", _D2): 9,
    ("dq", "gen-invariant", _D2): 0,
    ("ddeg", "gen-invariant", _D2): 0,
    ("ddeg+", "gen-invariant", _D2): 110,
    ("atrs", "gen-invariant", _D2): 0,
    ("atrs+", "gen-invariant", _D2): 8,
}
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)  # n = 1..8


def task_label(task):
    """(kind, flavor, domain) tokens of a cospec CensusTask."""
    return (task.kind.value, task.flavor.value, task.domain.value)


def paper_tasks(n):
    """The distinct census tasks of every published Table 1-4 cell at n,
    in expected_tables() order."""
    from cospec.census import CensusTask, expected_tables

    tasks = []
    for cell in expected_tables():
        if cell.n == n and cell.row != "domain-size":
            task = CensusTask(cell.kind, cell.flavor, cell.domain)
            if task not in tasks:
                tasks.append(task)
    return tasks


# ---------------------------------------------------------------------------
# graph6 short form: header byte n + 63, then the upper triangle in
# column-major pair order (0,1),(0,2),(1,2),(0,3),... in 6-bit groups + 63.


def write_g6(n, rows):
    bits = [(rows[u] >> v) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k : k + 6]:
            group = (group << 1) | b
        out.append(chr(group + 63))
    return "".join(out)


def parse_g6(line):
    n = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        group = ord(ch) - 63
        bits.extend((group >> t) & 1 for t in range(5, -1, -1))
    rows = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return n, rows


def complement_rows(n, rows):
    full = (1 << n) - 1
    return [full ^ r ^ (1 << v) for v, r in enumerate(rows)]


def relabel(n, rows, perm):
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * n
    for u in range(n):
        r = rows[u]
        for v in range(n):
            if (r >> v) & 1:
                out[perm[u]] |= 1 << perm[v]
    return out


def bfs_distances(n, rows):
    """Hop-count matrix with -1 for unreachable pairs."""
    dist = []
    for s in range(n):
        d = [-1] * n
        d[s] = 0
        queue = [s]
        for u in queue:
            for v in range(n):
                if (rows[u] >> v) & 1 and d[v] < 0:
                    d[v] = d[u] + 1
                    queue.append(v)
        dist.append(d)
    return dist


def _diameter(n, rows):
    """Diameter, or None when disconnected."""
    dist = bfs_distances(n, rows)
    if any(d < 0 for row in dist for d in row):
        return None
    return max(max(row) for row in dist)


def domains_of(n, rows):
    """Census domains (tokens of DOMAINS) that hold the graph."""
    diam = _diameter(n, rows)
    if diam is None:
        return ()
    cdiam = _diameter(n, complement_rows(n, rows))
    if cdiam is None:
        return DOMAINS[:1]
    if diam == 2 and cdiam == 2:
        return DOMAINS
    return DOMAINS[:2]


# ---------------------------------------------------------------------------
# the stream-n10 input


STREAM_N = 10
COPY_RATE = 0.1


def stream_graphs(seed, count):
    """Seeded G(STREAM_N, 1/2) graphs; about COPY_RATE of them are a random
    relabelling of an earlier one.

    Returns (list of rows, list of group ids): graphs that share a group id
    are isomorphic by construction.
    """
    n = STREAM_N
    rng = random.Random(f"stream-{seed}")
    graphs, groups = [], []
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    for i in range(count):
        if i and rng.random() < COPY_RATE:
            j = rng.randrange(i)
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(relabel(n, graphs[j], perm))
            groups.append(groups[j])
            continue
        rows = [0] * n
        for u, v in pairs:
            if rng.getrandbits(1):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        graphs.append(rows)
        groups.append(i)
    return graphs, groups


def mate_lower_bounds(n, graphs, groups):
    """Domain sizes by the BFS oracle, and per domain the number of
    in-domain graphs whose copy group has at least two members: every task
    must find at least these mates, since isomorphic graphs share every
    fingerprint."""
    sizes = dict.fromkeys(DOMAINS, 0)
    members = {d: {} for d in DOMAINS}
    for rows, group in zip(graphs, groups):
        for d in domains_of(n, rows):
            sizes[d] += 1
            members[d][group] = members[d].get(group, 0) + 1
    bounds = {d: sum(c for c in members[d].values() if c >= 2) for d in DOMAINS}
    return sizes, bounds


# ---------------------------------------------------------------------------
# the stored n = 8 input and its reference partition


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_reference():
    """The stored reference: input digests, per-line domain codes and the
    non-singleton fingerprint classes of every n = 8 paper task."""
    ref = json.loads(REFERENCE_FILE.read_text())
    ref["classes"] = {tuple(k.split(";")): v for k, v in ref["classes"].items()}
    return ref


def n8_lines():
    return N8_FILE.read_text(encoding="ascii").split()


def class_ids(ref, count):
    """Per task, a list mapping line index -> class id (0 = singleton)."""
    out = {}
    for label, classes in ref["classes"].items():
        ids = [0] * count
        for cid, members in enumerate(classes, start=1):
            for i in members:
                ids[i] = cid
        out[label] = ids
    return out


def expected_subset(ref, ids, subset):
    """Expected (domain sizes, {task: (with_mate, distinct keys)}) for a
    sweep over the stored lines with the given indices."""
    codes = ref["domains"]
    sizes = {d: sum(1 for i in subset if int(codes[i]) >= k) for k, d in enumerate(DOMAINS)}
    rows = {}
    for label, per_line in ids.items():
        level = DOMAINS.index(label[2])
        counts = {}
        singles = 0
        for i in subset:
            if int(codes[i]) < level:
                continue
            cid = per_line[i]
            if cid:
                counts[cid] = counts.get(cid, 0) + 1
            else:
                singles += 1
        with_mate = sum(c for c in counts.values() if c >= 2)
        rows[label] = (with_mate, singles + len(counts))
    return sizes, rows
