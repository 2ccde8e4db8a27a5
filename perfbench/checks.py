"""Output checks. Each returns a list of (check name, passed) pairs, so a
run can count checks made and failed.

A sweep result is summarised as (sizes, rows): sizes maps a domain token to
its size, rows maps a task label (kind, flavor, domain) to the pair
(with_mate, distinct keys).
"""

from __future__ import annotations

import hashlib

from inputs import CONNECTED_COUNTS, DOMAINS, PUBLISHED_N8, PUBLISHED_N8_SIZES


def check_levels(levels, n7_sha256):
    """Generator output per level n -> tuple of lines: the known connected
    counts, strictly sorted lines, and the recorded digest of level 7."""
    out = []
    for n, lines in sorted(levels.items()):
        out.append((f"count n={n}", len(lines) == CONNECTED_COUNTS[n - 1]))
        out.append((f"sorted n={n}", all(a < b for a, b in zip(lines, lines[1:]))))
    text = "\n".join(levels.get(7, ())) + "\n"
    out.append(("sha256 n=7", hashlib.sha256(text.encode("ascii")).hexdigest() == n7_sha256))
    return out


def check_canonical(pairs):
    """(stored n = 8 line, canonical key of a relabelled copy) pairs: the
    key must give back the stored line, which ties the stored input to the
    generator's canonical form."""
    return [(f"canonical {line}", key == line.encode("ascii")) for line, key in pairs]


def check_stored_input(lines, sha256, ref):
    ok_sorted = all(a < b for a, b in zip(lines, lines[1:]))
    return [
        ("n8 input sha256", sha256 == ref["n8_sha256"]),
        ("n8 input count", len(lines) == CONNECTED_COUNTS[7] == len(ref["domains"])),
        ("n8 input sorted", ok_sorted),
    ]


def check_reference(ref, labels):
    """The stored partition reproduces every published n = 8 cell, and the
    library's task list is exactly the published one."""
    codes = ref["domains"]
    out = [("n8 task list", sorted(labels) == sorted(PUBLISHED_N8))]
    for k, d in enumerate(DOMAINS):
        size = sum(1 for c in codes if int(c) >= k)
        out.append((f"reference size {d}", size == PUBLISHED_N8_SIZES[d]))
    for label, value in PUBLISHED_N8.items():
        got = sum(len(c) for c in ref["classes"].get(label, ()))
        out.append((f"reference {';'.join(label)}", got == value))
    return out


def check_rows(sizes, rows, want_sizes, want_rows):
    """Exact agreement of a sweep with expected domain sizes and rows."""
    out = [(f"size {d}", sizes.get(d) == want_sizes[d]) for d in DOMAINS]
    for label, want in want_rows.items():
        out.append((f"row {';'.join(label)}", rows.get(label) == want))
    return out


def check_stream(sizes, rows, oracle_sizes, bounds):
    """Domain sizes equal the BFS oracle's and every task finds at least
    the mates planted as relabelled copies."""
    out = [(f"size {d}", sizes.get(d) == oracle_sizes[d]) for d in DOMAINS]
    for label, (with_mate, _) in rows.items():
        out.append((f"mates {';'.join(label)}", bounds[label[2]] <= with_mate <= sizes[label[2]]))
    return out
