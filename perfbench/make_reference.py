"""Regenerate the stored n = 8 input and its reference partition.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes data/n8.g6 (the bundled generator's n = 8 output) and
data/n8_reference.json: the sha256 of the n = 7 and n = 8 generator
outputs, one domain code per n = 8 line (0 connected, 1 also a connected
complement, 2 also a diameter-2 pair, by the benchmark's own BFS) and, for
each n = 8 paper task, the fingerprint classes with two or more members as
lists of line indices. Fingerprints come from cospec.fingerprint, which
computes every block afresh rather than through the census sweep. Nothing
is written unless every published n = 8 cell and domain size is
reproduced. Takes a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import sys

from inputs import (
    DOMAINS,
    N8_FILE,
    PUBLISHED_N8,
    PUBLISHED_N8_SIZES,
    REFERENCE_FILE,
    domains_of,
    paper_tasks,
    parse_g6,
    task_label,
)


def main():
    from cospec import fingerprint, parse_graph6
    from cospec.graphs import connected_graph6_lines

    text7 = "\n".join(connected_graph6_lines(7)) + "\n"
    lines = connected_graph6_lines(8)
    text8 = "\n".join(lines) + "\n"
    tasks = paper_tasks(8)
    codes = []
    keys = {task_label(t): {} for t in tasks}
    for i, line in enumerate(lines):
        held = domains_of(*parse_g6(line))
        codes.append(str(len(held) - 1))
        g = parse_graph6(line)
        for task in tasks:
            if task.domain.value in held:
                key = fingerprint(g, task.kind, task.flavor)
                keys[task_label(task)].setdefault(key, []).append(i)
    sizes = {d: sum(1 for c in codes if int(c) >= k) for k, d in enumerate(DOMAINS)}
    classes = {}
    bad = [f"size {d}: {sizes[d]} != {v}" for d, v in PUBLISHED_N8_SIZES.items() if sizes[d] != v]
    for label, buckets in keys.items():
        mates = sorted(m for m in buckets.values() if len(m) >= 2)
        if sum(map(len, mates)) != PUBLISHED_N8[label]:
            bad.append(f"{label}: {sum(map(len, mates))} != {PUBLISHED_N8[label]}")
        classes[";".join(label)] = mates
    if bad or set(keys) != set(PUBLISHED_N8):
        sys.exit("reference disagrees with the published cells: " + "; ".join(bad))
    N8_FILE.write_text(text8, encoding="ascii")
    REFERENCE_FILE.write_text(
        json.dumps(
            {
                "n7_sha256": hashlib.sha256(text7.encode("ascii")).hexdigest(),
                "n8_sha256": hashlib.sha256(text8.encode("ascii")).hexdigest(),
                "domains": "".join(codes),
                "classes": classes,
            },
            separators=(",", ":"),
        )
        + "\n"
    )


if __name__ == "__main__":
    main()
