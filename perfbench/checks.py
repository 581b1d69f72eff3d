"""Correctness checks of the benchmark, computed apart from the program.

Nothing here imports ``repro``: every check compares the program's TSV
output with properties the method must have or with values the benchmark
computes itself (an exact k-mer index, the generator's family labels).
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from collections import defaultdict

HEADER = "#id_a\tid_b\tweight"


def read_fasta_ids(path: str) -> tuple[list[str], list[str]]:
    """``(ids, sequences)`` of a plain FASTA file the generator wrote."""
    ids: list[str] = []
    seqs: list[list[str]] = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                ids.append(line[1:].split()[0])
                seqs.append([])
            elif line:
                seqs[-1].append(line)
    return ids, ["".join(s) for s in seqs]


def read_labels(path: str) -> dict[str, str]:
    with open(path, encoding="ascii") as fh:
        return dict(line.rstrip("\n").split("\t") for line in fh)


def parse_tsv(text: str) -> tuple[list[tuple[str, str, float]], list[str]]:
    """Edges of a ``repro`` TSV edge list, plus any format problems."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        return [], [f"missing header {HEADER!r}"]
    edges, problems = [], []
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 3:
            problems.append(f"line {n}: {len(fields)} fields")
            continue
        try:
            w = float(fields[2])
        except ValueError:
            problems.append(f"line {n}: weight {fields[2]!r}")
            continue
        edges.append((fields[0], fields[1], w))
    return edges, problems


def check_edges(edges, ids, ani: bool) -> list[str]:
    """No self-edge, no duplicate unordered pair, no unknown id; every
    weight finite and above 0, and in [0.30, 1] for ANI weights."""
    known = set(ids)
    seen: set[tuple[str, str]] = set()
    problems = []
    for a, b, w in edges:
        if a == b:
            problems.append(f"self-edge {a}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            problems.append(f"duplicate pair {key}")
        seen.add(key)
        for x in (a, b):
            if x not in known:
                problems.append(f"unknown id {x!r}")
        if not math.isfinite(w) or w <= 0:
            problems.append(f"weight {w} of {key} not finite and > 0")
        elif ani and not 0.30 <= w <= 1.0:
            problems.append(f"ANI weight {w} of {key} outside [0.30, 1]")
    return problems


def shared_kmer_pairs(ids, seqs, k: int) -> set[tuple[str, str]]:
    """Unordered id pairs sharing at least one exact k-mer, from a plain
    dictionary index of every k-mer occurrence."""
    index: dict[str, set[int]] = defaultdict(set)
    for i, s in enumerate(seqs):
        for p in range(len(s) - k + 1):
            index[s[p:p + k]].add(i)
    pairs: set[tuple[str, str]] = set()
    for holders in index.values():
        if len(holders) > 1:
            h = sorted(holders)
            for x in range(len(h)):
                for y in range(x + 1, len(h)):
                    a, b = ids[h[x]], ids[h[y]]
                    pairs.add((a, b) if a < b else (b, a))
    return pairs


def check_exact_sharing(edges, shared: set[tuple[str, str]]) -> list[str]:
    """On exact-k-mer workloads every edge must join sequences that share
    an exact k-mer."""
    problems = []
    for a, b, _ in edges:
        key = (a, b) if a < b else (b, a)
        if key not in shared:
            problems.append(f"edge {key} shares no exact k-mer")
    return problems


def true_pairs(labels: dict[str, str]) -> set[tuple[str, str]]:
    """Same-family unordered pairs of the generator's labels."""
    families: dict[str, list[str]] = defaultdict(list)
    for ident, fam in labels.items():
        if fam != "-":
            families[fam].append(ident)
    pairs = set()
    for members in families.values():
        members.sort()
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                pairs.add((members[x], members[y]))
    return pairs


def recall_precision(edges, truth: set[tuple[str, str]]) -> tuple[float, float]:
    found = {(a, b) if a < b else (b, a) for a, b, _ in edges}
    hits = len(found & truth)
    recall = hits / len(truth) if truth else 1.0
    precision = hits / len(found) if found else 0.0
    return recall, precision


def check_recall(recall: float, floor: float) -> list[str]:
    if recall < floor:
        return [f"recall {recall:.4f} below floor {floor}"]
    return []


def check_identical(got: bytes, reference: bytes, what: str) -> list[str]:
    if got != reference:
        return [f"{what}: TSV differs from the reference"]
    return []
