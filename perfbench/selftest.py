"""Tests of the benchmark's own checks: each must reject a seeded
corruption of a real program output.

Run with ``python3 perfbench/selftest.py`` or
``python3 -m pytest perfbench/selftest.py`` from the repository root.
The real outputs come from ``repro.cli.main`` on the toy-size input of the
``singletons_sw_p4`` workload, on 4 ranks and on 1.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from checks import (  # noqa: E402
    check_edges,
    check_exact_sharing,
    check_identical,
    check_recall,
    parse_tsv,
    read_fasta_ids,
    read_labels,
    recall_precision,
    shared_kmer_pairs,
    true_pairs,
)
from gen import generate, write_input  # noqa: E402
from workloads import K, WORKLOADS  # noqa: E402

W = WORKLOADS["singletons_sw_p4"]


def _workdir() -> str:
    """A scratch directory inside the checkout, removed at exit."""
    parent = os.path.join(os.path.dirname(BENCH), ".perfbench_run")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=parent)
    atexit.register(shutil.rmtree, path, True)
    return path


@functools.cache
def real_run() -> dict:
    """Generate the toy input and run the program on it, 4 ranks and 1."""
    from repro.cli import main

    work = _workdir()
    fasta, labels = write_input(W.smoke, 3, work)
    out4, out1 = os.path.join(work, "p4.tsv"), os.path.join(work, "p1.tsv")
    assert main([fasta, "-o", out4, "--quiet", *W.args]) == 0
    assert main([fasta, "-o", out1, "--quiet", *W.reference_args]) == 0
    ids, seqs = read_fasta_ids(fasta)
    with open(out4, "rb") as fh:
        p4 = fh.read()
    with open(out1, "rb") as fh:
        p1 = fh.read()
    edges, problems = parse_tsv(p4.decode())
    assert not problems and edges
    return {"ids": ids, "seqs": seqs, "edges": edges, "p4": p4, "p1": p1,
            "labels": read_labels(labels)}


def _edges():
    return list(real_run()["edges"])


def test_real_output_passes_every_check():
    r = real_run()
    assert check_edges(r["edges"], r["ids"], ani=False) == []
    shared = shared_kmer_pairs(r["ids"], r["seqs"], K)
    assert check_exact_sharing(r["edges"], shared) == []
    assert check_identical(r["p4"], r["p1"], "4-rank vs 1-rank") == []
    recall, _ = recall_precision(r["edges"], true_pairs(r["labels"]))
    assert recall > 0.5 and check_recall(recall, 0.5) == []


def test_self_edge_is_rejected():
    edges = _edges()
    a = edges[0][0]
    edges.append((a, a, 1.0))
    assert any("self-edge" in p
               for p in check_edges(edges, real_run()["ids"], ani=False))


def test_duplicated_unordered_pair_is_rejected():
    edges = _edges()
    a, b, w = edges[0]
    edges.append((b, a, w))
    assert any("duplicate" in p
               for p in check_edges(edges, real_run()["ids"], ani=False))


def test_unknown_id_is_rejected():
    edges = _edges()
    edges.append((edges[0][0], "no_such_seq", 1.0))
    assert any("unknown id" in p
               for p in check_edges(edges, real_run()["ids"], ani=False))


def test_bad_weights_are_rejected():
    r = real_run()
    a, b, _ = r["edges"][0]
    for w in (0.0, -1.0, math.nan, math.inf):
        assert check_edges([(a, b, w)], r["ids"], ani=False)
    assert check_edges([(a, b, 0.2)], r["ids"], ani=True)
    assert check_edges([(a, b, 0.5)], r["ids"], ani=True) == []


def test_edge_without_shared_kmer_is_rejected():
    r = real_run()
    shared = shared_kmer_pairs(r["ids"], r["seqs"], K)
    ids = r["ids"]
    stranger = next((a, b) for a in ids for b in ids
                    if a < b and (a, b) not in shared)
    edges = _edges() + [(*stranger, 1.0)]
    assert check_edges(edges, ids, ani=False) == []
    assert check_exact_sharing(edges, shared) == [
        f"edge {stranger} shares no exact k-mer"]


def test_rank_count_mismatch_is_rejected():
    r = real_run()
    lines = r["p4"].decode().splitlines(keepends=True)
    a, b, w = lines[1].rstrip("\n").split("\t")
    lines[1] = f"{a}\t{b}\t{float(w) + 1e-6:.6f}\n"
    corrupted = "".join(lines).encode()
    assert check_identical(corrupted, r["p1"], "4-rank vs 1-rank")


def test_recall_below_floor_is_rejected():
    r = real_run()
    truth = true_pairs(r["labels"])
    edges = [e for e in _edges()
             if (min(e[:2]), max(e[:2])) not in truth]
    edges += [e for e in _edges()
              if (min(e[:2]), max(e[:2])) in truth][: len(truth) // 2]
    recall, _ = recall_precision(edges, truth)
    assert recall < W.recall_floor
    assert check_recall(recall, W.recall_floor)


def test_missing_wrapped_name_leaves_metric_absent():
    """A refactor that renames a wrapped function must not break the run:
    hide one (this exact-k-mer input never calls it) and trace."""
    import repro.core.overlap as overlap
    from repro.cli import main
    from worker import Tracer

    hidden = overlap.substitute_kmer_ids
    del overlap.substitute_kmer_ids
    tracer = Tracer()
    try:
        tracer.install_all()
        work = _workdir()
        fasta, _ = write_input(W.smoke, 3, work)
        out = os.path.join(work, "traced.tsv")
        assert main([fasta, "-o", out, "--quiet", *W.args]) == 0
    finally:
        tracer.uninstall()
        overlap.substitute_kmer_ids = hidden
    metrics = tracer.metrics()
    assert "kmers.substitute_calls" not in metrics
    assert metrics["sparse.summa_calls"] == 4
    assert metrics["comm.messages"] > 0
    with open(out, "rb") as fh:
        assert fh.read() == real_run()["p4"]


def test_generator_is_seeded_and_independent_of_the_program():
    spec = WORKLOADS["families_xd_s0"].smoke
    assert generate(spec, 5) == generate(spec, 5)
    assert generate(spec, 5)[1] != generate(spec, 6)[1]
    with open(os.path.join(BENCH, "gen.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert "import repro" not in source and "from repro" not in source


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
