"""End-to-end benchmark of the PASTIS reproduction: FASTA in, TSV graph out.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload families_xd_s0 --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # every workload at toy size

One run generates the workload's input from ``--seed``, measures the
import of ``repro.cli`` in fresh interpreters, then hands the timed
``repro.cli.main`` calls to ``worker.py`` in a fresh process with
``REPRO_KERNEL``, ``REPRO_COMM_BACKEND`` and ``REPRO_COMM_SANITIZE``
removed from its environment.  Every output is checked (see
``checks.py``).  The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of one
separate traced call with ``--trace 1``.  A fixed pure-Python loop
(``host.ref_s``) is timed before and after the workload to show how busy
the host was.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import (
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
from gen import write_input
from workloads import FAULT_FASTA, FAULT_IDS, FAULT_OFFENDERS, K, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")

#: A run must end well inside 180 s, set-up and checks included.  The
#: clock starts after one untimed import of the program, which fills the
#: byte-code cache (and, on a cold machine, the file cache) and may take
#: up to FIRST_IMPORT_S the first time a checkout is run.
DEADLINE_S = 165.0
FIRST_IMPORT_S = 700.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")
SETUP_PROBES = 7
HOST_REF_REPS = 3


class BenchError(RuntimeError):
    """The run could not be measured (no program, crash, time-out)."""


def clean_env() -> dict[str, str]:
    """The measured program's environment: the default configuration,
    this checkout's ``src`` and a byte-code cache kept out of the tree."""
    drop = {"REPRO_KERNEL", "REPRO_COMM_BACKEND", "REPRO_COMM_SANITIZE",
            "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"))
    return env


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order one section of ``BENCHMARK.json``
    (``end_to_end`` or ``per_layer``) lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def host_ref() -> float:
    """Seconds of a fixed pure-Python loop that imports nothing."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def _child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before starting a process")
    try:
        proc = subprocess.run(argv, env=clean_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{argv[1]} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-800:]}")
    return proc


def setup_probes(deadline: float) -> list[float]:
    """``import repro.cli`` timed in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = _child([sys.executable, "-c", IMPORT_PROBE], deadline)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def check_outputs(w, smoke: bool, work: str, fasta: str, labels: str,
                  res: dict, trace: bool) -> tuple[list[str], float, float]:
    """Every correctness check of one run: ``(problems, recall,
    precision)``."""
    ids, seqs = read_fasta_ids(fasta)
    out = os.path.join(work, "out.tsv")
    with open(out, "rb") as fh:
        data = fh.read()
    edges, problems = parse_tsv(data.decode("utf-8"))
    problems += check_edges(edges, ids, w.ani)
    if res["warm_hash"] is None or any(
            h != res["warm_hash"] for h in res["hashes"]):
        problems.append("timed calls gave different TSV bytes")
    if w.exact:
        shared = shared_kmer_pairs(ids, seqs, K)
        problems += check_exact_sharing(edges, shared)
        count = res.get("trace", {}).get("overlap.candidate_pairs")
        if count is not None and count != len(shared):
            problems.append(f"program found {count} candidate pairs, the "
                            f"exact {K}-mer index {len(shared)}")
    recall, precision = recall_precision(edges, true_pairs(read_labels(labels)))
    problems += check_recall(recall, 0.0 if smoke else w.recall_floor)
    for wanted, rc_key, name, what in (
            (bool(w.reference_args), "reference_rc", "reference.tsv",
             "4-rank vs 1-rank output"),
            (trace, "trace_rc", "traced.tsv", "traced output")):
        if not wanted:
            continue
        if res.get(rc_key) != 0:
            problems.append(f"{what}: call exited {res.get(rc_key)}")
            continue
        with open(os.path.join(work, name), "rb") as fh:
            problems += check_identical(data, fh.read(), what)
    return problems, recall, precision


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """One run of one workload; returns the result object."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"no program to measure: {SRC}/repro/cli.py "
                         "is missing")
    _child([sys.executable, "-c", IMPORT_PROBE],
           time.monotonic() + FIRST_IMPORT_S)
    deadline = time.monotonic() + DEADLINE_S
    w = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    try:
        fasta, labels = write_input(w.smoke if smoke else w.spec, seed, work)
        refs = [host_ref() for _ in range(HOST_REF_REPS)]
        probes = setup_probes(deadline)
        job = {
            "fasta": fasta, "out": os.path.join(work, "out.tsv"),
            "args": list(w.args), "ani": w.ani, "seconds": seconds,
            "trace": trace, "trace_out": os.path.join(work, "traced.tsv"),
            "reference_args": list(w.reference_args or ()),
            "reference_out": os.path.join(work, "reference.tsv"),
            "fault": None,
        }
        if w.fault_op:
            fault_fasta = os.path.join(work, "fault.fa")
            with open(fault_fasta, "w", encoding="ascii", newline="") as fh:
                fh.write(FAULT_FASTA)
            job["fault"] = {"fasta": fault_fasta,
                            "out": os.path.join(work, "fault.tsv"),
                            "ids": list(FAULT_IDS),
                            "offenders": list(FAULT_OFFENDERS)}
        job_path = os.path.join(work, "job.json")
        result_path = os.path.join(work, "result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        _child([sys.executable, os.path.join(BENCH, "worker.py"), job_path,
                result_path], deadline)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        refs += [host_ref() for _ in range(HOST_REF_REPS)]
        if not res["times"]:
            raise BenchError(f"no timed call succeeded: {res['errors']}")
        problems, recall, precision = check_outputs(
            w, smoke, work, fasta, labels, res, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(res["times"])
    info = {
        "workload": name, "seed": seed, "timed_calls": len(res["times"]),
        "host_ref_before_s": statistics.median(refs[:HOST_REF_REPS]),
        "host_ref_after_s": statistics.median(refs[HOST_REF_REPS:]),
        "errors": res["errors"], "problems": problems[:10],
    }
    if trace:
        metrics = dict(res["trace"])
        metrics["host.ref_s"] = statistics.median(refs)
        info["traced_wall_s"] = res["traced_wall_s"]
        info["tracing_overhead_s"] = res["traced_wall_s"] - wall
        units = metric_units("per_layer")
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(probes),
            "peak_rss_mb": res["peak_rss_mb"],
            "recall": recall,
            "precision": precision,
        }
        units = metric_units("end_to_end")
    return {
        "info": info,
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in units.items() if k in metrics},
    }


def report(result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    info = result["info"]
    print(f"workload {info['workload']} seed {info['seed']}: "
          f"{info['timed_calls']} timed calls, attempted "
          f"{result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(f"  host.ref_s before {info['host_ref_before_s']:.4f} s, "
          f"after {info['host_ref_after_s']:.4f} s")
    if "traced_wall_s" in info:
        print(f"  traced call {info['traced_wall_s']:.4f} s, tracing "
              f"overhead {info['tracing_overhead_s']:+.4f} s over the "
              "untraced median")
    for line in info["errors"]:
        print(f"  failed operation: {line}")
    for line in info["problems"]:
        print(f"  CHECK FAILED: {line}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="End-to-end benchmark: "
                                "FASTA in, similarity graph out")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload (or --workload) at toy size, "
                   "traced, for a moment each")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            names = [args.workload] if args.workload else list(WORKLOADS)
            ok = True
            for name in names:
                result = run_workload(name, args.seed, 0.2, True, smoke=True)
                report(result)
                ok &= result["correct"]
            return 0 if ok else 1
        if args.workload is None:
            p.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
