"""One workload's measured process: imports ``repro.cli`` and calls it.

Started by ``run.py`` in a fresh interpreter with a cleaned environment;
reads its job from a JSON file and writes its measurements to another.
Set-up time is measured by ``run.py`` in fresh interpreters, not here.

Steps: move to one core; one untimed warm-up call; whole rounds of timed
``repro.cli.main`` calls (plus the malformed-FASTA operation where the job
has one) until the run length is reached; peak RSS; the optional
reference call; and, with tracing on, one separate traced call whose
per-layer figures come from wrappers installed around the public
functions at the bindings their callers use.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _call(main, argv: list[str]) -> tuple[int | None, str]:
    """Run ``main(argv)`` with its output captured: ``(exit code, text)``;
    the code is ``None`` when it raised."""
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(text):
            rc = main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # the operation failed; the run goes on
        return None, f"{type(e).__name__}: {e}"
    return (0 if rc is None else rc), text.getvalue()


def fault_op(main, job: dict) -> tuple[bool, str]:
    """The malformed-FASTA operation.  It succeeds once ``main`` returns:
    exit 0 with a clean edge list, or another code with a message that
    names an offending record."""
    from checks import check_edges, parse_tsv

    fault = job["fault"]
    with contextlib.suppress(FileNotFoundError):
        os.remove(fault["out"])
    rc, text = _call(main, [fault["fasta"], "-o", fault["out"], "--quiet",
                            *job["args"]])
    if rc is None:
        return False, text
    if rc == 0:
        with open(fault["out"], encoding="utf-8") as fh:
            edges, problems = parse_tsv(fh.read())
        problems += check_edges(edges, fault["ids"], ani=job["ani"])
        return not problems, "; ".join(problems[:3])
    if any(name in text for name in fault["offenders"]):
        return True, ""
    return False, f"exit {rc} without naming the offending record: " \
        f"{text.strip()[:200]!r}"


class Tracer:
    """Per-layer spans and counts from wrappers around public functions.

    Each wrapper replaces one module attribute for the traced call only.
    A name the program no longer has is skipped, and the metrics it feeds
    are left out of the result instead of failing the run.  Times are CPU
    seconds of the calling thread, so the simulated ranks (threads under
    one interpreter lock) are not counted twice.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sums: dict[str, float] = defaultdict(int)
        self.installed: set[str] = set()
        self.graph = None
        self.distributed = False
        self.comm = None
        self._restore: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.sums[name] += value

    def install(self, module: str, attr: str, metric: str, make) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return
        fn = getattr(mod, attr, None)
        if not callable(fn):
            return
        setattr(mod, attr, make(fn))
        self._restore.append((mod, attr, fn))
        self.installed.add(metric)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    # -- wrapper factories ------------------------------------------------

    def timed(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.thread_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(name, time.thread_time() - t0)
            return wrapper
        return make

    def counted(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.add(name, 1)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def aligned(self, fn):
        def wrapper(tasks, *args, **kwargs):
            tasks = list(tasks)
            area = sum(len(t.a) * len(t.b) for t in tasks)
            t0 = time.thread_time()
            try:
                return fn(tasks, *args, **kwargs)
            finally:
                self.add("align.s", time.thread_time() - t0)
                self.add("align.pairs", len(tasks))
                self.add("align.dp_area", area)
        return wrapper

    def pipeline(self, distributed: bool):
        def make(fn):
            takes_tracer = (distributed and "tracer"
                            in inspect.signature(fn).parameters)

            def wrapper(*args, **kwargs):
                if takes_tracer and kwargs.get("tracer") is None:
                    from repro.mpisim.tracing import CommTracer

                    self.comm = kwargs["tracer"] = CommTracer()
                graph = fn(*args, **kwargs)
                self.graph, self.distributed = graph, distributed
                return graph
            return wrapper
        return make

    # -- the run -------------------------------------------------------------

    def install_all(self) -> None:
        timed = self.timed
        self.install("repro.cli", "read_fasta", "bio.read_fasta_s",
                     timed("bio.read_fasta_s"))
        self.install("repro.cli", "write_edges_tsv", "cli.write_edges_s",
                     timed("cli.write_edges_s"))
        for entry in ("find_candidate_pairs", "find_candidate_pairs_numeric",
                      "find_candidate_pairs_struct",
                      "find_candidate_pairs_semiring"):
            self.install("repro.core.pipeline", entry, "overlap.s",
                         timed("overlap.s"))
        for module in ("repro.core.overlap", "repro.core.distributed"):
            self.install(module, "build_s_triples", "overlap.form_s_s",
                         timed("overlap.form_s_s"))
        self.install("repro.core.overlap", "substitute_kmer_ids",
                     "kmers.substitute_calls",
                     self.counted("kmers.substitute_calls"))
        for module in ("repro.core.pipeline", "repro.core.distributed"):
            self.install(module, "align_batch", "align", self.aligned)
        self.install("repro.core.distributed", "summa", "sparse.summa_calls",
                     self.counted("sparse.summa_calls"))
        self.install("repro.cli", "pastis_pipeline", "graph",
                     self.pipeline(distributed=False))
        self.install("repro.cli", "run_pastis_distributed", "graph",
                     self.pipeline(distributed=True))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in ("bio.read_fasta_s", "cli.write_edges_s", "overlap.s",
                     "overlap.form_s_s", "kmers.substitute_calls",
                     "sparse.summa_calls"):
            if name in self.installed:
                out[name] = self.sums[name]
        if "align" in self.installed:
            for name in ("align.s", "align.pairs", "align.dp_area"):
                out[name] = self.sums[name]
            s = self.sums["align.s"]
            out["align.area_per_s"] = out["align.dp_area"] / s if s else 0.0
        meta = getattr(self.graph, "meta", None) or {}
        for name, key in (("overlap.candidate_pairs", "candidate_pairs"),
                          ("overlap.kept_pairs", "aligned_pairs")):
            if key in meta:
                out[name] = meta[key]
        out.update(self._rank_metrics(meta))
        if self.comm is not None:
            out["comm.messages"] = self.comm.total_messages
            out["comm.bytes"] = self.comm.total_bytes
        elif self.graph is not None and not self.distributed:
            out["comm.messages"] = out["comm.bytes"] = 0
        return out

    def _rank_metrics(self, meta: dict) -> dict[str, float]:
        names = ("dist.form_a_max_s", "dist.summa_max_s", "dist.wait_max_s",
                 "dist.align_max_s", "dist.align_imbalance")
        if self.graph is not None and not self.distributed:
            return dict.fromkeys(names, 0.0)  # no ranks on this path
        ranks = meta.get("rank_timings")
        if not ranks:
            return {}
        try:
            align = [r["align"] for r in ranks]
            return {
                "dist.form_a_max_s": max(r["form A"] for r in ranks),
                "dist.summa_max_s": max(r["AS"] + r["(AS)AT"] for r in ranks),
                "dist.wait_max_s": max(r["wait"] for r in ranks),
                "dist.align_max_s": max(align),
                "dist.align_imbalance": (max(align) * len(align) / sum(align)
                                         if sum(align) else 0.0),
            }
        except KeyError:
            return {}


def pin_to_one_core() -> None:
    """Keep this process, and the rank threads it starts, on one core.

    The simulated ranks are threads under one interpreter lock; on two
    cores they overlap only where NumPy drops the lock, so their wall time
    would mostly measure whether the host left the second core free.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(job: dict) -> dict:
    pin_to_one_core()
    from repro.cli import main

    out = job["out"]
    argv = [job["fasta"], "-o", out, "--quiet", *job["args"]]
    result: dict = {"times": [], "hashes": [],
                    "attempted": 0, "failed": 0, "errors": []}

    def fail(message: str) -> None:
        result["failed"] += 1
        if len(result["errors"]) < 3:
            result["errors"].append(message)

    rc, _ = _call(main, argv)  # warm-up: lazy set-up, file cache
    result["warm_hash"] = _digest(out) if rc == 0 else None
    start = time.perf_counter()
    while True:
        result["attempted"] += 1
        t0 = time.perf_counter()
        rc, text = _call(main, argv)
        elapsed = time.perf_counter() - t0
        if rc == 0:
            result["times"].append(elapsed)
            result["hashes"].append(_digest(out))
        else:
            fail(f"exit {rc}: {text.strip()[:300]}")
        if job["fault"]:
            result["attempted"] += 1
            ok, message = fault_op(main, job)
            if not ok:
                fail(message)
        if time.perf_counter() - start >= job["seconds"]:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = usage / 1024.0  # ru_maxrss is KiB on Linux

    if job["reference_args"]:
        rc, _ = _call(main, [job["fasta"], "-o", job["reference_out"],
                             "--quiet", *job["reference_args"]])
        result["reference_rc"] = rc
    if job["trace"]:
        tracer = Tracer()
        tracer.install_all()
        try:
            t0 = time.perf_counter()
            rc, _ = _call(main, [job["fasta"], "-o", job["trace_out"],
                                 "--quiet", *job["args"]])
            result["traced_wall_s"] = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        result["trace_rc"] = rc
        result["trace"] = tracer.metrics()
    return result


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
