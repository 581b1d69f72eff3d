"""The benchmark's workloads: input make-up, CLI flags and checks.

Shared by the generator, the worker and run.py; imports nothing from
``repro``.  Each workload isolates one hot layer (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Spec


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``args`` are the ``repro.cli`` flags after ``FASTA -o TSV``.
    ``recall_floor`` is the least share of same-family pairs that must come
    out as edges; ``ani`` says the edge weights are identities (the
    30 %/70 % filter applies); ``exact`` says candidates come from exact
    k-mers only, so every edge shares an exact k-mer; ``reference_args``,
    when set, reruns the same FASTA with these flags once outside the timed
    calls and requires byte-identical TSV output.  ``fault_op`` adds the
    malformed-FASTA operation to every round.
    """

    name: str
    why: str
    spec: Spec
    smoke: Spec
    args: tuple[str, ...]
    recall_floor: float
    ani: bool
    exact: bool
    reference_args: tuple[str, ...] | None = None
    fault_op: bool = False


K = 6

#: A small FASTA with features real files have: lowercase residues, CRLF
#: line endings, a selenocysteine ``U``, a pyrrolysine ``O`` and an empty
#: record.  It does not depend on the seed.
FAULT_FASTA = (
    ">lower1 lowercase residues\r\n"
    "mkvlaagiwwlstrelkvlqeaghnpsdlwrmkvlaagiwwlst\r\n"
    ">seleno1 selenoprotein\r\n"
    "MSDKIHLGRAVUGLKEFTRQWHSPLLANDCVVAGIKEPHVMSDKIHLG\r\n"
    ">pyrro1 pyrrolysine protein\r\n"
    "MTKLEEAQRLGOVSGWYNPLEDKIAHTFMPCSRLETKLEEAQRLGQ\r\n"
    ">empty1 empty record\r\n"
    ">upper1 plain record\r\n"
    "MKVLAAGIWWLSTRELKVLQEAGHNPSDLWRMKVLAAGIWWLSTRE\r\n"
)
FAULT_IDS = ("lower1", "seleno1", "pyrro1", "empty1", "upper1")
FAULT_OFFENDERS = ("seleno1", "pyrro1", "empty1")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="families_xd_s0",
            why="x-drop alignment of long family members is ~99% of the "
                "time; exact k-mers, so substitute search never runs",
            spec=Spec(superfamilies=20, families_per_super=1, members=4,
                      singletons=6, length_range=(100, 1000),
                      divergence=0.18),
            smoke=Spec(superfamilies=3, families_per_super=1, members=3,
                       singletons=2, length_range=(100, 200),
                       divergence=0.18),
            args=(),
            recall_floor=0.90,
            ani=True,
            exact=True,
            fault_op=True,
        ),
        Workload(
            name="superfam_xd_s25_ck3",
            why="substitute k-mer search (form S) dominates; the only "
                "workload where related families make false edges possible",
            spec=Spec(superfamilies=4, families_per_super=2, members=5,
                      singletons=0, length_range=(70, 130),
                      divergence=0.18, super_divergence=0.45),
            smoke=Spec(superfamilies=1, families_per_super=2, members=3,
                       singletons=0, length_range=(80, 80),
                       divergence=0.18, super_divergence=0.45),
            args=("--substitutes", "25", "--ck", "3"),
            recall_floor=0.85,
            ani=True,
            exact=False,
        ),
        Workload(
            name="singletons_sw_p4",
            why="4 simulated ranks: the only workload through SUMMA, the "
                "sequence exchange and rank imbalance; score-only SW",
            spec=Spec(superfamilies=150, families_per_super=1, members=3,
                      singletons=1050, length_range=(50, 300),
                      divergence=0.18),
            smoke=Spec(superfamilies=4, families_per_super=1, members=3,
                       singletons=20, length_range=(50, 80),
                       divergence=0.18),
            args=("--ranks", "4", "--align", "sw", "--weight", "ns",
                  "--ck", "1"),
            recall_floor=0.85,
            ani=False,
            exact=True,
            reference_args=("--ranks", "1", "--align", "sw", "--weight",
                            "ns", "--ck", "1"),
        ),
    )
}
