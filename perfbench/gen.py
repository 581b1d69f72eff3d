"""Seeded protein input generator for the end-to-end benchmark.

Self-contained on purpose: it imports nothing from ``repro``, so a change
to the program can never change the workload it is measured on.  Members
of a family descend from one random ancestor by BLOSUM62-biased point
substitutions plus short indels, so related sequences share biased k-mers
(what substitute k-mers are for) as well as exact ones.

Every size below is fixed per workload; the seed only picks residues,
mutations, the order of the sequences and which length stratum each
family gets.  Lengths are stratified (evenly spaced over the range, then
shuffled) rather than drawn, so the amount of work hardly moves from one
seed to the next.

Usage::

    python3 perfbench/gen.py --workload families_xd_s0 --seed 1 --out DIR

writes ``DIR/input.fa`` and ``DIR/labels.tsv`` (``id<TAB>family`` with
``-`` for a singleton and ``superfamily.family`` where there is one).
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

AMINO = "ARNDCQEGHILKMFPSTWYV"

#: BLOSUM62 over the 20 canonical residues, in ``AMINO`` order.
BLOSUM62 = np.array([
    [4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0],
    [-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3],
    [-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3],
    [-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3],
    [0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1],
    [-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2],
    [-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2],
    [0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3],
    [-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3],
    [-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3],
    [-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1],
    [-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2],
    [-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1],
    [-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1],
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2],
    [1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2],
    [0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0],
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3],
    [-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1],
    [0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4],
], dtype=np.float64)

#: Background residue frequencies (Robinson & Robinson), ``AMINO`` order.
BACKGROUND = np.array([
    0.078, 0.051, 0.045, 0.054, 0.019, 0.043, 0.063, 0.074, 0.022, 0.052,
    0.090, 0.057, 0.022, 0.039, 0.052, 0.071, 0.059, 0.013, 0.032, 0.064,
])
BACKGROUND = BACKGROUND / BACKGROUND.sum()


#: Share of each member's residues deleted or inserted (half each).
INDEL_RATE = 0.02


def _substitution_cdf() -> np.ndarray:
    """Row-wise CDF of ``P[i, j] ∝ exp(BLOSUM62[i, j] / 2)``, ``j != i``:
    conservative substitutions are the likely ones."""
    p = np.exp(BLOSUM62 / 2.0)
    np.fill_diagonal(p, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    cdf = np.cumsum(p, axis=1)
    cdf[:, -1] = 1.0
    return cdf


_SUB_CDF = _substitution_cdf()


@dataclass(frozen=True)
class Spec:
    """The fixed make-up of one workload's input.

    ``superfamilies`` groups of ``families_per_super`` families of
    ``members`` sequences each, plus ``singletons`` unrelated sequences.
    A superfamily ancestor is mutated at ``super_divergence`` into each
    family ancestor (0 means families are unrelated), and each family
    ancestor at ``divergence`` into each member.
    """

    superfamilies: int
    families_per_super: int
    members: int
    singletons: int
    length_range: tuple[int, int]
    divergence: float
    super_divergence: float = 0.0


def random_protein(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.choice(len(AMINO), size=length, p=BACKGROUND)


def mutate(rng: np.random.Generator, seq: np.ndarray,
           sub_rate: float) -> np.ndarray:
    """Substitute ``sub_rate`` of the residues along BLOSUM62's bias,
    delete ``INDEL_RATE / 2`` of them and insert a random residue before
    another ``INDEL_RATE / 2``.  The counts are exact, not drawn, so every
    member is equally far from its ancestor."""
    n = len(seq)
    n_indel = 2 * round(INDEL_RATE * n / 2)
    n_sub = min(round(sub_rate * n), n - n_indel)
    picked = rng.permutation(n)
    dele = np.zeros(n, dtype=bool)
    ins = np.zeros(n, dtype=bool)
    dele[picked[:n_indel // 2]] = True
    ins[picked[n_indel // 2:n_indel]] = True
    at = picked[n_indel:n_indel + n_sub]
    out = seq.copy()
    u = rng.random(len(at))
    out[at] = (_SUB_CDF[seq[at]] < u[:, None]).sum(axis=1)
    counts = 1 - dele.astype(np.int64) + ins.astype(np.int64)
    grown = np.repeat(out, counts)
    first = np.cumsum(counts) - counts
    slots = first[ins]
    grown[slots] = rng.choice(len(AMINO), size=len(slots), p=BACKGROUND)
    return grown if len(grown) else seq[:1].copy()


def _strata(rng: np.random.Generator, count: int,
            length_range: tuple[int, int]) -> np.ndarray:
    """``count`` lengths evenly spaced over the range, in seeded order."""
    lo, hi = length_range
    return rng.permutation(np.linspace(lo, hi, count).round().astype(int))


def generate(spec: Spec, seed: int) -> tuple[list[str], list[str], list[str]]:
    """``(ids, sequences, labels)`` in seeded shuffled order."""
    rng = np.random.default_rng(seed)
    seqs: list[np.ndarray] = []
    labels: list[str] = []
    lengths = _strata(rng, spec.superfamilies, spec.length_range)
    for sf in range(spec.superfamilies):
        root = random_protein(rng, int(lengths[sf]))
        for fam in range(spec.families_per_super):
            ancestor = (mutate(rng, root, spec.super_divergence)
                        if spec.super_divergence > 0 else root)
            for _ in range(spec.members):
                seqs.append(mutate(rng, ancestor, spec.divergence))
                labels.append(f"{sf}.{fam}")
    for length in _strata(rng, spec.singletons, spec.length_range):
        seqs.append(random_protein(rng, int(length)))
        labels.append("-")
    order = rng.permutation(len(seqs))
    ids = [f"seq{i:05d}" for i in range(len(seqs))]
    return (ids,
            ["".join(AMINO[c] for c in seqs[j]) for j in order],
            [labels[j] for j in order])


def write_input(spec: Spec, seed: int, out_dir: str) -> tuple[str, str]:
    """Write ``input.fa`` (60 residues a line) and ``labels.tsv``."""
    ids, seqs, labels = generate(spec, seed)
    os.makedirs(out_dir, exist_ok=True)
    fasta = os.path.join(out_dir, "input.fa")
    with open(fasta, "w", encoding="ascii") as fh:
        for ident, seq in zip(ids, seqs):
            fh.write(f">{ident}\n")
            for i in range(0, len(seq), 60):
                fh.write(seq[i:i + 60] + "\n")
    label_path = os.path.join(out_dir, "labels.tsv")
    with open(label_path, "w", encoding="ascii") as fh:
        for ident, label in zip(ids, labels):
            fh.write(f"{ident}\t{label}\n")
    return fasta, label_path


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true",
                   help="the workload's toy-size input")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    fasta, labels = write_input(w.smoke if args.smoke else w.spec,
                                args.seed, args.out)
    print(fasta)
    print(labels)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
