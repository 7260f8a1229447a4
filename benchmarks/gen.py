"""Seeded inputs for the benchmark workloads, with their planted contents.

Everything here is a pure function of the seed (``random.Random``), so the
same seed writes the same bytes.  The program under test sees only the
files; the planted codon counts stay with the benchmark as the oracle for
ingestion.

FASTA files hold many records, mixed case, ``U`` for ``T`` in some
records, a few codons with ``N`` (dropped by the reader), a few internal
stop codons (counted), an occasional one or two trailing bases (dropped)
and wrapped lines of varied width.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from oracle import AMINO_OF, AMINO_ORDER, CODONS, codon_index

#: Average amino-acid composition of proteins, percent (stop codons apart).
AMINO_PROFILE = {
    "Ala": 8.25, "Arg": 5.53, "Asn": 4.06, "Asp": 5.45, "Cys": 1.37,
    "Gln": 3.93, "Glu": 6.75, "Gly": 7.07, "His": 2.27, "Ile": 5.96,
    "Leu": 9.66, "Lys": 5.84, "Met": 2.42, "Phe": 3.86, "Pro": 4.70,
    "Ser": 6.56, "Thr": 5.34, "Trp": 1.08, "Tyr": 2.92, "Val": 6.87,
}
SYNONYMS = {a: [c for c in CODONS if AMINO_OF[c] == a] for a in AMINO_ORDER}
_WIDTHS = (50, 60, 61, 70, 75, 80, 100, 120)

# figures: the gene host passed by --fasta
FIGURES_GENE_CODONS = 6000
FIGURES_GENE_RECORDS = 20
# ingest: file sizes in codons, log-spaced over 1.3 decades (about 2.3 Mbase)
INGEST_FILES = 40
INGEST_SMALLEST, INGEST_LARGEST = 3_000, 60_000
INGEST_CODONS_PER_RECORD = 400
# capacity_grid: a box of shallow cascades where every BA run certifies
GRID_POINTS = 200
GRID_LOG10_Q = (-4.0, -1.5)
GRID_GAMMA = (0.1, 1.0)
GRID_LOG10_QM = (-2.5, -1.25)


def _usage_weights(rng: random.Random) -> dict[str, list[float]]:
    # a random synonymous-codon preference per amino acid
    return {a: [rng.uniform(0.2, 1.0) for _ in SYNONYMS[a]] for a in AMINO_ORDER}


def _render(rng: random.Random, header: str, codons: list[str]) -> str:
    seq = "".join(codons)
    style = rng.random()
    if style < 0.2:
        seq = seq.replace("T", "U")
    if rng.random() < 0.3:
        seq = seq.lower()
    elif rng.random() < 0.2:
        cut = rng.randrange(len(seq))
        seq = seq[:cut] + seq[cut:].lower()
    width = rng.choice(_WIDTHS)
    lines = [f">{header}"] + [seq[i:i + width] for i in range(0, len(seq), width)]
    if rng.random() < 0.2:
        lines.append("")
    return "\n".join(lines) + "\n"


def gene_set(rng: random.Random, aminos: list[str], n_records: int, name: str,
             n_internal_stops: int = 3, n_unknown: int = 5) -> tuple[str, list[int]]:
    """FASTA text of ``n_records`` genes coding the given amino multiset.

    Each record ends in a stop codon; ``n_internal_stops`` more stops sit
    inside records and ``n_unknown`` codons with ``N`` are added.  Returns
    the text and the planted counts over the 64 codons (frame 0, the
    reader's rules: N codons and trailing partial codons are dropped).
    """
    weights = _usage_weights(rng)
    aminos = list(aminos)
    rng.shuffle(aminos)
    positions: dict[str, list[int]] = {}
    for i, a in enumerate(aminos):
        positions.setdefault(a, []).append(i)
    codons = [""] * len(aminos)
    for a in sorted(positions):
        drawn = rng.choices(SYNONYMS[a], weights[a], k=len(positions[a]))
        for i, codon in zip(positions[a], drawn):
            codons[i] = codon
    cuts = sorted(rng.sample(range(1, len(aminos)), n_records - 1))
    records = [codons[lo:hi] + rng.choices(SYNONYMS["Stp"], weights["Stp"])
               for lo, hi in zip([0] + cuts, cuts + [len(aminos)])]
    counts = [0] * 64
    for _ in range(n_internal_stops):
        rec = rng.choice(records)
        rec.insert(rng.randrange(len(rec) - 1), rng.choice(SYNONYMS["Stp"]))
    for rec in records:
        for codon in rec:
            counts[codon_index(codon)] += 1
    for _ in range(n_unknown):
        rec = rng.choice(records)
        codon = list(rng.choice(CODONS))
        codon[rng.randrange(3)] = "N"
        rec.insert(rng.randrange(len(rec)), "".join(codon))
    text = []
    for i, rec in enumerate(records):
        if rng.random() < 0.1:
            rec = rec + ["ACGT"[rng.randrange(4)] * rng.randint(1, 2)]
        text.append(_render(rng, f"{name}_{i} seeded gene {i}", rec))
    return "".join(text), counts


def _figures_aminos() -> list[str]:
    # Fixed composition: the amino pmf, and with it every Blahut-Arimoto run
    # on this host, is the same for every seed; the seed moves codon usage,
    # record layout and file syntax.
    total = sum(AMINO_PROFILE.values())
    return [a for a, pct in AMINO_PROFILE.items()
            for _ in range(round(pct / total * FIGURES_GENE_CODONS))]


def _ingest_aminos(rng: random.Random, n: int) -> list[str]:
    names = list(AMINO_PROFILE)
    weights = [AMINO_PROFILE[a] * rng.uniform(0.6, 1.4) for a in names]
    return rng.choices(names, weights, k=n)


def ingest_sizes() -> list[int]:
    ratio = (INGEST_LARGEST / INGEST_SMALLEST) ** (1.0 / (INGEST_FILES - 1))
    return [round(INGEST_SMALLEST * ratio ** i) for i in range(INGEST_FILES)]


def capacity_grid(rng: random.Random) -> list[tuple[float, float, int]]:
    points = []
    for _ in range(GRID_POINTS):
        q = 10.0 ** rng.uniform(*GRID_LOG10_Q)
        gamma = rng.uniform(*GRID_GAMMA)
        m = max(1, round(10.0 ** rng.uniform(*GRID_LOG10_QM) / q))
        points.append((q, gamma, m))
    return points


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files under ``out``; return the oracle data."""
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    if workload == "figures":
        text, counts = gene_set(rng, _figures_aminos(), FIGURES_GENE_RECORDS, "fig")
        (out / "gene.fa").write_text(text)
        return {"gene": "gene.fa", "counts": counts}
    if workload == "capacity_grid":
        points = capacity_grid(rng)
        (out / "grid.json").write_text(json.dumps(points))
        return {"points": points}
    if workload == "ingest":
        files = []
        for i, size in enumerate(ingest_sizes()):
            n_records = max(2, math.ceil(size / INGEST_CODONS_PER_RECORD))
            text, counts = gene_set(rng, _ingest_aminos(rng, size), n_records, f"set{i}")
            name = f"genes_{i:02d}.fa"
            (out / name).write_text(text)
            files.append({"file": name, "counts": counts})
        return {"files": files}
    raise ValueError(f"unknown workload {workload!r}")
