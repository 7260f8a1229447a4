"""Standard genetic code: codon/amino-acid tables and index arithmetic.

Bases are ordered A, C, T, G (indices 0..3); this fixed order matches the
row/column layout of the substitution matrices in
:mod:`dnacap.mutation_channel`.  Codons are strings like ``"ATG"`` with
integer index ``16*i1 + 4*i2 + i3`` computed from the base indices, and
amino acids are three-letter names (``"Met"``) plus the stop symbol
``"Stp"``, 21 symbols in all.  Everything here is immutable table data.
"""

from __future__ import annotations

import numpy as np

BASES = "ACTG"
BASE_INDEX = {b: i for i, b in enumerate(BASES)}
PURINES = frozenset("AG")
PYRIMIDINES = frozenset("CT")

#: All 64 codons in canonical index order (index = 16*i1 + 4*i2 + i3).
CODONS = tuple(b1 + b2 + b3 for b1 in BASES for b2 in BASES for b3 in BASES)
CODON_INDEX = {c: i for i, c in enumerate(CODONS)}

#: The 21 amino-acid symbols in table order; Stp is a full alphabet member.
AMINO_ACIDS = (
    "Ala", "Arg", "Asn", "Asp", "Cys", "Gln", "Glu", "Gly", "His", "Ile",
    "Leu", "Lys", "Met", "Phe", "Pro", "Ser", "Thr", "Trp", "Tyr", "Val",
    "Stp",
)
AMINO_INDEX = {a: i for i, a in enumerate(AMINO_ACIDS)}

# Synonymous codons per amino acid, kept in table reading order so that
# every conditional-pmf vector built on top is reproducible byte for byte.
SYNONYMS = {
    "Ala": ("GCA", "GCC", "GCT", "GCG"),
    "Arg": ("AGA", "AGG", "CGA", "CGC", "CGT", "CGG"),
    "Asn": ("AAC", "AAT"),
    "Asp": ("GAC", "GAT"),
    "Cys": ("TGC", "TGT"),
    "Gln": ("CAA", "CAG"),
    "Glu": ("GAA", "GAG"),
    "Gly": ("GGA", "GGC", "GGT", "GGG"),
    "His": ("CAC", "CAT"),
    "Ile": ("ATA", "ATC", "ATT"),
    "Leu": ("CTA", "CTC", "CTT", "CTG", "TTA", "TTG"),
    "Lys": ("AAA", "AAG"),
    "Met": ("ATG",),
    "Phe": ("TTC", "TTT"),
    "Pro": ("CCA", "CCC", "CCT", "CCG"),
    "Ser": ("AGC", "AGT", "TCA", "TCC", "TCT", "TCG"),
    "Thr": ("ACA", "ACC", "ACT", "ACG"),
    "Trp": ("TGG",),
    "Tyr": ("TAC", "TAT"),
    "Val": ("GTA", "GTC", "GTT", "GTG"),
    "Stp": ("TAA", "TAG", "TGA"),
}

CODON_TO_AMINO = {c: a for a, codons in SYNONYMS.items() for c in codons}
MULTIPLICITY = {a: len(codons) for a, codons in SYNONYMS.items()}
STOP_CODONS = SYNONYMS["Stp"]

#: Synonym-set sizes as a length-21 integer vector, amino order.
MULTIPLICITIES = np.array([MULTIPLICITY[a] for a in AMINO_ACIDS])

#: Per amino acid, the codon indices of its synonym set (table order).
SYNONYM_INDICES = tuple(
    np.array([CODON_INDEX[c] for c in SYNONYMS[a]]) for a in AMINO_ACIDS
)

#: Length-64 vector mapping codon index -> amino-acid index.
AMINO_OF_CODON = np.empty(64, dtype=np.intp)
for _amino, _indices in zip(AMINO_ACIDS, SYNONYM_INDICES):
    AMINO_OF_CODON[_indices] = AMINO_INDEX[_amino]


def synonym_sums(values) -> np.ndarray:
    """Sums of a length-64 codon vector over each synonym set, amino order.

    One ``np.bincount``; each set is summed in codon order, as
    ``values[SYNONYM_INDICES[a]].sum()`` would sum it, so the results
    agree bit for bit.
    """
    return np.bincount(AMINO_OF_CODON, values, minlength=len(AMINO_ACIDS))


def codon_index(codon: str) -> int:
    """Canonical integer index of a codon string."""
    try:
        return CODON_INDEX[codon]
    except KeyError:
        raise ValueError(f"not a codon: {codon!r}") from None


def codon_from_index(index: int) -> str:
    """Codon string for a canonical index 0..63."""
    if not 0 <= index < 64:
        raise ValueError(f"codon index out of range: {index}")
    return CODONS[index]


def codon_to_amino(codon: str) -> str:
    """Amino acid (or ``"Stp"``) encoded by a codon."""
    try:
        return CODON_TO_AMINO[codon]
    except KeyError:
        raise ValueError(f"not a codon: {codon!r}") from None


def synonym_set(amino: str) -> tuple[str, ...]:
    """Codons encoding an amino acid, in canonical table order."""
    try:
        return SYNONYMS[amino]
    except KeyError:
        raise ValueError(f"unknown amino acid: {amino!r}") from None


def translate(codons) -> list[str]:
    """Map a codon sequence to its amino-acid sequence."""
    return [codon_to_amino(c) for c in codons]

