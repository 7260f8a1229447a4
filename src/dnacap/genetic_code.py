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


_EXPECTED_MULTIPLICITY = {
    "Ala": 4, "Arg": 6, "Asn": 2, "Asp": 2, "Cys": 2, "Gln": 2, "Glu": 2,
    "Gly": 4, "His": 2, "Ile": 3, "Leu": 6, "Lys": 2, "Met": 1, "Phe": 2,
    "Pro": 4, "Ser": 6, "Thr": 4, "Trp": 1, "Tyr": 2, "Val": 4, "Stp": 3,
}


def _check_table() -> None:
    # Import-time self-check: the code is fixed data, so a typo in the
    # table should refuse to load rather than corrupt every result.
    if MULTIPLICITY != _EXPECTED_MULTIPLICITY:
        raise AssertionError("genetic code table: multiplicity mismatch")
    seen = [c for a in AMINO_ACIDS for c in SYNONYMS[a]]
    if len(seen) != 64 or len(set(seen)) != 64:
        raise AssertionError("genetic code table: synonym sets must partition the 64 codons")
    if set(seen) != set(CODONS):
        raise AssertionError("genetic code table: unknown codon present")


_check_table()
