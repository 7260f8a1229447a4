"""FASTA ingestion: parsing, codon framing, and empirical distributions.

Real gene sequences supply the host amino-acid pmfs and synonymous-codon
usage that the rate computations in :mod:`dnacap.cdna` consume.  Parsing
is deliberately strict: sequences may only contain A/C/G/T (plus U, read
as T, and N as an explicit unknown), anything else is an error with a
line/column position.

The work per base is done by whole-string and array operations.  A
record's lines are joined, stripped of whitespace and cleaned (uppercase,
U to T) by one ``str.translate``; only a record that holds anything but a
base is rescanned character by character, to name the line and column of
the first offending character.  All records of a file are framed in one
uint8 array, codons as rows of three base indices, and counted with one
``np.bincount``; the per-record warnings come from ``np.add.reduceat``
over the record offsets.  The amino pmf and the codon usage sum the
synonym sets of the 64 counts with one more ``np.bincount``.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .genetic_code import (
    AMINO_ACIDS,
    AMINO_OF_CODON,
    BASE_INDEX,
    CODON_INDEX,
    CODONS,
    MULTIPLICITIES,
    STOP_CODONS,
    codon_index,
    synonym_sums,
)

logger = logging.getLogger(__name__)

_ALLOWED = set("ACGTUN")
# uppercase, with U read as T
_CLEAN = str.maketrans("acgtnuU", "ACGTNTT")
# a cleaned record is valid when nothing is left after this
_DROP_BASES = str.maketrans("", "", "ACGTN")

# byte -> base index in codon order (A, C, T, G = 0..3), N -> 4, anything
# else -> 255; a codon holds an N exactly when its three codes OR above 3
_UNKNOWN = 4
_BASE_CODE = bytes({**BASE_INDEX, "N": _UNKNOWN}.get(chr(b), 255) for b in range(256))
# indexed by 16*i1 + 4*i2 + i3 with codes up to 4, so N codons index it too
_IS_STOP = np.zeros(85, dtype=bool)
_IS_STOP[[CODON_INDEX[c] for c in STOP_CODONS]] = True
_CODON_STRINGS = np.array(CODONS)


class FastaError(ValueError):
    """Malformed FASTA input."""


@dataclass
class RawSequence:
    header: str
    bases: str  # cleaned: uppercase A/C/G/T/N only


@dataclass
class CodonCounts:
    """Occurrence counts over the 64 codons, canonical index order."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros(64, dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: "CodonCounts") -> "CodonCounts":
        return CodonCounts(self.counts + other.counts)

    def to_json(self) -> str:
        """JSON object mapping codon string to count, canonical order."""
        return json.dumps({c: int(n) for c, n in zip(CODONS, self.counts)})

    def to_csv(self) -> str:
        lines = ["codon,count"]
        lines += [f"{c},{int(n)}" for c, n in zip(CODONS, self.counts)]
        return "\n".join(lines) + "\n"


def parse_fasta(text: str) -> list[RawSequence]:
    """Parse FASTA text into cleaned sequences.

    Headers start with '>'; sequence lines are folded, uppercased, and U
    is accepted as T.  Characters outside A/C/G/T/U/N and whitespace are
    rejected with their line and column.  A record with no sequence data
    is an error; an empty input yields an empty list.
    """
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines) if ">" in line and line.lstrip().startswith(">")]
    first = heads[0] if heads else len(lines)
    for line_no, line in enumerate(lines[:first], start=1):
        if line.strip():
            raise FastaError(f"sequence data before any '>' header (line {line_no})")
    records: list[RawSequence] = []
    for start, end in zip(heads, heads[1:] + [len(lines)]):
        header = lines[start].strip()[1:].strip()
        bases = "".join("".join(lines[start + 1:end]).split()).translate(_CLEAN)
        if not bases:
            where = end + 1 if end < len(lines) else "end of input"
            raise FastaError(f"record {header!r} has no sequence data (line {where})")
        if bases.translate(_DROP_BASES):
            raise _illegal_character(lines, start + 1, end)
        records.append(RawSequence(header=header, bases=bases))
    return records


def _illegal_character(lines: list[str], first: int, end: int) -> FastaError:
    """The error for the first non-base character of ``lines[first:end]``.

    Runs only on a record that failed the whole-record check, which
    rejects exactly the characters this scan rejects.
    """
    for line_no in range(first, end):
        for col, ch in enumerate(lines[line_no], start=1):
            if not ch.isspace() and ch.upper() not in _ALLOWED:
                return FastaError(
                    f"illegal character {ch!r} at line {line_no + 1}, column {col}"
                )


def _frame(seqs: list[str], frame: int, n_policy: str, headers=None) -> np.ndarray:
    """Frame the sequences in one array; the indices of the kept codons.

    The core of :func:`frame_codons` and :func:`ingest_fasta`.  Returns
    the canonical index (uint8) of every codon kept, sequence after
    sequence.  Logs, per sequence and in order, the trailing bases and the
    N codons dropped and, given the headers, the stop codons before the
    final kept codon.  The first sequence with fewer than three usable
    bases, or with an N codon under ``n_policy="error"``, raises after the
    warnings of the sequences before it.
    """
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1 or 2, got {frame}")
    if n_policy not in ("drop_codon", "error"):
        raise ValueError(f"unknown n_policy {n_policy!r}")
    usable = [max(len(s) - frame, 0) for s in seqs]
    short = next((r for r, n in enumerate(usable) if n < 3), len(seqs))
    n_codons = np.array(usable[:short], dtype=np.intp) // 3
    joined = "".join([s[frame:frame + 3 * n] for s, n in zip(seqs, n_codons.tolist())])
    codes = np.frombuffer(joined.encode("ascii", "replace").translate(_BASE_CODE), dtype=np.uint8)
    ends = np.cumsum(n_codons)
    starts = ends - n_codons
    if (codes > _UNKNOWN).any():
        at = int(np.argmax(codes > _UNKNOWN))
        r = int(np.searchsorted(ends, at // 3, side="right"))
        raise ValueError(
            f"not a base: {joined[at]!r} at offset {frame + at - 3 * starts[r]}"
        )
    first, second, third = codes.reshape(-1, 3).T
    index = 16 * first + 4 * second + third
    unknown = (first | second | third) > 3
    kept = index[~unknown]
    dropped = np.add.reduceat(unknown, starts)
    stops = np.add.reduceat(np.take(_IS_STOP, index) & ~unknown, starts)
    # the final kept codon of a sequence does not count as an early stop
    n_kept = n_codons - dropped
    has_kept = n_kept > 0
    final_stop = np.zeros(short, dtype=bool)
    final_stop[has_kept] = _IS_STOP[kept[np.cumsum(n_kept)[has_kept] - 1]]
    early = stops - final_stop

    for r, (n, n_dropped, n_early) in enumerate(zip(usable, dropped.tolist(), early.tolist())):
        if n % 3:
            logger.warning("dropping %d trailing base(s) beyond the last codon", n % 3)
        if n_dropped:
            if n_policy == "error":
                at = frame + 3 * int(np.argmax(unknown[starts[r]:ends[r]]))
                raise ValueError(
                    f"codon with unknown base at offset {at}: {seqs[r][at:at + 3]}"
                )
            logger.warning("dropped %d codon(s) containing N", n_dropped)
        if n_early and headers is not None:
            logger.warning(
                "record %r: %d stop codon(s) before the final codon", headers[r], n_early
            )
    if short < len(seqs):
        raise ValueError(
            f"fewer than 3 usable bases after frame {frame} ({usable[short]} left)"
        )
    return kept


def frame_codons(seq, frame: int = 0, n_policy: str = "drop_codon") -> list[str]:
    """Group a sequence into codons for one of the three reading frames.

    Skips ``frame`` leading bases and chunks the rest into triplets; the
    1-2 trailing leftover bases are dropped (logged).  Codons containing
    N are dropped under ``n_policy="drop_codon"`` or raise under
    ``"error"``.  Fewer than three usable bases is an error, and so is a
    codon holding anything but A/C/G/T/N (a raw string is not cleaned).
    """
    bases = seq.bases if isinstance(seq, RawSequence) else str(seq)
    return _CODON_STRINGS[_frame([bases], frame, n_policy)].tolist()


def count_codons(codons) -> CodonCounts:
    """Tally codons into a 64-bin count vector."""
    counts = np.zeros(64, dtype=np.int64)
    for codon, n in Counter(codons).items():
        counts[codon_index(codon)] = n
    return CodonCounts(counts)


def ingest_fasta(text: str, frame: int = 0, n_policy: str = "drop_codon") -> CodonCounts:
    """Parse, frame, and count all records of a FASTA text, aggregated.

    Counting is additive, so the result does not depend on record order.
    Stop codons anywhere before a record's final codon are counted like
    any other codon but logged, since a real gene ends at its single stop.
    """
    records = parse_fasta(text)
    if not records:
        raise FastaError("no sequences found")
    kept = _frame([r.bases for r in records], frame, n_policy, [r.header for r in records])
    return CodonCounts(np.bincount(kept, minlength=64))


def amino_pmf(counts: CodonCounts) -> np.ndarray:
    """Empirical amino-acid pmf: synonym-set count mass over the total."""
    if counts.total < 1:
        raise ValueError("cannot build a pmf from empty codon counts")
    return synonym_sums(counts.counts) / counts.total


def codon_usage(counts: CodonCounts, zero_policy: str = "uniform_fill") -> np.ndarray:
    """Empirical synonymous-codon usage, one pmf per synonym set.

    Returned as a length-64 vector (entry u is the usage of codon u within
    its own synonym set).  Sets with no observed codons are filled
    uniformly under ``zero_policy="uniform_fill"`` or raise under
    ``"error"``.
    """
    if zero_policy not in ("uniform_fill", "error"):
        raise ValueError(f"unknown zero_policy {zero_policy!r}")
    if counts.total < 1:
        raise ValueError("cannot build codon usage from empty codon counts")
    totals = synonym_sums(counts.counts)
    empty = totals <= 0
    if zero_policy == "error" and empty.any():
        raise ValueError(f"no codons observed for {AMINO_ACIDS[int(np.argmax(empty))]}")
    return np.divide(counts.counts, totals[AMINO_OF_CODON],
                     out=1.0 / MULTIPLICITIES[AMINO_OF_CODON], where=~empty[AMINO_OF_CODON])


def amino_pmf_to_csv(pmf: np.ndarray) -> str:
    """CSV rendering of an amino pmf, 21 rows in canonical order."""
    lines = ["amino,probability"]
    lines += [f"{a},{p:.12g}" for a, p in zip(AMINO_ACIDS, pmf)]
    return "\n".join(lines) + "\n"
