"""FASTA ingestion: parsing, codon framing, and empirical distributions.

Real gene sequences supply the host amino-acid pmfs and synonymous-codon
usage that the rate computations in :mod:`dnacap.cdna` consume.  Parsing
is deliberately strict: sequences may only contain A/C/G/T (plus U, read
as T, and N as an explicit unknown), anything else is an error with a
line/column position.

The work per base is done by whole-string and array operations, in one
of two front ends that share one counting routine.  Canonical text (ASCII,
with a '>' at the start of each header line and nowhere else) is encoded
to bytes once and split at each '>'; one ``bytes.translate`` per record
body deletes the whitespace and maps every base straight to its code.
Any other text, and any text that would raise or log an error, is read
by :func:`parse_fasta`: a record's lines are joined, stripped of
whitespace and cleaned (uppercase, U to T) by one ``str.translate``; only
a record that holds anything but a base is rescanned character by
character, to name the line and column of the first offending character.
All records of a file are framed in one uint8 array, codons as rows of
three base codes, and counted with one ``np.bincount``; the N codons and
stop codons are found once and counted per record, and only the records
with something to report are visited to log it.  The amino pmf and the
codon usage sum the synonym sets of the 64 counts with one more
``np.bincount``.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .genetic_code import (
    AMINO_ACIDS,
    AMINO_OF_CODON,
    BASES,
    BASE_INDEX,
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
# else -> 255: _BASE_CODE reads cleaned sequences, _FASTA_CODE raw FASTA
# bytes (either case, U read as T) once _ASCII_SPACE, the ASCII characters
# that str.split() drops, is deleted
_UNKNOWN = 4
_BASE_CODE = bytes({**BASE_INDEX, "N": _UNKNOWN}.get(chr(b), 255) for b in range(256))
_FASTA_CODE = bytes({**BASE_INDEX, "U": BASE_INDEX["T"], "N": _UNKNOWN}.get(chr(b).upper(), 255)
                    for b in range(256))
_ASCII_SPACE = bytes(b for b in range(128) if chr(b).isspace())
# the codons over the codes 0..4, indexed by 25*i1 + 5*i2 + i3 so that every
# codon holding an N has an index of its own
_CODONS5 = [b1 + b2 + b3 for b1 in BASES + "N" for b2 in BASES + "N" for b3 in BASES + "N"]
_CODON_STRINGS = np.array(_CODONS5)
_BASE5_OF_CODON = np.array([_CODONS5.index(c) for c in CODONS])
_HAS_N = np.array(["N" in c for c in _CODONS5])
# the codons a record's warnings count: N codons and stop codons
_IS_EVENT = _HAS_N | np.isin(_CODON_STRINGS, STOP_CODONS)


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


def _canonical_records(text: str, frame: int, n_policy: str):
    """The headers and base codes of canonical FASTA text, or None.

    The fast front end of :func:`ingest_fasta`.  Canonical text is ASCII
    and has a '>' at its start and at the start of every header line, and
    nowhere else.  Each record body goes through one ``bytes.translate``,
    which deletes the ASCII whitespace ``str.split`` drops and maps every
    base to its code and any other byte to 255.  Text that this cannot
    prove to count cleanly is declined, before anything is logged, and
    :func:`parse_fasta` reads it: a header line holding another line
    break, a body holding anything but bases and whitespace, a record with
    fewer than three usable bases, any N under ``n_policy="error"``, or a
    frame other than 0, 1 or 2.
    """
    if not (text.isascii() and text.startswith(">")) or frame not in (0, 1, 2):
        return None
    records = text.encode("ascii").split(b">")[1:]
    # a '>' starts a line when the record before it ends with '\n'
    if not all(map(bytes.endswith, records[:-1], repeat(b"\n"))):
        return None
    lines = [record.partition(b"\n") for record in records]
    codes = [body.translate(_FASTA_CODE, _ASCII_SPACE) for _, _, body in lines]
    joined = b"".join(codes)
    if b"\xff" in joined or min(map(len, codes)) < frame + 3 or (
            n_policy == "error" and b"\x04" in joined):
        return None
    # str.splitlines() finds one line per header unless one holds another break
    heads = (b"\n".join([head for head, _, _ in lines]) + b"\n").decode("ascii").splitlines()
    if len(heads) != len(records):
        return None
    return [head.strip() for head in heads], codes


def _encode(bases: str) -> bytes:
    """The base codes of a cleaned sequence; 255 for any other character."""
    return bases.encode("ascii", "replace").translate(_BASE_CODE)


def _check_controls(frame: int, n_policy: str) -> None:
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1 or 2, got {frame}")
    if n_policy not in ("drop_codon", "error"):
        raise ValueError(f"unknown n_policy {n_policy!r}")


def _frame_codes(records: list[bytes], frame: int, n_policy: str, headers=None) -> np.ndarray:
    """Frame the records' base codes in one array; the index of every codon framed.

    The core of :func:`frame_codons` and :func:`ingest_fasta`, whichever
    front end made the codes: one byte per base, A/C/T/G as 0-3 and N as
    4.  Returns ``25*i1 + 5*i2 + i3`` (uint8) for the codes of every codon
    framed, record after record, N codons included (``_HAS_N`` marks them).
    Logs, per record and in order, the trailing bases and the N codons
    dropped and, given the headers, the stop codons before the final kept
    codon.  The first record with fewer than three usable bases, or with
    an N codon under ``n_policy="error"``, raises after the warnings of
    the records before it.
    """
    _check_controls(frame, n_policy)
    usable = np.fromiter(map(len, records), dtype=np.intp, count=len(records)) - frame
    too_short = usable < 3
    short = int(np.argmax(too_short)) if too_short.any() else len(records)
    n_codons = usable[:short] // 3
    trailing = usable[:short] % 3
    framed = records[:short]
    if frame or trailing.any():
        framed = [c[frame:frame + 3 * n] for c, n in zip(framed, n_codons.tolist())]
    first, second, third = np.frombuffer(b"".join(framed), dtype=np.uint8).reshape(-1, 3).T
    index = 25 * first + 5 * second + third
    # N codons and stop codons are few: find them, then count them per record
    at = np.flatnonzero(_IS_EVENT.take(index))
    unknown = _HAS_N[index[at]]
    ends = np.cumsum(n_codons)
    record = np.searchsorted(ends, at, side="right")
    n_at = at[unknown]
    dropped = np.bincount(record[unknown], minlength=short)
    early = np.zeros(short, dtype=np.intp)
    if headers is not None:
        stop_at, stop_record = at[~unknown], record[~unknown]
        # a stop is its record's final kept codon when only N codons follow it
        n_after = (np.searchsorted(n_at, ends[stop_record])
                   - np.searchsorted(n_at, stop_at, side="right"))
        early = np.bincount(stop_record[ends[stop_record] - 1 - stop_at > n_after],
                            minlength=short)

    for r in np.flatnonzero(trailing | dropped | early).tolist():
        if trailing[r]:
            logger.warning("dropping %d trailing base(s) beyond the last codon", int(trailing[r]))
        if dropped[r]:
            if n_policy == "error":
                start = int(ends[r] - n_codons[r])
                first_n = int(n_at[np.searchsorted(n_at, start)])
                raise ValueError(f"codon with unknown base at offset "
                                 f"{frame + 3 * (first_n - start)}: {_CODONS5[index[first_n]]}")
            logger.warning("dropped %d codon(s) containing N", int(dropped[r]))
        if early[r]:
            logger.warning(
                "record %r: %d stop codon(s) before the final codon", headers[r], int(early[r])
            )
    if short < len(records):
        raise ValueError(
            f"fewer than 3 usable bases after frame {frame} ({max(usable[short], 0)} left)"
        )
    return index


def frame_codons(seq, frame: int = 0, n_policy: str = "drop_codon") -> list[str]:
    """Group a sequence into codons for one of the three reading frames.

    Skips ``frame`` leading bases and chunks the rest into triplets; the
    1-2 trailing leftover bases are dropped (logged).  Codons containing
    N are dropped under ``n_policy="drop_codon"`` or raise under
    ``"error"``.  Fewer than three usable bases is an error, and so is a
    codon holding anything but A/C/G/T/N (a raw string is not cleaned).
    """
    bases = seq.bases if isinstance(seq, RawSequence) else str(seq)
    _check_controls(frame, n_policy)
    codes = _encode(bases)
    # only codons are read: skipped leading and dropped trailing bases are not
    at = codes.find(b"\xff", frame, frame + max(len(codes) - frame, 0) // 3 * 3)
    if at >= 0:
        raise ValueError(f"not a base: {bases[at]!r} at offset {at}")
    index = _frame_codes([codes], frame, n_policy)
    return _CODON_STRINGS[index[~_HAS_N[index]]].tolist()


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
    Canonical text goes straight from bytes to base codes; the rest,
    including every text that raises, goes through :func:`parse_fasta`.
    The counts, the log records and the errors are the same either way.
    """
    read = _canonical_records(text, frame, n_policy)
    if read is None:
        records = parse_fasta(text)
        if not records:
            raise FastaError("no sequences found")
        read = [r.header for r in records], [_encode(r.bases) for r in records]
    headers, codes = read
    index = _frame_codes(codes, frame, n_policy, headers)
    return CodonCounts(np.bincount(index, minlength=len(_CODONS5))[_BASE5_OF_CODON])


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
