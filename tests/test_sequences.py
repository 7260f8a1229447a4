import json
import logging
import random
from pathlib import Path

import numpy as np
import pytest

from dnacap import sequences
from dnacap.genetic_code import AMINO_INDEX, CODONS, MULTIPLICITIES, SYNONYM_INDICES
from dnacap.sequences import (
    CodonCounts,
    FastaError,
    RawSequence,
    amino_pmf,
    amino_pmf_to_csv,
    codon_usage,
    count_codons,
    frame_codons,
    ingest_fasta,
    parse_fasta,
)

DATA = Path(__file__).parent / "data"

# documented codon content of the shipped fixtures
TOY_A_COUNTS = {"ATG": 1, "GCA": 1, "GCC": 1, "TGC": 1, "TCA": 2, "AGC": 1,
                "CTG": 1, "TAA": 1}
TOY_B_COUNTS = {"ATG": 1, "GTA": 1, "GTC": 1, "GTT": 1, "GGA": 1, "GGC": 1,
                "GGT": 1, "CAC": 1, "CAT": 1, "AAA": 1, "TTC": 1, "TTT": 1,
                "AGA": 1, "TCA": 1, "AGC": 1, "TAA": 1}


# --- parsing -----------------------------------------------------------------

def test_parse_single_record():
    records = parse_fasta(">g\nTATTGC\n")
    assert records == [RawSequence(header="g", bases="TATTGC")]


def test_parse_folded_lines():
    assert parse_fasta(">a\nTA\nTTGC\n")[0].bases == "TATTGC"


def test_parse_illegal_character_position():
    with pytest.raises(FastaError, match=r"'X' at line 2, column 3"):
        parse_fasta(">g\nTAXTGC\n")


def test_parse_accepts_rna_letters_and_case():
    assert parse_fasta(">r\nuaccgu\n")[0].bases == "TACCGT"


def test_parse_keeps_unknown_bases():
    assert parse_fasta(">n\nACNTG\n")[0].bases == "ACNTG"


def test_parse_multiple_records():
    records = parse_fasta(">one\nACG\n>two desc here\nTTT\nGGG\n")
    assert [r.header for r in records] == ["one", "two desc here"]
    assert [r.bases for r in records] == ["ACG", "TTTGGG"]


def test_parse_empty_input_is_empty():
    assert parse_fasta("") == []
    assert parse_fasta("   \n\n") == []


def test_parse_data_before_header_is_error():
    with pytest.raises(FastaError, match="before any '>'"):
        parse_fasta("ACGT\n>late\nACGT\n")


def test_parse_record_without_body_is_error():
    with pytest.raises(FastaError, match="no sequence data"):
        parse_fasta(">empty\n>full\nACG\n")
    with pytest.raises(FastaError, match="no sequence data"):
        parse_fasta(">only-header\n")


# --- framing -----------------------------------------------------------------

def test_frame_codons_worked_example():
    assert frame_codons("TATTGC") == ["TAT", "TGC"]


def test_frame_codons_drops_trailing_bases(caplog):
    with caplog.at_level(logging.WARNING, logger="dnacap.sequences"):
        assert frame_codons("TATTGCA") == ["TAT", "TGC"]
    assert "1 trailing" in caplog.text


def test_frame_codons_frame_shift():
    assert frame_codons("TATTGC", frame=1) == ["ATT"]
    assert frame_codons("TATTGC", frame=2) == ["TTG"]


def test_frame_codons_accepts_raw_sequence():
    assert frame_codons(RawSequence("x", "TATTGC")) == ["TAT", "TGC"]


def test_frame_codons_too_short():
    with pytest.raises(ValueError, match="fewer than 3"):
        frame_codons("TA")
    with pytest.raises(ValueError, match="fewer than 3"):
        frame_codons("ACGT", frame=2)


def test_frame_codons_invalid_arguments():
    with pytest.raises(ValueError):
        frame_codons("ACGACG", frame=3)


def test_frame_codons_drops_n_codons():
    assert frame_codons("ACGANGTTT") == ["ACG", "TTT"]


# --- counting and distributions ------------------------------------------------

def test_count_codons_and_amino_pmf():
    counts = count_codons(["TAT", "TGC"])
    assert counts.total == 2
    pmf = amino_pmf(counts)
    assert pmf[AMINO_INDEX["Tyr"]] == 0.5
    assert pmf[AMINO_INDEX["Cys"]] == 0.5
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(pmf) == 2


def test_uniform_counts_give_multiplicity_pmf():
    counts = CodonCounts(np.ones(64, dtype=np.int64))
    pmf = amino_pmf(counts)
    assert np.allclose(pmf, MULTIPLICITIES / 64.0, atol=1e-15)
    assert pmf[AMINO_INDEX["Ser"]] == pytest.approx(6 / 64, abs=1e-15)


def test_amino_pmf_requires_counts():
    with pytest.raises(ValueError):
        amino_pmf(CodonCounts())


def test_codon_usage_within_synonym_set():
    counts = count_codons(["TCA", "TCA", "TCA", "TCC"])
    usage = codon_usage(counts)
    ser = SYNONYM_INDICES[AMINO_INDEX["Ser"]]
    # canonical Ser order: AGC, AGT, TCA, TCC, TCT, TCG
    assert np.allclose(usage[ser], [0, 0, 0.75, 0.25, 0, 0], atol=1e-15)


def test_codon_usage_fills_unobserved_sets_uniformly():
    usage = codon_usage(count_codons(["TAT"]))
    ser = SYNONYM_INDICES[AMINO_INDEX["Ser"]]
    assert np.allclose(usage[ser], 1.0 / 6, atol=1e-15)


def test_codon_usage_requires_counts():
    with pytest.raises(ValueError, match="^cannot build codon usage from empty codon counts$"):
        codon_usage(CodonCounts())


def test_codon_usage_uniform_counts_are_uniform():
    usage = codon_usage(CodonCounts(np.ones(64, dtype=np.int64)))
    for idx in SYNONYM_INDICES:
        assert np.allclose(usage[idx], 1.0 / len(idx), atol=1e-15)


def test_usage_blocks_always_sum_to_one():
    counts = count_codons(["TCA", "GCC", "GCC", "ATG"])
    usage = codon_usage(counts)
    for idx in SYNONYM_INDICES:
        assert usage[idx].sum() == pytest.approx(1.0, abs=1e-12)


# --- aggregation pipeline -------------------------------------------------------

def test_fixture_counts_are_documented():
    for path, expected in ((DATA / "toy_gene_a.fasta", TOY_A_COUNTS),
                           (DATA / "toy_gene_b.fasta", TOY_B_COUNTS)):
        counts = ingest_fasta(path.read_text())
        observed = {CODONS[i]: int(n) for i, n in enumerate(counts.counts) if n}
        assert observed == expected


def test_pipeline_matches_direct_translation():
    from dnacap.genetic_code import AMINO_ACIDS, translate

    text = (DATA / "toy_gene_a.fasta").read_text()
    counts = ingest_fasta(text)
    pmf = amino_pmf(counts)
    aminos = translate(frame_codons(parse_fasta(text)[0]))
    direct = np.array([aminos.count(a) / len(aminos) for a in AMINO_ACIDS])
    assert np.allclose(pmf, direct, atol=1e-15)


def test_aggregation_is_record_order_independent():
    ab = ingest_fasta(">x\nTATTGC\n>y\nGCAGCA\n")
    ba = ingest_fasta(">y\nGCAGCA\n>x\nTATTGC\n")
    assert np.array_equal(ab.counts, ba.counts)


def test_ingest_requires_sequences():
    with pytest.raises(FastaError, match="no sequences"):
        ingest_fasta("")


def test_ingest_warns_on_early_stop_codons(caplog):
    with caplog.at_level(logging.WARNING, logger="dnacap.sequences"):
        ingest_fasta(">odd\nTAAGCATAA\n")
    assert "stop codon" in caplog.text


def test_one_warning_record_per_call(caplog):
    warned = ">a\nTAAGCATGAGGC\n>b\nACGNNNTTTA\n"
    lines = ["record 'a': 2 stop codon(s) before the final codon",
             "dropping 1 trailing base(s) beyond the last codon",
             "dropped 1 codon(s) containing N"]
    clean = (DATA / "toy_gene_a.fasta").read_text()
    with caplog.at_level(logging.WARNING, logger="dnacap.sequences"):
        assert _outcome(caplog, ingest_fasta, warned)[2] == [
            ("dnacap.sequences", logging.WARNING, "\n".join(lines))]
        assert _outcome(caplog, frame_codons, "ACGNNNTTTA")[2] == [
            ("dnacap.sequences", logging.WARNING, "\n".join(lines[1:]))]
        assert _outcome(caplog, ingest_fasta, clean)[2] == []
        assert _outcome(caplog, frame_codons, parse_fasta(clean)[0])[2] == []
        # a short record raises after one record with the lines of those before it
        error, logged = _outcome(caplog, ingest_fasta, warned + ">c\nAC\n>d\nACGNNN\n")[1:]
        assert error == (ValueError, "fewer than 3 usable bases after frame 0 (2 left)")
        assert logged == [("dnacap.sequences", logging.WARNING, "\n".join(lines))]


# --- serialization ---------------------------------------------------------------

def test_counts_json_canonical_order():
    counts = count_codons(["TAT", "TGC", "TAT"])
    data = json.loads(counts.to_json())
    assert list(data.keys()) == list(CODONS)
    assert data["TAT"] == 2 and data["TGC"] == 1 and data["AAA"] == 0


def test_counts_csv_schema():
    lines = count_codons(["AAA"]).to_csv().splitlines()
    assert lines[0] == "codon,count"
    assert lines[1] == "AAA,1"
    assert len(lines) == 65


def test_amino_pmf_csv_has_21_rows():
    pmf = amino_pmf(count_codons(["TAT", "TGC"]))
    lines = amino_pmf_to_csv(pmf).splitlines()
    assert lines[0] == "amino,probability"
    assert len(lines) == 22
    assert "Tyr,0.5" in lines


# --- equivalence with the per-character reference ---------------------------------
#
# The loops below are the reference the vectorised reader must reproduce:
# the same counts, the same log record (one per call, holding every
# record's warning lines in order) and the same errors, with their exact
# line and column.

_REF_ALLOWED = set("ACGTUN")
_REF_LOGGER = logging.getLogger("dnacap.sequences")


def reference_parse_fasta(text):
    records = []
    header = None
    chunks = []

    def flush(line_no):
        if header is None:
            return
        if not chunks:
            raise FastaError(f"record {header!r} has no sequence data (line {line_no})")
        records.append(RawSequence(header=header, bases="".join(chunks)))

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(">"):
            flush(line_no)
            header = stripped[1:].strip()
            chunks = []
            continue
        if header is None:
            raise FastaError(f"sequence data before any '>' header (line {line_no})")
        cleaned = []
        for col, ch in enumerate(line, start=1):
            if ch.isspace():
                continue
            up = ch.upper()
            if up not in _REF_ALLOWED:
                raise FastaError(f"illegal character {ch!r} at line {line_no}, column {col}")
            cleaned.append("T" if up == "U" else up)
        chunks.append("".join(cleaned))
    flush(line_no="end of input")
    return records


def reference_record_codons(bases, frame, lines):
    """The codons of one record; appends its warning lines to ``lines``."""
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1 or 2, got {frame}")
    usable = bases[frame:]
    if len(usable) < 3:
        raise ValueError(f"fewer than 3 usable bases after frame {frame} ({len(usable)} left)")
    trailing = len(usable) % 3
    if trailing:
        lines.append("dropping %d trailing base(s) beyond the last codon" % trailing)
    codons = []
    dropped_n = 0
    for i in range(0, len(usable) - 2, 3):
        codon = usable[i:i + 3]
        if "N" in codon:
            dropped_n += 1
            continue
        codons.append(codon)
    if dropped_n:
        lines.append("dropped %d codon(s) containing N" % dropped_n)
    return codons


def reference_log(lines):
    """One warning record per call, its lines in record order; none without lines."""
    if lines:
        _REF_LOGGER.warning("\n".join(lines))


def reference_frame_codons(bases, frame=0):
    lines = []
    codons = reference_record_codons(bases, frame, lines)
    reference_log(lines)
    return codons


def reference_ingest_fasta(text, frame=0):
    records = reference_parse_fasta(text)
    if not records:
        raise FastaError("no sequences found")
    counts = np.zeros(64, dtype=np.int64)
    lines = []
    try:
        for record in records:
            codons = reference_record_codons(record.bases, frame, lines)
            early_stops = sum(c in ("TAA", "TAG", "TGA") for c in codons[:-1])
            if early_stops:
                lines.append("record %r: %d stop codon(s) before the final codon"
                             % (record.header, early_stops))
            for codon in codons:
                counts[CODONS.index(codon)] += 1
    finally:
        # a short record raises after the lines of the records before it
        reference_log(lines)
    return counts


def _outcome(caplog, fn, *args, **kwargs):
    """(result, error, log records) of one call."""
    caplog.clear()
    result = error = None
    try:
        result = fn(*args, **kwargs)
    except ValueError as exc:
        error = (type(exc), str(exc))
    logged = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    return result, error, logged


def _random_record_lines(rng, name):
    codons = [rng.choice(CODONS) for _ in range(rng.randint(0, 40))]
    for _ in range(rng.choice((0, 0, 1, 3))):  # codons with an unknown base
        codon = list(rng.choice(CODONS))
        codon[rng.randrange(3)] = "N"
        codons.insert(rng.randint(0, len(codons)), "".join(codon))
    seq = "".join(codons) + "ACGT"[rng.randrange(4)] * rng.choice((0, 0, 1, 2))
    if rng.random() < 0.3:
        seq = seq.replace("T", "U")
    if rng.random() < 0.3:
        seq = seq.lower()
    elif rng.random() < 0.3:
        cut = rng.randint(0, len(seq))
        seq = seq[:cut] + seq[cut:].lower()
    if rng.random() < 0.1:  # illegal, non-ASCII and multi-letter-uppercase characters
        at = rng.randint(0, len(seq))
        seq = seq[:at] + rng.choice("X*-.0>éßıſ") + seq[at:]
    width = rng.randint(1, 25)
    lines = [f"{' ' * rng.randint(0, 1)}>{name} description {rng.randint(0, 9)}"]
    for i in range(0, len(seq), width):
        line = seq[i:i + width]
        if rng.random() < 0.2:
            at = rng.randint(0, len(line))
            line = line[:at] + rng.choice(("\t", " ", " ", "　")) + line[at:]
        lines.append(line + rng.choice(("", "", " ", "\t")))
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "  ", "\t")))
    return lines


def benchmark_like_fasta(rng):
    """Records of 300-600 codons wrapped at 50-120, shaped like the benchmark's gene sets."""
    lines = []
    for r in range(rng.randint(2, 5)):
        codons = [rng.choice(CODONS) for _ in range(rng.randint(300, 600))]
        for _ in range(rng.choice((0, 1, 2))):
            at = rng.randrange(len(codons))
            codons[at] = codons[at][:1] + "N" + codons[at][2:]
        seq = "".join(codons) + "ACGT"[rng.randrange(4)] * rng.choice((0, 0, 0, 1, 2))
        if rng.random() < 0.2:
            seq = seq.replace("T", "U")
        if rng.random() < 0.3:
            seq = seq.lower()
        elif rng.random() < 0.2:
            cut = rng.randrange(len(seq))
            seq = seq[:cut] + seq[cut:].lower()
        width = rng.choice((50, 60, 61, 70, 75, 80, 100, 120))
        lines.append(f">gene_{r} seeded gene {r}")
        lines += [seq[i:i + width] for i in range(0, len(seq), width)]
        if rng.random() < 0.2:
            lines.append("")
    return "\n".join(lines) + "\n"


def random_fasta(rng):
    lines = []
    if rng.random() < 0.05:
        lines.append("ACGT")  # data before any header
    for r in range(rng.randint(1, 5)):
        lines += _random_record_lines(rng, f"rec{r}")
    newline = rng.choice(("\n", "\r\n", "\r\n", "\r"))
    return newline.join(lines) + (newline if rng.random() < 0.8 else "")


# every error and warning the reader has; the seeded inputs must reach each
OUTCOMES = ("before any '>'", "has no sequence data", "illegal character", "fewer than 3",
            "trailing base", "containing N", "before the final codon")


def test_ingestion_matches_per_character_reference(caplog):
    rng = random.Random(4)
    messages = set()
    # stops before a final N codon, records of N codons only, a header in
    # the middle of a line and a line separator inside a record
    fixed = [">a\nTAAGCATAANNN\n>b\nNNNANN\n>c\nTGAT\n", ">a\nACGT>b\n", ">a\nAC\u2028GTT\n"]
    # a header or data after each other line separator, in a body and in a
    # header line; indented headers; a '>' inside or ending a header line; a
    # body of blank lines; CRLF; no final newline; a header that str.strip()
    # empties but bytes.strip() does not
    for sep in "\r\x0b\x0c\x1c\x85\u2029":
        fixed += [f">a\nACGTTT{sep}>b\nGGCAAT\n", f">a{sep}>b\nACGTTT\n", f">a{sep}ACG\nTTT\n"]
    fixed += [">a\nACGTTT\n \t>h\nGGCAAT\n", " \t>h\nACGTTT\n", ">a>b\nACGTTT\n", ">a\nACGTTT\n>",
              ">a\n\n \n\t\n>b\nACGTTT\n", ">a\r\nTAAGCA\r\nTAANNNG\r\n\r\n>b\r\nACGTTT\r\n",
              ">a\nACGTTT\n>b\nGGCAAT", ">\x1f\nACGTTT\n"]
    fixed += [benchmark_like_fasta(rng) for _ in range(10)]
    with caplog.at_level(logging.WARNING, logger="dnacap.sequences"):
        for text in fixed + [random_fasta(rng) for _ in range(400)]:
            parsed = _outcome(caplog, parse_fasta, text)
            assert parsed == _outcome(caplog, reference_parse_fasta, text)
            for frame in (0, 1, 2):
                new = _outcome(caplog, ingest_fasta, text, frame)
                ref = _outcome(caplog, reference_ingest_fasta, text, frame)
                assert new[1:] == ref[1:]
                if ref[0] is not None:
                    assert np.array_equal(new[0].counts, ref[0])
                messages.update(message for _, _, message in ref[2])
                messages.add(ref[1][1] if ref[1] else "")
                for record in parsed[0] or []:
                    new = _outcome(caplog, frame_codons, record, frame)
                    ref = _outcome(caplog, reference_frame_codons, record.bases, frame)
                    assert new == ref
    assert all(any(o in m for m in messages) for o in OUTCOMES)


def test_canonical_text_skips_the_general_parser(monkeypatch, caplog):
    texts = [(DATA / name).read_text() for name in ("toy_gene_a.fasta", "toy_gene_b.fasta")]

    def general_parser(text):
        raise AssertionError("canonical text reached parse_fasta")

    monkeypatch.setattr(sequences, "parse_fasta", general_parser)
    for text, expected in zip(texts, (TOY_A_COUNTS, TOY_B_COUNTS)):
        counts = ingest_fasta(text)
        assert {CODONS[i]: int(n) for i, n in enumerate(counts.counts) if n} == expected
    # a CR-only copy is not canonical: the general parser reads it
    seen = []
    monkeypatch.setattr(sequences, "parse_fasta",
                        lambda text: seen.append(text) or parse_fasta(text))
    with caplog.at_level(logging.WARNING, logger="dnacap.sequences"):
        for text in texts:
            cr_only = text.replace("\n", "\r")
            new = _outcome(caplog, ingest_fasta, cr_only)
            ref = _outcome(caplog, reference_ingest_fasta, cr_only)
            assert new[1:] == ref[1:]
            assert np.array_equal(new[0].counts, ref[0])
    assert seen == [text.replace("\n", "\r") for text in texts]


def test_frame_codons_rejects_non_bases_in_raw_strings():
    # a raw string is not cleaned: lower case or other letters in a codon
    # raise here, where they used to pass through to count_codons
    with pytest.raises(ValueError, match=r"not a base: 'a' at offset 4"):
        frame_codons("ACGTac")
    with pytest.raises(ValueError, match=r"not a base: 'X' at offset 2"):
        frame_codons("TAXTGC", frame=1)
    with pytest.raises(ValueError, match=r"not a base: 'é' at offset 0"):
        frame_codons("éCGTTT")
    # only codons are read: skipped leading and dropped trailing bases are not
    assert frame_codons("xTATx", frame=1) == ["TAT"]


def test_count_codons_rejects_the_first_non_codon():
    with pytest.raises(ValueError, match="not a codon: 'acg'"):
        count_codons(["TAT", "acg", "XYZ"])
