import numpy as np
import pytest

from dnacap import genetic_code as gc


def test_base_order_and_categories():
    assert gc.BASES == "ACTG"
    assert gc.PURINES == {"A", "G"}
    assert gc.PYRIMIDINES == {"C", "T"}
    assert gc.PURINES | gc.PYRIMIDINES == set(gc.BASES)


def test_codon_index_round_trip():
    for i in range(64):
        assert gc.codon_index(gc.codon_from_index(i)) == i
    assert gc.codon_index("AAA") == 0
    assert gc.codon_index("GGG") == 63
    assert gc.codon_index("ACG") == 0 * 16 + 1 * 4 + 3


@pytest.mark.parametrize("codon,amino", [("ATG", "Met"), ("TAA", "Stp"), ("GCG", "Ala")])
def test_codon_to_amino_examples(codon, amino):
    assert gc.codon_to_amino(codon) == amino


def test_synonym_set_examples():
    assert gc.synonym_set("Ser") == ("AGC", "AGT", "TCA", "TCC", "TCT", "TCG")
    assert gc.synonym_set("Met") == ("ATG",)
    assert gc.synonym_set("Stp") == ("TAA", "TAG", "TGA")


def test_translate():
    assert gc.translate(["TAT", "TGC"]) == ["Tyr", "Cys"]
    assert gc.translate([]) == []
    assert gc.translate(["ATG", "TAA"]) == ["Met", "Stp"]


def test_every_codon_in_its_synonym_set():
    for codon in gc.CODONS:
        assert codon in gc.synonym_set(gc.codon_to_amino(codon))


def test_synonym_sets_partition_the_codons():
    seen = [c for a in gc.AMINO_ACIDS for c in gc.synonym_set(a)]
    assert len(seen) == 64
    assert set(seen) == set(gc.CODONS)
    assert sum(gc.MULTIPLICITY.values()) == 64


def test_multiplicities():
    expected = {
        "Ala": 4, "Arg": 6, "Asn": 2, "Asp": 2, "Cys": 2, "Gln": 2, "Glu": 2,
        "Gly": 4, "His": 2, "Ile": 3, "Leu": 6, "Lys": 2, "Met": 1, "Phe": 2,
        "Pro": 4, "Ser": 6, "Thr": 4, "Trp": 1, "Tyr": 2, "Val": 4, "Stp": 3,
    }
    assert gc.MULTIPLICITY == expected
    assert gc.MULTIPLICITIES.sum() == 64
    assert len(gc.AMINO_ACIDS) == 21


def test_vectorized_tables_consistent():
    for amino, idx in zip(gc.AMINO_ACIDS, gc.SYNONYM_INDICES):
        assert [gc.CODONS[i] for i in idx] == list(gc.synonym_set(amino))
        assert (gc.AMINO_OF_CODON[idx] == gc.AMINO_INDEX[amino]).all()
    assert np.bincount(gc.AMINO_OF_CODON, minlength=21).tolist() == gc.MULTIPLICITIES.tolist()


def test_invalid_inputs():
    with pytest.raises(ValueError):
        gc.codon_to_amino("AXA")
    with pytest.raises(ValueError):
        gc.codon_index("AT")
    with pytest.raises(ValueError):
        gc.synonym_set("Foo")
    with pytest.raises(ValueError):
        gc.codon_from_index(64)


def test_synonym_sums_match_the_per_set_loop_bitwise():
    rng = np.random.default_rng(3)
    for values in (rng.random(64), rng.integers(0, 1000, 64), 1e-300 * rng.random(64)):
        loop = np.array([float(values[idx].sum()) for idx in gc.SYNONYM_INDICES])
        assert gc.synonym_sums(values).tobytes() == loop.tobytes()
    with pytest.raises(ValueError):
        gc.synonym_sums(np.ones(63))
