"""Embedding capacity of DNA hosts under Kimura substitution mutations.

Freely writable (noncoding) hosts see a quaternary symmetric channel with
a closed-form capacity; protein-coding hosts constrain the embedder to
synonymous codons, turning the problem into coding with side information
whose rates this package evaluates and maximizes.
"""

from .cdna import (
    CodingCapacity,
    RateResult,
    SingularSystemError,
    ba_optimize,
    ba_partitioned,
    capacity_c,
    deterministic_rate,
    evaluate_rate,
    linearized_conditional,
    point_mass_host,
    rate_q0,
    rate_uniform_host,
    steganographic_rate,
    uniform_codon_host,
    uniform_conditional,
    uniform_conditional_rate,
)
from .mutation_channel import (
    ChannelParams,
    Eigenpair,
    accumulated_rate,
    base_matrix_power,
    build_base_matrix,
    codon_matrix,
    codon_matrix_deviations,
    eigenvalues,
    gamma_from_ti_tv,
    simulate_chain,
)
from .ncdna import (
    CapacityResult,
    bounds_check,
    capacity_nc,
    capacity_nc_gamma0,
    cutoff_estimate,
    entropy_bits,
    row_entropy,
)
from .sequences import (
    CodonCounts,
    FastaError,
    RawSequence,
    amino_pmf,
    codon_usage,
    count_codons,
    frame_codons,
    ingest_fasta,
    parse_fasta,
)

__version__ = "0.1.0"
