"""
Side-informed rates for protein-coding hosts
============================================

Embedding in coding DNA must preserve the protein, so the embedder may
only swap synonymous codons: a coding-with-side-information problem.
This script ingests a small gene, derives its amino-acid pmf and codon
usage, and compares three per-codon rates as mutations accumulate:

* the optimized rate (certified by its duality gap: Blahut-Arimoto, then
  Newton steps),
* the uniform-conditional approximation,
* the steganographic rate, which pegs codon usage to the host's own.
"""

from dnacap import (
    ChannelParams,
    amino_pmf,
    ba_optimize,
    codon_usage,
    ingest_fasta,
    rate_q0,
    rate_uniform_host,
    steganographic_rate,
    uniform_codon_host,
    uniform_conditional_rate,
)
from dnacap.genetic_code import AMINO_ACIDS

# Any FASTA text works here; real runs would read a gene file instead.
GENE = """\
>demo-gene
ATGGCAGCCGCTTGCTGTTCATCAAGCAGTCTGTTATACTAA
"""

counts = ingest_fasta(GENE)
host = amino_pmf(counts)
usage = codon_usage(counts)

print("host amino pmf (nonzero):")
for amino, p in zip(AMINO_ACIDS, host):
    if p:
        print(f"  {amino}: {p:.4f}")

# Without mutations the optimized rate has a closed form: the average
# log-multiplicity of the host's synonym sets.
print("\nrate at q=0 (closed form):", round(rate_q0(host), 4), "bits/codon")

print("\nrates vs mutation depth (q=1e-3, gamma=0.3):")
print("        m |  optimized |  uniform-cond |  steganographic")
for m in (1, 10, 100, 1_000, 10_000):
    params = ChannelParams(q=1e-3, gamma=0.3, m=m)
    best = ba_optimize(host, params).rate
    unif = uniform_conditional_rate(host, params).rate
    steg = steganographic_rate(usage, host, params).rate
    print(f"{m:>9} | {best:>10.5f} | {unif:>13.5f} | {steg:>15.5f}")

# The uniform conditional is nearly optimal; pegging the host's (skewed)
# codon statistics costs real rate.  For the host induced by uniform
# codons the optimized rate collapses to a closed form:
params = ChannelParams(q=1e-3, gamma=0.3, m=100)
print("\nuniform-codon host at m=100:",
      round(ba_optimize(uniform_codon_host(), params).rate, 6), "(optimizer)",
      round(rate_uniform_host(params), 6), "(closed form)")
