"""Every point mass of the figure bundle's det_aminos grids against the benchmark's oracle.

``benchmarks/oracle.py`` computes I and the duality bound of a conditional
from first principles, apart from the package; it is read here, never
written (its source is executed into a fresh module, so no bytecode lands
beside it).  At each grid point every multi-codon point mass is held to it
at the conditional its run returns, for the orbit solver's five (Ile, Leu,
Arg, Ser, Stp) and the 14 closed forms alike: I and the bound within 1e-6
relative, with no absolute floor.  The same holds for the point mass given
as a Python list to ``ba_optimize``; Met and Trp must give I = bound = 0;
``capacity_c``'s table must equal the rates bit for bit; and each grid point
is computed again in reverse amino order from fresh constants before each
amino, so an orbit amino asked first solves the stack of five, and each
run must keep its bytes.
"""

from __future__ import annotations

import types
from pathlib import Path

import numpy as np
import pytest

from dnacap import cdna, cli
from dnacap.genetic_code import AMINO_ACIDS, MULTIPLICITIES
from dnacap.mutation_channel import ChannelParams

ORACLE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "oracle.py"


def load_oracle() -> types.ModuleType:
    module = types.ModuleType("benchmark_oracle")
    exec(compile(ORACLE_PATH.read_text(), str(ORACLE_PATH), "exec"), module.__dict__)
    return module


oracle = load_oracle()
SINGLE = [a for a, n in zip(AMINO_ACIDS, MULTIPLICITIES) if n == 1]


def run_bytes(run):
    return (np.array([run.rate, run.mutual_information, run.gap_bits]).tobytes(),
            run.conditional.tobytes(), run.iterations, run.converged)


@pytest.mark.parametrize("q, top", [(1e-2, 10**5), (1e-9, 10**12)])
@pytest.mark.parametrize("gamma", [1.0, 0.1])
def test_det_aminos_point_masses_match_the_oracle(q, top, gamma):
    missed, lists, zeros, tables, repeats = [], [], [], [], []
    grid = cli.log_m_grid(1, top, 25)
    for m in grid:
        params = ChannelParams(q, gamma, m)
        channel = oracle.CodonChannel(q, gamma, m)
        rates, first = [], {}
        for amino in AMINO_ACIDS:
            host = [float(a == amino) for a in oracle.AMINO_ORDER]
            listed = cdna.ba_optimize(host, params)
            result = cdna.deterministic_rate(amino, params)
            first[amino] = run_bytes(result)
            rates.append(result.rate)
            if amino in SINGLE:
                info, bound = oracle.information_and_bound(host, listed.conditional, channel)
                if (listed.mutual_information, info, bound) != (0.0, 0.0, 0.0):
                    zeros.append((amino, m, listed.mutual_information, info, bound))
                continue
            for run, out in ((result, missed), (listed, lists)):
                info, bound = oracle.information_and_bound(host, run.conditional, channel)
                value = run.mutual_information
                if abs(value - info) > 1e-6 * info or bound - value > 1e-6 * bound:
                    out.append((amino, m, value, info, bound))
        if cdna.capacity_c(params).per_amino.tobytes() != np.array(rates).tobytes():
            tables.append(m)
        for amino in reversed(AMINO_ACIDS):
            cdna._constants.cache_clear()
            if run_bytes(cdna.deterministic_rate(amino, params)) != first[amino]:
                repeats.append((amino, m))
    assert len(grid) == 25
    assert missed == [], "point-mass rows outside the oracle's 1e-6"
    assert lists == [], "point masses given as lists outside the oracle's 1e-6"
    assert zeros == [], "single-codon point masses not at I = bound = 0"
    assert tables == [], "capacity tables that differ from the rates"
    assert repeats == [], "runs not repeated bit for bit from fresh constants"
