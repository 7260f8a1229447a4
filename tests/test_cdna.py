import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from dnacap.cdna import (
    SingularSystemError,
    ba_optimize,
    ba_partitioned,
    capacity_c,
    deterministic_rate,
    entropy_bits,
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
from dnacap.genetic_code import AMINO_ACIDS, AMINO_INDEX, MULTIPLICITIES, SYNONYM_INDICES
from dnacap.mutation_channel import ChannelParams
from dnacap.ncdna import capacity_nc
from dnacap.sequences import amino_pmf, codon_usage, ingest_fasta

DATA = Path(__file__).parent / "data"

LOG2_6 = math.log2(6.0)                  # 2.5849625007211562
UNIFORM_RATE_Q0 = 1.7818609377704338     # E[log2 |synonyms|] under uniform codons
UNIFORM_HOST_ENTROPY = 4.218139062229566


@pytest.fixture(scope="module")
def gene_a():
    counts = ingest_fasta((DATA / "toy_gene_a.fasta").read_text())
    return amino_pmf(counts), codon_usage(counts)


@pytest.fixture(scope="module")
def gene_b_host():
    return amino_pmf(ingest_fasta((DATA / "toy_gene_b.fasta").read_text()))


# --- helpers and pmf constructors -------------------------------------------

def test_uniform_codon_host_is_multiplicity_over_64():
    host = uniform_codon_host()
    assert host.sum() == pytest.approx(1.0, abs=1e-15)
    assert host[AMINO_INDEX["Ser"]] == pytest.approx(6 / 64, abs=1e-15)
    assert entropy_bits(host) == pytest.approx(UNIFORM_HOST_ENTROPY, abs=1e-12)


def test_uniform_conditional_blocks_sum_to_one():
    cond = uniform_conditional()
    for idx in SYNONYM_INDICES:
        assert cond[idx].sum() == pytest.approx(1.0, abs=1e-12)


# --- evaluate_rate -----------------------------------------------------------

def test_evaluate_rate_single_codon_host_is_zero():
    # |synonyms(Met)| = 1, so I(Z;U) = 0 = H(X') whatever the conditional
    params = ChannelParams(0.05, 0.6, 4)
    skewed = uniform_conditional()
    ser = SYNONYM_INDICES[AMINO_INDEX["Ser"]]
    skewed[ser] = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    for cond in (uniform_conditional(), skewed):
        result = evaluate_rate(point_mass_host("Met"), cond, params)
        assert result.rate == 0.0
        assert result.mutual_information == pytest.approx(0.0, abs=1e-12)
        assert result.host_entropy == 0.0


def test_evaluate_rate_catastrophic_point(gene_a):
    host, _ = gene_a
    params = ChannelParams(0.75, 1.0, 2)
    for h in (host, uniform_codon_host(), point_mass_host("Ser")):
        result = evaluate_rate(h, uniform_conditional(), params)
        assert result.rate == 0.0
        assert result.mutual_information == pytest.approx(0.0, abs=1e-12)


def test_evaluate_rate_uniform_everything_q0():
    result = evaluate_rate(uniform_codon_host(), uniform_conditional(),
                           ChannelParams(0.0, 1.0, 1))
    assert result.rate == pytest.approx(UNIFORM_RATE_Q0, abs=1e-12)
    assert result.host_entropy == pytest.approx(UNIFORM_HOST_ENTROPY, abs=1e-12)
    assert result.iterations == 0 and result.converged


def test_evaluate_rate_clamps_but_reports_raw_information():
    result = evaluate_rate(uniform_codon_host(), uniform_conditional(),
                           ChannelParams(0.75, 1.0, 1))
    assert result.rate == 0.0
    assert result.mutual_information - result.host_entropy < 0.0


def test_evaluate_rate_input_validation(gene_a):
    host, _ = gene_a
    params = ChannelParams(0.01, 1.0, 1)
    with pytest.raises(ValueError):
        evaluate_rate(np.ones(20) / 20, uniform_conditional(), params)
    with pytest.raises(ValueError):
        evaluate_rate(host, np.ones(63), params)
    with pytest.raises(ValueError):
        evaluate_rate(np.ones(21), uniform_conditional(), params)  # sums to 21
    broken = uniform_conditional()
    broken[SYNONYM_INDICES[AMINO_INDEX["Ser"]]] = 0.0
    with pytest.raises(ValueError):
        evaluate_rate(uniform_codon_host(), broken, params)
    # blocks of aminos the host never emits are not checked
    host_no_ser = point_mass_host("Ala")
    evaluate_rate(host_no_ser, broken, params)


def decimal_ser_information(q, gamma, m):
    """I(Z;U) in bits for the Ser host under the uniform conditional.

    Reference in 60-digit decimal arithmetic, from the channel's own
    eigenvalues: the m-stage base entries, their threefold products and
    the divergences of the six Ser rows from their mean.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        q, gamma = Decimal(q), Decimal(gamma)
        lam = (1 - 4 * gamma / 3 * q) ** m
        mu = (1 - 2 * (1 - gamma / 3) * q) ** m
        diag, within, other = (1 + 2 * mu + lam) / 4, (1 - 2 * mu + lam) / 4, (1 - lam) / 4

        def base(i, j):
            return diag if i == j else within if i + j == 3 else other

        rows = [[base(u // 16, z // 16) * base(u // 4 % 4, z // 4 % 4) * base(u % 4, z % 4)
                 for z in range(64)]
                for u in SYNONYM_INDICES[AMINO_INDEX["Ser"]]]
        p_out = [sum(row[z] for row in rows) / len(rows) for z in range(64)]
        info = sum(w * (w / p_out[z]).ln() for row in rows for z, w in enumerate(row))
        return float(info / len(rows) / Decimal(2).ln())


@pytest.mark.parametrize("q,m", [(1e-2, m) for m in (1, 300, 5000, 11000, 11125, 20000)]
                         + [(1e-9, m) for m in (1, 10**3, 10**6, 10**9)])
def test_evaluate_rate_matches_decimal_reference(q, m):
    # spans shallow cascades (tiny channel entries), the depths where rates
    # fall through machine epsilon, and deep cascades (rates near 1e-24)
    result = evaluate_rate(point_mass_host("Ser"), uniform_conditional(),
                           ChannelParams(q, 0.1, m))
    assert result.mutual_information == pytest.approx(
        decimal_ser_information(q, 0.1, m), rel=1e-9, abs=0.0)


# --- Blahut-Arimoto ----------------------------------------------------------

def test_ba_no_mutation_recovers_expected_rate(gene_a):
    host, _ = gene_a
    result = ba_optimize(host, ChannelParams(0.0, 0.5, 1))
    assert result.rate == pytest.approx(rate_q0(host), abs=1e-9)
    assert result.converged
    # maximizer is uniform within every synonym set the host uses
    for ai, idx in enumerate(SYNONYM_INDICES):
        if host[ai] > 0:
            assert np.allclose(result.conditional[idx], 1.0 / len(idx), atol=1e-9)


def test_ba_uniform_host_equals_closed_form_grid():
    host = uniform_codon_host()
    for q in (1e-3, 1e-1):
        for gamma in (0.1, 1.0):
            for m in (1, 10, 100):
                params = ChannelParams(q, gamma, m)
                result = ba_optimize(host, params)
                assert result.rate == pytest.approx(rate_uniform_host(params), abs=1e-6)
                assert result.mutual_information == pytest.approx(
                    3.0 * capacity_nc(params).value, abs=1e-6
                )


def test_ba_conditionals_near_uniform_for_small_synonym_sets(gene_a):
    # the uniform conditional is nearly optimal for multiplicities 1, 2, 4
    host, _ = gene_a
    result = ba_optimize(host, ChannelParams(1e-2, 0.1, 10), tol=1e-12)
    for ai, idx in enumerate(SYNONYM_INDICES):
        if host[ai] > 0 and MULTIPLICITIES[ai] in (1, 2, 4):
            assert np.abs(result.conditional[idx] - 1.0 / len(idx)).max() < 0.05


@pytest.mark.parametrize("q", [1e-9, 1e-100])
def test_ba_shallow_cascade_keeps_tiny_channel_entries(q):
    # entries near (q/3)**3 vanish from 1/64 + deviation; they must still
    # enter the divergences, or the optimizer never converges; at q=1e-100
    # (entries near 1e-302) they must not overflow the kernel either
    result = ba_optimize(point_mass_host("Ser"), ChannelParams(q, 1.0, 1))
    assert result.converged
    assert result.rate == pytest.approx(LOG2_6, abs=1e-6)


def test_ba_reports_non_convergence_without_raising(gene_a):
    host, _ = gene_a
    result = ba_optimize(host, ChannelParams(0.05, 0.3, 3), max_iter=1)
    assert not result.converged
    assert result.iterations == 1


def test_ba_rejects_bad_controls(gene_a):
    host, _ = gene_a
    with pytest.raises(ValueError):
        ba_optimize(host, ChannelParams(0.01, 1.0, 1), tol=0.0)
    with pytest.raises(ValueError):
        ba_optimize(host, ChannelParams(0.01, 1.0, 1), max_iter=0)


def test_ba_dominates_fixed_conditionals(gene_a, gene_b_host):
    host_a, usage_a = gene_a
    rng = np.random.default_rng(41)
    for host in (host_a, gene_b_host, uniform_codon_host()):
        for _ in range(4):
            params = ChannelParams(q=float(rng.uniform(0, 0.3)),
                                   gamma=float(rng.uniform(0.05, 1.0)),
                                   m=int(rng.integers(1, 300)))
            best = ba_optimize(host, params).rate
            assert uniform_conditional_rate(host, params).rate <= best + 1e-9
    for m in (1, 100, 10_000):
        params = ChannelParams(1e-3, 0.2, m)
        assert steganographic_rate(usage_a, host_a, params).rate \
            <= ba_optimize(host_a, params).rate + 1e-9


def test_rate_bounded_by_noncoding_capacity_and_q0(gene_a):
    host, _ = gene_a
    rng = np.random.default_rng(43)
    for _ in range(8):
        params = ChannelParams(q=float(rng.uniform(0, 0.5)),
                               gamma=float(rng.uniform(0, 1.5)),
                               m=int(rng.integers(0, 1000)))
        result = ba_optimize(host, params)
        assert 0.0 <= result.rate <= 3.0 * capacity_nc(params).value + 1e-9
        assert result.rate <= rate_q0(host) + 1e-9
        assert result.rate == pytest.approx(
            max(0.0, result.mutual_information - result.host_entropy), abs=1e-15
        )


# --- closed forms ------------------------------------------------------------

def test_rate_q0_examples():
    assert rate_q0(point_mass_host("Ser")) == pytest.approx(LOG2_6, abs=1e-12)
    assert rate_q0(point_mass_host("Met")) == 0.0
    assert rate_q0(uniform_codon_host()) == pytest.approx(UNIFORM_RATE_Q0, abs=1e-12)


def test_rate_uniform_host_examples():
    assert rate_uniform_host(ChannelParams(0.0, 1.0, 1)) == pytest.approx(
        UNIFORM_RATE_Q0, abs=1e-12
    )
    assert rate_uniform_host(ChannelParams(0.75, 1.0, 1)) == 0.0
    params = ChannelParams(0.01, 1.0, 1)
    assert rate_uniform_host(params) == pytest.approx(
        ba_optimize(uniform_codon_host(), params).rate, abs=1e-6
    )


def test_uniform_conditional_rate_equals_q0_closed_form(gene_a, gene_b_host):
    host_a, _ = gene_a
    for host in (host_a, gene_b_host, uniform_codon_host()):
        result = uniform_conditional_rate(host, ChannelParams(0.0, 0.7, 1))
        assert result.rate == pytest.approx(rate_q0(host), abs=1e-12)


def test_uniform_conditional_tracks_ba_within_plotting_distance(gene_b_host):
    for m in (1, 10, 100, 1000):
        params = ChannelParams(1e-2, 1.0, m)
        gap = ba_optimize(gene_b_host, params).rate \
            - uniform_conditional_rate(gene_b_host, params).rate
        assert 0.0 <= gap + 1e-12 and gap <= 0.02


# --- codon statistics preservation --------------------------------------------

def test_steganographic_uniform_usage_matches_closed_form():
    params = ChannelParams(1e-2, 1.0, 3)
    result = steganographic_rate(uniform_conditional(), uniform_codon_host(), params)
    assert result.rate == pytest.approx(rate_uniform_host(params), abs=1e-12)


def test_steganographic_strictly_below_optimum_for_skewed_usage(gene_a):
    host, usage = gene_a
    params = ChannelParams(1e-5, 0.1, 1000)
    steg = steganographic_rate(usage, host, params).rate
    best = ba_optimize(host, params).rate
    assert steg < best - 0.1  # the fixture's usage is heavily skewed


def test_steganographic_rejects_inconsistent_usage(gene_a):
    host, usage = gene_a
    broken = usage.copy()
    broken[SYNONYM_INDICES[AMINO_INDEX["Ser"]]] = 0.0  # host emits Ser
    with pytest.raises(ValueError):
        steganographic_rate(broken, host, ChannelParams(0.01, 1.0, 1))


# --- deterministic hosts -------------------------------------------------------

def test_deterministic_single_codon_aminos_are_zero():
    for amino in ("Met", "Trp"):
        for params in (ChannelParams(0.0, 1.0, 1), ChannelParams(0.3, 0.5, 50)):
            for method in ("ba", "uniform", "linearized"):
                assert deterministic_rate(amino, params, method).rate == 0.0


def test_deterministic_ser_no_mutation():
    assert deterministic_rate("Ser", ChannelParams(0.0, 1.0, 1)).rate == pytest.approx(
        LOG2_6, abs=1e-9
    )


def test_deterministic_methods_agree_at_moderate_noise():
    params = ChannelParams(1e-2, 0.1, 100)
    ba = deterministic_rate("Leu", params, "ba").rate
    lin = deterministic_rate("Leu", params, "linearized").rate
    assert abs(ba - lin) < 1e-2


def test_deterministic_rate_monotone_in_m():
    for amino in ("Ser", "Ile"):
        rates = [deterministic_rate(amino, ChannelParams(0.05, 0.4, m)).rate
                 for m in (0, 1, 2, 5, 10, 20, 50, 100, 200)]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))


def test_deterministic_rejects_unknown_method():
    with pytest.raises(ValueError):
        deterministic_rate("Ser", ChannelParams(0.01, 1.0, 1), method="magic")


def test_rate_droop_for_stop_and_leucine():
    params = ChannelParams(1e-2, 0.1, 100)
    rate = {a: deterministic_rate(a, params).rate
            for a in ("Ser", "Leu", "Arg", "Ile", "Stp")}
    assert rate["Leu"] < min(rate["Ser"], rate["Arg"])  # same multiplicity 6
    assert rate["Stp"] < rate["Ile"]                    # same multiplicity 3


# --- linearized conditional ----------------------------------------------------

def test_linearized_no_mutation_is_uniform():
    # channel rows are orthonormal indicators, so the system is the identity
    pi = linearized_conditional("Ser", ChannelParams(0.0, 1.0, 1))
    assert np.allclose(pi, 1.0 / 6, atol=1e-12)


def test_linearized_is_valid_pmf():
    # deep cascades legitimately degenerate (synonym rows collapse), in
    # which case the explicit singularity error is the contract; every
    # solvable sample must come back as a clean pmf
    rng = np.random.default_rng(47)
    solved = 0
    for _ in range(30):
        params = ChannelParams(q=float(rng.uniform(0, 0.4)),
                               gamma=float(rng.uniform(0.05, 1.5)),
                               m=int(rng.integers(1, 30)))
        amino = AMINO_ACIDS[int(rng.integers(0, 21))]
        try:
            pi = linearized_conditional(amino, params)
        except SingularSystemError:
            continue
        solved += 1
        assert pi.min() >= 0.0
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi.size == MULTIPLICITIES[AMINO_INDEX[amino]]
    assert solved >= 20


def test_linearized_close_to_ba_distribution():
    params = ChannelParams(1e-2, 0.1, 100)
    idx = SYNONYM_INDICES[AMINO_INDEX["Leu"]]
    lin = linearized_conditional("Leu", params)
    ba = ba_optimize(point_mass_host("Leu"), params, tol=1e-13).conditional[idx]
    assert 0.5 * np.abs(lin - ba).sum() < 0.02  # total-variation distance


def test_linearized_singular_system_raises():
    # mu vanishes at q = 3/(2*(3-gamma)): synonym rows collapse pairwise
    with pytest.raises(SingularSystemError):
        linearized_conditional("Lys", ChannelParams(0.6, 0.5, 1))
    # lam = mu = 0 at the catastrophic point: all rows identical
    with pytest.raises(SingularSystemError):
        linearized_conditional("Ser", ChannelParams(0.75, 1.0, 1))


# --- capacity search -----------------------------------------------------------

def test_capacity_no_mutation_three_way_tie():
    result = capacity_c(ChannelParams(0.0, 1.0, 1))
    assert result.rate == pytest.approx(LOG2_6, abs=1e-3)
    assert result.best_amino in ("Ser", "Leu", "Arg")
    for amino in ("Ser", "Leu", "Arg"):
        assert result.per_amino[AMINO_INDEX[amino]] == pytest.approx(LOG2_6, abs=1e-9)


def test_capacity_catastrophic_point_is_flat_zero():
    result = capacity_c(ChannelParams(0.75, 1.0, 1))
    assert result.rate == 0.0
    assert np.array_equal(result.per_amino, np.zeros(21))


def test_capacity_reports_stop_symbol_but_can_exclude_it():
    params = ChannelParams(1e-2, 0.1, 100)
    with_stp = capacity_c(params)
    without = capacity_c(params, include_stp=False)
    assert np.allclose(with_stp.per_amino, without.per_amino, atol=1e-12)
    assert with_stp.per_amino[AMINO_INDEX["Stp"]] > 0.0
    assert without.best_amino == with_stp.best_amino == "Ser"


# --- generic engine on a reduced synthetic code ---------------------------------

def synthetic_code():
    # two-letter alphabet, length-2 codons, two "aminos" with mixed synonym
    # sets; per-position channels are deliberately asymmetric so the optimal
    # conditionals are not uniform
    first = np.array([[0.85, 0.15], [0.25, 0.75]])
    second = np.array([[0.95, 0.05], [0.10, 0.90]])
    channel = np.kron(first, second)
    groups = [np.array([0, 3]), np.array([1, 2])]
    host = np.array([0.3, 0.7])
    return channel, groups, host


def grid_search_information(channel, groups, host, step):
    # oracle: exhaustive search over both 2-point conditionals
    grid = np.arange(0.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    p_in = np.empty((a.size, 4))
    p_in[:, groups[0][0]] = host[0] * a.ravel()
    p_in[:, groups[0][1]] = host[0] * (1.0 - a.ravel())
    p_in[:, groups[1][0]] = host[1] * b.ravel()
    p_in[:, groups[1][1]] = host[1] * (1.0 - b.ravel())
    p_out = p_in @ channel
    info = np.zeros(a.size)
    log_channel = np.log2(channel)
    for u in range(4):
        info += p_in[:, u] * (channel[u] * (log_channel[u] - np.log2(p_out))).sum(axis=1)
    return info.max()


def test_ba_matches_grid_search_on_synthetic_code():
    channel, groups, host = synthetic_code()
    result = ba_partitioned(channel, groups, host, tol=1e-14)
    oracle = grid_search_information(channel, groups, host, step=1e-2)
    assert result.converged
    assert abs(result.mutual_information - oracle) < 1e-3
    # the asymmetric channel pulls the optimum away from uniform
    assert np.abs(result.conditional - 0.5).max() > 0.01


def test_ba_partitioned_zero_mass_group_keeps_uniform_conditional():
    channel, groups, _ = synthetic_code()
    result = ba_partitioned(channel, groups, np.array([1.0, 0.0]), tol=1e-14)
    assert np.allclose(result.conditional[groups[1]], 0.5, atol=1e-15)
    assert result.host_entropy == 0.0
