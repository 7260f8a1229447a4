import math
import re
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from dnacap import cdna
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
from dnacap.genetic_code import (
    AMINO_ACIDS,
    AMINO_INDEX,
    AMINO_OF_CODON,
    BASE_INDEX,
    MULTIPLICITIES,
    SYNONYM_INDICES,
    SYNONYMS,
)
from dnacap.mutation_channel import ChannelParams, base_matrix_power, codon_matrix
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


def test_block_checks_name_the_first_failing_amino(gene_a):
    params = ChannelParams(0.01, 1.0, 1)
    broken = uniform_conditional()
    broken[SYNONYM_INDICES[AMINO_INDEX["Ser"]]] = 0.25  # sums to 1.5
    broken[SYNONYM_INDICES[AMINO_INDEX["Arg"]]] = 0.0
    message = "conditional for Arg sums to 0.0, expected 1 (host mass 0.09375)"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_rate(uniform_codon_host(), broken, params)
    message = "conditional for Ser sums to 1.5, expected 1 (host mass 1.0)"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_rate(point_mass_host("Ser"), broken, params)

    host, usage = gene_a
    undefined = usage.copy()
    for amino in ("Ser", "Leu", "Met"):  # Leu comes first in amino order
        assert host[AMINO_INDEX[amino]] > 0.0
        undefined[SYNONYM_INDICES[AMINO_INDEX[amino]]] = 0.0
    message = ("host emits Leu but its codon usage is undefined (block sum 0.0); "
               "pmf and usage must come from one sequence")
    with pytest.raises(ValueError, match=re.escape(message)):
        steganographic_rate(undefined, host, params)


def test_blocks_the_host_never_emits_stay_unchecked_and_empty_usage_fills_uniformly():
    params = ChannelParams(0.01, 1.0, 1)
    host = point_mass_host("Ala")
    usage = uniform_conditional()
    usage[SYNONYM_INDICES[AMINO_INDEX["Arg"]]] = 0.5  # sums to 3, unchecked
    ser = SYNONYM_INDICES[AMINO_INDEX["Ser"]]
    usage[ser] = 0.0
    evaluate_rate(host, usage, params)
    result = steganographic_rate(usage, host, params)
    assert np.all(result.conditional[ser] == 1.0 / 6.0)
    assert np.all(result.conditional[SYNONYM_INDICES[AMINO_INDEX["Arg"]]] == 0.5)
    assert result.rate == uniform_conditional_rate(host, params).rate


def _with_nan(values, index):
    values = np.array(values, dtype=float)
    values[index] = np.nan
    return values


_SER = SYNONYM_INDICES[AMINO_INDEX["Ser"]]
_PARAMS = ChannelParams(1e-2, 0.1, 10)


@pytest.mark.parametrize("call", [
    lambda: evaluate_rate(point_mass_host("Ser"), _with_nan(uniform_conditional(), _SER[0]),
                          _PARAMS),
    lambda: evaluate_rate(_with_nan(point_mass_host("Ser"), AMINO_INDEX["Ala"]),
                          uniform_conditional(), _PARAMS),
    lambda: ba_optimize(_with_nan(uniform_codon_host(), AMINO_INDEX["Ala"]), _PARAMS),
    lambda: rate_q0(_with_nan(point_mass_host("Ser"), AMINO_INDEX["Ala"])),
    lambda: steganographic_rate(_with_nan(uniform_conditional(), _SER[0]),
                                point_mass_host("Ser"), _PARAMS),
], ids=["evaluate_rate-conditional", "evaluate_rate-host", "ba_optimize", "rate_q0",
        "steganographic_rate-usage"])
def test_non_finite_entries_raise(call):
    # NaN fails the negativity and normalization comparisons alike
    with pytest.raises(ValueError, match="non-finite entries"):
        call()


def _host_with(entries):
    host = point_mass_host("Ser")
    for amino, value in entries.items():
        host[AMINO_INDEX[amino]] = value
    return host


@pytest.mark.parametrize("entries, message", [
    ({"Ala": math.inf}, "non-finite entries"),
    ({"Ala": -math.inf}, "non-finite entries"),
    ({"Ala": math.inf, "Gly": -math.inf}, "non-finite entries"),
    ({"Ala": -1e-11}, "negative entries"),
    ({"Ala": 1e-8}, "sums to"),
])
def test_host_check_rejects_what_is_no_pmf(entries, message):
    with pytest.raises(ValueError, match=message):
        cdna._check_host(_host_with(entries))


def test_host_check_clips_rounding_below_zero_only():
    valid = uniform_codon_host()
    assert np.array_equal(cdna._check_host(valid), valid)
    # an entry down to -1e-12 is rounding: it reads as zero
    checked = cdna._check_host(_host_with({"Ala": -1e-13}))
    assert checked[AMINO_INDEX["Ala"]] == 0.0
    assert np.array_equal(checked, point_mass_host("Ser"))
    assert np.array_equal(cdna._check_host(list(valid)), valid)


def test_linearized_rate_builds_the_channel_once(monkeypatch):
    builds = []
    build = cdna.codon_matrix
    monkeypatch.setattr(cdna, "codon_matrix", lambda base: builds.append(1) or build(base))
    cdna._kimura_channel.cache_clear()
    deterministic_rate("Ser", ChannelParams(1e-2, 0.1, 30), "linearized")
    assert len(builds) == 1


def test_steganographic_rate_checks_the_host_once(gene_a, monkeypatch):
    host, usage = gene_a
    checks = []
    check = cdna._check_host
    monkeypatch.setattr(cdna, "_check_host", lambda pmf: checks.append(1) or check(pmf))
    steganographic_rate(usage, host, ChannelParams(1e-3, 0.1, 10))
    assert len(checks) == 1


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


def test_ba_at_max_iter_returns_the_iterate_it_reports():
    host = point_mass_host("Ser")
    params = ChannelParams(1e-2, 1.0, 316)
    result = ba_optimize(host, params, max_iter=2)
    assert not result.converged and result.iterations == 2
    info = evaluate_rate(host, result.conditional, params).mutual_information
    assert info == pytest.approx(result.mutual_information, rel=1e-12)
    # one iteration evaluates the uniform start and updates nothing
    first = ba_optimize(host, params, max_iter=1)
    assert np.array_equal(first.conditional, uniform_conditional())


def test_ba_rejects_bad_controls(gene_a):
    host, _ = gene_a
    with pytest.raises(ValueError):
        ba_optimize(host, ChannelParams(0.01, 1.0, 1), tol=0.0)
    with pytest.raises(ValueError):
        ba_optimize(host, ChannelParams(0.01, 1.0, 1), max_iter=0)


@pytest.mark.parametrize("call", [
    lambda **controls: deterministic_rate("Ser", ChannelParams(0.01, 1.0, 1), **controls),
    lambda **controls: capacity_c(ChannelParams(0.01, 1.0, 1), **controls),
    lambda **controls: ba_partitioned(*synthetic_code(), **controls),
], ids=["deterministic_rate", "capacity_c", "ba_partitioned"])
def test_every_optimizer_entry_rejects_bad_controls(call):
    with pytest.raises(ValueError, match="tol"):
        call(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        call(max_iter=0)


def plain_information_and_bound(host, cond, params):
    """(I, sum_x' p(x') max_{u in x'} D_u) in bits, from the textbook formula.

    Written apart from the package's divergence kernel; accurate enough to
    check a certificate at 1e-6 relative for rates down to about 1e-7.
    """
    w = codon_matrix(base_matrix_power(params))
    p_in = host[AMINO_OF_CODON] * cond
    div = (w * np.log(w / (p_in @ w))).sum(axis=1)
    bound = sum(host[a] * div[idx].max() for a, idx in enumerate(SYNONYM_INDICES) if host[a] > 0)
    return p_in @ div / math.log(2.0), bound / math.log(2.0)


# Rows at q=1e-2 where the |dI| < 1e-10 rule of plain Blahut-Arimoto stopped
# far short (the first two, after 2 iterations) or stalled: (amino, gamma,
# m, the value that rule returned)
STALLED_ROWS = [
    ("Ser", 0.1, 5000, 3.0878509397011833e-06),
    ("Leu", 0.1, 5623, 1.9522966985233e-07),
    ("Leu", 1.0, 196, 0.017708380171565757),
    ("Ser", 0.1, 2154, 0.006883886716026137),
    ("Arg", 0.1, 5623, 3.9045931328562895e-07),
]


@pytest.mark.parametrize("amino, gamma, m, plain_ba", STALLED_ROWS)
def test_ba_certifies_rows_plain_blahut_arimoto_left_short(amino, gamma, m, plain_ba):
    host, params = point_mass_host(amino), ChannelParams(1e-2, gamma, m)
    result = ba_optimize(host, params)
    info = result.mutual_information
    assert result.converged and result.iterations <= 10
    assert result.gap_bits <= cdna.DEFAULT_TOL * info + 1e-15
    assert info > plain_ba
    # the certificate holds against the textbook divergences
    plain_info, bound = plain_information_and_bound(host, result.conditional, params)
    assert info == pytest.approx(plain_info, rel=1e-6)
    assert bound - info <= 1e-6 * bound


def test_ba_leucine_deep_row_reaches_the_certified_optimum():
    # plain BA printed 1.952e-7 here, 11% below the optimum
    result = ba_optimize(point_mass_host("Leu"), ChannelParams(1e-2, 0.1, 5623))
    assert result.mutual_information == pytest.approx(2.196e-7, rel=1e-3)


@pytest.mark.parametrize("gamma", [0.1, 1.0])
def test_ba_never_ends_below_its_uniform_start(gene_a, gamma):
    params = ChannelParams(1e-2, gamma, 10_000)
    hosts = [point_mass_host(a) for a in AMINO_ACIDS] + [uniform_codon_host(), gene_a[0]]
    for host in hosts:
        start = uniform_conditional_rate(host, params).mutual_information
        assert ba_optimize(host, params).mutual_information >= start


def test_ba_drops_the_blocking_codons_of_a_many_amino_host_at_once():
    # an active-set step that stops at the first codon it blocks takes 78
    # iterations here, one per codon dropped
    host = np.random.default_rng(3).dirichlet(np.ones(21) * 0.5)
    result = ba_optimize(host, ChannelParams(0.068, 0.904, 143))
    assert result.converged and result.iterations <= 10
    assert result.mutual_information == pytest.approx(4.6185551839e-11, rel=1e-8)


def test_ba_solves_identical_synonym_rows_without_lstsq(gene_a, monkeypatch):
    # at this depth 36 pairs of synonyms have bitwise identical channel rows,
    # so the KKT systems are exactly singular; lstsq solved 3 of them
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    result = ba_optimize(gene_a[0], ChannelParams(1e-2, 0.1, 2154))
    assert result.converged
    assert result.mutual_information == pytest.approx(0.0068479598026392864, rel=1e-9)
    assert calls == []


def test_copies_take_the_minimum_norm_split_of_lstsq():
    # inputs 0 and 1 of group 0 are copies: equal rows of -H, right-hand
    # sides one ulp apart; input 2 is the other member of group 0
    curvature = np.array([[2.0, 2.0, -1.0, 0.5],
                          [2.0, 2.0, -1.0, 0.5],
                          [-1.0, -1.0, 3.0, 0.2],
                          [0.5, 0.5, 0.2, 1.0]])
    grad = np.array([0.3, np.nextafter(0.3, 1.0), -0.2, 0.1])
    model = cdna._Model(grad, curvature, np.array([0, 0, 0, 1]))
    first, classes = model.copies(np.arange(4))
    assert list(first) == [0, 2, 3] and list(classes) == [0, 0, 1, 2]
    kkt = np.zeros((6, 6))
    kkt[:4, :4] = curvature
    kkt[4:, :4] = model.groups == np.arange(2)[:, None]
    kkt[:4, 4:] = kkt[4:, :4].T
    rhs = np.r_[model.grad, -0.25, 0.0]
    step = cdna._solve_with_copies(kkt, rhs, first, classes)
    assert step[0] == step[1]
    np.testing.assert_allclose(step, np.linalg.lstsq(kkt, rhs, rcond=None)[0][:4],
                               rtol=1e-12, atol=1e-15)


def test_ba_certifies_seeded_many_amino_hosts_in_fewer_iterations():
    # deep and shallow cascades for random hosts; an active-set step that
    # stops at the first codon it blocks, with no step that can raise a
    # codon from zero, took 4038 iterations and left 2 of these uncertified
    rng = np.random.default_rng(7)
    iterations = 0
    for _ in range(200):
        host = rng.dirichlet(np.ones(21) * 0.5)
        q = 10 ** rng.uniform(-6, -1)
        params = ChannelParams(q, float(rng.uniform(0.05, 1.0)),
                               max(1, int(10 ** rng.uniform(-1, 2.5) / q)))
        result = ba_optimize(host, params)
        assert result.converged, (params, result.gap_bits, result.mutual_information)
        iterations += result.iterations
    assert iterations < 2000


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


def test_steganographic_rate_without_mutations_is_usage_entropy(gene_a):
    # the gene leaves some synonyms unused and q=0 leaves channel entries
    # zero: the unused codons' divergences are infinite and weigh nothing
    host, usage = gene_a
    expected = sum(host[ai] * entropy_bits(usage[idx]) for ai, idx in enumerate(SYNONYM_INDICES))
    assert expected > 0.5
    rate = steganographic_rate(usage, host, ChannelParams(0.0, 1.0, 1)).rate
    assert rate == pytest.approx(expected, rel=1e-12)
    # gamma=0 leaves the cross-category entries zero; mutations cost rate
    assert 0.5 < steganographic_rate(usage, host, ChannelParams(1e-3, 0.0, 1)).rate < rate


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


@pytest.mark.parametrize("amino", ["Met", "Trp"])
def test_single_codon_aminos_reject_unknown_method(amino):
    # the rate-zero shortcut for one-codon aminos comes after the method check
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        deterministic_rate(amino, ChannelParams(1e-2, 1.0, 1), "bogus")


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


@pytest.mark.parametrize("mass, message", [
    ([-0.5, 1.5], "negative"),
    ([0.5, 0.6], "sums to"),
    ([float("nan"), 1.0], "non-finite"),
])
def test_ba_partitioned_rejects_a_host_mass_that_is_no_pmf(mass, message):
    channel = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    groups = [np.array([0, 1]), np.array([2])]
    with pytest.raises(ValueError, match=message):
        ba_partitioned(channel, groups, np.array(mass))


def test_ba_partitioned_rejects_bad_channels_and_groups():
    channel, groups, host = synthetic_code()
    for bad in (channel * 1.1, -channel, np.where(channel > 0.5, np.nan, channel),
                channel[0]):
        with pytest.raises(ValueError, match="channel"):
            ba_partitioned(bad, groups, host)
    for bad in ([groups[0]], [groups[0], groups[0]], [np.arange(4), np.array([], int)]):
        with pytest.raises(ValueError, match="groups"):
            ba_partitioned(channel, bad, np.full(len(bad), 1.0 / len(bad)))


def test_ba_partitioned_zero_mass_group_keeps_uniform_conditional():
    channel, groups, _ = synthetic_code()
    result = ba_partitioned(channel, groups, np.array([1.0, 0.0]), tol=1e-14)
    assert np.allclose(result.conditional[groups[1]], 0.5, atol=1e-15)
    assert result.host_entropy == 0.0


# --- cached channel tables -----------------------------------------------------

def fingerprint(result):
    floats = np.array([result.rate, result.mutual_information, result.host_entropy])
    return (floats.tobytes(), result.iterations, result.converged,
            result.conditional.tobytes())


def test_cached_channel_tables_are_read_only():
    tables = cdna._kimura_channel(ChannelParams(1e-2, 0.5, 7))
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[1]


def test_interleaved_calls_over_two_channels_repeat_bitwise(gene_a):
    gene, usage = gene_a
    full_gene = 0.5 * gene + 0.5 * uniform_codon_host()
    hosts = {"gene": full_gene, "uniform": uniform_codon_host(),  # every input
             "Ser": point_mass_host("Ser"), "sparse gene": gene}   # some inputs
    calls = {
        "ba": lambda host, params: ba_optimize(host, params),
        "evaluate": lambda host, params: evaluate_rate(host, usage, params),
        "steganographic": lambda host, params: steganographic_rate(usage, host, params),
    }
    grid = [(call, host, params)
            for call in calls for host in hosts
            for params in (ChannelParams(1e-2, 0.3, 20), ChannelParams(1e-3, 1.2, 5))]
    first = {key: calls[key[0]](hosts[key[1]], key[2]) for key in grid}
    expected = {key: fingerprint(result) for key, result in first.items()}
    for result in first.values():
        result.conditional[:] = -1.0  # callers own what they get back
    # repeat from the kept tables, then from tables rebuilt for every call
    for rebuild in (False, True):
        for key in reversed(grid):
            if rebuild:
                cdna._kimura_channel.cache_clear()
            assert fingerprint(calls[key[0]](hosts[key[1]], key[2])) == expected[key], key


def test_channel_cache_stays_bounded_over_a_long_sweep():
    host = point_mass_host("Ser")
    for m in range(1, 101):
        uniform_conditional_rate(host, ChannelParams(1e-2, 0.5, m))
    info = cdna._kimura_channel.cache_info()
    assert info.currsize <= info.maxsize


# --- closed forms of the point masses whose uniform conditional is optimal -----

UNIFORM_OPTIMAL = [a for a in AMINO_ACIDS if MULTIPLICITIES[AMINO_INDEX[a]] in (2, 4)]


def fresh_start(params, amino):
    """I and the gap an optimizer run on the point mass at ``amino`` reads at its start."""
    host = point_mass_host(amino)
    problem = cdna._Problem(cdna._kimura_channel(params), host[cdna._SYNONYM_SETS.group_of])
    run = cdna._Ascent(problem, cdna._SYNONYM_SETS, host, cdna.DEFAULT_TOL, 1)
    return run.info, run.gap


def decimal_point_mass_information(amino, q, gamma, m):
    """I(Z;U) in bits of the point mass at ``amino`` under the uniform conditional.

    Reference in decimal arithmetic from the channel's own eigenvalues:
    the m-stage entries of the third base, the one base where the synonyms
    differ, and the divergences of the synonyms' rows from their mean.
    The rows differ from their mean by about x relative: 2*mu^m/(1 + lam^m)
    on a transition pair, the larger of lam^m and 2*mu^m on all four bases.
    I is about x**2, so the sum cancels all but that many digits and is
    taken with 2*|log10 x| + 50 of them: with 80 digits it reads -7.2e-81
    at q=0.01164, gamma=0.1034, m=7183, where x is 2.4e-71 and I 2.1e-142.
    Below x = 1e-170, I is below 2*x**2 and rounds to 0.0.
    """
    q, gamma = Decimal(q), Decimal(gamma)
    thirds = [BASE_INDEX[codon[2]] for codon in SYNONYMS[amino]]

    def powers():
        return (1 - 4 * gamma * q / 3) ** m, (1 - 2 * q + 2 * gamma * q / 3) ** m

    with localcontext() as ctx:
        ctx.prec = 60
        lam, mu = powers()
        if len(thirds) == 2:
            spread = abs(2 * mu / (1 + lam)) if 1 + lam else Decimal(0)
        else:
            spread = max(abs(lam), 2 * abs(mu))
        if spread < Decimal("1e-170"):
            return 0.0
        ctx.prec = 50 + 2 * max(0, -spread.adjusted())
        lam, mu = powers()
        diag, within, other = (1 + 2 * mu + lam) / 4, (1 - 2 * mu + lam) / 4, (1 - lam) / 4
        rows = [[diag if u == z else within if u + z == 3 else other for z in range(4)]
                for u in thirds]
        p_out = [sum(column) / len(rows) for column in zip(*rows)]
        info = sum(w * (w / p).ln() for row in rows for w, p in zip(row, p_out) if w > 0)
        return float(info / len(rows) / Decimal(2).ln())


@pytest.mark.parametrize("q,gamma,m", [
    # small gamma and deep cascades, where the 64-row forms lose the 2-fold rows
    (1e-9, 0.001, 10**12), (1e-9, 0.01, 10**12), (1e-9, 0.1, 10**12), (1e-9, 0.1, 3162277660),
    (1e-6, 0.05, 10**7), (1e-2, 0.1, 1334), (1e-2, 0.1, 825), (0.01164, 0.1034, 7183),
    # either side of the series cut-off |t| = 1e-2 (2-fold) and |lam^m| = 1e-2 (4-fold)
    (1e-2, 0.1, 243), (1e-2, 0.1, 244), (1e-2, 0.1, 3451), (1e-2, 0.1, 3452),
    # t = 1 (q = 0 or m = 0); lam^m = -1 (odd m) and +1; lam = mu = 0
    (0.0, 0.5, 10), (0.3, 0.2, 0), (1.0, 1.5, 3), (1.0, 1.5, 4), (0.75, 1.0, 5),
    # q > 1/2: negative eigenvalues, and mu = -1 at gamma = 0
    (0.9, 0.2, 3), (0.9, 0.2, 4), (0.6, 1.5, 7), (0.7, 1.2, 2), (1.0, 0.0, 5),
    # shallow cascades
    (1e-3, 0.5, 1), (0.3, 1.4, 7),
])
def test_closed_forms_match_decimal_reference(q, gamma, m):
    params = ChannelParams(q, gamma, m)
    for amino in UNIFORM_OPTIMAL:
        result = ba_optimize(point_mass_host(amino), params)
        assert result.mutual_information == pytest.approx(
            decimal_point_mass_information(amino, q, gamma, m), rel=1e-12, abs=0.0), amino


def test_closed_forms_agree_with_a_fresh_optimizer_run():
    rng = np.random.default_rng(10)
    grid = [(q, gamma, m) for q in (1e-9, 1e-2) for gamma in (0.1, 1.4)
            for m in (1, 1000, 10**12)]
    grid += [(10 ** rng.uniform(-9, -0.5), rng.uniform(0.01, 1.5), int(10 ** rng.uniform(0, 12)))
             for _ in range(40)]
    for q, gamma, m in grid:
        params = ChannelParams(q, gamma, m)
        for amino in UNIFORM_OPTIMAL:
            host = point_mass_host(amino)
            run = cdna._blahut_arimoto(cdna._kimura_channel(params), cdna._SYNONYM_SETS, host,
                                       cdna.DEFAULT_TOL, cdna.DEFAULT_MAX_ITER)
            info = ba_optimize(host, params).mutual_information
            assert run.converged, (params, amino)
            assert abs(info - run.mutual_information) <= 1e-9 * info + 1e-15, (params, amino)


def test_capacity_runs_the_optimizer_for_five_aminos_only(monkeypatch):
    runs, builds = [], []
    blahut_arimoto, build = cdna._blahut_arimoto, cdna.codon_matrix
    monkeypatch.setattr(cdna, "_blahut_arimoto",
                        lambda *args: runs.append(1) or blahut_arimoto(*args))
    monkeypatch.setattr(cdna, "codon_matrix", lambda base: builds.append(1) or build(base))
    result = capacity_c(ChannelParams(1e-3, 0.5, 30))
    # one iteration for each of the 14 closed forms, 39 for Ile, Leu, Arg, Ser and Stp
    assert result.iterations == 53 and result.converged
    assert len(runs) == 5
    cdna._kimura_channel.cache_clear()
    builds.clear()
    ba_optimize(point_mass_host("Ala"), ChannelParams(1e-3, 0.5, 30))
    assert builds == []


def test_certified_start_returns_the_uniform_conditional():
    params = ChannelParams(1e-3, 0.5, 30)
    result = ba_optimize(point_mass_host("Ala"), params)
    assert result.iterations == 1 and result.converged
    info, gap = fresh_start(params, "Ala")
    assert result.mutual_information == info and result.gap_bits == gap
    assert np.array_equal(result.conditional, uniform_conditional())
    result.conditional[:] = -1.0  # callers own what they get back
    assert np.array_equal(ba_optimize(point_mass_host("Ala"), params).conditional,
                          uniform_conditional())


# Ala's point mass certifies at its start at these parameters, Ser's does not
@pytest.mark.parametrize("major, minor", [("Ser", "Ala"), ("Ala", "Ser")])
def test_near_point_mass_host_takes_the_general_path(monkeypatch, major, minor):
    params = ChannelParams(1e-3, 0.5, 30)
    runs = []
    blahut_arimoto = cdna._blahut_arimoto
    monkeypatch.setattr(cdna, "_blahut_arimoto",
                        lambda *args: runs.append(1) or blahut_arimoto(*args))
    ba_optimize(point_mass_host("Ala"), params)
    assert runs == []  # from the table
    host = np.zeros(len(AMINO_ACIDS))
    host[AMINO_INDEX[major]] = 1.0 - 1e-12
    host[AMINO_INDEX[minor]] = 1e-12
    result = ba_optimize(host, params)
    assert runs == [1]
    assert result.converged and result.host_entropy > 0.0


@pytest.mark.parametrize("controls", [{"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf},
                                      {"tol": -1e-9}, {"max_iter": 0}],
                         ids=["tol=0", "tol=nan", "tol=inf", "tol<0", "max_iter=0"])
@pytest.mark.parametrize("host", [point_mass_host("Ala"), point_mass_host("Ser"),
                                  uniform_codon_host()], ids=["Ala", "Ser", "uniform"])
def test_ba_validates_its_controls_before_any_start(host, controls):
    # Ala's start certifies here, so the table alone would return a result
    with pytest.raises(ValueError, match=next(iter(controls))):
        ba_optimize(host, ChannelParams(1e-3, 0.5, 30), **controls)
