import itertools
import math
import re
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from dnacap import cdna, mutation_channel, ncdna
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
    BASES,
    CODON_INDEX,
    CODONS,
    MULTIPLICITIES,
    SYNONYM_INDICES,
    SYNONYMS,
)
from dnacap.mutation_channel import (
    ChannelParams,
    base_matrix_power,
    codon_matrix,
    codon_matrix_deviations,
)
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

def kimura_kernel(params):
    """The codon channel's kernel, kept with the constants of ``params``."""
    return cdna._constants(params).kernel


@pytest.fixture
def kernel_builds(monkeypatch):
    """One entry for every kernel built from here on."""
    builds, build = [], cdna._kernel
    monkeypatch.setattr(cdna, "_kernel", lambda *args: builds.append(1) or build(*args))
    return builds


def engine(host, params, tol=cdna.DEFAULT_TOL, max_iter=cdna.DEFAULT_MAX_ITER):
    """The 64-codon optimizer on ``host``; ba_optimize solves point masses without it."""
    return cdna._blahut_arimoto(kimura_kernel(params), cdna._SYNONYM_SETS, host,
                                tol, max_iter)[0]


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


def test_point_mass_host_entropy_is_positive_zero():
    # evaluations and optimizer runs alike: +0.0, never -0.0
    params = ChannelParams(1e-2, 0.1, 10)
    for amino in ("Met", "Ala", "Ser"):
        host = point_mass_host(amino)
        for result in (evaluate_rate(host, uniform_conditional(), params),
                       uniform_conditional_rate(host, params),
                       steganographic_rate(uniform_conditional(), host, params),
                       ba_optimize(host, params)):
            assert math.copysign(1.0, result.host_entropy) == 1.0


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
        cdna._checked_host(_host_with(entries))


def test_host_check_clips_rounding_below_zero_only():
    valid = uniform_codon_host()
    assert np.array_equal(cdna._checked_host(valid)[0], valid)
    # an entry down to -1e-12 is rounding: it reads as zero
    checked = cdna._checked_host(_host_with({"Ala": -1e-13}))[0]
    assert checked[AMINO_INDEX["Ala"]] == 0.0
    assert np.array_equal(checked, point_mass_host("Ser"))
    assert np.array_equal(cdna._checked_host(list(valid))[0], valid)


# the calls that check a host pmf, the point-mass test first
_HOST_CALLS = {
    "ba_optimize": lambda host: ba_optimize(host, _PARAMS),
    "evaluate_rate": lambda host: evaluate_rate(host, uniform_conditional(), _PARAMS),
    "uniform_conditional_rate": lambda host: uniform_conditional_rate(host, _PARAMS),
}


@pytest.fixture
def pmf_checks(monkeypatch):
    """The hosts that reach the general pmf check (``cdna._check_pmf``), in order."""
    checked = []
    check = cdna._check_pmf
    monkeypatch.setattr(cdna, "_check_pmf",
                        lambda host, name: checked.append(host) or check(host, name))
    return checked


@pytest.mark.parametrize("call", _HOST_CALLS.values(), ids=_HOST_CALLS.keys())
@pytest.mark.parametrize("host, message", [
    (np.zeros(20), "host pmf must have shape (21,), got (20,)"),
    (np.zeros((21, 1)), "host pmf must have shape (21,), got (21, 1)"),
    (_host_with({"Ser": math.nan}), "host pmf has non-finite entries"),
    (_host_with({"Ser": math.inf}), "host pmf has non-finite entries"),
    (_host_with({"Ala": -1e-3}), "host pmf has negative entries"),
    (_host_with({"Ser": 0.5, "Ala": math.nan}), "host pmf has non-finite entries"),
], ids=["shape-20", "shape-21x1", "nan", "inf", "one-beside-negative", "half-beside-nan"])
def test_invalid_hosts_raise_past_the_point_mass_test(call, host, message):
    # a lone NaN or infinity is one nonzero entry that is not 1.0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(host)


@pytest.mark.parametrize("call", _HOST_CALLS.values(), ids=_HOST_CALLS.keys())
def test_host_one_ulp_above_a_point_mass_takes_the_pmf_check(call, pmf_checks):
    # within 1e-9 of a pmf, so accepted, but no point mass
    call(_host_with({"Ser": 1.0 + 2.0**-52}))
    assert len(pmf_checks) == 1


@pytest.mark.parametrize("call", _HOST_CALLS.values(), ids=_HOST_CALLS.keys())
@pytest.mark.parametrize("host, checks", [
    (np.where(point_mass_host("Ser") == 0.0, -0.0, 1.0), 0),
    ([int(amino == "Ser") for amino in AMINO_ACIDS], 0),
    # rounding below zero is clipped, which leaves the point mass
    (_host_with({"Ala": -1e-13}), 1),
], ids=["negative-zeros", "list-of-ints", "clipped-to-a-point-mass"])
def test_point_mass_hosts_are_read_as_point_masses(call, host, checks, pmf_checks):
    result = call(host)
    assert len(pmf_checks) == checks
    expected = call(point_mass_host("Ser"))
    assert result.mutual_information == expected.mutual_information
    assert result.iterations == expected.iterations
    assert np.array_equal(result.conditional, expected.conditional)


def test_capacity_point_runs_no_pmf_check(monkeypatch, pmf_checks):
    runs = []
    optimize = cdna.ba_optimize
    monkeypatch.setattr(cdna, "ba_optimize",
                        lambda *args, **kwargs: runs.append(1) or optimize(*args, **kwargs))
    capacity_c(ChannelParams(1e-3, 0.5, 30))
    assert len(runs) == 19 and pmf_checks == []


def test_linearized_rate_builds_the_channel_once(kernel_builds):
    cdna._constants.cache_clear()
    deterministic_rate("Ser", ChannelParams(1e-2, 0.1, 30), "linearized")
    assert len(kernel_builds) == 1


def test_steganographic_rate_checks_the_host_once(gene_a, monkeypatch):
    checks, tests = [], []
    check, test = cdna._checked_host, cdna._point_mass
    monkeypatch.setattr(cdna, "_checked_host", lambda *args: checks.append(1) or check(*args))
    monkeypatch.setattr(cdna, "_point_mass", lambda pmf: tests.append(1) or test(pmf))
    host, usage = gene_a
    steganographic_rate(usage, host, ChannelParams(1e-3, 0.1, 10))
    assert len(checks) == 1
    # a point mass passes the point-mass test once, in the host check
    checks.clear()
    tests.clear()
    steganographic_rate(uniform_conditional(), point_mass_host("Ser"), ChannelParams(1e-3, 0.1, 10))
    assert len(checks) == 1 and len(tests) == 1


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
    # (entries near 1e-302) they must not overflow the kernel either.  Both
    # paths: the orbit solver and the 64-codon optimizer
    for optimize in (ba_optimize, engine):
        result = optimize(point_mass_host("Ser"), ChannelParams(q, 1.0, 1))
        assert result.converged
        assert result.rate == pytest.approx(LOG2_6, abs=1e-6)


def test_ba_reports_non_convergence_without_raising(gene_a):
    host, _ = gene_a
    result = ba_optimize(host, ChannelParams(0.05, 0.3, 3), max_iter=1)
    assert not result.converged
    assert result.iterations == 1


def test_ba_at_max_iter_returns_the_iterate_it_reports():
    # on both paths: the orbit solver and the 64-codon optimizer
    host = point_mass_host("Ser")
    params = ChannelParams(1e-2, 1.0, 316)
    for optimize in (ba_optimize, engine):
        result = optimize(host, params, max_iter=2)
        assert not result.converged and result.iterations == 2
        info = evaluate_rate(host, result.conditional, params).mutual_information
        assert info == pytest.approx(result.mutual_information, rel=1e-12)
        # one iteration evaluates the uniform start and updates nothing
        first = optimize(host, params, max_iter=1)
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
    result = engine(host, params)
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
    result = engine(point_mass_host("Leu"), ChannelParams(1e-2, 0.1, 5623))
    assert result.mutual_information == pytest.approx(2.196e-7, rel=1e-3)


@pytest.mark.parametrize("gamma", [0.1, 1.0])
def test_ba_never_ends_below_its_uniform_start(gene_a, gamma):
    params = ChannelParams(1e-2, gamma, 10_000)
    hosts = [point_mass_host(a) for a in AMINO_ACIDS] + [uniform_codon_host(), gene_a[0]]
    for host in hosts:
        start = uniform_conditional_rate(host, params).mutual_information
        assert ba_optimize(host, params).mutual_information >= start


def test_blahut_arimoto_step_that_lowers_i_beyond_the_kernel_error_raises(monkeypatch):
    # Ser's first step here lowers I = 5.7e-11 bits by 1.9e-12 relative, within
    # the kernel's error; a fall of 1e-9 relative (5.7e-20 bits) is a wrong
    # divergence, which an absolute 1e-15-bit slack let pass
    params = ChannelParams(1e-2, 0.1, 9085)
    assert engine(point_mass_host("Ser"), params).converged
    information, values = cdna._Problem.information, []

    def fallen(problem, cond):
        point = information(problem, cond)
        values.append(point.info)
        return point._replace(info=values[0] * (1.0 - 1e-9)) if len(values) > 1 else point
    monkeypatch.setattr(cdna._Problem, "information", fallen)
    with pytest.raises(AssertionError, match="objective decreased"):
        engine(point_mass_host("Ser"), params)
    assert len(values) == 2 and values[0] < 1e-10


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


@pytest.fixture
def lstsq_calls(monkeypatch):
    """One entry per call of ``np.linalg.lstsq`` made during the test."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    return calls


def test_singular_newton_system_takes_the_minimum_norm_step_on_the_factor():
    # inputs 0 and 1 of group 0 are copies: equal rows of the factor of -H,
    # right-hand sides one ulp apart; input 2 is the other member of group 0
    curvature = np.array([[2.0, 2.0, -1.0, 0.5],
                          [2.0, 2.0, -1.0, 0.5],
                          [-1.0, -1.0, 3.0, 0.2],
                          [0.5, 0.5, 0.2, 1.0]])
    grad = np.array([0.3, np.nextafter(0.3, 1.0), -0.2, 0.1])
    groups = np.array([0, 0, 0, 1])
    factor = np.linalg.cholesky(curvature[1:, 1:])[[0, 0, 1, 2]]  # F @ F.T = -H
    model = cdna._Model(grad, curvature, groups, factor, np.ones(3), 1.0)
    sums = np.array([-0.25, 0.0])
    step = cdna._minimum_norm_step(model, np.arange(4), np.zeros(4), sums)
    assert step[0] == pytest.approx(step[1], rel=4 * np.finfo(float).eps)
    np.testing.assert_allclose(np.bincount(groups, step), sums, rtol=0.0, atol=1e-16)
    kkt = np.zeros((6, 6))
    kkt[:4, :4] = curvature
    kkt[4:, :4] = groups == np.arange(2)[:, None]
    kkt[:4, 4:] = kkt[4:, :4].T
    np.testing.assert_allclose(step, np.linalg.lstsq(kkt, np.r_[grad, sums], rcond=None)[0][:4],
                               rtol=1e-12, atol=1e-15)


def matrix_ascent(channel, groups, host_mass):
    """The engine at the uniform start of ``channel``, as :func:`ba_partitioned` starts it."""
    entries = channel.ravel()
    kernel = cdna._kernel(entries, channel.shape[1] * entries - 1.0,
                          np.arange(entries.size).reshape(channel.shape))
    partition = cdna._partition(groups, channel.shape[0])
    return cdna._Ascent(cdna._Problem(kernel, host_mass[partition.group_of]), partition,
                        host_mass, cdna.DEFAULT_TOL, cdna.DEFAULT_MAX_ITER)


def test_a_trial_of_infinite_divergence_is_refused_and_counted():
    # identity rows with input 1 at zero: output 1 is reached by no input,
    # so D_1 is infinite and I is 0*inf (the kernel warns on the way)
    run = matrix_ascent(np.eye(4), [np.array([0, 1]), np.array([2, 3])], np.array([0.5, 0.5]))
    point, info, gap = run.point, run.info, run.gap
    with np.errstate(divide="ignore", invalid="ignore"):
        for trusted in (False, True):
            assert not run._advance(np.array([1.0, 0.0, 0.5, 0.5]), trusted)
    assert run.iterations == 3
    assert run.point is point and (run.info, run.gap) == (info, gap) == (2.0, 0.0)


def test_a_flat_face_has_no_newton_model_and_no_step_towards_the_best():
    # identical rows: p - W is exactly 0, so -H is 0 and every D_u is 0
    run = matrix_ascent(np.full((4, 4), 0.25), [np.array([0, 1]), np.array([2, 3])],
                        np.array([0.5, 0.5]))
    assert (run.info, run.gap) == (0.0, 0.0)
    assert run._newton_model(np.arange(4)) is None
    assert not run.toward_best() and not run.newton()
    assert run.iterations == 1  # neither evaluated a trial


def test_a_newton_system_with_a_group_of_no_free_input_has_no_step():
    # inputs 2 and 3 make up group 1: with both pinned its sum has no free
    # input to take it up, the KKT system is singular, and the minimum-norm
    # step refuses it too
    curvature = np.array([[2.0, 0.5, 0.1, 0.0],
                          [0.5, 1.0, 0.0, 0.2],
                          [0.1, 0.0, 3.0, 0.4],
                          [0.0, 0.2, 0.4, 1.0]])
    groups = np.array([0, 0, 1, 1])
    factor = np.linalg.cholesky(curvature)
    model = cdna._Model(np.array([0.3, -0.3, 0.2, -0.2]), curvature, groups, factor,
                        np.ones(4), 1.0)
    pinned = np.array([False, False, True, True])
    move = np.array([0.0, 0.0, -0.25, 0.0])
    assert cdna._minimum_norm_step(model, np.arange(2), move, np.array([0.0, 0.25])) is None
    run = matrix_ascent(np.full((4, 4), 0.25), [np.array([0, 1]), np.array([2, 3])],
                        np.array([0.5, 0.5]))
    assert run._newton_direction(model, pinned, move) is None
    # with one input of each group pinned, both sums are taken up
    step = run._newton_direction(model, np.array([False, True, False, True]), move)
    assert step is not None and np.bincount(groups, step) == pytest.approx([0.0, 0.0], abs=1e-15)


def test_ba_solves_a_singular_system_of_no_copies_without_lstsq(lstsq_calls):
    # the first Newton system after the Blahut-Arimoto phase is singular
    # although no two synonyms are copies
    result = engine(point_mass_host("Leu"), ChannelParams(1e-2, 0.1, 825))
    assert result.converged
    assert lstsq_calls == []


def seeded_runs(seed, count, concentration=0.5):
    """Hosts and parameters of the first ``count`` runs of a seeded sweep below."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        host = rng.dirichlet(np.ones(21) * concentration)
        q = 10 ** rng.uniform(-6, -1)
        yield host, ChannelParams(q, float(rng.uniform(0.05, 1.0)),
                                  max(1, int(10 ** rng.uniform(-1, 2.5) / q)))


def seeded_sweep_run(seed, index):
    """Host and parameters of run ``index`` of the seeded sweep below."""
    return list(seeded_runs(seed, index + 1))[-1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_minimum_norm_step_drops_singular_values_of_rounding_size(monkeypatch):
    # singular values of the reduced factor at 1.8e-14 of the largest, kept
    # above a max(shape)*eps cut-off, gave a step of 4.5e14 here (16
    # iterations); lstsq on the KKT system gives 0.367
    host, params = seeded_sweep_run(5, 107)
    assert params.m == 2008
    minimum_norm_step, largest = cdna._minimum_norm_step, []

    def recorded(*args):
        step = minimum_norm_step(*args)
        largest.append(np.inf if step is None else np.abs(step).max())
        return step
    monkeypatch.setattr(cdna, "_minimum_norm_step", recorded)
    result = ba_optimize(host, params)
    assert result.converged and result.iterations <= 13
    assert largest and max(largest) <= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ba_certifies_seeded_many_amino_hosts_in_fewer_iterations(lstsq_calls):
    # deep and shallow cascades for random hosts; an active-set step that
    # stops at the first codon it blocks, with no step that can raise a
    # codon from zero, took 4038 iterations on the 200 hosts of seed 7 and
    # left 2 of them uncertified, and 11 of these 1000 in all
    iterations = {}
    for seed, hosts in ((7, 200), (11, 400), (5, 400)):
        iterations[seed] = 0
        for host, params in seeded_runs(seed, hosts):
            result = ba_optimize(host, params)
            assert result.converged, (seed, params, result.gap_bits, result.mutual_information)
            iterations[seed] += result.iterations
    assert lstsq_calls == []
    assert iterations[7] < 2000
    assert sum(iterations.values()) <= 5300


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_tries_each_direction_at_most_twice_on_sparse_hosts(monkeypatch):
    # Dirichlet(0.1) hosts emit few aminos, whose optima lie on the boundary;
    # halving a rejected ratio-test step up to 19 more times took 3434
    # iterations here (235 for host 88), and up to 21 evaluations per call
    newton, evaluations = cdna._Ascent.newton, []

    def counted(run):
        before = run.iterations
        moved = newton(run)
        evaluations.append(run.iterations - before)
        return moved
    monkeypatch.setattr(cdna._Ascent, "newton", counted)
    iterations = []
    for host, params in seeded_runs(22, 400, concentration=0.1):
        result = ba_optimize(host, params)
        assert result.converged, (len(iterations), params, result.gap_bits)
        iterations.append(result.iterations)
    assert sum(iterations) <= 2700
    assert iterations[88] <= 70
    assert max(evaluations) <= 2


@pytest.mark.parametrize("seed, index, full", [(5, 228, 7), (11, 27, 9)])
def test_budget_stops_a_run_at_every_evaluation(seed, index, full):
    # each run takes a Newton direction with two trials and a Frank-Wolfe
    # step, so some budgets end inside newton and some inside toward_best
    host, params = seeded_sweep_run(seed, index)
    whole = ba_optimize(host, params)
    assert whole.converged and whole.iterations == full
    for max_iter in range(1, full + 3):
        result = ba_optimize(host, params, max_iter=max_iter)
        assert result.iterations == min(max_iter, full)
        assert result.converged == (max_iter >= full)
        info = evaluate_rate(host, result.conditional, params).mutual_information
        assert info == pytest.approx(result.mutual_information, rel=1e-12)
        if max_iter >= full:
            assert np.array_equal(result.conditional, whole.conditional)
            assert result.mutual_information == whole.mutual_information


def test_ba_information_within_the_point_mass_bound_on_seeded_hosts():
    # invariant 4: I(Z;U) = I(Z;X') + I(Z;U|X') <= H(X') + sum_x' p(x')*C_x',
    # with C_x' the optimum of the point mass on x'; every C_x' and I are
    # certified to tol relative
    for seed, hosts, concentration in ((7, 200, 0.5), (22, 100, 0.1)):
        for host, params in seeded_runs(seed, hosts, concentration):
            info = ba_optimize(host, params).mutual_information
            bound = entropy_bits(host) + sum(
                host[ai] * deterministic_rate(amino, params).mutual_information
                for ai, amino in enumerate(AMINO_ACIDS) if host[ai] > 0.0)
            assert info <= bound * (1.0 + cdna.DEFAULT_TOL), (seed, params, info, bound)


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


@pytest.mark.parametrize("ser_usage", [
    [np.nan, 0.2, 0.2, 0.2, 0.2, 0.2],
    [-0.5, 0.5, 0.25, 0.25, 0.25, 0.25],
], ids=["nan", "negative"])
def test_steganographic_usage_errors_name_the_usage(ser_usage):
    usage = uniform_conditional()
    usage[_SER] = ser_usage
    with pytest.raises(ValueError, match="^codon usage has "):
        steganographic_rate(usage, point_mass_host("Ser"), _PARAMS)


def test_steganographic_rejects_usage_of_the_wrong_shape():
    message = "codon usage must have shape (64,), got (63,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        steganographic_rate(np.full(63, 1 / 3), point_mass_host("Ser"), _PARAMS)


# --- deterministic hosts -------------------------------------------------------

def test_deterministic_single_codon_aminos_are_zero():
    for amino in ("Met", "Trp"):
        for params in (ChannelParams(0.0, 1.0, 1), ChannelParams(0.3, 0.5, 50)):
            for method in ("ba", "uniform", "linearized"):
                result = deterministic_rate(amino, params, method)
                assert result.rate == 0.0 and result.iterations == 0
                # an optimum's gap is 0; an evaluation has none
                assert result.gap_bits == (0.0 if method == "ba" else None)


@pytest.mark.parametrize("amino", ["Ser", "Lys", "Ile", "Met", "Trp"])
def test_deterministic_uniform_method_is_the_uniform_conditional_rate(amino):
    params = ChannelParams(1e-3, 0.5, 30)
    result = deterministic_rate(amino, params, "uniform")
    expected = uniform_conditional_rate(point_mass_host(amino), params)
    assert result.rate == expected.rate
    assert result.mutual_information == expected.mutual_information
    assert np.array_equal(result.conditional, expected.conditional)
    assert result.iterations == 0 and result.gap_bits is None


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


@pytest.mark.parametrize("call", [deterministic_rate, linearized_conditional])
def test_point_mass_rates_reject_unknown_aminos(call):
    with pytest.raises(ValueError, match="^unknown amino acid: 'Xyz'$"):
        call("Xyz", _PARAMS)


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


def test_linearized_conditional_gathers_its_rows_without_the_kernel():
    params = ChannelParams(1e-2, 0.1, 30)
    multi = [amino for amino in AMINO_ACIDS if MULTIPLICITIES[AMINO_INDEX[amino]] > 1]
    cdna._constants.cache_clear()
    solved = {amino: linearized_conditional(amino, params) for amino in multi}
    assert "kernel" not in vars(cdna._constants(params))
    # the same solve on the kernel's rows gives the same bits
    kernel = kimura_kernel(params)
    for amino, pi in solved.items():
        rows = kernel.take(SYNONYM_INDICES[AMINO_INDEX[amino]]).stacked[0]
        raw = np.clip(np.linalg.solve(rows @ rows.T, np.ones(len(rows))), 0.0, None)
        assert pi.tobytes() == (raw / raw.sum()).tobytes(), amino


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


def test_ba_partitioned_refuses_a_trial_of_infinite_divergence_without_a_warning():
    # the second input alone reaches the second output; a trial that empties
    # it has an infinite D there, a log of 0 and an inf - inf on the way
    channel = [[1 / 6, 1 / 3, 1 / 2], [0, 1, 0], [0, 2 / 7, 5 / 7]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = ba_partitioned(channel, [[0, 1], [2]], [0.5, 0.5])
    assert result.converged and result.iterations == 11
    assert result.mutual_information.hex() == "0x1.09e104850d269p-1"
    assert result.gap_bits.hex() == "0x1.901ae9fc84b5fp-35"
    assert result.conditional.tolist() == [0.07592557743333078, 0.9240744225666693, 1.0]


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
    # the run on the rows of the emitted group, gathered from the classes,
    # is the run on the channel without the other group's rows
    alone = ba_partitioned(channel[groups[0]], [np.arange(2)], np.array([1.0]), tol=1e-14)
    assert result.mutual_information.hex() == alone.mutual_information.hex()
    assert result.conditional[groups[0]].tobytes() == alone.conditional.tobytes()
    assert result.iterations == alone.iterations == 21


def plain_divergences(channel, p):
    """D_u in nats of every row of a channel with no zero entry from the output pmf."""
    return (channel * np.log(channel / (p @ channel))).sum(axis=1)


def plain_blahut_arimoto(channel, tol):
    """Blahut-Arimoto on one group of every input, from uniform: I and gap in bits.

    It stops once max_u D_u - I <= tol*I, with sums and maxima as written.
    """
    p = np.full(channel.shape[0], 1.0 / channel.shape[0])
    for _ in range(100_000):
        div = plain_divergences(channel, p)
        info, top = p @ div / math.log(2.0), div.max() / math.log(2.0)
        if top - info <= tol * info:
            return info, top - info
        p *= np.exp(div - div.max())
        p /= p.sum()
    raise AssertionError("the plain loop did not certify")


def test_one_group_of_many_inputs_matches_a_plain_blahut_arimoto_loop():
    # one group of 8 to 19 inputs: the engine normalizes it by np.bincount,
    # where the plain loop's np.sum adds pairwise
    rng = np.random.default_rng(29)
    stepped = 0
    for _ in range(100):
        n = int(rng.integers(8, 20))
        channel = 0.7 * np.eye(n) + 0.3 * rng.dirichlet(np.ones(n), size=n)
        result = ba_partitioned(channel, [np.arange(n)], np.array([1.0]))
        info, gap = plain_blahut_arimoto(channel, 1e-12)
        assert result.converged and result.gap_bits <= cdna.DEFAULT_TOL * result.mutual_information
        # each run's I is within its gap of the capacity
        slack = 8 * np.finfo(float).eps * info
        assert abs(result.mutual_information - info) <= max(result.gap_bits, gap) + slack, n
        # and the run's I and gap are those of its conditional
        div = plain_divergences(channel, result.conditional) / math.log(2.0)
        own = pytest.approx(result.conditional @ div, rel=1e-13, abs=0.0)
        assert result.mutual_information == own, n
        top = pytest.approx(div.max(), rel=1e-13, abs=0.0)
        assert result.mutual_information + result.gap_bits == top, n
        assert result.conditional.sum() == pytest.approx(1.0, rel=1e-15, abs=0.0)
        stepped += result.iterations > 1
    assert stepped == 100  # none is certified at the uniform start
    # the n-ary symmetric channel: uniform is optimal, C = log2 n - H(row)
    for n in range(8, 20):
        row = np.full(n, 0.1 / (n - 1))
        row[0] = 0.9
        channel = np.array([np.roll(row, u) for u in range(n)])
        result = ba_partitioned(channel, [np.arange(n)], np.array([1.0]))
        capacity = math.log2(n) + float(row @ np.log2(row))
        assert result.converged and result.iterations == 1
        assert result.mutual_information == pytest.approx(capacity, rel=1e-14, abs=0.0), n


# --- cached channel tables -----------------------------------------------------

def fingerprint(result):
    floats = np.array([result.rate, result.mutual_information, result.host_entropy])
    return (floats.tobytes(), result.iterations, result.converged, result.gap_bits,
            result.conditional.tobytes())


def test_cached_channel_tables_are_read_only():
    kernel = kimura_kernel(ChannelParams(1e-2, 0.5, 7))
    for table in (kernel.classes, kernel.small, kernel.table, *kernel.full):
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
                cdna._constants.cache_clear()
            assert fingerprint(calls[key[0]](hosts[key[1]], key[2])) == expected[key], key


def test_a_kernel_is_evicted_with_its_constants(kernel_builds):
    cdna._constants.cache_clear()
    params = ChannelParams(1e-2, 0.5, 7)
    kernel = kimura_kernel(params)
    for m in range(100, 131):  # 31 other parameter sets: it stays
        cdna._constants(ChannelParams(1e-2, 0.5, m))
    assert kimura_kernel(params) is kernel and len(kernel_builds) == 1
    for m in range(100, 132):  # 32 others: it leaves with its constants
        cdna._constants(ChannelParams(1e-2, 0.5, m))
    assert "kernel" not in vars(cdna._constants(params))
    assert kimura_kernel(params) is not kernel and len(kernel_builds) == 2


def kronecker_deviations(params):
    """The 64x64 codon deviations as threefold Kronecker combines of the 4x4 ones."""
    _, deviations = mutation_channel._stage_entries(params)
    dev = mutation_channel._symmetric(*deviations)

    def combine(x, y):
        return x + y + x * y

    return mutation_channel._kron(combine, mutation_channel._kron(combine, dev, dev), dev)


def bits(tables):
    return [np.asarray(table).tobytes() for table in tables]


def test_class_tables_match_the_64x64_tables_bit_for_bit():
    rng = np.random.default_rng(17)
    grid = [(10 ** rng.uniform(-9, 0), rng.uniform(0.0, 1.5), int(10 ** rng.uniform(0, 12)))
            for _ in range(40)]
    # q, gamma and m at their ends, the deep point, and q = 1, gamma = 3/2 at
    # odd m, where the diagonal and transition entries are exactly 0
    grid += [(q, gamma, m) for q in (0.0, 1.0) for gamma in (0.0, 1.5)
             for m in (0, 1, 2**63 - 1)]
    grid += [(1e-9, 0.1, 31622776602), (1.0, 1.5, 5)]
    for q, gamma, m in grid:
        params = ChannelParams(q, gamma, m)
        deviations = codon_matrix_deviations(params)
        assert deviations.tobytes() == kronecker_deviations(params).tobytes(), params
        matrix = codon_matrix(base_matrix_power(params))
        entries = np.arange(matrix.size).reshape(matrix.shape)  # each entry its own class
        reference = cdna._kernel(matrix.ravel(), deviations.ravel(), entries).full
        kernel = kimura_kernel(params)
        assert bits(kernel.full) == bits(reference), params
        # the rows of every point mass, and of hosts of 7, 22 and all 64 inputs
        for idx in (*SYNONYM_INDICES, np.arange(7), np.arange(0, 64, 3), np.arange(64)):
            selected = [np.take(table, idx, axis=-2) for table in reference]
            assert bits(kernel.take(idx)) == bits(selected), (params, idx)
    assert (kimura_kernel(ChannelParams(1.0, 1.5, 5)).full.stacked[0] == 0.0).any()
    # a host of every input reads the kept full tables themselves; the point
    # masses of the capacity search never gather them
    params = ChannelParams(1e-2, 0.5, 7)
    cdna._constants.cache_clear()
    capacity_c(params)
    kernel = kimura_kernel(params)
    assert "full" not in vars(kernel)
    assert cdna._Problem(kernel, np.full(64, 1.0 / 64)).tables is kernel.full


# --- the divergence kernel and the constants of a parameter set ----------------

def test_kernel_terms_equal_the_formula_of_both_forms_bit_for_bit():
    def formula(w, num, inv, series_below):
        t = num * inv
        return np.where(t * t < series_below, num * t * (0.5 - t / 3.0), num - w * np.log1p(t))

    w = np.array([0.25, 1e-3, 0.5, 1e-149, 0.02])
    # t**2 on either side of the cut-off 1e-10, a few ulps apart
    near = 1e-5 * (1.0 + np.arange(-4, 5) * np.finfo(float).eps)
    cases = {
        "cut-off": (np.full(near.size, 0.25), 0.25 * near),
        "cut-off, negative": (np.full(near.size, 0.25), -0.25 * near),
        "below 1e-150": (np.array([1e-160, 1e-151, 0.0, 0.5]), np.array([0.3, 1e-3, 0.2, 1e-7])),
        "t = -1": (np.array([0.25, 0.5]), np.array([-0.25, 1e-7])),
        "large t": (np.array([1e-149, 2e-149]), np.array([0.5, 0.25])),
        "no series entry": (w, np.array([0.1, -1e-4, 0.3, 0.5, 1e-6])),
        "series only": (w, 1e-7 * w),
    }
    masks = []
    for name, (w, num) in cases.items():
        inv, series_below = cdna._reciprocal(w)
        with np.errstate(divide="ignore"):  # log1p(-1): an infinite term
            expected = formula(w, num, inv, series_below)
            terms = cdna._terms(w, num, inv, series_below)
        assert terms.tobytes() == expected.tobytes(), name
        assert name != "t = -1" or math.isinf(terms[0])
        masks.append((num * inv) ** 2 < series_below)
    # the cases hold entries of the series, entries of the direct form, and
    # arrays of each kind alone
    assert masks[0].any() and not masks[0].all()
    assert not masks[5].any() and masks[6].all()


def test_constants_hold_the_channel_class_values_bit_for_bit():
    rng = np.random.default_rng(22)
    grid = [ChannelParams(10 ** rng.uniform(-9, 0), rng.uniform(0.0, 1.5),
                          int(10 ** rng.uniform(0, 12))) for _ in range(20)]
    grid += [ChannelParams(1.0, 1.5, 5), ChannelParams(0.0, 0.5, 3), ChannelParams(0.3, 0.2, 0)]
    for params in grid:
        constants = cdna._ChannelConstants(params)
        entries, deviations = mutation_channel._stage_entries(params)
        assert constants.stage == (entries, deviations)
        # the 27 of three positions are the codon channel's W
        matrix = codon_matrix(base_matrix_power(params))
        assert constants.classes[2][mutation_channel._CODON_CLASSES].tobytes() == matrix.tobytes()
        base = np.clip(entries, 0.0, 1.0)
        assert constants.classes[0].tobytes() == base.tobytes()
        assert constants.classes[1].tobytes() == np.multiply.outer(base, base).ravel().tobytes()
        (lam_m, _), (mu_m, _) = mutation_channel._eigenvalue_powers(params)
        assert constants.monomials[2][1] == lam_m * lam_m * mu_m
        assert constants.four_fold == ncdna.capacity_nc(params).value
        for table in constants.classes:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[1]


def test_capacity_point_derives_its_constants_once(monkeypatch):
    built = []

    class Counted(cdna._ChannelConstants):
        def __init__(self, params):
            built.append(params)
            super().__init__(params)

    monkeypatch.setattr(cdna, "_ChannelConstants", Counted)
    cdna._constants.cache_clear()
    params = ChannelParams(1e-3, 0.5, 30)
    capacity_c(params)
    assert built == [params]
    # a kernel and a linearized conditional at the same point share them
    kimura_kernel(params)
    linearized_conditional("Leu", params)
    assert built == [params]
    cdna._constants.cache_clear()


def capacity_fingerprint(params, runs):
    """The per-amino table, totals and every optimizer run of ``capacity_c(params)``."""
    runs.clear()
    result = capacity_c(params)
    floats = np.array([result.rate, result.gap_bits]
                      + [value for run in runs
                         for value in (run.mutual_information, run.gap_bits)])
    return (result.best_amino, result.per_amino.tobytes(), result.iterations, result.converged,
            floats.tobytes(), [(run.iterations, run.conditional.tobytes()) for run in runs])


def test_capacity_repeats_bitwise_in_any_order_and_from_fresh_constants(monkeypatch):
    rng = np.random.default_rng(23)
    # shallow and deep points, some past the orbit solver's shift against underflow
    grid = [ChannelParams(10 ** rng.uniform(-4, -0.5), rng.uniform(0.05, 1.5),
                          int(10 ** rng.uniform(0, 5))) for _ in range(50)]
    runs = []
    optimize = cdna.ba_optimize
    monkeypatch.setattr(cdna, "ba_optimize",
                        lambda *args, **kwargs: runs.append(optimize(*args, **kwargs)) or runs[-1])
    forward = {params: capacity_fingerprint(params, runs) for params in grid}
    assert len(runs) == 19
    assert {params: capacity_fingerprint(params, runs) for params in reversed(grid)} == forward
    for params in grid:
        cdna._constants.cache_clear()
        assert capacity_fingerprint(params, runs) == forward[params], params
    # the five orbit point masses are solved as one stack: whichever of them
    # is asked first, from fresh constants, each gets the bits of its run
    # in capacity_c (run_of: its place among the 19)
    run_of = {amino: [a for a in AMINO_ACIDS if len(SYNONYMS[a]) > 1].index(amino)
              for amino in ORBIT_AMINOS}
    for params in grid:
        floats = np.frombuffer(forward[params][4])
        for first in range(len(ORBIT_AMINOS)):
            cdna._constants.cache_clear()
            for amino in ORBIT_AMINOS[first:] + ORBIT_AMINOS[:first]:
                result, k = optimize(point_mass_host(amino), params), run_of[amino]
                assert (result.iterations, result.conditional.tobytes()) == forward[params][5][k]
                assert np.array([result.mutual_information, result.gap_bits]).tobytes() \
                    == floats[2 + 2 * k:4 + 2 * k].tobytes(), (params, amino, first)


def test_capacity_solves_the_orbit_stack_once_per_stop_rule(monkeypatch):
    solves = []
    optima = cdna._orbit_optima
    monkeypatch.setattr(cdna, "_orbit_optima",
                        lambda *args: solves.append(args[1:]) or optima(*args))
    params = ChannelParams(1e-3, 0.5, 30)
    cdna._constants.cache_clear()
    result = capacity_c(params)
    assert solves == [(cdna.DEFAULT_TOL, cdna.DEFAULT_MAX_ITER)]
    # a second call reads the kept results, for every orbit amino
    for amino in ORBIT_AMINOS:
        again = ba_optimize(point_mass_host(amino), params)
        assert again.rate == result.per_amino[AMINO_INDEX[amino]]
    assert len(solves) == 1
    # another stop rule is another stack, solved once
    for amino in ORBIT_AMINOS:
        ba_optimize(point_mass_host(amino), params, tol=1e-12)
    ba_optimize(point_mass_host("Leu"), params, tol=1e-12, max_iter=3)
    assert solves[1:] == [(1e-12, cdna.DEFAULT_MAX_ITER), (1e-12, 3)]
    # the results leave with their constants
    cdna._constants.cache_clear()
    ba_optimize(point_mass_host("Ser"), params)
    assert len(solves) == 4


def test_a_returned_orbit_conditional_is_the_callers_own():
    params = ChannelParams(1e-2, 0.5, 30)
    cdna._constants.cache_clear()
    first = ba_optimize(point_mass_host("Leu"), params)
    expected = first.conditional.copy()
    first.conditional[:] = -1.0
    for result in (ba_optimize(point_mass_host("Leu"), params),
                   deterministic_rate("Leu", params)):
        assert np.array_equal(result.conditional, expected)
        assert result.conditional.flags.writeable
        assert result.mutual_information == first.mutual_information
    assert capacity_c(params).per_amino[AMINO_INDEX["Leu"]] == first.rate


def test_a_sweep_longer_than_the_caches_returns_the_values_of_fresh_constants():
    sweep = [ChannelParams(1e-2, 0.5, m) for m in range(1, 101)]
    for amino in ("Ser", "Lys"):
        results = [deterministic_rate(amino, params) for params in sweep]
        swept = [fingerprint(result) for result in results]
        again = [fingerprint(deterministic_rate(amino, params)) for params in sweep]
        assert again == swept, amino
        for params, expected in zip(sweep, swept):
            cdna._constants.cache_clear()
            assert fingerprint(deterministic_rate(amino, params)) == expected, (amino, params)
        # and against the decimal reference, which reads no cached constant:
        # I at the returned conditional, and I + gap its largest D_u
        for params, result in zip(sweep, results):
            info, top = decimal_point_mass(amino, params.q, params.gamma, params.m, {
                codon: result.conditional[CODON_INDEX[codon]] for codon in SYNONYMS[amino]})
            assert result.mutual_information == pytest.approx(info, rel=1e-12, abs=0.0), (amino, params)
            assert result.mutual_information + result.gap_bits == pytest.approx(
                top, rel=1e-12, abs=0.0), (amino, params)
    info = cdna._constants.cache_info()
    assert info.currsize <= info.maxsize == 32


# --- the uniform conditional's I, read from the optimizer run that evaluated it ---

def det_aminos_points():
    """Every parameter set of the figure bundle's det_aminos files."""
    from dnacap import cli

    specs = [specs[0] for name, specs in cli._figure_specs({}).items()
             if name.startswith("det_aminos")]
    return [ChannelParams(spec.q, spec.gamma, m) for spec in specs for m in spec.m_grid]


@pytest.fixture
def evaluations(monkeypatch):
    """One entry for every rate evaluated from here on, rather than read."""
    calls, evaluate = [], cdna._evaluate
    monkeypatch.setattr(cdna, "_evaluate", lambda *args: calls.append(1) or evaluate(*args))
    return calls


def test_uniform_rate_read_after_ba_has_the_bits_of_a_cold_evaluation(gene_a, evaluations):
    hosts = {"uniform": uniform_codon_host(), "toy_gene_a": gene_a[0],
             **{amino: point_mass_host(amino) for amino in ORBIT_AMINOS}}
    shifted = characters = 0
    points = det_aminos_points()
    assert len(points) == 100
    for params in points:
        # uniform rows first, each evaluated on cold constants, then ba
        cdna._constants.cache_clear()
        cold = {name: fingerprint(uniform_conditional_rate(host, params))
                for name, host in hosts.items()}
        optima = {name: fingerprint(ba_optimize(host, params)) for name, host in hosts.items()}
        tables = cdna._orbit_tables(cdna._constants(params))
        shifted += any(tables.shift)
        characters += tables.offsets is not None
        # ba first, as the bundle runs them: each uniform row is read, and
        # neither order moves a bit of either result
        cdna._constants.cache_clear()
        for name, host in hosts.items():
            assert fingerprint(ba_optimize(host, params)) == optima[name], (name, params)
            evaluations.clear()
            assert fingerprint(uniform_conditional_rate(host, params)) == cold[name], (name, params)
            assert evaluations == [], (name, params)
        # deterministic_rate reads through uniform_conditional_rate
        for amino in ORBIT_AMINOS:
            result = deterministic_rate(amino, params, method="uniform")
            assert fingerprint(result) == cold[amino], (amino, params)
        assert evaluations == []
    # the grids hold points whose orbit rows are scaled against underflow,
    # and points where some entry takes p - W from the characters
    assert shifted and characters


def test_uniform_rate_reads_only_the_start_of_the_last_engine_host(gene_a, evaluations):
    params = ChannelParams(1e-2, 0.1, 30)
    gene, uniform = gene_a[0], uniform_codon_host()
    # Ile's subnormal mass, times its 1/3, underflows to 0: the optimizer's
    # start keeps Ile's codons, an evaluation leaves them out, and the two
    # sums of I differ in the last bit here
    tiny = gene.copy()
    tiny[AMINO_INDEX["Leu"]] += tiny[AMINO_INDEX["Ile"]]
    tiny[AMINO_INDEX["Ile"]] = 5e-324
    assert np.count_nonzero(tiny[AMINO_OF_CODON] * uniform_conditional()) \
        == np.count_nonzero(tiny[AMINO_OF_CODON]) - 3
    hosts = {"uniform": uniform, "gene": gene, "tiny": tiny}
    cdna._constants.cache_clear()
    cold = {name: fingerprint(uniform_conditional_rate(host, params))
            for name, host in hosts.items()}
    cdna._constants.cache_clear()
    for name in ("uniform", "gene", "tiny"):
        ba_optimize(hosts[name], params)
    # the tiny host's start is not kept, and only the last kept host is read:
    # a copy of it with the same bits reads, any other host evaluates
    for name, host, evaluated in (("tiny", tiny, 1), ("uniform", uniform, 1),
                                  ("gene", gene.copy(), 0)):
        evaluations.clear()
        assert fingerprint(uniform_conditional_rate(host, params)) == cold[name], name
        assert len(evaluations) == evaluated, name
    # the kept starts leave with their constants
    ba_optimize(point_mass_host("Ser"), params)
    evaluations.clear()
    uniform_conditional_rate(point_mass_host("Ser"), params)
    assert evaluations == []
    for m in range(1, 33):
        cdna._constants(ChannelParams(1e-2, 0.1, 1000 + m))
    for name, host in (("gene", gene), ("Ser", point_mass_host("Ser"))):
        evaluations.clear()
        uniform_conditional_rate(host, params)
        assert evaluations == [1], name
    assert fingerprint(uniform_conditional_rate(gene, params)) == cold["gene"]


def float_bits(result):
    return np.array([result.rate, result.mutual_information, result.host_entropy]).tobytes()


# the 16 aminos whose synonym set is one orbit: Met, Trp and the 2- and 4-fold sets
SINGLE_ORBIT = [a for a in AMINO_ACIDS if MULTIPLICITIES[AMINO_INDEX[a]] in (1, 2, 4)]


def test_uniform_rate_of_a_single_orbit_point_mass_is_its_optimum(kernel_builds):
    # the uniform conditional is these point masses' optimum, and both methods
    # read its closed form: the 64x64 tables lose the 2-fold rows at small
    # gamma, where Phe read "uniform" 0.0 at m=3000 against "ba"'s 1.9e-51
    deep = [ChannelParams(1e-2, 0.1, 1000), ChannelParams(1e-2, 0.1, 3000),
            ChannelParams(1e-2, 0.001, 10000)]
    cdna._constants.cache_clear()
    for params in det_aminos_points() + deep:
        for amino in SINGLE_ORBIT:
            optimum = float_bits(deterministic_rate(amino, params, "ba"))
            assert float_bits(deterministic_rate(amino, params, "uniform")) == optimum, (
                amino, params)
            evaluated = evaluate_rate(point_mass_host(amino), uniform_conditional(), params)
            assert float_bits(evaluated) == optimum, (amino, params)
    assert kernel_builds == []
    for params in deep:
        info = deterministic_rate("Phe", params, "uniform").mutual_information
        assert info == pytest.approx(decimal_point_mass_information(
            "Phe", params.q, params.gamma, params.m), rel=1e-12, abs=0.0), params
    # a 2-fold block one ulp off uniform is read in the tables, which hold
    # I at m=1000 only to about 5e-9 relative
    params = ChannelParams(1e-2, 0.1, 1000)
    cond = uniform_conditional()
    ttt, ttc = SYNONYM_INDICES[AMINO_INDEX["Phe"]]
    cond[ttt], cond[ttc] = np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)
    info = evaluate_rate(point_mass_host("Phe"), cond, params).mutual_information
    optimum = ba_optimize(point_mass_host("Phe"), params).mutual_information
    assert kernel_builds == [1]
    assert info != optimum and info == pytest.approx(optimum, rel=1e-8)


def test_an_orbit_optimum_evaluates_to_the_bits_of_its_run():
    # an even block is read in its amino's lane of the orbit stack, the other
    # lanes at their uniform start, where the run's last evaluation held them
    # at their own points: a lane's bits do not depend on the other lanes
    for params in det_aminos_points():
        for amino in ORBIT_AMINOS:
            host = point_mass_host(amino)
            optimum = ba_optimize(host, params)
            assert float_bits(evaluate_rate(host, optimum.conditional, params)) == float_bits(
                optimum), (amino, params)


# --- closed forms of the point masses whose uniform conditional is optimal -----

UNIFORM_OPTIMAL = [a for a in AMINO_ACIDS if MULTIPLICITIES[AMINO_INDEX[a]] in (2, 4)]


def decimal_point_mass(amino, q, gamma, m, cond=None):
    """(I(Z;U), max_u D_u) in bits of the point mass at ``amino``, in decimal.

    ``cond`` maps each synonym to its conditional (uniform when None).  The
    reference is computed from the channel's own eigenvalues on the
    positions where the synonyms differ, the others carrying nothing: the
    m-stage base entries there, their products, and the divergences of the
    synonyms' rows from their mixture.  The rows differ from it by about x
    relative, the largest |Lambda_chi| = |prod lam^m or mu^m| of a character
    that is not constant on the synonym set (2*mu^m/(1 + lam^m) on a
    transition pair).  I is about x**2, so the sum cancels all but that many
    digits and is taken with 2*|log10 x| + 50 of them: with 80 digits it
    reads -7.2e-81 at q=0.01164, gamma=0.1034, m=7183, where x is 2.4e-71
    and I 2.1e-142.  Below x = 1e-200, I is below 2*x**2 and rounds to 0.0.
    """
    q, gamma = Decimal(q), Decimal(gamma)
    codons = SYNONYMS[amino]
    positions = [i for i in range(3) if len({codon[i] for codon in codons}) > 1]
    bases = [[BASE_INDEX[codon[i]] for i in positions] for codon in codons]
    # the characters of the base channel on A, C, T, G, and which eigenvalue each carries
    characters = [((1, 1, 1, 1), 0), ((1, -1, -1, 1), 1), ((1, 1, -1, -1), 2), ((1, -1, 1, -1), 2)]
    varying = [chars for chars in itertools.product(characters, repeat=len(positions))
               if len({math.prod(c[b] for (c, _), b in zip(chars, u)) for u in bases}) > 1]
    def powers():
        return (1 - 4 * gamma * q / 3) ** m, (1 - 2 * q + 2 * gamma * q / 3) ** m

    with localcontext() as ctx:
        ctx.prec = 60
        lam, mu = powers()
        if len(codons) == 2:
            spread = abs(2 * mu / (1 + lam)) if 1 + lam else Decimal(0)
        else:
            spread = max(math.prod(abs((1, lam, mu)[kind]) for _, kind in chars)
                         for chars in varying)
        if spread < Decimal("1e-200"):
            return 0.0, 0.0
        ctx.prec = 50 + 2 * max(0, -spread.adjusted())
        lam, mu = powers()
        diag, within, other = (1 + 2 * mu + lam) / 4, (1 - 2 * mu + lam) / 4, (1 - lam) / 4
        # normalized here: a block that sums to 1 - 1e-16 would shift p by
        # more than the rows differ at depth
        weights = [Decimal(1) if cond is None else Decimal(float(cond[c])) for c in codons]
        weights = [w / sum(weights) for w in weights]

        def base(u, z):
            return diag if u == z else within if u + z == 3 else other

        rows = [[math.prod(base(b, z) for b, z in zip(u, out))
                 for out in itertools.product(range(4), repeat=len(positions))] for u in bases]
        p_out = [sum(w * row[z] for w, row in zip(weights, rows)) for z in range(len(rows[0]))]
        div = [sum(w * (w / p).ln() for w, p in zip(row, p_out) if w > 0) for row in rows]
        info = sum(w * d for w, d in zip(weights, div))
        return float(info / Decimal(2).ln()), float(max(div) / Decimal(2).ln())


def decimal_point_mass_information(amino, q, gamma, m):
    """I(Z;U) in bits of the point mass at ``amino`` under the uniform conditional."""
    return decimal_point_mass(amino, q, gamma, m)[0]


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
            run = engine(host, params)
            info = ba_optimize(host, params).mutual_information
            assert run.converged, (params, amino)
            assert abs(info - run.mutual_information) <= 1e-9 * info + 1e-15, (params, amino)


@pytest.mark.parametrize("m", [27400, 27500, 27600])
def test_two_fold_closed_form_rounds_a_subnormal_value_once(m):
    # I is near 1e-320 bits: t, near 1e-160, is scaled before the terms
    # (about t**2/2) are formed, so I is the correctly rounded subnormal
    params = ChannelParams(1e-2, 1.0, m)
    for amino in (a for a in UNIFORM_OPTIMAL if MULTIPLICITIES[AMINO_INDEX[a]] == 2):
        info = ba_optimize(point_mass_host(amino), params).mutual_information
        assert 0.0 < info < 2.0**-1022
        assert info == decimal_point_mass_information(amino, 1e-2, 1.0, m), amino


# --- the symmetry group of the codon channel and the orbit solver ---------------

ORBIT_AMINOS = ("Ile", "Leu", "Arg", "Ser", "Stp")


def symmetry_group():
    """(order, images): the channel's 3072 symmetries as permutations of the codons.

    At each position the 8 relabellings of A, C, T, G that keep the pairs
    {A, G} and {C, T}, times the 6 permutations of the positions; ``order``
    holds the permutation of each, ``images`` the image of every codon.
    """
    pairs = {frozenset("AG"), frozenset("CT")}
    keep = np.array([p for p in itertools.permutations(range(4))
                     if {frozenset(BASES[p[BASE_INDEX[b]]] for b in pair)
                         for pair in pairs} == pairs])
    digits = np.array([[BASE_INDEX[b] for b in codon] for codon in CODONS])
    orders, images = [], []
    for order in itertools.permutations(range(3)):
        first, second, third = (keep[:, digits[:, i]] for i in order)  # (8, 64) each
        image = 16 * first[:, None, None] + 4 * second[None, :, None] + third[None, None, :]
        images.append(image.reshape(-1, 64))
        orders += [order] * len(images[-1])
    return np.array(orders), np.concatenate(images)


def test_the_symmetry_group_keeps_the_class_table():
    order, images = symmetry_group()
    assert images.shape == (3072, 64)
    assert len({image.tobytes() for image in images}) == 3072
    assert all(sorted(image) == list(range(64)) for image in images)
    # the class of (g u, g z) holds the relations of (u, z) in the order g
    # gives the positions, so the channel keeps its law
    classes = mutation_channel._CODON_CLASSES
    relations = np.stack([classes // 9, classes // 3 % 3, classes % 3])
    for g, (i, j, k) in zip(images, order):
        assert np.array_equal(classes[np.ix_(g, g)],
                              9 * relations[i] + 3 * relations[j] + relations[k])


def stabilizer_orbits(amino):
    """The orbits of the synonym set of ``amino`` under its stabilizer in the group."""
    _, images = symmetry_group()
    members = SYNONYM_INDICES[AMINO_INDEX[amino]]
    stabilizer = images[np.isin(images[:, members], members).all(axis=1)]
    return {frozenset(CODONS[v] for v in stabilizer[:, u]) for u in members}


def test_orbit_table_holds_the_stabilizer_orbits():
    assert set(cdna._ORBITS) == set(ORBIT_AMINOS)
    for amino, orbits in cdna._ORBITS.items():
        assert stabilizer_orbits(amino) == {frozenset(orbit) for orbit in orbits}, amino
    # the aminos of the closed forms are one orbit each, which makes their
    # uniform conditional optimal
    for amino in UNIFORM_OPTIMAL:
        assert stabilizer_orbits(amino) == {frozenset(SYNONYMS[amino])}, amino


def test_the_orbit_stack_pads_each_lane_with_empty_blocks_and_orbits():
    code = cdna._orbit_code()
    # a block of the amino's own has at least one character; its blocks come first
    blocks = (code.counts > 0).sum(axis=1)
    assert blocks.max() == cdna._STACK_BLOCKS  # no block is padding in every lane
    for lane, own in enumerate(blocks.tolist()):
        assert (code.counts[lane, :own] > 0).all() and (code.monomials[lane, :own] < 16).all()
        assert (code.monomials[lane, own:] == 16).all() and (code.counts[lane, own:] == 0).all()
        assert not code.pairs[lane, own:].any() and not code.offsets[lane, own:].any()
        # every block of its own carries an exact difference
        assert (code.pairs[lane, :own].any(axis=1) | code.offsets[lane, :own].any(axis=1)).all()
    # a padded orbit has no weight at the uniform start
    assert (code.start > 0.0).sum(axis=1).tolist() == [
        len(orbits) for orbits in cdna._ORBITS.values()] == [2, 3, 3, 3, 2]


def assert_orbit_symmetric(amino, conditional):
    for orbit in cdna._ORBITS[amino]:
        values = {conditional[CODON_INDEX[codon]].hex() for codon in orbit}
        assert len(values) == 1, (amino, orbit, values)


@pytest.mark.parametrize("q,gamma,m", [
    # shallow cascades, q > 1/2 (negative eigenvalues) and the optima 9/8 above uniform
    (1e-3, 0.5, 1), (1e-2, 1.0, 30), (0.3, 1.4, 7), (1e-2, 0.1, 100), (0.9, 0.2, 3),
    (0.7, 1.2, 2), (1e-2, 0.1, 825), (1e-2, 0.1, 2154),
    # deep: I far below 1e-15, and below 2**-800 (the rows taken scaled)
    (1e-2, 0.1, 14678), (1e-9, 0.1, 316227766017), (1e-2, 1.0, 5623), (1e-2, 1.0, 22300),
    # entries that are exactly 0 (gamma = 0, and q = 1 at gamma = 3/2), no
    # mutation (q = 0), and lam = mu = 0, where I is 0
    (0.3, 0.0, 5), (1.0, 1.5, 3), (0.5, 1.5, 2), (0.0, 0.7, 4), (0.75, 1.0, 3),
    # Stp's rows differ by mu^m = 2e-17 in entries below 1/(2n): p - W from
    # the probabilities there read I 8% low
    (0.697, 0.0043, 41),
])
def test_orbit_solver_matches_decimal_reference(q, gamma, m):
    params = ChannelParams(q, gamma, m)
    for amino in ORBIT_AMINOS:
        result = ba_optimize(point_mass_host(amino), params)
        assert result.converged and result.gap_bits <= cdna.DEFAULT_TOL * result.mutual_information
        assert_orbit_symmetric(amino, result.conditional)
        assert result.conditional.min() >= 0.0  # a pinned orbit is exactly 0
        info, top = decimal_point_mass(amino, q, gamma, m, {
            codon: result.conditional[CODON_INDEX[codon]] for codon in SYNONYMS[amino]})
        assert result.mutual_information == pytest.approx(info, rel=1e-10, abs=0.0), amino
        assert result.mutual_information + result.gap_bits == pytest.approx(
            top, rel=1e-10, abs=0.0), amino


@pytest.mark.parametrize("q,gamma,m", [
    (1e-2, 1.0, 27300), (1e-2, 0.1, 270000), (7.214874675282885e-4, 0.8522762128525979, 452488),
])
def test_orbit_solver_keeps_the_digits_of_subnormal_optima(q, gamma, m):
    # I below 2.2e-308: the rows are taken scaled by a power of two and I is
    # rounded into the subnormal range once.  Summed term by term there, Ser
    # at the last point spent all 10000 evaluations uncertified
    params = ChannelParams(q, gamma, m)
    for amino in ORBIT_AMINOS:
        result = ba_optimize(point_mass_host(amino), params)
        info, _ = decimal_point_mass(amino, q, gamma, m, {
            codon: result.conditional[CODON_INDEX[codon]] for codon in SYNONYMS[amino]})
        assert result.converged and result.iterations <= 3, amino
        assert result.mutual_information == pytest.approx(info, rel=1e-12, abs=2.0**-1074)
        assert 0.0 <= result.mutual_information < 2.2250738585072014e-308


def test_orbit_solver_releases_an_orbit_it_emptied():
    # the first Newton step empties {TCT, TCC}, and the run releases it to
    # 0.0067; pinned there for good, the run could not certify.  lam^m is
    # subnormal here (2.3e-321) and I underflows to 0: in decimal, the
    # optimum leaves {TCT, TCC} empty
    result = ba_optimize(point_mass_host("Ser"),
                         ChannelParams(0.5578282459559125, 0.6486319320891702, 1121))
    assert result.converged
    assert (result.conditional[SYNONYM_INDICES[AMINO_INDEX["Ser"]]] > 0.0).all()


def test_orbit_faces_read_every_free_mask_in_every_lane():
    # rows of distinct scales, none flat, so every slot with a target is kept
    tables = cdna._orbit_tables(cdna._constants(ChannelParams(1e-2, 0.5, 30)))
    shape = tables.pairs.shape
    scales = np.arange(1.0, 1.0 + np.prod(shape[:3])).reshape(*shape[:3], 1)
    tables = tables._replace(pairs=np.broadcast_to(scales, shape))
    masks = [[bool(face >> j & 1) for j in range(3)] for face in range(8)]
    lanes = len(ORBIT_AMINOS)
    for first in range(8):
        free = np.array([masks[(first + lane) % 8] for lane in range(lanes)])
        faces = cdna._orbit_faces(tables, free)
        for lane, mask in enumerate(free.tolist()):
            on = [j for j in range(3) if mask[j]]
            orbits = on + [j for j in range(3) if not mask[j]]  # [0, 1, 2] with none free
            assert faces.ref[lane] == orbits[0], mask
            rows = tables.pairs[lane, orbits[1:], orbits[0]]
            assert np.array_equal(faces.rows[lane], rows), mask
            assert faces.kept[lane] == [(slot, orbits[1 + slot], float(rows[slot, 0]))
                                        for slot in range(max(len(on) - 1, 0))], mask


def test_orbit_moves_refuse_a_singular_system_and_pin_two_overshoots():
    one, two = [(0, 1, 2.0)], [(0, 1, 1.0), (1, 2, 1.0)]
    assert cdna._orbit_moves([[0.0, 0.0], [0.0, 0.0]], one, [1.0], [0.5]) is None
    assert cdna._orbit_moves([[4.0, 0.0], [0.0, 0.0]], one, [1.0], [0.5]) == [0.5]
    # det = a*d - b*b at most 1e-12*a*d counts as singular
    assert cdna._orbit_moves([[1.0, 1.0], [1.0, 1.0]], two, [1.0, 0.5], [0.5, 0.5]) is None
    near = 1.0 - 1e-13
    assert cdna._orbit_moves([[1.0, near], [near, 1.0]], two, [1.0, 0.5], [0.5, 0.5]) is None
    near = 1.0 - 1e-11
    assert cdna._orbit_moves([[1.0, near], [near, 1.0]], two, [1.0, 0.5], [0.5, 0.5]) is not None
    # both moves take their orbit below zero: both are pinned there at once,
    # although with the first pinned alone the second would move by -0.25
    coupled = [[1.0, -0.5], [-0.5, 1.0]]
    assert cdna._orbit_moves(coupled, two, [-1.0, -0.2], [0.1, 0.5]) == [-0.1, -0.5]


def test_an_orbit_lane_without_a_newton_point_keeps_its_weights(monkeypatch):
    code, lanes = cdna._orbit_code(), range(len(ORBIT_AMINOS))

    def newton(params, pairs=None):
        tables = cdna._orbit_tables(cdna._constants(params))
        faces = cdna._orbit_faces(tables if pairs is None else tables._replace(pairs=pairs),
                                  code.start > 0.0)
        return faces, cdna._orbit_newton(tables, faces, cdna._orbit_point(tables, code.start),
                                         lanes)

    # lam = mu = 0: every row is the same, so no face keeps a direction
    faces, (trials, moved) = newton(ChannelParams(0.75, 1.0, 3))
    assert faces.kept == [[]] * len(lanes) and moved == []
    assert trials.tobytes() == code.start.tobytes()
    # Ser's rows made flat: the other lanes keep the bits of their points
    params, ser = ChannelParams(1e-2, 0.5, 30), ORBIT_AMINOS.index("Ser")
    _, (steps, moved) = newton(params)
    assert moved == list(lanes)
    pairs = cdna._orbit_tables(cdna._constants(params)).pairs.copy()
    pairs[ser] = 0.0
    faces, (trials, moved) = newton(params, pairs)
    assert faces.kept[ser] == [] and moved == [lane for lane in lanes if lane != ser]
    assert trials[ser].tobytes() == code.start[ser].tobytes()
    assert np.delete(trials, ser, axis=0).tobytes() == np.delete(steps, ser, axis=0).tobytes()
    # a singular system, or a point that is not finite: no lane moves, and
    # each run ends after its one evaluation, uncertified, at the uniform start
    for moves in (lambda *args: None, lambda gram, kept, grad, at: [math.inf] * len(kept)):
        monkeypatch.setattr(cdna, "_orbit_moves", moves)
        _, (trials, moved) = newton(params)
        assert moved == [] and trials.tobytes() == code.start.tobytes()
        results, starts = cdna._orbit_optima(cdna._constants(params), cdna.DEFAULT_TOL,
                                             cdna.DEFAULT_MAX_ITER)
        for result, start in zip(results, starts):
            assert result.iterations == 1 and not result.converged
            assert result.mutual_information == start


@pytest.mark.parametrize("q,gamma,m,rare", [
    # Ser's first Newton step empties {TCT, TCC}, which it must release
    # (I underflows to 0 for all but Stp there)
    (0.5578282459559125, 0.6486319320891702, 1121, "Ser"),
    # a Newton step of Arg pins the orbit its optimum leaves empty
    (0.39122819049566204, 0.7751102739320455, 168, "Arg"),
    # Stp's rows lie within 2**-400 of each other and are taken scaled
    (0.013131485924767532, 0.0060488624030573535, 13043, "Stp"),
])
def test_the_orbit_stack_keeps_each_amino_on_its_own_path(q, gamma, m, rare):
    # one amino on a rare path, the other four on the common one: each
    # against the decimal reference at the conditional it returns
    params = ChannelParams(q, gamma, m)
    cdna._constants.cache_clear()
    results = {amino: ba_optimize(point_mass_host(amino), params) for amino in ORBIT_AMINOS}
    shifts = cdna._orbit_tables(cdna._constants(params)).shift
    shifted = {"Ser": {"Ile", "Leu", "Arg", "Ser"}, "Arg": set(), "Stp": {"Stp"}}[rare]
    assert [bool(shift) for shift in shifts] == [amino in shifted for amino in ORBIT_AMINOS]
    emptied = {amino for amino, result in results.items()
               if (result.conditional[SYNONYM_INDICES[AMINO_INDEX[amino]]] == 0.0).any()}
    # at Ser's point Arg's optimum leaves an orbit empty as well
    assert emptied == (set() if rare == "Stp" else {"Arg"})
    for amino, result in results.items():
        assert result.converged, amino
        assert_orbit_symmetric(amino, result.conditional)
        info, top = decimal_point_mass(amino, q, gamma, m, {
            codon: result.conditional[CODON_INDEX[codon]] for codon in SYNONYMS[amino]})
        assert result.mutual_information == pytest.approx(info, rel=1e-10, abs=0.0), amino
        assert result.mutual_information + result.gap_bits == pytest.approx(
            top, rel=1e-10, abs=0.0), amino
        assert result.gap_bits >= 0.0
    assert results[rare].mutual_information > 0.0 or rare == "Ser"


def test_point_mass_optima_are_nine_eighths_of_uniform_at_depth():
    # the item-3 ratio at gamma=0.1, where I < 1e-15: the optimum puts half
    # its weight on each side of the widest split of the rows
    for m in (14678, 17000):
        params = ChannelParams(1e-2, 0.1, m)
        for amino in ORBIT_AMINOS:
            info = ba_optimize(point_mass_host(amino), params).mutual_information
            uniform = decimal_point_mass_information(amino, 1e-2, 0.1, m)
            assert 0.0 < info < 1e-15
            assert info == pytest.approx(9 / 8 * uniform, rel=1e-6), (amino, m)
    # Stp where its 64-codon rows differ by less than their rounding: the
    # uniform value from 120 digits, and 9/8 of it
    params = ChannelParams(1e-2, 0.1, 2154)
    uniform = uniform_conditional_rate(point_mass_host("Stp"), params).mutual_information
    assert uniform == pytest.approx(7.2350566783e-37, rel=1e-10)
    assert decimal_point_mass_information("Stp", 1e-2, 0.1, 2154) == pytest.approx(
        7.2350566783e-37, rel=1e-10)
    result = ba_optimize(point_mass_host("Stp"), params)
    assert result.mutual_information == pytest.approx(9 / 8 * 7.2350566783e-37, rel=1e-6)
    tag, tga, taa = (result.conditional[CODON_INDEX[c]] for c in ("TAG", "TGA", "TAA"))
    assert tag == tga and tag + tga + taa == pytest.approx(1.0)


@pytest.mark.parametrize("q,gamma,m", [
    (1e-2, 0.1, 825), (1e-2, 0.1, 3481), (1e-2, 0.1, 10000), (1e-9, 0.1, 31622776602),
])
def test_evaluate_reads_an_uneven_stop_block_in_the_tables(q, gamma, m):
    # The documented limit: a Stp block with TAG and TGA one ulp apart is not
    # even on its orbits, so it is read in the 64x64 tables, whose rounding
    # of p - W moves I by up to about eps*sqrt(I) + eps**2 bits.  At m=825
    # that is 1.6e-10 of I; deeper, where the rows differ by less than their
    # rounding, no digit is left.  The even block is read exactly in the
    # orbit form.
    params, host = ChannelParams(q, gamma, m), point_mass_host("Stp")
    eps = np.finfo(float).eps
    even = uniform_conditional()
    uneven = even.copy()
    uneven[CODON_INDEX["TAG"]] = np.nextafter(even[CODON_INDEX["TAG"]], 1.0)
    uneven[CODON_INDEX["TGA"]] = np.nextafter(even[CODON_INDEX["TGA"]], 0.0)
    exact, _ = decimal_point_mass("Stp", q, gamma, m)
    assert evaluate_rate(host, even, params).mutual_information == pytest.approx(
        exact, rel=1e-10, abs=0.0)
    info = evaluate_rate(host, uneven, params).mutual_information
    exact, _ = decimal_point_mass("Stp", q, gamma, m, {
        codon: uneven[CODON_INDEX[codon]] for codon in SYNONYMS["Stp"]})
    assert abs(info - exact) <= 1e-10 * exact + eps * math.sqrt(exact) + eps**2
    assert (abs(info - exact) <= 1e-9 * exact) == (m == 825), (info, exact)


def test_orbit_solver_agrees_with_the_engine_on_shallow_points():
    # the box of the capacity benchmark: both certify, and the orbit solver
    # is never lower than the 64-codon optimizer beyond rounding
    rng = np.random.default_rng(12)
    for _ in range(40):
        q = 10 ** rng.uniform(-4, -1.5)
        params = ChannelParams(q, rng.uniform(0.1, 1.0),
                               max(1, round(10 ** rng.uniform(-2.5, -1.25) / q)))
        for amino in ORBIT_AMINOS:
            host = point_mass_host(amino)
            run, result = engine(host, params), ba_optimize(host, params)
            assert run.converged and result.converged, (params, amino)
            info = result.mutual_information
            assert abs(info - run.mutual_information) <= 1e-9 * info, (params, amino)
            assert info >= run.mutual_information * (1.0 - 1e-12), (params, amino)
            assert_orbit_symmetric(amino, result.conditional)


def test_orbit_solver_stops_where_the_gap_reaches_its_rounding():
    # near the kernel's series cut-off (I about 1e-9 here) the D carry up to
    # 5e-11 relative error, so a gap of 1e-13*I can be out of reach: the run
    # stops, uncertified, once two Newton points in a row do not halve the
    # gap, instead of spending max_iter evaluations on rounding
    for params in (ChannelParams(4.19576955120725e-06, 0.5443022206186786, 3327121),
                   ChannelParams(8.576146296356208e-08, 1.0533712290196042, 109654410)):
        for amino in ORBIT_AMINOS:
            result = ba_optimize(point_mass_host(amino), params, tol=1e-13)
            assert result.iterations <= 10, (params, amino)
            assert result.gap_bits <= 1e-10 * result.mutual_information, (params, amino)
            assert ba_optimize(point_mass_host(amino), params).converged


def test_capacity_runs_no_optimizer(monkeypatch, kernel_builds):
    runs = []
    blahut_arimoto = cdna._blahut_arimoto
    monkeypatch.setattr(cdna, "_blahut_arimoto",
                        lambda *args: runs.append(1) or blahut_arimoto(*args))
    params = ChannelParams(1e-3, 0.5, 30)
    cdna._constants.cache_clear()
    result = capacity_c(params)
    assert runs == [] and kernel_builds == []
    # one iteration for each of the 14 closed forms, and one per orbit
    # evaluation of Ile, Leu, Arg, Ser and Stp
    orbit_evaluations = sum(ba_optimize(point_mass_host(amino), params).iterations
                            for amino in ("Ile", "Leu", "Arg", "Ser", "Stp"))
    assert result.iterations == 14 + orbit_evaluations == 34 and result.converged
    assert runs == [] and kernel_builds == []


@pytest.mark.parametrize("amino", ["Met", "Trp"])
def test_single_codon_point_mass_builds_no_kernel(amino, monkeypatch, kernel_builds):
    params = ChannelParams(1e-3, 0.5, 30)
    expected = engine(point_mass_host(amino), params)
    runs = []
    blahut_arimoto = cdna._blahut_arimoto
    monkeypatch.setattr(cdna, "_blahut_arimoto",
                        lambda *args: runs.append(1) or blahut_arimoto(*args))
    cdna._constants.cache_clear()
    kernel_builds.clear()
    result = ba_optimize(point_mass_host(amino), params)
    assert runs == [] and kernel_builds == []
    # what the 64-codon optimizer returns, bit for bit
    assert result.mutual_information == expected.mutual_information == 0.0
    assert result.rate == expected.rate == 0.0
    assert result.iterations == expected.iterations == 1
    assert result.converged and expected.converged
    assert result.gap_bits == expected.gap_bits == 0.0
    assert np.array_equal(result.conditional, expected.conditional)
    assert np.array_equal(result.conditional, uniform_conditional())


def test_certified_start_returns_the_uniform_conditional():
    params = ChannelParams(1e-3, 0.5, 30)
    result = ba_optimize(point_mass_host("Ala"), params)
    assert result.iterations == 1 and result.converged
    # the 4-fold closed form, bit for bit
    assert result.mutual_information == ncdna.capacity_nc(params).value
    assert result.gap_bits == 0.0
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
    assert runs == []  # Ala's closed form
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
    # Ala's closed form needs no optimizer run, so it alone would return a
    # result; Ser's point mass takes the orbit solver, the uniform host the
    # 64-codon optimizer, which checks them itself as well
    for optimize in (ba_optimize, engine):
        with pytest.raises(ValueError, match=next(iter(controls))):
            optimize(host, ChannelParams(1e-3, 0.5, 30), **controls)
