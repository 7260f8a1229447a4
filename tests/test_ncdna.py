from decimal import Decimal, localcontext

import numpy as np
import pytest

from dnacap import ncdna
from dnacap.mutation_channel import ChannelParams, base_matrix_power
from dnacap.ncdna import (
    binary_entropy,
    bounds_check,
    capacity_nc,
    capacity_nc_gamma0,
    cutoff_estimate,
    row_entropy,
)


def direct_row_entropy(params):
    # oracle: entropy of an explicit matrix row
    row = base_matrix_power(params)[0]
    mask = row > 0
    return float(-(row[mask] * np.log2(row[mask])).sum())


def test_row_entropy_noiseless_is_zero():
    assert row_entropy(ChannelParams(0.0, 0.3, 9)) == 0.0


def test_row_entropy_uniform_is_two_bits():
    assert row_entropy(ChannelParams(0.75, 1.0, 1)) == pytest.approx(2.0, abs=1e-15)


def test_row_entropy_matches_direct_computation():
    assert row_entropy(ChannelParams(0.01, 1.0, 1)) == pytest.approx(
        direct_row_entropy(ChannelParams(0.01, 1.0, 1)), abs=1e-13
    )
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = ChannelParams(q=rng.uniform(0, 1), gamma=rng.uniform(0, 1.5),
                          m=int(rng.integers(0, 200)))
        assert row_entropy(p) == pytest.approx(direct_row_entropy(p), abs=1e-12)


def test_capacity_noiseless():
    result = capacity_nc(ChannelParams(0.0, 1.0, 1))
    assert result.value == pytest.approx(2.0, abs=1e-12)
    assert result.params.q == 0.0


def test_capacity_catastrophic_point():
    for m in range(1, 11):
        assert capacity_nc(ChannelParams(0.75, 1.0, m)).value == 0.0


def test_capacity_below_cutoff_threshold():
    m = int(np.ceil(cutoff_estimate(0.01, 1.0)))
    assert m == 120
    assert capacity_nc(ChannelParams(0.01, 1.0, m)).value < 0.1


def test_capacity_vanishes_well_past_cutoff():
    for q, gamma in ((0.01, 1.0), (0.05, 0.2)):
        m = int(10**4 / (gamma * q))
        assert capacity_nc(ChannelParams(q, gamma, m)).value < 1e-6


def test_capacity_monotone_in_m():
    rng = np.random.default_rng(29)
    for _ in range(15):
        q = rng.uniform(1e-4, 0.5)
        gamma = rng.uniform(0.01, 1.0)
        values = [capacity_nc(ChannelParams(q, gamma, m)).value for m in range(0, 80)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_gamma0_closed_form_examples():
    assert capacity_nc_gamma0(0.0, 5) == pytest.approx(2.0, abs=1e-15)
    assert capacity_nc_gamma0(0.01, 10**6) == pytest.approx(1.0, abs=1e-6)
    # oracle: direct binary-entropy evaluation at q=1/4, m=1
    assert capacity_nc_gamma0(0.25, 1) == pytest.approx(
        2.0 - binary_entropy(0.75), abs=1e-15
    )
    assert capacity_nc_gamma0(0.25, 1) == pytest.approx(1.188721875540867, abs=1e-12)


def test_gamma0_paths_agree():
    # the general closed form at gamma=0 and the dedicated formula must be
    # the same function
    rng = np.random.default_rng(31)
    for _ in range(40):
        q = rng.uniform(0, 1)
        m = int(rng.integers(0, 10**6))
        general = capacity_nc(ChannelParams(q, 0.0, m)).value
        assert general == pytest.approx(capacity_nc_gamma0(q, m), abs=1e-12)


def test_bounds_check_ordering():
    lower, value, upper = bounds_check(ChannelParams(0.01, 0.1, 100))
    assert lower < value < upper  # strictly between for interior gamma
    lower, value, _ = bounds_check(ChannelParams(0.01, 1.0, 100))
    assert lower == value
    _, value, upper = bounds_check(ChannelParams(0.01, 0.0, 100))
    assert value == upper


def test_bounds_check_sampled_range():
    rng = np.random.default_rng(37)
    for _ in range(30):
        p = ChannelParams(q=rng.uniform(0, 0.5), gamma=rng.uniform(0, 1.0),
                          m=int(rng.integers(0, 500)))
        lower, value, upper = bounds_check(p)
        assert lower <= value + 1e-12
        assert value <= upper + 1e-12


def test_bounds_check_range_violation():
    with pytest.raises(ValueError):
        bounds_check(ChannelParams(0.01, 1.2, 10))
    with pytest.raises(ValueError):
        bounds_check(ChannelParams(0.6, 0.5, 10))


def test_cutoff_estimate():
    assert cutoff_estimate(0.01, 1.0) == pytest.approx(120.0, abs=1e-12)
    assert cutoff_estimate(1e-9, 1.0) == pytest.approx(1.2e9, rel=1e-12)
    assert cutoff_estimate(0.01, 0.1) == pytest.approx(1200.0, abs=1e-9)
    with pytest.raises(ValueError):
        cutoff_estimate(0.0, 1.0)
    with pytest.raises(ValueError):
        cutoff_estimate(0.01, -0.5)


def test_binary_entropy_range():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def decimal_capacity(q, gamma, m):
    """2 - H(row) in bits, in 80-digit decimal arithmetic from the eigenvalues."""
    with localcontext() as ctx:
        ctx.prec = 80
        q, gamma = Decimal(q), Decimal(gamma)
        lam = (1 - 4 * gamma / 3 * q) ** m
        mu = (1 - 2 * (1 - gamma / 3) * q) ** m
        row = [(1 + 2 * mu + lam) / 4, (1 - 2 * mu + lam) / 4, (1 - lam) / 4, (1 - lam) / 4]
        return float(sum(r * (4 * r).ln() for r in row if r > 0) / Decimal(2).ln())


@pytest.mark.parametrize("q,gamma,m", [
    (1e-2, 1.0, 1), (1e-2, 0.1, 300), (1e-2, 1.0, 1000), (0.3, 1.4, 7), (0.9, 1.5, 3),
    (1.0, 1.0, 1), (0.1, 1.5, 1), (0.3, 1.5, 1),  # entries that are exactly 0
    (0.061, 1.5, 1), (0.113, 1.5, 1),  # a zero entry rounded to about -1e-18
    (1e-9, 1.0, 10**9), (1e-9, 0.001, 10**12),
    (1e-9, 0.01, 10**12),  # capacity 1.9e-12, where 2 - H(row) is 6e-5 off
])
def test_capacity_matches_decimal_reference(q, gamma, m):
    assert capacity_nc(ChannelParams(q, gamma, m)).value == pytest.approx(
        decimal_capacity(q, gamma, m), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("q,gamma,m", [
    (1e-2, 0.001, 1668101), (1e-2, 1.0, 3000), (1e-9, 1.0, 3 * 10**10), (1e-2, 0.1, 20000),
])
def test_capacity_below_1e_15_bits_is_returned_as_computed(q, gamma, m):
    # such capacities printed as 0, below coding rates at the same parameters
    value = capacity_nc(ChannelParams(q, gamma, m)).value
    assert 0.0 < value < 1e-15
    assert value == pytest.approx(decimal_capacity(q, gamma, m), rel=1e-9, abs=0.0)


def test_bounds_check_orders_capacities_below_1e_15_bits():
    lower, value, upper = bounds_check(ChannelParams(1e-2, 0.1, 20000))
    assert 0.0 < lower < value < 1e-15 < upper


@pytest.mark.parametrize("excess, misordered", [(1e-9, True), (1e-14, False)])
def test_bounds_check_ordering_is_relative(monkeypatch, excess, misordered):
    # the gamma = 1 bound raised by ``excess`` relative over a capacity of
    # 2.3e-35 bits: an absolute slack of 1e-12 bits let any excess pass, and
    # the relative slack passes only rounding
    capacity, calls = ncdna.capacity_nc, []

    def raised_lower_bound(p):
        calls.append(p)
        value = capacity(p).value * (1.0 + excess if len(calls) == 1 else 1.0)
        return ncdna.CapacityResult(value=value, params=p)
    monkeypatch.setattr(ncdna, "capacity_nc", raised_lower_bound)
    params = ChannelParams(1e-2, 1.0, 3000)
    if misordered:
        with pytest.raises(AssertionError, match="ordering violated"):
            bounds_check(params)
    else:
        assert bounds_check(params)[1] == capacity(params).value
