"""Embedding capacity of freely writable (noncoding) DNA hosts.

A noncoding host can be overwritten at will, so the embedding channel is
just the quaternary symmetric substitution channel and capacity is
``2 - H(row)`` bits/base, with H(row) the entropy of any row of the
m-stage transition matrix.  All logarithms are base 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mutation_channel import ChannelParams, _stage_entries

_ZERO_DUST = 1e-15


@dataclass(frozen=True)
class CapacityResult:
    value: float  # bits/base
    params: ChannelParams


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable in bits, with 0*log(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    total = 0.0
    for x in (p, 1.0 - p):
        if x > 0.0:
            total -= x * np.log2(x)
    return float(total)


def row_entropy(params: ChannelParams) -> float:
    """Entropy in bits of any row of the m-stage base transition matrix."""
    entries, _ = _stage_entries(params)
    total = 0.0
    for p, weight in zip(entries, (1.0, 1.0, 2.0)):
        if p > 0.0:
            total -= weight * p * np.log2(p)
    return float(total)


def capacity_nc(params: ChannelParams) -> CapacityResult:
    """Capacity in bits/base of embedding in a freely writable host."""
    value = 2.0 - row_entropy(params)
    if value < _ZERO_DUST:  # keep sweep output clean of floating-point dust
        value = 0.0
    return CapacityResult(value=value, params=params)


def capacity_nc_gamma0(q: float, m: int) -> float:
    """Closed form of the gamma = 0 capacity, 2 - h((1 + (1-2q)^m)/2).

    With gamma = 0 transversions are impossible, the chain is reducible,
    and the large-m capacity limit is 1 bit/base instead of 0.
    """
    params = ChannelParams(q=q, gamma=0.0, m=m)  # reuse range validation
    (_, within, _), _ = _stage_entries(params)
    value = 2.0 - binary_entropy(within)
    return 0.0 if value < _ZERO_DUST else value


def bounds_check(params: ChannelParams) -> tuple[float, float, float]:
    """Capacity together with its gamma = 1 lower and gamma = 0 upper bound.

    Only valid on the range where the ordering is established
    (gamma <= 1, q <= 1/2); other inputs raise.
    """
    if params.gamma > 1.0 or params.q > 0.5:
        raise ValueError(
            f"bounds are established for gamma <= 1 and q <= 1/2, "
            f"got gamma={params.gamma}, q={params.q}"
        )
    lower = capacity_nc(ChannelParams(params.q, 1.0, params.m)).value
    value = capacity_nc(params).value
    upper = capacity_nc(ChannelParams(params.q, 0.0, params.m)).value
    if not (lower <= value + 1e-12 and value <= upper + 1e-12):
        raise AssertionError(
            f"capacity bound ordering violated: {lower} / {value} / {upper}"
        )
    return lower, value, upper


def cutoff_estimate(q: float, gamma: float) -> float:
    """Rule-of-thumb stage count 6/(5*gamma*q) where capacity has decayed.

    Empirical, read off capacity-vs-m curves; use as an order-of-magnitude
    guide, not an asserted invariant.
    """
    if q <= 0.0 or gamma <= 0.0:
        raise ValueError(f"cutoff needs q > 0 and gamma > 0, got q={q}, gamma={gamma}")
    return 6.0 / (5.0 * gamma * q)
