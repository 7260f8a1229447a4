"""Embedding capacity of freely writable (noncoding) DNA hosts.

A noncoding host can be overwritten at will, so the embedding channel is
just the quaternary symmetric substitution channel and capacity is
``2 - H(row)`` bits/base, with H(row) the entropy of any row of the
m-stage transition matrix.  All logarithms are base 2.
:func:`entropy_bits` is the package's one entropy formula; the rate
functions of :mod:`dnacap.cdna` import it from here.

The capacity is computed as the row's divergence from the uniform pmf,
a sum of non-negative terms in the deviations d of the entries
``(1 + d)/4``, so it keeps its relative accuracy when it is tiny, where
``2 - H(row)`` would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mutation_channel import ChannelParams, _stage_entries, base_matrix_power

_ZERO_DUST = 1e-15
# Below this |d| the series of (1 + d)*ln(1 + d) - d through d**8 is
# accurate to 3e-16 relative; above it the direct form loses at most about
# 5e-14 (rounding of order eps*|d| against a result near d**2/2).
_SERIES_BELOW = 1e-2
# coefficients (-1)**k / (k*(k - 1)) of d**k, k = 8 down to 2 (Horner order)
_SERIES = tuple((-1) ** k / (k * (k - 1)) for k in range(8, 1, -1))


@dataclass(frozen=True)
class CapacityResult:
    value: float  # bits/base
    params: ChannelParams


def entropy_bits(pmf: np.ndarray) -> float:
    """Shannon entropy in bits with 0*log(0) = 0."""
    p = np.asarray(pmf, dtype=float)
    mask = p > 0.0
    return float(-(p[mask] * np.log2(p[mask])).sum())


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable in bits, with 0*log(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    return entropy_bits([p, 1.0 - p])


def row_entropy(params: ChannelParams) -> float:
    """Entropy in bits of any row of the m-stage base transition matrix."""
    return entropy_bits(base_matrix_power(params)[0])


def _excess(entry: float, deviation: float) -> float:
    """``(1 + d)*ln(1 + d) - d >= 0`` for a row entry ``(1 + d)/4``.

    ``1 + d`` is taken as ``4*entry``, and its log from the entry when the
    entry is small, where the entry holds it to full precision.
    """
    d = deviation
    if abs(d) < _SERIES_BELOW:
        poly = 0.0
        for coefficient in _SERIES:
            poly = poly * d + coefficient
        return poly * d * d
    if entry <= 0.0:  # rounding can leave a zero entry slightly negative
        return -d
    log = math.log(4.0 * entry) if d < -0.5 else math.log1p(d)
    return 4.0 * entry * log - d


def _divergence_from_uniform(params: ChannelParams) -> float:
    """Divergence in bits of a row of the m-stage base matrix from uniform.

    ``sum_z ((1 + d_z)*ln(1 + d_z) - d_z) / (4*ln 2)``: the deviations d_z
    of a row sum to zero, and every term is non-negative.  Not clamped, so
    it keeps its relative accuracy however small it is.
    """
    entries, deviations = _stage_entries(params)
    total = sum(weight * _excess(entry, d)
                for weight, entry, d in zip((1.0, 1.0, 2.0), entries, deviations))
    return total / (4.0 * math.log(2.0))


def capacity_nc(params: ChannelParams) -> CapacityResult:
    """Capacity in bits/base of embedding in a freely writable host.

    Equals ``2 - row_entropy(params)``, computed as
    :func:`_divergence_from_uniform`.
    """
    value = _divergence_from_uniform(params)
    if value < _ZERO_DUST:  # capacities below 1e-15 bits/base are reported as 0
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
