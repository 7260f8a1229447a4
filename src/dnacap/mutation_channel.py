"""Kimura two-parameter substitution channel and its cascaded powers.

The single-stage 4x4 transition matrix (base order A, C, T, G) has
diagonal ``1 - q``, within-category entries ``(1 - 2*gamma/3)*q`` for the
purine pair A<->G and the pyrimidine pair C<->T, and cross-category
entries ``(gamma/3)*q``.  ``q`` is the per-stage substitution probability
and ``gamma`` in [0, 3/2] shapes the transition/transversion balance
(``gamma = 1`` makes all off-diagonal entries equal).

The matrix is symmetric, so its m-th power is available in closed form
through the two non-unit eigenvalues

    lam = 1 - (4*gamma/3)*q        mu = 1 - 2*(1 - gamma/3)*q

with diagonal entries ``(1 + 2*mu^m + lam^m)/4``, within-category entries
``(1 - 2*mu^m + lam^m)/4`` and all remaining entries ``(1 - lam^m)/4``.
Cascades of any depth therefore cost O(1); iterated multiplication exists
only as a test oracle.  Codons see the threefold Kronecker product of the
base matrix.  A base pair is in one of three relations (same base,
transition, transversion), so a codon pair is in one of 27 classes, and
the 64x64 codon channel takes one value per class: ``_CODON_CLASSES``
holds the class of every entry, and :func:`_class_deviations` the
deviations of the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .genetic_code import BASE_INDEX, BASES

_MAX_STAGES = 2**63 - 1


@dataclass(frozen=True)
class ChannelParams:
    """Substitution-channel parameters: per-stage rate q, shape gamma, depth m."""

    q: float
    gamma: float
    m: int = 1

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")
        if not 0.0 <= self.gamma <= 1.5:
            raise ValueError(f"gamma must be in [0, 3/2], got {self.gamma}")
        if isinstance(self.m, float) or not isinstance(self.m, (int, np.integer)):
            raise ValueError(f"m must be an integer (stages are discrete), got {self.m!r}")
        if not 0 <= self.m <= _MAX_STAGES:
            raise ValueError(f"m must be in [0, 2**63 - 1], got {self.m}")


class Eigenpair(NamedTuple):
    lam: float
    mu: float


def _decrements(params: ChannelParams) -> tuple[float, float]:
    """``1 - lam`` and ``1 - mu``: (4*gamma/3)*q and 2*(1 - gamma/3)*q."""
    return (4.0 * params.gamma / 3.0) * params.q, 2.0 * (1.0 - params.gamma / 3.0) * params.q


def eigenvalues(params: ChannelParams) -> Eigenpair:
    """The two non-unit eigenvalues of the single-stage matrix."""
    return Eigenpair(*(1.0 - a for a in _decrements(params)))


def _power_and_rest(a: float, m: int) -> tuple[float, float]:
    """``x**m`` and ``1 - x**m`` for the eigenvalue ``x = 1 - a``, a in [0, 2].

    Works from the unrounded decrement a: rounding ``1 - a`` to double
    first would multiply its rounding error by m.  exp/log take any
    integer m, avoid libm pow quirks and underflow cleanly.
    """
    if m == 0:
        return 1.0, 0.0
    if a < 1.0:
        exponent = m * math.log1p(-a)
        return math.exp(exponent), -math.expm1(exponent)
    # x = 1 - a <= 0 is exact here, and the parity of m carries its sign
    power = math.exp(m * math.log(a - 1.0)) if a > 1.0 else 0.0
    power = -power if m % 2 == 1 else power
    return power, 1.0 - power


def _eigenvalue_powers(params: ChannelParams):
    """``(lam**m, 1 - lam**m)`` and ``(mu**m, 1 - mu**m)`` by :func:`_power_and_rest`."""
    return tuple(_power_and_rest(a, params.m) for a in _decrements(params))


def _stage_entries(params: ChannelParams):
    """Diagonal, within-category and other entries of the m-stage base matrix.

    Returns ``(entries, deviations)``: the three entries, and the three d
    with entry ``(1 + d)/4``.  The entries keep full relative precision
    when they are small (shallow cascades), the deviations when they are
    close to 1/4 (deep cascades).
    """
    (lam_m, lam_rest), (mu_m, mu_rest) = _eigenvalue_powers(params)
    deviations = (2.0 * mu_m + lam_m, lam_m - 2.0 * mu_m, -lam_m)
    entries = (0.25 * (1.0 + deviations[0]), 0.25 * (2.0 * mu_rest - lam_rest),
               0.25 * lam_rest)
    return entries, deviations


def _symmetric(diag: float, within: float, other: float) -> np.ndarray:
    # 4x4 matrix with the Kimura layout: A<->G and C<->T are the within-
    # category pairs (index i pairs with 3 - i in the base order A, C, T, G)
    matrix = np.full((4, 4), other)
    for i in range(4):
        matrix[i, i] = diag
        matrix[i, 3 - i] = within
    return matrix


def build_base_matrix(params: ChannelParams) -> np.ndarray:
    """Single-stage 4x4 transition matrix (the stage count m is ignored)."""
    q, gamma = params.q, params.gamma
    pi = _symmetric(1.0 - q, (1.0 - 2.0 * gamma / 3.0) * q, (gamma / 3.0) * q)
    return np.clip(pi, 0.0, 1.0)


def base_matrix_power(params: ChannelParams) -> np.ndarray:
    """m-stage 4x4 transition matrix, evaluated in closed form."""
    entries, _ = _stage_entries(params)
    return np.clip(_symmetric(*entries), 0.0, 1.0)


def accumulated_rate(params: ChannelParams) -> float:
    """Probability that a base differs from the original after m stages."""
    (_, within, other), _ = _stage_entries(params)
    return min(max(within + 2.0 * other, 0.0), 1.0)


def codon_matrix(base: np.ndarray) -> np.ndarray:
    """64x64 codon transition matrix: threefold Kronecker product of `base`.

    Codon indexing follows :mod:`dnacap.genetic_code`, so entry
    ``[16*i1+4*i2+i3, 16*j1+4*j2+j3]`` is the product of the three
    per-position base transition probabilities.
    """
    base = np.asarray(base, dtype=float)
    if base.shape != (4, 4):
        raise ValueError(f"base matrix must be 4x4, got {base.shape}")
    return _kron(np.multiply, _kron(np.multiply, base, base), base)


def _kron(op, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # op(x[i, j], y[k, l]) at [i*len(y) + k, j*len(y) + l]; broadcasting
    # gives np.kron's entries at a fraction of its cost on these small blocks
    shape = (x.shape[0] * y.shape[0], x.shape[1] * y.shape[1])
    return op(x[:, None, :, None], y[None, :, None, :]).reshape(shape)


# the relation of two bases: 0 the same, 1 a transition, 2 a transversion
_RELATION = _symmetric(0, 1, 2)
#: the class 9*r1 + 3*r2 + r3 of every codon pair, from its relations at the
#: three positions
_CODON_CLASSES = _kron(np.add, _kron(np.add, 9 * _RELATION, 3 * _RELATION), _RELATION)
_CODON_CLASSES.flags.writeable = False


def _class_deviations(deviations) -> np.ndarray:
    """The deviations w of the codon classes 9*r1 + 3*r2 + r3 from those d of the relations.

    ``1 + w = (1 + d[r1])*(1 + d[r2])*(1 + d[r3])``, combined as
    ``x + y + x*y`` without forming ``1 + d``, in the order in which
    :func:`_kron` combines the three positions, so ``w[_CODON_CLASSES]``
    has the bits of :func:`codon_matrix_deviations`.
    """
    d = np.asarray(deviations)
    pair = (d[:, None] + d + d[:, None] * d).ravel()
    return (pair[:, None] + d + pair[:, None] * d).ravel()


def codon_matrix_deviations(params: ChannelParams) -> np.ndarray:
    """64x64 matrix w with m-stage codon transition probabilities (1 + w)/64.

    The deviations are combined multiplicatively, (1+w) = (1+d1)(1+d2)(1+d3),
    without ever forming ``1 + d`` explicitly, so deviations far below
    machine epsilon relative to 1/64 survive.  This is the public 64x64
    form of the 27 class deviations (:func:`_class_deviations`), equal to
    them bit for bit; the rate computations in :mod:`dnacap.cdna` read the
    classes through their kernel and never build this matrix.
    """
    return _class_deviations(_stage_entries(params)[1])[_CODON_CLASSES]


def gamma_from_ti_tv(epsilon: float) -> float:
    """Shape parameter gamma for a given transition/transversion ratio."""
    if epsilon <= 0.0:
        raise ValueError(f"transition/transversion ratio must be positive, got {epsilon}")
    return 3.0 / (2.0 * (epsilon + 1.0))


def simulate_chain(params: ChannelParams, bases, seed: int):
    """Push a base sequence through m independent single-stage substitutions.

    Monte Carlo companion to :func:`accumulated_rate`: with n bases the
    empirical mismatch fraction is Binomial(n, accumulated_rate)/n.
    Deterministic for a fixed seed.  Accepts a string or any sequence of
    base letters and returns the same kind.
    """
    was_str = isinstance(bases, str)
    idx = np.array([BASE_INDEX[b] for b in bases], dtype=np.intp)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(build_base_matrix(params), axis=1)
    for _ in range(params.m):
        u = rng.random(idx.size)
        idx = np.clip((cum[idx] < u[:, None]).sum(axis=1), 0, 3)
    out = [BASES[i] for i in idx]
    return "".join(out) if was_str else out
