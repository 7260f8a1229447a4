"""Side-informed embedding rates for protein-coding hosts.

The embedder sees the host amino-acid sequence and may substitute any
synonymous codon, so the channel input pmf factors as
``p(u) = p(x') * p(u|x')`` over the disjoint synonym sets of the genetic
code.  For a host amino pmf p(x') the achievable rate is

    R = max_{p(u|x')} I(Z; U) - H(X')   bits/codon,

clamped at zero.  This module evaluates that functional for a given
conditional, maximizes it with a partition-constrained Blahut-Arimoto
iteration, and provides the closed forms and approximations available in
special cases (no mutations; hosts induced by uniform codons; point-mass
hosts, including their linearized conditional solver and the capacity
search over all point masses).

Conventions
-----------
* a host pmf is a length-21 vector indexed like ``genetic_code.AMINO_ACIDS``;
* a conditional codon pmf is a length-64 vector whose entry u is
  p(u | amino(u)); every synonym block sums to one on its own.

One kernel computes every divergence D_u of a channel row from the output
pmf, as a sum of non-negative terms ``W(z|u) * phi(p(z)/W(z|u) - 1)`` with
``phi(t) = t - log1p(t)``, so no first-order terms cancel.  Each term takes
``p(z) - W(z|u)`` from the form of the channel that holds it to full
precision: the probabilities where the entry is small (shallow cascades)
and the deviations from 1/64 elsewhere (deep cascades, whose rates fall
far below machine epsilon).  Rates keep full relative accuracy at any depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .genetic_code import (
    AMINO_ACIDS,
    AMINO_INDEX,
    AMINO_OF_CODON,
    MULTIPLICITIES,
    SYNONYM_INDICES,
)
from .mutation_channel import (
    ChannelParams,
    base_matrix_power,
    codon_matrix,
    codon_matrix_deviations,
)

_LN2 = math.log(2.0)
_MONOTONE_SLACK = 1e-12
# Below this |t| the series t**2/2 - t**3/3 of phi(t) is accurate to 5e-11
# relative; above it t - log1p(t) loses at most 4.4e-11 (log1p rounds by up
# to 2.2e-16*|t|, against t**2/2), so the cut-off follows from the bounds.
_SERIES_BELOW = 1e-5

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


class SingularSystemError(ValueError):
    """The linearized conditional system is singular or hopelessly conditioned."""


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate evaluation or optimization.

    ``rate`` is ``max(0, mutual_information - host_entropy)`` in
    bits/codon; ``mutual_information`` is left unclamped.  ``conditional``
    is the per-amino codon conditional actually used (length 64).
    """

    rate: float
    conditional: np.ndarray
    iterations: int
    converged: bool
    mutual_information: float
    host_entropy: float


class CodingCapacity(NamedTuple):
    best_amino: str
    rate: float
    per_amino: np.ndarray
    converged: bool  # every optimizer run converged


def entropy_bits(pmf: np.ndarray) -> float:
    """Shannon entropy in bits with 0*log(0) = 0."""
    p = np.asarray(pmf, dtype=float)
    mask = p > 0.0
    return float(-(p[mask] * np.log2(p[mask])).sum())


def uniform_codon_host() -> np.ndarray:
    """Amino pmf induced by uniform codons: p(x') = |synonyms(x')| / 64."""
    return MULTIPLICITIES / 64.0


def point_mass_host(amino: str) -> np.ndarray:
    """Host pmf concentrated on a single amino acid."""
    host = np.zeros(len(AMINO_ACIDS))
    host[_amino_index(amino)] = 1.0
    return host


def uniform_conditional() -> np.ndarray:
    """Conditional assigning 1/|synonyms(x')| within every synonym set."""
    return 1.0 / MULTIPLICITIES[AMINO_OF_CODON].astype(float)


def _amino_index(amino: str) -> int:
    try:
        return AMINO_INDEX[amino]
    except KeyError:
        raise ValueError(f"unknown amino acid: {amino!r}") from None


def _check_host(host) -> np.ndarray:
    host = np.asarray(host, dtype=float)
    if host.shape != (21,):
        raise ValueError(f"host pmf must have shape (21,), got {host.shape}")
    if host.min() < -1e-12:
        raise ValueError("host pmf has negative entries")
    if abs(host.sum() - 1.0) > 1e-9:
        raise ValueError(f"host pmf sums to {host.sum()}, expected 1")
    return np.clip(host, 0.0, None)


def _check_conditional(cond, host) -> np.ndarray:
    # blocks of aminos the host never emits are irrelevant and left unchecked
    cond = np.asarray(cond, dtype=float)
    if cond.shape != (64,):
        raise ValueError(f"conditional must have shape (64,), got {cond.shape}")
    if cond.min() < -1e-12:
        raise ValueError("conditional has negative entries")
    for ai, idx in enumerate(SYNONYM_INDICES):
        if host[ai] > 0.0 and abs(cond[idx].sum() - 1.0) > 1e-9:
            raise ValueError(
                f"conditional for {AMINO_ACIDS[ai]} sums to {cond[idx].sum()}, "
                f"expected 1 (host mass {host[ai]})"
            )
    return np.clip(cond, 0.0, None)


# ---------------------------------------------------------------------------
# core engine, generic in the channel and in the synonym partition


def _kimura_channel(params: ChannelParams):
    return codon_matrix(base_matrix_power(params)), codon_matrix_deviations(params)


class _Problem:
    """A channel restricted to the inputs the host can emit.

    ``deviations`` is the channel as w, with entries ``(1 + w)/n`` for n
    outputs.  All the kernel needs from channel and support is set up here.
    """

    def __init__(self, matrix, deviations, groups, host_mass):
        n_inputs, n_outputs = matrix.shape
        sizes = np.array([len(idx) for idx in groups])
        group_of = np.zeros(n_inputs, dtype=np.intp)
        group_of[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), sizes)
        self.start = 1.0 / sizes[group_of]  # the uniform conditional
        mass_of = host_mass[group_of]
        self.support = np.flatnonzero(mass_of > 0.0)
        self.mass = mass_of[self.support]
        self.group = group_of[self.support]
        self.n = n_outputs

        rows = matrix[self.support]
        offsets = deviations[self.support] / n_outputs  # W - 1/n
        # p - W is exact to rounding in the probability form where W is
        # small and in the deviation form elsewhere; the absolute errors
        # (about eps*W and eps*|W - 1/n|) cross at W = 1/(2n)
        self.small = rows < 0.5 / n_outputs
        self.entry = np.where(self.small, rows, offsets)
        self.stacked = np.hstack([rows, offsets])
        # entries below 1e-150 count as zero: with t up to 1/W the series
        # (about W*t**3) could overflow.  Their term is the limit p(z), to
        # within W*log(1/W) < 1e-147, and the direct form gives it at t = 0
        zero = rows < 1e-150
        self.inv = np.divide(1.0, rows, out=np.zeros_like(rows), where=~zero)
        self.series_below = np.where(zero, 0.0, _SERIES_BELOW**2)
        self.rows = rows

    def information(self, cond):
        """I(Z;U) in bits, and D_u in nats for every supported input.

        D_u sums ``W*phi(t) = (p - W) - W*log1p(t)`` over the outputs z, or
        ``(p - W)*t*(1/2 - t/3)`` from the series, with t = (p - W)/W.
        """
        p_in = self.mass * cond
        out = p_in @ self.stacked  # p(z), then p(z) - 1/n
        num = np.where(self.small, out[:self.n], out[self.n:]) - self.entry
        t = num * self.inv
        terms = np.where(t * t < self.series_below, num * t * (0.5 - t / 3.0),
                         num - self.rows * np.log1p(t))
        div = terms.sum(axis=1)
        return float(p_in @ div) / _LN2, div


def _rate_result(info, cond, iterations, converged, host_mass) -> RateResult:
    host_entropy = entropy_bits(host_mass)
    return RateResult(
        rate=max(0.0, info - host_entropy),
        conditional=cond,
        iterations=iterations,
        converged=converged,
        mutual_information=info,
        host_entropy=host_entropy,
    )


def _blahut_arimoto(matrix, deviations, groups, host_mass, tol, max_iter) -> RateResult:
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    problem = _Problem(matrix, deviations, groups, host_mass)
    cond = problem.start[problem.support]
    info_old = -np.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        info, div = problem.information(cond)
        if info < info_old - _MONOTONE_SLACK:
            raise AssertionError(
                f"Blahut-Arimoto objective decreased: {info_old} -> {info}"
            )
        if abs(info - info_old) < tol:
            converged = True
            break
        info_old = info
        scaled = cond * np.exp(div - div.max())
        cond = scaled / np.bincount(problem.group, scaled)[problem.group]
    full = problem.start.copy()  # uniform where the host has no mass
    full[problem.support] = cond
    return _rate_result(info, full, iterations, converged, host_mass)


def ba_partitioned(channel, groups, host_mass, tol=DEFAULT_TOL,
                   max_iter=DEFAULT_MAX_ITER) -> RateResult:
    """Partition-constrained Blahut-Arimoto on an arbitrary channel.

    ``channel`` is a row-stochastic (inputs x outputs) matrix, ``groups``
    a list of index arrays partitioning the inputs into synonym sets, and
    ``host_mass`` the pmf over groups.  It runs the engine of
    :func:`ba_optimize` on any channel, so reduced synthetic codes can be
    optimized in tests and experiments.
    """
    channel = np.asarray(channel, dtype=float)
    host_mass = np.asarray(host_mass, dtype=float)
    deviations = channel.shape[1] * channel - 1.0
    return _blahut_arimoto(channel, deviations, groups, host_mass, tol, max_iter)


# ---------------------------------------------------------------------------
# achievable rates for the standard genetic code


def evaluate_rate(host, cond, params: ChannelParams) -> RateResult:
    """Rate I(Z;U) - H(X') for a given host pmf and codon conditional.

    No optimization is performed; the conditional is used as supplied.
    """
    host = _check_host(host)
    cond = _check_conditional(cond, host)
    problem = _Problem(*_kimura_channel(params), SYNONYM_INDICES, host)
    info, _ = problem.information(cond[problem.support])
    return _rate_result(info, cond, 0, True, host)


def ba_optimize(host, params: ChannelParams, tol=DEFAULT_TOL,
                max_iter=DEFAULT_MAX_ITER) -> RateResult:
    """Maximize I(Z;U) over the per-amino conditionals by Blahut-Arimoto.

    The update is the standard one with per-synonym-set renormalization,

        p(u|x')  <-  p(u|x') * exp(D_u) / sum_v p(v|x') * exp(D_v),

    with D_u the divergence of channel row u from the current output pmf;
    the constraint that U stays supported on the host's synonym set is
    preserved by construction.  Starts from the uniform conditional (a
    deterministic and already near-optimal initialization), stops when
    the objective moves less than ``tol`` bits, and reports failure to
    reach that point through ``converged`` rather than an exception.
    Aminos the host never emits keep their uniform conditional.
    """
    host = _check_host(host)
    return _blahut_arimoto(*_kimura_channel(params), SYNONYM_INDICES, host, tol, max_iter)


def rate_q0(host) -> float:
    """Mutation-free rate: E[log2 |synonyms(X')|] bits/codon."""
    host = _check_host(host)
    return float((host * np.log2(MULTIPLICITIES)).sum())


def rate_uniform_host(params: ChannelParams) -> float:
    """Rate for the host induced by uniform codons, in closed form.

    With p(x') = |synonyms(x')|/64 the uniform conditional makes the
    channel input uniform, so the maximized mutual information is the
    unconstrained codon-channel capacity, three times the per-base
    capacity: R = 3*C - H(X'), clamped at zero.
    """
    from .ncdna import capacity_nc

    host_entropy = entropy_bits(uniform_codon_host())
    return max(0.0, 3.0 * capacity_nc(params).value - host_entropy)


def uniform_conditional_rate(host, params: ChannelParams) -> RateResult:
    """Rate with the uniform conditional p(u|x') = 1/|synonyms(x')|.

    A good, cheap approximation to the optimized rate: exact at q=0 and
    for the uniform-codon host, and close elsewhere.
    """
    return evaluate_rate(host, uniform_conditional(), params)


def steganographic_rate(host_codon_usage, host, params: ChannelParams) -> RateResult:
    """Rate when the host's own synonymous-codon usage must be preserved.

    The conditional is pegged to the empirical usage, so no maximization
    happens and the result is at most the optimized rate.  An amino the
    host emits but whose usage block is empty signals that the pmf and
    the usage came from different sequences, and raises.
    """
    host = _check_host(host)
    usage = np.asarray(host_codon_usage, dtype=float)
    if usage.shape != (64,):
        raise ValueError(f"codon usage must have shape (64,), got {usage.shape}")
    usage = usage.copy()
    for ai, idx in enumerate(SYNONYM_INDICES):
        block = usage[idx].sum()
        if host[ai] > 0.0 and abs(block - 1.0) > 1e-9:
            raise ValueError(
                f"host emits {AMINO_ACIDS[ai]} but its codon usage is undefined "
                f"(block sum {block}); pmf and usage must come from one sequence"
            )
        if block <= 0.0:  # unreachable block, keep it a valid pmf
            usage[idx] = 1.0 / len(idx)
    return evaluate_rate(host, usage, params)


def linearized_conditional(amino: str, params: ChannelParams) -> np.ndarray:
    """Closed-form approximate optimal conditional for a point-mass host.

    Solves pi (L L^T) = 1 with L the channel rows of the amino's synonym
    codons, clamps any (small) negative entries to zero and renormalizes.
    The system is singular when an eigenvalue of the base matrix vanishes
    (q equal to 3/(4*gamma) or 3/(2*(3-gamma))) and ill-conditioned deep
    past the capacity cut-off; both raise :class:`SingularSystemError`.
    q < 1/2 is always safe for the exact system.
    """
    idx = SYNONYM_INDICES[_amino_index(amino)]
    rows = codon_matrix(base_matrix_power(params))[idx]
    gram = rows @ rows.T
    if np.linalg.cond(gram) > 1e12:
        raise SingularSystemError(
            f"synonym-row Gram matrix for {amino} is numerically singular "
            f"at q={params.q}, gamma={params.gamma}, m={params.m}"
        )
    raw = np.linalg.solve(gram, np.ones(len(idx)))
    clamped = np.clip(raw, 0.0, None)
    total = clamped.sum()
    if total <= 0.0:
        raise SingularSystemError(f"linearized solution for {amino} clamped to zero")
    return clamped / total


def deterministic_rate(amino: str, params: ChannelParams, method: str = "ba",
                       tol=1e-12, max_iter=DEFAULT_MAX_ITER) -> RateResult:
    """Rate for a host that always emits one amino acid (H(X') = 0).

    ``method`` selects the conditional: ``"ba"`` optimizes, ``"uniform"``
    spreads evenly, ``"linearized"`` uses the closed-form approximation.
    Single-codon aminos (Met, Trp) can only carry rate zero and return
    immediately.
    """
    ai = _amino_index(amino)
    host = point_mass_host(amino)
    if MULTIPLICITIES[ai] == 1:
        return _rate_result(0.0, uniform_conditional(), 0, True, host)
    if method == "ba":
        return ba_optimize(host, params, tol=tol, max_iter=max_iter)
    if method == "uniform":
        return uniform_conditional_rate(host, params)
    if method == "linearized":
        cond = uniform_conditional()
        cond[SYNONYM_INDICES[ai]] = linearized_conditional(amino, params)
        return evaluate_rate(host, cond, params)
    raise ValueError(f"unknown method {method!r}; expected ba, uniform or linearized")


def capacity_c(params: ChannelParams, include_stp: bool = True,
               tol=1e-12, max_iter=DEFAULT_MAX_ITER) -> CodingCapacity:
    """Capacity of coding-host embedding: best point-mass host and its rate.

    The capacity-achieving host pmf is deterministic, so the search
    evaluates the optimized rate for each amino acid (the two
    single-codon ones are zero outright, leaving 19 optimizer runs) and
    returns the argmax with the full per-amino rate table.  With
    ``include_stp=False`` the stop symbol, which a real gene can use only
    once, is excluded from the argmax but still reported in the table.
    """
    results = [deterministic_rate(amino, params, "ba", tol, max_iter) for amino in AMINO_ACIDS]
    rates = np.array([result.rate for result in results])
    candidates = rates.copy()
    if not include_stp:
        candidates[AMINO_INDEX["Stp"]] = -np.inf
    best = int(np.argmax(candidates))
    return CodingCapacity(
        best_amino=AMINO_ACIDS[best], rate=float(rates[best]), per_amino=rates,
        converged=all(result.converged for result in results),
    )
