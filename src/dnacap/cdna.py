"""Side-informed embedding rates for protein-coding hosts.

The embedder sees the host amino-acid sequence and may substitute any
synonymous codon, so the channel input pmf factors as
``p(u) = p(x') * p(u|x')`` over the disjoint synonym sets of the genetic
code.  For a host amino pmf p(x') the achievable rate is

    R = max_{p(u|x')} I(Z; U) - H(X')   bits/codon,

clamped at zero.  This module evaluates that functional for a given
conditional, maximizes it over the per-amino conditionals, and provides
the closed forms and approximations available in special cases (no
mutations; hosts induced by uniform codons; point-mass hosts, including
their linearized conditional solver and the capacity search over all
point masses).

One optimizer serves every maximization.  It stops on the duality gap
``sum_x' p(x') max_{u in x'} D_u - I``, an upper bound on the distance to
the optimum (Blahut 1972), once the gap is at most ``tol`` times I plus
1e-15 bits; ``converged`` means certified.  From the uniform start it
takes Blahut-Arimoto steps while each halves the gap, then projected Newton
steps on the face of inputs of positive conditional, which reach optima on
the boundary of the simplex that Blahut-Arimoto only crawls towards.  A
Newton step pins every input it would push below zero at once, falls back
to a ratio test only when that point does not raise I, and is not
backtracked; a singular Newton system gets one minimum-norm step from an
SVD of the factor of -H (:func:`ba_optimize` gives the details).

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
far below machine epsilon).  So I keeps 5e-11 relative accuracy at any depth,
and the closed forms and the noncoding capacity keep theirs, except Stp's deep
at small gamma, whose rows differ by less than the tables' rounding.  An optimum
below 1e-15 bits can be certified by the stop rule's floor alone, and its I
may read up to 1/9 low.

The codon channel takes 27 distinct values, one for each triple of
per-position relations (same base, transition, transversion), so the
kernel's tables are built once per parameter set on those 27 classes and
read through a class table of the 64x64 entries.  The kernels of the last
32 parameter sets are kept, so sweeps that revisit an m-grid once per host
and method build each parameter set once.  Each evaluation or optimizer
run selects the rows of the inputs its host can emit: a point mass
gathers its few rows from the classes, and a host with more inputs takes
them from tables of all 64 rows, which are gathered once per parameter
set on first need, kept with its kernel (164 KiB, at most about 5 MiB in
all) and used as they are when the host can emit every input.  The point
masses of 14 aminos need no tables: their synonym sets are orbits of the
channel's symmetries (the 4-fold sets, and the 2-fold transition pairs at
the third base), so the uniform conditional is optimal and I has a closed
form in lam^m and mu^m.  The point masses of Ile, Leu, Arg, Ser and Stp
run the optimizer as any host does.  Sums over synonym sets, such as the
check that every block of a conditional sums to one, are one
``np.bincount`` over the codon-to-amino map.
"""

from __future__ import annotations

import functools
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
    synonym_sums,
)
# base_matrix_power, codon_matrix and codon_matrix_deviations build the
# same channel as a 4x4 and two 64x64 matrices; the kernel needs none of
# them, but benchmarks/spans.py wraps them here by name
from .mutation_channel import (  # noqa: F401
    _CODON_CLASSES,
    ChannelParams,
    _codon_class_entries,
    _eigenvalue_powers,
    base_matrix_power,
    codon_matrix,
    codon_matrix_deviations,
)
from .ncdna import _divergence_from_uniform, _excess, capacity_nc, entropy_bits

_LN2 = math.log(2.0)
# bits: the floor of the stop rule (``_Ascent._within``) and of no other check
_GAP_FLOOR = 1e-15
# step halvings along one Frank-Wolfe direction; a Newton direction is not backtracked
_BACKTRACKS = 20
# a rise in I larger than this share of I (about 500 ulps) is read off two
# values of I.  Their rounding is a few ulps; the kernel's terms err by up to
# 5e-11 relative, but smoothly, and at the series cut-off a term is 5e-11*W
_DECISIVE = 1e-13
# a Blahut-Arimoto step that lowers I by more than this share of I has a wrong
# divergence: two values of I each err by up to the kernel's 5e-11.  No floor:
# where I underflows, the start's gap (<= n*I for n inputs) certifies the run
_MONOTONE_SLACK = 1e-10
# Below this |t| the series t**2/2 - t**3/3 of phi(t) is accurate to 5e-11
# relative; above it t - log1p(t) loses at most 4.4e-11 (log1p rounds by up
# to 2.2e-16*|t|, against t**2/2), so the cut-off follows from the bounds.
_SERIES_BELOW = 1e-5

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000


class SingularSystemError(ValueError):
    """The linearized conditional system is singular or hopelessly conditioned."""


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate evaluation or optimization.

    ``rate`` is ``max(0, mutual_information - host_entropy)`` in
    bits/codon; ``mutual_information`` is left unclamped.  ``conditional``
    is the per-amino codon conditional actually used (length 64).  For an
    optimizer run ``gap_bits`` is the duality gap at that conditional, an
    upper bound on the distance of ``mutual_information`` to the optimum,
    and ``converged`` means certified: the gap is at most ``tol`` times
    the information plus 1e-15 bits.  At a certified optimum the gap can
    read a few ulps of I below zero, from rounding.  An evaluation has no
    gap (None).
    """

    rate: float
    conditional: np.ndarray
    iterations: int
    converged: bool
    mutual_information: float
    host_entropy: float
    gap_bits: float | None = None


class CodingCapacity(NamedTuple):
    best_amino: str
    rate: float
    per_amino: np.ndarray
    converged: bool  # every optimizer run is certified
    iterations: int  # over all optimizer runs
    gap_bits: float  # the largest duality gap of a run


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
    return _SYNONYM_SETS.start.copy()


def _amino_index(amino: str) -> int:
    try:
        return AMINO_INDEX[amino]
    except KeyError:
        raise ValueError(f"unknown amino acid: {amino!r}") from None


def _nonnegative(values, name: str) -> np.ndarray:
    """``values`` clipped at zero; a non-finite entry or one below -1e-12 raises."""
    if not np.isfinite(values).all():  # NaN would pass every range check
        raise ValueError(f"{name} has non-finite entries")
    if values.min() < -1e-12:
        raise ValueError(f"{name} has negative entries")
    return np.clip(values, 0.0, None)


def _check_host(host) -> np.ndarray:
    host = np.asarray(host, dtype=float)
    if host.shape != (21,):
        raise ValueError(f"host pmf must have shape (21,), got {host.shape}")
    # a valid pmf, as every host the package builds, needs no clip: NaN
    # fails min >= 0 and an infinite entry one of the two tests
    if host.min() >= 0.0 and abs(host.sum() - 1.0) <= 1e-9:
        return host
    clipped = _nonnegative(host, "host pmf")
    if abs(host.sum() - 1.0) > 1e-9:
        raise ValueError(f"host pmf sums to {host.sum()}, expected 1")
    return clipped


def _check_conditional(cond, host) -> np.ndarray:
    # blocks of aminos the host never emits are irrelevant and left unchecked
    cond = np.asarray(cond, dtype=float)
    if cond.shape != (64,):
        raise ValueError(f"conditional must have shape (64,), got {cond.shape}")
    clipped = _nonnegative(cond, "conditional")
    sums = synonym_sums(cond)
    ai = _first_unnormalized(sums, host)
    if ai is not None:
        raise ValueError(
            f"conditional for {AMINO_ACIDS[ai]} sums to {sums[ai]}, "
            f"expected 1 (host mass {host[ai]})"
        )
    return clipped


def _first_unnormalized(sums, host):
    """The first amino the host emits whose block sum is more than 1e-9 off 1, or None."""
    bad = np.flatnonzero((host > 0.0) & (np.abs(sums - 1.0) > 1e-9))
    return int(bad[0]) if bad.size else None


# ---------------------------------------------------------------------------
# core engine, generic in the channel and in the synonym partition


class _Tables(NamedTuple):
    """The divergence kernel's constants for some rows of a channel, one row per input.

    ``rows`` holds the probabilities W.  p - W is exact to rounding in the
    probability form where W is small and in the deviation form (W - 1/n
    for n outputs) elsewhere; the absolute errors (about eps*W and
    eps*|W - 1/n|) cross at W = 1/(2n), which sets ``small``.  The float
    tables are the layers of ``packed``, so that selecting the rows of some
    inputs (:func:`_gather`) copies two arrays, not six, and every table
    stays contiguous.
    """

    rows: np.ndarray
    small: np.ndarray
    entry: np.ndarray  # W where small, else W - 1/n
    stacked: np.ndarray  # [W, W - 1/n] as two layers: p_in @ stacked = [p, p - 1/n]
    inv: np.ndarray  # 1/W, zero below 1e-150
    series_below: np.ndarray  # the series cut-off on t**2, zero below 1e-150
    packed: np.ndarray  # the layers W, W - 1/n, entry, inv, series_below


def _gather(layers, small, index) -> _Tables:
    # np.take keeps every layer contiguous; indexing layers[:, index] would not
    packed = np.take(layers, index, axis=1)
    return _Tables(packed[0], small[index], packed[2], packed[:2], packed[3], packed[4], packed)


# a selection of at most this many rows, as the synonym set of a point mass,
# is gathered from the classes.  A larger one is copied from the full tables,
# which are gathered once per channel on first need: a row costs less to copy
# from them than to gather from the classes, but to build them costs as much
# as to gather all 64 rows
_FEW_ROWS = 6


class _Kernel:
    """The divergence kernel's constants for a channel, on its classes of equal entries.

    ``classes`` holds the five layers of :class:`_Tables` (W, W - 1/n,
    entry, 1/W and the series cut-off) once for every class, ``small`` the
    mask of every class, and ``table`` the class of every entry (inputs x
    outputs).  Every value is computed on its class, so the tables of a row
    hold the same bits whichever way they are gathered.  All three are
    read-only, as are the full tables of every row, which are gathered on
    first need and then kept with the kernel.
    """

    def __init__(self, classes, small, table):
        self.classes, self.small, self.table = _read_only((classes, small, table))

    @functools.cached_property
    def full(self) -> _Tables:
        """The tables of all rows."""
        return _read_only(_gather(self.classes, self.small, self.table))

    def take(self, inputs) -> _Tables:
        """The tables of the rows ``inputs``, increasing input indices.

        All rows are the full tables as they are; up to ``_FEW_ROWS`` rows
        are gathered from the classes, and more copied from the full tables.
        """
        if inputs.size == self.table.shape[0]:
            return self.full
        if inputs.size <= _FEW_ROWS:
            return _gather(self.classes, self.small, self.table[inputs])
        return _gather(self.full.packed, self.full.small, inputs)


def _kernel(matrix, deviations, table=None) -> _Kernel:
    """Kernel tables of a channel given as W and as w, with W = (1 + w)/n.

    W and w hold one value per class of equal entries, and ``table`` the
    class of every entry; without a table they are the channel's matrices,
    and every entry is a class of its own.
    """
    if table is None:
        table = np.arange(matrix.size).reshape(matrix.shape)
        matrix, deviations = matrix.ravel(), deviations.ravel()
    n_outputs = table.shape[1]
    offsets = deviations / n_outputs  # W - 1/n
    small = matrix < 0.5 / n_outputs
    return _Kernel(np.stack([matrix, offsets, np.where(small, matrix, offsets),
                             *_reciprocal(matrix)]), small, table)


def _reciprocal(w):
    """1/W and the series cut-off on t**2, both zero where W < 1e-150.

    Entries below 1e-150 count as zero: with t up to 1/W the series (about
    W*t**3) could overflow.  Their term is the limit p(z), to within
    W*log(1/W) < 1e-147, and the direct form gives it at t = 0.
    """
    zero = w < 1e-150
    return (np.divide(1.0, w, out=np.zeros_like(w), where=~zero),
            np.where(zero, 0.0, _SERIES_BELOW**2))


def _terms(w, num, inv, series_below):
    """The kernel's non-negative terms W*phi(t), with num = p - W and t = num/W.

    ``W*phi(t) = (p - W) - W*log1p(t)``, or ``(p - W)*t*(1/2 - t/3)`` from
    the series; summed over z they are the divergence of W from p.
    """
    t = num * inv
    return np.where(t * t < series_below, num * t * (0.5 - t / 3.0), num - w * np.log1p(t))


@functools.lru_cache(maxsize=32)
def _kimura_channel(params: ChannelParams) -> _Kernel:
    """The kernel of the codon channel at ``params``, shared and read-only.

    The codon channel takes one value per class of codon pairs (27 in
    all), so the kernel's layers are computed on the 27 classes, and its
    rows are gathered through the class table.  The kernels of the last 32
    parameter sets are kept.  One holds 1 KiB of classes, and the full
    tables (five 64x64 float layers and the ``small`` mask, 164 KiB) once a
    host with more than a few inputs has needed them, so at most about
    5 MiB in all.  Sweeps revisit one m-grid per host and method, and 32
    covers the largest grid of the figures bundle (25 m), so each of its
    parameter sets is built once.  A least-recently-used cache hits nothing
    on a cycle longer than ``maxsize``: a sweep over more than 32 m rebuilds
    every point.
    """
    return _kernel(*_codon_class_entries(params), _CODON_CLASSES)


def _read_only(tables):
    for table in tables:
        table.flags.writeable = False
    return tables


class _Partition(NamedTuple):
    """A partition of the channel inputs into groups (synonym sets)."""

    group_of: np.ndarray  # the group of every input
    start: np.ndarray  # the uniform conditional, 1/|group| on every input
    # one row per group: its inputs, padded by repeating the last, so that
    # a maximum over each group is one max along the rows
    members: np.ndarray


def _partition(groups, n_inputs: int) -> _Partition:
    sizes = np.array([len(idx) for idx in groups])
    group_of = np.zeros(n_inputs, dtype=np.intp)
    group_of[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), sizes)
    members = np.array([list(idx) + [idx[-1]] * (sizes.max() - len(idx)) for idx in groups],
                       dtype=np.intp)
    return _Partition(group_of, 1.0 / sizes[group_of], members)


_SYNONYM_SETS = _read_only(_partition(SYNONYM_INDICES, 64))


class _Problem:
    """A channel restricted to the inputs of positive mass.

    ``mass`` holds one mass per channel input.  Inputs of zero mass, whose
    divergence may be infinite (an output no supported input reaches),
    leave the support; when every input has mass, the channel's kernel
    tables are used as they are.
    """

    def __init__(self, kernel: _Kernel, mass):
        self.support = np.flatnonzero(mass > 0.0)
        self.mass = mass if self.support.size == mass.size else mass[self.support]
        self.tables = kernel.take(self.support)

    def information(self, cond) -> "_Point":
        """I(Z;U) in bits, D_u in nats for every supported input, p - W and p."""
        k, p_in = self.tables, self.mass * cond
        out = p_in @ k.stacked  # p(z), then p(z) - 1/n
        num = np.where(k.small, out[0], out[1]) - k.entry
        div = _terms(k.rows, num, k.inv, k.series_below).sum(axis=-1)
        return _Point(cond, float(p_in @ div) / _LN2, div, num, out[0])

    def gain(self, point: "_Point", top, trial) -> float:
        """I(trial) - I(point) in bits, without the cancellation of a difference.

        With dp the change of the input pmf and p' the new output pmf,
        ``I(p + dp) - I(p) = sum_u dp_u*D_u - KL(p' || p)`` exactly.  D_u
        enters less ``top``, its group's largest value (dp sums to zero
        over each group), and p' - p comes from the offsets W - 1/n.
        """
        delta = self.mass * (trial - point.cond)
        shift = delta @ self.tables.stacked[1]
        new_out = point.out + shift
        kl = _terms(new_out, -shift, *_reciprocal(new_out)).sum()
        return float(delta @ (point.div - top) - kl) / _LN2


class _Point(NamedTuple):
    """One evaluation: the conditional on the support and what it yields."""

    cond: np.ndarray
    info: float  # I(Z;U) in bits
    div: np.ndarray  # D_u in nats
    num: np.ndarray  # p(z) - W(z|u), exact to rounding
    out: np.ndarray  # p(z)


def _rate_result(info, cond, iterations, converged, host_entropy, gap_bits=None) -> RateResult:
    return RateResult(
        rate=max(0.0, info - host_entropy),
        conditional=cond,
        iterations=iterations,
        converged=converged,
        mutual_information=info,
        host_entropy=host_entropy,
        gap_bits=gap_bits,
    )


class _Ascent:
    """The optimizer's state: the accepted point, its I and gap, the budget.

    Every trial point costs one iteration, and I never falls.  A Newton
    trial is accepted only when it raises I; near the optimum I moves less
    than its own rounding, so there the trial is judged by its exact gain
    (:meth:`_Problem.gain`), and I is the last value read plus the gains
    accepted since.  The inputs of positive conditional are free; one at
    zero stays there until :meth:`newton` releases it or
    :meth:`toward_best` moves mass to it.
    """

    def __init__(self, problem: _Problem, partition: _Partition, host_mass, tol, max_iter):
        self.problem, self.partition = problem, partition
        self.tol, self.max_iter = tol, max_iter
        self.emitted = np.flatnonzero(host_mass)  # the host mass is >= 0
        self.group_mass = host_mass[self.emitted]
        # a point-mass host (as in the capacity search) has one group: plain
        # sums and maxima, and none of the group tables below is built
        self.single = self.emitted.size == 1
        self.iterations = 1
        self.point = problem.information(partition.start[problem.support])
        self.info = self.point.info
        self.top, self.gap = self._bound(self.point, self.info)

    @functools.cached_property
    def members(self):
        """The members of each emitted group, as positions in the support."""
        members, support = self.partition.members[self.emitted], self.problem.support
        full = support.size == self.partition.group_of.size
        return members if full else np.searchsorted(support, members)

    @functools.cached_property
    def dense(self):
        """The group of every supported input, numbered 0..k-1."""
        dense = np.empty(self.problem.support.size, dtype=np.intp)
        dense[self.members] = np.arange(self.emitted.size)[:, None]
        return dense

    def _bound(self, point, info):
        """Each group's largest D (nats), and the duality gap (bits) of ``point`` at ``info``."""
        div = point.div
        if self.single:
            top = div.max(keepdims=True)
            return top, float(top[0]) * self.group_mass[0] / _LN2 - info
        top = div[self.members].max(axis=1)
        return top, float(self.group_mass @ top) / _LN2 - info

    def certified(self) -> bool:
        return self._within(self.gap, self.info)

    def _within(self, gap, info) -> bool:
        """Whether ``gap`` is at most tol*I + 1e-15 bits."""
        return gap <= self.tol * info + _GAP_FLOOR

    def _normalized(self, cond):
        """``cond`` scaled to sum to one over every group."""
        return cond / (cond.sum() if self.single else np.bincount(self.dense, cond)[self.dense])

    def group_max(self, div, free):
        """max_{u in g, free} D_u for every group g, in nats."""
        return np.where(free, div, -np.inf)[self.members].max(axis=1)

    def budget(self) -> bool:
        return self.iterations < self.max_iter

    def _advance(self, cond, trusted=False) -> bool:
        """Move to ``cond`` if that raises I; one iteration either way.

        A rise of more than ``_DECISIVE*I`` is read off the two values of
        I.  Within that band of rounding a trial whose own gap certifies it
        is taken; otherwise the exact gain decides, which keeps its accuracy
        where I moves less than its own rounding.  A ``trusted`` move (a
        Blahut-Arimoto update, which never lowers I) is taken whatever the
        values show within their rounding.  A move taken within rounding
        keeps I from falling.
        """
        self.iterations += 1
        trial = self.problem.information(cond)
        if not math.isfinite(trial.info):  # an output no free input reaches
            return False
        rise = trial.info - self.info
        if trusted:
            if rise < -_MONOTONE_SLACK * self.info:
                raise AssertionError(
                    f"Blahut-Arimoto objective decreased: {self.info} -> {trial.info}"
                )
            info = max(self.info, trial.info)
        elif rise > _DECISIVE * abs(self.info):
            info = trial.info
        elif rise >= -_DECISIVE * abs(self.info) and self._within(
                self._bound(trial, trial.info)[1], trial.info):
            info = max(self.info, trial.info)  # certified, and no fall the values can show
        else:
            rise = self.problem.gain(self.point, self.top[self.dense], cond)
            if rise <= 0.0:
                return False
            info = self.info + rise
        self.point, self.info = trial, info
        self.top, self.gap = self._bound(trial, info)
        return True

    def ba_step(self, trusted=False) -> bool:
        """One Blahut-Arimoto update; False when it does not raise I.

        ``trusted`` takes it as it is (a run of BA steps judged by the
        gap); otherwise it must show a rise, like a Newton trial.
        """
        point = self.point
        largest = self.top[0] if self.single else self.top.max()
        scaled = point.cond * np.exp(point.div - largest)
        return self._advance(self._normalized(scaled), trusted)

    def toward_best(self) -> bool:
        """A step towards each group's input of largest D, backtracked on I.

        Along this direction (Frank and Wolfe 1956) I rises at the rate of
        the gap, so a short enough step raises I whenever the run is not
        certified; unlike a Blahut-Arimoto step it reaches inputs at zero.
        The step starts at the maximum of I's quadratic model, up to 1.
        """
        point, mass = self.point, self.problem.mass
        best = (np.argmax(point.div, keepdims=True) if self.single else
                self.members[np.arange(self.emitted.size), point.div[self.members].argmax(axis=1)])
        direction = -point.cond
        direction[best] += 1.0
        slope = float((mass * direction) @ (point.div - self.top[self.dense]))
        if not slope > 0.0:  # the gap, lost to rounding
            return False
        shift = (mass * direction) @ self.problem.tables.stacked[1]  # the change of p
        curvature = float(shift**2 @ np.divide(1.0, point.out, out=np.zeros_like(point.out),
                                               where=point.out > 0.0))
        alpha = min(1.0, slope / curvature) if curvature > 0.0 else 1.0
        for _ in range(_BACKTRACKS):
            if not self.budget():
                return False
            if self._advance(self._normalized(point.cond + alpha * direction)):
                return True
            alpha *= 0.5
        return False

    def newton(self) -> bool:
        """One projected Newton step on the face of free inputs.

        False when it is no ascent direction or no trial point raises I.
        The face holds the inputs of positive conditional and, once the face
        is nearly optimal, those at zero whose D_u exceeds their group's
        value; a released input the step would push below zero stays at
        zero.  When the full step pushes inputs below zero, all of them are
        pinned at zero at once and the step is solved again for the others,
        with the pinned moves held fixed, until it is feasible (Bertsekas
        1982); those rounds are solves only, and the point costs one
        evaluation.  When it does not raise I, the unprojected step is taken
        as far as the first input it blocks (a ratio test), for one more
        evaluation: a direction gets at most two trials, and is not
        backtracked, since :meth:`toward_best` raises I wherever the run
        is not certified.
        """
        cond, div = self.point.cond, self.point.div
        free = cond > 0.0
        if not free.all():
            # an input at zero is released only once the face is nearly
            # optimal: the face's own gap is at most half the total
            face_max = self.group_max(div, free)
            if float(self.group_mass @ face_max) / _LN2 - self.info <= 0.5 * self.gap:
                free |= div > face_max[self.dense]
        face = np.flatnonzero(free)
        model = self._newton_model(face)
        if model is None:
            return False
        at = cond[face]
        pinned = np.zeros(face.size, dtype=bool)
        step = np.zeros(face.size)
        while True:
            step = self._newton_direction(model, pinned, step)
            if step is None or not model.grad @ step > 0.0:
                return False
            blocked = (at == 0.0) & (step < 0.0)
            if not blocked.any():
                break
            pinned |= blocked  # released, but the step would push it below zero
            step[blocked] = 0.0
        if (at + step < 0.0).any() and self.budget():
            move = self._projected(model, at, pinned, step)
            if move is not None:
                trial = cond.copy()
                trial[face] = at + move  # a pinned input is at - at, exactly zero
                if self._advance(self._normalized(trial)):
                    return True
        if not self.budget():
            return False
        # ratio test: the largest step, up to 1, that keeps every input >= 0
        shrink = np.flatnonzero(step < 0.0)
        ratios = at[shrink] / -step[shrink]
        limit = ratios.min() if ratios.size else np.inf
        moved = np.maximum(at + min(1.0, limit) * step, 0.0)
        if limit <= 1.0:  # the blocking inputs leave the face exactly
            moved[shrink[ratios == limit]] = 0.0
        trial = cond.copy()
        trial[face] = moved
        return self._advance(self._normalized(trial))

    def _projected(self, model, at, pinned, step):
        """``step`` with every input it pushes below zero pinned at zero, or None.

        Each round pins those inputs and solves again for the others; every
        group keeps a free input, since the moved conditional still sums to
        one over it.
        """
        pinned, move = pinned.copy(), step.copy()
        while (blocked := at + move < 0.0).any():
            pinned |= blocked
            move[blocked] = -at[blocked]
            move = self._newton_direction(model, pinned, move)
            if move is None:
                return None
        return move

    def _newton_model(self, face):
        """The quadratic model of I on the inputs ``face``, or None when it is flat.

        The gradient of I (nats) in the conditional is h*D_u, the tangent
        Hessian -h_u*h_v*sum_z (p - W_u)(p - W_v)/p.  Both are scaled by
        max|H|: unscaled, the system's entries fall with I and the solve
        loses all accuracy near I = 1e-9.
        """
        point, mass = self.point, self.problem.mass[face]
        rows = point.num[face] * mass[:, None]
        weighted = np.divide(rows, point.out, out=np.zeros_like(rows), where=point.out > 0.0)
        curvature = weighted @ rows.T  # -H, positive semidefinite: its largest entry is max|H|
        scale = curvature.max()
        if not scale > 0.0:
            return None
        groups = self.dense[face]
        # less each group's largest D: a constant per group drops out on the
        # face, and what is left keeps the digits in which the D_u differ
        grad = mass * (point.div[face] - self.top[groups])
        return _Model(grad / scale, curvature / scale, groups, rows, point.out, scale)

    def _newton_direction(self, model, pinned, move):
        """The KKT step of ``model`` with the moves of the ``pinned`` inputs held fixed.

        ``move`` holds those moves; the step holds them and the moves of the
        other inputs, or is None when they are not finite or a group has no
        free input.  One sum constraint per group: its free inputs take up
        what its pinned ones give.  A system that LU reports singular
        (synonyms whose channel rows agree to rounding make it so) gets the
        minimum-norm step of :func:`_minimum_norm_step` instead.
        """
        step = np.where(pinned, move, 0.0)
        free = np.flatnonzero(~pinned)
        n, k = free.size, self.group_mass.size
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = model.curvature[np.ix_(free, free)]
        # one row per group: every group keeps a free input, its conditional sums to one
        kkt[n:, :n] = model.groups[free] == np.arange(k)[:, None]
        kkt[:n, n:] = kkt[n:, :n].T
        rhs = np.empty(n + k)
        rhs[:n] = model.grad[free] - model.curvature[free] @ step
        rhs[n:] = -np.bincount(model.groups, step, minlength=k)
        try:
            step[free] = np.linalg.solve(kkt, rhs)[:n]
        except np.linalg.LinAlgError:
            step = _minimum_norm_step(model, free, step, rhs[n:])
        return step if step is not None and np.isfinite(step).all() else None


class _Model(NamedTuple):
    """The Newton model of I on a face, scaled by max|H|."""

    grad: np.ndarray  # h*D_u less the group's largest D
    curvature: np.ndarray  # -H = F @ F.T
    groups: np.ndarray  # the group of every input, numbered 0..k-1
    rows: np.ndarray  # h*(p - W_u), so that F = rows/sqrt(p*scale)
    out: np.ndarray  # p
    scale: float  # max|H|


def _minimum_norm_step(model, free, step, sums):
    """The minimum-norm step of ``model``, or None when a group has no free input.

    ``step`` holds the moves of the pinned inputs, and ``sums`` what the
    ``free`` inputs of each group must move in all.  The step is s0 + P*y:
    s0 holds the pinned moves and spreads each group's sum equally over its
    free inputs, and P = I - (group mean) projects the free moves onto
    those that keep every sum (the null-space method; Nocedal and Wright,
    section 16.2).  With -H = F*F', y maximizes g'*P*y - |B*y + F'*s0|^2/2
    for B = F_free'*P.  It comes from an SVD of B, the factor of the reduced
    -H and not its square (Golub and Van Loan, section 5.3), with the
    singular values at or below sqrt(max(shape)*eps) of the largest dropped,
    as ``lstsq`` drops their squares from -H (a cut-off of max(shape)*eps on
    B keeps rounding noise, and gave steps of 1e14).  P is orthogonal, so
    the least y gives the least step and copies share their move equally; P
    is applied to y once more, so every group keeps its sum to rounding.
    """
    groups = model.groups[free]
    size = np.bincount(groups, minlength=sums.size)
    if not size.all():  # its pinned moves cannot be taken up
        return None
    size = size[groups]
    project = np.eye(free.size) - (groups[:, None] == groups) / size
    known = step.copy()
    known[free] = sums[groups] / size
    factor = model.rows * np.divide(1.0, np.sqrt(model.out * model.scale),
                                    out=np.zeros_like(model.out), where=model.out > 0.0)
    reduced = project @ factor[free]  # B', one row per free input
    v, sigma, ut = np.linalg.svd(reduced, full_matrices=False)
    keep = sigma > sigma[0] * math.sqrt(max(reduced.shape) * np.finfo(float).eps)
    v, sigma, ut = v[:, keep], sigma[keep], ut[keep]
    y = v @ ((v.T @ project @ model.grad[free]) / sigma**2 - (ut @ (factor.T @ known)) / sigma)
    known[free] += project @ y
    return known


def _check_stop_rule(tol, max_iter) -> None:
    if not 0.0 < tol < math.inf:  # NaN fails this too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _blahut_arimoto(kernel, partition, host_mass, tol, max_iter) -> RateResult:
    """Maximize I over the per-group conditionals until the duality gap certifies it.

    The gap sum_g h(g)*max_{u in g} D_u - I bounds the distance to the
    optimum (Blahut 1972); the run is certified, and stops, once it is at
    most ``tol*I`` plus the 1e-15-bit floor.  From the uniform start it
    takes Blahut-Arimoto steps while each at least halves the gap, then
    Newton steps on the face of free inputs; where a Newton step raises no
    trial, a BA step, and where neither does, a step towards each group's
    input of largest D.  It ends uncertified at ``max_iter`` evaluations,
    or when none of the three raises I.
    """
    _check_stop_rule(tol, max_iter)
    run = _Ascent(_Problem(kernel, host_mass[partition.group_of]), partition, host_mass,
                  tol, max_iter)
    blahut = True  # BA steps while they at least halve the gap
    while not run.certified() and run.budget():
        if blahut:
            gap = run.gap
            blahut = run.ba_step(trusted=True) and run.gap <= 0.5 * gap
            continue
        if not (run.newton() or (run.budget() and run.ba_step())
                or (run.budget() and run.toward_best())):
            break
    full = partition.start.copy()  # uniform where the host has no mass
    full[run.problem.support] = run.point.cond
    return _rate_result(run.info, full, run.iterations, run.certified(),
                        entropy_bits(host_mass), gap_bits=run.gap)


def ba_partitioned(channel, groups, host_mass, tol=DEFAULT_TOL,
                   max_iter=DEFAULT_MAX_ITER) -> RateResult:
    """Partition-constrained Blahut-Arimoto on an arbitrary channel.

    ``channel`` is a row-stochastic (inputs x outputs) matrix, ``groups``
    a list of index arrays partitioning the inputs into synonym sets, and
    ``host_mass`` the pmf over groups.  It runs the engine of
    :func:`ba_optimize` on any channel, so reduced synthetic codes can be
    optimized in tests and experiments.  Its inputs are checked like
    those of :func:`ba_optimize`: a non-finite or negative channel entry or
    mass, a row or a mass that does not sum to one, or groups that do not
    partition the inputs raise ``ValueError``.
    """
    channel = np.asarray(channel, dtype=float)
    if channel.ndim != 2 or channel.size == 0:
        raise ValueError(f"channel must be a non-empty matrix, got shape {channel.shape}")
    channel = _nonnegative(channel, "channel")
    row_sums = channel.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-9:
        raise ValueError(f"channel rows sum to {row_sums}, expected 1")
    members = [np.ravel(group) for group in groups]
    if (not members or min(map(len, members)) == 0 or not np.array_equal(
            np.sort(np.concatenate(members)), np.arange(channel.shape[0]))):
        raise ValueError(
            f"groups must be non-empty and hold every input of 0..{channel.shape[0] - 1} once"
        )
    host_mass = np.asarray(host_mass, dtype=float)
    if host_mass.shape != (len(members),):
        raise ValueError(f"host mass must have shape ({len(members)},), got {host_mass.shape}")
    mass = _nonnegative(host_mass, "host mass")
    if abs(host_mass.sum() - 1.0) > 1e-9:
        raise ValueError(f"host mass sums to {host_mass.sum()}, expected 1")
    kernel = _kernel(channel, channel.shape[1] * channel - 1.0)
    return _blahut_arimoto(kernel, _partition(members, channel.shape[0]), mass,
                           tol, max_iter)


# ---------------------------------------------------------------------------
# achievable rates for the standard genetic code


def _evaluate(host, cond, params: ChannelParams) -> RateResult:
    # I(Z;U) depends on the input pmf alone: each input weighs its mass
    problem = _Problem(_kimura_channel(params), host[AMINO_OF_CODON] * cond)
    info = problem.information(np.ones(len(problem.support))).info
    return _rate_result(info, cond, 0, True, entropy_bits(host))


def evaluate_rate(host, cond, params: ChannelParams) -> RateResult:
    """Rate I(Z;U) - H(X') for a given host pmf and codon conditional.

    No optimization is performed; the conditional is used as supplied.
    A non-finite or negative entry in either raises, as does a block that
    does not sum to one for an amino the host emits.
    """
    host = _check_host(host)
    return _evaluate(host, _check_conditional(cond, host), params)


def _transition_pair_information(params: ChannelParams) -> float:
    """I(Z;U) in bits of a 2-fold point mass under the uniform conditional.

    On the pair's two third bases (a transition pair) the output pmf is
    s = (1 + lam^m)/4, and each row reads s*(1 + t) and s*(1 - t) there,
    with t = 2*mu^m/(1 + lam^m) taken from mu^m itself, not from a
    difference of rounded entries; the other two outputs carry nothing.
    Each row's divergence, and so I, is s*(phi(t) + phi(-t)) nats, with
    phi(d) = (1 + d)*ln(1 + d) - d the terms of the noncoding capacity
    and their series below |d| = 1e-2.
    """
    (lam_m, _), (mu_m, _) = _eigenvalue_powers(params)
    s = 0.25 * (1.0 + lam_m)
    if s == 0.0:  # gamma = 3/2, q = 1 and m odd: no output of the pair is reachable
        return 0.0
    t = 2.0 * mu_m / (1.0 + lam_m)
    # at t = 1 (q = 0 or m = 0) the entry 1 - t is 0, and phi(-1) = 1
    return s * (_excess(0.25 * (1.0 + t), t) + _excess(0.25 * (1.0 - t), -t)) / _LN2


# I(Z;U) in bits of the point mass of an amino whose uniform conditional is
# optimal, by the size of its synonym set; its codons share their first two
# bases, so I is that of the third.  The base channel keeps its law under the
# Klein group of relabellings that keep transitions (Kimura 1980; Evans and
# Speed 1993), a 4-fold set is one orbit of it and a 2-fold set (a transition
# pair) one orbit of the transition swap.  I is concave and invariant under
# these maps, so the uniform conditional is optimal, every D_u equal there
# and the gap 0 (Gallager 1968, section 4.5).
_UNIFORM_OPTIMAL = {2: _transition_pair_information, 4: _divergence_from_uniform}


def ba_optimize(host, params: ChannelParams, tol=DEFAULT_TOL,
                max_iter=DEFAULT_MAX_ITER) -> RateResult:
    """Maximize I(Z;U) over the per-amino conditionals, with a certified gap.

    With D_u the divergence of channel row u from the current output pmf,
    the duality gap ``sum_x' p(x') max_{u in x'} D_u - I`` bounds how far I
    lies below the optimum.  The run starts from the uniform conditional
    (deterministic, and already certified for most hosts) and stops once
    the gap is at most ``tol*I + 1e-15`` bits.  Until then it takes
    Blahut-Arimoto updates with per-synonym-set renormalization,

        p(u|x')  <-  p(u|x') * exp(D_u) / sum_v p(v|x') * exp(D_v),

    while each at least halves the gap, then projected Newton steps on the
    face of codons of positive conditional: the KKT system of the gradient
    p(x')*D_u, the Hessian -p(x'_u)p(x'_v) sum_z (p_z - W_uz)(p_z - W_vz)/p_z
    and one sum constraint per synonym set.  Every codon the full step
    would push below zero is pinned at zero and the system is solved
    again for the rest, with the pinned mass as the sets' right-hand
    side, until the step is feasible; that point costs one evaluation.
    When it does not raise I, the step is cut at the first codon it
    blocks (a ratio test) and tried once more, taken only if it raises
    I; a Newton direction is not backtracked.  A system that LU reports
    singular, as synonyms whose channel rows agree to rounding make it,
    gets one minimum-norm step from an SVD of the factor of -H, in which
    such synonyms take equal shares.  A codon at zero is released once
    the face is nearly optimal.  Where a Newton step raises no point, a
    BA step is tried, and where that fails too, a step towards each set's
    codon of largest D_u (Frank-Wolfe): its slope is the gap, so it
    raises I whenever the run is not certified, and it reaches codons at
    zero.  The run reports failure to certify (``max_iter`` iterations,
    one per point tried, or no step that raises I) through ``converged``
    and ``gap_bits`` rather than an exception.  Aminos the host never
    emits keep their uniform conditional.

    A point-mass host (one amino of mass 1.0, as in every run of
    :func:`capacity_c`) on a 4-fold or a 2-fold amino builds no channel:
    its uniform conditional is optimal, and the run returns I in closed
    form with one iteration, converged, a gap of 0 and the uniform
    conditional.  ``tol`` must be finite and above zero, and ``max_iter``
    at least 1; both are checked first.
    """
    host = _check_host(host)
    emitted = np.flatnonzero(host)
    if emitted.size == 1 and host[emitted[0]] == 1.0:
        _check_stop_rule(tol, max_iter)
        closed_form = _UNIFORM_OPTIMAL.get(MULTIPLICITIES[emitted[0]])
        if closed_form is not None:
            # a point mass has entropy 0, and the uniform conditional's gap is 0
            return _rate_result(closed_form(params), uniform_conditional(), 1, True, 0.0,
                                gap_bits=0.0)
    return _blahut_arimoto(_kimura_channel(params), _SYNONYM_SETS, host, tol, max_iter)


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
    the usage came from different sequences, and raises, as does a
    non-finite or negative entry.  Each input is checked once.
    """
    host = _check_host(host)
    usage = np.asarray(host_codon_usage, dtype=float)
    if usage.shape != (64,):
        raise ValueError(f"codon usage must have shape (64,), got {usage.shape}")
    blocks = synonym_sums(usage)
    ai = _first_unnormalized(blocks, host)
    if ai is not None:
        raise ValueError(
            f"host emits {AMINO_ACIDS[ai]} but its codon usage is undefined "
            f"(block sum {blocks[ai]}); pmf and usage must come from one sequence"
        )
    # unreachable blocks are filled uniformly, to keep them valid pmfs
    usage = np.where(blocks[AMINO_OF_CODON] <= 0.0, _SYNONYM_SETS.start, usage)
    return _evaluate(host, _nonnegative(usage, "conditional"), params)


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
    rows = _kimura_channel(params).take(idx).rows
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
                       tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> RateResult:
    """Rate for a host that always emits one amino acid (H(X') = 0).

    ``method`` selects the conditional: ``"ba"`` optimizes, ``"uniform"``
    spreads evenly, ``"linearized"`` uses the closed-form approximation.
    Single-codon aminos (Met, Trp) can only carry rate zero and return
    immediately.
    """
    ai = _amino_index(amino)
    if method not in ("ba", "uniform", "linearized"):
        raise ValueError(f"unknown method {method!r}; expected ba, uniform or linearized")
    host = point_mass_host(amino)
    if MULTIPLICITIES[ai] == 1:  # exact: a single input carries nothing
        return _rate_result(0.0, uniform_conditional(), 0, True, 0.0, gap_bits=0.0)
    if method == "ba":
        return ba_optimize(host, params, tol=tol, max_iter=max_iter)
    if method == "uniform":
        return uniform_conditional_rate(host, params)
    cond = uniform_conditional()
    cond[SYNONYM_INDICES[ai]] = linearized_conditional(amino, params)
    return evaluate_rate(host, cond, params)


def capacity_c(params: ChannelParams, include_stp: bool = True,
               tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> CodingCapacity:
    """Capacity of coding-host embedding: best point-mass host and its rate.

    The capacity-achieving host pmf is deterministic, so the search
    evaluates the optimized rate for each amino acid (the two
    single-codon ones are zero outright and 14 more closed forms, leaving
    5 optimizer runs) and returns the argmax with the full per-amino rate
    table.  With ``include_stp=False`` the stop symbol, which a real gene
    can use only once, is excluded from the argmax but still reported in
    the table.
    ``iterations`` totals the runs, and ``gap_bits`` is their largest gap.
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
        iterations=sum(result.iterations for result in results),
        gap_bits=max(result.gap_bits for result in results),
    )
