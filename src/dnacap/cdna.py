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

One optimizer serves every maximization but that of a point mass
(:meth:`_ChannelConstants.point_mass`).  It stops on the duality gap
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
``phi(t) = t - log1p(t)``, so no first-order terms cancel.  It takes the
direct form for every term in one pass, and forms the series
t**2/2 - t**3/3 only when some t is under its cut-off.  Each term takes
``p(z) - W(z|u)`` from the form of the channel that holds it to full
precision: the probabilities where the entry is small (shallow cascades)
and the deviations from 1/64 elsewhere (deep cascades, whose rates fall
far below machine epsilon).  So I keeps 5e-11 relative accuracy at any depth,
and the closed forms and the noncoding capacity keep theirs.  Two limits
remain wherever the exact orbit form (below) does not apply.  Stp's rows
deep at small gamma differ by less than the tables' rounding, so I at any
conditional whose Stp block is not even on its orbits (TAG = TGA to the
bit), point masses included, reads only to about eps*sqrt(I) + eps**2
bits absolute there (5e-32 bits deep).  And the optimizer's certificate
bounds the shortfall of I below the optimum by tol*I + 1e-15 bits, so an
optimum below 1e-15 bits can certify by the floor alone, at its uniform
start: the gene hosts of the figure bundle read up to 4.2% low there,
where the certificate allows up to 13%.  Point-mass optima, and a point
mass read at a conditional even on every orbit, are exact at every depth.

The codon channel takes 27 distinct values, one for each triple of
per-position relations (same base, transition, transversion), so the
kernel's tables are built once per parameter set on those 27 classes and
read through a class table of the 64x64 entries.  Each evaluation or
optimizer run selects the rows of the inputs of positive mass, by one of
two rules: an input pmf on every codon reads the tables of all 64 rows,
which are gathered once per parameter set on first need and kept with its
kernel (164 KiB), and any other gathers its rows from the classes.  Those
others come from a conditional with zero entries or a host that cannot
emit every codon: a gene's host that lacks some aminos, or a point mass
read at a conditional that is not even on its orbits, as the
``linearized`` conditionals of :func:`deterministic_rate` are.

The optimum of a point mass needs no tables
(:meth:`_ChannelConstants.point_mass`): 16 aminos take a closed form, and
Ile, Leu, Arg, Ser and Stp are maximized on the weights of the orbits of
their synonym sets (``_ORBITS``).  Each orbit has one row, on the outputs
of the positions where the synonyms differ, which takes p - W from the
probabilities where the entry is small and from the channel's characters
elsewhere, products of 1, lam^m and mu^m with exact integer coefficients,
so Stp's rows stay distinct at any depth (:func:`_orbit_tables`).  Sums
over synonym sets, such as the check that every block of a conditional
sums to one, are one ``np.bincount`` over the codon-to-amino map.

The channel's constants (the powers lam^m and mu^m, the base entries, the
class values on one, two and three positions, the monomials
lam^(m*e)*mu^(m*f), the kernel and the point-mass optima) are derived once
per parameter set, each on its first read, in one object
(:class:`_ChannelConstants`) that the optimizer, the point masses, the
orbit rows and the linearized conditional share.  It also keeps I at the
uniform conditional that optimizer runs read as their first point, which
:func:`uniform_conditional_rate` reads for the same host.  One cache
keeps those of the last 32 parameter sets and evicts each set's whole
object (:func:`_constants`).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .genetic_code import (
    AMINO_ACIDS,
    AMINO_INDEX,
    AMINO_OF_CODON,
    BASE_INDEX,
    CODON_INDEX,
    MULTIPLICITIES,
    SYNONYM_INDICES,
    synonym_sums,
)
from .mutation_channel import (
    _CODON_CLASSES,
    _RELATION,
    ChannelParams,
    _class_deviations,
    _eigenvalue_powers,
    _stage_entries,
)
# base_matrix_power, codon_matrix and codon_matrix_deviations build the
# same channel as a 4x4 and two 64x64 matrices; the kernel needs none of
# them, but benchmarks/spans.py wraps them here by name
from .mutation_channel import base_matrix_power, codon_matrix, codon_matrix_deviations  # noqa: F401
from .ncdna import _excess, _row_divergence, _underflow_shift, capacity_nc, entropy_bits

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


class RateResult(NamedTuple):
    """Outcome of a rate evaluation or optimization.

    ``rate`` is ``max(0, mutual_information - host_entropy)`` in
    bits/codon; ``mutual_information`` is left unclamped.  ``conditional``
    is the per-amino codon conditional actually used (length 64).  For an
    optimizer run ``gap_bits`` is the duality gap at that conditional, an
    upper bound on the distance of ``mutual_information`` to the optimum,
    and ``converged`` means certified: the gap is at most ``tol`` times
    the information, plus 1e-15 bits on the 64-codon optimizer (a point
    mass is certified with no floor).  The gap is a sum of non-negative
    terms, so it is never below zero.  An evaluation has no gap (None).
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


def _checked_host(host, size=21, name="host pmf") -> tuple[np.ndarray, int | None]:
    """``host`` as a pmf of ``size`` entries, and the index of its one entry if it is a point mass.

    The checks run in this order: the shape, then the point-mass test
    (:func:`_point_mass`), which proves a valid pmf by itself, then, for
    any other host, the pmf check (:func:`_check_pmf`) and the point-mass
    test on what its clip leaves.  ``name`` heads each error.
    """
    host = np.asarray(host, dtype=float)
    if host.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {host.shape}")
    index = _point_mass(host)
    if index is None:
        # the clip can leave a point mass, as of 1.0 beside -1e-13
        host = _check_pmf(host, name)
        index = _point_mass(host)
    return host, index


def _check_pmf(host, name) -> np.ndarray:
    """``host``, of the right shape, as a pmf clipped at zero; ``name`` heads each error."""
    # a valid pmf, as every host the package builds, needs no clip: NaN
    # fails min >= 0 and an infinite entry one of the two tests
    if host.min() >= 0.0 and abs(host.sum() - 1.0) <= 1e-9:
        return host
    clipped = _nonnegative(host, name)
    if abs(host.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {host.sum()}, expected 1")
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

    ``stacked[0]`` holds the probabilities W.  p - W is exact to rounding
    in the probability form where W is small and in the deviation form
    (W - 1/n for n outputs) elsewhere; the absolute errors (about eps*W and
    eps*|W - 1/n|) cross at W = 1/(2n), which sets ``small``.  The float
    tables are layers of one array gathered from the classes
    (:func:`_gather`), so every table stays contiguous.
    """

    small: np.ndarray
    entry: np.ndarray  # W where small, else W - 1/n
    stacked: np.ndarray  # [W, W - 1/n] as two layers: p_in @ stacked = [p, p - 1/n]
    inv: np.ndarray  # 1/W, zero below 1e-150
    series_below: np.ndarray  # the series cut-off on t**2, zero below 1e-150


def _gather(layers, small, index) -> _Tables:
    # np.take keeps every layer contiguous; indexing layers[:, index] would not
    taken = np.take(layers, index, axis=1)
    return _Tables(small[index], taken[2], taken[:2], taken[3], taken[4])


class _Kernel:
    """The divergence kernel's constants for a channel, on its classes of equal entries.

    ``classes`` holds the five layers of :class:`_Tables` (W, W - 1/n,
    entry, 1/W and the series cut-off) once for every class, ``small`` the
    mask of every class, and ``table`` the class of every entry (inputs x
    outputs).  Every value is computed on its class, so the tables of a row
    hold the same bits whichever way they are gathered.  All three are
    read-only, as are the tables of all rows, which are gathered on first
    need and then kept with the kernel.
    """

    def __init__(self, classes, small, table):
        self.classes, self.small, self.table = _read_only((classes, small, table))

    @functools.cached_property
    def full(self) -> _Tables:
        """The tables of all rows."""
        return _read_only(_gather(self.classes, self.small, self.table))

    def take(self, inputs) -> _Tables:
        """The tables of the rows ``inputs``, increasing input indices.

        All rows are the full tables as they are; any other selection (the
        inputs that a host which cannot emit every one, or a conditional
        with zero entries, leaves) is gathered from the classes.
        """
        if inputs.size == self.table.shape[0]:
            return self.full
        return _gather(self.classes, self.small, self.table[inputs])


def _kernel(matrix, deviations, table) -> _Kernel:
    """Kernel tables of a channel given as W and as w, with W = (1 + w)/n.

    W and w hold one value per class of equal entries, and ``table`` the
    class of every entry (inputs x outputs).
    """
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
    return (np.divide(1.0, w, out=np.zeros(w.shape), where=~zero),
            np.where(zero, 0.0, _SERIES_BELOW**2))


def _terms(w, num, inv, series_below):
    """The kernel's non-negative terms W*phi(t), with num = p - W and t = num/W.

    ``W*phi(t) = (p - W) - W*log1p(t)``, or ``(p - W)*t*(1/2 - t/3)`` from
    the series where t**2 is under ``series_below``; summed over z they are
    the divergence of W from p.  The direct form is taken over every entry
    in one pass, and the series only when some entry needs it, with the
    same formula per entry, so each term has the bits of the one form it
    takes.  Where W < 1e-150 both ``inv`` and the cut-off are 0: t is 0,
    and the direct form gives p - W.
    """
    t = num * inv
    terms = num - w * np.log1p(t)
    series = t * t < series_below
    if np.count_nonzero(series):
        return np.where(series, num * t * (0.5 - t / 3.0), terms)
    return terms


class _ChannelConstants:
    """The Kimura channel's constants at one parameter set, each derived on first read.

    ``powers`` holds (lam^m, 1 - lam^m) and (mu^m, 1 - mu^m), and ``stage``
    the m-stage base entries and their deviations.  ``classes[k - 1]``
    holds the 3**k values of the channel on k positions, one per tuple of
    per-position relations, read-only: products of the base entries
    clipped to [0, 1], in the order in which :func:`mutation_channel._kron`
    multiplies the positions, so the 27 on three positions are the entries
    of :func:`codon_matrix` bit for bit.
    ``monomials[e][f]`` is lam^(m*e) * mu^(m*f) for e, f < 4, the powers of
    the channel's characters on up to three positions.  ``two_fold`` and
    ``four_fold`` are the closed forms of :meth:`point_mass`, which returns
    the optimum of every point mass, and ``kernel`` is the divergence
    kernel of the 64x64 channel.  :meth:`uniform_start` returns I at the
    uniform conditional where an optimizer run at this parameter set has
    already read it as its first point.  Kernel, point-mass optima and
    those starts live and are evicted with the rest (:func:`_constants`).
    """

    def __init__(self, params: ChannelParams):
        self.params = params
        self._optima = {}  # (tol, max_iter) -> the five orbit optima (:meth:`point_mass`)
        # I at the uniform start (:meth:`uniform_start`): one float per orbit
        # amino from the first stacked solve, whatever its stop rule, and the
        # host bytes and I of the last 64-codon run that could keep its own
        self.orbit_starts = (None,) * len(_ORBITS)
        self.engine_start = (None, None)

    @functools.cached_property
    def powers(self):
        return _eigenvalue_powers(self.params)

    @functools.cached_property
    def stage(self):
        return _stage_entries(self.params)

    @functools.cached_property
    def classes(self) -> tuple:
        one = np.array([min(max(entry, 0.0), 1.0) for entry in self.stage[0]])
        two = np.multiply.outer(one, one).ravel()
        return _read_only((one, two, np.multiply.outer(two, one).ravel()))

    @functools.cached_property
    def monomials(self) -> tuple:
        (lam_m, _), (mu_m, _) = self.powers
        lams, mus = ((1.0, x, x * x, x * x * x) for x in (lam_m, mu_m))
        return tuple(tuple(lam * mu for mu in mus) for lam in lams)

    @functools.cached_property
    def two_fold(self) -> float:
        """I(Z;U) in bits of a 2-fold point mass under the uniform conditional.

        On the pair's two third bases (a transition pair) the output pmf is
        s = (1 + lam^m)/4, and each row reads s*(1 + t) and s*(1 - t) there,
        with t = 2*mu^m/(1 + lam^m) taken from mu^m itself, not from a
        difference of rounded entries; the other two outputs carry nothing.
        Each row's divergence, and so I, is s*(phi(t) + phi(-t)) nats, with
        phi(d) = (1 + d)*ln(1 + d) - d the terms of the noncoding capacity
        and their series below |d| = 1e-2.  Below |t| = 2**-400 the terms,
        about t**2/2, would turn subnormal and round one by one: t is scaled
        by a power of two (:func:`ncdna._underflow_shift`) and I scaled back
        once, so it is rounded into the subnormal range only once.
        """
        (lam_m, _), (mu_m, _) = self.powers
        s = 0.25 * (1.0 + lam_m)
        if s == 0.0:  # gamma = 3/2, q = 1 and m odd: no output of the pair is reachable
            return 0.0
        t = 2.0 * mu_m / (1.0 + lam_m)
        shift = _underflow_shift((t,))
        scaled = math.ldexp(t, shift)
        # at t = 1 (q = 0 or m = 0) the entry 1 - t is 0, and phi(-1) = 1
        total = _excess(0.25 * (1.0 + t), scaled) + _excess(0.25 * (1.0 - t), -scaled)
        return math.ldexp(s * total / _LN2, -2 * shift)

    @functools.cached_property
    def four_fold(self) -> float:
        """I(Z;U) in bits of a 4-fold point mass: the noncoding capacity of one base."""
        return _row_divergence(*self.stage)

    @functools.cached_property
    def kernel(self) -> _Kernel:
        """The divergence kernel of the codon channel, read-only.

        The codon channel takes one value per class of codon pairs (27 in
        all), so the kernel's layers are computed on the 27 ``classes[2]``
        and its rows are gathered through the class table.
        """
        return _kernel(self.classes[2], _class_deviations(self.stage[1]), _CODON_CLASSES)

    def point_mass(self, amino: int, tol, max_iter) -> RateResult:
        """The certified optimum of the point mass on ``amino``, its conditional the caller's.

        A point mass emits one synonym set, so I is maximized over that
        set's conditional alone, and the host entropy is 0.  Met and Trp have
        one codon, which carries nothing.  The 2- and 4-fold codons share
        their first two bases, so I is that of the third.  The base channel
        keeps its law under the Klein group of relabellings that keep
        transitions (Kimura 1980; Evans and Speed 1993), a 4-fold set is one
        orbit of it and a 2-fold set (a transition pair) one orbit of the
        transition swap.  I is concave and invariant under these maps, so
        the uniform conditional is optimal, every D_u equal there and the
        gap 0 (Gallager 1968, section 4.5).  These 16 aminos return that
        conditional with I in closed form (0, ``two_fold`` or
        ``four_fold``, each derived once per parameter set), one iteration
        and a gap of 0.

        The synonym sets of Ile, Leu, Arg, Ser and Stp split into two or
        three orbits (``_ORBITS``), and the optimum is even on each, so it
        has one or two free orbit weights.  The five are solved together as
        one stack with no 64x64 tables and certified with no floor
        (:func:`_orbit_optima`), on the first call for each (``tol``,
        ``max_iter``); the five results are kept, read-only, with the rest
        of the constants and evicted with them (:func:`_constants`), and
        each call returns a copy.  So a lone orbit point mass pays for the
        whole stack, and the other four are then read for free.
        """
        slot = _ORBIT_SLOT.get(amino)
        if slot is None:
            return _rate_result(self.closed_form(amino), uniform_conditional(), 1, True, 0.0,
                                gap_bits=0.0)
        key = (tol, max_iter)
        if key not in self._optima:
            self._optima[key], self.orbit_starts = _orbit_optima(self, tol, max_iter)
        result = self._optima[key][slot]
        return _rate_result(result.mutual_information, result.conditional.copy(),
                            result.iterations, result.converged, 0.0, gap_bits=result.gap_bits)

    def closed_form(self, amino: int) -> float:
        """I in bits of a point mass not in ``_ORBITS`` at its optimum, the uniform conditional."""
        size = len(SYNONYM_INDICES[amino])
        return self.two_fold if size == 2 else self.four_fold if size == 4 else 0.0

    def uniform_start(self, host, amino) -> float | None:
        """I in bits at the uniform conditional of a checked ``host``, if a run read it, else None.

        Every optimizer run reads I at the uniform conditional as its first
        point, by the same formula as an evaluation there
        (:func:`_evaluate`), so with the same bits.  A stacked solve of the
        orbit point masses keeps that value for each of the five
        (:func:`_orbit_optima`), and ``ba_optimize`` keeps it for the last
        host the 64-codon optimizer ran on, keyed by the host's bytes.
        ``amino`` is the host's point mass, if any.
        """
        slot = _ORBIT_SLOT.get(amino)
        if slot is not None:
            return self.orbit_starts[slot]
        key, info = self.engine_start
        return info if key == host.tobytes() else None


@functools.lru_cache(maxsize=32)
def _constants(params: ChannelParams) -> _ChannelConstants:
    """The constants of the channel at ``params``, shared by every reader.

    This is the one cache of per-parameter-set state, kernels, point-mass
    optima (:meth:`_ChannelConstants.point_mass`) and the I of optimizer
    runs' uniform starts (:meth:`_ChannelConstants.uniform_start`)
    included: those of the last 32 parameter sets are kept, and a kernel,
    the optima and the starts leave with their constants.  One holds about
    3 KiB once every field but the kernel is derived, about 4 KiB for the
    five orbit optima of each stop rule asked for, under 1 KiB for the
    starts (six floats and one host's 168 bytes, no array), 1 KiB more for
    the kernel's classes, and its full tables (164 KiB) once an input pmf
    on every codon has needed them, so at most about 5 MiB in all.  Sweeps
    revisit one m-grid per host and method, and 32 covers the largest grid
    of the figures bundle (25 m).  A least-recently-used cache hits nothing
    on a cycle longer than ``maxsize``: a sweep over more than 32 m derives
    every point anew.
    """
    return _ChannelConstants(params)


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
        self.mass = mass[self.support]
        self.tables = kernel.take(self.support)

    def information(self, cond) -> "_Point":
        """I(Z;U) in bits, D_u in nats for every supported input, p - W and p."""
        k, p_in = self.tables, self.mass * cond
        out = p_in @ k.stacked  # p(z), then p(z) - 1/n
        num = np.where(k.small, out[0], out[1]) - k.entry
        div = _terms(k.stacked[0], num, k.inv, k.series_below).sum(axis=-1)
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

    Every trial point costs one iteration, and I never falls.
    :meth:`_advance` alone enforces the budget of ``max_iter`` iterations:
    once it is spent, every trial is refused unevaluated.  A Newton trial
    is accepted only when it raises I; near the optimum I moves less than
    its own rounding, so there the trial is judged by its exact gain
    (:meth:`_Problem.gain`), and I is the last value read plus the gains
    accepted since.  The inputs of positive conditional are free; one at
    zero stays there until :meth:`newton` releases it or
    :meth:`toward_best` moves mass to it.  Sums and maxima over the groups
    take one path whatever their number, through ``members`` and ``dense``.
    """

    def __init__(self, problem: _Problem, partition: _Partition, host_mass, tol, max_iter):
        self.problem = problem
        self.tol, self.max_iter = tol, max_iter
        emitted = np.flatnonzero(host_mass)  # the host mass is >= 0
        self.group_mass = host_mass[emitted]
        # the members of each emitted group, as positions in the support
        self.members = np.searchsorted(problem.support, partition.members[emitted])
        # the group of every supported input, numbered 0..k-1
        self.dense = np.empty(problem.support.size, dtype=np.intp)
        self.dense[self.members] = np.arange(emitted.size)[:, None]
        self.iterations = 1
        self.point = problem.information(partition.start[problem.support])
        self.info = self.point.info
        self.top, self.gap = self._bound(self.point)

    def _bound(self, point):
        """Each group's largest D (nats), and the duality gap (bits) of ``point``.

        The gap ``sum_u P(u)*(max_{v in g(u)} D_v - D_u)/ln 2`` is taken term
        by term: every term is at least 0, and no values of size I cancel,
        so it is never below zero.
        """
        top = point.div[self.members].max(axis=1)
        p_in = self.problem.mass * point.cond
        return top, float(p_in @ (top[self.dense] - point.div)) / _LN2

    def certified(self) -> bool:
        return self._within(self.gap, self.info)

    def _within(self, gap, info) -> bool:
        """Whether ``gap`` is at most tol*I + 1e-15 bits."""
        return gap <= self.tol * info + _GAP_FLOOR

    def _normalized(self, cond):
        """``cond`` scaled to sum to one over every group."""
        return cond / np.bincount(self.dense, cond)[self.dense]

    def budget(self) -> bool:
        return self.iterations < self.max_iter

    def _advance(self, cond, trusted=False) -> bool:
        """Move to ``cond`` if that raises I; one iteration either way.

        Once ``max_iter`` iterations are spent it returns False without
        evaluating or counting ``cond``; no step checks the budget itself.
        A trial whose I is not finite (an output no free input reaches) is
        refused, its iteration counted.  Otherwise its maxima and gap
        (:meth:`_bound`) are formed once, and kept if it is taken.  A rise
        of more than ``_DECISIVE*I`` is read off the two values of I.
        Within that band of rounding a trial whose own gap certifies it is
        taken; otherwise the exact gain decides, which keeps its accuracy
        where I moves less than its own rounding.  A ``trusted`` move (a
        Blahut-Arimoto update, which never lowers I) is taken whatever the
        values show within their rounding.  A move read off the values
        takes the larger of the two, so I never falls.
        """
        if not self.budget():
            return False
        self.iterations += 1
        trial = self.problem.information(cond)
        if not math.isfinite(trial.info):
            return False
        rise, band = trial.info - self.info, _DECISIVE * abs(self.info)
        if trusted and rise < -_MONOTONE_SLACK * self.info:
            raise AssertionError(f"Blahut-Arimoto objective decreased: {self.info} -> {trial.info}")
        top, gap = self._bound(trial)
        if trusted or rise > band or rise >= -band and self._within(gap, trial.info):
            info = max(self.info, trial.info)
        else:
            rise = self.problem.gain(self.point, self.top[self.dense], cond)
            if rise <= 0.0:
                return False
            info = self.info + rise
        self.point, self.info = trial, info
        self.top, self.gap = top, gap
        return True

    def ba_step(self, trusted=False) -> bool:
        """One Blahut-Arimoto update; False when it does not raise I.

        ``trusted`` takes it as it is (a run of BA steps judged by the
        gap); otherwise it must show a rise, like a Newton trial.
        :meth:`_advance` alone enforces the budget.
        """
        point = self.point
        scaled = point.cond * np.exp(point.div - self.top.max())
        return self._advance(self._normalized(scaled), trusted)

    def toward_best(self) -> bool:
        """A step towards each group's input of largest D, backtracked on I.

        Along this direction (Frank and Wolfe 1956) I rises at the rate of
        the gap, so a short enough step raises I whenever the run is not
        certified; unlike a Blahut-Arimoto step it reaches inputs at zero.
        The step starts at the maximum of I's quadratic model, up to 1.
        :meth:`_advance` alone enforces the budget.
        """
        point, mass = self.point, self.problem.mass
        best = self.members[np.arange(self.group_mass.size), point.div[self.members].argmax(axis=1)]
        direction = -point.cond
        direction[best] += 1.0
        slope = float((mass * direction) @ (point.div - self.top[self.dense]))
        if not slope > 0.0:  # the gap, lost to rounding
            return False
        shift = (mass * direction) @ self.problem.tables.stacked[1]  # the change of p
        curvature = float(shift**2 @ np.divide(1.0, point.out, out=np.zeros(point.out.shape),
                                               where=point.out > 0.0))
        alpha = min(1.0, slope / curvature) if curvature > 0.0 else 1.0
        for _ in range(_BACKTRACKS):
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
        as far as the first input it blocks (:func:`_ratio_step`), for one more
        evaluation: a direction gets at most two trials, and is not
        backtracked, since :meth:`toward_best` raises I wherever the run
        is not certified.  :meth:`_advance` alone enforces the budget.
        """
        cond, div = self.point.cond, self.point.div
        free = cond > 0.0
        # an input at zero is released only once the face is nearly optimal:
        # the face's own gap is at most half the total (with none at zero, a no-op)
        face_max = np.where(free, div, -np.inf)[self.members].max(axis=1)
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
        if (at + step < 0.0).any():
            move = self._projected(model, at, pinned, step)
            if move is not None:
                trial = cond.copy()
                trial[face] = at + move  # a pinned input is at - at, exactly zero
                if self._advance(self._normalized(trial)):
                    return True
        trial = cond.copy()
        trial[face] = _ratio_step(at, step)
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
        weighted = np.divide(rows, point.out, out=np.zeros(rows.shape), where=point.out > 0.0)
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
                                    out=np.zeros(model.out.shape), where=model.out > 0.0)
    reduced = project @ factor[free]  # B', one row per free input
    v, sigma, ut = np.linalg.svd(reduced, full_matrices=False)
    keep = sigma > sigma[0] * math.sqrt(max(reduced.shape) * np.finfo(float).eps)
    v, sigma, ut = v[:, keep], sigma[keep], ut[keep]
    y = v @ ((v.T @ project @ model.grad[free]) / sigma**2 - (ut @ (factor.T @ known)) / sigma)
    known[free] += project @ y
    return known


def _ratio_step(at, step) -> np.ndarray:
    """``at + t*step`` for the largest t, up to 1, that keeps every entry >= 0 (a ratio test).

    The entries that block the step at t <= 1 are set to exactly zero, so
    they leave the face.
    """
    shrink = np.flatnonzero(step < 0.0)
    ratios = at[shrink] / -step[shrink]
    limit = ratios.min() if ratios.size else np.inf
    moved = np.maximum(at + min(1.0, limit) * step, 0.0)
    if limit <= 1.0:
        moved[shrink[ratios == limit]] = 0.0
    return moved


def _check_stop_rule(tol, max_iter) -> None:
    if not 0.0 < tol < math.inf:  # NaN fails this too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _blahut_arimoto(kernel, partition, host_mass, tol,
                    max_iter) -> tuple[RateResult, float | None]:
    """Maximize I over the per-group conditionals until the duality gap certifies it.

    The gap sum_g h(g)*max_{u in g} D_u - I bounds the distance to the
    optimum (Blahut 1972); the run is certified, and stops, once it is at
    most ``tol*I`` plus the 1e-15-bit floor.  From the uniform start it
    takes Blahut-Arimoto steps while each at least halves the gap, then
    Newton steps on the face of free inputs; where a Newton step raises no
    trial, a BA step, and where neither does, a step towards each group's
    input of largest D.  It ends uncertified at ``max_iter`` evaluations,
    or when none of the three raises I.

    It returns the result and I at the uniform start, as an evaluation of
    the uniform conditional reads it, or None where the two differ in
    support: a subnormal mass times 1/|group| can underflow to 0, and then
    the evaluation leaves that input out.
    """
    _check_stop_rule(tol, max_iter)
    run = _Ascent(_Problem(kernel, host_mass[partition.group_of]), partition, host_mass,
                  tol, max_iter)
    start = run.info if (run.problem.mass * run.point.cond).all() else None
    blahut = True  # BA steps while they at least halve the gap
    while not run.certified() and run.budget():
        if blahut:
            gap = run.gap
            blahut = run.ba_step(trusted=True) and run.gap <= 0.5 * gap
            continue
        if not (run.newton() or run.ba_step() or run.toward_best()):
            break
    full = partition.start.copy()  # uniform where the host has no mass
    full[run.problem.support] = run.point.cond
    return _rate_result(run.info, full, run.iterations, run.certified(),
                        entropy_bits(host_mass), gap_bits=run.gap), start


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
    mass, _ = _checked_host(host_mass, len(members), "host mass")
    entries = channel.ravel()  # every entry is a class of its own
    kernel = _kernel(entries, channel.shape[1] * entries - 1.0,
                     np.arange(entries.size).reshape(channel.shape))
    # a trial that empties the only input reaching some output has an
    # infinite D there (a log of 0, then inf - inf), and _Ascent._advance
    # refuses it
    with np.errstate(divide="ignore", invalid="ignore"):
        return _blahut_arimoto(kernel, _partition(members, channel.shape[0]), mass,
                               tol, max_iter)[0]


# ---------------------------------------------------------------------------
# achievable rates for the standard genetic code


def _point_mass(host) -> int | None:
    """The index of a host's one nonzero entry if it is exactly 1.0, or None for any other host.

    Such a host is a valid pmf, so the test needs no other check before
    it.  A single nonzero entry that is negative or NaN is not the largest
    one that ``argmax`` finds, or is NaN, and fails the comparison.
    """
    if np.count_nonzero(host) != 1:
        return None
    index = int(host.argmax())
    return index if host[index] == 1.0 else None


def _evaluate(host, amino, cond, params: ChannelParams) -> RateResult:
    """The rate at ``cond`` of a checked host, whose point mass, if any, is ``amino``.

    A point mass is read exactly at a block even on every orbit of its
    synonym set.  A set that is one orbit (Met, Trp, the 2- and 4-fold
    aminos) takes the closed form of its optimum at the uniform block.
    Ile, Leu, Arg, Ser and Stp are read in their lane of the orbit stack,
    the other lanes at their uniform start.
    """
    constants, slot = _constants(params), _ORBIT_SLOT.get(amino)
    if slot is not None:
        code = _orbit_code()
        block, orbit_of, sizes = cond[code.members[slot]], code.orbit_of[slot], code.sizes[slot]
        weights = np.bincount(orbit_of, block, minlength=_STACK_ORBITS)
        if np.array_equal(block, (weights[:sizes.size] / sizes)[orbit_of]):
            tables, stack = _orbit_tables(constants), code.start.copy()
            stack[slot] = weights
            info = math.ldexp(_orbit_point(tables, stack).info[slot], -2 * tables.shift[slot])
            return _rate_result(info, cond, 0, True, 0.0)
    elif amino is not None and (cond == _SYNONYM_SETS.start)[SYNONYM_INDICES[amino]].all():
        return _rate_result(constants.closed_form(amino), cond, 0, True, 0.0)
    # I(Z;U) depends on the input pmf alone: each input weighs its mass
    problem = _Problem(constants.kernel, host[AMINO_OF_CODON] * cond)
    info = problem.information(np.ones(len(problem.support))).info
    return _rate_result(info, cond, 0, True, entropy_bits(host))


def evaluate_rate(host, cond, params: ChannelParams) -> RateResult:
    """Rate I(Z;U) - H(X') for a given host pmf and codon conditional.

    No optimization is performed; the conditional is used as supplied.
    A non-finite or negative entry in either raises, as does a block that
    does not sum to one for an amino the host emits.  The host is checked
    first: its shape, then the point-mass test (one entry of exactly 1.0,
    which proves a valid pmf), then, for any other host, the pmf check;
    the conditional after it.  A point mass on Ile, Leu, Arg, Ser or Stp
    whose block is even on every orbit (the uniform conditional, or an
    optimum of :func:`ba_optimize`) is read in the exact orbit form of the
    optimizer, and one on any other amino whose block is uniform in the
    closed form of its optimum, both without the 64x64 tables.  Any other
    conditional is read in the tables, so a Stp block that is not even on
    its orbits (TAG != TGA, by as little as one ulp) reads I at small
    gamma only to about eps*sqrt(I) + eps**2 bits absolute, which leaves
    no digit of I deep in the cascade, and a 2-fold block off uniform
    loses the 2-fold rows at small gamma as the tables do.
    """
    host, amino = _checked_host(host)
    return _evaluate(host, amino, _check_conditional(cond, host), params)


# The synonym sets of the five multi-codon aminos that are neither 2- nor
# 4-fold, each split into the orbits of its stabilizer in the channel's
# symmetry group, of order 3072: at each position the 8 relabellings that
# keep {A, G} and {C, T}, and the 6 permutations of the positions.  The
# optimum is constant on each orbit (Gallager 1968, section 4.5), so
# :meth:`_ChannelConstants.point_mass` has one free weight for Ile and Stp
# and two for Leu, Arg and Ser.
_ORBITS = {
    "Ile": (("ATT", "ATC"), ("ATA",)),
    "Leu": (("CTA", "CTG"), ("CTT", "CTC"), ("TTA", "TTG")),
    "Arg": (("CGT", "CGC"), ("CGA", "CGG"), ("AGA", "AGG")),
    "Ser": (("TCA", "TCG"), ("TCT", "TCC"), ("AGT", "AGC")),
    "Stp": (("TAG", "TGA"), ("TAA",)),
}
# the place of each of those aminos in the stack of the orbit solver
_ORBIT_SLOT = {AMINO_INDEX[amino]: slot for slot, amino in enumerate(_ORBITS)}
# the characters of the base channel on A, C, T, G: trivial, the eigenvalue
# lam (purines against pyrimidines) and twice mu (Evans and Speed 1993)
_CHARACTERS = np.array([[1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]])
# a direction of orbit weights whose difference row is at most this share of
# the largest one moves I by less than its rounding
_FLAT = np.finfo(float).eps
# every stacked amino is padded to this many orbits, outputs and monomial
# blocks; Ser has 9 blocks, the most of any amino
_STACK_ORBITS, _STACK_OUTPUTS, _STACK_BLOCKS = 3, 64, 9


class _OrbitCode(NamedTuple):
    """The orbit constants of the five aminos of ``_ORBITS``, stacked in its order.

    Each amino's outputs are numbered like codons on the k positions where
    its synonyms differ (n = 4**k).  Every amino is padded to 3 orbits and
    64 outputs: a padded orbit repeats the first in every table, with
    weight 0 in ``start``, and a padded output is 0 in every row.  The 4
    outputs of Ile lie 8 apart, so that numpy's pairwise sum over 64
    entries adds them one after the other, as it adds 4, and every sum
    over an amino's outputs has the bits of its sum over its own n.
    Every orbit has a representative, its first codon, and a mean row, the
    mean of its first and last codons (that of the orbit).  ``ends`` holds
    the first and the last codon's entries as indices into the class values
    on 1, 2 and 3 positions, followed by a 0 for padding.  ``pairs`` holds
    mean_a - mean_b and ``offsets`` mean_i - rep_j at [i, j] as integer
    multiples of 1/n: one block per monomial lam^(m*e) * mu^(m*f), the sum
    over its characters chi of the exact coefficient differences (0, +-1
    or +-2) times chi.  Each amino's blocks are padded to the most any
    amino has (9, for Ser) with zero blocks of monomial 16 and no
    characters.
    """

    members: tuple  # per amino: the codons of every orbit, in orbit order
    orbit_of: tuple  # per amino: the orbit of each of them
    sizes: tuple  # per amino: codons per orbit
    start: np.ndarray  # (5, 3): the uniform conditional's orbit weights, 0 on padding
    ends: np.ndarray  # (2, 5, 3, 64)
    pairs: np.ndarray  # (5, 9, 3*3*64)
    offsets: np.ndarray  # (5, 9, 3*3*64)
    monomials: np.ndarray  # (5, 9): 4*e + f, or 16 (a 0) on padding
    counts: np.ndarray  # (5, 9): characters per block, 0 on padding
    positions: np.ndarray  # (5,): k


def _orbit_part(orbits):
    """One amino's entries of :class:`_OrbitCode`, padded to the stack's shape."""
    codons = [codon for orbit in orbits for codon in orbit]
    positions = [i for i in range(3) if len({codon[i] for codon in codons}) > 1]
    k, r = len(positions), len(orbits)
    place = 4 ** np.arange(k - 1, -1, -1)
    digits = np.arange(4**k)[:, None] // place % 4  # the base, or character, at each position
    spots = np.arange(4**k) * (8 if k == 1 else 1)  # the place of each output among the 64
    slots = np.arange(_STACK_ORBITS) % r  # the orbit in each slot, the first on padding
    bases = np.array([[BASE_INDEX[codon[i]] for i in positions] for codon in codons])
    sizes = np.array([len(orbit) for orbit in orbits])
    lasts = (np.cumsum(sizes) - 1)[slots]
    firsts = lasts + 1 - sizes[slots]
    # the class 3**(k-1)*r_1 + ... + r_k of (codon, z) for every codon and
    # output z, as an index into the class values on 1, 2 and 3 positions
    classes = (_RELATION[bases[:, None, :], digits] * 3 ** np.arange(k - 1, -1, -1)).sum(-1)
    index = np.full((2, _STACK_ORBITS, _STACK_OUTPUTS), 39)
    index[..., spots] = np.stack([classes[firsts], classes[lasts]]) + (3**k - 3) // 2
    characters = functools.reduce(np.kron, [_CHARACTERS] * k)  # chi at z, both numbered like codons
    at = characters[:, bases @ place]  # chi(u) for every character and codon
    means, reps = 0.5 * (at[:, firsts] + at[:, lasts]), at[:, firsts]
    differences = np.stack([means[:, :, None] - means[:, None, :],
                            means[:, :, None] - reps[:, None, :]])  # (2, characters, 3, 3)
    # the monomial 4*e + f of each character that differs on the synonyms
    used = differences.any(axis=(0, 2, 3))
    monomial = (4 * (digits == 1).sum(axis=1) + (digits >= 2).sum(axis=1))[used]
    keys, counts = np.unique(monomial, return_counts=True)
    terms = differences[:, used, ..., None] * characters[used, None, None, :]
    blocks = np.zeros((2, _STACK_BLOCKS, _STACK_ORBITS, _STACK_ORBITS, _STACK_OUTPUTS))
    blocks[:, :len(keys), ..., spots] = np.matmul(
        (monomial == keys[:, None]).astype(float),
        terms.reshape(2, len(monomial), -1)).reshape(2, -1, 3, 3, 4**k) / 4.0**k
    start = np.zeros(_STACK_ORBITS)
    start[:r] = sizes / sizes.sum()
    pairs, offsets = blocks.reshape(2, _STACK_BLOCKS, -1)
    padding = (0, _STACK_BLOCKS - len(keys))
    return (np.array([CODON_INDEX[codon] for codon in codons]), np.repeat(np.arange(r), sizes),
            sizes.astype(float), start, index, pairs, offsets,
            np.pad(keys, padding, constant_values=16), np.pad(counts, padding).astype(float), k)


@functools.cache
def _orbit_code() -> _OrbitCode:
    """The stacked orbit constants, built on first use and kept.

    The build takes about 2 ms, paid by the first orbit solve or
    evaluation of a process rather than at import.
    """
    members, orbit_of, sizes, start, ends, pairs, offsets, monomials, counts, positions = zip(
        *(_orbit_part(orbits) for orbits in _ORBITS.values()))
    code = _OrbitCode(members, orbit_of, sizes, np.array(start), np.stack(ends, axis=1),
                      np.array(pairs), np.array(offsets), np.array(monomials), np.array(counts),
                      np.array(positions))
    _read_only((*code.members, *code.orbit_of, *code.sizes, *code[3:]))
    return code


class _OrbitTables(NamedTuple):
    """The stack of the five orbit aminos' rows at one parameter set, for :func:`_orbit_point`.

    ``offsets`` is None when the characters bound p - W more tightly
    than the probabilities for no amino: every entry is then ``small``,
    and the exact differences are not formed.  The orbits each amino has
    are those of positive weight in ``_orbit_code().start``.
    """

    rows: np.ndarray  # (a, 3, 64): W of each representative
    small: np.ndarray  # where p - W comes from the probabilities
    inv: np.ndarray  # the kernel's 1/W and series cut-off (:func:`_reciprocal`)
    series_below: np.ndarray
    means: np.ndarray  # (a, 3, 64): each orbit's mean row
    offsets: np.ndarray | None  # (a, 3, 3*64): mean_i - rep_j, from the characters
    pairs: np.ndarray  # (a, 3, 3, 64): mean_a - mean_b, from the characters
    shift: list  # per amino: the differences are scaled by 2**shift, I and D by 2**(2*shift)


def _orbit_tables(constants: _ChannelConstants) -> _OrbitTables:
    """The orbit rows of the five aminos of the stack, from the class values and powers.

    Every entry of an amino is computed from that amino's own constants
    alone, and every later step of :func:`_orbit_point` works lane by lane,
    so an amino's I and D hold the same bits whatever the other lanes hold.
    """
    code = _orbit_code()
    ends = np.concatenate((*constants.classes, [0.0]))[code.ends]
    rows, means = ends[0], (0.5 * ends).sum(axis=0)
    powers = np.append(constants.monomials, 0.0)[code.monomials]
    sizes = np.abs(powers)
    # p - W errs by about eps*W from the probabilities, and by at most
    # eps*2*sum|Lambda|/n from the characters: each entry takes the smaller
    bound = 2.0 * np.cumsum(sizes * code.counts, axis=1)[:, -1] / 4.0**code.positions
    # every row holds every class value, so its largest entry is max(classes[0])**k
    top = float(constants.classes[0].max())
    characters = np.array([top**k >= b for k, b in zip(code.positions.tolist(), bound.tolist())])
    small = (rows < bound[:, None, None]) | ~characters[:, None, None]
    # rows within 2**-400 of each other have I below 2**-800, and tol*I may
    # turn subnormal: their differences are scaled to about 2**-200, and I
    # and every D to about 2**-400; no entry is small there.  A shift of 0
    # moves no bit.  C int exponents: np.ldexp on 5x576 takes about 2 us
    # with them, 13 us with int64
    shift = [_underflow_shift((largest,)) for largest in sizes.max(axis=1).tolist()]
    exponents = np.array(shift, dtype=np.intc)[:, None]

    def exact(blocks):
        return np.ldexp(np.matmul(powers[:, None, :], blocks)[:, 0], exponents)

    pairs = exact(code.pairs).reshape(len(rows), _STACK_ORBITS, _STACK_ORBITS, -1)
    offsets = exact(code.offsets).reshape(len(rows), _STACK_ORBITS, -1) if characters.any() \
        else None
    return _OrbitTables(rows, small, *_reciprocal(rows), means, offsets, pairs, shift)


class _OrbitPoint(NamedTuple):
    """One evaluation of every amino of a stack, at its orbit weights."""

    weights: np.ndarray  # (a, 3)
    div: np.ndarray  # (a, 3): D of each representative, in nats
    out: np.ndarray  # (a, 64): p on the outputs
    info: list  # per amino: I in bits
    gap: list  # per amino: sum_j w_j*(max D - D_j), in bits


def _orbit_point(tables: _OrbitTables, weights) -> _OrbitPoint:
    """I, the D of every orbit and the gap at the orbit ``weights``, by the divergence kernel.

    p - W comes from the probabilities where ``small`` and from the exact
    differences elsewhere, as sum_i w_i*(mean_i - rep_j).  Shallow, every
    entry is small and the exact differences are not formed (``offsets``
    is None): in the capacity benchmark's box, where every run is shallow,
    forming them anyway costs about 6% of a ``capacity_c`` call.  Each sum
    over outputs runs inside one amino's padded row, whose padding adds
    exact zeros.  The gap is taken term by term, each term non-negative,
    so it is never below zero.
    """
    out = np.matmul(weights[:, None, :], tables.means)
    num = out - tables.rows
    if tables.offsets is not None:
        num = np.where(tables.small, num,
                       np.matmul(weights[:, None, :], tables.offsets).reshape(num.shape))
    div = _terms(tables.rows, num, tables.inv, tables.series_below).sum(axis=2)
    info, gap = [], []
    # a padded orbit has weight 0 and repeats the first orbit's D
    for (w0, w1, w2), (d0, d1, d2) in zip(weights.tolist(), div.tolist()):
        high = max(d0, d1, d2)
        info.append((w0 * d0 + w1 * d1 + w2 * d2) / _LN2)
        gap.append((w0 * (high - d0) + w1 * (high - d1) + w2 * (high - d2)) / _LN2)
    return _OrbitPoint(weights, div, out[:, 0], info, gap)


class _OrbitFaces(NamedTuple):
    """The Newton directions of one face of every amino of a stack.

    A face is the set of free orbits.  Its reference is its first orbit,
    and its other orbits are the targets of the two direction slots; a
    slot without a target holds an orbit off the face, so the three are
    distinct.  Slot s holds the row mean_t - mean_ref of its target t.  It
    is kept unless it has no target, or its scale (its largest entry) is
    at most ``_FLAT`` times the largest of the face, flat to rounding or
    underflowed.
    """

    rows: np.ndarray  # (a, 2, 64)
    ref: list  # per amino: the reference orbit
    kept: list  # per amino: (slot, target, scale) of every kept slot


def _orbit_faces(tables: _OrbitTables, free) -> _OrbitFaces:
    """The directions of the faces ``free``, an (a, 3) mask, of the aminos of ``tables``.

    A stable sort puts each face's free orbits first, in order, and the
    others after them, in order: the reference, then the targets.  A face
    of k free orbits has max(k - 1, 0) targets; with none free, orbit 0
    is the reference and the face keeps no direction.
    """
    orbits = np.argsort(~free, axis=1, kind="stable")
    counts = np.maximum(free.sum(axis=1) - 1, 0)
    rows = tables.pairs[np.arange(len(free))[:, None], orbits[:, 1:], orbits[:, :1]]
    kept = []
    for (_, *targets), count, scales in zip(orbits.tolist(), counts.tolist(),
                                            np.abs(rows).max(axis=2).tolist()):
        floor = _FLAT * max(scales[:count], default=0.0)
        kept.append([(slot, targets[slot], scales[slot]) for slot in range(count)
                     if scales[slot] > floor])
    return _OrbitFaces(rows, orbits[:, 0].tolist(), kept)


def _orbit_newton(tables: _OrbitTables, faces: _OrbitFaces, point: _OrbitPoint, running):
    """The Newton points of I in the orbit weights of the aminos ``running``.

    ``faces`` holds the directions of the faces of every orbit, used while
    every weight is positive; once some orbit is at zero weight, the faces
    are formed again from the mask of free orbits (:func:`_orbit_faces`).
    Each direction moves weight from the face's first orbit (the
    reference) to one other, scaled by its own exact difference row
    (:class:`_OrbitFaces`).  The gradient is D_t - D_ref and -H the Gram
    matrix of the rows under 1/p, formed for every amino at once and
    solved in closed form on one or two coordinates (:func:`_orbit_moves`).
    An orbit at zero weight is released once the face is nearly optimal,
    as in :meth:`_Ascent.newton`; where the reference would fall below
    zero the step is cut at the first orbit it empties (:func:`_ratio_step`).
    It returns the weights with each Newton point in place, and the aminos
    that have one.  An amino whose face keeps no direction, whose system
    is singular or whose point is not finite keeps its weights and is not
    among them.
    """
    weights, div, valid = point.weights, point.div, _orbit_code().start > 0.0
    free = weights > 0.0
    if (free != valid).any():
        # an orbit at zero weight is released once the face is nearly
        # optimal: the face's own gap is at most half the total
        face_top = np.where(free, div, -np.inf).max(axis=1)
        release = face_top / _LN2 - np.array(point.info) <= 0.5 * np.array(point.gap)
        free |= release[:, None] & (div > face_top[:, None]) & valid
        faces = _orbit_faces(tables, free)
    rows = faces.rows
    weighted = np.divide(rows, point.out[:, None, :], out=np.zeros(rows.shape),
                         where=point.out[:, None, :] > 0.0)
    grams = np.matmul(weighted, rows.transpose(0, 2, 1)).tolist()
    trials, divs, moved = weights.tolist(), div.tolist(), []
    for lane in running:
        kept, ref, d, trial = faces.kept[lane], faces.ref[lane], divs[lane], list(trials[lane])
        moves = kept and _orbit_moves(grams[lane], kept, [(d[t] - d[ref]) / s for _, t, s in kept],
                                      [trial[t] for _, t, _ in kept])
        if not moves:
            continue
        for (_, t, _), move in zip(kept, moves):
            trial[t] += move
        trial[ref] -= sum(moves)
        if not all(map(math.isfinite, trial)):
            continue
        if trial[ref] < 0.0:
            trial = _ratio_step(weights[lane], np.array(trial) - weights[lane]).tolist()
        total = sum(trial)
        trials[lane] = [weight / total for weight in trial]
        moved.append(lane)
    return np.array(trials), moved


def _orbit_moves(gram, kept, grad, at):
    """The Newton moves of the one or two ``kept`` directions, or None when -H is singular.

    ``gram`` holds the Gram matrix of the face's rows under 1/p, ``grad``
    the gradient in units of each row's scale and ``at`` the weights of
    the target orbits; -H in those units is solved in closed form on one
    or two coordinates.  A direction whose move would take its orbit below
    zero is pinned there; with two directions and one pinned, the other is
    solved again with the pinned move held fixed, and pinned too if it
    then falls below zero (Bertsekas 1982).
    """
    if len(kept) == 1:
        (slot, _, scale), = kept
        det = gram[slot][slot] / (scale * scale)
        if not det > 0.0:
            return None
        move = grad[0] / det / scale
        return [-at[0] if at[0] + move < 0.0 else move]
    (_, _, s0), (_, _, s1) = kept
    (g00, g01), (g10, g11) = gram
    # in units of each row's scale
    a, b, c, d = g00 / (s0 * s0), g01 / (s0 * s1), g10 / (s1 * s0), g11 / (s1 * s1)
    det = a * d - b * b
    if not det > 1e-12 * a * d:
        return None
    m0, m1 = (grad[0] * d - grad[1] * b) / det / s0, (grad[1] * a - grad[0] * b) / det / s1
    low0, low1 = at[0] + m0 < 0.0, at[1] + m1 < 0.0
    if low0 and low1:
        return [-at[0], -at[1]]
    if low0:
        m0 = -at[0]
        m1 = (grad[1] - c * m0 * s0) / d / s1
        return [m0, -at[1] if at[1] + m1 < 0.0 else m1]
    if low1:
        m1 = -at[1]
        m0 = (grad[0] - b * m1 * s1) / a / s0
        return [-at[0] if at[0] + m0 < 0.0 else m0, m1]
    return [m0, m1]


def _orbit_gains(point: _OrbitPoint, candidate: _OrbitPoint, tables: _OrbitTables) -> list:
    """The exact gain ``sum_j dw_j*D_j - KL(p' || p)`` of each ``candidate`` over ``point``.

    p' - p comes from the exact pair rows, as sum_j dw_j*(mean_j - mean_0).
    """
    move = candidate.weights - point.weights
    change = np.matmul(move[:, None, :], tables.pairs[:, :, 0])[:, 0]
    kl = _terms(candidate.out, -change, *_reciprocal(candidate.out)).sum(axis=1)
    return [float(np.dot(dw, d - d.max())) - value for dw, d, value
            in zip(move, point.div, kl.tolist())]


def _orbit_optima(constants: _ChannelConstants, tol, max_iter) -> tuple:
    """Maximize I of the five orbit point masses over their orbit weights, as one stack.

    Each amino stops once its gap sum_j w_j*(max D - D_j) <= tol*I, with no
    floor: a run whose I and gap both underflow to 0 certifies at 0.  Every
    evaluation is one iteration, the first at the uniform conditional, and
    each later one a Newton point (:func:`_orbit_newton`), taken if it
    raises I as :meth:`_Ascent._advance` judges a trial: a rise of more
    than ``_DECISIVE*I`` is read off the two values, a certified point
    within that band is taken, and otherwise the exact gain decides
    (:func:`_orbit_gains`).  An amino's run ends uncertified after
    ``max_iter`` evaluations, where it has no Newton point or its Newton
    point does not raise I, or after two points in a row that do not halve
    the gap: Newton steps converge quadratically, so there the D differ by
    their rounding (as below about 1e-12*I near the kernel's series
    cut-off).  Each round evaluates and steps all five at once, and an
    amino whose run has ended is evaluated at its own point again; the
    rounds go on while any run does.  The returned conditionals are the
    points whose I and gap are reported, spread evenly over each orbit, one
    read-only result per amino in ``_ORBITS`` order.  Beside them it returns
    each amino's I at the uniform start, scaled back, which has the bits of
    an evaluation there (:func:`_evaluate`) because an amino's lane holds
    the same bits whatever the other lanes hold (:func:`_orbit_tables`).
    """
    code = _orbit_code()
    tables = _orbit_tables(constants)
    faces = _orbit_faces(tables, code.start > 0.0)  # every orbit free
    point = _orbit_point(tables, code.start)
    starts = tuple(math.ldexp(info, -2 * shift) for info, shift in zip(point.info, tables.shift))
    lanes = range(len(point.info))
    iterations, stalls, ended = [1] * len(lanes), [0] * len(lanes), [False] * len(lanes)
    while running := [lane for lane in lanes if not ended[lane] and stalls[lane] < 2
                      and iterations[lane] < max_iter
                      and point.gap[lane] > tol * point.info[lane]]:
        trials, moved = _orbit_newton(tables, faces, point, running)
        candidate = _orbit_point(tables, trials)
        gains = None
        for lane in running:
            if lane not in moved:
                ended[lane] = True
                continue
            iterations[lane] += 1
            info, new_info, new_gap = point.info[lane], candidate.info[lane], candidate.gap[lane]
            rise, decisive = new_info - info, _DECISIVE * info
            if not (rise > decisive or rise >= -decisive and new_gap <= tol * new_info):
                gains = _orbit_gains(point, candidate, tables) if gains is None else gains
                if not gains[lane] > 0.0:  # it keeps its point
                    ended[lane] = True
                    for new, old in zip(candidate, point):
                        new[lane] = old[lane]
                    continue
            stalls[lane] = stalls[lane] + 1 if new_gap > 0.5 * point.gap[lane] else 0
        point = candidate
    results = []
    for slot, (info, gap, shift) in enumerate(zip(point.info, point.gap, tables.shift)):
        cond = _SYNONYM_SETS.start.copy()
        cond[code.members[slot]] = (point.weights[slot, :len(code.sizes[slot])]
                                    / code.sizes[slot])[code.orbit_of[slot]]
        cond.flags.writeable = False
        results.append(_rate_result(math.ldexp(info, -2 * shift), cond, iterations[slot],
                                    gap <= tol * info, 0.0, gap_bits=math.ldexp(gap, -2 * shift)))
    return tuple(results), starts


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

    The host is checked first: its shape, then the point-mass test (one
    amino of mass exactly 1.0, which proves a valid pmf by itself), then,
    for any other host, the pmf check.  A point-mass host (as in every run
    of :func:`capacity_c`) returns :meth:`_ChannelConstants.point_mass`;
    any other runs the 64-codon optimizer, on the kernel kept with the
    parameter set's constants (:func:`_constants`), which also keep I at
    the run's uniform start for :func:`uniform_conditional_rate`.  ``tol``
    must be finite and above zero, and ``max_iter`` at least 1; both are
    checked after the host, before any run.
    """
    host, amino = _checked_host(host)
    constants = _constants(params)
    if amino is not None:
        _check_stop_rule(tol, max_iter)
        return constants.point_mass(amino, tol, max_iter)
    result, start = _blahut_arimoto(constants.kernel, _SYNONYM_SETS, host, tol, max_iter)
    if start is not None:
        constants.engine_start = (host.tobytes(), start)
    return result


def rate_q0(host) -> float:
    """Mutation-free rate: E[log2 |synonyms(X')|] bits/codon."""
    host, _ = _checked_host(host)
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
    for the uniform-codon host, and close elsewhere.  The host is checked
    as by :func:`evaluate_rate`; the conditional, built here, is not.
    Every optimizer run reads this I as its first point, so where
    :func:`ba_optimize` has already run on the same host and parameter
    set, I is read from the constants that kept it
    (:meth:`_ChannelConstants.uniform_start`), with the same bits, and
    otherwise evaluated.
    """
    host, amino = _checked_host(host)
    info = _constants(params).uniform_start(host, amino)
    if info is None:
        return _evaluate(host, amino, uniform_conditional(), params)
    return _rate_result(info, uniform_conditional(), 0, True, entropy_bits(host))


def steganographic_rate(host_codon_usage, host, params: ChannelParams) -> RateResult:
    """Rate when the host's own synonymous-codon usage must be preserved.

    The conditional is pegged to the empirical usage, so no maximization
    happens and the result is at most the optimized rate.  An amino the
    host emits but whose usage block is empty signals that the pmf and
    the usage came from different sequences, and raises, as does a
    non-finite or negative entry.  Each input is checked once.
    """
    host, amino = _checked_host(host)
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
    return _evaluate(host, amino, _nonnegative(usage, "codon usage"), params)


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
    # the rows of the kernel, gathered from the class values without it
    rows = _constants(params).classes[2][_CODON_CLASSES[idx]]
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

    ``method`` selects the conditional: ``"ba"`` optimizes
    (:func:`ba_optimize`, which returns
    :meth:`_ChannelConstants.point_mass`), ``"uniform"`` spreads evenly,
    ``"linearized"`` uses the closed-form approximation.  Single-codon
    aminos (Met, Trp) can only carry rate zero and return immediately,
    with a gap of 0 for ``"ba"`` and none (None) for the two evaluations.
    """
    ai = _amino_index(amino)
    if method not in ("ba", "uniform", "linearized"):
        raise ValueError(f"unknown method {method!r}; expected ba, uniform or linearized")
    if len(SYNONYM_INDICES[ai]) == 1:  # exact: a single input carries nothing
        # an optimum's gap is 0; an evaluation has none
        return _rate_result(0.0, uniform_conditional(), 0, True, 0.0,
                            gap_bits=0.0 if method == "ba" else None)
    host = point_mass_host(amino)
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

    The capacity-achieving host pmf is deterministic, so the search takes
    the optimized rate of each amino acid, one call of
    :func:`deterministic_rate` each (the two single-codon ones are zero
    outright; the other 19 run :func:`ba_optimize`, which returns
    :meth:`_ChannelConstants.point_mass`), and returns the argmax with the
    full per-amino rate table.
    With ``include_stp=False`` the stop symbol, which a real gene can use
    only once, is excluded from the argmax but still reported in the
    table.
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
