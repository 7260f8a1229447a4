"""Reference values for the benchmark's output checks, written apart from dnacap.

Only numpy and the standard library are used.  The genetic code, the
m-stage base matrix, the codon channel, the mutual information at a given
conditional and the Blahut-Arimoto duality bound are all computed here
from first principles, so a fault in the package cannot hide in its own
check.

Accuracy near the uniform channel.  Deep cascades leave every codon
channel entry within rounding of 1/64, where ``sum W log(W/P)`` over a row
cancels to nothing.  Two things keep the relative accuracy here:

* every divergence is a sum of non-negative terms ``P_z * phi(t_z)`` with
  ``phi(t) = (1+t) log(1+t) - t`` and ``t_z = W_z/P_z - 1``, and a short
  series gives ``phi`` for small ``|t|``;
* ``t`` is never formed from rounded entries.  A codon entry is
  ``(1 + w)/64`` with ``1 + w`` a polynomial in ``L = lam**m`` and
  ``M = mu**m`` with integer coefficients, so ``w_u - v`` is computed from
  exact coefficient differences, one monomial at a time.  A part of a
  row carried by ``M`` survives even when ``M`` is far below rounding of
  ``L``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Base order of the package's matrices (a documented convention): A, C, T, G.
BASES = "ACTG"
# Amino-acid order of the package's host pmfs (a documented convention).
AMINO_ORDER = (
    "Ala", "Arg", "Asn", "Asp", "Cys", "Gln", "Glu", "Gly", "His", "Ile",
    "Leu", "Lys", "Met", "Phe", "Pro", "Ser", "Thr", "Trp", "Tyr", "Val",
    "Stp",
)
_ONE_LETTER = {
    "A": "Ala", "R": "Arg", "N": "Asn", "D": "Asp", "C": "Cys", "Q": "Gln",
    "E": "Glu", "G": "Gly", "H": "His", "I": "Ile", "L": "Leu", "K": "Lys",
    "M": "Met", "F": "Phe", "P": "Pro", "S": "Ser", "T": "Thr", "W": "Trp",
    "Y": "Tyr", "V": "Val", "*": "Stp",
}
# The standard code in its textbook layout: first, second and third base
# each run over T, C, A, G, first base slowest.
_TCAG = "TCAG"
_TABLE = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"

CODONS = tuple(a + b + c for a in BASES for b in BASES for c in BASES)
AMINO_OF = {
    _TCAG[k // 16] + _TCAG[(k // 4) % 4] + _TCAG[k % 4]: _ONE_LETTER[letter]
    for k, letter in enumerate(_TABLE)
}
#: codon index (16*i1 + 4*i2 + i3, bases in A, C, T, G order) -> amino index
AMINO_INDEX_OF_CODON = np.array([AMINO_ORDER.index(AMINO_OF[c]) for c in CODONS])
GROUPS = tuple(np.flatnonzero(AMINO_INDEX_OF_CODON == a) for a in range(21))
GROUP_SIZES = np.array([len(g) for g in GROUPS])


def codon_index(codon: str) -> int:
    i1, i2, i3 = (BASES.index(b) for b in codon)
    return 16 * i1 + 4 * i2 + i3


# ---------------------------------------------------------------------------
# channel

_PARTNER = {"A": "G", "G": "A", "C": "T", "T": "C"}  # transition pairs
_PURINE_SIGN = np.array([1.0 if b in "AG" else -1.0 for b in BASES])


def single_stage(q: float, gamma: float) -> np.ndarray:
    """One-stage 4x4 matrix: transitions A<->G and C<->T, transversions elsewhere."""
    k = np.full((4, 4), q * gamma / 3.0)
    for i, b in enumerate(BASES):
        k[i, i] = 1.0 - q
        k[i, BASES.index(_PARTNER[b])] = q * (1.0 - 2.0 * gamma / 3.0)
    return k


def _eigenvectors():
    # Exact eigenvectors of every single-stage matrix: uniform, purine vs
    # pyrimidine (eigenvalue lam) and the two transition-pair differences
    # (both eigenvalue mu).  Their projectors have entries in {0, +-1/4, +-1/2}.
    lam_vec = 0.5 * _PURINE_SIGN
    mu_vecs = []
    for a, b in (("A", "G"), ("C", "T")):
        v = np.zeros(4)
        v[BASES.index(a)], v[BASES.index(b)] = 1.0, -1.0
        mu_vecs.append(v / math.sqrt(2.0))
    return lam_vec, mu_vecs


_LAM_VEC, _MU_VECS = _eigenvectors()
#: base deviations d = 4P - 1 = L * A_COEF + M * B_COEF
A_COEF = 4.0 * np.outer(_LAM_VEC, _LAM_VEC)            # entries +-1
B_COEF = np.round(4.0 * sum(np.outer(v, v) for v in _MU_VECS))  # 2, -2 or 0


def generator_eigenvalues(gamma: float) -> tuple[float, float]:
    """(rho_lam, rho_mu): eigenvalues of G, where the one-stage matrix is I + q*G.

    Rayleigh quotients of the exact eigenvectors.  The m-stage powers are
    taken as exp(m * log1p(q*rho)), never from a rounded ``1 + q*rho``,
    whose rounding error m multiplies.
    """
    gen = single_stage(1.0, gamma) - np.eye(4)
    return float(_LAM_VEC @ gen @ _LAM_VEC), float(_MU_VECS[0] @ gen @ _MU_VECS[0])


def _power_parts(step: float, m: int) -> tuple[float, float]:
    """((1+step)**m, 1 - (1+step)**m), each to full relative accuracy."""
    if m == 0:
        return 1.0, 0.0
    if step <= -1.0:  # far outside the benchmark's range; plain arithmetic
        value = (1.0 + step) ** m
        return value, 1.0 - value
    log_base = math.log1p(step)
    return math.exp(m * log_base), -math.expm1(m * log_base)


def _rounded_step(step: float) -> float:
    # the step left when the eigenvalue 1 + step is rounded to double first
    # (the subtraction is exact: the rounded eigenvalue lies near 1)
    return (1.0 + step) - 1.0


def base_channel(q: float, gamma: float, m: int, rounded: bool = False):
    """(P, L, M): m-stage 4x4 probabilities and the two eigenvalue powers.

    ``P = (1 + L*A_COEF + M*B_COEF)/4``; every entry is assembled from
    ``1 - L`` and ``1 - M`` so that small entries keep their relative
    accuracy on shallow cascades too.  With ``rounded`` the eigenvalues
    ``1 + q*rho`` are rounded to double before their m-th power: the
    channel of an implementation that does so, used only to name that
    fault, never as the reference.
    """
    rho_lam, rho_mu = generator_eigenvalues(gamma)
    step_l, step_m = q * rho_lam, q * rho_mu
    if rounded:
        step_l, step_m = _rounded_step(step_l), _rounded_step(step_m)
    big_l, one_minus_l = _power_parts(step_l, m)
    big_m, one_minus_m = _power_parts(step_m, m)
    prob = ((1.0 + A_COEF + B_COEF) - A_COEF * one_minus_l - B_COEF * one_minus_m) / 4.0
    return np.clip(prob, 0.0, 1.0), big_l, big_m


def matrix_power_by_squaring(k: np.ndarray, m: int) -> np.ndarray:
    result = np.eye(k.shape[0])
    while m:
        if m & 1:
            result = result @ k
        k = k @ k
        m >>= 1
    return result


def self_check() -> None:
    """Raise if the eigen-decomposition or the closed form is wrong."""
    for q, gamma in ((0.3, 1.0), (1e-2, 0.1), (0.05, 1.4), (0.2, 0.0)):
        k = single_stage(q, gamma)
        rho_lam, rho_mu = generator_eigenvalues(gamma)
        lam, mu = 1.0 + q * rho_lam, 1.0 + q * rho_mu
        checks = [(k @ np.full(4, 0.5), np.full(4, 0.5)), (k @ _LAM_VEC, lam * _LAM_VEC)]
        checks += [(k @ v, mu * v) for v in _MU_VECS]
        if not all(np.allclose(a, b, rtol=1e-14, atol=1e-15) for a, b in checks):
            raise AssertionError(f"oracle eigenvectors wrong at q={q} gamma={gamma}")
        for m in (0, 1, 2, 3, 7, 64, 1000):
            prob, _, _ = base_channel(q, gamma, m)
            if not np.allclose(prob, matrix_power_by_squaring(k, m), rtol=1e-12, atol=1e-14):
                raise AssertionError(f"oracle base matrix wrong at q={q} gamma={gamma} m={m}")


# 1 + w_uz = prod_i (1 + L*a_i + M*b_i): coefficients over the monomials
# L^j M^k (j + k <= 3), integers, the same for every channel.
_MONOMIALS = [(j, k) for j in range(4) for k in range(4) if j + k <= 3]


def _codon_coefficients() -> np.ndarray:
    base = (np.ones((4, 4)), A_COEF, B_COEF)
    exps = ((0, 0), (1, 0), (0, 1))
    coef = np.zeros((64, 64, len(_MONOMIALS)))
    for e1, e2, e3 in itertools.product(range(3), repeat=3):
        j = exps[e1][0] + exps[e2][0] + exps[e3][0]
        k = exps[e1][1] + exps[e2][1] + exps[e3][1]
        coef[:, :, _MONOMIALS.index((j, k))] += np.kron(np.kron(base[e1], base[e2]), base[e3])
    return coef


CODON_COEF = _codon_coefficients()


class CodonChannel:
    """The 64x64 codon channel at one (q, gamma, m)."""

    def __init__(self, q: float, gamma: float, m: int, rounded: bool = False):
        prob, big_l, big_m = base_channel(q, gamma, m, rounded)
        self.prob = np.kron(np.kron(prob, prob), prob)
        self.monomials = np.array([big_l ** j * big_m ** k for j, k in _MONOMIALS])

    def divergences(self, p_input: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """D(W_u || P) in nats for the listed input rows u."""
        support = np.flatnonzero(p_input > 0.0)
        p_out = p_input[support] @ self.prob[support]
        # w_u - v = sum_u' p(u') (w_u - w_u'), from exact coefficient differences
        diff = CODON_COEF[rows][:, None] - CODON_COEF[support][None, :]
        dev = np.einsum("s,rszk,k->rz", p_input[support], diff, self.monomials)
        t = dev / (64.0 * p_out)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = self.prob[rows] / p_out
        return (p_out * _phi(t, x)).sum(axis=1)


_SERIES_BELOW = 1e-2


def _phi(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(1+t) log(1+t) - t: a series in t for small |t|, else from x = 1 + t."""
    small = np.abs(t) < _SERIES_BELOW
    ts = t[small]
    # sum_{k>=2} (-1)^k t^k / (k (k-1)); beyond k = 9 the terms are below 1e-14 relative
    acc = np.zeros_like(ts)
    for k in range(9, 1, -1):
        acc = acc * ts + (1.0 if k % 2 == 0 else -1.0) / (k * (k - 1))
    out = np.empty_like(t)
    out[small] = acc * ts * ts
    xl = x[~small]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[~small] = np.where(xl > 0.0, xl * np.log(xl), 0.0) - (xl - 1.0)
    return out


def information_and_bound(host, cond, channel: CodonChannel) -> tuple[float, float]:
    """(I, B) in bits: I(Z;U) at the conditional and the duality bound.

    ``B = sum_g p(g) max_{u in g} D_u`` bounds the maximum of I over all
    conditionals from above (Blahut 1972; Arimoto 1972); it is evaluated at
    the output pmf that the given conditional induces.
    """
    host = np.asarray(host, dtype=float)
    p_in = host[AMINO_INDEX_OF_CODON] * np.asarray(cond, dtype=float)
    active = [a for a in range(21) if host[a] > 0.0]
    rows = np.concatenate([GROUPS[a] for a in active])
    div = dict(zip(rows.tolist(), channel.divergences(p_in, rows)))
    info = sum(p_in[u] * div[u] for u in rows.tolist())
    bound = sum(host[a] * max(div[u] for u in GROUPS[a].tolist()) for a in active)
    return float(info) / math.log(2.0), float(bound) / math.log(2.0)


def entropy(pmf) -> float:
    p = np.asarray(pmf, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def noncoding_capacity(q: float, gamma: float, m: int, rounded: bool = False) -> float:
    """2 - H(row) bits/base: the divergence of a base row from uniform."""
    prob, big_l, big_m = base_channel(q, gamma, m, rounded)
    t = big_l * A_COEF[0] + big_m * B_COEF[0]
    return float((0.25 * _phi(t, 4.0 * prob[0])).sum()) / math.log(2.0)
