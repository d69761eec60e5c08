"""Probability measures on partitions: z-measures, mixing weights, grand ensemble.

Admissible parameter pairs (z, z') make every Pochhammer product in the
measure formula positive: either z' is the complex conjugate of a non-integer
z, or z and z' are real and lie in the same open unit interval (m, m + 1).
Admissibility is checked once, at parameter construction.

Every measure value comes from one array route: the Frobenius product form,
summed in real logarithms over a batch of diagrams, times a size-dependent
factor.  Large diagrams neither overflow nor lose positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partitions import YoungDiagram, _FrobeniusArrays, _frobenius_arrays, dimension, enumerate_partitions
from .specfun import realize, realize_array

ADMISSIBILITY_CONDITIONS = (
    "admissible (z, z') pairs: either z' = conj(z) with z not an integer, "
    "or z and z' both real with m < z, z' < m + 1 for some integer m"
)

POSITIVITY_CHECK_DEPTH = 50


class AdmissibilityError(ValueError):
    """Parameters (z, z') violate the admissibility conditions."""


def _is_real(x: complex, tol: float = 1e-12) -> bool:
    return abs(x.imag) <= tol * (1.0 + abs(x.real))


def _is_integer(x: float, tol: float = 1e-12) -> bool:
    return abs(x - round(x)) <= tol


@dataclass(frozen=True)
class ZParams:
    """An admissible parameter pair, with t = z * z' > 0.

    ``meixner_mode`` marks the degenerate constructor where z' is a positive
    integer; that bypasses the admissibility check and is accepted only by the
    '++' kernel block, not by the measures.
    """

    z: complex
    z_prime: complex
    meixner_mode: bool = False

    def __post_init__(self) -> None:
        z = complex(self.z)
        zp = complex(self.z_prime)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "z_prime", zp)
        if self.meixner_mode:
            if not (_is_real(zp) and _is_integer(zp.real) and zp.real >= 1):
                raise AdmissibilityError(
                    "meixner mode requires z' to be a positive integer"
                )
            return
        self._check_admissible(z, zp)

    @staticmethod
    def _check_admissible(z: complex, zp: complex) -> None:
        if _is_real(z) and _is_real(zp):
            x, y = z.real, zp.real
            if _is_integer(x) or _is_integer(y):
                raise AdmissibilityError(
                    f"real parameters must be non-integers: z={x}, z'={y}; "
                    + ADMISSIBILITY_CONDITIONS
                )
            if math.floor(x) != math.floor(y):
                raise AdmissibilityError(
                    f"real parameters must share a unit interval: z={x}, z'={y}; "
                    + ADMISSIBILITY_CONDITIONS
                )
        else:
            if abs(zp - z.conjugate()) > 1e-12 * (1.0 + abs(z)):
                raise AdmissibilityError(
                    f"non-real parameters must be conjugate: z={z}, z'={zp}; "
                    + ADMISSIBILITY_CONDITIONS
                )
        # Constructive sanity check on the products the formulas rely on.
        pos = neg = complex(1.0)
        for k in range(POSITIVITY_CHECK_DEPTH):
            pos *= (z + k) * (zp + k)
            neg *= (-z + k) * (-zp + k)
            if realize(pos, tol=1e-9) <= 0 or realize(neg, tol=1e-9) <= 0:
                raise AdmissibilityError(
                    f"Pochhammer positivity fails at depth {k + 1} for z={z}, z'={zp}; "
                    + ADMISSIBILITY_CONDITIONS
                )
            # Rescale to dodge overflow; only signs matter.
            pos /= abs(pos)
            neg /= abs(neg)

    @classmethod
    def meixner(cls, big_n: int, alpha: float) -> "ZParams":
        """Degenerate pair z = N + alpha, z' = N used by the Meixner '++' block."""
        return cls(complex(big_n + alpha), complex(big_n), meixner_mode=True)

    @property
    def t(self) -> float:
        t = realize(self.z * self.z_prime)
        if t <= 0:
            raise AdmissibilityError(f"t = z z' must be positive, got {t}")
        return t

    @property
    def z_sum(self) -> float:
        """z + z', always real for admissible or meixner-mode parameters."""
        return realize(self.z + self.z_prime)


@dataclass(frozen=True)
class GrandParams:
    """An admissible pair together with the mixing parameter xi in (0, 1)."""

    zp: ZParams
    xi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.xi < 1.0:
            raise AdmissibilityError(f"xi must lie in (0, 1), got {self.xi}")

    @property
    def t(self) -> float:
        return self.zp.t


def _log_pochhammer_column(sign: int, zp: ZParams, n: int) -> np.ndarray:
    """log (1+sz)_k (1+sz')_k / (k!)^2 for k = 0..n, a running sum of real logarithms.

    Each factor (1+sz+j)(1+sz'+j) is a squared modulus for a conjugate pair
    and a product of two numbers of one sign for a real pair in one unit
    interval, so it is real and positive for admissible pairs.  Over (j+1)^2
    it tends to 1, so the column grows only like s (z + z') log k.
    """
    js = np.arange(n, dtype=np.float64)
    factors = realize_array((1.0 + sign * zp.z + js) * (1.0 + sign * zp.z_prime + js)) / (js + 1.0) ** 2
    return np.concatenate(([0.0], np.cumsum(np.log(factors))))


def _log_product_form(arrays: _FrobeniusArrays, zp: ZParams, log_base: np.ndarray) -> np.ndarray:
    """log_base + log t^d prod_i (1+z)_p (1+z')_p (1-z)_q (1-z')_q (dim/n!)^2, per diagram of ``arrays``.

    (dim/n!)^2 is the squared Cauchy determinant of the arrays over
    prod_i (p_i! q_i!)^2, and the factorials go into the Pochhammer columns
    (:func:`_log_pochhammer_column`), whose values stay small.  Those are
    summed first, one real log column per sign gathered at one coordinate row
    at a time, and the large terms last, so few roundings happen at the size
    of the result.  ``log_base`` holds each diagram's size-dependent factor.
    """
    _require_admissible(zp)
    t = zp.t
    n_max = int(arrays.n.max(initial=0.0))
    log_m = np.zeros_like(log_base)
    for sign, coords in ((1, arrays.p), (-1, arrays.q)):
        column = _log_pochhammer_column(sign, zp, n_max)
        for slot in coords:
            log_m += column[slot]
    log_m += arrays.d * math.log(t)
    log_m += arrays.log_cauchy_sq
    log_m += log_base
    return log_m


def _require_admissible(zp: ZParams) -> None:
    if zp.meixner_mode:
        raise AdmissibilityError("meixner-mode parameters are not admissible for measures")


def _z_measures(arrays: _FrobeniusArrays, zp: ZParams) -> np.ndarray:
    """z-measure probabilities of the diagrams of ``arrays``: the product form times n!/(t)_n."""
    t = zp.t
    ms = np.arange(1.0, arrays.n.max(initial=0.0) + 1.0)
    by_size = np.concatenate(([0.0], np.cumsum(np.log(ms / (t + ms - 1.0)))))  # log n!/(t)_n, n = 0..n_max
    log_m = _log_product_form(arrays, zp, by_size[arrays.n.astype(np.intp)])
    return np.exp(log_m, out=log_m)


def z_measure_n(diagram: YoungDiagram, zp: ZParams) -> float:
    """Probability of the diagram under the n-box z-measure, n = |diagram|.

    Equals t^d/(t)_n * prod_i (1+z)_p (1+z')_p (1-z)_q (1-z')_q * dim^2/n!
    (the Frobenius product form with the squared-dimension factor),
    accumulated in log space and exponentiated.  A value below the smallest
    float is 0.0.
    """
    return float(_z_measures(_frobenius_arrays([diagram]), zp)[0])


def neg_binomial_weight(n: int, t: float, xi: float) -> float:
    """Negative-binomial weight (1 - xi)^t (t)_n / n! * xi^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if t <= 0:
        raise AdmissibilityError("t must be positive")
    if not 0.0 < xi < 1.0:
        raise AdmissibilityError(f"xi must lie in (0, 1), got {xi}")
    lg = (
        t * math.log1p(-xi)
        + (math.lgamma(t + n) - math.lgamma(t))
        - math.lgamma(n + 1.0)
        + n * math.log(xi)
    )
    return math.exp(lg)


def _grand_weights(arrays: _FrobeniusArrays, gp: GrandParams) -> np.ndarray:
    """Grand-ensemble weights of the diagrams of ``arrays``: the product form
    times (1-xi)^t xi^n, the z-measure's (t)_n cancelling against the mixing weight's."""
    log_w = _log_product_form(arrays, gp.zp, gp.t * math.log1p(-gp.xi) + arrays.n * math.log(gp.xi))
    return np.exp(log_w, out=log_w)


def mixed_measure(diagram: YoungDiagram, gp: GrandParams) -> float:
    """Grand-ensemble probability of a diagram: z_measure_n times the negative-binomial weight.

    The normalization suite checks its route against the single product formula.
    """
    return float(_grand_weights(_frobenius_arrays([diagram]), gp)[0])


def plancherel_measure(diagram: YoungDiagram) -> float:
    """Plancherel probability dim^2 / n!, the large-|z| limit of the z-measures."""
    n = diagram.n
    if n == 0:
        return 1.0
    return math.exp(2.0 * math.log(dimension(diagram)) - math.lgamma(n + 1.0))


def z_measure_table(n: int, zp: ZParams) -> list[tuple[YoungDiagram, float]]:
    """All diagrams of n boxes with their z-measure probabilities, enumeration order."""
    diagrams = enumerate_partitions(n)
    return list(zip(diagrams, _z_measures(_frobenius_arrays(diagrams), zp).tolist()))
