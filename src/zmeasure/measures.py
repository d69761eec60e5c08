"""Probability measures on partitions: z-measures, mixing weights, grand ensemble.

Admissible parameter pairs (z, z') make every Pochhammer product in the
measure formula positive: either z' is the complex conjugate of a non-integer
z, or z and z' are real and lie in the same open unit interval (m, m + 1).
Admissibility is checked once, at parameter construction.

All measure values are accumulated in log space with complex log-gamma and
realized at the end, so large diagrams neither overflow nor lose positivity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .partitions import YoungDiagram, dimension, enumerate_partitions
from .specfun import loggamma, realize

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


@lru_cache(maxsize=64)
def _param_logs(zp: ZParams) -> dict:
    z, z_prime = zp.z, zp.z_prime
    return {
        "lg_1pz": loggamma(1 + z),
        "lg_1pzp": loggamma(1 + z_prime),
        "lg_1mz": loggamma(1 - z),
        "lg_1mzp": loggamma(1 - z_prime),
        "log_t": math.log(zp.t),
        "lg_t": math.lgamma(zp.t),
    }


def _log_pochhammer_products(diagram: YoungDiagram, zp: ZParams) -> complex:
    """Complex log of prod_i (1+z)_p (1+z')_p (1-z)_q (1-z')_q over the Frobenius coordinates."""
    logs = _param_logs(zp)
    z, z_prime = zp.z, zp.z_prime
    p, q = diagram.frobenius
    total = 0.0 + 0.0j
    for pi, qi in zip(p, q):
        total += loggamma(1 + z + pi) - logs["lg_1pz"]
        total += loggamma(1 + z_prime + pi) - logs["lg_1pzp"]
        total += loggamma(1 - z + qi) - logs["lg_1mz"]
        total += loggamma(1 - z_prime + qi) - logs["lg_1mzp"]
    return total


def _require_admissible(zp: ZParams) -> None:
    if zp.meixner_mode:
        raise AdmissibilityError("meixner-mode parameters are not admissible for measures")


def z_measure_n(diagram: YoungDiagram, zp: ZParams) -> float:
    """Probability of the diagram under the n-box z-measure, n = |diagram|.

    Equals t^d/(t)_n * prod_i (1+z)_p (1+z')_p (1-z)_q (1-z')_q * dim^2/n!
    (the Frobenius product form with the squared-dimension factor),
    accumulated in log space and exponentiated.
    """
    _require_admissible(zp)
    n = diagram.n
    if n == 0:
        return 1.0
    t = zp.t
    logs = _param_logs(zp)
    log_m = (
        diagram.d * logs["log_t"]
        - (math.lgamma(t + n) - logs["lg_t"])
        + _log_pochhammer_products(diagram, zp)
        + 2.0 * math.log(dimension(diagram))
        - math.lgamma(n + 1.0)
    )
    value = realize(cmath.exp(log_m))
    if value <= 0.0:
        raise AdmissibilityError(f"measure value {value} not positive for {diagram.parts}")
    return value


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


def mixed_measure(diagram: YoungDiagram, gp: GrandParams) -> float:
    """Grand-ensemble probability of a diagram: z_measure_n times the negative-binomial weight.

    The normalization suite checks it against the single product formula.
    """
    _require_admissible(gp.zp)
    return z_measure_n(diagram, gp.zp) * neg_binomial_weight(diagram.n, gp.t, gp.xi)


def plancherel_measure(diagram: YoungDiagram) -> float:
    """Plancherel probability dim^2 / n!, the large-|z| limit of the z-measures."""
    n = diagram.n
    if n == 0:
        return 1.0
    return math.exp(2.0 * math.log(dimension(diagram)) - math.lgamma(n + 1.0))


def z_measure_table(n: int, zp: ZParams) -> list[tuple[YoungDiagram, float]]:
    """All diagrams of n boxes with their z-measure probabilities, enumeration order."""
    return [(lam, z_measure_n(lam, zp)) for lam in enumerate_partitions(n)]
