"""Independent reference values for kernel entries, from mpmath alone.

The entries are rebuilt from the closed form of the kernel blocks with
``mpmath.hyp2f1`` (which continues 2F1 to the lattice argument xi/(xi-1) by its
own transformations) and ``mpmath.loggamma``; nothing from ``zmeasure.specfun``
is used, so a defect in its Pfaff series shows up as a mismatch.
"""

from __future__ import annotations

import mpmath

WORKING_DPS = 30
REL_TOL = 1e-9


class ReferencePQ:
    """(P, Q) at lattice index k for one parameter set, memoised per (sign, k)."""

    def __init__(self, z: complex, z_prime: complex, xi: float) -> None:
        self.z = z
        self.z_prime = z_prime
        self.xi = xi
        self._cache: dict[tuple[int, int], tuple[float, float]] = {}

    def __call__(self, sign: int, k: int) -> tuple[float, float]:
        key = (sign, k)
        if key not in self._cache:
            self._cache[key] = self._evaluate(sign, k)
        return self._cache[key]

    def _evaluate(self, s: int, k: int) -> tuple[float, float]:
        with mpmath.workdps(WORKING_DPS):
            z = mpmath.mpc(self.z)
            zq = mpmath.mpc(self.z_prime)
            xi = mpmath.mpf(self.xi)
            t = (z * zq).real
            log_psi = (
                mpmath.log(t) / 2
                + (k + mpmath.mpf(1) / 2) * mpmath.log(xi)
                + s * (z + zq) * mpmath.log1p(-xi)
                + mpmath.loggamma(k + 1 + s * z)
                + mpmath.loggamma(k + 1 + s * zq)
                - mpmath.loggamma(1 + s * z)
                - mpmath.loggamma(1 + s * zq)
                - 2 * mpmath.loggamma(k + 1)
            )
            root_psi = mpmath.exp(log_psi / 2)
            w = xi / (xi - 1)
            f1 = mpmath.hyp2f1(-s * z, -s * zq, k + 1, w)
            f2 = mpmath.hyp2f1(1 - s * z, 1 - s * zq, k + 2, w)
            p = root_psi * f1
            q = mpmath.sqrt(t * xi) / (1 - xi) * root_psi * f2 / (k + 1)
            return float(mpmath.re(p)), float(mpmath.re(q))


def kernel_entry(ref: ReferencePQ, sx: int, k: int, sy: int, l: int) -> tuple[float, float]:
    """Off-diagonal kernel entry K(sx(k+1/2), sy(l+1/2)) and the size of its terms.

    The second value bounds the magnitude of the products that are combined,
    so agreement can be judged relative to it even where they cancel.
    """
    pk, qk = ref(sx, k)
    pl, ql = ref(sy, l)
    if sx == sy:
        if k == l:
            raise ValueError("diagonal entries have no closed form here")
        return (pk * ql - qk * pl) / (k - l), (abs(pk * ql) + abs(qk * pl)) / abs(k - l)
    sign = 1.0 if sx > 0 else -1.0
    value = sign * (pk * pl + qk * ql) / (k + l + 1.0)
    return value, (abs(pk * pl) + abs(qk * ql)) / (k + l + 1.0)


def entry_mismatch(value: float, ref: ReferencePQ, sx: int, k: int, sy: int, l: int) -> str | None:
    """None when ``value`` matches the reference entry, else a description."""
    expected, scale = kernel_entry(ref, sx, k, sy, l)
    if abs(value - expected) <= REL_TOL * scale + 1e-300:
        return None
    return f"K({sx:+d}:{k}, {sy:+d}:{l}) = {value!r}, reference {expected!r}"
