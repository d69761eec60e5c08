"""Verification suites: brute-force oracles, Fredholm determinant, identities, limits.

Every suite returns a :class:`VerificationReport`, a structured list of
compared quantities with absolute and relative errors against stated
tolerances.  The brute-force correlation oracle never reports a value without
a certified bound on the mixing-weight tail it truncates.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import linalg as sla

from .kernels import (
    BLOCKS,
    decay_certificate,
    function_table,
    hyper_kernel,
    hyper_kernel_diag_derivative,
    kernel_matrix,
    l_matrix,
    meixner_kernel,
    meixner_kernel_matrix,
    psi,
    rhat_shat,
    rs,
    whittaker_kernel,
)
from .measures import (
    GrandParams,
    ZParams,
    _log_pochhammer_products,
    mixed_measure,
    plancherel_measure,
    z_measure_n,
)
from .partitions import Configuration, YoungDiagram, dimension, enumerate_partitions, to_configuration
from .specfun import (
    PoleError,
    gauss_2f1_w,
    loggamma,
    meixner_leading_coefficient,
    meixner_norm,
    meixner_polynomial,
    meixner_weight,
    realize,
    whittaker_w,
    xi_to_w,
)

DEFAULT_REAL_PAIR = ZParams(0.5, 1.0 / 3.0)
NEGATIVE_REAL_PAIR = ZParams(-0.4, -0.7)
COMPLEX_PAIR = ZParams(0.5 + 1.5j, 0.5 - 1.5j)
PARAMETER_SETS = (
    ("real pair (1/2, 1/3)", DEFAULT_REAL_PAIR),
    ("real pair (-0.4, -0.7)", NEGATIVE_REAL_PAIR),
    ("conjugate pair 0.5+1.5i", COMPLEX_PAIR),
)
DEFAULT_XI = 0.2
DEFAULT_U_GRID = (0.4, 1.3, 2.3, 3.7, 5.9)


class TailBudgetError(RuntimeError):
    """The certified mixing-weight tail exceeds the requested budget."""


@dataclass(frozen=True)
class CheckCase:
    label: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tol": self.tol,
            "passed": self.passed,
        }


def _case(label: str, lhs: float, rhs: float, tol: float, mode: str = "abs") -> CheckCase:
    lhs = float(lhs)
    rhs = float(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    if mode == "abs":
        passed = abs_err <= tol
    elif mode == "rel":
        passed = rel_err <= tol
    elif mode == "decrease":  # strict decrease, lhs is the later value
        passed = lhs < rhs
    else:
        raise ValueError(f"unknown case mode {mode!r}")
    return CheckCase(label, lhs, rhs, abs_err, rel_err, tol, passed)


@dataclass
class VerificationReport:
    suite: str
    tolerance: float | None
    cases: list[CheckCase]
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failures(self) -> list[CheckCase]:
        return [c for c in self.cases if not c.passed]

    def to_dict(self) -> dict:
        return {
            "schema": "zmeasure.report/1",
            "suite": self.suite,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "runtime_seconds": self.runtime_seconds,
            "cases": [c.to_dict() for c in self.cases],
        }


def _timed(suite: str, tolerance: float | None, builder) -> VerificationReport:
    start = time.perf_counter()
    cases = builder()
    return VerificationReport(suite, tolerance, cases, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Brute-force correlation oracle


def negative_binomial_tail_bound(t: float, xi: float, n_max: int) -> float:
    """Certified bound on the mixing weight of all sizes above n_max.

    The one-step ratio xi (t+n)/(n+1) is bounded on n > n_max by
    r = xi * max(1, (t+m)/(m+1)) with m = n_max + 1, so the tail is dominated
    by the geometric series pi(m)/(1 - r).
    """
    m = n_max + 1
    r = xi * max(1.0, (t + m) / (m + 1.0))
    if r >= 1.0:
        raise TailBudgetError(f"tail ratio {r} >= 1 at n_max={n_max}")
    from .measures import neg_binomial_weight

    return neg_binomial_weight(m, t, xi) / (1.0 - r)


@lru_cache(maxsize=1)  # each entry holds every diagram up to n_max; callers rarely repeat gp
def _weighted_configurations(gp: GrandParams, n_max: int) -> tuple[tuple[frozenset, float], ...]:
    out = []
    for n in range(n_max + 1):
        for lam in enumerate_partitions(n):
            out.append((to_configuration(lam).points, mixed_measure(lam, gp)))
    return tuple(out)


def correlation_oracle(
    X: Configuration, gp: GrandParams, n_max: int = 26, tail_tol: float = 1e-15
) -> tuple[float, float]:
    """Probability that the random configuration contains X, by exhaustive summation.

    Sums the grand-ensemble weights of every diagram of at most n_max boxes
    whose configuration contains X, and returns (value, certified tail bound).
    Refuses to report when the tail bound exceeds ``tail_tol``.
    """
    tail = negative_binomial_tail_bound(gp.t, gp.xi, n_max)
    if tail > tail_tol:
        raise TailBudgetError(f"certified tail {tail} exceeds budget {tail_tol}")
    points = X.points
    value = sum(w for conf, w in _weighted_configurations(gp, n_max) if points <= conf)
    return value, tail


def correlation_det(X: Configuration, gp: GrandParams) -> float:
    """The same containment probability as a kernel minor, det K restricted to X."""
    pts = X.sorted_points()
    if not pts:
        return 1.0
    mat = np.array([[hyper_kernel(x, y, gp) for y in pts] for x in pts])
    return float(np.linalg.det(mat))


# ---------------------------------------------------------------------------
# Reference routes: second, independent computations that only the suites run


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-preserving Gaussian elimination."""
    d = len(rows)
    if d == 0:
        return Fraction(1)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(d):
        pivot_row = next((r for r in range(col, d) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, d):
            factor = m[r][col] / pivot
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _frobenius_det(diagram: YoungDiagram) -> Fraction:
    """Exact det[1/(p_i + q_j + 1)], which equals dim * prod_i(p_i! q_i!) / n! for the diagram."""
    p, q = diagram.frobenius
    return _fraction_det([[Fraction(1, pi + qj + 1) for qj in q] for pi in p])


def _frobenius_dimension(diagram: YoungDiagram, det: Fraction) -> Fraction:
    """dim = n! det[1/(p_i + q_j + 1)] / prod_i(p_i! q_i!), given the determinant."""
    p, q = diagram.frobenius
    factorials = math.prod(math.factorial(pi) * math.factorial(qi) for pi, qi in zip(p, q))
    return det * math.factorial(diagram.n) / factorials


def _mixed_measure_direct(diagram: YoungDiagram, gp: GrandParams, det: Fraction) -> float:
    """Grand-ensemble weight from the single product formula, given ``_frobenius_det(diagram)``.

    (1-xi)^t xi^n t^d prod_i (1+z)_p (1+z')_p (1-z)_q (1-z')_q / (p!^2 q!^2) * det^2:
    no n-box normalization (t)_n and no hook lengths.
    """
    zp = gp.zp
    p, q = diagram.frobenius
    log_m = (
        zp.t * math.log1p(-gp.xi)
        + diagram.n * math.log(gp.xi)
        + diagram.d * math.log(zp.t)
        + _log_pochhammer_products(diagram, zp)
        - 2.0 * sum(math.lgamma(pi + 1.0) + math.lgamma(qi + 1.0) for pi, qi in zip(p, q))
        + 2.0 * math.log(det)
    )
    return realize(cmath.exp(log_m))


def _meixner_kernel_cd(big_n: int, alpha: float, xi: float, k: int, l: int) -> float:
    """Off-diagonal Meixner projection kernel by the two-term Christoffel-Darboux form."""
    if k == l:
        raise ValueError("the Christoffel-Darboux form holds off the diagonal only")
    const = meixner_leading_coefficient(big_n - 1, alpha, xi) / (
        meixner_leading_coefficient(big_n, alpha, xi) * meixner_norm(big_n - 1, alpha, xi)
    )
    root = math.sqrt(meixner_weight(k, alpha, xi) * meixner_weight(l, alpha, xi))
    return (
        const
        * root
        * (
            meixner_polynomial(big_n, k, alpha, xi) * meixner_polynomial(big_n - 1, l, alpha, xi)
            - meixner_polynomial(big_n - 1, k, alpha, xi) * meixner_polynomial(big_n, l, alpha, xi)
        )
        / (k - l)
    )


def _determinant_route_cases(n_max: int) -> list[CheckCase]:
    """Hook-length dimensions and factored grand-ensemble weights against the
    Frobenius-determinant routes: the worst gap over every diagram of at most
    n_max boxes, one case for the dimension and one per parameter set."""
    gps = [GrandParams(zp, DEFAULT_XI) for _name, zp in PARAMETER_SETS]
    dim_gap = Fraction(0)
    weight_gaps = [0.0] * len(gps)
    for n in range(n_max + 1):
        for lam in enumerate_partitions(n):
            det = _frobenius_det(lam)
            dim_gap = max(dim_gap, abs(_frobenius_dimension(lam, det) - dimension(lam)))
            for i, gp in enumerate(gps):
                factored = mixed_measure(lam, gp)
                direct = _mixed_measure_direct(lam, gp, det)
                weight_gaps[i] = max(weight_gaps[i], abs(factored - direct) / max(factored, direct))
    cases = [_case(f"hook vs Frobenius-determinant dimension, n <= {n_max}", float(dim_gap), 0.0, 0.0)]
    for (name, _zp), gap in zip(PARAMETER_SETS, weight_gaps):
        cases.append(
            _case(
                f"factored vs direct grand-ensemble weight, {name}, xi={DEFAULT_XI}, n <= {n_max}",
                gap,
                0.0,
                1e-10,
            )
        )
    return cases


# ---------------------------------------------------------------------------
# Suites


def normalization_check(n_max: int = 18, tol: float = 1e-11) -> VerificationReport:
    """Each n-box measure sums to one; spot values; the large-z Plancherel limit;
    dimensions and grand-ensemble weights against their determinant routes."""

    def build() -> list[CheckCase]:
        cases = []
        for name, zp in PARAMETER_SETS:
            for n in range(1, n_max + 1):
                total = sum(z_measure_n(lam, zp) for lam in enumerate_partitions(n))
                cases.append(_case(f"sum over {n}-box diagrams, {name}", total, 1.0, tol))
        zp = DEFAULT_REAL_PAIR
        cases.append(
            _case("two-box row spot value", z_measure_n(YoungDiagram((2,)), zp), 6.0 / 7.0, 1e-14)
        )
        cases.append(
            _case("two-box column spot value", z_measure_n(YoungDiagram((1, 1)), zp), 1.0 / 7.0, 1e-14)
        )
        diffs = []
        for z in (100.5, 1000.5):
            zp_large = ZParams(z, z)
            diffs.append(
                max(
                    abs(z_measure_n(lam, zp_large) - plancherel_measure(lam))
                    for lam in enumerate_partitions(6)
                )
            )
        cases.append(_case("six-box Plancherel gap at z=100.5", diffs[0], 0.0, 0.05))
        cases.append(
            _case("six-box Plancherel gap shrinks at z=1000.5", diffs[1], diffs[0], 0.0, "decrease")
        )
        cases.extend(_determinant_route_cases(n_max))
        return cases

    return _timed("normalization", tol, build)


def oracle_check(
    zp: ZParams | None = None,
    xi: float = DEFAULT_XI,
    n_max: int = 26,
    tail_tol: float = 1e-15,
    max_size: int = 3,
    rel_tol: float = 1e-6,
) -> VerificationReport:
    """Kernel minors against the brute-force containment probabilities.

    Runs over every configuration drawn from the eight points +-1/2 .. +-7/2
    with at most ``max_size`` points.
    """
    gp = GrandParams(zp or DEFAULT_REAL_PAIR, xi)
    pool = [Fraction(2 * k + 1, 2) for k in range(4)]
    pool += [-x for x in pool]

    def build() -> list[CheckCase]:
        cases = []
        for size in range(max_size + 1):
            for pts in combinations(sorted(pool, reverse=True), size):
                X = Configuration.from_points(pts)
                oracle, _tail = correlation_oracle(X, gp, n_max, tail_tol)
                det = correlation_det(X, gp)
                label = "contains {" + ", ".join(X.to_json()) + "}"
                cases.append(_case(label, det, oracle, rel_tol, "rel"))
        return cases

    return _timed("oracle", rel_tol, build)


def fredholm_check(gp: GrandParams, trunc: int | None = None, tol: float = 1e-10) -> VerificationReport:
    """det(1 + L) against (1 - xi)^(-t), in both the full and single-block forms.

    ``trunc`` defaults to the decay certificate of ``gp``.  The full
    determinant comes from the LU factors of 1 + L.  The single-block form
    det(1 + A A^T), with A the '+-' block of L, is the sum of log1p(sigma^2)
    over the singular values of A: forming A A^T would square A's condition
    number.
    """
    if trunc is None:
        trunc = decay_certificate(gp)

    def build() -> list[CheckCase]:
        t = gp.t
        log_scale = t * math.log1p(-gp.xi)  # compare det(1+L) * (1-xi)^t against 1
        lmat = l_matrix(gp, trunc)
        lu, piv = sla.lu_factor(np.eye(2 * trunc) + lmat)
        diag = np.diag(lu)
        mag = np.abs(diag)
        if mag.min() < 1e-13 * mag.max():
            warnings.warn(f"LU pivots degrade: ratio {mag.min() / mag.max():.2e}")
        swaps = np.count_nonzero(piv != np.arange(2 * trunc))
        sign = (-1.0) ** swaps * np.prod(np.sign(diag))
        det_full = sign * math.exp(np.sum(np.log(mag)) + log_scale)
        sigma = sla.svdvals(lmat[:trunc, trunc:])
        det_single = math.exp(np.sum(np.log1p(sigma**2)) + log_scale)
        label = f"xi={gp.xi}, t={t:.6g}, trunc={trunc}"
        return [
            _case(f"det(1+L) * (1-xi)^t, {label}", det_full, 1.0, tol),
            _case(f"single-block det * (1-xi)^t, {label}", det_single, 1.0, tol),
            _case(f"two determinant forms agree, {label}", det_full, det_single, 1e-11),
        ]

    return _timed("fredholm", tol, build)


def fredholm_suite(trunc: int | None = None) -> VerificationReport:
    real = fredholm_check(GrandParams(DEFAULT_REAL_PAIR, 0.3), trunc)
    cplx = fredholm_check(GrandParams(COMPLEX_PAIR, 0.5), trunc)
    return VerificationReport(
        "fredholm",
        1e-10,
        real.cases + cplx.cases,
        real.runtime_seconds + cplx.runtime_seconds,
    )


def _unity_identity(gp: GrandParams, u: float) -> float:
    """The two-product combination of 2F1 values that must equal one."""
    zp = gp.zp
    z, z_prime, xi = zp.z, zp.z_prime, gp.xi
    w = xi_to_w(xi)
    f1 = gauss_2f1_w(-z, -z_prime, u + 1.0, xi)
    f2 = gauss_2f1_w(z, z_prime, -u, xi)
    f3 = gauss_2f1_w(1 - z, 1 - z_prime, u + 2.0, xi)
    f4 = gauss_2f1_w(1 + z, 1 + z_prime, -u + 1.0, xi)
    combo = f1 * f2 + zp.t * w * (1.0 - w) * (f3 / (u + 1.0)) * (f4 / u)
    return realize(combo)


def _decomposition_series(
    gp: GrandParams, u: float, second: bool, cap: int = 600
) -> float:
    """Pole-expansion series shared by the two decomposition identities.

    First form:  sum_k (a)_k (b)_k xi^k (1-xi)^(a+b-1) / (k!^2 (u+k)) * F(1-a,1-b;k+1;w)
    Second form: sum_k (a)_{k+1}(b)_{k+1} xi^{k+1} (1-xi)^(a+b-1) / (k!^2 (u+k)(k+1)) * F(1-a,1-b;k+2;w)
    with (a, b) = (-z, -z').
    """
    zp = gp.zp
    xi = gp.xi
    a, b = -zp.z, -zp.z_prime
    prefactor = np.exp((a + b - 1.0) * math.log1p(-xi))
    coeff = complex(1.0)  # (a)_k (b)_k xi^k / k!^2
    total = complex(0.0)
    scale = 1.0
    small_streak = 0
    for k in range(cap):
        if second:
            coeff_k = coeff * (a + k) * (b + k) * xi / (k + 1.0)
            f = gauss_2f1_w(1.0 - a, 1.0 - b, k + 2.0, xi)
            term = coeff_k * f / (u + k)
        else:
            f = gauss_2f1_w(1.0 - a, 1.0 - b, k + 1.0, xi)
            term = coeff * f / (u + k)
        total += term
        scale = max(scale, abs(total))
        if abs(term) < 1e-18 * scale:
            small_streak += 1
            if small_streak >= 2 and k >= 8:
                break
        else:
            small_streak = 0
        coeff *= (a + k) * (b + k) * xi / ((k + 1.0) * (k + 1.0))
    return realize(prefactor * total)


def identity_suite(
    gp: GrandParams | None = None, u_grid: tuple[float, ...] = DEFAULT_U_GRID
) -> VerificationReport:
    """Hypergeometric identity checks on a grid of non-integer evaluation points."""
    gp = gp or GrandParams(DEFAULT_REAL_PAIR, DEFAULT_XI)
    zp = gp.zp

    def build() -> list[CheckCase]:
        for u in u_grid:
            if abs(u - round(u)) < 1e-3:
                raise PoleError(f"grid point {u} too close to an integer")
        cases = []
        for u in u_grid:
            cases.append(_case(f"product combination equals one, u={u}", _unity_identity(gp, u), 1.0, 1e-12))
            lhs1 = realize(gauss_2f1_w(-zp.z, -zp.z_prime, u + 1.0, gp.xi)) / u
            rhs1 = _decomposition_series(gp, u, second=False)
            cases.append(_case(f"first decomposition, u={u}", lhs1, rhs1, 1e-12, "rel"))
            lhs2 = 1.0 - realize(gauss_2f1_w(-zp.z, -zp.z_prime, u, gp.xi))
            rhs2 = _decomposition_series(gp, u, second=True)
            cases.append(_case(f"second decomposition, u={u}", lhs2, rhs2, 1e-12, "rel"))
            for s, label in ((1, "+"), (-1, "-")):
                rhat, shat = rhat_shat(s, u, gp)
                psi_o = psi(-s, u, gp)
                r_o, s_o = rs(-s, u, gp)
                cases.append(
                    _case(f"transform Rhat{label}, u={u}", rhat, s_o / psi_o, 1e-11, "rel")
                )
                cases.append(
                    _case(f"transform Shat{label}, u={u}", shat, 1.0 - r_o / psi_o, 1e-11, "rel")
                )
            r_p, s_p = rs(1, u, gp)
            r_m, s_m = rs(-1, -u - 1.0, gp)
            lhs = r_p * r_m + s_p * s_m
            rhs = psi(1, u, gp) * psi(-1, -u - 1.0, gp)
            cases.append(_case(f"antidiagonal product identity, u={u}", lhs, rhs, 1e-11, "rel"))
        return cases

    return _timed("identities", 1e-12, build)


def operator_identity_check(
    gp: GrandParams | None = None, trunc: int = 80, tol: float = 1e-8, small: int = 15
) -> VerificationReport:
    """Entrywise kernel against the dense resolvent and the block product relations."""
    gp = gp or GrandParams(DEFAULT_REAL_PAIR, 0.3)

    def build() -> list[CheckCase]:
        cases = []
        lmat = l_matrix(gp, trunc)
        k_entry = kernel_matrix(gp, trunc)
        k_dense = np.linalg.solve((np.eye(2 * trunc) + lmat).T, lmat.T).T
        cases.append(
            _case(
                f"entrywise kernel vs resolvent of L, trunc={trunc}",
                float(np.max(np.abs(k_entry - k_dense))),
                0.0,
                tol,
            )
        )
        c = k_entry[:trunc, trunc:]
        d = -lmat[trunc:, :trunc]
        cases.append(
            _case("block product ++ = CD", float(np.max(np.abs(k_entry[:trunc, :trunc] - c @ d))), 0.0, tol)
        )
        cases.append(
            _case("block product -- = DC", float(np.max(np.abs(k_entry[trunc:, trunc:] - d @ c))), 0.0, tol)
        )
        cases.append(
            _case(
                "block product -+ = DCD - D",
                float(np.max(np.abs(k_entry[trunc:, :trunc] - (d @ c @ d - d)))),
                0.0,
                tol,
            )
        )
        # Conjugated closed forms of the half-infinite products (off-diagonal).
        tbl = function_table(gp, trunc)
        root_p = np.sqrt(tbl.psi_plus[:trunc])
        root_m = np.sqrt(tbl.psi_minus[:trunc])
        n_mat = root_p[:, None] * c * root_m[None, :]
        idx = np.arange(trunc)
        w = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
        nw = n_mat @ w
        wn = w @ n_mat
        wnw = w @ n_mat @ w - w
        err_nw = err_wn = err_wnw = 0.0
        for i in range(small):
            for j in range(small):
                if i != j:
                    closed = (tbl.r_plus[i] * tbl.s_plus[j] - tbl.s_plus[i] * tbl.r_plus[j]) / (
                        tbl.psi_plus[j] * (i - j)
                    )
                    err_nw = max(err_nw, abs(nw[i, j] - closed))
                    closed = (tbl.r_minus[i] * tbl.s_minus[j] - tbl.s_minus[i] * tbl.r_minus[j]) / (
                        tbl.psi_minus[i] * (i - j)
                    )
                    err_wn = max(err_wn, abs(wn[i, j] - closed))
                closed = -(tbl.r_minus[i] * tbl.r_plus[j] + tbl.s_minus[i] * tbl.s_plus[j]) / (
                    tbl.psi_minus[i] * tbl.psi_plus[j] * (i + j + 1.0)
                )
                err_wnw = max(err_wnw, abs(wnw[i, j] - closed))
        cases.append(_case(f"NW closed form, indices < {small}", err_nw, 0.0, tol))
        cases.append(_case(f"WN closed form, indices < {small}", err_wn, 0.0, tol))
        cases.append(_case(f"WNW - W closed form, indices < {small}", err_wnw, 0.0, tol))
        for k in range(11):
            series = k_entry[k, k]
            deriv = hyper_kernel_diag_derivative(1, k, gp)
            cases.append(_case(f"diagonal series vs derivative route, k={k}", series, deriv, 1e-7, "rel"))
        return cases

    return _timed("operator", tol, build)


def meixner_check(
    big_n: int = 3,
    alpha: float = 0.5,
    xi: float = 0.4,
    grid: int = 10,
    proj_size: int = 100,
) -> VerificationReport:
    """Degeneration of the '++' block to the Meixner projection kernel, plus
    projection and orthogonality checks for the Meixner system itself."""

    def build() -> list[CheckCase]:
        cases = []
        gp = GrandParams(ZParams.meixner(big_n, alpha), xi)
        worst = worst_cd = 0.0
        for k in range(grid + 1):
            for l in range(grid + 1):
                hk = hyper_kernel(Fraction(2 * k + 1, 2), Fraction(2 * l + 1, 2), gp)
                mk = meixner_kernel(big_n, alpha, xi, k + big_n, l + big_n)
                worst = max(worst, abs(hk - mk) / max(abs(mk), 1e-300))
                if k != l:
                    cd = _meixner_kernel_cd(big_n, alpha, xi, k + big_n, l + big_n)
                    worst_cd = max(worst_cd, abs(cd - mk) / max(abs(mk), abs(cd), 1e-300))
        cases.append(_case(f"'++' block degenerates to rank-{big_n} kernel", worst, 0.0, 1e-10))
        cases.append(
            _case(f"Christoffel-Darboux vs rank-{big_n} sum, off-diagonal", worst_cd, 0.0, 1e-10)
        )
        mat = meixner_kernel_matrix(big_n, alpha, xi, proj_size)
        cases.append(_case("projection trace", float(np.trace(mat)), float(big_n), 1e-8))
        cases.append(
            _case("idempotence residual", float(np.max(np.abs(mat @ mat - mat))), 0.0, 1e-8)
        )
        k_cut = 400
        for n in range(4):
            total = sum(
                meixner_polynomial(n, k, alpha, xi) ** 2 * meixner_weight(k, alpha, xi)
                for k in range(k_cut)
            )
            cases.append(_case(f"squared norm, degree {n}", total, meixner_norm(n, alpha, xi), 1e-10, "rel"))
        cross = sum(
            meixner_polynomial(2, k, alpha, xi)
            * meixner_polynomial(3, k, alpha, xi)
            * meixner_weight(k, alpha, xi)
            for k in range(k_cut)
        )
        bound = 1e-10 * math.sqrt(meixner_norm(2, alpha, xi) * meixner_norm(3, alpha, xi))
        cases.append(_case("orthogonality of degrees 2 and 3", abs(cross), 0.0, bound))
        return cases

    return _timed("meixner", 1e-10, build)


def scaling_limit_check(
    zp: ZParams | None = None,
    u: float = 1.0,
    v: float = 2.0,
    xi_list: tuple[float, ...] = (0.9, 0.99, 0.999),
    final_tol: float = 5e-2,
) -> VerificationReport:
    """Scaled lattice kernel against the Whittaker kernel as xi approaches one.

    For each block the error sequence along ``xi_list`` must strictly decrease
    and the final error must meet ``final_tol``.  Also checks the weight
    prefactor limit and the direct hypergeometric-to-Whittaker limit.
    """
    zp = zp or DEFAULT_REAL_PAIR

    def build() -> list[CheckCase]:
        cases = []
        signs = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}
        for block in BLOCKS:
            su, sv = signs[block]
            continuum = whittaker_kernel(su * u, sv * v, zp)
            errors = []
            for xi in xi_list:
                gp = GrandParams(zp, xi)
                k = math.floor(u / (1.0 - xi))
                l = math.floor(v / (1.0 - xi))
                lattice = hyper_kernel(
                    su * Fraction(2 * k + 1, 2), sv * Fraction(2 * l + 1, 2), gp
                ) / (1.0 - xi)
                errors.append(abs(lattice - continuum))
            for i in range(1, len(errors)):
                cases.append(
                    _case(
                        f"{block} error decreases, xi={xi_list[i - 1]} -> {xi_list[i]}",
                        errors[i],
                        errors[i - 1],
                        0.0,
                        "decrease",
                    )
                )
            cases.append(_case(f"{block} error at xi={xi_list[-1]}", errors[-1], 0.0, final_tol))
        # Weight prefactor limit at xi = 0.999, x = 1.5.
        xi = 0.999
        x = 1.5
        gp = GrandParams(zp, xi)
        k = math.floor(x / (1.0 - xi))
        for s, name in ((1, "+"), (-1, "-")):
            gamma_prod = realize(
                np.exp(loggamma(1 + s * zp.z) + loggamma(1 + s * zp.z_prime))
            )
            limit = math.sqrt(
                math.sqrt(zp.t) * math.exp(-x) * x ** (s * zp.z_sum) / gamma_prod
            )
            cases.append(
                _case(
                    f"weight prefactor limit, sign {name}",
                    math.sqrt(psi(s, k, gp)),
                    limit,
                    2e-2,
                    "rel",
                )
            )
        # Direct limit of the hypergeometric factor to the Whittaker function.
        a, b = -zp.z, -zp.z_prime
        big_u = 2000.0
        for x in (0.5, 1.5, 5.0):
            lhs = realize(gauss_2f1_w(a, b, big_u, 1.0 - x / big_u))
            kappa = realize((-a - b + 1.0) / 2.0)
            mu = (a - b) / 2.0
            rhs = x ** realize((a + b - 1.0) / 2.0) * math.exp(x / 2.0) * whittaker_w(kappa, mu, x)
            cases.append(_case(f"hypergeometric limit at x={x}", lhs, rhs, 1e-2, "rel"))
        return cases

    return _timed("scaling", final_tol, build)


SUITE_NAMES = ("normalization", "oracle", "fredholm", "identities", "meixner", "scaling")


def run_suite(name: str, zp: ZParams | None = None, xi: float | None = None) -> list[VerificationReport]:
    """Run one named suite (or 'all'), with optional parameter overrides."""
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, zp, xi))
        return out
    if name == "normalization":
        return [normalization_check()]
    if name == "oracle":
        reports = [oracle_check(zp or DEFAULT_REAL_PAIR, xi or DEFAULT_XI)]
        if zp is None:
            reports.append(oracle_check(COMPLEX_PAIR, xi or DEFAULT_XI))
        merged = VerificationReport(
            "oracle",
            1e-6,
            [c for r in reports for c in r.cases],
            sum(r.runtime_seconds for r in reports),
        )
        return [merged]
    if name == "fredholm":
        if zp is None and xi is None:
            return [fredholm_suite()]
        return [fredholm_check(GrandParams(zp or DEFAULT_REAL_PAIR, xi or DEFAULT_XI))]
    if name == "identities":
        gps = (
            [GrandParams(zp, xi or DEFAULT_XI)]
            if zp is not None
            else [GrandParams(DEFAULT_REAL_PAIR, xi or DEFAULT_XI), GrandParams(COMPLEX_PAIR, xi or DEFAULT_XI)]
        )
        reports = [identity_suite(gp) for gp in gps]
        reports.append(operator_identity_check())
        merged = VerificationReport(
            "identities",
            1e-12,
            [c for r in reports for c in r.cases],
            sum(r.runtime_seconds for r in reports),
        )
        return [merged]
    if name == "meixner":
        return [meixner_check()]
    if name == "scaling":
        return [scaling_limit_check(zp)]
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
