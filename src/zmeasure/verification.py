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
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, combinations
from typing import NamedTuple

import mpmath
import numpy as np

from .kernels import (
    BLOCKS,
    _block_signs,
    _gamma_product,
    _half_line,
    _kernel_values,
    decay_certificate,
    function_table,
    kernel_block_matrix,
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
    _grand_weights,
    neg_binomial_weight,
    plancherel_measure,
    z_measure_n,
    z_measure_table,
)
from .partitions import (
    Configuration,
    YoungDiagram,
    _FrobeniusArrays,
    _frobenius_arrays,
    dimension,
    enumerate_partitions,
)
from .specfun import (
    SERIES_TOL,
    PoleError,
    _is_nonpositive_integer,
    _series_start_index,
    _whittaker_w_mp,
    gauss_2f1_w,
    meixner_leading_coefficient,
    meixner_norm,
    meixner_polynomial,
    meixner_weight,
    realize,
    realize_array,
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
OPERATOR_MAX_ROWS = 1000  # largest truncation of the operator check's dense 2N x 2N solve


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
        return asdict(self)


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


def _merged(suite: str, tolerance: float, reports: list[VerificationReport]) -> VerificationReport:
    """One report with the cases of ``reports`` in order and the sum of their runtimes."""
    cases = [c for r in reports for c in r.cases]
    return VerificationReport(suite, tolerance, cases, sum(r.runtime_seconds for r in reports))


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
    return neg_binomial_weight(m, t, xi) / (1.0 - r)


class _DiagramArrays(NamedTuple):
    """Every diagram of at most n_max boxes, in enumeration order, as arrays."""

    frobenius: _FrobeniusArrays  # int16 coordinate rows, sizes, ranks, log Cauchy determinants
    pos_masks: np.ndarray  # uint64, bit p_i set for each Frobenius coordinate p_i
    neg_masks: np.ndarray  # uint64, bit q_i set for each q_i


@lru_cache(maxsize=8)
def _diagram_arrays(n_max: int) -> _DiagramArrays:
    """The parameter-independent part of the oracle, built in one enumeration pass.

    The diagram's configuration {p_i + 1/2} u {-q_i - 1/2} contains X
    exactly when both masks contain X's.  Coordinates of an n-box diagram are
    below n, and ``enumerate_partitions`` refuses every n above 60, so the
    masks fit in 64 bits and the coordinates in int16.  The diagrams are made
    size by size as they are read: a diagram made after earlier ones cached
    their Frobenius coordinates gets a smaller attribute dict (2.4 MB less at
    n_max = 26).
    """
    frobenius = _frobenius_arrays(chain.from_iterable(map(enumerate_partitions, range(n_max + 1))))
    padding = np.arange(len(frobenius.p))[:, None] >= frobenius.d

    def masks(coords: np.ndarray) -> np.ndarray:
        bits = np.left_shift(np.uint64(1), coords.astype(np.uint64))
        bits[padding] = 0
        return np.bitwise_or.reduce(bits, axis=0)

    arrays = _DiagramArrays(frobenius, masks(frobenius.p), masks(frobenius.q))
    for column in (*frobenius, arrays.pos_masks, arrays.neg_masks):
        column.flags.writeable = False  # one cached copy serves every caller
    return arrays


@lru_cache(maxsize=1)  # each oracle op uses a fresh gp, so older entries are never reused
def _weighted_configurations(gp: GrandParams, n_max: int) -> np.ndarray:
    """Grand-ensemble weights of every diagram of at most n_max boxes, in the
    order of ``_diagram_arrays(n_max)``: ``mixed_measure`` of each, from one
    array pass of its route (``measures._grand_weights``).
    """
    weights = _grand_weights(_diagram_arrays(n_max).frobenius, gp)
    weights.flags.writeable = False
    return weights


def _certified_tail(gp: GrandParams, n_max: int, tail_tol: float) -> float:
    """The mixing-weight tail beyond n_max, refused with TailBudgetError above ``tail_tol``."""
    tail = negative_binomial_tail_bound(gp.t, gp.xi, n_max)
    if tail > tail_tol:
        raise TailBudgetError(f"certified tail {tail} exceeds budget {tail_tol}")
    return tail


def _containment(pool: list[tuple[int, int]], gp: GrandParams, n_max: int) -> np.ndarray:
    """P(X in the configuration) for every subset X of ``pool``, (sign, index) points, in one pass.

    Entry ``sum(1 << i for i in X)`` holds the subset of the points at
    positions i.  Each diagram of at most n_max boxes gets a signature, bit i
    set when it holds pool point i, read off the masks of
    ``_diagram_arrays(n_max)``; one weighted ``bincount`` gives the mass of
    every signature, and a superset sum, one in-place step per bit, adds to
    each subset the mass of every signature that contains it.  A point of
    index n_max or more lies in no diagram of the truncation, so its bit is
    never set and every subset holding it has value 0.
    """
    arrays = _diagram_arrays(n_max)
    signature = np.zeros(len(arrays.pos_masks), dtype=np.uint64)
    for bit, (sign, k) in enumerate(pool):
        if k < n_max:
            masks = arrays.pos_masks if sign > 0 else arrays.neg_masks
            signature |= ((masks >> np.uint64(k)) & np.uint64(1)) << np.uint64(bit)
    mass = np.bincount(signature.astype(np.intp), _weighted_configurations(gp, n_max), 1 << len(pool))
    for bit in range(len(pool)):
        halves = mass.reshape(-1, 2, 1 << bit)  # axis 1 is the bit
        halves[:, 0] += halves[:, 1]
    return mass


def correlation_oracle(
    X: Configuration, gp: GrandParams, n_max: int = 26, tail_tol: float = 1e-15
) -> tuple[float, float]:
    """Probability that the random configuration contains X, by exhaustive summation.

    Sums the grand-ensemble weights of every diagram of at most n_max boxes
    whose configuration contains X, and returns (value, certified tail bound).
    The tail bounds the absolute weight beyond n_max, not the relative error
    of the value: a small containment probability can move by far more than
    the tail, relatively (up to 7e-9 at xi = 0.2 between n_max = 26 and 34).
    Refuses to report when the tail bound exceeds ``tail_tol``, before any
    work.  The value is the full-set entry of :func:`_containment` with X's
    own points as the pool; the weights come from one array pass
    (``_weighted_configurations``), cached for the last parameter set, and no
    diagram is visited in Python.  A point of X with index n_max or more, or
    more points on one half than a diagram of the truncation has Frobenius
    pairs (isqrt(n_max)), lies in no diagram, so X then has value 0.
    """
    tail = _certified_tail(gp, n_max, tail_tol)
    pos, neg = X.positive_indices, X.negative_indices
    if max(len(pos), len(neg)) > math.isqrt(n_max):  # also keeps the 2^|X| masses small
        return 0.0, tail
    points = [(1, k) for k in pos] + [(-1, k) for k in neg]
    return float(_containment(points, gp, n_max)[-1]), tail


def correlation_det(X: Configuration, gp: GrandParams) -> float:
    """The same containment probability as a kernel minor, det K restricted to X (:func:`_minors`)."""
    points = [(1, k) for k in X.positive_indices] + [(-1, k) for k in reversed(X.negative_indices)]
    return _minors(points, [tuple(range(len(points)))], gp)[0]


def _minors(points: list[tuple[int, int]], subsets, gp: GrandParams) -> list[float]:
    """det K on each subset (positions in ``points``, (sign, index) pairs in decreasing point order).

    A minor with points on both halves, or of one point, is the determinant
    of the kernel on ``points``, built once.  A minor of two or more points
    on one half is a Gram determinant, from one Gram factor per half: the
    block forms of K = L(1+L)^(-1), with A the '+-' block of L, give
    K_ss = U (1 + B) U^T, where U is the 's,-s' block of K and B = A^T A
    for s = + (A A^T for s = -), both truncated at the decay certificate.
    With M the Cholesky factor of 1 + B, the minor is (prod diag R)^2 for
    the QR factorisation of the transpose of its rows of U M.  The Gram
    matrix is never formed: at small xi these minors are nearly singular,
    and the determinant of their entries loses up to 1e-6 of its value,
    where this form keeps about 1e-13.  The subsets are grouped by size and
    route, and each group takes one stacked ``det`` or one batched ``qr``:
    numpy factors each matrix of a stack on its own, so a minor does not
    depend on the others asked for.
    """
    kernel = cache(lambda: _kernel_values(points, points, gp))

    @cache
    def gram(sign: int) -> np.ndarray:  # the rows of U M at the positions of ``points`` on this half
        on = [i for i, (s, _k) in enumerate(points) if s == sign]
        n = max(decay_certificate(gp), max(points[i][1] for i in on) + 1)
        a = l_matrix(gp, n)[:n, n:]
        u = _kernel_values([points[i] for i in on], _half_line(-sign, n), gp, function_table(gp, n))
        m = np.linalg.cholesky(np.eye(n) + (a.T @ a if sign > 0 else a @ a.T))
        rows = np.zeros((len(points), n))
        rows[on] = u @ m
        return rows

    groups: dict[tuple[int, int], list[int]] = {}  # (size, half of a Gram minor or 0): subset positions
    for pos, sub in enumerate(subsets):
        halves = {points[i][0] for i in sub}
        half = halves.pop() if len(sub) >= 2 and len(halves) == 1 else 0
        groups.setdefault((len(sub), half), []).append(pos)
    out = np.empty(len(subsets))
    for (size, half), at in groups.items():
        idx = np.array([subsets[pos] for pos in at], dtype=np.intp).reshape(len(at), size)
        if half == 0:
            out[at] = np.linalg.det(kernel()[idx[:, :, None], idx[:, None, :]])
        else:
            r = np.linalg.qr(gram(half)[idx].transpose(0, 2, 1), mode="r")
            out[at] = np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1) ** 2
    return out.tolist()


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
    no n-box normalization (t)_n and no hook lengths.  Each Pochhammer symbol
    is a sum of the complex logarithms of its own factors, not the paired
    real column of ``measures``.
    """
    zp = gp.zp
    z, z_prime, t = zp.z, zp.z_prime, zp.t
    p, q = diagram.frobenius
    log_pochhammer = 0j  # (1+z)_p = (z+1)(z+2)...(z+p), (1-z)_q = (1-z)(2-z)...(q-z)
    for pi, qi in zip(p, q):
        for j in range(1, pi + 1):
            log_pochhammer += cmath.log(z + j) + cmath.log(z_prime + j)
        for j in range(1, qi + 1):
            log_pochhammer += cmath.log(j - z) + cmath.log(j - z_prime)
    log_m = (
        t * math.log1p(-gp.xi)
        + diagram.n * math.log(gp.xi)
        + diagram.d * math.log(t)
        + log_pochhammer
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


def _pair_name(zp: ZParams) -> str:
    """A parameter pair as it appears in case labels, e.g. "pair (0.5+1.5i, 0.5-1.5i)"."""

    def fmt(x: complex) -> str:
        return f"{x.real:.6g}" if x.imag == 0.0 else f"{x.real:.6g}{x.imag:+.6g}i"

    return f"pair ({fmt(zp.z)}, {fmt(zp.z_prime)})"


def _determinant_route_cases(
    n_max: int, parameter_sets: tuple[tuple[str, ZParams], ...], xi: float
) -> list[CheckCase]:
    """Hook-length dimensions and the oracle's grand-ensemble weights at ``xi``
    against the Frobenius-determinant routes: the worst gap over every diagram
    of at most n_max boxes, one case for the dimension and one per parameter set."""
    gps = [GrandParams(zp, xi) for _name, zp in parameter_sets]
    weights = [_weighted_configurations(gp, n_max).tolist() for gp in gps]
    dim_gap = Fraction(0)
    weight_gaps = [0.0] * len(gps)
    row = 0
    for n in range(n_max + 1):
        for lam in enumerate_partitions(n):
            det = _frobenius_det(lam)
            dim_gap = max(dim_gap, abs(_frobenius_dimension(lam, det) - dimension(lam)))
            for i, gp in enumerate(gps):
                factored = weights[i][row]
                direct = _mixed_measure_direct(lam, gp, det)
                weight_gaps[i] = max(weight_gaps[i], abs(factored - direct) / max(factored, direct))
            row += 1
    cases = [_case(f"hook vs Frobenius-determinant dimension, n <= {n_max}", float(dim_gap), 0.0, 0.0)]
    for (name, _zp), gap in zip(parameter_sets, weight_gaps):
        cases.append(
            _case(
                f"factored vs direct grand-ensemble weight, {name}, xi={xi}, n <= {n_max}",
                gap,
                0.0,
                1e-10,
            )
        )
    return cases


# ---------------------------------------------------------------------------
# Suites


def normalization_check(
    n_max: int = 18, tol: float = 1e-11, zp: ZParams | None = None, xi: float = DEFAULT_XI
) -> VerificationReport:
    """Each n-box measure sums to one; spot values; the large-z Plancherel limit;
    dimensions and grand-ensemble weights against their determinant routes.

    The sums and the weight routes run on ``zp`` (default: the three built-in
    pairs), the weights at ``xi``; the spot values and the Plancherel limit
    are closed forms at fixed pairs.
    """
    parameter_sets = PARAMETER_SETS if zp is None else ((_pair_name(zp), zp),)

    def build() -> list[CheckCase]:
        route_cases = _determinant_route_cases(n_max, parameter_sets, xi)  # refuses a bad xi first
        cases = []
        for name, zp in parameter_sets:
            for n in range(1, n_max + 1):
                total = sum(value for _lam, value in z_measure_table(n, zp))
                cases.append(_case(f"sum over {n}-box diagrams, {name}", total, 1.0, tol))
        zp = DEFAULT_REAL_PAIR
        cases.append(
            _case(
                "two-box row spot value, real pair (1/2, 1/3)",
                z_measure_n(YoungDiagram((2,)), zp),
                6.0 / 7.0,
                1e-14,
            )
        )
        cases.append(
            _case(
                "two-box column spot value, real pair (1/2, 1/3)",
                z_measure_n(YoungDiagram((1, 1)), zp),
                1.0 / 7.0,
                1e-14,
            )
        )
        diffs = []
        for z in (100.5, 1000.5):
            table = z_measure_table(6, ZParams(z, z))
            diffs.append(max(abs(value - plancherel_measure(lam)) for lam, value in table))
        cases.append(_case("six-box Plancherel gap at z=100.5", diffs[0], 0.0, 0.05))
        cases.append(
            _case("six-box Plancherel gap shrinks at z=1000.5", diffs[1], diffs[0], 0.0, "decrease")
        )
        cases.extend(route_cases)
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
    with at most ``max_size`` points (0..8, else ValueError).  Every minor
    comes from one kernel on the eight points and one Gram factor per half,
    with one stacked determinant or QR per size and route (:func:`_minors`);
    every containment probability comes from one pass over the diagrams of
    at most n_max boxes for all 256 subsets of the pool (:func:`_containment`).
    A tail above ``tail_tol`` is refused with TailBudgetError before any work.
    """
    gp = GrandParams(zp or DEFAULT_REAL_PAIR, xi)
    pool = [(1, k) for k in range(3, -1, -1)] + [(-1, k) for k in range(4)]  # 7/2 down to -7/2
    names = Configuration((3, 2, 1, 0), (3, 2, 1, 0)).to_json()  # the same points, in the same order
    if not 0 <= max_size <= len(pool):
        raise ValueError(f"max_size must be in 0..{len(pool)}, got {max_size}")
    _certified_tail(gp, n_max, tail_tol)
    subsets = [sub for size in range(max_size + 1) for sub in combinations(range(len(pool)), size)]

    def build() -> list[CheckCase]:
        contained = _containment(pool, gp, n_max)
        cases = []
        for sub, det in zip(subsets, _minors(pool, subsets, gp)):
            label = "contains {" + ", ".join(names[i] for i in sub) + "}"
            cases.append(_case(label, det, contained[sum(1 << i for i in sub)], rel_tol, "rel"))
        return cases

    return _timed("oracle", rel_tol, build)


def fredholm_check(gp: GrandParams, trunc: int | None = None, tol: float = 1e-10) -> VerificationReport:
    """det(1 + L) against (1 - xi)^(-t), in both the full and single-block forms.

    ``trunc`` defaults to the decay certificate of ``gp``.  The full
    determinant is numpy's ``slogdet`` of 1 + L.  The single-block form
    det(1 + A A^T), with A the '+-' block of L, is the sum of log1p(sigma^2)
    over the singular values of A: forming A A^T would square A's condition
    number.  Since L^T = -L, (1 + L)^T (1 + L) = diag(1 + A A^T, 1 + A^T A),
    so the singular values of 1 + L are sqrt(1 + sigma^2); a warning is
    raised when their ratio sqrt((1 + sigma_min^2) / (1 + sigma_max^2)) falls
    below 1e-13, where the factorisation of 1 + L stops being well
    conditioned.
    """
    if trunc is None:
        trunc = decay_certificate(gp)

    def build() -> list[CheckCase]:
        t = gp.t
        log_scale = t * math.log1p(-gp.xi)  # compare det(1+L) * (1-xi)^t against 1
        lmat = l_matrix(gp, trunc)
        sign, log_det = np.linalg.slogdet(np.eye(2 * trunc) + lmat)
        det_full = float(sign) * math.exp(log_det + log_scale)
        sigma = np.linalg.svd(lmat[:trunc, trunc:], compute_uv=False)
        ratio = math.sqrt((1.0 + sigma.min() ** 2) / (1.0 + sigma.max() ** 2))
        if ratio < 1e-13:
            warnings.warn(f"1 + L is ill-conditioned: singular-value ratio {ratio:.2e}")
        det_single = math.exp(np.sum(np.log1p(sigma**2)) + log_scale)
        label = f"xi={gp.xi}, t={t:.6g}, trunc={trunc}"
        return [
            _case(f"det(1+L) * (1-xi)^t, {label}", det_full, 1.0, tol),
            _case(f"single-block det * (1-xi)^t, {label}", det_single, 1.0, tol),
            _case(f"two determinant forms agree, {label}", det_full, det_single, 1e-11),
        ]

    return _timed("fredholm", tol, build)


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


def _decomposition_series(gp: GrandParams, us: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Pole-expansion series of the two decomposition identities at every u in ``us``, in one pass.

    First form:  sum_k (a)_k (b)_k xi^k (1-xi)^(a+b-1) / (k!^2 (u+k)) * F(1-a,1-b;k+1;w)
    Second form: sum_k (a)_{k+1}(b)_{k+1} xi^{k+1} (1-xi)^(a+b-1) / (k!^2 (u+k)(k+1)) * F(1-a,1-b;k+2;w)
    with (a, b) = (-z, -z'); the 2F1 values do not depend on u, and the
    second form at k uses the first form's value at k + 1.  The coefficient
    ratio (a+k)(b+k) xi / (k+1)^2 is at most r = (1 + xi)/2 from the index
    :func:`_series_start_index` certifies on; past it the sums stop at the
    first k where every term is below SERIES_TOL (1 - r)/r of its running total.
    """
    zp = gp.zp
    xi = gp.xi
    a, b = -zp.z, -zp.z_prime
    us = np.asarray(us, dtype=np.float64)
    prefactor = np.exp((a + b - 1.0) * math.log1p(-xi))
    r_bar = 0.5 * (1.0 + xi)
    stop_factor = SERIES_TOL * (1.0 - r_bar) / r_bar
    k_star = _series_start_index(a, abs(b - 1.0), 1.0, xi)
    coeff = complex(1.0)  # (a)_k (b)_k xi^k / k!^2
    f = gauss_2f1_w(1.0 - a, 1.0 - b, 1.0, xi)  # F(1-a, 1-b; k+1; w)
    first = np.zeros(len(us), dtype=complex)
    second = np.zeros(len(us), dtype=complex)
    k = 0
    while True:
        f_next = gauss_2f1_w(1.0 - a, 1.0 - b, k + 2.0, xi)
        term_first = coeff * f / (us + k)
        term_second = coeff * (a + k) * (b + k) * xi / (k + 1.0) * f_next / (us + k)
        first += term_first
        second += term_second
        if (
            k >= k_star
            and (np.abs(term_first) <= stop_factor * np.abs(first)).all()
            and (np.abs(term_second) <= stop_factor * np.abs(second)).all()
        ):
            return realize_array(prefactor * first), realize_array(prefactor * second)
        coeff *= (a + k) * (b + k) * xi / ((k + 1.0) * (k + 1.0))
        f = f_next
        k += 1


def _near_pole(u: float, zp: ZParams) -> bool:
    """Whether u is within 1e-3 of an integer or of a pole of psi(-, -u-1),
    where u + z or u + z' is a nonnegative integer."""
    return abs(u - round(u)) < 1e-3 or any(
        _is_nonpositive_integer(-(u + z), tol=1e-3) for z in (zp.z, zp.z_prime)
    )


def _default_u_grid(zp: ZParams) -> tuple[float, ...]:
    """DEFAULT_U_GRID, each point near a pole for ``zp`` moved up by 0.05 until it is clear."""
    grid = []
    for u in DEFAULT_U_GRID:
        while _near_pole(u, zp):
            u = round(u + 0.05, 10)
        grid.append(u)
    return tuple(grid)


def identity_suite(
    gp: GrandParams | None = None, u_grid: tuple[float, ...] | None = None
) -> VerificationReport:
    """Hypergeometric identity checks on a grid of evaluation points off the poles.

    The default grid is DEFAULT_U_GRID moved off the poles of the pair; a
    given grid with a point near an integer or a pole of psi(-, -u-1) is
    refused with :class:`PoleError`.
    """
    gp = gp or GrandParams(DEFAULT_REAL_PAIR, DEFAULT_XI)
    zp = gp.zp
    if u_grid is None:
        u_grid = _default_u_grid(zp)
    for u in u_grid:
        if _near_pole(u, zp):
            raise PoleError(f"grid point {u} is within 1e-3 of an integer or a pole of psi(-, -u-1)")

    def build() -> list[CheckCase]:
        cases = []
        series_first, series_second = _decomposition_series(gp, u_grid)
        for u, rhs1, rhs2 in zip(u_grid, series_first, series_second):
            cases.append(_case(f"product combination equals one, u={u}", _unity_identity(gp, u), 1.0, 1e-12))
            lhs1 = realize(gauss_2f1_w(-zp.z, -zp.z_prime, u + 1.0, gp.xi)) / u
            cases.append(_case(f"first decomposition, u={u}", lhs1, rhs1, 1e-12, "rel"))
            lhs2 = 1.0 - realize(gauss_2f1_w(-zp.z, -zp.z_prime, u, gp.xi))
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


def _hyp_w_dc(a: complex, b: complex, c: float, xi: float) -> tuple[complex, complex]:
    """F(a, b; c; w) at w = xi/(xi - 1) and its derivative in c, from mpmath at 30 digits.

    An evaluation independent of the float series routes of :mod:`zmeasure.specfun`.
    """
    with mpmath.workdps(30):
        w = mpmath.mpf(xi) / (mpmath.mpf(xi) - 1)
        a, b = mpmath.mpmathify(a), mpmath.mpmathify(b)

        def f(cc):
            return mpmath.hyp2f1(a, b, cc, w)

        return complex(f(c)), complex(mpmath.diff(f, c))


def _diag_derivative_route(sign: int, k: int, gp: GrandParams) -> float:
    """Same-sign diagonal entry as the removable-singularity limit of the integrable form.

    With P = sqrt(psi) H and Q = sqrt(psi) G the derivatives of sqrt(psi)
    cancel, leaving psi (G H' - H G') with primes in the lower parameter of
    the hypergeometric factors, which :func:`_hyp_w_dc` evaluates.
    """
    zp, xi = gp.zp, gp.xi
    h, dh = _hyp_w_dc(-sign * zp.z, -sign * zp.z_prime, k + 1.0, xi)
    f2, df2 = _hyp_w_dc(1 - sign * zp.z, 1 - sign * zp.z_prime, k + 2.0, xi)
    scale = math.sqrt(zp.t * xi) / (1.0 - xi)
    g = scale * f2 / (k + 1.0)
    dg = scale * (df2 / (k + 1.0) - f2 / (k + 1.0) ** 2)
    return psi(sign, k, gp) * realize(g * dh - h * dg)


def operator_identity_check(
    gp: GrandParams, trunc: int | None = None, tol: float = 1e-8, small: int = 15
) -> VerificationReport:
    """Entrywise kernel against the dense resolvent and the block product relations.

    ``trunc`` defaults to the decay certificate of ``gp``; one above
    OPERATOR_MAX_ROWS is refused with ValueError.  Both diagonals are
    checked against the derivative route at k <= 10.
    """
    if trunc is None:
        trunc = decay_certificate(gp)
    params = f"{_pair_name(gp.zp)}, xi={gp.xi}, trunc={trunc}"
    if trunc > OPERATOR_MAX_ROWS:
        raise ValueError(f"the operator check needs {trunc} rows at {params}, above {OPERATOR_MAX_ROWS}")
    small = min(small, trunc)

    def build() -> list[CheckCase]:
        cases = []
        lmat = l_matrix(gp, trunc)
        k_entry = kernel_matrix(gp, trunc)
        k_dense = np.linalg.solve((np.eye(2 * trunc) + lmat).T, lmat.T).T
        cases.append(
            _case(
                f"entrywise kernel vs resolvent of L, {params}",
                float(np.max(np.abs(k_entry - k_dense))),
                0.0,
                tol,
            )
        )
        c = k_entry[:trunc, trunc:]
        d = -lmat[trunc:, :trunc]
        for name, block, product in (
            ("++ = CD", k_entry[:trunc, :trunc], c @ d),
            ("-- = DC", k_entry[trunc:, trunc:], d @ c),
            ("-+ = DCD - D", k_entry[trunc:, :trunc], d @ c @ d - d),
        ):
            gap = float(np.max(np.abs(block - product)))
            cases.append(_case(f"block product {name}, {params}", gap, 0.0, tol))
        # Conjugated closed forms of the half-infinite products (off-diagonal).
        tbl = function_table(gp, trunc)
        root_p, root_m = tbl.root_plus[:trunc], tbl.root_minus[:trunc]
        r_p, s_p = tbl.columns(1)[:2]
        r_m, s_m = tbl.columns(-1)[:2]
        psi_p, psi_m = root_p * root_p, root_m * root_m
        n_mat = root_p[:, None] * c * root_m[None, :]
        idx = np.arange(trunc)
        w = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
        nw = n_mat @ w
        wn = w @ n_mat
        wnw = w @ n_mat @ w - w
        i, j = np.ogrid[:small, :small]
        off = np.broadcast_to(i != j, (small, small))
        with np.errstate(divide="ignore", invalid="ignore"):  # i = j, left out by ``off``
            nw_closed = (r_p[i] * s_p[j] - s_p[i] * r_p[j]) / (psi_p[j] * (i - j))
            wn_closed = (r_m[i] * s_m[j] - s_m[i] * r_m[j]) / (psi_m[i] * (i - j))
        wnw_closed = -(r_m[i] * r_p[j] + s_m[i] * s_p[j]) / (psi_m[i] * psi_p[j] * (i + j + 1.0))
        for name, gaps in (
            ("NW", np.abs(nw[:small, :small] - nw_closed)[off]),
            ("WN", np.abs(wn[:small, :small] - wn_closed)[off]),
            ("WNW - W", np.abs(wnw[:small, :small] - wnw_closed)),
        ):
            gap = float(gaps.max(initial=0.0))
            cases.append(_case(f"{name} closed form, indices < {small}, {params}", gap, 0.0, tol))
        for sign, offset, name in ((1, 0, "++"), (-1, trunc, "--")):
            for k in range(min(11, trunc)):
                series = k_entry[offset + k, offset + k]
                deriv = _diag_derivative_route(sign, k, gp)
                label = f"{name} diagonal series vs derivative route, k={k}, {params}"
                cases.append(_case(label, series, deriv, 1e-12, "rel"))
        return cases

    return _timed("operator", tol, build)


def meixner_check(
    big_n: int = 3,
    alpha: float = 0.5,
    xi: float = 0.4,
    grid: int = 10,
    proj_size: int | None = None,
) -> VerificationReport:
    """Degeneration of the '++' block to the Meixner projection kernel, plus
    projection and orthogonality checks for the Meixner system itself.

    The norm sums run over k below k_cut, N past the decay certificate of
    the degenerate pair (z, z') = (N + alpha, N), and ``proj_size`` defaults
    to k_cut: psi(+, k - N) is the Meixner weight at k times a polynomial of
    degree 2N, so it decays with the terms of those sums.
    """

    params = f"N={big_n}, alpha={alpha}, xi={xi}"
    gp = GrandParams(ZParams.meixner(big_n, alpha), xi)
    k_cut = decay_certificate(gp) + big_n
    if proj_size is None:
        proj_size = k_cut

    def build() -> list[CheckCase]:
        cases = []
        worst = worst_cd = 0.0
        block = kernel_block_matrix(gp, "++", grid + 1).entries
        for k in range(grid + 1):
            for l in range(grid + 1):
                mk = meixner_kernel(big_n, alpha, xi, k + big_n, l + big_n)
                worst = max(worst, abs(block[k, l] - mk) / max(abs(mk), 1e-300))
                if k != l:
                    cd = _meixner_kernel_cd(big_n, alpha, xi, k + big_n, l + big_n)
                    worst_cd = max(worst_cd, abs(cd - mk) / max(abs(mk), abs(cd), 1e-300))
        cases.append(_case(f"'++' block degenerates to rank-{big_n} kernel, {params}", worst, 0.0, 1e-10))
        cases.append(
            _case(f"Christoffel-Darboux vs rank-{big_n} sum, off-diagonal, {params}", worst_cd, 0.0, 1e-10)
        )
        mat = meixner_kernel_matrix(big_n, alpha, xi, proj_size)
        cases.append(_case(f"projection trace, {params}", float(np.trace(mat)), float(big_n), 1e-8))
        cases.append(
            _case(f"idempotence residual, {params}", float(np.max(np.abs(mat @ mat - mat))), 0.0, 1e-8)
        )
        for n in range(4):
            total = sum(
                meixner_polynomial(n, k, alpha, xi) ** 2 * meixner_weight(k, alpha, xi)
                for k in range(k_cut)
            )
            cases.append(
                _case(f"squared norm, degree {n}, {params}", total, meixner_norm(n, alpha, xi), 1e-10, "rel")
            )
        cross = sum(
            meixner_polynomial(2, k, alpha, xi)
            * meixner_polynomial(3, k, alpha, xi)
            * meixner_weight(k, alpha, xi)
            for k in range(k_cut)
        )
        bound = 1e-10 * math.sqrt(meixner_norm(2, alpha, xi) * meixner_norm(3, alpha, xi))
        cases.append(_case(f"orthogonality of degrees 2 and 3, {params}", abs(cross), 0.0, bound))
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
    prefactor limit, the direct hypergeometric-to-Whittaker limit, and the
    float route of :func:`whittaker_w` against its mpmath fallback at the
    kernel's values of kappa.
    """
    zp = zp or DEFAULT_REAL_PAIR

    def build() -> list[CheckCase]:
        cases = []
        lattice = []  # the four blocks at each xi, from one 2 x 2 request
        for xi in xi_list:
            k = math.floor(u / (1.0 - xi))
            l = math.floor(v / (1.0 - xi))
            entries = _kernel_values([(1, k), (-1, k)], [(1, l), (-1, l)], GrandParams(zp, xi))
            lattice.append(entries / (1.0 - xi))
        for block in BLOCKS:
            su, sv = _block_signs(block)
            continuum = whittaker_kernel(su * u, sv * v, zp)
            errors = [abs(entries[(1 - su) // 2, (1 - sv) // 2] - continuum) for entries in lattice]
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
            limit = math.sqrt(
                math.sqrt(zp.t) * math.exp(-x) * x ** (s * zp.z_sum) / _gamma_product(s, zp)
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
        # The float route of W against mpmath, at each distinct kappa of the kernel's
        # shifts -1, 1, 3 of both signs.
        mu = (zp.z - zp.z_prime) / 2.0
        mu_label = f"{mu.real:.6g}" if mu.imag == 0.0 else f"{mu.imag:.6g}i"
        kappas = dict.fromkeys((s * zp.z_sum + shift) / 2.0 for s in (1, -1) for shift in (-1.0, 1.0, 3.0))
        for kappa in kappas:
            for x in (0.4, 1.3, 5.0):
                cases.append(
                    _case(
                        f"Whittaker W float vs mpmath, κ={kappa:.6g}, μ={mu_label}, x={x}",
                        whittaker_w(kappa, mu, x),
                        realize(_whittaker_w_mp(kappa, mu, x)),
                        1e-13,
                        "rel",
                    )
                )
        return cases

    return _timed("scaling", final_tol, build)


SUITE_NAMES = ("normalization", "oracle", "fredholm", "identities", "meixner", "scaling")


def run_suite(name: str, zp: ZParams | None = None, xi: float | None = None) -> list[VerificationReport]:
    """Run one named suite (or 'all') at the given pair and xi.

    A missing pair or xi leaves the suite on its built-in cases.  ``meixner``
    takes only xi, because its pair is the degenerate (N + alpha, N);
    ``scaling`` takes only the pair and runs its own sequence of xi values;
    'all' takes neither.  A value the suite cannot use raises ValueError.
    """
    refused = {"all": ("pair", "xi"), "meixner": ("pair",), "scaling": ("xi",)}.get(name, ())
    given = [what for what, value in (("pair", zp), ("xi", xi)) if value is not None and what in refused]
    if given:
        raise ValueError(f"suite {name!r} cannot use a given {' or '.join(given)}")
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, zp, xi))
        return out
    given_xi = DEFAULT_XI if xi is None else xi
    if name == "normalization":
        return [normalization_check(zp=zp, xi=given_xi)]
    if name == "oracle":
        reports = [oracle_check(zp or DEFAULT_REAL_PAIR, given_xi)]
        if zp is None:
            reports.append(oracle_check(COMPLEX_PAIR, given_xi))
        return [_merged("oracle", 1e-6, reports)]
    if name == "fredholm":
        if zp is None and xi is None:
            reports = [
                fredholm_check(GrandParams(DEFAULT_REAL_PAIR, 0.3)),
                fredholm_check(GrandParams(COMPLEX_PAIR, 0.5)),
            ]
            return [_merged("fredholm", 1e-10, reports)]
        return [fredholm_check(GrandParams(zp or DEFAULT_REAL_PAIR, given_xi))]
    if name == "identities":
        gps = (
            [GrandParams(zp, given_xi)]
            if zp is not None
            else [GrandParams(DEFAULT_REAL_PAIR, given_xi), GrandParams(COMPLEX_PAIR, given_xi)]
        )
        operators = [operator_identity_check(gp) for gp in gps]  # refuses a too large certificate first
        return [_merged("identities", 1e-12, [identity_suite(gp) for gp in gps] + operators)]
    if name == "meixner":
        return [meixner_check() if xi is None else meixner_check(xi=xi)]
    if name == "scaling":
        return [scaling_limit_check(zp)]
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
