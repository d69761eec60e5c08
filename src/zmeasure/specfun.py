"""Special-function primitives for the lattice kernels.

The centrepiece is the Gauss hypergeometric function evaluated at the lattice
argument w = xi/(xi - 1) with xi in (0, 1).  Since |w| is unbounded as xi
approaches 1, a non-terminating value takes one of two series routes
(:func:`gauss_2f1_w`).  The Pfaff transform

    F(a, b; c; w) = (1 - w)^(-a) F(a, c - b; c; w/(w - 1))

has the argument w/(w - 1) = xi, so its series converges at geometric rate
xi for every parameter set used here, in about 39 / (1 - xi) terms.  The
connection formula for 1/(1 - w) = 1 - xi (DLMF 15.8.3) writes F as two
series in 1 - xi instead, which get shorter as xi -> 1; the value is taken
from it for real c with xi >= 0.95 and c (1 - xi) <= 6, where it is the
cheaper route, whenever the cancellation ratio of its two terms passes the
CANCELLATION_TOL gate, and from the Pfaff series otherwise.  At large |Im z|
that also keeps the digits the Pfaff series cancels away.  Sums are chunked
and stop on a certified geometric tail bound, never on a fixed term count,
so single points reach xi = 0.99999.  A whole column F(a, b; c0 + k; w),
k = 0..n-1, comes from a backward recurrence in c seeded by point values
(:func:`gauss_2f1_columns`), so it costs O(n) instead of O(n / (1 - xi)).

Log Gamma is computed here (:func:`loggamma`) on the principal branch, with
the branch tracking of Hare (J. Algorithms 25, 1997): the Stirling series
with 8 Bernoulli terms where Re z > 7 or |Im z| > 7, the Taylor series of
log Gamma(1 + w) at z = 1 and z = 2 within radius 0.2, the upward recurrence
to Re z > 7 elsewhere in Re z >= 0.1, and the reflection formula below.
Against mpmath at 40 digits the error, over max(1, |log Gamma|), is at most
7.3e-16 on 400 points with |Im z| <= 40, 3.0e-16 on 99 negative reals and
4.0e-16 out to Re z = 5e5.  In the recurrence region near the real axis,
where |log Gamma| < 1, it reaches 3.8e-15 absolute.  Differences
log Gamma(x + a) - log Gamma(x) at large x come from
:func:`log_gamma_ratio`, the difference of two Stirling series written so
that nothing of size x log x cancels.

Also provided: Meixner polynomials with their weight and norm constants, and
the Whittaker W function in floats (:func:`whittaker_w`): Tricomi's U from an
exp-sinh quadrature of its Laplace integral at two start values and a
downward recurrence in its first parameter, so one call gives a run of
consecutive kappa.  Each value carries its cancellation ratio kappa; where
kappa * eps exceeds CANCELLATION_TOL the value comes from mpmath instead, and
that mpmath route is the check of the float one in the scaling suite.
"""

from __future__ import annotations

import cmath
import math
import sys

import mpmath
import numpy as np

SERIES_TOL = 1e-17
REALIZE_TOL = 1e-9
CANCELLATION_TOL = 1e-13  # largest kappa * eps a float terminating 2F1 sum or Whittaker W may carry
MAX_RESUM_DPS = 2000  # most digits a cancelling terminating sum is summed again at
_EPS = sys.float_info.epsilon
# Where gauss_2f1_w tries the series in 1 - xi: below this xi the Pfaff series is the cheaper
# route, and past this c (1 - xi) the two series cancel in about half the calls (measured).
_CONNECTION_MIN_XI = 0.95
_CONNECTION_MAX_U = 6.0


class RealizationError(ArithmeticError):
    """A value expected to be real kept a non-negligible imaginary part."""


class PoleError(ValueError):
    """Evaluation requested at (or too close to) a pole of the function."""


class ConvergenceError(RuntimeError):
    """A series failed to meet its certified tail bound: a partial sum is not finite,
    or the terms outlast the count their ratio bound allows."""


class DomainError(ValueError):
    """Argument outside the function's domain."""


def realize(value: complex, tol: float = REALIZE_TOL) -> float:
    """Assert that ``value`` is real up to ``tol`` (scaled) and return its real part."""
    v = complex(value)
    if abs(v.imag) > tol * (1.0 + abs(v.real)):
        raise RealizationError(f"imaginary part {v.imag} too large for {v}")
    return v.real


def realize_array(values: np.ndarray) -> np.ndarray:
    """Entrywise :func:`realize`: the real parts, if no imaginary part is too large."""
    values = np.asarray(values, dtype=complex)
    bad = np.flatnonzero(np.abs(values.imag) > REALIZE_TOL * (1.0 + np.abs(values.real)))
    if bad.size:
        v = values[bad[0]]
        raise RealizationError(f"imaginary part {v.imag} too large for {v} at index {bad[0]}")
    return values.real.copy()


# ---------------------------------------------------------------------------
# Log Gamma

_HALF_LOG_2PI = 0.9189385332046728
_LOG_PI = 1.1447298858494002
_STIRLING_MIN = 7.0  # the Stirling series serves Re z > 7 or |Im z| > 7
_TAYLOR_RADIUS = 0.2  # the Taylor series serve |z - 1| <= 0.2 and |z - 2| <= 0.2
_REFLECT_BELOW = 0.1  # the reflection formula serves Re z < 0.1

# B_2j / (2j (2j - 1)) for j = 8 down to 1 (DLMF 5.11.1)
_STIRLING_COEFFS = (
    -0.029550653594771242, 0.00641025641025641, -0.0019175269175269176,
    0.0008417508417508417, -0.0005952380952380953, 0.0007936507936507937,
    -0.002777777777777778, 0.08333333333333333,
)

# log Gamma(1 + w) = sum_n c_n w^n with c_1 = -euler_gamma, c_n = (-1)^n zeta(n)/n;
# c_23 down to c_1.  The first term left out is below 1e-18 at |w| = 0.2.
_TAYLOR_COEFFS = (
    -0.04347826605304026, 0.04545455629320467, -0.047619070330142226,
    0.05000004769810169, -0.05263167937961666, 0.055555767627403614,
    -0.058823978658684585, 0.06250095514121304, -0.06666870588242046,
    0.07143294629536133, -0.0769325164113522, 0.083353840546109,
    -0.09095401714582904, 0.1000994575127818, -0.11133426586956469,
    0.12550966952474304, -0.1440498967688461, 0.1695571769974082,
    -0.20738555102867398, 0.27058080842778454, -0.40068563438653143,
    0.8224670334241132, -0.5772156649015329,
)


def _lg_stirling(z: complex) -> complex:
    """(z - 1/2) log z - z + log(2 pi)/2 + sum_j B_2j / (2j (2j - 1)) z^(1 - 2j), j = 1..8."""
    r = 1.0 / z
    r2 = r * r
    tail = 0.0
    for c in _STIRLING_COEFFS:
        tail = tail * r2 + c
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + r * tail


def _lg_taylor(w: complex) -> complex:
    """log Gamma(1 + w) by its Taylor series, for |w| <= 0.2."""
    p = 0.0
    for c in _TAYLOR_COEFFS:
        p = p * w + c
    return p * w


def _lg_reflect(z: complex) -> complex:
    """log pi - log sin(pi z) - log Gamma(1 - z), for Re z < 0.1 and |Im z| <= 7 (DLMF 5.5.3).

    sin(pi z) = sin(pi x) cosh(pi y) + i cos(pi x) sinh(pi y), with x reduced
    to f = x - round(x) in [-1/2, 1/2] so that sin(pi x) keeps its relative
    accuracy next to the poles.  The multiple of 2 pi i put back (Hare 1997,
    Proposition 3.1) makes the result the principal branch.
    """
    x, y = z.real, z.imag
    n = round(x)
    f = math.pi * (x - n)
    sign = -1.0 if n % 2 else 1.0
    sin_pz = complex(sign * math.sin(f) * math.cosh(math.pi * y), sign * math.cos(f) * math.sinh(math.pi * y))
    turn = math.copysign(2.0 * math.pi, y) * math.floor(0.5 * x + 0.25)
    return _LOG_PI - cmath.log(sin_pz) - _lg_scalar(1.0 - z) + complex(0.0, turn)


def _lg_recurrence(z: complex) -> complex:
    """log Gamma(z) = log Gamma(z + n) - log P from P = z (z+1) ... (z+n-1), for 0.1 <= Re z <= 7.

    The product runs in the upper half plane (z or its conjugate, since
    log Gamma(conj z) = conj log Gamma(z)), where each factor turns it forward
    by less than pi/2.  ``turns`` counts the times its imaginary part turned
    negative, each a pass across the branch cut, and 2 pi i times that is
    added back to the principal log of P.
    """
    x, ya = z.real, abs(z.imag)
    n = int(_STIRLING_MIN - x) + 1
    p = complex(x, ya)
    turns = 0
    for j in range(1, n):
        q = p * complex(x + j, ya)
        turns += q.imag < 0.0 <= p.imag
        p = q
    v = _lg_stirling(complex(x + n, ya)) - cmath.log(p)
    return complex(v.real, math.copysign(1.0, z.imag) * (v.imag - 2.0 * math.pi * turns))


def _lg_scalar(z: complex) -> complex:
    """Principal log Gamma at z, region by region; nan at poles and non-finite z."""
    x, y = z.real, z.imag
    if not cmath.isfinite(z) or (y == 0.0 and x <= 0.0 and x == math.floor(x)):
        return complex(math.nan, math.nan)
    if x > _STIRLING_MIN or abs(y) > _STIRLING_MIN:
        return _lg_stirling(z)
    if abs(z - 1.0) <= _TAYLOR_RADIUS:
        return _lg_taylor(z - 1.0)
    if abs(z - 2.0) <= _TAYLOR_RADIUS:
        return cmath.log(z - 1.0) + _lg_taylor(z - 2.0)
    if x < _REFLECT_BELOW:
        return _lg_reflect(z)
    return _lg_recurrence(z)


def loggamma(z) -> complex:
    """Principal log Gamma of a complex scalar.

    The branch is the one continuous on the plane cut along the negative real
    axis and real on the positive one, as in mpmath.  On the cut, Im z = +0
    gives mpmath's value and Im z = -0 its conjugate.  Poles and
    non-finite arguments give nan.  The scheme and its measured accuracy are
    in the module docstring.
    """
    return _lg_scalar(complex(z))


# ---------------------------------------------------------------------------
# log Gamma(x + a) - log Gamma(x)

RATIO_BLOCK = 256  # rows per block of log_gamma_ratio_column


def _ratio_start(a: complex) -> float:
    """Smallest x > 0 at which both x and x + a lie in the Stirling region."""
    if abs(a.imag) > _STIRLING_MIN:
        return _STIRLING_MIN
    return _STIRLING_MIN + max(0.0, -a.real)


def _stirling_ratio(x: float, a: complex) -> complex:
    """log Gamma(x + a) - log Gamma(x) as the difference of two Stirling series.

    (x - 1/2) Log(1 + a/x) + a Log(x + a) - a + sum_j C_j ((x + a)^(1-2j) -
    x^(1-2j)) (DLMF 5.11.1), grouped as (x + a - 1/2) Log(1 + a/x) + a (log x
    - 1) + the tails: every term is of size |a| log x or less, so nothing of
    size x log x cancels.  Log(1 + a/x) is formed as in :func:`_log1p_ratio`.
    Needs x and x + a in the Stirling region.
    """
    xa = x + a.real
    t = (a.real * (x + xa) + a.imag * a.imag) / (x * x)
    re = 0.5 * math.log1p(t) if t > -0.5 else math.log(math.hypot(xa, a.imag) / x)
    l1 = complex(re, math.atan2(a.imag, xa))
    w, v = 1.0 / (x + a), 1.0 / x
    w2, v2 = w * w, v * v
    pw = pv = 0.0
    for c in _STIRLING_COEFFS:
        pw, pv = pw * w2 + c, pv * v2 + c
    return (x + a - 0.5) * l1 + a * (math.log(x) - 1.0) + (w * pw - v * pv)


def _log1p_ratio(x: np.ndarray, a: complex) -> np.ndarray:
    """Log(1 + a/x) at real x > 0, without rounding 1 + a/x.

    The real part is log1p(|1 + a/x|^2 - 1) / 2, with |1 + a/x|^2 - 1 formed
    from a and x directly; where that nears -1 (x + a near 0) it is
    log(|x + a| / x) instead.  The imaginary part is arg(x + a).  numpy's
    complex log1p is not used: at a = 1/2, x = 5e6 it is off by 5.8e-10
    relative, which the factor x - 1/2 of the Stirling ratio makes 2.9e-10.
    """
    xa = x + a.real
    t = (a.real * (x + xa) + a.imag * a.imag) / (x * x)
    far = t <= -0.5
    re = 0.5 * np.log1p(np.where(far, 0.0, t))
    if far.any():
        re[far] = np.log(np.hypot(xa[far], a.imag) / x[far])
    out = np.empty(x.shape, dtype=complex)
    out.real = re
    out.imag = np.arctan2(a.imag, xa)
    return out


def log_gamma_ratio(a: complex, x: float) -> complex:
    """log Gamma(x + a) - log Gamma(x) at real x, principal logs.

    The Stirling ratio (:func:`_stirling_ratio`) once x and x + a lie in the
    Stirling region, where the difference of two log Gamma values of size
    x log x would lose about x log x times the unit roundoff; below that the
    difference of two :func:`loggamma` values, which are of size one there.
    """
    a = complex(a)
    x = float(x)
    if x >= _ratio_start(a):
        return _stirling_ratio(x, a)
    return loggamma(x + a) - loggamma(x)


def log_gamma_ratio_column(a: complex, x0: float, n: int) -> np.ndarray:
    """log Gamma(x + a) - log Gamma(x) at x = x0, x0 + 1, ..., x0 + n - 1, with x0 > 0.

    The rows are cut into blocks of RATIO_BLOCK rows (the first one long
    enough to end in the Stirling region).  The Stirling ratio is taken at
    the row just past each block, and each row below it subtracts the exact
    steps log Gamma(x + 1 + a) - log Gamma(x + 1) - (log Gamma(x + a) -
    log Gamma(x)) = Log(1 + a/x), summed down the block: each step is of size
    |a| / x, so a block's sum carries only a few roundoffs.
    """
    a = complex(a)
    size = max(RATIO_BLOCK, math.ceil(_ratio_start(a) - x0))
    blocks = -(-n // size)
    steps = _log1p_ratio(x0 + np.arange(blocks * size, dtype=np.float64), a).reshape(blocks, size)
    below = np.cumsum(steps[:, ::-1], axis=1)[:, ::-1]  # the steps from each row to its block's top
    tops = np.array([_stirling_ratio(x0 + size * (b + 1.0), a) for b in range(blocks)])
    return (tops[:, None] - below).ravel()[:n]


def _is_nonpositive_integer(x: complex, tol: float = 0.0) -> bool:
    x = complex(x)
    if x.imag != 0.0:
        return False
    r = round(x.real)
    return r <= 0 and abs(x.real - r) <= tol


def xi_to_w(xi: float) -> float:
    """The lattice argument w = xi/(xi - 1) < 0."""
    return xi / (xi - 1.0)


def _series_start_index(a: complex, delta: float, c: complex, x_abs: float) -> int:
    """An index from which the term ratio of the 2F1 series is provably <= (1 + |x|)/2.

    ``delta`` must bound |b - c| for the series F(a, b; c; x).  The ratio of
    consecutive terms is x (a+m)(b+m) / ((c+m)(1+m)); for m > C0 =
    max(0, -Re c), |(a+m)/(1+m)| <= 1 + |a|/m and |(b+m)/(c+m)| <= 1 +
    delta/(m - C0).  Their product is at most 1 + E, the whole slack
    E = (1 - |x|)/(2|x|), from the larger root of the quadratic
    E m^2 - (E C0 + delta + |a|) m - |a| (delta - C0) = 0 on; the index is one
    past it.  As |x| -> 0 the slack grows like 1/(2|x|), so a series in a
    small x with a large lower parameter starts its checks after a few terms.
    """
    c0 = max(0.0, -complex(c).real)
    first = math.ceil(c0) + 2
    # A smaller slack only makes the bound stronger; capping it keeps every product finite.
    slack = (1.0 - x_abs) / (2.0 * x_abs) if x_abs > _EPS else 1.0 / _EPS
    a_abs = abs(a)
    lin = slack * c0 + delta + a_abs
    if lin == 0.0:
        return first
    # the root (lin + sqrt(lin^2 + 4 slack |a| (delta - C0))) / (2 slack), in ratios to lin so nothing overflows
    disc = 1.0 + 4.0 * slack * (a_abs / lin) * ((delta - c0) / lin)
    root = lin * (1.0 + math.sqrt(max(disc, 0.0))) / (2.0 * slack)
    return max(first, math.ceil(root) + 1)


def _non_finite_sum(m: int, a: complex, b: complex, c: complex, x_abs: float) -> ConvergenceError:
    return ConvergenceError(
        f"2F1 partial sum is not finite after {m} terms (params a={a}, b={b}, c={c}, |x|={x_abs})"
    )


def _hyp_series(a: complex, b: complex, c: complex, x: complex) -> complex:
    """Sum the 2F1 series in x until its certified geometric tail is below SERIES_TOL.

    Past m_star (:func:`_series_start_index`) the term ratio is at most
    r = (1 + |x|)/2, so the first term checked there bounds how many more
    terms the stop can take; outlasting that count, or a partial sum that is
    not finite, raises :class:`ConvergenceError`.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    x = complex(x)
    x_abs = abs(x)
    if x_abs >= 1.0:
        raise DomainError(f"series argument |x| = {x_abs} >= 1 cannot converge")

    r_bar = 0.5 * (1.0 + x_abs)
    stop_factor = SERIES_TOL * (1.0 - r_bar) / r_bar
    m_star = _series_start_index(a, abs(b - c), c, x_abs)
    m_limit = None  # the last index the ratio bound allows, fixed at the first check past m_star

    total = 1.0 + 0.0j
    scale = 1.0
    term = 1.0 + 0.0j
    m = 0
    chunk = 64
    while True:
        ms = np.arange(m, m + chunk, dtype=np.float64)
        ratios = x * (a + ms) * (b + ms) / ((c + ms) * (ms + 1.0))
        terms = term * np.cumprod(ratios)  # T_{m+1} .. T_{m+chunk}
        total += np.sum(terms)
        term = complex(terms[-1])
        m += chunk
        if not cmath.isfinite(total):
            raise _non_finite_sum(m, a, b, c, x_abs)
        scale = max(scale, abs(total))
        if m >= m_star:
            if abs(term) <= stop_factor * scale:
                return complex(total)
            if m_limit is None:
                # |T_j| <= |T_m| r_bar^(j - m) for j >= m, and scale >= 1.
                m_limit = m + math.ceil(math.log(stop_factor / abs(term)) / math.log(r_bar))
            elif m > m_limit:
                raise ConvergenceError(
                    f"2F1 series outlasted its certified {m_limit} terms "
                    f"(params a={a}, b={b}, c={c}, |x|={x_abs})"
                )
        chunk = min(2 * chunk, 16384)


def _terminating_sum(a: complex, b: complex, c: complex, x: float, n: int) -> complex:
    """F(a, b; c; x) for a series that ends after its n + 1 terms, summed exactly.

    A float partial sum that is not finite raises :class:`ConvergenceError`.
    The float sum's relative error is about kappa * eps, with
    kappa = sum |T_m| / |sum T_m| the cancellation of its terms; past
    CANCELLATION_TOL the same terms are summed again in mpmath
    (:func:`_terminating_sum_mp`).
    """
    a, b, c, x = complex(a), complex(b), complex(c), complex(x)
    total = 0.0j
    size = 0.0
    term = 1.0 + 0.0j
    for m in range(n + 1):
        total += term
        size += abs(term)
        if not cmath.isfinite(total):
            raise _non_finite_sum(m + 1, a, b, c, abs(x))
        term *= x * (a + m) * (b + m) / ((c + m) * (m + 1))
    if size * _EPS > CANCELLATION_TOL * abs(total):
        kappa = size / abs(total) if total else math.inf
        return _terminating_sum_mp(a, b, c, x, n, kappa)
    return total


def _terminating_sum_mp(a: complex, b: complex, c: complex, x: complex, n: int, kappa: float) -> complex:
    """The terminating 2F1 sum again, in mpmath, at 17 + log10(kappa) digits or more.

    kappa is estimated again from each mpmath sum.  An estimate that asks for
    more digits than the sum had means the sum was mostly roundoff, and the
    digits are at least doubled; past MAX_RESUM_DPS the sum raises
    :class:`ConvergenceError`.
    """
    dps = 17 + math.ceil(math.log10(kappa)) if math.isfinite(kappa) else 40
    while dps <= MAX_RESUM_DPS:
        with mpmath.workdps(dps):
            ma, mb, mc, mx = (mpmath.mpc(v) for v in (a, b, c, x))
            total = size = mpmath.mpf(0)
            term = mpmath.mpc(1)
            for m in range(n + 1):
                total += term
                size += abs(term)
                term *= mx * (ma + m) * (mb + m) / ((mc + m) * (m + 1))
            need = 17 + int(mpmath.ceil(mpmath.log10(size / abs(total)))) if total != 0 else 2 * dps
            if need <= dps:
                return complex(total)
        dps = max(need, 2 * dps)
    raise ConvergenceError(
        f"terminating 2F1 sum cancels beyond {MAX_RESUM_DPS} digits (params a={a}, b={b}, c={c}, x={x})"
    )


def _termination_order(a: complex, b: complex, c: complex) -> tuple[complex, complex, int | None]:
    """Order (a, b) so that a carries any terminating parameter; return the order."""
    if _is_nonpositive_integer(b) and not _is_nonpositive_integer(a):
        a, b = b, a
    n_exact = None
    if _is_nonpositive_integer(a):
        n_exact = int(-a.real)
        if _is_nonpositive_integer(c) and int(-c.real) < n_exact:
            raise PoleError(
                f"lower parameter c={c} is a nonpositive integer reached before "
                f"the series terminates at {n_exact}"
            )
    elif _is_nonpositive_integer(c):
        raise PoleError(f"lower parameter c={c} is a nonpositive integer")
    return a, b, n_exact


def _gamma_quotient(p: complex, q: complex) -> complex:
    """Gamma(p) / Gamma(q): by math.gamma for real arguments it cannot overflow at, else by :func:`loggamma`."""
    if p.imag == 0.0 and q.imag == 0.0 and max(abs(p.real), abs(q.real)) < 170.0:
        return complex(math.gamma(p.real) / math.gamma(q.real))
    return cmath.exp(loggamma(p) - loggamma(q))


def _connection_sum(a: complex, b: complex, c: float, xi: float) -> complex | None:
    """F(a, b; c; w) from the two series in 1 - xi = 1/(1 - w), or None where that cannot be trusted.

    DLMF 15.8.3 (Abramowitz & Stegun 15.3.8) at z = w, with (1 - w)^(-a) = (1 - xi)^a:

        F(a, b; c; w) = Gamma(c) Gamma(b-a) / (Gamma(b) Gamma(c-a)) (1-xi)^a F(a, c-b; a-b+1; 1-xi)
                        + (a <-> b).

    Gamma(c) / Gamma(c - a) comes from :func:`log_gamma_ratio`.  The sum's
    cancellation ratio kappa = (|T1| + |T2|) / |T1 + T2| is measured; where
    kappa * eps exceeds CANCELLATION_TOL, or the value is not finite, the
    route declines, as it does at a pole of Gamma(b - a) or Gamma(a - b)
    (b - a within 1e-12 of an integer, such as a real pair z = z'): near one,
    kappa grows like 1 / |b - a - n|.
    """
    if _is_nonpositive_integer(b - a, 1e-12) or _is_nonpositive_integer(a - b, 1e-12):
        return None
    x = 1.0 - xi
    log_x = math.log1p(-xi)
    try:
        t1 = (_gamma_quotient(b - a, b) * cmath.exp(a * log_x - log_gamma_ratio(-a, c))
              * _hyp_series(a, c - b, a - b + 1.0, x))
        t2 = (_gamma_quotient(a - b, a) * cmath.exp(b * log_x - log_gamma_ratio(-b, c))
              * _hyp_series(b, c - a, b - a + 1.0, x))
    except ConvergenceError:
        return None
    total = t1 + t2
    if cmath.isfinite(total) and (abs(t1) + abs(t2)) * _EPS <= CANCELLATION_TOL * abs(total):
        return total
    return None


def gauss_2f1_w(a: complex, b: complex, c: complex, xi: float) -> complex:
    """F(a, b; c; w) at the lattice argument w = xi/(xi - 1).

    Terminating cases (a or b a nonpositive integer) are summed exactly and
    directly in w (:func:`_terminating_sum`).  Otherwise, in the window of
    real c with xi >= 0.95 and 0 < c (1 - xi) <= 6 (_CONNECTION_MIN_XI,
    _CONNECTION_MAX_U), the value comes from the two series in 1 - xi
    (:func:`_connection_sum`) when their cancellation ratio passes its gate.
    Every other value comes from the Pfaff transform F(a, b; c; w) =
    (1 - xi)^a F(a, c - b; c; xi), a series in xi in (0, 1) that always
    converges, with about 39 / (1 - xi) terms.  Against 40-digit mpmath the
    values of the first route were within 6e-13 relative on the test grids,
    and at 0.3+8i, xi = 0.999, within 4e-14 where the Pfaff series misses by
    1.4e-4.  A value that is not finite raises :class:`ConvergenceError`.
    """
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    c = complex(c)
    a, b, n_exact = _termination_order(complex(a), complex(b), c)
    if n_exact is not None:
        return _terminating_sum(a, b, c, xi_to_w(xi), n_exact)
    value = None
    if c.imag == 0.0 and xi >= _CONNECTION_MIN_XI and 0.0 < c.real * (1.0 - xi) <= _CONNECTION_MAX_U:
        value = _connection_sum(a, b, c.real, xi)
    if value is None:
        value = cmath.exp(a * math.log1p(-xi)) * _hyp_series(a, c - b, c, xi)
    if not cmath.isfinite(value):
        raise ConvergenceError(f"2F1 value is not finite (params a={a}, b={b}, c={c}, xi={xi})")
    return value


def _reseed_stride(xi: float) -> int:
    """Indices between series re-seeds in :func:`gauss_2f1_columns`.

    Each backward step adds about one rounding error, which the first-order
    form does not amplify, so the error grows at most linearly along a run.
    At stride ~ 1/(1 - xi) the two seeds (series of ~ 1/(1 - xi) terms each)
    cost O(1) per index.
    """
    return max(16, math.ceil(1.0 / (1.0 - xi)))


def gauss_2f1_columns(
    a: complex, b: complex, c0: float, xi: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The columns F(a, b; c; w) and F(a+1, b+1; c+1; w) at c = c0 + k, k = 0..n-1.

    Here w = xi/(xi - 1) < 0, so Re w < 1/2 and F is the minimal solution of
    Gauss's contiguous relation in c (DLMF 15.5.18); running it downward is
    stable (Gil, Segura & Temme, Numerical Methods for Special Functions,
    ch. 4).  The three-term relation is run as the equivalent first-order pair

        F(a, b; c) = F(a, b; c+1) + ab w / (c (c+1)) F(a+1, b+1; c+2),
        F(a+1, b+1; c+1) = (1 - xi) F(a, b; c) + xi (c-a)(c-b) / (c (c+1)) F(a+1, b+1; c+2),

    which carries the difference F(c) - F(c+1) explicitly: as xi -> 1 the two
    solutions of the three-term form grow at nearly the same rate, and there
    a rounding error would be amplified by 1/(1 - xi).  Every
    ``_reseed_stride(xi)`` indices the run restarts from two fresh
    :func:`gauss_2f1_w` values.  ``c0`` must be positive.
    """
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    if c0 <= 0.0:
        raise DomainError(f"the lowest lower parameter must be positive, got {c0}")
    a, b = complex(a), complex(b)
    c = c0 + np.arange(n, dtype=np.float64)
    cc = c * (c + 1.0)
    step_f = (a * b * xi_to_w(xi) / cc).tolist()
    step_g = (xi * (c - a) * (c - b) / cc).tolist()
    one_minus_xi = 1.0 - xi
    f = np.empty(n, dtype=complex)
    g = np.empty(n, dtype=complex)
    stride = _reseed_stride(xi)
    for top in range(n - 1, -1, -stride):
        fk = gauss_2f1_w(a, b, c0 + top, xi)
        gk = gauss_2f1_w(a + 1.0, b + 1.0, c0 + top + 1.0, xi)
        run_f = [fk]
        run_g = [gk]
        for k in range(top - 1, max(top - stride, -1), -1):
            fk = fk + step_f[k] * gk
            gk = one_minus_xi * fk + step_g[k] * gk
            run_f.append(fk)
            run_g.append(gk)
        bottom = top - len(run_f) + 1
        f[bottom : top + 1] = run_f[::-1]
        g[bottom : top + 1] = run_g[::-1]
    return f, g


# ---------------------------------------------------------------------------
# Meixner polynomials


def meixner_polynomial(n: int, k: float, alpha: float, xi: float) -> float:
    """Meixner polynomial of degree n at k, parameters (alpha + 1, xi).

    Terminating hypergeometric sum F(-n, -k; alpha + 1; (xi - 1)/xi); degree n
    in k with leading coefficient ((1 - xi)/xi)^n / (alpha + 1)_n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    x = (xi - 1.0) / xi
    return realize(_terminating_sum(-n, -k, alpha + 1.0, x, n))


def meixner_weight(k: float, alpha: float, xi: float) -> float:
    """Weight (alpha + 1)_k xi^k / k! on the nonnegative integers (Gamma form for real k)."""
    if alpha <= -1.0:
        raise DomainError("alpha must exceed -1")
    lg = (
        math.lgamma(alpha + 1.0 + k)
        - math.lgamma(alpha + 1.0)
        - math.lgamma(k + 1.0)
        + k * math.log(xi)
    )
    return math.exp(lg)


def meixner_norm(n: int, alpha: float, xi: float) -> float:
    """Squared weighted norm h_n = n! / (xi^n (1 - xi)^(alpha+1) (alpha+1)_n)."""
    lg = (
        math.lgamma(n + 1.0)
        - n * math.log(xi)
        - (alpha + 1.0) * math.log1p(-xi)
        - (math.lgamma(alpha + 1.0 + n) - math.lgamma(alpha + 1.0))
    )
    return math.exp(lg)


def meixner_leading_coefficient(n: int, alpha: float, xi: float) -> float:
    """Signed leading coefficient (-1)^n ((1 - xi)/xi)^n / (alpha + 1)_n.

    The sign alternates with the degree (the n = 1 polynomial
    1 + k (xi - 1)/((alpha + 1) xi) already has negative slope).
    """
    lg = n * (math.log1p(-xi) - math.log(xi)) - (
        math.lgamma(alpha + 1.0 + n) - math.lgamma(alpha + 1.0)
    )
    return (-1.0) ** n * math.exp(lg)


# ---------------------------------------------------------------------------
# Whittaker W

# Exp-sinh nodes s = exp(pi sinh(t) / 2) at t = k h, k = -144..72, for the Laplace
# integral of Tricomi's U (:func:`_tricomi_u_start`): s runs from 2e-31 to 1.6e3.
_QUAD_STEP = 1.0 / 32.0
_QUAD_T = np.arange(-144, 73) * _QUAD_STEP
_QUAD_LOG_S = 0.5 * math.pi * np.sinh(_QUAD_T)
_QUAD_S = np.exp(_QUAD_LOG_S)
_QUAD_LOG_WEIGHT = np.log(_QUAD_STEP * 0.5 * math.pi * np.cosh(_QUAD_T)) + _QUAD_LOG_S - _QUAD_S  # log(h e^-s ds/dt)


def _tricomi_u_start(a: complex, b: complex, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U(a + 1, b, x) and U(a, b, x) for Re a >= 1, as the two rows of each result.

    U = x^(-a) / Gamma(a) int_0^inf e^(-s) s^(a-1) (1 + s/x)^(b-a-1) ds (DLMF
    13.4.4, scaled by t = s/x), summed by the trapezoid rule on the exp-sinh
    nodes.  Returns the values, the same sums over the moduli of the terms,
    and the discretization estimate ((sum - coarse sum) / moduli sum)^2, the
    coarse sum taking every other node at twice the step: halving the step
    of a double-exponential sum squares its relative error.
    """
    lg = loggamma(a)
    aa = np.array([a + 1.0, a])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(-aa * np.log(x) - np.array([[lg + cmath.log(a)], [lg]]))
        terms = np.exp(
            (aa[:, :, None] - 1.0) * _QUAD_LOG_S
            + (b - aa[:, :, None] - 1.0) * np.log1p(_QUAD_S / x[:, None])
            + _QUAD_LOG_WEIGHT
        )
        total = terms.sum(axis=-1)
        size = np.abs(terms).sum(axis=-1)
        coarse = 2.0 * terms[..., ::2].sum(axis=-1)
        return factor * total, np.abs(factor) * size, (np.abs(total - coarse) / size) ** 2


def _whittaker_w_mp(kappa: float, mu: complex, x: float) -> complex:
    """W by mpmath's ``whitw`` at 25 digits: the fallback of :func:`whittaker_w`.

    ``whitw`` raises its own working precision against the cancellation of
    its connection terms (about e^x, and more at large |Im mu|), so no
    padding is needed here.  Degenerate 2 mu integer is handled by mpmath's
    internal limit evaluation.
    """
    with mpmath.workdps(25):
        if mu.imag == 0.0:
            v = mpmath.whitw(kappa, mu.real, x)
        else:
            v = mpmath.whitw(kappa, mpmath.mpc(mu.real, mu.imag), x)
        return complex(v)


def whittaker_w(kappa: float, mu: complex, x, count: int | None = None):
    """Whittaker W_(kappa, mu)(x) at x > 0, real for real kappa and real or pure imaginary mu.

    ``x`` may be a number or an array.  With ``count``, the run
    W_(kappa + j, mu)(x), j = 0..count-1, fills a last axis of that length;
    without it a number x gives a float.

    W = e^(-x/2) x^(mu + 1/2) U(1/2 + mu - kappa, 1 + 2 mu, x) (DLMF 13.14.3),
    with Re mu >= 0 taken from +-mu (W is even in mu).  Tricomi's U comes from
    two quadrature values at Re a >= 1 (:func:`_tricomi_u_start`) and the
    recurrence U(a - 1) = (2a + x - b) U(a) + a (b - a - 1) U(a + 1) (DLMF
    13.3.7) run downward, the stable direction for U (Temme, Numer. Math. 41,
    1983); it passes through a = -N, where U is a polynomial.  Beside each
    value the recurrence carries the same sum over the moduli of the terms,
    so its cancellation ratio (moduli sum / |value|, the kappa of
    :func:`_terminating_sum`) is measured.  A value whose ratio times
    (eps + discretization estimate) exceeds CANCELLATION_TOL, or that is not
    finite, comes from mpmath instead (:func:`_whittaker_w_mp`).  Against
    40-digit mpmath the float route is within 1e-13 relative on the grids of
    the test suite.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    xs = x_arr.ravel()
    if xs.size and not xs.min() > 0.0:
        raise DomainError(f"x must be positive, got {xs.min()}")
    mu = complex(mu)
    if abs(mu.real) > 1e-12 and abs(mu.imag) > 1e-12:
        raise DomainError("mu must be real or pure imaginary")
    if mu.real < 0.0 or (mu.real == 0.0 and mu.imag < 0.0):
        mu = -mu
    runs = 1 if count is None else count
    if runs < 1:
        raise ValueError(f"count must be positive, got {count}")
    b = 1.0 + 2.0 * mu
    a0 = 0.5 + mu - kappa  # U's first parameter at W_(kappa, mu)
    lift = max(0, math.ceil(1.0 - a0.real))  # steps from the quadrature start down to a0
    start, start_size, start_disc = _tricomi_u_start(a0 + lift, b, xs)
    u_run = np.empty((xs.size, runs), dtype=complex)
    size_run = np.empty((xs.size, runs))
    for i, xv in enumerate(xs.tolist()):
        (u_up, u), (s_up, s) = start[:, i].tolist(), start_size[:, i].tolist()
        us, ss = [u], [s]
        for k in range(lift + runs - 1):
            a = a0 + (lift - k)
            c0, c1 = 2.0 * a + xv - b, a * (b - a - 1.0)
            u_up, u = u, c0 * u + c1 * u_up
            s_up, s = s, abs(c0) * s + abs(c1) * s_up
            us.append(u)
            ss.append(s)
        u_run[i] = us[lift:]
        size_run[i] = ss[lift:]
    values = (np.exp(-0.5 * xs) * np.exp((mu + 0.5) * np.log(xs)))[:, None] * u_run
    with np.errstate(divide="ignore", invalid="ignore"):
        error = size_run / np.abs(u_run) * (_EPS + start_disc.max(axis=0)[:, None])
    for i, j in zip(*np.nonzero(~(error <= CANCELLATION_TOL))):
        values[i, j] = _whittaker_w_mp(kappa + j, mu, float(xs[i]))
    out = realize_array(values)
    if count is None:
        return float(out[0, 0]) if x_arr.ndim == 0 else out[:, 0].reshape(x_arr.shape)
    return out.reshape(x_arr.shape + (runs,))
