"""Special-function primitives for the lattice kernels.

The centrepiece is the Gauss hypergeometric function evaluated at the lattice
argument w = xi/(xi - 1) with xi in (0, 1).  Since |w| is unbounded as xi
approaches 1, every evaluation is routed through the Pfaff transform

    F(a, b; c; w) = (1 - w)^(-a) F(a, c - b; c; w/(w - 1)),

whose argument w/(w - 1) equals xi, so the transformed series converges at
geometric rate xi for every parameter set used here.  Sums are chunked, and
the stopping rule carries a certified geometric tail bound.  Single points use
this series.  A whole column F(a, b; c0 + k; w), k = 0..n-1, comes from a
backward recurrence in c seeded by series values (:func:`gauss_2f1_columns`),
so it costs O(n) instead of O(n / (1 - xi)).

Also provided: Pochhammer symbols, Meixner polynomials with their weight and
norm constants, and the Whittaker W function (backed by mpmath under raised
working precision, since the confluent connection terms cancel like e^x).
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
from scipy import special as _sp

MAX_SERIES_TERMS = 400_000
SERIES_TOL = 1e-17
REALIZE_TOL = 1e-9


class RealizationError(ArithmeticError):
    """A value expected to be real kept a non-negligible imaginary part."""


class PoleError(ValueError):
    """Evaluation requested at (or too close to) a pole of the function."""


class ConvergenceError(RuntimeError):
    """A series failed to meet its tail tolerance within the term cap."""


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


def pochhammer(a: complex, k: int) -> complex:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = complex(1.0)
    for j in range(k):
        out *= a + j
    return out


def loggamma(z):
    """Principal log Gamma of a complex scalar, or entrywise of an array."""
    if isinstance(z, np.ndarray):
        return _sp.loggamma(np.asarray(z, dtype=complex))
    return complex(_sp.loggamma(complex(z)))


def digamma(z: complex) -> complex:
    return complex(_sp.digamma(complex(z)))


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
    """First index from which the term ratio of the 2F1 series is provably <= (1 + |x|)/2.

    ``delta`` must bound |b - c| for the series F(a, b; c; x).  The ratio of
    consecutive terms is x (a+m)(b+m) / ((c+m)(1+m)); for m at least the
    returned index, |(a+m)/(1+m)| <= 1 + |a|/m and |(b+m)/(c+m)| <= 1 +
    delta/(m - C0) with C0 = max(0, -Re c), and both excess factors are kept
    below a third of the allowed slack.
    """
    eps = min((1.0 - x_abs) / (2.0 * x_abs), 3.0) if x_abs > 0 else 3.0
    c0 = max(0.0, -complex(c).real)
    m1 = 3.0 * abs(a) / eps
    m2 = c0 + 3.0 * delta / eps
    return max(2, int(math.ceil(m1)), int(math.ceil(m2)), int(math.ceil(c0)) + 2)


def _hyp_series(
    a: complex,
    b: complex,
    c: complex,
    x: complex,
    tol: float,
    max_terms: int,
    n_exact: int | None = None,
    with_c_derivative: bool = False,
) -> complex:
    """Sum the 2F1 series in x with a certified geometric tail bound.

    When ``n_exact`` is given the series is known to terminate after
    n_exact + 1 terms and is summed exactly.  With ``with_c_derivative`` the
    sum of term * (psi0(b+m) - psi0(b) - psi0(c+m) + psi0(c)) is returned
    instead, which is the c-derivative when b itself is c plus a constant.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    x = complex(x)
    x_abs = abs(x)
    if n_exact is None and x_abs >= 1.0:
        raise DomainError(f"series argument |x| = {x_abs} >= 1 cannot converge")

    if with_c_derivative:
        dig_b0 = digamma(b)
        dig_c0 = digamma(c)

    if n_exact is not None:
        # Exact finite sum; no convergence machinery needed.
        total = 0.0j
        term = 1.0 + 0.0j
        for m in range(n_exact + 1):
            if with_c_derivative:
                total += term * (digamma(b + m) - dig_b0 - digamma(c + m) + dig_c0)
            else:
                total += term
            term *= x * (a + m) * (b + m) / ((c + m) * (m + 1))
        return total

    r_bar = 0.5 * (1.0 + x_abs)
    stop_factor = tol * (1.0 - r_bar) / r_bar
    m_star = _series_start_index(a, abs(b - c), c, x_abs)

    total = 1.0 + 0.0j if not with_c_derivative else 0.0j
    scale = 1.0
    term = 1.0 + 0.0j
    m = 0
    chunk = 64
    while m < max_terms:
        size = min(chunk, max_terms - m)
        ms = np.arange(m, m + size, dtype=np.float64)
        ratios = x * (a + ms) * (b + ms) / ((c + ms) * (ms + 1.0))
        terms = term * np.cumprod(ratios)  # T_{m+1} .. T_{m+size}
        if with_c_derivative:
            factors = (
                _sp.digamma(b + ms + 1.0)
                - dig_b0
                - _sp.digamma(c + ms + 1.0)
                + dig_c0
            )
            total += np.sum(terms * factors)
        else:
            total += np.sum(terms)
        term = complex(terms[-1])
        m += size
        scale = max(scale, abs(total))
        if m >= m_star and abs(term) <= stop_factor * scale:
            return complex(total)
        chunk = min(2 * chunk, 16384)
    raise ConvergenceError(
        f"2F1 series did not converge within {max_terms} terms "
        f"(params a={a}, b={b}, c={c}, |x|={x_abs})"
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


def gauss_2f1_w(
    a: complex,
    b: complex,
    c: complex,
    xi: float,
    tol: float = SERIES_TOL,
    max_terms: int = MAX_SERIES_TERMS,
) -> complex:
    """F(a, b; c; w) at the lattice argument w = xi/(xi - 1), via the Pfaff transform.

    The transformed series runs in the argument xi in (0, 1) and always
    converges; terminating cases (a or b a nonpositive integer) are summed
    exactly.
    """
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    a, b, n_exact = _termination_order(complex(a), complex(b), complex(c))
    s = _hyp_series(a, complex(c) - b, complex(c), xi, tol, max_terms, n_exact=n_exact)
    return cmath.exp(a * math.log1p(-xi)) * s


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


def gauss_2f1_w_dc(
    a: complex,
    b: complex,
    c: complex,
    xi: float,
    tol: float = SERIES_TOL,
    max_terms: int = MAX_SERIES_TERMS,
) -> complex:
    """Derivative in the lower parameter c of F(a, b; c; xi/(xi-1)).

    Obtained by term-wise differentiation of the Pfaff-transformed series; c
    enters both the (c - b)_m and (c)_m factors, so each term picks up
    psi0(c-b+m) - psi0(c-b) - psi0(c+m) + psi0(c).
    """
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    a, b, n_exact = _termination_order(complex(a), complex(b), complex(c))
    bb = complex(c) - b
    if _is_nonpositive_integer(bb) or _is_nonpositive_integer(complex(c)):
        raise PoleError(
            "c-derivative undefined here: a digamma factor sits at a nonpositive integer"
        )
    s = _hyp_series(
        a, bb, complex(c), xi, tol, max_terms, n_exact=n_exact, with_c_derivative=True
    )
    return cmath.exp(a * math.log1p(-xi)) * s


def gauss_2f1_direct(
    a: complex,
    b: complex,
    c: complex,
    x: complex,
    tol: float = SERIES_TOL,
    max_terms: int = MAX_SERIES_TERMS,
) -> complex:
    """Plain power series for F(a, b; c; x), |x| < 1 (or terminating).

    Kept as an independent summation route for cross-checking the Pfaff path.
    """
    a, b, n_exact = _termination_order(complex(a), complex(b), complex(c))
    return _hyp_series(a, b, complex(c), complex(x), tol, max_terms, n_exact=n_exact)


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
    s = _hyp_series(complex(-n), complex(-k), complex(alpha + 1.0), x, SERIES_TOL, 0, n_exact=n)
    return realize(s)


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


def whittaker_w(kappa: float, mu: complex, x: float) -> float:
    """Whittaker W function, real for real kappa and real or pure imaginary mu.

    Evaluated through the confluent connection in arbitrary precision
    (mpmath), with the working precision padded by ~0.44 digits per unit of x
    because the two connection terms cancel like e^x.  Degenerate 2*mu integer
    is handled by mpmath's internal limit evaluation.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    mu = complex(mu)
    if abs(mu.real) > 1e-12 and abs(mu.imag) > 1e-12:
        raise DomainError("mu must be real or pure imaginary")
    dps = 25 + int(0.46 * x) + int(2.0 * abs(mu.imag))
    with mpmath.workdps(dps):
        if mu.imag == 0.0:
            v = mpmath.whitw(kappa, mu.real, x)
        else:
            v = mpmath.whitw(kappa, mpmath.mpc(mu.real, mu.imag), x)
        value = complex(v)
    return realize(value, tol=1e-9)
