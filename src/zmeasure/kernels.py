"""Correlation kernels on the half-integer lattice and their continuum limit.

The determinantal process attached to the grand ensemble is generated by a
block-antidiagonal operator L built from the positive weights psi(+/-, k) and
the Cauchy-type matrix W(k, l) = 1/(k+l+1).  Its correlation kernel
K = L(1+L)^(-1) is a discrete integrable operator: in signed coordinates one
identity holds on all four blocks, (x - y) K(x, y) = f(x) . g(y), with
f = (P, Q), g = (Q, -P) at positive points and f = (Q, -P), g = (P, Q) at
negative ones (:func:`_generators`).  P and Q are normalized hypergeometric
functions; the Whittaker kernel, the continuum limit, has the same form in
Whittaker functions.  :func:`_kernel_values` assembles every lattice value
from (sqrt(psi), P, Q) at its points: from the function table for blocks and
any request with a same-point entry, else from :func:`_point` once per point.

Index convention, fixed once: the positive point k + 1/2 corresponds to row or
column k of the '++' block, the negative point -(k + 1/2) to index k of the
'--' block.

Point values (:func:`psi`, :func:`rs`, :func:`pq`, :func:`_point`) take
each hypergeometric factor from :func:`gauss_2f1_w`: where xi >= 0.95 and
its lower parameter c = u + 1 or u + 2 has c (1 - xi) <= 6, from two short
series in 1 - xi when their cancellation ratio passes its gate, and
otherwise from one Pfaff series of about 39 / (1 - xi) terms.  Whole blocks come from a :class:`FunctionTable`,
whose hypergeometric columns are point-value seeds plus a backward
recurrence in the lower parameter (:func:`gauss_2f1_columns`), so a table
costs O(size) rather than O(size / (1 - xi)).  Both routes take
sqrt(psi) as exp(log(psi) / 2) and never divide by it, so P and Q stay
finite where psi underflows.  Every truncation stops on a certificate, not
on a fixed count: each series on its geometric tail bound, each table and
transform TABLE_MARGIN rows past :func:`decay_certificate`.  So tables and
blocks reach xi = 0.9999 (about 480000 rows) and single entries xi = 0.99999.

Diagonal entries of the '++' and '--' blocks are defined by a removable
singularity; they come from the convergent series of the product form of the
block (K++ = CD, K-- = DC), evaluated at the requested indices only
(:func:`_diagonal`).  The operator suite checks them against the derivative
of the integrable form, with its 2F1 values and their derivatives taken in
mpmath.  The Whittaker kernel takes W in floats (:func:`whittaker_w`, which
turns to mpmath only for a value whose cancellation ratio asks for it): P
and Q at a point come from one run of W, and the Whittaker diagonal, the
closed derivative of the integrable form, from one run of three.

Meixner-mode parameters (z = N + alpha, z' = N) expose only the '++' block of
the lattice kernel and only positive points of the continuum kernel; every
other request raises AdmissibilityError (:func:`_require_meixner_block`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measures import AdmissibilityError, GrandParams, ZParams
from .partitions import half_integer_index
from .specfun import (
    DomainError,
    PoleError,
    _is_nonpositive_integer,
    gauss_2f1_columns,
    gauss_2f1_w,
    log_gamma_ratio,
    log_gamma_ratio_column,
    loggamma,
    meixner_norm,
    meixner_polynomial,
    meixner_weight,
    realize,
    realize_array,
    whittaker_w,
)

BLOCKS = ("++", "+-", "-+", "--")

DECAY_CERTIFICATE_RATIO = 1e-16
TABLE_MARGIN = 40  # table rows kept past the decay certificate


def _sign(sign) -> int:
    if sign in (1, +1, "+", "++"):
        return 1
    if sign in (-1, "-", "--"):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _block_signs(block: str) -> tuple[int, int]:
    """The signs of the row and column half-lines of a block name such as '+-'."""
    if block not in BLOCKS:
        raise ValueError(f"block must be one of {BLOCKS}")
    return _sign(block[0]), _sign(block[1])


def _require_meixner_block(zp: ZParams, sx: int, sy: int) -> None:
    """Raise AdmissibilityError for meixner-mode parameters unless both signs are positive."""
    if zp.meixner_mode and not (sx > 0 and sy > 0):
        raise AdmissibilityError("meixner-mode parameters expose only the '++' block")


def _log_psi_offset(sign: int, gp: GrandParams) -> complex:
    """The index-free terms of log psi: log t / 2 + s (z + z') log(1 - xi) - lg(1 + sz) - lg(1 + sz')."""
    zp = gp.zp
    return (
        0.5 * math.log(zp.t)
        + sign * zp.z_sum * math.log1p(-gp.xi)
        - loggamma(1 + sign * zp.z)
        - loggamma(1 + sign * zp.z_prime)
    )


def _log_psi(sign: int, u: float, gp: GrandParams) -> complex:
    """log psi(sign, u); the imaginary part carries the sign of psi.

    The terms that grow with u, lg(u+1+sz) + lg(u+1+sz') - 2 lg(u+1), are
    taken as the two ratios lg(u+1+a) - lg(u+1) at a = sz, sz'
    (:func:`log_gamma_ratio`).  As differences of log-gamma values of size
    u log u they lost about u log u roundoffs: 4.1e-11 at u = 2e4 and 1.9e-9
    at u = 5e5 for (1/2, 1/3), against about 1e-15 as ratios.
    """
    zp = gp.zp
    return (
        _log_psi_offset(sign, gp)
        + (u + 0.5) * math.log(gp.xi)
        + log_gamma_ratio(sign * zp.z, u + 1.0)
        + log_gamma_ratio(sign * zp.z_prime, u + 1.0)
    )


def _log_psi_column(sign: int, n: int, gp: GrandParams) -> np.ndarray:
    """:func:`_log_psi` at u = 0..n-1, its ratios from :func:`log_gamma_ratio_column`."""
    zp = gp.zp
    return (
        _log_psi_offset(sign, gp)
        + (np.arange(n, dtype=np.float64) + 0.5) * math.log(gp.xi)
        + log_gamma_ratio_column(sign * zp.z, 1.0, n)
        + log_gamma_ratio_column(sign * zp.z_prime, 1.0, n)
    )


def _log_psi_checked(sign: int, u: float, gp: GrandParams) -> complex:
    """:func:`_log_psi` at one point, after a check that no gamma argument is a pole."""
    for v in (u + 1 + sign * gp.zp.z, u + 1 + sign * gp.zp.z_prime, u + 1):
        if _is_nonpositive_integer(v, tol=1e-12):
            raise PoleError(f"gamma argument {complex(v).real} is a nonpositive integer")
    return _log_psi(sign, u, gp)


def _meixner_psi_minus(u: float, gp: GrandParams) -> float:
    # (1 - z')_k hits zero at integer z'; use the finite product, which is
    # the continuous extension (identically zero beyond k = z').
    zp = gp.zp
    if u < 0 or u != int(u):
        raise DomainError("meixner-mode psi(-) is defined on nonnegative integers only")
    k = int(u)
    prod = complex(1.0)
    for j in range(k):
        prod *= (1 - zp.z + j) * (1 - zp.z_prime + j) / ((j + 1) * (j + 1))
    scale = math.sqrt(zp.t) * gp.xi ** (k + 0.5) * (1.0 - gp.xi) ** (-zp.z_sum)
    return realize(scale * prod)


def psi(sign, u: float, gp: GrandParams) -> float:
    """Weight psi(+/-, u) = t^(1/2) xi^(u+1/2) (1-xi)^(+-(z+z')) * Gamma ratios.

    Strictly positive at u >= 0 for admissible parameters; meromorphic in u.
    """
    s = _sign(sign)
    if gp.zp.meixner_mode and s < 0:
        return _meixner_psi_minus(float(u), gp)
    return realize(np.exp(_log_psi_checked(s, float(u), gp)))


def _hg(sign: int, u: float, gp: GrandParams) -> tuple[float, float]:
    """The hypergeometric factors (H, G): (R, S) = psi (H, G) and (P, Q) = sqrt(psi) (H, G)."""
    zp = gp.zp
    xi = gp.xi
    h = realize(gauss_2f1_w(-sign * zp.z, -sign * zp.z_prime, u + 1.0, xi))
    f2 = realize(gauss_2f1_w(1 - sign * zp.z, 1 - sign * zp.z_prime, u + 2.0, xi))
    return h, math.sqrt(zp.t * xi) / (1.0 - xi) * f2 / (u + 1.0)


def rs(sign, u: float, gp: GrandParams) -> tuple[float, float]:
    """The pair (R, S) at u: psi times bounded hypergeometric factors.

    Both decay exponentially as u grows, at the geometric rate xi.
    """
    s = _sign(sign)
    p = psi(s, u, gp)
    if p == 0.0:
        return 0.0, 0.0
    h, g = _hg(s, float(u), gp)
    return p * h, p * g


def _point(sign: int, u: float, gp: GrandParams) -> tuple[float, float, float]:
    """(sqrt(psi), P, Q) at one point, the row a :class:`FunctionTable` holds there; needs psi > 0.

    sqrt(psi) is exp(log(psi) / 2), so P = sqrt(psi) H and Q = sqrt(psi) G
    stay finite and nonzero where psi itself underflows.
    """
    if gp.zp.meixner_mode and sign < 0:
        p = psi(sign, u, gp)
        if p <= 0.0:
            raise DomainError(f"psi(-, {u}) is not positive")
        root = math.sqrt(p)
    else:
        lp = _log_psi_checked(sign, u, gp)
        if realize(cmath.exp(1j * lp.imag)) <= 0.0:
            raise DomainError(f"psi({'+' if sign > 0 else '-'}, {u}) is not positive")
        root = math.exp(0.5 * lp.real)
    h, g = _hg(sign, u, gp)
    return root, root * h, root * g


def pq(sign, u: float, gp: GrandParams) -> tuple[float, float]:
    """Normalized pair (P, Q) = (R, S) / sqrt(psi) = sqrt(psi) (H, G) at one point (:func:`_point`)."""
    return _point(_sign(sign), float(u), gp)[1:]


@lru_cache(maxsize=256)
def decay_certificate(gp: GrandParams) -> int:
    """Smallest index m with psi(+,m) and psi(-,m) below DECAY_CERTIFICATE_RATIO * psi(.,0).

    Runs the exact one-step recurrence of psi in log space, so no Gamma
    evaluations are needed and nothing under- or overflows, over chunks of
    indices: the first sized by where xi^m alone falls below the ratio, at
    most 2^16.  A factor that vanishes (psi(-) of meixner-mode parameters,
    zero beyond z') drops its log weight to -inf for good.  Beyond this index
    matrix truncation tails are negligible.
    """
    zp = gp.zp
    z, z_prime, xi = zp.z, zp.z_prime, gp.xi
    log_ratio = math.log(DECAY_CERTIFICATE_RATIO)
    size = min(max(64, math.ceil(log_ratio / math.log(xi))), 1 << 16)
    log_plus = log_minus = 0.0  # log psi(., start) / psi(., 0)
    start = 0
    while True:
        k1 = np.arange(start + 1, start + size + 1, dtype=np.float64)
        denom = k1 * k1
        with np.errstate(divide="ignore"):
            steps_plus = np.log(np.abs(xi * (k1 + z) * (k1 + z_prime)) / denom)
            steps_minus = np.log(np.abs(xi * (k1 - z) * (k1 - z_prime)) / denom)
        cum_plus = log_plus + np.cumsum(steps_plus)  # log ratios at start+1 .. start+size
        cum_minus = log_minus + np.cumsum(steps_minus)
        hit = np.flatnonzero((cum_plus < log_ratio) & (cum_minus < log_ratio))
        if hit.size:
            return start + 1 + int(hit[0])
        log_plus, log_minus = cum_plus[-1], cum_minus[-1]
        start += size


@dataclass(frozen=True)
class FunctionTable:
    """sqrt(psi), P and Q at k = 0..size-1 for both signs; R and S follow from them."""

    gp: GrandParams
    size: int
    root_plus: np.ndarray
    root_minus: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    q_plus: np.ndarray
    q_minus: np.ndarray

    def columns(self, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The R, S, P and Q columns of one sign, with R = sqrt(psi) P and S = sqrt(psi) Q."""
        if sign > 0:
            root, p, q = self.root_plus, self.p_plus, self.q_plus
        else:
            root, p, q = self.root_minus, self.p_minus, self.q_minus
        return p * root, q * root, p, q

    def at(self, signs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """(sqrt(psi), P, Q) at the points (signs, ks), as three rows: the table's :func:`_point`."""
        pos = signs > 0
        pairs = ((self.root_plus, self.root_minus), (self.p_plus, self.p_minus), (self.q_plus, self.q_minus))
        return np.array([np.where(pos, plus[ks], minus[ks]) for plus, minus in pairs])

    @classmethod
    def build(cls, gp: GrandParams, size: int | None = None) -> "FunctionTable":
        """Tabulate both signs at k = 0..max(size, decay index + TABLE_MARGIN) - 1.

        log psi comes from :func:`_log_psi_column`, whose gamma ratios are
        sums of Log(1 + a/x) steps down blocks of rows under a Stirling ratio
        at each block's top (:func:`log_gamma_ratio_column`); they agree with
        the point route's :func:`_log_psi` to rounding, not bit for bit.  The
        hypergeometric factors come from
        :func:`gauss_2f1_columns`.  P and Q are sqrt(psi) = exp(log(psi) / 2)
        times those factors, and :meth:`columns` gives R, S as sqrt(psi)
        times P, Q: nothing divides by sqrt(psi), so psi may underflow to 0
        while P and Q stay accurate.
        """
        zp = gp.zp
        if zp.meixner_mode:
            raise AdmissibilityError("function tables need admissible (non-degenerate) parameters")
        n = _table_rows(gp, size)
        xi = gp.xi
        k = np.arange(n, dtype=np.float64)
        g_scale = math.sqrt(zp.t * xi) / (1.0 - xi) / (k + 1.0)
        cols = []
        for s in (1, -1):
            log_psi = _log_psi_column(s, n, gp)
            phase = realize_array(np.exp(1j * log_psi.imag))
            root = np.exp(0.5 * log_psi.real)
            if not ((phase > 0.0).all() and (root > 0.0).all() and np.isfinite(root).all()):
                raise ArithmeticError("sqrt(psi) table must be positive and finite")
            h, f2 = gauss_2f1_columns(-s * zp.z, -s * zp.z_prime, 1.0, xi, n)
            p = root * realize_array(h)
            q = root * g_scale * realize_array(f2)
            if not (np.isfinite(p).all() and np.isfinite(q).all()):
                raise ArithmeticError("P/Q table must be finite")
            cols.append((root, p, q))
        (root_p, p_p, q_p), (root_m, p_m, q_m) = cols
        return cls(gp, n, root_p, root_m, p_p, p_m, q_p, q_m)


def _table_rows(gp: GrandParams, size: int | None) -> int:
    return max(size or 0, decay_certificate(gp) + TABLE_MARGIN)


@lru_cache(maxsize=16)
def _cached_table(gp: GrandParams, rows: int) -> FunctionTable:
    return FunctionTable.build(gp, rows)


def function_table(gp: GrandParams, size: int | None = None) -> FunctionTable:
    """The cached table with at least ``size`` rows and TABLE_MARGIN rows past the decay index.

    The cache key is the row count actually built, so every request that
    needs no more than the default rows shares one table.
    """
    return _cached_table(gp, _table_rows(gp, size))


# ---------------------------------------------------------------------------
# The L operator


def l_entry(x, y, gp: GrandParams) -> float:
    """Entry of the block-antidiagonal operator L at half-integer points x, y.

    Zero on same-sign pairs; sqrt(psi+ psi-)/(k+l+1) on the '+-' block and its
    negative transpose on the '-+' block, making L real and J-symmetric.
    """
    sx, k = half_integer_index(x)
    sy, l = half_integer_index(y)
    if sx == sy:
        return 0.0
    return sx * math.sqrt(psi(sx, k, gp) * psi(sy, l, gp)) / (k + l + 1.0)


def l_matrix(gp: GrandParams, trunc: int) -> np.ndarray:
    """Truncated L as a 2N x 2N array: rows/cols 0..N-1 positive, N..2N-1 negative."""
    tbl = function_table(gp, trunc)
    root_p = tbl.root_plus[:trunc]
    root_m = tbl.root_minus[:trunc]
    k = np.arange(trunc)
    w = 1.0 / (k[:, None] + k[None, :] + 1.0)
    a = root_p[:, None] * w * root_m[None, :]
    out = np.zeros((2 * trunc, 2 * trunc))
    out[:trunc, trunc:] = a
    out[trunc:, :trunc] = -a.T
    return out


# ---------------------------------------------------------------------------
# The hypergeometric kernel


DIAG_BUDGET = 1 << 18  # most entries per weight matrix in _diag_sums


def _diag_sums(ks: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows [sum_j r(j) / (k+j+1)^2, sum_j s(j) / (k+j+1)^2] for k in ``ks``, over the columns r and s.

    Each row is a sum of its own, so an entry does not depend on which other
    indices are asked for (a matrix product's does, through the BLAS tiling).
    The weights are formed a chunk of rows at a time, each of at most
    DIAG_BUDGET entries (2 MB) or one row, so memory stays bounded however
    many indices are asked for and however long the columns are; a block of
    100 rows over a table of 2600 rows or fewer is one chunk.
    """
    j = np.arange(len(r))
    out = np.empty((len(ks), 2))
    rows = max(1, DIAG_BUDGET // len(r))
    for start in range(0, len(ks), rows):
        weights = 1.0 / (ks[start:start + rows, None] + j[None, :] + 1.0) ** 2
        out[start:start + rows, 0] = (weights * r).sum(axis=1)
        out[start:start + rows, 1] = (weights * s).sum(axis=1)
    return out


def _diagonal(sign: int, ks: np.ndarray, r, s, gp: GrandParams, tbl: FunctionTable | None) -> np.ndarray:
    """K(x, x) at the points sign (k + 1/2), k in ``ks`` only, from R and S there: the product series
    sum_j [R_s(k) R_(-s)(j) + S_s(k) S_(-s)(j)] / (k+j+1)^2 of K++ = CD and K-- = DC, over ``tbl``,
    or in meixner mode (``tbl`` None) over j < z', where psi(-) vanishes beyond.
    """
    if gp.zp.meixner_mode:
        other = np.array([rs(-sign, j, gp) for j in range(int(gp.zp.z_prime.real))]).reshape(-1, 2).T
    else:
        other = tbl.columns(-sign)[:2]
    sums = _diag_sums(ks, *other)
    return r * sums[:, 0] + s * sums[:, 1]


def _generators(s, p, q):
    """(f, g) = ((P, Q), (Q, -P)) at s > 0 and ((Q, -P), (P, Q)) at s < 0; numbers or arrays."""
    pos = np.greater(s, 0)
    return (np.where(pos, p, q), np.where(pos, q, -p)), (np.where(pos, q, p), np.where(pos, -p, q))


def _assemble(x, f, y, g):
    """f(x) . g(y) / (x - y) at signed abscissae, numbers or arrays; 0/0 where x = y."""
    with np.errstate(invalid="ignore"):
        return (np.multiply.outer(f[0], g[0]) + np.multiply.outer(f[1], g[1])) / np.subtract.outer(x, y)


def _half_line(sign: int, n: int) -> np.ndarray:
    """The points sign (k + 1/2), k = 0..n-1, as (sign, index) rows."""
    return np.column_stack((np.full(n, sign), np.arange(n)))


def _kernel_values(rows, cols, gp: GrandParams, tbl: FunctionTable | None = None) -> np.ndarray:
    """K between two lists of (sign, index) points: every lattice kernel value comes from here.

    :func:`_assemble` over the generators, and :func:`_diagonal` at a point both lists hold.
    sqrt(psi), P and Q come from ``tbl``; without one, from the cached table if a point is in
    both lists (its diagonal sums over it), else (and in meixner mode) from :func:`_point`, once each.
    """
    sx, kx = np.asarray(rows, dtype=np.int64).reshape(-1, 2).T
    sy, ky = np.asarray(cols, dtype=np.int64).reshape(-1, 2).T
    _require_meixner_block(gp.zp, sx.min(initial=1), sy.min(initial=1))
    x, y = sx * (kx + 0.5), sy * (ky + 0.5)
    same = np.equal.outer(x, y)
    if tbl is None and not gp.zp.meixner_mode and same.any():
        tbl = function_table(gp, int(max(kx.max(), ky.max())) + 1)
    if tbl is None:
        points = list(zip(np.concatenate((sx, sy)).tolist(), np.concatenate((kx, ky)).tolist()))
        at = {(s, k): _point(s, float(k), gp) for s, k in dict.fromkeys(points)}
        values = np.array([at[point] for point in points]).reshape(-1, 3).T
        fx, fy = values[:, :len(sx)], values[:, len(sx):]
    else:
        fx, fy = tbl.at(sx, kx), tbl.at(sy, ky)
    f, _ = _generators(sx, *fx[1:])
    _, g = _generators(sy, *fy[1:])
    entries = _assemble(x, f, y, g)
    i, j = np.nonzero(same)
    for sign in (1, -1):
        on = sx[i] == sign
        if on.any():
            root, p, q = fx[:, i[on]]
            entries[i[on], j[on]] = _diagonal(sign, kx[i[on]], root * p, root * q, gp, tbl)
    return entries


def hyper_kernel(x, y, gp: GrandParams) -> float:
    """The correlation kernel K(x, y) at half-integer points (:func:`_kernel_values`)."""
    return float(_kernel_values([half_integer_index(x)], [half_integer_index(y)], gp)[0, 0])


@dataclass(frozen=True)
class KernelBlock:
    """A truncated kernel block with its sign pair and parameters."""

    block: str
    trunc: int
    params: GrandParams
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.block not in BLOCKS:
            raise ValueError(f"block must be one of {BLOCKS}")
        if self.block in ("++", "--"):
            sym = np.max(np.abs(self.entries - self.entries.T))
            if sym > 1e-12:
                raise ArithmeticError(f"{self.block} block not symmetric: {sym}")

    def to_json(self) -> dict:
        zp = self.params.zp
        return {
            "schema": "zmeasure.kernel/1",
            "block": self.block,
            "trunc": self.trunc,
            "z": [zp.z.real, zp.z.imag],
            "z_prime": [zp.z_prime.real, zp.z_prime.imag],
            "xi": self.params.xi,
            "entries": self.entries.tolist(),
        }


def kernel_block_matrix(gp: GrandParams, block: str, trunc: int) -> KernelBlock:
    """A truncated kernel block from the function table (the point route in meixner mode); trunc >= 1."""
    sx, sy = _block_signs(block)
    if trunc < 1:
        raise DomainError(f"trunc must be at least 1, got {trunc}")
    tbl = None if gp.zp.meixner_mode else function_table(gp, trunc)
    entries = _kernel_values(_half_line(sx, trunc), _half_line(sy, trunc), gp, tbl)
    return KernelBlock(block, trunc, gp, entries)


def kernel_matrix(gp: GrandParams, trunc: int) -> np.ndarray:
    """Full 2N x 2N kernel in the same index layout as :func:`l_matrix`, in one pass."""
    _require_meixner_block(gp.zp, -1, -1)
    points = np.concatenate((_half_line(1, trunc), _half_line(-1, trunc)))
    return _kernel_values(points, points, gp, function_table(gp, trunc))


# ---------------------------------------------------------------------------
# Series transforms


def rhat_shat(sign, u: float, gp: GrandParams) -> tuple[float, float]:
    """The sums Rhat(u) = sum_k R(k)/(u+k+1) and likewise Shat(u).

    The terms decay at the geometric rate xi, and the sums run over the
    function table, which ends TABLE_MARGIN rows past the decay certificate;
    u must stay away from the poles at the negative integers -1, -2, ...
    """
    s = _sign(sign)
    if u <= -0.5 and abs(u - round(u)) < 1e-8:
        raise PoleError(f"u = {u} is within 1e-8 of a pole of the transform")
    tbl = function_table(gp)
    k = np.arange(tbl.size)
    denom = u + k + 1.0
    if np.any(np.abs(denom) < 1e-8):
        raise PoleError(f"u = {u} is within 1e-8 of a pole of the transform")
    r_arr, s_arr = tbl.columns(s)[:2]
    return float(np.sum(r_arr / denom)), float(np.sum(s_arr / denom))


# ---------------------------------------------------------------------------
# Meixner kernel


def meixner_kernel(big_n: int, alpha: float, xi: float, k: int, l: int) -> float:
    """Rank-N projection kernel for Meixner polynomials on l^2, as the sum over degrees < N.

    The meixner suite checks it against the two-term Christoffel-Darboux form.
    """
    if big_n < 1:
        raise ValueError("the projection rank must be positive")
    root = math.sqrt(meixner_weight(k, alpha, xi) * meixner_weight(l, alpha, xi))
    total = 0.0
    for n in range(big_n):
        total += (
            meixner_polynomial(n, k, alpha, xi)
            * meixner_polynomial(n, l, alpha, xi)
            / meixner_norm(n, alpha, xi)
        )
    return total * root


def meixner_kernel_matrix(big_n: int, alpha: float, xi: float, size: int) -> np.ndarray:
    """Truncated Meixner kernel as phi phi^T with phi[k, n] = M_n(k) sqrt(f(k)/h_n)."""
    phi = np.empty((size, big_n))
    for k in range(size):
        fk = meixner_weight(k, alpha, xi)
        for n in range(big_n):
            phi[k, n] = meixner_polynomial(n, k, alpha, xi) * math.sqrt(
                fk / meixner_norm(n, alpha, xi)
            )
    return phi @ phi.T


# ---------------------------------------------------------------------------
# Whittaker kernel (continuum limit)


def _gamma_product(sign: int, zp: ZParams) -> float:
    """Gamma(1 + s z) Gamma(1 + s z'), positive for admissible parameters."""
    g = realize(np.exp(loggamma(1 + sign * zp.z) + loggamma(1 + sign * zp.z_prime)))
    if g <= 0:
        raise ArithmeticError("Gamma product must be positive")
    return g


def _whittaker_run(sign: int, x: float, zp: ZParams, count: int) -> np.ndarray:
    """W_(kappa, mu)(x) at mu = (z - z') / 2 and kappa = (sign (z + z') + shift) / 2, for the
    shifts -1, 1, ... of one recurrence (:func:`whittaker_w` with ``count``)."""
    return whittaker_w((sign * zp.z_sum - 1.0) / 2.0, (zp.z - zp.z_prime) / 2.0, x, count)


def _whittaker_pq(sign: int, x: float, zp: ZParams, gamma: float) -> tuple[float, float]:
    """(P, Q) at x > 0 from W at shifts 1 and -1: t^((2 - shift)/4) (gamma x)^(-1/2) W, with
    ``gamma`` the :func:`_gamma_product` of the sign."""
    w_q, w_p = _whittaker_run(sign, x, zp, 2)
    prefactor = 1.0 / math.sqrt(gamma * x)
    return zp.t**0.25 * prefactor * w_p, zp.t**0.75 * prefactor * w_q


def whittaker_p(sign, x: float, zp: ZParams) -> float:
    """First Whittaker-function component of the continuum kernel."""
    s = _sign(sign)
    return _whittaker_pq(s, x, zp, _gamma_product(s, zp))[0]


def whittaker_q(sign, x: float, zp: ZParams) -> float:
    """Second Whittaker-function component of the continuum kernel."""
    s = _sign(sign)
    return _whittaker_pq(s, x, zp, _gamma_product(s, zp))[1]


def _whittaker_diag(sign: int, x: float, zp: ZParams) -> float:
    """K(x, x) = Q P' - P Q', from W at kappa - 1, kappa and kappa + 1 (one run of three).

    W'_kappa = (1/2 - kappa/x) W_kappa - W_(kappa+1)/x (DLMF 13.15), and the
    derivatives of the x^(-1/2) prefactors cancel.
    """
    w0, w1, w2 = _whittaker_run(sign, x, zp, 3)
    return zp.t / (_gamma_product(sign, zp) * x * x) * (w1 * w1 - w0 * w1 - w0 * w2)


def whittaker_kernel(u: float, v: float, zp: ZParams) -> float:
    """The continuum correlation kernel on the punctured real line.

    f(u) . g(v) / (u - v) over the generators (:func:`_generators`) of
    (P, Q) = (whittaker_p, whittaker_q) at |u| and |v|, each pair from one run
    of W, the same form as the lattice kernel; the diagonal is its closed
    derivative.  Meixner-mode parameters allow only u, v > 0.
    """
    if u == 0.0 or v == 0.0:
        raise DomainError("the kernel is defined on nonzero reals")
    su, sv = (1 if u > 0 else -1), (1 if v > 0 else -1)
    _require_meixner_block(zp, su, sv)
    x, y = abs(u), abs(v)
    if u == v:
        return _whittaker_diag(su, x, zp)
    gamma = {s: _gamma_product(s, zp) for s in {su, sv}}
    f, _ = _generators(su, *_whittaker_pq(su, x, zp, gamma[su]))
    _, g = _generators(sv, *_whittaker_pq(sv, y, zp, gamma[sv]))
    return float(_assemble(u, f, v, g))
