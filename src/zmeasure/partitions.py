"""Integer partitions, Frobenius coordinates, and half-integer lattice configurations.

Partitions are modelled as immutable Young diagrams.  A diagram with Frobenius
coordinates (p_1 > ... > p_d >= 0 | q_1 > ... > q_d >= 0) embeds into the
half-integer lattice Z' = Z + 1/2 as the balanced point configuration
{p_i + 1/2} u {-q_i - 1/2}; that embedding (and its inverse on balanced
configurations) is what connects the measures on partitions to point
processes on Z'.

A :class:`Configuration` holds each half as a tuple of indices, k for the
point +-(k + 1/2), so a diagram's configuration is its Frobenius coordinates
(p | q).  This module alone parses points (:func:`half_integer_index`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .specfun import DomainError


PARTITION_CAP = 1_000_000


class PartitionCapError(RuntimeError):
    """Enumerating this n would produce more than ``PARTITION_CAP`` partitions."""


class ConfigurationError(DomainError):
    """A point set is not a valid (or not a balanced) lattice configuration."""


@dataclass(frozen=True)
class YoungDiagram:
    """A partition as a weakly decreasing tuple of positive integers.

    The empty tuple encodes the empty diagram.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {self.parts!r}")
            if i > 0 and p > self.parts[i - 1]:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts!r}")

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "YoungDiagram":
        """Build a diagram from any iterable, dropping trailing zeros."""
        cleaned = tuple(int(p) for p in parts if int(p) != 0)
        return cls(cleaned)

    @cached_property
    def n(self) -> int:
        """Number of boxes."""
        return sum(self.parts)

    @cached_property
    def frobenius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Frobenius coordinates (p, q): arm and leg lengths along the diagonal."""
        conj = self.conjugate_parts()
        p = []
        q = []
        for i, part in enumerate(self.parts):
            if part <= i:
                break
            p.append(part - i - 1)
            q.append(conj[i] - i - 1)
        return tuple(p), tuple(q)

    @property
    def d(self) -> int:
        """Number of diagonal boxes."""
        return len(self.frobenius[0])

    def conjugate_parts(self) -> tuple[int, ...]:
        if not self.parts:
            return ()
        cols = [0] * self.parts[0]
        for part in self.parts:
            for j in range(part):
                cols[j] += 1
        return tuple(cols)

    def conjugate(self) -> "YoungDiagram":
        return YoungDiagram(self.conjugate_parts())

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


EMPTY_DIAGRAM = YoungDiagram(())


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """Number of partitions of n, by Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def _descending_parts(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending_parts(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _all_diagrams(n: int) -> tuple[YoungDiagram, ...]:
    return tuple(YoungDiagram(parts) for parts in _descending_parts(n, n))


def enumerate_partitions(n: int) -> list[YoungDiagram]:
    """All partitions of n, in lexicographically descending order of part lists.

    The count is checked against ``PARTITION_CAP`` (via the pentagonal
    recurrence) before any enumeration work is done, so n = 60 is the largest
    size enumerated.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    count = partition_count(n)
    if count > PARTITION_CAP:
        raise PartitionCapError(f"partition count {count} for n={n} exceeds cap {PARTITION_CAP}")
    return list(_all_diagrams(n))


@lru_cache(maxsize=200_000)
def dimension(diagram: YoungDiagram) -> int:
    """Number of standard Young tableaux of the given shape, by the hook-length formula.

    The verification suites check it against the Frobenius determinant formula.
    """
    conj = diagram.conjugate_parts()
    hooks = math.prod(
        (part - j) + (conj[j] - i) - 1 for i, part in enumerate(diagram.parts) for j in range(part)
    )
    return math.factorial(diagram.n) // hooks


class _FrobeniusArrays(NamedTuple):
    """Diagrams, one per column, as arrays."""

    p: np.ndarray  # (max rank, diagrams): row i holds each diagram's p_i, 0 past its rank
    q: np.ndarray  # the same for the q_i
    n: np.ndarray  # float64, the number of boxes
    d: np.ndarray  # float64, the Durfee rank, the number of Frobenius pairs
    log_cauchy_sq: np.ndarray  # log det[1 / (p_i + q_j + 1)]^2; (dim/n!)^2 is this over prod_i (p_i! q_i!)^2


def _log_cauchy_det(p: np.ndarray, q: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """log det[1 / (p_i + q_j + 1)] for each column of the padded Frobenius rows.

    Frobenius' formula dim/n! = det[1 / ((p_i + q_j + 1) p_i! q_j!)] is the
    hook-length formula in Frobenius coordinates: the hook lengths multiply to
    prod_i p_i! q_i! over this Cauchy determinant,
    prod_(i<j) (p_i - p_j)(q_i - q_j) / prod_(i,j) (p_i + q_j + 1).  A diagram
    of rank d takes d^2 + d (d - 1) / 2 factors, one vector operation per pair
    (i, j) of rows; the mask gives padded rows the factor 1.  The product is
    kept as a mantissa in [1/2, 1) and a power of 2, renormalized after every
    factor (``np.frexp``), so nothing overflows and each factor costs one
    rounding; its log is taken once.
    """
    rows = np.arange(p.shape[0])
    valid = rows[:, None] < ranks[None, :]
    pf, qf = p.astype(np.float64), q.astype(np.float64)
    mant = np.ones(p.shape[1])
    expo = np.zeros(p.shape[1], dtype=np.int64)
    for i in rows:
        for j in rows:
            factor = 1.0 / np.where(valid[i] & valid[j], pf[i] + qf[j] + 1.0, 1.0)
            if i < j:  # a valid row j implies a valid row i
                factor *= np.where(valid[j], (pf[i] - pf[j]) * (qf[i] - qf[j]), 1.0)
            mant, step = np.frexp(mant * factor)
            expo += step
    return np.log(mant) + expo * math.log(2.0)


def _frobenius_arrays(diagrams: Iterable[YoungDiagram]) -> _FrobeniusArrays:
    """The diagrams' Frobenius coordinates, sizes, ranks and log Cauchy determinants, in the given order.

    The coordinate rows are padded with 0, whose Pochhammer factor (a)_0 = 1
    adds nothing.  They are int16 when every coordinate fits (an n-box
    diagram's are below n), else intp.  The diagrams are read once, in order;
    the dimension factor comes from their coordinates (:func:`_log_cauchy_det`),
    not from :func:`dimension`.
    """
    coords, sizes = [], []
    for lam in diagrams:
        coords.append(lam.frobenius)
        sizes.append(lam.n)
    ranks = np.array([len(pi) for pi, _qi in coords], dtype=np.intp)
    dtype = np.int16 if max(sizes, default=0) <= 1 << 15 else np.intp
    p = np.zeros((ranks.max(initial=0), len(coords)), dtype=dtype)
    q = np.zeros_like(p)
    for col, (pi, qi) in enumerate(coords):
        p[: len(pi), col] = pi
        q[: len(qi), col] = qi
    log_cauchy_sq = 2.0 * _log_cauchy_det(p, q, ranks)
    return _FrobeniusArrays(p, q, np.array(sizes, float), ranks.astype(float), log_cauchy_sq)


def half_integer_index(x) -> tuple[int, int]:
    """Map a half-integer point +-(k + 1/2) to (sign, k).

    The one parser of the point format: ``x`` may be anything ``Fraction``
    takes (an int, a Fraction, a string such as "-3/2") or a float within
    1e-9 of a half-integer.  Anything else raises :class:`ConfigurationError`.
    """
    f = Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(2)
    if isinstance(x, float) and abs(float(f) - x) > 1e-9:
        raise ConfigurationError(f"{x!r} is not a half-integer")
    if f.denominator != 2:
        raise ConfigurationError(f"{x!r} is not a half-integer")
    return (1 if f > 0 else -1), (abs(f.numerator) - 1) // 2


@dataclass(frozen=True)
class Configuration:
    """A finite subset of the half-integer lattice Z' = Z + 1/2, by index.

    The point k + 1/2 has index k on the positive half, -(k + 1/2) index k on
    the negative half; each half is a strictly decreasing tuple of indices
    (for a diagram, its Frobenius coordinates).  Points as fractions are
    parsed by :meth:`from_points` and ``in``, and derived by :attr:`points`,
    :meth:`sorted_points` and :meth:`to_json`.
    """

    positive_indices: tuple[int, ...] = ()
    negative_indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for half in (self.positive_indices, self.negative_indices):
            if not (
                isinstance(half, tuple)
                and all(isinstance(k, int) for k in half)
                and all(a > b for a, b in zip(half, half[1:]))
                and (not half or half[-1] >= 0)
            ):
                raise ConfigurationError(
                    f"indices must be a strictly decreasing tuple of ints >= 0, got {half!r}"
                )

    @classmethod
    def from_points(cls, points: Iterable) -> "Configuration":
        """The configuration of the given points, in any order, repeats allowed."""
        parsed = [half_integer_index(x) for x in points]
        return cls.from_indices((k for s, k in parsed if s > 0), (k for s, k in parsed if s < 0))

    @classmethod
    def from_indices(cls, positive: Iterable[int], negative: Iterable[int]) -> "Configuration":
        """The configuration with the given indices on each half, in any order, repeats allowed.

        ``operator.index`` takes numpy integers and refuses floats.
        """

        def half(indices: Iterable[int]) -> tuple[int, ...]:
            return tuple(sorted({operator.index(k) for k in indices}, reverse=True))

        return cls(half(positive), half(negative))

    @cached_property
    def points(self) -> frozenset[Fraction]:
        """The points as exact fractions."""
        return frozenset(self.sorted_points())

    @property
    def is_balanced(self) -> bool:
        return len(self.positive_indices) == len(self.negative_indices)

    def contains(self, other: "Configuration") -> bool:
        return set(other.positive_indices).issubset(self.positive_indices) and set(
            other.negative_indices
        ).issubset(self.negative_indices)

    def __contains__(self, x) -> bool:
        sign, k = half_integer_index(x)
        return k in (self.positive_indices if sign > 0 else self.negative_indices)

    def __len__(self) -> int:
        return len(self.positive_indices) + len(self.negative_indices)

    def sorted_points(self) -> tuple[Fraction, ...]:
        """The points as exact fractions, decreasing: positive k down, then negative k up."""
        return tuple(Fraction(2 * k + 1, 2) for k in self.positive_indices) + tuple(
            Fraction(-2 * k - 1, 2) for k in reversed(self.negative_indices)
        )

    def to_json(self) -> list[str]:
        """Points as exact fraction strings like "5/2", "-1/2", sorted decreasing."""
        return [str(x) for x in self.sorted_points()]

    @classmethod
    def from_json(cls, items: Iterable[str]) -> "Configuration":
        return cls.from_points(items)


EMPTY_CONFIGURATION = Configuration()


def to_configuration(diagram: YoungDiagram) -> Configuration:
    """Embed a diagram as the balanced configuration {p_i + 1/2} u {-q_i - 1/2}."""
    return Configuration(*diagram.frobenius)


def from_configuration(config: Configuration) -> YoungDiagram:
    """Inverse of :func:`to_configuration`, defined on balanced configurations."""
    if not config.is_balanced:
        raise ConfigurationError(
            "only configurations with equally many positive and negative points "
            "correspond to diagrams"
        )
    p = config.positive_indices
    q = config.negative_indices
    d = len(p)
    if d == 0:
        return EMPTY_DIAGRAM
    # Rows 1..d from the arm lengths, rows beyond d from the column lengths.
    parts = [p[i] + i + 1 for i in range(d)]
    col_lengths = [q[j] + j + 1 for j in range(d)]
    i = d + 1
    while True:
        row = sum(1 for c in col_lengths if c >= i)
        if row == 0:
            break
        parts.append(row)
        i += 1
    return YoungDiagram(tuple(parts))
