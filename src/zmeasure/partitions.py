"""Integer partitions, Frobenius coordinates, and half-integer lattice configurations.

Partitions are modelled as immutable Young diagrams.  A diagram with Frobenius
coordinates (p_1 > ... > p_d >= 0 | q_1 > ... > q_d >= 0) embeds into the
half-integer lattice Z' = Z + 1/2 as the balanced point configuration
{p_i + 1/2} u {-q_i - 1/2}; that embedding (and its inverse on balanced
configurations) is what connects the measures on partitions to point
processes on Z'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator


class PartitionCapError(RuntimeError):
    """Enumerating this n would produce more partitions than the configured cap."""


class ConfigurationError(ValueError):
    """A point set is not a valid (or not a balanced) lattice configuration."""


HALF = Fraction(1, 2)


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


def enumerate_partitions(n: int, cap: int = 1_000_000) -> list[YoungDiagram]:
    """All partitions of n, in lexicographically descending order of part lists.

    The count is checked against ``cap`` (via the pentagonal recurrence) before
    any enumeration work is done.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    count = partition_count(n)
    if count > cap:
        raise PartitionCapError(f"partition count {count} for n={n} exceeds cap {cap}")
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


def _as_half_integer(x) -> Fraction:
    f = Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(2)
    if isinstance(x, float) and abs(float(f) - x) > 1e-9:
        raise ConfigurationError(f"{x!r} is not a half-integer")
    if f.denominator != 2:
        raise ConfigurationError(f"{x!r} is not a half-integer")
    return f


@dataclass(frozen=True)
class Configuration:
    """A finite subset of the half-integer lattice Z' = Z + 1/2.

    Points of the form k + 1/2 (resp. -(k + 1/2)) with k = 0, 1, ... are the
    positive (resp. negative) half; either half is indexed by k.
    """

    points: frozenset[Fraction]

    def __post_init__(self) -> None:
        for x in self.points:
            if x.denominator != 2:
                raise ConfigurationError(f"{x} is not a half-integer")

    @classmethod
    def from_points(cls, points: Iterable) -> "Configuration":
        return cls(frozenset(_as_half_integer(x) for x in points))

    @classmethod
    def from_indices(cls, positive: Iterable[int], negative: Iterable[int]) -> "Configuration":
        pos = [Fraction(2 * k + 1, 2) for k in positive]
        neg = [Fraction(-(2 * k + 1), 2) for k in negative]
        return cls(frozenset(pos + neg))

    @property
    def positive_indices(self) -> tuple[int, ...]:
        """Indices k of points k + 1/2, decreasing."""
        return tuple(sorted((int(x - HALF) for x in self.points if x > 0), reverse=True))

    @property
    def negative_indices(self) -> tuple[int, ...]:
        """Indices k of points -(k + 1/2), decreasing."""
        return tuple(sorted((int(-x - HALF) for x in self.points if x < 0), reverse=True))

    @property
    def is_balanced(self) -> bool:
        return len(self.positive_indices) == len(self.negative_indices)

    def contains(self, other: "Configuration") -> bool:
        return other.points <= self.points

    def __contains__(self, x) -> bool:
        return _as_half_integer(x) in self.points

    def __len__(self) -> int:
        return len(self.points)

    def sorted_points(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.points, reverse=True))

    def to_json(self) -> list[str]:
        """Points as exact fraction strings like "5/2", "-1/2", sorted decreasing."""
        return [f"{x.numerator}/{x.denominator}" for x in self.sorted_points()]

    @classmethod
    def from_json(cls, items: Iterable[str]) -> "Configuration":
        return cls.from_points(Fraction(s) for s in items)


EMPTY_CONFIGURATION = Configuration(frozenset())


def to_configuration(diagram: YoungDiagram) -> Configuration:
    """Embed a diagram as the balanced configuration {p_i + 1/2} u {-q_i - 1/2}."""
    p, q = diagram.frobenius
    return Configuration.from_indices(p, q)


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
