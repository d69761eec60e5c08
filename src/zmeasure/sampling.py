"""Seeded exact sampling from the grand ensemble.

A draw is produced in two exact steps: the diagram size n by inverse CDF from
the negative-binomial mixing weight (whose CDF is extended lazily, so no
truncation error enters), then the diagram itself, grown box by box along the
coherent z-measure chain.  From a diagram lambda with m boxes the chain adds
the box of content c, giving Lambda, with probability
(z+c)(z'+c)/(t+m) * dim(Lambda)/((m+1) dim(lambda)), so after n steps the
diagram follows the n-box z-measure exactly (Kerov, Olshanski & Vershik;
Borodin & Olshanski).  The dimension ratio is Kerov's transition measure of
the diagram's corners, so no size is enumerated and none is too large.  Draws
are reproducible: the same seed and parameters give bit-identical batches,
drawn from one stream spawned off the seed's SeedSequence.  A batch reads
that stream a chunk of uniforms at a time and builds the size CDF once, yet
consumes the same uniforms in the same order against the same CDF as the
one-draw route ``sample_size`` then ``sample_diagram``, so both give the same
draws.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .measures import GrandParams, ZParams, _require_admissible
from .partitions import Configuration, EMPTY_DIAGRAM, YoungDiagram

RNG_ALGORITHM = "numpy-PCG64/SeedSequence"
SIZE_CDF_START = 64  # the first length of the size CDF, doubled as uniforms need
UNIFORM_CHUNK = 1024


class SizeUnderflowError(ValueError):
    """The weight (1-xi)^t of the empty diagram is not a normal float: no size CDF is built."""


@lru_cache(maxsize=32)
def _size_cdf(gp: GrandParams, length: int) -> tuple[float, ...]:
    """Cumulative mixing weights for sizes 0..length-1, by the one-step recurrence.

    Every route to a size starts here, so parameters whose first weight
    (1-xi)^t underflows are refused before any uniform is drawn: at zero every
    entry is 0.0 and no length would cover a uniform, and a subnormal weight
    carries too few digits.
    """
    t, xi = gp.t, gp.xi
    weight = math.exp(t * math.log1p(-xi))
    if not weight >= sys.float_info.min:
        raise SizeUnderflowError(
            f"size weight (1-xi)^t = {weight!r} underflows at t={t!r}, xi={xi!r}"
        )
    pmf = [weight]
    for n in range(length - 1):
        weight = weight * xi * (t + n) / (n + 1.0)
        pmf.append(weight)
    return tuple(accumulate(pmf))


def _size_cdf_covering(gp: GrandParams, cdf: tuple[float, ...], u: float) -> tuple[float, ...]:
    """``cdf`` doubled in length until its last entry exceeds the uniform ``u``.

    A weight moves the total only while it exceeds half an ulp of it.  Before
    the mode each weight exceeds the mean of those below it, and past the mode
    the weights decrease, so a doubling that leaves the total unchanged leaves
    every longer CDF unchanged too.  That total rests a rounding error short
    of 1 (3.3e-15 at (1/2, 1/3), xi=0.99), and a u above it lands on the last
    size that moved the total, whose entry is raised to 1, in place of a
    doubling without end.
    """
    while u >= cdf[-1]:
        longer = _size_cdf(gp, 2 * len(cdf))
        if longer[-1] == cdf[-1]:
            return cdf[: bisect_left(cdf, cdf[-1])] + (1.0,)
        cdf = longer
    return cdf


def sample_size(gp: GrandParams, rng: np.random.Generator) -> int:
    """One draw of the diagram size from the negative-binomial mixing weight."""
    cdf = _size_cdf(gp, SIZE_CDF_START)
    u = rng.random()
    return bisect_right(_size_cdf_covering(gp, cdf, u), u)


def _corner_weights(parts: list[int], z: complex, z_prime: complex) -> tuple[list[int], list[float]]:
    """The rows where a box may be added to ``parts``, with the chain's unnormalised weights.

    With x the contents of the addable boxes (the new row included) and y
    those of the removable boxes, Kerov's transition measure
    mu_k = prod_i (x_k - y_i) / prod_{j != k} (x_k - x_j), a ratio of two
    integer products divided once, equals dim(Lambda) / ((m+1) dim(lambda))
    for an m-box lambda.  The weights (z+x_k)(z'+x_k) mu_k, real for
    admissible pairs, sum to t + m.
    """
    padded = parts + [0]
    grow_rows = [0] + [i for i in range(1, len(padded)) if padded[i - 1] > padded[i]]
    x = [padded[i] - i for i in grow_rows]
    y = [padded[i - 1] - i for i in grow_rows[1:]]  # removable box at the end of row i - 1
    weights = []
    for xk in x:
        num = den = 1
        for yi in y:
            num *= xk - yi
        for xj in x:
            if xj != xk:
                den *= xk - xj
        weights.append(((z + xk) * (z_prime + xk)).real * (num / den))
    return grow_rows, weights


def _grow(n: int, z: complex, z_prime: complex, uniform: Callable[[], float]) -> YoungDiagram:
    """An n-box diagram, n >= 1, grown along the coherent chain from ``uniform()`` draws.

    The first box has one place to go; every later step draws one uniform
    against the cumulative weights, scaled by their computed sum (and the
    index clamped), so a uniform near 1 still lands on the last corner.
    """
    parts = [1]
    for _ in range(n - 1):
        grow_rows, weights = _corner_weights(parts, z, z_prime)
        cdf = list(accumulate(weights))
        row = grow_rows[min(bisect_right(cdf, uniform() * cdf[-1]), len(cdf) - 1)]
        if row == len(parts):
            parts.append(1)
        else:
            parts[row] += 1
    return YoungDiagram(tuple(parts))


def sample_diagram(n: int, zp: ZParams, rng: np.random.Generator) -> YoungDiagram:
    """One draw from the n-box z-measure, grown box by box along the coherent chain."""
    _require_admissible(zp)
    return _grow(n, zp.z, zp.z_prime, rng.random) if n else EMPTY_DIAGRAM


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible batch of diagram draws from the grand ensemble."""

    seed: int
    gp: GrandParams
    draws: tuple[YoungDiagram, ...]
    algorithm: str = RNG_ALGORITHM

    @property
    def count(self) -> int:
        return len(self.draws)

    def meta(self) -> dict:
        zp = self.gp.zp
        return {
            "schema": "zmeasure.sample/2",
            "seed": self.seed,
            "algorithm": self.algorithm,
            "count": self.count,
            "z": [zp.z.real, zp.z.imag],
            "z_prime": [zp.z_prime.real, zp.z_prime.imag],
            "xi": self.gp.xi,
        }


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """The doubles successive ``rng.random()`` calls would return, in order.

    They are read from ``rng`` ``UNIFORM_CHUNK`` at a time, so the generator
    is left further along than those calls would leave it.
    """
    while True:
        yield from rng.random(UNIFORM_CHUNK).tolist()


def sample_batch(gp: GrandParams, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` diagrams from one stream spawned off ``SeedSequence(seed)``.

    Each draw is ``sample_diagram(sample_size(gp, rng), gp.zp, rng)`` on that
    stream, bit for bit.  The parameters are refused, if at all, before any
    draw (``count=0`` included); the size CDF is built once and extended
    only when a uniform lands past its end; the uniforms are read in chunks.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    _require_admissible(gp.zp)
    cdf = _size_cdf(gp, SIZE_CDF_START)
    uniform = _uniforms(np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])).__next__
    z, z_prime = gp.zp.z, gp.zp.z_prime
    draws = []
    for _ in range(count):
        u = uniform()
        if u >= cdf[-1]:
            cdf = _size_cdf_covering(gp, cdf, u)
        n = bisect_right(cdf, u)
        draws.append(_grow(n, z, z_prime, uniform) if n else EMPTY_DIAGRAM)
    return SampleBatch(seed, gp, tuple(draws))


def empirical_correlation(batch: SampleBatch, X: Configuration) -> tuple[float, float]:
    """Fraction of draws whose configuration contains X, with binomial standard error.

    A draw's configuration holds the points p_i + 1/2 and -(q_i + 1/2) of its
    Frobenius coordinates (p, q), so containment is two subset tests on
    those cached coordinates.
    """
    if batch.count == 0:
        raise ValueError("batch must be nonempty")
    xp, xq = set(X.positive_indices), set(X.negative_indices)
    hits = sum(
        1 for lam in batch.draws if xp.issubset(lam.frobenius[0]) and xq.issubset(lam.frobenius[1])
    )
    p = hits / batch.count
    return p, math.sqrt(p * (1.0 - p) / batch.count)
