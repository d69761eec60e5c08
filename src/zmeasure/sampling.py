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
drawn from one stream spawned off the seed's SeedSequence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .measures import GrandParams, ZParams, _require_admissible
from .partitions import Configuration, EMPTY_DIAGRAM, YoungDiagram, to_configuration

RNG_ALGORITHM = "numpy-PCG64/SeedSequence"


@lru_cache(maxsize=32)
def _size_cdf(gp: GrandParams, length: int) -> np.ndarray:
    """Cumulative mixing weights for sizes 0..length-1, by the one-step recurrence."""
    t, xi = gp.t, gp.xi
    pmf = np.empty(length)
    pmf[0] = math.exp(t * math.log1p(-xi))
    for n in range(length - 1):
        pmf[n + 1] = pmf[n] * xi * (t + n) / (n + 1.0)
    return np.cumsum(pmf)


def sample_size(gp: GrandParams, rng: np.random.Generator) -> int:
    """One draw of the diagram size from the negative-binomial mixing weight."""
    u = rng.random()
    length = 64
    while True:
        cdf = _size_cdf(gp, length)
        if u < cdf[-1]:
            return int(np.searchsorted(cdf, u, side="right"))
        length *= 2


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


def sample_diagram(n: int, zp: ZParams, rng: np.random.Generator) -> YoungDiagram:
    """One draw from the n-box z-measure, grown box by box along the coherent chain.

    The first box has one place to go; every later step draws one uniform
    against the cumulative weights, scaled by their computed sum (and the
    index clamped), so a uniform near 1 still lands on the last corner.
    """
    _require_admissible(zp)
    if n == 0:
        return EMPTY_DIAGRAM
    parts = [1]
    for _ in range(n - 1):
        grow_rows, weights = _corner_weights(parts, zp.z, zp.z_prime)
        cdf = list(accumulate(weights))
        row = grow_rows[min(bisect_right(cdf, rng.random() * cdf[-1]), len(cdf) - 1)]
        if row == len(parts):
            parts.append(1)
        else:
            parts[row] += 1
    return YoungDiagram(tuple(parts))


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


def sample_batch(gp: GrandParams, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` diagrams from one stream spawned off ``SeedSequence(seed)``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = []
    for _ in range(count):
        n = sample_size(gp, rng)
        draws.append(sample_diagram(n, gp.zp, rng))
    return SampleBatch(seed, gp, tuple(draws))


def empirical_correlation(batch: SampleBatch, X: Configuration) -> tuple[float, float]:
    """Fraction of draws whose configuration contains X, with binomial standard error."""
    if batch.count == 0:
        raise ValueError("batch must be nonempty")
    hits = sum(1 for lam in batch.draws if X.points <= to_configuration(lam).points)
    p = hits / batch.count
    return p, math.sqrt(p * (1.0 - p) / batch.count)
