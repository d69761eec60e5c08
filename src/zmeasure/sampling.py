"""Seeded exact sampling from the grand ensemble.

A draw is produced in two exact inverse-CDF steps: the diagram size from the
negative-binomial mixing weight (whose CDF is extended lazily, so no
truncation error enters), then the diagram itself from the enumerated n-box
measure with a cached CDF per size.  Draws are reproducible: the same seed
and parameters give bit-identical batches, drawn from one stream spawned off
the seed's SeedSequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measures import GrandParams, ZParams, z_measure_n
from .partitions import Configuration, EMPTY_DIAGRAM, YoungDiagram, enumerate_partitions, to_configuration

RNG_ALGORITHM = "numpy-PCG64/SeedSequence"


class SizeCapError(RuntimeError):
    """A drawn size exceeded the enumeration cap for exact diagram sampling."""


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


@lru_cache(maxsize=256)
def _diagram_cdf(zp: ZParams, n: int) -> tuple[tuple[YoungDiagram, ...], np.ndarray]:
    diagrams = tuple(enumerate_partitions(n))
    probs = np.array([z_measure_n(lam, zp) for lam in diagrams])
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]  # absorbs rounding of order 1e-13 in the total mass
    return diagrams, cdf


def sample_diagram(n: int, zp: ZParams, rng: np.random.Generator, n_cap: int = 30) -> YoungDiagram:
    """One draw from the n-box measure by inverse CDF over the enumeration."""
    if n == 0:
        return EMPTY_DIAGRAM
    if n > n_cap:
        raise SizeCapError(f"size {n} exceeds the exact-sampling cap {n_cap}")
    diagrams, cdf = _diagram_cdf(zp, n)
    return diagrams[int(np.searchsorted(cdf, rng.random(), side="right"))]


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
            "schema": "zmeasure.sample/1",
            "seed": self.seed,
            "algorithm": self.algorithm,
            "count": self.count,
            "z": [zp.z.real, zp.z.imag],
            "z_prime": [zp.z_prime.real, zp.z_prime.imag],
            "xi": self.gp.xi,
        }


def sample_batch(gp: GrandParams, count: int, seed: int, n_cap: int = 30) -> SampleBatch:
    """Draw ``count`` diagrams from one stream spawned off ``SeedSequence(seed)``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = []
    for _ in range(count):
        n = sample_size(gp, rng)
        draws.append(sample_diagram(n, gp.zp, rng, n_cap))
    return SampleBatch(seed, gp, tuple(draws))


def empirical_correlation(batch: SampleBatch, X: Configuration) -> tuple[float, float]:
    """Fraction of draws whose configuration contains X, with binomial standard error."""
    if batch.count == 0:
        raise ValueError("batch must be nonempty")
    hits = sum(1 for lam in batch.draws if X.points <= to_configuration(lam).points)
    p = hits / batch.count
    return p, math.sqrt(p * (1.0 - p) / batch.count)
