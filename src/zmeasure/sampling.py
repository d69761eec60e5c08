"""Seeded exact sampling from the grand ensemble.

A draw grows a diagram box by box along the coherent z-measure chain, in
continuous time.  From a diagram lambda with m boxes the chain adds the box of
content c, giving Lambda, with probability
(z+c)(z'+c)/(t+m) * dim(Lambda)/((m+1) dim(lambda)), so after n steps the
diagram follows the n-box z-measure exactly (Kerov, Olshanski & Vershik;
Borodin & Olshanski).  The dimension ratio is Kerov's transition measure of
the diagram's corners, so no size is enumerated and none is too large.  Each
step waits an exponential holding time of rate t + m, the sum of the chain's
weights, which depends on the size alone; a draw stops when its clock would
pass tau = -log(1-xi).  The size is then a birth process with rates t + m read
at tau, whose law is the negative-binomial mixing weight
(1-xi)^t (t)_n/n! xi^n, and given its size the diagram follows the n-box
z-measure, so the draw follows the grand ensemble exactly and no size law is
stored (Borodin & Olshanski, "Markov processes on partitions").
A draw costs in proportion to its size, whose mean is t xi/(1-xi), so no
admissible pair is refused.  Draws are reproducible: the same seed and
parameters give bit-identical batches, drawn from one stream spawned off the
seed's SeedSequence and read a chunk of uniforms at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .measures import GrandParams, _require_admissible
from .partitions import Configuration, EMPTY_DIAGRAM, YoungDiagram

RNG_ALGORITHM = "numpy-PCG64/SeedSequence"
UNIFORM_CHUNK = 1024


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
            "schema": "zmeasure.sample/3",
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

    Each draw starts empty, with its clock at 0.  From an m-box diagram the
    clock advances by -log(1-u)/(t+m), u the next uniform, and while it has
    not passed tau = -log(1-xi) a box is added: the first in its one place,
    every later one by the next uniform against the cumulative chain weights,
    scaled by their computed sum (and the index clamped), so a uniform near 1
    still lands on the last corner.  The draw is exact; its mean size is
    t xi/(1-xi).  Parameters are refused, if at all, before any draw
    (``count=0`` included), and only for not being admissible.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    _require_admissible(gp.zp)
    tau = -math.log1p(-gp.xi)
    uniform = _uniforms(np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])).__next__
    log1p = math.log1p
    z, z_prime, t = gp.zp.z, gp.zp.z_prime, gp.t
    draws = []
    for _ in range(count):
        clock = -log1p(-uniform()) / t
        if clock > tau:
            draws.append(EMPTY_DIAGRAM)
            continue
        parts = [1]
        m = 1
        clock -= log1p(-uniform()) / (t + m)
        while clock <= tau:
            grow_rows, weights = _corner_weights(parts, z, z_prime)
            cdf = list(accumulate(weights))
            row = grow_rows[min(bisect_right(cdf, uniform() * cdf[-1]), len(cdf) - 1)]
            if row == len(parts):
                parts.append(1)
            else:
                parts[row] += 1
            m += 1
            clock -= log1p(-uniform()) / (t + m)
        draws.append(YoungDiagram(tuple(parts)))
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
