"""The four benchmark workloads: seeded op generators and their output checks.

Each workload yields rounds of ops forever.  A round is one pass over the
workload's strata (xi values, parameter families, kernel blocks) in a fixed
order, so every round does the same mix of work and a run of whole rounds has
a mix that does not depend on the seed; only the continuous parameters inside
each stratum are drawn from the seed.  Every op gets a fresh parameter set, so
it pays for its own parameter-dependent caches, as a CLI call does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

import zmeasure as zm
from reference import ReferencePQ, entry_mismatch

FAMILIES = ("real", "negative", "complex")
BLOCKS = ("++", "+-", "-+", "--")
TRUNC = 50
REFERENCE_ENTRIES = 3
SCALING_CHECK_EVERY = 8  # rounds; every op of such a round is checked against mpmath
REDRAW_CHECK_EVERY = 10
DRAWS = 1000
MEAN_SIZE_SIGMAS = 6.0


@dataclass
class Op:
    """One closed-loop request: ``call`` is timed, ``check`` runs afterwards, untimed.

    ``check`` returns None when the output is right, else the reason it is not.
    ``units`` is the work the op delivers when it succeeds (blocks, points,
    minors or draws).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    units: int


def draw_pair(rng: np.random.Generator, family: str, im_range=(0.5, 2.0), re_range=(0.25, 0.75)):
    """An admissible (z, z') pair: real in (0, 1), real in (-1, 0), or conjugate.

    Real parts stay in the middle of their interval: the table size grows
    with z + z', and a narrower spread of op costs keeps run medians steady.
    """
    if family == "real":
        z, zq = rng.uniform(0.2, 0.8, 2)
        return zm.ZParams(float(z), float(zq))
    if family == "negative":
        z, zq = rng.uniform(-0.8, -0.2, 2)
        return zm.ZParams(float(z), float(zq))
    z = complex(rng.uniform(*re_range), rng.uniform(*im_range))
    return zm.ZParams(z, z.conjugate())


def _block_signs(block: str) -> tuple[int, int]:
    return (1 if block[0] == "+" else -1), (1 if block[1] == "+" else -1)


def _check_block(gp, block: str, samples, result) -> str | None:
    entries = result.entries
    if entries.shape != (TRUNC, TRUNC) or not np.isfinite(entries).all():
        return f"{block} block has shape {entries.shape} or non-finite entries"
    if block in ("++", "--"):
        asym = float(np.max(np.abs(entries - entries.T)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(entries)))):
            return f"{block} block not symmetric: {asym}"
        diag = np.diag(entries)
        if diag.min() < 0.0 or diag.max() > 1.0:
            return f"{block} diagonal outside [0, 1]: [{diag.min()}, {diag.max()}]"
    ref = ReferencePQ(gp.zp.z, gp.zp.z_prime, gp.xi)
    sx, sy = _block_signs(block)
    for k, l in samples:
        bad = entry_mismatch(float(entries[k, l]), ref, sx, k, sy, l)
        if bad:
            return bad
    return None


def _entry_samples(rng: np.random.Generator, same_sign: bool) -> list[tuple[int, int]]:
    out = []
    while len(out) < REFERENCE_ENTRIES:
        k, l = (int(v) for v in rng.integers(0, TRUNC, 2))
        if not (same_sign and k == l):
            out.append((k, l))
    return out


def kernel_tables(rng: np.random.Generator) -> Iterator[list[Op]]:
    """One truncated kernel block per op; the cost is the function-table build.

    xi = 0.9 appears once per family in each round: the median op falls in
    that stratum, so the run median rests on three times as many ops.
    """
    n = 0
    r = 0
    while True:
        strata = [(0.5, r), (0.8, r + 1), (0.9, 0), (0.9, 1), (0.9, 2), (0.95, r + 2), (0.98, r)]
        ops = []
        for xi, f in strata:
            family = FAMILIES[f % len(FAMILIES)]
            block = BLOCKS[n % len(BLOCKS)]
            gp = zm.GrandParams(draw_pair(rng, family), xi)
            samples = _entry_samples(rng, block in ("++", "--"))
            ops.append(Op(
                f"xi={xi} {family} {block}",
                lambda gp=gp, block=block: zm.kernel_block_matrix(gp, block, TRUNC),
                lambda res, gp=gp, block=block, samples=samples: _check_block(gp, block, samples, res),
                1,
            ))
            n += 1
        yield ops
        r += 1


def _check_point(gp, sx, k, sy, l, reference: bool, result) -> str | None:
    lattice, whittaker = result
    if not (math.isfinite(lattice) and math.isfinite(whittaker)):
        return f"non-finite point values {result}"
    if reference:
        return entry_mismatch(lattice, ReferencePQ(gp.zp.z, gp.zp.z_prime, gp.xi), sx, k, sy, l)
    return None


def scaling_points(rng: np.random.Generator) -> Iterator[list[Op]]:
    """One off-diagonal kernel entry at scaled indices plus its Whittaker limit per op."""
    xis = (0.99, 0.999)
    r = 0
    while True:
        ops = []
        for xi in xis:
            for family in FAMILIES:
                gp = zm.GrandParams(draw_pair(rng, family), xi)
                u, v = rng.uniform(0.2, 5.0, 2)
                sx, sy = (int(s) for s in rng.choice((1, -1), 2))
                k, l = math.floor(u / (1.0 - xi)), math.floor(v / (1.0 - xi))
                if sx == sy and k == l:
                    continue
                x, y = Fraction(sx * (2 * k + 1), 2), Fraction(sy * (2 * l + 1), 2)
                ops.append(Op(
                    f"xi={xi} {family} {'+' if sx > 0 else '-'}{'+' if sy > 0 else '-'}",
                    lambda gp=gp, x=x, y=y, u=sx * u, v=sy * v: (
                        zm.hyper_kernel(x, y, gp),
                        zm.whittaker_kernel(float(u), float(v), gp.zp),
                    ),
                    lambda res, gp=gp, sx=sx, k=k, sy=sy, l=l, ref=r % SCALING_CHECK_EVERY == 0:
                        _check_point(gp, sx, k, sy, l, ref, res),
                    1,
                ))
        yield ops
        r += 1


ORACLE_MINORS = 93  # configurations of at most 3 of the 8 points +-1/2 .. +-7/2


def _check_report(report) -> str | None:
    if len(report.cases) != ORACLE_MINORS:
        return f"oracle checked {len(report.cases)} minors, expected {ORACLE_MINORS}"
    if not report.passed:
        return "oracle failures: " + "; ".join(c.label for c in report.failures()[:3])
    return None


def oracle(rng: np.random.Generator) -> Iterator[list[Op]]:
    """The brute-force oracle suite at a fresh pair with t <= 2.5, xi in [0.05, 0.2]."""
    while True:
        ops = []
        for family in FAMILIES:
            zp = draw_pair(rng, family, im_range=(0.5, 1.5), re_range=(0.25, 0.5))
            xi = float(rng.uniform(0.05, 0.2))
            ops.append(Op(
                family,
                lambda zp=zp, xi=xi: zm.oracle_check(zp, xi),
                _check_report,
                ORACLE_MINORS,
            ))
        yield ops


def _check_batch(gp, seed: int, redraw: bool, batch) -> str | None:
    if batch.count != DRAWS:
        return f"batch has {batch.count} draws, expected {DRAWS}"
    if redraw and zm.sample_batch(gp, DRAWS, seed).draws != batch.draws:
        return f"re-drawn batch with seed {seed} differs"
    t, xi = gp.t, gp.xi
    mean = sum(lam.n for lam in batch.draws) / DRAWS
    expected = t * xi / (1.0 - xi)
    std_err = math.sqrt(t * xi) / (1.0 - xi) / math.sqrt(DRAWS)
    if abs(mean - expected) > MEAN_SIZE_SIGMAS * std_err:
        return f"mean size {mean} vs {expected} +- {std_err}"
    return None


def _batch_op(rng: np.random.Generator, family: str, xi: float, im_range, redraw: bool) -> Op:
    gp = zm.GrandParams(draw_pair(rng, family, im_range=im_range, re_range=(0.25, 0.5)), xi)
    seed = int(rng.integers(2**31))
    return Op(
        f"xi={xi} {family}",
        lambda: zm.sample_batch(gp, DRAWS, seed),
        lambda res: _check_batch(gp, seed, redraw, res),
        DRAWS,
    )


# Sizes above the sampler's enumeration cap (30 boxes) raise SizeCapError.  The
# timed strata keep every batch of 1000 below the cap with probability above
# 1 - 1e-6, so no timed op fails; the cap region is attempted separately.
SAMPLER_XIS = (0.25, 0.35, 0.45)
SAMPLER_IM_RANGE = (0.5, 1.2)
CAP_REGION_XIS = (0.5, 0.8, 0.9)


def sampler(rng: np.random.Generator) -> Iterator[list[Op]]:
    """A seeded batch of 1000 draws from the grand ensemble per op."""
    r = 0
    while True:
        yield [
            _batch_op(rng, family, xi, SAMPLER_IM_RANGE, r % REDRAW_CHECK_EVERY == 0)
            for xi in SAMPLER_XIS
            for family in FAMILIES
        ]
        r += 1


def cap_region(rng: np.random.Generator) -> list[Op]:
    """One batch per stratum of the region where the size cap fires at this commit."""
    return [
        _batch_op(rng, family, xi, (0.5, 2.0), False) for xi in CAP_REGION_XIS for family in FAMILIES
    ]


@dataclass(frozen=True)
class Workload:
    rounds: Callable[[np.random.Generator], Iterator[list[Op]]]
    throughput: str  # name of the work-rate metric, e.g. blocks_per_s
    # Peak memory is read after this many rounds (None: at the end of the run).
    # kernel_tables' point caches grow with every op until the run ends, so
    # its peak over a time-boxed run would follow host speed; 5 rounds (35
    # ops) fit in every run.  The other workloads' memory levels off early.
    memory_rounds: int | None = None


WORKLOADS = {
    "kernel_tables": Workload(kernel_tables, "blocks_per_s", memory_rounds=5),
    "scaling_points": Workload(scaling_points, "points_per_s"),
    "oracle": Workload(oracle, "minors_per_s"),
    "sampler": Workload(sampler, "draws_per_s"),
}
