import math
import sys
from collections import Counter, defaultdict

import pytest

from zmeasure.measures import (
    AdmissibilityError,
    GrandParams,
    ZParams,
    neg_binomial_weight,
    z_measure_n,
)
from zmeasure.partitions import (
    Configuration,
    EMPTY_CONFIGURATION,
    EMPTY_DIAGRAM,
    YoungDiagram,
    to_configuration,
)
from zmeasure.sampling import _corner_weights, empirical_correlation, sample_batch
from zmeasure.verification import correlation_det

# sample_batch(GrandParams(0.5+1.5i, 0.5-1.5i, xi=0.5), 200, seed=7): parts of
# each draw joined by ",", draws joined by ";" (an empty field is the empty diagram).
PINNED_DRAWS = (
    "2;2;3;1,1;2;2,1;2;1;6,1;;4,2;2,1;1;2,1;3,1;3,1;3,1,1;2;1;;4,1,1;1;2,1;3,2,1;;2;3;4;4;2,1"
    ";1,1;3;1,1;2;1;1,1;2;1;;1;1;;1;1;2,1;2,1;;1;1;2;1;2,1;1;2;2;2;1;1;2,1;3,1;1;4;2;6,1;2;;4"
    ";2;;;;3,2,1,1;;2,1;1;2,1;1;2;1,1;2;1;1,1;4,2,1,1,1;6;2;1;2;3;;2;2;;1;1;2;;1;;1,1,1,1;2;2"
    ";1,1;;2;3;2;1;2;6,1,1;;3,1;2,1;;1;3,1,1;6;2;2,1;2,1;1;;1,1;2,1;1;1;2;1;1;1;1;2;1;;1;;3;5"
    ",1;2,1;2,2,1,1,1;4;1;2,1,1;3,1;2;3,1,1;2,1,1;1;5,1,1;;1,1;2;3,1,1;1;;4,1;3,1,1;4,1;1,1,1"
    ";;1;;1;2,1;5;1,1;;6,1;1,1;1;1;2;;5,1,1,1;2,1;;1;2,1,1;3,1,1,1;1;3,1,1;1;4,1,1;;;1;2;2;3,"
    "1;3;2,1;4;4;5,1,1;3,2,1;2,1;2;1;;1,1;4,1"
)


def _size_chi_square(sizes: list[int], gp: GrandParams) -> tuple[float, int]:
    """Pearson's chi-square of ``sizes`` against the mixing weight, with its degrees of freedom.

    Sizes are binned from 0 upward, each bin closed once its expected count
    reaches 5; the last bin lumps the tail, every size past the closed bins.
    """
    count = len(sizes)
    observed = Counter(sizes)
    bins = []
    o = e = 0.0
    left_o = left_e = float(count)  # observed and expected counts of the sizes not yet binned
    n = 0
    while True:
        w = count * neg_binomial_weight(n, gp.t, gp.xi)
        if left_e - e - w < 5.0:
            break
        o += observed[n]
        e += w
        if e >= 5.0:
            bins.append((o, e))
            left_o -= o
            left_e -= e
            o = e = 0.0
        n += 1
    bins.append((left_o, left_e))
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


class TestSampleSize:
    def test_empirical_mean(self, gp02):
        sizes = [lam.n for lam in sample_batch(gp02, 30_000, seed=11).draws]
        mean = gp02.t * gp02.xi / (1.0 - gp02.xi)
        var = gp02.t * gp02.xi / (1.0 - gp02.xi) ** 2
        assert abs(sum(sizes) / len(sizes) - mean) <= 4.0 * math.sqrt(var / len(sizes))

    def test_small_xi_mostly_empty(self, real_pair):
        draws = sample_batch(GrandParams(real_pair, 1e-4), 500, seed=0).draws
        assert draws.count(EMPTY_DIAGRAM) >= 495

    @pytest.mark.parametrize("pair, count, seed", [("real_pair", 40_000, 41), ("complex_pair", 3000, 42)])
    def test_size_law_chi_square(self, pair, count, seed, request):
        # The bound dof + 6 sqrt(2 dof) sits about 6 standard deviations above the mean of chi-square.
        gp = GrandParams(request.getfixturevalue(pair), 0.9)
        chi2, dof = _size_chi_square([lam.n for lam in sample_batch(gp, count, seed).draws], gp)
        assert dof >= 10
        assert chi2 <= dof + 6.0 * math.sqrt(2.0 * dof), (chi2, dof)

    @pytest.mark.parametrize("z, count", [(0.3 + 32j, 3), (0.3 + 40j, 2)])
    def test_underflowing_weight_drawn(self, z, count):
        # (1-xi)^t, the weight of the empty diagram, is subnormal at 32i and 0.0 at 40i.
        gp = GrandParams(ZParams(z, z.conjugate()), 0.5)
        assert neg_binomial_weight(0, gp.t, gp.xi) < sys.float_info.min
        sizes = [lam.n for lam in sample_batch(gp, count, seed=8).draws]
        mean = gp.t * gp.xi / (1.0 - gp.xi)
        std_err = math.sqrt(gp.t * gp.xi) / (1.0 - gp.xi) / math.sqrt(count)
        assert len(sizes) == count and abs(sum(sizes) / count - mean) <= 6.0 * std_err, sizes


class TestSampleDiagram:
    def test_degenerate_sizes(self, real_pair):
        # A draw whose clock passes tau before its first box is empty; the first box has one place.
        draws = sample_batch(GrandParams(real_pair, 0.5), 2000, seed=3).draws
        assert {lam for lam in draws if lam.n <= 1} == {EMPTY_DIAGRAM, YoungDiagram((1,))}

    def test_meixner_mode_refused(self):
        gp = GrandParams(ZParams.meixner(3, 0.5), 0.5)
        for count in (0, 10):  # refused before any draw, an empty batch included
            with pytest.raises(AdmissibilityError):
                sample_batch(gp, count, seed=1)

    @pytest.mark.parametrize("pair", ["real_pair", "negative_pair", "complex_pair"])
    def test_chain_path_sums_equal_z_measure(self, pair, request):
        # Summed over all growth paths, the chain gives each diagram its n-box z-measure.
        zp = request.getfixturevalue(pair)
        level = {(): 1.0}
        for _ in range(12):
            grown = defaultdict(float)
            for parts, prob in level.items():
                rows, weights = _corner_weights(list(parts), zp.z, zp.z_prime)
                total = sum(weights)
                for row, w in zip(rows, weights):
                    new = list(parts) + [0]
                    new[row] += 1
                    grown[YoungDiagram.from_parts(new).parts] += prob * w / total
            level = grown
            for parts, prob in level.items():
                assert prob == pytest.approx(z_measure_n(YoungDiagram(parts), zp), rel=1e-13, abs=0)

    def test_two_box_frequencies(self, real_pair):
        # The draws of two boxes, about 2% of these, follow the 2-box z-measure.
        draws = sample_batch(GrandParams(real_pair, 0.5), 200_000, seed=5).draws
        two_box = [lam for lam in draws if lam.n == 2]
        hits = two_box.count(YoungDiagram((2,)))
        p = z_measure_n(YoungDiagram((2,)), real_pair)  # 6/7
        assert len(two_box) >= 2000
        assert abs(hits / len(two_box) - p) <= 3.0 * math.sqrt(p * (1 - p) / len(two_box))


class TestBatches:
    def test_seed_determinism(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        a = sample_batch(gp, 2000, seed=42)
        b = sample_batch(gp, 2000, seed=42)
        assert a.draws == b.draws
        assert a.meta() == b.meta()

    def test_different_seeds_differ(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        assert sample_batch(gp, 2000, seed=1).draws != sample_batch(gp, 2000, seed=2).draws

    def test_pinned_stream(self, complex_pair):
        # Draws recorded under the zmeasure.sample/3 schema: any change here changes its streams.
        batch = sample_batch(GrandParams(complex_pair, 0.5), 200, seed=7)
        assert ";".join(",".join(map(str, lam.parts)) for lam in batch.draws) == PINNED_DRAWS

    def test_meta_fields(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        meta = sample_batch(gp, 10, seed=0).meta()
        assert meta["schema"] == "zmeasure.sample/3"
        assert meta["algorithm"].startswith("numpy-PCG64")
        assert meta["count"] == 10
        assert set(meta) == {"schema", "seed", "algorithm", "count", "z", "z_prime", "xi"}


class TestEmpiricalCorrelation:
    def test_empty_configuration(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        batch = sample_batch(gp, 500, seed=9)
        est, se = empirical_correlation(batch, EMPTY_CONFIGURATION)
        assert est == 1.0 and se == 0.0

    def test_singleton_matches_kernel(self, real_pair):
        from zmeasure.kernels import hyper_kernel

        gp = GrandParams(real_pair, 0.5)
        batch = sample_batch(gp, 30_000, seed=12)
        X = Configuration.from_points(["1/2"])
        est, se = empirical_correlation(batch, X)
        ref = hyper_kernel(0.5, 0.5, gp)
        assert abs(est - ref) <= 3.0 * max(se, 1e-6)

    def test_pair_matches_minor(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        batch = sample_batch(gp, 30_000, seed=13)
        X = Configuration.from_points(["1/2", "-1/2"])
        est, se = empirical_correlation(batch, X)
        ref = correlation_det(X, gp)
        assert abs(est - ref) <= 3.0 * max(se, 1e-6)

    @pytest.mark.parametrize("pair, xi, seed", [("complex_pair", 0.9, 90), ("real_pair", 0.99, 99)])
    def test_minors_near_xi_one(self, pair, xi, seed, request):
        gp = GrandParams(request.getfixturevalue(pair), xi)
        batch = sample_batch(gp, 10_000, seed=seed)
        assert max(lam.n for lam in batch.draws) > 30
        for points in (["1/2"], ["-1/2"], ["3/2"], ["-3/2"], ["1/2", "-1/2"]):
            X = Configuration.from_points(points)
            est, se = empirical_correlation(batch, X)
            assert abs(est - correlation_det(X, gp)) <= 4.0 * se, points

    def test_counts_equal_configuration_containment(self, complex_pair):
        batch = sample_batch(GrandParams(complex_pair, 0.9), 2000, seed=4)
        configs = [to_configuration(lam) for lam in batch.draws]
        for points in (["1/2"], ["-3/2"], ["1/2", "-1/2"], ["1/2", "3/2"], ["5/2", "-1/2", "-3/2"]):
            X = Configuration.from_points(points)
            hits = sum(X.points <= c.points for c in configs)
            assert empirical_correlation(batch, X)[0] == hits / batch.count, points

    def test_empty_batch_rejected(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        batch = sample_batch(gp, 0, seed=1)
        with pytest.raises(ValueError):
            empirical_correlation(batch, EMPTY_CONFIGURATION)
