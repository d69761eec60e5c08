import math
from bisect import bisect_right
from collections import defaultdict

import numpy as np
import pytest

from zmeasure import sampling
from zmeasure.measures import AdmissibilityError, GrandParams, ZParams, z_measure_n
from zmeasure.partitions import (
    Configuration,
    EMPTY_CONFIGURATION,
    EMPTY_DIAGRAM,
    YoungDiagram,
    to_configuration,
)
from zmeasure.sampling import (
    SizeUnderflowError,
    _corner_weights,
    _size_cdf,
    _size_cdf_covering,
    empirical_correlation,
    sample_batch,
    sample_diagram,
    sample_size,
)
from zmeasure.verification import correlation_det

# sample_batch(GrandParams(0.5+1.5i, 0.5-1.5i, xi=0.5), 200, seed=7): parts of
# each draw joined by ",", draws joined by ";" (an empty field is the empty diagram).
PINNED_DRAWS = (
    "3,1;3;3;1,1;1,1;2;2,1;1;2;1;;;2,1,1;2;2,1,1;;3;1,1;1;2;;2;6,1;1,1;2,1;1,1;;3,1,1;3,1;"
    "2,1;4,2;;4,1;;1;2;3,1;1;1,1;3,1;3;2,1;4,1;6,1;3,1;;4,1;;3,1,1;3;2;5,1;;1,1;;7,1;10;1;"
    "2,1;2;1,1,1;1;2;3;2,1,1;1;1;;2,2,1,1;4;2,2,1,1;1,1,1;2,1,1;;2;1;3,2;;2,2;2,1;;2,1,1;3;1;"
    "1;6,1,1,1;3;3,1;2,1;4,1,1;2;2;1;;1,1,1;;6,1;;2,1;1;4;4;;2;3,1;1;3,1;1;2;;1,1;;;1;2,1,1;"
    "2,2;3,1;3;2;;1,1;4,1;1,1,1;1;1;3,1;2,1;;2,1;2;4,1,1;1;2,2,1;2,1;1;2;2;3;;4,2,1,1;3;1;2;"
    "2;1,1;2;1;5,2;2;;2;3,1,1;2;1;1,1;3,2,1,1,1,1;4,1,1;2,1;2,1,1;;;3,1;2;1,1,1;3,1;5,1;2,1;;"
    "2,1;;1;1;8,1;;;6,1,1;3,1;2,1;;2,1;2,1,1;7,2,1;3;2;1;4;2;5,1,1;3,1;1;1;4,1;2,2,1,1,1,1;"
    "4,1;1,1;1;3;1,1,1,1;5,1,1;1"
)


class TestSampleSize:
    def test_empirical_mean(self, gp02):
        rng = np.random.default_rng(11)
        draws = [sample_size(gp02, rng) for _ in range(30_000)]
        mean = gp02.t * gp02.xi / (1.0 - gp02.xi)
        var = gp02.t * gp02.xi / (1.0 - gp02.xi) ** 2
        assert abs(np.mean(draws) - mean) <= 4.0 * math.sqrt(var / len(draws))

    def test_small_xi_mostly_empty(self, real_pair):
        gp = GrandParams(real_pair, 1e-4)
        rng = np.random.default_rng(0)
        draws = [sample_size(gp, rng) for _ in range(500)]
        assert draws.count(0) >= 495

    @pytest.mark.parametrize(
        "z, xi",
        [
            (0.3 + 10j, 0.99999),  # (1-xi)^t is 0.0
            (0.3 + 30j, 0.9999),  # 0.0
            (0.3 + 8j, 0.99999),  # subnormal, 3.5e-321
        ],
    )
    def test_underflowing_weight_refused(self, z, xi):
        # Refused at the CDF build and before any draw, so no test here can
        # reach the doubling loop that an all-zero CDF would never leave.
        gp = GrandParams(ZParams(z, z.conjugate()), xi)
        with pytest.raises(SizeUnderflowError, match=rf"t={gp.t!r}, xi={xi!r}"):
            _size_cdf(gp, 64)
        with pytest.raises(SizeUnderflowError):
            sample_batch(gp, 0, seed=1)

    def test_smallest_weight_accepted(self):
        gp = GrandParams(ZParams(0.3 + 8j, 0.3 - 8j), 0.999)  # (1-xi)^t = 5.4e-193
        assert _size_cdf(gp, 64)[0] == pytest.approx(5.370317963702775e-193, rel=1e-12)

    def test_rounding_deficit_lands_on_last_size(self, real_pair, monkeypatch):
        # At xi=0.99 the summed weights stop 3.3e-15 short of 1; a uniform
        # above that total takes the last size that moved it.
        gp = GrandParams(real_pair, 0.99)
        lengths = []

        def bounded(gp, length):
            lengths.append(length)
            assert length <= 2**20, "the size CDF kept doubling past every weight"
            return _size_cdf(gp, length)

        monkeypatch.setattr(sampling, "_size_cdf", bounded)
        full = _size_cdf(gp, 2**13)
        assert full[-1] < 1.0 and full[-1] == _size_cdf(gp, 2**12)[-1]
        last = full.index(full[-1])
        u = math.nextafter(1.0, 0.0)
        cdf = _size_cdf_covering(gp, _size_cdf(gp, 64), u)
        assert cdf == full[:last] + (1.0,)
        assert bisect_right(cdf, u) == last
        below = math.nextafter(full[-1], 0.0)
        assert bisect_right(_size_cdf_covering(gp, _size_cdf(gp, 64), below), below) == last
        assert max(lengths) == 2**13


class TestSampleDiagram:
    def test_degenerate_sizes(self, real_pair):
        rng = np.random.default_rng(3)
        assert sample_diagram(0, real_pair, rng) == EMPTY_DIAGRAM
        assert sample_diagram(1, real_pair, rng) == YoungDiagram((1,))

    def test_two_hundred_boxes(self, real_pair):
        lam = sample_diagram(200, real_pair, np.random.default_rng(3))
        assert lam.n == 200

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
        rng = np.random.default_rng(5)
        n_draws = 20_000
        hits = sum(
            sample_diagram(2, real_pair, rng) == YoungDiagram((2,)) for _ in range(n_draws)
        )
        p = z_measure_n(YoungDiagram((2,)), real_pair)  # 6/7
        assert abs(hits / n_draws - p) <= 3.0 * math.sqrt(p * (1 - p) / n_draws)


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
        # Draws recorded under the zmeasure.sample/2 schema: any change here changes its streams.
        batch = sample_batch(GrandParams(complex_pair, 0.5), 200, seed=7)
        assert ";".join(",".join(map(str, lam.parts)) for lam in batch.draws) == PINNED_DRAWS

    @pytest.mark.parametrize("zp", [ZParams(0.5, 1 / 3), ZParams(0.2 + 0.3j, 0.2 - 0.3j)])
    def test_batch_equals_one_draw_route(self, zp):
        # At xi=0.99 sizes pass 64, so the batch extends its size CDF too.
        gp = GrandParams(zp, 0.99)
        batch = sample_batch(gp, 2000, seed=3)
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        assert batch.draws == tuple(
            sample_diagram(sample_size(gp, rng), zp, rng) for _ in range(2000)
        )
        assert max(lam.n for lam in batch.draws) > 64

    def test_meta_fields(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        meta = sample_batch(gp, 10, seed=0).meta()
        assert meta["schema"] == "zmeasure.sample/2"
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
