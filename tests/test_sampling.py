import math

import numpy as np
import pytest

from zmeasure.measures import GrandParams, z_measure_n
from zmeasure.partitions import Configuration, EMPTY_CONFIGURATION, EMPTY_DIAGRAM, YoungDiagram
from zmeasure.sampling import (
    SizeCapError,
    empirical_correlation,
    sample_batch,
    sample_diagram,
    sample_size,
)

# sample_batch(GrandParams(0.5+1.5i, 0.5-1.5i, xi=0.5), 200, seed=7): parts of
# each draw joined by ",", draws joined by ";" (an empty field is the empty diagram).
PINNED_DRAWS = (
    "4;2,1;3;;3;1;4,1;4,1,1;2,1;2,1;1;3;;;2,1,1;3,2;2;3,1;5;;2,1;2;6,1;2;;2;2,2,1,1,1;;1;1;"
    "1,1;2,1;2;5;1,1,1,1,1;;1,1;2,1,1;2;2,1;1,1,1;;3,1;3;;3,1,1;1;4;1;1,1;;1,1;1;3,1,1;;1;3;;"
    "3;3,1,1,1;1;6;4,1,1,1;;2;1;3,1;4,1;;5;1;;;3,2;1,1;3,1;2;2;4,1,1;1;4;;1,1;;6,2;3,1;;1;1;1;"
    ";1;3;2,1;1;2,1;2;2,1;5,1;2;3;1,1;;1,1,1,1;1;;5,1;4,1,1;2,1;3,1;;;4,1,1;2,1,1,1;1,1,1;2,1;"
    "4,1,1,1;6,1,1,1;4;2;1;5,1,1;3;;3,1;4,1,1;2,1;6,1;3,1;2,1,1;2,1;2;1;3,1;2,1,1;1;1;2,1;1,1;;"
    "1;1,1,1;1;1,1;3,1;1;1;1;;2,1;9;6,1;1;3,1;;;3;3;4;;1,1;2;3;2;3,1;1,1;1;;1,1;1;2;1,1;;;1;;"
    "2,1,1,1,1;1,1,1,1;;2,1;1,1;1;2;2;;1,1;4,1;4;;2,1;3,1;1;4,1;;2,1;5,1;3;3,2;1,1;5,1"
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


class TestSampleDiagram:
    def test_degenerate_sizes(self, real_pair):
        rng = np.random.default_rng(3)
        assert sample_diagram(0, real_pair, rng) == EMPTY_DIAGRAM
        assert sample_diagram(1, real_pair, rng) == YoungDiagram((1,))

    def test_cap(self, real_pair):
        rng = np.random.default_rng(3)
        with pytest.raises(SizeCapError):
            sample_diagram(31, real_pair, rng)

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
        # Draws recorded under the zmeasure.sample/1 schema: any change here changes its streams.
        batch = sample_batch(GrandParams(complex_pair, 0.5), 200, seed=7)
        assert ";".join(",".join(map(str, lam.parts)) for lam in batch.draws) == PINNED_DRAWS

    def test_meta_fields(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        meta = sample_batch(gp, 10, seed=0).meta()
        assert meta["schema"] == "zmeasure.sample/1"
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
        from zmeasure.verification import correlation_det

        gp = GrandParams(real_pair, 0.5)
        batch = sample_batch(gp, 30_000, seed=13)
        X = Configuration.from_points(["1/2", "-1/2"])
        est, se = empirical_correlation(batch, X)
        ref = correlation_det(X, gp)
        assert abs(est - ref) <= 3.0 * max(se, 1e-6)

    def test_empty_batch_rejected(self, real_pair):
        gp = GrandParams(real_pair, 0.5)
        batch = sample_batch(gp, 0, seed=1)
        with pytest.raises(ValueError):
            empirical_correlation(batch, EMPTY_CONFIGURATION)
