import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zmeasure.kernels as kernels
import zmeasure.partitions as partitions
import zmeasure.verification as verification
from zmeasure.measures import AdmissibilityError, GrandParams, ZParams, mixed_measure
from zmeasure.partitions import (
    Configuration,
    EMPTY_CONFIGURATION,
    enumerate_partitions,
    to_configuration,
)
from zmeasure.verification import (
    OPERATOR_MAX_ROWS,
    TailBudgetError,
    VerificationReport,
    _case,
    _containment,
    _diagram_arrays,
    _frobenius_det,
    _minors,
    _mixed_measure_direct,
    _weighted_configurations,
    correlation_det,
    correlation_oracle,
    fredholm_check,
    identity_suite,
    meixner_check,
    negative_binomial_tail_bound,
    normalization_check,
    operator_identity_check,
    oracle_check,
    run_suite,
    scaling_limit_check,
)
from zmeasure.kernels import (
    _half_line,
    _kernel_values,
    decay_certificate,
    function_table,
    hyper_kernel,
    kernel_block_matrix,
    l_matrix,
)


class TestOracle:
    def test_empty_configuration_total_mass(self, gp02):
        value, tail = correlation_oracle(EMPTY_CONFIGURATION, gp02, n_max=22)
        assert tail < 1e-15
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_input_is_fine(self, gp02):
        value, _ = correlation_oracle(Configuration.from_points(["1/2"]), gp02, n_max=22)
        assert 0.0 < value < 1.0

    def test_small_xi_leading_order(self, real_pair):
        gp = GrandParams(real_pair, 0.01)
        X = Configuration.from_points(["1/2", "-1/2"])
        value, _ = correlation_oracle(X, gp, n_max=12)
        leading = 0.99**gp.t * 0.01 * gp.t
        assert value == pytest.approx(leading, rel=2e-2)

    def test_tail_budget_enforced(self, real_pair):
        gp = GrandParams(real_pair, 0.6)
        with pytest.raises(TailBudgetError):
            correlation_oracle(EMPTY_CONFIGURATION, gp, n_max=8, tail_tol=1e-15)

    def test_tail_bound_is_a_bound(self, gp02):
        from zmeasure.measures import neg_binomial_weight

        bound = negative_binomial_tail_bound(gp02.t, gp02.xi, 15)
        actual = sum(neg_binomial_weight(n, gp02.t, gp02.xi) for n in range(16, 300))
        assert 0.0 < actual <= bound

    def test_cache_holds_one_parameter_set(self, real_pair, complex_pair):
        for zp in (real_pair, complex_pair):
            assert oracle_check(zp, xi=0.01, n_max=10, max_size=1).passed
        assert _weighted_configurations.cache_info().currsize == 1


WEIGHT_PAIRS = {
    "real": ZParams(0.5, 1.0 / 3.0),
    "negative": ZParams(-0.4, -0.7),
    "conjugate": ZParams(0.5 + 1.5j, 0.5 - 1.5j),
    "large-imaginary": ZParams(0.3 + 8j, 0.3 - 8j),
    "real-above-one": ZParams(1.5, 1.3),
}


def all_diagrams(n_max: int) -> list:
    return [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]


class TestDiagramArrays:
    """The vectorised oracle weights and masks against the per-diagram routes."""

    @pytest.mark.parametrize("zp", WEIGHT_PAIRS.values(), ids=WEIGHT_PAIRS.keys())
    def test_weights_match_mixed_measure(self, zp):
        gp = GrandParams(zp, 0.2)
        ref = np.array([mixed_measure(lam, gp) for lam in all_diagrams(20)])
        assert np.array_equal(_weighted_configurations(gp, 20), ref)  # one route, bit for bit

    @pytest.mark.parametrize("zp", WEIGHT_PAIRS.values(), ids=WEIGHT_PAIRS.keys())
    def test_weights_match_direct_route(self, zp):
        gp = GrandParams(zp, 0.2)
        ref = np.array([_mixed_measure_direct(lam, gp, _frobenius_det(lam)) for lam in all_diagrams(20)])
        weights = _weighted_configurations(gp, 20)
        assert np.max(np.abs(weights - ref) / ref) <= 1e-13

    def test_masks_match_bit_sums(self):
        diagrams = all_diagrams(26)
        arrays = _diagram_arrays(26)
        assert arrays.pos_masks.dtype == arrays.neg_masks.dtype == np.uint64
        for masks, half in ((arrays.pos_masks, 0), (arrays.neg_masks, 1)):
            bit_sums = [sum(1 << k for k in lam.frobenius[half]) for lam in diagrams]
            assert np.array_equal(masks, np.array(bit_sums, dtype=np.uint64))

    def test_padded_coordinates(self):
        arrays = _diagram_arrays(12).frobenius
        assert arrays.p.dtype == arrays.q.dtype == np.int16
        for row, lam in enumerate(all_diagrams(12)):
            p, q = lam.frobenius
            pad = (0,) * (arrays.p.shape[0] - lam.d)
            assert tuple(arrays.p[:, row]) == p + pad and tuple(arrays.q[:, row]) == q + pad
            assert (arrays.n[row], arrays.d[row]) == (lam.n, lam.d)

    def test_inadmissible_parameters_raise(self):
        with pytest.raises(AdmissibilityError):
            _weighted_configurations(GrandParams(ZParams.meixner(3, 0.5), 0.2), 10)


POOL = sorted(
    [Fraction(2 * k + 1, 2) for k in range(4)] + [-Fraction(2 * k + 1, 2) for k in range(4)],
    reverse=True,
)
POOL_SUBSETS = [
    Configuration.from_points(pts) for size in range(4) for pts in combinations(POOL, size)
]


def scan_configurations(gp: GrandParams, n_max: int) -> list[tuple[frozenset, float]]:
    """Every diagram of at most n_max boxes as its point set and weight."""
    return [
        (to_configuration(lam).points, mixed_measure(lam, gp))
        for n in range(n_max + 1)
        for lam in enumerate_partitions(n)
    ]


def scan_oracle(X: Configuration, configurations: list[tuple[frozenset, float]]) -> float:
    """Reference containment sum: one frozenset test per diagram."""
    return sum(w for conf, w in configurations if X.points <= conf)


class TestOnePassOracle:
    """The bitmask oracle against the frozenset scan it replaced."""

    N_MAX = 16
    XI = 0.1  # keeps the certified tail at n_max=16 inside the default budget

    @pytest.mark.parametrize(
        "zp",
        [ZParams(0.5, 1.0 / 3.0), ZParams(-0.4, -0.7), ZParams(0.5 + 1.5j, 0.5 - 1.5j)],
        ids=["real", "negative", "conjugate"],
    )
    def test_pool_subsets_match_scan(self, zp):
        gp = GrandParams(zp, self.XI)
        assert len(POOL_SUBSETS) == 93
        configurations = scan_configurations(gp, self.N_MAX)
        for X in POOL_SUBSETS:
            value, _tail = correlation_oracle(X, gp, self.N_MAX)
            assert value == pytest.approx(scan_oracle(X, configurations), rel=1e-13), X.to_json()

    def test_point_beyond_truncation(self, real_pair):
        gp = GrandParams(real_pair, self.XI)
        configurations = scan_configurations(gp, self.N_MAX)
        for X in (
            Configuration.from_indices([self.N_MAX], []),
            Configuration.from_indices([0], [self.N_MAX + 3]),
            Configuration.from_indices([70], []),  # beyond any 64-bit mask
        ):
            value, tail = correlation_oracle(X, gp, self.N_MAX)
            assert value == 0.0 and scan_oracle(X, configurations) == 0.0
            assert tail == negative_binomial_tail_bound(gp.t, gp.xi, self.N_MAX)
        # the largest index inside the truncation is still counted
        X = Configuration.from_indices([self.N_MAX - 1], [])
        value, _ = correlation_oracle(X, gp, self.N_MAX)
        assert value > 0.0
        assert value == pytest.approx(scan_oracle(X, configurations), rel=1e-13)

    def test_unbalanced_configuration(self, complex_pair):
        gp = GrandParams(complex_pair, self.XI)
        configurations = scan_configurations(gp, self.N_MAX)
        for X in (
            Configuration.from_indices([2, 1, 0], []),
            Configuration.from_indices([], [3, 0]),
            Configuration.from_indices([5, 0], [2]),
        ):
            value, _ = correlation_oracle(X, gp, self.N_MAX)
            assert value > 0.0
            assert value == pytest.approx(scan_oracle(X, configurations), rel=1e-13)


ORACLE_POOL = [(1, k) for k in range(3, -1, -1)] + [(-1, k) for k in range(4)]  # 7/2 down to -7/2
ALL_POOL_SUBSETS = [sub for size in range(9) for sub in combinations(range(8), size)]
ROUTE_PAIRS = {
    "real": ZParams(0.5, 1.0 / 3.0),
    "negative": ZParams(-0.4, -0.7),
    "conjugate": ZParams(0.45 + 1.4j, 0.45 - 1.4j),
}


def mask_oracle(points: list[tuple[int, int]], gp: GrandParams, n_max: int) -> float:
    """Containment of one set by its own mask test and masked sum over every diagram."""
    arrays = _diagram_arrays(n_max)
    xp = np.uint64(sum(1 << k for s, k in points if s > 0))
    xn = np.uint64(sum(1 << k for s, k in points if s < 0))
    contains = ((arrays.pos_masks & xp) == xp) & ((arrays.neg_masks & xn) == xn)
    return float(_weighted_configurations(gp, n_max)[contains].sum())


def looped_minors(points: list[tuple[int, int]], subsets, gp: GrandParams) -> list[float]:
    """det K on each subset with one det or QR call per subset, from the same kernel and Gram rows."""
    kernel = _kernel_values(points, points, gp)
    rows = {}
    for sign in (1, -1):
        on = [i for i, (s, _k) in enumerate(points) if s == sign]
        n = max(decay_certificate(gp), max(points[i][1] for i in on) + 1)
        a = l_matrix(gp, n)[:n, n:]
        u = _kernel_values([points[i] for i in on], _half_line(-sign, n), gp, function_table(gp, n))
        m = np.linalg.cholesky(np.eye(n) + (a.T @ a if sign > 0 else a @ a.T))
        rows.update(zip(on, u @ m))
    out = []
    for sub in subsets:
        halves = {points[i][0] for i in sub}
        if len(sub) < 2 or len(halves) > 1:
            out.append(float(np.linalg.det(kernel[np.ix_(sub, sub)])))
        else:
            r = np.linalg.qr(np.array([rows[i] for i in sub]).T, mode="r")
            out.append(float(np.prod(np.diag(r)) ** 2))
    return out


class TestStackedOracleRoutes:
    """The one-pass containment and the stacked minors against one call per set."""

    @pytest.mark.parametrize("xi", [0.05, 0.2])
    @pytest.mark.parametrize("zp", ROUTE_PAIRS.values(), ids=ROUTE_PAIRS.keys())
    def test_every_pool_subset_matches_its_mask_sum(self, zp, xi):
        gp = GrandParams(zp, xi)
        contained = _containment(ORACLE_POOL, gp, 26)
        assert contained.shape == (256,)
        for sub in ALL_POOL_SUBSETS:
            ref = mask_oracle([ORACLE_POOL[i] for i in sub], gp, 26)
            assert contained[sum(1 << i for i in sub)] == pytest.approx(ref, rel=1e-13, abs=0.0), sub

    @pytest.mark.parametrize("zp", ROUTE_PAIRS.values(), ids=ROUTE_PAIRS.keys())
    def test_oracle_suite_reads_the_one_pass_values(self, zp):
        gp = GrandParams(zp, 0.1)
        report = oracle_check(zp, 0.1, max_size=8)
        assert len(report.cases) == 256
        for sub, case in zip(ALL_POOL_SUBSETS, report.cases):
            ref = mask_oracle([ORACLE_POOL[i] for i in sub], gp, 26)
            assert case.rhs == pytest.approx(ref, rel=1e-13, abs=0.0), case.label

    @pytest.mark.parametrize("xi", [0.05, 0.2])
    @pytest.mark.parametrize("zp", ROUTE_PAIRS.values(), ids=ROUTE_PAIRS.keys())
    def test_stacked_minors_match_one_call_per_minor(self, zp, xi):
        gp = GrandParams(zp, xi)
        assert _minors(ORACLE_POOL, ALL_POOL_SUBSETS, gp) == looped_minors(ORACLE_POOL, ALL_POOL_SUBSETS, gp)

    def test_point_beyond_truncation_has_value_zero(self, real_pair):
        gp = GrandParams(real_pair, 0.05)  # certified tail below 1e-15 at n_max = 12
        pool = [(1, 0), (-1, 12), (1, 70)]  # 70 lies beyond any 64-bit mask
        contained = _containment(pool, gp, 12)
        assert contained[0b001] == pytest.approx(mask_oracle(pool[:1], gp, 12), rel=1e-13, abs=0.0)
        assert (contained[[0b010, 0b011, 0b100, 0b101, 0b110, 0b111]] == 0.0).all()

    def test_more_points_on_a_half_than_the_truncation_holds(self, gp02):
        X = Configuration.from_indices([4, 3, 2, 1, 0], [])  # a diagram of at most 24 boxes has rank <= 4
        assert correlation_oracle(X, gp02, 24) == (0.0, negative_binomial_tail_bound(gp02.t, gp02.xi, 24))
        assert mask_oracle([(1, k) for k in range(5)], gp02, 24) == 0.0
        X = Configuration.from_indices([3, 2, 1, 0], [])
        assert correlation_oracle(X, gp02, 24)[0] == pytest.approx(
            mask_oracle([(1, k) for k in range(4)], gp02, 24), rel=1e-13
        )

    def test_tail_refused_before_any_work(self, monkeypatch, real_pair):
        def refuse(*args):
            raise AssertionError("the diagrams were read")

        monkeypatch.setattr(verification, "_diagram_arrays", refuse)
        monkeypatch.setattr(verification, "_weighted_configurations", refuse)
        monkeypatch.setattr(verification, "_minors", refuse)
        gp = GrandParams(real_pair, 0.6)
        with pytest.raises(TailBudgetError):
            correlation_oracle(Configuration.from_indices([0], [0]), gp, n_max=8)
        with pytest.raises(TailBudgetError):
            oracle_check(real_pair, 0.6, n_max=8)

    @pytest.mark.parametrize("max_size", [-1, 9, 12])
    def test_oracle_suite_refuses_a_size_outside_the_pool(self, max_size):
        with pytest.raises(ValueError, match=f"max_size must be in 0..8, got {max_size}"):
            oracle_check(max_size=max_size)

    def test_oracle_suite_at_size_zero(self):
        assert [c.label for c in oracle_check(max_size=0).cases] == ["contains {}"]


class TestCorrelationDet:
    def test_empty(self, gp02):
        assert correlation_det(EMPTY_CONFIGURATION, gp02) == 1.0

    def test_singleton_equals_diagonal(self, gp02):
        X = Configuration.from_points(["3/2"])
        assert correlation_det(X, gp02) == pytest.approx(
            hyper_kernel(1.5, 1.5, gp02), rel=1e-14
        )

    @pytest.mark.parametrize(
        "zp,xi,points",
        [
            (ZParams(0.771097152912646, 0.6556053109841888), 0.05684578744992283, ["7/2", "5/2", "3/2"]),
            (ZParams(0.7253057922717698, 0.7481534735634681), 0.05837512098916472, ["7/2", "5/2", "3/2"]),
            (ZParams(-0.79, -0.79), 0.05, ["-3/2", "-5/2", "-7/2"]),
        ],
    )
    def test_near_singular_one_sided_minor(self, zp, xi, points):
        # The determinant of these minors' kernel entries misses the oracle by
        # 1.2e-6, 1.1e-6 and 7.6e-7; condition numbers reach 5e9.
        gp = GrandParams(zp, xi)
        X = Configuration.from_points(points)
        value, _ = correlation_oracle(X, gp)
        assert correlation_det(X, gp) == pytest.approx(value, rel=1e-11)

    @pytest.mark.parametrize("points", [["3/2", "1/2"], ["-1/2", "-3/2"], ["5/2", "3/2", "1/2"]])
    def test_one_sided_minor_matches_entries(self, real_pair, points):
        gp = GrandParams(real_pair, 0.5)
        X = Configuration.from_points(points)
        pts = X.sorted_points()
        entries = np.array([[hyper_kernel(x, y, gp) for y in pts] for x in pts])
        assert correlation_det(X, gp) == pytest.approx(np.linalg.det(entries), rel=1e-12)

    def test_pool_minors_match_the_oracle_suite(self, real_pair):
        gp = GrandParams(real_pair, 0.2)
        report = oracle_check(real_pair, 0.2)
        assert len(report.cases) == len(POOL_SUBSETS) == 93
        by_label = {c.label: c.lhs for c in report.cases}
        for X in POOL_SUBSETS:
            suite = by_label["contains {" + ", ".join(X.to_json()) + "}"]
            assert correlation_det(X, gp) == pytest.approx(suite, rel=1e-11, abs=0.0), X.to_json()

    def test_oracle_suite_sums_the_diagonal_series_once_per_half(self, monkeypatch, real_pair):
        calls = []
        diag_sums = kernels._diag_sums
        monkeypatch.setattr(kernels, "_diag_sums", lambda *args: calls.append(1) or diag_sums(*args))
        assert oracle_check(real_pair, 0.25).passed
        assert len(calls) == 2

    def test_same_point_requests_read_the_table(self, monkeypatch):
        # the pool kernel and a minor's kernel hold each point on both sides, so
        # every value comes from the function table their diagonals sum over
        def refuse(*args):
            raise AssertionError(f"the point source was called at {args[:2]}")

        monkeypatch.setattr(kernels, "_point", refuse)
        assert oracle_check(ZParams(0.5, 1.0 / 3.0), 0.2).passed
        X = Configuration.from_points(["3/2", "1/2", "-5/2"])
        gp = GrandParams(ZParams(0.5, 1.0 / 3.0), 0.2)
        oracle, _ = correlation_oracle(X, gp, n_max=26)
        assert correlation_det(X, gp) == pytest.approx(oracle, rel=1e-6)

    def test_triple_against_oracle(self, gp02):
        X = Configuration.from_points(["1/2", "3/2", "-1/2"])
        det = correlation_det(X, gp02)
        oracle, _ = correlation_oracle(X, gp02, n_max=26)
        assert det == pytest.approx(oracle, rel=1e-6)


class TestSuitesPassIndices:
    def test_no_suite_parses_a_half_integer(self, monkeypatch):
        def refuse(x):
            raise AssertionError(f"a suite parsed the point {x!r}")

        monkeypatch.setattr(kernels, "half_integer_index", refuse)
        monkeypatch.setattr(partitions, "half_integer_index", refuse)
        assert oracle_check(ZParams(0.5, 1.0 / 3.0), 0.2).passed
        assert meixner_check().passed
        assert scaling_limit_check().passed


class TestSuites:
    def test_scaling_checks_float_whittaker_against_mpmath(self):
        cases = [c for c in scaling_limit_check().cases if c.label.startswith("Whittaker W float vs mpmath")]
        assert len(cases) == 18  # six distinct kappa of (1/2, 1/3), three x each
        assert all(c.passed and c.tol == 1e-13 for c in cases)

    def test_case_modes(self):
        assert _case("x", 1.0, 1.0 + 1e-13, 1e-12).passed
        assert not _case("x", 1.0, 1.1, 1e-12).passed
        assert _case("x", 0.5, 1.0, 0.0, "decrease").passed
        assert not _case("x", 1.0, 0.5, 0.0, "decrease").passed
        with pytest.raises(ValueError):
            _case("x", 1.0, 1.0, 1e-12, "bogus")

    def test_report_serialization(self):
        report = VerificationReport("demo", 1e-9, [_case("a", 1.0, 1.0, 1e-9)], 0.01)
        payload = report.to_dict()
        assert payload["schema"] == "zmeasure.report/1"
        assert set(payload) == {
            "schema",
            "suite",
            "tolerance",
            "passed",
            "runtime_seconds",
            "cases",
        }
        assert set(payload["cases"][0]) == {
            "label",
            "lhs",
            "rhs",
            "abs_err",
            "rel_err",
            "tol",
            "passed",
        }
        json.dumps(payload)

    def test_fredholm_small_xi_trivial_limit(self, real_pair):
        # both det(1+L) and (1-xi)^(-t) tend to 1 as xi vanishes
        report = fredholm_check(GrandParams(real_pair, 0.01), trunc=30)
        assert report.passed
        assert (1.0 - 0.01) ** (-real_pair.t) == pytest.approx(1.0, abs=2e-3)

    def test_first_decomposition_degenerate_upper_parameter(self, gp02):
        # with a = 0 the left side is 1/u and the series collapses to its k = 0
        # term (1-xi)^(b-1) F(1, 1-b; 1; w) / u, which must also equal 1/u
        from zmeasure.specfun import gauss_2f1_w, realize

        b, xi = -1.0 / 3.0, gp02.xi
        k0 = (1.0 - xi) ** (b - 1.0) * realize(gauss_2f1_w(1.0, 1.0 - b, 1.0, xi))
        assert k0 == pytest.approx(1.0, rel=1e-14)

    def test_identity_suite_pole_guard(self, gp02):
        from zmeasure.specfun import PoleError

        with pytest.raises(PoleError):
            identity_suite(gp02, u_grid=(2.0,))

    def test_identity_suite_default_grid(self, gp02):
        report = identity_suite(gp02)
        assert report.passed, report.failures()

    def test_identity_suite_default_grid_avoids_poles(self, negative_pair):
        # u + z or u + z' a nonnegative integer is a pole of psi(-, -u-1): 0.4 and 3.7 here
        report = identity_suite(GrandParams(negative_pair, 0.2))
        assert report.passed, report.failures()
        labels = [c.label for c in report.cases if c.label.startswith("first decomposition")]
        assert labels == [f"first decomposition, u={u}" for u in (0.45, 1.3, 2.3, 3.75, 5.9)]

    @pytest.mark.parametrize("xi", [0.2, 0.5, 0.9])
    def test_identity_suite_negative_pair_off_its_poles(self, negative_pair, xi):
        report = identity_suite(GrandParams(negative_pair, xi), u_grid=(0.45, 1.3, 2.45, 3.85, 5.9))
        assert report.passed, report.failures()

    @pytest.mark.parametrize("u", [0.4, 3.7, 3.7005])
    def test_identity_suite_refuses_pole_points(self, negative_pair, u):
        from zmeasure.specfun import PoleError

        with pytest.raises(PoleError):
            identity_suite(GrandParams(negative_pair, 0.2), u_grid=(1.3, u))

    def test_identity_suite_near_one(self, real_pair):
        report = identity_suite(GrandParams(real_pair, 0.98))
        assert report.passed, report.failures()

    def test_identities_operator_cases_name_their_parameters(self, complex_pair):
        (report,) = run_suite("identities", complex_pair, 0.4)
        assert report.passed, report.failures()
        operator = [c.label for c in report.cases if "u=" not in c.label]
        assert len(operator) == 29
        trunc = decay_certificate(GrandParams(complex_pair, 0.4))
        assert all(label.endswith(f"pair (0.5+1.5i, 0.5-1.5i), xi=0.4, trunc={trunc}") for label in operator)
        for name in ("++", "--"):
            diag = [label for label in operator if label.startswith(f"{name} diagonal series vs derivative")]
            assert len(diag) == 11

    def test_operator_check_refuses_a_dense_system_above_its_row_limit(self, real_pair):
        gp = GrandParams(real_pair, 0.98)
        trunc = decay_certificate(gp)
        assert trunc > OPERATOR_MAX_ROWS
        with pytest.raises(ValueError, match=f"needs {trunc} rows"):
            operator_identity_check(gp)
        with pytest.raises(ValueError, match=f"needs {trunc} rows"):
            run_suite("identities", real_pair, 0.98)

    def test_normalization_suite(self):
        report = normalization_check(n_max=6)
        assert report.passed, report.failures()
        labels = [c.label for c in report.cases]
        assert sum(label.startswith("hook vs Frobenius-determinant dimension") for label in labels) == 1
        assert sum(label.startswith("factored vs direct grand-ensemble weight") for label in labels) == 3

    def test_meixner_suite_checks_christoffel_darboux(self):
        report = meixner_check()
        assert report.passed, report.failures()
        assert any(c.label.startswith("Christoffel-Darboux vs rank-3 sum") for c in report.cases)

    @pytest.mark.parametrize("xi", [0.8, 0.9, 0.95])
    def test_meixner_suite_near_one(self, xi):
        (report,) = run_suite("meixner", None, xi)
        assert report.passed, report.failures()

    @pytest.mark.parametrize(
        "zp,xi",
        [
            (ZParams(0.5 + 8.0j, 0.5 - 8.0j), 0.5),  # A has singular values near 2e4
            (ZParams(0.5 + 1.5j, 0.5 - 1.5j), 0.97),  # 1515 rows; 60 miss by 0.3
        ],
    )
    def test_fredholm_at_certificate_size(self, zp, xi):
        gp = GrandParams(zp, xi)
        report = fredholm_check(gp)
        assert report.passed, report.failures()
        assert all(f"trunc={decay_certificate(gp)}" in c.label for c in report.cases)

    def test_run_suite_unknown(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    @pytest.mark.parametrize(
        "name, with_pair, xi",
        [("meixner", True, None), ("scaling", False, 0.7), ("all", True, None), ("all", False, 0.3)],
    )
    def test_run_suite_refuses_unusable_values(self, real_pair, name, with_pair, xi):
        with pytest.raises(ValueError, match="cannot use a given"):
            run_suite(name, real_pair if with_pair else None, xi)

    def test_run_suite_fredholm(self):
        (report,) = run_suite("fredholm")
        assert report.suite == "fredholm" and report.passed

    def test_run_suite_fredholm_uses_given_parameters(self, complex_pair):
        (report,) = run_suite("fredholm", complex_pair, 0.4)
        assert report.passed and len(report.cases) == 3
        assert all("xi=0.4, t=2.5," in c.label for c in report.cases)


@st.composite
def admissible_pairs(draw) -> ZParams:
    """Real pairs in (0, 1) or (-1, 0), or conjugate pairs with 0 < Im z <= 2."""
    kind = draw(st.sampled_from(("positive", "negative", "conjugate")))
    if kind == "conjugate":
        z = complex(draw(st.floats(-1.5, 1.5)), draw(st.floats(0.1, 2.0)))
        return ZParams(z, z.conjugate())
    pair = [draw(st.floats(0.01, 0.99)) for _ in range(2)]
    return ZParams(*(pair if kind == "positive" else [-x for x in pair]))


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(admissible_pairs(), st.floats(0.05, 0.9))
    def test_kernel_and_fredholm_identity(self, zp, xi):
        gp = GrandParams(zp, xi)
        trunc = 12
        plus_minus = kernel_block_matrix(gp, "+-", trunc).entries
        minus_plus = kernel_block_matrix(gp, "-+", trunc).entries
        assert np.array_equal(minus_plus, -plus_minus.T)
        for block in ("++", "--"):
            diag = np.diag(kernel_block_matrix(gp, block, trunc).entries)
            assert (diag >= 0.0).all() and (diag <= 1.0).all(), block
        report = fredholm_check(gp)
        assert report.passed, report.failures()


def _certified_n_max(gp: GrandParams, tail_tol: float = 1e-15) -> int:
    """Smallest truncation from 26 up whose certified tail meets ``tail_tol``."""
    n_max = 26
    while negative_binomial_tail_bound(gp.t, gp.xi, n_max) > tail_tol:
        n_max += 1
    return n_max


class TestMinorProperties:
    @settings(max_examples=20, deadline=None)
    @given(admissible_pairs(), st.floats(0.05, 0.9))
    def test_small_principal_minors_are_probabilities(self, zp, xi):
        gp = GrandParams(zp, xi)
        trunc = 12
        for block in ("++", "--"):
            entries = kernel_block_matrix(gp, block, trunc).entries
            for size in (2, 3):
                idx = np.array(list(combinations(range(trunc), size)))
                minors = np.linalg.det(entries[idx[:, :, None], idx[:, None, :]])
                assert minors.min() >= -1e-12 and minors.max() <= 1.0 + 1e-12, (block, size)

    @settings(max_examples=5, deadline=None)
    @given(admissible_pairs(), st.floats(0.05, 0.2), st.sampled_from(POOL_SUBSETS))
    def test_minor_equals_oracle(self, zp, xi, X):
        gp = GrandParams(zp, xi)
        value, _tail = correlation_oracle(X, gp, _certified_n_max(gp))
        assert correlation_det(X, gp) == pytest.approx(value, rel=1e-6)
