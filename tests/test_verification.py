import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmeasure.measures import GrandParams, ZParams
from zmeasure.partitions import Configuration, EMPTY_CONFIGURATION
from zmeasure.verification import (
    TailBudgetError,
    VerificationReport,
    _case,
    _weighted_configurations,
    correlation_det,
    correlation_oracle,
    fredholm_check,
    identity_suite,
    meixner_check,
    negative_binomial_tail_bound,
    normalization_check,
    oracle_check,
    run_suite,
)
from zmeasure.kernels import decay_certificate, hyper_kernel, kernel_block_matrix


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


class TestCorrelationDet:
    def test_empty(self, gp02):
        assert correlation_det(EMPTY_CONFIGURATION, gp02) == 1.0

    def test_singleton_equals_diagonal(self, gp02):
        X = Configuration.from_points(["3/2"])
        assert correlation_det(X, gp02) == pytest.approx(
            hyper_kernel(1.5, 1.5, gp02), rel=1e-14
        )

    def test_triple_against_oracle(self, gp02):
        X = Configuration.from_points(["1/2", "3/2", "-1/2"])
        det = correlation_det(X, gp02)
        oracle, _ = correlation_oracle(X, gp02, n_max=26)
        assert det == pytest.approx(oracle, rel=1e-6)


class TestSuites:
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
