import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zmeasure.specfun import (
    DomainError,
    PoleError,
    RealizationError,
    _reseed_stride,
    gauss_2f1_columns,
    gauss_2f1_direct,
    gauss_2f1_w,
    gauss_2f1_w_dc,
    loggamma,
    meixner_leading_coefficient,
    meixner_norm,
    meixner_polynomial,
    meixner_weight,
    pochhammer,
    realize,
    realize_array,
    whittaker_w,
    xi_to_w,
)


class TestRealize:
    def test_passes_small_imag(self):
        assert realize(2.0 + 1e-12j) == 2.0

    def test_rejects_large_imag(self):
        with pytest.raises(RealizationError):
            realize(1.0 + 1e-3j)

    def test_array_form(self):
        assert realize_array(np.array([2.0 + 1e-12j, -1.0])).tolist() == [2.0, -1.0]
        with pytest.raises(RealizationError, match="at index 1"):
            realize_array(np.array([2.0, 1.0 + 1e-3j]))


class TestLoggamma:
    def test_array_form_matches_scalar(self):
        z = np.array([0.5, 3.0 + 2.0j, 40.0 - 7.5j])
        out = loggamma(z)
        assert out.dtype == complex
        assert [complex(v) for v in out] == [loggamma(v) for v in z]

    def test_scalars_give_python_complex(self):
        for z in (0.5, 3, 2.0 - 1.0j, np.float64(4.5), np.complex128(1.0 + 1.0j)):
            out = loggamma(z)
            assert type(out) is complex
            assert out == complex(loggamma(np.array([z]))[0])


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7 + 1.0j, 0) == 1.0

    @pytest.mark.parametrize("k", range(8))
    def test_unit_base_gives_factorial(self, k):
        assert pochhammer(1.0, k) == math.factorial(k)

    def test_half_base(self):
        assert pochhammer(0.5, 3) == pytest.approx(1.875, abs=1e-15)

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.integers(0, 20),
    )
    def test_recurrence(self, a, k):
        assert pochhammer(a, k + 1) == pytest.approx(pochhammer(a, k) * (a + k), rel=1e-12)


class TestGauss2F1:
    def test_zero_upper_parameter(self):
        for b, c, xi in ((0.3, 1.7, 0.2), (-2.5, 0.4, 0.7)):
            assert realize(gauss_2f1_w(0.0, b, c, xi)) == pytest.approx(1.0, abs=1e-15)

    def test_terminating_hand_value(self):
        # single-step series: 1 + (a b / c) w with w = -1/4
        assert realize(gauss_2f1_w(-1, -1.0 / 3.0, 1.0, 0.2)) == pytest.approx(
            1.0 - 1.0 / 12.0, abs=1e-15
        )

    def test_two_summation_routes(self):
        v_pfaff = gauss_2f1_w(-0.5, -1.0 / 3.0, 1.0, 0.2)
        v_direct = gauss_2f1_direct(-0.5, -1.0 / 3.0, 1.0, xi_to_w(0.2))
        assert abs(v_pfaff - v_direct) <= 1e-13

    @pytest.mark.parametrize("xi", [0.05, 0.15, 0.25, 0.35, 0.45])
    @pytest.mark.parametrize(
        "a,b,c",
        [
            (-0.5, -1.0 / 3.0, 1.0),
            (1.5, 1.0 / 3.0, 2.0),
            (-0.5 - 1.5j, -0.5 + 1.5j, 1.0),
            (0.5, 1.0 / 3.0, -2.7),
        ],
    )
    def test_pfaff_consistency_grid(self, xi, a, b, c):
        # |w| < 1 for xi < 1/2, so the plain series is an independent oracle
        v_pfaff = gauss_2f1_w(a, b, c, xi)
        v_direct = gauss_2f1_direct(a, b, c, xi_to_w(xi))
        assert abs(v_pfaff - v_direct) <= 1e-12 * max(1.0, abs(v_direct))

    def test_against_mpmath(self):
        for a, b, c, xi in [(-0.5, -1 / 3, 4.0, 0.6), (0.7, 0.9, 2.3, 0.9)]:
            ours = realize(gauss_2f1_w(a, b, c, xi))
            ref = float(mpmath.hyp2f1(a, b, c, xi / (xi - 1.0)))
            assert ours == pytest.approx(ref, rel=1e-13)

    def test_contiguity_in_lower_parameter(self):
        # c(c-1)(w-1) F(c-1) + c(c-1-(2c-a-b-1)w) F(c) + (c-a)(c-b) w F(c+1) = 0
        for xi in (0.1, 0.3, 0.45):
            w = xi_to_w(xi)
            for a, b, c in [(-0.5, -1 / 3, 2.0), (0.8, 1.7, 3.5)]:
                f_m = realize(gauss_2f1_w(a, b, c - 1.0, xi))
                f_0 = realize(gauss_2f1_w(a, b, c, xi))
                f_p = realize(gauss_2f1_w(a, b, c + 1.0, xi))
                resid = (
                    c * (c - 1.0) * (w - 1.0) * f_m
                    + c * (c - 1.0 - (2.0 * c - a - b - 1.0) * w) * f_0
                    + (c - a) * (c - b) * w * f_p
                )
                assert abs(resid) <= 1e-10 * max(abs(f_m), abs(f_0), abs(f_p))

    def test_pole_errors(self):
        with pytest.raises(PoleError):
            gauss_2f1_w(0.5, 0.7, 0.0, 0.2)
        with pytest.raises(PoleError):
            gauss_2f1_w(0.5, 0.7, -3.0, 0.2)
        with pytest.raises(PoleError):
            gauss_2f1_w(-5.0, 0.7, -3.0, 0.2)  # series would cross the pole
        # termination before the pole is fine
        realize(gauss_2f1_w(-2.0, 0.7, -3.0, 0.2))

    def test_xi_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1_w(0.5, 0.7, 1.0, 1.2)

    def test_direct_series_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1_direct(0.5, 0.7, 1.0, -1.5)


class TestGauss2F1Columns:
    @pytest.mark.parametrize("xi", [0.45, 0.97])
    @pytest.mark.parametrize(
        "a, b, c0", [(-0.5, -1.0 / 3.0, 1.0), (0.8 - 1.5j, 0.8 + 1.5j, 2.3)]
    )
    def test_against_per_index_series(self, a, b, c0, xi):
        n = 3 * _reseed_stride(xi) + 5  # several re-seeded runs, the lowest one short
        f, g = gauss_2f1_columns(a, b, c0, xi, n)
        for k in range(n):
            ref_f = gauss_2f1_w(a, b, c0 + k, xi)
            ref_g = gauss_2f1_w(a + 1.0, b + 1.0, c0 + k + 1.0, xi)
            # Relative to the pair: near a zero of one column the series itself
            # is only accurate in this absolute sense.
            scale = abs(ref_f) + abs(ref_g)
            assert abs(f[k] - ref_f) <= 1e-13 * scale
            assert abs(g[k] - ref_g) <= 1e-13 * scale

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1_columns(0.5, 0.7, 0.0, 0.2, 10)
        with pytest.raises(DomainError):
            gauss_2f1_columns(0.5, 0.7, 1.0, 1.0, 10)


class TestGauss2F1Derivative:
    def test_zero_upper_parameter(self):
        assert abs(gauss_2f1_w_dc(0.0, 0.7, 1.3, 0.2)) <= 1e-15

    def test_terminating_closed_form(self):
        # F = 1 + (a b / c) w, so dF/dc = -(a b / c^2) w
        a, b, c, xi = -1.0, 0.7, 1.3, 0.25
        w = xi_to_w(xi)
        assert realize(gauss_2f1_w_dc(a, b, c, xi)) == pytest.approx(
            -(a * b / c**2) * w, rel=1e-13
        )

    @pytest.mark.parametrize(
        "a,b,c,xi",
        [
            (-0.5, -1.0 / 3.0, 2.3, 0.2),
            (1.5, 1.0 / 3.0, 3.1, 0.4),
            (-0.5 - 1.5j, -0.5 + 1.5j, 1.7, 0.3),
        ],
    )
    def test_against_finite_difference(self, a, b, c, xi):
        h = 1e-5
        fd = (gauss_2f1_w(a, b, c + h, xi) - gauss_2f1_w(a, b, c - h, xi)) / (2.0 * h)
        dc = gauss_2f1_w_dc(a, b, c, xi)
        assert abs(dc - fd) <= 1e-6 * max(abs(fd), 1e-12)


class TestMeixner:
    def test_degree_zero(self):
        assert meixner_polynomial(0, 7.3, 0.5, 0.4) == 1.0

    @pytest.mark.parametrize("k", [0.0, 1.0, 2.5, 7.0])
    def test_degree_one(self, k):
        alpha, xi = 0.5, 0.4
        expected = 1.0 + k * (xi - 1.0) / ((alpha + 1.0) * xi)
        assert meixner_polynomial(1, k, alpha, xi) == pytest.approx(expected, rel=1e-14)

    def test_orthogonality(self):
        alpha, xi = 0.5, 0.4
        total = sum(
            meixner_polynomial(2, k, alpha, xi)
            * meixner_polynomial(3, k, alpha, xi)
            * meixner_weight(k, alpha, xi)
            for k in range(400)
        )
        bound = 1e-10 * math.sqrt(meixner_norm(2, alpha, xi) * meixner_norm(3, alpha, xi))
        assert abs(total) <= bound

    @pytest.mark.parametrize("n", range(5))
    def test_norm(self, n):
        alpha, xi = -0.3, 0.35
        total = sum(
            meixner_polynomial(n, k, alpha, xi) ** 2 * meixner_weight(k, alpha, xi)
            for k in range(300)
        )
        assert total == pytest.approx(meixner_norm(n, alpha, xi), rel=1e-10)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_leading_coefficient_via_differences(self, n):
        # the n-th forward difference of a degree-n polynomial is n! * leading coeff
        alpha, xi = 0.5, 0.4
        values = [meixner_polynomial(n, k, alpha, xi) for k in range(n + 1)]
        diff = values
        for _ in range(n):
            diff = [b - a for a, b in zip(diff, diff[1:])]
        assert diff[0] == pytest.approx(
            math.factorial(n) * meixner_leading_coefficient(n, alpha, xi), rel=1e-12
        )


class TestWhittakerW:
    def test_symmetry_in_mu(self):
        for mu in (0.3, 1.25):
            assert whittaker_w(0.4, mu, 2.7) == pytest.approx(
                whittaker_w(0.4, -mu, 2.7), rel=1e-13
            )
        assert whittaker_w(0.4, 1.5j, 2.7) == pytest.approx(
            whittaker_w(0.4, -1.5j, 2.7), rel=1e-13
        )

    def test_exponential_special_case(self):
        # kappa = 0, mu = 1/2 solves y'' = y/4 with decaying branch e^(-x/2)
        assert whittaker_w(0.0, 0.5, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_large_x_asymptotics(self):
        # first-order correction is (mu^2 - (kappa - 1/2)^2)/x, so keep it small
        x = 50.0
        kappa, mu = 0.3, 0.1
        ratio = whittaker_w(kappa, mu, x) / (x**kappa * math.exp(-x / 2.0))
        assert abs(ratio - 1.0) <= 1e-3

    def test_large_x_asymptotics_trend(self):
        kappa, mu = 11.0 / 12.0, 1.0 / 12.0
        devs = [
            abs(whittaker_w(kappa, mu, x) / (x**kappa * math.exp(-x / 2.0)) - 1.0)
            for x in (50.0, 200.0)
        ]
        assert devs[1] < devs[0] and devs[1] <= 1e-3

    @pytest.mark.parametrize(
        "kappa,mu",
        [(11.0 / 12.0, 1.0 / 12.0), (0.5, 1.5j), (0.25, 0.5)],  # last one: degenerate 2 mu
    )
    def test_ode_residual(self, kappa, mu):
        # five-point second derivative against the defining equation
        h = 0.01
        mu2 = (mu * mu).real if isinstance(mu, complex) else mu * mu
        for x in np.linspace(0.5, 20.0, 14):
            y = [whittaker_w(kappa, mu, x + j * h) for j in (-2, -1, 0, 1, 2)]
            second = (-y[0] + 16 * y[1] - 30 * y[2] + 16 * y[3] - y[4]) / (12 * h * h)
            rhs = (0.25 - kappa / x + (mu2 - 0.25) / (x * x)) * y[2]
            scale = max(abs(second), abs(rhs), 1e-300)
            assert abs(second - rhs) / scale <= 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            whittaker_w(0.1, 0.1, -1.0)
        with pytest.raises(DomainError):
            whittaker_w(0.1, 0.3 + 0.4j, 1.0)
