import cmath
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import zmeasure.specfun as specfun
from zmeasure.specfun import (
    ConvergenceError,
    DomainError,
    PoleError,
    RealizationError,
    _hyp_series,
    _reseed_stride,
    _terminating_sum_mp,
    gauss_2f1_columns,
    gauss_2f1_w,
    log_gamma_ratio,
    log_gamma_ratio_column,
    loggamma,
    meixner_leading_coefficient,
    meixner_norm,
    meixner_polynomial,
    meixner_weight,
    realize,
    realize_array,
    whittaker_w,
    xi_to_w,
)
from zmeasure.verification import _hyp_w_dc


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
    def test_scalars_give_python_complex(self):
        for z in (0.5, 3, 2.0 - 1.0j, np.float64(4.5), np.complex128(1.0 + 1.0j)):
            assert type(loggamma(z)) is complex


def _mp_loggamma(z: complex) -> complex:
    with mpmath.workdps(40):
        return complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))


def _lg_grid_error(z: np.ndarray) -> float:
    """Worst |lg - mpmath| / max(1, |mpmath|) over ``z``."""
    values = z.tolist()
    return max(
        abs(v - ref) / max(1.0, abs(ref))
        for v, ref in zip(map(loggamma, values), map(_mp_loggamma, values))
    )


class TestLoggammaAgainstMpmath:
    """The principal branch against mpmath at 40 digits, imaginary parts included."""

    def test_complex_grid(self):
        re, im = np.meshgrid(np.linspace(-20.3, 30.7, 20), np.linspace(-40.0, 40.0, 20))
        assert _lg_grid_error((re + 1j * im).ravel()) <= 2e-15

    def test_negative_reals(self):
        # Im z = +0, between the poles, out to -60; mpmath takes the same side of the cut
        x = -np.linspace(0.01, 60.0, 100)
        x = x[np.abs(x - np.round(x)) > 1e-3]
        assert _lg_grid_error(x + 0j) <= 2e-15

    def test_large_real_parts(self):
        x = np.geomspace(7.0, 5e5, 40)
        assert _lg_grid_error(x + 1j * np.linspace(-10.0, 10.0, 40)) <= 2e-15

    def test_recurrence_band_near_the_real_axis(self):
        # |lg| < 1 here, so the bound is absolute: the Stirling value at z + n and the
        # log of the product, both near 8, cancel.  3.8e-15 at worst on this grid, at
        # 1.82 - 0.17i, where scipy.special.loggamma has the same error.
        re, im = np.meshgrid(np.linspace(0.13, 6.9, 25), np.linspace(-0.5, 0.5, 4))
        assert _lg_grid_error((re + 1j * im).ravel()) <= 5e-15

    def test_taylor_discs_and_reflection(self):
        z = np.array([1.0 + 0.1j, 0.85 - 0.05j, 2.15 + 0.1j, 1.9, 0.05 + 0.3j, -0.2 - 2.0j, -999.5])
        assert _lg_grid_error(z) <= 2e-15

    def test_poles_and_non_finite_give_nan(self):
        for z in (0.0, -3.0, complex(math.inf, 0.0), complex(1.0, math.nan)):
            assert cmath.isnan(loggamma(z))


class TestLogGammaRatio:
    """log Gamma(x + a) - log Gamma(x) against mpmath, the reference formed from mpf(x)
    and mpc(a), not from the rounded float x + a."""

    @staticmethod
    def _reference(a: complex, x: float) -> complex:
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            return complex(mpmath.loggamma(xm + mpmath.mpc(a.real, a.imag)) - mpmath.loggamma(xm))

    @pytest.mark.parametrize("a", [0.5, 1.0 / 3.0, -0.4, 0.3 + 8.0j, 0.5 - 1.5j])
    def test_against_mpmath_to_half_a_million(self, a):
        a = complex(a)
        ks = [0, 3, 6, 7, 100, 255, 256, 257, 20000, 200000, 500000]
        column = log_gamma_ratio_column(a, 1.0, ks[-1] + 1)
        for k in ks:
            ref = self._reference(a, k + 1.0)
            assert abs(log_gamma_ratio(a, k + 1.0) - ref) <= 1e-13, k
            assert abs(column[k] - ref) <= 1e-13, k

    def test_large_negative_shift(self):
        # x + a crosses the poles below x = 30.5: the first block of the column is that long
        a = -30.5 + 0.0j
        column = log_gamma_ratio_column(a, 1.0, 300)
        for k in (0, 5, 29, 30, 31, 299):
            ref = self._reference(a, k + 1.0)
            assert abs(cmath.exp(1j * (column[k] - ref).imag) - 1.0) <= 1e-12, k
            assert abs((column[k] - ref).real) <= 1e-13, k


def pochhammer(a: complex, k: int) -> complex:
    """(a)_k as exp(log Gamma(a + k) - log Gamma(a)), the form the measures and weights use."""
    return cmath.exp(loggamma(a + k) - loggamma(a))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7 + 1.0j, 0) == 1.0

    @pytest.mark.parametrize("k", range(8))
    def test_unit_base_gives_factorial(self, k):
        assert realize(pochhammer(1.0, k)) == pytest.approx(math.factorial(k), rel=1e-14)

    def test_half_base(self):
        assert realize(pochhammer(0.5, 3)) == pytest.approx(1.875, abs=1e-15)

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.integers(0, 20),
    )
    def test_recurrence(self, a, k):
        assume(not (a <= 0.0 and a == round(a)))  # Gamma has its poles there
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
        v_mpmath = complex(mpmath.hyp2f1(-0.5, -1.0 / 3.0, 1.0, xi_to_w(0.2)))
        assert abs(v_pfaff - v_mpmath) <= 1e-13

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
        v_pfaff = gauss_2f1_w(a, b, c, xi)
        v_mpmath = complex(mpmath.hyp2f1(a, b, c, xi_to_w(xi)))
        assert abs(v_pfaff - v_mpmath) <= 1e-12 * max(1.0, abs(v_mpmath))

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
            _hyp_series(0.5, 0.7, 1.0, -1.5)

    def test_overflowing_series_raises_at_once(self):
        start = time.perf_counter()
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="not finite"):
            gauss_2f1_w(1e200, 0.5, 1.0, 0.5)
        assert time.perf_counter() - start < 1.0

    def test_cancelling_terminating_sum(self):
        # summed in xi after a Pfaff transform this cancels by about 1e35 (its float sum
        # gave 1.9e77); the sum in w, taken here, has terms of one sign
        ours = gauss_2f1_w(-200, 0.5, 1.0, 0.5)
        with mpmath.workdps(60):
            ref = complex(mpmath.hyp2f1(-200, 0.5, 1, xi_to_w(0.5)))
        assert abs(ours - ref) <= 1e-12 * abs(ref)

    def test_cancelling_terminating_sum_resummed(self, monkeypatch):
        # (-40.5)_m alternates in sign up to m = 41, so the sum in w cancels by about 2e15
        # and is summed again in mpmath
        resums = []

        def counted(*args):
            resums.append(args)
            return _terminating_sum_mp(*args)

        monkeypatch.setattr(specfun, "_terminating_sum_mp", counted)
        ours = gauss_2f1_w(-60, -40.5, 1.0, 0.5)
        with mpmath.workdps(60):
            ref = complex(mpmath.hyp2f1(-60, -40.5, 1, xi_to_w(0.5)))
        assert abs(ours - ref) <= 1e-12 * abs(ref)
        assert len(resums) == 1

    def test_overflowing_terminating_sum_raises(self):
        # degree 1000: the value 2.7e299 is finite; its sum in w has terms of one sign
        # (summed in xi after a Pfaff transform it cancelled by 1e176 and overflowed)
        ours = gauss_2f1_w(-1000, 0.5, 1.0, 0.5)
        with mpmath.workdps(60):
            ref = complex(mpmath.hyp2f1(-1000, 0.5, 1, xi_to_w(0.5)))
        assert abs(ours - ref) <= 1e-12 * abs(ref)
        # degree 1100: the value 3.3e329 overflows and must raise, not return inf
        with pytest.raises(ConvergenceError, match="not finite"):
            gauss_2f1_w(-1100, 0.5, 1.0, 0.5)

    def test_huge_terminating_degree_raises_at_once(self):
        # -1e200 counts as a terminating integer; its terms overflow at the third
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="not finite after 3 terms"):
            gauss_2f1_w(-1e200, 0.5, 1.0, 0.5)
        assert time.perf_counter() - start < 1.0

    def test_series_runs_to_its_certificate_near_one(self):
        # about 3.7 million terms
        xi = 0.99999
        ours = realize(gauss_2f1_w(-0.5, -1.0 / 3.0, 1.0, xi))
        ref = float(mpmath.hyp2f1(-0.5, -1.0 / 3.0, 1.0, xi / (xi - 1.0)))
        assert ours == pytest.approx(ref, rel=1e-10)


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


def _mp_2f1_w(a, b, c, xi) -> complex:
    with mpmath.workdps(40):
        x = mpmath.mpf(xi)
        return complex(mpmath.hyp2f1(mpmath.mpc(a), mpmath.mpc(b), mpmath.mpf(c), x / (x - 1)))


def _kernel_factors(z, z_prime, k):
    """The two 2F1 calls of a kernel point, F(-sz, -sz'; k+1) and F(1-sz, 1-sz'; k+2), both signs."""
    for s in (1, -1):
        yield -s * z, -s * z_prime, k + 1.0
        yield 1 - s * z, 1 - s * z_prime, k + 2.0


class TestGauss2F1NearOne:
    """Point values near xi = 1: the series in 1 - xi where its gate passes, Pfaff elsewhere."""

    @pytest.mark.parametrize("xi", [0.98, 0.999, 0.9999])
    @pytest.mark.parametrize("z", [0.3 + 8j, 0.5 + 8j])
    def test_large_imaginary_part(self, z, xi):
        # the Pfaff series cancels here: 1.4e-4 at 0.3+8i, xi = 0.999, u <= 5
        for u in (0.0, 0.2, 1.0, 5.0):
            for a, b, c in _kernel_factors(z, z.conjugate(), math.floor(u / (1.0 - xi))):
                ref = _mp_2f1_w(a, b, c, xi)
                assert specfun._connection_sum(a, b, c, xi) is not None, (a, c)
                assert abs(gauss_2f1_w(a, b, c, xi) - ref) <= 1e-12 * abs(ref), (a, c)

    @pytest.mark.parametrize("z, z_prime", [(0.5, 0.5), (0.5, 0.5 + 1e-9), (0.5, 0.5 + 1e-4), (-0.4, -0.4)])
    def test_degenerate_pairs(self, z, z_prime):
        # b - a = s (z - z') at or next to a pole of Gamma(b - a): the route declines, Pfaff serves
        xi = 0.999
        for u in (0.0, 0.2, 1.0, 5.0):
            for a, b, c in _kernel_factors(z, z_prime, math.floor(u / (1.0 - xi))):
                assert specfun._connection_sum(complex(a), complex(b), c, xi) is None
                value = gauss_2f1_w(a, b, c, xi)
                ref = _mp_2f1_w(a, b, c, xi)
                assert cmath.isfinite(value)
                assert abs(value - ref) <= 1e-12 * abs(ref), (a, b, c)

    @pytest.mark.parametrize("xi", [0.95, 0.99, 0.999])
    def test_benchmark_families(self, xi):
        rng = np.random.default_rng(0)
        taken = 0
        for family in ("real", "negative", "complex"):
            for _ in range(4):
                if family == "complex":
                    z = complex(rng.uniform(0.25, 0.75), rng.uniform(0.5, 2.0))
                    z_prime = z.conjugate()
                else:
                    z, z_prime = rng.uniform(0.2, 0.8, 2) * (1 if family == "real" else -1)
                for u in rng.uniform(0.2, 5.0, 3):
                    for a, b, c in _kernel_factors(z, z_prime, math.floor(u / (1.0 - xi))):
                        taken += specfun._connection_sum(complex(a), complex(b), c, xi) is not None
                        ref = _mp_2f1_w(a, b, c, xi)
                        assert abs(gauss_2f1_w(a, b, c, xi) - ref) <= 1e-12 * abs(ref), (family, a, b, c)
        assert taken >= 72  # most of the 144 calls take the series in 1 - xi

    def test_window(self, monkeypatch):
        calls = []
        monkeypatch.setattr(specfun, "_connection_sum", lambda *args: calls.append(args))
        gauss_2f1_w(-0.5, -1.0 / 3.0, 101.0, 0.9)  # below the xi window
        gauss_2f1_w(-0.5, -1.0 / 3.0, 6001.0, 0.999)  # c (1 - xi) past the window
        gauss_2f1_w(-0.5, -1.0 / 3.0, -2.5, 0.999)  # negative c
        assert calls == []
        gauss_2f1_w(-0.5, -1.0 / 3.0, 5001.0, 0.999)  # u = 5.001
        assert len(calls) == 1

    def test_series_start_index_bounds_the_ratio(self):
        # past the index the term ratio x (a+m)(b+m) / ((c+m)(1+m)) stays within (1 + |x|)/2
        rng = np.random.default_rng(1)
        for _ in range(400):
            a, b = (complex(*rng.normal(0.0, 3.0, 2)) for _ in range(2))
            c = complex(rng.uniform(-10.0, 3000.0), rng.normal(0.0, 3.0))
            x_abs = 10.0 ** rng.uniform(-5.0, -0.01)
            m0 = specfun._series_start_index(a, abs(b - c), c, x_abs)
            ms = m0 + np.arange(20000.0)
            ratio = x_abs * np.abs((a + ms) * (b + ms) / ((c + ms) * (ms + 1.0)))
            assert ratio.max() <= 0.5 * (1.0 + x_abs), (a, b, c, x_abs, m0)

    def test_series_start_index_is_short_for_small_x(self):
        # the series in 1 - xi of a kernel factor at u = 5: lower parameter a - b + 1, b' = c - b
        a, b, c, x = -0.5, -1.0 / 3.0, 5001.0, 0.001
        assert specfun._series_start_index(a, abs(c - b - (a - b + 1.0)), a - b + 1.0, x) <= 20


class TestGauss2F1Derivative:
    """The mpmath c-derivative behind the operator suite's diagonal check."""

    def test_zero_upper_parameter(self):
        assert abs(_hyp_w_dc(0.0, 0.7, 1.3, 0.2)[1]) <= 1e-15

    def test_terminating_closed_form(self):
        # F = 1 + (a b / c) w, so dF/dc = -(a b / c^2) w
        a, b, c, xi = -1.0, 0.7, 1.3, 0.25
        w = xi_to_w(xi)
        assert realize(_hyp_w_dc(a, b, c, xi)[1]) == pytest.approx(
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
        dc = _hyp_w_dc(a, b, c, xi)[1]
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
        with pytest.raises(DomainError):
            whittaker_w(0.1, 0.1, np.array([1.0, 0.0]))

    def test_shapes(self):
        xs = np.array([[0.4, 1.3], [5.0, 20.0]])
        assert isinstance(whittaker_w(0.3, 0.2, 1.3), float)
        assert whittaker_w(0.3, 0.2, xs).shape == (2, 2)
        run = whittaker_w(0.3, 0.2, xs, 3)
        assert run.shape == (2, 2, 3)
        assert run[1, 0, 2] == pytest.approx(whittaker_w(2.3, 0.2, 5.0), rel=1e-14)
        assert whittaker_w(0.3, 0.2, 1.3, 2).shape == (2,)

    @staticmethod
    def _kernel_runs(z, z_prime, xs):
        """Each sign's run at the kernel's shifts -1, 1, 3, with its (kappa, mu)."""
        mu = (z - z_prime) / 2.0
        for sign in (1, -1):
            kappa = (sign * (z + z_prime).real - 1.0) / 2.0
            yield kappa, mu, whittaker_w(kappa, mu, np.array(xs), 3)

    @pytest.mark.parametrize(
        "z, z_prime",
        [(0.5, 1.0 / 3.0), (-0.4, -0.7), (1.5, 1.3), (0.9, 0.95), (0.5 + 1.5j, 0.5 - 1.5j),
         (1.5, 1.0), (3.5, 3.0), (5.5, 5.0)],  # the last three: meixner mode (N + alpha, N)
    )
    def test_grid_against_mpmath(self, z, z_prime):
        xs = (0.05, 0.4, 1.3, 5.0, 20.0, 60.0)
        for kappa, mu, run in self._kernel_runs(z, z_prime, xs):
            for i, x in enumerate(xs):
                for j in range(3):
                    with mpmath.workdps(40):
                        ref = float(mpmath.re(mpmath.whitw(kappa + j, mpmath.mpc(mu), x)))
                    assert abs(run[i, j] - ref) <= 1e-13 * abs(ref), (kappa + j, x)

    @pytest.mark.parametrize("mu", [1.0 / 12.0, 4j, 8j])
    def test_mpmath_fallback_at_large_x(self, mu):
        # whitw takes the e^x cancellation of its connection terms itself
        for kappa in (-0.8, -0.2, 1.3):
            for x in (20.0, 60.0, 200.0):
                with mpmath.workdps(60):
                    ref = mpmath.whitw(kappa, mpmath.mpc(mu), x)
                value = specfun._whittaker_w_mp(kappa, complex(mu), x)
                assert abs(value - complex(ref)) <= 1e-20 * abs(complex(ref)), (kappa, x)

    @pytest.mark.parametrize("z", [0.3 + 4j, 0.3 + 8j])
    def test_cancelling_values_fall_back_to_mpmath(self, z, monkeypatch):
        original, calls = specfun._whittaker_w_mp, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(specfun, "_whittaker_w_mp", counted)
        xs = (0.4, 1.3, 5.0)
        for kappa, mu, run in self._kernel_runs(z, z.conjugate(), xs):
            for i, x in enumerate(xs):
                for j in range(3):
                    with mpmath.workdps(40):
                        ref = float(mpmath.re(mpmath.whitw(kappa + j, mpmath.mpc(mu), x)))
                    assert abs(run[i, j] - ref) <= 1e-12 * abs(ref), (kappa + j, x)
        assert calls
