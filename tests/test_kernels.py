import math
from fractions import Fraction

import numpy as np
import pytest

from zmeasure.kernels import (
    DIAG_CHUNK,
    FunctionTable,
    _diag_series,
    decay_certificate,
    function_table,
    half_integer_index,
    hyper_kernel,
    hyper_kernel_diag_derivative,
    kernel_block_matrix,
    kernel_matrix,
    l_entry,
    l_matrix,
    meixner_kernel,
    meixner_kernel_matrix,
    pq,
    psi,
    rhat_shat,
    rs,
    whittaker_kernel,
    whittaker_p,
    whittaker_q,
)
from zmeasure.measures import AdmissibilityError, GrandParams, ZParams
from zmeasure.verification import _meixner_kernel_cd
from zmeasure.specfun import DomainError, PoleError, _reseed_stride, gauss_2f1_w, realize

HALF = Fraction(1, 2)

TABLE_FAMILIES = {
    "real": ZParams(0.5, 1.0 / 3.0),
    "negative": ZParams(-0.4, -0.7),
    "conjugate": ZParams(0.7 + 2.0j, 0.7 - 2.0j),
}


def point(sign: int, k: int) -> Fraction:
    return sign * Fraction(2 * k + 1, 2)


class TestHalfIntegerIndex:
    def test_mapping(self):
        assert half_integer_index(Fraction(1, 2)) == (1, 0)
        assert half_integer_index(-2.5) == (-1, 2)

    def test_rejects_non_half_integers(self):
        with pytest.raises(DomainError):
            half_integer_index(1.0)
        with pytest.raises(DomainError):
            half_integer_index(0.3)


class TestPsi:
    def test_k_zero_closed_form(self, gp02):
        zp = gp02.zp
        zsum = zp.z_sum
        expect_plus = math.sqrt(zp.t) * math.sqrt(0.2) * 0.8**zsum
        expect_minus = math.sqrt(zp.t) * math.sqrt(0.2) * 0.8 ** (-zsum)
        assert psi("+", 0, gp02) == pytest.approx(expect_plus, rel=1e-14)
        assert psi("-", 0, gp02) == pytest.approx(expect_minus, rel=1e-14)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_one_step_recurrence(self, gp02, sign):
        zp = gp02.zp
        s = 1 if sign == "+" else -1
        for k in range(10):
            ratio = psi(sign, k + 1, gp02) / psi(sign, k, gp02)
            expected = realize(
                0.2 * (k + 1 + s * zp.z) * (k + 1 + s * zp.z_prime) / (k + 1.0) ** 2
            )
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_exponential_decay(self, real_pair):
        gp = GrandParams(real_pair, 0.3)
        assert psi("+", 60, gp) / psi("+", 30, gp) <= 0.3**25

    def test_complex_pair_real_positive(self, complex_pair):
        gp = GrandParams(complex_pair, 0.4)
        for k in range(6):
            assert psi("+", k, gp) > 0.0
            assert psi("-", k, gp) > 0.0


class TestRS:
    def test_hypergeometric_factor_tends_to_one(self, real_pair):
        gp = GrandParams(real_pair, 0.3)
        r, _ = rs("+", 200, gp)
        assert abs(r / psi("+", 200, gp) - 1.0) <= 0.05

    def test_composition_at_zero(self, gp02):
        r0, _ = rs("+", 0, gp02)
        f = realize(gauss_2f1_w(-0.5, -1.0 / 3.0, 1.0, 0.2))
        assert r0 == pytest.approx(psi("+", 0, gp02) * f, rel=1e-14)

    def test_antidiagonal_product_identity(self, gp02):
        u = 3.7
        r_p, s_p = rs("+", u, gp02)
        r_m, s_m = rs("-", -u - 1.0, gp02)
        lhs = r_p * r_m + s_p * s_m
        rhs = psi("+", u, gp02) * psi("-", -u - 1.0, gp02)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPQ:
    def test_definition(self, gp02):
        for sign in ("+", "-"):
            for k in (0, 3, 7):
                p_val, q_val = pq(sign, k, gp02)
                r_val, s_val = rs(sign, k, gp02)
                root = math.sqrt(psi(sign, k, gp02))
                assert p_val == pytest.approx(r_val / root, rel=1e-14)
                assert q_val == pytest.approx(s_val / root, rel=1e-14)

    def test_positivity_scan(self, gp02):
        for k in range(21):
            p_val, _ = pq("+", k, gp02)
            assert p_val > 0.0


class TestLOperator:
    def test_same_sign_vanishes(self, gp02):
        assert l_entry(point(1, 0), point(1, 3), gp02) == 0.0
        assert l_entry(point(-1, 2), point(-1, 2), gp02) == 0.0

    def test_corner_value(self, gp02):
        expected = math.sqrt(psi("+", 0, gp02) * psi("-", 0, gp02))
        assert l_entry(HALF, -HALF, gp02) == pytest.approx(expected, rel=1e-14)

    def test_j_symmetry_scan(self, gp02):
        for k in range(10):
            for l in range(10):
                plus_minus = l_entry(point(1, k), point(-1, l), gp02)
                minus_plus = l_entry(point(-1, l), point(1, k), gp02)
                assert minus_plus == pytest.approx(-plus_minus, rel=1e-14)

    def test_matrix_layout(self, gp02):
        mat = l_matrix(gp02, 4)
        assert np.allclose(mat[:4, :4], 0.0) and np.allclose(mat[4:, 4:], 0.0)
        assert mat[0, 4] == pytest.approx(l_entry(HALF, -HALF, gp02))
        assert np.allclose(mat[4:, :4], -mat[:4, 4:].T)


class TestDecayCertificate:
    def test_certificate_bounds_psi(self, gp03):
        m = decay_certificate(gp03)
        assert psi("+", m, gp03) < 1e-16 * psi("+", 0, gp03)
        assert psi("-", m, gp03) < 1e-16 * psi("-", 0, gp03)

    def test_table_invariants(self, gp03):
        tbl = function_table(gp03, 30)
        assert tbl.size >= 30 and tbl.decay_index > 0
        assert (tbl.psi_plus > 0).all() and (tbl.psi_minus > 0).all()
        for arr in (tbl.r_plus, tbl.r_minus, tbl.s_plus, tbl.s_minus):
            assert np.isfinite(arr).all()


class TestFunctionTable:
    @pytest.mark.parametrize("xi", [0.2, 0.9, 0.99])
    @pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
    def test_table_matches_point_route(self, family, xi):
        gp = GrandParams(TABLE_FAMILIES[family], xi)
        tbl = function_table(gp)
        n, stride = tbl.size, _reseed_stride(xi)
        # Both sides of every re-seed seam: each run's seed row and its last row.
        rows = {i for top in range(n - 1, -1, -stride) for i in (top, top - stride + 1)}
        rows |= {0, 1, n - 2, n - 1}
        rows |= set(np.random.default_rng(2).integers(0, n, 8).tolist())
        for k in sorted(i for i in rows if i >= 0):
            for sign, p_tab, q_tab in ((1, tbl.p_plus, tbl.q_plus), (-1, tbl.p_minus, tbl.q_minus)):
                p_val, q_val = pq(sign, k, gp)
                scale = abs(p_val) + abs(q_val)
                assert abs(p_tab[k] - p_val) <= 1e-12 * scale, (sign, k)
                assert abs(q_tab[k] - q_val) <= 1e-12 * scale, (sign, k)

    def test_build_near_one(self, real_pair):
        tbl = function_table(GrandParams(real_pair, 0.99))
        assert tbl.size >= 4425
        for arr in (tbl.psi_plus, tbl.psi_minus, tbl.r_plus, tbl.r_minus, tbl.s_plus,
                    tbl.s_minus, tbl.p_plus, tbl.p_minus, tbl.q_plus, tbl.q_minus):
            assert np.isfinite(arr).all()

    def test_one_table_per_parameter_set(self, gp03):
        assert function_table(gp03, 12) is function_table(gp03)

    def test_block_where_psi_underflows(self, gp02):
        # psi(+, k) underflows to 0 from k ~ 460 on; P and Q must not.
        block = kernel_block_matrix(gp02, "++", 600).entries
        assert np.isfinite(block).all()
        diag = np.diag(block)
        assert diag.min() >= 0.0 and diag.max() <= 1.0
        small = kernel_block_matrix(gp02, "++", 12).entries
        assert np.allclose(block[:12, :12], small, rtol=1e-12, atol=1e-16)

    def test_block_diagonal_across_chunk_boundary(self, real_pair):
        gp = GrandParams(real_pair, 0.9)
        trunc = DIAG_CHUNK + 8
        assert function_table(gp).size >= trunc  # the block and the series share one table
        diag = np.diag(kernel_block_matrix(gp, "++", trunc).entries)
        for k in (0, DIAG_CHUNK - 2, DIAG_CHUNK - 1, DIAG_CHUNK, DIAG_CHUNK + 1, trunc - 1):
            ref = _diag_series(1, k, gp)
            assert abs(diag[k] - ref) <= 1e-12 * abs(ref), k

    def test_point_where_psi_underflows(self, gp02):
        assert psi("+", 500, gp02) == 0.0
        p_val, q_val = pq("+", 500, gp02)
        assert 0.0 < p_val < 1e-150 and 0.0 < abs(q_val) < 1e-150
        assert math.isfinite(hyper_kernel(Fraction(1001, 2), Fraction(1003, 2), gp02))


class TestHyperKernel:
    def test_j_antisymmetry_pointwise(self, gp02):
        for k in range(4):
            for l in range(4):
                lhs = hyper_kernel(point(-1, k), point(1, l), gp02)
                rhs = hyper_kernel(point(1, l), point(-1, k), gp02)
                assert lhs == pytest.approx(-rhs, rel=1e-14)

    def test_sign_symmetry(self, gp02):
        # K(x, y) = sgn(x) sgn(y) K(y, x) on mixed points
        pts = [point(1, 0), point(1, 2), point(-1, 1), point(-1, 3)]
        for x in pts:
            for y in pts:
                sx = 1 if x > 0 else -1
                sy = 1 if y > 0 else -1
                assert hyper_kernel(x, y, gp02) == pytest.approx(
                    sx * sy * hyper_kernel(y, x, gp02), rel=1e-12, abs=1e-18
                )

    def test_diagonal_is_a_probability(self, real_pair):
        gp = GrandParams(real_pair, 0.2)
        for k in range(21):
            for s in (1, -1):
                rho = hyper_kernel(point(s, k), point(s, k), gp)
                assert 0.0 <= rho <= 1.0

    def test_diagonal_series_vs_derivative_route(self, gp03):
        for k in range(4):
            series = _diag_series(1, k, gp03)
            deriv = hyper_kernel_diag_derivative("+", k, gp03)
            assert series == pytest.approx(deriv, rel=1e-7)

    def test_block_matrices_symmetry(self, gp03):
        for block in ("++", "--"):
            blk = kernel_block_matrix(gp03, block, 12)
            assert np.array_equal(blk.entries, blk.entries.T)

    def test_blocks_j_symmetry(self, gp03):
        pm = kernel_block_matrix(gp03, "+-", 10).entries
        mp = kernel_block_matrix(gp03, "-+", 10).entries
        assert np.allclose(mp, -pm.T, rtol=0, atol=0)

    def test_resolvent_identity(self, gp03):
        trunc = 40
        lmat = l_matrix(gp03, trunc)
        dense = np.linalg.solve((np.eye(2 * trunc) + lmat).T, lmat.T).T
        entry = kernel_matrix(gp03, trunc)
        assert np.max(np.abs(dense - entry)) <= 1e-10

    def test_block_products(self, gp03):
        trunc = 40
        kmat = kernel_matrix(gp03, trunc)
        c = kmat[:trunc, trunc:]
        d = -l_matrix(gp03, trunc)[trunc:, :trunc]
        assert np.max(np.abs(kmat[:trunc, :trunc] - c @ d)) <= 1e-10
        assert np.max(np.abs(kmat[trunc:, trunc:] - d @ c)) <= 1e-10
        assert np.max(np.abs(kmat[trunc:, :trunc] - (d @ c @ d - d))) <= 1e-10


class TestTransforms:
    @pytest.mark.parametrize("u", [2.3, 0.4])
    def test_transform_identities(self, gp02, u):
        for s, other in ((1, -1), (-1, 1)):
            rhat, shat = rhat_shat(s, u, gp02)
            r_o, s_o = rs(other, u, gp02)
            psi_o = psi(other, u, gp02)
            assert rhat == pytest.approx(s_o / psi_o, rel=1e-11)
            assert shat == pytest.approx(1.0 - r_o / psi_o, rel=1e-11)

    def test_pole_guard(self, gp02):
        with pytest.raises(PoleError):
            rhat_shat("+", -2.0, gp02)
        with pytest.raises(PoleError):
            rhat_shat("+", -3.0 + 1e-10, gp02)

    def test_geometric_tail(self, gp02):
        tbl = function_table(gp02)
        u = 1.3
        terms = tbl.r_plus / (u + np.arange(tbl.size) + 1.0)
        ratios = np.abs(terms[25:31] / terms[24:30])
        assert np.all(np.abs(ratios - 0.2) <= 0.2 * 0.25)


class TestMeixnerKernel:
    def test_routes_agree(self):
        for k, l in ((0, 1), (2, 7), (5, 5), (9, 3)):
            total = meixner_kernel(3, 0.5, 0.4, k, l)
            if k != l:  # the Christoffel-Darboux form holds off the diagonal only
                cd = _meixner_kernel_cd(3, 0.5, 0.4, k, l)
                assert abs(total - cd) <= 1e-10 * max(abs(total), abs(cd), 1e-300), (k, l)

    def test_trace(self):
        mat = meixner_kernel_matrix(3, 0.5, 0.4, 100)
        assert abs(np.trace(mat) - 3.0) <= 1e-8

    def test_idempotence(self):
        mat = meixner_kernel_matrix(3, 0.5, 0.4, 100)
        assert np.max(np.abs(mat @ mat - mat)) <= 1e-8

    def test_degeneration(self):
        big_n, alpha, xi = 3, 0.5, 0.4
        gp = GrandParams(ZParams.meixner(big_n, alpha), xi)
        for k in range(11):
            for l in range(11):
                hk = hyper_kernel(point(1, k), point(1, l), gp)
                mk = meixner_kernel(big_n, alpha, xi, k + big_n, l + big_n)
                assert hk == pytest.approx(mk, rel=1e-10)

    def test_meixner_mode_exposes_only_plus_plus(self):
        gp = GrandParams(ZParams.meixner(3, 0.5), 0.4)
        with pytest.raises(AdmissibilityError):
            hyper_kernel(point(1, 0), point(-1, 0), gp)
        with pytest.raises(AdmissibilityError):
            kernel_block_matrix(gp, "--", 4)
        with pytest.raises(AdmissibilityError):
            FunctionTable.build(gp)


class TestWhittakerKernel:
    def test_sign_symmetry_grid(self, real_pair):
        pts = (0.7, 1.3, -0.7, -1.9)
        for u in pts:
            for v in pts:
                if u == v:
                    continue
                su = 1.0 if u > 0 else -1.0
                sv = 1.0 if v > 0 else -1.0
                assert whittaker_kernel(u, v, real_pair) == pytest.approx(
                    su * sv * whittaker_kernel(v, u, real_pair), rel=1e-11
                )

    def test_parameter_swap_invariance(self):
        a = ZParams(0.5, 1.0 / 3.0)
        b = ZParams(1.0 / 3.0, 0.5)
        for u, v in ((0.7, 1.3), (0.7, -1.3), (-0.5, -2.0)):
            assert whittaker_kernel(u, v, a) == pytest.approx(
                whittaker_kernel(u, v, b), rel=1e-11
            )

    def test_diagonal_limit(self, real_pair):
        x = 1.3
        diag = whittaker_kernel(x, x, real_pair)
        near = whittaker_kernel(x, x + 1e-6, real_pair)
        assert diag == pytest.approx(near, rel=1e-5)
        assert whittaker_kernel(-x, -x, real_pair) == pytest.approx(
            whittaker_kernel(-x, -x - 1e-6, real_pair), rel=1e-5
        )

    def test_components_real_for_conjugate_pair(self, complex_pair):
        for s in ("+", "-"):
            assert math.isfinite(whittaker_p(s, 1.4, complex_pair))
            assert math.isfinite(whittaker_q(s, 1.4, complex_pair))

    def test_domain(self, real_pair):
        with pytest.raises(DomainError):
            whittaker_kernel(0.0, 1.0, real_pair)
