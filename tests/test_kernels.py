import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import zmeasure.kernels as kernels
from zmeasure.kernels import (
    BLOCKS,
    DIAG_BUDGET,
    FunctionTable,
    decay_certificate,
    function_table,
    half_integer_index,
    hyper_kernel,
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
from zmeasure.partitions import ConfigurationError
from zmeasure.verification import _diag_derivative_route, _meixner_kernel_cd
from zmeasure.specfun import DomainError, PoleError, _reseed_stride, gauss_2f1_w, realize

HALF = Fraction(1, 2)

TABLE_FAMILIES = {
    "real": ZParams(0.5, 1.0 / 3.0),
    "negative": ZParams(-0.4, -0.7),
    "conjugate": ZParams(0.7 + 2.0j, 0.7 - 2.0j),
}


def point(sign: int, k: int) -> Fraction:
    return sign * Fraction(2 * k + 1, 2)


def _reference_entry(zp: ZParams, xi: float, sx: int, k: int, sy: int, l: int) -> tuple[float, float]:
    """Off-diagonal K(sx(k+1/2), sy(l+1/2)) and the size of its terms, from mpmath's
    hyp2f1 (its own continuation to xi/(xi-1)) and loggamma at 30 digits."""

    def pq_ref(s: int, n: int):
        z, z_prime, x = mpmath.mpc(zp.z), mpmath.mpc(zp.z_prime), mpmath.mpf(xi)
        t = mpmath.re(z * z_prime)
        log_psi = (
            mpmath.log(t) / 2
            + (n + mpmath.mpf(1) / 2) * mpmath.log(x)
            + s * (z + z_prime) * mpmath.log1p(-x)
            + mpmath.loggamma(n + 1 + s * z)
            + mpmath.loggamma(n + 1 + s * z_prime)
            - mpmath.loggamma(1 + s * z)
            - mpmath.loggamma(1 + s * z_prime)
            - 2 * mpmath.loggamma(n + 1)
        )
        # sqrt(psi) from the real part: the imaginary part is a multiple of 2 pi
        # (2 pi at k >= 1 for '-' and a real pair above 1), and carries only psi's sign
        assert mpmath.cos(mpmath.im(log_psi)) > 0, (s, n)
        root = mpmath.exp(mpmath.re(log_psi) / 2)
        w = x / (x - 1)
        p = root * mpmath.hyp2f1(-s * z, -s * z_prime, n + 1, w)
        f2 = mpmath.hyp2f1(1 - s * z, 1 - s * z_prime, n + 2, w)
        q = mpmath.sqrt(t * x) / (1 - x) * root * f2 / (n + 1)
        return mpmath.re(p), mpmath.re(q)

    with mpmath.workdps(30):
        (pk, qk), (pl, ql) = pq_ref(sx, k), pq_ref(sy, l)
        if sx == sy:
            return float((pk * ql - qk * pl) / (k - l)), float((abs(pk * ql) + abs(qk * pl)) / abs(k - l))
        return (
            float(sx * (pk * pl + qk * ql) / (k + l + 1)),
            float((abs(pk * pl) + abs(qk * ql)) / (k + l + 1)),
        )


def _product_loop_certificate(gp: GrandParams, ratio: float = 1e-16) -> int:
    """The decay certificate by the plain one-step product loop over psi's recurrence."""
    z, z_prime, xi = gp.zp.z, gp.zp.z_prime, gp.xi
    rel_plus = rel_minus = 1.0
    k = 0
    while not (rel_plus < ratio and rel_minus < ratio):
        denom = (k + 1.0) * (k + 1.0)
        rel_plus *= abs(xi * (k + 1 + z) * (k + 1 + z_prime)) / denom
        rel_minus *= abs(xi * (k + 1 - z) * (k + 1 - z_prime)) / denom
        k += 1
    return k


class TestHalfIntegerIndex:
    def test_mapping(self):
        assert half_integer_index(Fraction(1, 2)) == (1, 0)
        assert half_integer_index(-2.5) == (-1, 2)

    def test_rejects_non_half_integers(self):
        with pytest.raises(DomainError):
            half_integer_index(1.0)
        with pytest.raises(DomainError):
            half_integer_index(0.3)

    def test_configuration_error_is_a_domain_error(self, gp02):
        assert issubclass(ConfigurationError, DomainError)
        with pytest.raises(ConfigurationError):
            hyper_kernel(1, 0.5, gp02)


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

    @pytest.mark.parametrize(
        "zp",
        [
            ZParams(0.5, 1.0 / 3.0),
            ZParams(0.05, 0.95),
            ZParams(-0.4, -0.7),
            ZParams(-0.95, -0.05),
            ZParams(0.5 + 1.5j, 0.5 - 1.5j),
            ZParams(-1.5 + 10.0j, -1.5 - 10.0j),
            ZParams(2.0 + 0.1j, 2.0 - 0.1j),
            ZParams.meixner(3, 0.5),
        ],
    )
    def test_matches_one_step_product_loop(self, zp):
        for xi in (0.01, 0.2, 0.5, 0.9, 0.98, 0.999):
            gp = GrandParams(zp, xi)
            assert decay_certificate(gp) == _product_loop_certificate(gp), xi

    def test_table_invariants(self, gp03):
        tbl = function_table(gp03, 30)
        assert tbl.size >= max(30, decay_certificate(gp03))
        assert (tbl.root_plus > 0).all() and (tbl.root_minus > 0).all()
        for sign in (1, -1):
            for arr in tbl.columns(sign):
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
        for arr in (tbl.root_plus, tbl.root_minus, *tbl.columns(1), *tbl.columns(-1)):
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
        gp = GrandParams(real_pair, 0.98)
        rows = DIAG_BUDGET // function_table(gp).size  # rows per chunk of the diagonal series
        trunc = rows + 8
        assert function_table(gp).size >= trunc  # the block and the series share one table
        diag = np.diag(kernel_block_matrix(gp, "++", trunc).entries)
        for k in (0, rows - 2, rows - 1, rows, rows + 1, trunc - 1):
            ref = hyper_kernel(point(1, k), point(1, k), gp)
            assert abs(diag[k] - ref) <= 1e-12 * abs(ref), k

    def test_diagonal_series_memory_is_bounded(self):
        # 300 indices over columns as long as the 46040-row table at xi = 0.999
        rng = np.random.default_rng(7)
        r, s = rng.random(46040), rng.random(46040)
        tracemalloc.start()
        try:
            sums = kernels._diag_sums(np.arange(300), r, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # 5.7 MB; chunks of 256 rows (11.8M entries) peaked at 180 MB
        for k in (0, 4, 5, 299):  # 5 rows per chunk: each sum is its row's alone
            weights = 1.0 / (k + np.arange(46040) + 1.0) ** 2
            assert sums[k].tolist() == [(weights * r).sum(), (weights * s).sum()]

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("trunc", [0, -1])
    def test_block_refuses_empty_truncation(self, block, trunc):
        gp = GrandParams(ZParams(0.25, 0.75), 0.37)  # no other test builds this table
        misses = kernels._cached_table.cache_info().misses
        with pytest.raises(DomainError, match=f"trunc must be at least 1, got {trunc}"):
            kernel_block_matrix(gp, block, trunc)
        assert kernels._cached_table.cache_info().misses == misses

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

    def test_diagonal_series_vs_derivative_route(self, gp03, complex_pair):
        for gp in (gp03, GrandParams(complex_pair, gp03.xi)):
            for sign in (1, -1):
                for k in range(4):
                    series = hyper_kernel(point(sign, k), point(sign, k), gp)
                    deriv = _diag_derivative_route(sign, k, gp)
                    assert series == pytest.approx(deriv, rel=1e-12), (gp.zp, sign, k)

    @pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
    def test_diagonal_entry_is_the_blocks_bitwise(self, family):
        gp = GrandParams(TABLE_FAMILIES[family], 0.7)
        for block, sign in (("++", 1), ("--", -1)):
            entries = kernel_block_matrix(gp, block, 9).entries
            for k in range(9):
                assert hyper_kernel(point(sign, k), point(sign, k), gp) == entries[k, k], (block, k)

    def test_point_source_runs_once_per_distinct_point(self, gp03, monkeypatch):
        calls = []
        source = kernels._point
        monkeypatch.setattr(kernels, "_point", lambda *args: calls.append(args[:2]) or source(*args))
        rows = [(1, 0), (-1, 2), (1, 0), (-1, 2)]
        cols = [(-1, 1), (1, 1), (-1, 1), (1, 2), (1, 1)]  # repeats, but no point of the rows
        entries = kernels._kernel_values(rows, cols, gp03)
        assert sorted(calls) == [(-1, 1.0), (-1, 2.0), (1, 0.0), (1, 1.0), (1, 2.0)]
        for (sx, k), row in zip(rows, entries):
            for (sy, l), value in zip(cols, row):
                assert value == hyper_kernel(point(sx, k), point(sy, l), gp03)

    @pytest.mark.parametrize("xi", [0.3, 0.9])
    @pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
    def test_blocks_match_point_route_off_diagonal(self, family, xi):
        gp = GrandParams(TABLE_FAMILIES[family], xi)
        trunc = 20
        for block in ("++", "+-", "-+", "--"):
            sx, sy = (1 if c == "+" else -1 for c in block)
            entries = kernel_block_matrix(gp, block, trunc).entries
            scale = np.max(np.abs(entries))
            for k in range(trunc):
                for l in range(trunc):
                    if sx == sy and k == l:
                        continue
                    ref = hyper_kernel(point(sx, k), point(sy, l), gp)
                    assert abs(entries[k, l] - ref) <= 1e-12 * scale, (block, k, l)

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

    @pytest.mark.parametrize("zp", [ZParams(0.5, 1.0 / 3.0), ZParams(0.5 + 1.5j, 0.5 - 1.5j)])
    def test_matrix_quadrants_are_the_blocks_bitwise(self, zp):
        gp = GrandParams(zp, 0.6)
        trunc = 25
        kmat = kernel_matrix(gp, trunc)
        for block, rows, cols in (("++", 0, 0), ("+-", 0, 1), ("-+", 1, 0), ("--", 1, 1)):
            quadrant = kmat[rows * trunc:(rows + 1) * trunc, cols * trunc:(cols + 1) * trunc]
            assert np.array_equal(quadrant, kernel_block_matrix(gp, block, trunc).entries), block

    def test_block_products(self, gp03):
        trunc = 40
        kmat = kernel_matrix(gp03, trunc)
        c = kmat[:trunc, trunc:]
        d = -l_matrix(gp03, trunc)[trunc:, :trunc]
        assert np.max(np.abs(kmat[:trunc, :trunc] - c @ d)) <= 1e-10
        assert np.max(np.abs(kmat[trunc:, trunc:] - d @ c)) <= 1e-10
        assert np.max(np.abs(kmat[trunc:, :trunc] - (d @ c @ d - d))) <= 1e-10


class TestNearOne:
    """Truncations from their certificates near xi = 1, against mpmath: a table
    of 479778 rows at xi = 0.9999 and 2F1 series of about 4 million terms at
    xi = 0.99999."""

    def test_blocks_at_xi_0_9999(self, real_pair):
        xi = 0.9999
        gp = GrandParams(real_pair, xi)
        for block in ("+-", "++"):
            entries = kernel_block_matrix(gp, block, 50).entries
            sx, sy = kernels._block_signs(block)
            for k, l in ((3, 7), (40, 2), (49, 48)):
                value, scale = _reference_entry(real_pair, xi, sx, k, sy, l)
                assert abs(entries[k, l] - value) <= 1e-9 * scale, (block, k, l)
        diag = np.diag(entries)
        assert diag.min() >= 0.0 and diag.max() <= 1.0
        assert function_table(gp).size == 479778
        # that many rows bound the diagonal weights to 24 rows at a time: both sides of each seam
        for k in (0, 23, 24, 47, 48, 49):
            ref = hyper_kernel(point(1, k), point(1, k), gp)
            assert abs(diag[k] - ref) <= 1e-12 * abs(ref), k

    @pytest.mark.parametrize("zp", [ZParams(0.5, 1.0 / 3.0), ZParams(0.5 + 1.5j, 0.5 - 1.5j)])
    def test_points_at_xi_0_99999(self, zp):
        xi = 0.99999
        gp = GrandParams(zp, xi)
        k, l = math.floor(1.0 / (1.0 - xi)), math.floor(2.0 / (1.0 - xi))
        for sx, sy in ((1, 1), (1, -1), (-1, -1)):
            value, scale = _reference_entry(zp, xi, sx, k, sy, l)
            # worst miss 6.4e-12 over both pairs and the three blocks
            assert abs(hyper_kernel(point(sx, k), point(sy, l), gp) - value) <= 3e-11 * scale, (sx, sy)

    def test_minus_block_of_real_pair_above_one(self):
        # for (1.5, 1.3) log psi(-, k) has imaginary part 2 pi at k >= 1; psi is still positive
        xi = 0.99
        gp = GrandParams(ZParams(1.5, 1.3), xi)
        value, scale = _reference_entry(gp.zp, xi, -1, 0, -1, 1)
        assert value == pytest.approx(0.2512, abs=1e-4)
        assert abs(hyper_kernel(point(-1, 0), point(-1, 1), gp) - value) <= 1e-11 * scale


class TestLogPsiNearOne:
    def test_against_mpmath_to_half_a_million(self, real_pair):
        # as differences of log-gamma values the index terms drifted: 4.1e-11 at k = 2e4,
        # 1.9e-9 at k = 5e5; as Stirling ratios they stay near the roundoff of log psi itself
        gp = GrandParams(real_pair, 0.9999)
        ks = (0, 3, 255, 256, 20000, 200000, 500000)
        with mpmath.workdps(40):
            z, z_prime, x = mpmath.mpf(real_pair.z.real), mpmath.mpf(real_pair.z_prime.real), mpmath.mpf(gp.xi)
            for s in (1, -1):
                column = kernels._log_psi_column(s, ks[-1] + 1, gp)
                for k in ks:
                    ref = complex(
                        mpmath.log(z * z_prime) / 2
                        + (k + mpmath.mpf(1) / 2) * mpmath.log(x)
                        + s * (z + z_prime) * mpmath.log1p(-x)
                        + mpmath.loggamma(k + 1 + s * z)
                        + mpmath.loggamma(k + 1 + s * z_prime)
                        - mpmath.loggamma(1 + s * z)
                        - mpmath.loggamma(1 + s * z_prime)
                        - 2 * mpmath.loggamma(k + 1)
                    )
                    assert abs(kernels._log_psi(s, float(k), gp) - ref) <= 1e-13, (s, k)
                    assert abs(column[k] - ref) <= 1e-13, (s, k)


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
        terms = tbl.columns(1)[0] / (u + np.arange(tbl.size) + 1.0)
        ratios = np.abs(terms[25:31] / terms[24:30])
        assert np.all(np.abs(ratios - 0.2) <= 0.2 * 0.25)


class TestMeixnerKernel:
    def test_routes_agree(self):
        for k, l in ((0, 1), (2, 7), (5, 5), (9, 3)):
            total = meixner_kernel(3, 0.5, 0.4, k, l)
            if k != l:  # the Christoffel-Darboux form holds off the diagonal only
                cd = _meixner_kernel_cd(3, 0.5, 0.4, k, l)
                assert abs(total - cd) <= 1e-10 * max(abs(total), abs(cd), 1e-300), (k, l)

    def test_high_degree_entry_against_mpmath(self):
        # the Meixner polynomials here cancel by far more than 1/eps; the float sums gave 1.0e20
        big_n, alpha, xi, k, l = 80, 0.5, 0.4, 145, 168
        with mpmath.workdps(120):
            al, x = mpmath.mpf(alpha), mpmath.mpf(xi)

            def weight(j):
                return mpmath.rf(al + 1, j) * x**j / mpmath.factorial(j)

            def poly(n, j):
                return mpmath.hyp2f1(-n, -j, al + 1, (x - 1) / x)

            def norm(n):
                return mpmath.factorial(n) / (x**n * (1 - x) ** (al + 1) * mpmath.rf(al + 1, n))

            ref = float(
                mpmath.sqrt(weight(k) * weight(l))
                * mpmath.fsum(poly(n, k) * poly(n, l) / norm(n) for n in range(big_n))
            )
        assert abs(meixner_kernel(big_n, alpha, xi, k, l) - ref) <= 1e-12 * abs(ref)

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

    def test_meixner_block_is_the_point_route_bitwise(self):
        gp = GrandParams(ZParams.meixner(3, 0.5), 0.4)
        block = kernel_block_matrix(gp, "++", 12).entries
        for k in range(12):
            for l in range(12):
                assert block[k, l] == hyper_kernel(point(1, k), point(1, l), gp), (k, l)

    def test_meixner_mode_exposes_only_plus_plus(self):
        gp = GrandParams(ZParams.meixner(3, 0.5), 0.4)
        with pytest.raises(AdmissibilityError):
            hyper_kernel(point(1, 0), point(-1, 0), gp)
        with pytest.raises(AdmissibilityError):
            kernel_block_matrix(gp, "--", 4)
        with pytest.raises(AdmissibilityError):
            FunctionTable.build(gp)


class TestWhittakerKernel:
    @pytest.mark.parametrize("u, v", [(-1.0, -2.0), (1.0, -2.0), (-1.3, -1.3)])
    def test_meixner_mode_refuses_negative_points(self, u, v):
        zp = ZParams.meixner(3, 0.5)
        with pytest.raises(AdmissibilityError):
            whittaker_kernel(u, v, zp)
        su, sv = (1 if u > 0 else -1), (1 if v > 0 else -1)
        gp = GrandParams(zp, 0.4)
        with pytest.raises(AdmissibilityError):
            hyper_kernel(point(su, 1), point(sv, 2), gp)
        with pytest.raises(AdmissibilityError):
            kernel_block_matrix(gp, "+-"[su < 0] + "+-"[sv < 0], 4)
        assert math.isfinite(whittaker_kernel(abs(u), abs(v), zp))

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

    @pytest.mark.parametrize("zp", [ZParams(0.5, 1.0 / 3.0), ZParams(0.5 + 1.5j, 0.5 - 1.5j)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_diagonal_matches_mpmath_derivative(self, zp, sign):
        # Reference: Q P' - P Q' with both derivatives taken by mpmath.diff at 30 digits.
        with mpmath.workdps(30):
            z, z_prime = mpmath.mpc(zp.z), mpmath.mpc(zp.z_prime)
            t = mpmath.re(z * z_prime)
            g = mpmath.re(mpmath.gamma(1 + sign * z) * mpmath.gamma(1 + sign * z_prime))
            kappa = mpmath.re(sign * (z + z_prime) + 1) / 2
            mu = (z - z_prime) / 2

            def component(power, shift):
                return lambda y: mpmath.re(
                    t**power / mpmath.sqrt(g * y) * mpmath.whitw(kappa + shift, mu, y)
                )

            big_p, big_q = component(0.25, 0), component(0.75, -1)
            for x in (0.4, 1.3, 5.0):
                ref = float(big_q(x) * mpmath.diff(big_p, x) - big_p(x) * mpmath.diff(big_q, x))
                value = whittaker_kernel(sign * x, sign * x, zp)
                assert abs(value - ref) <= 1e-12 * abs(ref), x

    def test_one_whittaker_run_per_point(self, real_pair, monkeypatch):
        # the diagonal's three shifts come from one recurrence, and so do P and Q at each point
        original, calls = kernels.whittaker_w, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "whittaker_w", counted)
        for sign in (1, -1):
            calls.clear()
            assert math.isfinite(whittaker_kernel(sign * 1.3, sign * 1.3, real_pair))
            assert [args[3] for args in calls] == [3]
            calls.clear()
            assert math.isfinite(whittaker_kernel(sign * 1.3, -sign * 0.7, real_pair))
            assert [args[3] for args in calls] == [2, 2]

    @pytest.mark.parametrize("zp", [ZParams(0.5, 1.0 / 3.0), ZParams(-0.4, -0.7)])
    def test_real_pairs_take_the_float_route(self, zp, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.whitw was called")

        monkeypatch.setattr(mpmath, "whitw", refuse)
        pts = (0.4, 0.9, 1.3, 2.6, 5.0)
        for u in pts + tuple(-p for p in pts):
            for v in pts + tuple(-p for p in pts):
                assert math.isfinite(whittaker_kernel(u, v, zp))

    def test_components_real_for_conjugate_pair(self, complex_pair):
        for s in ("+", "-"):
            assert math.isfinite(whittaker_p(s, 1.4, complex_pair))
            assert math.isfinite(whittaker_q(s, 1.4, complex_pair))

    def test_domain(self, real_pair):
        with pytest.raises(DomainError):
            whittaker_kernel(0.0, 1.0, real_pair)
