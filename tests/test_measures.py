import mpmath
import numpy as np
import pytest

from zmeasure.measures import (
    AdmissibilityError,
    GrandParams,
    ZParams,
    _log_pochhammer_column,
    mixed_measure,
    neg_binomial_weight,
    plancherel_measure,
    z_measure_n,
    z_measure_table,
)
from zmeasure.partitions import EMPTY_DIAGRAM, YoungDiagram, _frobenius_arrays, dimension, enumerate_partitions
from zmeasure.specfun import loggamma
from zmeasure.verification import _frobenius_det, _mixed_measure_direct


class TestAdmissibility:
    @pytest.mark.parametrize(
        "z,zp",
        [
            (0.5, 1.0 / 3.0),
            (-0.4, -0.7),
            (0.5 + 1.5j, 0.5 - 1.5j),
            (100.5, 100.5),
            (3.2, 3.9),
        ],
    )
    def test_admissible(self, z, zp):
        assert ZParams(z, zp).t > 0

    @pytest.mark.parametrize(
        "z,zp",
        [
            (0.5, 1.5),  # different unit intervals
            (2.0, 2.5),  # integer parameter
            (0.5 + 1.5j, 0.5 + 1.5j),  # not conjugate
            (0.5 + 1.5j, 0.4 - 1.5j),  # not conjugate
            (-0.5, 0.5),  # t < 0 interval mismatch
        ],
    )
    def test_inadmissible(self, z, zp):
        with pytest.raises(AdmissibilityError):
            ZParams(z, zp)

    def test_xi_range(self, real_pair):
        with pytest.raises(AdmissibilityError):
            GrandParams(real_pair, 0.0)
        with pytest.raises(AdmissibilityError):
            GrandParams(real_pair, 1.0)

    def test_meixner_mode_constructor(self):
        zp = ZParams.meixner(3, 0.5)
        assert zp.meixner_mode and zp.t == pytest.approx(10.5)
        with pytest.raises(AdmissibilityError):
            ZParams(3.5, 3.0)  # integer z' rejected outside meixner mode

    def test_meixner_mode_rejected_by_measures(self):
        zp = ZParams.meixner(3, 0.5)
        with pytest.raises(AdmissibilityError):
            z_measure_n(YoungDiagram((1,)), zp)


class TestZMeasure:
    def test_single_box_is_certain(self, real_pair, negative_pair, complex_pair):
        for zp in (real_pair, negative_pair, complex_pair):
            assert z_measure_n(YoungDiagram((1,)), zp) == pytest.approx(1.0, abs=1e-14)

    def test_two_box_hand_values(self, real_pair):
        assert z_measure_n(YoungDiagram((2,)), real_pair) == pytest.approx(6.0 / 7.0, abs=1e-14)
        assert z_measure_n(YoungDiagram((1, 1)), real_pair) == pytest.approx(1.0 / 7.0, abs=1e-14)

    def test_empty(self, real_pair):
        assert z_measure_n(EMPTY_DIAGRAM, real_pair) == 1.0

    def test_normalization_five_boxes(self, real_pair):
        total = sum(z_measure_n(lam, real_pair) for lam in enumerate_partitions(5))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_positivity(self, real_pair, negative_pair, complex_pair):
        for zp in (real_pair, negative_pair, complex_pair):
            for n in range(11):
                for lam in enumerate_partitions(n):
                    assert z_measure_n(lam, zp) > 0.0

    def test_transposition_symmetry(self):
        zp = ZParams(0.5, 1.0 / 3.0)
        zp_neg = ZParams(-0.5, -1.0 / 3.0)
        for n in range(11):
            for lam in enumerate_partitions(n):
                assert z_measure_n(lam, zp) == pytest.approx(
                    z_measure_n(lam.conjugate(), zp_neg), rel=1e-11
                )

    def test_table_order(self, real_pair):
        table = z_measure_table(3, real_pair)
        assert [lam.parts for lam, _ in table] == [(3,), (2, 1), (1, 1, 1)]

    def test_one_diagram_equals_its_table_entry(self, real_pair, negative_pair, complex_pair):
        for zp in (real_pair, negative_pair, complex_pair):
            for n in range(13):
                for lam, value in z_measure_table(n, zp):
                    assert z_measure_n(lam, zp) == value, lam

    @pytest.mark.parametrize("k", range(1, 13))
    def test_squares_against_mpmath(self, k, real_pair, negative_pair, complex_pair):
        lam = YoungDiagram((k,) * k)
        for zp in (real_pair, negative_pair, complex_pair):
            ref = mp_z_measure(lam, zp)
            assert abs(z_measure_n(lam, zp) - ref) <= 2e-13 * ref, zp
        if k == 10:
            assert mp_z_measure(lam, real_pair) == pytest.approx(1.4016514566981e-113, rel=1e-13)

    def test_row_with_a_coordinate_beyond_int16(self, real_pair, complex_pair):
        lam = YoungDiagram((2**15 + 1,))  # its arm length 2^15 needs a wider index
        assert _frobenius_arrays([lam]).p.dtype == np.intp
        assert _frobenius_arrays([YoungDiagram((2**15,))]).p.dtype == np.int16
        for zp in (real_pair, complex_pair):
            ref = mp_z_measure(lam, zp)
            assert abs(z_measure_n(lam, zp) - ref) <= 1e-8 * ref, zp  # log terms near 3e5 cost 1e-10

    def test_underflow_is_zero(self, real_pair, negative_pair, complex_pair):
        square = YoungDiagram((20,) * 20)
        for zp in (real_pair, negative_pair, complex_pair):
            assert z_measure_n(square, zp) == 0.0
            assert mixed_measure(square, GrandParams(zp, 0.2)) == 0.0


def mp_z_measure(lam: YoungDiagram, zp: ZParams) -> float:
    """The z-measure of one diagram from its product form in 40-digit mpmath."""
    with mpmath.workdps(40):
        z, z_prime = mpmath.mpc(zp.z), mpmath.mpc(zp.z_prime)
        t = z * z_prime
        value = t**lam.d / mpmath.rf(t, lam.n) * mpmath.mpf(dimension(lam)) ** 2 / mpmath.factorial(lam.n)
        for pi, qi in zip(*lam.frobenius):
            value *= mpmath.rf(1 + z, pi) * mpmath.rf(1 + z_prime, pi)
            value *= mpmath.rf(1 - z, qi) * mpmath.rf(1 - z_prime, qi)
        return float(value.real)


class TestPochhammerTable:
    @pytest.mark.parametrize("family", ["real", "negative", "conjugate"])
    def test_table_matches_scalar_loggamma(self, family, real_pair, negative_pair, complex_pair):
        zp = {"real": real_pair, "negative": negative_pair, "conjugate": complex_pair}[family]
        z, z_prime = zp.z, zp.z_prime
        plus, minus = _log_pochhammer_column(1, zp, 20), _log_pochhammer_column(-1, zp, 20)
        for n in range(21):
            for lam in enumerate_partitions(n):
                p, q = lam.frobenius
                reference = sum(
                    loggamma(1 + z + pi) - loggamma(1 + z)
                    + loggamma(1 + z_prime + pi) - loggamma(1 + z_prime)
                    + loggamma(1 - z + qi) - loggamma(1 - z)
                    + loggamma(1 - z_prime + qi) - loggamma(1 - z_prime)
                    - 2.0 * (loggamma(pi + 1.0) + loggamma(qi + 1.0))  # the columns are over (k!)^2
                    for pi, qi in zip(p, q)
                )
                table = sum(plus[pi] + minus[qi] for pi, qi in zip(p, q))
                assert abs(table - reference) <= 1e-12 * max(1.0, abs(reference)), lam


class TestNegBinomial:
    def test_zero(self):
        assert neg_binomial_weight(0, 2.0, 0.5) == pytest.approx(0.5**2.0, rel=1e-15)

    def test_sums_to_one(self):
        total = sum(neg_binomial_weight(n, 2.0, 0.5) for n in range(201))
        assert abs(total - 1.0) <= 1e-12

    def test_hand_value(self):
        expected = 0.8 ** (1.0 / 6.0) * ((1.0 / 6.0) * (7.0 / 6.0) / 2.0) * 0.04
        assert neg_binomial_weight(2, 1.0 / 6.0, 0.2) == pytest.approx(expected, rel=1e-14)


class TestMixedMeasure:
    def test_empty(self, gp02):
        assert mixed_measure(EMPTY_DIAGRAM, gp02) == pytest.approx(
            0.8 ** gp02.t, rel=1e-14
        )

    def test_single_box_hand_value(self, gp02):
        t = gp02.t
        assert mixed_measure(YoungDiagram((1,)), gp02) == pytest.approx(
            0.8**t * 0.2 * t, rel=1e-13
        )

    def test_two_routes_agree_small_diagrams(self, gp02):
        for n in range(16):
            for lam in enumerate_partitions(n):
                factored = mixed_measure(lam, gp02)
                direct = _mixed_measure_direct(lam, gp02, _frobenius_det(lam))
                assert factored > 0.0
                assert abs(factored - direct) <= 1e-10 * max(factored, direct), lam

    def test_total_mass(self, gp02):
        total = sum(
            mixed_measure(lam, gp02) for n in range(26) for lam in enumerate_partitions(n)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPlancherel:
    def test_single_box(self):
        assert plancherel_measure(YoungDiagram((1,))) == 1.0

    def test_hand_value(self):
        assert plancherel_measure(YoungDiagram((2, 1))) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_normalization(self, n):
        total = sum(plancherel_measure(lam) for lam in enumerate_partitions(n))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_z_limit(self):
        zp = ZParams(100.5, 100.5)
        gap = max(
            abs(z_measure_n(lam, zp) - plancherel_measure(lam))
            for lam in enumerate_partitions(6)
        )
        assert gap <= 0.05
