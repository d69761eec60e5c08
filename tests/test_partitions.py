import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zmeasure.partitions import (
    Configuration,
    ConfigurationError,
    EMPTY_DIAGRAM,
    PartitionCapError,
    YoungDiagram,
    _all_diagrams,
    dimension,
    enumerate_partitions,
    from_configuration,
    partition_count,
    to_configuration,
)
from zmeasure.verification import _frobenius_det, _frobenius_dimension

partitions_strategy = st.lists(st.integers(1, 12), max_size=8).map(
    lambda xs: YoungDiagram(tuple(sorted(xs, reverse=True)))
)


def gf_partition_count(n: int) -> int:
    """Generating-function oracle: coefficient of x^n in prod_k (1 - x^k)^(-1)."""
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            coeffs[i] += coeffs[i - k]
    return coeffs[n]


class TestEnumeration:
    def test_zero_boxes(self):
        assert enumerate_partitions(0) == [EMPTY_DIAGRAM]

    def test_four_boxes_descending_lex(self):
        assert [d.parts for d in enumerate_partitions(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_ten_boxes_against_generating_function(self):
        assert gf_partition_count(10) == 42
        assert len(enumerate_partitions(10)) == 42

    def test_counts_match_recurrence_up_to_forty(self):
        for n in range(41):
            assert len(enumerate_partitions(n)) == partition_count(n)
        _all_diagrams.cache_clear()

    def test_count_recurrence_against_generating_function(self):
        for n in range(0, 60, 7):
            assert partition_count(n) == gf_partition_count(n)

    def test_cap(self):
        with pytest.raises(PartitionCapError):
            enumerate_partitions(30, cap=100)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)


class TestDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))
        assert YoungDiagram.from_parts([3, 2, 0, 0]).parts == (3, 2)

    def test_frobenius_empty(self):
        assert EMPTY_DIAGRAM.frobenius == ((), ())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_frobenius_single_row(self, n):
        assert YoungDiagram((n,)).frobenius == ((n - 1,), (0,))

    def test_frobenius_hand_example(self):
        lam = YoungDiagram((3, 2, 2))
        p, q = lam.frobenius
        assert (p, q) == ((2, 0), (2, 1))
        assert sum(pi + qi + 1 for pi, qi in zip(p, q)) == 7

    @given(partitions_strategy)
    def test_frobenius_invariants(self, lam):
        p, q = lam.frobenius
        assert list(p) == sorted(p, reverse=True) and len(set(p)) == len(p)
        assert list(q) == sorted(q, reverse=True) and len(set(q)) == len(q)
        assert sum(pi + qi + 1 for pi, qi in zip(p, q)) == lam.n

    @given(partitions_strategy)
    def test_transposition_swaps_frobenius(self, lam):
        p, q = lam.frobenius
        assert lam.conjugate().frobenius == (q, p)


class TestDimension:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_single_row(self, n):
        assert dimension(YoungDiagram((n,))) == 1

    def test_hook_hand_value(self):
        assert dimension(YoungDiagram((2, 1))) == 2

    @pytest.mark.parametrize("n", range(1, 13))
    def test_squared_dimensions_sum_to_factorial(self, n):
        assert sum(dimension(lam) ** 2 for lam in enumerate_partitions(n)) == math.factorial(n)

    def test_empty(self):
        assert dimension(EMPTY_DIAGRAM) == 1

    def test_hooks_match_frobenius_determinant(self):
        for n in range(15):
            for lam in enumerate_partitions(n):
                assert _frobenius_dimension(lam, _frobenius_det(lam)) == dimension(lam), lam


class TestConfiguration:
    def test_empty_embedding(self):
        assert to_configuration(EMPTY_DIAGRAM) == Configuration(frozenset())

    def test_single_box(self):
        conf = to_configuration(YoungDiagram((1,)))
        assert conf.to_json() == ["1/2", "-1/2"]

    def test_hand_example(self):
        conf = to_configuration(YoungDiagram((3, 2, 2)))
        assert set(conf.to_json()) == {"5/2", "1/2", "-5/2", "-3/2"}
        assert conf.is_balanced

    def test_round_trip_exhaustive(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert from_configuration(to_configuration(lam)) == lam

    def test_unbalanced_rejected(self):
        conf = Configuration.from_indices([0, 1], [0])
        assert not conf.is_balanced
        with pytest.raises(ConfigurationError):
            from_configuration(conf)

    def test_half_integer_validation(self):
        with pytest.raises(ConfigurationError):
            Configuration.from_points([1])
        with pytest.raises(ConfigurationError):
            Configuration.from_points([0.75])
        assert 0.5 in Configuration.from_points([0.5])

    def test_json_round_trip(self):
        conf = Configuration.from_points(["5/2", "-3/2", "1/2"])
        assert Configuration.from_json(conf.to_json()) == conf
        assert conf.to_json() == ["5/2", "1/2", "-3/2"]

    def test_contains(self):
        big = Configuration.from_points(["5/2", "1/2", "-3/2"])
        assert big.contains(Configuration.from_points(["1/2"]))
        assert not big.contains(Configuration.from_points(["3/2"]))

    def test_indices(self):
        conf = Configuration.from_indices([2, 0], [1])
        assert conf.positive_indices == (2, 0)
        assert conf.negative_indices == (1,)
