"""Counting and combinatorics of double partitions."""

from fractions import Fraction

import pytest

from strata.errors import ValidationError
from strata.partitions import (
    Partition,
    SegreSymbol,
    conjugate_symbol,
    count_double_partitions_sigma,
    count_fold_partitions,
    enumerate_double_partitions,
    enumerate_partitions,
    forgetful,
    mu_string,
)

# Reference sequence for r = 2, n = 1..20.
DOUBLE_COUNTS = [
    1, 3, 6, 14, 27, 58, 111, 223, 424, 817,
    1527, 2870, 5279, 9710, 17622, 31877, 57100, 101887, 180406, 318106,
]

# Classical single-partition counts p(n) for n = 1..12.
SINGLE_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partition_shape_and_weight():
    p = Partition([3, 2, 1])
    assert tuple(p) == (3, 2, 1)
    assert p.weight == 6
    assert len(p) == 3
    with pytest.raises(ValidationError):
        Partition([2, 0])
    with pytest.raises(ValidationError):
        Partition([1, 3, 2])
    for bad in ("x", ["x"], [2.5], 3):
        with pytest.raises(ValidationError):
            Partition(bad)
    assert Partition([2.0, 1]) == Partition([2, 1])


def test_partition_conjugate_involution():
    p = Partition([4, 2, 1])
    q = p.conjugate()
    assert tuple(q) == (3, 2, 1, 1)
    assert q.conjugate() == p
    for parts in [(1,), (5,), (3, 3, 3), (2, 1, 1, 1)]:
        p = Partition(parts)
        assert p.conjugate().conjugate() == p
        assert p.conjugate().weight == p.weight


def test_enumerate_partitions_counts():
    for n, c in enumerate(SINGLE_COUNTS, start=1):
        parts = enumerate_partitions(n)
        assert len(parts) == c
        assert len(set(parts)) == c
        assert all(p.weight == n for p in parts)


def test_segre_symbol_multiset_semantics():
    s1 = SegreSymbol([Partition([2]), Partition([1, 1])])
    s2 = SegreSymbol([Partition([1, 1]), Partition([2])])
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.weight == 4
    assert s1.rough_length == 2
    assert SegreSymbol.from_lists(s1.to_lists()) == s1


@pytest.mark.parametrize("lists", [[[]], [[1], []], [[], [2, 1]]])
def test_segre_symbol_refuses_an_empty_partition(lists):
    with pytest.raises(ValidationError, match="nonempty"):
        SegreSymbol.from_lists(lists)


def test_double_partition_sequence_three_ways():
    for n, expected in enumerate(DOUBLE_COUNTS, start=1):
        assert count_fold_partitions(2, n) == expected
        assert count_double_partitions_sigma(n) == expected
    for n in range(1, 13):
        assert len(enumerate_double_partitions(n)) == DOUBLE_COUNTS[n - 1]


def test_enumeration_has_no_duplicates():
    for n in (4, 6):
        symbols = enumerate_double_partitions(n)
        assert len(set(symbols)) == len(symbols)
        assert all(s.weight == n for s in symbols)


def test_fold_one_matches_single_partitions():
    for n, c in enumerate(SINGLE_COUNTS, start=1):
        assert count_fold_partitions(1, n) == c


def test_fold_counting_edge_cases():
    with pytest.raises(ValidationError):
        count_fold_partitions(0, 3)
    with pytest.raises(ValidationError):
        count_fold_partitions(2, -1)
    assert count_fold_partitions(2, 0) == 1


def test_conjugate_symbol_memberwise():
    s = SegreSymbol([Partition([3, 1]), Partition([2])])
    c = conjugate_symbol(s)
    assert c == SegreSymbol([Partition([2, 1, 1]), Partition([1, 1])])
    assert conjugate_symbol(c) == s


def test_forgetful_merges_members():
    s = SegreSymbol([Partition([2, 1]), Partition([3])])
    assert forgetful(s) == Partition([3, 2, 1])
    assert forgetful(s).weight == s.weight


def test_mu_string_is_deterministic():
    s = SegreSymbol([Partition([2, 2]), Partition([1])])
    assert mu_string(s) == mu_string(SegreSymbol([Partition([1]), Partition([2, 2])]))
