from math import comb

import pytest

from wstirling import combinat
from wstirling.ring import ONE, P
from wstirling.stirling import first_kind, pq_binomial, second_kind
from wstirling.tableaux import (
    EMPTY,
    BTableau,
    DomainViolation,
    EnumerationCapExceeded,
    IncompatibleTableaux,
    convolution_split,
    enumerate_T,
    enumerate_Td,
    juxtapose,
    tau,
    triangular_split,
    weight,
    weight_sum,
)
from wstirling.weights import NegativeQInteger, WeightPair, WeightSpec, builtin

CLASSICAL = builtin("classical")
PQ = builtin("pq-binomial")


def tableau(tops, bottoms):
    return BTableau(tuple(zip(tops, bottoms)))


def test_tableau_type():
    t = tableau([3, 1, 0], [2, 4, 5])
    assert t.width == 3
    assert t.column_sum == 5
    assert t.render() == "[3 1 0 / 2 4 5]"
    assert EMPTY.width == 0 and EMPTY.column_sum is None
    assert EMPTY.render() == "[]"
    with pytest.raises(ValueError):
        tableau([1, 2], [1, 0])  # increasing top row
    with pytest.raises(ValueError):
        tableau([2, 1], [0, 0])  # column sums differ
    # entries are ints as given, never converted: 1.7 would truncate to 1
    assert BTableau([[2, 1]]).columns == ((2, 1),)
    for columns in (((1.7, 0.3),), (("2", "1"),), ((True, 0),)):
        with pytest.raises(ValueError, match=r"^tableau entries are integers, got \(\("):
            BTableau(columns)


def test_enumerate_T_examples():
    small = enumerate_T(0, 0, 1, 1)
    assert [t.render() for t in small] == ["[1 / 0]", "[0 / 1]"]
    assert len(enumerate_T(0, 0, 2, 2)) == 6
    for r in range(4):
        assert enumerate_T(0, 0, r, 0) == [EMPTY]
    assert enumerate_T(0, 0, 2, -1) == []
    # below r = 0 no top fits in alpha..alpha+r, so no tableau with columns
    # exists, and the cap refuses none of them
    for alpha, beta, r, s in [(0, 0, -1, 1), (2, -1, -1, 3), (0, 0, -2, 1), (-3, 4, -7, 2),
                              (0, 0, -1, 10 ** 7)]:
        assert enumerate_T(alpha, beta, r, s) == []
    # plain tableaux survive r < s-1 as long as r is nonnegative
    wide = enumerate_T(0, 0, 1, 3)
    assert len(wide) == comb(4, 3)


def test_enumerate_Td_examples():
    assert len(enumerate_Td(0, 0, 3, 2)) == comb(4, 2)
    assert enumerate_Td(0, 0, 0, 2) == []
    assert tableau([3, 1, 0], [2, 4, 5]) in enumerate_Td(0, 0, 5, 3)
    # the 2x0 array is the sole member whenever s=0 and the set is nonempty
    assert enumerate_Td(0, 0, -1, 0) == [EMPTY]
    assert enumerate_Td(0, 0, -2, 0) == []


def test_enumeration_counts_and_membership():
    for alpha, beta in [(0, 0), (-2, 1), (3, -1)]:
        for r in range(5):
            for s in range(r + 3):
                plain = enumerate_T(alpha, beta, r, s)
                distinct = enumerate_Td(alpha, beta, r, s)
                assert len(plain) == comb(r + s, s)
                assert len(distinct) == (comb(r + 1, s) if s <= r + 1 else 0)
                assert len(set(plain)) == len(plain)
                assert all(t.is_member(alpha, beta, r) for t in plain)
                assert all(t.is_member(alpha, beta, r, distinct=True) for t in distinct)
                assert set(distinct) <= set(plain)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_T(0, 0, 100, 50, cap=1000)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_Td(0, 0, 60, 30, cap=1000)
    # still a ValueError, and the class combinat raises too
    assert issubclass(EnumerationCapExceeded, ValueError)
    assert combinat.EnumerationCapExceeded is EnumerationCapExceeded


def test_weight_examples():
    assert weight(EMPTY, PQ) == ONE
    stretched = WeightPair(WeightSpec("polynomial", coefficients=[4, 2]),
                           WeightSpec("constant", value=1))
    assert weight(tableau([3, 1, 1], [2, 4, 4]), stretched) == 360
    assert weight(tableau([1], [0]), PQ) == P


def test_juxtapose():
    single = tableau([2], [0])
    other = tableau([1], [1])
    assert juxtapose(EMPTY, single) == single
    assert juxtapose(single, EMPTY) == single
    assert juxtapose(single, other) == tableau([2, 1], [0, 1])
    with pytest.raises(IncompatibleTableaux):
        juxtapose(single, tableau([1], [2]))


def test_juxtapose_weight_multiplicative_and_commutative():
    # column sums match: 0+0+3 = 1-1+3
    left_pool = enumerate_T(0, 0, 3, 2)
    right_pool = enumerate_T(1, -1, 3, 2)
    for t1 in left_pool:
        for t2 in right_pool:
            both = juxtapose(t1, t2)
            assert juxtapose(t2, t1) == both
            assert weight(both, PQ) == weight(t1, PQ) * weight(t2, PQ)


def test_tau_examples():
    start = tableau([3, 1, 0], [2, 4, 5])
    assert tau(start, 6, 3, 0, 0) == tableau([1, 0, 0], [2, 3, 3])
    assert tau(EMPTY, 4, 4, 0, 0) == EMPTY
    with pytest.raises(DomainViolation):
        tau(tableau([1, 1], [0, 0]), 4, 2, 0, 0)  # repeated tops
    with pytest.raises(DomainViolation):
        tau(tableau([1], [0]), 4, 2, 0, 0)  # wrong width


def test_tau_is_a_bijection():
    for n, k, alpha, beta in [(4, 2, 0, 0), (5, 2, -1, 1), (6, 3, 1, -1), (3, 0, 0, 0)]:
        source = enumerate_Td(alpha, beta, n - 1, n - k)
        target = enumerate_T(alpha, beta, k, n - k)
        images = [tau(t, n, k, alpha, beta) for t in source]
        assert len(set(images)) == len(images)
        assert set(images) == set(target)
    for n in range(9):
        for k in range(n + 1):
            assert len(enumerate_Td(0, 0, n - 1, n - k)) == len(enumerate_T(0, 0, k, n - k))


def test_weight_sum_examples():
    assert weight_sum("second", 2, 1, 0, 0, CLASSICAL) == 1
    for n in range(4):
        assert weight_sum("first", n, n, 0, 0, PQ) == ONE
    assert weight_sum("second", 4, 2, 0, 0, PQ) == pq_binomial(4, 2)
    with pytest.raises(ValueError):
        weight_sum("third", 2, 1, 0, 0, CLASSICAL)


def test_weight_sum_matches_definitions():
    for name in ("classical", "pq-binomial", "b-stirling", "legendre", "jacobi",
                 "noncentral(1)", "merris(2)", "sun(2)", "zeta", "q-stirling"):
        pair = builtin(name)
        for alpha in (-1, 0, 1):
            for beta in (-1, 0, 1):
                for n in range(8):
                    for k in range(n + 1):
                        for kind, fn in (("first", first_kind), ("second", second_kind)):
                            try:
                                expected = fn(pair, alpha, beta, n, k)
                            except NegativeQInteger:
                                continue
                            assert weight_sum(kind, n, k, alpha, beta, pair) == expected, \
                                (name, kind, alpha, beta, n, k)


def partitions(pieces, whole):
    """Do the pieces hold each tableau of whole exactly once?"""
    return len(pieces) == len(set(pieces)) == len(whole) and set(pieces) == set(whole)


def test_proof_partition_triangular():
    def holds(n, k, alpha=0, beta=0):
        return partitions(triangular_split(n, k, alpha, beta),
                          enumerate_Td(alpha, beta, n - 1, n - k))
    assert holds(4, 2)
    for n in range(1, 6):
        for k in range(n + 1):
            assert holds(n, k, alpha=-1, beta=1), (n, k)


def test_proof_partition_convolution():
    def holds(m1, m2, n, alpha=0, beta=0):
        return partitions(convolution_split(m1, m2, n, alpha, beta),
                          enumerate_Td(alpha, beta, m1 + m2 - 1, m1 + m2 - n))
    assert holds(2, 2, 2)
    for m1 in range(4):
        for m2 in range(4):
            for n in range(m1 + m2 + 1):
                assert holds(m1, m2, n, alpha=1, beta=-1), (m1, m2, n)
    # one factor collapses the union to a single split
    assert holds(3, 0, 2)
    assert holds(0, 3, 2)
