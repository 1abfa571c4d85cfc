"""Tests for the colored combinatorial models."""

import re
from functools import partial
from itertools import permutations

import pytest

from wstirling import combinat, identities
from wstirling.combinat import (
    ColoredPartition,
    ColoredPermutation,
    InvalidColorBudget,
    NonCombinatorialWeights,
    SignedPartition,
    ZeroOneTableau,
    count_01v,
    enumerate_01v,
    enumerate_part,
    enumerate_perm,
    enumerate_signed_partitions,
    from_partition,
    from_permutation,
    to_partition,
    to_permutation,
)
from wstirling.ring import EnumerationCapExceeded, as_int
from wstirling.stirling import first_kind, second_kind
from wstirling.tableaux import BTableau, DomainViolation, enumerate_T, enumerate_Td, weight
from wstirling.weights import CATALOG, UndefinedIndex, WeightPair, WeightSpec, builtin

ONE = WeightSpec("constant", value=1)
IDENT = WeightSpec("polynomial", coefficients=[0, 1])
V24 = WeightSpec("polynomial", coefficients=[4, 2])


def _pair(v: WeightSpec) -> WeightPair:
    return WeightPair(v, ONE)


def _scan(name, pair, cells):
    """The registry's identity `name` at pair over cells: (checked, failure)."""
    checked, _, failure = identities.scan(cells, identities.REGISTRY[name].probe(pair))
    return checked, failure


# -- counting and enumerating colored tableaux ----------------------------------

def test_count_matches_weight_for_catalog():
    shapes = list(enumerate_T(0, 0, 3, 2)) + list(enumerate_Td(0, 0, 3, 2))
    for pair in (builtin(name) for name in CATALOG):
        if not pair.is_combinatorial():
            continue
        for shape in shapes:
            assert count_01v(shape, pair) == as_int(weight(shape, pair))


def test_count_rejects_symbolic_weights():
    shape = BTableau.from_tops((1,), 1)
    with pytest.raises(NonCombinatorialWeights):
        count_01v(shape, builtin("pq-binomial"))
    with pytest.raises(NonCombinatorialWeights):
        enumerate_01v(shape, builtin("jacobi"))


def test_invalid_color_budget_from_table_weights():
    # value(2) - value(0) = 1 is not divisible by 2
    corrupted = WeightSpec("table", values={0: 1, 1: 3, 2: 2})
    shape = BTableau.from_tops((2,), 2)
    assert corrupted.is_combinatorial()
    with pytest.raises(InvalidColorBudget):
        count_01v(shape, _pair(corrupted))
    # a drop below value(0) is just as invalid
    decreasing = WeightSpec("table", values={0: 3, 1: 1})
    with pytest.raises(InvalidColorBudget):
        count_01v(BTableau.from_tops((1,), 1), _pair(decreasing))


def test_negative_column_part_has_no_budget():
    # at column sum 1 a top of 3 leaves a bottom part of -2, which has no grid
    # rows; (w(-2) - w(0)) / -2 = -2 must not pass as a color budget
    pair = WeightPair(WeightSpec("constant", value=2),
                      WeightSpec("table", values={0: 1, -2: 5}))
    shape = BTableau.from_tops((3,), 1)
    for fn in (count_01v, enumerate_01v):
        with pytest.raises(ValueError, match="column part -2 is negative"):
            fn(shape, pair)


def test_enumerate_01v_example():
    shape = BTableau.from_tops((1,), 1)
    out = enumerate_01v(shape, _pair(V24))
    # 4 first-row colors plus one interior row with (6 - 4) / 1 = 2 colors
    assert len(out) == count_01v(shape, _pair(V24)) == 6
    assert out[0].render() == "[1 / 0] above 1_1 below 1_1"
    assert {t.above[0] for t in out} == {(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)}
    with pytest.raises(EnumerationCapExceeded):
        enumerate_01v(shape, _pair(V24), cap=5)


def test_zero_one_tableau_validation():
    shape = BTableau.from_tops((1,), 1)
    with pytest.raises(ValueError):
        ZeroOneTableau(shape, ((3, 1),), ((1, 1),))
    with pytest.raises(ValueError):
        ZeroOneTableau(shape, ((1, 1),), ((1, 0),))
    with pytest.raises(ValueError):
        ZeroOneTableau(shape, ((1, 1),), ((1, 1),), rows=5)
    with pytest.raises(ValueError):
        ZeroOneTableau(BTableau(()), (), ())
    assert ZeroOneTableau(BTableau(()), (), (), rows=3).path() == "VVV"
    with pytest.raises(ValueError, match="^need one above and one below placement per column$"):
        ZeroOneTableau(shape, ((1, 1),), ())
    with pytest.raises(ValueError, match="^below row 2 outside 1..1$"):
        ZeroOneTableau(shape, ((1, 1),), ((2, 1),))
    wide = BTableau.from_tops((2,), 3)
    with pytest.raises(ValueError, match=r"^placement rows and colors are integers, "
                                         r"got \(1\.5, 1\) \(1, 2\.5\)$"):
        ZeroOneTableau(wide, ((1.5, 1),), ((1, 2.5),))
    with pytest.raises(ValueError, match=r"^placement rows and colors are integers, "
                                         r"got \(1, 1\) \(1, True\)$"):
        ZeroOneTableau(wide, ((1, 1),), ((1, True),))
    with pytest.raises(ValueError, match=r"^grid height is an integer, got 5\.0$"):
        ZeroOneTableau(wide, ((1, 1),), ((1, 2),), rows=5.0)


def test_permutation_labeling_needs_distinct_tops():
    t = ZeroOneTableau(BTableau.from_tops((1, 1), 1), ((1, 1), (1, 1)), ((1, 1), (1, 1)))
    assert to_partition(t).render() == "{0,2_1,3_1}{1}"  # repeated tops read as a partition
    with pytest.raises(ValueError, match="^permutation labeling needs distinct column tops$"):
        to_permutation(t)


@pytest.mark.parametrize("w, error, message", [
    (WeightSpec("constant", value=0), ValueError, "the below placement needs w(0) >= 1"),
    (WeightSpec("constant", value="q"), NonCombinatorialWeights,
     "weight value at 0 is not an integer"),
    (WeightSpec("constant", value=-1), NonCombinatorialWeights, "weight value at 0 is negative"),
])
def test_inverse_maps_check_the_below_weight(w, error, message):
    pair = WeightPair(V24, w)
    partition = ColoredPartition((((0, None), (1, 1)),))
    permutation = ColoredPermutation((((0, None), (1, 1)),))
    for inverse, colored in ((from_partition, partition), (from_permutation, permutation)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            inverse(colored, pair)


def test_path_from_shape():
    phi = ZeroOneTableau(BTableau.from_tops((3, 1, 1), 5),
                         ((3, 2), (1, 3), (2, 1)), ((1, 1),) * 3)
    assert phi.rows == 7
    assert phi.path() == "VVHHVVHVVV"
    psi = ZeroOneTableau(BTableau.from_tops((3, 1, 0), 5),
                         ((4, 1), (2, 1), (1, 4)), ((1, 1),) * 3)
    assert psi.path() == "VHVHVVHVVV"


# -- the worked partition and permutation examples ------------------------------

def test_partition_golden():
    t = ZeroOneTableau(BTableau.from_tops((3, 1, 1), 5),
                       ((3, 2), (1, 3), (2, 1)), ((1, 1),) * 3)
    p = to_partition(t)
    assert p.render() == "{0,3_3}{1,2_1}{4,6_2}{5}{7}{8}"
    assert from_partition(p, _pair(V24)) == t


def test_permutation_golden():
    t = ZeroOneTableau(BTableau.from_tops((3, 1, 0), 5),
                       ((4, 1), (2, 1), (1, 4)), ((1, 1),) * 3)
    q = to_permutation(t)
    assert q.render() == "(0 1_4 2_1)(3 4_1)(5)(6)"
    assert q.word() == ((0, None), (1, 4), (2, 1), (3, None), (4, 1), (5, None), (6, None))
    assert from_permutation(q, _pair(V24)) == t


def test_all_vertical_paths_give_singletons():
    t = ZeroOneTableau(BTableau(()), (), (), rows=5)
    assert to_partition(t).render() == "{0}{1}{2}{3}"
    assert to_permutation(t).render() == "(0)(1)(2)(3)(4)"


# -- bijections over exhaustive domains ------------------------------------------

def _colored_tableaux(shapes, v, rows):
    out = []
    for shape in shapes:
        out.extend(enumerate_01v(shape, _pair(v), rows=rows))
    return out


@pytest.mark.parametrize("v", [IDENT, V24], ids=["classical", "shifted"])
@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_partition_bijection(v, alpha, beta):
    for n, k in ((3, 1), (4, 2), (4, 4)):
        rows = alpha + beta + k + 2
        tableaux = _colored_tableaux(enumerate_T(alpha, beta, k, n - k), v, rows)
        images = [to_partition(t) for t in tableaux]
        assert len(set(images)) == len(images)
        big_n, big_k = n + alpha + beta, k + alpha + beta
        for t, p in zip(tableaux, images):
            assert from_partition(p, _pair(v)) == t
        expected = [p for p in enumerate_part(big_n, big_k, v)
                    if _restricted(p.blocks, big_n, alpha, beta)]
        assert set(images) == set(expected)
        assert len(images) == as_int(second_kind(_pair(v), alpha, beta, n, k))


@pytest.mark.parametrize("v", [IDENT, V24], ids=["classical", "shifted"])
@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_permutation_bijection(v, alpha, beta):
    for n, k in ((3, 1), (4, 2), (4, 4)):
        rows = alpha + beta + n + 1
        tableaux = _colored_tableaux(enumerate_Td(alpha, beta, n - 1, n - k), v, rows)
        images = [to_permutation(t) for t in tableaux]
        assert len(set(images)) == len(images)
        big_n, big_k = n + alpha + beta, k + alpha + beta
        for t, q in zip(tableaux, images):
            assert from_permutation(q, _pair(v)) == t
        expected = [q for q in enumerate_perm(big_n, big_k, v)
                    if _restricted(q.cycles, big_n, alpha, beta)]
        assert set(images) == set(expected)
        assert len(images) == as_int(first_kind(_pair(v), alpha, beta, n, k))


def _restricted(groups, big_n, alpha, beta):
    # ambient offsets pin the small labels to minima and the large ones to
    # singleton groups
    minima = {g[0][0] for g in groups}
    if any(e not in minima for e in range(alpha + 1)):
        return False
    if any(e not in minima for e in range(big_n - beta + 1, big_n + 1)):
        return False
    return all(len(g) == 1 for g in groups if g[0][0] > big_n - beta)


CELLS_4 = [(n, k) for n in range(5) for k in range(n + 1)]


def test_round_trip_on_full_partition_set():
    # the registry's bijection: from_partition onto the colored tableaux, then back
    assert _scan("combinatorial/partition-bijection", _pair(V24), CELLS_4) == (15, None)


def test_round_trip_on_full_permutation_set():
    assert _scan("combinatorial/permutation-bijection", _pair(V24), CELLS_4) == (15, None)


@pytest.mark.parametrize("name", ["partition", "permutation"])
def test_a_lost_round_trip_names_its_cell(monkeypatch, name):
    # the images still match the colored tableaux; only the way back fails
    monkeypatch.setattr(combinat, f"to_{name}", lambda tableau: None)
    assert _scan(f"combinatorial/{name}-bijection", _pair(V24), CELLS_4) == (0, "n=0 k=0")


# -- direct enumerations ----------------------------------------------------------

def test_enumerate_part_counts():
    assert len(enumerate_part(2, 1, V24)) == 10
    legendre = WeightSpec("product-shifted", shifts=[0, 1])
    squares = WeightSpec("polynomial", coefficients=[0, 0, 1])
    for v in (IDENT, V24, legendre, squares):
        for n in range(6):
            for k in range(n + 1):
                assert len(enumerate_part(n, k, v)) == \
                    as_int(second_kind(_pair(v), 0, 0, n, k))


def test_enumerate_perm_counts():
    assert len(enumerate_perm(2, 1, IDENT)) == 1
    assert len(enumerate_perm(4, 2, IDENT)) == 11
    for v in (IDENT, V24):
        for n in range(6):
            for k in range(n + 1):
                out = enumerate_perm(n, k, v)
                assert len(set(out)) == len(out)
                assert len(out) == as_int(first_kind(_pair(v), 0, 0, n, k))


def test_perm_budget_follows_insertion_position_not_cycle():
    # Counting classes of {0..3} into two cycles with the budget read off the
    # final cycle membership (v(0) = 4 colors anywhere in the cycle of 0,
    # (v(a-1) - v(0)) / (a-1) = 2 otherwise) overcounts: insertions below the
    # first row can land in the cycle of 0 but never carry the v(0) budget.
    by_cycle_rule = 0
    for image in permutations(range(4)):
        seen, cycles = set(), []
        for start in range(4):
            if start in seen:
                continue
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = image[x]
            cycles.append(cycle)
        if len(cycles) != 2:
            continue
        weight_product = 1
        for cycle in cycles:
            for a in cycle:
                if a == min(cycle):
                    continue
                weight_product *= 4 if 0 in cycle else 2
        by_cycle_rule += weight_product
    assert by_cycle_rule == 128
    true_count = as_int(first_kind(_pair(V24), 0, 0, 3, 1))
    assert true_count == 104
    assert len(enumerate_perm(3, 1, V24)) == true_count


def test_out_of_range_k_gives_no_objects():
    for n, k in ((3, -1), (3, 4)):
        assert enumerate_part(n, k, V24) == []
        assert enumerate_perm(n, k, V24) == []
        assert enumerate_signed_partitions(n, k) == []


def test_enumeration_caps():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_part(5, 2, V24, cap=10)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_perm(5, 2, V24, cap=10)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_signed_partitions(6, 3, cap=10)


def test_each_colored_family_is_capped_at_its_count():
    # the cap is decided from the count alone, so it must be exact: cap =
    # count enumerates, cap = count - 1 refuses
    cells = [(n, k) for n in range(6) for k in range(n + 1)]
    runs = [partial(enumerate_signed_partitions, n, k) for n, k in cells]
    for pair in (builtin(name) for name in CATALOG):
        if combinat.colors_by_v(pair):
            runs += [partial(family, n, k, pair.v)
                     for family in (enumerate_part, enumerate_perm) for n, k in cells]
        if pair.is_combinatorial():
            runs += [partial(enumerate_01v, shape, pair, rows=0 if shape.width else 1)
                     for n, k in cells
                     for shape in enumerate_T(0, 0, k, n - k) + enumerate_Td(0, 0, n - 1, n - k)]
    for run in runs:
        count = len(run())
        assert len(run(cap=count)) == count
        if count:
            with pytest.raises(EnumerationCapExceeded, match=f"^more than {count - 1} "):
                run(cap=count - 1)


@pytest.mark.parametrize("v, error", [
    (WeightSpec("table", values={0: 1, 1: 3, 2: 2}), InvalidColorBudget),
    (WeightSpec("table", values={0: 1, 1: 2}), UndefinedIndex),
    (WeightSpec("polynomial", coefficients=[1, 1, -1]), NonCombinatorialWeights),
], ids=["budget", "undefined", "negative"])
def test_weight_errors_win_over_the_cap(v, error):
    # each run reads v(0..2) for its count, and a bad weight there is reported
    # even at cap 0, which every one of these families would exceed
    runs = [partial(enumerate_part, 3, 2, v), partial(enumerate_perm, 3, 1, v),
            partial(enumerate_01v, BTableau.from_tops((2,), 2), _pair(v))]
    for run in runs:
        with pytest.raises(error):
            run(cap=0)


def test_colored_type_validation():
    # each case breaks one rule of the validator shared by blocks and cycles
    cases = [
        ((((0, None),), ()), "nonempty"),
        ((((1, None), (0, 2)),), "start at their minimum"),
        ((((0, 5),),), "minima are uncolored"),
        ((((0, None),), ((1, None), (2, 0))), "color >= 1"),
        ((((0, None), (1, 1.0)),), "color >= 1"),
        ((((0, None), (1, True)),), "color >= 1"),
        ((((0, None),), ((2, None),), ((1, None),)), "ordered by minima"),
        ((((0, None), (2, 1)),), "ground set"),
        ((((0, None), (1, 1)), ((1, None),)), "ground set"),
        # 0.0 == 0 and True == 1, so only a type check tells these from 0..n
        ((((0.0, None), (1.0, 1)),),
         r"^(block|cycle) elements are integers, got \(\(0\.0, None\), \(1\.0, 1\)\)$"),
        ((((0, None), (True, 1)),),
         r"^(block|cycle) elements are integers, got \(\(0, None\), \(True, 1\)\)$"),
        ((((0, None),), (("1", None),)),
         r"^(block|cycle) elements are integers, got \(\('1', None\),\)$"),
    ]
    for kind in (ColoredPartition, ColoredPermutation):
        for groups, rule in cases:
            with pytest.raises(ValueError, match=rule):
                kind(groups)
    unsorted = (((0, None), (2, 1), (1, 1)),)
    with pytest.raises(ValueError, match="sorted"):
        ColoredPartition(unsorted)
    assert ColoredPermutation(unsorted).render() == "(0 2_1 1_1)"
    # V24 offers 4 colors in grid row 1 and 2 in each interior row
    with pytest.raises(DomainViolation, match="^color 9 exceeds the v\\(0\\) budget$"):
        from_partition(ColoredPartition((((0, None), (1, 9)),)), _pair(V24))
    with pytest.raises(DomainViolation, match="^color 5 exceeds the v\\(0\\) budget$"):
        from_permutation(ColoredPermutation((((0, None), (1, 5)),)), _pair(V24))
    # 2 enters after letter 1, the interior grid row 2 of the column with top 1
    with pytest.raises(DomainViolation, match="^color 3 exceeds the interior budget at 1$"):
        from_permutation(ColoredPermutation((((0, None), (1, 1), (2, 3)),)), _pair(V24))
    assert from_permutation(ColoredPermutation((((0, None), (1, 1), (2, 2)),)), _pair(V24))


def test_list_fields_are_stored_as_tuples():
    # a list-built object equals and hashes like its tuple-built twin
    shape = BTableau.from_tops((1,), 1)
    for built, twin in [
        (ZeroOneTableau(shape, [[1, 1]], [[1, 1]]), ZeroOneTableau(shape, ((1, 1),), ((1, 1),))),
        (ColoredPartition([[(0, None), [1, 1]]]), ColoredPartition((((0, None), (1, 1)),))),
        (ColoredPermutation([[[0, None], (1, 1)]]), ColoredPermutation((((0, None), (1, 1)),))),
        (SignedPartition([[0], [1, -1]]), SignedPartition(((0,), (1, -1)))),
    ]:
        assert built == twin and hash(built) == hash(twin)
        assert built.render() == twin.render()
        assert len({built, twin}) == 1


# -- signed partitions -------------------------------------------------------------

def test_signed_partition_examples():
    out = enumerate_signed_partitions(2, 1)
    assert {sp.render() for sp in out} == {"{0,-2}{1,-1,2}", "{0,2}{1,-1,-2}"}
    assert len(enumerate_signed_partitions(3, 2)) == 8
    assert [sp.render() for sp in enumerate_signed_partitions(2, 2)] == ["{0}{1,-1}{2,-2}"]
    assert enumerate_signed_partitions(2, 0) == []


def test_signed_partition_counts_match_legendre():
    legendre = builtin("legendre")
    for n in range(6):
        for k in range(n + 1):
            out = enumerate_signed_partitions(n, k)
            assert len(set(out)) == len(out)
            assert len(out) == as_int(second_kind(legendre, 0, 0, n, k))


def test_signed_partition_validation():
    with pytest.raises(ValueError):
        SignedPartition(((0, 1, -1),))
    with pytest.raises(ValueError):
        SignedPartition(((0,), (1, 2, -2)))
    with pytest.raises(ValueError):
        SignedPartition(((0,), (1, -1, 2, -2)))
    for blocks, message in [
        (((1, -1),), "the first block contains 0"),
        (((0,), (-1, 1)), "block elements are ordered by absolute value"),
        (((0,), (2, -2), (1, -1)), "blocks are ordered by minimum absolute value"),
        (((0,), (1, -1), (3, -3)), "ground set must be 0 and both copies of 1..n"),
        # True == 1 and 0.0 == 0, so only a type check tells these from 0, +-1
        (((0,), (True, -1)), "block elements are integers, got (True, -1)"),
        (((0.0,), (1, -1)), "block elements are integers, got (0.0,)"),
        (((0.0,), (1.0, -1.0)), "block elements are integers, got (0.0,)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SignedPartition(blocks)


# -- special weight families --------------------------------------------------------

TUPLE_FAMILIES = ("sun(2)", "legendre")


def _tuple_cells():
    # every shape of T and Td at offsets 0, 0 for n <= 4, as the registry lists them
    return identities.REGISTRY["combinatorial/tuple-decomposition-sun(2)"].cells(9, [(0, 0)])


def test_tuple_decompositions():
    # the probes take the factors from v, so they also hold for sun(3), three
    # factors i, and for nonzero shifts, (i + 1)(i + 2)
    for label, pair in [("sun(2)", builtin("sun(2)")), ("legendre", builtin("legendre")),
                        ("sun(2)", builtin("sun(3)")),
                        ("legendre", _pair(WeightSpec("product-shifted", shifts=[1, 2])))]:
        checked, failure = _scan(f"combinatorial/tuple-decomposition-{label}", pair,
                                 _tuple_cells())
        assert failure is None and checked == 62, (label, pair.v, checked, failure)


def test_tuple_decomposition_detects_a_wrong_factor_count(monkeypatch):
    real = combinat.count_01v
    monkeypatch.setattr(combinat, "count_01v", lambda shape, pair: real(shape, pair) + 1)
    for label in TUPLE_FAMILIES:
        pair = builtin(label)
        checked, failure = _scan(f"combinatorial/tuple-decomposition-{label}", pair,
                                 _tuple_cells())
        # the first shape, 2 x 0, has one tableau and, planted, 1 + 1 per factor
        assert (checked, failure) == (0, "alpha=0 beta=0 shape=[] listed=1 factors=4")


def test_shifted_weights_match_offset_ambient():
    # a shift by m in the weight equals an offset of m in the first parameter,
    # which pins the labels 1..m to pairwise distinct cycles
    for m in (1, 2):
        shifted = WeightSpec("polynomial", coefficients=[m, 1])
        for n in range(1, 5):
            for k in range(n + 1):
                direct = len(enumerate_perm(n, k, shifted))
                assert direct == as_int(first_kind(_pair(shifted), 0, 0, n, k))
                ambient = [q for q in enumerate_perm(n + m, k + m, IDENT)
                           if _distinct_cycles(q, m)]
                assert direct == len(ambient)


def _distinct_cycles(q, m):
    homes = []
    for idx, cycle in enumerate(q.cycles):
        homes.extend(idx for e, _ in cycle if 1 <= e <= m)
    return len(set(homes)) == len(homes) == m


def test_pairs_of_permutations_oracle():
    # with both weight components equal to the index, first-kind values count
    # pairs of permutations whose sorted cycle minima are complementary
    for n in range(2, 6):
        buckets = {}
        for image in permutations(range(1, n + 1)):
            seen, minima = set(), []
            for start in range(1, n + 1):
                if start in seen:
                    continue
                cycle, x = [], start
                while x not in seen:
                    seen.add(x)
                    cycle.append(x)
                    x = image[x - 1]
                minima.append(min(cycle))
            buckets.setdefault(len(minima), []).append(sorted(minima))
        for k in range(1, n + 1):
            count = sum(
                1
                for left in buckets.get(k, [])
                for right in buckets.get(k, [])
                if all(left[j] + right[k - 1 - j] == n + 1 for j in range(k)))
            assert count == as_int(first_kind(builtin("b-stirling"), 0, 0, n, k))
