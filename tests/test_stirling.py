import itertools
import math
import random
import sys
import tracemalloc

import pytest

from wstirling import identities, ring, stirling, symfunc, weights
from wstirling.genfunc import b_stirling_by_series, b_stirling_row_by_product
from wstirling.ring import ONE, P, Q, RingValue, TermBudgetExceeded, X, Z, ZERO, as_int
from wstirling.stirling import (
    KINDS,
    StirlingTable,
    _table,
    bracket,
    c_horizontal,
    c_horizontal_alpha,
    c_vertical,
    first_kind,
    pq_binomial,
    s_horizontal,
    s_vertical,
    second_kind,
)
from wstirling.weights import CATALOG, UndefinedIndex, WeightPair, WeightSpec, builtin

CLASSICAL = builtin("classical")
PQ = builtin("pq-binomial")


def classical_first(n, k):
    # textbook recurrence, integers only
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k < 0 or k > n:
        return 0
    return classical_first(n - 1, k - 1) + (n - 1) * classical_first(n - 1, k)


def classical_second(n, k):
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k < 0 or k > n:
        return 0
    return classical_second(n - 1, k - 1) + k * classical_second(n - 1, k)


def gaussian_binomial(n, k):
    # q-binomial by its own recurrence, no symmetric functions
    if k == 0 or k == n:
        return ONE
    if k < 0 or k > n:
        return ZERO
    return gaussian_binomial(n - 1, k - 1) + Q ** k * gaussian_binomial(n - 1, k)


def test_def_examples():
    assert first_kind(CLASSICAL, 0, 0, 4, 2) == 11
    assert second_kind(CLASSICAL, 0, 0, 4, 2) == 7
    assert first_kind(PQ, 0, 0, 2, 0) == P * Q
    assert second_kind(PQ, 0, 0, 4, 2) == \
        P ** 4 + P ** 3 * Q + 2 * P ** 2 * Q ** 2 + P * Q ** 3 + Q ** 4
    for n in range(5):
        assert first_kind(CLASSICAL, -1, 2, n, n) == 1
        assert second_kind(PQ, 1, -1, n, n) == 1


def test_def_boundaries():
    for pair in (CLASSICAL, PQ):
        assert first_kind(pair, 0, 0, -1, 0) == 0
        assert first_kind(pair, 0, 0, 2, -1) == 0
        assert first_kind(pair, 0, 0, 2, 3) == 0
        assert second_kind(pair, 0, 0, -2, -2) == 0
        assert second_kind(pair, 0, 0, 0, 0) == 1
        assert second_kind(pair, 0, 0, 0, 1) == 0


def test_k_zero_columns():
    for alpha in (-1, 0, 2):
        for beta in (-1, 0, 1):
            for n in range(6):
                vw = PQ.v.eval(alpha) * PQ.w.eval(beta)
                assert second_kind(PQ, alpha, beta, n, 0) == vw ** n
                col = math.prod(PQ.v.eval(alpha + n - 1 - t) * PQ.w.eval(beta + t)
                                for t in range(n))
                assert first_kind(PQ, alpha, beta, n, 0) == col


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        StirlingTable(CLASSICAL, "third")
    with pytest.raises(ValueError, match="^unknown method 'other'$"):
        StirlingTable(CLASSICAL, "first", method="other")


def test_classical_textbook_oracle():
    for n in range(13):
        for k in range(n + 1):
            assert first_kind(CLASSICAL, 0, 0, n, k) == classical_first(n, k)
            assert second_kind(CLASSICAL, 0, 0, n, k) == classical_second(n, k)


def recurrence_table(pair, kind, alpha=0, beta=0):
    return StirlingTable(pair, kind, alpha, beta, method="recurrence")


def test_tri_examples():
    assert recurrence_table(PQ, "second").value(2, 1) == Q + P
    ctable = recurrence_table(CLASSICAL, "first")
    assert ctable.value(3, 1) == 2
    assert ctable.value(0, 0) == 1
    assert recurrence_table(CLASSICAL, "second").value(0, 0) == 1


def test_tri_matches_def_on_catalog_sample():
    for name in ("classical", "pq-binomial", "b-stirling", "jacobi", "zeta", "q-stirling"):
        pair = builtin(name)
        for alpha in (-1, 1):
            for beta in (-1, 1):
                ctab = recurrence_table(pair, "first", alpha, beta)
                stab = recurrence_table(pair, "second", alpha, beta)
                for n in range(7):
                    for k in range(n + 1):
                        assert ctab.value(n, k) == first_kind(pair, alpha, beta, n, k), \
                            f"{name} c ({alpha},{beta},{n},{k})"
                        assert stab.value(n, k) == second_kind(pair, alpha, beta, n, k), \
                            f"{name} s ({alpha},{beta},{n},{k})"


def test_recurrence_tables_never_pack():
    # every catalog pair on both kinds, rows 0..9 at offsets on both sides of
    # 0: the recurrence steps nested lines and takes the products reversed,
    # so it meets the one DP in another order than the definition does
    grid = [(0, 0), (2, 1), (1, 3), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    for name in CATALOG:
        for kind in KINDS:
            for alpha, beta in grid:
                table = StirlingTable(builtin(name), kind, alpha, beta)
                got = recurrence_table(builtin(name), kind, alpha, beta)
                assert [got.row(n) for n in range(10)] == [table.row(n) for n in range(10)], \
                    (name, kind, alpha, beta)


# the catalog pairs whose w is constant, so that every beta reads one table
CONSTANT_W = ("classical", "q-binomial", "q-stirling", "legendre", "jacobi", "noncentral(1)",
              "noncentral(-1)", "merris(2)", "sun(2)")

# the pairs a recurrence table steps from its own earlier lines: every catalog
# pair but b-stirling, by w's ratio where w has one (g = 1 where w is constant,
# p and q for the monomial ws) and else by v's (z for zeta, 1 for swap(jacobi));
# the JSON pair's v is a monomial spec with an offset
NESTING = {name: builtin(name) for name in CATALOG if name != "b-stirling"}
NESTING.update({
    "swap(jacobi)": weights.swap(builtin("jacobi")),
    "swap(pq-binomial)": weights.swap(builtin("pq-binomial")),
    "json-monomial": WeightPair.from_json(
        '{"v": {"kind": "monomial", "base": "z", "offset": 2},'
        ' "w": {"kind": "polynomial", "coefficients": [1, "q"]}}'),
})


def test_ratios_pick_the_nesting_and_sharing_pairs():
    pairs = {name: builtin(name) for name in CATALOG}
    assert [name for name, pair in pairs.items() if pair.w.ratio() == 1] == list(CONSTANT_W)
    assert [name for name, pair in pairs.items()
            if pair.w.ratio() is not None or pair.v.ratio() is not None] == \
        [name for name in CATALOG if name != "b-stirling"]
    assert {name: (NESTING[name].v.ratio(), NESTING[name].w.ratio()) for name in [
        "pq-binomial", "q-binomial", "zeta", "swap(jacobi)", "swap(pq-binomial)",
        "json-monomial"]} == {"pq-binomial": (P, Q), "q-binomial": (Q, 1), "zeta": (Z, None),
                              "swap(jacobi)": (1, None), "swap(pq-binomial)": (Q, P),
                              "json-monomial": (Z, None)}


@pytest.mark.parametrize("name", NESTING)
def test_nesting_tables_match_definition_in_any_order(name):
    # a row below the furthest one built, a column whose predecessor is not
    # stored yet, and columns asked for out of order, then every cell shuffled
    pair = NESTING[name]
    rng = random.Random(name)
    for kind in KINDS:
        for alpha in range(-2, 3):
            beta = rng.randint(-2, 2)
            want = StirlingTable(pair, kind, alpha, beta)
            table = recurrence_table(pair, kind, alpha, beta)
            cells = [(n, k) for n in range(10) for k in range(n + 1)]
            rng.shuffle(cells)
            for n, k in [(9, 4), (3, 1), (9, 8), (6, 0), (2, 2), (8, 5)] + cells:
                assert table.value(n, k) == want.value(n, k), (kind, alpha, beta, n, k)


def count_addmul(monkeypatch) -> list:
    calls = [0]

    def counted(acc, x, y):
        calls[0] += 1
        return ring.addmul(acc, x, y)
    monkeypatch.setattr(symfunc, "addmul", counted)
    monkeypatch.setattr(stirling, "addmul", counted)
    return calls


def count_dp_steps(monkeypatch) -> dict:
    """The entries that rows' e-DP steps and columns' own h-DPs walk."""
    walked = {"first": 0, "second": 0}

    def e_step(e, x, top, step=symfunc.elementary_step):
        walked["first"] += top
        step(e, x, top)

    def h_step(xs, h, step=symfunc.homogeneous_step):
        walked["second"] += len(xs)
        return step(xs, h)
    monkeypatch.setattr(stirling, "elementary_step", e_step)
    monkeypatch.setattr(symfunc, "elementary_step", e_step)
    monkeypatch.setattr(symfunc, "homogeneous_step", h_step)
    return walked


def test_nesting_tables_take_one_step_an_entry(monkeypatch):
    # row n + 1 is one e-DP step from row n, and each column entry one step
    # from the column before, its own DP never run: rows 0..N take
    # N(N+1)/2 steps, not N^3/6; integer lines step without addmul
    calls = count_addmul(monkeypatch)
    walked = count_dp_steps(monkeypatch)
    for name, pair in NESTING.items():
        for kind, top in [("first", 30), ("second", 24)]:
            for alpha, beta in [(0, 0), (1, -2)]:
                calls[0] = walked[kind] = 0
                table = recurrence_table(pair, kind, alpha, beta)
                for n in range(top + 1):
                    table.row(n)
                steps = (top + 1) * (top + 2 if kind == "second" else top) // 2
                assert calls[0] <= steps, (name, kind, alpha, calls[0])
                assert walked[kind] == (steps if kind == "first" else 0), (name, kind, alpha)
    calls[0] = 0
    recurrence_table(builtin("jacobi"), "second").row(32)  # each column asks for the one before
    assert 0 < calls[0] <= 33 * 34 // 2 and walked["second"] == 0


def test_b_stirling_lines_start_from_scratch(monkeypatch):
    # v = w = i has no ratio: row n walks its n products from row 0, and
    # column k runs its own DP over its k + 1 products, so rows 0..N walk
    # sum n(n+1)/2 and sum (N-k)(k+1) entries, O(N^3)
    walked = count_dp_steps(monkeypatch)
    top = 20
    for kind in KINDS:
        table = recurrence_table(builtin("b-stirling"), kind, 1, -1)
        for n in range(top + 1):
            table.row(n)
    assert walked == {"first": sum(n * (n + 1) // 2 for n in range(top + 1)),
                      "second": sum((top - k) * (k + 1) for k in range(top + 1))}


def test_a_row_asked_for_directly_holds_only_that_row():
    # rows resume from stored rows, so none may be stored on the way: the
    # table holds row 1100 and nothing of the 1099 rows the e-DP passed
    n = 1100
    for i in range(n):  # the weights memoize their values; fill that first
        CLASSICAL.v.eval(i), CLASSICAL.w.eval(i)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = recurrence_table(CLASSICAL, "first")
        table.value(n, 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    row = [table.value(n, k) for k in range(n + 1)]
    assert row == rising_factorial_row(n)
    assert held < 1.1 * (sys.getsizeof(row) + sum(map(sys.getsizeof, row)))


# c_k of each catalog pair with w = 1, written from its source, not read from
# its weight spec: at alpha = beta = 0 the first kind is c(n+1, k) = c(n, k-1)
# + c_n c(n, k) and the second kind S(n+1, k) = S(n, k-1) + c_k S(n, k)
LITERATURE = {
    "classical": lambda k: k,  # Stirling numbers
    "q-binomial": lambda k: Q ** k,  # Gaussian binomial coefficients, second kind
    "q-stirling": lambda k: sum(Q ** i for i in range(k)),  # Carlitz, [k]_q
    "legendre": lambda k: k * (k + 1),  # Legendre-Stirling numbers (Everitt et al.)
    "jacobi": lambda k: k * (k + Z),  # Jacobi-Stirling numbers, z = a + b + 1 (Gelineau-Zeng)
    # Koutras's non-central numbers with a = -m: (t + m)^n = sum_k S(n, k) (t)_k
    "noncentral(1)": lambda k: k + 1,
    "noncentral(-1)": lambda k: k - 1,
    "merris(2)": lambda k: k + 2,
    "sun(2)": lambda k: k ** 2,  # central factorial numbers T(2n, 2k)
}


def literature_rows(c, kind, rows=8):
    out = [[1]]
    for n in range(rows - 1):
        last = out[-1] + [0]
        out.append([(last[k - 1] if k else 0) + c(n if kind == "first" else k) * last[k]
                    for k in range(n + 2)])
    return out


@pytest.mark.parametrize("name", LITERATURE)
def test_w_one_pairs_follow_their_literature_recurrences(name):
    pair = builtin(name)
    assert pair.w == WeightSpec("constant", value=1)
    for kind in KINDS:
        want = literature_rows(LITERATURE[name], kind)
        value_fn = first_kind if kind == "first" else second_kind
        assert [[value_fn(pair, 0, 0, n, k) for k in range(n + 1)] for n in range(8)] == want, kind
        table = recurrence_table(pair, kind)
        assert [table.row(n) for n in range(8)] == want, kind


def test_literal_rows_from_the_literature():
    assert [second_kind(builtin("legendre"), 0, 0, 4, k) for k in range(5)] == [0, 8, 52, 20, 1]
    assert second_kind(builtin("jacobi"), 0, 0, 4, 2) == 7 * Z ** 2 + 24 * Z + 21
    assert [second_kind(builtin("sun(2)"), 0, 0, 4, k) for k in range(5)] == [0, 1, 21, 14, 1]


def falling(t, k):
    return math.prod(t - i for i in range(k))


def test_noncentral_parameter_follows_koutras():
    # Koutras (1982): (t - a)^n = sum_k S_a(n, k) (t)_k and (t)_n = sum_k s_a(n, k) (t - a)^k;
    # noncentral(m) and merris(m) are a = -m, the first kind unsigned
    for name, m in [("noncentral(1)", 1), ("noncentral(-1)", -1), ("merris(2)", 2)]:
        pair = builtin(name)
        for n in range(7):
            for t in range(-4, 6):
                assert sum(second_kind(pair, 0, 0, n, k) * falling(t, k)
                           for k in range(n + 1)) == (t + m) ** n, (name, n, t)
                assert sum(first_kind(pair, 0, 0, n, k) * t ** k for k in range(n + 1)) == \
                    math.prod(t + m + i for i in range(n)), (name, n, t)


# zeta written from its description, v(i) = z^i and w(i) = i - 1, not read from
# its weight spec; both kinds by brute force over the e/h monomials
def zeta_v(i):
    return Z ** i


def zeta_w(i):
    return i - 1


def brute_first(alpha, beta, n, k):
    line = [zeta_v(alpha + n - 1 - t) * zeta_w(beta + t) for t in range(n)]
    return sum(math.prod(chosen) for chosen in itertools.combinations(line, n - k))


def brute_second(alpha, beta, n, k):
    line = [zeta_v(alpha + k - t) * zeta_w(beta + t) for t in range(k + 1)]
    return sum(math.prod(chosen)
               for chosen in itertools.combinations_with_replacement(line, n - k))


@pytest.mark.parametrize("alpha, beta", [(0, 0), (2, -1)])
def test_zeta_follows_its_weights_written_out(alpha, beta):
    pair = builtin("zeta")
    for kind, brute in [("first", brute_first), ("second", brute_second)]:
        want = [[brute(alpha, beta, n, k) for k in range(n + 1)] for n in range(8)]
        value_fn = first_kind if kind == "first" else second_kind
        assert [[value_fn(pair, alpha, beta, n, k) for k in range(n + 1)]
                for n in range(8)] == want, kind
        table = recurrence_table(pair, kind, alpha, beta)
        assert [table.row(n) for n in range(8)] == want, kind


def tables_read(monkeypatch, pair, kind, offsets):
    """The table that each (alpha, beta) of offsets reads entry (3, 1) from."""
    read = []

    def recording(*key):
        read.append(_table(*key))
        return read[-1]
    value_fn = first_kind if kind == "first" else second_kind
    with monkeypatch.context() as patch:
        patch.setattr(stirling, "_table", recording)
        for alpha, beta in offsets:
            value_fn(pair, alpha, beta, 3, 1)
    return read


OFFSETS = [(alpha, beta) for alpha in range(-2, 3) for beta in range(-2, 3)]


def test_table_is_the_one_first_kind_reads(monkeypatch):
    for name in ("classical", "zeta"):
        pair = builtin(name)
        for kind in KINDS:
            read = tables_read(monkeypatch, pair, kind, [(1, -1)])
            assert read[0] is stirling.table(pair, kind, 1, -1)
            assert read[0] is stirling.table(pair, kind, 1, -1, "definition")
            assert stirling.table(pair, kind, 1, -1, "recurrence") is not read[0]


@pytest.mark.parametrize("name", CATALOG)
def test_shared_tables_equal_their_own_offsets_tables(name):
    # a table shared across offsets holds the entries of a table built at each
    pair = builtin(name)
    for kind in KINDS:
        value_fn = first_kind if kind == "first" else second_kind
        for alpha, beta in OFFSETS:
            want = StirlingTable(pair, kind, alpha, beta)
            assert [[value_fn(pair, alpha, beta, n, k) for k in range(n + 1)] for n in range(9)] \
                == [want.row(n) for n in range(9)], (kind, alpha, beta)


def test_tables_are_shared_only_across_offsets_the_weights_ignore(monkeypatch):
    betas = [(1, beta) for beta in range(-2, 3)]
    alphas = [(alpha, 1) for alpha in range(-2, 3)]
    for kind in KINDS:
        for name in CONSTANT_W:  # w constant: beta is not read, alpha is
            pair = builtin(name)
            assert len({id(t) for t in tables_read(monkeypatch, pair, kind, betas)}) == 1, name
            assert len({id(t) for t in tables_read(monkeypatch, pair, kind, alphas)}) == 5, name
            swapped = weights.swap(pair)  # v constant: alpha is not read, beta is
            assert len({id(t) for t in tables_read(monkeypatch, swapped, kind, alphas)}) == 1
            assert len({id(t) for t in tables_read(monkeypatch, swapped, kind, betas)}) == 5
        for name in ("pq-binomial", "b-stirling", "zeta"):  # both weights vary
            tables = tables_read(monkeypatch, builtin(name), kind, OFFSETS)
            assert len({id(t) for t in tables}) == len(OFFSETS), (name, kind)


def test_inverse_pairs_build_one_table_per_offsets_read():
    # inverse-pair-beta slides beta with its index; sharing the tables of the
    # pairs with constant w cuts the tables it builds from 576 to 198
    identity = identities.REGISTRY["orthogonality/inverse-pair-beta"]
    grid = [(alpha, beta) for alpha in (-1, 0, 1) for beta in (-1, 0, 1)]
    stirling.clear_tables()
    for name in CATALOG:
        checked, _, failure = identities.scan(identity.cells(6, grid),
                                              identity.probe(builtin(name)))
        assert failure is None and checked == len(grid), name
    built = _table.cache_info()
    assert built.misses == built.currsize <= 198, built  # nothing was evicted


@pytest.mark.parametrize("method", ["definition", "recurrence"])
def test_integer_weights_give_int_entries_and_rows_give_ring_values(method):
    for name in ("classical", "legendre", "b-stirling"):
        pair = builtin(name)
        for kind in ("first", "second"):
            for alpha, beta in [(0, 0), (2, -1)]:
                table = StirlingTable(pair, kind, alpha, beta, method=method)
                for n in range(9):
                    values = [table.value(n, k) for k in range(-1, n + 2)]
                    assert {type(v) for v in values} == {int}, (name, kind, n)
                    row = table.row(n)
                    assert all(type(v) is RingValue for v in row) and row == values[1:-1]
            value_fn = first_kind if kind == "first" else second_kind
            assert {type(value_fn(pair, 1, 1, n, k))
                    for n in range(9) for k in range(n + 1)} == {int}, (name, kind)


def test_integer_lines_never_pack():
    # an integer line runs the DP on its own ints, so the definition path
    # builds classical and legendre tables of int entries, as the recurrence does
    for name in ("classical", "legendre"):
        for kind in KINDS:
            table = StirlingTable(builtin(name), kind)
            rows = [[table.value(n, k) for k in range(n + 1)] for n in range(31)]
            assert {type(c) for row in rows for c in row} == {int}, (name, kind)
            expected = recurrence_table(builtin(name), kind)
            assert rows == [[expected.value(n, k) for k in range(n + 1)] for n in range(31)]


def test_table_memo_entries_match_definition():
    pair = builtin("b-stirling")
    table = recurrence_table(pair, "second", alpha=1, beta=-1)
    for k, val in enumerate(table.row(5)):
        assert val == second_kind(pair, 1, -1, 5, k)
    bydef = StirlingTable(pair, "second", alpha=1, beta=-1)
    assert bydef.row(5) == table.row(5)


def test_undefined_weights_are_never_stored():
    # v is a table with no default, undefined for i < 0
    pair = WeightPair(WeightSpec("table", values={i: i for i in range(5)}),
                      WeightSpec("constant", value=1))
    for kind in ("first", "second"):
        for method in ("definition", "recurrence"):
            table = StirlingTable(pair, kind, alpha=-2, method=method)
            assert table.value(0, 0) == 1  # row 0 reads no weight
            for _ in range(2):
                with pytest.raises(UndefinedIndex, match="no value at index -"):
                    table.value(2, 1)


@pytest.mark.parametrize("method", ["definition", "recurrence"])
def test_failed_column_walk_is_walked_again(monkeypatch, method):
    # column 1 multiplies q-integers of 6 and 7 terms, past a budget of 30 pairs;
    # a walk that raised is finished, so a repeat must start a new one and
    # raise the same error, not StopIteration
    monkeypatch.setattr(ring, "TERM_BUDGET", 30)
    table = StirlingTable(builtin("q-stirling"), "second", alpha=6, method=method)
    for _ in range(2):
        with pytest.raises(TermBudgetExceeded):
            table.value(4, 1)
    monkeypatch.undo()
    assert table.value(4, 1) == second_kind(builtin("q-stirling"), 6, 0, 4, 1)


def test_a_step_that_raises_leaves_nesting_lines_whole(monkeypatch):
    # q-integers of 6 or more terms pass a budget of 30 pairs within a step
    # or two; a row steps on a copy of the row it resumes from, and a column
    # grows by whole entries, so the same query raises again, and once the
    # budget allows it every entry matches the definition
    pair = builtin("q-stirling")
    for kind in KINDS:
        table = recurrence_table(pair, kind, alpha=6)
        for n in range(3):
            table.row(n)
        monkeypatch.setattr(ring, "TERM_BUDGET", 30)
        for _ in range(2):
            with pytest.raises(TermBudgetExceeded):
                table.row(5)
        monkeypatch.undo()
        want = StirlingTable(pair, kind, alpha=6)
        assert [table.row(n) for n in range(7)] == [want.row(n) for n in range(7)], kind


def test_failed_column_walk_inside_a_generator(monkeypatch):
    # inside a generator expression a StopIteration would surface as RuntimeError
    pair = builtin("q-stirling")
    stirling.clear_tables()
    monkeypatch.setattr(ring, "TERM_BUDGET", 30)
    for _ in range(2):
        with pytest.raises(TermBudgetExceeded):
            sum(second_kind(pair, 6, 0, n, 1) for n in range(5))
    stirling.clear_tables()


def rising_factorial_row(n):
    # coefficients of x(x+1)...(x+n-1), plain integers
    row = [1]
    for m in range(n):
        row = [a + m * b for a, b in zip([0] + row, row + [0])]
    return row


@pytest.mark.parametrize("method", ["definition", "recurrence"])
def test_no_recursion_depth_limit(method):
    # well past the interpreter's default recursion limit of 1000
    n, k = 1200, 8
    want = sum((-1) ** (k - j) * math.comb(k, j) * j ** n for j in range(k + 1)) \
        // math.factorial(k)
    assert StirlingTable(CLASSICAL, "second", method=method).value(n, k) == want
    row = StirlingTable(CLASSICAL, "first", method=method).row(1100)
    assert [as_int(v) for v in row] == rising_factorial_row(1100)


def test_vertical_examples():
    # entry (3,2) from params (2,1)
    assert s_vertical(CLASSICAL, 0, 0, 2, 1) == 3
    assert s_vertical(PQ, 0, 0, 1, 0) == P + Q
    for n in range(5):
        assert c_vertical(CLASSICAL, 0, 0, n, n) == 1
    for vertical in (c_vertical, s_vertical):
        with pytest.raises(ValueError, match="^vertical recurrence needs n >= 0$"):
            vertical(CLASSICAL, 0, 0, -1, 0)


def test_vertical_matches_def():
    for name in ("classical", "pq-binomial", "legendre", "zeta"):
        pair = builtin(name)
        for alpha in (-1, 0, 1):
            for beta in (-1, 0, 2):
                for n in range(1, 7):
                    for k in range(1, n + 1):
                        spot = (pair, alpha, beta, n - 1, k - 1)
                        assert c_vertical(*spot) == first_kind(pair, alpha, beta, n, k), \
                            f"{name} c ({alpha},{beta},{n},{k})"
                        assert s_vertical(*spot) == second_kind(pair, alpha, beta, n, k), \
                            f"{name} s ({alpha},{beta},{n},{k})"


def test_horizontal_examples():
    for n in range(4):
        assert s_horizontal(CLASSICAL, 0, 0, n, n) == 1
    assert c_horizontal(CLASSICAL, 0, 0, 3, 1) == 2
    assert s_horizontal(CLASSICAL, 0, 0, 4, 2) == 7


def test_horizontal_matches_def():
    for name in ("classical", "pq-binomial", "b-stirling", "zeta"):
        pair = builtin(name)
        for alpha in (-1, 0, 1):
            for beta in (0, 1):
                for n in range(6):
                    for k in range(n + 1):
                        spot = (pair, alpha, beta, n, k)
                        assert c_horizontal(*spot) == first_kind(*spot), \
                            f"{name} c ({alpha},{beta},{n},{k})"
                        assert c_horizontal_alpha(*spot) == first_kind(*spot), \
                            f"{name} c-alpha ({alpha},{beta},{n},{k})"
                        assert s_horizontal(*spot) == second_kind(pair, alpha, beta, n, k), \
                            f"{name} s ({alpha},{beta},{n},{k})"


def test_duality():
    # the registry's recurrences/duality-* identities: swapping v with w and
    # alpha with beta leaves both kinds unchanged
    cells = [(n, k, alpha, beta) for alpha, beta in [(0, 0), (1, -1), (-2, 2), (2, 1)]
             for n in range(7) for k in range(n + 1)]
    for name in ("classical", "pq-binomial", "b-stirling", "jacobi", "zeta"):
        for kind in ("first", "second"):
            probe = identities.REGISTRY[f"recurrences/duality-{kind}"].probe(builtin(name))
            assert identities.scan(cells, probe) == (112, 0, None), (name, kind)


def test_duality_names_its_cell(monkeypatch):
    # an unswapped pair reads the other offsets: at alpha=1 beta=0, e_1 of v(2), v(1)
    monkeypatch.setattr(weights, "swap", lambda pair: pair)
    probe = identities.REGISTRY["recurrences/duality-first"].probe(CLASSICAL)
    assert probe(2, 1, 0, 0) is None
    assert probe(2, 1, 1, 0) == "alpha=1 beta=0 n=2 k=1 swapped=1 value=3"


def test_pq_closed_forms():
    for alpha, beta in [(0, 0), (1, 0), (-1, 2), (2, -2)]:
        for n in range(9):
            for k in range(n + 1):
                d = n - k
                base = pq_binomial(n, k)
                assert second_kind(PQ, alpha, beta, n, k) == \
                    P ** (alpha * d) * Q ** (beta * d) * base
                extra = math.comb(d, 2)
                assert first_kind(PQ, alpha, beta, n, k) == \
                    P ** (alpha * d + extra) * Q ** (beta * d + extra) * base


def test_pq_binomial_specializations():
    for n in range(11):
        for k in range(n + 1):
            value = RingValue.coerce(pq_binomial(n, k))  # 1 at n = k = 0
            assert value.substitute({"p": 1}) == gaussian_binomial(n, k)
            assert value.substitute({"p": 1, "q": 1}) == math.comb(n, k)


def test_noncentral_sum_identity():
    # first kind at alpha=0 equals the plain sum of alpha=-1 values one row up
    for n in range(9):
        for k in range(n + 1):
            rhs = sum(first_kind(CLASSICAL, -1, 0, n + 1, j + 1) for j in range(k, n + 1))
            assert first_kind(CLASSICAL, 0, 0, n, k) == rhs, f"({n},{k})"


def test_carlitz_double_sum():
    for n in range(9):
        for k in range(n + 1):
            total = 0
            for j in range(k, n + 1):
                for t in range(j + 1, n + 2):
                    total += (-1) ** (t - j - 1) * math.comb(t, j + 1) \
                        * as_int(first_kind(CLASSICAL, 0, 0, n + 1, t))
            assert first_kind(CLASSICAL, 0, 0, n, k) == total, f"({n},{k})"


def test_bracket():
    assert bracket(0, 3, -2, CLASSICAL) == ONE
    assert bracket(1, 0, 0, CLASSICAL) == X
    two = bracket(2, 0, 0, PQ)
    assert two == (X - P * Q ** -1) * (X - 1)
    for n in range(5):
        b = RingValue.coerce(bracket(n, 1, -1, builtin("jacobi")))  # 1 at n = 0
        assert b.degree("x") == n
        assert b.coefficient("x", n) == 1
    with pytest.raises(ValueError):
        bracket(-1, 0, 0, CLASSICAL)


def test_b_stirling_series_oracles():
    # the oracles live in genfunc; the registry's genfunc/b-stirling-* identities,
    # swept in test_acceptance.py, compare them with the tables
    assert b_stirling_by_series(4, 3) == 4
    assert b_stirling_by_series(3, 4) == 0 and b_stirling_by_series(3, -1) == 0
    assert b_stirling_row_by_product(0) == [ONE]
    assert b_stirling_row_by_product(4) == [0, 0, 4, 4, 1]


def test_def_recurrence_fuzz():
    rng = random.Random(3344)
    names = ("classical", "pq-binomial", "q-binomial", "b-stirling", "legendre",
             "jacobi", "noncentral(1)", "noncentral(-1)", "merris(2)", "sun(2)", "zeta")
    for _ in range(60):
        pair = builtin(rng.choice(names))
        alpha, beta = rng.randint(-2, 2), rng.randint(-2, 2)
        n = rng.randint(0, 6)
        k = rng.randint(0, n)
        assert recurrence_table(pair, "first", alpha, beta).value(n, k) == \
            first_kind(pair, alpha, beta, n, k)
        assert recurrence_table(pair, "second", alpha, beta).value(n, k) == \
            second_kind(pair, alpha, beta, n, k)
