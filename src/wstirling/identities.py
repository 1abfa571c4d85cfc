"""The paper's identities as data, and the one loop that checks them.

Each Identity names its suite, says which weight pairs it runs for, lists its
cells lazily from the sweep ranges, and builds a probe for one weight pair.  A
probe takes one cell and returns None where the identity holds, or a
counterexample string.  Where the weights are undefined it raises
NegativeQInteger or UndefinedIndex, and `scan` counts the cell as skipped.
`wstirling verify` runs the registry at its --nmax and offset grid; the
acceptance gate runs the same probes over its own, wider cell lists.

Every parameter that sets a range (row bound, matrix dimension, series order)
is part of the cell, so no probe reads nmax.  Probes reach the layers through
module attributes (stirling.first_kind) looked up when the probe is built,
never bound at import, so a caller that wraps a layer function sees the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import combinat, genfunc, matrices, stirling, tableaux, weights
from .ring import RingValue, X, ring_sum
from .tableaux import BTableau

SUITES = ("recurrences", "genfunc", "orthogonality", "convolution", "lu",
          "determinants", "tableaux", "combinatorial")

EACH = "each"  # once per weight pair, labeled with the pair
NO_PAIR = "-"  # once, independent of the weights


@dataclass(frozen=True)
class Identity:
    """One identity.  `pairs` is EACH, NO_PAIR, or the builtin label it runs
    for (once, when that pair is swept).  `cells(nmax, grid)` yields cell
    tuples; `make_probe(pair, *args)` builds the probe.  A pair
    failing `applies` gets one skipped cell instead of a sweep."""

    suite: str
    name: str
    cells: Callable
    make_probe: Callable
    args: tuple = ()
    pairs: str = EACH
    applies: Optional[Callable] = None

    def probe(self, pair=None):
        return self.make_probe(pair, *self.args)


def scan(cells, probe):
    """Run probe over cells in order and return (checked, skipped, failure).
    Stops at the first failure, so the counterexample is the smallest one in
    iteration order."""
    checked = skipped = 0
    for cell in cells:
        try:
            note = probe(*cell)
        except (weights.NegativeQInteger, weights.UndefinedIndex):
            skipped += 1
            continue
        if note is not None:
            return checked, skipped, note
        checked += 1
    return checked, skipped, None


def verify(suites, pairs, nmax: int, grid):
    """Yield (identity, label, checked, skipped, failure) in report order: per
    suite, the per-pair identities pair by pair, then the others."""
    by_label = {pair.label: pair for pair in pairs}
    for suite in suites:
        chosen = [i for i in REGISTRY.values() if i.suite == suite]
        runs = [(i, pair, pair.label) for pair in pairs for i in chosen if i.pairs == EACH]
        runs += [(i, by_label.get(i.pairs), i.pairs) for i in chosen
                 if i.pairs == NO_PAIR or i.pairs in by_label]
        for identity, pair, label in runs:
            if identity.applies is not None and not identity.applies(pair):
                yield identity, label, 0, 1, None
            else:
                yield (identity, label,
                       *scan(identity.cells(nmax, grid), identity.probe(pair)))


# -- cells ---------------------------------------------------------------------------
#
# A cell generator takes (nmax, grid), grid being the (alpha, beta) offsets in
# sweep order.


def _nonneg(grid):
    # tableau sets only exist for nonnegative offsets
    return [(a, b) for a, b in grid if a >= 0 and b >= 0]


def _triangle(rows, grid, k_min=0):
    return ((n, k, a, b) for n in rows for k in range(k_min, n + 1) for a, b in grid)


def _splits(parts, grid):
    return ((m1, m2, n, a, b) for m1 in parts for m2 in parts
            for n in range(m1 + m2 + 1) for a, b in grid)


def delta_cells(n_max: int, grid):
    """(n, m, relation, a, b) for every orthogonality relation that claims
    the delta at (n, m)."""
    return ((n, m, relation, a, b) for a, b in grid
            for n in range(n_max + 1) for m in range(n + 1)
            for relation, gamma in matrices.ORTHOGONALITY_RELATIONS.items()
            if m + gamma >= 0)


def _rows(nmax, grid):
    return _triangle(range(nmax + 1), grid)


def _step_rows(nmax, grid):
    # the vertical and horizontal recurrences read row n + 1
    return _triangle(range(nmax), grid)


def _convolutions(nmax, grid):
    return _splits(range(max(1, nmax // 3) + 1), grid)


def _hankels(nmax, grid):
    bound = max(1, nmax // 2)
    return ((r, s, a, b) for r in range(bound + 1) for s in range(bound + 1) for a, b in grid)


def _tableau_rows(nmax, grid):
    return _triangle(range(min(nmax, 6) + 1), _nonneg(grid))


def _round_trips(nmax, grid):
    legs = [("beta-forward", "beta-backward"), ("alpha-forward", "alpha-backward"),
            ("transposed-forward", "transposed-backward")]
    return ((fwd, bwd, min(nmax, 5), a, b) for fwd, bwd in legs for a, b in grid)


def _shapes(nmax, grid):
    for n in range(min(nmax, 5) + 1):
        for k in range(n + 1):
            for a, b in _nonneg(grid):
                for shape in (tableaux.enumerate_T(a, b, k, n - k)
                              + tableaux.enumerate_Td(a, b, n - 1, n - k)):
                    yield shape, a, b


def _counts(nmax, grid):
    return ((n, k) for n in range(min(nmax, 4) + 1) for k in range(n + 1))


# -- probes --------------------------------------------------------------------------


def _value_fn(kind):
    return stirling.first_kind if kind == "first" else stirling.second_kind


def _triangular(pair, kind):
    value_fn = _value_fn(kind)
    tables = {}  # one recurrence table per (alpha, beta), kept for the probe's life

    def probe(n, k, a, b):
        by_def = value_fn(pair, a, b, n, k)
        table = tables.get((a, b))
        if table is None:
            table = tables[a, b] = stirling.StirlingTable(pair, kind, a, b, method="recurrence")
        by_rec = table.value(n, k)
        if by_def != by_rec:
            return (f"alpha={a} beta={b} n={n} k={k} "
                    f"definition={by_def.render()} recurrence={by_rec.render()}")
        return None
    return probe


def _step(pair, step_name, kind, down):
    # the step computes the entry (n + down, k + down) from other rows
    step, value_fn = getattr(stirling, step_name), _value_fn(kind)

    def probe(n, k, a, b):
        got = step(pair, a, b, n, k)
        want = value_fn(pair, a, b, n + down, k + down)
        if got != want:
            return (f"alpha={a} beta={b} n={n} k={k} "
                    f"recurrence={got.render()} definition={want.render()}")
        return None
    return probe


def _row_product(pair):
    def probe(n, a, b):
        got = genfunc.cgf_product(n, a, b, pair)
        want = ring_sum(stirling.first_kind(pair, a, b, n, k) * X ** k for k in range(n + 1))
        if got != want:
            return f"alpha={a} beta={b} n={n} product={got.render()} row-sum={want.render()}"
        return None
    return probe


def _column_series(pair):
    def probe(k, order, a, b):
        got = genfunc.sgf_series(k, order, a, b, pair)
        want = ring_sum(stirling.second_kind(pair, a, b, n, k) * X ** n
                        for n in range(k, order + 1))
        if got != want:
            return (f"alpha={a} beta={b} k={k} series={got.render()} "
                    f"column-sum={want.render()}")
        return None
    return probe


def _basis(pair):
    def probe(n, a, b):
        ok, residual = genfunc.basis_expand_check(n, a, b, pair)
        return None if ok else f"alpha={a} beta={b} n={n} residual={residual.render()}"
    return probe


def _residual(pair, check_name, tag):
    check = getattr(genfunc, check_name)

    def probe(*cell):
        ok, residual = check(*cell)
        return None if ok else f"{tag}={cell} residual={residual.render()}"
    return probe


def _delta(pair):
    def probe(n, m, relation, a, b):
        got = matrices.orthogonality_sum(relation, n, m, a, b, pair)
        if got != (1 if n == m else 0):
            return (f"alpha={a} beta={b} relation={relation} n={n} m={m} "
                    f"value={got.render()}")
        return None
    return probe


def _inverse_pair(pair):
    def probe(kind, r, a, b):
        try:
            left, right = matrices.inverse_pair(kind, r, a, b, pair)
        except matrices.NotInverse as exc:
            return f"alpha={a} beta={b} {exc}"
        if left.dim != r + 1 or right.dim != r + 1:
            return f"alpha={a} beta={b} {kind} pair at r={r} has dims {left.dim},{right.dim}"
        return None
    return probe


def _round_trip(pair, seed=11):
    rng = random.Random(seed)

    def probe(fwd, bwd, r, a, b):
        seq = [RingValue.coerce(rng.randint(-9, 9)) for _ in range(r + 1)]
        for first, second in ((fwd, bwd), (bwd, fwd)):
            mid = matrices.inverse_relation_apply(first, seq, r, a, b, pair)
            back = matrices.inverse_relation_apply(second, mid, r, a, b, pair)
            if back != seq:
                return (f"alpha={a} beta={b} legs={first}->{second} "
                        f"sequence={[v.render() for v in seq]}")
        return None
    return probe


def _pq_delta(pair):
    def probe(n_max):
        if matrices.pq_binomial_orthogonality(n_max):
            return None
        return f"signed pq-binomial sum deviates below n={n_max}"
    return probe


def _convolution(pair, kind):
    def probe(m1, m2, n, a, b):
        if not matrices.convolution_check(kind, m1, m2, n, a, b, pair):
            return f"alpha={a} beta={b} m1={m1} m2={m2} n={n}"
        return None
    return probe


def _lu(pair, kind):
    def probe(r, s, a, b):
        if not matrices.lu_check(kind, r, s, a, b, pair)[2]:
            return f"alpha={a} beta={b} r={r} s={s}"
        return None
    return probe


def _det(pair, kind):
    def probe(r, s, a, b):
        det, formula, equal = matrices.det_closed_form(kind, r, s, a, b, pair)
        if not equal:
            return (f"alpha={a} beta={b} r={r} s={s} det={det.render()} "
                    f"formula={formula.render()}")
        return None
    return probe


def _scaled_q_det(pair):
    def probe(r, s):
        return None if matrices.ehrenborg_det_check(r, s) else f"r={r} s={s}"
    return probe


def _weight_sum(pair, kind):
    value_fn = _value_fn(kind)

    def probe(n, k, a, b):
        got = tableaux.weight_sum(kind, n, k, a, b, pair)
        want = value_fn(pair, a, b, n, k)
        if got != want:
            return (f"alpha={a} beta={b} n={n} k={k} "
                    f"tableau-sum={got.render()} definition={want.render()}")
        return None
    return probe


def _tau(pair):
    def probe(n, k, a, b):
        domain = tableaux.enumerate_Td(a, b, n - 1, n - k)
        try:
            images = [tableaux.tau(t, n, k, a, b) for t in domain]
        except tableaux.DomainViolation as exc:
            return f"alpha={a} beta={b} n={n} k={k} {exc}"
        target = tableaux.enumerate_T(a, b, k, n - k)
        if len(set(images)) != len(images) or set(images) != set(target):
            return (f"alpha={a} beta={b} n={n} k={k} domain={len(domain)} "
                    f"distinct-images={len(set(images))} target={len(target)}")
        return None
    return probe


def _triangular_split(pair):
    def probe(n, k, a, b):
        if not tableaux.triangular_split_check(n, k, a, b):
            return f"alpha={a} beta={b} n={n} k={k}"
        return None
    return probe


def _convolution_split(pair):
    def probe(m1, m2, n, a, b):
        if not tableaux.convolution_split_check(m1, m2, n, a, b):
            return f"alpha={a} beta={b} m1={m1} m2={m2} n={n}"
        return None
    return probe


def _zero_one_count(pair):
    def probe(shape, a, b):
        try:
            got = combinat.count_01v(shape, pair)
        except combinat.InvalidColorBudget as exc:
            return f"alpha={a} beta={b} shape={shape.render()} {exc}"
        want = tableaux.weight(shape, pair).as_int()
        if got != want:
            return f"alpha={a} beta={b} shape={shape.render()} count={got} weight={want}"
        return None
    return probe


def _model_count(pair, enumerate_name, kind, tag):
    enumerate_fn, value_fn = getattr(combinat, enumerate_name), _value_fn(kind)

    def probe(n, k):
        try:
            got = len(enumerate_fn(n, k, pair.v))
        except combinat.InvalidColorBudget as exc:
            return f"n={n} k={k} {exc}"
        want = value_fn(pair, 0, 0, n, k).as_int()
        return None if got == want else f"n={n} k={k} {tag}={got} value={want}"
    return probe


def _figure(pair):
    def probe(which):
        if which == "partition":
            t = combinat.ZeroOneTableau(BTableau.from_tops((3, 1, 1), 5),
                                        ((3, 2), (1, 3), (2, 1)), ((1, 1),) * 3)
            got, want = combinat.to_partition(t).render(), "{0,3_3}{1,2_1}{4,6_2}{5}{7}{8}"
        else:
            t = combinat.ZeroOneTableau(BTableau.from_tops((3, 1, 0), 5),
                                        ((4, 1), (2, 1), (1, 4)), ((1, 1),) * 3)
            got, want = combinat.to_permutation(t).render(), "(0 1_4 2_1)(3 4_1)(5)(6)"
        return None if got == want else f"{which} rendered {got} expected {want}"
    return probe


def _signed_count(pair):
    def probe(n, k):
        got = len(combinat.enumerate_signed_partitions(n, k))
        want = stirling.second_kind(pair, 0, 0, n, k).as_int()
        return None if got == want else f"n={n} k={k} signed-partitions={got} value={want}"
    return probe


# -- the registry --------------------------------------------------------------------

_IDENTITIES = (
    Identity("recurrences", "triangular-first", _rows, _triangular, ("first",)),
    Identity("recurrences", "triangular-second", _rows, _triangular, ("second",)),
    Identity("recurrences", "vertical-first", _step_rows, _step, ("c_vertical", "first", 1)),
    Identity("recurrences", "vertical-second", _step_rows, _step,
             ("s_vertical", "second", 1)),
    Identity("recurrences", "horizontal-first", _step_rows, _step,
             ("c_horizontal", "first", 0)),
    Identity("recurrences", "horizontal-first-dual", _step_rows, _step,
             ("c_horizontal_alpha", "first", 0)),
    Identity("recurrences", "horizontal-second", _step_rows, _step,
             ("s_horizontal", "second", 0)),

    Identity("genfunc", "row-product-first",
             lambda nmax, grid: ((n, a, b) for n in range(nmax + 1) for a, b in grid),
             _row_product),
    Identity("genfunc", "column-series-second",
             lambda nmax, grid: ((k, nmax, a, b) for k in range(nmax + 1) for a, b in grid),
             _column_series),
    Identity("genfunc", "basis-expansion",
             lambda nmax, grid: ((n, a, b) for n in range(min(nmax, 6) + 1) for a, b in grid),
             _basis),
    Identity("genfunc", "pq-row-product", lambda nmax, grid: ((n,) for n in range(nmax + 1)),
             _residual, ("pq_product_form_check", "n"), pairs="pq-binomial"),
    Identity("genfunc", "pq-column-series",
             lambda nmax, grid: ((k, nmax) for k in range(min(nmax, 4) + 1)),
             _residual, ("pq_series_reduction_check", "k,order"), pairs="pq-binomial"),
    Identity("genfunc", "pq-basis-expansion",
             lambda nmax, grid: ((n,) for n in range(min(nmax, 6) + 1)),
             _residual, ("pq_basis_form_check", "n"), pairs="pq-binomial"),

    Identity("orthogonality", "delta-sums",
             lambda nmax, grid: delta_cells(min(nmax, 6), grid), _delta),
    Identity("orthogonality", "inverse-pair-beta",
             lambda nmax, grid: (("beta", min(nmax, 5), a, b) for a, b in grid),
             _inverse_pair),
    Identity("orthogonality", "inverse-pair-alpha",
             lambda nmax, grid: (("alpha", min(nmax, 5), a, b) for a, b in grid),
             _inverse_pair),
    Identity("orthogonality", "inverse-relation-round-trip", _round_trips, _round_trip),
    Identity("orthogonality", "pq-binomial-delta", lambda nmax, grid: [(min(nmax, 6),)],
             _pq_delta, pairs="pq-binomial"),

    Identity("convolution", "row-split-first", _convolutions, _convolution, ("first",)),
    Identity("convolution", "row-split-second", _convolutions, _convolution, ("second",)),

    Identity("lu", "hankel-lu-first", _hankels, _lu, ("first",)),
    Identity("lu", "hankel-lu-second", _hankels, _lu, ("second",)),

    Identity("determinants", "hankel-det-first", _hankels, _det, ("first",)),
    Identity("determinants", "hankel-det-second", _hankels, _det, ("second",)),
    Identity("determinants", "scaled-q-det",
             lambda nmax, grid: ((r, s) for r in range(max(1, nmax // 3) + 1)
                                 for s in range(max(1, nmax // 3) + 1)),
             _scaled_q_det, pairs="q-stirling"),

    Identity("tableaux", "weight-sum-first", _tableau_rows, _weight_sum, ("first",)),
    Identity("tableaux", "weight-sum-second", _tableau_rows, _weight_sum, ("second",)),
    Identity("tableaux", "tau-bijection",
             lambda nmax, grid: _triangle(range(1, min(nmax, 6) + 1), _nonneg(grid), k_min=1),
             _tau, pairs=NO_PAIR),
    Identity("tableaux", "triangular-split",
             lambda nmax, grid: _triangle(range(1, min(nmax, 5) + 1), _nonneg(grid)),
             _triangular_split, pairs=NO_PAIR),
    Identity("tableaux", "convolution-split",
             lambda nmax, grid: _splits(range(1, 3), _nonneg(grid)),
             _convolution_split, pairs=NO_PAIR),

    Identity("combinatorial", "zero-one-counts", _shapes, _zero_one_count,
             applies=lambda pair: pair.is_combinatorial()),
    Identity("combinatorial", "partition-counts", _counts, _model_count,
             ("enumerate_part", "second", "partitions"), applies=combinat.colors_by_v),
    Identity("combinatorial", "permutation-counts", _counts, _model_count,
             ("enumerate_perm", "first", "permutations"), applies=combinat.colors_by_v),
    Identity("combinatorial", "figure-renderings",
             lambda nmax, grid: [("partition",), ("permutation",)], _figure, pairs=NO_PAIR),
    Identity("combinatorial", "signed-partition-counts", _counts, _signed_count,
             pairs="legendre"),
)

REGISTRY = {f"{i.suite}/{i.name}": i for i in _IDENTITIES}
