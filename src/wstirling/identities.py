"""The paper's identities as data, and the one loop that checks them.

Each Identity names its suite, says which weight pairs it runs for, lists its
cells lazily from the sweep ranges, and builds a probe for one weight pair.  A
probe takes one cell and returns None where the identity holds, or a
counterexample string.  Where a weight is undefined (a table weight with no
default) it raises UndefinedIndex, and `scan` counts the cell as skipped.
`wstirling verify` runs the registry at its --nmax and offset grid; the
acceptance gate runs the same probes over its own, wider cell lists.

An identity sets `by_weights` when its probe reads the offsets only through
the weight values v(alpha + i) and w(beta + j), as the paper's recurrences,
generating functions, orthogonality relations, convolutions and Hankel
determinants do.  `verify` then runs its probe once per cell as the pair's
weights read it (`WeightPair.offsets`), and counts the cells that differ
only in an offset a constant weight ignores with that cell's outcome.  A
probe that uses an offset as a number (a seed, an enumeration of objects at
the offset) must leave it unset: the round trip, tableaux and combinatorial
identities do.  The flag marks the 22 per-pair identities of the six
algebraic suites that are not label-specific, less the round trip, so a
check that substitutes symbolic offsets can select by it.

Every parameter that sets a range (row bound, matrix dimension, series order)
is part of the cell, so no probe reads nmax.

A counterexample opens with its cell.  `_named("n", "k")` writes n=… k=… for
the cell's leading values, and `_at("n", "k")` writes the offsets alpha=…
beta=…, the cell's last two values, in front of that.  A new identity names
its cells by one of the two, unless its text has another shape.

Layer functions return the values they compute and only this module compares
them, in one probe shape, `_compare`: compute the sides got and want from the
pair and the cell, compare them, and write the cell and the tagged sides as the
counterexample; a residual is compared with 0, an inverse pair's products with
the identity matrix.  The only layer refusals that a probe turns into a
counterexample are DomainViolation and InvalidColorBudget.  Sides call layer
functions as module attributes (stirling.first_kind), looked up at each call
and never bound at import, so a wrapper of a layer function sees the calls.
Tables come from stirling.table, and this module builds none of its own.
`verify` lists each pair's runs together and releases the shared tables each
time it moves on to another label, so it holds one pair's tables at a time.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Callable, Optional

from . import combinat, genfunc, matrices, stirling, tableaux, weights
from .ring import X, as_int, render

EACH = "each"  # once per weight pair, labeled with the pair
NO_PAIR = "-"  # once, independent of the weights


@dataclass(frozen=True)
class Identity:
    """One identity.  `pairs` is EACH, NO_PAIR, or the builtin label it runs
    for (once, when that pair is swept).  `cells(nmax, grid)` yields cell
    tuples; `probe(pair)` builds the probe.  A pair failing `applies`
    gets one skipped cell instead of a sweep.  `by_weights` says that the
    probe reads the cell's offsets, its last two values, only through the
    weight values v(alpha + i) and w(beta + j)."""

    suite: str
    name: str
    cells: Callable
    probe: Callable
    pairs: str = EACH
    applies: Optional[Callable] = None
    by_weights: bool = False


def scan(cells, probe):
    """Run probe over cells in order and return (checked, skipped, failure).
    Stops at the first failure, so the counterexample is the smallest one in
    iteration order."""
    checked = skipped = 0
    for cell in cells:
        try:
            note = probe(*cell)
        except weights.UndefinedIndex:
            skipped += 1
            continue
        if note is not None:
            return checked, skipped, note
        checked += 1
    return checked, skipped, None


def _shared(probe, pair):
    """probe, run once per cell as pair's weights read it: a cell that differs
    from an earlier one only in an offset the weights ignore gets that cell's
    outcome, holds or UndefinedIndex, again.  A failure is stored too but
    never replayed, since scan stops at it."""
    outcomes = {}

    def shared(*cell):
        key = (*cell[:-2], *pair.offsets(*cell[-2:]))
        if key not in outcomes:
            try:
                outcomes[key] = probe(*cell)
            except weights.UndefinedIndex as exc:
                outcomes[key] = exc
        if isinstance(outcomes[key], weights.UndefinedIndex):
            raise outcomes[key].with_traceback(None)
        return outcomes[key]
    return shared


def verify(suites, pairs, nmax: int, grid):
    """Yield (identity, label, checked, skipped, failure) in report order: per
    suite, the per-pair identities pair by pair, then the others.  A
    by_weights probe runs through _shared; every cell is still counted.  No
    run reads another label's tables, so the shared tables are released
    wherever a run's label differs from the run's before."""
    by_label = {pair.label: pair for pair in pairs}
    last = None
    for suite in suites:
        chosen = [i for i in REGISTRY.values() if i.suite == suite]
        runs = [(i, pair, pair.label) for pair in pairs for i in chosen if i.pairs == EACH]
        runs += [(i, by_label.get(i.pairs), i.pairs) for i in chosen
                 if i.pairs == NO_PAIR or i.pairs in by_label]
        for identity, pair, label in runs:
            if last is not None and label != last:
                stirling.clear_tables()
            last = label
            if identity.applies is not None and not identity.applies(pair):
                yield identity, label, 0, 1, None
            else:
                probe = identity.probe(pair)
                if identity.by_weights:
                    probe = _shared(probe, pair)
                yield identity, label, *scan(identity.cells(nmax, grid), probe)


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


def _shapes(n_max, grid):
    for n in range(n_max + 1):
        for k in range(n + 1):
            for a, b in _nonneg(grid):
                for shape in (tableaux.enumerate_T(a, b, k, n - k)
                              + tableaux.enumerate_Td(a, b, n - 1, n - k)):
                    yield shape, a, b


def _entries(n_max):
    return ((n, k) for n in range(n_max + 1) for k in range(n + 1))


def _named(*names):
    # the cell's leading values, one name each
    return lambda *cell: " ".join(f"{name}={value}" for name, value in zip(names, cell))


def _at(*names):
    # a cell that ends in its offsets: those first, then the leading values
    named = _named(*names)
    return lambda *cell: f"alpha={cell[-2]} beta={cell[-1]} {named(*cell)}"


def _shape(shape, a, b):
    return f"alpha={a} beta={b} shape={shape.render()}"


# -- probes --------------------------------------------------------------------------


def _compare(where, got, want, tags=(None, None)):
    """make_probe of the identity got(pair, *cell) == want(pair, *cell).  The
    counterexample is where(*cell), then each side that has a tag, as
    tag=value, or the message of a layer refusal."""
    def make_probe(pair):
        def probe(*cell):
            try:
                sides = got(pair, *cell), want(pair, *cell)
            except (tableaux.DomainViolation, combinat.InvalidColorBudget) as exc:
                note = str(exc)
            else:
                if sides[0] == sides[1]:
                    return None
                note = " ".join(f"{tag}={side if isinstance(side, str) else render(side)}"
                                for tag, side in zip(tags, sides) if tag)
            return " ".join(filter(None, (where(*cell), note)))
        return probe
    return make_probe


def _residual(where, residual):
    """make_probe of an identity stated as residual(pair, *cell) == 0."""
    return _compare(where, residual, lambda pair, *cell: 0, ("residual", None))


def _value(kind, down=0):
    """Side: the definition entry at (n + down, k + down) of an (n, k, a, b) cell."""
    def side(pair, n, k, a, b):
        value_fn = stirling.first_kind if kind == "first" else stirling.second_kind
        return value_fn(pair, a, b, n + down, k + down)
    return side


def _triangular(kind):
    def by_recurrence(pair, n, k, a, b):
        return stirling.table(pair, kind, a, b, "recurrence").value(n, k)
    return _compare(_at("n", "k"), _value(kind), by_recurrence, ("definition", "recurrence"))


def _duality(kind):
    # the paper's duality: swapping v with w and alpha with beta keeps every entry
    def make_probe(pair):
        swapped = weights.swap(pair)
        return _compare(_at("n", "k"), lambda pair, n, k, a, b: _value(kind)(swapped, n, k, b, a),
                        _value(kind), ("swapped", "value"))(pair)
    return make_probe


def _step(step, kind, down):
    # step() is the recurrence; it computes the entry (n + down, k + down) from other rows
    return _compare(_at("n", "k"), lambda pair, n, k, a, b: step()(pair, a, b, n, k),
                    _value(kind, down), ("recurrence", "definition"))


def _pq_form(names, residual):
    # residual() is a p,q form of genfunc, returning its residual at the cell,
    # whose entries the counterexample names in order
    return _residual(_named(*names), lambda pair, *cell: residual()(*cell))


def _products(pair, kind, r, a, b):
    # (A·B, B·A) of one inverse pair, each the identity matrix
    first, second = matrices.inverse_pair(kind, r, a, b, pair)
    return first * second, second * first


_INVERSE_PAIR = _compare(_at("kind", "r"), _products,
                         lambda pair, kind, r, a, b: (matrices.identity_matrix(r + 1),) * 2)


def _sequence(fwd, r, a, b):
    # seeded from the cell, so both sides and the counterexample see one sequence
    rng = random.Random(f"{fwd}:{r}:{a}:{b}")
    return [rng.randint(-9, 9) for _ in range(r + 1)]


def _round_trips_back(pair, fwd, bwd, r, a, b):
    def leg(direction, seq):
        return matrices.inverse_relation_apply(direction, seq, r, a, b, pair)
    seq = _sequence(fwd, r, a, b)
    return leg(bwd, leg(fwd, seq)), leg(fwd, leg(bwd, seq))


def _convolution(kind):
    return _compare(_at("m1", "m2", "n"),
                    lambda pair, *cell: matrices.convolution_sum(kind, *cell, pair),
                    lambda pair, m1, m2, n, a, b: _value(kind)(pair, m1 + m2, n, a, b))


def _lu(kind):
    def factored(pair, *cell):
        lower, upper = matrices.lu_factors(kind, *cell, pair)
        return lower * upper
    return _compare(_at("r", "s"), factored,
                    lambda pair, *cell: matrices.hankel_matrix(kind, *cell, pair))


def _det(kind):
    return _compare(_at("r", "s"), lambda pair, *cell: matrices.determinant(
                        matrices.hankel_matrix(kind, *cell, pair)),
                    lambda pair, *cell: matrices.det_formula(kind, *cell, pair),
                    ("det", "formula"))


def _partition(where, pieces, whole):
    # pieces(*cell) lists each tableau of whole(*cell) once; enumerators never repeat one
    return _compare(where, lambda pair, *cell: Counter(pieces(*cell)),
                    lambda pair, *cell: Counter(whole(*cell)))


def _weight_sum(kind):
    return _compare(_at("n", "k"), lambda pair, *cell: tableaux.weight_sum(kind, *cell, pair),
                    _value(kind), ("tableau-sum", "definition"))


def _at_origin(tag, kind, got):
    # got(pair, n, k) against the entry at (n, k) and offsets 0, 0
    return _compare(_named("n", "k"), got, lambda pair, n, k: _value(kind)(pair, n, k, 0, 0),
                    (tag, "value"))


def _bijection(maps, shapes):
    # maps() gives the enumerator of the colored objects of (n, k) and the maps from
    # and to tableaux: from takes the objects onto the colored tableaux on shapes(n, k)
    # (and grid height), each once, and to takes each image back to its object
    def images(pair, n, k):
        # the images, and the objects that do not come back from theirs
        listed, from_tableau, to_tableau = maps()
        objects = listed(n, k, pair.v)
        found = [from_tableau(obj, pair) for obj in objects]
        return Counter(found), [obj for obj, t in zip(objects, found) if to_tableau(t) != obj]

    def colored(pair, n, k):
        shape_list, rows = shapes(n, k)
        return (Counter(t for shape in shape_list
                        for t in combinat.enumerate_01v(shape, pair, rows=rows)), [])
    return _compare(_named("n", "k"), images, colored)


def _listed(pair, shape, a, b):
    # a width-0 shape has no column sum to set its grid height; one row lists its tableau
    return len(combinat.enumerate_01v(shape, pair, rows=0 if shape.width else 1))


def _factor_counts(pair, shape, a, b):
    # v(i) is the product of i + shift over its shifts: product-shifted, or sun's i^m
    v = pair.v
    shifts = (v.params["shifts"] if v.kind == "product-shifted"
              else [0] * (len(v.params["coefficients"]) - 1))
    return prod(combinat.count_01v(shape, weights.WeightPair(
        weights.WeightSpec("polynomial", coefficients=[shift, 1]), pair.w))
        for shift in shifts)


# the paper's figures: the map to_<name>, then its tableau's tops and above
# placements (column sum 5, every below placement (1, 1)) and the rendering
_FIGURES = {"partition": ((3, 1, 1), ((3, 2), (1, 3), (2, 1)),
                          "{0,3_3}{1,2_1}{4,6_2}{5}{7}{8}"),
            "permutation": ((3, 1, 0), ((4, 1), (2, 1), (1, 4)), "(0 1_4 2_1)(3 4_1)(5)(6)")}


def _figure(pair, name):
    tops, above, _ = _FIGURES[name]
    t = combinat.ZeroOneTableau(tableaux.BTableau.from_tops(tops, 5), above, ((1, 1),) * 3)
    return getattr(combinat, f"to_{name}")(t).render()


# -- the registry --------------------------------------------------------------------

_IDENTITIES = (
    Identity("recurrences", "triangular-first", _rows, _triangular("first"), by_weights=True),
    Identity("recurrences", "triangular-second", _rows, _triangular("second"), by_weights=True),
    Identity("recurrences", "vertical-first", _step_rows,
             _step(lambda: stirling.c_vertical, "first", 1), by_weights=True),
    Identity("recurrences", "vertical-second", _step_rows,
             _step(lambda: stirling.s_vertical, "second", 1), by_weights=True),
    Identity("recurrences", "horizontal-first", _step_rows,
             _step(lambda: stirling.c_horizontal, "first", 0), by_weights=True),
    Identity("recurrences", "horizontal-first-dual", _step_rows,
             _step(lambda: stirling.c_horizontal_alpha, "first", 0), by_weights=True),
    Identity("recurrences", "horizontal-second", _step_rows,
             _step(lambda: stirling.s_horizontal, "second", 0), by_weights=True),
    Identity("recurrences", "duality-first", _rows, _duality("first"), by_weights=True),
    Identity("recurrences", "duality-second", _rows, _duality("second"), by_weights=True),

    Identity("genfunc", "row-product-first",
             lambda nmax, grid: ((n, a, b) for n in range(nmax + 1) for a, b in grid),
             _compare(_at("n"), lambda pair, n, a, b: genfunc.cgf_product(n, a, b, pair),
                      lambda pair, n, a, b: sum(
                          stirling.first_kind(pair, a, b, n, k) * X ** k for k in range(n + 1)),
                      ("product", "row-sum")), by_weights=True),
    Identity("genfunc", "column-series-second",
             lambda nmax, grid: ((k, nmax, a, b) for k in range(nmax + 1) for a, b in grid),
             _compare(_at("k"),
                      lambda pair, k, order, a, b: genfunc.sgf_series(k, order, a, b, pair),
                      lambda pair, k, order, a, b: sum(
                          stirling.second_kind(pair, a, b, n, k) * X ** n
                          for n in range(k, order + 1)),
                      ("series", "column-sum")), by_weights=True),
    Identity("genfunc", "basis-expansion",
             lambda nmax, grid: ((n, a, b) for n in range(min(nmax, 6) + 1) for a, b in grid),
             _residual(_at("n"),
                       lambda pair, n, a, b: genfunc.basis_expansion(n, a, b, pair) - X ** n),
             by_weights=True),
    Identity("genfunc", "pq-row-product", lambda nmax, grid: ((n,) for n in range(nmax + 1)),
             _pq_form(("n",), lambda: genfunc.pq_product_form_residual), pairs="pq-binomial"),
    Identity("genfunc", "pq-column-series",
             lambda nmax, grid: ((k, n) for k in range(min(nmax, 4) + 1)
                                 for n in range(k, nmax + 1)),
             _pq_form(("k", "n"), lambda: genfunc.pq_series_reduction_residual),
             pairs="pq-binomial"),
    Identity("genfunc", "pq-basis-expansion",
             lambda nmax, grid: ((n,) for n in range(min(nmax, 6) + 1)),
             _pq_form(("n",), lambda: genfunc.pq_basis_form_residual), pairs="pq-binomial"),
    Identity("genfunc", "b-stirling-row-product", lambda nmax, grid: _entries(nmax),
             _at_origin("product", "first",
                        lambda pair, n, k: genfunc.b_stirling_row_by_product(n)[k]),
             pairs="b-stirling"),
    Identity("genfunc", "b-stirling-column-series", lambda nmax, grid: _entries(nmax),
             _at_origin("series", "second", lambda pair, n, k: genfunc.b_stirling_by_series(n, k)),
             pairs="b-stirling"),

    Identity("orthogonality", "delta-sums",
             lambda nmax, grid: delta_cells(min(nmax, 6), grid),
             _compare(lambda n, m, relation, a, b:
                      f"alpha={a} beta={b} relation={relation} n={n} m={m}",
                      lambda pair, n, m, relation, a, b:
                      matrices.orthogonality_sum(relation, n, m, a, b, pair),
                      lambda pair, n, m, *_: 1 if n == m else 0, ("value", None)),
             by_weights=True),
    Identity("orthogonality", "inverse-pair-beta",
             lambda nmax, grid: (("beta", min(nmax, 5), a, b) for a, b in grid),
             _INVERSE_PAIR, by_weights=True),
    Identity("orthogonality", "inverse-pair-alpha",
             lambda nmax, grid: (("alpha", min(nmax, 5), a, b) for a, b in grid),
             _INVERSE_PAIR, by_weights=True),
    Identity("orthogonality", "inverse-relation-round-trip", _round_trips,
             _compare(lambda fwd, bwd, r, a, b: f"alpha={a} beta={b} legs={fwd}<->{bwd} "
                      f"sequence={_sequence(fwd, r, a, b)}", _round_trips_back,
                      lambda pair, fwd, bwd, r, a, b: (_sequence(fwd, r, a, b),) * 2)),
    Identity("orthogonality", "pq-binomial-delta",
             lambda nmax, grid: ((n, m) for n in range(min(nmax, 6) + 1) for m in range(n + 1)),
             _compare(_named("n", "m"), lambda pair, n, m: matrices.pq_binomial_delta_sum(n, m),
                      lambda pair, n, m: 1 if n == m else 0, ("value", None)),
             pairs="pq-binomial"),

    Identity("convolution", "row-split-first", _convolutions, _convolution("first"),
             by_weights=True),
    Identity("convolution", "row-split-second", _convolutions, _convolution("second"),
             by_weights=True),

    Identity("lu", "hankel-lu-first", _hankels, _lu("first"), by_weights=True),
    Identity("lu", "hankel-lu-second", _hankels, _lu("second"), by_weights=True),

    Identity("determinants", "hankel-det-first", _hankels, _det("first"), by_weights=True),
    Identity("determinants", "hankel-det-second", _hankels, _det("second"), by_weights=True),
    Identity("determinants", "scaled-q-det",
             lambda nmax, grid: ((r, s) for r in range(max(1, nmax // 3) + 1)
                                 for s in range(max(1, nmax // 3) + 1)),
             _compare(_named("r", "s"),
                      lambda pair, r, s: matrices.determinant(
                          matrices.scaled_q_hankel_matrix(r, s)),
                      lambda pair, r, s: matrices.scaled_q_det_formula(r, s)),
             pairs="q-stirling"),

    Identity("tableaux", "weight-sum-first", _tableau_rows, _weight_sum("first")),
    Identity("tableaux", "weight-sum-second", _tableau_rows, _weight_sum("second")),
    Identity("tableaux", "tau-bijection",
             lambda nmax, grid: _triangle(range(1, min(nmax, 6) + 1), _nonneg(grid), k_min=1),
             _partition(_at("n", "k"), lambda n, k, a, b: [
                 tableaux.tau(t, n, k, a, b) for t in tableaux.enumerate_Td(a, b, n - 1, n - k)],
                        lambda n, k, a, b: tableaux.enumerate_T(a, b, k, n - k)),
             pairs=NO_PAIR),
    Identity("tableaux", "triangular-split",
             lambda nmax, grid: _triangle(range(1, min(nmax, 5) + 1), _nonneg(grid)),
             _partition(_at("n", "k"), lambda *cell: tableaux.triangular_split(*cell),
                        lambda n, k, a, b: tableaux.enumerate_Td(a, b, n - 1, n - k)),
             pairs=NO_PAIR),
    Identity("tableaux", "convolution-split",
             lambda nmax, grid: _splits(range(1, 3), _nonneg(grid)),
             _partition(_at("m1", "m2", "n"), lambda *cell: tableaux.convolution_split(*cell),
                        lambda m1, m2, n, a, b:
                        tableaux.enumerate_Td(a, b, m1 + m2 - 1, m1 + m2 - n)),
             pairs=NO_PAIR),

    Identity("combinatorial", "zero-one-counts", lambda nmax, grid: _shapes(min(nmax, 5), grid),
             _compare(_shape, lambda pair, shape, a, b: combinat.count_01v(shape, pair),
                      lambda pair, shape, a, b: as_int(tableaux.weight(shape, pair)),
                      ("count", "weight")),
             applies=lambda pair: pair.is_combinatorial()),
    Identity("combinatorial", "partition-counts", lambda nmax, grid: _entries(min(nmax, 4)),
             _at_origin("partitions", "second",
                        lambda pair, n, k: len(combinat.enumerate_part(n, k, pair.v))),
             applies=combinat.colors_by_v),
    Identity("combinatorial", "permutation-counts", lambda nmax, grid: _entries(min(nmax, 4)),
             _at_origin("permutations", "first",
                        lambda pair, n, k: len(combinat.enumerate_perm(n, k, pair.v))),
             applies=combinat.colors_by_v),
    Identity("combinatorial", "partition-bijection", lambda nmax, grid: _entries(min(nmax, 3)),
             _bijection(lambda: (combinat.enumerate_part, combinat.from_partition,
                                 combinat.to_partition),
                        lambda n, k: (tableaux.enumerate_T(0, 0, k, n - k), k + 2)),
             applies=combinat.colors_by_v),
    Identity("combinatorial", "permutation-bijection", lambda nmax, grid: _entries(min(nmax, 3)),
             _bijection(lambda: (combinat.enumerate_perm, combinat.from_permutation,
                                 combinat.to_permutation),
                        lambda n, k: (tableaux.enumerate_Td(0, 0, n - 1, n - k), n + 1)),
             applies=combinat.colors_by_v),
    Identity("combinatorial", "figure-renderings",
             lambda nmax, grid: [(name,) for name in _FIGURES],
             _compare(_named("figure"), _figure,
                      lambda pair, name: _FIGURES[name][2], ("rendered", "expected")),
             pairs=NO_PAIR),
    Identity("combinatorial", "signed-partition-counts", lambda nmax, grid: _entries(min(nmax, 4)),
             _at_origin("signed-partitions", "second",
                        lambda pair, n, k: len(combinat.enumerate_signed_partitions(n, k))),
             pairs="legendre"),
    *(Identity("combinatorial", f"tuple-decomposition-{label}",
               lambda nmax, grid: _shapes(min(nmax, 4), [(0, 0)]),
               _compare(_shape, _listed, _factor_counts, ("listed", "factors")), pairs=label)
      for label in ("sun(2)", "legendre")),
)

REGISTRY = {f"{i.suite}/{i.name}": i for i in _IDENTITIES}
