"""Acceptance gate: one test per shipping criterion, exact equality throughout.

Run with `python3 -m pytest tests/test_acceptance.py -v` to get one pass/fail
line per criterion.  Every check is exact (integer or polynomial identity);
there are no tolerances.  The identities are the ones `wstirling verify` runs:
this gate takes their probes from `wstirling.identities` and sweeps them with
the same `scan` over its own, wider cell lists.  Cells where a table weight
without a default is undefined are skipped, and every sweep must check at least
one cell, so a regression cannot hide behind mass skipping.

Criterion 9 compares `verify --suite all` with a golden report.  After an
intended change of that report, rewrite it and review its diff:

    PYTHONPATH=src python3 -m wstirling.cli verify --suite all > tests/golden/verify_all_nmax6.txt
"""

import json
import pathlib
from math import comb

import pytest

from wstirling import combinat, identities, matrices, stirling, tableaux
from wstirling.cli import main
from wstirling.ring import RingValue, as_int
from wstirling.stirling import first_kind, pq_binomial, second_kind
from wstirling.weights import CATALOG, builtin

PAIRS = [builtin(name) for name in CATALOG]
GRID_SMALL = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
GRID_WIDE = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
GRID_NONNEG = [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)]
GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_all_nmax6.txt"


def probe(name, pair=None):
    """The registry's probe for suite/identity `name` at one weight pair."""
    return identities.REGISTRY[name].probe(pair)


def check(label, cells, cell_probe):
    checked, skipped, failure = identities.scan(cells, cell_probe)
    assert failure is None, f"{label}: {failure} (after {checked} passing checks)"
    assert checked > 0, f"{label}: nothing was checked (skipped={skipped})"
    print(f"PASS {label} checked={checked} skipped={skipped}")


def test_criterion_1_recurrences_match_definitions():
    total = 0
    for pair in PAIRS:
        tri_cells = [(n, k, a, b) for n in range(11) for k in range(n + 1)
                     for (a, b) in GRID_WIDE]
        step_cells = [(n, k, a, b) for n in range(10) for k in range(n + 1)
                      for (a, b) in GRID_WIDE]

        for name in ("triangular-first", "triangular-second", "vertical-first",
                     "vertical-second", "horizontal-first", "horizontal-first-dual",
                     "horizontal-second"):
            cells = tri_cells if name.startswith("triangular") else step_cells
            checked, _, failure = identities.scan(cells, probe("recurrences/" + name, pair))
            assert failure is None, f"{pair.label}/{name}: {failure}"
            assert checked > 0, f"{pair.label}/{name} never ran"
            total += checked
    print(f"PASS criterion 1 recurrences checked={total}")


def test_criterion_2_generating_functions():
    for pair in PAIRS:
        check(f"criterion 2 row gf [{pair.label}]",
              [(n, a, b) for n in range(11) for (a, b) in GRID_SMALL],
              probe("genfunc/row-product-first", pair))
        check(f"criterion 2 column gf [{pair.label}]",
              [(k, 10, a, b) for k in range(11) for (a, b) in GRID_SMALL],
              probe("genfunc/column-series-second", pair))
        check(f"criterion 2 basis expansion [{pair.label}]",
              [(n, a, b) for n in range(9) for (a, b) in GRID_SMALL],
              probe("genfunc/basis-expansion", pair))

    check("criterion 2 p,q row form n<=8", [(n,) for n in range(9)],
          probe("genfunc/pq-row-product"))
    check("criterion 2 p,q basis form n<=8", [(n,) for n in range(9)],
          probe("genfunc/pq-basis-expansion"))
    check("criterion 2 p,q column form k<=8",
          [(k, n) for k in range(9) for n in range(k, 8 + k + 1)],
          probe("genfunc/pq-column-series"))


def test_criterion_3_orthogonality_and_inversion():
    for pair in PAIRS:
        check(f"criterion 3 delta sums [{pair.label}]", identities.delta_cells(8, GRID_SMALL),
              probe("orthogonality/delta-sums", pair))

        # the inverse-pair probe reads the pair kind from the cell
        check(f"criterion 3 matrix pairs dim 9 [{pair.label}]",
              [(kind, 8, a, b) for kind in matrices.PAIR_KINDS
               for (a, b) in ((0, 0), (1, 1))],
              probe("orthogonality/inverse-pair-beta", pair))

        legs = [("beta-forward", "beta-backward"),
                ("alpha-forward", "alpha-backward"),
                ("transposed-forward", "transposed-backward")]
        check(f"criterion 3 round trips length 7 [{pair.label}]",
              [(fwd, bwd, 6, a, b) for (fwd, bwd) in legs for (a, b) in ((0, 0), (1, -1))],
              probe("orthogonality/inverse-relation-round-trip", pair))


def test_criterion_4_convolutions():
    cells = [(m1, m2, n, a, b) for m1 in range(6) for m2 in range(6)
             for n in range(m1 + m2 + 1) for (a, b) in ((0, 0), (1, -1))]
    for pair in PAIRS:
        check(f"criterion 4 first-kind convolution [{pair.label}]", cells,
              probe("convolution/row-split-first", pair))
        check(f"criterion 4 second-kind convolution [{pair.label}]", cells,
              probe("convolution/row-split-second", pair))


def test_criterion_5_lu_and_determinants():
    cells = [(r, s, a, b) for r in range(5) for s in range(5)
             for (a, b) in ((0, 0), (2, 1))]
    for pair in PAIRS:
        for kind in ("first", "second"):
            check(f"criterion 5 {kind}-kind LU [{pair.label}]", cells,
                  probe(f"lu/hankel-lu-{kind}", pair))
            check(f"criterion 5 {kind}-kind det [{pair.label}]", cells,
                  probe(f"determinants/hankel-det-{kind}", pair))

    check("criterion 5 scaled q-determinant r,s<=3",
          [(r, s) for r in range(4) for s in range(4)], probe("determinants/scaled-q-det"))


def test_criterion_6_tableau_layer():
    for pair in PAIRS:
        cells = [(n, k, a, b) for n in range(8) for k in range(n + 1)
                 for (a, b) in GRID_NONNEG]
        check(f"criterion 6 first-kind weight sums [{pair.label}]", cells,
              probe("tableaux/weight-sum-first", pair))
        check(f"criterion 6 second-kind weight sums [{pair.label}]", cells,
              probe("tableaux/weight-sum-second", pair))

    check("criterion 6 tau bijection n<=8",
          [(n, k, a, b) for n in range(1, 9) for k in range(1, n + 1)
           for (a, b) in GRID_NONNEG], probe("tableaux/tau-bijection"))
    check("criterion 6 triangular split n<=6",
          [(n, k, a, b) for n in range(1, 7) for k in range(n + 1)
           for (a, b) in GRID_NONNEG], probe("tableaux/triangular-split"))
    check("criterion 6 convolution split m1+m2<=6",
          [(m1, m2, n, a, b) for m1 in range(1, 6) for m2 in range(1, 7 - m1)
           for n in range(m1 + m2 + 1) for (a, b) in GRID_NONNEG],
          probe("tableaux/convolution-split"))


def test_criterion_7_combinatorial_layer():
    names = [name for name in CATALOG if builtin(name).is_combinatorial()]
    assert "classical" in names and "legendre" in names
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for name in names:
        pair = builtin(name)
        count_probe = probe("combinatorial/zero-one-counts", pair)

        def shape_probe(shape, a, b):
            note = count_probe(shape, a, b)
            if note is not None:
                return note
            count = combinat.count_01v(shape, pair)
            if count <= 300:
                rows = 1 if shape.width == 0 else 0
                listed = combinat.enumerate_01v(shape, pair, rows=rows)
                if len(listed) != count or len(set(listed)) != count:
                    return f"{name} enumeration off on {shape.render()} at {a},{b}"
            return None

        shapes = []
        for n in range(7):
            for k in range(n + 1):
                for a, b in corners:
                    for shape in tableaux.enumerate_T(a, b, k, n - k):
                        shapes.append((shape, a, b))
                    for shape in tableaux.enumerate_Td(a, b, n - 1, n - k):
                        shapes.append((shape, a, b))
        check(f"criterion 7 zero-one counts [{name}]", shapes, shape_probe)

    check("criterion 7 figure renderings byte-exact", [("partition",), ("permutation",)],
          probe("combinatorial/figure-renderings"))

    one = builtin("classical").w
    model_pairs = [builtin(name) for name in names if builtin(name).w == one]
    assert len(model_pairs) >= 4
    for pair in model_pairs:
        perm_count = probe("combinatorial/permutation-counts", pair)

        def perm_probe(n, k):
            listed = combinat.enumerate_perm(n, k, pair.v)
            if len(listed) != len(set(listed)):
                return f"{pair.label} Perm({n},{k}) has duplicates"
            return perm_count(n, k)

        cells = [(n, k) for n in range(6) for k in range(n + 1)]
        check(f"criterion 7 partition counts [{pair.label}]", cells,
              probe("combinatorial/partition-counts", pair))
        check(f"criterion 7 permutation counts [{pair.label}]", cells, perm_probe)
        for model in ("partition", "permutation"):
            check(f"criterion 7 {model} bijection n<=4 [{pair.label}]", cells[:15],
                  probe(f"combinatorial/{model}-bijection", pair))

    check("criterion 7 signed partitions n<=5",
          [(n, k) for n in range(6) for k in range(n + 1)],
          probe("combinatorial/signed-partition-counts", builtin("legendre")))

    # tuple decompositions: every shape of T and Td at offsets 0, 0 for n <= 4
    for label in ("sun(2)", "legendre"):
        name = f"combinatorial/tuple-decomposition-{label}"
        check(f"criterion 7 tuple decomposition [{label}]",
              identities.REGISTRY[name].cells(9, []), probe(name, builtin(label)))


def test_criterion_8_sequence_cross_checks():
    pair = builtin("b-stirling")
    cells = [(n, k) for n in range(9) for k in range(n + 1)]
    check("criterion 8 b-stirling row product n<=8", cells,
          probe("genfunc/b-stirling-row-product", pair))
    check("criterion 8 b-stirling column series n<=8", cells,
          probe("genfunc/b-stirling-column-series", pair))

    # textbook recurrences, coded straight off the standard definitions
    classical = builtin("classical")
    s_table = {(0, 0): 1}
    c_table = {(0, 0): 1}
    for n in range(1, 13):
        for k in range(n + 1):
            s_table[(n, k)] = (s_table.get((n - 1, k - 1), 0)
                               + k * s_table.get((n - 1, k), 0))
            c_table[(n, k)] = (c_table.get((n - 1, k - 1), 0)
                               + (n - 1) * c_table.get((n - 1, k), 0))
    for n in range(13):
        for k in range(n + 1):
            assert as_int(second_kind(classical, 0, 0, n, k)) == s_table[(n, k)]
            assert as_int(first_kind(classical, 0, 0, n, k)) == c_table[(n, k)]
    print("PASS criterion 8 classical triangles vs textbook recurrence n<=12")

    for n in range(13):
        for k in range(n + 1):
            flat = RingValue.coerce(pq_binomial(n, k)).substitute({"p": 1, "q": 1})
            assert as_int(flat) == comb(n, k)
    print("PASS criterion 8 pq-binomial at p=q=1 is binomial n<=12")


def test_criterion_9_cli_contract(capsys, tmp_path):
    stirling._table.cache_clear()
    code = main(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out == GOLDEN.read_text(encoding="utf-8")
    built = stirling._table.cache_info()  # tables of both methods, none evicted
    assert built.misses == built.currsize <= 1024, built
    print("PASS criterion 9 verify --suite all over the catalog exits 0")

    spec = tmp_path / "corrupt.json"
    spec.write_text(json.dumps({
        "v": {"kind": "table", "values": {"0": 1, "1": 3, "2": 2}, "default": 1},
        "w": {"kind": "constant", "value": 1},
    }))
    code = main(["verify", "--suite", "combinatorial", "--weights",
                 "@" + str(spec), "--nmax", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample:" in out
    print("PASS criterion 9 corrupted weight spec exits nonzero with counterexample")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
