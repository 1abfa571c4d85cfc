"""The verify sweep runs a probe once per cell as the weights read it.

An identity flagged `by_weights` reads its cell's offsets only through the
weight values, so where a weight ignores the index, cells that differ only in
that offset give one outcome.  `identities.verify` computes it once and counts
every cell; `scan`, which the acceptance gate uses, still computes each one.
"""

import dataclasses

import pytest

from wstirling import identities, stirling
from wstirling.cli import CATALOG
from wstirling.weights import WeightPair, WeightSpec, builtin, swap

GRID = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]

BY_WEIGHTS = (
    "recurrences/triangular-first", "recurrences/triangular-second",
    "recurrences/vertical-first", "recurrences/vertical-second",
    "recurrences/horizontal-first", "recurrences/horizontal-first-dual",
    "recurrences/horizontal-second", "recurrences/duality-first",
    "recurrences/duality-second",
    "genfunc/row-product-first", "genfunc/column-series-second", "genfunc/basis-expansion",
    "orthogonality/delta-sums", "orthogonality/inverse-pair-beta",
    "orthogonality/inverse-pair-alpha",
    "convolution/row-split-first", "convolution/row-split-second",
    "lu/hankel-lu-first", "lu/hankel-lu-second",
    "determinants/hankel-det-first", "determinants/hankel-det-second",
)

# v is undefined below index 0 and above 4, so every suite skips cells
PARTIAL = WeightPair(WeightSpec("table", values={i: i + 1 for i in range(5)}),
                     WeightSpec("constant", value=1), label="partial")


def test_the_flag_marks_the_generic_identities():
    # a new identity opts in by name here; the round trip seeds its sequence
    # from the offsets, and tableaux and colored objects differ at each offset
    flagged = tuple(name for name, i in identities.REGISTRY.items() if i.by_weights)
    assert flagged == BY_WEIGHTS


@pytest.mark.parametrize("name, per_kind", [("classical", 3), ("pq-binomial", 9)])
def test_the_triangular_identity_reads_recurrence_tables_from_the_cache(
        monkeypatch, name, per_kind):
    # one recurrence table per offsets as read, built by stirling's cache and
    # found there again after the sweep: classical's w ignores beta
    built = []
    make_table = stirling.StirlingTable

    def recording(*args):
        built.append(args)
        return make_table(*args)
    stirling.clear_tables()
    monkeypatch.setattr(stirling, "StirlingTable", recording)
    pair = builtin(name)
    for kind in ("first", "second"):
        identity = identities.REGISTRY[f"recurrences/triangular-{kind}"]
        assert identities.scan(identity.cells(4, GRID), identity.probe(pair))[2] is None
        assert len([args for args in built
                    if args[1] == kind and args[-1] == "recurrence"]) == per_kind
        count = len(built)
        assert all(stirling.table(pair, kind, a, b, "recurrence").method == "recurrence"
                   for a, b in GRID)
        assert len(built) == count


def test_the_sweep_holds_one_pairs_tables_at_a_time(monkeypatch):
    # a run builds its tables before it is yielded: once the sweep has moved on
    # to pq-binomial, a table classical's runs read is built again, and within
    # each pair's runs no table is built twice
    built, ends = [], []
    make_table = stirling.StirlingTable

    def recording(*args):
        built.append(args)
        return make_table(*args)
    stirling.clear_tables()
    monkeypatch.setattr(stirling, "StirlingTable", recording)
    pairs = [builtin("classical"), builtin("pq-binomial")]
    released = (pairs[0], "first", 0, 0, "definition")
    for _, label, *result in identities.verify(("recurrences",), pairs, 3, GRID):
        assert result[-1] is None
        if ends and ends[-1][0] != label:
            count = len(built)
            stirling.table(*released)
            assert built[count:] == [released]
            built.pop()
        ends.append((label, len(built)))
    by_label, start = {}, 0
    for label, end in ends:
        by_label.setdefault(label, []).extend(built[start:end])
        start = end
    assert released in by_label["classical"] and len(by_label["pq-binomial"]) > 0
    assert all(len(set(tables)) == len(tables) for tables in by_label.values())


@pytest.mark.parametrize("name, cells, distinct", [
    ("orthogonality/delta-sums", 630, 210),
    ("lu/hankel-lu-first", 81, 27),
])
def test_the_sweep_probes_each_distinct_cell_once(monkeypatch, name, cells, distinct):
    # classical's w is constant, so the three betas of the grid share a cell;
    # pq-binomial, b-stirling and zeta read both offsets and share none
    identity = identities.REGISTRY[name]
    calls = []

    def counted(pair):
        probe = identity.probe(pair)

        def run(*cell):
            calls.append(pair.label)
            return probe(*cell)
        return run
    monkeypatch.setattr(identities, "REGISTRY",
                        {name: dataclasses.replace(identity, probe=counted)})
    labels = ("classical", "pq-binomial", "b-stirling", "zeta")
    results = list(identities.verify((identity.suite,), [builtin(label) for label in labels],
                                     4, GRID))
    assert [result[1:] for result in results] == [(label, cells, 0, None) for label in labels]
    assert [calls.count(label) for label in labels] == [distinct, cells, cells, cells]


# swap(jacobi)'s constant v is the catalog's only route to sharing across alpha;
# the partial table skips cells on both routes, over a grid not in sweep order
@pytest.mark.parametrize("nmax, pairs, grid, skips", [
    (3, [builtin(label) for label in CATALOG], GRID, False),
    (4, [builtin(label) for label in CATALOG], GRID, False),
    (4, [swap(builtin("jacobi"))], GRID, False),
    (4, [PARTIAL, swap(PARTIAL)], [(a, b) for a in (1, -1, 0) for b in (0, 1, -1)], True),
], ids=["catalog-3", "catalog-4", "swapped-jacobi", "partial-table"])
def test_the_shared_sweep_counts_what_a_full_scan_counts(nmax, pairs, grid, skips):
    suites = tuple(dict.fromkeys(i.suite for i in identities.REGISTRY.values() if i.by_weights))
    by_label = {pair.label: pair for pair in pairs}
    skipped = 0
    for identity, label, *result in identities.verify(suites, pairs, nmax, grid):
        if identity.by_weights:
            full = identities.scan(identity.cells(nmax, grid), identity.probe(by_label[label]))
            assert tuple(result) == full, (identity.name, label)
            skipped += full[1]
    assert (skipped > 0) == skips
