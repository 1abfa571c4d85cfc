"""Seeded differential test: random weight pairs through the independent paths.

Catalog weights are regular enough to hide some bugs (a fixed-offset inverse
pair looks right under constant weights), so this draws random table,
polynomial and monomial weights and random index offsets, and scans the
identities that compare independent computations of the same triangle:
definition against recurrence, the generating functions against the
entries, orthogonality and inversion, and the tableau weight sums.  Standard
library `random` only, with a fixed seed, so every run checks the same pairs.

A weight value is a small integer, a bare variable, or now and then a value
in the pair's one variable: several terms with positive coefficients, or
with a negative constant, or with negative exponents.  So the definition
path's lines reach every backend symfunc picks, and the test counts each
one: a line that stays on dicts, an integer line (all its values constant,
so the DP runs on its ints), a packed line of monomials or with a
multi-term product, a line whose slots widen and re-pack, and a column
handed back to the dict DP.  Every other pair runs its packed DP under a
small term budget (`fits` alone sees it), which hands columns back after a
few degrees.
"""

import collections
import random

from wstirling import identities, ring, symfunc
from wstirling.ring import RingValue, ring_sum
from wstirling.weights import WeightPair, WeightSpec

SEED = 20130
PAIRS = 36
NMAX = 8
SMALL_BUDGET = 20  # term pairs for PackedLine.fits on every other pair

PROBES = tuple(name for name in identities.REGISTRY if name.startswith("recurrences/")) + (
    "genfunc/row-product-first", "genfunc/column-series-second", "genfunc/basis-expansion",
    "orthogonality/delta-sums", "orthogonality/inverse-pair-beta",
    "orthogonality/inverse-pair-alpha", "orthogonality/inverse-relation-round-trip",
    "tableaux/weight-sum-first", "tableaux/weight-sum-second",
)

# the fewest lines of each backend the draws must reach
MINIMUM = {"dict": 2000, "integer": 4, "monomials": 100, "multi-term": 150,
           "re-packed": 15, "handed back": 40}


def random_value(rng, y):
    kind = rng.random()
    if kind < 0.8:
        return rng.choice([rng.randint(-3, 3), rng.choice("pqz")])
    low = rng.randint(-2, -1) if kind > 0.95 else rng.randint(0, 1)  # Laurent
    value = ring_sum(RingValue.monomial(rng.randint(1, 2), **{y: low + i})
                     for i in range(rng.randint(2, 4)))
    return value - 2 if kind > 0.9 else value  # mixed signs


def random_spec(rng, y):
    kind = rng.choice(("table", "polynomial", "monomial"))
    offset = rng.randint(-2, 2)
    if kind == "table":
        values = {i: random_value(rng, y) for i in range(-3, 12) if rng.random() < 0.6}
        return WeightSpec("table", offset, values=values, default=random_value(rng, y))
    if kind == "polynomial":
        return WeightSpec("polynomial", offset,
                          coefficients=[random_value(rng, y) for _ in range(rng.randint(1, 3))])
    return WeightSpec("monomial", offset, base=y)


def draws():
    rng = random.Random(SEED)
    for _ in range(PAIRS):
        y = rng.choice("pqz")  # the variable of the pair's multi-term values
        pair = WeightPair(random_spec(rng, y), random_spec(rng, y))
        yield pair, (rng.randint(-1, 2), rng.randint(-1, 2))


def count_backends(monkeypatch) -> collections.Counter:
    """Count, as symfunc runs, the backend of each line and each re-pack and hand-back."""
    seen = collections.Counter()
    packed_line, widen, homogeneous_packed = (
        symfunc.packed_line, ring.PackedLine.widen, symfunc._homogeneous_packed)

    def counted_line(values):
        line = packed_line(values)
        if all(map(ring.is_constant, values)):
            seen["integer"] += 1
        elif line is None:
            seen["dict"] += 1
        else:
            terms = max(len(RingValue.coerce(value).terms) for value in values)
            seen["monomials" if terms == 1 else "multi-term"] += 1
        return line

    widened = {}  # id -> line, held so that no id is reused

    def counted_widen(line, bound, state=None):
        # a line packs at construction, so only a widen after its first one
        # re-packs values the DP has built
        before = line.packed
        widen(line, bound, state)
        seen["re-packed"] += id(line) in widened and line.packed is not before
        widened[id(line)] = line

    def counted_column(line):
        state = yield from homogeneous_packed(line)
        seen["handed back"] += 1
        return state

    monkeypatch.setattr(symfunc, "packed_line", counted_line)
    monkeypatch.setattr(ring.PackedLine, "widen", counted_widen)
    monkeypatch.setattr(symfunc, "_homogeneous_packed", counted_column)
    return seen


def small_budget_fits(fits):
    def patched(line, degree):
        budget, ring.TERM_BUDGET = ring.TERM_BUDGET, SMALL_BUDGET
        try:
            return fits(line, degree)
        finally:
            ring.TERM_BUDGET = budget
    return patched


def test_random_pairs_agree_across_paths(monkeypatch):
    seen = count_backends(monkeypatch)
    kinds = set()
    for index, (pair, grid_point) in enumerate(draws()):
        kinds.add((pair.v.kind, pair.w.kind))
        with monkeypatch.context() as patch:
            if index % 2:
                patch.setattr(ring.PackedLine, "fits", small_budget_fits(ring.PackedLine.fits))
            for name in PROBES:
                identity = identities.REGISTRY[name]
                checked, _, failure = identities.scan(identity.cells(NMAX, [grid_point]),
                                                      identity.probe(pair))
                assert failure is None, f"{name} {pair.to_json()} {failure}"
                if not name.startswith("tableaux/") or min(grid_point) >= 0:
                    assert checked > 0, f"{name} {pair.to_json()} checked nothing"
    assert len(kinds) >= 6  # the draws mix the kinds of v and w
    assert [name for name, least in MINIMUM.items() if seen[name] < least] == [], seen
