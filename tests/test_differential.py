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
with a negative constant, or with negative exponents.  So the lines mix
integer values, monomials and multi-term values, in one variable or in
several, with mixed signs and Laurent exponents.
"""

import random

from wstirling import identities
from wstirling.ring import RingValue
from wstirling.weights import WeightPair, WeightSpec

SEED = 20130
PAIRS = 36
NMAX = 8

PROBES = tuple(name for name in identities.REGISTRY if name.startswith("recurrences/")) + (
    "genfunc/row-product-first", "genfunc/column-series-second", "genfunc/basis-expansion",
    "orthogonality/delta-sums", "orthogonality/inverse-pair-beta",
    "orthogonality/inverse-pair-alpha", "orthogonality/inverse-relation-round-trip",
    "tableaux/weight-sum-first", "tableaux/weight-sum-second",
)


def random_value(rng, y):
    kind = rng.random()
    if kind < 0.8:
        return rng.choice([rng.randint(-3, 3), rng.choice("pqz")])
    low = rng.randint(-2, -1) if kind > 0.95 else rng.randint(0, 1)  # Laurent
    value = sum(RingValue.monomial(rng.randint(1, 2), **{y: low + i})
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


def test_random_pairs_agree_across_paths():
    kinds = set()
    for pair, grid_point in draws():
        kinds.add((pair.v.kind, pair.w.kind))
        for name in PROBES:
            identity = identities.REGISTRY[name]
            checked, _, failure = identities.scan(identity.cells(NMAX, [grid_point]),
                                                  identity.probe(pair))
            assert failure is None, f"{name} {pair.to_json()} {failure}"
            if not name.startswith("tableaux/") or min(grid_point) >= 0:
                assert checked > 0, f"{name} {pair.to_json()} checked nothing"
    assert len(kinds) >= 6  # the draws mix the kinds of v and w
