"""Seeded differential test: random weight pairs through the independent paths.

Catalog weights are regular enough to hide some bugs (a fixed-offset inverse
pair looks right under constant weights), so this draws random table,
polynomial and monomial weights with small integer or single-variable values
and random index offsets, and scans the identities that compare independent
computations of the same triangle: definition against recurrence, the
generating functions against the entries, orthogonality and inversion, and
the tableau weight sums.  Standard library `random` only, with a fixed seed,
so every run checks the same pairs.
"""

import random

from wstirling import identities
from wstirling.weights import WeightPair, WeightSpec

SEED = 20130
PAIRS = 40
NMAX = 8

PROBES = tuple(name for name in identities.REGISTRY if name.startswith("recurrences/")) + (
    "genfunc/row-product-first", "genfunc/column-series-second", "genfunc/basis-expansion",
    "orthogonality/delta-sums", "orthogonality/inverse-pair-beta",
    "orthogonality/inverse-pair-alpha", "orthogonality/inverse-relation-round-trip",
    "tableaux/weight-sum-first", "tableaux/weight-sum-second",
)


def random_value(rng):
    return rng.choice([rng.randint(-3, 3), rng.choice("pqz")])


def random_spec(rng):
    kind = rng.choice(("table", "polynomial", "monomial"))
    offset = rng.randint(-2, 2)
    if kind == "table":
        values = {i: random_value(rng) for i in range(-3, 12) if rng.random() < 0.6}
        return WeightSpec("table", offset, values=values, default=random_value(rng))
    if kind == "polynomial":
        return WeightSpec("polynomial", offset,
                          coefficients=[random_value(rng) for _ in range(rng.randint(1, 3))])
    return WeightSpec("monomial", offset, base=rng.choice("pqz"))


def draws():
    rng = random.Random(SEED)
    for _ in range(PAIRS):
        pair = WeightPair(random_spec(rng), random_spec(rng))
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
