"""Colored objects counted by the weighted triangles.

When both weight components take nonnegative integer values, the weight of a
two-row tableau is a count: the number of ways to drop one colored 1 above the
lattice path and one below it in every column of a grid.  This module builds
those colored tableaux explicitly and carries them along bijections to colored
set partitions (second kind) and colored permutations (first kind), plus the
signed-partition model for the Legendre-Stirling case.

The color budget rule: in a column whose part above the path is t >= 0,
grid row 1 offers v(0) colors and each of the interior rows 2..t+1 offers
(v(t) - v(0)) / t; below the path the same holds with w and the bottom part.
Those quotients are nonnegative integers for every polynomial weight; a table
weight can break divisibility, which raises InvalidColorBudget rather than
truncating.  A negative part has no grid rows and raises ValueError.  The
partition and permutation models decode each non-minimum to the (top, row,
color) mark of one column and color it under the same rule; from_partition
and from_permutation raise DomainViolation for a color past its budget.
Their enumerations never walk to an object with a mark that offers no
color, so a zero budget (v(0) = 0, say) costs them nothing.  Every
enumeration here decides its cap from its count before it builds anything:
the product of placement counts for zero-one tableaux, e_{n-k} of each
value 1..n's colors for permutations, h_{n-k} of each top 0..k's for
partitions and h_{n-k} of j(j + 1), j <= k, for signed partitions.
"""

from dataclasses import dataclass
from itertools import chain, combinations, product
from math import prod

from .ring import ENUMERATION_CAP, as_int, is_constant
from .tableaux import BTableau, DomainViolation, capped_sum
from .weights import WeightPair, WeightSpec


class NonCombinatorialWeights(ValueError):
    """The requested enumeration needs nonnegative-integer weights."""


class InvalidColorBudget(ArithmeticError):
    """An interior color budget is not a nonnegative integer."""


def _value_at(spec: WeightSpec, i: int) -> int:
    value = spec.eval(i)
    if not is_constant(value):
        raise NonCombinatorialWeights(f"weight value at {i} is not an integer")
    n = as_int(value)
    if n < 0:
        raise NonCombinatorialWeights(f"weight value at {i} is negative")
    return n


def _budget(spec: WeightSpec, ell: int, row: int) -> int:
    """Colors offered by grid row `row` of a column whose part is `ell`."""
    if ell < 0:
        raise ValueError(f"column part {ell} is negative")
    base = _value_at(spec, 0)
    if row == 1:
        return base
    diff = _value_at(spec, ell) - base
    if diff < 0 or diff % ell:
        raise InvalidColorBudget(
            f"(value({ell}) - value(0)) = {diff} is not a nonnegative multiple of {ell}")
    return diff // ell


def _placement_count(spec: WeightSpec, ell: int) -> int:
    """len(_placements(spec, ell)), from the budgets alone."""
    return _budget(spec, ell, 1) + (ell and ell * _budget(spec, ell, 2))


def _placements(spec: WeightSpec, ell: int) -> list:
    opts = [(1, c) for c in range(1, _budget(spec, ell, 1) + 1)]
    if ell:
        interior = _budget(spec, ell, 2)
        opts.extend((row, c) for row in range(2, ell + 2) for c in range(1, interior + 1))
    return opts


@dataclass(frozen=True)
class ZeroOneTableau:
    """A tableau shape with one colored 1 above and one below the path per column.

    ``above[j]`` and ``below[j]`` are (row, color) pairs for column j, left to
    right.  Above rows are 1-based from the top of the grid, below rows 1-based
    from the bottom, so row 1 always names the extremal row on its side.  The
    grid height is ``column sum + 2``; for a width-0 shape it must be given.
    """

    shape: BTableau
    above: tuple
    below: tuple
    rows: int = 0

    def __post_init__(self):
        for side in ("above", "below"):
            object.__setattr__(self, side, tuple((r, c) for r, c in getattr(self, side)))
        width = self.shape.width
        if len(self.above) != width or len(self.below) != width:
            raise ValueError("need one above and one below placement per column")
        for (top, bottom), (ra, ca), (rb, cb) in zip(self.shape.columns, self.above, self.below):
            if any(type(e) is not int for e in (ra, ca, rb, cb)):
                raise ValueError(f"placement rows and colors are integers, got {ra, ca} {rb, cb}")
            if not 1 <= ra <= top + 1:
                raise ValueError(f"above row {ra} outside 1..{top + 1}")
            if not 1 <= rb <= bottom + 1:
                raise ValueError(f"below row {rb} outside 1..{bottom + 1}")
            if ca < 1 or cb < 1:
                raise ValueError("colors are 1-based")
        object.__setattr__(self, "rows", _grid_height(self.shape, self.rows))

    def path(self) -> str:
        """Full lattice path from the upper-right corner, over {V, H}."""
        steps = []
        depth = 0
        for top in reversed(self.shape.tops()):
            steps.append("V" * (top + 1 - depth))
            steps.append("H")
            depth = top + 1
        steps.append("V" * (self.rows - depth))
        return "".join(steps)

    def render(self) -> str:
        if not self.shape.width:
            return self.shape.render()
        return "{} above {} below {}".format(self.shape.render(),
                                             " ".join(_mark(*rc) for rc in self.above),
                                             " ".join(_mark(*rc) for rc in self.below))


def _grid_height(shape: BTableau, rows) -> int:
    """The grid height of a tableau on shape: column sum + 2, which rows must
    equal unless it is 0; a width-0 shape has no column sum, so rows sets it."""
    if type(rows) is not int:
        raise ValueError(f"grid height is an integer, got {rows!r}")
    if shape.width:
        if rows not in (0, shape.column_sum + 2):
            raise ValueError("grid height must equal column sum + 2")
        return shape.column_sum + 2
    if rows < 1:
        raise ValueError("a width-0 tableau needs an explicit grid height")
    return rows


def count_01v(shape: BTableau, weights: WeightPair) -> int:
    """Number of colored 0,1-tableaux on a shape; equals its weight."""
    if not weights.is_combinatorial():
        raise NonCombinatorialWeights("counting needs nonnegative integer weights")
    return prod(_placement_count(spec, ell) for top, bottom in shape.columns
                for spec, ell in ((weights.v, top), (weights.w, bottom)))


def enumerate_01v(shape: BTableau, weights: WeightPair,
                  cap: int = ENUMERATION_CAP, rows: int = 0) -> list:
    if not weights.is_combinatorial():
        raise NonCombinatorialWeights("enumeration needs nonnegative integer weights")
    rows = _grid_height(shape, rows)
    columns = [(spec, ell) for top, bottom in shape.columns
               for spec, ell in ((weights.v, top), (weights.w, bottom))]
    sizes = [_placement_count(spec, ell) for spec, ell in columns]
    capped_sum(sizes, len(sizes), cap, "zero-one tableaux")
    if not all(sizes):
        return []
    per_column = [_placements(spec, ell) for spec, ell in columns]
    return [ZeroOneTableau(shape, choice[0::2], choice[1::2], rows)
            for choice in product(*per_column)]


# -- colored partitions and permutations ---------------------------------------

_ONE = WeightSpec("constant", value=1)


def colors_by_v(weights: WeightPair) -> bool:
    """True when the partition and permutation models count the triangle:
    they color with v only, so w must be 1 and the pair combinatorial."""
    return weights.is_combinatorial() and weights.w == _ONE


@dataclass(frozen=True)
class ColoredPartition:
    """Set partition of {0..n} with colored non-minima.

    Each block is a tuple of (element, color) pairs sorted by element; block
    minima carry color None.  Blocks are ordered by their minima, so the block
    containing 0 comes first.
    """

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", _check_groups(self.blocks, "block", sorted_groups=True))

    def render(self) -> str:
        return "".join(
            "{" + ",".join(_mark(e, c) for e, c in block) + "}" for block in self.blocks)


@dataclass(frozen=True)
class ColoredPermutation:
    """Permutation in cycle form with colored non-minima.

    Each cycle is a tuple of (element, color) pairs starting at the cycle
    minimum (color None); following pairs are in cycle order.  Cycles are
    sorted by their minima.
    """

    cycles: tuple

    def __post_init__(self):
        object.__setattr__(self, "cycles", _check_groups(self.cycles, "cycle", sorted_groups=False))

    def word(self) -> tuple:
        return tuple(item for cycle in self.cycles for item in cycle)

    def render(self) -> str:
        return "".join(
            "(" + " ".join(_mark(e, c) for e, c in cycle) + ")" for cycle in self.cycles)


def _check_groups(groups, noun: str, sorted_groups: bool) -> tuple:
    # groups of (element, color) pairs: blocks or cycles of 0..n, returned as tuples
    groups = tuple(tuple((e, c) for e, c in group) for group in groups)
    minima, elements = [], []
    for group in groups:
        if not group:
            raise ValueError(f"{noun}s are nonempty")
        members = [e for e, _ in group]
        if any(type(e) is not int for e in members):
            raise ValueError(f"{noun} elements are integers, got {group}")
        if members[0] != min(members):
            raise ValueError(f"{noun}s start at their minimum")
        if sorted_groups and members != sorted(members):
            raise ValueError(f"{noun} elements are sorted")
        if group[0][1] is not None:
            raise ValueError(f"{noun} minima are uncolored")
        if any(type(c) is not int or c < 1 for _, c in group[1:]):
            raise ValueError("non-minima carry a color >= 1")
        minima.append(members[0])
        elements.extend(members)
    if minima != sorted(minima):
        raise ValueError(f"{noun}s are ordered by minima")
    if sorted(elements) != list(range(len(elements))):
        raise ValueError("ground set must be 0..n without repeats")
    return groups


def _mark(e: int, c) -> str:
    return str(e) if c is None else f"{e}_{c}"


def to_partition(t: ZeroOneTableau) -> ColoredPartition:
    """Read a colored partition off a tableau whose shape allows repeated tops.

    Path steps except the final one are labeled from 0; a vertical step opens a
    block with its label as minimum, and the j-th horizontal step (right to
    left) sends its label to the block indexed by the above-1 row of column
    s + 1 - j, carrying that 1's color.
    """
    s = t.shape.width
    blocks = []
    h = 0
    for label, step in enumerate(t.path()[:-1]):
        if step == "V":
            blocks.append([(label, None)])
        else:
            h += 1
            row, color = t.above[s - h]
            blocks[row - 1].append((label, color))
    return ColoredPartition(tuple(tuple(block) for block in blocks))


def from_partition(p: ColoredPartition, weights: WeightPair) -> ZeroOneTableau:
    """Inverse of to_partition; a color past its budget raises DomainViolation."""
    return _tableau_from_marks(_partition_marks(p.blocks), len(p.blocks) - 1, weights)


def _partition_marks(blocks) -> list:
    # the j-th smallest non-minimum e, in block i, is the above 1 of the
    # column with top e - j, in grid row i + 1
    marked = sorted((e, i, c) for i, block in enumerate(blocks) for e, c in block[1:])
    return [(e - j, i + 1, c) for j, (e, i, c) in enumerate(marked, start=1)]


def to_permutation(t: ZeroOneTableau) -> ColoredPermutation:
    """Read a colored permutation off a tableau with distinct column tops.

    One vertical step after every horizontal step is removed, the remaining
    steps are labeled from 0, vertical labels become cycle minima, and the
    j-th horizontal label is inserted into the growing word after the letter
    position given by its column's above-1 row.
    """
    s = t.shape.width
    if len(set(t.shape.tops())) != s:
        raise ValueError("permutation labeling needs distinct column tops")
    reduced = []
    drop = False
    for step in t.path():
        if step == "H":
            reduced.append(step)
            drop = True
        elif drop:
            drop = False
        else:
            reduced.append(step)
    word = []
    minima = set()
    h = 0
    for label, step in enumerate(reduced):
        if step == "V":
            minima.add(label)
            word.append((label, None))
        else:
            h += 1
            row, color = t.above[s - h]
            word.insert(row, (label, color))
    return _word_to_cycles(word, minima)


def from_permutation(p: ColoredPermutation, weights: WeightPair) -> ZeroOneTableau:
    """Inverse of to_permutation; a color past its budget raises DomainViolation."""
    return _tableau_from_marks(_permutation_marks(p.cycles), len(p.word()) - 2, weights)


def _permutation_marks(cycles) -> list:
    # undo the insertions from the largest non-minimum e down: its position r
    # in the word is the grid row of the above 1 in the column with top e - 1
    word = [item for cycle in cycles for item in cycle]
    minima = {cycle[0][0] for cycle in cycles}
    marks = []
    for e in sorted((x for x, _ in word if x not in minima), reverse=True):
        row = next(i for i, (x, _) in enumerate(word) if x == e)
        marks.append((e - 1, row, word.pop(row)[1]))
    return marks[::-1]


def _tableau_from_marks(marks: list, column_sum: int, weights: WeightPair) -> ZeroOneTableau:
    # marks run from the smallest non-minimum, which is the rightmost column
    if _value_at(weights.w, 0) < 1:
        raise ValueError("the below placement needs w(0) >= 1")
    for top, row, c in marks:
        if c > _budget(weights.v, top, row):
            budget = "the v(0) budget" if row == 1 else f"the interior budget at {top}"
            raise DomainViolation(f"color {c} exceeds {budget}")
    marks = marks[::-1]
    shape = BTableau.from_tops(tuple(top for top, _, _ in marks), column_sum)
    return ZeroOneTableau(shape, tuple((row, c) for _, row, c in marks),
                          ((1, 1),) * len(marks), rows=column_sum + 2)


def _word_to_cycles(word: list, minima: set) -> ColoredPermutation:
    cycles = []
    for item in word:
        if item[0] in minima:
            cycles.append([item])
        else:
            cycles[-1].append(item)
    return ColoredPermutation(tuple(tuple(cycle) for cycle in cycles))


# -- direct enumerations --------------------------------------------------------

def enumerate_part(n: int, k: int, v: WeightSpec, cap: int = ENUMERATION_CAP) -> list:
    """All colored partitions of {0..n} into k+1 blocks under the v budgets.

    The j-th smallest non-minimum a_j, in block i, is colored as grid row
    i + 1 of a column with top a_j - j.
    """
    if k < 0 or k > n:
        return []
    sizes = [_placement_count(v, top) for top in range(k + 1)] if k < n else []
    capped_sum(sizes, n - k, cap, "colored partitions", complete=True)
    out = []
    for blocks in _set_partitions(n, k, v):
        non_minima = sorted(e for block in blocks for e in block[1:])
        marks = _partition_marks([[(e, None) for e in block] for block in blocks])
        options = [range(1, _budget(v, top, row) + 1) for top, row, _ in marks]
        for colors in product(*options):
            cmap = dict(zip(non_minima, colors))
            out.append(ColoredPartition(tuple(
                tuple((e, cmap.get(e)) for e in block) for block in blocks)))
    return out


def _set_partitions(n: int, k: int, v: WeightSpec):
    """Partitions of {0..n} into k + 1 blocks, listed in order of their minima,
    whose every non-minimum has a color under the v budgets.

    Element e joins an existing block, in creation order, or opens the next
    one.  Joining block i while o blocks are open makes e the (e + 1 - o)-th
    non-minimum, so its mark is (top o - 1, row i + 1), and the join is
    taken only where that row offers a color.  Every partition makes n - k
    joins and k opens: an element joins only while joins are left, and opens
    only while opens are left and the elements after it can still make the
    remaining joins, at some later count of open blocks that offers a color.
    """
    # joins[o]: the blocks an element may join while o are open; rows 2.. share one budget
    joins = [range(0)] * (k + 2)
    if k < n:
        first = _budget(v, 0, 1) > 0
        for o in range(1, k + 2):
            interior = o > 1 and _budget(v, o - 1, 2) > 0
            joins[o] = range(0 if first else 1, o if interior else int(first))
    # ahead[o]: a join is possible at o or at a later count of open blocks
    ahead = [False] * (k + 3)
    for o in range(k + 1, 0, -1):
        ahead[o] = ahead[o + 1] or bool(joins[o])
    block = [0] * (n + 1)  # block[e]: the block element e is in; 0 seeds block 0
    opened = [1] * (n + 2)  # opened[e]: blocks opened by elements 0..e-1
    untried = [None] * (n + 1)  # untried[e]: element e's remaining choices, in order
    e = 1
    while e:
        if e > n:
            blocks = [[] for _ in range(k + 1)]
            for element, index in enumerate(block):
                blocks[index].append(element)
            yield blocks
            e -= 1
            continue
        if untried[e] is None:
            o = opened[e]
            left = n - k - (e - o)  # joins still to make: elements 1..e-1 made e - o
            can_open = o <= k and (left == 0 or ahead[o + 1])
            untried[e] = chain(joins[o] if left else (), (o,) if can_open else ())
        choice = next(untried[e], None)
        if choice is None:  # back to the last element with a next choice
            untried[e] = None
            e -= 1
        else:
            block[e] = choice
            opened[e + 1] = opened[e] + (choice == opened[e])
            e += 1


def enumerate_perm(n: int, k: int, v: WeightSpec, cap: int = ENUMERATION_CAP) -> list:
    """All colored permutations of {0..n} with k+1 cycles under the v budgets.

    Objects are generated through their insertion encoding: the j-th smallest
    non-minimum a_j enters the word after letter position r in 1..a_j, colored
    as grid row r of a column with top a_j - 1.  Position, not final cycle
    membership, decides the budget; an insertion at r >= 2 can still land in
    the cycle of 0 once that cycle has grown.
    """
    if k < 0 or k > n:
        return []
    # a value with no placement is never a non-minimum; leaving it out of the
    # pool skips every combination that holds it, none of which has a coloring
    # (k = n has no non-minima, so no weight is read)
    sizes = {a: _placement_count(v, a - 1) for a in range(1, n + 1)} if k < n else {}
    capped_sum(sizes.values(), n - k, cap, "colored permutations")
    pool = [a for a, size in sizes.items() if size]
    out = []
    for non_minima in combinations(pool, n - k):
        minima = set(range(n + 1)).difference(non_minima)
        start = [(m, None) for m in sorted(minima)]
        for choice in product(*(_placements(v, a - 1) for a in non_minima)):
            word = start.copy()
            for a, (r, c) in zip(non_minima, choice):
                word.insert(r, (a, c))
            out.append(_word_to_cycles(word, minima))
    return out


# -- signed partitions ----------------------------------------------------------

@dataclass(frozen=True)
class SignedPartition:
    """Partition of {0, +-1, .., +-n} into a zero block and k doubled blocks.

    The first block contains 0 and never both copies of a value; every other
    block contains both copies of its absolute minimum and single copies
    otherwise.  Blocks are ordered by minimum absolute value, elements by
    (absolute value, positive first).
    """

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(block) for block in self.blocks))
        if not self.blocks or 0 not in self.blocks[0]:
            raise ValueError("the first block contains 0")
        seen = []
        minima = [0]
        for block in self.blocks:
            if any(type(e) is not int for e in block):
                raise ValueError(f"block elements are integers, got {block}")
            if list(block) != sorted(block, key=_signed_key):
                raise ValueError("block elements are ordered by absolute value")
            counts = {}
            for e in block:
                counts[abs(e)] = counts.get(abs(e), 0) + 1
            seen.extend(block)
            if block is self.blocks[0]:
                if any(c > 1 for a, c in counts.items() if a):
                    raise ValueError("the zero block holds at most one copy per value")
                continue
            m = min(abs(e) for e in block)
            minima.append(m)
            if counts.get(m) != 2:
                raise ValueError("a doubled block holds both copies of its minimum")
            if any(c > 1 for a, c in counts.items() if a != m):
                raise ValueError("only the block minimum appears in two copies")
        if minima != sorted(minima):
            raise ValueError("blocks are ordered by minimum absolute value")
        universe = sorted(seen, key=_signed_key)
        n = max(abs(e) for e in seen) if len(seen) > 1 else 0
        expected = [0] + [s * a for a in range(1, n + 1) for s in (1, -1)]
        if universe != sorted(expected, key=_signed_key):
            raise ValueError("ground set must be 0 and both copies of 1..n")

    def render(self) -> str:
        return "".join(
            "{" + ",".join(str(e) for e in block) + "}" for block in self.blocks)


def _signed_key(e: int) -> tuple:
    return (abs(e), 0 if e >= 0 else 1)


def enumerate_signed_partitions(n: int, k: int, cap: int = ENUMERATION_CAP) -> list:
    """All signed partitions; the two copies of a non-minimum land in
    different blocks, each no newer than the value's own."""
    if k < 0 or k > n:
        return []
    capped_sum([j * (j + 1) for j in range(k + 1)], n - k, cap, "signed partitions",
               complete=True)
    out = []
    for minima in combinations(range(1, n + 1), k):
        rest = [a for a in range(1, n + 1) if a not in minima]
        slots = []
        for a in rest:
            allowed = [0] + [j + 1 for j, m in enumerate(minima) if m < a]
            slots.append([(bp, bm) for bp in allowed for bm in allowed if bp != bm])
        for choice in product(*slots):
            blocks = [[0]] + [[m, -m] for m in minima]
            for a, (bp, bm) in zip(rest, choice):
                blocks[bp].append(a)
                blocks[bm].append(-a)
            out.append(SignedPartition(tuple(
                tuple(sorted(block, key=_signed_key)) for block in blocks)))
    return out
