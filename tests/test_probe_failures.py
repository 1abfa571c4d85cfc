"""The failure path of every identity probe, pinned by a golden report.

Six faults are planted for one `verify --suite all --nmax 6` run over the
whole catalog:

* a definition-method `StirlingTable.value(3, 1)` answers the true value
  plus 1, while recurrence-method tables stay exact;
* the first-kind Hankel matrix, which reads no table, has entry (2, 0)
  plus 1;
* `tableaux.enumerate_Td` drops its last tableau whenever it would return
  more than two;
* `stirling.first_kind` and `second_kind` answer the true value plus 1 at
  (2, 1) for a pair that `weights.swap` made, which only the duality
  identities read;
* `combinat.count_01v` answers the true count plus 1 on a shape wider than
  one column;
* `combinat.to_partition` and `to_permutation` move the largest colored
  element into the first block or cycle when it lies in another.

Together they break every identity, so the report reaches the
counterexample branch of each probe and each cell formatter: the golden file
pins which cell fails first and how the counterexample describes it.

After an intended change of a counterexample, rewrite the record and review
its diff:

    PYTHONPATH=src python3 tests/test_probe_failures.py
"""

import contextlib
import io
import pathlib

from wstirling import combinat, identities, matrices, stirling, tableaux
from wstirling.cli import main
from wstirling.weights import builtin

RECORD = pathlib.Path(__file__).resolve().parent / "golden" / "verify_all_nmax6_faults.txt"
COMMAND = ["verify", "--suite", "all", "--nmax", "6"]


def _moved_mark(groups) -> tuple:
    # the largest colored element joins the end of the first group; every other
    # element of the first group is smaller, so a sorted block stays sorted
    marks = [(e, i, c) for i, group in enumerate(groups) for e, c in group[1:]]
    e, i, c = max(marks, default=(0, 0, None))
    if not i:
        return groups
    return (groups[0] + ((e, c),),
            *(tuple(item for item in group if item[0] != e) for group in groups[1:]))


def plant_faults(setattr_) -> None:
    """Install the six faults through setattr_(owner, name, value)."""
    value, enumerate_Td = stirling.StirlingTable.value, tableaux.enumerate_Td
    first_hankel_rows = matrices._first_hankel_rows
    first_kind, second_kind = stirling.first_kind, stirling.second_kind
    count_01v = combinat.count_01v
    to_partition, to_permutation = combinat.to_partition, combinat.to_permutation

    def faulty_value(self, n, k):
        got = value(self, n, k)
        return got + 1 if self.method == "definition" and (n, k) == (3, 1) else got

    def faulty_first_hankel_rows(*args):
        rows = first_hankel_rows(*args)
        if len(rows) > 2:
            rows[2][0] += 1
        return rows

    def faulty_enumerate_Td(*args, **kwargs):
        found = enumerate_Td(*args, **kwargs)
        return found[:-1] if len(found) > 2 else found

    def swapped_read(read):
        def faulty_read(pair, alpha, beta, n, k):
            got = read(pair, alpha, beta, n, k)
            return got + 1 if (pair.label or "").startswith("swap(") and (n, k) == (2, 1) else got
        return faulty_read

    def faulty_count_01v(shape, pair):
        return count_01v(shape, pair) + (shape.width > 1)

    setattr_(stirling.StirlingTable, "value", faulty_value)
    setattr_(matrices, "_first_hankel_rows", faulty_first_hankel_rows)
    setattr_(tableaux, "enumerate_Td", faulty_enumerate_Td)
    setattr_(stirling, "first_kind", swapped_read(first_kind))
    setattr_(stirling, "second_kind", swapped_read(second_kind))
    setattr_(combinat, "count_01v", faulty_count_01v)
    setattr_(combinat, "to_partition",
             lambda t: combinat.ColoredPartition(_moved_mark(to_partition(t).blocks)))
    setattr_(combinat, "to_permutation",
             lambda t: combinat.ColoredPermutation(_moved_mark(to_permutation(t).cycles)))


def run() -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(COMMAND)
    return code, out.getvalue()


def test_every_probe_reports_its_counterexample(monkeypatch):
    plant_faults(monkeypatch.setattr)
    code, out = run()
    assert code == 1
    assert out == RECORD.read_text(encoding="utf-8")


def test_a_layer_refusal_is_the_counterexample(monkeypatch):
    # neither fault above sends tau a tableau outside its domain; a repeated
    # top does, and tau refuses it with DomainViolation
    monkeypatch.setattr(tableaux, "enumerate_Td", tableaux.enumerate_T)
    probe = identities.REGISTRY["tableaux/tau-bijection"].probe(None)
    assert probe(3, 1, 0, 0) == ("alpha=0 beta=0 n=3 k=1 BTableau([2 2 / 0 0]) is not a "
                                 "distinct-top tableau for (alpha=0, beta=0, r=2) with 2 columns")


def test_an_over_budget_color_is_the_counterexample(monkeypatch):
    # partitions enumerated one color past their budgets: from_partition refuses
    # the first with DomainViolation, which the probe reports for its cell
    enumerate_part = combinat.enumerate_part

    def recolored(*args, **kwargs):
        return [combinat.ColoredPartition(tuple(
            tuple((e, c if c is None else c + 1) for e, c in block) for block in p.blocks))
            for p in enumerate_part(*args, **kwargs)]

    monkeypatch.setattr(combinat, "enumerate_part", recolored)
    probe = identities.REGISTRY["combinatorial/partition-bijection"].probe(builtin("classical"))
    cells = [(n, k) for n in range(4) for k in range(n + 1)]
    assert identities.scan(cells, probe) == (
        4, 0, "n=2 k=1 color 2 exceeds the interior budget at 1")


def test_a_side_past_the_digit_limit_is_rendered():
    # str() refuses an int of more than 4300 digits; the counterexample writes it
    probe = identities._compare(lambda n: f"n={n}", lambda pair, n: 10 ** 5000 + n,
                                lambda pair, n: 0, ("got", "want"))(None)
    assert probe(1) == "n=1 got=1" + "0" * 4999 + "1 want=0"


def test_every_probe_is_a_comparison():
    # one probe shape: every registry probe is the one _compare builds
    for name, identity in identities.REGISTRY.items():
        assert (identity.probe(builtin("classical")).__qualname__
                == "_compare.<locals>.make_probe.<locals>.probe"), name


def test_a_round_trip_cell_has_one_sequence(monkeypatch):
    # reversing every leg's output breaks the round trips; the failing cell
    # reports the same sequence whichever cells the probe ran before
    apply = matrices.inverse_relation_apply
    monkeypatch.setattr(matrices, "inverse_relation_apply",
                        lambda *args: apply(*args)[::-1])
    probe = identities.REGISTRY["orthogonality/inverse-relation-round-trip"].probe(
        builtin("classical"))
    cell = ("alpha-forward", "alpha-backward", 3, 0, 0)
    first = probe(*cell)
    assert first.startswith("alpha=0 beta=0 legs=alpha-forward<->alpha-backward sequence=[")
    assert probe("beta-forward", "beta-backward", 3, 1, 1) is not None
    assert probe(*cell) == first


def regenerate() -> None:
    saved = []

    def setattr_(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    plant_faults(setattr_)
    try:
        code, out = run()
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
    RECORD.write_text(out, encoding="utf-8")
    print(f"exit {code}; wrote {out.count(chr(10))} lines, "
          f"{sum(line.startswith('FAIL ') for line in out.splitlines())} FAIL, "
          f"to {RECORD.name}")


if __name__ == "__main__":
    regenerate()
