"""End-to-end tests of the command-line front end.

Everything drives main() in process and asserts on captured stdout/stderr,
including the documented exit-code contract (0 success, 1 identity failure,
2 usage error, 3 resource/cap error, 141 stdout closed) and byte determinism.
The tests of a closed stdout, of peak memory and of what each command
imports run fresh interpreters instead.
"""

import json
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap
import time

import pytest

from wstirling import matrices
from wstirling.cli import main
from wstirling.genfunc import b_stirling_by_series
from wstirling.ring import InexactDivision, RingValue, as_int, render
from wstirling.stirling import StirlingTable
from wstirling.weights import builtin

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_classical(capsys):
    code, out, err = run(capsys, "table", "--kind", "second",
                         "--weights", "builtin:classical", "--nmax", "4",
                         "--format", "csv")
    assert code == 0 and err == ""
    assert out == "1;0,1;0,1,1;0,1,3,1;0,1,7,6,1\n"


def test_table_nmax_zero_is_single_line(capsys):
    code, out, _ = run(capsys, "table", "--nmax", "0")
    assert code == 0
    assert out == "1\n"


def test_table_negative_nmax_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--nmax", "-3")
    assert code == 2
    assert "nonnegative" in err


def test_table_bfile_matches_independent_rows(capsys):
    code, out, _ = run(capsys, "table", "--kind", "second",
                       "--weights", "builtin:b-stirling", "--nmax", "6",
                       "--format", "bfile")
    assert code == 0
    expected = []
    index = 0
    for n in range(7):
        for k in range(n + 1):
            expected.append(f"{index} {as_int(b_stirling_by_series(n, k))}")
            index += 1
    assert out.splitlines() == expected


def test_table_bfile_rejects_symbolic_entries(capsys):
    code, _, err = run(capsys, "table", "--kind", "first",
                       "--weights", "builtin:jacobi", "--nmax", "3",
                       "--format", "bfile")
    assert code == 3
    assert "integer entries" in err


def test_table_json_shape(capsys):
    code, out, _ = run(capsys, "table", "--kind", "first",
                       "--weights", "builtin:classical", "--nmax", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["kind"] == "first"
    assert payload["params"]["label"] == "classical"
    assert payload["rows"] == [["1"], ["0", "1"], ["0", "1", "1"],
                               ["0", "2", "3", "1"]]


def test_table_output_is_byte_deterministic(capsys):
    args = ("table", "--kind", "second", "--weights", "builtin:pq-binomial",
            "--nmax", "5", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# The benchmark's table jobs, (family, kind, nmax), each at one offset pair
# inside its offset windows.  table builds the nested recurrence, so its csv
# is checked byte for byte against a definition table, the other path, at
# the sizes the benchmark times.
BENCHMARK_TABLES = (
    ("jacobi", "second", 32), ("jacobi", "first", 40),
    ("pq-binomial", "second", 26), ("pq-binomial", "first", 30),
    ("q-stirling", "second", 20), ("q-stirling", "first", 20),
    ("classical", "second", 44), ("classical", "first", 60),
    ("legendre", "second", 44), ("legendre", "first", 60),
)
BENCHMARK_OFFSETS = {"jacobi": (2, -3), "pq-binomial": (-2, -1), "q-stirling": (0, -2),
                     "classical": (1, -1), "legendre": (2, -2)}


@pytest.mark.parametrize("family, kind, nmax", BENCHMARK_TABLES)
def test_table_matches_the_definition_at_benchmark_sizes(capsys, family, kind, nmax):
    alpha, beta = BENCHMARK_OFFSETS[family]
    code, out, err = run(capsys, "table", "--format", "csv", "--kind", kind,
                         "--weights", f"builtin:{family}", "--alpha", str(alpha),
                         "--beta", str(beta), "--nmax", str(nmax))
    assert (code, err) == (0, "")
    table = StirlingTable(builtin(family), kind, alpha, beta, method="definition")
    # row by row, so that a failure names its row without diffing the whole text
    assert out.endswith("\n") and out[:-1].split(";") == [
        ",".join(map(render, table.row(n))) for n in range(nmax + 1)]


def test_help_returns_0(capsys):
    # argparse exits by raising SystemExit; main returns its code instead
    code, out, err = run(capsys, "table", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: wstirling table [-h]")


def test_unknown_weights_are_usage_errors(capsys):
    assert run(capsys, "table", "--weights", "builtin:nope", "--nmax", "2")[0] == 2
    assert run(capsys, "table", "--weights", "classical", "--nmax", "2")[0] == 2
    assert run(capsys, "table", "--weights", "@/no/such/file.json",
               "--nmax", "2")[0] == 2


def test_det_example(capsys):
    code, out, _ = run(capsys, "det", "--kind", "second", "--r", "1", "--s", "1",
                       "--weights", "builtin:classical")
    assert code == 0
    assert out == ("matrix (dim 2):\n"
                   "[ 1  1 ]\n"
                   "[ 1  3 ]\n"
                   "det=2\n"
                   "formula=2\n"
                   "EQUAL\n")


def test_huge_exponents_match_golden(capsys):
    cases = {
        "table_pq_binomial_alpha_1e6.txt": (
            "table", "--format", "csv", "--kind", "second", "--weights", "builtin:pq-binomial",
            "--alpha", "1000000", "--beta", "-1000000", "--nmax", "3"),
        "det_zeta_alpha_1e8.txt": (
            "det", "--kind", "second", "--r", "3", "--s", "1", "--weights", "builtin:zeta",
            "--alpha", "100000000"),
        "det_zeta_alpha_1e8_beta_-1e8.txt": (
            "det", "--kind", "second", "--r", "3", "--s", "1", "--weights", "builtin:zeta",
            "--alpha", "100000000", "--beta", "-100000000"),
    }
    for name, argv in cases.items():
        assert run(capsys, *argv) == (0, (GOLDEN / name).read_text(), ""), name


def test_exponent_past_the_range_is_a_resource_error(capsys):
    for argv in [
        ("det", "--kind", "second", "--r", "3", "--s", "1", "--weights", "builtin:zeta",
         "--alpha", "2000000000"),
        ("table", "--weights", "builtin:pq-binomial", "--alpha", str(2 ** 30 - 1),
         "--nmax", "2"),
        ("verify", "--suite", "recurrences", "--weights", "builtin:q-binomial",
         "--alpha-range", "2000000000:2000000000"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert err == "error: a product has an exponent outside [-2^30, 2^30)\n", argv


def test_term_budget_is_a_resource_error(capsys):
    # a q-integer weight at index j has |j| terms, so these products would walk
    # 9 * 10^10 term pairs; the budget stops the first before its loop starts,
    # at a positive offset and at its mirror
    for alpha in ("300000", "-300000"):
        start = time.monotonic()
        code, out, err = run(capsys, "table", "--kind", "second", "--weights",
                             "builtin:q-stirling", "--alpha", alpha, "--nmax", "2")
        assert time.monotonic() - start < 10, alpha  # time enough to build the three weights
        assert (code, out) == (3, ""), alpha
        assert err == ("error: a product of 300000-term and 300000-term values exceeds "
                       "the budget of 100000000 term pairs\n"), alpha


def test_integers_of_any_size_render(capsys, tmp_path):
    # with v = 10^1000 - 1, entry (5, 0) is v^5, past the 4300 digits str() gives an int
    v = 10 ** 1000 - 1
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"v": {"kind": "constant", "value": v},
                                "w": {"kind": "constant", "value": 1}}))
    weights = "@" + str(spec)
    for fmt in ("csv", "json", "bfile"):
        code, out, err = run(capsys, "table", "--kind", "first", "--weights", weights,
                             "--nmax", "5", "--format", fmt)
        assert (code, err) == (0, ""), fmt
        assert len(out) > 5000 * 2, fmt
    code, out, err = run(capsys, "det", "--kind", "first", "--r", "3", "--s", "2",
                         "--weights", weights)
    assert (code, err) == (0, "")
    assert out.endswith("\nEQUAL\n")


def test_colored_models_need_w_one(capsys):
    # b-stirling has w(i) = i; its colored partition and permutation counts
    # would disagree with the triangle, whose (3, 1) entries are 0
    for obj in ("partitions", "permutations"):
        code, out, err = run(capsys, "enumerate", "--object", obj, "--n", "3", "--k", "1",
                             "--weights", "builtin:b-stirling")
        assert (code, out) == (2, ""), obj
        assert "need a combinatorial pair with w = 1" in err


def test_ring_errors_do_not_escape(capsys, monkeypatch):
    # NonInvertibleSubstitution needs a non-unit image: the CLI only inverts
    # and substitutes monomials, here with negative exponents.
    for argv in [
        ("table", "--weights", "builtin:pq-binomial", "--alpha", "-3", "--beta", "-2",
         "--nmax", "4"),
        ("det", "--kind", "first", "--r", "3", "--s", "1", "--weights", "builtin:zeta",
         "--alpha", "-2"),
        ("verify", "--suite", "genfunc", "--weights", "builtin:pq-binomial", "--nmax", "4"),
    ]:
        assert run(capsys, *argv)[0] == 0, argv
    # InexactDivision comes only from exact_div.  Where a Gauss multiplier
    # does not exist, determinant turns to Bareiss elimination, whose
    # divisions are exact over this integral domain, so a forced one must
    # surface from determinant, not be worked around.
    matrix = matrices.hankel_matrix("second", 3, 1, 0, 0, builtin("jacobi"))

    def inexact(self, divisor):
        raise InexactDivision("forced")
    monkeypatch.setattr(RingValue, "exact_div", inexact)
    with pytest.raises(InexactDivision):
        matrices.determinant(matrix)


def test_det_symbolic_weights(capsys):
    code, out, _ = run(capsys, "det", "--kind", "first", "--r", "2", "--s", "1",
                       "--weights", "builtin:jacobi")
    assert code == 0
    assert out.rstrip().endswith("EQUAL")


def test_enumerate_signed_partitions_example(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "signed-partitions",
                       "--n", "2", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count=2"
    assert sorted(lines[:-1]) == ["{0,-2}{1,-1,2}", "{0,2}{1,-1,-2}"]


def test_enumerate_forced_singleton_column(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "T", "--r", "0",
                       "--s", "1", "--alpha", "0", "--beta", "0")
    assert code == 0
    assert out == "[0 / 0]\ncount=1\n"


def test_enumerate_zero_one(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "zero-one", "--tops", "1",
                       "--column-sum", "1", "--weights", "builtin:classical")
    assert code == 0
    assert out == "[1 / 0] above 2_1 below 1_1\ncount=1\n"


def test_enumerate_permutations_match_figure_notation(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "permutations",
                       "--n", "2", "--k", "1", "--weights", "builtin:classical")
    assert code == 0
    # v(0) = 0 forbids colored letters right after 0, leaving one permutation
    assert out == "(0)(1 2_1)\ncount=1\n"


def test_enumerate_cap_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "enumerate", "--object", "T", "--r", "6",
                       "--s", "6", "--cap", "10")
    assert code == 3
    assert err == "error: more than 10 tableaux\n"
    code, _, err = run(capsys, "enumerate", "--object", "partitions",
                       "--n", "5", "--k", "2", "--weights", "builtin:merris(2)",
                       "--cap", "3")
    assert code == 3


@pytest.mark.parametrize("argv, noun", [
    (("T", "--r", "1000000", "--s", "1000000"), "tableaux"),
    (("T", "--r", "100000", "--s", "100000"), "tableaux"),
    (("zero-one", "--tops", ",".join(["9"] * 5000), "--column-sum", "9"),
     "zero-one tableaux"),
], ids=["T-1000000", "T-100000", "zero-one-5000-columns"])
def test_enumeration_past_the_cap_is_refused_at_once(argv, noun):
    # each count has 4700 digits or more; C(2000000, 1000000) alone takes
    # seconds to compute, so the check must stop at the first partial count
    # past the cap
    assert_refused_in_a_fresh_process(("enumerate", "--object", *argv),
                                      f"more than 1000000 {noun}", seconds=1)


def test_enumerate_partitions_with_many_blocks(capsys):
    # 1501 elements would overflow the stack at one recursion level each, and
    # with k = n - 1 almost every join leaves too few elements to open the
    # missing blocks, so the generator must not explore such joins
    start = time.monotonic()
    code, out, err = run(capsys, "enumerate", "--object", "partitions",
                         "--n", "1500", "--k", "1500")
    assert (code, err) == (0, "")
    assert out.endswith("{1499}{1500}\ncount=1\n")
    assert time.monotonic() - start < 10
    assert_refused_in_a_fresh_process(
        ("enumerate", "--object", "partitions", "--n", "1500", "--k", "1499", "--cap", "10"),
        "more than 10 colored partitions", seconds=10)


@pytest.mark.parametrize("objects, n, k, weights", [
    ("partitions", "12", "6", "classical"),
    ("partitions", "14", "7", "classical"),
    ("partitions", "14", "7", "legendre"),
    ("permutations", "30", "15", "classical"),
    ("permutations", "8000", "4000", "classical"),
    ("partitions", "4000", "2000", "classical"),
])
def test_zero_budget_enumerations_refuse_at_once(objects, n, k, weights):
    # v(0) = 0 gives a join to block 0, or an insertion of 1, no colors; the
    # enumerators must skip those choices, not walk through millions of
    # uncolorable objects before the first one that counts toward the cap.
    # At n = 8000 the count's DP must stop at its first entry past the cap:
    # one that fills every entry first takes seconds.
    assert_refused_in_a_fresh_process(
        ("enumerate", "--object", objects, "--n", n, "--k", k, "--weights", f"builtin:{weights}",
         "--cap", "10"),
        f"more than 10 colored {objects}", seconds=1)


@pytest.mark.parametrize("weights", ["classical", "b-stirling"])
def test_enumerate_zero_one_checks_the_grid_height(capsys, weights):
    # b-stirling has no placement on this shape, so the height is checked
    # before any tableau is built, whatever the weights
    code, out, err = run(capsys, "enumerate", "--object", "zero-one", "--tops", "1",
                         "--column-sum", "1", "--rows", "5", "--weights", f"builtin:{weights}")
    assert (code, out, err) == (2, "", "error: grid height must equal column sum + 2\n")


@pytest.mark.parametrize("argv, noun", [
    (("T", "--r", "3", "--s", "0"), "tableaux"),
    (("Td", "--r", "3", "--s", "0"), "tableaux"),
    (("zero-one", "--tops", "1", "--column-sum", "1"), "zero-one tableaux"),
    (("partitions", "--n", "3", "--k", "1"), "colored partitions"),
    (("permutations", "--n", "3", "--k", "1"), "colored permutations"),
    (("signed-partitions", "--n", "2", "--k", "1"), "signed partitions"),
], ids=["T", "Td", "zero-one", "partitions", "permutations", "signed-partitions"])
def test_cap_zero_refuses_every_family(capsys, argv, noun):
    # each of these has at least one object, the empty tableau at s = 0 too
    code, out, err = run(capsys, "enumerate", "--object", *argv, "--cap", "0")
    assert (code, out, err) == (3, "", f"error: more than 0 {noun}\n")


def assert_refused_in_a_fresh_process(argv, message, seconds):
    # The child runs main(argv) with its address space limited to 1 GiB, so a
    # regression fails fast with a MemoryError, which main reports as "out of
    # memory", not by enumerating the family inside pytest.  VmHWM is the peak
    # RSS since exec; ru_maxrss would count this process's.
    script = f"""
        import json, resource, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from wstirling.cli import main
        start = time.monotonic()
        code = main([*{argv!r}])
        with open("/proc/self/status", encoding="ascii") as status:
            peak_kb = int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
        print(json.dumps([code, time.monotonic() - start, peak_kb]))
    """
    done = fresh_python("-c", textwrap.dedent(script))
    assert (done.returncode, done.stderr) == (0, f"error: {message}\n")
    code, elapsed, peak_kb = json.loads(done.stdout)
    assert code == 3 and elapsed < seconds and peak_kb < 64 * 1024


@pytest.mark.parametrize("argv, noun", [
    (("zero-one", "--tops", "1", "--column-sum", "1"), "zero-one tableaux"),
    (("permutations", "--n", "2", "--k", "1"), "colored permutations"),
], ids=["zero-one", "permutations"])
def test_huge_budgets_are_refused_before_any_placement_list(argv, noun):
    # v(0) = 10^9 colors in one placement list: the cap must be decided from
    # the list sizes, so the child is refused in a few MB
    assert_refused_in_a_fresh_process(
        ("enumerate", "--object", *argv, "--weights", "builtin:noncentral(1000000000)"),
        f"more than 1000000 {noun}", seconds=2)


@pytest.mark.parametrize("argv, message", [
    (("permutations", "--n", "2", "--k", "1", "--weights", "builtin:noncentral(1000000)"),
     "more than 1000000 colored permutations"),
    (("partitions", "--n", "2", "--k", "1", "--weights", "builtin:noncentral(1000000)"),
     "more than 1000000 colored partitions"),
    (("partitions", "--n", "30", "--k", "15"), "more than 1000000 colored partitions"),
    (("signed-partitions", "--n", "2000", "--k", "1000", "--cap", "10"),
     "more than 10 signed partitions"),
], ids=["permutations-noncentral", "partitions-noncentral", "partitions-30-15",
        "signed-partitions-2000-1000"])
def test_refusals_that_need_the_whole_count(argv, message):
    # the family is past the cap, but its first skeleton is not (10^6 objects
    # in the first two), so the count must be decided before the first
    # object, not tallied from the objects already built
    assert_refused_in_a_fresh_process(("enumerate", "--object", *argv), message, seconds=2)


def test_out_of_memory_is_a_resource_error():
    # the 3 * 10^9 alpha offsets do not fit in the child's 1 GiB: exit 3 with
    # one line on stderr and nothing on stdout, not a MemoryError traceback
    assert_refused_in_a_fresh_process(
        ("verify", "--suite", "genfunc", "--nmax", "1", "--alpha-range=0:3000000000"),
        "out of memory", seconds=2)


def test_a_catalog_sweep_holds_one_pairs_tables_at_a_time():
    # verify releases the shared tables each time it moves on to another weight
    # pair, so its peak RSS grows little past the import: 2.3 MB, against 8.6 MB
    # when every pair's tables stayed.  VmHWM is the peak since exec; ru_maxrss
    # would start from this process's peak, which a large pytest run exceeds.
    script = """
        import contextlib, json, os
        import wstirling.identities
        from wstirling.cli import main

        def peak_kb():
            with open("/proc/self/status", encoding="ascii") as status:
                return int(next(line.split()[1] for line in status
                                if line.startswith("VmHWM:")))
        start = peak_kb()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(["verify", "--suite", "all", "--nmax", "6"])
        print(json.dumps([code, peak_kb() - start]))
    """
    done = fresh_python("-c", textwrap.dedent(script))
    assert done.stderr == ""
    code, growth_kb = json.loads(done.stdout)
    assert code == 0 and growth_kb <= 5 * 1024, growth_kb


def test_closed_stdout_exits_141_quietly():
    # 18564 tableaux, far more than a pipe holds, so the child is still
    # writing when the reader closes its end
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "wstirling.cli", "enumerate", "--object", "T",
            "--r", "12", "--s", "6"]
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        assert child.stdout.readline() == b"[12 12 12 12 12 12 / 0 0 0 0 0 0]\n"
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=60) == 141


def test_enumerate_negative_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--object", "partitions",
                         "--n", "3", "--k", "1", "--cap", "-5")
    assert code == 2 and out == ""
    assert "--cap must be nonnegative" in err


def test_enumerate_symbolic_weights_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--object", "partitions",
                       "--n", "3", "--k", "1", "--weights", "builtin:jacobi")
    assert code == 2


def test_enumerate_missing_flags(capsys):
    code, _, err = run(capsys, "enumerate", "--object", "partitions", "--n", "3")
    assert code == 2
    assert "--k" in err


def test_verify_negative_nmax_is_usage_error(capsys):
    assert run(capsys, "verify", "--suite", "lu", "--nmax", "-1")[0] == 2


def test_verify_bad_range_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "lu", "--alpha-range", "2")
    assert code == 2
    assert "LO:HI" in err


def test_verify_single_suite_classical(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "recurrences",
                       "--weights", "builtin:classical", "--nmax", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("verify: suite=recurrences")
    assert all(line.startswith("PASS ") for line in lines[1:-1])
    assert lines[-1].startswith("result: 9 identities, 9 passed, 0 failed")


def test_verify_q_weights_report_skips(capsys):
    # q-integers are total, so a table weight with no default is what leaves
    # every cell of an identity undefined
    code, out, _ = run(capsys, "verify", "--suite", "orthogonality", "--weights",
                       "@" + str(GOLDEN / "specs" / "table_no_default.json"), "--nmax", "4")
    assert code == 0
    assert "skipped=" in out
    assert "SKIP orthogonality/inverse-pair-alpha" in out


def test_verify_output_is_byte_deterministic(capsys):
    args = ("verify", "--suite", "orthogonality", "--weights",
            "builtin:b-stirling", "--nmax", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_corrupted_table_weights_fail_with_counterexample(capsys, tmp_path):
    spec = tmp_path / "corrupt.json"
    spec.write_text(json.dumps({
        "v": {"kind": "table", "values": {"0": 1, "1": 3, "2": 2}, "default": 1},
        "w": {"kind": "constant", "value": 1},
    }))
    code, out, _ = run(capsys, "verify", "--suite", "combinatorial",
                       "--weights", "@" + str(spec), "--nmax", "4")
    assert code == 1
    assert "FAIL combinatorial/zero-one-counts" in out
    assert "counterexample:" in out
    assert "result:" in out.splitlines()[-1]


def test_verify_skips_table_weights_without_default(capsys, tmp_path):
    # a table weight with no default is undefined off its value map; every
    # suite, the orthogonality delta sums included, must skip those cells
    spec = tmp_path / "partial.json"
    spec.write_text(json.dumps({
        "v": {"kind": "table", "values": {"0": 0, "1": 1, "2": 2, "3": 3, "4": 4}},
        "w": {"kind": "constant", "value": 1},
    }))
    code, out, err = run(capsys, "verify", "--suite", "all", "--nmax", "4",
                         "--weights", "@" + str(spec))
    assert code == 0 and err == ""
    delta = next(line for line in out.splitlines()
                 if line.startswith("PASS orthogonality/delta-sums "))
    assert int(delta.rsplit("skipped=", 1)[1]) > 0
    assert out.splitlines()[-1] == "result: 33 identities, 32 passed, 0 failed, 1 skipped"


def test_verify_malformed_spec_is_usage_error(capsys, tmp_path):
    one = {"kind": "constant", "value": 1}
    malformed = ['{"v": {"kind": "bogus"}}'] + [json.dumps({"v": v, "w": one}) for v in [
        {"kind": "bogus"},
        {"kind": "table", "values": [1, 2]},
        {"kind": "constant", "value": 1, "offset": 1.7},
        {"kind": "oeis-T", "row": 2.5},
        {"kind": "product-shifted", "shifts": [0, 1.5]},
        {"kind": "constant", "value": "p^3000000000"},
        {"kind": "polynomial", "coefficients": "z1"},
        {"kind": "polynomial", "coefficients": {"0": 1, "1": 2}},
        {"kind": "table", "values": {"1_0": 1}, "default": 1},
        {"kind": "table", "values": {"0": True}, "default": 1},
    ]]
    spec = tmp_path / "bad.json"
    for text in malformed:
        spec.write_text(text)
        code, _, err = run(capsys, "verify", "--suite", "lu",
                           "--weights", "@" + str(spec))
        assert code == 2, text
        assert "invalid weight spec" in err, text


@pytest.mark.parametrize("content, message", [
    (b'\xff\xfe{"v": {}}', "cannot read weight spec {path}: 'utf-8' codec can't decode"),
    (b"[" * 200000 + b"]" * 200000, "invalid weight spec {path}: maximum recursion depth"),
], ids=["not-utf-8", "nested-200000-deep"])
def test_undecodable_spec_is_usage_error(capsys, tmp_path, content, message):
    spec = tmp_path / "spec.json"
    spec.write_bytes(content)
    code, out, err = run(capsys, "table", "--nmax", "2", "--weights", "@" + str(spec))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=spec)) and err.count("\n") == 1


def test_verify_all_on_one_small_weight(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all",
                       "--weights", "builtin:classical", "--nmax", "4")
    assert code == 0
    assert "0 failed" in out.splitlines()[-1]


README = pathlib.Path(__file__).parent.parent / "README.md"


def readme_blocks(language):
    text = README.read_text(encoding="utf-8")
    return [block.split("```", 1)[0] for block in text.split(f"```{language}\n")[1:]]


def readme_examples():
    """(command, expected stdout) for each `$ wstirling ...` block in README.md
    whose output is shown in full, that is, without an elision `...`."""
    for block in readme_blocks("sh"):
        command, _, output = block.partition("\n")
        if command.startswith("$ wstirling ") and "..." not in output:
            yield command[len("$ wstirling "):], output


def test_readme_examples(capsys):
    examples = list(readme_examples())
    assert len(examples) == 4
    for command, expected in examples:
        code, out, _ = run(capsys, *shlex.split(command))
        assert code == 0, command
        assert out == expected, command


def test_readme_python_examples(capsys):
    # each block runs on its own; every `print(...)  # expected` line prints
    # one line, and the comment is that line
    blocks = readme_blocks("python")
    assert len(blocks) == 2
    for block in blocks:
        expected = [line.partition("#")[2].strip()
                    for line in block.splitlines() if line.startswith("print(")]
        assert expected and all(expected), block
        exec(block, {})
        assert capsys.readouterr().out.splitlines() == expected, block


# -- what each command imports ------------------------------------------------------
#
# These run in fresh interpreters: in this process an earlier test may already
# have imported every module, which would hide a missing or eager import.

def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_commands_import_only_what_they_use():
    script = """
        import json, sys
        from wstirling import cli
        lazy = ("identities", "matrices", "combinat", "tableaux", "genfunc")
        loaded = lambda: [m for m in lazy if "wstirling." + m in sys.modules]
        stages = [loaded()]
        cli.main(["table", "--nmax", "3"])
        stages.append(loaded())
        cli.main(["det", "--r", "1", "--s", "0"])
        stages.append(loaded())
        print(json.dumps(stages))
    """
    done = fresh_python("-c", textwrap.dedent(script))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[], [], ["matrices"]]


@pytest.mark.parametrize("command", [
    "verify --suite lu --nmax 4 --weights builtin:q-stirling",
    "enumerate --object partitions --n 3 --k 1 --weights builtin:classical",
    "enumerate --object T --r 100000 --s 100000",
    "det --kind second --r 2 --s 1 --weights builtin:classical --alpha 0 --beta 0",
])
def test_fresh_process_matches_corpus(command):
    record = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))
    want = next(entry for entry in record if entry["command"] == command)
    done = fresh_python("-m", "wstirling.cli", *shlex.split(command))
    assert (done.returncode, done.stdout, done.stderr) == (
        want["code"], want["stdout"], want["stderr"])


def test_moved_constants_have_one_home():
    from wstirling import cli, combinat, identities, ring, tableaux

    suites = tuple(dict.fromkeys(i.suite for i in identities.REGISTRY.values()))
    assert cli.SUITES == suites
    assert not hasattr(identities, "SUITES")
    assert ring.ENUMERATION_CAP == 10 ** 6
    assert tableaux.EnumerationCapExceeded is ring.EnumerationCapExceeded
    assert not hasattr(combinat, "EnumerationCapExceeded")


# perfbench/child.py prints an api job's rows with v.render(), and its tracer
# wraps RingValue.render, .exact_div and .coerce by name: integer values must
# not reach the one or stop the other.
@pytest.mark.parametrize("job, trace, argv", [
    ({"mode": "api", "weights": ["builtin:classical"], "kind": "first", "alpha": 1, "beta": -1,
      "nmax": 9}, "0",
     ["table", "--format", "csv", "--kind", "first", "--weights", "builtin:classical",
      "--alpha", "1", "--beta", "-1", "--nmax", "9"]),
    ({"mode": "cli", "weights": ["builtin:classical"]}, "1",
     ["det", "--kind", "second", "--r", "3", "--s", "1", "--weights", "builtin:classical"]),
], ids=["api table", "traced det"])
def test_benchmark_child_prints_what_the_cli_prints(job, trace, argv, tmp_path):
    done = fresh_python(str(ROOT / "perfbench" / "child.py"), str(ROOT / "src"),
                        str(tmp_path / "record.json"), trace,
                        json.dumps(dict(job, id="job", argv=argv)))
    want = fresh_python("-m", "wstirling.cli", *argv)
    assert (want.returncode, done.returncode) == (0, 0), done.stderr
    assert done.stdout == want.stdout


# The benchmark's tracer (perfbench/tracer.py) finds the names it wraps with
# getattr, so a renamed or deleted function stops its traced child outright.
# A classical table multiplies no RingValue, so that job counts weight
# evaluations; the others still multiply RingValues.
@pytest.mark.parametrize("job,counter", [
    ({"mode": "cli", "weights": ["builtin:classical"], "argv": [
        "table", "--format", "csv", "--kind", "second", "--weights", "builtin:classical",
        "--nmax", "6"]}, "weights.eval"),
    ({"mode": "api", "weights": ["builtin:jacobi"], "kind": "first", "alpha": 1, "beta": 0,
      "nmax": 6}, "ring.mul"),
    ({"mode": "cli", "weights": ["builtin:q-stirling"], "argv": [
        "det", "--kind", "second", "--r", "3", "--s", "1", "--weights", "builtin:q-stirling"]},
     "ring.mul"),
    ({"mode": "cli", "weights": "catalog", "argv": ["verify", "--suite", "tableaux", "--nmax", "3"]},
     "ring.mul"),
], ids=["table", "api table", "det", "verify"])
def test_traced_benchmark_child_runs(job, counter, tmp_path):
    record = tmp_path / "record.json"
    done = fresh_python(str(ROOT / "perfbench" / "child.py"), str(ROOT / "src"), str(record),
                        "1", json.dumps(dict(job, id="job")))
    assert done.returncode == 0, done.stderr
    assert json.loads(record.read_text(encoding="utf-8"))["trace"]["calls"][counter] > 0
