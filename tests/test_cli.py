import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from helpers import reference_search_output
from hypothesis import given, settings
from hypothesis import strategies as st

from permutiples import (
    Params,
    brute_force_search,
    build_mother_graph,
    cli,
    enumerate_cycles,
    oracle,
    value,
)
from permutiples.cli import (
    EXIT_BUDGET,
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    _exit_code_for,
    main,
)
from permutiples.errors import (
    BudgetExceededError,
    CapExceededError,
    DigitAlignmentError,
    NotAnLWalkError,
    RejectedPairError,
    UnknownCycleIndexError,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def roundtrip(out):
    """JSON output must re-serialize byte for byte, so it is stable to diff."""
    payload = json.loads(out)
    assert json.dumps(payload, indent=2) + "\n" == out
    return payload


# === tables ===


def test_mother_table(capsys):
    code, out, err = run(capsys, "mother", "--n", "2", "--b", "4")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[0] == "mother graph for (n=2, b=4): 8 edges"
    assert "  0 -> 0" in lines
    assert "  3 -> 3" in lines
    assert len(lines) == 9


def test_cycles_table(capsys):
    code, out, _ = run(capsys, "cycles", "--n", "2", "--b", "4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "cycle inventory for (n=2, b=4): 6 cycles"
    assert lines[1] == "  0: (0,0)"
    assert lines[4] == "  3: (0,2)(2,1)(1,0)"


def test_check_table_accepted(capsys):
    code, out, _ = run(capsys, "check", "--n", "2", "--b", "4", "--cycles", "2,3")
    assert code == EXIT_OK
    assert out.startswith("cycle multiset {2: 1, 3: 1} over (n=2, b=4): 5 multiedges\n")
    assert "  verdict:            accepted" in out
    assert "  circuits:           3 label-distinct, 6 edge sequences from state 0" in out
    assert "  degree deltas:      0:+0 1:+0" in out


def test_check_table_rejected(capsys):
    code, out, _ = run(capsys, "check", "--n", "2", "--b", "4", "--cycles", "0,1")
    assert code == EXIT_OK
    assert "  strongly_connected: no" in out
    assert "  verdict:            rejected" in out
    assert "  circuits:           0 label-distinct, 0 edge sequences from state 0" in out


def test_strings_table(capsys):
    code, out, _ = run(capsys, "strings", "--n", "2", "--b", "4", "--cycles", "2,3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "strings for cycle multiset {2: 1, 3: 1} over (n=2, b=4): 3"
    assert len(lines) == 4
    assert any("594 = 2 * 297" in line for line in lines)
    assert any(line.lstrip().startswith("(2,1)(0,2)(1,2)(1,0)(2,1)") for line in lines)


def test_strings_list_by_ascending_value(capsys):
    # every union of at most two inventory cycles, both leading-zero modes:
    # JSON values strictly increase, and the table rows come in that order
    for b in range(3, 6):
        for n in range(2, b):
            k = len(enumerate_cycles(build_mother_graph(Params(n, b))))
            unions = [[i] for i in range(k)] + [[i, j] for i in range(k) for j in range(i, k)]
            for cycles in unions:
                for mode in ([], ["--forbid-leading-zero"]):
                    argv = ["strings", "--n", str(n), "--b", str(b), "--cycles"]
                    argv += [",".join(map(str, cycles)), *mode]
                    code, out, _ = run(capsys, *argv, "--format", "json")
                    assert code == EXIT_OK
                    strings = json.loads(out)["strings"]
                    values = [row["value"] for row in strings]
                    assert all(x < y for x, y in zip(values, values[1:])), argv
                    code, out, _ = run(capsys, *argv)
                    rows = out.splitlines()[1:]
                    assert len(rows) == len(strings), argv
                    for row, string in zip(rows, strings):
                        assert row.endswith(f" {string['value']} = {n} * {string['multiplicand']}")


def test_verify_table_true(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "4", "--b", "10",
        "--digits", "8,7,9,1,2", "--permuted", "2,1,9,7,8",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "claim: (8,7,9,1,2)_10 = 4*(2,1,9,7,8)_10"
    assert "  is_permutiple:      yes" in out


def test_verify_table_false(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--b", "4", "--digits", "1,2", "--permuted", "2,1"
    )
    assert code == EXIT_OK
    assert "  value_relation:     no" in out
    assert "  is_permutiple:      no" in out


def test_main_runs_without_an_int_to_str_limit(capsys, monkeypatch):
    # Python before 3.10.7 has neither function; main then leaves the limit alone.
    argv = ("verify", "--n", "4", "--b", "10", "--digits", "8,7,9,1,2", "--permuted", "2,1,9,7,8")
    usual = run(capsys, *argv)
    assert usual[0] == EXIT_OK and usual[2] == ""
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run(capsys, *argv) == usual


def test_search_table(capsys):
    code, out, _ = run(capsys, "search", "--n", "2", "--b", "4", "--len", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "3 permutiples with 3 base-4 digits for n=2"
    assert lines[1].startswith("  18 = 2 * 9")


def test_palintiples_table(capsys):
    code, out, _ = run(capsys, "palintiples", "--n", "4", "--b", "10", "--len", "4")
    assert code == EXIT_OK
    assert out == "1 palintiples with 4 base-10 digits for n=4\n"


def test_equiv_table(capsys):
    code, out, _ = run(capsys, "equiv", "--n", "2", "--b", "4", "--len", "4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "equivalence for (n=2, b=4), length 4: MATCH"
    assert lines[1] == "  pipeline: 13 values"
    assert lines[2] == "  scan:     13 values"


def test_multigraph_table(capsys):
    code, out, _ = run(capsys, "multigraph", "--n", "2", "--b", "4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "carry multigraph for (n=2, b=4): 8 multiedges, states [0, 1]"
    assert "  0 -(0,0)-> 0" in lines
    assert "  1 -(3,3)-> 1" in lines


def test_image_table(capsys):
    code, out, _ = run(capsys, "image", "--n", "2", "--b", "4", "--cycle", "3")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "image of cycle 3 for (n=2, b=4): 3 multiedges, states [0, 1]"


# === json ===


def test_mother_json(capsys):
    code, out, _ = run(capsys, "mother", "--n", "2", "--b", "4", "--format", "json")
    assert code == EXIT_OK
    payload = roundtrip(out)
    assert payload["params"] == {"n": 2, "b": 4}
    assert payload["edge_count"] == 8
    assert payload["edges"][0] == [0, 0]
    assert [0, 2] in payload["edges"]


def test_cycles_json(capsys):
    code, out, _ = run(capsys, "cycles", "--n", "2", "--b", "4", "--format", "json")
    assert code == EXIT_OK
    payload = roundtrip(out)
    assert payload["cycle_count"] == 6
    assert payload["cycles"][0] == {"index": 0, "length": 1, "edges": [[0, 0]]}
    assert payload["cycles"][3]["edges"] == [[0, 2], [2, 1], [1, 0]]


def test_multigraph_json(capsys):
    code, out, _ = run(capsys, "multigraph", "--n", "2", "--b", "4", "--format", "json")
    payload = roundtrip(out)
    assert payload["states"] == [0, 1]
    assert len(payload["multiedges"]) == 8
    assert all(row["copy"] == 0 for row in payload["multiedges"])
    assert {"from": 0, "to": 0, "label": [0, 0], "copy": 0} in payload["multiedges"]


def test_image_json_shows_copies(capsys):
    code, out, _ = run(
        capsys, "check", "--n", "2", "--b", "4", "--cycles", "3,3", "--format", "json"
    )
    payload = roundtrip(out)
    assert payload["cycles"] == [[3, 2]]
    assert payload["verdict"] is True
    assert payload["edge_sequences_from_zero"] == 48
    assert payload["label_distinct_circuits"] == 6
    assert payload["degree_deltas"] == [[0, 0], [1, 0]]
    code, out, _ = run(
        capsys, "image", "--n", "2", "--b", "4", "--cycle", "3", "--format", "json"
    )
    payload = roundtrip(out)
    assert payload["cycle"] == 3
    copies = [row["copy"] for row in payload["multiedges"]]
    assert copies == [0, 0, 0]


def test_strings_json(capsys):
    code, out, _ = run(
        capsys, "strings", "--n", "2", "--b", "4", "--cycles", "2,3", "--format", "json"
    )
    payload = roundtrip(out)
    assert payload["count"] == 3
    values = {row["value"] for row in payload["strings"]}
    assert values == {594, 330, 660}
    for row in payload["strings"]:
        assert row["value"] == 2 * row["multiplicand"]
        assert len(row["pairs"]) == 5


def test_strings_flags(capsys):
    code, out, _ = run(capsys, "strings", "--n", "2", "--b", "4", "--cycles", "0")
    assert json.loads(run(capsys, "strings", "--n", "2", "--b", "4", "--cycles", "0",
                          "--format", "json")[1])["count"] == 1
    code, out, _ = run(
        capsys,
        "strings", "--n", "2", "--b", "4", "--cycles", "0",
        "--forbid-leading-zero", "--format", "json",
    )
    assert json.loads(out)["count"] == 0
    code, out, _ = run(
        capsys,
        "strings", "--n", "2", "--b", "4", "--cycles", "3,3", "--format", "json",
    )
    assert json.loads(out)["count"] == 6


def test_dedup_is_not_an_option(capsys):
    # label-distinct strings already spell distinct values; no flag selects it
    code, out, err = run(capsys, "strings", "--n", "2", "--b", "4", "--cycles", "3,3",
                         "--dedup", "numeric")
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --dedup numeric" in err


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--n", "2", "--b", "4", "--len", "3", "--format", "json")
    payload = roundtrip(out)
    assert payload["count"] == 3
    assert [w["value"] for w in payload["witnesses"]] == [18, 36, 54]
    assert payload["witnesses"][0]["digits"] == [1, 0, 2]
    assert payload["witnesses"][0]["permuted"] == [0, 2, 1]


def test_palintiples_json(capsys):
    code, out, _ = run(
        capsys, "palintiples", "--n", "4", "--b", "10", "--len", "5", "--format", "json"
    )
    payload = roundtrip(out)
    assert payload == {"params": {"n": 4, "b": 10}, "length": 5, "count": 1}


def test_equiv_json(capsys):
    code, out, _ = run(capsys, "equiv", "--n", "3", "--b", "4", "--len", "4", "--format", "json")
    payload = roundtrip(out)
    assert payload["match"] is True
    assert payload["pipeline_count"] == payload["brute_count"] == 3
    assert payload["only_pipeline"] == [] and payload["only_brute"] == []


# One argv tail per subcommand, valid on every (n, b) below.
JSON_COMMANDS = {
    "mother": [],
    "cycles": [],
    "multigraph": [],
    "image": ["--cycle", "2"],
    "check": ["--cycles", "0,2,2"],
    "strings": ["--cycles", "0,1,2"],
    "verify": ["--digits", "1,2,0", "--permuted", "0,2,1"],
    "search": ["--len", "4"],
    "palintiples": ["--len", "4"],
    "equiv": ["--len", "4"],
}


@pytest.mark.parametrize("n, b", [(2, 4), (3, 5), (4, 10)])
def test_every_json_output_is_the_stdlib_dump(capsys, n, b):
    for command, tail in JSON_COMMANDS.items():
        code, out, err = run(capsys, command, "--n", str(n), "--b", str(b), *tail,
                             "--format", "json")
        assert (code, err) == (EXIT_OK, ""), command
        roundtrip(out)


# Every (n, b, L) with n < b <= 7 and b**L <= 300 000, plus (4, 10, 6) and
# two with digits of two characters: (2, 16, 4), 5 of its 9 hits with a
# digit >= 10, and (2, 11, 5), 16 of 46, at an odd length.
SEARCH_CASES = [
    (n, b, length)
    for b in range(3, 8)
    for n in range(2, b)
    for length in range(1, 7)
    if b**length <= 300_000
] + [(4, 10, 6), (2, 16, 4), (2, 11, 5)]


def test_search_matches_the_witness_rendering(capsys):
    # search prints from the scan's hits; the reference renders full witnesses
    for n, b, length in SEARCH_CASES:
        for fmt in ("table", "json"):
            argv = ("search", "--n", str(n), "--b", str(b), "--len", str(length),
                    "--format", fmt)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (EXIT_OK, ""), argv
            assert out == reference_search_output(Params(n, b), length, fmt), argv


@st.composite
def small_searches(draw):
    """(n, b, L) with b**L <= 50 000."""
    b = draw(st.integers(3, 40))
    length = draw(st.integers(1, max(k for k in range(1, 11) if b**k <= 50_000)))
    return draw(st.integers(2, b - 1)), b, length


@settings(max_examples=60, deadline=None)
@given(small_searches())
def test_search_json_is_the_dump_of_the_witnesses(case):
    n, b, length = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["search", "--n", str(n), "--b", str(b), "--len", str(length),
                     "--format", "json"])
    assert code == EXIT_OK
    assert out.getvalue() == reference_search_output(Params(n, b), length, "json")


def test_search_memo_holds_only_the_halves_of_its_hits(capsys, monkeypatch):
    memos = []

    class Recorded(cli._DigitText):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(cli, "_DigitText", Recorded)
    for n, b, length in [(2, 4, 8), (4, 10, 6), (2, 11, 5)]:
        memos.clear()
        code, out, _ = run(capsys, "search", "--n", str(n), "--b", str(b), "--len", str(length))
        assert code == EXIT_OK
        split = b ** (length // 2)
        halves = {
            (width, x)
            for w in brute_force_search(Params(n, b), length)
            for y in (value(w.digits), value(w.permuted))
            for width, x in zip((length - length // 2, length // 2), divmod(y, split))
        }
        held = {(memo.width, x) for memo in memos for x in memo}
        # one memo per half width, holding each distinct half value of the
        # hits once: 254, 275 and 88 entries, where the scan's tables hold
        # b**ceil(L/2) (and b**floor(L/2) at odd L): 256, 1 000 and 1 452
        widths = {length - length // 2, length // 2}
        assert len(memos) == len(widths)
        assert held == halves
        assert sum(map(len, memos)) == len(halves) < sum(b**width for width in widths)


def test_verbatim_json_is_written_unquoted():
    text = cli._Verbatim('[\n    "a"\n  ]')
    assert cli._json({"k": text}) == json.dumps({"k": ["a"]}, indent=2) + "\n"
    assert cli._json(["[]"]) == json.dumps(["[]"], indent=2) + "\n"


# Text that needs escaping: quotes, backslashes, control characters and
# non-ASCII, beyond the BMP and the line separators included.
CHARS = st.sampled_from(list('"\\\x00\x08\n\r\t\x1f\x7f\u00e9\u2028\U0001f600')) | st.characters()
TEXT = st.text(alphabet=CHARS, max_size=8)
# Past the default int-to-str limit of 4 300 digits, either sign.
HUGE = st.builds(
    lambda k, sign: sign * (10**k - 1), st.integers(4301, 4400), st.sampled_from([1, -1])
)
LEAVES = st.none() | st.booleans() | st.integers() | HUGE | TEXT | st.lists(st.integers())
PAYLOADS = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_json_writer_matches_stdlib(payload):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)  # as cli.main does
    try:
        assert cli._json(payload) == json.dumps(payload, indent=2) + "\n"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("payload", [1.5, (1, 2), {1: 2}, [set()], {"a": [1, 2.0]}, b"x"])
def test_json_writer_rejects_other_types(payload):
    with pytest.raises(TypeError):
        cli._json(payload)


# === dot ===


def test_mother_dot(capsys):
    code, out, _ = run(capsys, "mother", "--n", "2", "--b", "4", "--format", "dot")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "digraph mother_graph {"
    assert lines[-1] == "}"
    assert "  0 -> 2;" in lines


def test_multigraph_dot(capsys):
    code, out, _ = run(capsys, "multigraph", "--n", "2", "--b", "4", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph carry_machine {")
    assert "__start -> 0;" in out
    assert '  0 -> 0 [label="0,0"];' in out


def test_image_dot(capsys):
    code, out, _ = run(
        capsys, "image", "--n", "2", "--b", "4", "--cycle", "3", "--format", "dot"
    )
    assert code == EXIT_OK
    assert out.startswith("digraph cycle_image_3 {")


def test_dot_rejected_for_non_graph_commands(capsys):
    code, out, err = run(capsys, "search", "--n", "2", "--b", "4", "--len", "3",
                         "--format", "dot")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err and "DOT" in err


# === exit codes ===


def test_budget_exit_code(capsys):
    code, out, err = run(capsys, "palintiples", "--n", "2", "--b", "10", "--len", "9")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: scanning 9 base-10 digits needs 1000000000 candidates")
    # within the budget, the count is exact far beyond int64 products
    code, out, err = run(capsys, "palintiples", "--n", "4", "--b", "10", "--len", "19",
                         "--max-scan", str(10**20))
    assert code == EXIT_OK
    assert out == "21 palintiples with 19 base-10 digits for n=4\n"
    assert err == ""


def test_budget_past_its_bit_length_fails_at_once(capsys):
    # 10**100000 is neither computed nor printed
    code, out, err = run(capsys, "search", "--n", "2", "--b", "10", "--len", "100000")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "error: scanning 100000 base-10 digits needs 10**100000 candidates, " \
                  "budget is 10000000\n"
    assert len(err) < 200


def test_equiv_reports_a_mismatch(capsys, monkeypatch):
    # A scan that loses its first hit of (2,4,4) disagrees with the pipeline;
    # one with an extra hit disagrees the other way.  Both formats print the
    # report as on a match, and the run exits 4.
    real = oracle._scan_hits

    def drop_first(p, length):
        hits = real(p, length)
        next(hits)
        yield from hits

    def add_seven(p, length):
        yield from real(p, length)
        yield 7, 0

    argv = ("equiv", "--n", "2", "--b", "4", "--len", "4")
    monkeypatch.setattr(oracle, "_scan_hits", drop_first)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_DOMAIN, "")
    assert out == (
        "equivalence for (n=2, b=4), length 4: MISMATCH\n"
        "  pipeline: 13 values\n"
        "  scan:     12 values\n"
        "  only pipeline: 66\n"
    )
    code, out, err = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    assert (code, err) == (EXIT_DOMAIN, "")
    assert (report["match"], report["only_pipeline"], report["only_brute"]) == (False, [66], [])
    monkeypatch.setattr(oracle, "_scan_hits", add_seven)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_DOMAIN, "")
    assert out.splitlines()[0].endswith("MISMATCH")
    assert out.splitlines()[-1] == "  only scan:     7"


def test_equiv_reads_each_report_property_once(capsys, monkeypatch):
    # match, only_pipeline and only_brute each build sets of every value, so
    # the handler reads each at most once, in both formats and on a match
    # and a mismatch alike.
    reads = {}

    def counted(name):
        real = getattr(oracle.EquivalenceReport, name)

        def read(report):
            reads[name] = reads.get(name, 0) + 1
            return real.fget(report)

        return property(read)

    for name in ("match", "only_pipeline", "only_brute"):
        monkeypatch.setattr(oracle.EquivalenceReport, name, counted(name))
    real_scan = oracle._scan_hits
    for scan, code in ((real_scan, EXIT_OK), (lambda p, length: real_scan(p, 3), EXIT_DOMAIN)):
        monkeypatch.setattr(oracle, "_scan_hits", scan)
        for fmt in ("table", "json"):
            reads.clear()
            argv = ("equiv", "--n", "2", "--b", "4", "--len", "4", "--format", fmt)
            assert run(capsys, *argv)[0] == code
            assert reads and max(reads.values()) == 1, (fmt, reads)


def test_equiv_checks_the_scan_budget_first(capsys, monkeypatch):
    # 10**12 candidates: the run must fail before the cycle search and the sweep
    def no_cycles(*args, **kwargs):
        raise AssertionError("cycle search ran on an over-budget equiv")

    monkeypatch.setattr("permutiples.oracle._short_cycles", no_cycles)
    code, out, err = run(capsys, "equiv", "--n", "4", "--b", "10", "--len", "12")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: scanning 12 base-10 digits needs 1000000000000 candidates, " \
                  "budget is 10000000\n"
    # so does a length with no digits
    code, _, err = run(capsys, "equiv", "--n", "4", "--b", "10", "--len", "0")
    assert code == EXIT_USAGE
    assert err == "error: length must be positive, got 0\n"


def test_cap_exit_code(capsys):
    code, _, err = run(
        capsys,
        "strings", "--n", "2", "--b", "4", "--cycles", "3,3", "--max-strings", "2",
    )
    assert code == EXIT_BUDGET
    assert "error:" in err


def test_cap_fails_before_walking(capsys):
    # 12 copies each of cycles 2 and 3 of (2, 4) spell 1 692 365 881 260 600
    # label-distinct strings; the determinant count rejects them up front.
    cycles = ",".join(["2", "3"] * 12)
    code, out, err = run(
        capsys, "strings", "--n", "2", "--b", "4", "--cycles", cycles, "--max-strings", "100",
    )
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: more than 100 strings\n"


def test_count_flags_are_checked_where_parsed(capsys):
    # A count below 1 is a usage error naming the flag, ahead of the scan budget.
    cases = [
        (("equiv", "--n", "4", "--b", "10", "--len", "12", "--max-cycles", "0"),
         "argument --max-cycles: must be positive, got 0"),
        (("strings", "--n", "2", "--b", "4", "--cycles", "0", "--max-strings", "-1"),
         "argument --max-strings: must be positive, got -1"),
        (("cycles", "--n", "2", "--b", "4", "--max-cycles", "0"),
         "argument --max-cycles: must be positive, got 0"),
        (("cycles", "--n", "2", "--b", "4", "--max-cycles", "x"),
         "argument --max-cycles: invalid int value: 'x'"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.endswith(f"permutiples {argv[0]}: error: {message}\n")


def test_max_scan_below_one_is_a_usage_error(capsys):
    # a budget below 1 names the flag (exit 2); it is not an exceeded budget
    for command in ("search", "palintiples", "equiv"):
        for budget in ("0", "-5"):
            argv = (command, "--n", "2", "--b", "4", "--len", "3", "--max-scan", budget)
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            assert out == ""
            message = f"argument --max-scan: must be positive, got {budget}"
            assert err.endswith(f"permutiples {command}: error: {message}\n")
    code, out, _ = run(capsys, "search", "--n", "2", "--b", "4", "--len", "3", "--max-scan", "64")
    assert code == EXIT_OK
    assert out.startswith("3 permutiples with 3 base-4 digits for n=2\n")


LONG_LOOP = ",".join(["0"] * 5000)  # 5000 copies of the (0,0) self-loop of (2, 4)


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "permutiples", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )


def long_str(m):
    """str(m), even past the interpreter's int-to-str digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return str(m)
    sys.set_int_max_str_digits(0)
    try:
        return str(m)
    finally:
        sys.set_int_max_str_digits(limit)


def test_check_on_five_thousand_multiedges():
    proc = run_module("check", "--n", "2", "--b", "4", "--cycles", LONG_LOOP, "--format", "json")
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout, parse_int=str)
    assert payload["verdict"]
    assert payload["edge_sequences_from_zero"] == long_str(math.factorial(5000))
    assert payload["label_distinct_circuits"] == "1"
    proc = run_module("check", "--n", "2", "--b", "4", "--cycles", LONG_LOOP)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert f"1 label-distinct, {long_str(math.factorial(5000))} edge sequences" in proc.stdout


def test_strings_on_five_thousand_multiedges():
    proc = run_module("strings", "--n", "2", "--b", "4", "--cycles", LONG_LOOP)
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "strings for cycle multiset {0: 5000} over (n=2, b=4): 1"
    assert lines[1].startswith("  " + "(0,0)" * 5000 + "    ")
    assert lines[1].endswith("0 = 2 * 0")


def test_equiv_on_two_thousand_cycles():
    # (4, 11) has 2 117 inventory cycles; the multiset sweep must not recurse per cycle
    proc = run_module("equiv", "--n", "4", "--b", "11", "--len", "3")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[0] == "equivalence for (n=4, b=11), length 3: MATCH"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n,b,length", [(7, 10, 4), (8, 10, 5), (9, 10, 5), (5, 16, 4)])
def test_equiv_searches_only_the_cycles_that_fit(capsys, n, b, length):
    # Each whole inventory passes 50 000 cycles, but few have `length` edges
    code, out, err = run(capsys, "equiv", "--n", str(n), "--b", str(b), "--len", str(length))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0] == f"equivalence for (n={n}, b={b}), length {length}: MATCH"


def test_equiv_caps_the_cycles_that_fit(capsys):
    # (9, 10) has 15 958 cycles of at most 6 edges
    code, out, err = run(capsys, "equiv", "--n", "9", "--b", "10", "--len", "6")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "error: more than 10000 elementary cycles\n"


def test_equiv_on_a_huge_base_searches_to_the_length(capsys):
    # 1 100 start vertices, each searched two edges deep, not down the
    # hundreds-deep paths the whole inventory of (2, 1100) follows
    code, out, err = run(capsys, "equiv", "--n", "2", "--b", "1100", "--len", "2")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0] == "equivalence for (n=2, b=1100), length 2: MATCH"


def test_cycles_on_deep_paths_stop_at_the_cap():
    # The cycle search of (2, 1100), bounded at b = 1 100 edges, follows paths
    # hundreds of vertices deep before it passes the 10 000-cycle cap; it
    # must stop there, not recurse.
    proc = run_module("cycles", "--n", "2", "--b", "1100")
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: more than 10000 elementary cycles\n"
    assert "Traceback" not in proc.stderr
    assert "internal error" not in proc.stderr


def test_usage_exit_codes(capsys):
    assert run(capsys, "mother", "--n", "5", "--b", "4")[0] == EXIT_USAGE
    assert run(capsys, "image", "--n", "2", "--b", "4", "--cycle", "99")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--n", "2", "--b", "4",
               "--digits", "1,2,3", "--permuted", "1,2")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--n", "2", "--b", "4",
               "--digits", "1,x", "--permuted", "1,2")[0] == EXIT_USAGE
    assert run(capsys, "nonsense", "--n", "2", "--b", "4")[0] == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "permutiples" in out


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(args, p):
        raise RuntimeError("walker lost its place")

    monkeypatch.setattr(cli, "_handle_mother", broken)
    code, out, err = run(capsys, "mother", "--n", "2", "--b", "4")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: RuntimeError: walker lost its place\n"


def test_keyboard_interrupt_propagates(monkeypatch):
    def interrupted(args, p):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_handle_mother", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["mother", "--n", "2", "--b", "4"])


def test_main_builds_one_parser(capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    for _ in range(5):
        assert run(capsys, "mother", "--n", "2", "--b", "4")[0] == EXIT_OK
    assert len(calls) <= 1


def test_main_keeps_no_state_between_calls(capsys):
    argv = ("equiv", "--n", "2", "--b", "4", "--len", "8")
    code, out, _ = run(capsys, *argv, "--max-cycles", "1")
    assert code == EXIT_BUDGET
    assert out == ""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert err == ""
    assert out.splitlines() == [
        "equivalence for (n=2, b=4), length 8: MATCH",
        "  pipeline: 1701 values",
        "  scan:     1701 values",
    ]


def test_exit_code_mapping():
    assert _exit_code_for(BudgetExceededError("x")) == EXIT_BUDGET
    assert _exit_code_for(CapExceededError("x")) == EXIT_BUDGET
    assert _exit_code_for(NotAnLWalkError("x")) == EXIT_DOMAIN
    assert _exit_code_for(RejectedPairError("x")) == EXIT_DOMAIN
    assert _exit_code_for(DigitAlignmentError("x")) == EXIT_DOMAIN
    assert _exit_code_for(UnknownCycleIndexError("x")) == EXIT_USAGE
    assert _exit_code_for(ValueError("x")) == EXIT_USAGE


# === stability ===


def test_output_is_deterministic(capsys):
    first = run(capsys, "strings", "--n", "2", "--b", "4", "--cycles", "2,3",
                "--format", "json")
    second = run(capsys, "strings", "--n", "2", "--b", "4", "--cycles", "2,3",
                 "--format", "json")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "permutiples", "mother", "--n", "2", "--b", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("mother graph for (n=2, b=4): 8 edges")


def test_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, permutiples.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# === fuzzing ===

# Small edge values only: every example must finish in milliseconds, and
# `mother` has no budget, so huge bases stay out.
SMALL = st.sampled_from([-1, 0, 1]) | st.integers(2, 8)
LIMIT = st.sampled_from([-1, 0, 1]) | st.integers(2, 10**4)
MALFORMED = st.sampled_from(["", "1,,2", "x", "1.5"])


def int_list(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))
    )


CYCLES = MALFORMED | int_list(-1, 20)
DIGITS = MALFORMED | int_list(-1, 9)
LENGTH = st.integers(-1, 5)
# Each subcommand's own options; None marks a flag without a value.
OPTIONS = {
    "mother": {},
    "cycles": {"--max-cycles": LIMIT},
    "multigraph": {},
    "image": {"--cycle": st.integers(-1, 20), "--max-cycles": LIMIT},
    "check": {"--cycles": CYCLES, "--max-cycles": LIMIT},
    "strings": {
        "--cycles": CYCLES,
        "--max-cycles": LIMIT,
        "--max-strings": LIMIT,
        "--forbid-leading-zero": st.none(),
    },
    "verify": {"--digits": DIGITS, "--permuted": DIGITS},
    "search": {"--len": LENGTH, "--max-scan": LIMIT},
    "palintiples": {"--len": LENGTH, "--max-scan": LIMIT},
    "equiv": {"--len": LENGTH, "--max-scan": LIMIT, "--max-cycles": LIMIT},
}
REQUIRED = {"--cycle", "--cycles", "--digits", "--permuted", "--len"}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    b = draw(SMALL)
    n = draw(SMALL | st.just(b) | st.integers(2, max(2, b - 1)))
    fmt = draw(st.sampled_from(["table", "json", "dot"]))
    argv = [command, "--n", str(n), "--b", str(b), "--format", fmt]
    for flag, values in OPTIONS[command].items():
        if flag in REQUIRED or draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, str(value)]
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_cli_fuzz_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_BUDGET, EXIT_DOMAIN}, (argv, err.getvalue())
    for stream in (out.getvalue(), err.getvalue()):
        assert "Traceback" not in stream and "internal error:" not in stream, argv
