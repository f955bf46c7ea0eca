"""Command line front end: every pipeline stage, as table, JSON, or DOT."""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from .digits import DigitVec, Params, PermutipleWitness, value, verify_witness
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DigitAlignmentError,
    NotAnLWalkError,
    PermutipleError,
    RejectedPairError,
    UnknownCycleIndexError,
)
from .euler import (
    DEFAULT_MAX_STRINGS,
    EnumerationOptions,
    condition_report,
    count_circuits,
    enumerate_strings,
)
from .mothergraph import (
    DEFAULT_MAX_CYCLES,
    build_mother_graph,
    enumerate_cycles,
    graph_to_dot,
)
from .oracle import (
    DEFAULT_MAX_SCAN,
    _check_budget,
    _scan_hits,
    equivalence_check,
    palintiple_count,
)
from .statemachine import (
    CycleMultiset,
    build_hs_multigraph,
    multigraph_to_dot,
    string_to_witness,
    union_images,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DOMAIN = 4

# The acceptance conditions check reports flag by flag.
_CONDITIONS = ("contains_zero", "strongly_connected", "balanced")


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (BudgetExceededError, CapExceededError)):
        return EXIT_BUDGET
    if isinstance(exc, (NotAnLWalkError, RejectedPairError, DigitAlignmentError)):
        return EXIT_DOMAIN
    return EXIT_USAGE


class _Verbatim(str):
    """JSON text that _encode writes unquoted, as it stands."""


class _Mismatch(str):
    """equiv's output when the pipeline and the scan disagree: main prints
    it as usual and exits EXIT_DOMAIN."""


def _encode(obj, indent: str, out: list[str]) -> None:
    """Append obj's text, as json.dumps(obj, indent=2) writes it at nesting
    `indent`, to out in pieces.

    Only the types the subcommands emit are written: dict (str keys),
    list, str, int, bool and None.  Anything else raises TypeError.  A
    _Verbatim string is already JSON text laid out for its place in the
    tree, and is written as it stands.  Nothing is copied on the way up:
    the output's one copy is the join in _json.
    """
    if isinstance(obj, str):
        out.append(obj if type(obj) is _Verbatim else _quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif not isinstance(obj, (list, dict)):
        raise TypeError(f"{type(obj).__name__} is not written as JSON")
    elif not obj:
        out.append("[]" if isinstance(obj, list) else "{}")
    else:
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(obj, dict):
            out.append("{\n" + inner)
            for k, v in obj.items():
                out.append(_quote(k) + ": ")
                _encode(v, inner, out)
                out.append(sep)
            out[-1] = f"\n{indent}}}"  # the last separator closes the object
        elif all(type(x) is int for x in obj):
            out.append(f"[\n{inner}{sep.join(map(int.__repr__, obj))}\n{indent}]")
        else:
            out.append("[\n" + inner)
            for x in obj:
                _encode(x, inner, out)
                out.append(sep)
            out[-1] = f"\n{indent}]"


def _json(payload) -> str:
    """payload as json.dumps(payload, indent=2) writes it, plus a newline."""
    out: list[str] = []
    _encode(payload, "", out)
    out.append("\n")
    return "".join(out)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _row(name: str, text: str) -> str:
    return f"  {name + ':':20}{text}"


def _flag_rows(flags: dict) -> list[str]:
    return [_row(name, _yesno(flag)) for name, flag in flags.items()]


def _params_payload(p: Params) -> dict:
    return {"n": p.n, "b": p.b}


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _multigraph_payload(g) -> dict:
    rows = []
    occurrence: dict = {}
    for e in g.multiedges:
        copy = occurrence.get(e, 0)
        occurrence[e] = copy + 1
        rows.append(
            {"from": e.c1, "to": e.c2, "label": [e.label.d1, e.label.d2], "copy": copy}
        )
    return {
        "params": _params_payload(g.params),
        "states": list(g.active_states()),
        "multiedges": rows,
    }


def _multigraph_table(g, heading: str) -> str:
    lines = [f"{heading}: {len(g.multiedges)} multiedges, states {list(g.active_states())}"]
    for e in g.multiedges:
        lines.append(f"  {e.c1} -({e.label.d1},{e.label.d2})-> {e.c2}")
    return "\n".join(lines) + "\n"


def _witness_payload(w: PermutipleWitness) -> dict:
    return {
        "digits": list(w.digits.msd),
        "permuted": list(w.permuted.msd),
        "value": value(w.digits),
        "multiplicand": value(w.permuted),
    }


def _inventory(args, p: Params):
    return enumerate_cycles(build_mother_graph(p), max_cycles=args.max_cycles)


def _handle_mother(args, p: Params) -> str:
    g = build_mother_graph(p)
    if args.format == "dot":
        return graph_to_dot(g, name="mother_graph")
    if args.format == "json":
        return _json(
            {
                "params": _params_payload(p),
                "edge_count": len(g.edges),
                "edges": [[e.d1, e.d2] for e in g.edges],
            }
        )
    lines = [f"mother graph for {p}: {len(g.edges)} edges"]
    lines += [f"  {e.d1} -> {e.d2}" for e in g.edges]
    return "\n".join(lines) + "\n"


def _handle_cycles(args, p: Params) -> str:
    inventory = _inventory(args, p)
    if args.format == "json":
        return _json(
            {
                "params": _params_payload(p),
                "cycle_count": len(inventory),
                "cycles": [
                    {"index": i, "length": len(c.edges), "edges": [[e.d1, e.d2] for e in c.edges]}
                    for i, c in enumerate(inventory)
                ],
            }
        )
    lines = [f"cycle inventory for {p}: {len(inventory)} cycles"]
    lines += [f"  {i}: {c}" for i, c in enumerate(inventory)]
    return "\n".join(lines) + "\n"


def _handle_multigraph(args, p: Params) -> str:
    g = build_hs_multigraph(p)
    if args.format == "dot":
        return multigraph_to_dot(g)
    if args.format == "json":
        return _json(_multigraph_payload(g))
    return _multigraph_table(g, f"carry multigraph for {p}")


def _handle_image(args, p: Params) -> str:
    inventory = _inventory(args, p)
    g = union_images(CycleMultiset.from_indices([args.cycle]), p, inventory)
    if args.format == "dot":
        return multigraph_to_dot(g, name=f"cycle_image_{args.cycle}")
    if args.format == "json":
        payload = _multigraph_payload(g)
        payload["cycle"] = args.cycle
        return _json(payload)
    return _multigraph_table(g, f"image of cycle {args.cycle} for {p}")


def _cycle_multiset(args) -> CycleMultiset:
    return CycleMultiset.from_indices(_parse_int_list(args.cycles, "--cycles"))


def _handle_check(args, p: Params) -> str:
    ms = _cycle_multiset(args)
    g = union_images(ms, p, _inventory(args, p))
    report = condition_report(g)
    conditions = {name: getattr(report, name) for name in _CONDITIONS}
    counts = count_circuits(g)
    if args.format == "json":
        return _json(
            {
                "params": _params_payload(p),
                "cycles": [[i, m] for i, m in ms.items()],
                **conditions,
                "degree_deltas": [[s, d] for s, d in report.degree_deltas],
                "verdict": report.verdict,
                "edge_sequences_from_zero": counts.edge_sequences_from_zero,
                "label_distinct_circuits": counts.label_distinct,
            }
        )
    deltas = " ".join(f"{s}:{d:+d}" for s, d in report.degree_deltas)
    lines = [
        f"cycle multiset {ms} over {p}: {len(g.multiedges)} multiedges",
        *_flag_rows(conditions),
        _row("degree deltas", deltas or "(none)"),
        _row("verdict", "accepted" if report.verdict else "rejected"),
        _row(
            "circuits",
            f"{counts.label_distinct} label-distinct, "
            f"{counts.edge_sequences_from_zero} edge sequences from state 0",
        ),
    ]
    return "\n".join(lines) + "\n"


def _handle_strings(args, p: Params) -> str:
    ms = _cycle_multiset(args)
    g = union_images(ms, p, _inventory(args, p))
    strings = enumerate_strings(g, EnumerationOptions(args.forbid_leading_zero, args.max_strings))
    witnesses = [string_to_witness(s, p) for s in strings]
    if args.format == "json":
        return _json(
            {
                "params": _params_payload(p),
                "cycles": [[i, m] for i, m in ms.items()],
                "count": len(strings),
                "strings": [
                    dict(pairs=[[e.d1, e.d2] for e in s.pairs], **_witness_payload(w))
                    for s, w in zip(strings, witnesses)
                ],
            }
        )
    lines = [f"strings for cycle multiset {ms} over {p}: {len(strings)}"]
    for s, w in zip(strings, witnesses):
        lines.append(f"  {s}    {w}    {value(w.digits)} = {p.n} * {value(w.permuted)}")
    return "\n".join(lines) + "\n"


def _handle_verify(args, p: Params) -> str:
    digits = DigitVec.from_msd(_parse_int_list(args.digits, "--digits"), p.b)
    permuted = DigitVec.from_msd(_parse_int_list(args.permuted, "--permuted"), p.b)
    w = PermutipleWitness.build(p, digits, permuted)
    report = verify_witness(w)
    # The report holds only bools: a shallow read of its fields, in field
    # order, and no deep copy.
    flags = {f.name: getattr(report, f.name) for f in fields(report)}
    flags["is_permutiple"] = report.is_permutiple
    if args.format == "json":
        return _json({"params": _params_payload(p), **_witness_payload(w), **flags})
    return "\n".join([f"claim: {w}", *_flag_rows(flags)]) + "\n"


class _DigitText(dict):
    """Zero-padded digits of width-digit base-b numbers, most significant first.

    Maps x to its digits joined by sep.  Each text is written on the first
    lookup of its x, so the memo holds only the values looked up.
    """

    def __init__(self, b: int, width: int, sep: str):
        super().__init__()
        self.b, self.width, self.sep = b, width, sep

    def __missing__(self, x: int) -> str:
        digits = [0] * self.width
        rest = x
        for j in range(self.width - 1, -1, -1):
            rest, digits[j] = divmod(rest, self.b)
        text = self[x] = self.sep.join(map(str, digits))
        return text


# One search witness as json.dumps(..., indent=2) writes it as an element of
# the "witnesses" list, handed to _encode as a _Verbatim; its digit texts
# come joined by _DIGIT_SEP.
_WITNESS_ROW = (
    '{\n      "digits": [\n        %s\n      ],\n      "permuted": [\n        %s\n      ],'
    '\n      "value": %d,\n      "multiplicand": %d\n    }'
)
_DIGIT_SEP = ",\n        "


def _handle_search(args, p: Params) -> str:
    n, b, length = p.n, p.b, args.length
    _check_budget(p, length, args.max_scan)
    # Each row's digits are the digit texts of m's and q's halves at the
    # scan's own split, one memo per half width; no witness is built, since
    # search prints neither carries nor sigma.
    as_json = args.format == "json"
    sep = _DIGIT_SEP if as_json else ","
    low_width = length // 2
    split = b**low_width
    low = _DigitText(b, low_width, sep)
    high = low if length - low_width == low_width else _DigitText(b, length - low_width, sep)
    rows = []
    for m, q in _scan_hits(p, length):
        m_high, m_low = divmod(m, split)
        q_high, q_low = divmod(q, split)
        dm = high[m_high] + sep + low[m_low]
        dq = high[q_high] + sep + low[q_low]
        if as_json:
            rows.append(_Verbatim(_WITNESS_ROW % (dm, dq, m, q)))
        else:
            rows.append(f"  {m} = {n} * {q}    ({dm})_{b} = {n}*({dq})_{b}")
    if as_json:
        return _json(
            {"params": _params_payload(p), "length": length, "count": len(rows), "witnesses": rows}
        )
    lines = [f"{len(rows)} permutiples with {length} base-{b} digits for n={n}", *rows]
    return "\n".join(lines) + "\n"


def _handle_palintiples(args, p: Params) -> str:
    count = palintiple_count(p, args.length, max_scan=args.max_scan)
    if args.format == "json":
        return _json({"params": _params_payload(p), "length": args.length, "count": count})
    return f"{count} palintiples with {args.length} base-{p.b} digits for n={p.n}\n"


def _handle_equiv(args, p: Params) -> str:
    report = equivalence_check(p, args.length, max_scan=args.max_scan, max_cycles=args.max_cycles)
    # Each property below builds the two value sets: read each one once.
    match, only_pipeline, only_brute = report.match, report.only_pipeline, report.only_brute
    output = str if match else _Mismatch
    if args.format == "json":
        return output(_json(
            {
                "params": _params_payload(p),
                "length": args.length,
                "match": match,
                "pipeline_count": len(report.pipeline_values),
                "brute_count": len(report.brute_values),
                "only_pipeline": list(only_pipeline),
                "only_brute": list(only_brute),
                "values": list(report.brute_values),
            }
        ))
    lines = [
        f"equivalence for {p}, length {args.length}: "
        f"{'MATCH' if match else 'MISMATCH'}",
        f"  pipeline: {len(report.pipeline_values)} values",
        f"  scan:     {len(report.brute_values)} values",
    ]
    if only_pipeline:
        lines.append("  only pipeline: " + ", ".join(map(str, only_pipeline)))
    if only_brute:
        lines.append("  only scan:     " + ", ".join(map(str, only_brute)))
    return output("\n".join(lines) + "\n")


def _count(text: str) -> int:
    """argparse type of the count and budget flags: an int of at least 1."""
    try:
        count = int(text)
    except ValueError:
        # argparse's own wording for a malformed int.
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {count}")
    return count


# Every option but --n, --b and --format, stated once.
_OPTIONS = {
    "--cycle": {"type": int, "required": True, "help": "canonical cycle index"},
    "--cycles": {"required": True, "help": "cycle indices, e.g. 3,3,5"},
    "--max-cycles": {"type": _count, "default": DEFAULT_MAX_CYCLES},
    "--max-strings": {"type": _count, "default": DEFAULT_MAX_STRINGS},
    "--forbid-leading-zero": {"action": "store_true"},
    "--digits": {"required": True, "help": "product digits, most significant first"},
    "--permuted": {"required": True, "help": "multiplicand digits, most significant first"},
    "--len": {"dest": "length", "type": int, "required": True},
    "--max-scan": {"type": _count, "default": DEFAULT_MAX_SCAN},
}

# Subcommand -> (help, its options in usage order).  main runs each one
# through _handle_<subcommand>(args, p), p the Params of --n and --b.
_COMMANDS = {
    "mother": ("all allowed digit pairs for (n, b)", ()),
    "cycles": ("canonical cycle inventory of the mother graph", ("--max-cycles",)),
    "multigraph": ("the labeled carry-state multigraph", ()),
    "image": ("carry-machine image of one cycle", ("--cycle", "--max-cycles")),
    "check": ("acceptance conditions for a cycle multiset", ("--cycles", "--max-cycles")),
    "strings": (
        "enumerate strings of a cycle multiset",
        ("--cycles", "--max-cycles", "--max-strings", "--forbid-leading-zero"),
    ),
    "verify": ("check one claimed digits = n * permuted relation", ("--digits", "--permuted")),
    "search": ("brute-force scan for permutiples of one length", ("--len", "--max-scan")),
    "palintiples": ("count reversal permutiples of one length", ("--len", "--max-scan")),
    "equiv": (
        "pipeline vs brute-force agreement for one length",
        ("--len", "--max-scan", "--max-cycles"),
    ),
}

# The graph-shaped subcommands, the only ones with DOT output.
_GRAPH_COMMANDS = ("mother", "multigraph", "image")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutiples",
        description="Recognize, generate, and enumerate permutiple numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--n", type=int, required=True, help="digit multiplier, 1 < n < b")
        sp.add_argument("--b", type=int, required=True, help="base, at least 2")
        sp.add_argument(
            "--format",
            choices=["table", "json", "dot"],
            default="table",
            help="output format (dot only for graph-shaped commands)",
        )
        for option in options:
            sp.add_argument(option, **_OPTIONS[option])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: parse_args leaves no state behind in it.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # Circuit counts grow factorially (5000 copies of one loop count 5000!
    # edge sequences), so printing them must not hit the int-to-str limit.
    int_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if int_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "dot" and args.command not in _GRAPH_COMMANDS:
            raise ValueError(f"DOT output is not available for '{args.command}'")
        out = globals()[f"_handle_{args.command}"](args, Params(args.n, args.b))
    except (PermutipleError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except Exception as exc:
        # Last resort: a fault in the package itself, never a traceback.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if int_digits is not None:
            sys.set_int_max_str_digits(int_digits)
    sys.stdout.write(out)
    return EXIT_DOMAIN if isinstance(out, _Mismatch) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
