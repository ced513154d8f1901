"""Command-line interface.

Exit codes: 0 success/verified, 1 verification failure, 2 syntax or input
error, 3 non-associative table, 4 coloring condition failure.  Reports go to
stdout, diagnostics to stderr.  main loads the file that --pres names before
the command runs, and the command finds the Presentation in args.pres.

main(argv) may be called any number of times in one process.  The parser is
built on the first call and reused; it holds no command functions, and main
looks up cmd_<command> in this module at each call, so a cmd_* replaced in
the module namespace (by a tracer, say) is the one that runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from collections import Counter
from itertools import chain, repeat
from pathlib import Path

from .coloring import (
    CONDITION_NAMES,
    build_coloring,
    check_conditions,
    conditions_ok,
    parse_coloring,
)
from .presentation import (
    ColoringConditionError,
    NotAssociativeError,
    RULE_FAMILIES,
    format_word,
    generate_presentation,
    parse_word,
    presentation_from_json,
    presentation_to_json,
    rule_counts,
)
from .rewrite import check_local_confluence, normal_form, write_normal_forms
from .semigroup import BUILTIN_NAMES, builtin, parse_cayley
from .witness import collapse, format_trace, parse_trace, verify_trace


def cmd_build(args) -> int:
    if args.builtin:
        table = builtin(args.builtin)
    else:
        table = parse_cayley(Path(args.cayley).read_text())
    pres = generate_presentation(table, build_coloring(table.n))
    Path(args.out).write_text(presentation_to_json(pres) + "\n")
    counts = rule_counts(pres)
    breakdown = " ".join(f"{fam}={counts[fam]}" for fam in RULE_FAMILIES)
    print(f"n={pres.n}: {len(pres.lhs_map)} rules ({breakdown})")
    return 0


def cmd_nf(args) -> int:
    pres = args.pres
    word = parse_word(args.word, pres.n)
    print(format_word(normal_form(word, pres)))
    return 0


def cmd_check_complete(args) -> int:
    pres = args.pres
    ok, bad, pairs = check_local_confluence(pres)
    # each left side's family, taken once from its run: a run has one family
    family = dict(zip(pres.lhs_map, chain.from_iterable(repeat(f, len(lasts)) for f, _, lasts in pres._runs)))
    combos = Counter((family[cp.rule_left.lhs], family[cp.rule_right.lhs]) for cp in pairs)
    print(f"critical pairs: {len(pairs)}")
    for (f1, f2), count in sorted(combos.items()):
        print(f"  {f1}-{f2}: {count}")
    if ok:
        print(f"all {len(pairs)} pairs joinable: system is complete")
        return 0
    print(f"NOT CONFLUENT at overlap {format_word(bad.overlap)}")
    print(f"  left reduct  {format_word(bad.left_reduct)} -> {format_word(normal_form(bad.left_reduct, pres))}")
    print(f"  right reduct {format_word(bad.right_reduct)} -> {format_word(normal_form(bad.right_reduct, pres))}")
    return 1


def cmd_check_f(args) -> int:
    col = parse_coloring(Path(args.coloring).read_text())
    report = check_conditions(col)
    print(f"coloring n={col.n}")
    for name in CONDITION_NAMES:
        passed, violation = report[name]
        print(f"{name}: {'pass' if passed else f'FAIL at {violation}'}")
    return 0 if conditions_ok(report) else 4


def cmd_check_embed(args) -> int:
    pres = args.pres
    n = pres.n
    bad = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = normal_form((("s", i), ("s", j)), pres)
            want = (("s", pres.table.mul(i, j)),)
            if got != want:
                bad.append(
                    f"s{i} s{j} reduces to {format_word(got)}, table says {format_word(want)}"
                )
    if bad:
        for line in bad:
            print(line)
        return 1
    print(f"embedding verified: {n} distinct generators, {n * n} products match the table")
    return 0


def cmd_collapse(args) -> int:
    pres = args.pres
    u = parse_word(args.left, pres.n)
    v = parse_word(args.right, pres.n)
    trace = collapse(u, v, pres)
    text = format_trace(trace)
    if args.out:
        Path(args.out).write_text(text)
        final_l, final_r = trace.steps[-1].pair
        print(f"trace: {len(trace.steps)} steps, final ({format_word(final_l)}, {format_word(final_r)})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_trace(args) -> int:
    pres = args.pres
    trace = parse_trace(Path(args.trace).read_text(), pres)
    ok, idx, reason = verify_trace(trace, pres)
    if ok:
        print(f"trace verified: {len(trace.steps)} steps")
        return 0
    print(f"INVALID TRACE at step {idx}: {reason}")
    return 1


def cmd_enumerate(args) -> int:
    # a reader that closes stdout early (`| head`) ends the listing without
    # an error, since it has no verdict to lose; the checks let it through
    with contextlib.suppress(BrokenPipeError):
        write_normal_forms(args.pres, args.maxlen, sys.stdout.write)
    return 0


def _maxlen(text: str) -> int:
    # ASCII digits, like every other number the CLI reads; int() alone would
    # also take other scripts' digits, a '+', spaces and underscores.  A '-'
    # is kept so that a negative value still reaches enumerate's own check
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmonoid",
        description="Finitely presented congruence-free monoids from finite semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pres = argparse.ArgumentParser(add_help=False)
    pres.add_argument("--pres", required=True, help="presentation file (JSON)")

    p = sub.add_parser("build", help="generate a presentation from a Cayley table")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cayley", help="Cayley table file")
    src.add_argument("--builtin", choices=BUILTIN_NAMES, help="builtin semigroup name")
    p.add_argument("--out", required=True, help="output presentation file (JSON)")

    p = sub.add_parser("nf", parents=[pres], help="normal form of a word")
    p.add_argument("word", help="word in word syntax, e.g. 'x1 s2 y1'")

    sub.add_parser("check-complete", parents=[pres], help="critical-pair confluence report")

    p = sub.add_parser("check-f", help="check the six conditions on a coloring file")
    p.add_argument("coloring", help="coloring file in slice-per-block format")

    sub.add_parser("check-embed", parents=[pres], help="verify the semigroup embeds via its generators")

    p = sub.add_parser("collapse", parents=[pres], help="derive (1, 0) from a pair of distinct normal forms")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", help="trace output file (default: stdout)")

    p = sub.add_parser("verify-trace", parents=[pres], help="independently verify a trace file")
    p.add_argument("trace", help="trace file")

    p = sub.add_parser("enumerate", parents=[pres], help="list nonzero normal forms up to a length")
    p.add_argument("--maxlen", type=_maxlen, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "pres" in args:
            args.pres = presentation_from_json(Path(args.pres).read_text())
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, NotAssociativeError) else 4 if isinstance(e, ColoringConditionError) else 2


def run() -> int:
    """main() for the cfmonoid script: output that a closed stdout pipe left unwritten is dropped.

    fd 1 then goes to os.devnull, so the interpreter's last flush is quiet;
    the exit code is main's.  main() itself leaves stdout as it finds it.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(run())
