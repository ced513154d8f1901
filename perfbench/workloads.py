"""The four workloads: their seeded inputs and their checked operations.

Each workload function writes its input files into `work` and returns the
operations of one pass. An operation calls the program (the public API or
`cfmonoid.cli.main`, looked up at call time so that tracing sees it), turns
the raw result into a compact observation outside the timed region, and is
checked against an expected answer from `oracle` after the pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

_UNSET = object()


@dataclass
class Op:
    kind: str  # groups operations for the workload's own metrics
    label: str
    call: Callable  # (pass context) -> raw result; this is what is timed
    observe: Callable  # raw result -> observation
    oracle: Callable  # () -> expected observation
    check: Callable = None  # (observation, expected) -> bool; equality by default
    _expected: object = field(default=_UNSET, repr=False)

    def expected(self):
        if self._expected is _UNSET:
            self._expected = self.oracle()
        return self._expected

    def correct(self, observation):
        want = self.expected()
        return self.check(observation, want) if self.check else observation == want


@dataclass
class Workload:
    ops: list
    extra: dict  # result-file metric -> (op kind, work units per pass or None for seconds)


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    return code, out.getvalue(), err.getvalue()


def cli_op(m, kind, label, argv, observe, expect, check=None):
    return Op(kind, label, lambda ctx: run_cli(m.cli, argv), observe, expect, check)


def _code(raw):
    return (raw[0],)


def _file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest() if Path(path).exists() else None


def build_op(m, label, cayley, pres, rows):
    """`build`, checked on its exit code, its counts and the file it writes.

    The file is checked against the oracle once per distinct content, right
    after the pass that wrote it.
    """
    n = len(rows)
    verdicts = {}

    def observe(raw):
        code, out, _ = raw
        counts = dict((k, int(v)) for k, v in (kv.split("=") for kv in out[out.find("(") + 1:out.rfind(")")].split()))
        return code, counts, _file_digest(pres)

    def file_ok(digest):
        if digest not in verdicts:
            text = Path(pres).read_text()
            same = hashlib.sha256(text.encode()).hexdigest() == digest
            verdicts[digest] = same and oracle.check_presentation(text, rows, m.coloring_entry) is None
        return verdicts[digest]

    return cli_op(
        m, "build", label, ["build", "--cayley", str(cayley), "--out", str(pres)], observe,
        lambda: (0, oracle.rule_counts(n), True),
        lambda got, want: (got[0], got[1], got[2] is not None and file_ok(got[2])) == want,
    )


def _pair_report(raw):
    code, out, _ = raw
    pairs = {}
    for line in out.splitlines():
        if line.startswith("  ") and ": " in line:
            fams, count = line.strip().split(": ")
            pairs[fams] = int(count)
    return code, pairs


def _trace_summary(path):
    lines = Path(path).read_text().splitlines()
    first, last = lines[0].split("\t"), lines[-1].split("\t")
    return tuple(first[1:]), tuple(last[2:]) in (("1", "0"), ("0", "1"))


# --- certify -------------------------------------------------------------------

ENUM_MAXLEN = 4


def certify(m, work, rng):
    """The CLI pipeline over the builtins, Z_8 and T_2 x Z_2, plus three negatives.

    Z_10 is left out: its check-complete alone takes 2-4 s, which leaves too
    few passes in a run for a steady best time on a shared host.
    """
    suite = [(name, m.builtin(name).rows) for name in m.BUILTIN_NAMES]
    t2, z2 = m.builtin("t2").rows, m.builtin("z2").rows
    suite += [("z8", oracle.cyclic(8)), ("t2xz2", oracle.product(t2, z2))]
    enum_digests = {}

    def enum_digest(n):
        if n not in enum_digests:
            enum_digests[n] = oracle.enumerate_digest(n, ENUM_MAXLEN)
        return enum_digests[n]

    ops = []
    for label, rows in suite:
        rows = oracle.relabel(rows, rng)
        n = len(rows)
        cayley, pres, trace = work / f"{label}.cayley", work / f"{label}.json", work / f"{label}.trace"
        cayley.write_text(oracle.cayley_text(rows))
        u, v = (oracle.word_text(w) for w in _distinct_pair(rng, n, 4))
        ops += [
            build_op(m, label, cayley, pres, rows),
            cli_op(m, "check-complete", label, ["check-complete", "--pres", str(pres)], _pair_report,
                   lambda n=n: (0, oracle.pair_counts(n))),
            cli_op(m, "check-embed", label, ["check-embed", "--pres", str(pres)], _code, lambda: (0,)),
            cli_op(m, "collapse", label, ["collapse", "--pres", str(pres), u, v, "--out", str(trace)],
                   lambda raw, trace=trace: (raw[0],) + _trace_summary(trace) if raw[0] == 0 else (raw[0],),
                   lambda u=u, v=v: (0, ("GEN", u, v), True)),
            cli_op(m, "verify-trace", label, ["verify-trace", "--pres", str(pres), str(trace)], _code,
                   lambda: (0,)),
            cli_op(m, "enumerate", label, ["enumerate", "--pres", str(pres), "--maxlen", str(ENUM_MAXLEN)],
                   lambda raw: (raw[0], oracle.sha256(raw[1])), lambda n=n: (0, enum_digest(n))),
        ]
    ops += _negatives(m, work, rng, oracle.relabel(t2, rng))
    return Workload(ops, {"check_complete_s": ("check-complete", None)})


def _negatives(m, work, rng, rows):
    """A non-associative table (exit 3), a tampered A rule (exit 1), a tampered trace (exit 1)."""
    while True:
        bad = tuple(tuple(rng.randint(1, 3) for _ in range(3)) for _ in range(3))
        if not oracle.associative(bad):
            break
    (work / "bad.cayley").write_text(oracle.cayley_text(bad))

    n = len(rows)
    pres = m.generate_presentation(m.CayleyTable(n, rows), m.build_coloring(n))
    clean = work / "clean.json"
    clean.write_text(m.presentation_to_json(pres) + "\n")

    data = json.loads(clean.read_text())
    while True:
        i, j, t = rng.randint(1, n), rng.randint(1, n), rng.randint(1, n)
        changed = [list(r) for r in rows]
        changed[i - 1][j - 1] = t
        if t != rows[i - 1][j - 1] and not oracle.associative(changed):
            break
    for r in data["rules"]:
        if r["family"] == "A" and r["lhs"] == [f"s{i}", f"s{j}"]:
            r["rhs"] = [f"s{t}"]
    tampered = work / "tampered.json"
    tampered.write_text(json.dumps(data, indent=1) + "\n")

    lines = []
    while len(lines) < 2:  # the pair (1, 0) is its own one-line trace, with no step to tamper
        lines = m.format_trace(m.collapse(*_distinct_pair(rng, n, 4), pres)).splitlines()
    k = rng.randint(1, len(lines) - 1)
    idx, tag, left, right = lines[k].split("\t")
    lines[k] = "\t".join((idx, tag, right, left))  # every pair of a collapse chain is two distinct words
    (work / "tampered.trace").write_text("\n".join(lines) + "\n")

    return [
        cli_op(m, "build", "non-associative", ["build", "--cayley", str(work / "bad.cayley"),
                                               "--out", str(work / "bad.json")], _code, lambda: (3,)),
        cli_op(m, "check-complete", "tampered-rule", ["check-complete", "--pres", str(tampered)],
               _pair_report, lambda: (1, oracle.pair_counts(n))),
        cli_op(m, "check-embed", "tampered-rule", ["check-embed", "--pres", str(tampered)], _code,
               lambda: (1,)),
        cli_op(m, "verify-trace", "tampered-trace", ["verify-trace", "--pres", str(clean),
                                                     str(work / "tampered.trace")], _code, lambda: (1,)),
    ]


def _distinct_pair(rng, n, maxlen):
    """Two distinct normal forms; the empty word 1 and the zero word 0 are among the choices."""
    def pick():
        r = rng.random()
        if r < 0.1:
            return ()
        if r < 0.2:
            return (oracle.ZERO,)
        return oracle.random_normal_form(rng, n, rng.randint(1, maxlen))

    while True:
        u, v = pick(), pick()
        if u != v:
            return u, v


# --- rewrite and collapse share an n=8 presentation loaded at the start of a pass ---


def _presentation_file(m, work, rng):
    t2, z2 = m.builtin("t2").rows, m.builtin("z2").rows
    rows = oracle.relabel(oracle.product(t2, z2), rng)
    n = len(rows)
    path = work / "t2xz2.json"
    path.write_text(m.presentation_to_json(m.generate_presentation(m.CayleyTable(n, rows), m.build_coloring(n))))
    return rows, path


def _load_op(m, path, n):
    def call(ctx):
        ctx["pres"] = m.presentation_from_json(Path(path).read_text())
        return ctx["pres"]

    return Op("load", "t2xz2", call, lambda p: (p.n, len(p.rules)),
              lambda: (n, sum(oracle.rule_counts(n).values())))


def rewrite(m, work, rng):
    """normal_form at n=8: random, irreducible and s-words, and the adversarial families."""
    rows, path = _presentation_file(m, work, rng)
    n = len(rows)
    entry = m.coloring_entry
    letters = oracle.alphabet(n)
    s_letters = letters[:n]
    s1, x1, y1 = ("s", 1), ("x", 1), ("y", 1)
    words = []  # (label, word, expected normal form thunk)

    for length, count in ((100, 30), (1000, 10), (10000, 3)):
        for _ in range(count):
            w = tuple(rng.choice(letters) for _ in range(length))
            words.append((f"random-{length}", w, lambda w=w: oracle.reduce(w, rows, entry)))
    for length, count in ((2000, 5), (10000, 2)):
        for _ in range(count):
            w = tuple(rng.choice(s_letters) for _ in range(length))
            words.append((f"s-word-{length}", w, lambda w=w: oracle.fold(w, rows)))
    for _ in range(4):
        w = oracle.random_normal_form(rng, n, 10000)
        words.append(("irreducible-10000", w, lambda w=w: w))
    for k in (10000, 20000, 40000, 80000):
        words.append((f"s1^{k}", (s1,) * k, lambda k=k: oracle.fold((s1,) * k, rows)))
    for k in (10000, 40000):
        # x1 s1 y1 rewrites to 1 or 0; 1 leaves x1 y1 -> 0, so for k >= 2 the word is 0
        words.append((f"x1^{k} s1 y1^{k}", (x1,) * k + (s1,) + (y1,) * k, lambda: (oracle.ZERO,)))
    for k in (5000, 20000):
        # x_{i_k}..x_{i_1} s_{j_1} y_{l_1} .. s_{j_k} y_{l_k}: the innermost x s y
        # goes first and each one that rewrites to 1 joins the next; the word
        # is 1 iff every triple is colored 1
        ones = [(i, j, l) for i in range(1, n + 2) for j in range(1, n + 1) for l in range(1, n + 2)
                if entry(n, i, j, l)]
        triples = [rng.choice(ones) for _ in range(k - 1)]
        triples.append((rng.randint(1, n + 1), rng.randint(1, n), rng.randint(1, n + 1)))
        w = tuple(("x", i) for i, _, _ in reversed(triples))
        w += tuple(a for _, j, l in triples for a in (("s", j), ("y", l)))
        expect = () if all(entry(n, *t) for t in triples) else (oracle.ZERO,)
        words.append((f"x^{k} (s y)^{k}", w, lambda e=expect: e))

    ops = [_load_op(m, path, n)]
    for label, w, expect in words:
        ops.append(Op("nf", label, lambda ctx, w=w: m.normal_form(w, ctx["pres"]), lambda r: r, expect,
                      lambda got, want: got == want and oracle.irreducible(got)))
    return Workload(ops, {"nf_letters_per_s": ("nf", sum(len(w) for _, w, _ in words))})


CERTS = 10000


def collapse(m, work, rng):
    """Collapse certificates for seeded pairs of short distinct normal forms at n=8."""
    rows, path = _presentation_file(m, work, rng)
    n = len(rows)
    ops = [_load_op(m, path, n)]
    terminal = (((), (oracle.ZERO,)), ((oracle.ZERO,), ()))

    def certify_pair(ctx, u, v):
        pres = ctx["pres"]
        trace = m.collapse(u, v, pres)
        back = m.parse_trace(m.format_trace(trace), pres)
        return trace, back, m.verify_trace(back, pres)

    def observe(raw, u, v):
        trace, back, verdict = raw
        steps = [(s.pair, s.move) for s in back.steps]
        return (
            verdict[0],
            steps == [(s.pair, s.move) for s in trace.steps],
            steps[0] == ((u, v), ("GEN",)) and steps[-1][0] in terminal,
        )

    for _ in range(CERTS):
        u, v = _distinct_pair(rng, n, 6)
        ops.append(Op("cert", oracle.word_text(u) + " / " + oracle.word_text(v),
                      lambda ctx, u=u, v=v: certify_pair(ctx, u, v),
                      lambda raw, u=u, v=v: observe(raw, u, v), lambda: (True, True, True)))
    return Workload(ops, {"certs_per_s": ("cert", CERTS)})


# --- large_build -----------------------------------------------------------------


def large_build(m, work, rng):
    """build, check-f on the closed-form coloring, and check-embed at n=32 and n=48."""
    ops = []
    for label, rows in (("z32", oracle.cyclic(32)), ("z4xz12", oracle.product(oracle.cyclic(4), oracle.cyclic(12)))):
        rows = oracle.relabel(rows, rng)
        n = len(rows)
        cayley, pres, col = work / f"{label}.cayley", work / f"{label}.json", work / f"{label}.coloring"
        cayley.write_text(oracle.cayley_text(rows))
        col.write_text(oracle.coloring_text(n, m.coloring_entry))
        ops += [
            build_op(m, label, cayley, pres, rows),
            cli_op(m, "check-f", label, ["check-f", str(col)],
                   lambda raw: (raw[0], raw[1].splitlines()), lambda n=n: (
                       0, [f"coloring n={n}"] + [f"C{c}: pass" for c in range(1, 7)])),
            cli_op(m, "check-embed", label, ["check-embed", "--pres", str(pres)], _code, lambda: (0,)),
        ]
    return Workload(ops, {"build_s": ("*", None)})


WORKLOADS = {"certify": certify, "rewrite": rewrite, "collapse": collapse, "large_build": large_build}


def make(name, m, work, seed):
    return WORKLOADS[name](m, Path(work), random.Random(f"{name}:{seed}"))
