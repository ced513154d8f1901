"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import itertools
import time

from cfmonoid.coloring import build_coloring, check_conditions, coloring_entry, conditions_ok
from cfmonoid.presentation import (
    EMPTY_WORD,
    ZERO_WORD,
    _generate_unchecked,
    alphabet,
    format_word,
    generate_presentation,
)
from cfmonoid.rewrite import (
    check_local_confluence,
    enumerate_normal_forms,
    is_normal_form,
    normal_form,
)
from cfmonoid.semigroup import BUILTIN_NAMES, CayleyTable, builtin, is_associative
from cfmonoid.witness import collapse, unit_context, verify_trace
from test_coloring import _bit

TERMINAL = ((EMPTY_WORD, ZERO_WORD), (ZERO_WORD, EMPTY_WORD))

_PRES_CACHE = {}


def _pres(name):
    if name not in _PRES_CACHE:
        t = builtin(name)
        _PRES_CACHE[name] = generate_presentation(t, build_coloring(t.n))
    return _PRES_CACHE[name]


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_coloring_conditions():
    t0 = time.monotonic()
    for n in range(1, 9):
        report = check_conditions(build_coloring(n))
        assert conditions_ok(report), (n, report)
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 1.0, f"C1..C6 hold for n=1..8 exhaustively ({elapsed:.2f}s < 1s)")


def test_criterion_2_third_slice_matrix():
    c = build_coloring(8)
    pattern_ok = all(
        _bit(c, i, 3, k) == (1 if (i - k) % 9 in (0, 1, 2) else 0)
        for i in range(1, 10)
        for k in range(1, 10)
    )
    corners = [
        _bit(c, 1, 3, 1) == 1,
        _bit(c, 1, 3, 2) == 0,
        _bit(c, 1, 3, 8) == 1,
        _bit(c, 1, 3, 9) == 1,
        _bit(c, 4, 3, 1) == 0,
        _bit(c, 9, 3, 9) == 1,
    ]
    _report(2, pattern_ok and all(corners), "slice 3 of n=8 matches the displayed matrix pattern")


def test_criterion_3_oracle_equivalence():
    ok = True
    for n in range(1, 9):
        c = build_coloring(n)
        for i in range(1, n + 2):
            for j in range(1, n + 1):
                for k in range(1, n + 2):
                    if _bit(c, i, j, k) != coloring_entry(n, i, j, k):
                        ok = False
    _report(3, ok, "construction equals closed form for all n<=8, all indices")


def test_criterion_4_completeness():
    t0 = time.monotonic()
    all_ok = True
    for name in BUILTIN_NAMES:
        ok, bad, _ = check_local_confluence(_pres(name))
        all_ok = all_ok and ok and bad is None
    # a deliberately non-associative table fails at the associativity witness
    bad_table = CayleyTable(2, ((2, 1), (1, 1)))
    assoc_ok, witness = is_associative(bad_table)
    forced = _generate_unchecked(bad_table, build_coloring(2))
    ok, first_bad, _ = check_local_confluence(forced)
    i, j, k = witness
    detection_ok = (
        not assoc_ok
        and not ok
        and first_bad.rule_left.family == "A"
        and first_bad.rule_right.family == "A"
        and first_bad.overlap == (("s", i), ("s", j), ("s", k))
    )
    elapsed = time.monotonic() - t0
    _report(
        4,
        all_ok and detection_ok and elapsed < 5.0,
        f"all 7 builtins complete; bad table non-joinable at witness {witness} ({elapsed:.2f}s < 5s)",
    )


def test_criterion_5_embedding():
    ok = True
    for name in BUILTIN_NAMES:
        p = _pres(name)
        generators = [(("s", i),) for i in range(1, p.n + 1)]
        if len(set(generators)) != p.n:
            ok = False
        for g in generators:
            if normal_form(g, p) != g:
                ok = False
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                if normal_form((("s", i), ("s", j)), p) != (("s", p.table.mul(i, j)),):
                    ok = False
    _report(5, ok, "s_i s_j reduces to the table product; generators are distinct normal forms")


def _one_step_reducts(w, lhs_map):
    # every one-step rewrite, any rule, any position: the strategy-free oracle
    outs = []
    for t in range(len(w)):
        for width in (2, 3):
            if t + width <= len(w):
                rhs = lhs_map.get(w[t:t + width])
                if rhs is not None:
                    outs.append(w[:t] + rhs + w[t + width:])
    return outs


def _confluence_sweep(p, maxlen):
    # bottom-up over word length: every reduct is strictly shorter, so the
    # set of reachable normal forms of each word is known when it is needed
    letters = alphabet(p.n, include_zero=True)
    lhs_map = p.lhs_map
    nf_of = {EMPTY_WORD: EMPTY_WORD}
    count = 0
    for length in range(1, maxlen + 1):
        store = length < maxlen
        for w in itertools.product(letters, repeat=length):
            reds = _one_step_reducts(w, lhs_map)
            if not reds:
                nf = w
            else:
                nfs = {nf_of[r] for r in reds}
                if len(nfs) != 1:
                    return False, count
                nf = next(iter(nfs))
            if nf != normal_form(w, p):
                return False, count
            if store:
                nf_of[w] = nf
            count += 1
    return True, count


def test_criterion_6_confluence_by_brute_force():
    t0 = time.monotonic()
    total = 0
    ok = True
    for name in ("trivial", "leftzero2", "rightzero2", "z2", "semilattice2"):
        good, count = _confluence_sweep(_pres(name), 6)
        ok = ok and good
        total += count
    elapsed = time.monotonic() - t0
    _report(
        6,
        ok and elapsed < 60.0,
        f"all rewrite orders agree with normal_form on {total} words of length <=6 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_7_collapse_sweep():
    t0 = time.monotonic()
    p = _pres("leftzero2")
    nfs = enumerate_normal_forms(p, 3)  # includes the empty word
    words = nfs + [ZERO_WORD]
    checked = 0
    ok = True
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            u, v = words[a], words[b]
            trace = collapse(u, v, p)
            accepted, idx, why = verify_trace(trace, p)
            if not accepted or trace.steps[-1].pair not in TERMINAL:
                ok = False
            if len(trace.steps) > 4 * (len(u) + len(v)) + 6:
                ok = False
            checked += 1
    elapsed = time.monotonic() - t0
    _report(
        7,
        ok and elapsed < 60.0,
        f"collapse verified on {checked} pairs over leftzero2 ({elapsed:.1f}s < 60s)",
    )


def _bfs_unit_contexts(w, p, max_side=4):
    # independent breadth-first search by increasing total context length;
    # z never appears in a useful context because any word containing z is
    # the zero of the monoid
    letters = alphabet(p.n)
    pools = [list(itertools.product(letters, repeat=length)) for length in range(max_side + 1)]
    for total in range(2 * max_side + 1):
        found = []
        for la in range(0, min(total, max_side) + 1):
            lb = total - la
            if lb > max_side:
                continue
            for a in pools[la]:
                for b in pools[lb]:
                    if normal_form(a + w + b, p) == EMPTY_WORD:
                        found.append((a, b))
        if found:
            return total, found
    return None, []


def test_criterion_8_unit_contexts():
    t0 = time.monotonic()
    ok = True
    checked = 0
    for name in ("trivial", "leftzero2"):
        p = _pres(name)
        for w in enumerate_normal_forms(p, 5):
            a, b = unit_context(w, p)
            if normal_form(a + w + b, p) != EMPTY_WORD:
                ok = False
            checked += 1
        # cross-validate short forms against the brute-force context search
        for w in enumerate_normal_forms(p, 2):
            total, found = _bfs_unit_contexts(w, p)
            a, b = unit_context(w, p)
            if not found or len(a) + len(b) != total or (a, b) not in found:
                ok = False
    elapsed = time.monotonic() - t0
    _report(
        8,
        ok and elapsed < 60.0,
        f"unit contexts reach the identity on {checked} forms of length <=5; "
        f"BFS cross-check agrees on length <=2 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_9_normal_form_census():
    p = _pres("trivial")
    got1 = enumerate_normal_forms(p, 1)
    got2 = enumerate_normal_forms(p, 2)
    letters = alphabet(1)
    brute = [
        w
        for length in range(3)
        for w in itertools.product(letters, repeat=length)
        if is_normal_form(w, p)
    ]
    ok = (
        len(got1) == 6
        and len(got2) == 26
        and sorted(got2, key=lambda w: (len(w), w)) == sorted(brute, key=lambda w: (len(w), w))
    )
    _report(9, ok, f"census: {len(got1)} forms at maxlen 1, {len(got2)} at maxlen 2, matches brute force")
