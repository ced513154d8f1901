import random
import re
from functools import partial

import pytest

from cfmonoid.coloring import Coloring, build_coloring, check_conditions
from cfmonoid.presentation import (
    EMPTY_WORD,
    ColoringConditionError,
    Presentation,
    WordSyntaxError,
    ZERO_WORD,
    _generate_unchecked,
    alphabet,
    format_word,
    generate_presentation,
    parse_word,
)
from cfmonoid.rewrite import enumerate_normal_forms, normal_form
from cfmonoid.semigroup import BUILTIN_NAMES, CayleyTable, builtin
from cfmonoid.witness import (
    WitnessStep,
    WitnessTrace,
    _check_normal,
    _mirror,
    _split,
    collapse,
    format_trace,
    parse_trace,
    unit_context,
    verify_trace,
)
from test_coloring import _bit

TERMINAL = ((EMPTY_WORD, ZERO_WORD), (ZERO_WORD, EMPTY_WORD))


def _pres(name):
    t = builtin(name)
    return generate_presentation(t, build_coloring(t.n))


# ------------------------------------------------------------------ decompose

def decompose(w, p):
    # the split of a nonzero normal form as P Q with P x-free and Q empty or
    # x-initial: the package's own _split, which unit_context uses, behind
    # the zero and normality checks of its callers
    if w == ZERO_WORD:
        raise ValueError("the zero word has no such decomposition")
    _check_normal(w, p)
    return _split(w)


def test_decompose_examples():
    p = _pres("trivial")
    assert decompose(parse_word("y1 s1 x2 s1", 1), p) == (
        parse_word("y1 s1", 1),
        parse_word("x2 s1", 1),
    )
    assert decompose(parse_word("s1", 1), p) == (parse_word("s1", 1), EMPTY_WORD)
    assert decompose(parse_word("x1 x2", 1), p) == (EMPTY_WORD, parse_word("x1 x2", 1))
    assert decompose(EMPTY_WORD, p) == (EMPTY_WORD, EMPTY_WORD)


def test_decompose_rejects_zero_and_reducible():
    p = _pres("trivial")
    with pytest.raises(ValueError, match="zero word"):
        decompose(ZERO_WORD, p)
    with pytest.raises(ValueError, match="not a normal form"):
        decompose(parse_word("x1 y1", 1), p)
    with pytest.raises(ValueError, match="not a normal form"):
        decompose(parse_word("s1 0", 1), p)


def test_decompose_unique_split():
    # every nonzero normal form splits uniquely as P Q with P x-free and
    # Q empty or x-initial and y-free
    for name in ("trivial", "leftzero2"):
        p = _pres(name)
        for w in enumerate_normal_forms(p, 6 if p.n == 1 else 5):
            prefix, rest = decompose(w, p)
            assert prefix + rest == w
            assert all(r != "x" for r, _ in prefix)
            assert rest == EMPTY_WORD or rest[0][0] == "x"
            assert all(r != "y" for r, _ in rest)
            # uniqueness: no other split point satisfies the same shape
            valid = [
                t
                for t in range(len(w) + 1)
                if all(r != "x" for r, _ in w[:t])
                and (t == len(w) or w[t][0] == "x")
                and all(r != "y" for r, _ in w[t:])
            ]
            assert valid == [len(prefix)]


# --------------------------------------------------------------- unit context

def test_unit_context_examples():
    p = _pres("trivial")
    # leading y2 needs x-index 2: f(2, 1, 2) = 1
    assert unit_context(parse_word("y2", 1), p) == (parse_word("x2 s1", 1), EMPTY_WORD)
    # trailing x1 needs y-index 1: f(1, 1, 1) = 1
    assert unit_context(parse_word("x1", 1), p) == (EMPTY_WORD, parse_word("s1 y1", 1))
    assert unit_context(EMPTY_WORD, p) == (EMPTY_WORD, EMPTY_WORD)
    # a word given as a list has the context of its tuple
    z2 = _pres("z2")
    for text in ("x1 s1", "y2 s1 x3", "1"):
        w = parse_word(text, 2)
        assert unit_context(list(w), z2) == unit_context(w, z2), text
    with pytest.raises(ValueError, match="zero word has no unit context"):
        unit_context(list(ZERO_WORD), z2)


def test_unit_context_rejects_zero_and_reducible():
    p = _pres("trivial")
    with pytest.raises(ValueError, match="zero word has no unit context"):
        unit_context(ZERO_WORD, p)
    with pytest.raises(ValueError, match="not a normal form"):
        unit_context(parse_word("s1 s1", 1), p)


@pytest.mark.parametrize("letter", [("x", 99), ("q", 1)], ids=lambda a: f"{a[0]}{a[1]}")
def test_unit_context_rejects_a_letter_outside_the_alphabet(letter):
    with pytest.raises(ValueError, match=f"word is not a normal form: {format_word((letter,))}$"):
        unit_context((letter,), _pres("z2"))


def test_collapse_rejects_a_letter_outside_the_alphabet():
    with pytest.raises(ValueError, match="left word is not a normal form: s99$"):
        collapse((("s", 99),), EMPTY_WORD, _pres("z2"))


@pytest.mark.parametrize("letter", [("s", 99), ("q", 1)], ids=lambda a: f"{a[0]}{a[1]}")
def test_verify_rejects_a_generator_letter_outside_the_alphabet(letter):
    trace = WitnessTrace((WitnessStep(((letter,), EMPTY_WORD), ("GEN",)),))
    assert verify_trace(trace, _pres("z2")) == (False, 0, "generator words are not normal forms")


def test_unit_context_reaches_identity():
    for name in ("trivial", "z2"):
        p = _pres(name)
        for w in enumerate_normal_forms(p, 4):
            a, b = unit_context(w, p)
            assert normal_form(a + w + b, p) == EMPTY_WORD, format_word(w)


# ------------------------------------------------------------------- collapse

def test_collapse_x1_x2_trace():
    p = _pres("trivial")
    tr = collapse(parse_word("x1", 1), parse_word("x2", 1), p)
    assert len(tr.steps) == 3
    assert tr.steps[0].move == ("GEN",)
    assert tr.steps[1].move == ("MULR", parse_word("s1 y1", 1))
    assert tr.steps[1].pair == (parse_word("x1 s1 y1", 1), parse_word("x2 s1 y1", 1))
    assert tr.steps[2].pair == (EMPTY_WORD, ZERO_WORD)
    # a pair of lists gives the trace of the pair of tuples
    z2 = _pres("z2")
    for u, v in [("x1 s1", "s1"), ("x1", "x2"), ("1", "0"), ("y2 s1", "x3 s2")]:
        u, v = parse_word(u, 2), parse_word(v, 2)
        assert collapse(list(u), list(v), z2) == collapse(u, v, z2)
    with pytest.raises(ValueError, match="identical inputs"):
        collapse(list(u), u, z2)


def test_collapse_identity_vs_generator():
    p = _pres("trivial")
    tr = collapse(EMPTY_WORD, parse_word("s1", 1), p)
    pairs = [s.pair for s in tr.steps]
    assert (parse_word("x1 y1", 1), parse_word("x1 s1 y1", 1)) in pairs
    assert tr.steps[-1].pair == (ZERO_WORD, EMPTY_WORD)


def test_collapse_zero_inputs():
    p = _pres("trivial")
    # already terminal: the single generator step is the whole trace
    tr = collapse(EMPTY_WORD, ZERO_WORD, p)
    assert len(tr.steps) == 1
    tr = collapse(ZERO_WORD, parse_word("s1", 1), p)
    assert tr.steps[-1].pair in TERMINAL
    ok, _, _ = verify_trace(tr, p)
    assert ok


def test_collapse_identical_inputs():
    p = _pres("trivial")
    with pytest.raises(ValueError, match="identical inputs"):
        collapse(parse_word("s1", 1), parse_word("s1", 1), p)


def test_collapse_rejects_a_pair_made_equal_by_a_disagreeing_b_rule():
    # built in code, so the loader's B-rule check never sees it: with
    # x2 s1 y3 -> 1 although f(2, 1, 3) = 0, both y2 and y3 reach 1
    p = _pres("leftzero2")
    flipped = parse_word("x2 s1 y3", 2)
    assert p.lhs_map[flipped] == ZERO_WORD
    bad = Presentation(p.n, p.table, p.coloring, {**p.lhs_map, flipped: EMPTY_WORD})
    with pytest.raises(ValueError, match=r"equal pair \(1, 1\)"):
        collapse(parse_word("y2", 2), parse_word("y3", 2), bad)


def test_collapse_that_cannot_finish_raises():
    # built in code, so the loader's right-side check never sees it: with
    # s1 0 -> x3 the zero no longer absorbs s1, and the pair never reaches
    # (1, 0) within the step bound
    p = _pres("z2")
    changed = parse_word("s1 0", 2)
    bad = Presentation(p.n, p.table, p.coloring, {**p.lhs_map, changed: parse_word("x3", 2)})
    with pytest.raises(ValueError, match=r"did not reach \(1, 0\) in \d+ rounds: the rules are not"):
        collapse(parse_word("y2 x2", 2), parse_word("y1 y1", 2), bad)


def test_collapse_on_coloring_failing_c1_raises_its_report():
    # built in code, so the loader's C1..C6 check never sees it: the fiber
    # (1, 1, .) colored 0 everywhere breaks C1, and collapse, which needs a
    # y-index colored 1 over (x1, s1), raises the condition report
    bits = [[list(row) for row in plane] for plane in build_coloring(2).bits]
    bits[0][0] = [0] * len(bits[0][0])
    coloring = Coloring(2, tuple(tuple(tuple(row) for row in plane) for plane in bits))
    p = _generate_unchecked(builtin("z2"), coloring)
    with pytest.raises(ColoringConditionError) as e:
        collapse(parse_word("x1 s1", 2), parse_word("x1", 2), p)
    assert e.value.report["C1"][0] is False


def test_collapse_rejects_reducible_input():
    p = _pres("trivial")
    with pytest.raises(ValueError, match="not a normal form"):
        collapse(parse_word("s1 s1", 1), parse_word("s1", 1), p)


def test_collapse_steps_name_their_condition():
    # x1 vs x2 is split by s1 y_k with f(1, 1, k) != f(2, 1, k) (C5), its
    # mirror image y1 vs y2 by x_i s1 with f(i, 1, 1) != f(i, 1, 2) (C6); a
    # zero side is lifted by a unit context, and the generator pair is given,
    # so those steps name no condition
    p = _pres("trivial")
    for u, v, used in (("x1", "x2", "C5"), ("y1", "y2", "C6"), ("x1", "0", None)):
        tr = collapse(parse_word(u, 1), parse_word(v, 1), p)
        assert [s.condition for s in tr.steps] == [None, used, used], (u, v)


def test_collapse_sweep_n1():
    p = _pres("trivial")
    nfs = enumerate_normal_forms(p, 3)
    words = nfs + [ZERO_WORD]
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            u, v = words[a], words[b]
            tr = collapse(u, v, p)
            ok, idx, why = verify_trace(tr, p)
            assert ok, (format_word(u), format_word(v), idx, why)
            assert tr.steps[-1].pair in TERMINAL
            assert len(tr.steps) <= 4 * (len(u) + len(v)) + 6


def test_collapse_exercises_y_mirror_cases():
    # pairs of y-initial words drive the left-multiplication branches
    p = _pres("z2")
    u = parse_word("y1 s2", 2)
    v = parse_word("y2", 2)
    tr = collapse(u, v, p)
    assert any(s.move[0] == "MULL" for s in tr.steps)
    ok, _, _ = verify_trace(tr, p)
    assert ok


# --------------------------------------------------------------- verification

def test_verify_accepts_collapse_output():
    p = _pres("z2")
    tr = collapse(parse_word("s1", 2), parse_word("s2", 2), p)
    assert verify_trace(tr, p) == (True, None, None)


def test_verify_rejects_tampered_rewrite():
    p = _pres("trivial")
    tr = collapse(parse_word("x1", 1), parse_word("x2", 1), p)
    steps = list(tr.steps)
    # replace the rewrite result with a non-normal form
    bad_pair = (parse_word("x1 s1 y1", 1), ZERO_WORD)
    steps[2] = WitnessStep(bad_pair, steps[2].move)
    ok, idx, reason = verify_trace(WitnessTrace(tuple(steps)), p)
    assert not ok and idx == 2
    assert "does not match" in reason


def test_verify_rejects_wrong_terminal():
    p = _pres("trivial")
    steps = (
        WitnessStep((parse_word("s1", 1), ZERO_WORD), ("GEN",)),
    )
    ok, idx, reason = verify_trace(WitnessTrace(steps), p)
    assert not ok
    assert "final pair" in reason


def test_verify_rejects_bad_generator():
    p = _pres("trivial")
    equal = WitnessTrace((WitnessStep((ZERO_WORD, ZERO_WORD), ("GEN",)),))
    ok, idx, reason = verify_trace(equal, p)
    assert not ok and idx == 0 and "equal" in reason

    reducible = WitnessTrace(
        (WitnessStep((parse_word("s1 s1", 1), ZERO_WORD), ("GEN",)),)
    )
    ok, idx, reason = verify_trace(reducible, p)
    assert not ok and idx == 0 and "not normal forms" in reason

    headless = WitnessTrace(
        (WitnessStep((EMPTY_WORD, ZERO_WORD), ("MULL", EMPTY_WORD)),)
    )
    ok, idx, _ = verify_trace(headless, p)
    assert not ok and idx == 0


def test_verify_rejects_bad_multiplication():
    p = _pres("trivial")
    u, v = EMPTY_WORD, parse_word("s1", 1)
    g = parse_word("x1", 1)
    steps = (
        WitnessStep((u, v), ("GEN",)),
        # claims a left multiplication but records the unmultiplied pair
        WitnessStep((u, v), ("MULL", g)),
    )
    ok, idx, reason = verify_trace(WitnessTrace(tuple(steps)), p)
    assert (ok, idx, reason) == (False, 1, "recorded pair does not match the declared move")


def test_verify_rejects_bad_right_multiplication():
    p = _pres("trivial")
    u, v = EMPTY_WORD, parse_word("s1", 1)
    g = parse_word("y1", 1)
    steps = (
        WitnessStep((u, v), ("GEN",)),
        # claims a right multiplication but records the unmultiplied pair
        WitnessStep((u, v), ("MULR", g)),
    )
    ok, idx, reason = verify_trace(WitnessTrace(tuple(steps)), p)
    assert (ok, idx, reason) == (False, 1, "recorded pair does not match the declared move")


# ---------------------------------------------------------------- trace files

def test_trace_format_roundtrip():
    p = _pres("leftzero2")
    tr = collapse(parse_word("x1 s2", 2), parse_word("y3", 2), p)
    text = format_trace(tr)
    back = parse_trace(text, p)
    assert back.steps == tr.steps  # conditions are not compared, and not in the file
    assert format_trace(back) == text


def test_trace_format_layout():
    p = _pres("trivial")
    tr = collapse(parse_word("x1", 1), parse_word("x2", 1), p)
    lines = format_trace(tr).splitlines()
    assert lines[0] == "0\tGEN\tx1\tx2"
    assert lines[1] == "1\tMULR s1 y1\tx1 s1 y1\tx2 s1 y1"
    assert lines[2] == "2\tREWRITE both\t1\t0"


def test_parse_trace_errors():
    p = _pres("trivial")
    with pytest.raises(ValueError, match="empty trace"):
        parse_trace("", p)
    with pytest.raises(ValueError, match="4 tab-separated fields"):
        parse_trace("0 GEN x1 x2\n", p)
    with pytest.raises(ValueError, match="count up from 0"):
        parse_trace("1\tGEN\tx1\tx2\n", p)
    with pytest.raises(ValueError, match="unknown move tag"):
        parse_trace("0\tFOO\tx1\tx2\n", p)
    with pytest.raises(ValueError, match="REWRITE needs a side"):
        parse_trace("0\tGEN\tx1\tx2\n1\tREWRITE sideways\tx1\tx2\n", p)
    with pytest.raises(ValueError, match="needs a word argument"):
        parse_trace("0\tGEN\tx1\tx2\n1\tMULL\tx1\tx2\n", p)
    with pytest.raises(ValueError, match="line 1: GEN takes no argument"):
        parse_trace("0\tGEN whatever\tx1\tx2\n", p)


def test_parse_trace_takes_only_ascii_digits():
    # str.isdigit() also accepts digits such as "\u0661" (ARABIC-INDIC ONE)
    p = _pres("z2")
    with pytest.raises(WordSyntaxError, match="unknown token 'x\u0661'"):
        parse_trace("0\tGEN\tx\u0661\tx2\n", p)
    with pytest.raises(WordSyntaxError, match="unknown token 's\u00b2'"):
        parse_trace("0\tGEN\tx1\tx2\n1\tMULR s\u00b2\tx1 s1\tx2 s1\n", p)


def test_verify_parsed_trace_with_zero_words_inside():
    # pairs inside a trace may carry z anywhere; the word syntax writes it "0"
    p = _pres("trivial")
    tr = collapse(ZERO_WORD, parse_word("y1 s1", 1), p)
    text = format_trace(tr)
    assert verify_trace(parse_trace(text, p), p) == (True, None, None)


# ------------------------------------------------ the two-sided reference
# collapse and unit_context as they were while every y-side case was written
# out by hand beside its x-side twin, and the bare-x ends, the empty word
# against single s-letters and a lone trailing s of P each had a search of
# their own; collapse now runs the y-side cases as the x-side cases on the
# mirror image and the other three as the x-side cases they reduce to, and
# must give the same traces


def _least_reference(p, hit):
    for t in range(1, p.n + 2):
        if hit(t):
            return t
    raise ColoringConditionError(check_conditions(p.coloring))


def _unit_context_reference(w, p):
    if w == ZERO_WORD:
        raise ValueError("the zero word has no unit context")
    f = partial(_bit, p.coloring)
    prefix, rest = decompose(w, p)
    b = []
    while rest:
        role, idx = rest[-1]
        if role == "x":
            k = _least_reference(p, lambda k: f(idx, 1, k))
            b += [("s", 1), ("y", k)]
            rest = rest[:-1]
        else:
            i = rest[-2][1]
            k = _least_reference(p, lambda k: f(i, idx, k))
            b.append(("y", k))
            rest = rest[:-2]
    a = []
    while prefix:
        role, idx = prefix[0]
        if role == "y":
            i = _least_reference(p, lambda i: f(i, 1, idx))
            a = [("x", i), ("s", 1)] + a
            prefix = prefix[1:]
        elif len(prefix) >= 2:
            k = prefix[1][1]
            i = _least_reference(p, lambda i: f(i, idx, k))
            a = [("x", i)] + a
            prefix = prefix[2:]
        else:
            k = _least_reference(p, lambda k: f(1, idx, k))
            a = [("x", 1)] + a
            b.append(("y", k))
            prefix = EMPTY_WORD
    return tuple(a), tuple(b)


def _end_pair_reference(w):
    role, idx = w[-1]
    if role == "x":
        return idx, None
    return w[-2][1], idx


def _start_pair_reference(w):
    role, idx = w[0]
    if role == "y":
        return None, idx
    return idx, w[1][1]


def _condition(note):
    # the condition C1..C6 that a reference note names, or None; no note names two
    named = re.findall(r"C\d", note)
    return named[0] if named else None


def _collapse_reference(u, v, p):
    if u == v:
        raise ValueError("identical inputs generate no congruence")
    _check_normal(u, p, "left word")
    _check_normal(v, p, "right word")
    f = partial(_bit, p.coloring)
    steps = [WitnessStep((u, v), ("GEN",))]
    left, right = u, v

    def multiply_left(g, note):
        nonlocal left, right
        left, right = g + left, g + right
        steps.append(WitnessStep((left, right), ("MULL", g), _condition(note)))

    def multiply_right(g, note):
        nonlocal left, right
        left, right = left + g, right + g
        steps.append(WitnessStep((left, right), ("MULR", g), _condition(note)))

    def rewrite(note):
        nonlocal left, right
        nl, nr = normal_form(left, p), normal_form(right, p)
        if nl == left and nr == right:
            return
        side = "both" if (nl != left and nr != right) else ("left" if nl != left else "right")
        left, right = nl, nr
        steps.append(WitnessStep((left, right), ("REWRITE", side), _condition(note)))

    guard = 2 * (len(u) + len(v)) + 8
    for _ in range(guard):
        if (left, right) in TERMINAL:
            return WitnessTrace(tuple(steps))
        if left == right:
            # each move was chosen from the coloring to keep the pair apart, so an
            # equal pair means some rule's right side contradicts the coloring
            raise ValueError(
                f"collapse reached the equal pair ({format_word(left)}, {format_word(right)}):"
                " the rules disagree with the coloring"
            )

        if left == ZERO_WORD or right == ZERO_WORD:
            # one side is zero: lift the other to the identity by a unit context
            w = right if left == ZERO_WORD else left
            a, b = _unit_context_reference(w, p)
            note = "zero side: unit context"
            if a:
                multiply_left(a, note)
            if b:
                multiply_right(b, note)
            rewrite(note)
            continue

        lx = any(r == "x" for r, _ in left)
        rx = any(r == "x" for r, _ in right)
        ly = any(r == "y" for r, _ in left)
        ry = any(r == "y" for r, _ in right)

        if lx and rx:
            li, lj = _end_pair_reference(left)
            ri, rj = _end_pair_reference(right)
            if lj is not None and rj is not None:
                if (li, lj) == (ri, rj):
                    k = _least_reference(p, lambda k: f(li, lj, k))
                    note = f"both end x s, equal pairs: strip with y{k} (C1)"
                else:
                    k = _least_reference(p, lambda k: f(li, lj, k) != f(ri, rj, k))
                    note = f"both end x s, distinct pairs: split with y{k} (C5)"
                g = (("y", k),)
            elif lj is None and rj is None:
                if li == ri:
                    k = _least_reference(p, lambda k: f(li, 1, k))
                    note = f"both end x, equal index: strip with s1 y{k} (C1)"
                else:
                    k = _least_reference(p, lambda k: f(li, 1, k) != f(ri, 1, k))
                    note = f"both end x, distinct indices: split with s1 y{k} (C5)"
                g = (("s", 1), ("y", k))
            else:
                i, j = (li, lj) if lj is not None else (ri, rj)
                k = _least_reference(p, lambda k: f(i, j, k))
                note = f"mixed ends: y{k} strips the x s side, zeroes the bare x (C1)"
                g = (("y", k),)
            multiply_right(g, note)
            rewrite(note)
            continue

        if ly and ry:
            lj, lk = _start_pair_reference(left)
            rj, rk = _start_pair_reference(right)
            if lj is not None and rj is not None:
                if (lj, lk) == (rj, rk):
                    i = _least_reference(p, lambda i: f(i, lj, lk))
                    note = f"both start s y, equal pairs: strip with x{i} (C2)"
                else:
                    i = _least_reference(p, lambda i: f(i, lj, lk) != f(i, rj, rk))
                    note = f"both start s y, distinct pairs: split with x{i} (C6)"
                g = (("x", i),)
            elif lj is None and rj is None:
                if lk == rk:
                    i = _least_reference(p, lambda i: f(i, 1, lk))
                    note = f"both start y, equal index: strip with x{i} s1 (C2)"
                else:
                    i = _least_reference(p, lambda i: f(i, 1, lk) != f(i, 1, rk))
                    note = f"both start y, distinct indices: split with x{i} s1 (C6)"
                g = (("x", i), ("s", 1))
            else:
                j, k = (lj, lk) if lj is not None else (rj, rk)
                i = _least_reference(p, lambda i: f(i, j, k))
                note = f"mixed starts: x{i} strips the s y side, zeroes the bare y (C2)"
                g = (("x", i),)
            multiply_left(g, note)
            rewrite(note)
            continue

        if lx or rx:
            # exactly one side contains x; kill it on the right
            w = left if lx else right
            i, j = _end_pair_reference(w)
            if j is None:
                k = i
                note = f"single x side ending x{i}: y{i} zeroes it"
            else:
                k = _least_reference(p, lambda k: not f(i, j, k))
                note = f"single x side ending x{i} s{j}: y{k} colored 0 zeroes it (C3)"
            multiply_right((("y", k),), note)
            rewrite(note)
            continue

        if ly or ry:
            # exactly one side contains y and no side contains x; kill it on the left
            w = left if ly else right
            j, k = _start_pair_reference(w)
            if j is None:
                i = k
                note = f"single y side starting y{k}: x{k} zeroes it"
            else:
                i = _least_reference(p, lambda i: not f(i, j, k))
                note = f"single y side starting s{j} y{k}: x{i} colored 0 zeroes it (C4)"
            multiply_left((("x", i),), note)
            rewrite(note)
            continue

        # both sides are the empty word or a single s-letter
        sl = left[0][1] if left else None
        sr = right[0][1] if right else None
        if sl is None or sr is None:
            j = sl if sl is not None else sr
            k = _least_reference(p, lambda k: f(1, j, k))
            note = f"identity vs s{j}: wrap x1 .. y{k} (C1)"
        else:
            k = _least_reference(p, lambda k: f(1, sl, k) != f(1, sr, k))
            note = f"s{sl} vs s{sr}: wrap x1 .. y{k} (C5)"
        multiply_left((("x", 1),), note)
        multiply_right((("y", k),), note)
        rewrite(note)

    raise RuntimeError("collapse failed to terminate (invalid presentation?)")


def _cyclic(n):
    return CayleyTable(n, tuple(tuple((i + j) % n + 1 for j in range(n)) for i in range(n)))


def _assert_same_as_reference(u, v, p):
    # the same pairs and moves, each with the same condition C1..C6 or none
    got = [(s.pair, s.move, s.condition) for s in collapse(u, v, p).steps]
    want = [(s.pair, s.move, s.condition) for s in _collapse_reference(u, v, p).steps]
    assert got == want, (format_word(u), format_word(v))


@pytest.mark.parametrize("name", ["trivial", "z2", "leftzero2"])
def test_collapse_matches_reference_on_all_short_pairs(name):
    p = _pres(name)
    nonzero = enumerate_normal_forms(p, 3)
    words = nonzero + [ZERO_WORD]
    for u in nonzero:
        assert unit_context(u, p) == _unit_context_reference(u, p), format_word(u)
    for u in words:
        for v in words:
            if u != v:
                _assert_same_as_reference(u, v, p)


def _random_normal_form(p, rng, maxlen):
    # extend by random letters that keep the word a normal form
    letters = alphabet(p.n)
    w = EMPTY_WORD
    for _ in range(rng.randint(0, maxlen)):
        fits = [a for a in letters if normal_form(w + (a,), p) == w + (a,)]
        w += (rng.choice(fits),)
    return w


@pytest.mark.parametrize("name", ["t2", "Z_8"])
def test_collapse_matches_reference_on_random_pairs(name):
    p = generate_presentation(_cyclic(8), build_coloring(8)) if name == "Z_8" else _pres(name)
    rng = random.Random(20130122)
    words = [_random_normal_form(p, rng, 8) for _ in range(600)] + [ZERO_WORD]
    # the sample reaches past the short sweep's length 3, words whose P ends
    # in a lone s included
    assert any(len(u) > 3 and [r for r, _ in decompose(u, p)[0][-1:]] == ["s"] for u in words[:-1])
    for u in words[:-1]:
        assert unit_context(u, p) == _unit_context_reference(u, p), format_word(u)
    for _ in range(6000):
        u, v = rng.choice(words), rng.choice(words)
        if u != v:
            _assert_same_as_reference(u, v, p)


# ------------------------------------------------------------ mirror symmetry
# The mirror image maps the presentation for (t, f) onto the one for the
# opposite table and the transposed coloring fT(i, j, k) = f(k, j, i), and
# turns C1, C3, C5 into C2, C4, C6; the y-side moves of collapse and
# unit_context rest on both claims.

_MIRROR_CONDITION = {"C1": "C2", "C2": "C1", "C3": "C4", "C4": "C3", "C5": "C6", "C6": "C5"}


def _opposite(t):
    return CayleyTable(t.n, tuple(zip(*t.rows)))


def _transposed(c):
    size = c.n + 1
    return Coloring(c.n, tuple(
        tuple(tuple(c.bits[i][j][k] for i in range(size)) for j in range(c.n)) for k in range(size)
    ))


@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["Z_8"])
def test_mirror_maps_the_rules_onto_those_of_the_opposite_table_and_transposed_coloring(name):
    if name == "Z_8":
        t = CayleyTable(8, tuple(tuple((i + j) % 8 + 1 for j in range(8)) for i in range(8)))
    else:
        t = builtin(name)
    f = build_coloring(t.n)
    rules = {(r.lhs, r.rhs) for r in _generate_unchecked(t, f).rules}
    mirrored = {(r.lhs, r.rhs) for r in _generate_unchecked(_opposite(t), _transposed(f)).rules}
    assert {(_mirror(lhs), _mirror(rhs)) for lhs, rhs in rules} == mirrored


def test_transposing_the_coloring_swaps_the_mirror_conditions():
    # only the pass flags are compared: each condition reports its first
    # violation in its own index order
    rng = random.Random(2013)
    colorings = [build_coloring(n) for n in range(1, 9)]
    for n in (1, 2, 3):
        size = n + 1
        for _ in range(300):
            p = rng.random()
            colorings.append(Coloring(n, tuple(
                tuple(tuple(int(rng.random() < p) for _ in range(size)) for _ in range(n)) for _ in range(size)
            )))
    for f in colorings:
        flags = {name: ok for name, (ok, _) in check_conditions(f).items()}
        flags_t = {name: ok for name, (ok, _) in check_conditions(_transposed(f)).items()}
        assert flags_t == {_MIRROR_CONDITION[name]: ok for name, ok in flags.items()}, f
