import pytest

from cfmonoid.coloring import build_coloring
from cfmonoid.presentation import (
    EMPTY_WORD,
    Presentation,
    Rule,
    ZERO_WORD,
    alphabet,
    format_word,
    generate_presentation,
    parse_word,
)
from cfmonoid.rewrite import enumerate_normal_forms, normal_form
from cfmonoid.semigroup import builtin
from cfmonoid.witness import (
    WitnessStep,
    WitnessTrace,
    collapse,
    decompose,
    format_trace,
    parse_trace,
    unit_context,
    verify_trace,
)

TERMINAL = ((EMPTY_WORD, ZERO_WORD), (ZERO_WORD, EMPTY_WORD))


def _pres(name):
    t = builtin(name)
    return generate_presentation(t, build_coloring(t.n))


# ------------------------------------------------------------------ decompose

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


def test_unit_context_rejects_zero_and_reducible():
    p = _pres("trivial")
    with pytest.raises(ValueError, match="zero word has no unit context"):
        unit_context(ZERO_WORD, p)
    with pytest.raises(ValueError, match="not a normal form"):
        unit_context(parse_word("s1 s1", 1), p)


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
    rules = tuple(Rule(r.lhs, EMPTY_WORD, r.family) if r.lhs == flipped else r for r in p.rules)
    bad = Presentation(p.n, p.table, p.coloring, rules)
    with pytest.raises(ValueError, match=r"equal pair \(1, 1\)"):
        collapse(parse_word("y2", 2), parse_word("y3", 2), bad)


def test_collapse_rejects_reducible_input():
    p = _pres("trivial")
    with pytest.raises(ValueError, match="not a normal form"):
        collapse(parse_word("s1 s1", 1), parse_word("s1", 1), p)


def test_collapse_steps_have_case_notes():
    p = _pres("trivial")
    tr = collapse(parse_word("x1", 1), parse_word("x2", 1), p)
    assert all(s.note for s in tr.steps)


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
    ok, idx, reason = verify_trace(WitnessTrace(p, tuple(steps)), p)
    assert not ok and idx == 2
    assert "does not match" in reason


def test_verify_rejects_wrong_terminal():
    p = _pres("trivial")
    steps = (
        WitnessStep((parse_word("s1", 1), ZERO_WORD), ("GEN",)),
    )
    ok, idx, reason = verify_trace(WitnessTrace(p, steps), p)
    assert not ok
    assert "final pair" in reason


def test_verify_rejects_bad_generator():
    p = _pres("trivial")
    equal = WitnessTrace(p, (WitnessStep((ZERO_WORD, ZERO_WORD), ("GEN",)),))
    ok, idx, reason = verify_trace(equal, p)
    assert not ok and idx == 0 and "equal" in reason

    reducible = WitnessTrace(
        p, (WitnessStep((parse_word("s1 s1", 1), ZERO_WORD), ("GEN",)),)
    )
    ok, idx, reason = verify_trace(reducible, p)
    assert not ok and idx == 0 and "not normal forms" in reason

    headless = WitnessTrace(
        p, (WitnessStep((EMPTY_WORD, ZERO_WORD), ("MULL", EMPTY_WORD)),)
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
    ok, idx, _ = verify_trace(WitnessTrace(p, tuple(steps)), p)
    assert not ok and idx == 1


# ---------------------------------------------------------------- trace files

def test_trace_format_roundtrip():
    p = _pres("leftzero2")
    tr = collapse(parse_word("x1 s2", 2), parse_word("y3", 2), p)
    text = format_trace(tr)
    back = parse_trace(text, p)
    assert back.steps == tr.steps  # notes are ignored in comparisons
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


def test_verify_parsed_trace_with_zero_words_inside():
    # pairs inside a trace may carry z anywhere; the word syntax writes it "0"
    p = _pres("trivial")
    tr = collapse(ZERO_WORD, parse_word("y1 s1", 1), p)
    text = format_trace(tr)
    assert verify_trace(parse_trace(text, p), p) == (True, None, None)
