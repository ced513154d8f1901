import dataclasses
import gc
import itertools
import json
import os
import random
from collections import Counter
from types import MappingProxyType

import pytest

from cfmonoid import presentation
from cfmonoid.coloring import Coloring, build_coloring, coloring_entry
from cfmonoid.presentation import (
    EMPTY_WORD,
    ColoringConditionError,
    NotAssociativeError,
    Presentation,
    RULE_FAMILIES,
    Rule,
    WordSyntaxError,
    ZERO_LETTER,
    ZERO_WORD,
    _family,
    _generate_unchecked,
    _indented_json,
    _parse_token,
    _runs,
    _token,
    alphabet,
    format_word,
    generate_presentation,
    parse_word,
    presentation_from_json,
    presentation_to_json,
    rule_counts,
)
from cfmonoid.rewrite import check_local_confluence, normal_form
from cfmonoid.semigroup import BUILTIN_NAMES, CayleyTable, builtin
from test_rewrite import _classes


def _pres(name):
    t = builtin(name)
    return generate_presentation(t, build_coloring(t.n))


def _cyclic(n):
    return CayleyTable(n, tuple(tuple((i + j) % n + 1 for j in range(n)) for i in range(n)))


def _json_data(p):
    return {
        "n": p.n,
        "table": [list(row) for row in p.table.rows],
        "coloring": [[list(row) for row in plane] for plane in p.coloring.bits],
        "rules": [
            {"family": r.family, "lhs": [_token(a) for a in r.lhs], "rhs": [_token(a) for a in r.rhs]}
            for r in p.rules
        ],
    }


def _reference_json(p):
    # the former writer, kept as the reference for the file layout
    return json.dumps(_json_data(p), indent=1)


def _reference_rule_counts(p):
    # the former rule_counts, kept as the reference: the family of every rule
    return Counter(map(_family, p.lhs_map))


# ---------------------------------------------------------------- word syntax

def test_parse_word_basic():
    assert parse_word("x1 s2 y3", 2) == (("x", 1), ("s", 2), ("y", 3))


def test_parse_identity_and_zero():
    assert parse_word("1", 3) == EMPTY_WORD
    assert parse_word("0", 3) == ZERO_WORD


def test_parse_zero_inside_word():
    assert parse_word("x1 0 y2", 1) == (("x", 1), ZERO_LETTER, ("y", 2))


def test_parse_index_out_of_range():
    with pytest.raises(WordSyntaxError, match="index out of range"):
        parse_word("s9", 2)
    with pytest.raises(WordSyntaxError, match="index out of range"):
        parse_word("s3", 2)  # s stops at n
    assert parse_word("x3", 2) == (("x", 3),)  # x and y go up to n+1
    with pytest.raises(WordSyntaxError, match="index out of range"):
        parse_word("x4", 2)
    with pytest.raises(WordSyntaxError, match="index out of range"):
        parse_word("s0", 2)


def test_parse_unknown_token():
    with pytest.raises(WordSyntaxError, match="unknown token"):
        parse_word("q1", 2)
    with pytest.raises(WordSyntaxError, match="unknown token"):
        parse_word("s", 2)


def test_parse_word_takes_only_ascii_digits():
    # str.isdigit() also accepts "\u0661" (ARABIC-INDIC ONE), which int() reads
    # as 1, and "\u00b2" (SUPERSCRIPT TWO), which int() rejects
    for text in ("s\u0661", "x\u0661 y1", "s\u00b2", "y\u0662"):
        with pytest.raises(WordSyntaxError, match="unknown token"):
            parse_word(text, 2)


def test_one_only_alone():
    with pytest.raises(WordSyntaxError, match="only allowed as the whole word"):
        parse_word("s1 1", 2)


def test_parse_empty_text():
    with pytest.raises(WordSyntaxError):
        parse_word("   ", 2)


def _reference_parse_word(text, n):
    # the former parse_word, kept as the reference: every token goes through
    # the token parser
    tokens = text.split()
    if not tokens:
        raise WordSyntaxError("empty word text; write '1' for the identity")
    if tokens == ["1"]:
        return EMPTY_WORD
    letters = []
    for tok in tokens:
        if tok == "1":
            raise WordSyntaxError("'1' is only allowed as the whole word")
        letters.append(_parse_token(tok, n))
    return tuple(letters)


def _parsed(parse, text, n):
    try:
        return parse(text, n)
    except WordSyntaxError as e:
        return f"WordSyntaxError: {e}"


def test_parse_word_matches_the_token_parser():
    rng = random.Random(20131)
    texts = ["1", "0", "s01", "x02", "y002 s01", "s1 1", "1 1", "", "   ", "q1", "s", "s0", "s-1", "x", "S1"]
    for n in range(1, 5):
        tokens = [format_word((a,)) for a in alphabet(n, include_zero=True)]
        texts += tokens
        texts += [" ".join(rng.choices(tokens, k=rng.randint(1, 8))) for _ in range(50)]
        texts += [f"{tok} s{n + 1}" for tok in tokens] + [f"x{n + 2} {tok}" for tok in tokens]
    for text in texts:
        for n in range(1, 5):
            assert _parsed(parse_word, text, n) == _parsed(_reference_parse_word, text, n), (text, n)
    assert parse_word("s01 x02", 2) == (("s", 1), ("x", 2))


def test_format_word():
    assert format_word(EMPTY_WORD) == "1"
    assert format_word(ZERO_WORD) == "0"
    assert format_word((("x", 1), ("s", 2), ("y", 3))) == "x1 s2 y3"


def test_word_roundtrip():
    for text in ("1", "0", "s1", "x2 s1 y2", "x1 0 y1", "y2 s1 x2 s1"):
        assert format_word(parse_word(text, 1)) == text


# ----------------------------------------------------------------- generation

@pytest.mark.parametrize("n", range(1, 6))
def test_rule_counts_closed_form(n):
    table = CayleyTable(n, tuple(tuple(i for _ in range(n)) for i in range(1, n + 1)))
    # left-zero semigroup of order n: always associative
    p = generate_presentation(table, build_coloring(n))
    counts = rule_counts(p)
    assert counts["A"] == n * n
    assert counts["B"] == (n + 1) * n * (n + 1)
    assert counts["C"] == (n + 1) * (n + 1)
    assert counts["Z_left"] == n + 2 * (n + 1)
    assert counts["Z_right"] == n + 2 * (n + 1) + 1


def test_trivial_presentation_full_inventory():
    p = _pres("trivial")
    assert len(p.rules) == 20
    listed = [(r.family, format_word(r.lhs), format_word(r.rhs)) for r in p.rules]
    assert listed == [
        ("A", "s1 s1", "s1"),
        ("B", "x1 s1 y1", "1"),
        ("B", "x1 s1 y2", "0"),
        ("B", "x2 s1 y1", "0"),
        ("B", "x2 s1 y2", "1"),
        ("C", "x1 y1", "0"),
        ("C", "x1 y2", "0"),
        ("C", "x2 y1", "0"),
        ("C", "x2 y2", "0"),
        ("Z_left", "0 s1", "0"),
        ("Z_left", "0 x1", "0"),
        ("Z_left", "0 x2", "0"),
        ("Z_left", "0 y1", "0"),
        ("Z_left", "0 y2", "0"),
        ("Z_right", "s1 0", "0"),
        ("Z_right", "x1 0", "0"),
        ("Z_right", "x2 0", "0"),
        ("Z_right", "y1 0", "0"),
        ("Z_right", "y2 0", "0"),
        ("Z_right", "0 0", "0"),
    ]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_b_rule_rhs_follows_coloring(name):
    p = _pres(name)
    n = p.n
    for r in p.rules:
        if r.family != "B":
            continue
        (_, i), (_, j), (_, k) = r.lhs
        want = EMPTY_WORD if coloring_entry(n, i, j, k) == 1 else ZERO_WORD
        assert r.rhs == want
        assert len(r.rhs) <= 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_rules_realize_the_table(name):
    p = _pres(name)
    a_rules = {r.lhs: r.rhs for r in p.rules if r.family == "A"}
    for i in range(1, p.n + 1):
        for j in range(1, p.n + 1):
            assert a_rules[(("s", i), ("s", j))] == (("s", p.table.mul(i, j)),)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_all_rules_length_reducing(name):
    for r in _pres(name).rules:
        assert len(r.rhs) < len(r.lhs)


def test_rule_constructor_rejects_non_reducing():
    # Presentation checks the shapes of its rules; Rule is a plain value
    z2 = _pres("z2")
    for lhs, rhs in (("s1", "s1"), ("s1 s1", "s1 s1"), ("s1", "s1 s1")):
        with pytest.raises(ValueError, match="length-reducing"):
            Presentation(z2.n, z2.table, z2.coloring, {**z2.lhs_map, parse_word(lhs, 2): parse_word(rhs, 2)})


def test_rule_family_is_read_off_the_left_side():
    families = {
        "s2 s1": "A", "x1 s2 y3": "B", "x3 y1": "C", "0 s1": "Z_left", "0 y2": "Z_left",
        "x1 0": "Z_right", "0 0": "Z_right",
    }
    for lhs, family in families.items():
        assert Rule(parse_word(lhs, 2), ZERO_WORD).family == family
    # left sides outside the five families, as the hand-built test systems use
    assert Rule(parse_word("s1 x1", 2), ZERO_WORD).family is None
    assert Rule(parse_word("s1 s1 s1", 2), ZERO_WORD).family is None
    assert RULE_FAMILIES == ("A", "B", "C", "Z_left", "Z_right")
    assert not hasattr(Rule(parse_word("s1 s1", 2), ZERO_WORD), "__dict__")
    z2 = _pres("z2")
    extra = Presentation(z2.n, z2.table, z2.coloring, {**z2.lhs_map, parse_word("s1 x1", 2): ZERO_WORD})
    assert rule_counts(extra) == {**rule_counts(z2), None: 1}


def test_generate_rejects_non_associative():
    bad = CayleyTable(2, ((2, 1), (1, 1)))
    with pytest.raises(NotAssociativeError) as e:
        generate_presentation(bad, build_coloring(2))
    assert e.value.triple == (1, 1, 2)


def test_generate_rejects_bad_coloring():
    ones = Coloring(2, tuple(tuple((1, 1, 1) for _ in range(2)) for _ in range(3)))
    with pytest.raises(ColoringConditionError) as e:
        generate_presentation(builtin("z2"), ones)
    assert e.value.report["C3"][0] is False


def test_generate_rejects_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        generate_presentation(builtin("z2"), build_coloring(3))


def test_presentation_rejects_an_order_that_is_not_its_table_and_coloring_order():
    # n=3 over z2's table and coloring would list s3 as a normal form and
    # send unit_context and collapse past the end of the table and coloring
    z2, z3 = _pres("z2"), _pres("z3")
    for n, table, coloring in ((3, z2.table, z2.coloring), (2, z3.table, z2.coloring), (2, z2.table, z3.coloring)):
        with pytest.raises(ValueError, match="order mismatch"):
            Presentation(n, table, coloring, z2.lhs_map)
    same = Presentation(2, z2.table, z2.coloring, z2.lhs_map).lhs_map
    assert same == z2.lhs_map and same is not z2.lhs_map


@pytest.mark.parametrize("wrap", [lambda d: d, MappingProxyType], ids=["dict", "own-proxy"])
def test_a_presentation_copies_the_map_it_is_given(wrap):
    # the caller keeps the dict it passed, bare or under its own proxy, and
    # changes it after the first reduction: the rules, the reductions, the
    # confluence check and the value all stay those of the map as passed
    z2 = _pres("z2")
    lhs = parse_word("x1 s1 y1", 2)
    d = dict(z2.lhs_map)
    q = Presentation(z2.n, z2.table, z2.coloring, wrap(d))
    assert normal_form(lhs, q) == EMPTY_WORD
    d[lhs] = ZERO_WORD
    assert q.lhs_map == z2.lhs_map and q.lhs_map[lhs] == EMPTY_WORD
    assert normal_form(lhs, q) == EMPTY_WORD
    assert check_local_confluence(q)[0]
    assert q == z2


@pytest.mark.parametrize("n", [1, 2, 5])
def test_generated_left_sides_share_one_tuple_per_letter(n):
    p = generate_presentation(_cyclic(n), build_coloring(n))
    assert len({id(a) for r in p.rules for a in r.lhs}) == len(alphabet(n, include_zero=True))


def test_deterministic_rule_order():
    p1 = _pres("z2")
    p2 = _pres("z2")
    assert p1.rules == p2.rules
    families = [r.family for r in p1.rules]
    assert families == sorted(families, key=("A", "B", "C", "Z_left", "Z_right").index)


def test_alphabet():
    assert alphabet(1) == (("s", 1), ("x", 1), ("x", 2), ("y", 1), ("y", 2))
    assert alphabet(1, include_zero=True)[-1] == ZERO_LETTER


# -------------------------------------------------------------- serialization

@pytest.mark.parametrize("name", ("trivial", "z2", "t2"))
def test_json_roundtrip(name):
    p = _pres(name)
    assert presentation_from_json(presentation_to_json(p)) == p


def test_json_deterministic():
    a = presentation_to_json(_pres("z3"))
    b = presentation_to_json(_pres("z3"))
    assert a == b


def test_json_keeps_tampered_rules():
    # a tampered A rule is loaded as stored, not regenerated from the table
    p = _pres("leftzero2")
    data = json.loads(presentation_to_json(p))
    assert data["rules"][0] == {"family": "A", "lhs": ["s1", "s1"], "rhs": ["s1"]}
    data["rules"][0]["rhs"] = ["s2"]
    loaded = presentation_from_json(json.dumps(data, indent=1) + "\n")
    assert loaded.rules[0].rhs == (("s", 2),)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("Z_8", "Z_32"))
def test_json_bytes_match_indented_json_dumps(name):
    if name.startswith("Z_"):
        n = int(name[2:])
        p = generate_presentation(_cyclic(n), build_coloring(n))
    else:
        p = _pres(name)
    assert presentation_to_json(p) == _reference_json(p)


def _reordered(p, first, extra=()):
    # p's rules with the left sides in first (word syntax) moved to the front
    # in that order, after them the extra (left side, right side) pairs, and
    # then the rest of p's rules in their order
    front = [parse_word(lhs, p.n) for lhs in first]
    rules = {lhs: p.lhs_map[lhs] for lhs in front}
    rules.update((parse_word(lhs, p.n), parse_word(rhs, p.n)) for lhs, rhs in extra)
    rules.update(p.lhs_map)
    return Presentation(p.n, p.table, p.coloring, rules)


def _shuffled(p, seed):
    rules = list(p.lhs_map.items())
    random.Random(seed).shuffle(rules)
    return Presentation(p.n, p.table, p.coloring, dict(rules))


_Z8 = generate_presentation(_cyclic(8), build_coloring(8))


@pytest.mark.parametrize(
    "q",
    [
        _Z8,
        _shuffled(_Z8, 0),
        _shuffled(_Z8, 1),
        # one head, several families: s1 s1 (A) beside s1 0 (Z_right), and
        # 0 y3 (Z_left) beside 0 0 (Z_right)
        _reordered(_pres("z2"), ["s1 s1", "s1 0", "s1 s2", "0 y3", "0 0", "0 y2"]),
        # left sides of no family, inside a run of A rules and on their own
        _reordered(_pres("z2"), ["s1 s1"], [("s1 x1", "0"), ("s1 s1 s1", "s1"), ("x1 x2", "1")]),
    ],
    ids=["Z_8", "Z_8-shuffled-0", "Z_8-shuffled-1", "mixed-families", "no-family"],
)
def test_runs_write_and_count_any_map_as_the_per_rule_references(q):
    runs = q._runs
    assert runs == tuple(_runs(q.lhs_map))
    # the runs cover the map in its order, and are maximal
    assert [head + (a,) for _, head, lasts in runs for a in lasts] == list(q.lhs_map)
    ends = [(head, lasts[0][0], lasts[-1][0]) for _, head, lasts in runs]
    assert all((a[0], a[2]) != (b[0], b[1]) for a, b in zip(ends, ends[1:]))
    # each run shares its head, the role of its last letter and its family
    for family, head, lasts in runs:
        assert len(lasts) >= 1
        assert {(_family(head + (a,)), a[0]) for a in lasts} == {(family, lasts[0][0])}
    assert presentation_to_json(q) == _reference_json(q)
    assert rule_counts(q) == _reference_rule_counts(q)


@pytest.mark.parametrize(
    "value",
    [[], (), [7], [[]], ((),), [[], [1]], ((1, 2), [3]), [[[0, 1], []], [[1]]], [[[]]], [0, [1], []]],
)
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_header_writer_matches_indented_json_dumps(value, depth):
    # an item at nesting depth d is json.dumps(indent=1) of it with every
    # line after the first indented by d more spaces; an empty list is "[]"
    expected = json.dumps(value, indent=1).replace("\n", "\n" + " " * depth)
    assert _indented_json(value, depth) == expected


def test_header_writer_text_does_not_depend_on_earlier_calls(monkeypatch):
    # ints are written through a table that fills as it goes, but a hand-built
    # bool entry, equal to 0 or 1, is written by the per-item writer, as str
    # writes it, whether or not the table holds 1 and 0
    monkeypatch.setattr(presentation, "_int_text", presentation._IntTexts().__getitem__)
    values = [[True, False], [True], ((1, True), [0]), [2, 1, 0], ((0, 1), (1, 0))]
    first = [_indented_json(v, 1) for v in values]
    assert first[0] == "[\n  True,\n  False\n ]"
    assert [_indented_json(v, 1) for v in values] == first
    assert [_indented_json(v, 1) for v in reversed(values)] == first[::-1]


def test_json_bytes_match_with_tampered_rule_and_without_rules():
    p = _pres("z2")
    tampered = {**p.lhs_map, (("s", 1), ("s", 1)): (("s", 2),)}
    for q in (Presentation(p.n, p.table, p.coloring, tampered), Presentation(p.n, p.table, p.coloring, {})):
        text = presentation_to_json(q)
        assert text == _reference_json(q)
        if q.rules:
            assert presentation_from_json(text) == q
        else:
            with pytest.raises(ValueError, match="invalid presentation file: line 51, column 12: "):
                presentation_from_json(text)


def test_json_nested_too_deeply_to_decode():
    with pytest.raises(ValueError, match="invalid presentation JSON"):
        presentation_from_json("[" * 100_000 + "]" * 100_000)


def test_json_letters_are_shared_across_rules():
    p = presentation_from_json(presentation_to_json(_pres("z3")))
    ids = {}
    for r in p.rules:
        for a in r.lhs + r.rhs:
            assert ids.setdefault(a, id(a)) == id(a)


def test_json_bad_input():
    with pytest.raises(ValueError, match="invalid presentation JSON"):
        presentation_from_json("{not json")
    with pytest.raises(ValueError, match="invalid presentation file"):
        presentation_from_json('{"n": 1}')


# ------------------------------------------------------------------ the loader

def _base(name):
    # the presentation of a builtin, or of the cyclic group for "Z_<n>"
    if name.startswith("Z_"):
        n = int(name[2:])
        return generate_presentation(_cyclic(n), build_coloring(n))
    return _pres(name)


def _build_file(name):
    # the text that build writes
    return presentation_to_json(_base(name)) + "\n"


def _edited(edit):
    # a mutation that edits the decoded file and writes it back in build's
    # layout, so that everything but the edit is build's text
    def mutate(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data, indent=1) + "\n"
    return mutate


def _set(family, key, value, lhs=None):
    # the first rule of the family (or the rule of the given left side, in
    # word syntax) with one field replaced by value(old field)
    def edit(data):
        rule = next(r for r in data["rules"] if r["family"] == family and lhs in (None, " ".join(r["lhs"])))
        rule[key] = value(rule[key])
    return _edited(edit)


def _token_at(side, token):
    # the first token of the first C rule's left or right side replaced
    return _set("C", side, lambda word: [token, *word[1:]])


def _a_rhs(rhs):
    # the first A rule's right side replaced by rhs(n)
    def edit(data):
        next(r for r in data["rules"] if r["family"] == "A")["rhs"] = rhs(data["n"])
    return _edited(edit)


def _deleted(*lhss):
    # the rules of the given left sides (word syntax) deleted
    return _edited(lambda data: data.update(rules=[r for r in data["rules"] if " ".join(r["lhs"]) not in lhss]))


def _appended(family, lhs, rhs):
    return _edited(lambda data: data["rules"].append({"family": family, "lhs": lhs.split(), "rhs": rhs.split()}))


def _rule_set(number, value):
    # rule number (from 1) replaced by value(rule)
    def edit(data):
        data["rules"][number - 1] = value(data["rules"][number - 1])
    return _edited(edit)


def _without(key, number):
    # rule number (from 1) without one of its fields
    return _rule_set(number, lambda rule: {k: v for k, v in rule.items() if k != key})


def _insert_twice(data):
    # a second rule for the left side x1 y1, just before the first
    at = next(t for t, r in enumerate(data["rules"]) if r["lhs"] == ["x1", "y1"])
    data["rules"].insert(at, {"family": "C", "lhs": ["x1", "y1"], "rhs": ["s1"]})


def _swap_first_two(data):
    rules = data["rules"]
    rules[0], rules[1] = rules[1], rules[0]


def _non_associative_table(data):
    # t(i, j) = j + 1 mod n: (ab)c = c + 1 but a(bc) = c + 2
    n = data["n"]
    data["table"] = [[j % n + 1 for j in range(1, n + 1)] for _ in range(n)]


def _failing_coloring(data):
    # f(1, 1, k) = 0 for every k, which fails C1 and C2
    data["coloring"][0][0] = [0] * (data["n"] + 1)


def _next_n(data):
    data["n"] += 1


def _nested_table(text):
    data = json.loads(text)
    data["table"] = "nested"
    return json.dumps(data, indent=1).replace('"nested"', "[" * 100_000 + "]" * 100_000)


def _top_level(value):
    # the file's object replaced by value(object), written in build's layout
    return lambda text: json.dumps(value(json.loads(text)), indent=1) + "\n"


def _flip(rhs):
    return [] if rhs else ["0"]


# every change to build's text but an A right side; _HEADER_FAULTS names the
# ones that the header's decode or checks reject, and every other one fails at
# its first difference from build's text
_MUTATIONS = {
    "B-rhs-flipped": _set("B", "rhs", _flip),
    "B-rhs-1-flipped-to-0": _set("B", "rhs", _flip, lhs="x1 s1 y1"),
    "B-rhs-0-flipped-to-1": _set("B", "rhs", _flip, lhs="x1 s1 y2"),
    "C-rhs-to-1": _set("C", "rhs", lambda rhs: []),
    "C-rhs-to-s1": _set("C", "rhs", lambda rhs: ["s1"]),
    "Z_left-rhs-to-1": _set("Z_left", "rhs", lambda rhs: []),
    "Z_right-rhs-to-y1": _set("Z_right", "rhs", lambda rhs: ["y1"]),
    "A-rhs-of-two-letters": _set("A", "rhs", lambda rhs: ["s1", "s1"]),
    "A-rhs-not-a-list": _set("A", "rhs", lambda rhs: "s1"),
    **{
        f"A-rhs-{kind}": _set("A", "rhs", lambda rhs, value=value: value)
        for kind, value in [("null", None), ("number", 0), ("string-0", "0"), ("object", {})]
    },
    # a letter one past the alphabet of the file's order (s3, x4, y4 at n=2)
    **{
        f"A-rhs-token-{role}-past-n": _a_rhs(lambda n, role=role, past=past: [f"{role}{n + past}"])
        for role, past in [("s", 1), ("x", 2), ("y", 2)]
    },
    **{
        f"A-rhs-token-{token!r}": _a_rhs(lambda n, token=token: [token])
        for token in ("q1", "1", "s0", "x0", "s01", "s\u0661", "y\u00b2", 5, None, ["s1"], True, 1.5, {"a": 1})
    },
    "C-labelled-A": _set("C", "family", lambda family: "A"),
    "A-labelled-Z_left": _set("A", "family", lambda family: "Z_left"),
    "zz-labelled-Z_left": _set("Z_right", "family", lambda family: "Z_left", lhs="0 0"),
    "Z_left-labelled-Z_right": _set("Z_left", "family", lambda family: "Z_right"),
    "B-labelled-C": _set("B", "family", lambda family: "C"),
    "C-labelled-null": _set("C", "family", lambda family: None),
    "rule-of-no-family-appended": _appended("A", "s1 x1", "x1"),
    "rule-of-no-family-labelled-null-appended": _appended(None, "s1 x1", "x1"),
    "1-letter-lhs-appended": _appended("C", "s1", ""),
    "4-letter-lhs-appended": _appended("C", "x1 x1 x1 x1", "0"),
    "2-letter-rhs-appended": _appended("C", "x1 s1 s1", "s1 s1"),
    "rule-deleted": _edited(lambda data: data["rules"].pop(3)),
    "C-rule-deleted": _deleted("x1 y1"),
    "two-rules-deleted": _deleted("0 0", "s2 s1"),
    "three-rules-deleted": _deleted("y3 0", "x1 s1 y1", "0 s1"),
    "all-rules-deleted": _edited(lambda data: data.update(rules=[])),
    "rule-duplicated": _edited(lambda data: data["rules"].insert(3, data["rules"][3])),
    "two-rules-for-x1-y1": _edited(_insert_twice),
    "rules-swapped": _edited(_swap_first_two),
    "rules-shuffled": _edited(lambda data: random.Random(0).shuffle(data["rules"])),
    "object-lhs": _set("C", "lhs", lambda lhs: dict.fromkeys(lhs, 0)),
    "string-rhs": _set("C", "rhs", lambda rhs: "0"),
    "word-text-lhs": _set("C", "lhs", " ".join),
    "null-rhs": _set("C", "rhs", lambda rhs: None),
    "number-rhs": _set("C", "rhs", lambda rhs: 0),
    **{
        f"{side}-token-{token!r}": _token_at(side, token)
        for token in ("q1", "s9", "x4", "1", "s\u0661", "y\u00b2", 5, None, ["s1"], True, 1.5, {"a": 1})
        for side in ("lhs", "rhs")
    },
    **{
        f"rules-{kind}": _edited(lambda data, value=value: data.update(rules=value))
        for kind, value in [
            ("empty-object", {}),
            ("object", {"0": {"family": "A", "lhs": ["s1", "s1"], "rhs": ["s1"]}}),
            ("string", "s1 s1"),
            ("null", None),
            ("number", 0),
        ]
    },
    **{f"rule-7-without-{key}": _without(key, 7) for key in ("family", "lhs", "rhs")},
    "rule-1-a-number": _rule_set(1, lambda rule: 5),
    "rule-7-a-string": _rule_set(7, lambda rule: "s1 s1"),
    "rule-7-a-list": _rule_set(7, lambda rule: ["s1", "s1"]),
    "rule-7-a-boolean": _rule_set(7, lambda rule: True),
    "compact": lambda text: json.dumps(json.loads(text)),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "leading-space": lambda text: " " + text,
    "trailing-vertical-tab": lambda text: text + "\x0b",
    "trailing-no-break-space": lambda text: text + "\xa0\n",
    "trailing-x": lambda text: text + "x",
    "trailing-second-object": lambda text: text + "{}\n",
    "truncated": lambda text: text[: len(text) // 2],
    "truncated-before-the-close": lambda text: text[: text.rindex("}")],
    "keys-reordered": _top_level(lambda data: dict(reversed(data.items()))),
    "top-list": _top_level(lambda data: [data]),
    **{
        f"top-{kind}": _top_level(lambda data, value=value: value)
        for kind, value in [("number", 5), ("string", "z2"), ("null", None)]
    },
    **{
        f"no-{key}": _top_level(lambda data, key=key: {k: v for k, v in data.items() if k != key})
        for key in ("n", "table", "coloring", "rules")
    },
    "bom": lambda text: "\ufeff" + text,
    "nested-100000-deep": _nested_table,
    "n-changed": _edited(_next_n),
    "non-associative": _edited(_non_associative_table),
    "coloring-fails": _edited(_failing_coloring),
}

# the type and the start of the message of each mutation of the header
_HEADER_FAULTS = {
    # every field but rules comes after "rules", so the header holds none
    "keys-reordered": (ValueError, "invalid presentation file: no field 'n' before \"rules\""),
    "top-list": (ValueError, "invalid presentation JSON: "),
    **{
        f"top-{kind}": (ValueError, "invalid presentation file: the top level must be an object")
        for kind in ("number", "string", "null")
    },
    **{
        f"no-{key}": (ValueError, f"invalid presentation file: no field {key!r} before \"rules\"")
        for key in ("n", "table", "coloring")
    },
    "no-rules": (ValueError, "invalid presentation file: no field 'rules'"),
    "bom": (ValueError, "invalid presentation JSON: Unexpected UTF-8 BOM"),
    "nested-100000-deep": (ValueError, "invalid presentation JSON: "),
    "n-changed": (ValueError, "invalid presentation file: table must be a "),
    "non-associative": (NotAssociativeError, "table is not associative"),
    "coloring-fails": (ColoringConditionError, "coloring fails C1, C2"),
}


def _line_and_column(text, other):
    # where text first differs from other, from 1: the line and the column of
    # the first character that differs, or of the end of text if it is a
    # prefix of other
    i = len(os.path.commonprefix([text, other]))
    lines = text[:i].split("\n")
    return len(lines), len(lines[-1]) + 1


@pytest.mark.parametrize("mutation", _MUTATIONS)
@pytest.mark.parametrize("name", ["z2", "t2", "Z_8"])
def test_a_file_that_is_not_builds_own_is_rejected(name, mutation):
    # no mutation changes an A right side, so build's text for the file's own
    # table, coloring and A right sides is build's file
    build = _build_file(name)
    text = _MUTATIONS[mutation](build)
    error, message = _HEADER_FAULTS.get(mutation) or (
        ValueError, "invalid presentation file: line {}, column {}: expected ".format(*_line_and_column(text, build))
    )
    with pytest.raises(ValueError) as e:
        presentation_from_json(text)
    assert type(e.value) is error
    assert str(e.value).startswith(message)


def test_the_first_difference_is_named_with_what_was_expected_and_found():
    build = _build_file("z2")
    with pytest.raises(ValueError) as e:
        presentation_from_json(_MUTATIONS["C-labelled-A"](build))
    assert str(e.value) == (
        "invalid presentation file: line 273, column 15:"
        """ expected 'C",\\n   "lhs"', found 'A",\\n   "lhs"'"""
    )
    with pytest.raises(ValueError) as e:
        presentation_from_json(build[:-3])
    assert str(e.value) == "invalid presentation file: line 532, column 3: expected '\\n}', found the end of the file"
    with pytest.raises(ValueError) as e:
        presentation_from_json(build + " x")
    assert str(e.value) == "invalid presentation file: line 534, column 2: expected JSON whitespace, found 'x'"


@pytest.mark.parametrize("rhs", [[], ["0"], ["s2"], ["x1"], ["y3"]], ids=["1", "0", "s2", "x1", "y3"])
@pytest.mark.parametrize("name", ["z2", "t2", "Z_8"])
def test_an_a_right_side_of_at_most_one_letter_loads_as_stored(name, rhs):
    # the one thing a file may vary; the first and the last A rule are changed
    p = _base(name)
    data = json.loads(_build_file(name))
    changed = {}
    for r in (data["rules"][0], data["rules"][p.n**2 - 1]):
        assert r["family"] == "A"
        r["rhs"] = rhs
        changed[parse_word(" ".join(r["lhs"]), p.n)] = parse_word(" ".join(rhs) or "1", p.n)
    loaded = presentation_from_json(json.dumps(data, indent=1) + "\n")
    assert list(loaded.lhs_map.items()) == list({**p.lhs_map, **changed}.items())


@pytest.mark.parametrize("trailer", ["", "\n", " \t\r\n\n"], ids=["none", "newline", "json-whitespace"])
@pytest.mark.parametrize("name", ["trivial", "z2", "t2", "Z_8"])
def test_builds_own_file_loads_as_the_generated_presentation(name, trailer):
    assert presentation_from_json(presentation_to_json(_base(name)) + trailer) == _base(name)


def _product(a, b):
    # the direct product of two tables, the pair (i, j) numbered (i - 1) * b.n + j
    pairs = list(itertools.product(range(1, a.n + 1), range(1, b.n + 1)))
    return CayleyTable(
        a.n * b.n,
        tuple(tuple((a.mul(i, k) - 1) * b.n + b.mul(j, l) for k, l in pairs) for i, j in pairs),
    )


_RUN_TABLES = {
    **{name: builtin(name) for name in BUILTIN_NAMES},
    "Z_8": _cyclic(8),
    "T_2xZ_2": _product(builtin("t2"), builtin("z2")),
}


@pytest.mark.parametrize(
    "tables", [*_RUN_TABLES, 1, 2, 3, 4], ids=[*_RUN_TABLES, *(f"order-{n}-classes" for n in range(1, 5))]
)
def test_generated_and_loaded_presentations_keep_the_runs_of_their_map(tables):
    # a name is one table, which also loads with its first A right side
    # tampered and with it []; an order n is one table per isomorphism class
    # of the semigroups of order n.  Each presentation, generated or loaded,
    # keeps the runs that its map cuts into, so the writer and the counts
    # read them as the per-rule references do
    named = tables in _RUN_TABLES
    for rows in [_RUN_TABLES[tables].rows] if named else _classes(tables):
        p = generate_presentation(CayleyTable(len(rows), rows), build_coloring(len(rows)))
        texts = [presentation_to_json(p) + "\n"]
        if named:
            texts += [_a_rhs(lambda n: ["x1"])(texts[0]), _a_rhs(lambda n: [])(texts[0])]
        loaded = list(map(presentation_from_json, texts))
        first = next(iter(p.lhs_map))
        assert [q.lhs_map[first] for q in loaded] == [p.lhs_map[first], (("x", 1),), EMPTY_WORD][: len(texts)]
        for q in (p, *loaded):
            assert "_runs" in vars(q)
            assert q._runs == tuple(_runs(q.lhs_map))
            assert presentation_to_json(q) == _reference_json(q)
            assert rule_counts(q) == _reference_rule_counts(q)


def test_only_a_value_made_otherwise_derives_its_runs_on_first_use(monkeypatch):
    # generation and loading keep the runs they fill, so writing and
    # counting them derives none; a map built by hand, and a value from
    # dataclasses.replace, derive theirs once, on first use
    derived = []

    def counting(lhs_map):
        derived.append(len(lhs_map))
        return _runs(lhs_map)

    monkeypatch.setattr(presentation, "_runs", counting)
    p = _base("Z_8")
    q = presentation_from_json(presentation_to_json(p))
    for r in (p, q):
        presentation_to_json(r)
        rule_counts(r)
    assert derived == []
    made = [
        Presentation(p.n, p.table, p.coloring, p.lhs_map),
        _shuffled(p, 0),
        dataclasses.replace(p),
        dataclasses.replace(q, lhs_map={**q.lhs_map, (("s", 1), ("s", 1)): EMPTY_WORD}),
    ]
    for r in made:
        assert "_runs" not in vars(r)
        assert presentation_to_json(r) == _reference_json(r)
        assert rule_counts(r) == _reference_rule_counts(r)
        assert r._runs == tuple(_runs(r.lhs_map))
    assert derived == [len(p.lhs_map)] * len(made)


def test_a_load_calls_neither_public_generator_nor_writer(monkeypatch):
    # a tracer wraps those two names, so a load through them would count a
    # generation and a file's bytes that no build made
    text = _build_file("Z_8")

    def forbidden(*args):
        raise AssertionError("called from the load")

    monkeypatch.setattr(presentation, "generate_presentation", forbidden)
    monkeypatch.setattr(presentation, "presentation_to_json", forbidden)
    assert presentation_from_json(text) == _base("Z_8")


def _built_from_a_non_associative_table(text):
    # build's text for t2's coloring and a non-associative table, rules and all
    p = _base("t2")
    data = json.loads(text)
    _non_associative_table(data)
    table = CayleyTable(p.n, tuple(map(tuple, data["table"])))
    return presentation_to_json(_generate_unchecked(table, p.coloring))


_A_RHS_CHANGED = _set("A", "rhs", lambda rhs: ["s2"] if rhs != ["s2"] else ["s1"])


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda text: text, None),
        (_MUTATIONS["compact"], ValueError),
        (_MUTATIONS["C-rhs-to-1"], ValueError),
        (_A_RHS_CHANGED, None),
        (_MUTATIONS["non-associative"], NotAssociativeError),
        (_built_from_a_non_associative_table, NotAssociativeError),
    ],
    ids=["build", "compact", "C-rhs-to-1", "A-rhs-changed", "non-associative",
         "rules-regenerated-from-a-non-associative-table"],
)
def test_every_load_checks_the_table_and_coloring_once(monkeypatch, edit, error):
    # once, before the rules are compared, so a file that differs past its
    # header runs both checks, and a non-associative table stops at the first
    text = edit(_build_file("t2"))
    calls = Counter()

    def counted(name):
        fn = getattr(presentation, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("is_associative", "check_conditions"):
        monkeypatch.setattr(presentation, name, counted(name))
    if error is None:
        presentation_from_json(text)
    else:
        with pytest.raises(error):
            presentation_from_json(text)
    assert calls == ({"is_associative": 1} if error is NotAssociativeError else
                     {"is_associative": 1, "check_conditions": 1})


@pytest.fixture
def collector():
    # gc.enable or gc.disable to run a test under; the state it found is restored
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _z2_text(edit=None):
    data = _json_data(_pres("z2"))
    if edit:
        edit(data)
    return json.dumps(data, indent=1) + "\n"


def _non_associative(data):
    data["table"] = [[2, 1], [1, 1]]


def _failing_c1(data):
    data["coloring"][0][0] = [0, 0, 0]


def _missing_rule(data):
    del data["rules"][5]


def _object_word(data):
    data["rules"][0]["lhs"] = {"s1": 0, "s2": 0}


@pytest.mark.parametrize(
    "text, error",
    [
        (_z2_text(), None),
        ("{not json", "invalid presentation JSON"),
        (_z2_text(_non_associative), "not associative"),
        (_z2_text(_failing_c1), "coloring fails C1"),
        (_z2_text(_missing_rule), "invalid presentation file: line 106, column 7: "),
        (_z2_text(_object_word), "invalid presentation file: line 54, column 11: "),
    ],
    ids=["loads", "invalid-json", "non-associative", "fails-C1", "missing-rule", "object-word"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_leaves_the_collector_as_it_found_it(collector, enabled, text, error):
    (gc.enable if enabled else gc.disable)()
    if error is None:
        presentation_from_json(text)
    else:
        with pytest.raises(ValueError, match=error):
            presentation_from_json(text)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize(
    "table, coloring, error",
    [
        (builtin("z2"), build_coloring(2), None),
        (CayleyTable(2, ((2, 1), (1, 1))), build_coloring(2), "not associative"),
        (builtin("z2"), Coloring(2, (((1, 1, 1),) * 2,) * 3), "coloring fails"),
    ],
    ids=["builds", "non-associative", "fails-C3"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_build_leaves_the_collector_as_it_found_it(collector, enabled, table, coloring, error):
    (gc.enable if enabled else gc.disable)()
    if error is None:
        generate_presentation(table, coloring)
    else:
        with pytest.raises(ValueError, match=error):
            generate_presentation(table, coloring)
    assert gc.isenabled() is enabled


def test_no_load_or_rule_generation_calls_the_collector(monkeypatch):
    # the library keeps no process-wide state: neither a load, accepted or
    # rejected, nor rule generation calls gc.disable, gc.enable or gc.isenabled
    build = _build_file("Z_16")
    compact = _MUTATIONS["compact"](build)
    tampered = _A_RHS_CHANGED(build)
    table, coloring = _cyclic(16), build_coloring(16)
    runs = {
        "load": lambda: presentation_from_json(build),
        "rejected compact-JSON load": lambda: pytest.raises(ValueError, presentation_from_json, compact),
        "tampered-A load": lambda: presentation_from_json(tampered),
        "generation": lambda: generate_presentation(table, coloring),
    }
    calls = []

    def recording(name, real):
        def call():
            calls.append(name)
            return real()
        return call

    for name in ("disable", "enable", "isenabled"):
        monkeypatch.setattr(gc, name, recording(name, getattr(gc, name)))
    made = {}
    for run, call in runs.items():
        call()
        made[run], calls[:] = calls[:], []
    assert made == dict.fromkeys(runs, [])


def test_lhs_map_matches_rules():
    p = _pres("z2")
    assert len(p.lhs_map) == len(p.rules)
    for r in p.rules:
        assert p.lhs_map[r.lhs] == r.rhs
