import pytest

from cfmonoid.semigroup import (
    BUILTIN_NAMES,
    CayleyParseError,
    CayleyTable,
    builtin,
    format_cayley,
    is_associative,
    parse_cayley,
)


def test_parse_one_element():
    t = parse_cayley("1\n1\n")
    assert t == CayleyTable(1, ((1,),))
    assert t.mul(1, 1) == 1


def test_parse_left_zero():
    t = parse_cayley("2\n1 1\n2 2\n")
    assert t.rows == ((1, 1), (2, 2))
    assert all(t.mul(i, j) == i for i in (1, 2) for j in (1, 2))


def test_parse_entry_out_of_range():
    with pytest.raises(CayleyParseError, match="entry 3 out of range at row 1"):
        parse_cayley("2\n1 3\n2 2\n")


def test_parse_reports_line_numbers():
    with pytest.raises(CayleyParseError) as e:
        parse_cayley("# comment\n2\n1 2\n2 9\n")
    assert e.value.line == 4
    assert "row 2" in str(e.value)


def test_parse_comments_and_whitespace():
    t = parse_cayley("# left zero\n\n2\n1 1   \n# middle comment\n2 2\n\n")
    assert t.rows == ((1, 1), (2, 2))


def test_parse_malformed_integer():
    with pytest.raises(CayleyParseError, match="malformed integer"):
        parse_cayley("2\n1 a\n2 2\n")


def test_parse_wrong_row_length():
    with pytest.raises(CayleyParseError, match="row 1 has 3 entries, expected 2"):
        parse_cayley("2\n1 2 1\n2 2\n")


def test_parse_missing_rows():
    with pytest.raises(CayleyParseError, match="expected 2 rows, found 1"):
        parse_cayley("2\n1 2\n")


def test_parse_extra_rows():
    with pytest.raises(CayleyParseError, match="extra data"):
        parse_cayley("1\n1\n1\n")


def test_parse_empty():
    with pytest.raises(CayleyParseError, match="missing order"):
        parse_cayley("# nothing here\n")


def test_parse_bad_order():
    with pytest.raises(CayleyParseError, match="malformed order"):
        parse_cayley("two\n")
    with pytest.raises(CayleyParseError, match="positive"):
        parse_cayley("0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("\u0662\n1 +2\n2 0_1\n", "line 1: malformed order '\u0662'"),
        ("2\n\u0661 2\n2 \u0661\n", "line 2: malformed integer '\u0661' at row 1, column 1"),
        ("2\n1 +2\n2 1\n", "line 2: malformed integer '+2' at row 1, column 2"),
        ("2\n1 2\n2 0_1\n", "line 3: malformed integer '0_1' at row 2, column 2"),
        ("2\n1 \u00b2\n2 1\n", "line 2: malformed integer '\u00b2' at row 1, column 2"),
    ],
)
def test_parse_accepts_only_ascii_digits(text, message):
    # int() alone would read a sign, underscores and other digit scripts
    with pytest.raises(CayleyParseError) as e:
        parse_cayley(text)
    assert str(e.value) == message


def test_parse_does_not_reject_non_associative():
    # downstream tooling demonstrates detection of bad inputs
    t = parse_cayley("2\n2 1\n1 1\n")
    assert t.rows == ((2, 1), (1, 1))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_format_parse_roundtrip(name):
    t = builtin(name)
    assert parse_cayley(format_cayley(t)) == t


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_associative(name):
    ok, witness = is_associative(builtin(name))
    assert ok and witness is None


def test_left_zero_associative():
    ok, _ = is_associative(CayleyTable(2, ((1, 1), (2, 2))))
    assert ok


def test_z3_formula():
    t = builtin("z3")
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert t.mul(i, j) == (i + j - 2) % 3 + 1


def test_non_associative_witness_is_genuine():
    t = CayleyTable(2, ((2, 1), (1, 1)))
    ok, (i, j, k) = is_associative(t)
    assert not ok
    # the returned triple really violates associativity on re-evaluation
    assert t.mul(t.mul(i, j), k) != t.mul(i, t.mul(j, k))
    # (2, 1, 1) is a violation too: (s2 s1) s1 = s1 s1 = s2 but s2 (s1 s1) = s2 s2 = s1
    assert t.mul(t.mul(2, 1), 1) == 2
    assert t.mul(2, t.mul(1, 1)) == 1


def test_witness_is_lexicographically_first():
    t = CayleyTable(2, ((2, 1), (1, 1)))
    _, witness = is_associative(t)
    violations = [
        (i, j, k)
        for i in (1, 2)
        for j in (1, 2)
        for k in (1, 2)
        if t.mul(t.mul(i, j), k) != t.mul(i, t.mul(j, k))
    ]
    assert witness == violations[0] == (1, 1, 2)


def test_builtin_trivial_and_z2():
    assert builtin("trivial").rows == ((1,),)
    assert builtin("z2").rows == ((1, 2), (2, 1))


def test_t2_matches_brute_force_composition():
    # independent oracle: compose the four maps {1,2} -> {1,2} directly
    maps = [(1, 2), (2, 1), (1, 1), (2, 2)]
    index = {m: a + 1 for a, m in enumerate(maps)}
    t = builtin("t2")
    assert t.n == 4
    for a, ma in enumerate(maps, start=1):
        for b, mb in enumerate(maps, start=1):
            composite = tuple(mb[ma[x - 1] - 1] for x in (1, 2))
            assert t.mul(a, b) == index[composite]


def test_t2_is_a_monoid():
    t = builtin("t2")
    # the identity map is element 1
    assert all(t.mul(1, j) == j == t.mul(j, 1) for j in range(1, 5))


def test_semilattice2_is_idempotent_commutative():
    t = builtin("semilattice2")
    assert all(t.mul(i, i) == i for i in (1, 2))
    assert t.mul(1, 2) == t.mul(2, 1)


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("nope")
