import random
import re
import time

import pytest

from cfmonoid.coloring import (
    CONDITION_NAMES,
    Coloring,
    ColoringParseError,
    build_coloring,
    check_conditions,
    coloring_entry,
    conditions_ok,
    format_coloring,
    parse_coloring,
)


def _bit(c, i, j, k):
    # f(i, j, k) of coloring c, indices from 1, read off its bits
    return c.bits[i - 1][j - 1][k - 1]


def _constant(n, bit):
    size = n + 1
    return Coloring(n, tuple(tuple((bit,) * size for _ in range(n)) for _ in range(size)))


def _reference_check_conditions(c):
    # the former check_conditions, kept as the reference: it compares all
    # D^2 pairs of fibers, D = n(n+1), for C5 and C6
    n = c.n
    size = n + 1
    xy_domain = [(i, j) for i in range(1, size + 1) for j in range(1, n + 1)]
    sy_domain = [(i, j) for i in range(1, n + 1) for j in range(1, size + 1)]

    def y_fiber(i, j):
        return tuple(_bit(c, i, j, k) for k in range(1, size + 1))

    def x_fiber(i, j):
        return tuple(_bit(c, k, i, j) for k in range(1, size + 1))

    def first_missing(fiber, domain, want):
        for i, j in domain:
            if want not in fiber(i, j):
                return (i, j)
        return None

    def first_clash(fiber, domain):
        fibers = [fiber(i, j) for i, j in domain]
        for a in range(len(domain)):
            for b in range(a + 1, len(domain)):
                if fibers[a] == fibers[b]:
                    return domain[a] + domain[b]
        return None

    raw = {
        "C1": first_missing(y_fiber, xy_domain, 1),
        "C2": first_missing(x_fiber, sy_domain, 1),
        "C3": first_missing(y_fiber, xy_domain, 0),
        "C4": first_missing(x_fiber, sy_domain, 0),
        "C5": first_clash(y_fiber, xy_domain),
        "C6": first_clash(x_fiber, sy_domain),
    }
    return {name: (raw[name] is None, raw[name]) for name in CONDITION_NAMES}


def test_closed_form_examples():
    assert coloring_entry(8, 1, 3, 1) == 1
    assert coloring_entry(8, 4, 3, 1) == 0
    assert coloring_entry(5, 3, 2, 3) == 1


def test_closed_form_range_check():
    with pytest.raises(IndexError):
        coloring_entry(2, 1, 3, 1)  # s-index beyond n
    with pytest.raises(IndexError):
        coloring_entry(2, 4, 1, 1)  # x-index beyond n+1
    with pytest.raises(IndexError):
        coloring_entry(2, 0, 1, 1)


def test_third_slice_of_n8():
    # the third slice is the 9x9 matrix whose (i, k) entry is 1
    # exactly when (i - k) mod 9 is 0, 1 or 2
    c = build_coloring(8)
    for i in range(1, 10):
        for k in range(1, 10):
            assert _bit(c, i, 3, k) == (1 if (i - k) % 9 in (0, 1, 2) else 0)
    # spot-checked corners
    assert _bit(c, 1, 3, 1) == 1
    assert _bit(c, 1, 3, 2) == 0
    assert _bit(c, 1, 3, 8) == 1
    assert _bit(c, 1, 3, 9) == 1
    assert _bit(c, 4, 3, 1) == 0
    assert _bit(c, 9, 3, 9) == 1


def test_n1_by_hand_shift():
    # base column of the single slice is (1, 0); its shift is (0, 1),
    # so f(i, 1, k) = 1 exactly when i = k
    c = build_coloring(1)
    assert _bit(c, 1, 1, 1) == 1
    assert _bit(c, 2, 1, 2) == 1
    assert _bit(c, 1, 1, 2) == 0
    assert _bit(c, 2, 1, 1) == 0


def test_diagonal_always_one():
    # f(i, n, i) = 1 for any n: residue 0 is below j = n
    for n in (1, 2, 5):
        c = build_coloring(n)
        for i in range(1, n + 2):
            assert _bit(c, i, n, i) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_construction_matches_closed_form(n):
    c = build_coloring(n)
    for i in range(1, n + 2):
        for j in range(1, n + 1):
            for k in range(1, n + 2):
                assert _bit(c, i, j, k) == coloring_entry(n, i, j, k)


@pytest.mark.parametrize("n", range(1, 9))
def test_constructed_coloring_passes_conditions(n):
    report = check_conditions(build_coloring(n))
    assert conditions_ok(report), report


def test_build_coloring_rejects_bad_n():
    # the value's own check, which names the order asked for; it runs before
    # n + 1 is computed, so a float, a string or None raises it too
    for n in (0, -3, True, 2.0, "3", None):
        with pytest.raises(ValueError, match=f"^n must be a positive integer, got {re.escape(repr(n))}$"):
            build_coloring(n)


def test_column_weight_is_slice_index():
    # the shift preserves the weight of the base column, so every column
    # of slice j has exactly j ones
    for n in (1, 2, 4, 6):
        c = build_coloring(n)
        for j in range(1, n + 1):
            for k in range(1, n + 2):
                assert sum(_bit(c, i, j, k) for i in range(1, n + 2)) == j


def test_all_ones_coloring_report():
    report = check_conditions(_constant(2, 1))
    assert report["C1"] == (True, None)
    assert report["C2"] == (True, None)
    assert report["C3"] == (False, (1, 1))
    assert report["C4"] == (False, (1, 1))
    assert report["C5"] == (False, (1, 1, 1, 2))
    assert report["C6"] == (False, (1, 1, 1, 2))
    assert not conditions_ok(report)


def test_all_zeros_coloring_report():
    report = check_conditions(_constant(2, 0))
    assert report["C1"][0] is False
    assert report["C2"][0] is False
    assert report["C3"][0] is True
    assert report["C4"][0] is True
    assert report["C5"][0] is False
    assert report["C6"][0] is False


def test_c5_c6_are_fiber_injectivity():
    # C5 holds iff (i, j) -> (f(i, j, 1..n+1)) is injective, and C6 iff
    # (i, j) -> (f(1..n+1, i, j)) is
    for n in (1, 2, 3, 5):
        c = build_coloring(n)
        y_fibers = [
            tuple(_bit(c, i, j, k) for k in range(1, n + 2))
            for i in range(1, n + 2)
            for j in range(1, n + 1)
        ]
        x_fibers = [
            tuple(_bit(c, k, i, j) for k in range(1, n + 2))
            for i in range(1, n + 1)
            for j in range(1, n + 2)
        ]
        assert len(set(y_fibers)) == len(y_fibers)
        assert len(set(x_fibers)) == len(x_fibers)


def test_check_conditions_matches_all_pairs_reference():
    rng = random.Random(20131)
    colorings = [build_coloring(n) for n in range(1, 6)] + [_constant(3, 0), _constant(3, 1)]
    for _ in range(2400):
        n = rng.randint(1, 5)
        density = rng.choice((0.05, 0.2, 0.5, 0.8, 0.95))
        bits = tuple(
            tuple(tuple(int(rng.random() < density) for _ in range(n + 1)) for _ in range(n))
            for _ in range(n + 1)
        )
        colorings.append(Coloring(n, bits))
    clashes = {"C5": 0, "C6": 0}
    passes = 0
    for c in colorings:
        report = check_conditions(c)
        assert report == _reference_check_conditions(c)
        for name in clashes:
            clashes[name] += not report[name][0]
        passes += conditions_ok(report)
    # both clash searches are exercised often, and some colorings pass all six
    assert min(clashes.values()) > 1500
    assert passes >= 10


def test_check_conditions_first_clash_is_least_pair_over_classes():
    # y-fibers in order (1,1) A, (1,2) B, (2,1) B, (2,2) A: the first repeat
    # seen is B at (2,1), but the least pair is (1,1)-(2,2) of class A
    a, b = (1, 0, 1), (0, 1, 1)
    c = Coloring(2, ((a, b), (b, a), ((1, 1, 0), (0, 0, 1))))
    assert check_conditions(c)["C5"] == (False, (1, 1, 2, 2))
    assert _reference_check_conditions(c)["C5"] == (False, (1, 1, 2, 2))


def test_check_conditions_is_fast_at_n64():
    c = build_coloring(64)
    start = time.perf_counter()
    report = check_conditions(c)
    elapsed = time.perf_counter() - start
    assert conditions_ok(report)
    assert elapsed < 0.5, f"check_conditions(build_coloring(64)) took {elapsed:.2f} s"


def test_check_accepts_arbitrary_colorings():
    # a hand-mutated coloring is checked as given, not rebuilt
    c = build_coloring(1)
    bits = [[list(row) for row in plane] for plane in c.bits]
    bits[0][0][1] = 1  # now rows (1,1) and nothing distinct about zeros on row 1
    mutated = Coloring(1, tuple(tuple(tuple(r) for r in p) for p in bits))
    report = check_conditions(mutated)
    assert report["C3"] == (False, (1, 1))


def test_format_parse_roundtrip():
    for n in (1, 2, 4):
        c = build_coloring(n)
        assert parse_coloring(format_coloring(c)) == c


def test_format_layout():
    text = format_coloring(build_coloring(1))
    lines = text.splitlines()
    assert lines[0] == "slice 1"
    assert lines[1] == "1 0"
    assert lines[2] == "0 1"


def test_parse_errors():
    with pytest.raises(ColoringParseError, match="no slices"):
        parse_coloring("")
    with pytest.raises(ColoringParseError, match="bad slice header"):
        parse_coloring("slice one\n1 0\n0 1\n")
    # a first field that only starts with "slice" is not a header
    for header in ("slicer 1", "slices 1", "slice_two 1"):
        with pytest.raises(ColoringParseError, match=f"line 1: bad slice header '{header}'"):
            parse_coloring(f"{header}\n1 0\n0 1\n")
    with pytest.raises(ColoringParseError, match="before any slice"):
        parse_coloring("1 0\n")
    with pytest.raises(ColoringParseError, match="bits must be 0 or 1"):
        parse_coloring("slice 1\n1 2\n0 1\n")
    # a bit is the token 0 or 1 alone: no run of bits, other digit script,
    # sign, decimal point or Python literal
    for bad in ("01", "00", "\u0661", "+1", "-0", "1.0", "True"):
        with pytest.raises(ColoringParseError, match=re.escape(f"line 3: bits must be 0 or 1: '0 {bad}'")):
            parse_coloring(f"slice 1\n1 0\n0 {bad}\n")
    with pytest.raises(ColoringParseError, match="must be 2x2"):
        parse_coloring("slice 1\n1 0\n")
    with pytest.raises(ColoringParseError, match="expected 'slice 2'"):
        parse_coloring("slice 1\n1 0\n0 1\nslice 3\n1 0\n0 1\n")


def test_parse_slice_numbers_take_only_ascii_digits():
    # "slice \u0661" (ARABIC-INDIC ONE) would read as slice 1, and "slice \u00b2"
    # (SUPERSCRIPT TWO) passes str.isdigit() but not int()
    for header in ("slice \u0661", "slice \u00b2"):
        with pytest.raises(ColoringParseError, match="line 1: bad slice header"):
            parse_coloring(f"{header}\n1 0\n0 1\n")

