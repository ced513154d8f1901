import functools
import itertools
import random
import time
from collections import Counter

import pytest

from cfmonoid import rewrite
from cfmonoid.coloring import Coloring, build_coloring, check_conditions, conditions_ok
from cfmonoid.presentation import (
    EMPTY_WORD,
    Presentation,
    ZERO_WORD,
    alphabet,
    format_word,
    parse_word,
    _generate_unchecked,
    generate_presentation,
)
from cfmonoid.rewrite import (
    CriticalPair,
    check_local_confluence,
    critical_pairs,
    enumerate_normal_forms,
    is_normal_form,
    normal_form,
)
from cfmonoid.semigroup import BUILTIN_NAMES, CayleyTable, builtin, is_associative
from cfmonoid.witness import collapse, verify_trace


def _pres(name):
    t = builtin(name)
    return generate_presentation(t, build_coloring(t.n))


def _all_words(p, maxlen, include_zero=True):
    letters = alphabet(p.n, include_zero=include_zero)
    for length in range(maxlen + 1):
        yield from itertools.product(letters, repeat=length)


def _one_step_reducts(w, lhs_map):
    # every one-step rewrite at every position, any rule
    outs = []
    for t in range(len(w)):
        for width in (2, 3):
            if t + width <= len(w):
                rhs = lhs_map.get(w[t:t + width])
                if rhs is not None:
                    outs.append(w[:t] + rhs + w[t + width:])
    return outs


# ---------------------------------------------------------------- normal form

def test_nf_xy_is_zero():
    p = _pres("trivial")
    assert normal_form(parse_word("x1 y1", 1), p) == ZERO_WORD


def test_nf_colored_one_vanishes():
    # (1 - 1) mod 3 = 0 < 2, so x1 s2 y1 is colored 1
    p = _pres("z2")
    assert normal_form(parse_word("x1 s2 y1", 2), p) == EMPTY_WORD


def test_nf_left_zero_product():
    p = _pres("leftzero2")
    assert format_word(normal_form(parse_word("s1 s2", 2), p)) == "s1"


def test_nf_zero_absorbs():
    p = _pres("trivial")
    assert normal_form(parse_word("s1 0 x1 y2", 1), p) == ZERO_WORD
    assert normal_form(parse_word("0 0", 1), p) == ZERO_WORD


def test_nf_idempotent_and_shrinking():
    p = _pres("z2")
    for w in _all_words(p, 4):
        nf = normal_form(w, p)
        assert len(nf) <= len(w)
        assert normal_form(nf, p) == nf


def test_is_normal_form_examples():
    p = _pres("trivial")
    assert is_normal_form(parse_word("s1 x1 s1 x2", 1), p)
    assert not is_normal_form(parse_word("x1 s1 y1", 1), p)
    assert is_normal_form(EMPTY_WORD, p)
    assert is_normal_form(ZERO_WORD, p)
    assert not is_normal_form(parse_word("0 0", 1), p)
    # a word given as a list is the same word as its tuple
    z2 = _pres("z2")
    for text, normal in [("x1 s1", True), ("s1 x1 s1 x2", True), ("1", True), ("s1 s2", False), ("x1 s1 y1", False)]:
        w = parse_word(text, 2)
        assert is_normal_form(list(w), z2) is is_normal_form(w, z2) is normal, text


@pytest.mark.parametrize(
    "letter", [("q", 1), ("s", 99), ("s", 3), ("x", 4), ("y", 0), ("z", 1)], ids=lambda a: f"{a[0]}{a[1]}"
)
def test_is_normal_form_rejects_a_letter_outside_the_alphabet(letter):
    # z2's letters are s1..s2, x1..x3, y1..y3 and 0; normal_form passes any
    # other letter through unchanged, alone or next to letters of z2
    p = _pres("z2")
    for w in [(letter,), (("x", 1), letter), (letter, ("s", 1))]:
        assert normal_form(w, p) == w
        assert not is_normal_form(w, p), format_word(w)
    assert is_normal_form((("x", 3), ("s", 2)), p)


def test_factor_characterization():
    # normal forms are the zero word alone, plus the z-free words avoiding
    # the factors ss, xy and xsy
    p = _pres("trivial")

    def by_shape(w):
        if w == ZERO_WORD:
            return True
        roles = [r for r, _ in w]
        if "z" in roles:
            return False
        for t in range(len(roles) - 1):
            if roles[t] == "s" and roles[t + 1] == "s":
                return False
            if roles[t] == "x" and roles[t + 1] == "y":
                return False
            if (
                t + 2 < len(roles)
                and roles[t] == "x"
                and roles[t + 1] == "s"
                and roles[t + 2] == "y"
            ):
                return False
        return True

    for w in _all_words(p, 6):
        assert is_normal_form(w, p) == by_shape(w), w


def _normal_form_reference(w, p):
    # the splice reducer normal_form replaced: leftmost redex, the shorter left
    # side first on position ties, spliced in place, then back up two letters
    m = p.lhs_map
    letters = list(w)
    pos = 0
    end = len(letters)
    while pos < end:
        width = 0
        if pos + 2 <= end:
            rhs = m.get((letters[pos], letters[pos + 1]))
            if rhs is not None:
                width = 2
            elif pos + 3 <= end:
                rhs = m.get((letters[pos], letters[pos + 1], letters[pos + 2]))
                if rhs is not None:
                    width = 3
        if width == 0:
            pos += 1
            continue
        letters[pos:pos + width] = rhs
        end = len(letters)
        pos = pos - 2 if pos > 2 else 0
    return tuple(letters)


def _tampered(p, rng, count):
    # count rules get a random right side of at most one letter, and count
    # random 2- and 3-letter left sides are added (often a suffix or prefix
    # of another left side), so the system is typically no longer confluent
    # and the rewrite order shows
    rules = dict(p.lhs_map)
    lhss = list(rules)
    letters = alphabet(p.n, include_zero=True)

    def rhs():
        return rng.choice([EMPTY_WORD, (rng.choice(letters),)])

    for idx in rng.sample(range(len(lhss)), count):
        rules[lhss[idx]] = rhs()
    for _ in range(count):
        lhs = tuple(rng.choice(letters[:-1]) for _ in range(rng.choice((2, 3))))
        rules[lhs] = rhs()
    return Presentation(p.n, p.table, p.coloring, rules)


def test_normal_form_matches_reference_on_all_short_words():
    for name in ("trivial", "z2"):
        p = _pres(name)
        for w in _all_words(p, 5):
            assert normal_form(w, p) == _normal_form_reference(w, p), format_word(w)


def test_normal_form_matches_reference_on_random_words():
    rng = random.Random(20130122)
    presentations = [_pres(name) for name in BUILTIN_NAMES]
    presentations.append(generate_presentation(_cyclic(8), build_coloring(8)))
    tampered = [_tampered(p, rng, 6) for p in presentations for _ in range(3)]
    # the rewrite order only shows on systems that are not confluent
    assert sum(not check_local_confluence(q)[0] for q in tampered) >= len(tampered) // 2
    for p in presentations + tampered:
        letters = alphabet(p.n, include_zero=True)
        lengths = [rng.randint(0, 12) for _ in range(400)] + [rng.randint(50, 400) for _ in range(20)]
        for length in lengths:
            # mostly non-zero letters, so words rewrite a while before z absorbs them
            w = tuple(rng.choice(letters[:-1]) if rng.random() < 0.97 else letters[-1] for _ in range(length))
            assert normal_form(w, p) == _normal_form_reference(w, p), format_word(w)


def test_normal_form_is_linear():
    # the splice reducer took ~8 s on these two words; a single pass takes well under 1 s
    p = _pres("z2")
    s1, x1, y1 = ("s", 1), ("x", 1), ("y", 1)
    k = 100000
    power = 1
    for _ in range(2 * k - 1):
        power = p.table.mul(power, 1)
    t0 = time.monotonic()
    got_s = normal_form((s1,) * (2 * k), p)
    got_xsy = normal_form((x1,) * k + (s1,) + (y1,) * k, p)
    elapsed = time.monotonic() - t0
    assert got_s == (("s", power),)
    # x1 s1 y1 rewrites to 1 or 0, and 1 leaves x1 y1 -> 0, so the word is 0
    assert got_xsy == ZERO_WORD
    assert elapsed < 2.0, f"s1^200000 and x1^100000 s1 y1^100000 took {elapsed:.2f}s"


def test_letters_outside_the_rules_pass_through():
    # ("x", n + 5) and ("q", 1) end no left side and have no row in the
    # index: they are pushed as they are and split the redexes around them
    z2 = _pres("z2")
    far, q = ("x", z2.n + 5), ("q", 1)
    assert far not in alphabet(z2.n) and q not in alphabet(z2.n)
    s1, x1, y1 = ("s", 1), ("x", 1), ("y", 1)
    cases = {
        (far,): (far,),
        (q, q): (q, q),
        (s1, far, s1): (s1, far, s1),
        (x1, s1, q, y1): (x1, s1, q, y1),
        (s1, s1, q, x1, s1, y1, far): (("s", z2.table.mul(1, 1)), q, far),
        (q, x1, y1, far): (q, ZERO_WORD[0], far),
    }
    for w, want in cases.items():
        assert normal_form(w, z2) == _normal_form_reference(w, z2) == want, format_word(w)
    rng = random.Random(5)
    letters = alphabet(z2.n, include_zero=True) + (far, q)
    for _ in range(300):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        assert normal_form(w, z2) == _normal_form_reference(w, z2), format_word(w)


def test_short_words_are_answered_from_the_rule_map():
    # a word of at most two letters holds at most one redex, the word itself,
    # so normal_form answers it from lhs_map without building the index: the
    # same as the reference on every such word over the alphabet and two
    # letters outside it, on confluent and tampered systems, tuple or list
    rng = random.Random(25)
    presentations = [_pres(name) for name in BUILTIN_NAMES]
    presentations.append(generate_presentation(_cyclic(8), build_coloring(8)))
    presentations += [_tampered(p, rng, 6) for p in presentations for _ in range(3)]
    for p in presentations:
        letters = alphabet(p.n, include_zero=True) + (("x", p.n + 5), ("q", 1))
        for length in range(3):
            for w in itertools.product(letters, repeat=length):
                want = _normal_form_reference(w, p)
                assert normal_form(w, p) == want, format_word(w)
                got = normal_form(list(w), p)
                assert type(got) is tuple and got == want, format_word(w)
                assert is_normal_form(list(w), p) == is_normal_form(w, p)
        assert "_by_last_two" not in p.__dict__
        w = (("s", 1),) * 3
        assert normal_form(w, p) == _normal_form_reference(w, p)
        assert "_by_last_two" in p.__dict__


def test_each_presentation_reduces_with_its_own_rules():
    # z2 and flipped differ in one right side, so an index shared between
    # them, or kept from the first one reduced, gives one of them wrong
    z2 = _pres("z2")
    lhs = parse_word("x1 s1 y1", 2)
    flipped = Presentation(z2.n, z2.table, z2.coloring, {**z2.lhs_map, lhs: ZERO_WORD})
    assert [normal_form(lhs, p) for p in (z2, flipped, z2)] == [EMPTY_WORD, ZERO_WORD, EMPTY_WORD]


def test_the_rule_map_is_read_only():
    # the first reduction indexes the rules, so the map may not change under
    # that index; a changed rule set is a new presentation, built from a copy
    z2 = _pres("z2")
    lhs = parse_word("x1 s1 y1", 2)
    assert normal_form(lhs, z2) == EMPTY_WORD
    with pytest.raises(TypeError):
        z2.lhs_map[lhs] = ZERO_WORD
    with pytest.raises(TypeError):
        del z2.lhs_map[lhs]
    changed = Presentation(z2.n, z2.table, z2.coloring, {**z2.lhs_map, lhs: ZERO_WORD})
    assert normal_form(lhs, changed) == ZERO_WORD
    assert normal_form(lhs, z2) == EMPTY_WORD and z2.lhs_map[lhs] == EMPTY_WORD


def test_a_presentation_owns_its_rules():
    # a caller that keeps the dict it built the presentation from and changes
    # it after the first reduction changes neither the rules nor the index
    z2 = _pres("z2")
    lhs = parse_word("x1 s1 y1", 2)
    d = dict(z2.lhs_map)
    p = Presentation(z2.n, z2.table, z2.coloring, d)
    assert normal_form(lhs, p) == EMPTY_WORD
    d[lhs] = ZERO_WORD
    del d[parse_word("s1 s1", 2)]
    assert p.lhs_map[lhs] == EMPTY_WORD and p.lhs_map == z2.lhs_map
    assert normal_form(lhs, p) == EMPTY_WORD
    assert Presentation(z2.n, z2.table, z2.coloring, d).lhs_map[lhs] == ZERO_WORD


def test_index_holds_the_rules_and_leaves_the_value_as_it_was():
    # the index is one entry per left side, read back here into lhs_map; it
    # is kept outside the fields, so == and repr are those of the value
    rng = random.Random(14)
    for p in [_pres(name) for name in BUILTIN_NAMES] + [_tampered(_pres("t2"), rng, 6)]:
        q = Presentation(p.n, p.table, p.coloring, dict(p.lhs_map))
        before = repr(p)
        assert p == q
        read = {}
        for b, row in p._by_last_two.items():
            for c, (two, three) in row.items():
                if two is not None:
                    read[b, c] = two
                read.update(((a, b, c), rhs) for a, rhs in three.items())
        assert read == p.lhs_map
        assert p == q and q == p
        assert repr(p) == before == repr(q)


# ------------------------------------------------------------- critical pairs

def test_trivial_critical_pair_census():
    p = _pres("trivial")
    pairs = critical_pairs(p)
    combos = {}
    for cp in pairs:
        key = (cp.rule_left.family, cp.rule_right.family)
        combos[key] = combos.get(key, 0) + 1
    assert combos == {
        ("A", "A"): 1,
        ("A", "Z_right"): 1,
        ("Z_left", "A"): 1,
        ("B", "Z_right"): 4,
        ("Z_left", "B"): 4,
        ("C", "Z_right"): 4,
        ("Z_left", "C"): 4,
        ("Z_left", "Z_right"): 5,
        ("Z_right", "Z_left"): 30,
        ("Z_right", "Z_right"): 6,
    }
    assert len(pairs) == 60


def test_only_a_a_overlaps_avoid_z_rules():
    # B and C left-hand sides overlap nothing except through the z-rules
    for name in ("trivial", "z2"):
        p = _pres(name)
        for cp in critical_pairs(p):
            fams = {cp.rule_left.family, cp.rule_right.family}
            if not fams & {"Z_left", "Z_right"}:
                assert fams == {"A"}


def test_a_a_overlap_count_is_n_cubed():
    for name, n in (("trivial", 1), ("z2", 2), ("t2", 4)):
        p = _pres(name)
        count = sum(
            1
            for cp in critical_pairs(p)
            if cp.rule_left.family == "A" and cp.rule_right.family == "A"
        )
        assert count == n ** 3


def test_associativity_overlap_reducts():
    p = _pres("trivial")
    cp = next(
        c for c in critical_pairs(p)
        if c.rule_left.family == "A" and c.rule_right.family == "A"
    )
    assert cp.overlap == parse_word("s1 s1 s1", 1)
    assert normal_form(cp.left_reduct, p) == normal_form(cp.right_reduct, p) == parse_word("s1", 1)


def test_b_z_overlap_example():
    # overlap x1 s1 y1 z: both reducts reach the zero word
    p = _pres("trivial")
    target = parse_word("x1 s1 y1 0", 1)
    cp = next(c for c in critical_pairs(p) if c.overlap == target)
    assert cp.left_reduct == ZERO_WORD  # f(1,1,1) = 1, so rhs is empty; 1 * z = z
    assert cp.right_reduct == parse_word("x1 s1 0", 1)
    assert normal_form(cp.left_reduct, p) == normal_form(cp.right_reduct, p) == ZERO_WORD


def test_reduct_positions_are_genuine():
    p = _pres("z2")
    for cp in critical_pairs(p):
        l1, l2 = cp.rule_left.lhs, cp.rule_right.lhs
        assert cp.overlap[:len(l1)] == l1
        assert cp.overlap[cp.pos_right:cp.pos_right + len(l2)] == l2
        rebuilt_left = cp.rule_left.rhs + cp.overlap[len(l1):]
        rebuilt_right = cp.overlap[:cp.pos_right] + cp.rule_right.rhs + cp.overlap[cp.pos_right + len(l2):]
        assert rebuilt_left == cp.left_reduct
        assert rebuilt_right == cp.right_reduct


def test_builtins_locally_confluent():
    for name in ("trivial", "leftzero2", "z2"):
        p = _pres(name)
        ok, bad, pairs = check_local_confluence(p)
        assert ok and bad is None
        assert pairs == critical_pairs(p)
        for cp in pairs:
            assert normal_form(cp.left_reduct, p) == normal_form(cp.right_reduct, p)


def test_non_associative_table_not_confluent():
    bad_table = CayleyTable(2, ((2, 1), (1, 1)))
    p = _generate_unchecked(bad_table, build_coloring(2))
    ok, bad, _ = check_local_confluence(p)
    assert not ok
    # first non-joinable pair sits at the associativity witness triple (1, 1, 2)
    assert bad.overlap == parse_word("s1 s1 s2", 2)
    assert bad.rule_left.family == bad.rule_right.family == "A"


def test_flipped_b_rule_still_locally_confluent():
    # B left-hand sides never overlap each other, so flipping one B right side
    # keeps local confluence (the system then presents a different monoid)
    p = _pres("trivial")
    b = next(r for r in p.rules if r.family == "B")
    flipped = ZERO_WORD if b.rhs == EMPTY_WORD else EMPTY_WORD
    q = Presentation(p.n, p.table, p.coloring, {**p.lhs_map, b.lhs: flipped})
    ok, _, _ = check_local_confluence(q)
    assert ok


def _first_unjoinable_reference(p):
    # a plain scan: the first pair, in critical_pairs order, whose two reducts
    # have different normal forms, each reduct reduced afresh
    return next(
        (cp for cp in critical_pairs(p) if normal_form(cp.left_reduct, p) != normal_form(cp.right_reduct, p)),
        None,
    )


def test_first_failure_matches_plain_scan():
    # check_local_confluence reduces each distinct reduct once; its verdict and
    # first failure must be the plain scan's, on confluent and tampered systems
    rng = random.Random(2013)
    presentations = [_pres(name) for name in BUILTIN_NAMES]
    presentations.append(generate_presentation(_cyclic(8), build_coloring(8)))
    tampered = [_tampered(p, rng, count) for p in presentations for count in (1, 3, 6)]
    non_associative = _generate_unchecked(CayleyTable(2, ((2, 1), (1, 1))), build_coloring(2))
    failures = 0
    for p in presentations + tampered + [non_associative]:
        ok, bad, pairs = check_local_confluence(p)
        want = _first_unjoinable_reference(p)
        assert bad == want
        assert ok == (want is None)
        assert pairs == critical_pairs(p)
        failures += bad is not None
    assert failures >= len(tampered) // 2


def _cyclic(n):
    return CayleyTable(n, tuple(tuple((i + j) % n + 1 for j in range(n)) for i in range(n)))


def _critical_pairs_reference(p):
    # every rule against every rule, O(R^2): the reference critical_pairs must match
    pairs = []
    for r1 in p.rules:
        l1 = r1.lhs
        n1 = len(l1)
        for r2 in p.rules:
            l2 = r2.lhs
            for o in range(1, min(n1, len(l2))):
                if l1[n1 - o:] == l2[:o]:
                    pairs.append(
                        CriticalPair(l1 + l2[o:], r1.rhs + l2[o:], l1[:n1 - o] + r2.rhs, r1, r2, n1 - o)
                    )
            if len(l2) < n1:
                for t in range(n1 - len(l2) + 1):
                    if l1[t:t + len(l2)] == l2:
                        pairs.append(
                            CriticalPair(l1, r1.rhs, l1[:t] + r2.rhs + l1[t + len(l2):], r1, r2, t)
                        )
    return pairs


def _with_rules(p, extra):
    return Presentation(p.n, p.table, p.coloring, {**p.lhs_map, **extra})


def test_critical_pairs_match_all_pairs_reference():
    presentations = [_pres(name) for name in BUILTIN_NAMES]
    presentations.append(generate_presentation(_cyclic(8), build_coloring(8)))
    presentations.append(_generate_unchecked(CayleyTable(2, ((2, 1), (1, 1))), build_coloring(2)))
    z2 = _pres("z2")
    b_rules = [r for r in z2.rules if r.family == "B"]
    flipped = {b_rules[0].lhs: ZERO_WORD if b_rules[0].rhs == EMPTY_WORD else EMPTY_WORD}
    presentations.append(_with_rules(z2, flipped))
    # generated rules never contain one another: 3-letter left sides that
    # contain the C lhs x1 y2 or the A lhs s1 s2, or both overlap and contain
    # s1 s1 (at two offsets), with the flipped B rule in place of z2's
    presentations.append(
        _with_rules(z2, {
            parse_word("s2 x1 y2", 2): ZERO_WORD,
            parse_word("s1 s1 s1", 2): parse_word("s1", 2),
            parse_word("y3 s1 s2", 2): EMPTY_WORD,
            **flipped,
        })
    )
    for p in presentations:
        assert critical_pairs(p) == _critical_pairs_reference(p)
    containments = [cp for cp in critical_pairs(presentations[-1]) if cp.overlap == cp.rule_left.lhs]
    assert len(containments) >= 1


def test_normal_form_and_critical_pairs_read_one_rule_set():
    # a left side has one rule: x1 s1 y1 -> 0 put in place of -> 1 leaves
    # one rule for it, so normal_form and the critical pairs cannot disagree
    z2 = _pres("z2")
    lhs = parse_word("x1 s1 y1", 2)
    assert z2.lhs_map[lhs] == EMPTY_WORD
    flipped = Presentation(z2.n, z2.table, z2.coloring, {**z2.lhs_map, lhs: ZERO_WORD})
    assert [r.rhs for r in flipped.rules if r.lhs == lhs] == [ZERO_WORD]
    assert normal_form(lhs, flipped) == ZERO_WORD
    rng = random.Random(1993)
    presentations = [_pres(name) for name in BUILTIN_NAMES]
    presentations.append(generate_presentation(_cyclic(8), build_coloring(8)))
    presentations += [_tampered(p, rng, 6) for p in presentations] + [flipped]
    for p in presentations:
        assert len(p.rules) == len(p.lhs_map)
        items = p.lhs_map.items()
        for cp in critical_pairs(p):
            assert (cp.rule_left.lhs, cp.rule_left.rhs) in items
            assert (cp.rule_right.lhs, cp.rule_right.rhs) in items


def test_z16_local_confluence_is_practical():
    n = 16
    p = generate_presentation(_cyclic(n), build_coloring(n))
    t0 = time.monotonic()
    ok, bad, pairs = check_local_confluence(p)
    elapsed = time.monotonic() - t0
    assert ok and bad is None
    a, b = n, n + 1
    letters = a + 2 * b
    assert Counter((cp.rule_left.family, cp.rule_right.family) for cp in pairs) == {
        ("A", "A"): a ** 3,
        ("A", "Z_right"): a * a,
        ("B", "Z_right"): a * b * b,
        ("C", "Z_right"): b * b,
        ("Z_left", "A"): a * a,
        ("Z_left", "B"): a * b * b,
        ("Z_left", "C"): b * b,
        ("Z_left", "Z_right"): letters,
        ("Z_right", "Z_left"): (letters + 1) * letters,
        ("Z_right", "Z_right"): letters + 1,
    }
    assert len(pairs) == 17085
    assert elapsed < 5.0, f"check_local_confluence at n=16 took {elapsed:.2f}s"


# ----------------------------------------------------- all-strategy uniqueness

def test_unique_normal_forms_small():
    # every maximal rewrite sequence, any strategy, reaches the same word
    p = _pres("trivial")
    nf_of = {EMPTY_WORD: EMPTY_WORD}
    letters = alphabet(1, include_zero=True)
    for length in range(1, 5):
        for w in itertools.product(letters, repeat=length):
            reds = _one_step_reducts(w, p.lhs_map)
            if not reds:
                nf = w
            else:
                nfs = {nf_of[r] for r in reds}
                assert len(nfs) == 1, w
                nf = next(iter(nfs))
            assert nf == normal_form(w, p)
            nf_of[w] = nf


# ----------------------------------------------------------------- enumeration

def test_enumerate_maxlen_zero():
    assert enumerate_normal_forms(_pres("trivial"), 0) == [EMPTY_WORD]


def test_enumerate_n1_counts():
    p = _pres("trivial")
    assert len(enumerate_normal_forms(p, 1)) == 6
    assert len(enumerate_normal_forms(p, 2)) == 26


def test_enumerate_matches_brute_force_filter():
    p = _pres("trivial")
    got = enumerate_normal_forms(p, 3)
    want = [
        w
        for w in sorted(_all_words(p, 3, include_zero=False), key=lambda w: (len(w), w))
        if is_normal_form(w, p)
    ]
    assert got == want
    assert ZERO_WORD not in got
    assert EMPTY_WORD in got


def test_enumerate_reads_the_rules():
    # a rule outside the paper's families removes its left side from the census
    z2 = _pres("z2")
    factor = parse_word("s1 x1 x2", 2)
    p = _with_rules(z2, {factor: ZERO_WORD})
    got = enumerate_normal_forms(p, 4)
    base = enumerate_normal_forms(z2, 4)
    assert got == [w for w in base if all(w[t:t + 3] != factor for t in range(len(w) - 2))]
    assert len(got) < len(base)


def test_enumerate_matches_brute_force_with_extra_left_sides():
    # 3-letter left sides of shapes other than x s y: the tails s1 x1 and
    # y3 s1 start one, so each gets an entry of its own instead of its last
    # letter's; s1 s1 s1 contains the A left side s1 s1, so its start is
    # never the tail of a normal form
    z2 = _pres("z2")
    extra = {parse_word(w, 2): ZERO_WORD for w in ("s1 x1 x2", "y3 s1 s2", "s1 s1 s1")}
    p = _with_rules(z2, extra)
    want = [
        w
        for w in sorted(_all_words(p, 4, include_zero=False), key=lambda w: (len(w), w))
        if is_normal_form(w, p)
    ]
    assert enumerate_normal_forms(p, 4) == want
    assert want != enumerate_normal_forms(z2, 4)


def test_successor_entries_are_shared_by_last_letter(monkeypatch):
    # a walk makes one entry per letter, one for the empty tail and one per
    # x_i s_j (the starts of the B left sides): 1 + 26 + 9 * 8 = 99 at n=8,
    # where the tails it reads up to length 4 number 558
    tables = []

    class Recorded(rewrite._Successors):
        def __init__(self, p):
            super().__init__(p)
            tables.append(self)

    monkeypatch.setattr(rewrite, "_Successors", Recorded)
    p = generate_presentation(_cyclic(8), build_coloring(8))
    enumerate_normal_forms(p, 4)
    (table,) = tables
    assert len(table) == 558
    assert len({id(entry) for entry in table.values()}) == 99


def _n2_colorings():
    # rows first: the six (i, j) index pairs of n=2 take the six non-constant
    # 3-bit rows as their y-fibers in some order (C1, C3 and C5 leave no
    # other choice), and check_conditions keeps those that also pass C2, C4
    # and C6
    rows = [r for r in itertools.product((0, 1), repeat=3) if 0 < sum(r) < 3]
    for perm in itertools.permutations(rows):
        c = Coloring(2, tuple(perm[2 * i:2 * i + 2] for i in range(3)))
        if conditions_ok(check_conditions(c)):
            yield c


def test_every_n2_coloring_gives_a_complete_system():
    # the paper's lemma at n=2, beyond build_coloring: all 144 colorings that
    # pass C1..C6 (the brute-force count over all 2^18) give a complete system
    # with each table of order 2, with the plain scan's verdict
    colorings = list(_n2_colorings())
    assert len(colorings) == 144
    assert build_coloring(2) in colorings
    tables = [builtin(name) for name in BUILTIN_NAMES if builtin(name).n == 2]
    assert len(tables) == 4
    for table in tables:
        for c in colorings:
            p = generate_presentation(table, c)
            ok, bad, _ = check_local_confluence(p)
            assert ok and bad is None
            assert _first_unjoinable_reference(p) is None


def test_collapse_verifies_on_a_sample_of_pairs_in_every_n2_system():
    # the same 576 systems: 30 seeded pairs of distinct short normal forms
    # each, the zero word included, collapse by a trace that verifies
    rng = random.Random(2013)
    tables = [builtin(name) for name in BUILTIN_NAMES if builtin(name).n == 2]
    for table in tables:
        for c in _n2_colorings():
            p = generate_presentation(table, c)
            words = enumerate_normal_forms(p, 3) + [ZERO_WORD]
            for _ in range(30):
                u, v = rng.sample(words, 2)
                ok, idx, why = verify_trace(collapse(u, v, p), p)
                assert ok, (table, c, format_word(u), format_word(v), idx, why)


def test_both_n1_colorings_give_a_system_that_embeds_and_collapses():
    # n=1: of the 16 colorings of shape 2 x 1 x 2, a brute force finds 2
    # that pass C1..C6; with the trivial table each gives a complete system
    # where s1 s1 -> s1, and every pair of distinct normal forms of length
    # <= 3, the zero word included, collapses by a trace that verifies
    every = [Coloring(1, ((bits[:2],), (bits[2:],))) for bits in itertools.product((0, 1), repeat=4)]
    colorings = [c for c in every if conditions_ok(check_conditions(c))]
    assert len(colorings) == 2
    assert build_coloring(1) in colorings
    s1 = parse_word("s1", 1)
    for c in colorings:
        p = generate_presentation(builtin("trivial"), c)
        assert check_local_confluence(p)[0] and _first_unjoinable_reference(p) is None
        assert normal_form(s1 + s1, p) == s1 and is_normal_form(s1, p)
        words = enumerate_normal_forms(p, 3) + [ZERO_WORD]
        for u in words:
            for v in words:
                if u != v:
                    ok, idx, why = verify_trace(collapse(u, v, p), p)
                    assert ok, (c, format_word(u), format_word(v), idx, why)


def _associative_reference(rows):
    r = range(len(rows))
    return all(rows[rows[a][b] - 1][c] == rows[a][rows[b][c] - 1] for a in r for b in r for c in r)


def test_every_semigroup_of_order_at_most_3_embeds_in_a_complete_system():
    # all 1 + 16 + 19 683 tables of orders 1..3: the associative ones number
    # 1, 8 and 113 (OEIS A023814), is_associative agrees with the plain check
    # on every table, and each of the 122 semigroups with the paper's coloring
    # gives a complete system where s_i s_j reduces to s_t(i,j) and a seeded
    # sample of pairs collapses by a trace that verifies
    rng = random.Random(3)
    semigroups = []
    for n in (1, 2, 3):
        found = 0
        for entries in itertools.product(range(1, n + 1), repeat=n * n):
            table = CayleyTable(n, tuple(entries[i * n:i * n + n] for i in range(n)))
            ok = _associative_reference(table.rows)
            assert is_associative(table)[0] == ok, table
            found += ok
            if ok:
                semigroups.append(table)
        assert found == (1, 8, 113)[n - 1]
    for table in semigroups:
        n = table.n
        p = generate_presentation(table, build_coloring(n))
        assert check_local_confluence(p)[0], table
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            assert normal_form((("s", i), ("s", j)), p) == (("s", table.mul(i, j)),), (table, i, j)
        words = enumerate_normal_forms(p, 3) + [ZERO_WORD]
        for _ in range(10):
            u, v = rng.sample(words, 2)
            ok, idx, why = verify_trace(collapse(u, v, p), p)
            assert ok, (table, format_word(u), format_word(v), idx, why)


@functools.cache
def _semigroups(n):
    # every associative n x n table, rows of entries in 1..n, found by
    # backtracking over the cells in row-major order: a partial table is cut
    # off as soon as one triple whose four products are all filled fails
    # associativity, so order 4 takes thousands of nodes, not 4^16 tables
    t = [[None] * n for _ in range(n)]
    r = range(n)
    cells = [(a, b) for a in r for b in r]
    found = []

    def consistent():
        for x, y in cells:
            xy = t[x][y]
            if xy is None:
                continue
            for z in r:
                yz = t[y][z]
                if yz is None:
                    continue
                left, right = t[xy][z], t[x][yz]
                if left is not None and right is not None and left != right:
                    return False
        return True

    def fill(k):
        if k == len(cells):
            found.append(tuple(tuple(v + 1 for v in row) for row in t))
            return
        a, b = cells[k]
        for v in r:
            t[a][b] = v
            if consistent():
                fill(k + 1)
        t[a][b] = None

    fill(0)
    return found


def _relabelled(rows, pi):
    # the table of the same semigroup with element i renamed pi[i - 1]
    n = len(rows)
    back = {pi[i]: i for i in range(n)}
    return tuple(tuple(pi[rows[back[i]][back[j]] - 1] for j in range(1, n + 1)) for i in range(1, n + 1))


@functools.cache
def _classes(n):
    # one table per isomorphism class of the semigroups of order n: each
    # table of _semigroups(n) that no relabelling of an earlier one gives
    relabellings = list(itertools.permutations(range(1, n + 1)))
    classes = []
    seen = set()
    for rows in _semigroups(n):
        if rows not in seen:
            classes.append(rows)
            seen.update(_relabelled(rows, pi) for pi in relabellings)
    return tuple(classes)


def test_every_semigroup_of_order_4_up_to_isomorphism_embeds_in_a_complete_system():
    # the backtracking enumerator finds the 1, 8 and 113 tables that the
    # scan above finds at orders 1..3, and 3492 at order 4 (OEIS A023814);
    # the relabellings of each table are among them, and the 24 relabellings
    # split them into 188 classes (A027851), which the transposes (the
    # anti-isomorphic tables) join into 126 (A001423).  One table per class,
    # with the paper's coloring, gives a complete system where s_i s_j
    # reduces to s_t(i,j) and a seeded sample of pairs collapses by a trace
    # that verifies
    assert [len(_semigroups(n)) for n in (1, 2, 3)] == [1, 8, 113]
    tables = _semigroups(4)
    assert len(tables) == len(set(tables)) == 3492
    relabellings = list(itertools.permutations(range(1, 5)))
    classes = _classes(4)
    assert {_relabelled(rows, pi) for rows in classes for pi in relabellings} == set(tables)
    assert len(classes) == 188
    anti_classes = 0
    seen = set()
    for rows in classes:
        if rows not in seen:
            anti_classes += 1
            seen.update(_relabelled(r, pi) for r in (rows, tuple(zip(*rows))) for pi in relabellings)
    assert seen == set(tables)
    assert anti_classes == 126
    coloring = build_coloring(4)
    rng = random.Random(4)
    words = None
    for rows in classes:
        table = CayleyTable(4, rows)
        p = generate_presentation(table, coloring)
        assert check_local_confluence(p)[0], table
        for i, j in itertools.product(range(1, 5), repeat=2):
            assert normal_form((("s", i), ("s", j)), p) == (("s", table.mul(i, j)),), (table, i, j)
        # the left sides, and so the normal forms, are those of every table of order 4
        words = words or enumerate_normal_forms(p, 3) + [ZERO_WORD]
        for _ in range(10):
            u, v = rng.sample(words, 2)
            ok, idx, why = verify_trace(collapse(u, v, p), p)
            assert ok, (table, format_word(u), format_word(v), idx, why)


def test_enumerate_is_length_lexicographic():
    p = _pres("z2")
    words = enumerate_normal_forms(p, 3)
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)
