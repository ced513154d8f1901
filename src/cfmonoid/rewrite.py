"""Normal forms, critical pairs, and local confluence.

Every rule strictly reduces word length, so rewriting terminates in at most
|w| steps and local confluence of the critical pairs implies confluence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .presentation import EMPTY_WORD, Presentation, Rule, Word, alphabet


def find_redex(w: Word, p: Presentation):
    """Leftmost redex, shortest lhs first on position ties.

    Returns (position, lhs, rhs) or None if w is irreducible.
    """
    m = p.lhs_map
    end = len(w)
    for pos in range(end):
        for width in (2, 3):
            if pos + width > end:
                break
            rhs = m.get(w[pos:pos + width])
            if rhs is not None:
                return pos, w[pos:pos + width], rhs
    return None


def normal_form(w: Word, p: Presentation) -> Word:
    """Reduce w to its irreducible form under the leftmost strategy."""
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
        # a new redex can start at most two letters back
        pos = pos - 2 if pos > 2 else 0
    return tuple(letters)


def is_normal_form(w: Word, p: Presentation) -> bool:
    """True iff no rule left-hand side occurs as a factor of w."""
    return find_redex(w, p) is None


@dataclass(frozen=True)
class CriticalPair:
    """Two one-step rewrites of one overlap word.

    rule_left rewrites the overlap at offset 0 to left_reduct; rule_right
    rewrites it at offset pos_right to right_reduct.
    """

    overlap: Word
    left_reduct: Word
    right_reduct: Word
    rule_left: Rule
    rule_right: Rule
    pos_right: int


def critical_pairs(p: Presentation) -> list:
    """All minimal overlaps between rule left-hand sides.

    Covers proper suffix-prefix overlaps and containment of one lhs inside
    another; with the generated rule set only proper overlaps occur.  Two maps
    are built once, proper prefix -> rules and whole lhs -> rules (an
    Aho-Corasick-style index over the left sides).  For each rule r1, every
    proper suffix of its lhs is looked up in the first (the overlaps) and every
    shorter factor in the second (the containments).  Over R rules that is
    O(R * |lhs|^2) lookups plus O(#pairs) to build the pairs, instead of
    comparing all R^2 rule pairs.

    Pairs are ordered by r1, then r2, in rule order (each rule's hits are
    sorted); for one (r1, r2) the overlaps come first by overlap length, then
    the containments by offset.
    """
    rules = p.rules
    by_prefix = defaultdict(list)
    by_lhs = defaultdict(list)
    for j, r in enumerate(rules):
        by_lhs[r.lhs].append(j)
        for o in range(1, len(r.lhs)):
            by_prefix[r.lhs[:o]].append(j)
    pairs = []
    for r1 in rules:
        l1 = r1.lhs
        n1 = len(l1)
        hits = []  # (r2 index, 0 overlap / 1 containment, overlap length / offset)
        for o in range(1, n1):
            hits.extend((j, 0, o) for j in by_prefix.get(l1[n1 - o:], ()))
        for width in range(1, n1):
            for t in range(n1 - width + 1):
                hits.extend((j, 1, t) for j in by_lhs.get(l1[t:t + width], ()))
        hits.sort()
        for j, contained, k in hits:
            r2 = rules[j]
            if contained:
                right = l1[:k] + r2.rhs + l1[k + len(r2.lhs):]
                pairs.append(CriticalPair(l1, r1.rhs, right, r1, r2, k))
            else:
                tail = r2.lhs[k:]
                pairs.append(CriticalPair(l1 + tail, r1.rhs + tail, l1[:n1 - k] + r2.rhs, r1, r2, n1 - k))
    return pairs


def check_local_confluence(p: Presentation):
    """Join the critical pairs until one fails.

    Returns (all_joinable, first_failure, pairs); first_failure is the first
    pair, in critical_pairs order, whose reducts have different normal forms,
    or None when the system is confluent.
    """
    pairs = critical_pairs(p)
    first_bad = next(
        (cp for cp in pairs if normal_form(cp.left_reduct, p) != normal_form(cp.right_reduct, p)),
        None,
    )
    return first_bad is None, first_bad, pairs


def _extends_normal(w: Word, a) -> bool:
    # appending a to a normal form stays normal iff no factor ss, xy or xsy
    # appears at the new end
    if not w:
        return True
    b = w[-1][0]
    r = a[0]
    if b == "s" and r == "s":
        return False
    if b == "x" and r == "y":
        return False
    if b == "s" and r == "y" and len(w) >= 2 and w[-2][0] == "x":
        return False
    return True


def enumerate_normal_forms(p: Presentation, maxlen: int) -> list:
    """Nonzero normal forms of length <= maxlen, in length-lexicographic order.

    Includes the empty word, excludes the zero word; callers that need the
    zero add it themselves.
    """
    letters = alphabet(p.n)
    out = [EMPTY_WORD]
    layer = [EMPTY_WORD]
    for _ in range(maxlen):
        nxt = []
        for w in layer:
            for a in letters:
                if _extends_normal(w, a):
                    nxt.append(w + (a,))
        out.extend(nxt)
        layer = nxt
    return out
