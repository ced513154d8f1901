"""Normal forms, critical pairs, and local confluence.

The rule left sides, p.lhs_map, are the one definition of the normal-form
language: a word is a normal form iff none of them occurs in it, and
normal_form is the only code that applies the rules.  Every rule strictly
reduces word length, so rewriting terminates in at most |w| steps and local
confluence of the critical pairs implies confluence.  A word of at most two
letters is answered from lhs_map; the index of the rules by their last two
letters is built when a word of three or more letters is first reduced.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, partial

from .presentation import _NO_RULES, EMPTY_WORD, Presentation, Rule, Word, alphabet, format_word, parse_word


def normal_form(w: Word, p: Presentation) -> Word:
    """Reduce w to its irreducible form in one left-to-right pass.

    The output stack never holds a redex.  Each input letter c is tried with
    the top two stack letters, then with the top one; on a hit the matched
    letters are popped and the rule's right side, if any, becomes c and is
    tried again, otherwise c is pushed.  Every left side has 2 or 3 letters
    and every right side at most 1 (Presentation checks this), so each letter is
    pushed and popped at most once and the pass is O(|w|).  Each step
    rewrites the leftmost redex of the current word, the shorter one where
    two start at the same letter, so even a system that is not confluent
    gets the leftmost strategy's result.

    A word of at most two letters holds at most one redex, the word itself,
    since every left side has 2 or 3 letters; so its normal form is its
    right side in lhs_map if it is a left side, else the word, as a tuple.
    That is the pass's answer for any rule map and any letters.

    Longer words read the rules through p's index by last two letters,
    built on the first reduction of a word of three or more letters and
    kept with p, whose rule map is read-only.  The row of the top letter is
    kept in a local, so a letter c with no entry there costs two lookups of
    one letter: c in that row, then c's own row, which becomes the top one.
    Only on a hit are the top two letters tried, and then the top one.
    """
    if len(w) < 3:
        w = tuple(w)
        return tuple(p.lhs_map.get(w, w))
    row_of = p._by_last_two.get
    out = []
    push = out.append
    row = _NO_RULES
    for c in w:
        while True:
            hit = row.get(c)
            if hit is None:
                push(c)
                row = row_of(c, _NO_RULES)
                break
            two, three = hit
            if three and len(out) > 1 and (rhs := three.get(out[-2])) is not None:
                del out[-2:]
            elif two is not None:
                rhs = two
                del out[-1]
            else:
                push(c)
                row = row_of(c, _NO_RULES)
                break
            row = row_of(out[-1], _NO_RULES) if out else _NO_RULES
            if not rhs:
                break
            c = rhs[0]
    return tuple(out)


@cache
def _letter_set(n: int) -> frozenset:
    # the letters of alphabet(n, include_zero=True), built once per n
    return frozenset(alphabet(n, include_zero=True))


def is_normal_form(w: Word, p: Presentation) -> bool:
    """True iff w is a word over p's letters and no rule left-hand side occurs as a factor of w.

    p's letters are alphabet(p.n, include_zero=True); normal_form passes a
    letter outside them through unchanged, so they are checked first.  Every
    rule shortens the word, so a word over them is irreducible iff it is its
    own normal form; w may be any sequence of letters, a list too.
    """
    return _letter_set(p.n).issuperset(w) and normal_form(w, p) == tuple(w)


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
    another; with the generated rule set only proper overlaps occur.  Every
    left side has 2 or 3 letters (Presentation checks this), so an overlap
    of r1's lhs with r2's is 1 letter long, or 2 when both have 3 letters,
    and a containment is a 2-letter lhs at offset 0 or 1 of a 3-letter one.
    Three maps are built once: first letter -> rules, first two letters of
    a 3-letter lhs -> rules, and lhs -> rule.  Each rule r1 then makes at
    most four lookups: its last letter in the first map, and for a 3-letter
    lhs its last two letters in the second and its first and last two in
    the third.  Over R rules that is O(R) lookups plus O(#pairs) to build
    the pairs, instead of comparing all R^2 rule pairs.

    Pairs are ordered by r1, then r2, in rule order (each rule's hits are
    sorted); for one (r1, r2) the overlaps come first by overlap length, then
    the containments by offset.
    """
    rules = p.rules
    # a hit is (r2 index, 0 overlap / 1 containment, overlap length / offset);
    # the two overlap maps hold their hits, in rule order
    by_first = defaultdict(list)
    by_prefix = defaultdict(list)
    index = {}
    for j, r in enumerate(rules):
        lhs = r.lhs
        index[lhs] = j
        by_first[lhs[0]].append((j, 0, 1))
        if len(lhs) == 3:
            by_prefix[lhs[:2]].append((j, 0, 2))
    pairs = []
    for r1 in rules:
        l1 = r1.lhs
        n1 = len(l1)
        hits = by_first.get(l1[-1], ())
        if n1 == 3:
            hits = [*hits, *by_prefix.get(l1[1:], ())]
            hits += [(index[f], 1, t) for t, f in ((0, l1[:2]), (1, l1[1:])) if f in index]
            hits.sort()
        for j, contained, k in hits:
            r2 = rules[j]
            if contained:
                right = l1[:k] + r2.rhs + l1[k + 2:]
                pairs.append(CriticalPair(l1, r1.rhs, right, r1, r2, k))
            else:
                tail = r2.lhs[k:]
                pairs.append(CriticalPair(l1 + tail, r1.rhs + tail, l1[:n1 - k] + r2.rhs, r1, r2, n1 - k))
    return pairs


def check_local_confluence(p: Presentation):
    """Join the critical pairs until one fails.

    Returns (all_joinable, first_failure, pairs); first_failure is the first
    pair, in critical_pairs order, whose reducts have different normal forms,
    or None when the system is confluent.  Many pairs share a reduct (at n=8
    the 5706 reducts of the 2853 pairs are 262 distinct words), so each
    distinct reduct is reduced once, on first use, and looked up after that.
    """
    pairs = critical_pairs(p)
    nf = cache(partial(normal_form, p=p))
    first_bad = next((cp for cp in pairs if nf(cp.left_reduct) != nf(cp.right_reduct)), None)
    return first_bad is None, first_bad, pairs


class _Successors(dict):
    """tail -> (child tails, child tokens) for the nonzero normal forms of p.

    A normal form w extends by a letter a iff a completes no left side that
    ends with w's last one or two letters (every left side has 2 or 3), so
    the letters that extend w depend only on its tail, the last <= 2
    letters.  A child w a has the tail (last letter of w, a) and a's token.
    Children come in alphabet order; each tail's entry is made on first use.
    A 2-letter tail that starts no 3-letter left side bans only what its
    last letter bans, so it shares that letter's entry: a walk makes one
    entry for the empty tail, one per letter and one per 2-letter tail that
    starts a 3-letter left side (99 for Z_8, where the tails read up to
    length 4 are 558).  The banned letters are read from the row of the
    last letter in p's index by last two letters, which normal_form reads.
    """

    def __init__(self, p: Presentation):
        super().__init__()
        self.rows = p._by_last_two
        # b -> the letters a for which a b starts a 3-letter left side
        self.starts = {b: set().union(*(three for _, three in row.values())) for b, row in self.rows.items()}
        self.letters = [(a, format_word((a,))) for a in alphabet(p.n)]

    def __missing__(self, tail):
        last = tail[-1:]
        if len(tail) == 2 and tail[0] not in self.starts.get(tail[1], ()):
            entry = self[tail] = self[last]
            return entry
        # in the row of the last letter b, c is banned after any tail ending
        # in b if b c is a left side, and after the tail a b if a b c is one
        row = self.rows.get(tail[-1], _NO_RULES) if tail else _NO_RULES
        banned = {c for c, (two, three) in row.items() if two is not None or len(tail) == 2 and tail[0] in three}
        kids = [(last + (a,), tok) for a, tok in self.letters if a not in banned]
        entry = self[tail] = (tuple(t for t, _ in kids), tuple(tok for _, tok in kids))
        return entry


def enumerate_normal_forms(p: Presentation, maxlen: int) -> list:
    """Nonzero normal forms of length <= maxlen, in length-lexicographic order.

    Includes the empty word, excludes the zero word; callers that need the
    zero add it themselves.  A negative maxlen raises ValueError.  The words
    are the lines that write_normal_forms writes, read back with parse_word.
    No command calls it; it stays for the tests and the benchmark's tracer.
    """
    chunks = []
    write_normal_forms(p, maxlen, chunks.append)
    return [parse_word(line, p.n) for line in "".join(chunks).splitlines()]


def write_normal_forms(p: Presentation, maxlen: int, write) -> None:
    """Write the nonzero normal forms of length <= maxlen, one format_word per line.

    The order is length-lexicographic, the empty word "1" first, but no word is
    built as a tuple: a word is its tail and its text, and a child's line is
    its parent's text plus the child's token.  The walk goes layer by layer
    and keeps only the words shorter than maxlen; all children of one parent
    go out in one write call, and the last layer is written, never kept, so
    memory holds about one layer of text.  A negative maxlen raises
    ValueError before anything is written.
    """
    if maxlen < 0:
        raise ValueError(f"maxlen must be non-negative, got {maxlen}")
    successors = _Successors(p)
    write("1\n")
    layer = [(EMPTY_WORD, "")]
    for length in range(1, maxlen + 1):
        keep = length < maxlen
        nxt = []
        for tail, text in layer:
            tails, tokens = successors[tail]
            if not tokens:
                continue
            pre = text + " " if text else ""
            write(pre + ("\n" + pre).join(tokens) + "\n")
            if keep:
                nxt.extend(zip(tails, [pre + tok for tok in tokens]))
        layer = nxt
