"""Executable congruence-collapse certificates.

collapse(u, v) produces a chain of congruent pairs from a generator pair down
to (1, 0), witnessing that any congruence identifying u and v is universal.
unit_context makes zero-simplicity constructive: it builds words a, b with
a w b = 1 for every nonzero normal form w.  verify_trace replays a chain using
only concatenation and normal_form, sharing no logic with collapse.

The construction is left-right symmetric.  The mirror image of a word is the
word reversed with x_i and y_i swapped (s_j and z stay); it maps each rule of
the presentation for a table t and a coloring f to a rule of the presentation
for the opposite table and the transposed coloring fT(i, j, k) = f(k, j, i),
and it turns C1, C3 and C5 into C2, C4 and C6.  So each move is written once,
for the x side, where it reads the right end of the words and multiplies on
the right; the y side runs the same code on the mirror images, reading the
fibers of fT, and mirrors the multiplier back to multiply on the left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ne

from .coloring import Coloring, check_conditions
from .presentation import (
    EMPTY_WORD,
    ColoringConditionError,
    Presentation,
    Word,
    ZERO_WORD,
    format_word,
    parse_word,
)
from .rewrite import is_normal_form, normal_form

_TERMINAL = ((EMPTY_WORD, ZERO_WORD), (ZERO_WORD, EMPTY_WORD))
_SWAP = {"x": "y", "y": "x", "s": "s", "z": "z"}
_S1 = (("s", 1),)
_X1 = (("x", 1),)
# the condition that the mirror image of an x-side move uses
_MIRRORED = {"C1": "C2", "C3": "C4", "C5": "C6"}


@dataclass(frozen=True)
class WitnessStep:
    pair: tuple  # (left word, right word)
    move: tuple  # ("GEN",) | ("MULL", g) | ("MULR", g) | ("REWRITE", side)
    condition: str | None = field(default=None, compare=False)  # "C1".."C6", the one the move used


@dataclass(frozen=True)
class WitnessTrace:
    steps: tuple


def _check_normal(w: Word, p: Presentation, what: str = "word") -> None:
    if not is_normal_form(w, p):
        raise ValueError(f"{what} is not a normal form: {format_word(w)}")


def _mirror(w: Word) -> Word:
    # the word reversed, with x_i and y_i swapped
    return tuple([(_SWAP[role], idx) for role, idx in reversed(w)])


def _split(w: Word):
    for t, letter in enumerate(w):
        if letter[0] == "x":
            return w[:t], w[t:]
    return w, EMPTY_WORD


# A fiber is the tuple of colors over the last index: the x side reads
# f(i, j, .), the mirrored y side reads fT(i, j, .) = f(., j, i).
def _row(c: Coloring, i: int, j: int) -> tuple:
    return c.bits[i - 1][j - 1]


def _column(c: Coloring, i: int, j: int) -> list:
    return [plane[j - 1][i - 1] for plane in c.bits]


def _least(c: Coloring, colors, want: int = 1) -> int:
    # least index t in 1..n+1 with colors[t-1] == want; C1..C6 promise one for
    # every search below, so a coloring that breaks them raises its report
    try:
        return colors.index(want) + 1
    except ValueError:
        raise ColoringConditionError(check_conditions(c)) from None


def _right_unit(q: Word, c: Coloring, fiber) -> list:
    # letters b with q b = 1, for a y-free normal form q whose every s follows
    # an x: a trailing x_i gets s_1 y_k with f(i, 1, k) = 1, a trailing x_i s_j
    # gets y_k with f(i, j, k) = 1, where f is the coloring that fiber reads
    b = []
    t = len(q)
    while t:
        role, idx = q[t - 1]
        if role == "x":
            b += [("s", 1), ("y", _least(c, fiber(c, idx, 1)))]
            t -= 1
        else:
            b.append(("y", _least(c, fiber(c, q[t - 2][1], idx))))
            t -= 2
    return b


def _unit_context(w: Word, c: Coloring):
    prefix, rest = _split(w)
    a = EMPTY_WORD
    if prefix and prefix[-1][0] == "s":
        # a lone s_j ending P is peeled as the head x_1 s_j of Q
        prefix, rest, a = prefix[:-1], _X1 + prefix[-1:] + rest, _X1
    return a + _mirror(_right_unit(_mirror(prefix), c, _column)), tuple(_right_unit(rest, c, _row))


def unit_context(w: Word, p: Presentation):
    """Words (a, b) with normal_form(a w b) equal to the empty word.

    With w = P Q split at the first x, the right context peels Q one x at a
    time: a trailing x_i gets s_1 y_k appended with f(i, 1, k) = 1, a
    trailing x_i s_j gets y_k with f(i, j, k) = 1.  The left context peels P
    the same way on its mirror image, with the transposed coloring: a
    leading y_k gets x_i s_1 prepended with f(i, 1, k) = 1, a leading s_j
    y_k gets x_i with f(i, j, k) = 1.  A trailing lone s_j of P is moved to
    the head of Q as x_1 s_j, so x_1 is prepended to the left context and
    the right context ends with the y_k that x_1 s_j gets, f(1, j, k) = 1.
    """
    w = tuple(w)
    if w == ZERO_WORD:
        raise ValueError("the zero word has no unit context")
    _check_normal(w, p)
    return _unit_context(w, p.coloring)


def _end_pair(w: Word):
    # w is a normal form containing x, so it ends with x_i or x_i s_j
    role, idx = w[-1]
    if role == "x":
        return idx, None
    return w[-2][1], idx


def _x_move(left: Word, right: Word, lx: bool, rx: bool, c: Coloring, m: int):
    """Right multiplier and the condition it uses, for a pair with x in one or both sides.

    m is 0 for the pair itself and 1 for its mirror image, whose searches
    read the fibers of fT and so use C2, C4 and C6 in place of C1, C3 and C5.
    A bare x_i is zeroed by y_i, which uses no condition (None).
    Two sides that both end with a bare x are the pair with s_1 appended,
    which both end x s: they get s_1 followed by that pair's multiplier.
    """
    fiber = _column if m else _row
    if lx and rx:
        li, lj = _end_pair(left)
        ri, rj = _end_pair(right)
        if lj is None and rj is None:
            g, condition = _x_move(left + _S1, right + _S1, True, True, c, m)
            return _S1 + g, condition
        if lj is not None and rj is not None and (li, lj) != (ri, rj):
            k, condition = _least(c, list(map(ne, fiber(c, li, lj), fiber(c, ri, rj)))), "C5"
        else:
            # equal ends, or one side's x s end: C1 on that end
            i, j = (li, lj) if lj is not None else (ri, rj)
            k, condition = _least(c, fiber(c, i, j)), "C1"
    else:
        i, j = _end_pair(left if lx else right)
        if j is None:
            return (("y", i),), None
        k, condition = _least(c, fiber(c, i, j), 0), "C3"
    return (("y", k),), _MIRRORED[condition] if m else condition


def collapse(u: Word, v: Word, p: Presentation) -> WitnessTrace:
    """Derive the collapse pair (1, 0) from the generator pair (u, v).

    Both inputs, tuples or lists of letters, must be distinct normal forms
    (the zero word and the empty word are allowed).  Each loop iteration
    either strictly shrinks the combined length or finishes through a unit
    context, so the trace length is linear in |u| + |v|.  The cases are tried in the order: one side zero,
    both sides with x, both with y, one with x, one with y.  A pair with y in
    both sides, or in one side and x in none, is the x case of its mirror
    image.  A pair of the empty word and single s-letters gets x_1 on the
    left, which makes it the x-side pair (x_1, x_1 s_j), mixed ends (C1), or
    (x_1 s_i, x_1 s_j), distinct pairs (C5), and is finished in the same
    round by that pair's right multiplier.
    """
    u, v = tuple(u), tuple(v)
    if u == v:
        raise ValueError("identical inputs generate no congruence")
    _check_normal(u, p, "left word")
    _check_normal(v, p, "right word")
    c = p.coloring
    steps = [WitnessStep((u, v), ("GEN",))]
    left, right = u, v
    guard = 2 * (len(u) + len(v)) + 8
    for _ in range(guard):
        if (left, right) in _TERMINAL:
            return WitnessTrace(tuple(steps))
        if left == right:
            # each move was chosen from the coloring to keep the pair apart, so an
            # equal pair means some rule differs from the paper's construction
            raise ValueError(
                f"collapse reached the equal pair ({format_word(left)}, {format_word(right)}):"
                " the rules are not the paper's construction for their coloring"
            )
        a = b = EMPTY_WORD  # the multipliers on the left and on the right
        condition = None
        if left == ZERO_WORD or right == ZERO_WORD:
            # one side is zero: lift the other to the identity by a unit context
            a, b = _unit_context(right if left == ZERO_WORD else left, c)
        else:
            lx = any(r == "x" for r, _ in left)
            rx = any(r == "x" for r, _ in right)
            ly = any(r == "y" for r, _ in left)
            ry = any(r == "y" for r, _ in right)
            if not (lx or rx or ly or ry):
                # both sides are the empty word or a single s-letter
                a, lx, rx = _X1, True, True
            if (lx and rx) or ((lx or rx) and not (ly and ry)):
                b, condition = _x_move(a + left, a + right, lx, rx, c, 0)
            else:
                g, condition = _x_move(_mirror(left), _mirror(right), ly, ry, c, 1)
                a = _mirror(g)
        if a:
            left, right = a + left, a + right
            steps.append(WitnessStep((left, right), ("MULL", a), condition))
        if b:
            left, right = left + b, right + b
            steps.append(WitnessStep((left, right), ("MULR", b), condition))
        nl, nr = normal_form(left, p), normal_form(right, p)
        if nl != left or nr != right:
            side = "both" if (nl != left and nr != right) else ("left" if nl != left else "right")
            left, right = nl, nr
            steps.append(WitnessStep((left, right), ("REWRITE", side), condition))
    raise ValueError(
        f"collapse did not reach (1, 0) in {guard} rounds: the rules are not the paper's construction"
    )


def verify_trace(trace: WitnessTrace, p: Presentation):
    """Independent check of a witness trace.

    Uses only literal concatenation, normal_form and is_normal_form.  Accepts
    iff step 0 is a generator pair of two distinct normal forms, every later
    step follows from its predecessor by its declared move, and the final
    pair is (1, 0) or (0, 1).  Returns (ok, bad_step_index, reason).
    """
    steps = trace.steps
    if not steps:
        return False, 0, "empty trace"
    first = steps[0]
    if first.move != ("GEN",):
        return False, 0, "step 0 must be the generator pair"
    u, v = first.pair
    if u == v:
        return False, 0, "generator words are equal"
    if not (is_normal_form(u, p) and is_normal_form(v, p)):
        return False, 0, "generator words are not normal forms"
    prev_left, prev_right = first.pair
    for idx in range(1, len(steps)):
        step = steps[idx]
        move = step.move
        kind = move[0]
        if kind == "MULL":
            g = move[1]
            expect = (g + prev_left, g + prev_right)
        elif kind == "MULR":
            g = move[1]
            expect = (prev_left + g, prev_right + g)
        elif kind == "REWRITE":
            side = move[1]
            if side not in ("left", "right", "both"):
                return False, idx, f"bad rewrite side {side!r}"
            expect = (
                normal_form(prev_left, p) if side in ("left", "both") else prev_left,
                normal_form(prev_right, p) if side in ("right", "both") else prev_right,
            )
        elif kind == "GEN":
            return False, idx, "generator move after step 0"
        else:
            return False, idx, f"unknown move {kind!r}"
        if step.pair != expect:
            return False, idx, "recorded pair does not match the declared move"
        prev_left, prev_right = step.pair
    if (prev_left, prev_right) not in _TERMINAL:
        return False, len(steps) - 1, "final pair is not (1, 0) or (0, 1)"
    return True, None, None


def format_trace(trace: WitnessTrace) -> str:
    """One step per line: index, move tag, left word, right word (tab-separated)."""
    lines = []
    for idx, step in enumerate(trace.steps):
        move = step.move
        if move[0] == "GEN":
            tag = "GEN"
        elif move[0] in ("MULL", "MULR"):
            tag = f"{move[0]} {format_word(move[1])}"
        else:
            tag = f"REWRITE {move[1]}"
        l, r = step.pair
        lines.append(f"{idx}\t{tag}\t{format_word(l)}\t{format_word(r)}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str, p: Presentation) -> WitnessTrace:
    """Parse the trace file format back into a trace over p."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 tab-separated fields")
        num, tag, lw, rw = parts
        if num.strip() != str(len(steps)):
            raise ValueError(f"line {lineno}: step numbers must count up from 0")
        pair = (parse_word(lw, p.n), parse_word(rw, p.n))
        bits = tag.split(None, 1)
        kind = bits[0] if bits else ""
        if kind == "GEN":
            if len(bits) != 1:
                raise ValueError(f"line {lineno}: GEN takes no argument")
            move = ("GEN",)
        elif kind in ("MULL", "MULR"):
            if len(bits) != 2:
                raise ValueError(f"line {lineno}: {kind} needs a word argument")
            move = (kind, parse_word(bits[1], p.n))
        elif kind == "REWRITE":
            if len(bits) != 2 or bits[1] not in ("left", "right", "both"):
                raise ValueError(f"line {lineno}: REWRITE needs a side (left/right/both)")
            move = (kind, bits[1])
        else:
            raise ValueError(f"line {lineno}: unknown move tag {kind!r}")
        steps.append(WitnessStep(pair, move))
    if not steps:
        raise ValueError("empty trace file")
    return WitnessTrace(tuple(steps))
