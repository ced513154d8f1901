"""Executable congruence-collapse certificates.

collapse(u, v) produces a chain of congruent pairs from a generator pair down
to (1, 0), witnessing that any congruence identifying u and v is universal.
unit_context makes zero-simplicity constructive: it builds words a, b with
a w b = 1 for every nonzero normal form w.  verify_trace replays a chain using
only concatenation and normal_form, sharing no logic with collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coloring import check_conditions
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


@dataclass(frozen=True)
class WitnessStep:
    pair: tuple  # (left word, right word)
    move: tuple  # ("GEN",) | ("MULL", g) | ("MULR", g) | ("REWRITE", side)
    note: str = field(default="", compare=False)


@dataclass(frozen=True)
class WitnessTrace:
    presentation: Presentation
    steps: tuple


def _check_normal(w: Word, p: Presentation, what: str = "word") -> None:
    if not is_normal_form(w, p):
        raise ValueError(f"{what} is not a normal form: {format_word(w)}")


def decompose(w: Word, p: Presentation):
    """Split a nonzero normal form as P Q with P x-free and Q empty or x-initial.

    The split point is the first x.  In a normal form no y can follow an x
    (the factors xy, xsy and ss are left sides of rules), so Q is y-free and
    the decomposition is unique.
    """
    if w == ZERO_WORD:
        raise ValueError("the zero word has no such decomposition")
    _check_normal(w, p)
    for t, letter in enumerate(w):
        if letter[0] == "x":
            return w[:t], w[t:]
    return w, EMPTY_WORD


def _least(p: Presentation, hit) -> int:
    # smallest x- or y-index t in 1..n+1 with hit(t); C1..C6 promise one for
    # every search below, so a coloring that breaks them raises its report
    for t in range(1, p.n + 2):
        if hit(t):
            return t
    raise ColoringConditionError(check_conditions(p.coloring))


def unit_context(w: Word, p: Presentation):
    """Words (a, b) with normal_form(a w b) equal to the empty word.

    With w = P Q, the right context peels Q one x at a time: a trailing x_i
    gets s_1 y_k appended with f(i, 1, k) = 1, a trailing x_i s_j gets y_k
    with f(i, j, k) = 1.  The left context then peels P: a leading y_k gets
    x_i s_1 prepended with f(i, 1, k) = 1, a leading s_j y_k gets x_i with
    f(i, j, k) = 1, and a lone s_j is wrapped as x_1 s_j y_k with
    f(1, j, k) = 1.
    """
    if w == ZERO_WORD:
        raise ValueError("the zero word has no unit context")
    f = p.coloring.get
    prefix, rest = decompose(w, p)
    b = []
    while rest:
        role, idx = rest[-1]
        if role == "x":
            k = _least(p, lambda k: f(idx, 1, k))
            b += [("s", 1), ("y", k)]
            rest = rest[:-1]
        else:
            i = rest[-2][1]
            k = _least(p, lambda k: f(i, idx, k))
            b.append(("y", k))
            rest = rest[:-2]
    a = []
    while prefix:
        role, idx = prefix[0]
        if role == "y":
            i = _least(p, lambda i: f(i, 1, idx))
            a = [("x", i), ("s", 1)] + a
            prefix = prefix[1:]
        elif len(prefix) >= 2:
            k = prefix[1][1]
            i = _least(p, lambda i: f(i, idx, k))
            a = [("x", i)] + a
            prefix = prefix[2:]
        else:
            k = _least(p, lambda k: f(1, idx, k))
            a = [("x", 1)] + a
            b.append(("y", k))
            prefix = EMPTY_WORD
    return tuple(a), tuple(b)


def _end_pair(w: Word):
    # w is a normal form containing x, so it ends with x_i or x_i s_j
    role, idx = w[-1]
    if role == "x":
        return idx, None
    return w[-2][1], idx


def _start_pair(w: Word):
    # w is a normal form containing y, so it starts with y_k or s_j y_k
    role, idx = w[0]
    if role == "y":
        return None, idx
    return idx, w[1][1]


def collapse(u: Word, v: Word, p: Presentation) -> WitnessTrace:
    """Derive the collapse pair (1, 0) from the generator pair (u, v).

    Both inputs must be distinct normal forms (the zero word and the empty
    word are allowed).  Each loop iteration either strictly shrinks the
    combined length or finishes through a unit context, so the trace length
    is linear in |u| + |v|.
    """
    if u == v:
        raise ValueError("identical inputs generate no congruence")
    _check_normal(u, p, "left word")
    _check_normal(v, p, "right word")
    f = p.coloring.get
    steps = [WitnessStep((u, v), ("GEN",), "generator pair")]
    left, right = u, v

    def multiply_left(g, note):
        nonlocal left, right
        left, right = g + left, g + right
        steps.append(WitnessStep((left, right), ("MULL", g), note))

    def multiply_right(g, note):
        nonlocal left, right
        left, right = left + g, right + g
        steps.append(WitnessStep((left, right), ("MULR", g), note))

    def rewrite(note):
        nonlocal left, right
        nl, nr = normal_form(left, p), normal_form(right, p)
        if nl == left and nr == right:
            return
        side = "both" if (nl != left and nr != right) else ("left" if nl != left else "right")
        left, right = nl, nr
        steps.append(WitnessStep((left, right), ("REWRITE", side), note))

    guard = 2 * (len(u) + len(v)) + 8
    for _ in range(guard):
        if (left, right) in _TERMINAL:
            return WitnessTrace(p, tuple(steps))
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
            a, b = unit_context(w, p)
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
            li, lj = _end_pair(left)
            ri, rj = _end_pair(right)
            if lj is not None and rj is not None:
                if (li, lj) == (ri, rj):
                    k = _least(p, lambda k: f(li, lj, k))
                    note = f"both end x s, equal pairs: strip with y{k} (C1)"
                else:
                    k = _least(p, lambda k: f(li, lj, k) != f(ri, rj, k))
                    note = f"both end x s, distinct pairs: split with y{k} (C5)"
                g = (("y", k),)
            elif lj is None and rj is None:
                if li == ri:
                    k = _least(p, lambda k: f(li, 1, k))
                    note = f"both end x, equal index: strip with s1 y{k} (C1)"
                else:
                    k = _least(p, lambda k: f(li, 1, k) != f(ri, 1, k))
                    note = f"both end x, distinct indices: split with s1 y{k} (C5)"
                g = (("s", 1), ("y", k))
            else:
                i, j = (li, lj) if lj is not None else (ri, rj)
                k = _least(p, lambda k: f(i, j, k))
                note = f"mixed ends: y{k} strips the x s side, zeroes the bare x (C1)"
                g = (("y", k),)
            multiply_right(g, note)
            rewrite(note)
            continue

        if ly and ry:
            lj, lk = _start_pair(left)
            rj, rk = _start_pair(right)
            if lj is not None and rj is not None:
                if (lj, lk) == (rj, rk):
                    i = _least(p, lambda i: f(i, lj, lk))
                    note = f"both start s y, equal pairs: strip with x{i} (C2)"
                else:
                    i = _least(p, lambda i: f(i, lj, lk) != f(i, rj, rk))
                    note = f"both start s y, distinct pairs: split with x{i} (C6)"
                g = (("x", i),)
            elif lj is None and rj is None:
                if lk == rk:
                    i = _least(p, lambda i: f(i, 1, lk))
                    note = f"both start y, equal index: strip with x{i} s1 (C2)"
                else:
                    i = _least(p, lambda i: f(i, 1, lk) != f(i, 1, rk))
                    note = f"both start y, distinct indices: split with x{i} s1 (C6)"
                g = (("x", i), ("s", 1))
            else:
                j, k = (lj, lk) if lj is not None else (rj, rk)
                i = _least(p, lambda i: f(i, j, k))
                note = f"mixed starts: x{i} strips the s y side, zeroes the bare y (C2)"
                g = (("x", i),)
            multiply_left(g, note)
            rewrite(note)
            continue

        if lx or rx:
            # exactly one side contains x; kill it on the right
            w = left if lx else right
            i, j = _end_pair(w)
            if j is None:
                k = i
                note = f"single x side ending x{i}: y{i} zeroes it"
            else:
                k = _least(p, lambda k: not f(i, j, k))
                note = f"single x side ending x{i} s{j}: y{k} colored 0 zeroes it (C3)"
            multiply_right((("y", k),), note)
            rewrite(note)
            continue

        if ly or ry:
            # exactly one side contains y and no side contains x; kill it on the left
            w = left if ly else right
            j, k = _start_pair(w)
            if j is None:
                i = k
                note = f"single y side starting y{k}: x{k} zeroes it"
            else:
                i = _least(p, lambda i: not f(i, j, k))
                note = f"single y side starting s{j} y{k}: x{i} colored 0 zeroes it (C4)"
            multiply_left((("x", i),), note)
            rewrite(note)
            continue

        # both sides are the empty word or a single s-letter
        sl = left[0][1] if left else None
        sr = right[0][1] if right else None
        if sl is None or sr is None:
            j = sl if sl is not None else sr
            k = _least(p, lambda k: f(1, j, k))
            note = f"identity vs s{j}: wrap x1 .. y{k} (C1)"
        else:
            k = _least(p, lambda k: f(1, sl, k) != f(1, sr, k))
            note = f"s{sl} vs s{sr}: wrap x1 .. y{k} (C5)"
        multiply_left((("x", 1),), note)
        multiply_right((("y", k),), note)
        rewrite(note)

    raise RuntimeError("collapse failed to terminate (invalid presentation?)")


def verify_trace(trace: WitnessTrace, p: Presentation):
    """Independent check of a witness trace.

    Uses only literal concatenation and normal_form.  Accepts iff step 0 is a
    generator pair of two distinct normal forms, every later step follows from
    its predecessor by its declared move, and the final pair is (1, 0) or
    (0, 1).  Returns (ok, bad_step_index, reason).
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
    if normal_form(u, p) != u or normal_form(v, p) != v:
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
    return WitnessTrace(p, tuple(steps))
