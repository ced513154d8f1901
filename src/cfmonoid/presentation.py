"""Words over {s_i, x_i, y_i, z} and the generated rewriting system.

A letter is a (role, index) pair with role one of "s", "x", "y", "z"; the zero
letter z carries index 0.  A word is a tuple of letters; the empty tuple is
the monoid identity.  Rules come in five families, all strictly
length-reducing; Presentation stores them once, as a map from left side to
right side, and accepts only left sides of 2 or 3 letters and right sides of
at most 1, the shapes the rewriting engine is built for.  The roles of a left
side's letters fix its family (_FAMILY_OF_SHAPE), and the family fixes its
right side (_right_side); the two are the one definition of the rule set,
which the generator reads, and the loader through the generator's text:

  A:       s_i s_j     -> s_{t(i,j)}   (the Cayley table)
  B:       x_i s_j y_k -> 1 or 0       (the coloring decides)
  C:       x_i y_j     -> 0
  Z_left:  z a         -> z            (a any non-z letter)
  Z_right: a z         -> z            (a any letter, z included)
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby, islice, product
from operator import itemgetter
from types import MappingProxyType

from .coloring import Coloring, check_conditions, conditions_ok
from .semigroup import CayleyTable, is_associative

Letter = tuple
Word = tuple

ZERO_LETTER = ("z", 0)
EMPTY_WORD = ()
ZERO_WORD = (ZERO_LETTER,)

# the roles of a left side's letters -> the family of that shape; z z is a
# Z_right left side (a z -> z with a = z)
_FAMILY_OF_SHAPE = {
    ("s", "s"): "A",
    ("x", "s", "y"): "B",
    ("x", "y"): "C",
    **{("z", role): "Z_left" for role in "sxy"},
    **{(role, "z"): "Z_right" for role in "sxyz"},
}
RULE_FAMILIES = tuple(dict.fromkeys(_FAMILY_OF_SHAPE.values()))

# the right side of the B rule x_i s_j y_k, indexed by the bit f(i, j, k)
_B_RHS = (ZERO_WORD, EMPTY_WORD)

# the empty row of Presentation._by_last_two and the empty 3-letter map of its
# entries: shared, so never written to
_NO_RULES = {}


class WordSyntaxError(ValueError):
    pass


def _parse_token(tok: str, n: int) -> Letter:
    if tok == "0":
        return ZERO_LETTER
    role, digits = tok[:1], tok[1:]
    if role not in ("s", "x", "y") or not (digits.isascii() and digits.isdigit()):
        raise WordSyntaxError(f"unknown token {tok!r}")
    idx = int(digits)
    hi = n if role == "s" else n + 1
    if not 1 <= idx <= hi:
        raise WordSyntaxError(f"index out of range in token {tok!r} (max {role}{hi} for n={n})")
    return (role, idx)


class _Tokens(dict):
    # letter -> token; a letter's token does not depend on n, so one table
    # serves every order and is filled on first use
    def __missing__(self, letter):
        role, idx = letter
        tok = self[letter] = "0" if role == "z" else f"{role}{idx}"
        return tok


_token = _Tokens().__getitem__


@lru_cache(maxsize=None)
def _letters(n: int) -> dict:
    # token -> letter for order n: the canonical token of every letter of
    # alphabet(n, include_zero=True), built once per n so that all words
    # decoded for one n share one tuple per letter
    return {_token(a): a for a in alphabet(n, include_zero=True)}


def parse_word(text: str, n: int) -> Word:
    """Parse word syntax: whitespace-separated tokens s<i>/x<i>/y<i>, "0" for z.

    "1" denotes the empty word and is only allowed as the whole word.  Each
    token is looked up in a table of the canonical tokens for n, cached per
    n; a token missing from it ("1", a non-canonical spelling such as s01,
    or an error) goes through the token parser, which accepts it or gives
    the error message.
    """
    tokens = text.split()
    if not tokens:
        raise WordSyntaxError("empty word text; write '1' for the identity")
    try:
        return tuple(map(_letters(n).__getitem__, tokens))
    except KeyError:
        pass
    if tokens == ["1"]:
        return EMPTY_WORD
    letters = []
    for tok in tokens:
        if tok == "1":
            raise WordSyntaxError("'1' is only allowed as the whole word")
        letters.append(_parse_token(tok, n))
    return tuple(letters)


def format_word(w: Word) -> str:
    """Inverse of parse_word; the empty word prints as "1".

    Tokens come from one table, letter -> token, filled on first use.
    """
    if not w:
        return "1"
    return " ".join(map(_token, w))


def alphabet(n: int, include_zero: bool = False) -> tuple:
    """All letters for order n in canonical order: s_1..s_n, x_1..x_{n+1}, y_1..y_{n+1}.

    Plain tuple comparison of letters and words matches this order, since the
    role characters sort s < x < y < z.
    """
    letters = [("s", i) for i in range(1, n + 1)]
    letters += [("x", i) for i in range(1, n + 2)]
    letters += [("y", i) for i in range(1, n + 2)]
    if include_zero:
        letters.append(ZERO_LETTER)
    return tuple(letters)


def _family(w: Word):
    # the family that _FAMILY_OF_SHAPE gives the roles of w; None outside the five
    return _FAMILY_OF_SHAPE.get((w[0][0], w[1][0]) if len(w) == 2 else (w[0][0], w[1][0], w[2][0]))


@dataclass(frozen=True, slots=True)
class Rule:
    """An item lhs -> rhs of Presentation.rules: a plain value; its family is read off lhs, not stored."""

    lhs: Word
    rhs: Word

    @property
    def family(self):
        """The family that _FAMILY_OF_SHAPE gives the roles of lhs; None outside the five."""
        return _family(self.lhs)


class NotAssociativeError(ValueError):
    """The Cayley table fails associativity; carries the first violating triple."""

    def __init__(self, triple):
        super().__init__(f"table is not associative at triple {triple}")
        self.triple = triple


class ColoringConditionError(ValueError):
    """The coloring violates one of C1..C6; carries the full condition report."""

    def __init__(self, report):
        failed = [name for name, (ok, _) in report.items() if not ok]
        super().__init__(f"coloring fails {', '.join(failed)}")
        self.report = report


@dataclass(frozen=True)
class Presentation:
    """The rewriting system for order n: lhs_map, left side -> right side in rule order, is its rule set.

    A table or coloring whose order is not n, a left side not of 2 or 3
    letters, or a right side longer than 1, raises ValueError.  The map it
    is given is copied, so no caller holds the dict under lhs_map.  The
    generator and the loader keep the runs they fill with the value they
    return (_runs); any other value derives them on first read.
    """

    n: int
    table: CayleyTable
    coloring: Coloring
    lhs_map: MappingProxyType

    def __post_init__(self):
        if not self.n == self.table.n == self.coloring.n:
            raise ValueError(
                f"order mismatch: n={self.n}, table n={self.table.n}, coloring n={self.coloring.n}"
            )
        lhs_map = MappingProxyType(dict(self.lhs_map))
        object.__setattr__(self, "lhs_map", lhs_map)
        # the lengths of all rules are checked at once; the walk below only
        # names the first bad rule
        if set(map(len, lhs_map)) <= {2, 3} and set(map(len, lhs_map.values())) <= {0, 1}:
            return
        for lhs, rhs in lhs_map.items():
            if len(lhs) not in (2, 3) or len(rhs) > 1:
                raise ValueError(
                    "rule must be length-reducing with a left side of 2 or 3 letters and a right side"
                    f" of at most 1: {format_word(lhs)} -> {format_word(rhs)}"
                )

    @property
    def rules(self) -> tuple:
        """The items of lhs_map as Rule values, in rule order; built on each read."""
        return tuple(Rule(lhs, rhs) for lhs, rhs in self.lhs_map.items())

    @cached_property
    def _by_last_two(self) -> dict:
        """The rules by their last two letters: b -> c -> (the right side of the rule b c, or
        None; {a: the right side of the rule a b c}).

        normal_form reads it for words of three or more letters, and the
        normal-form walk reads it.  It is built on first read, in one pass
        over lhs_map, and kept with the value (outside its fields, so == and
        repr do not see it).  A letter that is next to last in no left side
        has no row, and an entry that ends no 3-letter left side has
        _NO_RULES as its map.
        """
        rows = defaultdict(dict)
        for lhs, rhs in self.lhs_map.items():
            row, c = rows[lhs[-2]], lhs[-1]
            two, three = row.get(c, (None, _NO_RULES))
            if len(lhs) == 2:
                row[c] = (rhs, three)
            elif three is _NO_RULES:
                row[c] = (two, {lhs[0]: rhs})
            else:
                three[lhs[0]] = rhs
        return dict(rows)

    @cached_property
    def _runs(self) -> tuple:
        """lhs_map cut into runs: one (family, head, lasts) per run, in map order.

        A run is a maximal stretch of consecutive rules whose left sides
        share all letters but the last (head) and the role of the last, so
        it has one family; lasts are the last letters of its left sides,
        and its right sides are the next len(lasts) values of lhs_map.
        _generate_unchecked and presentation_from_json store the runs that
        _rule_map fills; any other value (a map built by hand, or one from
        dataclasses.replace) derives them on first read through the
        module's _runs.  Like _by_last_two, they are kept outside the fields.
        """
        return tuple(_runs(self.lhs_map))


def _right_side(family: str, head: Word, table: CayleyTable, coloring: Coloring) -> list:
    # the construction's right sides of one block of a family's left sides:
    # head followed by each letter of the last letter's role, in index order.
    # For A (head s_i) the products s_t(i, k) from the table's row, for B
    # (head x_i s_j) the coloring's bits f(i, j, k) through _B_RHS, and 0 for
    # the rest; the list may be longer than the block
    if family == "A":
        letters = _letters(table.n)
        return [(letters[f"s{k}"],) for k in table.rows[head[0][1] - 1]]
    if family == "B":
        (_, i), (_, j) = head
        return list(map(_B_RHS.__getitem__, coloring.bits[i - 1][j - 1]))
    return [ZERO_WORD] * (table.n + 1)


def _generate_unchecked(table: CayleyTable, coloring: Coloring) -> Presentation:
    """The presentation of _rule_map's rules, with no check of the table or coloring, and its runs kept."""
    lhs_map, runs = _rule_map(table, coloring)
    return _with_runs(Presentation(table.n, table, coloring, lhs_map), runs)


def _rule_map(table: CayleyTable, coloring: Coloring) -> tuple:
    """One rule per left side of each shape, in the order of _FAMILY_OF_SHAPE, and the runs that hold them.

    Each shape's left sides come in lexicographic order, one run per head
    (all letters but the last): the run's left sides are the head followed
    by each letter of the last role, zipped with _right_side's list for
    that head, so no Python code runs per rule.  Returns the map and the
    list of its runs as Presentation._runs holds them; the runs of a shape
    share one tuple of last letters.  All words share one tuple per letter:
    the letters of _letters(n), which the A right sides that the loader
    reads share too.
    """
    letters = _letters(table.n).values()
    of_role = {role: tuple(a for a in letters if a[0] == role) for role in "sxyz"}
    lhs_map, runs = {}, []
    for shape, family in _FAMILY_OF_SHAPE.items():
        lasts = of_role[shape[-1]]
        tails = [(a,) for a in lasts]
        for head in product(*[of_role[role] for role in shape[:-1]]):
            lhs_map.update(zip(map(head.__add__, tails), _right_side(family, head, table, coloring)))
            runs.append((family, head, lasts))
    return lhs_map, runs


def _with_runs(p: Presentation, runs) -> Presentation:
    # p with runs, which cut p.lhs_map as _runs does, kept as its _runs
    p.__dict__["_runs"] = tuple(runs)
    return p


def _check_table_and_coloring(table: CayleyTable, coloring: Coloring) -> None:
    # the construction's inputs: one order, an associative table (else
    # NotAssociativeError) and a coloring that passes C1..C6 (else
    # ColoringConditionError with the full report)
    if table.n != coloring.n:
        raise ValueError(f"order mismatch: table n={table.n}, coloring n={coloring.n}")
    ok, triple = is_associative(table)
    if not ok:
        raise NotAssociativeError(triple)
    report = check_conditions(coloring)
    if not conditions_ok(report):
        raise ColoringConditionError(report)


def generate_presentation(table: CayleyTable, coloring: Coloring) -> Presentation:
    """Generate the full rule set for an associative table and a valid coloring.

    A table and coloring of different orders raise ValueError, a
    non-associative table NotAssociativeError and a coloring that fails
    C1..C6 ColoringConditionError.  Rules come family by family in the order
    of RULE_FAMILIES, each family's left sides in lexicographic order.
    """
    _check_table_and_coloring(table, coloring)
    return _generate_unchecked(table, coloring)


def rule_counts(p: Presentation) -> Counter:
    """Rules by family (None for a left side of no family); a family with no rule counts 0.

    Each run of p._runs adds its length to its family.
    """
    counts = Counter()
    for family, _, lasts in p._runs:
        counts[family] += len(lasts)
    return counts


_HEAD = itemgetter(slice(-1))
_LAST = itemgetter(-1)
_ROLE = itemgetter(0)


def _runs(lhs_map):
    # the runs of Presentation._runs, derived from any map: yields
    # (family, head, lasts) per run, in map order; the map may be in any
    # order, and a run may hold one rule.  The left sides are grouped by
    # head, and each head's last letters by role, with C-level iterators, so
    # Python code runs per run, not per rule
    for head, group in groupby(lhs_map, _HEAD):
        for _, lasts in groupby(map(_LAST, group), _ROLE):
            lasts = tuple(lasts)
            yield _family(head + lasts[:1]), head, lasts


class _IntTexts(dict):
    # int -> its text, filled on first use; only exact ints are looked up,
    # so a bool or another type equal to an int never reads an int's text
    def __missing__(self, v):
        text = self[v] = str(v)
        return text


_int_text = _IntTexts().__getitem__
_INT = {int}


def _indented_json(value, depth: int) -> str:
    # json.dumps(value, indent=1) for a sequence whose items are ints or such
    # sequences, written as an item at the given nesting depth; an empty
    # sequence is "[]".  A sequence of exact ints is written through the
    # table of int texts, any other item by itself
    if not value:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    if _INT.issuperset(map(type, value)):
        items = map(_int_text, value)
    else:
        items = [str(v) if isinstance(v, int) else _indented_json(v, depth + 1) for v in value]
    return f"[{pad}{(',' + pad).join(items)}\n{' ' * depth}]"


def presentation_to_json(p: Presentation) -> str:
    """Serialize with deterministic key order; the rule list is stored explicitly.

    The text is byte for byte json.dumps(data, indent=1) of the dict
    {"n", "table", "coloring", "rules"}, each rule {"family", "lhs", "rhs"}
    with words as token lists, but json.dumps is not called: with an indent
    CPython falls back to its pure-Python encoder, which is slow on the
    (n+1) n (n+1) coloring bits and on as many B rules, and holds millions
    of small chunks at once.  The header's int arrays come from a small
    writer of the same layout, and the rules are written run by run
    (p._runs, kept from generation): the text that a run's rules share, up
    to the last token of the left side, is made once and joined over the
    run's tails, each the last token and the right side's text.  Family names and tokens are plain
    identifiers that JSON quotes as they are, a left side of no family is
    labelled null, and tokens come from the table that format_word uses.
    presentation_from_json compares a file with these same pieces, so the
    layout has one definition.
    """
    parts = [_json_header(p.table, p.coloring)]
    parts += _json_rules(p._runs, p.lhs_map)
    return "".join(parts)


def _json_header(table: CayleyTable, coloring: Coloring) -> str:
    # presentation_to_json's text up to the rules field: n, the table, the
    # coloring and the separator after them
    return (
        f'{{\n "n": {table.n},\n "table": {_indented_json(table.rows, 1)},\n'
        f' "coloring": {_indented_json(coloring.bits, 1)},\n'
    )


def _json_word(w: Word) -> str:
    # a word as an indented token list at the depth of a rule's fields
    if not w:
        return "[]"
    return '[\n    "' + '",\n    "'.join(map(_token, w)) + '"\n   ]'


# the key before a rule's right side
_RHS_KEY = '"rhs": '


def _json_rules(runs, lhs_map):
    # presentation_to_json's text after _json_header, in pieces: one per run
    # (runs cut lhs_map as Presentation._runs does) with the separator
    # before it, then the close.  A rule's text is its run's head text, the
    # token of its last letter and the text of its right side, which is
    # made once per distinct right side
    if not lhs_map:
        yield ' "rules": []\n}'
        return
    rhs_text = {rhs: f'"\n   ],\n   {_RHS_KEY}{_json_word(rhs)}\n  }}' for rhs in set(lhs_map.values())}
    rhss = map(rhs_text.__getitem__, lhs_map.values())
    sep = ' "rules": [\n'
    for family, head, lasts in runs:
        label = "null" if family is None else f'"{family}"'
        head_text = f'  {{\n   "family": {label},\n   "lhs": [\n    "' + "".join(
            f'{_token(a)}",\n    "' for a in head
        )
        tails = map(str.__add__, map(_token, lasts), islice(rhss, len(lasts)))
        yield sep + head_text + (",\n" + head_text).join(tails)
        sep = ",\n"
    yield "\n ]\n}"


def _int_array(value, shape: tuple, lo: int, hi: int, name: str) -> tuple:
    """Nested lists of exactly the given shape with integer entries in lo..hi, as tuples."""
    if not isinstance(value, list) or len(value) != shape[0]:
        dims = "x".join(map(str, shape))
        raise ValueError(f"invalid presentation file: {name} must be a {dims} array")
    if len(shape) > 1:
        return tuple(_int_array(v, shape[1:], lo, hi, name) for v in value)
    for v in value:
        if type(v) is not int or not lo <= v <= hi:
            raise ValueError(f"invalid presentation file: {name} entry {v!r} is not an integer in {lo}..{hi}")
    return tuple(value)


def _table_and_coloring(data) -> tuple:
    # the table and coloring of a decoded header, before
    # _check_table_and_coloring: an object with a rules field and, before it,
    # the fields n, table and coloring, n >= 1, the table n x n with entries
    # in 1..n and the coloring (n+1) x n x (n+1) with entries 0 or 1 (else
    # ValueError).  _decode_header decodes only the text before "rules", so a
    # field after it is missing from data
    if type(data) is not dict:
        raise ValueError("invalid presentation file: the top level must be an object")
    if "rules" not in data:
        raise ValueError("invalid presentation file: no field 'rules'")
    for key in ("n", "table", "coloring"):
        if key not in data:
            raise ValueError(f"invalid presentation file: no field {key!r} before \"rules\"")
    n = data["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"invalid presentation file: n must be a positive integer, got {n!r}")
    table = CayleyTable(n, _int_array(data["table"], (n, n), 1, n, "table"))
    coloring = Coloring(n, _int_array(data["coloring"], (n + 1, n, n + 1), 0, 1, "coloring"))
    return table, coloring


def presentation_from_json(text: str) -> Presentation:
    """Load a presentation file, which must be build's text for its own table and coloring.

    Only the header, the text before "rules", is decoded.  It is checked in
    this order, and the first failure raises: n >= 1, the table n x n with
    entries in 1..n and the coloring (n+1) x n x (n+1) with entries 0 or 1
    (ValueError); the table must be associative (NotAssociativeError) and
    the coloring must pass C1..C6 (ColoringConditionError), whatever the
    rules hold.  The rules are then generated as build generates them, and
    the rest of the file must be their text, byte for byte, followed by JSON
    whitespace alone.  The one thing a file may vary is the right side of
    each A rule: [] or one token of the alphabet, decoded through the token
    table that parse_word uses and loaded as stored, for check-complete and
    check-embed to test.  Any other difference raises ValueError with the
    line and column of the first byte that differs from build's text for
    the file's table, coloring and A right sides; a file cut short differs
    where it ends.  No rule record goes through the JSON decoder, and the
    rules share one tuple per letter.  The runs that the generation fills
    are compared and then kept with the value returned.
    """
    table, coloring = _table_and_coloring(_decode_header(text))
    _check_table_and_coloring(table, coloring)
    pos = _expect(text, 0, _json_header(table, coloring))
    lhs_map, runs = _rule_map(table, coloring)
    lhs_map.update(_stored_a_right_sides(text, pos, lhs_map, table.n))
    for part in _json_rules(runs, lhs_map):
        pos = _expect(text, pos, part)
    trailer = text[pos:]
    if trailer.strip(" \t\n\r"):
        raise _differs(text, len(text) - len(trailer.lstrip(" \t\n\r")), "JSON whitespace")
    return _with_runs(Presentation(table.n, table, coloring, lhs_map), runs)


def _decode_header(text: str):
    # the header, the text before "rules", decoded alone with a null rules
    # field to close it; a text with no "rules" is all header, and then has
    # no rules field
    end = text.find('"rules"')
    try:
        return json.loads(text[:end] + '"rules": null}' if end >= 0 else text)
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: arrays or objects nested too deeply to decode
        raise ValueError(f"invalid presentation JSON: {e}") from None


def _stored_a_right_sides(text: str, pos: int, lhs_map: dict, n: int) -> dict:
    # the A rules' right sides as the file from pos stores them.  build writes
    # the n*n A rules first, so the word after each of the next n*n '"rhs": '
    # keys is read, as the text that _json_word writes for [] or one letter;
    # a rule whose word reads as neither keeps its generated right side,
    # which the compare then finds differs
    words = {_json_word(w): w for w in (EMPTY_WORD, *((a,) for a in _letters(n).values()))}
    stored = {}
    for lhs in islice(lhs_map, n * n):
        pos = text.find(_RHS_KEY, pos)
        if pos < 0:
            break
        pos += len(_RHS_KEY)
        word = words.get(text[pos : text.find("]", pos) + 1])
        if word is not None:
            stored[lhs] = word
    return stored


def _expect(text: str, pos: int, part: str) -> int:
    # the end of part in text if text holds part at pos; else ValueError at
    # the first byte that differs, which the error path alone looks for
    if text.startswith(part, pos):
        return pos + len(part)
    got = text[pos : pos + len(part)]
    i = next((i for i, (a, b) in enumerate(zip(got, part)) if a != b), len(got))
    raise _differs(text, pos + i, repr(part[i : i + 12]))


def _differs(text: str, i: int, expected: str) -> ValueError:
    # the error for a file that differs from build's text at index i
    line = text.count("\n", 0, i) + 1
    column = i - text.rfind("\n", 0, i)
    found = repr(text[i : i + 12]) if i < len(text) else "the end of the file"
    return ValueError(f"invalid presentation file: line {line}, column {column}: expected {expected}, found {found}")
