"""Finite semigroups given by Cayley tables: parsing, validation, builtins."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter


class CayleyParseError(ValueError):
    """Malformed Cayley table text; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a finite semigroup, 1-based throughout."""

    n: int
    rows: tuple  # n tuples of n entries, each in 1..n

    def mul(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]


def parse_cayley(text: str) -> CayleyTable:
    """Parse the Cayley file format.

    Lines starting with '#' and blank lines are ignored.  The first payload
    line holds the order n, followed by exactly n rows of n integers in 1..n,
    each written in ASCII digits only (no sign, underscore or other digit
    script).  Entries are range-checked here; associativity is deliberately
    not checked, so bad tables can be fed to is_associative.
    """
    n = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not (line.isascii() and line.isdigit()):
                raise CayleyParseError(f"malformed order {line!r}", lineno)
            n = int(line)
            if n < 1:
                raise CayleyParseError(f"order must be positive, got {n}", lineno)
            continue
        if len(rows) == n:
            raise CayleyParseError(f"expected {n} rows, found extra data", lineno)
        entries = []
        for col, part in enumerate(line.split(), start=1):
            if not (part.isascii() and part.isdigit()):
                raise CayleyParseError(
                    f"malformed integer {part!r} at row {len(rows) + 1}, column {col}",
                    lineno,
                )
            v = int(part)
            if not 1 <= v <= n:
                raise CayleyParseError(
                    f"entry {v} out of range at row {len(rows) + 1}", lineno
                )
            entries.append(v)
        if len(entries) != n:
            raise CayleyParseError(
                f"row {len(rows) + 1} has {len(entries)} entries, expected {n}", lineno
            )
        rows.append(tuple(entries))
    if n is None:
        raise CayleyParseError("empty input: missing order line")
    if len(rows) != n:
        raise CayleyParseError(f"expected {n} rows, found {len(rows)}")
    return CayleyTable(n, tuple(rows))


def format_cayley(t: CayleyTable) -> str:
    """Render a table in the Cayley file format; inverse of parse_cayley."""
    lines = [str(t.n)]
    lines.extend(" ".join(str(v) for v in row) for row in t.rows)
    return "\n".join(lines) + "\n"


def is_associative(t: CayleyTable):
    """Exhaustive check over all n^3 triples.

    Returns (True, None), or (False, (i, j, k)) with the lexicographically
    first triple where (s_i s_j) s_k differs from s_i (s_j s_k).  For each
    (i, j) the whole row k = 1..n of both products is compared at once, and
    k is searched for only in a row that differs.
    """
    if t.n == 1:
        # the one table of order 1 is associative; the getters below would
        # give a bare entry there, not a row
        return True, None
    rows = t.rows
    # by_row[j - 1] maps s_i's row, padded to index from 1, to s_i (s_j s_k)
    # for k = 1..n
    by_row = [itemgetter(*row) for row in rows]
    for i, row_i in enumerate(rows, 1):
        padded = (None, *row_i)
        for j, ij in enumerate(row_i, 1):
            row_ij, right = tuple(rows[ij - 1]), by_row[j - 1](padded)
            if right != row_ij:
                k = next(k for k, (a, b) in enumerate(zip(row_ij, right), 1) if a != b)
                return False, (i, j, k)
    return True, None


# t2: all maps {1,2} -> {1,2} listed as identity, swap, constant 1, constant 2;
# the product acts left to right, (m m')(x) = m'(m(x)).
_T2_ROWS = ((1, 2, 3, 4), (2, 1, 3, 4), (3, 4, 3, 4), (4, 3, 3, 4))

_BUILTIN_ROWS = {
    "trivial": ((1,),),
    "z2": ((1, 2), (2, 1)),
    "z3": tuple(tuple((i + j - 2) % 3 + 1 for j in (1, 2, 3)) for i in (1, 2, 3)),
    "leftzero2": ((1, 1), (2, 2)),
    "rightzero2": ((1, 2), (1, 2)),
    "semilattice2": ((1, 1), (1, 2)),  # meet on the chain 1 < 2
    "t2": _T2_ROWS,
}
BUILTIN_NAMES = tuple(_BUILTIN_ROWS)


def builtin(name: str) -> CayleyTable:
    """Return a named small test semigroup; see BUILTIN_NAMES."""
    try:
        rows = _BUILTIN_ROWS[name]
    except KeyError:
        raise ValueError(f"unknown builtin semigroup {name!r}") from None
    return CayleyTable(len(rows), rows)
