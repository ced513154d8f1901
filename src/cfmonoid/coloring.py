"""The three-index {0,1} coloring that drives the x-s-y rewrite rules.

build_coloring realizes the cyclic-shift slice construction; coloring_entry is
the closed-form oracle for the same function.  check_conditions validates the
six combinatorial conditions (C1..C6) that make the quotient monoid
congruence-free, for arbitrary candidate colorings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .semigroup import _check_int_array, _check_n

CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6")


class ColoringParseError(ValueError):
    """Malformed coloring text; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Coloring:
    """Boolean function on (x-index, s-index, y-index) triples.

    x- and y-indices run over 1..n+1, the s-index over 1..n.  n is an int
    >= 1 and bits (n+1) x n x (n+1) nested lists or tuples of the ints 0 and
    1, stored as tuples; else ValueError: "n must be a positive integer, got
    0", "coloring must be a 3x2x3 array" or "coloring entry True is not an
    integer in 0..1".
    """

    n: int
    bits: tuple  # bits[i-1][j-1][k-1]

    def __post_init__(self):
        _check_int_array("coloring", self.n, self.bits, (1, 0, 1), 0, 1)
        object.__setattr__(self, "bits", tuple(tuple(map(tuple, plane)) for plane in self.bits))


def _shift(col):
    # (v_1, ..., v_m) -> (v_m, v_1, ..., v_{m-1})
    return (col[-1],) + col[:-1]


def build_coloring(n: int) -> Coloring:
    """Construct the coloring slice by slice.

    Slice j (orthogonal to the s-axis) is an (n+1) x (n+1) matrix with rows
    indexed by the x-index and columns by the y-index.  Its first column holds
    j ones followed by zeros; every later column is the cyclic shift of the
    previous one.  n is checked first, as Coloring checks it.
    """
    _check_n(n)
    size = n + 1
    slices = []  # slices[j-1][i-1][k-1]
    for j in range(1, n + 1):
        col = (1,) * j + (0,) * (size - j)
        cols = [col]
        for _ in range(size - 1):
            col = _shift(col)
            cols.append(col)
        slices.append(tuple(zip(*cols)))  # the columns transposed into rows
    # slices[j-1][i-1][k-1] transposed into bits[i-1][j-1][k-1]
    return Coloring(n, tuple(zip(*slices)))


def coloring_entry(n: int, i: int, j: int, k: int) -> int:
    """Closed form for the constructed coloring: 1 iff (i - k) mod (n+1) < j."""
    if not (1 <= i <= n + 1 and 1 <= j <= n and 1 <= k <= n + 1):
        raise IndexError(f"coloring index ({i}, {j}, {k}) out of range for n={n}")
    return 1 if (i - k) % (n + 1) < j else 0


def check_conditions(c: Coloring) -> dict:
    """Exhaustively check C1..C6.

    Returns {"C1": (passed, violation), ...} where violation is None or the
    lexicographically first violating index tuple:

      C1/C3: some (i, j) with no y-index colored 1 / 0,
      C2/C4: some (i, j) with no x-index colored 1 / 0,
      C5/C6: a 4-tuple (i, j, p, q) of two index pairs with equal fibers.

    The y-fiber of (i, j) is f(i, j, 1..n+1) and the x-fiber of (i, j) is
    f(1..n+1, i, j).  Both are taken from the bits without Python code per
    bit: the y-fibers are the bits' rows, and the x-fibers of s-index i are
    the columns of the planes' rows for i, transposed by zip.  C5/C6 are
    found by hashing: one pass maps each fiber to the first index pair that
    has it, and the first clash is the least (first, second) member pair
    over the classes of equal fibers.  With D = n(n+1) index pairs that is
    O(D) lookups, O(n^3) with building the fibers, instead of comparing all
    D^2 pairs.
    """
    n = c.n
    size = n + 1
    xy_domain = [(i, j) for i in range(1, size + 1) for j in range(1, n + 1)]
    sy_domain = [(i, j) for i in range(1, n + 1) for j in range(1, size + 1)]
    y_fibers = list(chain.from_iterable(c.bits))
    x_fibers = list(chain.from_iterable(zip(*rows) for rows in zip(*c.bits)))

    def first_missing(fibers, domain, want):
        for fiber, pair in zip(fibers, domain):
            if want not in fiber:
                return pair
        return None

    def first_clash(fibers, domain):
        first = {}
        clash = None
        for b, fiber in enumerate(fibers):
            a = first.setdefault(fiber, b)
            if a != b and (clash is None or a < clash[0]):
                clash = (a, b)
        return None if clash is None else domain[clash[0]] + domain[clash[1]]

    raw = {
        "C1": first_missing(y_fibers, xy_domain, 1),
        "C2": first_missing(x_fibers, sy_domain, 1),
        "C3": first_missing(y_fibers, xy_domain, 0),
        "C4": first_missing(x_fibers, sy_domain, 0),
        "C5": first_clash(y_fibers, xy_domain),
        "C6": first_clash(x_fibers, sy_domain),
    }
    return {name: (raw[name] is None, raw[name]) for name in CONDITION_NAMES}


def conditions_ok(report: dict) -> bool:
    return all(passed for passed, _ in report.values())


def format_coloring(c: Coloring) -> str:
    """Slice-per-block text: header "slice j", then n+1 rows of n+1 bits."""
    lines = []
    for j in range(1, c.n + 1):
        lines.append(f"slice {j}")
        for i in range(1, c.n + 2):
            lines.append(" ".join(str(b) for b in c.bits[i - 1][j - 1]))
    return "\n".join(lines) + "\n"


# a bit row's tokens -> bits; any other token is not a bit
_BITS = {"0": 0, "1": 1}


def parse_coloring(text: str) -> Coloring:
    """Parse the slice-per-block format; n is inferred from the slice count."""
    slices = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("slice"):
            parts = line.split()
            if len(parts) != 2 or parts[0] != "slice" or not (parts[1].isascii() and parts[1].isdigit()):
                raise ColoringParseError(f"bad slice header {line!r}", lineno)
            if int(parts[1]) != len(slices) + 1:
                raise ColoringParseError(
                    f"expected 'slice {len(slices) + 1}', got {line!r}", lineno
                )
            current = []
            slices.append(current)
            continue
        if current is None:
            raise ColoringParseError("bit row before any slice header", lineno)
        try:
            current.append(tuple(map(_BITS.__getitem__, line.split())))
        except KeyError:
            raise ColoringParseError(f"bits must be 0 or 1: {line!r}", lineno) from None
    if not slices:
        raise ColoringParseError("no slices found")
    n = len(slices)
    size = n + 1
    for j, block in enumerate(slices, start=1):
        if len(block) != size or any(len(row) != size for row in block):
            raise ColoringParseError(f"slice {j} must be {size}x{size} for n={n}")
    return Coloring(n, tuple(zip(*slices)))
