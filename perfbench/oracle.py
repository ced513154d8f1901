"""Reference answers computed without the code under test.

Words use the package's letter encoding, a (role, index) tuple with the zero
letter ("z", 0), because that is the form its public API takes. Nothing here
calls into cfmonoid except `coloring_entry`, passed in by the caller: it is the
package's closed form for the coloring and shares no code with
`build_coloring` or the rewriting engine.
"""

from __future__ import annotations

import functools
import hashlib
import json

ZERO = ("z", 0)


@functools.cache
def alphabet(n):
    """Non-zero letters in the package's canonical order: s_1..s_n, x_1..x_{n+1}, y_1..y_{n+1}."""
    return (
        tuple(("s", i) for i in range(1, n + 1))
        + tuple(("x", i) for i in range(1, n + 2))
        + tuple(("y", i) for i in range(1, n + 2))
    )


def token(letter):
    role, idx = letter
    return "0" if role == "z" else f"{role}{idx}"


def word_text(w):
    return " ".join(token(a) for a in w) if w else "1"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# --- Cayley tables (1-based rows of 1-based entries) ---------------------------


def cyclic(n):
    return tuple(tuple((i + j) % n + 1 for j in range(n)) for i in range(n))


def product(a, b):
    """Direct product; the pair (i, j) gets index (i-1)*|b| + j."""
    nb = len(b)

    def idx(i, j):
        return (i - 1) * nb + j

    rows = [[0] * (len(a) * nb) for _ in range(len(a) * nb)]
    for i1 in range(1, len(a) + 1):
        for j1 in range(1, nb + 1):
            for i2 in range(1, len(a) + 1):
                for j2 in range(1, nb + 1):
                    rows[idx(i1, j1) - 1][idx(i2, j2) - 1] = idx(a[i1 - 1][i2 - 1], b[j1 - 1][j2 - 1])
    return tuple(tuple(r) for r in rows)


def relabel(rows, rng):
    """An isomorphic copy under a random permutation of the element names."""
    n = len(rows)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    new = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            new[perm[i - 1] - 1][perm[j - 1] - 1] = perm[rows[i - 1][j - 1] - 1]
    return tuple(tuple(r) for r in new)


def associative(rows):
    n = len(rows)
    return all(
        rows[rows[i][j] - 1][k] == rows[i][rows[j][k] - 1]
        for i in range(n) for j in range(n) for k in range(n)
    )


def cayley_text(rows):
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def coloring_text(n, entry):
    """The slice-per-block coloring file format, filled from the closed form."""
    lines = []
    for j in range(1, n + 1):
        lines.append(f"slice {j}")
        for i in range(1, n + 2):
            lines.append(" ".join(str(entry(n, i, j, k)) for k in range(1, n + 2)))
    return "\n".join(lines) + "\n"


# --- Closed-form counts --------------------------------------------------------


def rule_counts(n):
    a, b = n, n + 1
    return {"A": a * a, "B": a * b * b, "C": b * b, "Z_left": a + 2 * b, "Z_right": a + 2 * b + 1}


def pair_counts(n):
    """Critical pairs by family pair.

    Every left side is s s, x s y, x y, z c or c z, and only one-letter
    overlaps exist, so a pair (F1, F2) is a letter that ends an F1 left side
    and starts an F2 left side.
    """
    a, b = n, n + 1
    letters = a + 2 * b
    return {
        "A-A": a ** 3,
        "A-Z_right": a * a,
        "B-Z_right": a * b * b,
        "C-Z_right": b * b,
        "Z_left-A": a * a,
        "Z_left-B": a * b * b,
        "Z_left-C": b * b,
        "Z_left-Z_right": letters,
        "Z_right-Z_left": (letters + 1) * letters,
        "Z_right-Z_right": letters + 1,
    }


# --- Words ---------------------------------------------------------------------


def _extends(prev2, prev1, role):
    # normal forms are the z-free words avoiding the factors ss, xy and xsy
    if prev1 == "s" and role == "s":
        return False
    if prev1 == "x" and role == "y":
        return False
    return not (prev2 == "x" and prev1 == "s" and role == "y")


@functools.cache
def _by_role(n):
    return {r: [a for a in alphabet(n) if a[0] == r] for r in "sxy"}


def random_normal_form(rng, n, length):
    by_role = _by_role(n)
    w = []
    prev2 = prev1 = None
    for _ in range(length):
        role = rng.choice([r for r in "sxy" if _extends(prev2, prev1, r)])
        w.append(rng.choice(by_role[role]))
        prev2, prev1 = prev1, role
    return tuple(w)


def enumerate_digest(n, maxlen):
    """sha256 of the expected `enumerate` output: normal forms up to maxlen, length-lexicographic.

    The longest words are hashed as they are made rather than kept.
    """
    letters = [(token(a), a[0]) for a in alphabet(n)]
    h = hashlib.sha256(b"1\n")
    layer = [("", None, None)]
    for length in range(1, maxlen + 1):
        nxt = []
        for text, r2, r1 in layer:
            for tok, role in letters:
                if _extends(r2, r1, role):
                    word = f"{text} {tok}" if text else tok
                    h.update(f"{word}\n".encode())
                    if length < maxlen:
                        nxt.append((word, r1, role))
        layer = nxt
    return h.hexdigest()


def irreducible(w):
    """True iff no rule left side (ss, xsy, xy, z a, a z) occurs in w."""
    roles = [a[0] for a in w]
    if "z" in roles:
        return roles == ["z"]
    for t in range(len(roles) - 1):
        pair = roles[t] + roles[t + 1]
        if pair in ("ss", "xy") or (pair == "xs" and t + 2 < len(roles) and roles[t + 2] == "y"):
            return False
    return True


def fold(w, rows):
    """Normal form of an s-word: its product in the table."""
    acc = w[0][1]
    for _, j in w[1:]:
        acc = rows[acc - 1][j - 1]
    return (("s", acc),)


def reduce(w, rows, entry):
    """Normal form by a stack reducer of its own.

    The system is complete, so any reduction order gives the same normal form.
    """
    n = len(rows)
    out = []
    for c in w:
        out.append(c)
        while True:
            if len(out) >= 2:
                (r1, i1), (r2, i2) = out[-2], out[-1]
                rhs = None
                if r1 == "z" or r2 == "z" or (r1 == "x" and r2 == "y"):
                    rhs = ZERO
                elif r1 == "s" and r2 == "s":
                    rhs = ("s", rows[i1 - 1][i2 - 1])
                if rhs is not None:
                    del out[-2:]
                    out.append(rhs)
                    continue
            if len(out) >= 3 and out[-3][0] == "x" and out[-2][0] == "s" and out[-1][0] == "y":
                f = entry(n, out[-3][1], out[-2][1], out[-1][1])
                del out[-3:]
                if not f:
                    out.append(ZERO)
                    continue
            break
    return tuple(out)


# --- Presentation files ----------------------------------------------------------


def expected_rules(rows, entry):
    """The paper's rule set as (family, lhs tokens, rhs tokens) triples."""
    n = len(rows)
    s = [f"s{i}" for i in range(1, n + 1)]
    x = [f"x{i}" for i in range(1, n + 2)]
    y = [f"y{i}" for i in range(1, n + 2)]
    rules = {("A", (s[i], s[j]), (f"s{rows[i][j]}",)) for i in range(n) for j in range(n)}
    rules |= {
        ("B", (x[i], s[j], y[k]), () if entry(n, i + 1, j + 1, k + 1) else ("0",))
        for i in range(n + 1) for j in range(n) for k in range(n + 1)
    }
    rules |= {("C", (xi, yj), ("0",)) for xi in x for yj in y}
    rules |= {("Z_left", ("0", a), ("0",)) for a in s + x + y}
    rules |= {("Z_right", (a, "0"), ("0",)) for a in s + x + y + ["0"]}
    return rules


def check_presentation(text, rows, entry):
    """None if the JSON text is the paper's presentation for rows, else a reason."""
    try:
        data = json.loads(text)
        n = data["n"]
        table = tuple(tuple(r) for r in data["table"])
        bits = data["coloring"]
        got = [(r["family"], tuple(r["lhs"]), tuple(r["rhs"])) for r in data["rules"]]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable presentation: {e!r}"
    if n != len(rows) or table != rows:
        return "table differs from the input"
    for i in range(1, n + 2):
        for j in range(1, n + 1):
            if list(bits[i - 1][j - 1]) != [entry(n, i, j, k) for k in range(1, n + 2)]:
                return f"coloring differs from the closed form at ({i}, {j})"
    if len(got) != len(set(got)) or set(got) != expected_rules(rows, entry):
        return "rule set differs from the construction"
    return None
