"""Small exact linear algebra over the rationals.

Vectors are tuples of Fraction, or of int where they are primitive
integer directions (`primitive`); ints and integral Fractions compare,
hash and print alike.  All routines are allocation-light and intended for
the low dimensions (n <= 4) this package works in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(*xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def as_vec(xs: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum(x * y for x, y in zip(a, b, strict=True))


def add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def zero(n: int) -> Vec:
    return (ZERO,) * n


def primitive(a: Sequence) -> tuple[int, ...]:
    """Coprime integers on the ray of a rational vector; zero stays zero.

    Entries other than int and Fraction are converted exactly by Fraction.
    """
    if not all(type(x) is int for x in a):
        a = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in a]
        den = lcm(*(x.denominator for x in a))
        a = [x.numerator * (den // x.denominator) for x in a]
    g = gcd(*a)
    return tuple(x // g for x in a) if g > 1 else tuple(a)


def rref(rows: list[Vec]) -> list[Vec]:
    """Reduced row echelon form; zero rows dropped, pivots scaled to 1."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    out: list[list[Fraction]] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        # find a row with nonzero entry in col, not yet used
        pivot = None
        for r in mat:
            if r[col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat.remove(pivot)
        inv = ONE / pivot[col]
        pivot = [inv * x for x in pivot]
        for r in mat:
            if r[col] != 0:
                c = r[col]
                for j in range(ncols):
                    r[j] -= c * pivot[j]
        for r in out:
            if r[col] != 0:
                c = r[col]
                for j in range(ncols):
                    r[j] -= c * pivot[j]
        out.append(pivot)
        pivot_cols.append(col)
    order = sorted(range(len(out)), key=lambda i: pivot_cols[i])
    return [tuple(out[i]) for i in order]


def rank(rows: Iterable[Vec]) -> int:
    return len(rref(list(rows)))


def reduce_mod(v: Vec, rref_basis: list[Vec]) -> Vec:
    """Subtract the projection of v onto the row space of an RREF basis.

    With the basis in RREF this eliminates the pivot coordinates of v,
    giving a canonical representative of v modulo the span.
    """
    w = list(v)
    for row in rref_basis:
        # pivot column = first nonzero (equals 1 in RREF)
        p = next(j for j, x in enumerate(row) if x != 0)
        c = w[p]
        if c != 0:
            for j in range(len(w)):
                w[j] -= c * row[j]
    return tuple(w)


def solve(rows: list[Vec], rhs: list[Fraction]) -> Vec | None:
    """Solve rows @ x = rhs exactly; None if inconsistent.

    Returns one solution (free variables set to 0).
    """
    if not rows:
        return ()
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    red = rref([tuple(r) for r in aug])
    x = [ZERO] * n
    for row in red:
        p = next(j for j, v in enumerate(row) if v != 0)
        if p == n:
            return None  # 0 = 1 row
        x[p] = row[n]
        # free vars are 0, so contributions from other columns vanish only
        # if we account for them; with frees at 0 the pivot value is exact.
        for j in range(p + 1, n):
            if row[j] != 0:
                x[p] -= row[j] * x[j] if x[j] != 0 else ZERO
    # verify (columns beyond pivots may interact)
    for r, b in zip(rows, rhs, strict=True):
        if dot(r, tuple(x)) != b:
            return None
    return tuple(x)

