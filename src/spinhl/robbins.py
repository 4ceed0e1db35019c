"""Monotone triangles, down-arrowed monotone triangles, and Robbins polynomials.

A monotone triangle is a Gelfand-Tsetlin pattern with strictly increasing
rows; those with bottom row 1..n are in bijection with n x n alternating sign
matrices.  The modified Robbins polynomial R*_k(x; u, v, w) is the generating
function of down-arrowed monotone triangles with bottom row k, and admits an
antisymmetrizer formula when k is strictly increasing.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .arith import PoleError, over_common_denominator, vandermonde
from .symfun import interlacing_sum, permutation_sum, rows_between


@dataclass(frozen=True)
class MonotoneTriangle:
    """Triangular array, rows[0] the single top entry through rows[n-1] the
    bottom row; rows strictly increase and consecutive rows interlace weakly."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        for r, row in enumerate(rows):
            if len(row) != r + 1:
                raise ValueError("row %d must have %d entries" % (r, r + 1))
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError("rows must strictly increase")
        for r in range(len(rows) - 1):
            for j, v in enumerate(rows[r]):
                if not (rows[r + 1][j] <= v <= rows[r + 1][j + 1]):
                    raise ValueError("diagonal monotonicity fails at row %d" % r)

    @classmethod
    def _trusted(cls, rows):
        """A triangle over ``rows``, a tuple of int tuples known to be valid
        (as ``monotone_triangles`` builds them), without re-validating."""
        M = object.__new__(cls)
        object.__setattr__(M, "rows", rows)
        return M

    @property
    def n(self):
        return len(self.rows)

    @property
    def bottom(self):
        return self.rows[-1]

    def leaning(self, r, j):
        """'L' if entry (r, j) equals its lower-left neighbour, 'R' for the
        lower-right one, 'S' when special (neither)."""
        v = self.rows[r][j]
        if v == self.rows[r + 1][j]:
            return "L"
        if v == self.rows[r + 1][j + 1]:
            return "R"
        return "S"


def _row_key(i, above, row):
    """(r, l, s, d) of row i (0-based, i + 1 entries) under the row ``above``:
    the counts of right-leaning, left-leaning and special entries of
    ``above``, and d the row-sum increment corrected by the leaning counts."""
    lcnt = sum(1 for a, b in zip(above, row) if a == b)
    rcnt = sum(1 for a, b in zip(above, row[1:]) if a == b)
    return rcnt, lcnt, i - lcnt - rcnt, sum(row) - sum(above) + rcnt - lcnt


def _row_factor(x, u, v, w, i, key):
    """u^r v^l (w + u x_i + v/x_i)^s x_i^d for the ``_row_key`` (r, l, s, d)
    of row i (0-based)."""
    rcnt, lcnt, scnt, d = key
    xi = x[i]
    if xi == 0 and (d < 0 or scnt):
        raise PoleError("x_%d (negative exponent)" % (i + 1))
    val = u**rcnt * v**lcnt * xi**d
    return val * (w + u * xi + v / xi) ** scnt if scnt else val


def mt_weight(M, x, u, v, w):
    """Polynomial weight of a monotone triangle: the product over its rows,
    top first, of ``_row_factor``."""
    x = tuple(Fraction(val) for val in x)
    u, v, w = Fraction(u), Fraction(v), Fraction(w)
    if len(x) != M.n:
        raise ValueError("need one variable per row")
    out = Fraction(1)
    above = ()
    for i, row in enumerate(M.rows):
        out *= _row_factor(x, u, v, w, i, _row_key(i, above, row))
        above = row
    return out


@dataclass(frozen=True)
class DAMT:
    """Down-arrowed monotone triangle: every non-bottom entry carries one of
    SW, DOWN, SE, with left-leaning entries forced to SW and right-leaning
    ones to SE."""

    triangle: MonotoneTriangle
    decorations: tuple  # sorted ((r, j), arrow) pairs

    def __post_init__(self):
        deco = dict(self.decorations)
        n = self.triangle.n
        for r in range(n - 1):
            for j in range(r + 1):
                arrow = deco.get((r, j))
                if arrow not in ("SW", "DOWN", "SE"):
                    raise ValueError("entry (%d, %d) needs a decoration" % (r, j))
                kind = self.triangle.leaning(r, j)
                if kind == "L" and arrow != "SW":
                    raise ValueError("left-leaning entry (%d, %d) must carry SW" % (r, j))
                if kind == "R" and arrow != "SE":
                    raise ValueError("right-leaning entry (%d, %d) must carry SE" % (r, j))
        if len(deco) != n * (n - 1) // 2:
            raise ValueError("decorations must cover exactly the non-bottom entries")
        object.__setattr__(self, "decorations", tuple(sorted(deco.items())))

    def arrow(self, r, j):
        return dict(self.decorations)[(r, j)]


def damt_weight(D, x, u, v, w):
    """Weight u^{#SE} v^{#SW} w^{#DOWN} times the x-monomial whose exponents
    are the row-sum increments corrected by the arrow counts of the row above."""
    x = tuple(Fraction(val) for val in x)
    u, v, w = Fraction(u), Fraction(v), Fraction(w)
    M = D.triangle
    n = M.n
    if len(x) != n:
        raise ValueError("need one variable per row")
    deco = dict(D.decorations)
    out = Fraction(1)
    prev_sum = 0
    for i in range(1, n + 1):
        if i == 1:
            se = sw = 0
        else:
            arrows = [deco[(i - 2, j)] for j in range(i - 1)]
            se = arrows.count("SE")
            sw = arrows.count("SW")
        d = sum(M.rows[i - 1]) - prev_sum + se - sw
        prev_sum = sum(M.rows[i - 1])
        if x[i - 1] == 0 and d < 0:
            raise PoleError("x_%d (negative exponent)" % i)
        out *= x[i - 1] ** d
    for (_, _), arrow in D.decorations:
        out *= {"SE": u, "SW": v, "DOWN": w}[arrow]
    return out


def _strict_bottom(bottom):
    bottom = tuple(int(v) for v in bottom)
    if any(bottom[j] >= bottom[j + 1] for j in range(len(bottom) - 1)):
        raise ValueError("bottom row must strictly increase")
    return bottom


def monotone_triangles(bottom):
    """All monotone triangles with the given strictly increasing bottom row.

    ``rows_between`` only yields rows that interlace the row below, so the
    triangles are built valid and skip ``MonotoneTriangle`` validation."""
    bottom = _strict_bottom(bottom)

    def build(row):
        if len(row) == 1:
            return [[row]]
        out = []
        for above in rows_between(row, strict=True):
            for stack in build(above):
                out.append(stack + [row])
        return out

    return [MonotoneTriangle._trusted(tuple(stack)) for stack in build(bottom)]


@lru_cache(maxsize=None)
def count_monotone_triangles(bottom):
    """Number of monotone triangles over the bottom row, by plain recursion.

    Independent of the weighted enumeration; bottom row 1..n counts the n x n
    alternating sign matrices."""
    bottom = tuple(bottom)
    if len(bottom) == 1:
        return 1
    return sum(count_monotone_triangles(above) for above in rows_between(bottom, strict=True))


def damts(bottom):
    """All down-arrowed monotone triangles over the bottom row."""
    out = []
    for M in monotone_triangles(bottom):
        out.extend(damts_of(M))
    return out


def damts_of(M):
    """All decoration choices of one monotone triangle."""
    slots = [(r, j) for r in range(M.n - 1) for j in range(r + 1)]
    choices = []
    for r, j in slots:
        kind = M.leaning(r, j)
        if kind == "L":
            choices.append(("SW",))
        elif kind == "R":
            choices.append(("SE",))
        else:
            choices.append(("SW", "DOWN", "SE"))
    out = []

    def rec(idx, acc):
        if idx == len(slots):
            out.append(DAMT(M, tuple(zip(slots, acc))))
            return
        for arrow in choices[idx]:
            acc.append(arrow)
            rec(idx + 1, acc)
            acc.pop()

    rec(0, [])
    return out


def robbins_star_enum(k, x, u, v, w):
    """Modified Robbins polynomial by enumeration: the generating function of
    down-arrowed monotone triangles with bottom row k.  Decorations factor per
    entry, so each triangle contributes its polynomial weight ``mt_weight``.

    That weight is the product over rows of ``_row_factor``, whose key
    depends only on the row and the row above it, so the sum is the
    ``interlacing_sum`` over strictly increasing rows."""
    k = _strict_bottom(k)
    x = tuple(Fraction(val) for val in x)
    u, v, w = Fraction(u), Fraction(v), Fraction(w)
    if len(x) != len(k):
        raise ValueError("need one variable per row")
    return interlacing_sum(k, True, _row_key, lambda i, key: _row_factor(x, u, v, w, i, key))


def _integer_tables(x, t, u, v, w, single):
    """The tables of ``permutation_sum`` for the pair factors
    t x_b + u x_a x_b + v + w x_a, a != b, and the rows of ``single``.  With
    x_a = p_a/r_a and D the product of the denominators of t, u, v and w,
    the pair entry is (T p_b r_a + U p_a p_b + V r_a r_b + W p_a r_b) over
    D r_a r_b, with T = tD, U = uD, V = vD and W = wD integers, so both
    orders of {a, b} share that denominator and no ``Fraction`` is formed;
    each row of ``single`` is cleared over its own.  An ordering uses one
    order of each pair and one entry of each row, so every term shares the
    product of those denominators."""
    n = len(x)
    D = t.denominator * u.denominator * v.denominator * w.denominator
    T, U, V, W = (c.numerator * (D // c.denominator) for c in (t, u, v, w))
    pnum = [[0] * n for _ in range(n)]
    den = 1
    for a, b in combinations(range(n), 2):
        pa, ra, pb, rb = x[a].numerator, x[a].denominator, x[b].numerator, x[b].denominator
        both = U * pa * pb + V * ra * rb
        pnum[a][b] = both + T * pb * ra + W * pa * rb
        pnum[b][a] = both + T * pa * rb + W * pb * ra
        den *= D * ra * rb
    snum = []
    for row in single:
        nums, d = over_common_denominator(row)
        snum.append(nums)
        den *= d
    return pnum, snum, den


def robbins_star_bialternant(k, x, u, v, w):
    """Modified Robbins polynomial by the antisymmetrizer formula; the x_i
    must be pairwise distinct.  The pair factors u x_a x_b + v + w x_a and the
    powers x_a^(k_i) are tabulated once (see ``permutation_sum``)."""
    k = tuple(int(val) for val in k)
    x = tuple(Fraction(val) for val in x)
    u, v, w = Fraction(u), Fraction(v), Fraction(w)
    n = len(k)
    if len(x) != n:
        raise ValueError("need one variable per bottom-row entry")
    if len(set(x)) != n:
        raise PoleError("x_i - x_j")
    if any(val == 0 for val in x) and any(val < 0 for val in k):
        raise PoleError("x_i (negative exponent)")
    tables = _integer_tables(x, Fraction(0), u, v, w, [[xa**e for e in k] for xa in x])
    num = permutation_sum(*tables, signed=True)
    return num / vandermonde(x)


def robbins_bialternant(k, x, t, u, v, w):
    """Ordinary Robbins polynomial: the diagonal i = j is included in the
    product, an extra parameter t appears, and exponents are shifted by -1.
    Defined for any integer sequence k (signs may appear when k is not
    strictly increasing).  The diagonal factor of x_a rides in the table of
    powers x_a^(k_i - 1), since every ordering uses it once."""
    k = tuple(int(val) for val in k)
    x = tuple(Fraction(val) for val in x)
    t, u, v, w = Fraction(t), Fraction(u), Fraction(v), Fraction(w)
    n = len(k)
    if len(x) != n:
        raise ValueError("need one variable per entry of k")
    if len(set(x)) != n:
        raise PoleError("x_i - x_j")
    if any(val == 0 for val in x) and any(val <= 0 for val in k):
        raise PoleError("x_i (negative exponent)")

    single = [[(t * xa + u * xa * xa + v + w * xa) * xa ** (e - 1) for e in k] for xa in x]
    return permutation_sum(*_integer_tables(x, t, u, v, w, single), signed=True) / vandermonde(x)
