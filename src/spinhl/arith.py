"""Exact rational scalars, q-Pochhammer symbols, exact interpolation in one
variable, and seeded generic-point sampling.

Every scalar in this library is an exact ``fractions.Fraction``.  The square
root of q is carried as an independent rational parameter t with q = t**2, so
no algebraic field extensions are ever needed: all formulas are polynomial in
the square root of q.
"""

import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

Rat = Fraction


class PoleError(ZeroDivisionError):
    """Raised when a denominator that must stay nonzero vanishes."""

    def __init__(self, what):
        super().__init__("vanishing denominator: %s" % what)
        self.what = what


def invert(val, what):
    """1 / val for a rational or a series, with a vanishing ``val`` (or a
    series without constant term) reported as ``PoleError(what)``."""
    try:
        return 1 / val
    except ZeroDivisionError:
        raise PoleError(what) from None


def rat(value):
    """Coerce an int, Fraction, or 'p/q' string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError("zero denominator in rational %r" % value) from None
    raise TypeError("cannot interpret %r as a rational" % (value,))


def rat_str(x):
    """Render a rational as 'p/q' with the denominator always present."""
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def qpoch(a, q, n):
    """q-Pochhammer symbol (a;q)_n = prod of (1 - a*q^i) over 0 <= i < n.

    The empty product (n = 0) is 1.
    """
    nums, den = qpoch_row(a, q, n)
    return Fraction(nums[n], den)


def qpoch_row(a, q, n):
    """[(a;q)_0, ..., (a;q)_n] as integer numerators over one denominator:
    with a = c/d and q = e/f, (a;q)_m is prod_{i<m} (d f^i - c e^i) over
    prod_{i<m} d f^i, so over prod_{i<n} d f^i its numerator is that
    product times prod_{m<=i<n} d f^i."""
    if n < 0:
        raise ValueError("negative length in q-Pochhammer symbol")
    c, d, e, f = a.numerator, a.denominator, q.numerator, q.denominator
    tops, bottoms = [], []
    ei = fi = 1
    for _ in range(n):
        tops.append(d * fi - c * ei)
        bottoms.append(d * fi)
        ei *= e
        fi *= f
    nums = [prod(bottoms)]
    for m in range(n):
        nums.append(nums[-1] // bottoms[m] * tops[m])
    return nums, nums[0]


def qpoch_product_row(a, b, q, n):
    """[(a;q)_m (b;q)_m for m = 0..n] as integer numerators over one
    denominator, the product of two ``qpoch_row``s."""
    (x, x_den), (y, y_den) = qpoch_row(a, q, n), qpoch_row(b, q, n)
    return [i * j for i, j in zip(x, y)], x_den * y_den


class PochFamily:
    """A family of Pochhammer factors: ``pochs(spin, r, n)`` gives the
    factors of a part r at m = 0..n as integer numerators over one
    denominator, by running products (``qpoch_row``), and calling the family
    with (spin, r, m) gives the factor at m as a ``Fraction``.  A family
    reads r only through s_r and whether r is 0, so every part r >= max(p, 1)
    has the factors of the spin tail.

    ``key`` names a family by value, its kind and parameters without the
    spins: families with equal keys are equal and hash alike, so a cache of
    the partition sums keyed by the family serves them all.  A family
    without a key is equal only to itself."""

    def __init__(self, pochs, key=None):
        self.pochs = pochs
        self.key = key

    def __call__(self, spin, r, m):
        nums, den = self.pochs(spin, r, m)
        return Fraction(nums[m], den)

    def __eq__(self, other):
        if self.key is None or not isinstance(other, PochFamily):
            return self is other
        return self.key == other.key

    def __hash__(self):
        return object.__hash__(self) if self.key is None else hash(self.key)


def perm_sign(word):
    """Sign of a sequence of distinct comparable items: (-1) to the number of
    inversions."""
    inv = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inv % 2 else 1


def _interpolate(values):
    """Coefficients (ascending) of the unique polynomial through (x_i, y_i)."""
    nodes = [x for x, _ in values]
    n = len(values)
    # Newton divided differences
    coef = [y for _, y in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    # expand Newton form to monomial coefficients
    poly = [Fraction(0)] * n
    for j in range(n - 1, -1, -1):
        # poly = poly * (x - nodes[j]) + coef[j]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [shifted[k] - nodes[j] * poly[k] for k in range(n)]
        poly[0] += coef[j]
    return poly


def _poly_eval(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def polynomial_expansion_equal(sides, degree_bound, nodes):
    """Interpolate both sides of ``sides(x) -> (lhs, rhs)`` through the first
    degree_bound + 1 nodes, confirm the interpolants also match the sides at
    the remaining nodes (certifying the degree bound), and compare
    coefficient lists.  Each node evaluates ``sides`` once."""
    values = [(x, sides(x)) for x in nodes]
    base = values[: degree_bound + 1]
    lhs_poly = _interpolate([(x, lhs) for x, (lhs, _) in base])
    rhs_poly = _interpolate([(x, rhs) for x, (_, rhs) in base])
    for x, (lhs, rhs) in values[degree_bound + 1 :]:
        if _poly_eval(lhs_poly, x) != lhs or _poly_eval(rhs_poly, x) != rhs:
            return False
    return lhs_poly == rhs_poly


def over_common_denominator(values):
    """Integer numerators of the given rationals over their least common
    denominator, and that denominator."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def vandermonde(x):
    """prod_{i<j} (x_j - x_i)."""
    return prod((x[j] - x[i] for i in range(len(x)) for j in range(i + 1, len(x))), start=Fraction(1))


@dataclass(frozen=True)
class SpinParams:
    """Spin parameters: a finite prefix s_0 .. s_{p-1} followed by a constant tail.

    ``lookup(j)`` returns s_j, which equals the tail value for every j >= p.
    Shifting drops leading prefix entries; the tail is a single scalar and is
    never materialized.
    """

    prefix: tuple
    tail: Fraction

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(Fraction(v) for v in self.prefix))
        object.__setattr__(self, "tail", Fraction(self.tail))

    @property
    def p(self):
        return len(self.prefix)

    def lookup(self, j):
        if j < 0:
            raise IndexError("spin index must be non-negative")
        return self.prefix[j] if j < len(self.prefix) else self.tail

    def shift(self, m):
        """Spin sequence starting at s_m, i.e. j -> s_{j+m}."""
        return SpinParams(self.prefix[m:], self.tail)

    @classmethod
    def constant(cls, s):
        return cls((), Fraction(s))


@dataclass(frozen=True)
class ParamPoint:
    """A generic evaluation point: t = q^(1/2), gamma, spin sequence, and spectral values u_i."""

    t: Fraction
    gamma: Fraction
    spin: SpinParams
    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "u", tuple(Fraction(v) for v in self.u))
        if len(set(self.u)) != len(self.u):
            raise ValueError("spectral parameters u_i must be pairwise distinct")

    @property
    def q(self):
        return self.t * self.t

    @property
    def n(self):
        return len(self.u)

    def s(self, j):
        return self.spin.lookup(j)

    def with_u(self, u):
        return ParamPoint(self.t, self.gamma, self.spin, tuple(u))

    def with_spin(self, spin):
        return ParamPoint(self.t, self.gamma, spin, self.u)

    def restrict(self, indices):
        """Point on the sub-family u_i, i in ``indices`` (0-based, kept in order)."""
        return self.with_u(tuple(self.u[i] for i in indices))


class Quotient(namedtuple("Quotient", "numerator denominator")):
    """numerator / denominator, read as a ``Fraction`` is read: series u as
    integer polynomials in x (``series.u_coordinates``)."""

    __slots__ = ()


def one_minus(x, y, t=1):
    """b d f^2 - a c e^2 for x = a/b, y = c/d and t = e/f, the numerator of
    1 - t^2 x y over b d f^2: an integer on rationals, so that a pole list of
    ``sample_point`` tests a candidate with no ``Fraction`` formed, and an
    integer series on ``Quotient``s of series."""
    return x.denominator * y.denominator * t.denominator**2 - x.numerator * y.numerator * t.numerator**2


def minus(x, y):
    """a d - b c for x = a/b and y = c/d, the numerator of x - y over b d,
    read as ``one_minus`` reads its arguments."""
    return x.numerator * y.denominator - y.numerator * x.denominator


def part_factors(u, spin, top, single=None):
    """The smallest-part factors of the recurrences and reduction chains at
    l = 0..top over a list u of rationals or series alike, as two lists:
    ``ratios[l]`` = prod_i (u_i - s_l)/(1 - s_l u_i), and ``outers[l]`` =
    prod_i outer_l(u_i), the single-row factor
    outer_l(u) = 1/(1 - s_l u) prod_{j<l} (u - s_j)/(1 - s_j u) = F_(l)(u)/(1 - q),
    which is the product of the ratios below l over prod_i (1 - s_l u_i).
    Each 1 - s_l u_i is inverted once, one factor at a time (inverting a
    dense product of series is slow), l ascending; a vanishing one raises
    ``PoleError("1 - s_l*u")``.  Given ``single``, the entries of u are
    whatever it reads, and ``single(u_i, l, s_l)`` gives the two factors
    1/(1 - s_l u_i) and (u_i - s_l)/(1 - s_l u_i) in place of the inverse
    (``series.u_part_factors``)."""
    ratios, outers = [], []
    below = Fraction(1)
    for l in range(top + 1):
        sl = spin.lookup(l)
        ratio = outer = Fraction(1)
        for ui in u:
            if single is None:
                inv = invert(1 - sl * ui, "1 - s_%d*u" % l)
                ratio = ratio * (ui - sl) * inv
            else:
                inv, factor = single(ui, l, sl)
                ratio = ratio * factor
            outer = outer * inv
        ratios.append(ratio)
        outers.append(below * outer)
        below = below * ratio
    return ratios, outers


def linear_quotient(A, B, C, D, d):
    """The integer x^0..x^d coefficients of (A + B x)/(C + D x) times
    C^(d+1), for integers A, B, C != 0, D.  As 1/(C + D x) is
    sum_k (-D)^k x^k / C^(k+1), the x^i coefficient is A (-D)^i / C^(i+1)
    + B (-D)^(i-1) / C^i = (B C - A D)(-D)^(i-1) / C^(i+1) for i >= 1; times
    C^(d+1): A C^d, then (B C - A D)(-D)^(i-1) C^(d-i)."""
    out = [A * C**d]
    step = B * C - A * D
    for i in range(1, d + 1):
        out.append(step * (-D) ** (i - 1) * C ** (d - i))
    return out


def truncated_product(a, b):
    """The product of two integer coefficient lists of one length (x^0
    first), truncated at that length."""
    top = len(a)
    if top == 1:
        return [a[0] * b[0]]
    out = [0] * top
    for i, x in enumerate(a):
        if x:
            for j in range(top - i):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


def _draw_rational(rng):
    # numerators and denominators in [2, 50]; reject values reducing to 1
    while True:
        val = Fraction(rng.randint(2, 50), rng.randint(2, 50))
        if val != 1:
            return val


SAMPLE_TRIES = 200


def sample_point(seed, n, p=0, pole_list=()):
    """Deterministically sample a generic ParamPoint with n spectral values.

    ``pole_list`` is an iterable of callables mapping a candidate point to a
    denominator value; candidates at which any of them vanishes are rejected.
    The u_i are always pairwise distinct.  Raises RuntimeError after
    ``SAMPLE_TRIES`` rejected candidates, which signals a pathological pole
    list.
    """
    pole_list = tuple(pole_list)
    for attempt in range(SAMPLE_TRIES):
        rng = random.Random(seed * 1000003 + attempt)
        t = _draw_rational(rng)
        gamma = _draw_rational(rng)
        tail = _draw_rational(rng)
        prefix = tuple(_draw_rational(rng) for _ in range(p))
        u = []
        while len(u) < n:
            cand = _draw_rational(rng)
            if cand not in u:
                u.append(cand)
        point = ParamPoint(t, gamma, SpinParams(prefix, tail), tuple(u))
        if all(fn(point) != 0 for fn in pole_list):
            return point
    raise RuntimeError(
        "sample_point: no generic point found after %d tries (seed=%r)" % (SAMPLE_TRIES, seed)
    )
