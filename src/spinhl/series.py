"""Truncated multivariate power series over exact rationals, the substitution
u_i = (s + x_i)/(1 + s x_i), and F_lambda as a truncated series.

Inside the symmetrizer the pairwise differences u_i - u_j vanish at x = 0, so
permutation terms are not individually power series.  Each difference factors
as (x_i - x_j) times a unit, so the implementation antisymmetrizes the
pole-free part, divides the resulting series exactly by the polynomial
prod_{i<j} (x_i - x_j), and multiplies back the inverted unit cofactor.
"""

from fractions import Fraction
from itertools import permutations

from .arith import PoleError
from .symfun import as_parts


class TruncSeries:
    """Power series in nvars variables truncated beyond total degree ``cap``.

    Coefficients are exact rationals keyed by exponent tuples; absent keys are
    zero.  Ring operations truncate consistently, so coefficients up to the
    cap only ever depend on inputs up to the cap.
    """

    __slots__ = ("nvars", "cap", "coeffs")

    def __init__(self, nvars, cap, coeffs=None):
        self.nvars = nvars
        self.cap = cap
        self.coeffs = {}
        if coeffs:
            for exps, c in coeffs.items():
                c = Fraction(c)
                if c and sum(exps) <= cap:
                    self.coeffs[tuple(exps)] = c

    @classmethod
    def const(cls, nvars, cap, value):
        return cls(nvars, cap, {(0,) * nvars: Fraction(value)})

    @classmethod
    def zero(cls, nvars, cap):
        return cls(nvars, cap)

    @classmethod
    def variable(cls, nvars, cap, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, cap, {tuple(exps): Fraction(1)})

    def copy(self):
        out = TruncSeries(self.nvars, self.cap)
        out.coeffs = dict(self.coeffs)
        return out

    def truncate(self, cap):
        if cap > self.cap:
            raise ValueError("cannot extend a truncated series")
        out = TruncSeries(self.nvars, cap)
        out.coeffs = {e: c for e, c in self.coeffs.items() if sum(e) <= cap}
        return out

    def coefficient(self, exps):
        return self.coeffs.get(tuple(exps), Fraction(0))

    @property
    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, Fraction(0))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def order(self):
        """Smallest total degree with a nonzero coefficient (None if zero)."""
        return min((sum(e) for e in self.coeffs), default=None)

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.nvars != self.nvars or other.cap != self.cap:
                raise ValueError("series shape mismatch")
            return other
        return TruncSeries.const(self.nvars, self.cap, other)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return (
                self.nvars == other.nvars
                and self.cap == other.cap
                and self.coeffs == other.coeffs
            )
        if isinstance(other, (int, Fraction)):
            return self == TruncSeries.const(self.nvars, self.cap, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.cap, tuple(sorted(self.coeffs.items()))))

    def __neg__(self):
        out = TruncSeries(self.nvars, self.cap)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            val = out.get(e, Fraction(0)) + c
            if val:
                out[e] = val
            else:
                out.pop(e, None)
        res = TruncSeries(self.nvars, self.cap)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            c = Fraction(other)
            out = TruncSeries(self.nvars, self.cap)
            if c:
                out.coeffs = {e: v * c for e, v in self.coeffs.items()}
            return out
        other = self._coerce(other)
        cap = self.cap
        out = {}
        items = [(e, sum(e), c) for e, c in other.coeffs.items()]
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, d2, c2 in items:
                if d1 + d2 > cap:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                val = out.get(key, Fraction(0)) + c1 * c2
                if val:
                    out[key] = val
                else:
                    del out[key]
        res = TruncSeries(self.nvars, self.cap)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.constant_term
        if c0 == 0:
            raise ZeroDivisionError("series has no invertible constant term")
        h = TruncSeries(self.nvars, self.cap)
        h.coeffs = {e: -c / c0 for e, c in self.coeffs.items() if sum(e) > 0}
        acc = TruncSeries.const(self.nvars, self.cap, 1)
        for _ in range(self.cap):
            acc = 1 + h * acc
        return acc * (1 / c0)

    def _reciprocal(self):
        if self.constant_term == 0:
            raise PoleError("series with zero constant term")
        return self.inv()

    def __truediv__(self, other):
        return self * self._coerce(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def evaluate(self, xs):
        """Exact value of the truncating polynomial at a rational point."""
        xs = tuple(Fraction(v) for v in xs)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(xs, e):
                term *= x**k
            total += term
        return total

    def items_sorted(self):
        """(exponents, coefficient) pairs in graded lexicographic order."""
        return sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    def __str__(self):
        lines = [
            "%s: %d/%d" % (",".join(map(str, e)), c.numerator, c.denominator)
            for e, c in self.items_sorted()
        ]
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return "TruncSeries(nvars=%d, cap=%d, terms=%d)" % (
            self.nvars,
            self.cap,
            len(self.coeffs),
        )

    def to_json(self):
        return [
            {"exponents": list(e), "coefficient": "%d/%d" % (c.numerator, c.denominator)}
            for e, c in self.items_sorted()
        ]


def series_diff(a, b):
    """First differing coefficient of two same-shape series in graded-lex
    order, or None when equal."""
    keys = set(a.coeffs) | set(b.coeffs)
    for e in sorted(keys, key=lambda e: (sum(e), e)):
        ca, cb = a.coefficient(e), b.coefficient(e)
        if ca != cb:
            return e, ca, cb
    return None


def u_substitution(i, s, cap, nvars):
    """Series of (s + x_i)/(1 + s x_i): the spectral value as a power series."""
    s = Fraction(s)
    coeffs = {(0,) * nvars: s}
    unit = 1 - s * s
    power = Fraction(1)
    for k in range(1, cap + 1):
        exps = [0] * nvars
        exps[i] = k
        coeffs[tuple(exps)] = unit * power
        power *= -s
    return TruncSeries(nvars, cap, coeffs)


def vandermonde_exponents(var_indices, nvars):
    """prod_{a<b} (x_{i_a} - x_{i_b}) as an exponent dict (homogeneous)."""
    poly = {(0,) * nvars: Fraction(1)}
    for a in range(len(var_indices)):
        for b in range(a + 1, len(var_indices)):
            new = {}
            for e, c in poly.items():
                for var, sign in ((var_indices[a], 1), (var_indices[b], -1)):
                    key = list(e)
                    key[var] += 1
                    key = tuple(key)
                    val = new.get(key, Fraction(0)) + sign * c
                    if val:
                        new[key] = val
                    else:
                        new.pop(key, None)
            poly = new
    return poly


def _divide_homogeneous(num, div):
    """Exact division of homogeneous polynomials in exponent-dict form, by
    repeated lex-leading-term elimination."""
    if not num:
        return {}
    lead = max(div)
    lead_c = div[lead]
    quo = {}
    cur = dict(num)
    while cur:
        e = max(cur)
        diff = tuple(a - b for a, b in zip(e, lead))
        if any(d < 0 for d in diff):
            raise ArithmeticError("series is not divisible by the Vandermonde polynomial")
        c = cur[e] / lead_c
        quo[diff] = quo.get(diff, Fraction(0)) + c
        for de, dc in div.items():
            key = tuple(a + b for a, b in zip(de, diff))
            val = cur.get(key, Fraction(0)) - c * dc
            if val:
                cur[key] = val
            else:
                cur.pop(key, None)
    return quo


def divide_by_vandermonde(f, var_indices):
    """Exact quotient of a series by prod_{a<b} (x_{i_a} - x_{i_b}).

    The numerator must be antisymmetric under permuting the listed variables;
    divisibility is checked degree by degree.  The quotient's cap drops by the
    degree of the Vandermonde polynomial."""
    m = len(var_indices)
    d = m * (m - 1) // 2
    if d == 0:
        return f.copy()
    div = vandermonde_exponents(var_indices, f.nvars)
    by_degree = {}
    for e, c in f.coeffs.items():
        by_degree.setdefault(sum(e), {})[e] = c
    if any(deg < d for deg in by_degree):
        raise ArithmeticError("series is not divisible by the Vandermonde polynomial")
    out = TruncSeries(f.nvars, f.cap - d)
    for deg, part in by_degree.items():
        for e, c in _divide_homogeneous(part, div).items():
            out.coeffs[e] = c
    return out


def _perm_sign(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def _h_factor(var, m, spin, t, cap, nvars, cache):
    """Univariate series (1-q)/(1 - s_m u) * prod_{j<m} (u - s_j)/(1 - s_j u)
    in the variable ``var``, built incrementally over m."""
    key = (var, m, spin.prefix, spin.tail)
    got = cache.get(key)
    if got is not None:
        return got
    q = t * t
    if m == 0:
        u = u_substitution(var, spin.tail, cap, nvars)
        out = (1 - q) * (1 - spin.lookup(0) * u).inv()
    else:
        u = u_substitution(var, spin.tail, cap, nvars)
        prev = _h_factor(var, m - 1, spin, t, cap, nvars, cache)
        out = prev * (u - spin.lookup(m - 1)) * (1 - spin.lookup(m) * u).inv()
    cache[key] = out
    return out


def f_lambda_series(lam, spin, t, cap, nvars=None, var_indices=None, cache=None):
    """F_lambda as a truncated series in the x variables after substituting
    u_i = (s + x_i)/(1 + s x_i) with s the spin tail.

    The antisymmetrized pole-free part is computed to degree cap + deg(V),
    divided exactly by V = prod (x_i - x_j), and corrected by the inverted
    unit cofactor of the u-differences; the result is exact to ``cap``.
    """
    lam = as_parts(lam)
    n = len(lam)
    if var_indices is None:
        var_indices = tuple(range(n))
    else:
        var_indices = tuple(var_indices)
    if len(var_indices) != n:
        raise ValueError("need one variable per part")
    if nvars is None:
        nvars = max(var_indices) + 1 if var_indices else 0
    if cache is None:
        cache = {}
    fkey = ("F", lam, var_indices, spin.prefix, spin.tail, t, cap, nvars)
    got = cache.get(fkey)
    if got is not None:
        return got
    if n == 0:
        out = TruncSeries.const(max(nvars, 1), cap, 1)
        cache[fkey] = out
        return out
    s = spin.tail
    q = t * t
    pairs = n * (n - 1) // 2
    work = cap + pairs
    hcache = cache.setdefault(("H", t, work, nvars), {})
    U = {var: u_substitution(var, s, work, nvars) for var in var_indices}
    H = {
        (var, m): _h_factor(var, m, spin, t, work, nvars, hcache)
        for var in var_indices
        for m in set(lam)
    }
    total = TruncSeries.zero(nvars, work)
    for perm in permutations(range(n)):
        term = TruncSeries.const(nvars, work, _perm_sign(perm))
        for slot in range(n):
            term = term * H[(var_indices[perm[slot]], lam[slot])]
        for a in range(n):
            for b in range(a + 1, n):
                term = term * (U[var_indices[perm[a]]] - q * U[var_indices[perm[b]]])
        total = total + term
    quo = divide_by_vandermonde(total, var_indices)
    unit = TruncSeries.const(nvars, cap, Fraction(1, 1))
    for var in var_indices:
        lin = TruncSeries(
            nvars,
            cap,
            {
                (0,) * nvars: Fraction(1),
                tuple(1 if i == var else 0 for i in range(nvars)): s,
            },
        )
        for _ in range(n - 1):
            unit = unit * lin
    out = quo.truncate(cap) * unit * (Fraction(1) / (1 - s * s)) ** pairs
    cache[fkey] = out
    return out
