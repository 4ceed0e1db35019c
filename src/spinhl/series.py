"""Truncated multivariate power series over exact rationals, the substitution
u_i = (s + x_i)/(1 + s x_i), and F_lambda, Schur polynomials and the
Pfaffian side of the identities (by the minor summation formula, see
``pfaffian_side_series``) as truncated series.

A series keys each term by one packed integer: the exponents written as
digits in base cap + 1 under a top digit holding the total degree (see
``TruncSeries``).  Multiplying monomials adds their keys, and truncation is
one compare, so the ring operations never build exponent tuples; tuples
appear only where a series is read out (``coeffs``, ``coefficient``,
``items_sorted``, ``to_json``, ``series_diff``), built from a mapping, or
divided by the Vandermonde polynomial.  The states of the vertex transfer on
series are symmetric and are kept, and weighted, one integer per partition
(``SymmetricSum``); a partition sum is expanded into a series once
(``expand_symmetric``).

Inside the symmetrizer the pairwise differences u_i - u_j vanish at x = 0, so
permutation terms are not individually power series.  Each difference factors
as (x_i - x_j) times a unit, so the implementation antisymmetrizes the
pole-free part, divides the resulting series exactly by the polynomial
prod_{i<j} (x_i - x_j), and multiplies back the inverted unit cofactor.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd, lcm
from operator import mul, truediv

from .arith import (
    PoleError,
    Quotient,
    invert,
    linear_quotient,
    one_minus,
    part_factors,
    perm_sign,
    qpochs,
    truncated_product,
)
from .pfaffian import SkewMatrix, closed_entry
from .symfun import _check_cap, as_parts, rows_between


def _pack(exps, base):
    """The key of a monomial: the total degree, then each exponent, as the
    digits of one integer in ``base`` (most significant first)."""
    key = sum(exps)
    for e in exps:
        key = key * base + e
    return key


def _unpack(key, base, nvars):
    """The exponent tuple of a key (the inverse of ``_pack``)."""
    exps = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        key, exps[i] = divmod(key, base)
    return tuple(exps)


def _check_exponents(exps, nvars):
    """Raise ``ValueError`` unless ``exps`` holds ``nvars`` nonnegative
    exponents: ``_pack`` would carry any other tuple into a wrong key."""
    if len(exps) != nvars or any(e < 0 for e in exps):
        raise ValueError("need %d nonnegative exponents, got %r" % (nvars, tuple(exps)))


def _repack(num, nvars, old_cap, cap, renamings=((1, None),)):
    """The sum over (sign, order) in ``renamings`` of sign times ``num``
    moved from the keys of ``old_cap`` to those of ``cap``, dropping the
    terms past ``cap``, with x_i renamed x_{order[i]} (kept when ``order`` is
    None): each old key's digits are read off once and added back at the
    place values of their new positions under every renaming."""
    base, new = old_cap + 1, cap + 1
    # the new place value of each old exponent digit, lowest digit first
    places = []
    for sign, order in renamings:
        order = range(nvars) if order is None else order
        places.append((sign, [new ** (nvars - 1 - order[i]) for i in reversed(range(nvars))]))
    top = new**nvars
    out = {}
    get = out.get
    for k, v in num.items():
        digits = []
        for _ in range(nvars):
            k, e = divmod(k, base)
            digits.append(e)
        # k is now the total degree
        if k <= cap:
            k *= top
            for sign, place in places:
                key = k + sum(map(mul, digits, place))
                out[key] = get(key, 0) + sign * v
    return {k: v for k, v in out.items() if v}


class TruncSeries:
    """Power series in nvars variables truncated beyond total degree ``cap``.

    A series is stored as one positive integer denominator ``den`` and a dict
    ``num`` from packed keys to nonzero integer numerators; absent keys are
    zero.  The key of x^e is the integer with digits (|e|, e_0, ...,
    e_{nvars-1}) in base cap + 1, most significant first, so keys sort in
    graded lexicographic order, the key of a product of two monomials is the
    sum of their keys, and a product lies within the cap exactly when that
    sum is below (cap + 1)^(nvars + 1): up to the cap no digit carries, and
    past it the top digit alone reaches the bound.  The pair is kept in
    lowest terms (gcd of ``den`` and every numerator is 1), so equal series
    have equal ``den``, ``num`` and hash.  ``coeffs`` reads the same series
    as an exponent tuples -> Fraction mapping.

    Ring operations work on the integers and reduce once per result: a
    product runs over its right operand in key order and stops at the cap, a
    sum brings both operands to the lcm of the denominators, and a quotient
    M / N solves N * Q = M degree by degree (``__truediv__``; ``inv`` is
    1 / N); ``SymmetricSum`` carries transfer states and partition sums in
    the monomial-symmetric basis.
    Ring operations truncate consistently, so coefficients up to the cap
    only ever depend on inputs up to the cap.  Exponent tuples handed in
    (to the constructor or ``coefficient``) must have one nonnegative entry
    per variable, and ``evaluate`` one value per variable; anything else
    raises ``ValueError`` rather than packing into another monomial.
    """

    __slots__ = ("nvars", "cap", "den", "num")

    def __init__(self, nvars, cap, coeffs=None):
        fracs = {}
        base = cap + 1
        if coeffs:
            for exps, c in coeffs.items():
                _check_exponents(exps, nvars)
                c = Fraction(c)
                if c and sum(exps) <= cap:
                    fracs[_pack(exps, base)] = c
        # over the lcm of reduced denominators the numerators share no factor
        # with it, so the pair is already in lowest terms
        den = lcm(*(c.denominator for c in fracs.values()))
        self.nvars = nvars
        self.cap = cap
        self.den = den
        self.num = {k: c.numerator * (den // c.denominator) for k, c in fracs.items()}

    @classmethod
    def _reduced(cls, nvars, cap, den, num):
        """Series num/den from nonzero integer numerators under packed keys
        and a positive denominator, reduced to lowest terms."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: v // g for k, v in num.items()}
        out = cls.__new__(cls)
        out.nvars = nvars
        out.cap = cap
        out.den = den
        out.num = num
        return out

    @classmethod
    def const(cls, nvars, cap, value):
        c = Fraction(value)
        return cls._reduced(nvars, cap, c.denominator, {0: c.numerator} if c else {})

    @classmethod
    def zero(cls, nvars, cap):
        return cls._reduced(nvars, cap, 1, {})

    @classmethod
    def variable(cls, nvars, cap, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, cap, {tuple(exps): Fraction(1)})

    def _key(self, exps):
        return _pack(exps, self.cap + 1)

    def _exps(self, key):
        return _unpack(key, self.cap + 1, self.nvars)

    @property
    def coeffs(self):
        den, base, nvars = self.den, self.cap + 1, self.nvars
        return {_unpack(k, base, nvars): Fraction(v, den) for k, v in self.num.items()}

    def truncate(self, cap):
        if cap > self.cap:
            raise ValueError("cannot extend a truncated series")
        num = _repack(self.num, self.nvars, self.cap, cap)
        return TruncSeries._reduced(self.nvars, cap, self.den, num)

    def relabeled(self, order, cap):
        """The series with x_i renamed x_{order[i]} (``order`` a permutation
        of the variables), read at ``cap >= self.cap`` with every coefficient
        past ``self.cap`` zero.  Numerators and denominator are kept as they
        are; only the keys are rewritten, in the base of ``cap``."""
        return self.relabeled_sum(((1, order),), cap)

    def relabeled_sum(self, renamings, cap):
        """The sum of sign * ``relabeled(order, cap)`` over the (sign, order)
        pairs of ``renamings``, on one integer dict over ``den``: each key is
        read once, and the sum is reduced once."""
        if cap < self.cap:
            raise ValueError("cannot truncate while relabeling")
        num = _repack(self.num, self.nvars, self.cap, cap, renamings)
        return TruncSeries._reduced(self.nvars, cap, self.den, num)

    def coefficient(self, exps):
        _check_exponents(exps, self.nvars)
        # past the cap a key is at least (cap + 1)^(nvars + 1), so it is absent
        return Fraction(self.num.get(self._key(exps), 0), self.den)

    @property
    def constant_term(self):
        return Fraction(self.num.get(0, 0), self.den)

    def __bool__(self):
        return bool(self.num)

    def order(self):
        """Smallest total degree with a nonzero coefficient (None if zero)."""
        if not self.num:
            return None
        return min(self.num) // (self.cap + 1) ** self.nvars

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
                and self.den == other.den
                and self.num == other.num
            )
        if isinstance(other, (int, Fraction)):
            return self == TruncSeries.const(self.nvars, self.cap, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.cap, self.den, frozenset(self.num.items())))

    def __neg__(self):
        return TruncSeries._reduced(
            self.nvars, self.cap, self.den, {k: -v for k, v in self.num.items()}
        )

    def __add__(self, other):
        other = self._coerce(other)
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        out = {k: v * m1 for k, v in self.num.items()} if m1 != 1 else dict(self.num)
        get = out.get
        for k, v in other.num.items():
            out[k] = get(k, 0) + v * m2
        num = {k: v for k, v in out.items() if v}
        return TruncSeries._reduced(self.nvars, self.cap, d1 * m1, num)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            c = Fraction(other)
            if not c:
                return TruncSeries.zero(self.nvars, self.cap)
            a, b = c.numerator, c.denominator
            num = {k: v * a for k, v in self.num.items()}
            return TruncSeries._reduced(self.nvars, self.cap, self.den * b, num)
        other = self._coerce(other)
        limit = (self.cap + 1) ** (self.nvars + 1)
        items = sorted(other.num.items())
        out = {}
        get = out.get
        for k1, v1 in self.num.items():
            for k2, v2 in items:
                key = k1 + k2
                if key >= limit:
                    break
                out[key] = get(key, 0) + v1 * v2
        num = {k: v for k, v in out.items() if v}
        return TruncSeries._reduced(self.nvars, self.cap, self.den * other.den, num)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse; a zero constant term is a ``PoleError``."""
        return TruncSeries.const(self.nvars, self.cap, 1) / self

    def __truediv__(self, other):
        """The quotient, solved degree by degree on the integers, with no
        inverse formed; a divisor with zero constant term is a ``PoleError``.

        With self = M/m, other = N/den and a0 the constant term of N, the
        homogeneous parts of M/N = sum_k P_k / a0^(k+1) satisfy
        P_k = M_k a0^k - sum_{j=1..k} N_j P_{k-j} a0^(j-1), all in integers;
        then self/other = den * sum_k P_k a0^(cap-k) / (m a0^(cap+1)),
        reduced once.  Keys of degrees j and k - j add up to a key of degree k
        without carries."""
        other = self._coerce(other)
        a0 = other.num.get(0, 0)
        if not a0:
            raise PoleError("series with zero constant term")
        cap = self.cap
        top = (cap + 1) ** self.nvars
        parts = [[] for _ in range(cap + 1)]
        for k, v in other.num.items():
            parts[k // top].append((k, v))
        given = [{} for _ in range(cap + 1)]
        for k, v in self.num.items():
            given[k // top][k] = v
        powers = [1]
        for _ in range(cap):
            powers.append(powers[-1] * a0)
        P = []
        for k in range(cap + 1):
            scale = powers[k]
            acc = {key: v * scale for key, v in given[k].items()}
            get = acc.get
            for j in range(1, k + 1):
                prev = P[k - j]
                scale = powers[j - 1]
                for k1, v1 in parts[j]:
                    v1 *= scale
                    for k2, v2 in prev.items():
                        key = k1 + k2
                        acc[key] = get(key, 0) - v1 * v2
            P.append({key: v for key, v in acc.items() if v})
        den = powers[cap] * a0 * self.den
        sign = -1 if den < 0 else 1
        num = {}
        for k, part in enumerate(P):
            scale = sign * other.den * powers[cap - k]
            for key, v in part.items():
                num[key] = v * scale
        return TruncSeries._reduced(self.nvars, cap, sign * den, num)

    def __rtruediv__(self, other):
        return self.inv() * other

    def evaluate(self, xs):
        """Exact value of the truncating polynomial at a rational point."""
        xs = tuple(Fraction(v) for v in xs)
        if len(xs) != self.nvars:
            raise ValueError("need %d values, got %d" % (self.nvars, len(xs)))
        total = Fraction(0)
        for k, v in self.num.items():
            term = Fraction(v)
            for x, e in zip(xs, self._exps(k)):
                term *= x**e
            total += term
        return total / self.den

    def items_sorted(self):
        """(exponents, coefficient) pairs in graded lexicographic order, the
        order of the keys."""
        den = self.den
        return [(self._exps(k), Fraction(self.num[k], den)) for k in sorted(self.num)]

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
            len(self.num),
        )

    def to_json(self):
        return [
            {"exponents": list(e), "coefficient": "%d/%d" % (c.numerator, c.denominator)}
            for e, c in self.items_sorted()
        ]


class SymmetricSum:
    """A symmetric truncated series in r variables kept in the
    monomial-symmetric basis: a state's sum in the vertex transfer on series
    (``vertex.row_transfer``), or a weighted sum of final states.

    After r rows a transfer state holds its partial F_mu(x_1, ..., x_r),
    truncated at total degree ``cap`` and symmetric in the row variables.  It
    is kept as one integer numerator per partition nu, a non-increasing
    tuple of length r with |nu| <= cap, the coefficient of x^nu, over one
    positive denominator ``den``.  The new row's variable takes the smallest
    part: a target state's coefficient at nu + (e,), e <= nu_r, is the sum
    over its predecessors of acc[nu] times the x^e coefficient of the walk
    weight, one product per stored partition and walk term.  Since
    (r + 1) e <= cap, row r + 1 reads its walk weights only to degree
    cap // (r + 1).  ``add`` sums the products, and ``add_scaled`` rational
    multiples of whole sums, on one integer dict over the lcm of their
    denominators.  Both take their weights as integers over a denominator
    that need not be reduced: a walk weight as its coefficient list
    ([c_0, ..., c_d], den), a multiple as (num, den).  A sum is taken to
    lowest terms once, when it is first read, and ``expand_symmetric`` turns
    a sum into a ``TruncSeries``.
    """

    __slots__ = ("cap", "den", "num", "terms")

    def __init__(self, cap, num=None):
        self.cap = cap
        self.den = 1
        self.num = {} if num is None else num
        # (nu, numerator, the largest part the next row may add to nu), set
        # once the sum is reduced
        self.terms = None

    @classmethod
    def one(cls, cap):
        """The sum before the first row: 1 on the empty partition."""
        return cls(cap, {(): 1})

    def __bool__(self):
        return any(self.num.values())

    def product_sum(self):
        """An empty sum of this cap, for a state of the next row."""
        return SymmetricSum(self.cap)

    def _reduce(self):
        """Take the sum to lowest terms and list its terms."""
        num = {k: v for k, v in self.num.items() if v}
        den = self.den
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: v // g for k, v in num.items()}
        self.den, self.num = den, num
        cap = self.cap
        self.terms = [(nu, v, min(nu[-1], cap - sum(nu)) if nu else cap) for nu, v in num.items()]
        return self.terms

    def _scale_to(self, d):
        """Bring the numerators onto the lcm of ``den`` and ``d`` (rescaling
        the dict only when ``d`` does not divide ``den``); returns den // d."""
        den = self.den
        if den % d:
            grown = lcm(den, d)
            f = grown // den
            self.num = {k: v * f for k, v in self.num.items()}
            self.den = den = grown
        return den // d

    def add(self, acc, w):
        """Add acc times the walk weight w of the next row, the pair
        ([c_0, ..., c_d], den) of its integer x^0..x^d coefficients in its
        one variable over a denominator, unreduced."""
        terms = acc._reduce() if acc.terms is None else acc.terms
        coeffs, d = w
        m = self._scale_to(acc.den * d)
        if m != 1:
            coeffs = [c * m for c in coeffs]
        top = len(coeffs) - 1
        out = self.num
        get = out.get
        for nu, v, most in terms:
            for e in range(min(most, top) + 1):
                c = coeffs[e]
                if c:
                    key = nu + (e,)
                    out[key] = get(key, 0) + v * c

    def add_scaled(self, c, acc):
        """Add c times the sum ``acc`` of the same rows, c rational, given
        as an integer pair (num, den) with den > 0, unreduced."""
        if acc.terms is None:
            acc._reduce()
        num, den = c
        m = num * self._scale_to(den * acc.den)
        out = self.num
        get = out.get
        for nu, v in acc.num.items():
            out[nu] = get(nu, 0) + v * m


def _arrangements(groups, places):
    """The sums of part times place over the distinct ways to put the parts
    of ``groups`` ((part, multiplicity) pairs) on distinct ``places``."""
    sums = [(0, places)]
    for part, mult in groups:
        sums = [
            (lead + part * sum(chosen), [p for p in free if p not in chosen])
            for lead, free in sums
            for chosen in combinations(free, mult)
        ]
    return [lead for lead, _ in sums]


def expand_symmetric(acc, nvars, cap, var_indices):
    """The ``SymmetricSum`` ``acc`` at ``cap`` as a ``TruncSeries`` in
    ``nvars`` variables, with x_1, ..., x_r the listed variables: each
    nonzero partition coefficient goes to every distinct permutation of the
    partition, and the series is reduced once."""
    base = cap + 1
    places = [base ** (nvars - 1 - v) for v in var_indices]
    top = base**nvars
    num = {}
    for nu, v in acc.num.items():
        if v:
            groups = [(part, nu.count(part)) for part in set(nu) if part]
            lead = sum(nu) * top
            num.update(dict.fromkeys([lead + k for k in _arrangements(groups, places)], v))
    return TruncSeries._reduced(nvars, cap, acc.den, num)


def _merged(x, mx, y, my):
    """x mx + y my for coefficient lists x and y of one length, None being
    zero."""
    if x is None:
        return y and [v * my for v in y]
    if y is None:
        return [u * mx for u in x]
    return [u * mx + v * my for u, v in zip(x, y)]


def _node_values(nodes, rows, last, values, stop):
    """Extend ``values``, the values of the first nodes of a
    ``vertex.LastRowGraph`` under one family, to its first ``stop`` nodes.

    A node's value is the triple (below, edge, den): the family-weighted
    sums of the walks from it that end below the budget and at it, as
    integer coefficient lists of the last row's variable (None when zero)
    over one positive denominator.  An edge (child, w, c, g2) adds the
    factor rows[min(c, last)][g2] times w times the child's value; the two
    edges of a node meet over the lcm of their denominators, and the node
    takes one gcd."""
    for edges in nodes[len(values) : stop]:
        below = edge = None
        den = 0
        for child, (w, wden), c, g2 in edges:
            num, fden = rows[c if c < last else last][g2]
            if not num:
                continue
            cbelow, cedge, cden = values[child]
            if num != 1:
                w = [num * v for v in w]
            wbelow = cbelow and truncated_product(w, cbelow)
            wedge = cedge and truncated_product(w, cedge)
            d = fden * wden * cden
            if not den:
                below, edge, den = wbelow, wedge, d
                continue
            g = gcd(den, d)
            below = _merged(below, d // g, wbelow, den // g)
            edge = _merged(edge, d // g, wedge, den // g)
            den *= d // g
        common = gcd(den, *(below or ()), *(edge or ()))
        if common > 1:
            den //= common
            below = below and [v // common for v in below]
            edge = edge and [v // common for v in edge]
        values.append((below if below and any(below) else None, edge if edge and any(edge) else None, den or 1))
    return values


def weigh_states(graph, poch, spin, q, nrows, budget, cap):
    """One pass of a family's weights over the final states of a series
    transfer in ``nrows`` rows, given as its last row pulled back onto the
    states before it (``vertex.LastRowGraph``).  A final state, the
    multiplicity row (m_0, m_1, ...) of a partition lambda, weighs
    prod_c poch(spin, c, m_c) / (q; q)_{m_c}; ``poch`` is an
    ``arith.PochFamily`` or a plain callable (spin, r, m) -> factor.

    The factors are integer pairs, one row m = 0..nrows per column class,
    each from one running product: a row for each column c < L = max(p, 1),
    and one for every column from L on, where every family reads the spin
    tail alike.  Each column's factor rides on the edge of the last row
    that fixes m_c, so the graph's nodes take the family's weight of every
    final state they reach, apart by the class of its excess
    (``_node_values``), each on integer coefficient lists of length
    cap // nrows + 1.  The nodes at the columns >= L read only the tail's
    row, so their values are kept on the graph per tail row, and a family
    that shares it with one weighed before evaluates the nodes left of L
    only.  Each state before the last row then adds its sum times its
    root's two values (``SymmetricSum.add``), one sum for the final states
    of excess below ``budget`` and one for those at it; states past the
    budget have no root, and with no rows the one state is its own final
    state, of weight 1.  Returns the sum at ``budget``, and the sum below
    it when some partition coefficient of the edge is nonzero, else None:
    ``expand_symmetric`` is injective, so None says exactly that both sums
    expand to one series."""
    pochs = getattr(poch, "pochs", None)
    if pochs is None:

        def pochs(spin, r, n):
            return [poch(spin, r, m) for m in range(n + 1)]

    qq = qpochs(q, q, nrows)
    rows = []
    for r in range(max(spin.p, 1) + 1):
        rows.append([(f.numerator, f.denominator) for f in map(truediv, pochs(spin, r, nrows), qq)])
    last = len(rows) - 1
    tail_row = tuple(rows[last])
    values = graph.tail_values.get(tail_row)
    if values is None:
        unit = [1] + [0] * (cap // nrows if nrows else 0)
        ends = [(unit, None, 1), (None, unit, 1)]
        values = graph.tail_values[tail_row] = _node_values(graph.nodes, rows, last, ends, graph.tail)
    values = _node_values(graph.nodes, rows, last, list(values), len(graph.nodes))
    below, edge = SymmetricSum(cap), SymmetricSum(cap)
    for state, root in graph.roots.items():
        acc = graph.states[state]
        b, e, den = values[root]
        if not nrows:
            (below if b else edge).add_scaled((1, 1), acc)
            continue
        if b:
            below.add(acc, (b, den))
        if e:
            edge.add(acc, (e, den))
    if not edge:
        return below, None
    total = SymmetricSum(cap)
    total.add_scaled((1, 1), below)
    total.add_scaled((1, 1), edge)
    return total, below


def series_diff(a, b):
    """First differing coefficient of two same-shape series in graded-lex
    order (the order of the keys), or None when equal."""
    b = a._coerce(b)
    for k in sorted(set(a.num) | set(b.num)):
        if a.num.get(k, 0) * b.den != b.num.get(k, 0) * a.den:
            return a._exps(k), Fraction(a.num.get(k, 0), a.den), Fraction(b.num.get(k, 0), b.den)
    return None


def _univariate(i, coeffs, den, nvars, cap):
    """The series sum_k coeffs[k] x_i^k / den from integer coefficients, k
    up to ``cap``, reduced once."""
    step = (cap + 1) ** nvars + (cap + 1) ** (nvars - 1 - i)  # x_i^k has the key k * step
    return TruncSeries._reduced(nvars, cap, den, {k * step: v for k, v in enumerate(coeffs[: cap + 1]) if v})


def u_substitution(i, s, cap, nvars):
    """Series of u = (s + x_i)/(1 + s x_i): with s = a/b, (a + b x_i)/(b + a x_i)
    expanded over b^(cap+1) by ``arith.linear_quotient``."""
    s = Fraction(s)
    a, b = s.numerator, s.denominator
    return _univariate(i, linear_quotient(a, b, b, a, cap), b ** (cap + 1), nvars, cap)


def u_coordinates(i, s, nvars, cap):
    """u = (s + x_i)/(1 + s x_i) as the ``arith.Quotient`` of the integer
    polynomials a + b x_i over b + a x_i, s = a/b, which the closed forms of
    u-quotients (``arith.one_minus``, ``pfaffian.closed_entry``) read as
    they read a rational u."""
    a, b = s.numerator, s.denominator
    return Quotient(_univariate(i, (a, b), 1, nvars, cap), _univariate(i, (b, a), 1, nvars, cap))


def u_part_factors(var_indices, s, spin, top, nvars, cap):
    """``arith.part_factors`` over the series u_i = (s + x_i)/(1 + s x_i) of
    the listed variables, with no series inverted.  With s = a/b and
    s_l = m/k, 1 - s_l u_i = (N0 + N1 x_i)/(k (b + a x_i)) for N0 = kb - ma
    and N1 = ka - mb, so 1/(1 - s_l u_i) = k (b + a x_i)/(N0 + N1 x_i) and
    (u_i - s_l)/(1 - s_l u_i) = (N1 + N0 x_i)/(N0 + N1 x_i), each expanded
    over N0^(cap+1) by ``arith.linear_quotient``.  N0 = 0 is the pole
    1 - s_l s = 0 of the constant terms, raised as ``part_factors`` raises
    it."""
    a, b = s.numerator, s.denominator

    def single(i, l, sl):
        m, k = sl.numerator, sl.denominator
        N0, N1 = k * b - m * a, k * a - m * b
        if not N0:
            raise PoleError("1 - s_%d*u" % l)
        if N0 < 0:
            N0, N1, k = -N0, -N1, -k
        den = N0 ** (cap + 1)
        return (
            _univariate(i, linear_quotient(k * b, k * a, N0, N1, cap), den, nvars, cap),
            _univariate(i, linear_quotient(N1, N0, N0, N1, cap), den, nvars, cap),
        )

    return part_factors(var_indices, spin, top, single)


def vandermonde_exponents(var_indices, nvars):
    """prod_{a<b} (x_{i_a} - x_{i_b}) as an exponent dict with integer
    coefficients (homogeneous)."""
    poly = {(0,) * nvars: 1}
    for a, ia in enumerate(var_indices):
        for ib in var_indices[a + 1 :]:
            new = {}
            for e, c in poly.items():
                for var, val in ((ia, c), (ib, -c)):
                    key = e[:var] + (e[var] + 1,) + e[var + 1 :]
                    new[key] = new.get(key, 0) + val
            poly = {e: c for e, c in new.items() if c}
    return poly


def divide_by_vandermonde(f, var_indices):
    """Exact quotient of a series by prod_{a<b} (x_{i_a} - x_{i_b}).

    The numerator must be antisymmetric under permuting the listed variables.
    The Vandermonde polynomial is homogeneous, so its lex-leading term is
    also its largest key, and that term's coefficient is +-1: repeated
    elimination of the largest key of ``f`` runs on the integer numerators,
    and the quotient keeps the denominator of ``f``; it raises
    ``ArithmeticError`` when a leading term is not divisible.  Each
    elimination stays in one total degree, and the quotient's cap drops by
    the degree of V, so its keys are rewritten in the quotient's base."""
    m = len(var_indices)
    d = m * (m - 1) // 2
    poly = vandermonde_exponents(var_indices, f.nvars)
    lead_exps = max(poly)
    sign = poly[lead_exps]
    div = {f._key(e): c for e, c in poly.items()}
    lead = f._key(lead_exps)
    quo = {}
    cur = dict(f.num)
    while cur:
        k = max(cur)
        if any(a < b for a, b in zip(f._exps(k), lead_exps)):
            raise ArithmeticError("series is not divisible by the Vandermonde polynomial")
        # every exponent of k covers the leading one, so k - lead is the
        # quotient monomial's key and adding it to a key of V does not carry
        shift = k - lead
        c = quo[shift] = cur[k] * sign
        for dk, dc in div.items():
            key = dk + shift
            val = cur.get(key, 0) - c * dc
            if val:
                cur[key] = val
            else:
                del cur[key]
    quo = _repack(quo, f.nvars, f.cap, f.cap - d)
    return TruncSeries._reduced(f.nvars, f.cap - d, f.den, quo)


def divide_by_u_differences(f, var_indices, s):
    """Exact quotient of a series by prod_{a<b} (u_{i_a} - u_{i_b}) with
    u_i = (s + x_i)/(1 + s x_i), for ``f`` antisymmetric in the listed
    variables.

    With s = a/b, u_i has the coordinates (a + b x_i)/(b + a x_i)
    (``u_coordinates``) and each difference is
    (b^2 - a^2)(x_i - x_j)/((b + a x_i)(b + a x_j)), so the quotient is
    f / V times prod_a (b + a x_{i_a})^(m-1) / (b^2 - a^2)^pairs; the cap
    drops by the number of pairs."""
    out = divide_by_vandermonde(f, var_indices)
    m = len(var_indices)
    for var in var_indices:
        lin = u_coordinates(var, s, out.nvars, out.cap).denominator
        for _ in range(m - 1):
            out = out * lin
    pairs = m * (m - 1) // 2
    a, b = s.numerator, s.denominator
    return out * invert(Fraction(b * b - a * a), "1 - s^2") ** pairs if pairs else out


def f_lambda_series(lam, spin, t, cap, nvars=None, var_indices=None, cache=None):
    """F_lambda as a truncated series in the x variables after substituting
    u_i = (s + x_i)/(1 + s x_i) with s the spin tail.

    The antisymmetrized pole-free part is computed to degree cap + deg(V)
    and divided exactly by the u-differences (``divide_by_u_differences``);
    the result is exact to ``cap``.  The single-row factor of part m in the
    variable x_i is F_(m)(u_i) = (1 - q) outer_m(u_i), one ``outers`` entry of
    ``arith.part_factors`` over that one series u_i.
    """
    lam = as_parts(lam)
    n = len(lam)
    _check_cap(n, "symmetrization")
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
    U = {var: u_substitution(var, s, work, nvars) for var in var_indices}
    H = {}
    for var in var_indices:
        outers = part_factors([U[var]], spin, max(lam))[1]
        for m in set(lam):
            H[var, m] = (1 - q) * outers[m]
    total = TruncSeries.zero(nvars, work)
    for perm in permutations(range(n)):
        term = TruncSeries.const(nvars, work, perm_sign(perm))
        for slot in range(n):
            term = term * H[(var_indices[perm[slot]], lam[slot])]
        for a in range(n):
            for b in range(a + 1, n):
                term = term * (U[var_indices[perm[a]]] - q * U[var_indices[perm[b]]])
        total = total + term
    out = divide_by_u_differences(total, var_indices, s)
    cache[fkey] = out
    return out


@lru_cache(maxsize=4096)
def _gt_monomials(row):
    """(exponents of x_0 .. x_{len(row)-1}, number of Gelfand-Tsetlin
    patterns on ``row`` with that weight) pairs, as a tuple: the weakly
    interlacing rows above come from ``symfun.rows_between``, and x_i takes
    row i's sum less that of the row above it (``symfun.schur_gt``)."""
    if len(row) < 2:
        return ((row, 1),)
    out = {}
    for above in rows_between(row, strict=False):
        e = sum(row) - sum(above)
        for exps, c in _gt_monomials(above):
            out[exps + (e,)] = out.get(exps + (e,), 0) + c
    return tuple(out.items())


def schur_series(lam, nvars, cap):
    """The Schur polynomial s_lambda(x_0, ..., x_{nvars-1}) as a series: one
    monomial per Gelfand-Tsetlin pattern on lambda reversed
    (``_gt_monomials``, memoized per row), built at ``cap``."""
    lam = as_parts(lam)
    if len(lam) > nvars:
        raise ValueError("partition longer than variable list")
    return TruncSeries(nvars, cap, dict(_gt_monomials(tuple(reversed(lam + (0,) * (nvars - len(lam)))))))


def _u_entry(i, j, spec, cap):
    """``m_gamma_entry(i, j, u, ...)``, (i, j) = (0, 1) or (1, 2), at u_k =
    (s + x_{k-1})/(1 + s x_{k-1}), s the spin tail, as a series in j variables
    at ``cap``: ``pfaffian.closed_entry`` at the ``u_coordinates``."""
    U = [u_coordinates(v, spec.point.spin.tail, j, cap) for v in range(j)]
    entry = closed_entry(i, j, U, spec.point.t, spec.gamma, spec.s, spec.gamma_inv_s)
    return TruncSeries.zero(j, cap) + entry  # the label-0 entry at gamma = 1 is 1


def _u_kernel(n, s, t, cap):
    """``pfaffian.pfaffian_kernel`` of u_1..u_n over prod_{i<j} (u_i - u_j),
    times prod_{i<j} (x_i - x_j), at u_i = (s + x_{i-1})/(1 + s x_{i-1}):
    what ``divide_by_u_differences`` and ``pfaffian_kernel`` leave, written
    in x.  With s = a/b, t = e/f and u_i given by its coordinates
    U_i = (a + b x_i)/(b + a x_i) (``u_coordinates``),
    1 - u_i = (b - a)(1 - x_i)/(b + a x_i), 1 - q u_i u_j is
    ``arith.one_minus(U_i, U_j, t)`` over f^2 (b + a x_i)(b + a x_j), and
    u_i - u_j is (b^2 - a^2)(x_i - x_j) over the same (b + a x_i)(b + a x_j).
    Those cancel, and it is (1 + t)^n / ((b - a)^n (b^2 - a^2)^pairs
    f^(2 pairs)) times ``_closed_kernel``, so no series is inverted.  The
    poles 1 - s^2 and 1 - u_1 are raised in that order, as the two routes
    raise them."""
    a, b = s.numerator, s.denominator
    pairs = n * (n - 1) // 2
    scale = (1 + t) ** n / t.denominator ** (2 * pairs)
    if pairs:
        scale *= invert(Fraction(b * b - a * a), "1 - s^2") ** pairs
    scale *= invert(Fraction(b - a), "1 - u_1") ** n
    return _closed_kernel(n, s, t, cap, scale)


def littlewood_series(n, s, t, cap):
    """``pfaffian.littlewood_kernel`` of u_1..u_n with q = t^2, at
    u_i = (s + x_{i-1})/(1 + s x_{i-1}), as a series truncated at ``cap``:
    the product side of the first identity, with no series inverted.  With
    s = a/b, t = e/f and the coordinates U_i of ``_u_kernel``,
    1/(1 - u_i) = (b + a x_i)/((b - a)(1 - x_i)), and
    (1 - q u_i u_j)/(1 - u_i u_j) = one_minus(U_i, U_j, t) /
    (f^2 (b^2 - a^2)(1 - x_i x_j)), so the kernel is ``_closed_kernel``
    over (b - a)^n (b^2 - a^2)^pairs f^(2 pairs), times the geometric series
    1/(1 - x_i x_j) of each pair.  The poles 1 - u_1 (s = 1) and then
    1 - u_1*u_2 (s = -1, n >= 2) are raised in that order, as
    ``littlewood_kernel`` raises them."""
    a, b = s.numerator, s.denominator
    pairs = n * (n - 1) // 2
    scale = Fraction(1, t.denominator ** (2 * pairs))
    if n:
        scale *= invert(Fraction(b - a), "1 - u_1") ** n
    if pairs:
        scale *= invert(Fraction(b * b - a * a), "1 - u_1*u_2") ** pairs
    out = _closed_kernel(n, s, t, cap, scale)
    base = cap + 1
    for i, j in combinations(range(n), 2):
        step = 2 * base**n + base ** (n - 1 - i) + base ** (n - 1 - j)  # (x_i x_j)^k has the key k * step
        out = out * TruncSeries._reduced(n, cap, 1, {k * step: 1 for k in range(cap // 2 + 1)})
    return out


def _closed_kernel(n, s, t, cap, scale):
    """``scale`` prod_{i<j} one_minus(U_i, U_j, t) prod_i (b + a x_i)/(1 - x_i)
    at the ``u_coordinates`` U_i = (a + b x_i)/(b + a x_i), s = a/b, each
    last factor expanded by ``arith.linear_quotient``: the part of the
    closed u-kernels (``_u_kernel``, ``littlewood_series``) that they
    share."""
    a, b = s.numerator, s.denominator
    out = TruncSeries.const(n, cap, scale)
    U = [u_coordinates(i, s, n, cap) for i in range(n)]
    for i, j in combinations(range(n), 2):
        out = out * one_minus(U[i], U[j], t)
    geometric = linear_quotient(b, a, 1, -1, cap)
    for i in range(n):
        out = out * _univariate(i, geometric, 1, n, cap)
    return out


def pfaffian_side_series(spec, n, cap):
    """``pfaffian.pfaffian_side(spec, [n])`` as a series truncated at ``cap``,
    with u_i = (s + x_{i-1})/(1 + s x_{i-1}) at the spin tail s of the point.

    Every entry of ``m_gamma(spec, [n])`` on labels 1 <= i < j is one
    antisymmetric series A(x_{i-1}, x_{j-1}) = sum c_ab x_{i-1}^a x_{j-1}^b,
    and every label-0 entry (odd n) one g(x_{j-1}) = sum h_a x_{j-1}^a.  So
    the matrix is Y C Y^T, with Y_{i,a} = x_i^a under a border row for label
    0 and C the scalar skew matrix of the c_ab bordered by the h_a, and the
    minor summation formula (Ishikawa-Wakayama 1995, Stembridge 1990) gives
    Pf = sum_I Pf(C_I) det(x_i^a)_{a in I} over the n-sets I of exponents,
    the border joining each I for odd n.  Over prod_{i<j} (x_i - x_j) each
    det is (-1)^(n(n-1)/2) s_lambda with lambda_k = a_{n+1-k} - (n - k) for
    I = {a_1 < ... < a_n}, so only the I with |lambda| <= cap are read: they
    have a_n <= cap + n - 1 and a + b <= cap + 2n - 3 for any two a, b in
    I.  The c_ab come from one bivariate entry at that cap, the h_a from one
    univariate entry, each a quotient of polynomials in x (``_u_entry``), in
    the order in which the dense matrix's first entries raise their poles,
    and every Pf(C_I) from one memo over one scalar table
    (``SkewMatrix.pfaffians``).

    The kernel over the u-differences follows at ``cap`` (``_u_kernel``),
    so no series is inverted."""
    exponents = range(cap + n)
    border = (-1,) if n % 2 else ()  # the label of the border row and column
    upper = {}
    if border:
        upper.update(((-1, a), c) for (a,), c in _u_entry(0, 1, spec, cap + n - 1).coeffs.items())
    if n > 1:
        entry = _u_entry(1, 2, spec, cap + 2 * n - 3).coeffs
        upper.update(((a, b), c) for (a, b), c in entry.items() if a < b < cap + n)
    table = SkewMatrix(border + tuple(exponents), upper)
    pairs = n * (n - 1) // 2
    reads = [I for I in combinations(exponents, n) if sum(I) - pairs <= cap]
    total = TruncSeries.zero(n, cap)
    for I, pf in zip(reads, table.pfaffians([border + I for I in reads])):
        if pf:
            total = total + pf * schur_series(tuple(I[k] - k for k in reversed(range(n))), n, cap)
    kernel = _u_kernel(n, spec.point.spin.tail, spec.point.t, cap)
    return (total if pairs % 2 == 0 else -total) * kernel
