"""Skew-symmetric matrices, exact Pfaffians, and the Pfaffian right-hand sides.

The Pfaffian is computed by a Laplace expansion memoized over position
tuples, whose entries may be any commutative ring elements supporting +, -,
* (exact rationals or truncated power series); ``SkewMatrix.pfaffians``
expands many principal blocks of one table from a single memo, so blocks
share the sub-blocks they expand into.  A table of ints and Fractions is
first cleared to integers: label a is scaled by d_a, the lcm of the denominators
in its row, so D M D has integer entries, and the Pfaffian of each block of
D M D is divided once by the product of its own d_a.  The signed
perfect-matching sum is kept as an independent cross-check for rational
matrices of small dimension: it walks the matchings of the same cleared
table with no memo, and divides once.

The gamma-refined entries have one closed form (``closed_quotient``), a
numerator and a denominator read off u only through numerator and
denominator: at rational u a pair of integers, and at series u given as
integer polynomials in x a pair of series (``series._u_entry``).  The
point-mode Pfaffians (``block_pfaffians``, ``gamma_pfaffian``) write the
cleared table D M D straight from those integer pairs (``_entry_table``),
so no entry is ever a Fraction.  The ring formula (``_ring_entry``) stays
as the reference the closed form is tested against.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from .arith import ParamPoint, PoleError, invert, one_minus, over_common_denominator


def det(rows):
    """Exact determinant of a square matrix of rationals, fraction-free.

    Each row is cleared to integers over the lcm of its denominators, the
    integer matrix is reduced by Bareiss elimination (E. H. Bareiss,
    Sylvester's identity and multistep integer-preserving Gaussian
    elimination, Math. Comp. 22, 1968), whose every division is exact, with
    a row swap on a zero pivot, and its determinant is divided once by the
    product of the row denominators.  Rows of ``int`` entries only are taken
    as they are, over the denominator 1."""
    rows = [list(row) for row in rows]
    m, den = rows, 1
    if not all(type(v) is int for row in rows for v in row):
        m = []
        for row in rows:
            nums, scale = over_common_denominator([Fraction(v) for v in row])
            den *= scale
            m.append(nums)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return Fraction(0)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * pivot - lead * pivot_row[c]) // prev
        prev = pivot
    return Fraction(sign * m[-1][-1], den) if n else Fraction(1)


class SkewMatrix:
    """Skew-symmetric matrix given by an ordered label list and its upper triangle.

    ``labels`` fixes the row/column order; ``upper`` maps (a, b) with a before
    b in that order to the entry.  The lower triangle and zero diagonal are
    implicit.
    """

    def __init__(self, labels, upper):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        self._pos = {lab: i for i, lab in enumerate(self.labels)}
        self.upper = dict(upper)
        for a, b in self.upper:
            if self._pos[a] >= self._pos[b]:
                raise ValueError("upper entries must be keyed (earlier, later)")

    @classmethod
    def from_function(cls, labels, fn):
        labels = tuple(labels)
        upper = {}
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                upper[(a, b)] = fn(a, b)
        return cls(labels, upper)

    @property
    def dim(self):
        return len(self.labels)

    def entry(self, a, b):
        if a == b:
            return 0
        if self._pos[a] < self._pos[b]:
            return self.upper.get((a, b), 0)
        return -self.upper.get((b, a), 0)

    def restrict(self, sub_labels):
        sub = tuple(sub_labels)
        missing = [lab for lab in sub if lab not in self._pos]
        if missing:
            raise KeyError("labels %r not present" % (missing,))
        return SkewMatrix.from_function(sub, self.entry)

    def permute_positions(self, sigma):
        """Simultaneous row/column permutation: position i holds old position sigma[i]."""
        new_order = tuple(self.labels[s] for s in sigma)
        return SkewMatrix.from_function(new_order, lambda a, b: self.entry(a, b))

    def conjugate_diag(self, diag):
        """B A B with B = diag(diag[label]); clears denominators entrywise."""
        return SkewMatrix(
            self.labels,
            {(a, b): diag[a] * val * diag[b] for (a, b), val in self.upper.items()},
        )

    def pfaffians(self, blocks):
        """Laplace Pfaffians of the principal blocks over the label sets in
        ``blocks``, each given in table order, from one memo over position
        tuples: every block expands along its first position, and a sub-block
        reached from two blocks is expanded once.  ``pfaffian()`` is the
        block over all labels.

        When every entry is an int or a Fraction, the memo runs on the
        integer table D M D of ``_cleared`` and each block's value is divided
        by the product of its own d_a, as the block of D M D over a set S is
        D_S M_S D_S and Pf(D_S M_S D_S) = prod_{a in S} d_a Pf(M_S); the
        values are then Fractions.  Other entries (series) are expanded as
        they are."""
        pos = self._pos
        starts = []
        for block in blocks:
            missing = [lab for lab in block if lab not in pos]
            if missing:
                raise KeyError("labels %r not present" % (missing,))
            positions = tuple(pos[lab] for lab in block)
            if any(a >= b for a, b in zip(positions, positions[1:])):
                raise ValueError("block labels must be distinct and in table order")
            if len(positions) % 2:
                raise ValueError("Pfaffian requires even dimension, got %d" % len(positions))
            starts.append(positions)
        rational = all(isinstance(val, (int, Fraction)) for val in self.upper.values())
        if rational:
            at, scale = self._cleared()
        else:
            at = [[0] * self.dim for _ in range(self.dim)]
            for (a, b), val in self.upper.items():
                at[pos[a]][pos[b]] = val
        memo = {(): 1}

        def pf(positions):
            got = memo.get(positions)
            if got is not None:
                return got
            row = at[positions[0]]
            acc = 0
            for idx in range(1, len(positions)):
                a = row[positions[idx]]
                if not a:
                    continue
                term = a * pf(positions[1:idx] + positions[idx + 1 :])
                acc = acc + term if idx % 2 else acc - term
            memo[positions] = acc
            return acc

        if rational:
            return [Fraction(pf(positions), prod(scale[i] for i in positions)) for positions in starts]
        return [pf(positions) for positions in starts]

    def pfaffian(self):
        """Pfaffian via Laplace expansion, memoized over position tuples."""
        return self.pfaffians([self.labels])[0]

    def _cleared(self):
        """The rational table cleared to integers: the rows of D M D over
        positions, and the scales d_a, d_a being the lcm of the denominators
        in the row of label a (so of its column too)."""
        rows = [over_common_denominator(self.entry(a, b) for b in self.labels) for a in self.labels]
        scale = [den for _, den in rows]
        return [[num * d for num, d in zip(nums, scale)] for nums, _ in rows], scale

    def pfaffian_matchings(self):
        """Pfaffian straight from the signed perfect-matching sum (small dims).

        Rational entries only.  On the integer table D M D of ``_cleared``,
        Pf(D M D) = prod_a d_a Pf(M).  Every perfect matching with a nonzero
        product is walked with no memo, pairing the first free position with
        the one at index idx among the free ones (sign (-1)^(idx-1)) and
        carrying the integer product down; the sum is divided once.
        ``pfaffian()`` takes any ring."""
        m = self.dim
        if m % 2:
            raise ValueError("Pfaffian requires even dimension, got %d" % m)
        ints, scale = self._cleared()
        total = 0

        def walk(free, product):
            nonlocal total
            if not free:
                total += product
                return
            row = ints[free[0]]
            for idx in range(1, len(free)):
                v = row[free[idx]]
                if v:
                    walk(free[1:idx] + free[idx + 1 :], product * v if idx % 2 else -product * v)

        walk(tuple(range(m)), 1)
        return Fraction(total, prod(scale))


def subset_labels(T):
    """Label set of the Pfaffian block for a subset T of [n]: T plus the extra
    label 0 exactly when |T| is odd, which keeps the dimension even."""
    T = tuple(sorted(T))
    return ((0,) + T) if len(T) % 2 else T


def b_matrix(U, V, point, u=None):
    """Diagonal conjugator indexed like the block for V: 1 at label 0 and
    prod over k in U, k > i of (1-u_i u_k)(1-q u_i u_k) at label i."""
    q = point.q
    u = point.u if u is None else tuple(u)
    diag = {}
    for lab in subset_labels(V):
        if lab == 0:
            diag[lab] = Fraction(1)
        else:
            val = Fraction(1)
            for k in sorted(U):
                if k > lab:
                    val *= (1 - u[lab - 1] * u[k - 1]) * (1 - q * u[lab - 1] * u[k - 1])
            diag[lab] = val
    return diag


def m_gamma_entry(i, j, u, t, gamma, s, gamma_inv_s):
    """Entry (i, j), i < j, of the gamma-refined Pfaffian matrix.

    ``u`` is the 0-based list of spectral values (rationals or series), and
    the scalars t, gamma, s, gamma_inv_s are exact rationals.  Rational u
    go to the closed form (``closed_entry``), series u to the ring formula
    (``_ring_entry``); the series Pfaffian side reads the closed form at
    series u given by its coordinates instead (``series._u_entry``).
    """
    if all(isinstance(u[k - 1], (int, Fraction)) for k in (i, j) if k):
        return closed_entry(i, j, u, t, gamma, s, gamma_inv_s)
    return _ring_entry(i, j, u, t, gamma, s, gamma_inv_s)


def _vanishes(den):
    """Whether a closed form's denominator vanishes: an int that is 0, or an
    integer series with no constant term, which cannot be divided by."""
    return not den if type(den) is int else not den.constant_term


def closed_entry(i, j, u, t, gamma, s, gamma_inv_s):
    """The entry of ``closed_quotient`` as one value: a Fraction at rational
    u, and at series u one quotient of series, solved with no inverse formed
    (``TruncSeries.__truediv__``)."""
    num, den = closed_quotient(i, j, u, t, gamma, s, gamma_inv_s)
    return Fraction(num, den) if type(den) is int else num / den


def closed_quotient(i, j, u, t, gamma, s, gamma_inv_s):
    """``_ring_entry`` as a numerator and a denominator, reading each u_k
    only through ``u[k-1].numerator`` and ``.denominator``: at rational u a
    pair of integers, which ``_entry_table`` clears straight into an integer
    table, and at u_k = (s + x)/(1 + s x) given as integer polynomials
    (``series.u_coordinates``) a pair of integer series.

    With t = e/f, u_i = a/b, u_j = c/d, B = bd and P = ac, the gamma = 1
    entry is (ad - cb) N / ((f + e)(B - P)(f^2 B - e^2 P)) with
    N = (f^2 + e^2)(f B - e P) + (ad + cb) e (f - e) f, f^2 B - e^2 P being
    ``arith.one_minus(u_i, u_j, t)``.  With gamma = g/h,
    gamma_inv_s = k/kd and s = sn/sd, the correction (gamma - 1) F of the
    core puts N over G = h^2 kd^2 (f + e)(sd b - sn a)(sd d - sn c) and adds
    (g - h)(e kd - k f)(B - P) sd^2 R, R being the bracket's numerator over
    h f^3 kd B; the label-0 entry is 1 + (g - h)(e kd - k f)(d - c) sd over
    h kd (f + e)(sd d - sn c).  Each pole is read off the denominator that
    vanishes with it (``_vanishes``), in the ring formula's order and with
    its names.  At series u the factor B - P has the constant term
    b_0^2 - a_0^2 of 1 - s^2 (tail s): it cancels out of the entry, against
    ad - cb, but is still raised, as the ring formula raises it."""
    e, f = t.numerator, t.denominator
    g, h = gamma.numerator, gamma.denominator
    k, kd = gamma_inv_s.numerator, gamma_inv_s.denominator
    sn, sd = s.numerator, s.denominator
    uj = u[j - 1]
    c, d = uj.numerator, uj.denominator
    if i == 0:
        if g == h:  # gamma = 1
            return 1, 1
        den = h * kd * (f + e) * (sd * d - sn * c)
        if _vanishes(den):
            raise PoleError("(1+t)(1 - s*u_%d)" % j)
        num = den + (g - h) * (e * kd - k * f) * (d - c) * sd
    else:
        ui = u[i - 1]
        a, b = ui.numerator, ui.denominator
        B, P = b * d, a * c
        ad, cb = a * d, c * b
        fB_eP = f * B - e * P
        num = (f * f + e * e) * fB_eP + (ad + cb) * e * (f - e) * f
        den = (f + e) * (B - P) * one_minus(ui, uj, t)
        if g != h:
            G = h * h * kd * kd * (f + e) * (sd * b - sn * a) * (sd * d - sn * c)
            if _vanishes(G):
                raise PoleError("(1+t)(1 - s*u_%d)(1 - s*u_%d)" % (i, j))
            bracket = (
                (f + e) * (kd + k) * (f * f * h * B + e * e * g * P)
                + (h + g) * (e * e * kd - k * f * f) * fB_eP
                - (h + g) * e * f * (e * kd + k * f) * (ad + cb)
            )
            num = num * G + (g - h) * (e * kd - k * f) * (B - P) * sd * sd * bracket
            den *= G
        if _vanishes(den):
            raise PoleError("(1+t)(1 - u_%d*u_%d)(1 - q*u_%d*u_%d)" % (i, j, i, j))
        num *= ad - cb
    return num, den


def _ring_entry(i, j, u, t, gamma, s, gamma_inv_s):
    """``m_gamma_entry`` by the ring formula, for u in any ring (the series
    Pfaffian side, and the reference the closed form is tested against)."""
    q = t * t
    if i == 0:
        if gamma == 1:
            return Fraction(1)
        uj = u[j - 1]
        return 1 + (gamma - 1) * (t - gamma_inv_s) * (1 - uj) * invert(
            (1 + t) * (1 - s * uj), "(1+t)(1 - s*u_%d)" % j
        )
    ui, uj = u[i - 1], u[j - 1]
    uij = ui * uj
    core = (1 + q) * (1 - t * uij) + (ui + uj) * (t - q)
    if gamma != 1:
        bracket = (
            (1 + t) * (1 + gamma_inv_s) * (1 + q * gamma * uij)
            + (1 + gamma) * (q - gamma_inv_s) * (1 - t * uij)
            - (1 + gamma) * t * (t + gamma_inv_s) * (ui + uj)
        )
        f = (
            (t - gamma_inv_s)
            * (1 - uij)
            * invert(
                (1 + t) * (1 - s * ui) * (1 - s * uj),
                "(1+t)(1 - s*u_%d)(1 - s*u_%d)" % (i, j),
            )
            * bracket
        )
        core = core + (gamma - 1) * f
    return (
        (ui - uj)
        * core
        * invert(
            (1 + t) * (1 - uij) * (1 - q * uij),
            "(1+t)(1 - u_%d*u_%d)(1 - q*u_%d*u_%d)" % (i, j, i, j),
        )
    )


def s_over_gamma(s, gamma):
    """s/gamma, and 0 at s = gamma = 0: the s = 0 then gamma = 0
    specialization, along which s/gamma is identically 0."""
    if gamma == 0:
        if s != 0:
            raise ValueError("gamma = 0 requires s = 0: s/gamma has no limit otherwise")
        return Fraction(0)
    return s / gamma


@dataclass(frozen=True)
class MGammaSpec:
    """Data defining the gamma-refined matrix: a point, gamma, and the scalar s
    standing in for the first spin value in the entries.

    ``gamma_inv_s`` defaults to ``s_over_gamma(s, gamma)``; passing it
    explicitly lets s/gamma keep any value as s and gamma both go to 0.
    """

    point: ParamPoint
    gamma: Fraction
    s: Fraction
    gamma_inv_s: Fraction = None

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "s", Fraction(self.s))
        if self.gamma_inv_s is None:
            object.__setattr__(self, "gamma_inv_s", s_over_gamma(self.s, self.gamma))
        else:
            object.__setattr__(self, "gamma_inv_s", Fraction(self.gamma_inv_s))


def m_gamma(spec, T, u=None):
    """Skew matrix of the gamma-refined Pfaffian over the block labels of T.

    ``u`` optionally overrides the point's spectral values (used for the
    substituted matrices in the key-lemma checks)."""
    uvals = spec.point.u if u is None else tuple(u)
    return SkewMatrix.from_function(
        subset_labels(T),
        lambda a, b: m_gamma_entry(a, b, uvals, spec.point.t, spec.gamma, spec.s, spec.gamma_inv_s),
    )


def _entry_table(spec, labels, u):
    """The entries of ``m_gamma`` over ``labels`` (in table order) at the
    rational ``u``, cleared to integers as ``SkewMatrix`` clears a rational
    table, but with no entry formed as a Fraction: each entry is the integer
    pair of ``closed_quotient`` over its gcd, d_a is the lcm of the
    denominators in the row of label a, and the entry of D M D at (a, b) is
    num d_a d_b / den.  Returns D M D as a ``SkewMatrix`` of ints, whose
    Pfaffian over a block S is prod_{a in S} d_a Pf(M_S), and the d_a in
    table order.  The poles are raised in the order of ``m_gamma``."""
    t, gamma, s, gis = spec.point.t, spec.gamma, spec.s, spec.gamma_inv_s
    labels = tuple(labels)
    pairs, scale = {}, [1] * len(labels)
    for x, y in combinations(range(len(labels)), 2):
        num, den = closed_quotient(labels[x], labels[y], u, t, gamma, s, gis)
        common = gcd(num, den)
        pairs[x, y] = num // common, den // common
        scale[x], scale[y] = lcm(scale[x], den // common), lcm(scale[y], den // common)
    upper = {(labels[x], labels[y]): num * (scale[x] // den) * scale[y] for (x, y), (num, den) in pairs.items()}
    return SkewMatrix(labels, upper), scale


def block_pfaffians(spec):
    """Pf(m_gamma(spec, T)) for every subset T of [n], keyed by T in order of
    size, as integer numerators over one denominator, the row a subset sum
    reads (``identities._subset_product_sum``).  The entries over the labels
    0..n are cleared to integers once (``_entry_table``), every block over
    ``subset_labels(T)`` is expanded from that table's one memo
    (``SkewMatrix.pfaffians``), and the block's prod_{a in S} d_a Pf(M_S) is
    put over prod_a d_a.  Returns the numerators and that denominator."""
    point = spec.point
    table, scale = _entry_table(spec, range(point.n + 1), point.u)
    den = prod(scale)
    subsets = [T for size in range(point.n + 1) for T in combinations(range(1, point.n + 1), size)]
    blocks = [subset_labels(T) for T in subsets]
    pfs = table.pfaffians(blocks)
    return {T: pf.numerator * (den // prod(scale[a] for a in S)) for T, S, pf in zip(subsets, blocks, pfs)}, den


def gamma_pfaffian(spec, T, u=None):
    """Pf(m_gamma(spec, T, u)) at rational u, from the integer table of its
    entries (``_entry_table``): the Pfaffian of D M D over prod_a d_a."""
    uvals = spec.point.u if u is None else tuple(u)
    table, scale = _entry_table(spec, subset_labels(T), uvals)
    return Fraction(table.pfaffian().numerator, prod(scale))


def b_determinant(T, t, u):
    """det B(T, T) of ``b_matrix``, prod_{i<k in T} (1 - u_i u_k)(1 - q u_i u_k)
    with q = t^2 over the 1-based labels T, as one integer over one integer:
    with u_i = a_i/b_i, t = e/f, P = a_i a_k and B = b_i b_k each pair is
    (B - P)(f^2 B - e^2 P) over (f B)^2, that is
    ``arith.one_minus(u_i, u_k) * one_minus(u_i, u_k, t)``, with e^2 and f^2
    taken once."""
    e2, f2 = t.numerator**2, t.denominator**2
    parts = [(u[i - 1].numerator, u[i - 1].denominator) for i in T]
    num = den = 1
    for (a, b), (c, d) in combinations(parts, 2):
        P, B = a * c, b * d
        num *= (B - P) * (f2 * B - e2 * P)
        den *= f2 * B * B
    return Fraction(num, den)


def conjugated_pfaffian(spec, T, u=None):
    """The Pfaffian of the matrix over T conjugated by the diagonal
    B = B(T, T) of ``b_matrix``, without conjugating its entries:
    Pf(B M B) = det(B) Pf(M), det(B) in closed form (``b_determinant``) and
    Pf(M) from the integer table of the entries (``gamma_pfaffian``)."""
    T = tuple(T)
    uvals = spec.point.u if u is None else tuple(u)
    return b_determinant(T, spec.point.t, uvals) * gamma_pfaffian(spec, T, uvals)


def littlewood_kernel(u, q):
    """prod_i 1/(1 - u_i) prod_{i<j} (1 - q u_i u_j)/(1 - u_i u_j) over the
    list ``u``, whose entries may be rationals or series alike."""
    out = Fraction(1)
    for i, ui in enumerate(u):
        out = out * invert(1 - ui, "1 - u_%d" % (i + 1))
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            out = out * (1 - q * u[i] * u[j])
            out = out * invert(1 - u[i] * u[j], "1 - u_%d*u_%d" % (i + 1, j + 1))
    return out


def rhs_main1(point):
    """Product side of the factorized Littlewood identity."""
    return littlewood_kernel(point.u, point.q)


def pfaffian_kernel(u, t):
    """prod_i (1+t)/(1 - u_i) prod_{i<j} (1 - q u_i u_j), q = t^2, over the
    list ``u``, whose entries may be rationals or series alike."""
    q = t * t
    out = Fraction(1)
    for i, ui in enumerate(u):
        out = out * (1 + t) * invert(1 - ui, "1 - u_%d" % (i + 1))
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            out = out * (1 - q * u[i] * u[j])
    return out


def kernel_over_differences(u, t, labels):
    """``pfaffian_kernel`` of the u_i with i in ``labels`` (1-based, in
    order) times prod_{i<j} 1/(u_i - u_j): the Pfaffian side without its
    Pfaffian."""
    out = pfaffian_kernel([u[i - 1] for i in labels], t)
    for a, i in enumerate(labels):
        for j in labels[a + 1 :]:
            out *= invert(u[i - 1] - u[j - 1], "u_%d - u_%d" % (i, j))
    return out


def pfaffian_side(spec, T):
    """Kernel times Pfaffian of the gamma-refined identity over the labels T:
    prod_{i in T} (1+t)/(1-u_i) prod_{i<j in T} (1-q u_i u_j)/(u_i-u_j)
    times the Pfaffian of ``m_gamma(spec, T)``."""
    T = tuple(T)
    return kernel_over_differences(spec.point.u, spec.point.t, T) * gamma_pfaffian(spec, T)


def rhs_main2(spec):
    """Kernel times Pfaffian on the gamma-refined identity's product side."""
    return pfaffian_side(spec, range(1, spec.point.n + 1))


def cor_entry(i, j, u, t):
    """Entry (i, j) of the gamma = 1 matrix, written out directly: the row 0
    entries are 1 and for i >= 1 the entry is
    (u_i-u_j)((1+q)(1-t u_i u_j)+(u_i+u_j)(t-q)) / ((1+t)(1-u_i u_j)(1-q u_i u_j))."""
    if i == 0:
        return Fraction(1)
    q = t * t
    ui, uj = u[i - 1], u[j - 1]
    uij = ui * uj
    num = (ui - uj) * ((1 + q) * (1 - t * uij) + (ui + uj) * (t - q))
    return num * invert(
        (1 + t) * (1 - uij) * (1 - q * uij),
        "(1+t)(1 - u_%d*u_%d)(1 - q*u_%d*u_%d)" % (i, j, i, j),
    )


def rhs_cor(point):
    """Product side of the Pfaffian-form identity at gamma = 1, built from the
    explicit matrix rather than the gamma-refined entries."""
    labels = tuple(range(1, point.n + 1))
    out = kernel_over_differences(point.u, point.t, labels)
    mat = SkewMatrix.from_function(
        subset_labels(labels), lambda a, b: cor_entry(a, b, point.u, point.t)
    )
    return out * mat.pfaffian()
