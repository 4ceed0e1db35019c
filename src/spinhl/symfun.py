"""Spin Hall-Littlewood functions via the symmetrizer formula, with Schur and
Hall-Littlewood oracles and the length recurrence.

F_lambda(u_1..u_n | s_0, s_1, ...) is the symmetrization over all orderings of
the u_i of

    prod_{i<j} (u_i - q u_j)/(u_i - u_j)
    * prod_i (1-q)/(1 - s_{lambda_i} u_i) * prod_{j < lambda_i} (u_i - s_j)/(1 - s_j u_i).

Setting q = 0 and all s_j = 0 yields Schur polynomials; setting only s_j = 0
yields Hall-Littlewood polynomials up to the factor prod_r (q;q)_{m_r(lambda)}.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import prod

from .arith import PoleError, invert, over_common_denominator, perm_sign, qpoch, rat_str
from .pfaffian import det

SYMMETRIZE_CAP = 8


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of non-negative integers; zero parts allowed."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(v) for v in self.parts)
        if any(v < 0 for v in parts):
            raise ValueError("parts must be non-negative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    @property
    def size(self):
        return sum(self.parts)

    def m(self, r):
        """Number of parts equal to r."""
        return self.parts.count(r)

    def multiplicities(self):
        """Map r -> m_r over the part values actually present (zeros included)."""
        out = {}
        for v in self.parts:
            out[v] = out.get(v, 0) + 1
        return out


def as_parts(lam):
    """Coerce a Partition or iterable to a validated parts tuple."""
    if isinstance(lam, Partition):
        return lam.parts
    return Partition(tuple(lam)).parts


def multiplicities(lam):
    return Partition(as_parts(lam)).multiplicities()


def bounded_partitions(n, max_part):
    """All weakly decreasing length-n tuples with entries in [0, max_part],
    in graded order (by size, then reverse-lex)."""
    out = []

    def rec(prefix, bound):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(bound + 1):
            rec(prefix + [v], v)

    rec([], max_part)
    out.sort(key=lambda lam: (sum(lam), tuple(-v for v in lam)))
    return out


def truncated_partition_list(n, p, budget):
    """Partitions entering a truncated sum: length n, largest part at most
    p + budget, and total excess sum_i max(lambda_i - p, 0) at most budget."""
    return [
        lam
        for lam in bounded_partitions(n, p + budget)
        if sum(max(v - p, 0) for v in lam) <= budget
    ]


def _pole_at(exc, ordering):
    """PoleError naming the vanishing denominator and the u-ordering it hit."""
    what = exc.what if isinstance(exc, PoleError) else str(exc)
    return PoleError("%s at ordering (%s)" % (what, ", ".join(rat_str(v) for v in ordering)))


def _check_cap(n, what):
    if n > SYMMETRIZE_CAP:
        raise ValueError("%s over %d! orderings exceeds cap %d" % (what, n, SYMMETRIZE_CAP))


def symmetrize(g, u):
    """Sum of g over all orderings of the argument list u."""
    u = tuple(u)
    _check_cap(len(u), "symmetrization")
    total = Fraction(0)
    for ordering in permutations(u):
        try:
            total += g(ordering)
        except ZeroDivisionError as exc:
            raise _pole_at(exc, ordering) from exc
    return total


def antisymmetrize(g, u):
    """Signed sum of g over all orderings of the argument list u."""
    u = tuple(u)
    _check_cap(len(u), "antisymmetrization")
    total = Fraction(0)
    for perm in permutations(range(len(u))):
        ordering = tuple(u[i] for i in perm)
        try:
            total += perm_sign(perm) * g(ordering)
        except ZeroDivisionError as exc:
            raise _pole_at(exc, ordering) from exc
    return total


def permutation_sum(pair, single, den, signed=False):
    """Sum over the orderings sigma of range(n) of [sgn(sigma)] *
    prod_{i<j} pair[sigma_i][sigma_j] * prod_i single[sigma_i][i], over den.

    The tables hold integers (``single`` row a for value a, column i for the
    position).  The sum is a transfer over the set S of values already
    placed, 2^n states instead of n! orderings: placing a at position |S|
    takes single[a][|S|] and pair[a][b] for every b still to come, and each
    such b < a is an inversion, a sign flip when ``signed``.
    """
    n = len(single)
    _check_cap(n, "antisymmetrization" if signed else "symmetrization")
    level = {0: 1}
    for i in range(n):
        nxt = {}
        for placed, val in level.items():
            rest = [a for a in range(n) if not placed >> a & 1]
            for idx, a in enumerate(rest):
                row, term = pair[a], val * single[a][i]
                for b in rest:
                    if b != a:
                        term *= row[b]
                key = placed | 1 << a
                nxt[key] = nxt.get(key, 0) + (-term if signed and idx % 2 else term)
        level = nxt
    (total,) = level.values()
    return Fraction(total, den)


def _pair_table(x, q):
    """Integer numerators of (x_a - q x_b)/(x_a - x_b) for distinct x, and
    the product of the pair denominators: with x_a = p_a/r_a and q = e/f both
    orders of {a, b} are over f (p_a r_b - p_b r_a), up to sign."""
    e, f = q.numerator, q.denominator
    pair = [[0] * len(x) for _ in x]
    den = 1
    for a, b in combinations(range(len(x)), 2):
        ab, ba = x[a].numerator * x[b].denominator, x[b].numerator * x[a].denominator
        pair[a][b], pair[b][a] = f * ab - e * ba, e * ab - f * ba
        den *= f * (ab - ba)
    return pair, den


def f_lambda(lam, point):
    """Exact value of the spin Hall-Littlewood function at a generic point,
    by the symmetrizer formula summed by ``permutation_sum``.

    The pair factors (u_a - q u_b)/(u_a - u_b) and, for every variable u_a
    and part value k, the factor (1-q)/(1 - s_k u_a) * prod_{j<k} (u_a - s_j)/(1 - s_j u_a)
    are tabulated once as integers: with u_a = p/r and s_j = c_j/d_j the
    latter is (1-q) r d_k / prod_{j<=k} (r d_j - c_j p) * prod_{j<k} (p d_j - c_j r),
    and the (1-q)^n of every ordering multiplies the sum once.  A vanishing
    denominator is reported at the first ordering, position and factor that
    evaluating the terms one by one meets.
    """
    lam = as_parts(lam)
    n = len(lam)
    if len(point.u) != n:
        raise ValueError("partition length %d != number of spectral values %d" % (n, len(point.u)))
    _check_cap(n, "symmetrization")
    u, q = point.u, point.q
    for i, j in combinations(range(n), 2):
        if u[i] == u[j]:
            raise _pole_at(PoleError("u_%d - u_%d" % (i + 1, j + 1)), u)
    spins = [point.spin.lookup(j) for j in range(max(lam, default=0) + 1)]
    nums, dens = [], []  # per a: p d_j - c_j r and r d_j - c_j p, j <= lambda_1
    pole = {}  # (a, k) -> j of the first vanishing 1 - s_j u_a a term checks
    for a, ua in enumerate(u):
        p, r = ua.numerator, ua.denominator
        nums.append([p * s.denominator - s.numerator * r for s in spins])
        dens.append([r * s.denominator - s.numerator * p for s in spins])
        if 0 not in dens[a]:
            continue
        for k in set(lam):
            j = next((j for j in (k, *range(k)) if dens[a][j] == 0), None)
            if j is not None:
                pole[a, k] = j
    if pole:
        for perm in permutations(range(n)):
            for i, a in enumerate(perm):
                if (a, lam[i]) in pole:
                    what = "1 - s_%d*u_%d" % (pole[a, lam[i]], i + 1)
                    raise _pole_at(PoleError(what), tuple(u[b] for b in perm))
    pair, den = _pair_table(u, q)
    single = [
        [ua.denominator * spins[k].denominator * prod(nums[a][:k]) * prod(dens[a][k + 1 :]) for k in lam]
        for a, ua in enumerate(u)
    ]
    return (1 - q) ** n * permutation_sum(pair, single, den * prod(map(prod, dens)))


def f_lambda_recurrence_rhs(lam, point):
    """Right-hand side of the length recurrence: strip the repeated smallest
    part l, sum over which k of the u_i carry the shortened partition, and
    recurse with spins shifted past s_l."""
    lam = as_parts(lam)
    n = len(lam)
    if n == 0:
        raise ValueError("recurrence needs a nonempty partition")
    if len(point.u) != n:
        raise ValueError("partition length mismatch")
    low = lam[-1]
    mult = lam.count(low)
    k = n - mult
    q = point.q
    spin = point.spin
    u = point.u
    pref = qpoch(q, q, mult)
    for i in range(n):
        pref *= invert(1 - spin.lookup(low) * u[i], "1 - s_%d*u_%d" % (low, i + 1))
        for j in range(low):
            sj = spin.lookup(j)
            pref *= (u[i] - sj) * invert(1 - sj * u[i], "1 - s_%d*u_%d" % (j, i + 1))
    shifted = spin.shift(low + 1)
    reduced = tuple(v - low - 1 for v in lam[:k])
    total = Fraction(0)
    for T in combinations(range(n), k):
        Tc = [j for j in range(n) if j not in T]
        term = Fraction(1)
        for i in T:
            term *= u[i] - spin.lookup(low)
            for j in Tc:
                term *= (u[i] - q * u[j]) * invert(u[i] - u[j], "u_%d - u_%d" % (i + 1, j + 1))
        sub = point.with_spin(shifted).restrict(T)
        total += term * f_lambda(reduced, sub)
    return pref * total


@lru_cache(maxsize=4096)
def rows_between(row, strict=True):
    """All strictly (or weakly) increasing rows b with row[j] <= b[j] <= row[j+1],
    as a tuple of tuples.

    The Schur, Robbins and monotone-triangle routes ask for the same rows
    over and over, across shapes too, so the answers are kept in a bounded
    cache keyed by the tuple ``row``; being tuples, they cannot be changed
    under a later caller."""
    m = len(row)
    if m == 1:
        return ()
    out = []

    def rec(j, acc):
        if j == m - 1:
            out.append(tuple(acc))
            return
        lo = row[j]
        if acc:
            lo = max(lo, acc[-1] + (1 if strict else 0))
        for val in range(lo, row[j + 1] + 1):
            acc.append(val)
            rec(j + 1, acc)
            acc.pop()

    rec(0, [])
    return tuple(out)


def interlacing_sum(bottom, strict, key, entry):
    """Exact sum, over all patterns of interlacing rows on ``bottom`` (rows
    strictly or weakly increasing, see ``rows_between``), of
    prod_i entry(i, key(i, above, row)).

    Row i is numbered from the top, so it has i + 1 entries, and the top row
    steps to the empty row ().  The sum runs as a transfer over the distinct
    rows of each level, never materializing a pattern: the reachable rows and
    their edges are collected bottom up; then, top level first, each level's
    distinct entries are tabulated over one common denominator (so an error
    ``entry`` raises names the smallest row some pattern needs) and the
    integer numerators are carried one level down; the sum is divided once.
    """
    bottom = tuple(bottom)
    levels = []  # bottom up: row -> [(above, key)]
    rows = [bottom]
    for i in range(len(bottom) - 1, -1, -1):
        edges = {}
        for row in rows:
            aboves = rows_between(row, strict) if i else [()]
            edges[row] = [(above, key(i, above, row)) for above in aboves]
        levels.append(edges)
        rows = dict.fromkeys(above for pairs in edges.values() for above, _ in pairs)
    values, den = {(): 1}, 1
    for i, edges in enumerate(reversed(levels)):
        keys = list(dict.fromkeys(k for pairs in edges.values() for _, k in pairs))
        nums, d = over_common_denominator(entry(i, k) for k in keys)
        num = dict(zip(keys, nums))
        values = {
            row: sum(values[above] * num[k] for above, k in pairs) for row, pairs in edges.items()
        }
        den *= d
    return Fraction(values[bottom], den)


def schur_gt(lam, x):
    """Schur polynomial as the Gelfand-Tsetlin generating function: the
    ``interlacing_sum`` of prod_i x_i^(row-sum increment) over the weakly
    increasing patterns on lambda reversed."""
    x = tuple(Fraction(v) for v in x)
    n = len(x)
    lam = as_parts(lam)
    if len(lam) > n:
        raise ValueError("partition longer than variable list")
    lam = lam + (0,) * (n - len(lam))
    increment = lambda i, above, row: sum(row) - sum(above)
    return interlacing_sum(tuple(reversed(lam)), False, increment, lambda i, e: x[i] ** e)


def schur_bialternant(lam, x):
    """Schur polynomial as a ratio of alternants; needs distinct x_i.

    With x_i = p_i/r_i, exponents k_j = lambda_j + n - 1 - j and K = k_0 =
    lambda_1 + n - 1, row i of the numerator alternant times r_i^K is the
    integer row [p_i^(k_j) r_i^(K - k_j)], so ``det`` of those rows is
    divided by (prod_i r_i)^K and by the Vandermonde prod_{i<j} (x_i - x_j).
    That is prod_{i<j} (p_i r_j - p_j r_i) over (prod_i r_i)^(n-1), so the
    divisor is (prod_i r_i)^lambda_1 times those integer differences."""
    x = tuple(Fraction(v) for v in x)
    n = len(x)
    lam = as_parts(lam)
    if len(lam) > n:
        raise ValueError("partition longer than variable list")
    lam = lam + (0,) * (n - len(lam))
    if len(set(x)) != n:
        raise PoleError("x_i - x_j")
    exps = [lam[j] + n - 1 - j for j in range(n)]
    p = [xi.numerator for xi in x]
    r = [xi.denominator for xi in x]
    num = det([[pi**k * ri ** (exps[0] - k) for k in exps] for pi, ri in zip(p, r)])
    diffs = prod(p[i] * r[j] - p[j] * r[i] for i, j in combinations(range(n), 2))
    return num / (prod(r) ** max(lam, default=0) * diffs)


def schur(lam, x):
    """Schur polynomial, computed by pattern enumeration and, when the x_i are
    distinct, cross-checked against the alternant ratio."""
    value = schur_gt(lam, x)
    if len(set(x)) == len(tuple(x)):
        alt = schur_bialternant(lam, x)
        if alt != value:
            raise AssertionError("Schur evaluations disagree: %s vs %s" % (value, alt))
    return value


def hall_littlewood_P(lam, x, q):
    """Hall-Littlewood polynomial P_lambda(x; q) by its symmetrizer formula,
    with the pair factors and the powers x_a^(lambda_i) tabulated once as
    integers (see ``permutation_sum``)."""
    x = tuple(Fraction(v) for v in x)
    q = Fraction(q)
    n = len(x)
    lam = as_parts(lam)
    if len(lam) > n:
        raise ValueError("partition longer than variable list")
    lam = lam + (0,) * (n - len(lam))
    if len(set(x)) != n:
        raise PoleError("x_i - x_j")
    norm = Fraction(1 - q) ** n
    for m in multiplicities(lam).values():
        norm *= invert(qpoch(q, q, m), "(q; q)_%d" % m)
    pair, den = _pair_table(x, q)
    top = max(lam, default=0)
    single = [[xa.numerator**k * xa.denominator ** (top - k) for k in lam] for xa in x]
    return norm * permutation_sum(pair, single, den * prod(xa.denominator for xa in x) ** top)
