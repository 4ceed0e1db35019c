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
from itertools import combinations, permutations

from .arith import PoleError, perm_sign, qpoch, rat_str
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


def symmetrize(g, u, cap=SYMMETRIZE_CAP):
    """Sum of g over all orderings of the argument list u."""
    u = tuple(u)
    if len(u) > cap:
        raise ValueError("symmetrization over %d! orderings exceeds cap %d" % (len(u), cap))
    total = Fraction(0)
    for ordering in permutations(u):
        try:
            total += g(ordering)
        except ZeroDivisionError as exc:
            raise _pole_at(exc, ordering) from exc
    return total


def antisymmetrize(g, u, cap=SYMMETRIZE_CAP):
    """Signed sum of g over all orderings of the argument list u."""
    u = tuple(u)
    if len(u) > cap:
        raise ValueError("antisymmetrization over %d! orderings exceeds cap %d" % (len(u), cap))
    total = Fraction(0)
    for perm in permutations(range(len(u))):
        ordering = tuple(u[i] for i in perm)
        try:
            total += perm_sign(perm) * g(ordering)
        except ZeroDivisionError as exc:
            raise _pole_at(exc, ordering) from exc
    return total


def _f_term(lam, spin, q):
    """The expression inside the symmetrizer, as a function of one u-ordering."""

    def term(u):
        n = len(u)
        val = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                d = u[i] - u[j]
                if d == 0:
                    raise PoleError("u_%d - u_%d" % (i + 1, j + 1))
                val *= (u[i] - q * u[j]) / d
        for i in range(n):
            d = 1 - spin.lookup(lam[i]) * u[i]
            if d == 0:
                raise PoleError("1 - s_%d*u_%d" % (lam[i], i + 1))
            val *= (1 - q) / d
            for j in range(lam[i]):
                d = 1 - spin.lookup(j) * u[i]
                if d == 0:
                    raise PoleError("1 - s_%d*u_%d" % (j, i + 1))
                val *= (u[i] - spin.lookup(j)) / d
        return val

    return term


def f_lambda(lam, point):
    """Exact value of the spin Hall-Littlewood function at a generic point."""
    lam = as_parts(lam)
    n = len(lam)
    if len(point.u) != n:
        raise ValueError("partition length %d != number of spectral values %d" % (n, len(point.u)))
    if n == 0:
        return Fraction(1)
    return symmetrize(_f_term(lam, point.spin, point.q), point.u)


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
        d = 1 - spin.lookup(low) * u[i]
        if d == 0:
            raise PoleError("1 - s_%d*u_%d" % (low, i + 1))
        pref /= d
        for j in range(low):
            d = 1 - spin.lookup(j) * u[i]
            if d == 0:
                raise PoleError("1 - s_%d*u_%d" % (j, i + 1))
            pref *= (u[i] - spin.lookup(j)) / d
    shifted = spin.shift(low + 1)
    reduced = tuple(v - low - 1 for v in lam[:k])
    total = Fraction(0)
    for T in combinations(range(n), k):
        Tc = [j for j in range(n) if j not in T]
        term = Fraction(1)
        for i in T:
            term *= u[i] - spin.lookup(low)
            for j in Tc:
                d = u[i] - u[j]
                if d == 0:
                    raise PoleError("u_%d - u_%d" % (i + 1, j + 1))
                term *= (u[i] - q * u[j]) / d
        sub = point.with_spin(shifted).restrict(T)
        total += term * f_lambda(reduced, sub)
    return pref * total


def _gt_rows_above(row):
    """Weakly increasing rows b with row[j] <= b[j] <= row[j+1] (Gelfand-Tsetlin step)."""
    m = len(row)
    out = []

    def rec(j, acc):
        if j == m - 1:
            out.append(tuple(acc))
            return
        lo = max(row[j], acc[-1]) if acc else row[j]
        for v in range(lo, row[j + 1] + 1):
            acc.append(v)
            rec(j + 1, acc)
            acc.pop()

    if m == 1:
        return []
    rec(0, [])
    return out


def _gt_patterns(bottom):
    """All Gelfand-Tsetlin patterns over the given weakly increasing bottom row,
    as lists of rows from top (1 entry) to bottom."""
    if len(bottom) == 1:
        return [[tuple(bottom)]]
    out = []
    for above in _gt_rows_above(tuple(bottom)):
        for pat in _gt_patterns(above):
            out.append(pat + [tuple(bottom)])
    return out


def schur_gt(lam, x):
    """Schur polynomial as the Gelfand-Tsetlin generating function."""
    x = tuple(Fraction(v) for v in x)
    n = len(x)
    lam = as_parts(lam)
    if len(lam) > n:
        raise ValueError("partition longer than variable list")
    lam = lam + (0,) * (n - len(lam))
    bottom = tuple(reversed(lam))
    total = Fraction(0)
    for pat in _gt_patterns(bottom):
        weight = Fraction(1)
        prev = 0
        for i, row in enumerate(pat):
            cur = sum(row)
            weight *= x[i] ** (cur - prev)
            prev = cur
        total += weight
    return total


def schur_bialternant(lam, x):
    """Schur polynomial as a ratio of alternants; needs distinct x_i."""
    x = tuple(Fraction(v) for v in x)
    n = len(x)
    lam = as_parts(lam)
    lam = lam + (0,) * (n - len(lam))
    if len(set(x)) != n:
        raise PoleError("x_i - x_j")
    num = det([[xi ** (lam[j] + n - 1 - j) for j in range(n)] for xi in x])
    den = det([[xi ** (n - 1 - j) for j in range(n)] for xi in x])
    return num / den


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
    """Hall-Littlewood polynomial P_lambda(x; q) by its symmetrizer formula."""
    x = tuple(Fraction(v) for v in x)
    q = Fraction(q)
    n = len(x)
    lam = as_parts(lam)
    if len(lam) > n:
        raise ValueError("partition longer than variable list")
    lam = lam + (0,) * (n - len(lam))
    if len(set(x)) != n:
        raise PoleError("x_i - x_j")

    def term(xs):
        val = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                val *= (xs[i] - q * xs[j]) / (xs[i] - xs[j])
        for i in range(n):
            val *= xs[i] ** lam[i]
        return val

    norm = Fraction(1 - q) ** n
    for m in multiplicities(lam).values():
        norm /= qpoch(q, q, m)
    return norm * symmetrize(term, x)
