"""The table-driven scalar routes against plain references kept here.

Each reference evaluates its formula term by term, the way the library did
before the factor tables: a closure term summed by the public
``symmetrize``/``antisymmetrize``, ``mt_weight`` summed over
``monotone_triangles``, or a product of powers summed over Gelfand-Tsetlin
patterns built one by one.  The subset transfer ``permutation_sum`` is
checked against the loop over all n! orderings it replaced, and ``f_lambda``
against the vertex model at six and seven variables.  The vertex transfer is
checked against the plain ensemble enumeration, past the largest part where
the reachability prune acts.
The key-lemma right sides are checked against their subset sums term by
term, each conjugated Pfaffian built from its own matrix, and the subset-sum
engine under them against a loop over the subsets on ``Fraction``s.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from spinhl import vertex
from spinhl.arith import ParamPoint, PoleError, SpinParams, perm_sign, qpoch, sample_point
from spinhl.identities import _subset_product_sum, key_lemma1_sides, key_lemma2_sides, lemma_point
from spinhl.pfaffian import MGammaSpec, m_conjugated
from spinhl.robbins import (
    monotone_triangles,
    mt_weight,
    robbins_bialternant,
    robbins_star_bialternant,
    robbins_star_enum,
)
from spinhl.symfun import (
    antisymmetrize,
    bounded_partitions,
    f_lambda,
    hall_littlewood_P,
    multiplicities,
    permutation_sum,
    rows_between,
    schur_bialternant,
    schur_gt,
    symmetrize,
)
from spinhl.vertex import ensemble_weight, enumerate_ensembles, f_lambda_vertex

SEEDS = (7, 8)
MAX_PART = {1: 4, 2: 3, 3: 3, 4: 2, 5: 2}
BOTTOMS = ((0,), (2,), (1, 2), (0, 3), (1, 2, 3), (0, 2, 5), (1, 2, 3, 4), (0, 1, 3, 6), (1, 2, 3, 4, 5), (0, 2, 3, 5, 6))


def spin_poles(jmax):
    return [lambda pt: math.prod(1 - pt.s(j) * ui for j in range(jmax + 1) for ui in pt.u)]


def seeded_points(seed):
    for n, max_part in MAX_PART.items():
        for p in range(3):
            yield sample_point(seed, n, p=p, pole_list=spin_poles(max_part)), bounded_partitions(n, max_part)


def f_reference(lam, point):
    spin, q = point.spin, point.q

    def term(u):
        n = len(u)
        val = F(1)
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

    return symmetrize(term, point.u)


def reference_permutation_sum(pair, single, den, signed=False):
    """The integer tables of ``permutation_sum`` summed ordering by ordering."""
    n = len(single)
    total = 0
    for perm in permutations(range(n)):
        term = math.prod(pair[perm[i]][perm[j]] for i, j in combinations(range(n), 2))
        term *= math.prod(single[a][i] for i, a in enumerate(perm))
        total += -term if signed and perm_sign(perm) < 0 else term
    return F(total, den)


def gt_patterns(bottom):
    """All Gelfand-Tsetlin patterns over the given weakly increasing bottom row,
    as lists of rows from top (1 entry) to bottom."""
    if len(bottom) == 1:
        return [[tuple(bottom)]]
    out = []
    for above in rows_between(tuple(bottom), strict=False):
        for pat in gt_patterns(above):
            out.append(pat + [tuple(bottom)])
    return out


def vandermonde(x):
    return math.prod((x[j] - x[i] for i in range(len(x)) for j in range(i + 1, len(x))), start=F(1))


def star_reference(k, x, u, v, w):
    n = len(k)

    def g(xs):
        val = F(1)
        for i in range(n):
            for j in range(i + 1, n):
                val *= u * xs[i] * xs[j] + v + w * xs[i]
        for i in range(n):
            val *= xs[i] ** k[i]
        return val

    return antisymmetrize(g, x) / vandermonde(x)


def robbins_reference(k, x, t, u, v, w):
    n = len(k)

    def g(xs):
        val = F(1)
        for i in range(n):
            for j in range(i, n):
                val *= t * xs[j] + u * xs[i] * xs[j] + v + w * xs[i]
        for i in range(n):
            val *= xs[i] ** (k[i] - 1)
        return val

    return antisymmetrize(g, x) / vandermonde(x)


def subsets(idx):
    for size in range(len(idx) + 1):
        for T in combinations(idx, size):
            yield T, tuple(j for j in idx if j not in T)


def key_lemma1_rhs(u, q, s):
    n = len(u)
    rhs = F(0)
    for T, Tc in subsets(tuple(range(n))):
        term = F(perm_sign(T + Tc)) * qpoch(-s, q, n - len(T))
        for j in Tc:
            term *= 1 - u[j]
        for i in T:
            term *= u[i] - s
        for a in range(len(Tc)):
            for b in range(a + 1, len(Tc)):
                term *= (1 - u[Tc[a]] * u[Tc[b]]) * (u[Tc[a]] - u[Tc[b]])
        for i in T:
            for j in Tc:
                term *= (u[i] - q * u[j]) * (1 - u[i] * u[j])
        for a in range(len(T)):
            for b in range(a + 1, len(T)):
                term *= (1 - q * u[T[a]] * u[T[b]]) * (u[T[a]] - u[T[b]])
        rhs += term
    return rhs


def key_lemma2_rhs(point, s, gamma, gamma_inv_s=None):
    n, t, q, u = point.n, point.t, point.q, point.u
    gis = MGammaSpec(point, gamma, s, gamma_inv_s).gamma_inv_s
    spec1 = MGammaSpec(point, F(1), s)
    rhs = F(0)
    for T, Tc in subsets(tuple(range(1, n + 1))):
        term = F(perm_sign(T + Tc))
        term *= qpoch(-gis, t, n - len(T)) * qpoch(-gamma * t, t, n - len(T))
        for i in T:
            for j in Tc:
                term *= (u[i - 1] - q * u[j - 1]) * (1 - u[i - 1] * u[j - 1])
        for j in Tc:
            term *= 1 - u[j - 1]
        for i in T:
            term *= (1 + t) * (u[i - 1] - s)
        for a in range(len(Tc)):
            for b in range(a + 1, len(Tc)):
                term *= (1 - u[Tc[a] - 1] * u[Tc[b] - 1]) * (u[Tc[a] - 1] - u[Tc[b] - 1])
        term *= m_conjugated(spec1, T).pfaffian()
        rhs += term
    return rhs


@pytest.mark.parametrize("seed", SEEDS)
def test_f_lambda_matches_symmetrized_term(seed):
    for point, shapes in seeded_points(seed):
        for lam in shapes:
            assert f_lambda(lam, point) == f_reference(lam, point), (point.n, point.spin.p, lam)


@pytest.mark.parametrize("signed", (False, True))
def test_permutation_sum_matches_the_ordering_loop(signed):
    rng = random.Random(7)
    for n in range(8):
        ones = [[1] * n for _ in range(n)]
        assert permutation_sum(ones, ones, 1, signed) == (int(n < 2) if signed else math.factorial(n))
        for den, size in ((1, 9), (-7, 9), (3, 10**20)):
            # entries up to 9 bring zeros and negatives into both tables
            pair = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
            single = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
            tables = (pair, single, den, signed)
            assert permutation_sum(*tables) == reference_permutation_sum(*tables), (n, den)
            if n >= 2:
                pair[1][0] = 0  # one order of the pair {0, 1} vanishes
                assert permutation_sum(*tables) == reference_permutation_sum(*tables), (n, den)
    big = [[1] * 9 for _ in range(9)]
    what = "antisymmetrization" if signed else "symmetrization"
    with pytest.raises(ValueError, match="^%s over 9! orderings exceeds cap 8$" % what):
        permutation_sum(big, big, 1, signed)


@pytest.mark.parametrize("seed", SEEDS)
def test_f_lambda_matches_the_vertex_model_at_seven_variables(seed):
    for n in (6, 7):
        point = sample_point(seed, n, p=1, pole_list=spin_poles(2))
        for lam in bounded_partitions(n, 2):
            assert f_lambda(lam, point) == f_lambda_vertex(lam, point), (n, lam)


def test_hall_littlewood_matches_symmetrized_term():
    for point, shapes in seeded_points(SEEDS[0]):
        x, q, n = point.u, point.q, point.n
        for lam in shapes:

            def term(xs, lam=lam):
                val = F(1)
                for i in range(n):
                    for j in range(i + 1, n):
                        val *= (xs[i] - q * xs[j]) / (xs[i] - xs[j])
                    val *= xs[i] ** lam[i]
                return val

            norm = (1 - q) ** n / math.prod(qpoch(q, q, m) for m in multiplicities(lam).values())
            assert hall_littlewood_P(lam, x, q) == norm * symmetrize(term, x), lam


def test_schur_gt_matches_pattern_products():
    for n, max_part in MAX_PART.items():
        x = sample_point(SEEDS[0], n, p=0).u
        for lam in bounded_partitions(n, max_part):
            expect = F(0)
            for pat in gt_patterns(tuple(reversed(lam))):
                sums = [0] + [sum(row) for row in pat]
                expect += math.prod((x[i] ** (sums[i + 1] - sums[i]) for i in range(n)), start=F(1))
            assert schur_gt(lam, x) == expect, lam


def test_robbins_routes_match_references():
    for k in BOTTOMS:
        n = len(k)
        pt = sample_point(SEEDS[0], n, p=0)
        x, (t, u, v, w) = pt.u, (pt.t, pt.gamma, pt.spin.tail, pt.q)
        enum = sum(mt_weight(M, x, u, v, w) for M in monotone_triangles(k))
        assert robbins_star_enum(k, x, u, v, w) == enum, k
        assert robbins_star_bialternant(k, x, u, v, w) == star_reference(k, x, u, v, w) == enum, k
        for kk in (k, tuple(reversed(k))):
            assert robbins_bialternant(kk, x, t, u, v, w) == robbins_reference(kk, x, t, u, v, w), kk


def test_robbins_enum_reports_the_pole_of_the_first_triangle():
    x, (u, v, w) = (F(2, 3), F(0), F(5, 7)), (F(2, 9), F(3, 11), F(5, 13))
    for k in ((1, 2, 3), (0, 2, 5)):
        with pytest.raises(PoleError) as ref:
            sum(mt_weight(M, x, u, v, w) for M in monotone_triangles(k))
        with pytest.raises(PoleError) as got:
            robbins_star_enum(k, x, u, v, w)
        assert str(got.value) == str(ref.value)


def test_robbins_enum_matches_triangle_sum_with_negative_entries():
    pt = sample_point(SEEDS[1], 4, p=0)
    x, (u, v, w) = pt.u, (pt.gamma, pt.spin.tail, pt.q)
    for k in ((-2,), (-3, 1), (-2, -1), (-3, -1, 2), (-1, 0, 4), (-3, -2, 0, 1), (-2, 0, 1, 3)):
        xs = x[: len(k)]
        expect = sum(mt_weight(M, xs, u, v, w) for M in monotone_triangles(k))
        assert robbins_star_enum(k, xs, u, v, w) == expect, k


def test_transfer_routes_equal_bialternants_at_seven_variables():
    pt = sample_point(SEEDS[0], 7, p=0)
    x, (u, v, w) = pt.u, (pt.gamma, pt.spin.tail, pt.q)
    k = tuple(range(1, 8))
    assert robbins_star_enum(k, x, u, v, w) == robbins_star_bialternant(k, x, u, v, w)
    for lam in bounded_partitions(7, 3):
        assert schur_gt(lam, x) == schur_bialternant(lam, x), lam


# Several zero x_i: the transfer tabulates its entries top row first, so it
# names the smallest row i that some triangle needs inverted, where the sum
# triangle by triangle named the first row of the first triangle with a pole.
@pytest.mark.parametrize(
    "k, zeros, first_triangle",
    [((0, 1, 3), (1, 2), 3), ((0, 1, 2, 4), (2, 3), 4), ((0, 1, 3, 4), (0, 1, 2, 3), 3)],
)
def test_robbins_enum_names_the_smallest_row_pole(k, zeros, first_triangle):
    u, v, w = F(2, 9), F(3, 11), F(5, 13)
    x = tuple(F(0) if i in zeros else F(2 * i + 3, 7) for i in range(len(k)))
    rows = set()
    for M in monotone_triangles(k):
        try:
            mt_weight(M, x, u, v, w)
        except PoleError as exc:
            rows.add(int(exc.what.split()[0][2:]))
    with pytest.raises(PoleError) as ref:
        sum(mt_weight(M, x, u, v, w) for M in monotone_triangles(k))
    with pytest.raises(PoleError) as got:
        robbins_star_enum(k, x, u, v, w)
    assert ref.value.what == "x_%d (negative exponent)" % first_triangle
    assert got.value.what == "x_%d (negative exponent)" % min(rows) != ref.value.what


# messages taken from the term-by-term symmetrizer; at each point the
# identity ordering is pole-free and a later ordering meets 1 - s_k u_a = 0
POLE_SPIN = SpinParams((F(1, 3), F(1, 11), F(1, 5)), F(2, 9))
POLE_CASES = (
    ((2, 1, 0), (F(1, 2), F(1, 7), F(5)), "vanishing denominator: 1 - s_2*u_1 at ordering (5/1, 1/2, 1/7)"),
    ((2, 0, 0), (F(1, 2), F(11), F(1, 7)), "vanishing denominator: 1 - s_1*u_1 at ordering (11/1, 1/2, 1/7)"),
    (
        (2, 2, 1, 0),
        (F(1, 2), F(1, 7), F(1, 13), F(5)),
        "vanishing denominator: 1 - s_2*u_2 at ordering (1/2, 5/1, 1/7, 1/13)",
    ),
)


@pytest.mark.parametrize("lam, u, message", POLE_CASES)
def test_f_lambda_pole_at_a_later_ordering(lam, u, message):
    point = ParamPoint(F(1, 2), F(1), POLE_SPIN, u)
    spin = point.spin
    for i, ui in enumerate(u):
        assert all(1 - spin.lookup(j) * ui != 0 for j in range(lam[i] + 1))
    with pytest.raises(PoleError) as ref:
        f_reference(lam, point)
    with pytest.raises(PoleError) as got:
        f_lambda(lam, point)
    assert str(got.value) == str(ref.value) == message


@pytest.mark.parametrize("seed", SEEDS)
def test_vertex_prune_past_the_largest_part(seed, monkeypatch):
    seen = []
    successors = vertex._weighted_successors

    def recording(state, *args):
        out = successors(state, *args)
        seen.append((state, out))
        return out

    monkeypatch.setattr(vertex, "_weighted_successors", recording)
    for n, max_part in ((1, 3), (2, 3), (3, 2), (4, 1)):
        point = sample_point(seed, n, p=1, pole_list=spin_poles(max_part + 2))
        for lam in bounded_partitions(n, max_part):
            wide = lam[0] + 2
            seen.clear()
            expect = sum(ensemble_weight(e, point) for e in enumerate_ensembles(lam, max_col=wide))
            assert f_lambda_vertex(lam, point) == expect, lam
            # no transfer state holds more paths in the columns >= c than
            # lambda, nor fewer than lambda less the rows still to come
            room = [sum(1 for part in lam if part >= c) for c in range(wide + 1)]
            top = tuple(sum(1 for part in lam if part == c) for c in range(lam[0] + 1))
            for state, out in seen:
                r = sum(state)  # each row brings one path in from the left
                assert all(room[c] - (n - r) <= sum(state[c:]) <= room[c] for c in range(wide + 1)), (lam, state)
                if r == n - 1:
                    assert {row for row, _ in out} <= {top}, (lam, state, out)


def subset_product_reference(n, poch, index, pair, block, proper):
    total = F(0)
    for size in range(n if proper else n + 1):
        for T in combinations(range(n), size):
            term = F(poch[n - size])
            for i in range(n):
                term *= index[i][i in T]
            for (i, j), ends in pair.items():
                term *= ends[i in T, j in T]
            if block is not None:
                term *= block[T]
            total += term
    return total


def random_subset_tables(rng, n):
    # a zero one time in ten, else a plain integer or a rational, either sign
    def value():
        kind = rng.randrange(10)
        if kind == 0:
            return F(0)
        sign = rng.choice((-1, 1))
        if kind < 3:
            return sign * rng.randint(1, 5)
        return F(sign * rng.randint(1, 30), rng.randint(1, 20))

    poch = [value() for _ in range(n + 1)]
    index = [(value(), value()) for _ in range(n)]
    pair = {ij: {ends: value() for ends in ((0, 0), (1, 0), (0, 1), (1, 1))} for ij in combinations(range(n), 2)}
    block = {T: value() for size in range(n + 1) for T in combinations(range(n), size)}
    return poch, index, pair, block


@pytest.mark.parametrize("seed", SEEDS)
def test_subset_product_sum_matches_the_per_subset_loop(seed):
    rng = random.Random(seed)
    nonzero = 0
    for n in range(6):
        for _ in range(4):
            poch, index, pair, block = random_subset_tables(rng, n)
            for blocks in (None, block):
                for proper in (False, True):
                    got = _subset_product_sum(n, poch, index, pair, blocks, proper)
                    assert got == subset_product_reference(n, poch, index, pair, blocks, proper), (n, proper)
                    nonzero += got != 0
    assert nonzero > 64  # of 96 sums, 8 of them over no subset (n = 0, proper)
    # a table that is all zeros or all integers clears over denominator 1
    n = 3
    poch, index, pair, block = random_subset_tables(rng, n)
    for zeros in ({T: 0 for T in block}, {T: F(0) for T in block}):
        assert _subset_product_sum(n, poch, index, pair, zeros) == 0
    index = [(F(0), F(0))] + index[1:]
    assert _subset_product_sum(n, poch, index, pair, block, True) == 0
    ints = [(2, -3)] * n
    expect = subset_product_reference(n, poch, ints, pair, block, False)
    assert _subset_product_sum(n, poch, ints, pair, block) == expect != 0


@pytest.mark.parametrize("seed", (7, 8, 9))
def test_key_lemma_sums_match_the_per_subset_references(seed):
    for n in range(6):
        pt = lemma_point(seed, n)
        s, q, gamma = pt.spin.tail, pt.q, pt.gamma
        lhs, rhs = key_lemma1_sides(pt.u, q, s)
        assert rhs == key_lemma1_rhs(pt.u, q, s) == lhs, n
        lhs, rhs = key_lemma2_sides(pt, s, gamma)
        assert rhs == key_lemma2_rhs(pt, s, gamma) == lhs, n
        # the s = 0 then gamma = 0 specialization needs gamma_inv_s explicitly
        lhs, rhs = key_lemma2_sides(pt, 0, 0, gamma_inv_s=s)
        assert rhs == key_lemma2_rhs(pt, F(0), F(0), gamma_inv_s=s) == lhs, n


def test_key_lemma1_sum_matches_the_reference_off_the_identity_points():
    # negative and repeated values, u_i = s and u_i u_j = 1: exact equality of
    # the two routes does not need a generic point
    q, s = F(-3, 7), F(-2, 5)
    for u in ((F(-1, 2), F(3)), (s, F(5, 4), F(-7, 3)), (F(2), F(1, 2), F(-1, 3), F(2)), (F(0),) * 4):
        assert key_lemma1_sides(u, q, s)[1] == key_lemma1_rhs(u, q, s), u


def test_key_lemma2_pole_keeps_its_message():
    # u_1 u_2 = 1 is a pole of the gamma = 1 entry (1, 2)
    pt = ParamPoint(F(2, 3), F(3, 5), SpinParams((), F(1, 7)), (F(3, 4), F(4, 3), F(2, 9)))
    with pytest.raises(PoleError) as ref:
        key_lemma2_rhs(pt, pt.spin.tail, pt.gamma)
    with pytest.raises(PoleError) as got:
        key_lemma2_sides(pt, pt.spin.tail, pt.gamma)
    assert str(got.value) == str(ref.value) == "vanishing denominator: (1+t)(1 - u_1*u_2)(1 - q*u_1*u_2)"
