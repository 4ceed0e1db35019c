import random
from fractions import Fraction as F
from math import gcd

import pytest

from spinhl.arith import PoleError, SpinParams, one_minus, part_factors
from spinhl.series import (
    TruncSeries,
    divide_by_u_differences,
    divide_by_vandermonde,
    f_lambda_series,
    littlewood_series,
    schur_series,
    series_diff,
    u_coordinates,
    u_part_factors,
    u_substitution,
    vandermonde_exponents,
)
from spinhl.identities import series_parameters
from spinhl.pfaffian import littlewood_kernel
from spinhl.symfun import bounded_partitions, schur_gt
from spinhl.vertex import enumerate_ensembles


def random_series(rng, nvars, cap, terms=6):
    coeffs = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, cap) for _ in range(nvars))
        if sum(exps) <= cap:
            coeffs[exps] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return TruncSeries(nvars, cap, coeffs)


def series_via_vertex(lam, spin, t, cap, nvars):
    """Independent series route: substitute the u series into the local
    weights of every ensemble and sum; no symmetrizer, no division."""
    q = t * t
    U = [u_substitution(i, spin.tail, cap, nvars) for i in range(len(lam))]
    total = TruncSeries.zero(nvars, cap)
    for ens in enumerate_ensembles(lam):
        w = TruncSeries.const(nvars, cap, 1)
        for row, col, cfg in ens.vertices():
            s = spin.lookup(col)
            u = U[row - 1]
            den = (1 - s * u).inv()
            i1, i2, j1, j2 = cfg
            g = i1
            if j1 == 0 and j2 == 0:
                w = w * ((1 - s * u * q**g) * den)
            elif j1 == 0 and j2 == 1:
                w = w * (u * (1 - s * s * q ** (g - 1)) * den)
            elif j1 == 1 and j2 == 0:
                w = w * ((1 - q ** (g + 1)) * den)
            else:
                w = w * ((u - s * q**g) * den)
        total = total + w
    return total


def test_ring_laws_randomized():
    rng = random.Random(31)
    for _ in range(8):
        a = random_series(rng, 2, 6)
        b = random_series(rng, 2, 6)
        c = random_series(rng, 2, 6)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == TruncSeries.zero(2, 6)


def test_geometric_inverse():
    geo = TruncSeries(1, 6, {(0,): 1, (1,): -1}).inv()
    assert all(geo.coefficient((k,)) == 1 for k in range(7))


def test_inverse_round_trip():
    one_plus_x = TruncSeries(1, 4, {(0,): 1, (1,): 1})
    assert one_plus_x * one_plus_x.inv() == TruncSeries.const(1, 4, 1)


def test_inverse_hand_expansion():
    inv = TruncSeries(1, 3, {(0,): 1, (1,): F(1, 2)}).inv()
    assert inv == TruncSeries(1, 3, {(0,): 1, (1,): F(-1, 2), (2,): F(1, 4), (3,): F(-1, 8)})


def test_inverse_needs_constant_term():
    with pytest.raises(ZeroDivisionError):
        TruncSeries(1, 3, {(1,): 1}).inv()


def test_division_by_series_and_scalar():
    f = TruncSeries(2, 3, {(0, 0): 2, (1, 0): 1, (1, 1): F(3, 4)})
    g = TruncSeries(2, 3, {(0, 0): F(1, 3), (0, 1): -1})
    assert (f / g) * g == f
    assert F(5, 2) / g == g.inv() * F(5, 2)
    assert f / 4 == f * F(1, 4)


def test_quotient_times_the_divisor_is_the_dividend():
    # the quotient is solved degree by degree, with no inverse formed; a
    # negative constant term takes the sign off the denominator
    rng = random.Random(12)
    for nvars in (1, 2, 3):
        for cap in range(7):
            for _ in range(6):
                M = random_series(rng, nvars, cap, terms=8)
                N = random_series(rng, nvars, cap) + F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                if not N.constant_term:
                    continue
                Q = M / N
                assert Q * N == M, (nvars, cap)
                assert Q.den > 0 and gcd(Q.den, *Q.num.values()) == 1
                assert N.inv() * N == TruncSeries.const(nvars, cap, 1)


def test_division_by_series_without_constant_term_is_a_pole():
    x = TruncSeries.variable(1, 3, 0)
    with pytest.raises(PoleError):
        TruncSeries.const(1, 3, 1) / x
    with pytest.raises(PoleError):
        1 / x


def test_u_substitution_limits():
    assert u_substitution(0, F(0), 4, 2) == TruncSeries.variable(2, 4, 0)
    us = u_substitution(0, F(1, 3), 4, 1)
    assert us.constant_term == F(1, 3)
    s = F(1, 3)
    lin = TruncSeries(1, 4, {(0,): 1, (1,): s})
    assert (us - s) == TruncSeries.variable(1, 4, 0) * (1 - s * s) * lin.inv()
    assert (us - s).order() == 1


@pytest.mark.parametrize("s", [F(0), F(1), F(-1), F(2, 7), F(-5, 3), F(4)])
def test_u_substitution_is_the_ring_quotient(s):
    # the closed form on integers against (s + x_i) / (1 + s x_i) in the ring
    for nvars in (1, 2, 3):
        for i in range(nvars):
            for cap in range(6):
                x = TruncSeries.variable(nvars, cap, i)
                assert u_substitution(i, s, cap, nvars) == (s + x) * (1 + s * x).inv(), (nvars, i, cap)


@pytest.mark.parametrize("s", [F(0), F(1), F(-1), F(2, 7), F(-5, 3), F(4)])
def test_u_coordinates_are_the_u_substitution(s):
    # integer polynomials a + b x_i over b + a x_i whose quotient is u
    for nvars in (1, 2, 3):
        for i in range(nvars):
            for cap in range(7):
                U = u_coordinates(i, s, nvars, cap)
                assert U.numerator.den == U.denominator.den == 1
                assert U.numerator / U.denominator == u_substitution(i, s, cap, nvars), (nvars, i, cap)


@pytest.mark.parametrize("s", [F(0), F(1), F(2, 7), F(-5, 3), F(4)])
def test_one_minus_of_coordinates_is_the_scaled_pair_polynomial(s):
    # one_minus(U_i, U_j, t) = (b den(t))^2 (XY - q (s + x)(s + y)), X = 1 + s x
    for t in (F(1), F(2, 7), F(-3, 5)):
        for nvars in (2, 3):
            for i in range(nvars):
                for j in range(i + 1, nvars):
                    for cap in range(5):
                        x = TruncSeries.variable(nvars, cap, i)
                        y = TruncSeries.variable(nvars, cap, j)
                        Qp = (1 + s * x) * (1 + s * y) - t * t * (s + x) * (s + y)
                        U = [u_coordinates(v, s, nvars, cap) for v in (i, j)]
                        got = one_minus(U[0], U[1], t)
                        assert got.den == 1
                        assert got == (s.denominator * t.denominator) ** 2 * Qp, (t, nvars, i, j, cap)


def _factors_or_pole(fn, *args):
    try:
        return fn(*args)
    except PoleError as err:
        return err.what


@pytest.mark.parametrize("s", [F(0), F(2, 7), F(-5, 3), F(4)])
def test_closed_form_part_factors_are_the_divided_ones(s):
    # the prefixes put the pole 1 - s_l s = 0 at l = 0 and at l = 1
    prefixes = ((), (F(1, 5),), (F(3, 4), F(-2, 7), F(1, 9)))
    if s:
        prefixes += ((1 / s,), (F(1, 5), 1 / s))
    for prefix in prefixes:
        spin = SpinParams(prefix, s)
        for nvars, cap in ((1, 4), (2, 2), (3, 3)):
            U = [u_substitution(i, s, cap, nvars) for i in range(nvars)]
            for top in range(len(prefix) + 2):
                got = _factors_or_pole(u_part_factors, range(nvars), s, spin, top, nvars, cap)
                assert got == _factors_or_pole(part_factors, U, spin, top), (prefix, nvars, cap, top)


def test_vandermonde_division_round_trip():
    rng = random.Random(17)
    V = TruncSeries(3, 9, vandermonde_exponents((0, 1, 2), 3))
    f = TruncSeries(3, 9, random_series(rng, 3, 6).coeffs)
    assert divide_by_vandermonde(f * V, (0, 1, 2)) == f.truncate(6)


@pytest.mark.parametrize("s", [F(0), F(2, 7), F(-5, 3), F(4)], ids=["s=0", "s=2/7", "s=-5/3", "s=4"])
def test_divide_by_u_differences_undoes_the_u_product(s):
    # unsorted and proper-subset variable lists, more variables than listed
    rng = random.Random(41)
    for nvars, idx in ((2, (0, 1)), (3, (2, 0, 1)), (4, (3, 1)), (4, (1, 3, 0)), (3, (1,)), (3, ())):
        m = len(idx)
        pairs = m * (m - 1) // 2
        for cap in (pairs, pairs + 2, pairs + 3):
            U = [u_substitution(i, s, cap, nvars) for i in idx]
            f = random_series(rng, nvars, cap)
            product = f
            for a in range(m):
                for b in range(a + 1, m):
                    product = product * (U[a] - U[b])
            got = divide_by_u_differences(product, idx, s)
            assert got.cap == cap - pairs
            assert got == f.truncate(cap - pairs), (nvars, idx, cap)


@pytest.mark.parametrize("s", [F(1), F(-1)])
def test_divide_by_u_differences_raises_at_s_squared_one(s):
    # u = s for every x, so every difference vanishes
    f = TruncSeries(2, 3, {(1, 0): 1, (0, 1): -1})
    with pytest.raises(PoleError, match="1 - s\\^2"):
        divide_by_u_differences(f, (0, 1), s)
    g = TruncSeries(2, 3, {(1, 0): 2})
    assert divide_by_u_differences(g, (0,), s) == g


def test_vandermonde_division_rejects_nondivisible():
    f = TruncSeries(2, 3, {(0, 0): 1})
    with pytest.raises(ArithmeticError):
        divide_by_vandermonde(f, (0, 1))


def test_f_series_length_one():
    spin = SpinParams((F(1, 5),), F(1, 3))
    t = F(1, 2)
    got = f_lambda_series((0,), spin, t, 5)
    u0 = u_substitution(0, spin.tail, 5, 1)
    expect = (1 - t * t) * (1 - spin.lookup(0) * u0).inv()
    assert series_diff(got, expect) is None


def test_f_series_schur_specialization():
    spin = SpinParams((), F(0))
    got = f_lambda_series((2, 1), spin, F(0), 4, nvars=2)
    assert got == TruncSeries(2, 4, {(2, 1): 1, (1, 2): 1})


def test_f_series_matches_vertex_route():
    spin = SpinParams((F(2, 5),), F(1, 3))
    t = F(2, 7)
    for lam in [(1, 0), (2, 1), (2, 2), (2, 0)]:
        a = f_lambda_series(lam, spin, t, 4, nvars=2)
        b = series_via_vertex(lam, spin, t, 4, 2)
        assert series_diff(a, b) is None, lam
    for lam in [(1, 1, 0), (2, 1, 0)]:
        a = f_lambda_series(lam, spin, t, 3, nvars=3)
        b = series_via_vertex(lam, spin, t, 3, 3)
        assert series_diff(a, b) is None, lam


def test_constant_term_is_value_at_coincident_points():
    # at x = 0 every u_i collapses to the tail value; the transfer sum
    # tolerates coincident spectral values where the symmetrizer cannot
    from spinhl.vertex import f_lambda_vertex

    spin = SpinParams((F(2, 5),), F(1, 3))
    t = F(2, 7)

    class EqualPoint:
        def __init__(self, n):
            self.t = t
            self.q = t * t
            self.gamma = F(1)
            self.spin = spin
            self.u = (spin.tail,) * n

    for lam in [(2, 1), (1, 1), (3, 0)]:
        series = f_lambda_series(lam, spin, t, 4, nvars=2)
        assert series.constant_term == f_lambda_vertex(lam, EqualPoint(2))


def test_x_adic_order_bound():
    # the excess of a partition bounds the series order from below, up to the
    # pair count of the symmetrizer
    t = F(2, 7)
    for p, spin in ((0, SpinParams((), F(1, 3))), (1, SpinParams((F(2, 5),), F(1, 3)))):
        for n in (1, 2, 3):
            pairs = n * (n - 1) // 2
            for lam in bounded_partitions(n, p + 3):
                excess = sum(max(v - p, 0) for v in lam)
                series = f_lambda_series(lam, spin, t, 4, nvars=n)
                order = series.order()
                if order is None:
                    continue
                assert order >= excess - pairs, (p, lam, order)


def test_truncation_consistency_of_products():
    # coefficients up to the cap only depend on inputs up to the cap
    rng = random.Random(3)
    a6 = random_series(rng, 2, 6)
    b6 = random_series(rng, 2, 6)
    low = (a6.truncate(4)) * (b6.truncate(4))
    assert (a6 * b6).truncate(4) == low.truncate(4)


def test_sorted_output_and_json():
    s = TruncSeries(2, 3, {(1, 0): F(1, 2), (0, 0): 2, (0, 2): F(-3)})
    items = s.items_sorted()
    assert items[0][0] == (0, 0)
    assert [e["coefficient"] for e in s.to_json()] == ["2/1", "1/2", "-3/1"]
    assert "0,2: -3/1" in str(s)


def test_series_diff_witness_is_pinned():
    # the first differing coefficient in graded-lex order, with its two
    # values; pinned while the series engine keyed its terms by exponent
    # tuples.  The pairs differ at several degrees and orders within one
    # degree, and once where only one side has a term.
    a = TruncSeries(3, 4, {
        (0, 0, 0): F(1, 2), (1, 1, 0): F(2, 3), (0, 0, 3): F(5, 7),
        (0, 1, 2): F(-1, 3), (2, 0, 1): F(3), (0, 4, 0): F(1, 9),
    })
    b = TruncSeries(3, 4, {
        (0, 0, 0): F(1, 2), (1, 1, 0): F(2, 3), (0, 0, 3): F(-5, 7),
        (0, 1, 2): F(1, 3), (1, 0, 2): F(7, 4), (0, 4, 0): F(1, 9), (3, 0, 0): F(1, 6),
    })
    assert series_diff(a, b) == ((0, 0, 3), F(5, 7), F(-5, 7))
    assert series_diff(b, a) == ((0, 0, 3), F(-5, 7), F(5, 7))
    c = TruncSeries(3, 4, {
        (0, 0, 0): F(1, 2), (1, 1, 0): F(2, 3), (0, 1, 2): F(-1, 3), (2, 0, 1): F(3), (0, 4, 0): F(1, 9),
    })
    d = TruncSeries(3, 4, {
        (0, 0, 0): F(1, 2), (1, 1, 0): F(2, 3), (0, 1, 2): F(-1, 3), (1, 0, 2): F(7, 4), (0, 4, 0): F(2, 9),
    })
    assert series_diff(c, d) == ((1, 0, 2), F(0), F(7, 4))
    assert series_diff(c, c) is None


def test_evaluation():
    s = TruncSeries(2, 3, {(1, 1): F(2), (0, 0): F(1, 3)})
    assert s.evaluate((F(1, 2), F(1, 5))) == F(1, 3) + 2 * F(1, 10)


@pytest.mark.parametrize(
    "read",
    [
        lambda: TruncSeries(2, 3, {(1,): 1}),
        lambda: TruncSeries(2, 3, {(1, 0, 0): 1}),
        lambda: TruncSeries(2, 3, {(-1, 2): 1}),
        lambda: TruncSeries(2, 3, {(0, -1): 0}),
        lambda: TruncSeries(2, 3, {(0, 0): 1}).coefficient((0, 0, 0)),
        lambda: TruncSeries(2, 3, {(0, 0): 1}).coefficient((0,)),
        lambda: TruncSeries(2, 3, {(1, 0): 1}).coefficient((2, -1)),
        lambda: TruncSeries(2, 3, {(1, 1): 1, (0, 1): 3}).evaluate([2]),
        lambda: TruncSeries(2, 3, {(1, 1): 1, (0, 1): 3}).evaluate([2, 5, 7]),
    ],
    ids=[
        "init short", "init long", "init negative", "init negative zero term",
        "coefficient long", "coefficient short", "coefficient negative",
        "evaluate short", "evaluate long",
    ],
)
def test_malformed_exponents_and_points_are_rejected(read):
    # packed keys would carry these into another monomial, or past the cap
    with pytest.raises(ValueError):
        read()


def test_truncate_cannot_extend():
    s = TruncSeries(1, 2, {(1,): 1})
    assert s.truncate(1).coeffs == {(1,): F(1)}
    with pytest.raises(ValueError):
        s.truncate(5)


def test_relabeled_renames_variables_and_pads_with_zeros():
    s = TruncSeries(3, 2, {(0, 0, 0): F(1, 2), (2, 0, 0): F(3, 4), (1, 1, 0): F(-1, 6)})
    # x_0 -> x_2, x_1 -> x_0, x_2 -> x_1, read at cap 4
    out = s.relabeled((2, 0, 1), 4)
    assert out.cap == 4
    assert out.coeffs == {(0, 0, 0): F(1, 2), (0, 0, 2): F(3, 4), (1, 0, 1): F(-1, 6)}
    assert out.den == s.den
    # the identity order only pads, and products past the old cap see zeros
    x = TruncSeries.variable(3, 4, 0)
    assert (s.relabeled((0, 1, 2), 4) * x * x).coeffs == {
        (2, 0, 0): F(1, 2), (4, 0, 0): F(3, 4), (3, 1, 0): F(-1, 6)
    }
    with pytest.raises(ValueError):
        s.relabeled((0, 1, 2), 1)



def test_relabeled_sum_is_the_sum_of_signed_relabelings():
    rng = random.Random(23)
    for nvars, cap, wide in ((3, 4, 4), (3, 4, 7), (4, 3, 6)):
        a = random_series(rng, nvars, cap, terms=12)
        orders = [tuple(rng.sample(range(nvars), nvars)) for _ in range(5)]
        # a repeated order with both signs cancels, and with one sign doubles
        renamings = [(rng.choice((1, -1)), order) for order in orders]
        renamings += [(1, orders[0]), (-1, orders[0]), (1, orders[1])]
        want = TruncSeries.zero(nvars, wide)
        for sign, order in renamings:
            want = want + sign * a.relabeled(order, wide)
        got = a.relabeled_sum(renamings, wide)
        assert (got.den, got.num) == (want.den, want.num), (nvars, cap, wide)
        assert a.relabeled_sum(renamings[-3:-1], wide) == 0
        with pytest.raises(ValueError):
            a.relabeled_sum(renamings, cap - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schur_series_evaluates_to_the_gelfand_tsetlin_sum(n):
    x = (F(2, 3), F(-5, 7), F(3, 11), F(7, 5))[:n]
    # every lambda with |lambda| <= 4 and at most n parts, zeros padded
    shapes = [lam for lam in bounded_partitions(n, 4) if sum(lam) <= 4]
    for lam in shapes:
        got = schur_series(lam, n, 4)
        assert got.den == 1, lam
        assert got.evaluate(x) == schur_gt(lam, x), lam
        assert schur_series(lam[: n - lam.count(0)], n, 4) == got, lam
        if sum(lam):
            assert schur_series(lam, n, sum(lam) - 1) == 0, lam
    with pytest.raises(ValueError):
        schur_series((1,) * (n + 1), n, 4)

# ----------------------------------------------------------------------
# reference engine: plain dicts of Fractions, term by term, with the inverse
# as ``cap`` fixed-point steps acc = 1 + h * acc and division by repeated
# lex-leading-term elimination


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        val = out.get(e, F(0)) + c
        if val:
            out[e] = val
        else:
            out.pop(e, None)
    return out


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_scale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def ref_mul(a, b, cap):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if sum(e1) + sum(e2) > cap:
                continue
            key = tuple(x + y for x, y in zip(e1, e2))
            val = out.get(key, F(0)) + c1 * c2
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def ref_truncate(a, cap):
    return {e: c for e, c in a.items() if sum(e) <= cap}


def ref_inv(a, nvars, cap):
    zero = (0,) * nvars
    c0 = a[zero]
    h = {e: -c / c0 for e, c in a.items() if sum(e) > 0}
    acc = {zero: F(1)}
    for _ in range(cap):
        acc = ref_add({zero: F(1)}, ref_mul(h, acc, cap))
    return ref_scale(acc, 1 / c0)


def ref_divide_by_vandermonde(a, var_indices, nvars):
    div = vandermonde_exponents(var_indices, nvars)
    lead = max(div)
    quo = {}
    cur = dict(a)
    while cur:
        e = max(cur)
        diff = tuple(x - y for x, y in zip(e, lead))
        if any(d < 0 for d in diff):
            raise ArithmeticError("not divisible")
        c = cur[e] / div[lead]
        quo[diff] = quo.get(diff, F(0)) + c
        cur = ref_add(cur, {tuple(x + y for x, y in zip(de, diff)): -c * dc for de, dc in div.items()})
    return quo


def dense_random_coeffs(rng, nvars, cap, terms):
    """Random coefficients with a nonzero, often negative and non-unit,
    constant term and a few random terms up to the cap."""
    coeffs = {(0,) * nvars: F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))}
    for _ in range(terms):
        exps = [0] * nvars
        for _ in range(rng.randint(1, max(cap, 1))):
            exps[rng.randrange(nvars)] += 1
        if sum(exps) <= cap:
            coeffs[tuple(exps)] = F(rng.randint(-30, 30), rng.randint(1, 30))
    return {e: c for e, c in coeffs.items() if c}


def assert_same(series, ref):
    assert series.coeffs == ref
    assert series == TruncSeries(series.nvars, series.cap, ref)
    assert_canonical(series)


def numerators(series):
    """``num`` read by exponent tuple: each packed key's digits (|e|, e_0,
    e_1, ...) in base cap + 1, checked to be a monomial within the cap;
    written out here apart from the library's unpacking."""
    out = {}
    base = series.cap + 1
    for key, v in series.num.items():
        digits = []
        for _ in range(series.nvars + 1):
            key, digit = divmod(key, base)
            digits.append(digit)
        assert key == 0
        degree, *exps = reversed(digits)
        assert degree == sum(exps) <= series.cap
        out[tuple(exps)] = v
    return out


def assert_canonical(series):
    assert series.den > 0
    assert gcd(series.den, *series.num.values()) == 1
    assert all(isinstance(v, int) and v for v in series.num.values())
    # the exact numerators over the exact denominator, key by key
    assert numerators(series) == {e: c * series.den for e, c in series.coeffs.items()}
    twin = TruncSeries(series.nvars, series.cap, series.coeffs)
    assert (twin.den, twin.num, hash(twin)) == (series.den, series.num, hash(series))


def random_monomial(rng, nvars, degree):
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def test_mixed_shapes_are_rejected():
    # keys of different caps are written in different bases
    one = TruncSeries.const(2, 3, 1)
    for other in (TruncSeries.const(2, 4, 1), TruncSeries.const(3, 3, 1)):
        with pytest.raises(ValueError):
            series_diff(one, other)


def ref_relabel(a, order):
    out = {}
    for e, c in a.items():
        moved = [0] * len(e)
        for i, j in enumerate(order):
            moved[j] = e[i]
        out[tuple(moved)] = c
    return out


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_engine_matches_fraction_reference(nvars):
    rng = random.Random(1000 + nvars)
    for cap in range(7):
        for _ in range(3):
            ca = dense_random_coeffs(rng, nvars, cap, rng.randint(0, 6))
            cb = dense_random_coeffs(rng, nvars, cap, rng.randint(0, 6))
            # a term at exactly the cap in each operand (at cap 0 a new
            # nonzero constant term)
            ca[random_monomial(rng, nvars, cap)] = F(rng.randint(1, 9), rng.randint(1, 9))
            cb[random_monomial(rng, nvars, cap)] = F(-rng.randint(1, 9), rng.randint(1, 9))
            a, b = TruncSeries(nvars, cap, ca), TruncSeries(nvars, cap, cb)
            c = F(rng.randint(-20, 20), rng.randint(1, 20))
            # reading out: coefficients inside, at and past the cap, the
            # graded-lex listing and the order
            for e in list(ca) + [random_monomial(rng, nvars, d) for d in range(cap + 3)]:
                assert a.coefficient(e) == ca.get(e, 0)
            assert a.items_sorted() == sorted(ca.items(), key=lambda item: (sum(item[0]), item[0]))
            assert a.order() == min(sum(e) for e in ca)
            # relabeling into a larger cap rewrites every key in a new base;
            # products there reach past the old cap
            order = tuple(rng.sample(range(nvars), nvars))
            ra, rb = ref_relabel(ca, order), ref_relabel(cb, order)
            wide = cap + rng.randint(1, 3)
            assert_same(a.relabeled(order, wide), ra)
            assert_same(a.relabeled(order, wide) * b.relabeled(order, wide), ref_mul(ra, rb, wide))
            assert_same(a.relabeled(order, cap), ra)
            assert_same(a, ca)
            assert_same(a * b, ref_mul(ca, cb, cap))
            assert_same(a + b, ref_add(ca, cb))
            assert_same(a - b, ref_add(ca, ref_neg(cb)))
            assert_same(-a, ref_neg(ca))
            assert_same(a * c, ref_scale(ca, c))
            assert_same(c * a, ref_scale(ca, c))
            assert_same(a + c, ref_add(ca, {(0,) * nvars: c}))
            assert_same(a.truncate(cap // 2), ref_truncate(ca, cap // 2))
            assert_same(a.inv(), ref_inv(ca, nvars, cap))
            # sums that cancel to zero, and products with the zero series
            zero = TruncSeries.zero(nvars, cap)
            assert_same(a - a, {})
            assert_same((a + b) - b - a, {})
            assert_same(a * zero, {})
            assert_same(a * 0, {})
            assert_same(zero + zero, {})
            assert_same(-zero, {})
            assert (zero.den, zero.num, numerators(zero)) == (1, {}, {})


def test_engine_vandermonde_division_matches_fraction_reference():
    rng = random.Random(29)
    for nvars in (2, 3, 4):
        for m in range(2, nvars + 1):
            var_indices = tuple(rng.sample(range(nvars), m))
            d = m * (m - 1) // 2
            V = vandermonde_exponents(var_indices, nvars)
            for cap in range(d, d + 4):
                cf = dense_random_coeffs(rng, nvars, cap - d, 5)
                product = ref_mul(cf, V, cap)
                got = divide_by_vandermonde(TruncSeries(nvars, cap, product), var_indices)
                ref = {}
                for deg in range(d, cap + 1):
                    part = {e: c for e, c in product.items() if sum(e) == deg}
                    ref.update(ref_divide_by_vandermonde(part, var_indices, nvars))
                assert got.cap == cap - d
                assert_same(got, ref)
                assert_same(got, cf)
    nondivisible = {(0, 0): F(1), (1, 0): F(2, 3)}
    with pytest.raises(ArithmeticError):
        ref_divide_by_vandermonde(nondivisible, (0, 1), 2)
    with pytest.raises(ArithmeticError):
        divide_by_vandermonde(TruncSeries(2, 3, nondivisible), (0, 1))


def test_equal_values_have_one_canonical_form():
    rng = random.Random(5)
    for nvars, cap in ((1, 5), (2, 4), (3, 3)):
        a = TruncSeries(nvars, cap, dense_random_coeffs(rng, nvars, cap, 6))
        b = TruncSeries(nvars, cap, dense_random_coeffs(rng, nvars, cap, 6))
        routes = [a * b, b * a, (a + b) * b - b * b, (a * b).inv().inv(), a * (b * F(3, 7)) * F(7, 3)]
        for s in routes:
            assert_canonical(s)
            assert (s.den, s.num, hash(s)) == (routes[0].den, routes[0].num, hash(routes[0]))
    half = TruncSeries(1, 2, {(0,): F(1, 2), (1,): F(-3, 4)})
    # x_0 at cap 2 has the digits (1, 1) in base 3: key 4
    assert (half.den, half.num) == (4, {0: 2, 4: -3})
    assert (half.den, numerators(half)) == (4, {(0,): 2, (1,): -3})
    assert ((half + half).den, (half + half).num) == (2, {0: 2, 4: -3})
    mixed = TruncSeries(2, 3, {(0, 0): F(1, 6), (1, 2): F(-1, 4), (3, 0): F(5, 6), (0, 1): F(1, 3)})
    # digits (|e|, e_0, e_1) in base 4
    assert (mixed.den, mixed.num) == (12, {0: 2, 16 * 3 + 4 + 2: -3, 16 * 3 + 4 * 3: 10, 16 + 1: 4})


def _series_or_pole(fn, *args):
    try:
        return fn(*args)
    except PoleError as err:
        return str(err)


def test_littlewood_series_is_the_kernel_over_the_u_series():
    # the closed form against littlewood_kernel, which inverts 1 - u_i and
    # 1 - u_i u_j as series
    for seed in (7, 8, 11):
        for p in (0, 1):
            t, spin, _ = series_parameters(seed, p)
            s = spin.tail
            for n in range(1, 5):
                for cap in range(5):
                    U = [u_substitution(i, s, cap, n) for i in range(n)]
                    got = littlewood_series(n, s, t, cap)
                    assert got == littlewood_kernel(U, t * t), (seed, p, n, cap)


def test_littlewood_series_poles_keep_the_kernel_names():
    seen = set()
    for s in (F(1), F(-1), F(1, 3)):
        for t in (F(2, 7), F(-1), F(1)):
            for n in range(1, 5):
                U = [u_substitution(i, s, 3, n) for i in range(n)]
                got = _series_or_pole(littlewood_series, n, s, t, 3)
                assert got == _series_or_pole(littlewood_kernel, U, t * t), (s, t, n)
                if isinstance(got, str):
                    seen.add(got)
    assert seen == {"vanishing denominator: 1 - u_1", "vanishing denominator: 1 - u_1*u_2"}
