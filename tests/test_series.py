import random
from fractions import Fraction as F

import pytest

from spinhl.arith import PoleError, SpinParams
from spinhl.series import (
    TruncSeries,
    divide_by_vandermonde,
    f_lambda_series,
    series_diff,
    u_substitution,
    vandermonde_exponents,
)
from spinhl.symfun import bounded_partitions
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


def test_vandermonde_division_round_trip():
    rng = random.Random(17)
    V = TruncSeries(3, 9, vandermonde_exponents((0, 1, 2), 3))
    f = TruncSeries(3, 9, random_series(rng, 3, 6).coeffs)
    assert divide_by_vandermonde(f * V, (0, 1, 2)) == f.truncate(6)


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


def test_evaluation():
    s = TruncSeries(2, 3, {(1, 1): F(2), (0, 0): F(1, 3)})
    assert s.evaluate((F(1, 2), F(1, 5))) == F(1, 3) + 2 * F(1, 10)


def test_truncate_cannot_extend():
    s = TruncSeries(1, 2, {(1,): 1})
    assert s.truncate(1).coeffs == {(1,): F(1)}
    with pytest.raises(ValueError):
        s.truncate(5)
