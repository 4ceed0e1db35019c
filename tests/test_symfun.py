import math
import random
from fractions import Fraction as F
from itertools import permutations, product

import pytest

import spinhl.symfun
from spinhl.arith import ParamPoint, PoleError, SpinParams, qpoch, sample_point, vandermonde
from spinhl.pfaffian import det
from spinhl.symfun import (
    Partition,
    antisymmetrize,
    bounded_partitions,
    f_lambda,
    f_lambda_recurrence_rhs,
    hall_littlewood_P,
    multiplicities,
    rows_between,
    schur,
    schur_bialternant,
    schur_gt,
    symmetrize,
    truncated_partition_list,
)


def spin_pole_list(n, jmax):
    return [
        lambda pt: math.prod(
            1 - pt.s(j) * ui for j in range(jmax + 1) for ui in pt.u
        )
    ]


def test_partition_validation_and_multiplicities():
    lam = Partition((3, 3, 1, 0, 0))
    assert lam.m(3) == 2 and lam.m(0) == 2 and lam.m(2) == 0
    assert multiplicities((3, 3, 1, 0, 0)) == {3: 2, 1: 1, 0: 2}
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_bounded_partitions_graded_order():
    lams = bounded_partitions(2, 2)
    assert lams[0] == (0, 0)
    assert sorted(lams) == sorted({(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)})
    sizes = [sum(l) for l in lams]
    assert sizes == sorted(sizes)


def test_truncated_partition_list_caps():
    lams = truncated_partition_list(2, 1, 2)
    assert all(l[0] <= 3 and sum(max(v - 1, 0) for v in l) <= 2 for l in lams)
    assert (3, 1) in lams and (3, 2) not in lams


def test_symmetrize_constant_and_linear():
    u = (F(1, 2), F(1, 3), F(1, 5))
    assert symmetrize(lambda v: F(1), u) == 6
    a, b = F(2, 7), F(3, 5)
    assert symmetrize(lambda v: v[0], (a, b)) == a + b


def test_symmetrize_shuffle_product_identity():
    # symmetrizing prod (u_i - q u_j)/(u_i - u_j) gives (q;q)_n / (1-q)^n
    q = F(2, 7)
    u = (F(1, 2), F(1, 3), F(2, 5))

    def g(v):
        out = F(1)
        for i in range(3):
            for j in range(i + 1, 3):
                out *= (v[i] - q * v[j]) / (v[i] - v[j])
        return out

    assert symmetrize(g, u) == qpoch(q, q, 3) / (1 - q) ** 3


def test_symmetrize_cap():
    with pytest.raises(ValueError):
        symmetrize(lambda v: F(1), tuple(F(i + 2) for i in range(9)))


def test_antisymmetrize_basics():
    u = (F(1, 2), F(1, 3))
    assert antisymmetrize(lambda v: F(1), u) == 0
    assert antisymmetrize(lambda v: v[0], u) == u[0] - u[1]


def test_antisymmetrize_monomials_give_vandermonde_determinant():
    x = (F(1, 2), F(1, 3), F(2, 7))

    def g(v):
        return v[0] ** 0 * v[1] ** 1 * v[2] ** 2

    expect = det([[xi**j for j in range(3)] for xi in x])
    assert antisymmetrize(g, x) == expect


def test_f_lambda_length_one_formulas():
    pt = sample_point(1, 1, p=2, pole_list=spin_pole_list(1, 3))
    u1, q = pt.u[0], pt.q
    s0, s1 = pt.s(0), pt.s(1)
    assert f_lambda((0,), pt) == (1 - q) / (1 - s0 * u1)
    assert f_lambda((1,), pt) == (1 - q) * (u1 - s0) / ((1 - s1 * u1) * (1 - s0 * u1))


def test_f_lambda_empty():
    pt = ParamPoint(F(1, 2), F(1), SpinParams.constant(F(0)), ())
    assert f_lambda((), pt) == 1


def test_f_lambda_symmetric_in_u():
    for n, lam in ((3, (3, 1, 0)), (4, (2, 2, 1, 0))):
        pt = sample_point(2, n, p=1, pole_list=spin_pole_list(n, 4))
        base = f_lambda(lam, pt)
        for perm in permutations(range(n)):
            assert f_lambda(lam, pt.with_u(tuple(pt.u[i] for i in perm))) == base


def test_f_lambda_schur_specialization():
    pt = ParamPoint(F(0), F(1), SpinParams.constant(F(0)), (F(2, 3), F(3, 5), F(1, 7)))
    for lam in [(0, 0, 0), (2, 1, 0), (3, 3, 1), (4, 2, 2)]:
        assert f_lambda(lam, pt) == schur(lam, pt.u)


def test_f_lambda_hall_littlewood_specialization():
    pt = ParamPoint(F(1, 3), F(1), SpinParams.constant(F(0)), (F(2, 3), F(3, 5), F(2, 7)))
    q = pt.q
    for lam in [(0, 0, 0), (2, 1, 0), (2, 2, 0), (3, 1, 1)]:
        norm = F(1)
        for m in multiplicities(lam).values():
            norm *= qpoch(q, q, m)
        assert f_lambda(lam, pt) == norm * hall_littlewood_P(lam, pt.u, q)


def test_f_lambda_pole_reporting():
    spin = SpinParams.constant(F(2))
    pt = ParamPoint(F(1, 3), F(1), spin, (F(1, 2), F(1, 5)))
    with pytest.raises(PoleError):
        f_lambda((1, 0), pt)


def test_schur_examples():
    x = (F(2, 3), F(3, 5))
    assert schur((), x) == 1
    assert schur((1,), x) == x[0] + x[1]
    assert schur((2, 1), x) == x[0] ** 2 * x[1] + x[0] * x[1] ** 2


def test_schur_gt_equals_bialternant():
    x3 = (F(2, 3), F(3, 5), F(5, 7))
    x4 = (F(2, 3), F(3, 5), F(5, 7), F(7, 11))
    for n, xs in ((3, x3), (4, x4)):
        for size in range(7):
            for lam in bounded_partitions(n, size):
                if sum(lam) != size:
                    continue
                assert schur_gt(lam, xs) == schur_bialternant(lam, xs), lam


def fraction_bialternant(lam, x):
    """The alternant ratio on Fraction powers, as ``schur_bialternant`` took
    it before its rows were integer powers: det [x_i^(lambda_j + n - 1 - j)]
    over the Vandermonde of x reversed."""
    x = tuple(F(v) for v in x)
    n = len(x)
    lam = tuple(lam) + (0,) * (n - len(lam))
    num = det([[xi ** (lam[j] + n - 1 - j) for j in range(n)] for xi in x])
    return num / vandermonde(x[::-1])


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_bialternant_on_integer_powers_equals_the_fraction_alternants(seed):
    rng = random.Random(seed)
    for n in range(7):
        for extra in ((), (F(0),), (F(-3, 4), F(-5))):
            x = list(extra[:n])
            while len(x) < n:
                v = F(rng.randint(-20, 20), rng.randint(1, 12))
                if v not in x:
                    x.append(v)
            rng.shuffle(x)
            for lam in bounded_partitions(n, 3 if n < 6 else 2):
                got = schur_bialternant(lam, x)
                assert type(got) is F and got == fraction_bialternant(lam, x), (lam, x)
    assert schur_bialternant((), ()) == fraction_bialternant((), ()) == 1


def test_rows_between_is_a_bounded_cache_of_tuples():
    for row, strict in (((1, 3, 4), True), ((0, 2, 2, 5), False), ((1, 2, 5, 6), True), ((4,), False)):
        got = rows_between(row, strict)
        assert type(got) is tuple and all(type(b) is tuple for b in got)
        # every row between, brute force
        ranges = [range(row[j], row[j + 1] + 1) for j in range(len(row) - 1)]
        step = 1 if strict else 0
        expect = [b for b in product(*ranges) if all(b[j] + step <= b[j + 1] for j in range(len(b) - 1))]
        # a one-entry row has no row above it in a pattern
        assert list(got) == (expect if ranges else []), (row, strict)
        assert rows_between(row, strict) is got
    assert 0 < rows_between.cache_info().maxsize <= 10000


def test_schur_routes_reject_a_partition_longer_than_the_variables():
    # the alternant ratio once dropped the parts past n: (2, 1, 1) at two
    # variables gave s_(2,1)
    x = (F(1, 2), F(1, 3))
    for route in (schur_gt, schur_bialternant, schur):
        with pytest.raises(ValueError, match="partition longer than variable list"):
            route((2, 1, 1), x)
    assert schur_bialternant((2, 1), x) == schur_gt((2, 1), x) == F(5, 36)


def test_schur_falls_back_on_repeated_points():
    xs = (F(1), F(1), F(1))
    assert schur((1, 0, 0), xs) == 3


def test_hall_littlewood_basics():
    x = (F(2, 3), F(3, 5))
    q = F(2, 7)
    assert hall_littlewood_P((1, 0), x, q) == x[0] + x[1]
    for lam in [(2, 0), (2, 1), (3, 3)]:
        assert hall_littlewood_P(lam, x, F(0)) == schur(lam, x)
    assert hall_littlewood_P((), (), q) == 1


@pytest.mark.parametrize("q, lam, m", [(1, (1, 1), 2), (1, (1, 0), 1), (-1, (1, 1), 2)])
def test_hall_littlewood_names_the_q_pochhammer_pole_before_the_sum(q, lam, m, monkeypatch):
    # the norm divides by (q; q)_m per part multiplicity m: zero at q = 1,
    # and at q = -1 once a part repeats
    def no_sum(*args):
        raise AssertionError("the symmetrizer sum ran")

    monkeypatch.setattr(spinhl.symfun, "permutation_sum", no_sum)
    with pytest.raises(PoleError) as err:
        hall_littlewood_P(lam, (F(1, 2), F(1, 3)), q)
    assert str(err.value) == "vanishing denominator: (q; q)_%d" % m


def test_recurrence_examples():
    pt = sample_point(3, 2, p=1, pole_list=spin_pole_list(2, 4))
    # constant partitions reduce to the fully explicit product
    q = pt.q
    expect = qpoch(q, q, 2)
    for ui in pt.u:
        expect /= 1 - pt.s(0) * ui
    assert f_lambda_recurrence_rhs((0, 0), pt) == expect == f_lambda((0, 0), pt)
    assert f_lambda_recurrence_rhs((1, 0), pt) == f_lambda((1, 0), pt)
    pt3 = sample_point(4, 3, p=1, pole_list=spin_pole_list(3, 4))
    assert f_lambda_recurrence_rhs((2, 2, 1), pt3) == f_lambda((2, 2, 1), pt3)


@pytest.mark.parametrize(
    "lam, spin, u, what",
    [
        ((1, 0), SpinParams((F(2),), F(1, 3)), (F(1, 2), F(1, 5)), "1 - s_0*u_1"),
        ((1, 1), SpinParams((F(1, 3),), F(1, 5)), (F(1, 7), F(5)), "1 - s_1*u_2"),
        ((1, 1), SpinParams((F(1, 3),), F(1, 5)), (F(1, 7), F(3)), "1 - s_0*u_2"),
    ],
    ids=["smallest part", "smallest part, second u", "prefix spin"],
)
def test_recurrence_poles_keep_their_names(lam, spin, u, what):
    pt = ParamPoint(F(1, 2), F(1), spin, u)
    with pytest.raises(PoleError) as err:
        f_lambda_recurrence_rhs(lam, pt)
    assert str(err.value) == "vanishing denominator: " + what


def test_recurrence_small_grid():
    pt = sample_point(5, 3, p=1, pole_list=spin_pole_list(3, 5))
    for lam in bounded_partitions(3, 3):
        assert f_lambda_recurrence_rhs(lam, pt) == f_lambda(lam, pt), lam
