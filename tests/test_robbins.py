from fractions import Fraction as F
from itertools import combinations

import pytest

from spinhl.arith import PoleError, qpoch
from spinhl.robbins import (
    DAMT,
    MonotoneTriangle,
    count_monotone_triangles,
    damt_weight,
    damts,
    damts_of,
    monotone_triangles,
    mt_weight,
    robbins_bialternant,
    robbins_star_bialternant,
    robbins_star_enum,
)
from spinhl.symfun import (
    bounded_partitions,
    f_lambda,
    hall_littlewood_P,
    multiplicities,
    schur,
)

X4 = (F(2, 3), F(3, 5), F(5, 7), F(7, 11))
UVW = (F(2, 9), F(3, 11), F(5, 13))


def test_triangle_validation():
    MonotoneTriangle(((2,), (1, 3)))
    with pytest.raises(ValueError):
        MonotoneTriangle(((2,), (1, 1)))  # bottom not strict
    with pytest.raises(ValueError):
        MonotoneTriangle(((5,), (1, 3)))  # entry above its cone


def test_enumerated_triangles_pass_the_public_validator():
    for k in range(1, 6):
        bottom = tuple(range(1, k + 1))
        triangles = monotone_triangles(bottom)
        for M in triangles:
            assert MonotoneTriangle(M.rows) == M
        assert len(set(triangles)) == len(triangles) == count_monotone_triangles(bottom)


def test_mt_weight_worked_example():
    M = MonotoneTriangle(((5,), (4, 5), (3, 4, 6), (2, 3, 5, 7)))
    u, v, w = UVW
    x = X4
    expect = (
        u**3
        * (w + u * x[2] + v / x[2])
        * (w + u * x[3] + v / x[3]) ** 2
        * (x[0] * x[1] * x[2] * x[3]) ** 5
    )
    assert mt_weight(M, x, u, v, w) == expect


def test_mt_weight_single_row_and_left_leaning():
    assert mt_weight(MonotoneTriangle(((4,),)), (F(2, 3),), *UVW) == F(2, 3) ** 4
    # top entry equal to its lower-left neighbour carries one factor v
    M = MonotoneTriangle(((2,), (2, 5)))
    u, v, w = UVW
    x = X4[:2]
    assert mt_weight(M, x, u, v, w) == v * x[0] ** 2 * x[1] ** (7 - 2 - 1)


def test_damt_worked_example():
    M = MonotoneTriangle(((5,), (4, 5), (3, 4, 6), (2, 3, 5, 7)))
    deco = {
        (0, 0): "SE",
        (1, 0): "SE",
        (1, 1): "DOWN",
        (2, 0): "SE",
        (2, 1): "DOWN",
        (2, 2): "SW",
    }
    D = DAMT(M, tuple(deco.items()))
    u, v, w = UVW
    x = X4
    assert damt_weight(D, x, u, v, w) == u**3 * v * w**2 * x[0] ** 5 * x[1] ** 5 * x[2] ** 5 * x[3] ** 4


def test_damt_forcing_rules():
    M = MonotoneTriangle(((2,), (2, 5)))
    with pytest.raises(ValueError):
        DAMT(M, (((0, 0), "DOWN"),))  # left-leaning entry must carry SW
    DAMT(M, (((0, 0), "SW"),))


def test_decoration_sum_reproduces_triangle_weight():
    u, v, w = UVW
    for M in monotone_triangles((1, 3, 4)):
        total = sum(damt_weight(D, X4[:3], u, v, w) for D in damts_of(M))
        assert total == mt_weight(M, X4[:3], u, v, w)


def test_enumeration_counts():
    assert count_monotone_triangles((1, 2, 3)) == 7
    assert len(monotone_triangles((1, 2, 3))) == 7
    assert len(damts((1, 2))) == 2


def test_alternating_sign_matrix_counts():
    counts = [count_monotone_triangles(tuple(range(1, n + 1))) for n in range(1, 6)]
    assert counts == [1, 2, 7, 42, 429]


def test_robbins_star_enum_basics():
    assert robbins_star_enum((4,), (F(2, 3),), *UVW) == F(2, 3) ** 4
    ones = (F(1),) * 3
    assert robbins_star_enum((1, 2, 3), ones, 1, 1, -1) == 7


def test_all_ones_evaluation_counts_triangles():
    ones4 = (F(1),) * 4
    for n in (2, 3, 4):
        for bottom in combinations(range(6), n):
            val = robbins_star_enum(bottom, ones4[:n], 1, 1, -1)
            assert val == count_monotone_triangles(bottom), bottom


def test_enum_equals_bialternant():
    u, v, w = UVW
    for n in (1, 2, 3, 4):
        for bottom in combinations(range(6), n):
            a = robbins_star_enum(bottom, X4[:n], u, v, w)
            b = robbins_star_bialternant(bottom, X4[:n], u, v, w)
            assert a == b, bottom


def test_bialternant_rejects_repeated_points():
    with pytest.raises(PoleError):
        robbins_star_bialternant((0, 1), (F(1), F(1)), *UVW)


def test_schur_specialization_of_modified_polynomials():
    # at (u, v, w) = (0, 0, 1) only downward decorations survive and the
    # generating function collapses to a shifted Schur polynomial
    x = X4[:3]
    prefactor = (x[0] * x[1] * x[2]) ** 2
    cases = {
        (0, 2, 4): (0, 0, 0),
        (1, 3, 5): (1, 1, 1),
        (0, 2, 5): (1, 0, 0),
        (1, 4, 6): (2, 2, 1),
    }
    for bottom, shifted in cases.items():
        val = robbins_star_enum(bottom, x, 0, 0, 1)
        assert val == prefactor * schur(shifted, x), bottom


def test_ordinary_robbins_length_one():
    t, (u, v, w) = F(4, 7), UVW
    x = F(2, 3)
    expect = (t * x + u * x * x + v + w * x) * x**2
    assert robbins_bialternant((3,), (x,), t, u, v, w) == expect


def test_hall_littlewood_from_ordinary_robbins():
    q = F(2, 7)
    for n in (1, 2, 3):
        xs = X4[:n]
        for lam in bounded_partitions(n, 5 - n):
            norm = F(1)
            for m in multiplicities(lam).values():
                norm /= qpoch(q, q, m)
            P = hall_littlewood_P(lam, xs, q)
            sign = (-1) ** (n * (n - 1) // 2)
            assert P == sign * norm * robbins_bialternant(lam, xs, -q, 0, 0, 1), lam
            rev = tuple(reversed(lam))
            assert P == norm * robbins_bialternant(rev, xs, 1, 0, 0, -q), lam


def test_ordinary_robbins_from_spin_functions():
    # the homogeneous-spin specialization of F_lambda matches the ordinary
    # Robbins polynomial after the rational substitution in each variable
    from spinhl.arith import ParamPoint, SpinParams

    s, t = F(1, 4), F(2, 5)
    q = t * t
    for n in (1, 2, 3):
        xs = X4[:n]
        u = tuple((x + s) / (1 + s * x) for x in xs)
        pt = ParamPoint(t, F(1), SpinParams.constant(s), u)
        for lam in bounded_partitions(n, 3):
            k = tuple(v + 1 for v in reversed(lam))
            lhs = robbins_bialternant(
                k, xs, 1 - s * s * q, s * (1 - q), s * (1 - q), s * s - q
            )
            rhs = F(1 - s * s) ** (n * (n + 1) // 2) / (1 - q) ** n
            for x in xs:
                rhs *= ((1 - s * s * q) * x + s * (1 - q) * (x * x + 1) + (s * s - q) * x) / (
                    1 + s * x
                )
            rhs *= f_lambda(lam, pt)
            assert lhs == rhs, (n, lam)
